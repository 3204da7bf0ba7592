"""Every private function or class under `src/` is loaded somewhere there.

A stdlib-`ast` check in the spirit of vulture's unused-code report: each
``def`` or ``class`` whose name starts with one underscore (dunder methods
excepted) must be loaded under `src/`, as a name (``_helper(...)``,
``class A(_Base)``) or as an attribute (``self._paths(v)``).  The check
reads names, not bindings, so a private name loaded anywhere counts for
every definition of that name: an override kept alive by its base's call
passes, and so would a dead definition that shares its name with a live
one.  Tests do not count: a helper only the tests call is unused code.
"""

import ast
from pathlib import Path

import pytest

import recolor

SRC = Path(recolor.__file__).resolve().parent
MODULES = sorted(SRC.rglob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def private_definitions(tree) -> list[tuple[int, str]]:
    """(line, name) of each private function or class defined in ``tree``,
    at any depth."""
    return [(node.lineno, node.name) for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) and _private(node.name)]


def loaded_names(tree) -> set[str]:
    """Every name ``tree`` loads, as a plain name or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def unloaded_private(sources: dict[str, str]) -> list[tuple[str, int, str]]:
    """(module, line, name) of each private definition in ``sources``
    (module -> source text) that no module loads."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    loaded = set().union(*map(loaded_names, trees.values()))
    return [(mod, line, name) for mod, tree in trees.items()
            for line, name in private_definitions(tree) if name not in loaded]


@pytest.mark.parametrize("sources, found", [
    ({"a": "def _f():\n    pass\n"}, [("a", 1, "_f")]),
    ({"a": "def _f():\n    pass\n", "b": "from a import _f\n_f()\n"}, []),
    ({"a": "class _A:\n    pass\nclass B(_A):\n    pass\n"}, []),
    ({"a": "class A:\n    def _m(self):\n        pass\n"
           "    def run(self):\n        return self._m()\n"}, []),
    ({"a": "class A:\n    def _m(self):\n        pass\n"},
     [("a", 2, "_m")]),
    ({"a": "class A:\n    def __init__(self):\n        pass\n"}, []),
    ({"a": "def f():\n    def _g():\n        pass\n    return 1\n"},
     [("a", 2, "_g")]),
    ({"a": "def _f():\n    pass\n_f = None\n"}, [("a", 1, "_f")]),
], ids=["unread", "imported", "base-class", "method", "unread-method",
        "dunder", "nested", "stored-only"])
def test_the_check_finds_unloaded_private_definitions(sources, found):
    assert unloaded_private(sources) == found


def test_every_private_definition_under_src_is_loaded():
    sources = {str(p.relative_to(SRC)): p.read_text() for p in MODULES}
    assert sum(len(private_definitions(ast.parse(t)))
               for t in sources.values()) > 50
    assert unloaded_private(sources) == []
