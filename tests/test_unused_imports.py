"""No module under `src/` imports a name it never reads.

A stdlib-`ast` check in the spirit of pyflakes' F401: every name an
``import`` binds must be read somewhere in its module, as a name or by
being listed in the module's ``__all__``.  An import line marked
``# noqa: F401`` is exempt (a module-level import kept so that code outside
the module can rebind it).  The check is per module, not per scope, so it
can miss an import whose name is read elsewhere in the module.  A name read
only inside a quoted annotation counts as unread.
"""

import ast
from pathlib import Path

import pytest

import recolor

SRC = Path(recolor.__file__).resolve().parent
MODULES = sorted(SRC.rglob("*.py"))


def _exported(tree):
    """The names of a literal module-level ``__all__`` (a computed one, as
    in `recolor/__init__.py`, exports no imported name)."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            try:
                yield from ast.literal_eval(node.value)
            except ValueError:
                pass


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name ``source`` never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [a.asname or a.name for a in node.names if a.name != "*"]
        else:
            continue
        text = "\n".join(lines[node.lineno - 1:node.end_lineno])
        if "noqa: F401" not in text:
            bound += [(node.lineno, name) for name in names]
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    read |= set(_exported(tree))
    return [(line, name) for line, name in bound if name not in read]


@pytest.mark.parametrize("source, found", [
    ("import os\n", [(1, "os")]),
    ("import os.path\nos.getcwd()\n", []),
    ("from math import floor as fl, ceil\nceil(1)\n", [(1, "fl")]),
    ("import os  # noqa: F401\n", []),
    ("from math import floor\n__all__ = ['floor']\n", []),
    ("from __future__ import annotations\n", []),
    ("def f():\n    import json\n    return 1\n", [(2, "json")]),
], ids=["plain", "dotted", "alias", "noqa", "all", "future", "local"])
def test_the_check_finds_unused_imports(source, found):
    assert unused_imports(source) == found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_module_imports_a_name_it_never_reads(path):
    assert unused_imports(path.read_text()) == []
