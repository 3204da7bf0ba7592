"""No code under `src/` reaches into another object's private attributes.

A stdlib-`ast` check: an attribute whose name starts with one underscore
(dunder names excepted) may be reached only through ``self``, ``cls`` or
``super()``, or inside a class that defines it, as ``other._steps`` in
`Record.__eq__`.  A class defines the private names of its ``def`` and
``class`` statements, its class-level assignments, its ``__slots__`` and
its ``self._x = ...`` stores.  Anything else is a caller going around an
object's interface: give the object a public name for what is read, or
make the data a plain value.
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


def _through_self(node) -> bool:
    """``node`` is ``self``, ``cls`` or a ``super()`` call."""
    return (isinstance(node, ast.Name) and node.id in ("self", "cls")
            or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "super")


def defined_private(cls: ast.ClassDef) -> set[str]:
    """The private names class ``cls`` defines."""
    names = set()
    for stmt in cls.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    names.update(c.value for c in ast.walk(stmt.value)
                                 if isinstance(c, ast.Constant)
                                 and isinstance(c.value, str))
                elif isinstance(target, ast.Name):
                    names.add(target.id)
    names.update(node.attr for node in ast.walk(cls)
                 if isinstance(node, ast.Attribute)
                 and isinstance(node.ctx, ast.Store) and _through_self(node.value))
    return {name for name in names if _private(name)}


def foreign_private_reads(source: str) -> list[tuple[int, str]]:
    """(line, expression) of each private attribute ``source`` reaches
    other than through ``self``, ``cls``, ``super()`` or inside a class
    that defines it."""
    found = []

    def visit(node, owned):
        if isinstance(node, ast.ClassDef):
            owned = owned | defined_private(node)
        elif (isinstance(node, ast.Attribute) and _private(node.attr)
                and not _through_self(node.value) and node.attr not in owned):
            found.append((node.lineno, ast.unparse(node)))
        for child in ast.iter_child_nodes(node):
            visit(child, owned)

    visit(ast.parse(source), frozenset())
    return found


@pytest.mark.parametrize("source, found", [
    ("class A:\n    def f(self):\n        return self._x\n", []),
    ("class A:\n    @classmethod\n    def f(cls):\n        return cls._x\n", []),
    ("class A(B):\n    def f(self):\n        return super()._f()\n", []),
    ("class A:\n    __slots__ = ('_x',)\n"
     "    def __eq__(self, other):\n        return self._x == other._x\n", []),
    ("class A:\n    def __init__(self):\n        self._x = 1\n"
     "    def same(self, other):\n        return other._x == 1\n", []),
    ("class A:\n    def _f(self):\n        pass\n"
     "    def g(self, other):\n        return other._f()\n", []),
    ("class A:\n    def f(self):\n        return self.b._x\n",
     [(3, "self.b._x")]),
    ("def f(a):\n    return a._x\n", [(2, "a._x")]),
    ("class A:\n    __slots__ = ('_y',)\n"
     "    def f(self, other):\n        return other._x\n", [(4, "other._x")]),
    ("class A:\n    def f(self, b):\n        b._x = 1\n", [(3, "b._x")]),
    ("import m\nm._helper()\n", [(2, "m._helper")]),
    ("def f(a):\n    return a.__class__\n", []),
], ids=["self", "cls", "super", "slots", "self-store", "method",
        "through-attribute", "function", "other-class", "foreign-store",
        "module", "dunder"])
def test_the_check_finds_foreign_private_reads(source, found):
    assert foreign_private_reads(source) == found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_module_reads_another_objects_private_attributes(path):
    assert foreign_private_reads(path.read_text()) == []
