"""The docs point at code that exists.

README.md and the docstrings under `src/` name private helpers
(`` `_classes` ``, `` `_FacialFamily._windows` ``); a helper renamed or
deleted without its citation leaves the docs pointing at nothing.  A name
counts as defined when `src/` has a def or class of that name, assigns it
(as a variable or as an attribute) or imports something as it.

Every `recolor ...` command in README's `sh` blocks parses with the CLI's
own parser, so a renamed or dropped flag fails here too.
"""

import ast
import pathlib
import re
import shlex

import pytest

from recolor.cli import _parser

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# a backticked name, possibly dotted, with some private component
CITED = re.compile(r"`([\w.]*\b_[A-Za-z][\w.]*)`")


def private_parts(name):
    return [p for p in name.split(".") if p.startswith("_") and not p.startswith("__")]


def scan_src():
    """(names defined under src/, {cited name: where it is cited})."""
    defined, cited = set(), {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                defined.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                defined.add(node.attr)
            elif isinstance(node, ast.alias):
                defined.add(node.asname or node.name)
            if isinstance(node, (ast.Module, ast.FunctionDef,
                                 ast.AsyncFunctionDef, ast.ClassDef)):
                for name in CITED.findall(ast.get_docstring(node) or ""):
                    cited.setdefault(name, f"{path.relative_to(ROOT)}")
    return defined, cited


def test_cited_private_names_are_defined():
    defined, cited = scan_src()
    for name in CITED.findall((ROOT / "README.md").read_text()):
        cited.setdefault(name, "README.md")
    assert len(cited) >= 10, cited
    stale = {name: where for name, where in cited.items()
             if not set(private_parts(name)) <= defined}
    assert not stale, stale


SH_BLOCK = re.compile(r"^```sh\n(.*?)^```", re.M | re.S)


def readme_commands():
    """argv of every `recolor` line in README's sh blocks, backslash
    continuations joined and comments dropped."""
    commands = []
    for block in SH_BLOCK.findall((ROOT / "README.md").read_text()):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["recolor"]:
                commands.append(argv[1:])
    return commands


def test_readme_commands_parse():
    commands = readme_commands()
    assert len(commands) >= 9, commands
    for argv in commands:
        try:
            _parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: recolor {shlex.join(argv)}")
