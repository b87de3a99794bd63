"""Source hygiene of the ``dlq`` package, checked with the standard
library's ``ast``: no module imports a name it never uses, and no private
function, method or class goes unused.

An unused import still runs at start-up, so it costs every one-shot
``dlq`` process.  A name counts as used when the module reads it, lists it
in ``__all__`` or mentions it in a string annotation; ``__init__.py``
files re-export what they import and are not checked for imports.  A
private helper (a name with a leading underscore, dunders exempt) counts
as used when some module of the package reads its name outside the
helper's own definition, as a name, an attribute or in a string
annotation.
"""

from __future__ import annotations

import ast
import pathlib
from collections import Counter

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "dlq"


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            yield node.returns
            yield from (arg.annotation for arg in (
                *args.posonlyargs, *args.args, *args.kwonlyargs,
                args.vararg, args.kwarg) if arg is not None)
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.AST) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in filter(None, _annotations(tree)):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used_names(ast.parse(node.value, mode="eval"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {e.value for e in node.value.elts}
    return used


def unused_imports(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` of every imported name the source never uses."""
    tree = ast.parse(source)
    imported: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, (a.asname or a.name).split(".")[0])
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    used = _used_names(tree)
    return sorted((line, name) for line, name in imported if name not in used)


MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, expected", [
    ("import json\nfrom typing import Mapping\nx: Mapping = {}\n", [(1, "json")]),
    ("import os.path\nos.sep\n", []),
    ("from a import b as c\nc()\n", []),
    ("from a import b, c\n__all__ = ['b']\n", [(1, "c")]),
    ("from a import T\ndef f() -> 'list[T]':\n    pass\n", []),
    ("from __future__ import annotations\n", []),
])
def test_the_check_sees_what_a_module_leaves_unread(source, expected):
    assert unused_imports(source) == expected


def _references(tree: ast.AST) -> Counter:
    """How often each name is read in ``tree``: as a name, an attribute or
    inside a string annotation."""
    refs: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
    for annotation in filter(None, _annotations(tree)):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                refs += _references(ast.parse(node.value, mode="eval"))
    return refs


def dead_private_helpers(sources: list[str]) -> list[str]:
    """The private functions, methods and classes that no source reads
    outside their own definition."""
    trees = [ast.parse(source) for source in sources]
    refs = sum(map(_references, trees), Counter())
    return sorted(
        node.name for tree in trees for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and refs[node.name] == _references(node)[node.name])


def test_every_private_helper_is_used_somewhere_in_the_package():
    sources = [p.read_text(encoding="utf-8") for p in sorted(SRC.rglob("*.py"))]
    assert dead_private_helpers(sources) == []


@pytest.mark.parametrize("sources, expected", [
    (["def _f():\n    pass\n"], ["_f"]),
    (["def _f(n):\n    return _f(n - 1)\n"], ["_f"]),
    (["def _f():\n    pass\n", "from m import _f\n_f()\n"], []),
    (["class C:\n    def _m(self):\n        pass\n"
      "    def __eq__(self, other):\n        return self._m()\n"], []),
    (["class _C:\n    pass\n\nx: '_C'\n"], []),
    (["def __getattr__(name):\n    pass\n"], []),
])
def test_the_check_sees_a_private_helper_nothing_reads(sources, expected):
    assert dead_private_helpers(sources) == expected
