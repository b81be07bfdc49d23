"""Package code is there for the package and its benchmark, not for tests.

Every module-level function and class in ``src/coarsegraph`` must be named,
as a whole word, somewhere in ``src/`` or ``perfbench/`` besides its own
``def`` or ``class`` line, an ``__all__`` list and ``__init__.py``.  Every
method of a package class other than a dunder must be named as ``.name``
there, outside its own ``def``.  A name that only tests call belongs in the
tests.
"""
from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "coarsegraph"


def _scanned_lines():
    """(path, line number, line) of every line the scan reads.

    ``__init__.py`` and each ``__all__`` assignment are left out.
    """
    for path in sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")]):
        if path.name == "__init__.py":
            continue
        text = path.read_text(encoding="utf-8")
        skipped = set()
        for node in ast.parse(text).body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                skipped.update(range(node.lineno, node.end_lineno + 1))
        for lineno, line in enumerate(text.splitlines(), start=1):
            if lineno not in skipped:
                yield path, lineno, line


def _definitions(kinds):
    """(path, node) of each module-level definition of ``kinds`` in the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, kinds):
                yield path, node


def test_every_package_definition_is_named_outside_tests():
    definitions = [
        (path, node.lineno, node.name) for path, node in _definitions((ast.FunctionDef, ast.ClassDef))
    ]
    # a word-boundary match of an identifier is a whole \w+ run
    named = {}
    for path, lineno, line in _scanned_lines():
        for word in set(re.findall(r"\w+", line)):
            named.setdefault(word, set()).add((path, lineno))
    unused = [
        f"{path.name}:{lineno}: {name}"
        for path, lineno, name in definitions
        if not named.get(name, set()) - {(path, lineno)}
    ]
    assert unused == []


def test_every_package_method_is_called_outside_tests():
    methods = [
        (path, method)
        for path, cls in _definitions(ast.ClassDef)
        for method in cls.body
        if isinstance(method, ast.FunctionDef) and not re.fullmatch(r"__\w+__", method.name)
    ]
    called = {}
    for path, lineno, line in _scanned_lines():
        for name in set(re.findall(r"\.(\w+)", line)):
            called.setdefault(name, set()).add((path, lineno))
    unused = [
        f"{path.name}:{method.lineno}: {method.name}"
        for path, method in methods
        if not {
            (where, lineno)
            for where, lineno in called.get(method.name, ())
            if where != path or not method.lineno <= lineno <= method.end_lineno
        }
    ]
    assert len(methods) > 20 and unused == []
