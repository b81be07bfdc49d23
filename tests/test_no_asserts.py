"""Runtime checks in the package are real checks: ``python -O`` strips asserts.

A failed invariant raises InvariantError, so ``raise AssertionError`` is
refused as well.
"""
from __future__ import annotations

import ast
from pathlib import Path

import coarsegraph

PACKAGE = Path(coarsegraph.__file__).parent


def test_package_has_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _raises_assertion_error(node) -> bool:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_package_raises_no_assertion_error():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Raise) and node.exc is not None and _raises_assertion_error(node)
    ]
    assert found == []
