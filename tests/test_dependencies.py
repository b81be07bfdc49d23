"""numpy stays the only runtime dependency of the package.

Every import in ``src/coarsegraph`` names the standard library, numpy or
the package itself; relative imports are the package itself.
"""
from __future__ import annotations

import ast
import sys
from pathlib import Path

import coarsegraph

PACKAGE = Path(coarsegraph.__file__).parent
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "coarsegraph"}


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_package_imports_only_stdlib_and_numpy():
    found = [
        f"{path.name}:{lineno}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for lineno, name in _imported_names(ast.parse(path.read_text(encoding="utf-8")))
        if name.partition(".")[0] not in ALLOWED
    ]
    assert found == []
