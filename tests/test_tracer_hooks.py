"""Every hook the benchmark's tracer installs names something that exists.

``perfbench/tracer.py`` wraps coarsegraph functions by module and attribute
name from outside the package; a rename here would only show as a crash of
a traced benchmark run.  The tracer's FUNCTIONS list is read from its
source, so nothing under ``perfbench/`` is imported or written.
"""
from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

from coarsegraph.graph_core import PathMetric

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced_functions():
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["FUNCTIONS"]:
            return ast.literal_eval(node.value)
    raise LookupError("perfbench/tracer.py defines no FUNCTIONS list")


@pytest.mark.parametrize("module, attribute", [(m, a) for m, a, _ in _traced_functions()])
def test_wrapped_function_exists(module, attribute):
    assert callable(getattr(importlib.import_module(f"coarsegraph.{module}"), attribute))


@pytest.mark.parametrize(
    "module, attribute",
    [("hyperspace", "neighbor_pair_candidates"), ("order_compat", "_violations_at")],
)
def test_counted_function_exists(module, attribute):
    assert callable(getattr(importlib.import_module(f"coarsegraph.{module}"), attribute))


@pytest.mark.parametrize("method", ["row", "distance", "dense_matrix", "distances_from_set"])
def test_patched_metric_method_exists(method):
    assert callable(getattr(PathMetric, method))


def test_row_memo_is_a_mapping():
    # the tracer's row hook tests ``u not in m._rows`` to count fresh BFS rows
    from coarsegraph.generators import path_graph

    m = PathMetric(path_graph(3))
    m.row(1)
    assert 1 in m._rows and 0 not in m._rows
