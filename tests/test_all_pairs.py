"""The all-pairs matrix: the batched BFS kernel, the rule that selects it, its memory.

``PathMetric.dense_matrix`` fills rows not yet memoized either from one
batched BFS per chunk of sources (``graph_core._batched_bfs``) or from one
deque BFS per row.  Both must give the queue-BFS oracle's distances, with or
without memoized rows; the kernel runs exactly when the graph has at least
``BATCH_MIN_VERTICES`` vertices and padding the neighbourhood table at most
doubles a level's work, and only from the sources with no memoized row.
"""
from __future__ import annotations

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coarsegraph import Holds, PathMetric, build_graph, graph_core, min_selector, modulus, verify_selector
from coarsegraph.generators import cycle_graph, grid_graph, path_graph
from coarsegraph.search import Feasible, min_modulus_search

from conftest import bfs_all_pairs

# README, graph_core: a level allocates at most this many bytes per table
# entry it expands, and building the table at most TABLE_BYTES per entry
LEVEL_BYTES = 32
TABLE_BYTES = 128


def star_graph(n: int):
    return build_graph([(0, v) for v in range(1, n)], vertex_count=n)


def _random_connected(rng: random.Random, n: int, extra: int):
    edges = {(rng.randrange(v), v) for v in range(1, n)}  # a random tree
    while extra > 0:
        a, b = sorted(rng.sample(range(n), 2))
        edges.add((a, b))
        extra -= 1
    return build_graph(sorted(edges), vertex_count=n)


@st.composite
def oracle_graphs(draw):
    """Graphs on both sides of BATCH_MIN_VERTICES and of the padding rule."""
    kind = draw(st.sampled_from(["random", "tree", "cycle", "ladder", "star", "dense"]))
    small = draw(st.booleans())
    n = draw(st.integers(2, 127) if small else st.integers(128, 400))
    rng = draw(st.randoms(use_true_random=False))
    if kind == "random":
        return _random_connected(rng, n, draw(st.integers(0, n)))
    if kind == "tree":
        return _random_connected(rng, n, 0)
    if kind == "cycle":
        return cycle_graph(max(n, 3))
    if kind == "ladder":
        height = draw(st.integers(2, 4))
        return grid_graph(max(1, n // height), height)
    if kind == "star":
        return star_graph(n)
    n = min(n, 160)  # dense: a random tree plus about a quarter to all of the other pairs
    return _random_connected(rng, n, draw(st.integers(n * (n - 1) // 8, n * (n - 1) // 2)))


@settings(max_examples=60, deadline=None)
@given(oracle_graphs(), st.data())
def test_dense_matrix_matches_a_queue_bfs(g, data):
    n = g.vertex_count
    memo = data.draw(st.lists(st.integers(0, n - 1), max_size=5), label="memoized rows")
    m = PathMetric(g)
    for v in memo:
        m.row(v)
    oracle = bfs_all_pairs(n, g.edge_list())
    assert m.dense_matrix().tolist() == oracle
    assert sorted(m._rows) == sorted(set(memo))  # the build memoizes no row


@settings(max_examples=30, deadline=None)
@given(oracle_graphs(), st.data())
def test_distance_block_matches_a_queue_bfs_and_memoizes_nothing(g, data):
    n = g.vertex_count
    vertices = st.integers(0, n - 1)
    memo = data.draw(st.lists(vertices, max_size=5), label="memoized rows")
    # any sources, or the memoized rows and one more in some order
    either = st.lists(vertices, min_size=1, max_size=12) | st.permutations(memo + [n - 1])
    sources = data.draw(either, label="sources")
    targets = data.draw(st.lists(vertices, min_size=1, max_size=12), label="targets")
    m = PathMetric(g)
    for v in memo:
        m.row(v)
    rows = dict(m._rows)
    oracle = bfs_all_pairs(n, g.edge_list())
    block = m.distance_block(sources, targets)
    assert block.dtype == np.int32
    assert block.tolist() == [[oracle[s][t] for t in targets] for s in sources]
    assert m._rows == rows and m._dense is None


def _kernel_sources(monkeypatch, g, memo=()):
    """Sources of every ``_batched_bfs`` call of one build, and the matrix."""
    calls = []
    kernel = graph_core._batched_bfs

    def spy(flat, table, sources, rows):
        # the matrix build writes each source's distances into its own row
        assert rows.tolist() == sources.tolist()
        calls.append(sources.tolist())
        kernel(flat, table, sources, rows)

    monkeypatch.setattr(graph_core, "_batched_bfs", spy)
    m = PathMetric(g)
    for v in memo:
        m.row(v)
    return calls, m.dense_matrix()


@pytest.mark.parametrize(
    "g", [path_graph(128), path_graph(200), grid_graph(20, 10)], ids=["path:128", "path:200", "grid:20x10"]
)
def test_the_kernel_builds_large_sparse_graphs(monkeypatch, g):
    calls, mat = _kernel_sources(monkeypatch, g)
    assert calls == [list(range(g.vertex_count))]
    assert mat.tolist() == bfs_all_pairs(g.vertex_count, g.edge_list())


@pytest.mark.parametrize(
    "g", [path_graph(100), path_graph(127), star_graph(300)], ids=["path:100", "path:127", "star:300"]
)
def test_rows_build_small_graphs_and_stars(monkeypatch, g):
    # paths below BATCH_MIN_VERTICES; a star's padded table has n * n entries for n - 1 edges
    calls, mat = _kernel_sources(monkeypatch, g)
    assert calls == []
    assert mat.tolist() == bfs_all_pairs(g.vertex_count, g.edge_list())


def test_the_kernel_runs_only_from_sources_without_a_memoized_row(monkeypatch):
    g = path_graph(200)
    memo = [199, 3, 50]
    calls, mat = _kernel_sources(monkeypatch, g, memo)
    assert calls == [[v for v in range(200) if v not in memo]]
    assert mat.tolist() == bfs_all_pairs(200, g.edge_list())


@pytest.mark.parametrize(
    "g, entries",
    [
        (path_graph(1500), graph_core.BATCH_ENTRIES),
        (grid_graph(40, 40), graph_core.BATCH_ENTRIES),
        # a small B, where the bound (3.1 MB) is below the 10 MB matrix and
        # would catch a second n*n int32 array; k = 8 sources a chunk
        (grid_graph(40, 40), 1 << 16),
    ],
    ids=["path:1500", "grid:40x40", "grid:40x40-small-B"],
)
def test_a_build_allocates_the_matrix_and_the_stated_bound(monkeypatch, g, entries):
    monkeypatch.setattr(graph_core, "BATCH_ENTRIES", entries)
    n = g.vertex_count
    table = n * (max(map(len, g.adjacency)) + 1)  # table entries: n * width
    m = PathMetric(g)
    tracemalloc.start()
    try:
        mat = m.dense_matrix()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = LEVEL_BYTES * max(entries, table) + TABLE_BYTES * table
    assert peak <= mat.nbytes + bound


@pytest.mark.parametrize(
    "g", [path_graph(200), grid_graph(20, 10), grid_graph(5, 5)], ids=["path:200", "grid:20x10", "grid:5x5"]
)
def test_the_neighbourhood_table_is_built_once_per_metric(monkeypatch, g):
    # the matrix build, the selector kernel and the search's pair structure
    # all read the metric's one table: N[v] is listed once per vertex
    calls = []
    listing = graph_core.Graph.closed_neighborhood

    def spy(graph, v):
        calls.append(v)
        return listing(graph, v)

    monkeypatch.setattr(graph_core.Graph, "closed_neighborhood", spy)
    n = g.vertex_count
    m = PathMetric(g)
    f = min_selector(list(range(n)))
    assert verify_selector(m, f, modulus(m, f).r) == Holds()
    assert calls == list(range(n))
    if n * (n - 1) // 2 <= 300:
        calls.clear()
        assert isinstance(min_modulus_search(g, n)[-1], Feasible)
        assert calls == list(range(n))
