"""The blocked pair-neighbourhood kernel against the Python scan oracle.

``selector_oracle`` holds the pair-by-pair scans; ``modulus`` must give the
same r and attaining witness, and ``verify_selector`` the same verdict and
first witness at every r from -1 to the modulus, for coordinate, order and
table selectors, with and without memoized rows copied into the all-pairs
matrix and across block boundaries, and on graphs with a hub, whose
padded neighbourhood rows are wide; the search's neighbour lists, read from
the same blocks, must be the oracle's at every block size too.
"""
from __future__ import annotations

import random
from itertools import islice
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from coarsegraph import PathMetric, build_graph, hyperspace
from coarsegraph.generators import comb_graph, cycle_graph, grid_graph, path_graph, tripod_graph
from coarsegraph.order_compat import LinearOrder
from coarsegraph.selector import min_selector, modulus, order_to_selector, verify_selector
from conftest import random_tournament
from selector_oracle import oracle_modulus, oracle_pair_neighbors, oracle_verify

GRAPHS = {
    "path2": path_graph(2),
    "path3": path_graph(3),
    "path9": path_graph(9),
    "grid3x3": grid_graph(3, 3),
    "grid3x5": grid_graph(3, 5),
    "grid4x4": grid_graph(4, 4),
    "cycle7": cycle_graph(7),
    "tripod": tripod_graph(2, 3, 2),
    "comb": comb_graph(6, 2),
}


def _selectors(g, rng):
    n = g.vertex_count
    shuffled = list(range(n))
    rng.shuffle(shuffled)
    yield "min", min_selector(list(range(n)))
    yield "coord", min_selector([10**20 - 7 * v for v in shuffled])
    yield "order", order_to_selector(LinearOrder.from_ranking(shuffled))
    for k in range(3):
        yield f"table{k}", random_tournament(g, rng)


BLOCKS = [1, 7, 40, hyperspace.BLOCK_ELEMENTS]


@pytest.mark.parametrize("name", sorted(GRAPHS))
# at most this many rows, every third vertex's, are read through ``row``
# before the scan; the matrix build copies them in and computes the others
# (4096 exceeds every graph here)
@pytest.mark.parametrize("rows_first", [4096, 0])
@pytest.mark.parametrize("block", BLOCKS)
def test_kernel_matches_oracle(name, rows_first, block):
    g = GRAPHS[name]
    rng = random.Random(f"{name}:{rows_first}:{block}")
    oracle_metric = PathMetric(g)
    memo = list(range(0, g.vertex_count, 3))[:rows_first]
    with mock.patch.object(hyperspace, "BLOCK_ELEMENTS", block):
        for label, f in _selectors(g, rng):
            m = PathMetric(g)
            for v in memo:
                m.row(v)
            expected = oracle_modulus(oracle_metric, f)
            assert modulus(m, f) == expected, label
            for r in range(-1, expected.r + 1):
                assert verify_selector(m, f, r) == oracle_verify(oracle_metric, f, r), (label, r)
            assert sorted(m._rows) == memo  # the scans memoize no row


@st.composite
def hub_graphs(draw):
    """Random connected graphs, stars and spiders, the last two with extra edges."""
    kind = draw(st.sampled_from(["random", "star", "spider"]))
    rng = draw(st.randoms(use_true_random=False))
    if kind == "random":
        n = draw(st.integers(2, 40))
        edges = {(rng.randrange(v), v) for v in range(1, n)}
    elif kind == "star":
        n = draw(st.integers(3, 40))
        edges = {(0, v) for v in range(1, n)}
    else:  # legs of equal length from the hub 0
        legs, length = draw(st.integers(3, 10)), draw(st.integers(2, 4))
        n = 1 + legs * length
        edges = {(0 if v <= legs else v - legs, v) for v in range(1, n)}
    for _ in range(draw(st.integers(0, n // 2), label="extra edges")):
        a, b = sorted(rng.sample(range(n), 2))
        edges.add((a, b))
    return build_graph(sorted(edges), vertex_count=n)


@settings(max_examples=30, deadline=None)
@given(hub_graphs(), st.data())
def test_kernel_matches_oracle_with_hubs(g, data):
    rng = data.draw(st.randoms(use_true_random=False), label="selector rng")
    label, f = data.draw(st.sampled_from(list(islice(_selectors(g, rng), 4))), label="selector")
    block = data.draw(st.sampled_from([1, 7, hyperspace.BLOCK_ELEMENTS]), label="block")
    oracle_metric, m = PathMetric(g), PathMetric(g)
    with mock.patch.object(hyperspace, "BLOCK_ELEMENTS", block):
        expected = oracle_modulus(oracle_metric, f)
        assert modulus(m, f) == expected, label
        for r in range(-1, expected.r + 1):
            assert verify_selector(m, f, r) == oracle_verify(oracle_metric, f, r), (label, r)


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_search_neighbour_lists_unchanged(name):
    m = PathMetric(GRAPHS[name])
    n = m.graph.vertex_count
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    index = {p: i for i, p in enumerate(pairs)}
    expected = [sorted(index[q] for q in oracle_pair_neighbors(m, p)) for p in pairs]
    for block in BLOCKS:  # 1 and 7 split the pairs of every graph over many blocks
        with mock.patch.object(hyperspace, "BLOCK_ELEMENTS", block):
            assert hyperspace.pair_neighbor_lists(m) == (pairs, expected), block


@pytest.mark.parametrize("name", ["path9", "grid3x5", "comb"])
def test_kernels_recheck_their_witness(name):
    # a chooser that picks the other element of each pair {a, b} makes the
    # kernel measure jumps f never makes: its witness is no violation of f,
    # and each kernel's own re-check raises rather than returning it
    from coarsegraph import selector
    from coarsegraph.graph_core import InvariantError

    g = GRAPHS[name]
    f = min_selector(range(g.vertex_count))
    true_r = modulus(PathMetric(g), f).r
    real = selector._chooser

    def corrupted(f, n):
        choose, unchosen = real(f, n)
        return (lambda x, y: x + y - choose(x, y)), unchosen

    with mock.patch.object(selector, "_chooser", corrupted):
        with pytest.raises(InvariantError, match="no violation"):
            modulus(PathMetric(g), f)
        with pytest.raises(InvariantError, match="no violation"):
            verify_selector(PathMetric(g), f, true_r)
