from __future__ import annotations

import itertools

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from coarsegraph import (
    DisconnectedGraph,
    GraphError,
    PathMetric,
    SelfLoop,
    build_graph,
    geodesic_between,
)
from coarsegraph.generators import grid_graph, path_graph, tripod_graph

from conftest import floyd_warshall


def test_build_single_edge():
    g = build_graph([(0, 1)])
    assert g.vertex_count == 2
    assert g.edge_list() == [(0, 1)]


def test_build_rejects_self_loop():
    with pytest.raises(SelfLoop):
        build_graph([(0, 1), (1, 1)])


def test_build_reports_components():
    with pytest.raises(DisconnectedGraph) as err:
        build_graph([(0, 1), (1, 2), (2, 0), (3, 4)])
    assert sorted(map(sorted, err.value.components)) == [[0, 1, 2], [3, 4]]


def test_build_rejects_max_id_beyond_edge_count():
    # m edges connect at most m + 1 vertices, so this is refused before
    # a million adjacency lists are allocated
    with pytest.raises(GraphError, match="1 edge\\(s\\) cannot connect 0..1000000"):
        build_graph([(0, 10**6)])


def test_duplicate_edges_counted():
    g = build_graph([(0, 1), (1, 0), (1, 2)])
    assert g.duplicate_edges == 1
    assert g.edge_list() == [(0, 1), (1, 2)]


def test_distance_matches_floyd_warshall_on_path():
    g = path_graph(4)
    m = PathMetric(g)
    oracle = floyd_warshall(4, g.edge_list())
    for u in range(4):
        for v in range(4):
            assert m.distance(u, v) == oracle[u][v]
    assert m.distance(0, 3) == 3


def test_distance_on_grid():
    g = grid_graph(3, 3)
    m = PathMetric(g)
    oracle = floyd_warshall(9, g.edge_list())
    for u in range(9):
        assert m.row(u) == oracle[u]
    assert m.distance(0, 8) == 4  # (0,0) to (2,2)


def test_ball_examples():
    m = PathMetric(path_graph(4))
    assert m.ball(1, 1) == {0, 1, 2}
    assert m.ball(2, 0) == {2}
    grid = PathMetric(grid_graph(3, 3))
    assert grid.ball(4, 1) == {4, 1, 7, 3, 5}  # center of the 3x3 grid


def test_ball_is_extensional():
    m = PathMetric(tripod_graph(3, 3, 3))
    for v in range(m.graph.vertex_count):
        for r in range(m.diameter() + 1):
            assert m.ball(v, r) == {
                u for u in range(m.graph.vertex_count) if m.distance(v, u) <= r
            }


def test_geodesic_on_path_and_trivial():
    m = PathMetric(path_graph(4))
    assert geodesic_between(m, 0, 3).vertices == (0, 1, 2, 3)
    assert geodesic_between(m, 2, 2).vertices == (2,)


def test_geodesic_grid_tie_break():
    m = PathMetric(grid_graph(3, 3))
    # ids are row-major: (0,0)=0, (0,1)=1, (1,1)=4
    assert geodesic_between(m, 0, 4).vertices == (0, 1, 4)


def test_geodesic_invariants_everywhere():
    m = PathMetric(grid_graph(3, 4))
    for u in range(12):
        for v in range(12):
            geodesic_between(m, u, v).validate(m)


def test_entourage_composition_containment_on_p6():
    m = PathMetric(path_graph(6))
    r, s = 1, 2
    for x in range(6):
        reachable = {
            y
            for z in m.ball(x, r)
            for y in m.ball(z, s)
        }
        assert reachable <= m.ball(x, r + s)


def test_entourage_ball_radius_zero():
    m = PathMetric(path_graph(5))
    for x in range(5):
        assert m.ball(x, 0) == {x}


def _metric_axioms(m):
    n = m.graph.vertex_count
    for u, v, w in itertools.product(range(n), repeat=3):
        assert m.distance(u, w) <= m.distance(u, v) + m.distance(v, w)
    for u in range(n):
        assert m.distance(u, u) == 0
        for v in range(n):
            assert m.distance(u, v) == m.distance(v, u)
            if u != v:
                assert (m.distance(u, v) == 1) == (v in m.graph.adjacency[u])


def test_metric_axioms_on_fixed_family():
    for g in (path_graph(7), grid_graph(3, 3), tripod_graph(2, 3, 4)):
        _metric_axioms(PathMetric(g))


@st.composite
def connected_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    all_edges = [(a, b) for a in range(n) for b in range(a + 1, n)]
    # a random spanning chain keeps the draw connected
    perm = draw(st.permutations(range(n)))
    chain = [tuple(sorted((perm[i], perm[i + 1]))) for i in range(n - 1)]
    extra = draw(st.lists(st.sampled_from(all_edges), max_size=8))
    return build_graph(sorted(set(chain) | set(extra)), vertex_count=n)


@settings(max_examples=40, deadline=None)
@given(connected_graphs())
def test_metric_axioms_random(g):
    _metric_axioms(PathMetric(g))


@settings(max_examples=40, deadline=None)
@given(connected_graphs(), st.randoms(use_true_random=False))
def test_geodesic_random(g, rng):
    m = PathMetric(g)
    u = rng.randrange(g.vertex_count)
    v = rng.randrange(g.vertex_count)
    geodesic_between(m, u, v).validate(m)


def test_distances_from_set():
    m = PathMetric(path_graph(10))
    d = m.distances_from_set([0, 9])
    assert d == [0, 1, 2, 3, 4, 4, 3, 2, 1, 0]


@settings(max_examples=40, deadline=None)
@given(connected_graphs(), st.randoms(use_true_random=False))
def test_bfs_rows_and_multi_source_match_floyd_warshall(g, rng):
    n = g.vertex_count
    m = PathMetric(g)
    oracle = floyd_warshall(n, g.edge_list())
    for u in range(n):
        assert m.row(u) == oracle[u]
    sources = rng.sample(range(n), rng.randint(1, n))
    assert m.distances_from_set(sources) == [min(oracle[s][v] for s in sources) for v in range(n)]


@settings(max_examples=30, deadline=None)
@given(connected_graphs())
def test_dense_matrix_keeps_no_row_lists(g):
    # the matrix holds each distance once; rows read afterwards come from it
    n = g.vertex_count
    m = PathMetric(g)
    m.dense_matrix()
    assert m._rows == {}
    oracle = floyd_warshall(n, g.edge_list())
    assert m.dense_matrix().tolist() == oracle
    for u in range(n):
        row = m.row(u)
        assert row == oracle[u] and all(type(d) is int for d in row)


def test_dense_matrix_reuses_memoized_rows():
    m = PathMetric(grid_graph(4, 3))
    first = m.row(5)
    assert m.dense_matrix()[5].tolist() == first
    assert m.row(5) is first and list(m._rows) == [5]


@st.composite
def edge_lists(draw):
    """(n, edges): distinct edges on 0..n-1, connected or not."""
    n = draw(st.integers(min_value=1, max_value=8))
    all_edges = [(a, b) for a in range(n) for b in range(a + 1, n)]
    if not all_edges:
        return n, []
    return n, draw(st.lists(st.sampled_from(all_edges), unique=True, max_size=10))


@settings(max_examples=60, deadline=None)
@given(edge_lists())
def test_build_graph_components_match_networkx(drawn):
    n, edges = drawn
    G = nx.Graph()
    G.add_nodes_from(range(n))
    G.add_edges_from(edges)
    expected = sorted(sorted(c) for c in nx.connected_components(G))
    if len(expected) == 1:
        assert build_graph(edges, vertex_count=n).vertex_count == n
    else:
        with pytest.raises(DisconnectedGraph) as err:
            build_graph(edges, vertex_count=n)
        assert sorted(err.value.components) == expected
