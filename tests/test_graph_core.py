from __future__ import annotations

import itertools

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from coarsegraph import (
    DisconnectedGraph,
    GraphError,
    Holds,
    PathMetric,
    SelfLoop,
    build_graph,
    geodesic_between,
    min_selector,
    modulus,
    verify_selector,
)
from coarsegraph.generators import comb_graph, grid_graph, path_graph, tripod_graph
from coarsegraph.order_compat import (
    LinearOrder,
    _violations_at,
    is_interval_entourage,
    min_compat_radius,
)

from conftest import floyd_warshall, validate_geodesic


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
    assert geodesic_between(m, 0, 3) == (0, 1, 2, 3)
    assert geodesic_between(m, 2, 2) == (2,)


def test_geodesic_grid_tie_break():
    m = PathMetric(grid_graph(3, 3))
    # ids are row-major: (0,0)=0, (0,1)=1, (1,1)=4
    assert geodesic_between(m, 0, 4) == (0, 1, 4)


def test_geodesic_invariants_everywhere():
    m = PathMetric(grid_graph(3, 4))
    for u in range(12):
        for v in range(12):
            validate_geodesic(m, geodesic_between(m, u, v))


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
    validate_geodesic(m, geodesic_between(m, u, v))


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
    # order compat builds the matrix itself and reads its scans from it, the
    # violations past a cap included
    compat, order = PathMetric(g), LinearOrder.natural(n)
    min_compat_radius(compat, order, 1)
    min_compat_radius(compat, order, 1, cap=1)
    _violations_at(compat, order, 1, 0)
    assert compat._rows == {} and compat._dense is not None
    # so do the selector modulus and a verify that holds, which scans every pair
    f = min_selector(list(range(n)))
    scan = PathMetric(g)
    assert isinstance(verify_selector(scan, f, modulus(scan, f).r), Holds)
    assert scan._rows == {} and scan._dense is not None
    # order interval reads each row once from its own BFS and keeps none;
    # at e = n every ball is the whole graph, so it scans every vertex
    interval = PathMetric(g)
    for e in (1, n):
        is_interval_entourage(interval, order, e)
    assert interval._rows == {} and interval._dense is None
    for u in range(n):
        row = m.row(u)
        assert row == oracle[u] and all(type(d) is int for d in row)


def test_dense_matrix_reuses_memoized_rows():
    m = PathMetric(grid_graph(4, 3))
    first = m.row(5)
    assert m.dense_matrix()[5].tolist() == first
    assert m.row(5) is first and list(m._rows) == [5]


@settings(max_examples=30, deadline=None)
@given(connected_graphs())
def test_eccentricities_from_rows_and_from_the_matrix(g):
    # both read the matrix: one builds it around a memoized row, one had it
    oracle = [max(row) for row in floyd_warshall(g.vertex_count, g.edge_list())]
    by_rows = PathMetric(g)
    by_rows.row(g.vertex_count - 1)
    assert list(by_rows.eccentricities()) == list(enumerate(oracle))
    assert by_rows.diameter() == max(oracle) and by_rows._dense is not None
    by_matrix = PathMetric(g)
    by_matrix.dense_matrix()
    assert list(by_matrix.eccentricities()) == list(enumerate(oracle))
    assert by_matrix.diameter() == max(oracle) and by_matrix._rows == {}


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


@settings(max_examples=40, deadline=None)
@given(connected_graphs(), st.booleans(), st.data())
def test_max_step_matches_a_step_scan(g, matrix_first, data):
    # chains asked about in turn, A, B, A first, as lists or tuples: a memo
    # that kept a stale answer gives the other chain's step; the steps come
    # from the matrix when it was built first, else from BFS rows
    n = g.vertex_count
    oracle = floyd_warshall(n, g.edge_list())
    m = PathMetric(g)
    if matrix_first:
        m.dense_matrix()
    chains = data.draw(
        st.lists(st.lists(st.integers(0, n - 1), max_size=8), min_size=2, max_size=4, unique_by=tuple)
    )
    order = [0, 1, 0] + data.draw(st.lists(st.integers(0, len(chains) - 1), max_size=8))
    for i in order:
        z = data.draw(st.sampled_from([list, tuple]))(chains[i])
        prof = m.chain_profile(z)
        assert prof.max_step == max((oracle[a][b] for a, b in zip(z, z[1:])), default=0)
        assert m._last_chain is prof and prof.chain == tuple(z)  # one entry: the last chain


def test_max_step_of_short_sequences_is_zero():
    m = PathMetric(path_graph(5))
    steps = [m.chain_profile(z).max_step for z in ([], (), [3], (4,), [0, 4, 2])]
    assert steps == [0, 0, 0, 0, 4]


@st.composite
def profile_graphs(draw):
    """Random connected graphs, random trees and combs."""
    kind = draw(st.sampled_from(["connected", "tree", "comb"]))
    if kind == "connected":
        return draw(connected_graphs())
    if kind == "tree":
        n = draw(st.integers(min_value=1, max_value=16))
        parents = [draw(st.integers(0, v - 1)) for v in range(1, n)]
        return build_graph([(u, v) for v, u in enumerate(parents, start=1)], vertex_count=n)
    return comb_graph(draw(st.integers(min_value=2, max_value=12)), draw(st.integers(1, 6)))


@settings(max_examples=120, deadline=None)
@given(profile_graphs(), st.booleans(), st.data())
def test_chain_profile_matches_floyd_warshall(g, dense, data):
    # chains repeat vertices and tie at equal distances: the nearest index
    # is the lowest one attaining the distance; the steps come from BFS
    # rows or from the matrix
    n = g.vertex_count
    d = floyd_warshall(n, g.edge_list())
    z = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=12))
    m = PathMetric(g)
    if dense:
        m.dense_matrix()
    prof = m.chain_profile(z)
    assert prof.chain == tuple(z)
    for v in range(n):
        near = min(d[v][w] for w in z)
        assert prof.near_dist[v] == near
        assert prof.near_index[v] == min(i for i, w in enumerate(z) if d[v][w] == near)
    assert prof.near_dist == m.distances_from_set(z)
    assert prof.max_step == max((d[a][b] for a, b in zip(z, z[1:])), default=0)


def test_chain_profile_memo_follows_the_last_chain():
    # A, B, A, then A as a list; A and B have one length, so a memo keyed by
    # less than the whole chain hands back the other chain's profile
    g = comb_graph(10, 4)
    a, b = (0, 2, 4, 6), (1, 3, 5, 7)
    m = PathMetric(g)
    profiles = [m.chain_profile(z) for z in (a, b, a, list(a))]
    for z, prof in zip((a, b, a, a), profiles):
        assert prof == PathMetric(g).chain_profile(z)
    assert profiles[2] is not profiles[0] and profiles[3] is profiles[2]
    assert m._last_chain is profiles[3]
