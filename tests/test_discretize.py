from __future__ import annotations

from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from coarsegraph.discretize import (
    DisconnectedNetGraph,
    StepTooCoarse,
    certify_net,
    greedy_net,
    net_graph,
    parse_sample_file,
    sample_space,
    write_sample_file,
)

from conftest import degree
from discretize_oracle import sample_text

HALF = Fraction(1, 2)


def edge_witness(sp, u, v):
    """Lowest-index sample within 2 of both points, or None.

    The net graph's rule read one net pair at a time, scanning every
    sample: the oracle of ``net_graph``, which reads it once per sample.
    """
    for x in range(sp.n):
        if sp.dist(x, u) <= 2 and sp.dist(x, v) <= 2:
            return x
    return None


def oracle_net_edges(sp, pts):
    return [
        (a, b)
        for a in range(len(pts))
        for b in range(a + 1, len(pts))
        if edge_witness(sp, pts[a], pts[b]) is not None
    ]


def check_metric_axioms(sp):
    """Zero diagonal, symmetry, positivity off the diagonal and the triangle inequality."""
    d, n = sp.units.tolist(), sp.n
    for i in range(n):
        assert d[i][i] == 0
        for j in range(n):
            assert d[i][j] == d[j][i]
            assert i == j or d[i][j] > 0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert d[i][k] <= d[i][j] + d[j][k], (i, j, k)


def is_chain_connected(sp) -> bool:
    """Every pair joined by a chain with steps <= delta."""
    seen = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(sp.n):
            if j not in seen and sp.dist(i, j) <= sp.delta:
                seen.add(j)
                stack.append(j)
    return len(seen) == sp.n


def net_is_valid(sp, pts) -> bool:
    """Net points pairwise beyond 2, and every sample within 2 of one."""
    for a in range(len(pts)):
        for b in range(a + 1, len(pts)):
            if sp.dist(pts[a], pts[b]) <= 2:
                return False
    return all(min(sp.dist(i, u) for u in pts) <= 2 for i in range(sp.n))


def test_segment_sampling():
    sp = sample_space(("segment", 10), HALF)
    assert sp.n == 21
    assert sp.dist(0, 20) == 10
    assert sp.dist(3, 7) == 2
    check_metric_axioms(sp)
    assert is_chain_connected(sp)


def test_circle_sampling():
    sp = sample_space(("circle", 12), HALF)
    assert sp.n == 24
    assert sp.dist(0, 12) == 6
    assert sp.dist(0, 23) == HALF
    check_metric_axioms(sp)


def test_rectangle_sampling_matches_grid_bfs():
    sp = sample_space(("rectangle", 4, 4), HALF)
    assert sp.n == 81
    # L1 metric at grid resolution equals BFS on the fine grid, scaled
    import coarsegraph as cg

    g = cg.build_graph(
        [
            (i * 9 + j, i * 9 + j + 1)
            for i in range(9)
            for j in range(8)
        ]
        + [
            (i * 9 + j, (i + 1) * 9 + j)
            for i in range(8)
            for j in range(9)
        ]
    )
    m = cg.PathMetric(g)
    for a in range(0, 81, 7):
        for b in range(0, 81, 5):
            assert sp.dist(a, b) == Fraction(m.distance(a, b), 2)


def test_step_too_coarse():
    with pytest.raises(StepTooCoarse):
        sample_space(("segment", 10), Fraction(3, 4))


def test_non_dividing_step_rejected():
    with pytest.raises(ValueError):
        sample_space(("segment", 10), Fraction(3, 7))


def test_greedy_net_segment():
    sp = sample_space(("segment", 10), HALF)
    net = greedy_net(sp)
    assert [sp.points[i] for i in net] == [0, Fraction(5, 2), 5, Fraction(15, 2), 10]
    assert net_is_valid(sp, net)


def test_two_far_points_both_admitted():
    sp = parse_sample_file(sample_text([[0, 5], [5, 0]]))
    net = greedy_net(sp)
    assert net == (0, 1)


def test_greedy_net_circle():
    sp = sample_space(("circle", 12), HALF)
    net = greedy_net(sp)
    assert [sp.points[i] for i in net] == [0, Fraction(5, 2), 5, Fraction(15, 2)]
    assert net_is_valid(sp, net)


def test_net_graph_segment_is_path():
    sp = sample_space(("segment", 10), HALF)
    net = greedy_net(sp)
    g = net_graph(sp, net)
    assert g.edge_list() == [(0, 1), (1, 2), (2, 3), (3, 4)]
    # consecutive net points share a witness sample
    w = edge_witness(sp, net[0], net[1])
    assert w is not None
    assert sp.dist(w, net[0]) <= 2 and sp.dist(w, net[1]) <= 2


def test_net_graph_single_point():
    sp = parse_sample_file("points 1\n")
    net = greedy_net(sp)
    g = net_graph(sp, net)
    assert g.vertex_count == 1 and g.edge_list() == []


def test_net_graph_disconnected_reported():
    d = Fraction(100)
    mat = [
        [Fraction(0), Fraction(3), d, d],
        [Fraction(3), Fraction(0), d, d],
        [d, d, Fraction(0), Fraction(3)],
        [d, d, Fraction(3), Fraction(0)],
    ]
    sp = parse_sample_file(sample_text(mat))
    assert sp.delta == 3
    net = greedy_net(sp)
    with pytest.raises(DisconnectedNetGraph):
        net_graph(sp, net)


def test_certify_segment():
    sp = sample_space(("segment", 10), HALF)
    net = greedy_net(sp)
    g = net_graph(sp, net)
    cert = certify_net(sp, net, g)
    assert cert.largeness == 1
    assert cert.largeness <= 2
    assert cert.max_ambient_over_4graph <= 1


def test_largeness_zero_when_net_is_everything():
    d = Fraction(5)
    mat = [[Fraction(0), d], [d, Fraction(0)]]
    sp = parse_sample_file(sample_text(mat))
    net = greedy_net(sp)
    assert net == (0, 1)
    largeness = max(min(sp.dist(i, u) for u in net) for i in range(sp.n))
    assert largeness == 0


def test_edge_rule_matches_four_bound_on_half_grid_nets():
    # for nets drawn from half-integer samples the witness rule decides
    # ambient distance <= 4 exactly
    for shape in (("segment", 10), ("circle", 12)):
        sp = sample_space(shape, HALF)
        net = greedy_net(sp)
        for ai in range(len(net)):
            for bi in range(ai + 1, len(net)):
                u, v = net[ai], net[bi]
                has_witness = edge_witness(sp, u, v) is not None
                assert has_witness == (sp.dist(u, v) <= 4)


def test_certify_circle():
    sp = sample_space(("circle", 12), HALF)
    net = greedy_net(sp)
    g = net_graph(sp, net)
    cert = certify_net(sp, net, g)
    assert cert.largeness == 2
    assert cert.max_ambient_over_4graph <= 1


def test_circle10_net_graph_is_a_cycle():
    # gaps come out exactly 2.5 here, so the witness rule closes the loop
    sp = sample_space(("circle", 10), HALF)
    net = greedy_net(sp)
    g = net_graph(sp, net)
    assert len(net) == 4
    assert len(g.edge_list()) == 4
    assert all(degree(g, v) == 2 for v in range(4))


def test_segment_net_is_quasi_isometric_to_its_order():
    from coarsegraph import PathMetric, Valid, tighten, verify_qi

    sp = sample_space(("segment", 10), HALF)
    net = greedy_net(sp)
    g = net_graph(sp, net)
    m = PathMetric(g)
    cert = tighten(m, {v: v for v in range(g.vertex_count)})
    assert (cert.lam, cert.C, cert.D) == (1, 0, 0)
    assert isinstance(verify_qi(m, cert), Valid)


def test_long_segment_pipeline_reaches_ray_or_line():
    # sample -> net -> net graph -> min selector -> extraction, end to end
    from coarsegraph import Line, PathMetric, Ray, Valid, extract_line, min_selector, verify_qi

    sp = sample_space(("segment", 150), HALF)
    net = greedy_net(sp)
    g = net_graph(sp, net)
    assert g.vertex_count == 61
    m = PathMetric(g)
    res = extract_line(m, min_selector(list(range(g.vertex_count))))
    assert isinstance(res, (Ray, Line))
    assert isinstance(verify_qi(m, res.cert), Valid)


def test_sample_file_round_trip():
    sp = sample_space(("circle", 6), HALF)
    text = write_sample_file(sp)
    back = parse_sample_file(text)
    assert back.n == sp.n
    for i in range(sp.n):
        for j in range(sp.n):
            assert back.dist(i, j) == sp.dist(i, j)
    assert back.delta == HALF


def test_sample_file_errors_name_position():
    with pytest.raises(ValueError, match="line 1"):
        parse_sample_file("nonsense\n")
    with pytest.raises(ValueError, match="line 2"):
        parse_sample_file("points 3\n0 1 oops\n")
    with pytest.raises(ValueError, match="line 2, column 3"):
        parse_sample_file("points 3\n0 x 9\n")
    with pytest.raises(ValueError, match="line 2, column 5"):
        parse_sample_file("points 2\n0 1 1/0\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("points 2\n0 5 1\n", "line 2, column 3: bad point indices in entry (0, 5)"),
        ("points 3\n0 1 1\n -1 2 1\n", "line 3, column 2: bad point indices in entry (-1, 2)"),
        ("points 2\n1  1 1\n", "line 2, column 4: bad point indices in entry (1, 1)"),
    ],
    ids=["out-of-range", "negative", "equal"],
)
def test_sample_file_index_errors_name_position(text, message):
    with pytest.raises(ValueError) as exc:
        parse_sample_file(text)
    assert str(exc.value) == message


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.fractions(min_value=0, max_value=30, max_denominator=4),
        min_size=1,
        max_size=12,
        unique=True,
    )
)
def test_greedy_net_invariants_on_random_segments(positions):
    positions = sorted(positions)
    sp = parse_sample_file(sample_text([[abs(x - y) for y in positions] for x in positions]))
    net = greedy_net(sp)
    assert net_is_valid(sp, net)


def check_net_graph(sp):
    """net_graph's edges, or its components when disconnected, against the
    oracle; returns whether the oracle's graph is connected."""
    net = greedy_net(sp)
    edges = oracle_net_edges(sp, net)
    oracle = nx.Graph()
    oracle.add_nodes_from(range(len(net)))
    oracle.add_edges_from(edges)
    if nx.is_connected(oracle):
        assert net_graph(sp, net).edge_list() == edges
        return True
    with pytest.raises(DisconnectedNetGraph) as exc:
        net_graph(sp, net)
    assert exc.value.components == sorted(sorted(c) for c in nx.connected_components(oracle))
    return False


@pytest.mark.parametrize(
    "shape, step",
    [
        (("segment", 1), HALF),
        (("segment", Fraction(7, 2)), HALF),
        (("segment", 23), HALF),
        (("segment", 9), Fraction(1, 4)),
        (("circle", 5), HALF),
        (("circle", 10), HALF),
        (("circle", 17), HALF),
        (("circle", 9), Fraction(1, 3)),
        (("rectangle", 3, 2), HALF),
        (("rectangle", 4, 4), HALF),
        (("rectangle", 7, 1), HALF),
    ],
)
def test_net_graph_matches_edge_witness_on_sampled_shapes(shape, step):
    assert check_net_graph(sample_space(shape, step))


FACTORS = [Fraction(1, 2), Fraction(3, 4), Fraction(1), Fraction(5, 4), Fraction(3, 2), Fraction(3)]


@st.composite
def perturbed_samples(draw):
    """A parsed sample: a sampled shape's distances, each scaled by a factor,
    plus 10 on every pair across an optional split, which can disconnect it."""
    shape = draw(st.sampled_from([("segment", 6), ("circle", 8), ("rectangle", 2, 2)]))
    base = sample_space(shape, HALF)
    n = base.n
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    factors = draw(st.lists(st.sampled_from(FACTORS), min_size=len(pairs), max_size=len(pairs)))
    split = draw(st.one_of(st.just(0), st.integers(min_value=1, max_value=n - 1)))
    lines = [f"points {n}"]
    for (i, j), k in zip(pairs, factors):
        d = base.dist(i, j) * k + (10 if i < split <= j else 0)
        lines.append(f"{i} {j} {d.numerator}/{d.denominator}")
    return parse_sample_file("\n".join(lines) + "\n")


@settings(max_examples=60, deadline=None)
@given(perturbed_samples())
def test_net_graph_matches_edge_witness_on_perturbed_samples(sp):
    check_net_graph(sp)


def test_net_graph_matches_edge_witness_on_a_disconnected_sample():
    base = sample_space(("segment", 6), HALF)
    lines = [f"points {base.n}"]
    for i in range(base.n):
        for j in range(i + 1, base.n):
            d = base.dist(i, j) + (10 if i < 7 <= j else 0)
            lines.append(f"{i} {j} {d.numerator}/{d.denominator}")
    assert not check_net_graph(parse_sample_file("\n".join(lines) + "\n"))
