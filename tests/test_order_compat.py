from __future__ import annotations

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coarsegraph import PathMetric
from coarsegraph.order_compat import (
    Counterexample,
    LinearOrder,
    MinimalG,
    NotFound,
    _violations_at,
    is_interval_entourage,
    min_compat_radius,
)
from coarsegraph.generators import grid_graph, path_graph
from conftest import ball
from test_graph_core import connected_graphs


def less(order, a, b):
    """a comes before b in the order."""
    return order.rank[a] < order.rank[b]


def holds_at(m, order, e, g):
    """The compatibility condition at radius g, checked triple by triple.

    For x, y with d(x, y) > g, every x' within e of x stays on x's side of y.
    """
    for x, y in itertools.permutations(range(m.graph.vertex_count), 2):
        if m.distance(x, y) > g:
            for xp in ball(m, x, e):
                if (less(order, x, y) and not less(order, xp, y)) or (
                    less(order, y, x) and not less(order, y, xp)
                ):
                    return False
    return True


def min_compat_by_g(m, order, e, cap):
    """Oracle: the first g from e up to cap with no violation, else NotFound."""
    for g in range(e, cap + 1):
        if not _violations_at(m, order, e, g, limit=1):
            return MinimalG(g)
    return NotFound(cap)


@st.composite
def compat_cases(draw):
    g = draw(connected_graphs())
    order = LinearOrder.from_ranking(draw(st.permutations(range(g.vertex_count))))
    e = draw(st.integers(0, 3))
    return g, order, e, draw(st.none() | st.integers(e, e + 2))


@settings(max_examples=150, deadline=None)
@given(compat_cases())
@example((grid_graph(3, 3), LinearOrder.natural(9), 1, 2)).via("NotFound")
@example((grid_graph(3, 3), LinearOrder.natural(9), 1, None)).via("MinimalG")
def test_one_pass_matches_the_g_loop(case):
    g, order, e, cap = case
    m = PathMetric(g)
    report = min_compat_radius(m, order, e, cap=cap)
    assert report.result == min_compat_by_g(m, order, e, max(e, m.diameter()) if cap is None else cap)


def violations_by_triples(m, order, e, g, limit):
    """Oracle of _violations_at: the first ``limit`` triples (x, x', y).

    Pairs x != y run in (x, y) order; each with d(x, y) > g gives one
    triple, whose x' is the lowest-id member of the e-ball of x on the
    wrong side of y, when there is one.
    """
    out = []
    for x, y in itertools.permutations(range(m.graph.vertex_count), 2):
        if m.distance(x, y) <= g:
            continue
        crossing = [
            xp
            for xp in sorted(ball(m, x, e))
            if (less(order, x, y) and not less(order, xp, y))
            or (less(order, y, x) and not less(order, y, xp))
        ]
        if crossing:
            out.append((x, crossing[0], y))
            if len(out) == limit:
                break
    return out


def first_interval_gap(m, order, e):
    """Oracle of is_interval_entourage: the lowest x whose e-ball skips a
    rank inside its rank span, with the lowest-rank skipped vertex."""
    for x in range(m.graph.vertex_count):
        near = ball(m, x, e)
        ranks = [order.rank[u] for u in near]
        gaps = [v for v in range(m.graph.vertex_count) if v not in near and min(ranks) < order.rank[v] < max(ranks)]
        if gaps:
            return Counterexample(x, min(gaps, key=lambda v: order.rank[v]))
    return True


@settings(max_examples=150, deadline=None)
@given(compat_cases(), st.integers(0, 6), st.integers(1, 20))
def test_violations_and_interval_gaps_match_their_oracles(case, g, limit):
    graph, order, e, _ = case
    m = PathMetric(graph)
    assert _violations_at(m, order, e, g, limit=limit) == violations_by_triples(m, order, e, g, limit)
    assert is_interval_entourage(m, order, e) == first_interval_gap(m, order, e)
    report = min_compat_radius(m, order, e, cap=e)
    if isinstance(report.result, NotFound):
        assert report.violations == violations_by_triples(m, order, e, e, 16)


def test_e_zero_is_always_zero():
    for g in (path_graph(8), grid_graph(3, 3)):
        m = PathMetric(g)
        order = LinearOrder.natural(g.vertex_count)
        report = min_compat_radius(m, order, 0)
        assert report.result == MinimalG(0)


def test_p10_natural_e2():
    m = PathMetric(path_graph(10))
    order = LinearOrder.natural(10)
    report = min_compat_radius(m, order, 2)
    assert report.result == MinimalG(2)
    assert not holds_at(m, order, 2, 1)
    assert holds_at(m, order, 2, 2)


def test_grid3_lex_e1():
    m = PathMetric(grid_graph(3, 3))
    order = LinearOrder.natural(9)  # ids are row-major, i.e. lexicographic
    report = min_compat_radius(m, order, 1)
    assert report.result == MinimalG(3)


def test_violating_triples_reverify():
    m = PathMetric(grid_graph(3, 3))
    order = LinearOrder.natural(9)
    report = min_compat_radius(m, order, 1, cap=2)
    assert isinstance(report.result, NotFound)
    assert report.violations
    for x, xp, y in report.violations:
        assert m.distance(x, y) > 2
        assert m.distance(x, xp) <= 1
        if less(order, x, y):
            assert not less(order, xp, y)
        else:
            assert not less(order, y, xp)


def test_monotone_in_g():
    m = PathMetric(grid_graph(4, 4))
    order = LinearOrder.natural(16)
    e = 1
    report = min_compat_radius(m, order, e)
    assert isinstance(report.result, MinimalG)
    g0 = report.result.g
    for g in range(g0, m.diameter() + 1):
        assert holds_at(m, order, e, g)


def test_cap_below_e_rejected():
    m = PathMetric(path_graph(5))
    with pytest.raises(ValueError):
        min_compat_radius(m, LinearOrder.natural(5), 2, cap=1)


def test_interval_on_paths():
    for n in (8, 16, 64):
        m = PathMetric(path_graph(n))
        order = LinearOrder.natural(n)
        for e in range(0, 9):
            assert is_interval_entourage(m, order, e) is True


def test_interval_e0_any_order():
    m = PathMetric(grid_graph(3, 3))
    order = LinearOrder.from_ranking([4, 2, 6, 0, 8, 1, 7, 3, 5])
    assert is_interval_entourage(m, order, 0) is True


def test_interval_counterexample_on_grid():
    m = PathMetric(grid_graph(3, 3))
    order = LinearOrder.natural(9)
    out = is_interval_entourage(m, order, 1)
    assert isinstance(out, Counterexample)
    near = ball(m, out.x, 1)
    ranks = sorted(order.rank[u] for u in near)
    assert ranks[0] < order.rank[out.gap_vertex] < ranks[-1]
    assert out.gap_vertex not in near


def test_interval_implies_compat_on_paths():
    cap = 8
    for n in (16, 32):
        m = PathMetric(path_graph(n))
        order = LinearOrder.natural(n)
        for e in range(1, cap + 1):
            assert is_interval_entourage(m, order, e) is True
            report = min_compat_radius(m, order, e, cap=cap)
            assert isinstance(report.result, MinimalG)
            assert report.result.g <= cap


def test_order_round_trip():
    order = LinearOrder.from_ranking([2, 0, 1])
    assert order.vertices_by_rank() == [2, 0, 1]
    assert less(order, 2, 0) and less(order, 0, 1)
    with pytest.raises(ValueError):
        LinearOrder((0, 0, 1))
