"""The theorem's loop: selector -> certified line -> selector.

Extraction runs the "only if" direction (a 2-selector makes the graph
bounded or coarsely N or Z) and certifies its answer with ``verify_qi``.
This module checks that each certificate is strong enough for the "if"
direction, by pulling a selector back along it and measuring that
selector's exact modulus against the bound the certificate implies.  Two
independent exact kernels meet here: the certificate kernel and the
modulus kernel.
"""
from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from coarsegraph import (
    Bounded,
    Line,
    PathMetric,
    Ray,
    Valid,
    extract_line,
    min_selector,
    modulus,
    verify_qi,
)
from coarsegraph.discretize import greedy_net, net_graph, sample_space
from coarsegraph.generators import grid_graph, path_graph
from coarsegraph.graph_core import build_graph


def pulled_back_selector(m, cert):
    """The min selector of psi(v) = (phi(pi v), v), and the bound on its modulus.

    pi v is the certified line vertex nearest to v, lowest id on ties, and
    phi is the certificate coordinate.  ``verify_qi`` checks, for line
    vertices u, w with d = d(u, w) and delta = |phi u - phi w|,

        d <= lam * delta + C   and   delta <= lam * (d + C),

    and that every vertex lies within D of the line.  Adjacent or equal
    v, w have d(pi v, pi w) <= D + 1 + D, so |phi pi v - phi pi w| <=
    lam * (2D + 1 + C) = K.  Pairs A, B at d_H <= 1 match each element of
    one to an element of the other within 1, so the least phi pi over A and
    the least over B differ by at most K; the selector picks an element
    attaining each least value.  The two choices a, y then satisfy

        d(a, y) <= d(a, pi a) + d(pi a, pi y) + d(pi y, y) <= 2D + lam * K + C,

    and the modulus, an integer, is at most floor(2D + C + lam * K).
    """
    line = sorted(cert.coord)
    n = m.graph.vertex_count
    nearest = [(math.inf, -1)] * n
    for u in line:
        row = m.row(u)
        nearest = [min(best, (row[v], u)) for v, best in enumerate(nearest)]
    psi = [(cert.coord[u], v) for v, (_, u) in enumerate(nearest)]
    lam = Fraction(cert.lam)
    k = lam * (2 * cert.D + 1 + cert.C)
    return min_selector(psi), max(1, math.floor(2 * cert.D + cert.C + lam * k))


def check_certified_line(m, res):
    """``res`` is a Ray or Line whose certificate verifies and bounds the
    modulus of the selector pulled back along it: (that selector, its r, the bound)."""
    assert isinstance(res, (Ray, Line))
    assert isinstance(verify_qi(m, res.cert), Valid)
    f, implied = pulled_back_selector(m, res.cert)
    r = modulus(m, f).r
    assert r <= implied
    return f, r, implied


def _segment_net_graph():
    sp = sample_space(("segment", 150), Fraction(1, 2))
    return net_graph(sp, greedy_net(sp))


@pytest.mark.parametrize(
    "graph, pulled_back_r, bound",
    [
        (path_graph(120), 1, 1),
        (grid_graph(100, 2), 2, 77),
        (grid_graph(120, 3), 4, 37),
        (_segment_net_graph(), 1, 41),
    ],
    ids=["path:120", "grid:100x2", "grid:120x3", "segment(150) net"],
)
def test_selector_line_selector_round_trip(graph, pulled_back_r, bound):
    m = PathMetric(graph)
    res = extract_line(m, min_selector(list(range(graph.vertex_count))))
    f, r, implied = check_certified_line(m, res)
    assert (r, implied) == (pulled_back_r, bound)
    # extraction needs a seed geodesic of length 16(2r + 1) + 2; grid:120x3
    # (diameter 121) pulls back to r = 4, which asks for 146
    again = extract_line(m, f)
    if m.diameter() >= 16 * (2 * r + 1) + 2:
        assert isinstance(again, (Ray, Line))
        assert isinstance(verify_qi(m, again.cert), Valid)
    else:
        assert isinstance(again, Bounded)


def caterpillar_graph(leaves):
    """A spine path whose k-th vertex carries leaves[k] leaves.

    Ids follow the spine: each leaf is numbered right after its spine
    vertex, so the min selector follows the spine.  With the spine numbered
    first, its modulus grows with the spine (59 on a spine of 60) and
    extraction is Bounded.
    """
    edges, nxt = [], 0
    for k, count in enumerate(leaves):
        spine, nxt = nxt, nxt + 1 + count
        edges += [(spine, leaf) for leaf in range(spine + 1, nxt)]
        if k:
            edges.append((previous, spine))
        previous = spine
    return build_graph(edges, vertex_count=nxt)


@st.composite
def long_ladders_and_caterpillars(draw):
    """grid:Lx2, grid:Lx3 or a caterpillar with a spine of L, for L on either
    side of the diameter extraction needs: 82 and 114 for the grids' r = 2
    and 3, and 50 for the caterpillars' r = 1."""
    length = draw(st.integers(min_value=40, max_value=160))
    height = draw(st.sampled_from([2, 3, None]))  # None: a caterpillar
    if height:
        return grid_graph(length, height)
    leaves = st.integers(min_value=0, max_value=2)
    return caterpillar_graph(draw(st.lists(leaves, min_size=length, max_size=length)))


@settings(max_examples=30, deadline=None)
@given(long_ladders_and_caterpillars())
def test_round_trip_on_long_ladders_and_caterpillars(graph):
    m = PathMetric(graph)
    f = min_selector(list(range(graph.vertex_count)))
    res = extract_line(m, f)
    if m.diameter() >= 16 * (2 * modulus(m, f).r + 1) + 2:
        check_certified_line(m, res)
    else:
        assert isinstance(res, Bounded)
