"""The integer certificate kernel against the Fraction oracle.

``qi_oracle`` holds the pair-by-pair Fraction scans; the kernel must give
the same (lambda, C, D) from ``tighten`` and the same first failure point
from ``verify_qi``, including across block boundaries and on the Python-int
path taken when a product could leave int64.
"""
from __future__ import annotations

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from coarsegraph import (
    PathMetric,
    graph_core,
    QuasiIsometryCert,
    Valid,
    build_graph,
    qi_cert,
    tighten,
    verify_qi,
)
from coarsegraph.extraction import Line, Ray, extract_line
from coarsegraph.generators import grid_graph, path_graph, tripod_graph
from coarsegraph.selector import min_selector
from conftest import random_tournament
from qi_oracle import oracle_tighten, oracle_verify


@st.composite
def connected_graphs(draw):
    n = draw(st.integers(1, 12))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    for u, v in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n)):
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return build_graph(sorted(edges), vertex_count=n)


def _nudge(data, value, label):
    return max(0, value + data.draw(st.integers(-2, 2), label=label))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_kernel_matches_oracle(data):
    g = data.draw(connected_graphs())
    n = g.vertex_count
    domain = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    scale = data.draw(st.sampled_from([1, 1, 10**6, 10**18]), label="scale")
    offset = data.draw(st.integers(-(10**15), 10**15), label="offset")
    coord = {v: offset + scale * data.draw(st.integers(-6, 6), label=f"coord[{v}]") for v in domain}
    block = data.draw(st.sampled_from([1, 5, 24, qi_cert.BLOCK_ELEMENTS]), label="block")
    with mock.patch.object(qi_cert, "BLOCK_ELEMENTS", block):
        m = PathMetric(g)
        cert = tighten(m, coord)
        assert cert == oracle_tighten(m, coord)
        assert isinstance(verify_qi(m, cert), Valid)
        factors = [Fraction(1, 2), Fraction(2, 3), 1, Fraction(3, 2), Fraction(10**20 + 1, 10**20)]
        factor = data.draw(st.sampled_from(factors), label="lambda factor")
        varied = QuasiIsometryCert(
            cert.coord,
            max(Fraction(1), cert.lam * factor),
            _nudge(data, cert.C, "C step"),
            _nudge(data, cert.D, "D step"),
        )
        assert verify_qi(m, varied) == oracle_verify(m, varied)


def _golden_cases():
    for n in (60, 120, 200):
        yield f"path:{n}", path_graph(n), None
    yield "grid:100x2", grid_graph(100, 2), None
    yield "grid:120x3", grid_graph(120, 3), None
    rng = random.Random(20240817)  # criterion 4's tournaments, at r = 1
    for name, g in (
        ("path:60", path_graph(60)),
        ("grid:60x2", grid_graph(60, 2)),
        ("tripod:30,30,30", tripod_graph(30, 30, 30)),
    ):
        for i in range(3):
            yield f"{name} tournament {i}", g, random_tournament(g, rng)


@pytest.mark.parametrize(
    "g,tournament", [pytest.param(g, t, id=name) for name, g, t in _golden_cases()]
)
def test_extract_certificate_equals_oracle_tighten(g, tournament):
    m = PathMetric(g)
    if tournament is None:
        res = extract_line(m, min_selector(list(range(g.vertex_count))))
    else:
        res = extract_line(m, tournament, r=1, verify_asserted=False)
    assert isinstance(res, (Ray, Line))
    assert res.cert == oracle_tighten(m, res.cert.coord)
    assert isinstance(oracle_verify(m, res.cert), Valid)


@pytest.mark.parametrize("g", [path_graph(200), grid_graph(70, 2)], ids=["path:200", "grid:70x2"])
@pytest.mark.parametrize("block_rows", [3, None], ids=["3-row-blocks", "one-block-a-chunk"])
def test_rows_asked_in_several_chunks_match_the_oracle(monkeypatch, g, block_rows):
    # chunks of 4 rows of BFS distances, so S spans dozens of them; with
    # 3-row blocks each chunk is sliced into a block of 3 rows and one of 1
    n = g.vertex_count
    monkeypatch.setattr(graph_core, "BATCH_ENTRIES", 4 * n)
    if block_rows is not None:
        monkeypatch.setattr(qi_cert, "BLOCK_ELEMENTS", block_rows * n)
    rng = random.Random(n)
    coord = {v: v * 70 // n + rng.randrange(3) for v in range(n) if v % 5 != 2}
    m, oracle_metric = PathMetric(g), PathMetric(g)
    cert = tighten(m, coord)
    assert cert == oracle_tighten(oracle_metric, coord)
    lam, C, D = cert.lam, cert.C, cert.D
    cases = [(lam, C, D), (lam * Fraction(3, 4), C, D), (lam, C - 1, D), (lam, C, D - 1), (1, 0, 0)]
    for lam_c, C_c, D_c in cases:
        varied = QuasiIsometryCert(coord, max(Fraction(1), lam_c), C_c, D_c)
        assert verify_qi(m, varied) == oracle_verify(oracle_metric, varied)
    assert m._rows == {} and m._dense is None


def test_huge_operands_take_the_python_int_path():
    m = PathMetric(path_graph(12))
    lam = Fraction(10**20, 3)
    coord = {v: (-1) ** (v // 2) * (10**15 - v) for v in range(0, 12, 2)}  # near ±10**15
    for C in (10**18, 0):
        for D in (0, 1):
            cert = QuasiIsometryCert(coord, lam, C, D)
            assert lam.numerator * (10**15 + C) > 2**63  # int64 would wrap
            assert verify_qi(m, cert) == oracle_verify(m, cert)
    # lambda barely above 1 with a 10**20 numerator: the lower bound fails
    cert = QuasiIsometryCert(coord, Fraction(10**20 + 1, 10**20), 10**18 // 2**40, 1)
    failure = verify_qi(m, cert)
    assert failure == oracle_verify(m, cert)
    assert not isinstance(failure, Valid)
    assert tighten(m, coord) == oracle_tighten(m, coord)


@pytest.mark.parametrize("bad", [-1, 7])
def test_domain_outside_graph_is_rejected(bad):
    m = PathMetric(path_graph(4))
    with pytest.raises(ValueError, match="out of range"):
        verify_qi(m, QuasiIsometryCert({0: 0, bad: 1}, Fraction(1), 0, 0))
    with pytest.raises(ValueError, match="out of range"):
        tighten(m, {0: 0, bad: 1})


def test_non_integer_coordinate_is_rejected():
    m = PathMetric(path_graph(4))
    with pytest.raises(TypeError):
        tighten(m, {0: 0, 1: 0.5})
    with pytest.raises(TypeError):
        verify_qi(m, QuasiIsometryCert({0: 0, 1: Fraction(1, 2)}, Fraction(1), 0, 3))
