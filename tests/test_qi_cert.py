from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from coarsegraph import (
    FailurePoint,
    PathMetric,
    QuasiIsometryCert,
    Valid,
    tighten,
    verify_qi,
)
from coarsegraph.generators import grid_graph, path_graph, tripod_graph


def test_identity_is_isometry():
    m = PathMetric(path_graph(12))
    cert = QuasiIsometryCert({v: v for v in range(12)}, Fraction(1), 0, 0)
    assert isinstance(verify_qi(m, cert), Valid)


def test_collapsed_endpoints_fail():
    m = PathMetric(path_graph(10))
    cert = QuasiIsometryCert({0: 0, 9: 0}, Fraction(1), 0, 9)
    assert verify_qi(m, cert) == FailurePoint(0, 9)


def test_coverage_failure_points_at_first_uncovered():
    m = PathMetric(path_graph(10))
    cert = QuasiIsometryCert({0: 0}, Fraction(1), 0, 3)
    failure = verify_qi(m, cert)
    assert failure == FailurePoint(4)
    assert failure.v is None


def test_tighten_identity():
    m = PathMetric(path_graph(5))
    cert = tighten(m, {v: v for v in range(5)})
    assert (cert.lam, cert.C, cert.D) == (Fraction(1), 0, 0)
    assert isinstance(verify_qi(m, cert), Valid)


def test_tighten_floor_half():
    m = PathMetric(path_graph(10))
    cert = tighten(m, {v: v // 2 for v in range(10)})
    assert cert.lam == Fraction(2)
    assert cert.C == 1
    assert cert.D == 0
    assert isinstance(verify_qi(m, cert), Valid)


def test_tighten_partial_domain_reports_coverage():
    m = PathMetric(path_graph(10))
    cert = tighten(m, {0: 0, 1: 1, 2: 2})
    assert cert.D == 7
    assert isinstance(verify_qi(m, cert), Valid)


def test_restriction_with_raised_coverage_stays_valid():
    m = PathMetric(path_graph(30))
    full = tighten(m, {v: v for v in range(30)})
    sub = {v: v for v in range(0, 30, 3)}
    removed_ecc = 2  # every dropped vertex is within 2 of the kept ones
    cert = QuasiIsometryCert(sub, full.lam, full.C, full.D + removed_ecc)
    assert isinstance(verify_qi(m, cert), Valid)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_tighten_always_verifies(data):
    graphs = [path_graph(9), grid_graph(3, 3), tripod_graph(2, 2, 3)]
    g = data.draw(st.sampled_from(graphs))
    n = g.vertex_count
    domain = data.draw(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
    )
    coord = {
        v: data.draw(st.integers(-8, 8), label=f"coord[{v}]") for v in domain
    }
    m = PathMetric(g)
    cert = tighten(m, coord)
    assert isinstance(verify_qi(m, cert), Valid)


def test_tighten_verifies_on_random_large_coords():
    rng = random.Random(1)
    m = PathMetric(path_graph(256))
    coord = {v: rng.randrange(-40, 40) for v in range(0, 256, 2)}
    cert = tighten(m, coord)
    assert isinstance(verify_qi(m, cert), Valid)


def test_verify_rejects_bad_parameters():
    m = PathMetric(path_graph(4))
    with pytest.raises(ValueError):
        verify_qi(m, QuasiIsometryCert({0: 0}, Fraction(1, 2), 0, 5))
    with pytest.raises(ValueError):
        verify_qi(m, QuasiIsometryCert({}, Fraction(1), 0, 0))
