from __future__ import annotations

import random
from fractions import Fraction

import pytest

from coarsegraph import (
    Bounded,
    Falsified,
    Line,
    PathMetric,
    Ray,
    Valid,
    extract_line,
    min_selector,
    verify_qi,
    witness_is_violation,
)
from coarsegraph.extraction import _seed_geodesic
from coarsegraph.generators import grid_graph, path_graph, tripod_graph
from coarsegraph.graph_core import geodesic_between

from conftest import random_tournament


def _ids(g):
    return list(range(g.vertex_count))


def test_p200_min_selector_gives_certified_ray():
    g = path_graph(200)
    m = PathMetric(g)
    res = extract_line(m, min_selector(_ids(g)))
    assert isinstance(res, (Ray, Line))
    cert = res.cert
    assert cert.lam <= Fraction(3)
    assert cert.C <= 12
    assert cert.D <= 61
    assert isinstance(verify_qi(m, cert), Valid)
    assert res.diagnostics["coordinate_slack"] == 0
    assert res.diagnostics["max_sequence_step"] <= 3


def test_p40_is_bounded():
    g = path_graph(40)
    m = PathMetric(g)
    res = extract_line(m, min_selector(_ids(g)))
    assert isinstance(res, Bounded)
    assert res.radius == 39


def test_p51_line_exactly_at_threshold():
    g = path_graph(51)
    m = PathMetric(g)
    res = extract_line(m, min_selector(_ids(g)))
    assert isinstance(res, (Ray, Line))
    assert isinstance(verify_qi(m, res.cert), Valid)


def test_ray_coordinate_is_natural():
    g = path_graph(200)
    m = PathMetric(g)
    res = extract_line(m, min_selector(_ids(g)))
    if isinstance(res, Ray):
        assert min(res.cert.coord.values()) == 0


def test_grid12_computed_modulus_is_bounded():
    g = grid_graph(12, 12)
    m = PathMetric(g)
    res = extract_line(m, min_selector(_ids(g)))
    assert isinstance(res, Bounded)
    assert res.radius == 22
    assert res.diagnostics["r"] >= 12


def test_grid12_false_assertion_is_falsified():
    g = grid_graph(12, 12)
    m = PathMetric(g)
    rng = random.Random(4)
    f = random_tournament(g, rng)
    res = extract_line(m, f, r=1)
    assert isinstance(res, Falsified)
    assert witness_is_violation(m, f, 1, res.witness.pair_a, res.witness.pair_b)


def test_fuzzed_assertions_all_sound():
    rng = random.Random(12345)
    g = path_graph(30)
    m = PathMetric(g)
    for _ in range(100):
        f = random_tournament(g, rng)
        res = extract_line(m, f, r=1)
        if isinstance(res, Falsified):
            assert witness_is_violation(m, f, 1, res.witness.pair_a, res.witness.pair_b)
        elif isinstance(res, (Ray, Line)):
            assert isinstance(verify_qi(m, res.cert), Valid)


def test_in_loop_falsification_on_tripod():
    g = tripod_graph(150, 150, 150)
    m = PathMetric(g)
    f = random_tournament(g, random.Random(42))
    res = extract_line(m, f, r=1, verify_asserted=False)
    assert isinstance(res, Falsified)
    assert witness_is_violation(m, f, 1, res.witness.pair_a, res.witness.pair_b)
    assert res.diagnostics["splices_left"] + res.diagnostics["splices_right"] >= 1


def test_tripod_within_coverage_is_line_with_honest_cert():
    # arms short enough that the seed line already covers everything
    g = tripod_graph(60, 60, 60)
    m = PathMetric(g)
    f = random_tournament(g, random.Random(42))
    res = extract_line(m, f, r=1, verify_asserted=False)
    assert isinstance(res, (Ray, Line))
    assert isinstance(verify_qi(m, res.cert), Valid)


def test_coverage_when_ray_returned():
    g = path_graph(120)
    m = PathMetric(g)
    res = extract_line(m, min_selector(_ids(g)))
    assert isinstance(res, (Ray, Line))
    domain = set(res.cert.coord)
    dist = m.distances_from_set(domain)
    assert max(dist) <= res.diagnostics["coverage_radius"]


def test_extraction_is_deterministic():
    g = path_graph(120)
    m = PathMetric(g)
    f = min_selector(_ids(g))
    first = extract_line(m, f)
    second = extract_line(PathMetric(g), f)
    assert type(first) is type(second)
    assert first.cert.coord == second.cert.coord
    assert first.cert == second.cert


def test_bounded_extraction_keeps_no_row_lists_beside_the_matrix():
    # computing r builds the all-pairs matrix; the seed search and the
    # diameter then read the matrix, not one memoized row list per vertex
    g = grid_graph(30, 30)
    m = PathMetric(g)
    res = extract_line(m, min_selector(_ids(g)))
    assert isinstance(res, Bounded) and res.radius == 58
    assert m._dense is not None
    assert len(m._rows) < g.vertex_count


@pytest.mark.parametrize("n,kind", [(300, Ray), (80, Line)])
def test_ray_and_line_extraction_read_steps_from_the_matrix(n, kind):
    # the final line's steps are single distances: read from the matrix that
    # computing r built, not memoized as one row list per line vertex
    g = path_graph(n)
    m = PathMetric(g)
    assert isinstance(extract_line(m, min_selector(_ids(g))), kind)
    assert m._dense is not None
    assert len(m._rows) < n // 10


@pytest.mark.parametrize("dense", [False, True], ids=["rows", "matrix"])
def test_seed_geodesic_is_the_lowest_seed_at_the_length(dense):
    for g in (path_graph(30), grid_graph(6, 5), tripod_graph(4, 7, 9)):
        oracle = PathMetric(g)
        for length in range(oracle.diameter() + 2):
            m = PathMetric(g)
            if dense:
                m.dense_matrix()
            s = next((v for v in range(g.vertex_count) if max(oracle.row(v)) >= length), None)
            expected = None if s is None else geodesic_between(oracle, s, oracle.row(s).index(length))
            assert _seed_geodesic(m, length) == expected
