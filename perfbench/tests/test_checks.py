"""The benchmark's checkers accept right answers and reject wrong ones.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""
import os
import random
import sys
from fractions import Fraction

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import checks  # noqa: E402
from checks import Choice, Graph  # noqa: E402


def _min(g):
    return Choice(g.n, coord=range(g.n))


def test_closed_forms_match_bfs():
    for g in (Graph("path", 9), Graph("grid", 5, 3), Graph("grid", 4, 4)):
        bfs = np.stack([checks.bfs(g.adj, [u]) for u in range(g.n)])
        ids = np.arange(g.n)
        assert (g.dist(ids[:, None], ids[None, :]) == bfs).all()


def test_certificate_checker_accepts_tight_certificates():
    g = Graph("path", 10)
    ident = {v: v for v in range(10)}
    assert checks.cert_first_failure(g, ident, Fraction(1), 0, 0) is None
    doubled = {v: 2 * v for v in range(10)}
    assert checks.cert_first_failure(g, doubled, Fraction(2), 0, 0) is None
    half = {v: v for v in range(5)}
    assert checks.cert_first_failure(g, half, Fraction(1), 0, 5) is None
    assert checks.covering_radius(g, list(half)) == 5


def test_certificate_checker_rejects_lowered_lambda():
    g = Graph("path", 10)
    doubled = {v: 2 * v for v in range(10)}
    assert checks.cert_first_failure(g, doubled, Fraction(3, 2), 0, 0) == ("pair", 0, 1)


def test_certificate_checker_rejects_d_minus_one():
    g = Graph("path", 10)
    half = {v: v for v in range(5)}
    assert checks.cert_first_failure(g, half, Fraction(1), 0, 4) == ("cover", 9)


def test_certificate_checker_rejects_a_moved_coordinate():
    g = Graph("grid", 12, 2)
    coord = {v: v // 2 for v in range(g.n)}
    assert checks.cert_first_failure(g, coord, Fraction(1), 1, 0) is None
    coord[7] += 5
    assert checks.cert_first_failure(g, coord, Fraction(1), 1, 0) == ("pair", 0, 7)


def test_witness_checker():
    g = Graph("path", 10)
    f = _min(g)
    assert checks.witness_ok(g, f, 0, (0, 1), (1, 2))
    assert checks.witness_ok(g, f, 1, (0, 1), (1, 2), exact=True)
    assert not checks.witness_ok(g, f, 1, (0, 1), (1, 2))
    # jump 2 > r, but the pairs lie at Hausdorff distance 2
    assert checks.hausdorff(g, (0, 1), (2, 3)) == 2
    assert not checks.witness_ok(g, f, 1, (0, 1), (2, 3))


def test_modulus_checker_rejects_r_off_by_one():
    g = Graph("path", 12)
    assert checks.brute_modulus(g, _min(g)) == 1
    for k in (3, 4, 5):
        grid = Graph("grid", k, k)
        r = checks.brute_modulus(grid, _min(grid))
        assert r == k and r not in (k - 1, k + 1)


def test_vectorized_modulus_matches_the_definition():
    rng = random.Random(7)
    for spec in ("cycle:7", "tripod:2,2,3", "grid:3x3", "comb:6,2"):
        g = Graph.from_spec(spec)
        for _ in range(3):
            table = {(a, b): rng.choice((a, b)) for a in range(g.n) for b in range(a + 1, g.n)}
            f = Choice(g.n, table=table)
            assert checks.brute_modulus(g, f) == checks.brute_modulus_py(g, f)
        assert checks.brute_modulus(g, _min(g)) == checks.brute_modulus_py(g, _min(g))


def test_exhaustive_min_modulus():
    assert checks.exhaustive_min_modulus(Graph("path", 2)) == 0
    assert checks.exhaustive_min_modulus(Graph("path", 4)) == 1
    assert checks.exhaustive_min_modulus(Graph("grid", 3, 3)) is None


def test_segment_and_circle_nets():
    net, edges, largeness = checks.expected_net("segment", 20)
    assert net == [0, 5, 10, 15, 20] and edges == [(0, 1), (1, 2), (2, 3), (3, 4)]
    assert largeness == 2  # half units: every sample within 1 of the net
    net, edges, _ = checks.expected_net("circle", 20)
    assert net == [0, 5, 10, 15] and len(edges) == 4
    # circle(12): the wrap-around gap of 9/2 gets no edge, sample 19/2 is 2 away
    net, edges, largeness = checks.expected_net("circle", 24)
    assert net == [0, 5, 10, 15] and len(edges) == 3 and largeness == 4


def test_order_checkers():
    g = Graph("path", 30)
    natural = list(range(30))
    for e in (1, 3, 6):
        assert checks.compat_violation_radius(g, natural, e) <= e
    assert checks.first_interval_gap(g, natural, 2) is None
    assert checks.first_interval_gap(Graph("grid", 3, 3), list(range(9)), 1) == (0, 2)
    reversed_pair = [1, 0] + list(range(2, 30))
    assert checks.first_interval_gap(g, reversed_pair, 1) is not None


def test_nearest_index_takes_the_lowest():
    g = Graph("path", 20)
    assert checks.nearest_index(g, 10, (0, 8, 12, 16)) == 1
    assert checks.nearest_index(g, 19, (0, 8, 12, 16)) == 3
