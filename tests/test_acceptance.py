"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every tolerance is
exact (integers and rationals); target runtime for the whole module is
under two minutes.
"""
from __future__ import annotations

import itertools
import random
from fractions import Fraction

import coarsegraph as cg
from coarsegraph import (
    Bounded,
    ClaimConfig,
    Falsified,
    Holds,
    Line,
    PathMetric,
    Ray,
    Valid,
    Witness,
    claim1_propagate,
    claim2_check,
    claim3_side,
    extract_line,
    hausdorff_distance,
    min_selector,
    modulus,
    verify_qi,
    verify_selector,
    witness_is_violation,
)
from coarsegraph.discretize import (
    certify_net,
    greedy_net,
    net_graph,
    sample_space,
)
from coarsegraph.order_compat import (
    Counterexample,
    LinearOrder,
    MinimalG,
    is_interval_entourage,
    min_compat_radius,
)
from coarsegraph.search import Feasible, min_modulus_search
from coarsegraph.generators import comb_graph, grid_graph, path_graph, tripod_graph

from conftest import brute_hausdorff, degree, floyd_warshall, random_tournament
from search_oracle import exhaustive_min_modulus

HALF = Fraction(1, 2)


def _report(number: int, failures: list[str]) -> None:
    verdict = "PASS" if not failures else "FAIL"
    print(f"criterion {number}: {verdict}" + (f" ({'; '.join(failures)})" if failures else ""))
    assert not failures, f"criterion {number}: " + "; ".join(failures)


def test_criterion_1_metric_and_hausdorff_oracles(atlas_graphs):
    failures = []
    mismatches = 0
    for n, edges, g in atlas_graphs:
        m = PathMetric(g)
        oracle = floyd_warshall(n, edges)
        for u in range(n):
            if m.row(u) != oracle[u]:
                mismatches += 1
        subsets = [
            s for size in (1, 2, 3) for s in itertools.combinations(range(n), size)
        ]
        for A in subsets:
            for B in subsets:
                if hausdorff_distance(m, A, B) != brute_hausdorff(oracle, A, B):
                    mismatches += 1
    if mismatches:
        failures.append(f"{mismatches} oracle mismatches")
    _report(1, failures)


def test_criterion_2_modulus_exactness():
    failures = []
    for n in range(3, 257):
        r = modulus(PathMetric(path_graph(n)), min_selector(list(range(n)))).r
        if r != 1:
            failures.append(f"P_{n} modulus {r} != 1")
            break
    for n in range(4, 17):
        g = grid_graph(n, n)
        m = PathMetric(g)
        f = min_selector(list(range(n * n)))
        # witness family: A = {(0,n-1),(1,0)}, B = {(1,n-1),(1,0)} as row-major ids
        A = (n - 1, n)
        B = (n, 2 * n - 1)
        if hausdorff_distance(m, A, B) != 1:
            failures.append(f"{n}x{n} witness family not at d_H 1")
            continue
        jump = m.distance(f.choose(*A), f.choose(*B))
        if jump < n:
            failures.append(f"{n}x{n} witness jump {jump} < {n}")
        if n <= 8:
            r = modulus(m, f).r
            if r != n:
                failures.append(f"{n}x{n} full scan modulus {r} != {n}")
    _report(2, failures)


def test_criterion_3_extraction_on_lines():
    failures = []
    for n in (120, 200, 500):
        g = path_graph(n)
        m = PathMetric(g)
        res = extract_line(m, min_selector(list(range(n))))
        if not isinstance(res, (Ray, Line)):
            failures.append(f"P_{n}: {type(res).__name__}")
            continue
        cert = res.cert
        if cert.lam > 3 or cert.C > 12 or cert.D > 61:
            failures.append(f"P_{n}: constants lam={cert.lam} C={cert.C} D={cert.D}")
        if not isinstance(verify_qi(m, cert), Valid):
            failures.append(f"P_{n}: certificate fails verification")
    res = extract_line(PathMetric(path_graph(40)), min_selector(list(range(40))))
    if not (isinstance(res, Bounded) and res.radius == 39):
        failures.append(f"P_40: expected Bounded(39), got {res}")
    _report(3, failures)


def test_criterion_4_falsification_soundness():
    failures = []
    rng = random.Random(20240817)
    cases = [
        ("P_30", path_graph(30)),
        ("grid5", grid_graph(5, 5)),
        ("tripod8", tripod_graph(8, 8, 8)),
    ]
    for name, g in cases:
        m = PathMetric(g)
        falsified = 0
        bad_witness = 0
        bad_cert = 0
        for _ in range(1000):
            f = random_tournament(g, rng)
            res = extract_line(m, f, r=1)
            if isinstance(res, Falsified):
                falsified += 1
                if not witness_is_violation(m, f, 1, res.witness.pair_a, res.witness.pair_b):
                    bad_witness += 1
            elif isinstance(res, (Ray, Line)):
                if not isinstance(verify_qi(m, res.cert), Valid):
                    bad_cert += 1
        if bad_witness or bad_cert:
            failures.append(f"{name}: {bad_witness} bad witnesses, {bad_cert} bad certs")
        if falsified == 0:
            failures.append(f"{name}: no falsifications over 1000 tournaments")
    _report(4, failures)


def _claim_config_family(m, p):
    """Chains from subsampled geodesics between all sufficiently-far pairs."""
    n = m.graph.vertex_count
    for s in range(n):
        row = m.row(s)
        for t in range(n):
            if t == s or row[t] <= p + 1:
                continue
            geo = cg.geodesic_between(m, s, t)
            for step in range(1, p + 1):
                z = geo[::step]
                if z[-1] != geo[-1]:
                    z = z + (geo[-1],)
                yield z


def test_criterion_5_claims_soundness():
    failures = []
    for name, g in (("P_40", path_graph(40)), ("comb(28,12)", comb_graph(28, 12))):
        n = g.vertex_count
        m = PathMetric(g)
        f = min_selector(list(range(n)))
        r = modulus(m, f).r
        if not isinstance(verify_selector(m, f, r), Holds):
            failures.append(f"{name}: selector does not verify at its modulus")
            continue
        witnesses = 0
        for p in (1, 2, 3):
            for v in range(n):
                row = m.row(v)
                for a in range(n):
                    for b in range(a, min(n, a + p + 1)):
                        if row[a] <= p + r or row[b] <= p + r:
                            continue
                        if m.distance(a, b) > p or f.choose(a, v) != a:
                            continue
                        if isinstance(claim1_propagate(m, f, r, v, a, b, p), Witness):
                            witnesses += 1
            for z in _claim_config_family(m, p):
                for v in range(n):
                    if isinstance(
                        claim2_check(m, f, r, ClaimConfig(v=v, z=z, p=p)), Witness
                    ):
                        witnesses += 1
                    if isinstance(claim3_side(m, f, r, z, v, p), Witness):
                        witnesses += 1
        if witnesses:
            failures.append(f"{name}: {witnesses} spurious witnesses")
    _report(5, failures)


def test_criterion_6_search_oracle_agreement(atlas_graphs):
    failures = []
    for n, edges, g in atlas_graphs:
        exact = exhaustive_min_modulus(g)
        outcomes = min_modulus_search(g, exact)
        last = outcomes[-1]
        if not (isinstance(last, Feasible) and last.r == exact):
            failures.append(f"n={n} edges={edges}: search != exhaustive ({exact})")
            break
        if any(isinstance(o, Feasible) for o in outcomes[:-1]):
            failures.append(f"n={n}: feasible below the exhaustive minimum")
            break
    if exhaustive_min_modulus(path_graph(4)) != 1:
        failures.append("P_4 minimal modulus != 1")
    if exhaustive_min_modulus(path_graph(2)) != 0:
        failures.append("P_2 minimal modulus != 0")
    _report(6, failures)


def test_criterion_7_discretization():
    failures = []
    # segment(10) at step 1/2
    sp = sample_space(("segment", 10), HALF)
    net = greedy_net(sp)
    positions = [sp.points[i] for i in net]
    if positions != [0, Fraction(5, 2), 5, Fraction(15, 2), 10]:
        failures.append(f"segment net {positions}")
    g = net_graph(sp, net)
    if g.edge_list() != [(0, 1), (1, 2), (2, 3), (3, 4)]:
        failures.append(f"segment net graph edges {g.edge_list()}")
    cert = certify_net(sp, net, g)
    if cert.largeness > 2:
        failures.append(f"segment largeness {cert.largeness}")
    # circle(10): expected to be the 4-cycle.  The net is 0, 5/2, 5, 15/2,
    # every gap 5/2 <= 4, so the witness rule closes the loop.  circumference
    # 12 at step 1/2 cannot close: the same net leaves a wrap-around gap of
    # 9/2 (sample 10 sits exactly 2 from 0, so it is not admitted), and on
    # half-step nets an edge exists exactly when the ambient distance is <= 4.
    sp = sample_space(("circle", 10), HALF)
    net = greedy_net(sp)
    g = net_graph(sp, net)
    edges = g.edge_list()
    k = len(net)
    is_cycle = len(edges) == k and all(degree(g, v) == 2 for v in range(k))
    if not (k == 4 and is_cycle):
        failures.append(
            f"circle(10) net graph is not C4: {k} net points "
            f"{[str(sp.points[i]) for i in net]}, edges {edges}"
        )
    # rectangle(4,4): connected net graph with d <= 4 m throughout
    sp = sample_space(("rectangle", 4, 4), HALF)
    net = greedy_net(sp)
    g = net_graph(sp, net)  # raises DisconnectedNetGraph if not connected
    metric = PathMetric(g)
    for a in range(len(net)):
        for b in range(a + 1, len(net)):
            ambient = sp.dist(net[a], net[b])
            if ambient > 4 * metric.distance(a, b):
                failures.append(
                    f"rectangle comparability fails at net pair ({a}, {b})"
                )
    _report(7, failures)


def test_criterion_8_order_compatibility():
    failures = []
    for n in (16, 64):
        m = PathMetric(path_graph(n))
        order = LinearOrder.natural(n)
        for e in range(1, 9):
            report = min_compat_radius(m, order, e)
            if report.result != MinimalG(e):
                failures.append(f"P_{n} e={e}: {report.result}")
    previous = None
    for n in range(3, 11):
        m = PathMetric(grid_graph(n, n))
        order = LinearOrder.natural(n * n)  # row-major = lexicographic
        report = min_compat_radius(m, order, 1)
        if not isinstance(report.result, MinimalG):
            failures.append(f"grid {n}: compatibility radius not found")
            continue
        gn = report.result.g
        if gn < n - 1:
            failures.append(f"grid {n}: g = {gn} < n - 1")
        if previous is not None and gn < previous:
            failures.append(f"grid {n}: g not monotone ({previous} -> {gn})")
        previous = gn
    for n in (8, 64):
        m = PathMetric(path_graph(n))
        for e in range(0, 9):
            if is_interval_entourage(m, LinearOrder.natural(n), e) is not True:
                failures.append(f"P_{n} e={e}: not interval")
    m = PathMetric(grid_graph(3, 3))
    lex = LinearOrder.natural(9)
    out = is_interval_entourage(m, lex, 1)
    if not isinstance(out, Counterexample):
        failures.append("3x3 lexicographic order reported interval at e=1")
    else:
        ball = m.ball(out.x, 1)
        ranks = sorted(lex.rank[u] for u in ball)
        gap_rank = lex.rank[out.gap_vertex]
        if out.gap_vertex in ball or not ranks[0] < gap_rank < ranks[-1]:
            failures.append("3x3 counterexample does not re-verify")
    _report(8, failures)


def test_criterion_9_pipeline_composition():
    failures = []
    # extraction needs a seed geodesic of length 16p + 2 with p = 2r + 1; the
    # min selector on a path has r = 1, so the net graph needs diameter >= 50.
    # segment(150) gives P_61 (diameter 60); segment(50) gives only P_21.
    sp = sample_space(("segment", 150), HALF)
    net = greedy_net(sp)
    g = net_graph(sp, net)
    # the net points come out in segment order, so identity is the segment order
    f = min_selector(list(range(g.vertex_count)))
    m = PathMetric(g)
    seed_length = 16 * (2 * modulus(m, f).r + 1) + 2
    if m.diameter() < seed_length:
        failures.append(
            f"segment(150) net graph diameter {m.diameter()} is below the"
            f" seed geodesic length {seed_length}, so extraction must be Bounded"
        )
        _report(9, failures)
    res = extract_line(m, f)
    if not isinstance(res, (Ray, Line)):
        failures.append(
            f"extract on the segment(150) net graph returned {type(res).__name__}"
            f" (net has {g.vertex_count} points, diameter {m.diameter()})"
        )
    elif not isinstance(verify_qi(m, res.cert), Valid):
        failures.append("certificate fails verification")
    _report(9, failures)
