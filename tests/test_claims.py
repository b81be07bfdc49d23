from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from coarsegraph import (
    ClaimConfig,
    Holds,
    HypothesisUnmet,
    LeftEnd,
    PathMetric,
    RightEnd,
    Witness,
    claim1_propagate,
    claim2_check,
    claim3_side,
    geodesic_between,
    min_selector,
    modulus,
    witness_is_violation,
)
from coarsegraph.generators import comb_graph, cycle_graph, grid_graph, path_graph, tripod_graph

from claims_oracle import oracle_claim2, oracle_claim3
from conftest import random_tournament


def _ids(g):
    return list(range(g.vertex_count))


def test_claim1_holds_on_p20():
    m = PathMetric(path_graph(20))
    f = min_selector(_ids(m.graph))
    assert claim1_propagate(m, f, 1, 19, 10, 12, 2) == Holds()


def test_claim1_trivial_equal_endpoints():
    m = PathMetric(path_graph(20))
    f = min_selector(_ids(m.graph))
    assert claim1_propagate(m, f, 1, 19, 10, 10, 2) == Holds()


def test_claim1_reports_unmet_hypotheses():
    m = PathMetric(path_graph(20))
    f = min_selector(_ids(m.graph))
    out = claim1_propagate(m, f, 1, 19, 10, 15, 2)
    assert isinstance(out, HypothesisUnmet)
    out = claim1_propagate(m, f, 1, 5, 4, 6, 2)
    assert isinstance(out, HypothesisUnmet)


def test_claim1_adversarial_tripod_yields_witness():
    g = tripod_graph(6, 6, 6)
    m = PathMetric(g)
    rng = random.Random(3)
    witnesses = 0
    for _ in range(120):
        f = random_tournament(g, rng)
        out = claim1_propagate(m, f, 0, 6, 8, 9, 1)
        if isinstance(out, Witness):
            witnesses += 1
            assert witness_is_violation(m, f, 0, out.pair_a, out.pair_b)
    assert witnesses > 0


def test_claim2_trivial_when_bound_holds():
    m = PathMetric(path_graph(20))
    f = min_selector(_ids(m.graph))
    # v sits on the chain: nearest distance 0 <= p + r
    out = claim2_check(m, f, 1, ClaimConfig(v=5, z=(0, 3, 6, 9), p=3))
    assert out == Holds()


def test_claim2_checks_structure_and_hypotheses():
    m = PathMetric(path_graph(30))
    f = min_selector(_ids(m.graph))
    out = claim2_check(m, f, 1, ClaimConfig(v=29, z=(0, 10), p=3))
    assert isinstance(out, HypothesisUnmet)  # chain step exceeds p


def test_claim2_holds_on_admissible_path_configs():
    m = PathMetric(path_graph(30))
    f = min_selector(_ids(m.graph))
    r = modulus(m, f).r
    checked = 0
    for start in range(0, 12):
        for step in (1, 2, 3):
            z = tuple(range(start, 30, step))
            for v in range(30):
                out = claim2_check(m, f, r, ClaimConfig(v=v, z=z, p=3))
                assert not isinstance(out, Witness)
                checked += isinstance(out, Holds)
    assert checked > 0


def test_claim2_adversarial_comb_yields_witness():
    g = comb_graph(30, 12)
    m = PathMetric(g)
    z = tuple(range(30))  # the spine
    tip = g.vertex_count - 1
    rng = random.Random(7)
    witnesses = 0
    for _ in range(40):
        f = random_tournament(g, rng)
        out = claim2_check(m, f, 1, ClaimConfig(v=tip, z=z, p=1))
        if isinstance(out, Witness):
            witnesses += 1
            assert witness_is_violation(m, f, 1, out.pair_a, out.pair_b)
    assert witnesses > 0


def test_claim3_right_end_on_path():
    m = PathMetric(path_graph(40))
    f = min_selector(_ids(m.graph))
    out = claim3_side(m, f, 1, list(range(31)), 39, 1)
    assert out == RightEnd(30)


def test_claim3_left_end_near_start():
    m = PathMetric(path_graph(40))
    f = min_selector(_ids(m.graph))
    out = claim3_side(m, f, 1, list(range(5, 36)), 0, 1)
    assert out == LeftEnd(0)


def test_claim3_default_window():
    m = PathMetric(path_graph(40))
    f = min_selector(_ids(m.graph))
    # q defaults to 2 (r + p) + 1 = 5 at r = 1, p = 1
    out = claim3_side(m, f, 1, list(range(31)), 39, 1)
    assert isinstance(out, RightEnd) and out.j == 30 >= 30 - 5


def test_claim3_unmet_when_probe_close():
    m = PathMetric(path_graph(40))
    f = min_selector(_ids(m.graph))
    out = claim3_side(m, f, 1, list(range(31)), 32, 1)
    assert isinstance(out, HypothesisUnmet)


def test_claim3_adversarial_mid_sequence_yields_witness():
    g = comb_graph(30, 12)
    m = PathMetric(g)
    z = tuple(range(30))
    tip = g.vertex_count - 1
    rng = random.Random(11)
    witnesses = 0
    for _ in range(40):
        f = random_tournament(g, rng)
        out = claim3_side(m, f, 1, z, tip, 1)
        if isinstance(out, Witness):
            witnesses += 1
            assert witness_is_violation(m, f, 1, out.pair_a, out.pair_b)
    assert witnesses > 0


def test_claims_sound_for_verified_selectors_on_comb():
    g = comb_graph(20, 6)
    m = PathMetric(g)
    f = min_selector(_ids(g))
    r = modulus(m, f).r
    for p in (1, 2):
        for start in (0, 4):
            z = tuple(range(start, 20, p))
            for v in range(g.vertex_count):
                assert not isinstance(
                    claim2_check(m, f, r, ClaimConfig(v=v, z=z, p=p)), Witness
                )
                assert not isinstance(claim3_side(m, f, r, z, v, p), Witness)


@st.composite
def claim_graphs(draw):
    """Paths, combs, tripods, K x 2 ladders and cycles of a few dozen vertices."""
    kind = draw(st.sampled_from(["path", "comb", "tripod", "ladder", "cycle"]))
    size = st.integers(min_value=1, max_value=12)
    if kind == "path":
        return path_graph(draw(st.integers(min_value=1, max_value=40)))
    if kind == "comb":
        return comb_graph(draw(st.integers(min_value=2, max_value=40)), draw(size))
    if kind == "tripod":
        return tripod_graph(draw(size), draw(size), draw(size))
    if kind == "ladder":
        return grid_graph(draw(st.integers(min_value=1, max_value=15)), 2)
    return cycle_graph(draw(st.integers(min_value=3, max_value=24)))


def _drawn_chain(m, rng, p):
    """A sampled geodesic, a walk or any short sequence, the empty one included.

    Geodesics are sampled every step <= max(p, 1) vertices, and walk steps
    are at most max(p, 1) long.
    """
    n = m.graph.vertex_count
    kind = rng.random()
    if kind < 0.15:
        return tuple(rng.randrange(n) for _ in range(rng.randint(0, 5)))
    if kind < 0.4:
        walk = [rng.randrange(n)]
        for _ in range(rng.randint(0, 30)):
            walk.append(rng.choice(sorted(m.ball(walk[-1], max(p, 1)))))
        return tuple(walk)
    walk = geodesic_between(m, rng.randrange(n), rng.randrange(n))
    step = rng.randint(1, max(p, 1))
    return walk[rng.randrange(min(step, len(walk))) :: step]


@settings(max_examples=80, deadline=None)
@given(claim_graphs(), st.integers(min_value=0, max_value=2**32))
def test_claims_agree_with_oracle(g, seed):
    # same outcomes, reason texts and witnesses as the one-lookup-per-element
    # scans in claims_oracle, for min and random selectors; a seeded Random
    # keeps the draws uniform, where hypothesis-drawn ones favour small values
    rng = random.Random(seed)
    m = PathMetric(g)
    n = g.vertex_count
    f = min_selector(_ids(g)) if rng.random() < 0.3 else random_tournament(g, rng)
    for _ in range(30):
        r, p, q = rng.randint(0, 2), rng.randint(0, 3), rng.choice([None, *range(7)])
        zs = _drawn_chain(m, rng, p)
        if zs and rng.random() < 0.7:  # the vertex farthest from the chain
            far = m.distances_from_set(zs)
            v = far.index(max(far))
        else:
            v = rng.randrange(n)
        assert claim2_check(m, f, r, ClaimConfig(v=v, z=zs, p=p)) == oracle_claim2(m, f, r, zs, v, p)
        assert claim3_side(m, f, r, zs, v, p, q=q) == oracle_claim3(m, f, r, zs, v, p, q=q)


@settings(max_examples=60, deadline=None)
@given(claim_graphs(), st.integers(min_value=0, max_value=2**32))
def test_chain_memo_agrees_with_oracle_across_interleaved_calls(g, seed):
    # one metric for every call, so the last-chain memo and its per-bound
    # tables carry over: the same tuple at alternating (r, p, q), a list copy
    # of it, another chain in between, the empty chain once it is the
    # remembered one, p <= 0 on a remembered chain, and a long-step chain
    # after a good one.  Each outcome must be the oracle's on a metric the
    # claims never touch, and an outcome the claims share must compare and
    # hash as the oracle's fresh one
    rng = random.Random(seed)
    m, fresh = PathMetric(g), PathMetric(g)
    n = g.vertex_count
    f = min_selector(_ids(g)) if rng.random() < 0.3 else random_tournament(g, rng)
    p0, q0 = rng.randint(1, 3), rng.randrange(7)  # q0 recurs at several bounds p + r
    a = tuple(_drawn_chain(fresh, rng, p0)) or (0,)
    b = tuple(_drawn_chain(fresh, rng, p0)) or (n - 1,)
    far_end = fresh.row(a[-1])
    long_step = a + (far_end.index(max(far_end)),)

    def run(zs, r, p, q):
        if zs:  # the vertex farthest from the chain reaches the deepest checks
            far = fresh.distances_from_set(zs)
            probes = [far.index(max(far))] + rng.sample(range(n), min(n, 4))
        else:
            probes = [rng.randrange(n)]
        for v in probes:
            for out, expected in (
                (claim2_check(m, f, r, ClaimConfig(v=v, z=zs, p=p)), oracle_claim2(fresh, f, r, zs, v, p)),
                (claim3_side(m, f, r, zs, v, p, q=q), oracle_claim3(fresh, f, r, zs, v, p, q=q)),
            ):
                assert out == expected and hash(out) == hash(expected), (zs, v, r, p, q)

    for _ in range(12):
        kind = rng.choice(["same", "same", "list", "other", "empty", "p<=0", "long"])
        r, q, p = rng.randint(0, 2), rng.choice([None, q0]), rng.choice([p0, p0 + 1, max(1, p0 - 1)])
        if kind == "same":
            run(a, r, p, q)
        elif kind == "list":
            run(list(a), r, p, q)
        elif kind == "other":
            run(b, r, p, q)
        elif kind == "empty":
            m.chain_profile(())
            run((), r, p, q)
        elif kind == "p<=0":
            run(a, r, p, q)
            run(a, r, rng.choice([0, -1]), q)
        else:
            run(a, r, p, q)
            run(long_step, r, p, q)


def test_claim2_geodesic_hypotheses_match_oracle():
    # chains whose ends stay far from each other's half but come close to
    # the geodesic from v: hypotheses (3) and (4), rare in random draws
    cases = [
        (
            comb_graph(8, 9),
            7,
            (1, 2, 2, 8, 10, 13, 12, 14, 16, 16, 13, 14, 12, 12, 15, 16, 16, 16, 15, 14),
            3,
            "(3)",
        ),
        (tripod_graph(2, 3, 5), 2, (9, 10, 10, 9, 10, 9, 8, 6, 3, 3, 4), 2, "(4)"),
    ]
    for g, v, zs, p, hypothesis in cases:
        m = PathMetric(g)
        f = min_selector(_ids(g))
        out = claim2_check(m, f, 0, ClaimConfig(v=v, z=zs, p=p))
        assert out == oracle_claim2(m, f, 0, zs, v, p)
        assert out.reason.startswith(f"{hypothesis} fails")


def test_a_chain_checked_against_many_probes_reads_its_steps_once():
    # 40 probes through both claims read the chain's len(z) - 1 steps once;
    # at the selector's true modulus no propagation leg runs, so the step
    # check is the only caller of distance
    g = comb_graph(28, 12)  # 40 vertices
    m = PathMetric(g)
    f = min_selector(_ids(g))
    r = modulus(m, f).r
    z, p = tuple(range(0, 28, 2)) + (27,), 2
    distance, calls = m.distance, 0

    def counted_distance(u, v):
        nonlocal calls
        calls += 1
        return distance(u, v)

    m.distance = counted_distance
    for v in range(40):
        assert not isinstance(claim2_check(m, f, r, ClaimConfig(v=v, z=z, p=p)), Witness)
        assert not isinstance(claim3_side(m, f, r, z, v, p), Witness)
    assert calls == len(z) - 1


def test_a_long_step_is_named_by_its_first_index():
    m = PathMetric(path_graph(30))
    f = min_selector(_ids(m.graph))
    good, bad = (0, 2, 4, 6), (0, 1, 2, 5, 6, 20, 21)  # steps 1, 1, 3, 1, 14, 1
    for zs in (good, bad, good, list(bad)):  # a stale step memo passes bad
        out2 = claim2_check(m, f, 1, ClaimConfig(v=29, z=zs, p=2))
        out3 = claim3_side(m, f, 1, zs, 29, 2)
        assert out2 == oracle_claim2(m, f, 1, zs, 29, 2)
        assert out3 == oracle_claim3(m, f, 1, zs, 29, 2)
        if zs != good:
            assert out2 == out3 == HypothesisUnmet("chain step 2 exceeds p")
