"""Reference chain claims, one distance lookup per checked element.

These are ``claim2_check``, ``claim3_side`` and ``_first_break`` as they
were before ``coarsegraph.claims`` read each chain-end row once, skipped
the geodesic while the distance bound holds, and let ``claim3_side`` skip
a second precheck: the hypotheses are checked loop by loop through
``m.distance``, the geodesic is built before the bound is tested, and a
mid-chain index in ``claim3_side`` goes through the full ``oracle_claim2``.
Outcomes, reason texts included, must agree with the package.
"""
from __future__ import annotations

from coarsegraph.claims import (
    HypothesisUnmet,
    LeftEnd,
    RightEnd,
    _chain_unmet,
    _chain_vertices,
    _nearest_index,
)
from coarsegraph.graph_core import InvariantError, geodesic_between
from coarsegraph.hyperspace import hausdorff_distance, vpair
from coarsegraph.selector import Holds, Witness


def oracle_first_break(m, f, r, pairs):
    """First consecutive step whose images are more than r apart."""
    prev = None
    prev_choice = None
    for cur in pairs:
        if prev is not None and cur != prev:
            choice = f.choose_pair(cur)
            if m.distance(prev_choice, choice) > r:
                if hausdorff_distance(m, prev, cur) > 1:
                    raise InvariantError(f"chain step {prev} -> {cur} is not a d_H <= 1 move")
                return Witness(prev, cur)
            prev, prev_choice = cur, choice
        elif prev is None:
            prev = cur
            prev_choice = f.choose_pair(cur)
    return None


def oracle_claim2(m, f, r, zs, v, p):
    unmet = _chain_unmet(m, zs, p)
    if unmet is not None:
        return unmet
    _, k = _nearest_index(m, v, zs)
    geo = geodesic_between(m, v, zs[k]).vertices
    t = len(geo) - 1
    if t <= p + r:
        return Holds()
    bound = p + r
    for i in range(k, len(zs)):
        if m.distance(zs[0], zs[i]) <= bound:
            return HypothesisUnmet(f"(1) fails: d(z_0, z_{i}) <= p + r")
    for i in range(0, k + 1):
        if m.distance(zs[-1], zs[i]) <= bound:
            return HypothesisUnmet(f"(2) fails: d(z_m, z_{i}) <= p + r")
    for w in geo:
        if m.distance(zs[0], w) <= bound:
            return HypothesisUnmet("(3) fails: geodesic meets B(z_0, p + r)")
    for w in geo:
        if m.distance(zs[-1], w) <= bound:
            return HypothesisUnmet("(4) fails: geodesic meets B(z_m, p + r)")
    legs = (
        [vpair(w, v) for w in _chain_vertices(m, zs)],
        [vpair(zs[0], w) for w in geo],
        [vpair(zs[-1], w) for w in geo],
        [vpair(zs[0], w) for w in _chain_vertices(m, zs[k:])],
        [vpair(zs[-1], w) for w in _chain_vertices(m, list(reversed(zs[: k + 1])))],
    )
    for leg in legs:
        broken = oracle_first_break(m, f, r, leg)
        if broken is not None:
            return broken
    raise InvariantError("propagation legs all closed yet the conclusion fails")


def oracle_claim3(m, f, r, zs, v, p, q=None):
    zs = tuple(zs)
    if q is None:
        q = 2 * (r + p) + 1
    unmet = _chain_unmet(m, zs, p)
    if unmet is not None:
        return unmet
    last = len(zs) - 1
    dmin, j = _nearest_index(m, v, zs)
    if dmin <= p + r:
        return HypothesisUnmet("d(v, P) <= p + r")
    for i in range(q + 1, last + 1):
        if m.distance(zs[0], zs[i]) <= p + r:
            return HypothesisUnmet(f"end ball hypothesis fails at z_{i} near z_0")
    for i in range(0, last - q + 1):
        if m.distance(zs[-1], zs[i]) <= p + r:
            return HypothesisUnmet(f"end ball hypothesis fails at z_{i} near z_m")
    if j <= q:
        return LeftEnd(j)
    if j >= last - q:
        return RightEnd(j)
    sub = oracle_claim2(m, f, r, zs, v, p)
    if isinstance(sub, Holds):
        raise InvariantError("nearest distance both above and below p + r")
    return sub
