"""Executable consistency checks for a selector at a claimed modulus.

Each check walks chains of pairs at Hausdorff distance <= 1 and watches the
induced tournament.  Under the stated separation hypotheses a genuine
modulus-r selector cannot flip sides along such a chain, so whenever the
checked implication fails, some step of the replay must jump by more than r
and that step is returned as a self-verifying witness against the selector.
Unmet hypotheses are reported as values, not exceptions, so callers can
enumerate configurations freely.
"""
from __future__ import annotations

from dataclasses import dataclass

from .graph_core import InvariantError, PathMetric, geodesic_between
from .selector import Holds, TwoSelector, Witness
from .hyperspace import hausdorff_distance, vpair


@dataclass(frozen=True)
class HypothesisUnmet:
    reason: str


@dataclass(frozen=True)
class LeftEnd:
    j: int


@dataclass(frozen=True)
class RightEnd:
    j: int


@dataclass(frozen=True)
class ClaimConfig:
    """A probe vertex against a chain with step bound p.

    ``z`` is a vertex sequence with consecutive distances <= p.
    """

    v: int
    z: tuple[int, ...]
    p: int


def _chain_vertices(m: PathMetric, anchors) -> list[int]:
    """Anchor sequence threaded through deterministic geodesics."""
    walk = [anchors[0]]
    for a, b in zip(anchors, anchors[1:]):
        walk.extend(geodesic_between(m, a, b).vertices[1:])
    return walk


def _chain_unmet(m: PathMetric, zs, p: int) -> HypothesisUnmet | None:
    """The first chain hypothesis that fails: a nonempty chain, p > 0, steps <= p."""
    if len(zs) < 1:
        return HypothesisUnmet("empty chain")
    if p <= 0:
        return HypothesisUnmet("p must be positive")
    for i, (z1, z2) in enumerate(zip(zs, zs[1:])):
        if m.distance(z1, z2) > p:
            return HypothesisUnmet(f"chain step {i} exceeds p")
    return None


def _first_break(m: PathMetric, f: TwoSelector, r: int, pairs):
    """First consecutive step whose images are more than r apart."""
    prev = pairs[0]
    prev_choice = f.choose_pair(prev)
    for cur in pairs[1:]:
        if cur != prev:
            choice = f.choose_pair(cur)
            if m.distance(prev_choice, choice) > r:
                # chains move one element along an edge, so the witness
                # re-verifies by construction
                if hausdorff_distance(m, prev, cur) > 1:
                    raise InvariantError(f"chain step {prev} -> {cur} is not a d_H <= 1 move")
                return Witness(prev, cur)
            prev, prev_choice = cur, choice
    return None


def _nearest_index(m: PathMetric, v: int, zs) -> tuple[int, int]:
    """Lowest index attaining min distance from v to the sequence."""
    row = m.row(v)
    best, k = None, -1
    for i, z in enumerate(zs):
        if best is None or row[z] < best:
            best, k = row[z], i
    return best, k


def _first_within(row, vertices, bound: int) -> int | None:
    """Index of the first vertex at distance <= bound in ``row``, or None."""
    for i, w in enumerate(vertices):
        if row[w] <= bound:
            return i
    return None


def claim1_propagate(m, f: TwoSelector, r: int, v: int, a: int, b: int, p: int):
    """Propagate "chosen over v" from a to b along a geodesic.

    Requires d(a, b) <= p, both endpoints outside the (p + r)-ball of v, and
    f({a, v}) = a.  The geodesic then stays outside the r-ball of v, so each
    step either keeps choosing against v or jumps more than r.
    """
    if p <= 0:
        return HypothesisUnmet("p must be positive")
    if m.distance(a, b) > p:
        return HypothesisUnmet(f"d(a, b) = {m.distance(a, b)} > p = {p}")
    if m.distance(v, a) <= p + r:
        return HypothesisUnmet("a inside B(v, p + r)")
    if m.distance(v, b) <= p + r:
        return HypothesisUnmet("b inside B(v, p + r)")
    if f.choose(a, v) != a:
        return HypothesisUnmet("f({a, v}) is not a")
    walk = geodesic_between(m, a, b).vertices
    broken = _first_break(m, f, r, [vpair(u, v) for u in walk])
    return broken if broken is not None else Holds()


def claim2_check(m, f: TwoSelector, r: int, config: ClaimConfig):
    """Bound the distance from v to the nearest vertex of a chain.

    With the four separation hypotheses satisfied, a modulus-r selector
    forces d(v, z_k) <= p + r for the nearest chain vertex z_k.  When the
    bound already holds the outcome is Holds without consulting the
    hypotheses.  When it fails, five propagation legs (the chain against v,
    the connecting geodesic against each chain end, and the chain halves
    against the opposite ends) would otherwise pin f({z_0, z_m}) to both of
    its values, so some leg must break; the first break is the witness.
    """
    zs, v, p = config.z, config.v, config.p
    unmet = _chain_unmet(m, zs, p)
    if unmet is not None:
        return unmet
    t, k = _nearest_index(m, v, zs)
    return _claim2_core(m, f, r, zs, v, p, k, t)


def _claim2_core(m, f: TwoSelector, r: int, zs, v: int, p: int, k: int, t: int):
    """claim2_check past its precheck, with z_k nearest to v at distance t."""
    bound = p + r
    if t <= bound:
        return Holds()
    row_0, row_m = m.row(zs[0]), m.row(zs[-1])
    i = _first_within(row_0, zs[k:], bound)
    if i is not None:
        return HypothesisUnmet(f"(1) fails: d(z_0, z_{k + i}) <= p + r")
    i = _first_within(row_m, zs[: k + 1], bound)
    if i is not None:
        return HypothesisUnmet(f"(2) fails: d(z_m, z_{i}) <= p + r")
    geo = geodesic_between(m, v, zs[k]).vertices
    if _first_within(row_0, geo, bound) is not None:
        return HypothesisUnmet("(3) fails: geodesic meets B(z_0, p + r)")
    if _first_within(row_m, geo, bound) is not None:
        return HypothesisUnmet("(4) fails: geodesic meets B(z_m, p + r)")

    chain_all = _chain_vertices(m, zs)
    chain_right = _chain_vertices(m, zs[k:])
    chain_left = _chain_vertices(m, list(reversed(zs[: k + 1])))
    legs = (
        [vpair(w, v) for w in chain_all],
        [vpair(zs[0], w) for w in geo],
        [vpair(zs[-1], w) for w in geo],
        [vpair(zs[0], w) for w in chain_right],
        [vpair(zs[-1], w) for w in chain_left],
    )
    for leg in legs:
        broken = _first_break(m, f, r, leg)
        if broken is not None:
            return broken
    raise InvariantError(
        "propagation legs all closed yet the conclusion fails; "
        "f cannot be a function"
    )


def claim3_side(m, f: TwoSelector, r: int, zs, v: int, p: int, q: int | None = None):
    """Locate the chain index nearest to v inside an end window.

    ``q`` defaults to 2 (r + p) + 1; the line extraction passes 3 p.  With
    the end-ball hypotheses satisfied, a modulus-r selector forces the
    nearest index into the first or last q + 1 positions; a mid-chain
    nearest index is handed to claim2_check's core, which must produce a witness.
    """
    zs = tuple(zs)
    if q is None:
        q = 2 * (r + p) + 1
    unmet = _chain_unmet(m, zs, p)
    if unmet is not None:
        return unmet
    last = len(zs) - 1
    dmin, j = _nearest_index(m, v, zs)
    bound = p + r
    if dmin <= bound:
        return HypothesisUnmet("d(v, P) <= p + r")
    i = _first_within(m.row(zs[0]), zs[q + 1 :], bound)
    if i is not None:
        return HypothesisUnmet(f"end ball hypothesis fails at z_{q + 1 + i} near z_0")
    i = _first_within(m.row(zs[-1]), zs[: max(last - q + 1, 0)], bound)
    if i is not None:
        return HypothesisUnmet(f"end ball hypothesis fails at z_{i} near z_m")
    if j <= q:
        return LeftEnd(j)
    if j >= last - q:
        return RightEnd(j)
    sub = _claim2_core(m, f, r, zs, v, p, j, dmin)
    if isinstance(sub, Holds):
        raise InvariantError("nearest distance both above and below p + r")
    return sub
