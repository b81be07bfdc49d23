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

from .graph_core import ChainProfile, InvariantError, PathMetric, geodesic_between
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


# outcomes that carry nothing of the probe are shared; frozen, so they
# compare and hash as fresh ones do
_HOLDS = Holds()
_NEAR_CHAIN = HypothesisUnmet("d(v, P) <= p + r")


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
        walk.extend(geodesic_between(m, a, b)[1:])
    return walk


def _checked_chain(m: PathMetric, zs, p: int) -> ChainProfile | HypothesisUnmet:
    """The chain's profile, or the first chain hypothesis that fails: a
    nonempty chain, p > 0, steps <= p.

    The claims first test the profile ``m.chain_profile`` stored last: when
    ``zs`` is its very tuple and the three hypotheses hold at p (read from
    ``zs``, p and the stored largest step), they use it without coming here.
    Any other call comes here, where a copy of the last chain still meets
    the memo; only a chain that fails is scanned again, for its first long
    step.
    """
    if len(zs) < 1:
        return HypothesisUnmet("empty chain")
    if p <= 0:
        return HypothesisUnmet("p must be positive")
    prof = m.chain_profile(zs)
    if prof.max_step <= p:
        return prof
    i = next(i for i, (z1, z2) in enumerate(zip(zs, zs[1:])) if m.distance(z1, z2) > p)
    return HypothesisUnmet(f"chain step {i} exceeds p")


def _near_end_table(m: PathMetric, prof: ChainProfile, bound: int) -> list:
    """Hypotheses (1) and (2) at each nearest index k, for one bound p + r.

    Entry k is the (1) outcome naming the least j >= k with
    d(z_0, z_j) <= bound, else the (2) outcome naming the least j with
    d(z_m, z_j) <= bound when j <= k, else None.  Built once per bound from
    the two end rows, and kept in ``prof.tables``.
    """
    zs = prof.chain
    row_0, row_m = m.row(zs[0]), m.row(zs[-1])
    j2 = next((j for j, z in enumerate(zs) if row_m[z] <= bound), len(zs))
    unmet1, unmet2 = None, HypothesisUnmet(f"(2) fails: d(z_m, z_{j2}) <= p + r")
    table = [None] * len(zs)
    for k in reversed(range(len(zs))):
        if row_0[zs[k]] <= bound:
            unmet1 = HypothesisUnmet(f"(1) fails: d(z_0, z_{k}) <= p + r")
        table[k] = unmet1 if unmet1 is not None else unmet2 if k >= j2 else None
    prof.tables[bound] = table
    return table


def _end_ball_unmet(m: PathMetric, prof: ChainProfile, bound: int, q: int):
    """claim3_side's end-ball hypotheses for one (p + r, q): the first that
    fails, naming its least index, or Holds.  An end's row is read only when
    its window is nonempty; the outcome is kept in ``prof.tables``."""
    zs, last, unmet = prof.chain, len(prof.chain) - 1, _HOLDS
    lo, hi = max(q + 1, 0), min(last - q, last)  # the end balls' windows z_lo.. and ..z_hi
    for end, name, window in ((zs[0], "z_0", range(lo, last + 1)), (zs[-1], "z_m", range(hi + 1))):
        row = m.row(end) if window else None
        i = next((i for i in window if row[zs[i]] <= bound), None)
        if i is not None:
            unmet = HypothesisUnmet(f"end ball hypothesis fails at z_{i} near {name}")
            break
    prof.tables[bound, q] = unmet
    return unmet


def _first_break(m: PathMetric, f: TwoSelector, r: int, pairs):
    """First consecutive step whose images are more than r apart."""
    prev = pairs[0]
    prev_choice = f.choose(*prev)
    for cur in pairs[1:]:
        if cur != prev:
            choice = f.choose(*cur)
            if m.distance(prev_choice, choice) > r:
                # chains move one element along an edge, so the witness
                # re-verifies by construction
                if hausdorff_distance(m, prev, cur) > 1:
                    raise InvariantError(f"chain step {prev} -> {cur} is not a d_H <= 1 move")
                return Witness(prev, cur)
            prev, prev_choice = cur, choice
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
    walk = geodesic_between(m, a, b)
    broken = _first_break(m, f, r, [vpair(u, v) for u in walk])
    return broken if broken is not None else _HOLDS


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
    prof = m._last_chain  # the very tuple it stored hits without a copy or a compare
    if prof is None or prof.chain is not zs or not zs or p <= 0 or prof.max_step > p:
        prof = _checked_chain(m, zs, p)
        if isinstance(prof, HypothesisUnmet):
            return prof
    if prof.near_dist[v] <= p + r:
        return _HOLDS
    return _claim2_core(m, f, r, prof, v, p)


def _claim2_core(m, f: TwoSelector, r: int, prof: ChainProfile, v: int, p: int):
    """claim2_check past its precheck and a failed bound d(v, P) <= p + r.

    Hypotheses (1) and (2) are one lookup in the profile's table for p + r.
    """
    bound, k, zs = p + r, prof.near_index[v], prof.chain
    unmet = (prof.tables.get(bound) or _near_end_table(m, prof, bound))[k]
    if unmet is not None:
        return unmet
    row_0, row_m = m.row(zs[0]), m.row(zs[-1])
    geo = geodesic_between(m, v, zs[k])
    if any(row_0[w] <= bound for w in geo):
        return HypothesisUnmet("(3) fails: geodesic meets B(z_0, p + r)")
    if any(row_m[w] <= bound for w in geo):
        return HypothesisUnmet("(4) fails: geodesic meets B(z_m, p + r)")
    legs = (
        [vpair(w, v) for w in _chain_vertices(m, zs)],
        [vpair(zs[0], w) for w in geo],
        [vpair(zs[-1], w) for w in geo],
        [vpair(zs[0], w) for w in _chain_vertices(m, zs[k:])],
        [vpair(zs[-1], w) for w in _chain_vertices(m, list(reversed(zs[: k + 1])))],
    )
    for leg in legs:
        broken = _first_break(m, f, r, leg)
        if broken is not None:
            return broken
    raise InvariantError("propagation legs all closed yet the conclusion fails; f cannot be a function")


def claim3_side(m, f: TwoSelector, r: int, zs, v: int, p: int, q: int | None = None):
    """Locate the chain index nearest to v inside an end window.

    ``q`` defaults to 2 (r + p) + 1; the line extraction passes 3 p.  With
    the end-ball hypotheses satisfied, a modulus-r selector forces the
    nearest index into the first or last q + 1 positions; a mid-chain
    nearest index is handed to claim2_check's core, which must produce a witness.
    """
    if q is None:
        q = 2 * (r + p) + 1
    prof = m._last_chain  # the very tuple it stored hits without a copy or a compare
    if prof is None or prof.chain is not zs or not zs or p <= 0 or prof.max_step > p:
        prof = _checked_chain(m, zs, p)
        if isinstance(prof, HypothesisUnmet):
            return prof
    bound = p + r
    if prof.near_dist[v] <= bound:
        return _NEAR_CHAIN
    unmet = prof.tables.get((bound, q)) or _end_ball_unmet(m, prof, bound, q)
    if unmet is not _HOLDS:
        return unmet
    j, last = prof.near_index[v], len(prof.chain) - 1
    if j <= q:
        return LeftEnd(j)
    if j >= last - q:
        return RightEnd(j)
    return _claim2_core(m, f, r, prof, v, p)
