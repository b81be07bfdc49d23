"""Coarse ray/line extraction from a graph with a two-selector.

Given a selector with modulus r, set p = 2r + 1, n = 16p + 1, q = 3p.  A
seed geodesic of length 16p + 2 is split into blocks

    y_4p .. y_0, b_4p .. b_1, c, a_1 .. a_4p, x_0 .. x_4p

around its midpoint c.  Probes far from the current line are connected to c
by geodesics; the end-window check (claim3_side with q = 3p) decides which
side to extend, the geodesic is spliced at the index meeting the r-ball of
the side's 3p-anchor, and the trailing buffer of 4p + 1 vertices is
re-established.  Every vertex of the spliced line keeps exact distance
index to c, because the seed and every splice tail are geodesics through c.

Outcomes: Bounded (no seed geodesic exists), Ray or Line (with a
quasi-isometry certificate tightened from the exact coordinates), or
Falsified (a self-verifying witness against the claimed modulus).  All
failure modes are result values.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .claims import HypothesisUnmet, LeftEnd, RightEnd, claim3_side
from .graph_core import InvariantError, PathMetric, geodesic_between
from .qi_cert import QuasiIsometryCert, tighten, verify_qi, Valid
from .selector import TwoSelector, Witness, modulus, verify_selector


@dataclass
class ExtractionState:
    """Working state of the line construction."""

    p: int
    c: int
    left: list[int] = field(default_factory=list)  # b-side then y-buffer, d(left[i], c) = i + 1
    right: list[int] = field(default_factory=list)  # a-side then x-buffer
    iterations: int = 0

    @property
    def buffer_len(self) -> int:
        return 4 * self.p + 1

    @property
    def a_len(self) -> int:
        return len(self.right) - self.buffer_len

    @property
    def b_len(self) -> int:
        return len(self.left) - self.buffer_len

    def sequence(self) -> list[int]:
        return list(reversed(self.left)) + [self.c] + self.right


@dataclass
class Bounded:
    radius: int
    diagnostics: dict


@dataclass
class Ray:
    coord: dict
    cert: QuasiIsometryCert
    diagnostics: dict


@dataclass
class Line:
    coord: dict
    cert: QuasiIsometryCert
    diagnostics: dict


@dataclass
class Falsified:
    witness: tuple[tuple[int, int], tuple[int, int]]
    diagnostics: dict


def _seed_geodesic(m: PathMetric, length: int):
    """Lowest-seed geodesic of exactly the requested length, if any."""
    for s in range(m.graph.vertex_count):
        row = m.row(s)
        if max(row) >= length:
            t = row.index(length)
            return geodesic_between(m, s, t).vertices
    return None


def _measure_slack(m: PathMetric, state: ExtractionState) -> int:
    worst = 0
    for side in (state.left, state.right):
        for i, w in enumerate(side):
            worst = max(worst, abs(m.distance(w, state.c) - (i + 1)))
    return worst


def _max_step(m: PathMetric, seq) -> int:
    return max(m.distance(u, w) for u, w in zip(seq, seq[1:])) if len(seq) > 1 else 0


def _certificate(m: PathMetric, coord: dict) -> QuasiIsometryCert:
    """Tighten the coordinate's certificate, then check it once."""
    cert = tighten(m, coord)
    verdict = verify_qi(m, cert)
    if not isinstance(verdict, Valid):
        raise InvariantError(f"tightened certificate fails verification at {verdict}")
    return cert


def _falsify_or_none(m, f, r):
    verdict = verify_selector(m, f, r)
    if isinstance(verdict, Witness):
        return (verdict.pair_a, verdict.pair_b)
    return None


def extract_line(
    m: PathMetric,
    f: TwoSelector,
    r: int | None = None,
    *,
    verify_asserted: bool = True,
) -> Bounded | Ray | Line | Falsified:
    """Run the full construction.

    When ``r`` is omitted it is computed exactly, so no modulus violation
    can exist and the claim machinery never fires.  An asserted ``r`` is
    checked up front (strongly recommended; disable only to exercise the
    in-loop falsification paths) and a violation is returned as Falsified.
    """
    g = m.graph
    nverts = g.vertex_count
    diag: dict = {
        "iterations": 0,
        "probes": 0,
        "splices_left": 0,
        "splices_right": 0,
        "anomalies": [],
        "branches": [],
        "coordinate_slack": 0,
        "max_junction_step": 1,
        "asserted_r": r,
    }
    if r is None:
        r = modulus(m, f).r
        diag["computed_r"] = r
    elif verify_asserted:
        witness = _falsify_or_none(m, f, r)
        if witness is not None:
            return Falsified(witness, diag)

    p = 2 * r + 1
    n = 16 * p + 1
    q = 3 * p
    coverage = n + 4 * p
    diag.update({"r": r, "p": p, "n": n, "q": q, "coverage_radius": coverage})

    seed = _seed_geodesic(m, 16 * p + 2)
    if seed is None:
        return Bounded(m.diameter(), diag)

    mid = 8 * p + 1
    state = ExtractionState(
        p=p,
        c=seed[mid],
        left=list(reversed(seed[:mid])),
        right=list(seed[mid + 1 :]),
    )
    claimed = set(seed)

    while True:
        state.iterations += 1
        diag["iterations"] = state.iterations
        if state.iterations > nverts + 2:
            diag["anomalies"].append("iteration cap reached")
            break
        line_set = set(state.sequence()) | {state.c}
        from_line = m.distances_from_set(line_set)
        if max(from_line) <= coverage:
            break
        candidates = [
            v
            for v in range(nverts)
            if v not in claimed and m.distance(v, state.c) >= n
        ]
        if not candidates:
            diag["anomalies"].append("far vertices remain but no probe candidates")
            break
        probe = max(candidates, key=lambda w: (from_line[w], -w))
        claimed.add(probe)
        diag["probes"] += 1

        seq = state.sequence()
        side = claim3_side(m, f, r, seq, probe, p, q=q)
        if isinstance(side, Witness):
            return Falsified((side.pair_a, side.pair_b), diag)
        if isinstance(side, HypothesisUnmet):
            diag["anomalies"].append(f"probe {probe}: {side.reason}")
            continue

        extend_right = isinstance(side, RightEnd)
        host = state.right if extend_right else state.left
        opposite_end = state.left[-1] if extend_right else state.right[-1]
        anchor = host[3 * p - 1]  # exact distance 3p from c
        if r >= 1:
            first = host[r - 1]
            branch = "center" if f.choose(state.c, first) == state.c else "side"
            diag["branches"].append(branch)

        geo = geodesic_between(m, state.c, probe).vertices
        splice_at = None
        anchor_row = m.row(anchor)
        for j in range(1, len(geo) - 1):
            if anchor_row[geo[j]] <= r:
                splice_at = j
                break
        if splice_at is None:
            witness = _falsify_or_none(m, f, r)
            if witness is not None:
                return Falsified(witness, diag)
            diag["anomalies"].append(
                f"probe {probe}: geodesic misses the anchor ball; selector verified"
            )
            continue
        if splice_at > len(host):
            diag["anomalies"].append(f"probe {probe}: splice index beyond host block")
            continue

        tail = list(geo[splice_at + 1 :])
        opp_row = m.row(opposite_end)
        if any(opp_row[w] <= 3 * p for w in tail):
            witness = _falsify_or_none(m, f, r)
            if witness is not None:
                return Falsified(witness, diag)
            diag["anomalies"].append(
                f"probe {probe}: tail meets the opposite end buffer; selector verified"
            )
            continue
        junction = m.distance(host[splice_at - 1], tail[0])
        if junction > p:
            diag["anomalies"].append(f"probe {probe}: junction step {junction} > p")
            continue
        diag["max_junction_step"] = max(diag["max_junction_step"], junction)

        new_side = host[:splice_at] + tail
        if extend_right:
            state.right = new_side
            diag["splices_right"] += 1
        else:
            state.left = new_side
            diag["splices_left"] += 1
        claimed.update(tail)
        diag["coordinate_slack"] = max(diag["coordinate_slack"], _measure_slack(m, state))

    seq = state.sequence()
    diag["line_length"] = len(seq)
    diag["max_sequence_step"] = _max_step(m, seq)
    coord = {state.c: 0}
    for i, w in enumerate(state.right):
        coord[w] = i + 1
    for i, w in enumerate(state.left):
        coord[w] = -(i + 1)
    if len(coord) != 1 + len(state.left) + len(state.right):
        diag["anomalies"].append("line sequence revisits vertices")

    grown_right = state.a_len > 4 * p
    grown_left = state.b_len > 4 * p
    if grown_right != grown_left:
        if grown_left:
            coord = {v: -x for v, x in coord.items()}
        shift = -min(coord.values())
        coord = {v: x + shift for v, x in coord.items()}
        return Ray(coord, _certificate(m, coord), diag)
    return Line(coord, _certificate(m, coord), diag)
