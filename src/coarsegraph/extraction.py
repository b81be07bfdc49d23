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

from dataclasses import dataclass

from .claims import HypothesisUnmet, LeftEnd, RightEnd, claim3_side
from .graph_core import InvariantError, PathMetric, geodesic_between
from .qi_cert import QuasiIsometryCert, tighten, verify_qi, Valid
from .selector import TwoSelector, Witness, modulus, verify_selector


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


def _measure_slack(row_c, left, right) -> int:
    """Largest gap between a line vertex's distance to c and its index."""
    return max(abs(row_c[w] - i) for side in (left, right) for i, w in enumerate(side, 1))


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
    c = seed[mid]
    row_c = m.row(c)
    left = list(reversed(seed[:mid]))  # b-side then y-buffer, d(left[i], c) = i + 1
    right = list(seed[mid + 1 :])  # a-side then x-buffer
    claimed = set(seed)

    while True:
        seq = left[::-1] + [c] + right
        diag["iterations"] += 1
        if diag["iterations"] > nverts + 2:
            diag["anomalies"].append("iteration cap reached")
            break
        from_line = m.distances_from_set(seq)
        if max(from_line) <= coverage:
            break
        candidates = [v for v in range(nverts) if v not in claimed and row_c[v] >= n]
        if not candidates:
            diag["anomalies"].append("far vertices remain but no probe candidates")
            break
        probe = max(candidates, key=lambda w: (from_line[w], -w))
        claimed.add(probe)
        diag["probes"] += 1

        side = claim3_side(m, f, r, seq, probe, p, q=q)
        if isinstance(side, Witness):
            return Falsified((side.pair_a, side.pair_b), diag)
        if isinstance(side, HypothesisUnmet):
            diag["anomalies"].append(f"probe {probe}: {side.reason}")
            continue

        extend_right = isinstance(side, RightEnd)
        host, opposite = (right, left) if extend_right else (left, right)
        anchor = host[3 * p - 1]  # exact distance 3p from c
        if r >= 1:
            branch = "center" if f.choose(c, host[r - 1]) == c else "side"
            diag["branches"].append(branch)

        geo = geodesic_between(m, c, probe).vertices
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
        opp_row = m.row(opposite[-1])
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
            right = new_side
            diag["splices_right"] += 1
        else:
            left = new_side
            diag["splices_left"] += 1
        claimed.update(tail)
        diag["coordinate_slack"] = max(diag["coordinate_slack"], _measure_slack(row_c, left, right))

    diag["line_length"] = len(seq)
    diag["max_sequence_step"] = _max_step(m, seq)
    coord = {c: 0}
    for i, w in enumerate(right):
        coord[w] = i + 1
    for i, w in enumerate(left):
        coord[w] = -(i + 1)
    if len(coord) != len(seq):
        diag["anomalies"].append("line sequence revisits vertices")

    grown_right = len(right) > 8 * p + 1
    grown_left = len(left) > 8 * p + 1
    if grown_right != grown_left:
        if grown_left:
            coord = {v: -x for v, x in coord.items()}
        shift = -min(coord.values())
        coord = {v: x + shift for v, x in coord.items()}
        return Ray(coord, _certificate(m, coord), diag)
    return Line(coord, _certificate(m, coord), diag)
