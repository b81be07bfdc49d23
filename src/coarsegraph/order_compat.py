"""Linear orders against the metric coarse structure.

An order is compatible at radius e when, beyond some radius g, perturbing a
point within e cannot cross the order gap to the other point; an entourage
is interval when every e-ball is an order interval.
"""
from __future__ import annotations

from dataclasses import dataclass

from .graph_core import InputError, PathMetric


@dataclass(frozen=True)
class LinearOrder:
    """Bijection vertex -> rank 0..n-1."""

    rank: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.rank) != list(range(len(self.rank))):
            raise ValueError("rank must be a bijection onto 0..n-1")

    @classmethod
    def natural(cls, n: int) -> "LinearOrder":
        return cls(tuple(range(n)))

    @classmethod
    def from_ranking(cls, vertices_by_rank) -> "LinearOrder":
        """Build from a list whose k-th entry is the vertex of rank k."""
        ranks = [0] * len(vertices_by_rank)
        for pos, v in enumerate(vertices_by_rank):
            ranks[v] = pos
        return cls(tuple(ranks))

    def vertices_by_rank(self) -> list[int]:
        out = [0] * len(self.rank)
        for v, pos in enumerate(self.rank):
            out[pos] = v
        return out


@dataclass(frozen=True)
class MinimalG:
    g: int


@dataclass(frozen=True)
class NotFound:
    cap: int


@dataclass(frozen=True)
class CompatibilityReport:
    e: int
    result: MinimalG | NotFound
    violations: list


def _ball_spans(m: PathMetric, order: LinearOrder, e: int):
    """(x, e-ball of x, lowest rank in it, highest rank in it) for each vertex x."""
    rank = order.rank
    for x in range(m.graph.vertex_count):
        ball = m.ball(x, e)
        ranks = [rank[u] for u in ball]
        yield x, ball, min(ranks), max(ranks)


def _violations_at(m: PathMetric, order: LinearOrder, e: int, g: int, limit=16):
    """Triples (x, x', y) breaking the condition at radius g.

    For every ordered pair with d(x, y) > g: if x < y, every x' within e of
    x must stay below y; if y < x, every such x' must stay above y.  x' is
    the lowest-id ball member that crosses.
    """
    rank = order.rank
    out = []
    for x, ball, lo, hi in _ball_spans(m, order, e):
        rx = rank[x]
        for y, d in enumerate(m.row(x)):
            if y == x or d <= g:
                continue
            ry = rank[y]
            if ry > rx:
                if ry <= hi:
                    out.append((x, min(u for u in ball if rank[u] >= ry), y))
            elif ry >= lo:
                out.append((x, min(u for u in ball if rank[u] <= ry), y))
            if len(out) >= limit:
                return out
    return out


def check_cap(e: int, cap: int | None) -> None:
    """Refuse a cap below e, before any distance is computed."""
    if cap is not None and cap < e:
        raise InputError("cap must be at least e")


def min_compat_radius(
    m: PathMetric, order: LinearOrder, e: int, cap: int | None = None
) -> CompatibilityReport:
    """Smallest g in [e, cap] making radius-e perturbations order-safe.

    A pair x != y is rank-unsafe when y's rank is in the rank span of the
    e-ball of x, whatever g is; it breaks the condition at g iff d(x, y) > g.
    So g is max(e, the largest d over unsafe pairs), found in one scan; cap
    defaults to max(e, diameter), and past it the result is NotFound with the
    violating triples at the cap.
    """
    check_cap(e, cap)
    if cap is None:
        cap = max(e, m.diameter())
    by_rank = order.vertices_by_rank()
    g = e
    for x, _, lo, hi in _ball_spans(m, order, e):
        row = m.row(x)
        g = max(g, max(row[by_rank[pos]] for pos in range(lo, hi + 1)))
    if g <= cap:
        return CompatibilityReport(e, MinimalG(g), [])
    return CompatibilityReport(e, NotFound(cap), _violations_at(m, order, e, cap))


@dataclass(frozen=True)
class Counterexample:
    x: int
    gap_vertex: int


def is_interval_entourage(m: PathMetric, order: LinearOrder, e: int):
    """True iff every e-ball is an order interval.

    Otherwise returns the lowest vertex x together with the lowest-rank
    vertex lying strictly inside the ball's rank span but outside the ball.
    """
    by_rank = order.vertices_by_rank()
    for x, ball, lo, hi in _ball_spans(m, order, e):
        if hi - lo + 1 > len(ball):
            return Counterexample(x, next(v for v in by_rank[lo : hi + 1] if v not in ball))
    return True
