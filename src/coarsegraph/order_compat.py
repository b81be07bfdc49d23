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


def _violations_at(m: PathMetric, order: LinearOrder, e: int, g: int, limit=16):
    """Triples (x, x', y) breaking the condition at radius g.

    For every ordered pair with d(x, y) > g: if x < y, every x' within e of
    x must stay below y; if y < x, every such x' must stay above y.
    """
    n = m.graph.vertex_count
    rank = order.rank
    balls = [sorted(m.ball(x, e)) for x in range(n)]
    ball_max = [max(rank[u] for u in balls[x]) for x in range(n)]
    ball_min = [min(rank[u] for u in balls[x]) for x in range(n)]
    out = []
    for x in range(n):
        row = m.row(x)
        rx = rank[x]
        for y in range(n):
            if y == x or row[y] <= g:
                continue
            ry = rank[y]
            if rx < ry and ball_max[x] >= ry:
                xp = next(u for u in balls[x] if rank[u] >= ry)
                out.append((x, xp, y))
            elif ry < rx and ball_min[x] <= ry:
                xp = next(u for u in balls[x] if rank[u] <= ry)
                out.append((x, xp, y))
            if len(out) >= limit:
                return out
    return out


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
    if cap is None:
        cap = max(e, m.diameter())
    if cap < e:
        raise InputError("cap must be at least e")
    by_rank = order.vertices_by_rank()
    g = e
    for x in range(m.graph.vertex_count):
        ranks = [order.rank[u] for u in m.ball(x, e)]
        row = m.row(x)
        g = max(g, max(row[by_rank[pos]] for pos in range(min(ranks), max(ranks) + 1)))
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
    for x in range(m.graph.vertex_count):
        ball = m.ball(x, e)
        ranks = sorted(order.rank[u] for u in ball)
        lo, hi = ranks[0], ranks[-1]
        if hi - lo + 1 == len(ball):
            continue
        for pos in range(lo, hi + 1):
            if by_rank[pos] not in ball:
                return Counterexample(x, by_rank[pos])
    return True
