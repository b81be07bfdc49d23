"""Two-selectors on vertex pairs and their macro-uniformity modulus.

A two-selector picks one element from every 2-subset of the vertex set.
Its modulus is the least r such that pairs at Hausdorff distance <= 1 have
choices at distance <= r; a violating pair of pairs is a self-verifying
witness against a claimed modulus.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph_core import InputError, InvariantError, PathMetric
from .hyperspace import pair_blocks, vpair


class NonInjectiveCoordinate(ValueError):
    pass


class InvalidSelector(InputError):
    pass


@dataclass(frozen=True)
class Holds:
    pass


@dataclass(frozen=True)
class Witness:
    """Pair of pairs with d_H <= 1 whose images violate the claimed bound."""

    pair_a: tuple[int, int]
    pair_b: tuple[int, int]


@dataclass(frozen=True)
class Modulus:
    r: int
    witness: Witness | None  # None only on a one-vertex graph, which has no neighbor pair


class TwoSelector:
    """Choice function on unordered vertex pairs.

    Stored intensionally (a coordinate whose minimum is chosen) or
    extensionally (a table with one choice per pair).  Coordinate form
    scales to large graphs; tables are what random tournaments and search
    assignments produce.  ``modulus`` and ``verify_selector`` run the same
    vectorised scan on both: a comparison of coordinate ranks, or a lookup
    in an n x n choice array built from the table.
    """

    __slots__ = ("coord", "table")

    def __init__(self, coord=None, table=None):
        if (coord is None) == (table is None):
            raise InvalidSelector("exactly one of coord/table required")
        self.coord = list(coord) if coord is not None else None
        if self.coord is not None and len(set(self.coord)) != len(self.coord):
            raise NonInjectiveCoordinate("coordinate values must be distinct")
        if table is not None:
            # a copy keyed (min, max); a pair may be keyed either way, but not both
            table = dict(table)
            for a, b in [key for key in table if key[0] > key[1]]:  # a list: table changes below
                if (b, a) in table:
                    raise InvalidSelector(f"pair {{{a}, {b}}} is given twice")
                table[b, a] = table.pop((a, b))
            for (a, b), c in table.items():
                if c != a and c != b:
                    raise InvalidSelector(f"choice {c} outside pair {{{a}, {b}}}")
        self.table = table

    def choose(self, a: int, b: int) -> int:
        if a == b:
            raise ValueError("selector is defined on 2-subsets only")
        if self.coord is not None:
            return a if self.coord[a] < self.coord[b] else b
        return self.table[(a, b) if a < b else (b, a)]

    def __repr__(self):
        kind = "coord" if self.coord is not None else f"table[{len(self.table)}]"
        return f"TwoSelector({kind})"


def min_selector(coord) -> TwoSelector:
    """Selector choosing the element with the smaller coordinate value."""
    return TwoSelector(coord=coord)


def order_to_selector(order) -> TwoSelector:
    """Selector choosing the order-minimum of each pair.

    ``order`` is anything with a ``rank`` sequence (vertex -> position) or a
    bare rank sequence.
    """
    rank = getattr(order, "rank", order)
    return TwoSelector(coord=rank)


def selector_from_table(table: dict) -> TwoSelector:
    """Selector with one choice per pair; a pair may be keyed either way, but not both."""
    return TwoSelector(table=table)


def _chooser(f: TwoSelector, n: int):
    """f as vectorised choices (choose, unchosen).

    choose(x, y) maps arrays x, y with x != y to the chosen elements.  On a
    block of ``pair_blocks``, unchosen(X, Y) marks each X[s, i] that f
    chooses from no {X[s, i], Y[t, i]} with x != y, and each such Y[t, i].
    """
    if f.coord is not None:
        # ranks order the vertices as the coordinates do, whatever their type
        rank = np.empty(n, dtype=np.int64)
        rank[sorted(range(n), key=f.coord.__getitem__)] = np.arange(n)

        def unchosen(X, Y):
            # ranks are distinct, so rank[x] < rank[y] already means x != y
            rx, ry = rank.take(X), rank.take(Y)
            return rx >= ry.max(axis=0), ry >= rx.max(axis=0)

        return (lambda x, y: np.where(rank[x] < rank[y], x, y)), unchosen
    # picks[x * n + y] is 1 when f chooses x from {x, y}, 0 when it chooses y, -1 if x == y
    lo, hi = np.triu_indices(n, 1)
    try:  # pairs in (a, b) order, so the first one missing is named
        takes_low = np.fromiter((f.table[p] == p[0] for p in zip(lo.tolist(), hi.tolist())), bool, lo.size)
    except KeyError as missing:
        a, b = missing.args[0]
        raise InvalidSelector(f"table gives no choice for pair {{{a}, {b}}}") from None
    if len(f.table) > lo.size:
        a, b = min(p for p in f.table if not 0 <= p[0] < p[1] < n)
        raise InvalidSelector(f"table chooses from {{{a}, {b}}}, not a pair of 0..{n - 1}")
    picks = np.full((n, n), -1, dtype=np.int8)
    picks[lo, hi], picks[hi, lo] = takes_low, ~takes_low
    picks = picks.ravel()

    def unchosen(X, Y):
        pick = picks.take(X[:, None, :] * n + Y[None, :, :])
        return (pick != 1).all(axis=1), (pick != 0).all(axis=0)

    return (lambda x, y: np.where(picks.take(x * n + y) == 1, x, y)), unchosen


def _pair_tops(m: PathMetric, f: TwoSelector):
    """Each pair A's largest jump d(f(A), f(B)), as (top, entry) per block of ``pair_blocks``.

    With c = f({a, b}), the jump to {x, y} is d(c, x) when f chooses x and
    d(c, y) otherwise, so top[i] is the largest d(c, v) over the chosen v
    of N[a] and N[b]: 2 * width gathers from the matrix per pair.
    entry(i, hit) is the Witness at pair i's first (x, y) in scan order
    whose jump satisfies ``hit``, from that pair's width x width jumps.
    """
    n = m.graph.vertex_count
    dist = m.dense_matrix().ravel()
    choose, unchosen = _chooser(f, n)
    for _, a, b, X, Y in pair_blocks(m):
        c = choose(a, b) * n
        ux, uy = unchosen(X, Y)
        dx, dy = dist.take(c + X), dist.take(c + Y)
        dx[ux], dy[uy] = -1, -1
        top = np.maximum(dx.max(axis=0), dy.max(axis=0))

        def entry(i, hit, a=a, b=b, X=X, Y=Y, c=c):
            x, y = X[:, i, None], Y[None, :, i]
            jumps = np.where(x == y, -1, dist.take(c[i] + choose(x, y)))
            s, t = np.unravel_index(int(hit(jumps).argmax()), jumps.shape)
            return Witness((int(a[i]), int(b[i])), vpair(int(x[s, 0]), int(y[0, t])))

        yield top, entry


def modulus(m: PathMetric, f: TwoSelector) -> Modulus:
    """Exact minimal modulus, with a neighbor pair attaining it.

    Minimality: every d_H <= 1 neighbor pair has choice distance <= r and
    the attaining witness rules out r - 1 (or r = 0 and any neighbor pair
    serves as witness).  The witness is the first attaining pair in scan
    order: it lies in the first pair A whose top attains r, and is re-checked
    against r - 1 before it is returned.  A
    one-vertex graph has no neighbor pair: r = 0, witness None.
    """
    if m.graph.vertex_count < 2:
        return Modulus(0, None)
    r, first = -1, None
    for top, entry in _pair_tops(m, f):
        block_r = int(top.max())
        if block_r > r:
            r, first = block_r, (entry, int(top.argmax()))
    entry, i = first
    return Modulus(r, _rechecked(m, f, r - 1, entry(i, lambda jumps: jumps == r)))


def verify_selector(m: PathMetric, f: TwoSelector, r: int):
    """Holds iff every d_H <= 1 neighbor pair has choice distance <= r.

    Otherwise returns the first violating pair in scan order; the witness
    re-verifies (d_H <= 1 and image distance > r) by construction, and is
    re-checked before it is returned.
    """
    for top, entry in _pair_tops(m, f):
        over = top > r
        if over.any():
            return _rechecked(m, f, r, entry(int(over.argmax()), lambda jumps: jumps > r))
    return Holds()


def _rechecked(m: PathMetric, f: TwoSelector, r: int, w: Witness) -> Witness:
    """``w`` once ``witness_is_violation`` confirms it against r, else InvariantError."""
    if not witness_is_violation(m, f, r, w.pair_a, w.pair_b):
        raise InvariantError(f"kernel witness {w} is no violation of modulus {r}")
    return w


def witness_is_violation(m: PathMetric, f: TwoSelector, r: int, pair_a, pair_b) -> bool:
    """Re-verify a witness: d_H(A, B) <= 1 and d(f(A), f(B)) > r.

    Reads at most nine single distances, so after a scan they come from the
    all-pairs matrix and no row is memoized.
    """
    pa, pb = vpair(*pair_a), vpair(*pair_b)
    if any(min(m.distance(u, v) for v in V) > 1 for U, V in ((pa, pb), (pb, pa)) for u in U):
        return False
    return m.distance(f.choose(*pa), f.choose(*pb)) > r


__all__ = [
    "Holds",
    "InvalidSelector",
    "Modulus",
    "NonInjectiveCoordinate",
    "TwoSelector",
    "Witness",
    "min_selector",
    "modulus",
    "order_to_selector",
    "selector_from_table",
    "verify_selector",
    "witness_is_violation",
]
