"""Two-selectors on vertex pairs and their macro-uniformity modulus.

A two-selector picks one element from every 2-subset of the vertex set.
Its modulus is the least r such that pairs at Hausdorff distance <= 1 have
choices at distance <= r; a violating pair of pairs is a self-verifying
witness against a claimed modulus.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph_core import InputError, PathMetric, neighborhood_table
from .hyperspace import hausdorff_distance, vpair


class NonInjectiveCoordinate(ValueError):
    pass


class InvalidSelector(InputError):
    pass


BLOCK_ELEMENTS = 1 << 16  # (pair, slot, slot) entries per block of the scan


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
    in a pair-indexed choice array built from the table.
    """

    __slots__ = ("coord", "table")

    def __init__(self, coord=None, table=None):
        if (coord is None) == (table is None):
            raise InvalidSelector("exactly one of coord/table required")
        self.coord = list(coord) if coord is not None else None
        self.table = table
        if self.coord is not None and len(set(self.coord)) != len(self.coord):
            raise NonInjectiveCoordinate("coordinate values must be distinct")
        if table is not None:
            for (a, b), c in table.items():
                if c != a and c != b:
                    raise InvalidSelector(f"choice {c} outside pair {{{a}, {b}}}")

    def choose(self, a: int, b: int) -> int:
        if a == b:
            raise ValueError("selector is defined on 2-subsets only")
        if self.coord is not None:
            return a if self.coord[a] < self.coord[b] else b
        return self.table[(a, b) if a < b else (b, a)]

    def choose_pair(self, pair) -> int:
        return self.choose(pair[0], pair[1])

    def __repr__(self):
        kind = "coord" if self.coord is not None else f"table[{len(self.table)}]"
        return f"TwoSelector({kind})"


class PrecRelation:
    """Tournament induced by a selector: a strictly-before b iff f({a,b}) = a."""

    def __init__(self, selector: TwoSelector):
        self.selector = selector

    def prec(self, a: int, b: int) -> bool:
        return a != b and self.selector.choose(a, b) == a

    __call__ = prec


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
    return TwoSelector(table=dict(table))


@dataclass(frozen=True)
class BornologousSelector:
    """Coordinate-minimum choice on arbitrary nonempty finite subsets."""

    coord: tuple

    def choose(self, vertices) -> int:
        vs = list(vertices)
        if not vs:
            raise ValueError("nonempty subset required")
        return min(vs, key=lambda v: self.coord[v])

    def restrict_to_pairs(self) -> TwoSelector:
        return TwoSelector(coord=list(self.coord))


def lift_bornologous(coord) -> BornologousSelector:
    coord = tuple(coord)
    if len(set(coord)) != len(coord):
        raise NonInjectiveCoordinate("coordinate values must be distinct")
    return BornologousSelector(coord)


def _chooser(f: TwoSelector, n: int):
    """f as a vectorised choice: arrays x, y with x != y to the chosen elements."""
    if f.coord is not None:
        # ranks order the vertices as the coordinates do, whatever their type
        rank = np.empty(n, dtype=np.int64)
        rank[sorted(range(n), key=f.coord.__getitem__)] = np.arange(n)
        return lambda x, y: np.where(rank[x] < rank[y], x, y)
    table = f.table
    takes_low = np.fromiter(
        (table[(a, b)] == a for a in range(n) for b in range(a + 1, n)),
        dtype=bool,
        count=n * (n - 1) // 2,
    )

    def choose(x, y):
        lo, hi = np.minimum(x, y), np.maximum(x, y)
        # position of the pair (lo, hi) in the (a, b) order of the table
        return np.where(takes_low[lo * (2 * n - lo - 3) // 2 + hi - 1], lo, hi)

    return choose


def _row_jumps(m: PathMetric, a, b, x, fa, fb):
    """d(fa, fb) for a block, read from the BFS rows of N[a] alone.

    With fa = a the jump is a distance from a.  With fa = b it is d(x, b)
    for x in N[a] when fb = x, or d(b, y) = [b != y] for y in N[b] when
    fb = y.
    """
    rows = np.unique(x)
    dist = m.distance_block(rows.tolist(), np.arange(m.graph.vertex_count))
    from_b = np.where(fb == x, dist[np.searchsorted(rows, x), b], fb != b)
    return np.where(fa == a, dist[np.searchsorted(rows, a), fb], from_b)


def _jump_blocks(m: PathMetric, f: TwoSelector):
    """d(f(A), f(B)) over the d_H <= 1 pair neighbourhood, a block at a time.

    Walks the scan order of ``hyperspace`` over blocks of about
    BLOCK_ELEMENTS (pair, slot, slot) entries and yields (a, b, X, Y, jumps):
    the block's pairs {a[i] < b[i]}, their neighbourhoods X[:, i] = N[a[i]]
    and Y[:, i] = N[b[i]], and jumps[i, s, t] = d(f({a, b}), f({x, y})) with
    x = X[s, i] and y = Y[t, i], or -1 where x == y.  The arrays are held
    slot-major, so the arithmetic runs along the block's pairs; ``jumps`` is
    a view in scan order.  Distances come from the dense matrix when the
    metric has one, else from ``_row_jumps``.
    """
    n = m.graph.vertex_count
    dist = m.dense_matrix()
    choose = _chooser(f, n)
    nbr = neighborhood_table(m.graph, range(n)).T.copy()
    width = nbr.shape[0]
    v = np.arange(n)
    starts = v * (2 * n - v - 1) // 2  # index of pair (v, v + 1)
    step = max(1, BLOCK_ELEMENTS // (width * width))
    for p0 in range(0, n * (n - 1) // 2, step):
        p = np.arange(p0, min(p0 + step, n * (n - 1) // 2))
        a = np.searchsorted(starts, p, side="right") - 1
        b = p - starts[a] + a + 1
        X, Y = nbr.take(a, axis=1), nbr.take(b, axis=1)
        x, y = X[:, None, :], Y[None, :, :]
        fa = choose(a, b)
        fb = choose(x, y)
        if dist is None:
            jumps = _row_jumps(m, a, b, x, fa, fb)
        else:
            jumps = dist.ravel().take(fa * n + fb)
        yield a, b, X, Y, np.where(x == y, -1, jumps).transpose(2, 0, 1)


def _entry(block, index: int) -> Witness:
    """The pair of pairs A, B at a flat index into a block's jumps."""
    a, b, X, Y, jumps = block
    i, s, t = np.unravel_index(index, jumps.shape)
    return Witness((int(a[i]), int(b[i])), vpair(int(X[s, i]), int(Y[t, i])))


def modulus(m: PathMetric, f: TwoSelector) -> Modulus:
    """Exact minimal modulus, with a neighbor pair attaining it.

    Minimality: every d_H <= 1 neighbor pair has choice distance <= r and
    the attaining witness rules out r - 1 (or r = 0 and any neighbor pair
    serves as witness).  The witness is the first attaining pair in scan
    order.  A one-vertex graph has no neighbor pair: r = 0, witness None.
    """
    if m.graph.vertex_count < 2:
        return Modulus(0, None)
    r, witness = -1, None
    for block in _jump_blocks(m, f):
        jumps = block[-1]
        top = int(jumps.max())
        if top > r:
            r, witness = top, _entry(block, int(jumps.argmax()))
    return Modulus(r, witness)


def verify_selector(m: PathMetric, f: TwoSelector, r: int):
    """Holds iff every d_H <= 1 neighbor pair has choice distance <= r.

    Otherwise returns the first violating pair in scan order; the witness
    re-verifies (d_H <= 1 and image distance > r) by construction.
    """
    for block in _jump_blocks(m, f):
        jumps = block[-1]
        if jumps.max() > r:
            return _entry(block, int((jumps > r).argmax()))
    return Holds()


def witness_is_violation(m: PathMetric, f: TwoSelector, r: int, pair_a, pair_b) -> bool:
    """Re-verify a witness: d_H(A, B) <= 1 and d(f(A), f(B)) > r."""
    pa = vpair(*pair_a)
    pb = vpair(*pair_b)
    if hausdorff_distance(m, pa, pb) > 1:
        return False
    return m.distance(f.choose_pair(pa), f.choose_pair(pb)) > r


__all__ = [
    "BornologousSelector",
    "Holds",
    "InvalidSelector",
    "Modulus",
    "NonInjectiveCoordinate",
    "PrecRelation",
    "TwoSelector",
    "Witness",
    "lift_bornologous",
    "min_selector",
    "modulus",
    "order_to_selector",
    "selector_from_table",
    "verify_selector",
    "witness_is_violation",
]
