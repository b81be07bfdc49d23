"""Hausdorff metric on finite vertex subsets and neighborhoods in pair space.

Two-element subsets of the vertex set are represented as sorted tuples
``(a, b)`` with ``a < b``; general finite subsets as sorted tuples.

The d_H <= 1 pair neighbourhood has one definition and one scan order.  A
pair {x, y} lies within Hausdorff distance 1 of {a, b} exactly when, up to
swapping x and y, x is in the closed neighbourhood N[a] and y in N[b].
``neighborhood_table`` holds the sorted N[v] as rows, padded by repeating
each row's last entry, and the scan visits (pair index, slot of a, slot of
b) in lexicographic order: pairs {a < b} in (a, b) order, then each x in
row a, then each y in row b, skipping x == y.  A padded slot repeats an
(x, y) already met earlier in the same pair's scan, so the first entry of
the scan that meets a condition is never a padded one.
"""
from __future__ import annotations

import numpy as np

from .graph_core import Graph, InputError, PathMetric


class EmptySet(InputError):
    pass


def vpair(a: int, b: int) -> tuple[int, int]:
    """Normalize an unordered pair to a sorted tuple."""
    if a == b:
        raise ValueError(f"pair elements must differ, got {{{a}, {b}}}")
    return (a, b) if a < b else (b, a)


def subset(vertices) -> tuple[int, ...]:
    out = tuple(sorted(set(vertices)))
    if not out:
        raise EmptySet("nonempty subset required")
    return out


def hausdorff_distance(m: PathMetric, A, B) -> int:
    """max over each set of the distance to the other set."""
    A = subset(A)
    B = subset(B)
    best = 0
    for a in A:
        row = m.row(a)
        best = max(best, min(row[b] for b in B))
    for b in B:
        row = m.row(b)
        best = max(best, min(row[a] for a in A))
    return best


def neighborhood_table(g: Graph, vertices) -> np.ndarray:
    """Sorted closed neighbourhoods N[v] of ``vertices``, one int64 row each.

    Rows are padded to a common width by repeating their last entry.
    """
    rows = [g.closed_neighborhood(v) for v in vertices]
    width = max(map(len, rows))
    return np.array([row + row[-1:] * (width - len(row)) for row in rows], dtype=np.int64)


def neighbor_pair_candidates(m: PathMetric, P):
    """Pairs {x, y} with x in N[P[0]] and y in N[P[1]], in scan order.

    Reads the two rows of ``neighborhood_table`` for P and yields each pair
    once, at its first occurrence in the module's scan order.  Every pair at
    Hausdorff distance <= 1 from P is of this form, and every pair of this
    form is within 1 of P, so the candidates are exactly the d_H <= 1
    neighborhood of P, P itself included.
    """
    a, b = vpair(*P)
    row_a, row_b = neighborhood_table(m.graph, (a, b)).tolist()
    seen = set()
    for x in row_a:
        for y in row_b:
            if x == y:
                continue
            q = (x, y) if x < y else (y, x)
            if q not in seen:
                seen.add(q)
                yield q


def pair_neighbors(m: PathMetric, P) -> set[tuple[int, int]]:
    """All pairs B (including P itself) with d_H(P, B) <= 1."""
    return set(neighbor_pair_candidates(m, P))
