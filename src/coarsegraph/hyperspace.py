"""Hausdorff metric on finite vertex subsets and neighborhoods in pair space.

Two-element subsets of the vertex set are represented as sorted tuples
``(a, b)`` with ``a < b``; general finite subsets as sorted tuples.

The d_H <= 1 pair neighbourhood has one definition and one scan order.  A
pair {x, y} lies within Hausdorff distance 1 of {a, b} exactly when, up to
swapping x and y, x is in the closed neighbourhood N[a] and y in N[b].
``graph_core.neighborhood_table`` holds the sorted N[v] as rows, padded
by repeating each row's last entry, and the scan visits (pair index, slot
of a, slot of b) in lexicographic order: pairs {a < b} in (a, b) order,
then each x in row a, then each y in row b, skipping x == y.  A padded
slot repeats an (x, y) already met earlier in the same pair's scan, so the
first entry of the scan that meets a condition is never a padded one.

This module owns the walk: ``pair_blocks`` yields the scan a block of pairs
at a time, with the block size and the one pair-index formula kept here.
The selector kernel and the search's neighbour lists both read it.
"""
from __future__ import annotations

import numpy as np

from .graph_core import InputError, PathMetric, neighborhood_table

BLOCK_ELEMENTS = 1 << 16  # (pair, slot, slot) entries per block of the scan


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
    A, B = subset(A), subset(B)
    return max(min(map(row.__getitem__, V)) for U, V in ((A, B), (B, A)) for row in map(m.row, U))


def pair_index(lo, hi, n: int):
    """Position of the pair {lo < hi} in the (a, b) order of all pairs."""
    return lo * (2 * n - lo - 3) // 2 + hi - 1


def pair_blocks(m: PathMetric):
    """The scan, about BLOCK_ELEMENTS (pair, slot, slot) entries a block.

    Yields (p, a, b, X, Y): consecutive pair indices p, their pairs
    {a[i] < b[i]}, and X[:, i] = N[a[i]], Y[:, i] = N[b[i]] from
    ``m.neighborhoods()``, held slot-major so arithmetic runs along pairs.
    """
    n = m.graph.vertex_count
    nbr = m.neighborhoods().T.copy()
    count, v = n * (n - 1) // 2, np.arange(n)
    starts = pair_index(v, v + 1, n)
    step = max(1, BLOCK_ELEMENTS // nbr.shape[0] ** 2)
    for p0 in range(0, count, step):
        p = np.arange(p0, min(p0 + step, count))
        a = np.searchsorted(starts, p, side="right") - 1
        b = p - starts[a] + a + 1
        yield p, a, b, nbr.take(a, axis=1), nbr.take(b, axis=1)


def pair_neighbor_lists(m: PathMetric):
    """Pairs (a, b) with a < b, and each pair's sorted neighbour index list.

    One pass of ``pair_blocks``; the pair itself and the x == y entries
    are dropped.
    """
    n = m.graph.vertex_count
    count = n * (n - 1) // 2
    pairs, nbrs = [], []
    for p, a, b, X, Y in pair_blocks(m):
        x, y = X[:, None, :], Y[None, :, :]
        index = pair_index(np.minimum(x, y), np.maximum(x, y), n)
        index[(x == y) | (index == p)] = count
        index = np.sort(index.reshape(-1, len(p)), axis=0)
        keep = index < count
        keep[1:] &= index[1:] != index[:-1]
        ends = np.cumsum(keep.sum(axis=0)).tolist()
        flat = index.T[keep.T].tolist()
        pairs.extend(zip(a.tolist(), b.tolist()))
        nbrs.extend(flat[s:e] for s, e in zip([0, *ends], ends))
    return pairs, nbrs


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
