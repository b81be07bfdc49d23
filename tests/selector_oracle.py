"""Reference pair-neighbourhood scans in plain Python.

These are the pair-by-pair scans ``coarsegraph.selector`` had before its
blocked numpy kernel, kept as the oracle the kernel must agree with: the
same modulus and attaining witness from ``oracle_modulus``, and the same
verdict and first violating witness from ``oracle_verify``, in the scan
order (a, b) ascending, then x in N[a], then y in N[b], skipping x == y.
"""
from __future__ import annotations

from coarsegraph.hyperspace import vpair
from coarsegraph.selector import Holds, Modulus, Witness


def scan_pairs(m, f):
    """Deterministic scan of (A, B, jump) over all neighbor pairs of pairs."""
    g = m.graph
    n = g.vertex_count
    for a in range(n):
        for b in range(a + 1, n):
            fa = f.choose(a, b)
            row = m.row(fa)
            for x in g.closed_neighborhood(a):
                for y in g.closed_neighborhood(b):
                    if x == y:
                        continue
                    fb = f.choose(x, y)
                    yield (a, b), vpair(x, y), row[fb]


def first_attaining(m, f, threshold: int):
    for pa, pb, jump in scan_pairs(m, f):
        if jump >= threshold:
            return pa, pb
    return None


def first_attaining_over(m, f, r: int):
    for pa, pb, jump in scan_pairs(m, f):
        if jump > r:
            return pa, pb
    return None


def oracle_modulus(m, f) -> Modulus:
    r = max(jump for _, _, jump in scan_pairs(m, f))
    return Modulus(r, Witness(*first_attaining(m, f, r)))


def oracle_verify(m, f, r: int):
    hit = first_attaining_over(m, f, r)
    return Holds() if hit is None else Witness(*hit)


def oracle_pair_neighbors(m, P) -> list[tuple[int, int]]:
    """Pairs B != P of P's d_H <= 1 neighbourhood, in scan order, once each."""
    g = m.graph
    out = []
    for x in g.closed_neighborhood(P[0]):
        for y in g.closed_neighborhood(P[1]):
            if x != y and vpair(x, y) != P and vpair(x, y) not in out:
                out.append(vpair(x, y))
    return out
