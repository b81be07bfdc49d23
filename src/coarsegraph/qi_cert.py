"""Quasi-isometry certificates for integer coordinates on vertex subsets.

A certificate (coord, lambda, C, D) asserts, for all u, v in the coordinate
domain S,

    (1/lambda) * |coord u - coord v| - C  <=  d(u, v)  <=  lambda * |coord u - coord v| + C

and that every vertex of the graph lies within D of S.

Both pair scans, ``verify_qi`` and ``tighten``, run one integer kernel.
lambda is held as its integer pair num/den, and every comparison is a
cross-multiplication.  With d = d(u, v) and delta = |coord u - coord v|:

    upper bound fails:  d * den > num * delta + C * den
    lower bound fails:  delta * den > num * (d + C)

``tighten`` takes lambda as the largest of (d - C)/delta and delta/(d + C),
comparing candidates a/b and c/e as a * e > c * b, so no float decides a
verdict or a certificate; lambda becomes a Fraction once, at the end.

Operand bound.  The kernel runs on int64 arrays when every product it can
form is at most 2**62.  Coordinates are first shifted to start at 0, so
delta never exceeds the coordinate span.  For ``verify_qi`` every product is
at most num * (max(n, span) + C), because den <= num; for ``tighten`` it is
at most max(span, 2 n)**2.  Above that bound (a user certificate with a huge
lambda, C or coordinate) the same expressions run on numpy object arrays of
Python ints, so nothing wraps: ``int_dtype``, the rule of every integer
matrix in the package.

Memory.  Pairs are visited in blocks of rows of the sorted domain S: a block
is some rows of S against the later columns of S, about BLOCK_ELEMENTS
distances, and the kernel holds a few arrays of that size at a time however
large S is, and memoizes no distance row.  Pairs inside a block are scanned
in row-major order, which is the ascending (u, v) order of the scan.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from decimal import MAX_EMAX, MAX_PREC, Context, Decimal
from fractions import Fraction

import numpy as np

from . import graph_core
from .graph_core import InputError, PathMetric

BLOCK_ELEMENTS = 1 << 16  # distances gathered per block of rows
INT64_SAFE = 1 << 62  # largest product the int64 kernel may form
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX)  # integer sums and products of any size, unrounded


def int_dtype(bound: int):
    """int64 when every value to be held or formed is at most ``bound`` <= 2**62, else Python ints."""
    return np.int64 if bound <= INT64_SAFE else object


def _decimal(k: int) -> Decimal:
    """k as an exact Decimal; above 2**8192, from its two halves by Decimal's fast product."""
    half = k.bit_length() >> 1
    if half <= 4096:
        return Decimal(k)
    hi = k >> half
    return _EXACT.fma(_decimal(hi), _EXACT.power(2, half), _decimal(k - (hi << half)))


def fraction_text(x) -> str:
    """'num/den' of a rational with every digit.  str(int) stops at 4,300 digits and, as
    Decimal(int) does, takes time quadratic in them: 20 s for a million, against 1 s here."""
    x = Fraction(x)
    return f"{_decimal(x.numerator)}/{_decimal(x.denominator)}"


def number_text(x) -> str:
    """str(Fraction(x)) with every digit: an integer prints without '/1'."""
    x = Fraction(x)
    return str(_decimal(x.numerator)) if x.denominator == 1 else fraction_text(x)


@dataclass(frozen=True)
class QuasiIsometryCert:
    coord: dict
    lam: Fraction
    C: int
    D: int


@dataclass(frozen=True)
class Valid:
    pass


@dataclass(frozen=True)
class FailurePoint:
    """First violation: a pair (u, v) breaking a bound, or an uncovered w."""

    u: int
    v: int | None = None


def _domain(m: PathMetric, coord: dict) -> tuple[list[int], list[int]]:
    """Sorted domain S and its coordinates as Python ints.

    Every id must be a vertex of the graph; a coordinate that is not an
    integer raises TypeError rather than being truncated.
    """
    S = sorted(coord)
    if not S:
        raise InputError("certificate domain is empty")
    n = m.graph.vertex_count
    for v in (S[0], S[-1]):
        if not 0 <= v < n:
            raise InputError(f"certificate vertex {v} out of range 0..{n - 1}")
    return S, [operator.index(coord[v]) for v in S]


def _pair_blocks(m: PathMetric, S: list[int], values: list[int], bound: int):
    """The ascending pair scan over S, one block of rows at a time.

    Yields (i0, d, delta, pairs) for rows i0, i0 + 1, ... of S against the
    columns i0 + 1 .. len(S) - 1; ``pairs`` marks the entries whose column
    comes after their row.  Entries are int64 when the caller's products
    stay within ``bound`` <= 2**62, and Python ints otherwise.  Blocks are
    sliced from chunks of rows of at most ``graph_core.BATCH_ENTRIES``
    distances, one ``distance_block`` (one batched BFS) per chunk.
    """
    k, n = len(S), m.graph.vertex_count
    dtype = int_dtype(bound)
    low = min(values)
    c = np.array([x - low for x in values], dtype=dtype)
    step = max(1, BLOCK_ELEMENTS // n)
    chunk = max(1, graph_core.BATCH_ENTRIES // n)
    for j0 in range(0, k - 1, chunk):
        j1 = min(j0 + chunk, k - 1)
        rows = m.distance_block(S[j0:j1], S[j0 + 1 :])
        for i0 in range(j0, j1, step):
            i1 = min(i0 + step, j1)
            d = rows[i0 - j0 : i1 - j0, i0 - j0 :].astype(dtype, copy=False)
            delta = abs(c[i0:i1, None] - c[None, i0 + 1 :])
            pairs = np.arange(k - i0 - 1)[None, :] >= np.arange(i1 - i0)[:, None]
            yield i0, d, delta, pairs


def _argmax_ratio(p: np.ndarray, q: np.ndarray) -> int:
    """Index of a largest p[i] / q[i] (all q > 0): a knockout of cross-products."""
    idx = np.arange(len(p))
    while len(idx) > 1:
        half = len(idx) // 2
        a, b = idx[:half], idx[half : 2 * half]
        winners = np.where(p[b] * q[a] > p[a] * q[b], b, a)
        idx = np.concatenate((winners, idx[2 * half :]))
    return int(idx[0])


def verify_qi(m: PathMetric, cert: QuasiIsometryCert):
    """Valid iff both distance bounds and largeness hold pointwise.

    Pairs are scanned in ascending order, then coverage; the first failure
    is returned.  Raises InputError for an empty domain, a domain vertex
    outside the graph, or lambda < 1, C < 0, D < 0.
    """
    S, values = _domain(m, cert.coord)
    lam = Fraction(cert.lam)
    if lam < 1 or cert.C < 0 or cert.D < 0:
        raise InputError("need lambda >= 1, C >= 0, D >= 0")
    num, den, C = lam.numerator, lam.denominator, operator.index(cert.C)
    bound = num * (max(m.graph.vertex_count, max(values) - min(values)) + C)
    for i0, d, delta, pairs in _pair_blocks(m, S, values, bound):
        bad = pairs & ((d * den > num * delta + C * den) | (delta * den > num * (d + C)))
        if bad.any():
            i, j = np.unravel_index(np.argmax(bad), bad.shape)
            return FailurePoint(S[i0 + i], S[i0 + 1 + j])
    cover = m.distances_from_set(S)
    for w, dw in enumerate(cover):
        if dw > cert.D:
            return FailurePoint(w)
    return Valid()


def tighten(m: PathMetric, coord: dict) -> QuasiIsometryCert:
    """Smallest certificate for a given coordinate.

    C is the minimum forced by coordinate collisions (max distance between
    vertices sharing a value); lambda is then the max observed per-unit
    stretch net of C, in both directions; D is the exact covering radius.
    The result always verifies.
    """
    S, values = _domain(m, coord)
    bound = max(max(values) - min(values), 2 * m.graph.vertex_count) ** 2
    C = 0
    for _, d, delta, pairs in _pair_blocks(m, S, values, bound):
        same = pairs & (delta == 0)
        if same.any():
            C = max(C, int(d[same].max()))
    num, den = 1, 1  # lambda >= 1
    for _, d, delta, pairs in _pair_blocks(m, S, values, bound):
        apart = pairs & (delta > 0)
        d, delta = d[apart], delta[apart]
        p = np.concatenate((d - C, delta))
        q = np.concatenate((delta, d + C))
        above = p * den > num * q
        if above.any():
            p, q = p[above], q[above]
            i = _argmax_ratio(p, q)
            num, den = int(p[i]), int(q[i])
    D = max(m.distances_from_set(S))
    return QuasiIsometryCert(dict(coord), Fraction(num, den), C, D)
