"""Sampled geodesic spaces, greedy separation nets, and the net graph.

Distances are held as integers in units of 1/L: a space stores the matrix
k with d(i, j) = k[i, j] / L and the unit L, the least common denominator of
its distances.  A sample at step p/q has L = q and k = p times an index
distance; a parsed sample has the L of its fields.  Every layer compares
integers (d > 2 iff k > 2L, ratios by cross-multiplication), and a
``Fraction`` is made only where a report or a sample file prints a value.
The matrix is int64 when its entries and 2L stay within 2**62, and a numpy
object array of Python ints otherwise, so nothing wraps.

A net is a maximal subset with pairwise distance strictly above 2 (unit
balls around distinct net points are disjoint); net points u, v are joined
when some sample point lies within 2 of both.  On half-step samples this
joins exactly the net pairs at ambient distance <= 4, so a sampled circle's
net graph is a cycle only when its wrap-around gap is <= 4: circle(12) at
step 1/2 gives the net 0, 5/2, 5, 15/2 with a gap of 9/2, hence P_4, and
certify_net reports max_4graph_over_ambient = 8/3.

A sample holds at most SAMPLE_CAP points; a shape or a sample-file header
above it is refused before any matrix is allocated.
"""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graph_core import (
    DisconnectedGraph, Graph, InputError, PathMetric, build_graph, field_error, refused, tokenize
)
from .qi_cert import fraction_text, int_dtype, number_text

SAMPLE_CAP = 4096  # most points a sample may hold: an n x n matrix of 128 MB in int64


class StepTooCoarse(InputError):
    pass


class DisconnectedNetGraph(ValueError):
    def __init__(self, components):
        self.components = components
        super().__init__(f"net graph is disconnected: {len(components)} components")


@dataclass
class FiniteMetricSpace:
    """Finite point set with an exact metric in integer units and sampling density delta.

    d(i, j) = units[i, j] / unit and delta = delta_units / unit.
    """

    points: list
    units: np.ndarray
    unit: int
    delta_units: int

    def __post_init__(self):
        if not self.points:
            raise InputError("a metric sample needs at least one point")

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def delta(self) -> Fraction:
        return Fraction(self.delta_units, self.unit)

    def dist(self, i: int, j: int) -> Fraction:
        """d(i, j) as an exact rational, for printing and tests."""
        return Fraction(int(self.units[i, j]), self.unit)


def _check_step(step: Fraction) -> Fraction:
    step = Fraction(step)
    if step > Fraction(1, 2):
        raise StepTooCoarse(f"step {number_text(step)} > 1/2")
    if step <= 0:
        raise InputError("step must be positive")
    return step


def _count(total, step: Fraction) -> int:
    ratio = Fraction(total) / step
    if ratio.denominator != 1:
        raise InputError(f"step {number_text(step)} does not divide {number_text(total)}")
    return int(ratio)


def _check_sample_size(count: int) -> None:
    if count > SAMPLE_CAP:
        raise InputError(
            f"the sample would hold {number_text(count)} points, above the cap of {SAMPLE_CAP}"
        )


def sample_space(shape, step) -> FiniteMetricSpace:
    """Sample a segment, circle or rectangle at the given step.

    ``shape`` is ("segment", length), ("circle", circumference) or
    ("rectangle", width, height).  Segments and circles carry their
    intrinsic arc metric; rectangles are sampled on the grid with the L1
    intrinsic metric.  Requires step <= 1/2 and at most SAMPLE_CAP points.
    Distances are index distances times the step's numerator, in units of
    its denominator.
    """
    step = _check_step(step)
    kind = shape[0]
    if kind in ("segment", "circle"):
        count = _count(shape[1], step) + (1 if kind == "segment" else 0)
        _check_sample_size(count)
        pts = [step * k for k in range(count)]
        idx = np.arange(len(pts))
        hops = abs(idx[:, None] - idx[None, :])
        if kind == "circle":
            hops = np.minimum(hops, count - hops)
    elif kind == "rectangle":
        w = _count(shape[1], step) + 1
        h = _count(shape[2], step) + 1
        _check_sample_size(max(w, 0) * max(h, 0))
        xs = [step * i for i in range(w)]
        ys = [step * j for j in range(h)]
        pts = [(x, y) for x in xs for y in ys]
        col, row = np.divmod(np.arange(len(pts)), max(h, 1))
        hops = abs(col[:, None] - col[None, :]) + abs(row[:, None] - row[None, :])
    else:
        raise InputError(f"unknown shape {kind!r}")
    p, q = step.numerator, step.denominator
    units = hops.astype(int_dtype(max(int(hops.max(initial=0)) * p, 2 * q)), copy=False)
    units *= p
    return FiniteMetricSpace(pts, units, q, p)


def greedy_net(space: FiniteMetricSpace) -> tuple[int, ...]:
    """Net point indices: scan points in index order; admit when all admitted are beyond 2."""
    two = 2 * space.unit
    chosen: list[int] = []
    near_chosen = np.zeros(space.n, dtype=bool)
    for i in range(space.n):
        if not near_chosen[i]:
            chosen.append(i)
            near_chosen |= space.units[i] <= two
    return tuple(chosen)


def net_graph(space: FiniteMetricSpace, net: tuple[int, ...]) -> Graph:
    """Graph on net points under the shared-witness rule.

    Net point i of ``net`` becomes graph vertex i.  Two net points are
    joined when some sample point lies within 2 of both: the boolean
    product of the samples-by-net nearness matrix with itself.  Raises
    DisconnectedNetGraph when the rule does not connect the net.
    """
    near = space.units[:, list(net)] <= 2 * space.unit
    shared = np.triu(near.T @ near, 1)
    edges = [(int(a), int(b)) for a, b in np.argwhere(shared)]
    try:
        return build_graph(edges, vertex_count=len(net))
    except DisconnectedGraph as exc:
        raise DisconnectedNetGraph(exc.components) from exc


@dataclass(frozen=True)
class NetCertificate:
    largeness: Fraction
    max_ambient_over_4graph: Fraction
    max_4graph_over_ambient: Fraction


def certify_net(space: FiniteMetricSpace, net: tuple[int, ...], graph: Graph) -> NetCertificate:
    """Covering radius of the net and exact ambient/graph comparability.

    Over net pairs at graph distance g, ambient/(4g) is largest at the
    largest ambient distance and 4g/ambient at the smallest, so one
    candidate per g is kept and the candidates are compared by
    cross-multiplying Python ints.
    """
    L = space.unit
    cols = list(net)
    largeness = space.units[:, cols].min(axis=1).max()
    k = len(net)
    a, b = np.triu_indices(k, 1)
    graph_d = PathMetric(graph).dense_matrix()[a, b]
    ambient = space.units[np.ix_(cols, cols)][a, b]
    far = np.full(k, -1, dtype=ambient.dtype)  # -1: no pair at this g
    np.maximum.at(far, graph_d, ambient)
    close = far.copy()
    np.minimum.at(close, graph_d, ambient)
    up, down = (0, 1), (0, 1)
    for g in np.flatnonzero(far >= 0).tolist():
        # ratios as (numerator, denominator) pairs of Python ints
        cand_up, cand_down = (int(far[g]), 4 * g * L), (4 * g * L, int(close[g]))
        if cand_up[0] * up[1] > up[0] * cand_up[1]:
            up = cand_up
        if cand_down[0] * down[1] > down[0] * cand_down[1]:
            down = cand_down
    return NetCertificate(Fraction(int(largeness), L), Fraction(*up), Fraction(*down))


def write_sample_file(space: FiniteMetricSpace) -> str:
    """The sample file of ``space``, one row of pairs at a time.

    Each distinct distance is formatted once; a row is joined into one
    string, so no list of every entry is built.
    """
    text: dict = {}
    chunks = [f"points {space.n}\n"]
    for i in range(space.n - 1):
        row = space.units[i, i + 1 :].tolist()
        for v in set(row).difference(text):
            text[v] = fraction_text(Fraction(v, space.unit))
        chunks.append("".join([f"{i} {j} {text[v]}\n" for j, v in enumerate(row, i + 1)]))
    return "".join(chunks)


def _ratio(field: str) -> tuple[int, int]:
    """(numerator, denominator > 0) of a distance field.

    ASCII ``digits`` and ``digits/digits`` with a nonzero denominator are
    read as two ints; every other field goes through ``Fraction``, so what
    is accepted, and each error, is Fraction's.
    """
    num, slash, den = field.partition("/")
    if num.isascii() and num.isdigit() and (not slash or den.isascii() and den.isdigit()):
        p = int(num)
        q = int(den) if slash else 1
        if q:
            return p, q
    d = Fraction(field)
    return d.numerator, d.denominator


def _units(nums: list[int], dens: list[int]):
    """Integer distances over the least common denominator L: (units, L).

    With M the lcm of the fields' denominators, each distance is num * (M /
    den) units of 1/M; dividing those and M by their gcd gives the least L.
    The entries are int64 when M times the largest numerator stays within
    2**62, and Python ints otherwise.
    """
    M = math.lcm(*set(dens))
    units = np.array(nums, dtype=int_dtype(max(max(nums), 2) * M))
    units *= M // np.array(dens, dtype=units.dtype)
    common = math.gcd(M, int(np.gcd.reduce(units)))
    units //= common
    return units, M // common


def parse_sample_file(text: str) -> FiniteMetricSpace:
    """Parse the textual sample format; delta is the max nearest-neighbor gap.

    Each pair i < j must appear once with a positive distance; the triangle
    inequality is not checked.  A header above SAMPLE_CAP points, and a
    wrong entry count, are refused before the matrix is allocated.
    """
    lines = tokenize(text)
    lineno, fields = next(lines, (1, None))
    if fields is None:
        raise InputError("line 1, column 1: missing 'points N' header")
    if len(fields) != 2 or fields[0] != "points":
        raise field_error(text, lineno, fields, (), "expected 'points N'")
    try:
        n = int(fields[1])
    except ValueError as exc:
        raise field_error(text, lineno, fields, (str, int), str(exc)) from exc
    if n > SAMPLE_CAP:
        raise field_error(text, lineno, fields, (str, refused), f"{n} points is above the cap of {SAMPLE_CAP}")
    keys, nums, dens = array("q"), [], []  # i * n + j for the pair i < j, and its distance p / q
    seen = bytearray()  # seen[key] is 1 once read; grown with the keys, so a bare header allocates nothing
    for lineno, fields in lines:
        if len(fields) != 3:
            raise field_error(text, lineno, fields, (), "expected 'i j num/den'")
        try:
            i, j, (p, q) = int(fields[0]), int(fields[1]), _ratio(fields[2])
        except (ValueError, ZeroDivisionError) as exc:
            raise field_error(text, lineno, fields, (int, int, Fraction), str(exc)) from exc
        if p <= 0:
            raise field_error(text, lineno, fields, (int, int, refused), f"distance {fields[2]} is not positive")
        if not (0 <= i < n and 0 <= j < n) or i == j:
            at_fault = (int, refused) if 0 <= i < n else (refused,)
            raise field_error(text, lineno, fields, at_fault, f"bad point indices in entry ({i}, {j})")
        key = i * n + j if i < j else j * n + i
        if key >= len(seen):
            seen.extend(bytes(min(max(key + 1, 2 * len(seen)), n * n) - len(seen)))
        elif seen[key]:
            raise field_error(text, lineno, (), (), f"pair ({i}, {j}) is given twice")
        seen[key] = 1
        keys.append(key)
        nums.append(p)
        dens.append(q)
    if len(keys) != n * (n - 1) // 2:
        raise InputError(
            f"expected {n * (n - 1) // 2} distance entries for {n} points, "
            f"got {len(keys)}"
        )
    if n < 2:
        return FiniteMetricSpace(list(range(n)), np.zeros((n, n), dtype=np.int64), 1, 0)
    units, L = _units(nums, dens)
    rows, cols = np.divmod(np.frombuffer(keys, dtype=np.int64), n)
    mat = np.zeros((n, n), dtype=units.dtype)
    mat[rows, cols] = units
    mat[cols, rows] = units
    np.fill_diagonal(mat, units.max() + 1)
    delta_units = mat.min(axis=1).max()
    np.fill_diagonal(mat, 0)
    return FiniteMetricSpace(list(range(n)), mat, L, int(delta_units))
