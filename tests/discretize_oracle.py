"""Reference discretization on exact rationals, one ``Fraction`` per matrix entry.

These are ``FiniteMetricSpace``, ``sample_space``, ``greedy_net``,
``net_graph``, ``certify_net``, ``write_sample_file`` and
``parse_sample_file`` as they were before ``coarsegraph.discretize`` held
distances as integers in units of 1/L: every entry is built, compared and
printed as a Fraction, and the net graph is read one sample at a time.
Sample files, deltas, nets, edges, components, certificates and the text
of every input error must agree with the package.  The oracle has no
sample cap.  It prints rationals with the package's ``fraction_text``:
what it checks is the integer layer, not the printer, and ``str(int)``
refuses numerators of more than 4,300 digits.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from coarsegraph.discretize import DisconnectedNetGraph, NetCertificate, StepTooCoarse
from coarsegraph.graph_core import (
    DisconnectedGraph, InputError, PathMetric, build_graph, field_error, tokenize
)
from coarsegraph.qi_cert import fraction_text


@dataclass
class FractionSpace:
    """Finite point set with an exact rational metric and sampling density delta."""

    points: list
    dist_matrix: list[list[Fraction]]
    delta: Fraction

    def __post_init__(self):
        if not self.points:
            raise InputError("a metric sample needs at least one point")

    @property
    def n(self) -> int:
        return len(self.points)

    def dist(self, i: int, j: int) -> Fraction:
        return self.dist_matrix[i][j]


def _check_step(step) -> Fraction:
    step = Fraction(step)
    if step > Fraction(1, 2):
        raise StepTooCoarse(f"step {step} > 1/2")
    if step <= 0:
        raise InputError("step must be positive")
    return step


def _count(total, step: Fraction) -> int:
    ratio = Fraction(total) / step
    if ratio.denominator != 1:
        raise InputError(f"step {step} does not divide {total}")
    return int(ratio)


def sample_space(shape, step) -> FractionSpace:
    step = _check_step(step)
    kind = shape[0]
    if kind == "segment":
        pts = [step * k for k in range(_count(shape[1], step) + 1)]
        def dist(x, y):
            return abs(x - y)
    elif kind == "circle":
        circumference = Fraction(shape[1])
        pts = [step * k for k in range(_count(circumference, step))]
        def dist(x, y):
            return min(abs(x - y), circumference - abs(x - y))
    elif kind == "rectangle":
        w = _count(shape[1], step) + 1
        h = _count(shape[2], step) + 1
        pts = [(step * i, step * j) for i in range(w) for j in range(h)]
        def dist(p, q):
            return abs(p[0] - q[0]) + abs(p[1] - q[1])
    else:
        raise InputError(f"unknown shape {kind!r}")
    return FractionSpace(pts, [[dist(x, y) for y in pts] for x in pts], step)


def greedy_net(space) -> tuple[int, ...]:
    chosen: list[int] = []
    for i in range(space.n):
        if all(space.dist(i, j) > 2 for j in chosen):
            chosen.append(i)
    return tuple(chosen)


def net_graph(space, net):
    edges = set()
    for row in space.dist_matrix:
        near = [a for a, u in enumerate(net) if row[u] <= 2]
        edges.update(itertools.combinations(near, 2))
    try:
        return build_graph(sorted(edges), vertex_count=len(net))
    except DisconnectedGraph as exc:
        raise DisconnectedNetGraph(exc.components) from exc


def certify_net(space, net, graph) -> NetCertificate:
    largeness = max(min(space.dist(i, u) for u in net) for i in range(space.n))
    metric = PathMetric(graph)
    up = Fraction(0)
    down = Fraction(0)
    for a in range(len(net)):
        row = metric.row(a)
        for b in range(a + 1, len(net)):
            ambient = space.dist(net[a], net[b])
            graph_d = row[b]
            up = max(up, Fraction(ambient, 4 * graph_d))
            down = max(down, Fraction(4 * graph_d, 1) / ambient)
    return NetCertificate(largeness, up, down)


def write_sample_file(space) -> str:
    lines = [f"points {space.n}"]
    for i in range(space.n):
        for j in range(i + 1, space.n):
            lines.append(f"{i} {j} {fraction_text(space.dist(i, j))}")
    return "\n".join(lines) + "\n"


def _positive(field: str) -> None:
    if Fraction(field) <= 0:
        raise ValueError(field)


def _point(n: int, field: str, other: int | None = None) -> None:
    if not 0 <= int(field) < n or int(field) == other:
        raise ValueError(field)


def parse_sample_file(text: str) -> FractionSpace:
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
    dist = {}
    for lineno, fields in lines:
        if len(fields) != 3:
            raise field_error(text, lineno, fields, (), "expected 'i j num/den'")
        try:
            i, j, d = int(fields[0]), int(fields[1]), Fraction(fields[2])
        except (ValueError, ZeroDivisionError) as exc:
            raise field_error(text, lineno, fields, (int, int, Fraction), str(exc)) from exc
        if d <= 0:
            raise field_error(text, lineno, fields, (int, int, _positive), f"distance {fields[2]} is not positive")
        if not (0 <= i < n and 0 <= j < n) or i == j:
            message = f"bad point indices in entry ({i}, {j})"
            raise field_error(text, lineno, fields, (partial(_point, n), partial(_point, n, other=i)), message)
        if (min(i, j), max(i, j)) in dist:
            raise field_error(text, lineno, (), (), f"pair ({i}, {j}) is given twice")
        dist[min(i, j), max(i, j)] = d
    if len(dist) != n * (n - 1) // 2:
        raise InputError(
            f"expected {n * (n - 1) // 2} distance entries for {n} points, "
            f"got {len(dist)}"
        )
    mat = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), d in dist.items():
        mat[i][j] = mat[j][i] = d
    space = FractionSpace(list(range(n)), mat, Fraction(0))
    if n > 1:
        space.delta = max(min(mat[i][j] for j in range(n) if j != i) for i in range(n))
    return space


def sample_text(matrix) -> str:
    """A sample file holding the upper triangle of a square matrix of rationals."""
    n = len(matrix)
    lines = [f"points {n}"]
    for i in range(n):
        for j in range(i + 1, n):
            d = Fraction(matrix[i][j])
            lines.append(f"{i} {j} {d.numerator}/{d.denominator}")
    return "\n".join(lines) + "\n"
