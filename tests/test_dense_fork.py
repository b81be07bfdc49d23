"""Both sides of the dense-matrix fork give the same answers.

``PathMetric`` reads distances from the all-pairs matrix once it is built
and from memoized BFS rows before.  The pointwise layers (the claims,
certificate tightening and verification) build no matrix, so on a fresh
metric they read rows; they must answer as they do on a metric whose
matrix was built first.  The all-pairs scans that then build the matrix
(the diameter, the selector modulus and its verdicts, line extraction, the
order scan) must answer as on the other metric too, on random connected graphs
with minimum and random-tournament selectors.
"""
from __future__ import annotations

import random

import pytest

from coarsegraph import (
    ClaimConfig,
    Line,
    PathMetric,
    QuasiIsometryCert,
    Ray,
    build_graph,
    claim2_check,
    claim3_side,
    extract_line,
    min_compat_radius,
    min_selector,
    modulus,
    tighten,
    verify_qi,
    verify_selector,
)
from coarsegraph.order_compat import LinearOrder

from conftest import ball, random_tournament


def _random_graph(rng: random.Random):
    """A connected graph: a random tree, or a long spine with pendants, plus chords."""
    if rng.random() < 0.5:
        n = rng.randrange(2, 26)
        edges = [(v, rng.randrange(v)) for v in range(1, n)]
    else:
        spine = rng.randrange(30, 150)
        n = spine + rng.randrange(0, 6)
        edges = [(v, v + 1) for v in range(spine - 1)]
        edges += [(v, rng.randrange(spine)) for v in range(spine, n)]
    for _ in range(rng.randrange(0, 3)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((u, v))
    return build_graph(edges, vertex_count=n)


def _walk(m: PathMetric, rng: random.Random, p: int, length: int):
    """A vertex sequence with consecutive distances <= p."""
    n = m.graph.vertex_count
    zs = [rng.randrange(n)]
    for _ in range(length - 1):
        zs.append(rng.choice(sorted(ball(m, zs[-1], p))))
    return zs


def _pointwise_answers(m: PathMetric, f, rng: random.Random) -> list:
    """The answers of the layers that build no matrix, in a fixed order of calls."""
    n = m.graph.vertex_count
    out = []
    coord = {v: rng.randrange(-n, n) for v in rng.sample(range(n), rng.randrange(1, n + 1))}
    cert = tighten(m, coord)
    out.append(cert)
    out.append(verify_qi(m, cert))
    for tampered in (
        QuasiIsometryCert(coord, 1, cert.C, cert.D),
        QuasiIsometryCert(coord, cert.lam, cert.C, max(cert.D - 1, 0)),
    ):
        out.append(verify_qi(m, tampered))
    for _ in range(6):
        p = rng.randrange(1, 4)
        claimed = rng.randrange(0, 3)
        zs = _walk(m, rng, p, rng.randrange(1, 14))
        v = rng.randrange(n)
        out.append(claim2_check(m, f, claimed, ClaimConfig(v=v, z=tuple(zs), p=p)))
        out.append(claim3_side(m, f, claimed, zs, v, p))
        out.append(claim3_side(m, f, claimed, zs, v, p, q=rng.randrange(0, 4)))
    return out


def _scan_answers(m: PathMetric, f, rng: random.Random) -> list:
    """The answers of the all-pairs scans, in a fixed order of calls."""
    n = m.graph.vertex_count
    out = []
    out.append(m.diameter())
    r = modulus(m, f).r
    out.append(modulus(m, f))
    for s in sorted({0, r - 1, r}):
        out.append(verify_selector(m, f, s))
    line = extract_line(m, f)
    out.append(line)
    out.append(extract_line(m, f, r=1, verify_asserted=False))
    out.append(extract_line(m, f, r=0))
    if isinstance(line, (Ray, Line)):
        out.append(verify_qi(m, tighten(m, dict(line.cert.coord))))
    ranking = list(range(n))
    rng.shuffle(ranking)
    order = LinearOrder.from_ranking(ranking)
    for e in range(3):
        out.append(min_compat_radius(m, order, e))
        out.append(min_compat_radius(m, order, e, cap=e + 1))
    return out


@pytest.mark.parametrize("seed", range(40))
def test_matrix_and_rows_give_equal_answers(seed):
    rng = random.Random(seed)
    g = _random_graph(rng)
    n = g.vertex_count
    shuffled = list(range(n))
    rng.shuffle(shuffled)
    selectors = [min_selector(list(range(n))), min_selector(shuffled), random_tournament(g, rng)]
    for k, f in enumerate(selectors):
        dense = PathMetric(g)
        dense.dense_matrix()
        rows = PathMetric(g)
        dense_rng, rows_rng = random.Random(seed), random.Random(seed)
        assert _pointwise_answers(dense, f, dense_rng) == _pointwise_answers(rows, f, rows_rng), k
        assert rows._dense is None and rows._rows
        assert _scan_answers(dense, f, dense_rng) == _scan_answers(rows, f, rows_rng), k
        assert rows._dense is not None
