"""Both sides of the dense-matrix fork give the same answers.

``PathMetric`` reads distances from the all-pairs matrix once it is built
(at most ``dense_cap`` vertices) and from memoized BFS rows otherwise.
Every layer that reads the metric must return equal values either way:
the selector modulus and its verdicts, line extraction, certificate
tightening and verification, the order scan and the claims, on random
connected graphs with minimum and random-tournament selectors.
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

from conftest import random_tournament


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
        zs.append(rng.choice(sorted(m.ball(zs[-1], p))))
    return zs


def _answers(m: PathMetric, f, seed: int) -> list:
    """Every layer's answer on one metric, in a fixed order of calls."""
    rng = random.Random(seed)
    g = m.graph
    n = g.vertex_count
    out = []
    r = modulus(m, f).r
    out.append(modulus(m, f))
    for s in sorted({0, r - 1, r}):
        out.append(verify_selector(m, f, s))
    line = extract_line(m, f)
    out.append(line)
    out.append(extract_line(m, f, r=1, verify_asserted=False))
    out.append(extract_line(m, f, r=0))
    if isinstance(line, (Ray, Line)):
        coord = dict(line.cert.coord)
    else:
        coord = {v: rng.randrange(-n, n) for v in rng.sample(range(n), rng.randrange(1, n + 1))}
    cert = tighten(m, coord)
    out.append(cert)
    out.append(verify_qi(m, cert))
    for tampered in (
        QuasiIsometryCert(coord, 1, cert.C, cert.D),
        QuasiIsometryCert(coord, cert.lam, cert.C, max(cert.D - 1, 0)),
    ):
        out.append(verify_qi(m, tampered))
    ranking = list(range(n))
    rng.shuffle(ranking)
    order = LinearOrder.from_ranking(ranking)
    for e in range(3):
        out.append(min_compat_radius(m, order, e))
        out.append(min_compat_radius(m, order, e, cap=e + 1))
    for _ in range(6):
        p = rng.randrange(1, 4)
        claimed = rng.randrange(0, 3)
        zs = _walk(m, rng, p, rng.randrange(1, 14))
        v = rng.randrange(n)
        out.append(claim2_check(m, f, claimed, ClaimConfig(v=v, z=tuple(zs), p=p)))
        out.append(claim3_side(m, f, claimed, zs, v, p))
        out.append(claim3_side(m, f, claimed, zs, v, p, q=rng.randrange(0, 4)))
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
        rows = PathMetric(g, dense_cap=0)
        assert _answers(dense, f, seed) == _answers(rows, f, seed), k
        assert dense._dense is not None and rows.dense_matrix() is None
