"""Exhaustive tournament enumeration, the oracle of the backtracking search.

``exhaustive_min_modulus`` is the exact minimum of the selector modulus
over all 2^k tournaments on a graph with k vertex pairs, evaluated for
every tournament at once along a numpy axis.  It takes its pair
neighbourhoods from ``selector_oracle``, not from the search, so the two
share nothing beyond the distance matrix.
"""
from __future__ import annotations

import itertools

import numpy as np

from coarsegraph.graph_core import Graph, PathMetric
from coarsegraph.search import Feasible, min_modulus_search
from selector_oracle import oracle_pair_neighbors


class TooLarge(ValueError):
    pass


def minimal_modulus(g: Graph, r_cap: int | None = None) -> int | None:
    """First feasible r of the search, searching up to the diameter by default."""
    if r_cap is None:
        r_cap = PathMetric(g).diameter()
    last = min_modulus_search(g, r_cap)[-1]
    return last.r if isinstance(last, Feasible) else None


def exhaustive_min_modulus(g: Graph, pair_cap: int = 15) -> int:
    """Exact minimum over all tournaments of the selector modulus.

    Enumerates all 2^k tournaments (k = pair count, capped at
    ``pair_cap``), evaluating every d_H <= 1 constraint for every
    tournament; vectorized over the tournament axis.
    """
    m = PathMetric(g)
    pairs = list(itertools.combinations(range(g.vertex_count), 2))
    k = len(pairs)
    if k > pair_cap:
        raise TooLarge(f"{k} pairs exceed the exhaustive cap {pair_cap}")
    if k == 0:
        raise ValueError("graph has no vertex pairs")
    index = {p: i for i, p in enumerate(pairs)}
    dist = m.dense_matrix()
    masks = np.arange(1 << k, dtype=np.uint32)
    worst = np.zeros(1 << k, dtype=np.int32)
    for i, (a, b) in enumerate(pairs):
        choices_i = np.where(((masks >> np.uint32(i)) & 1) == 0, a, b)
        for q in oracle_pair_neighbors(m, (a, b)):
            j = index[q]
            if j < i:
                continue
            c, d = q
            choices_j = np.where(((masks >> np.uint32(j)) & 1) == 0, c, d)
            np.maximum(worst, dist[choices_i, choices_j], out=worst)
    return int(worst.min())
