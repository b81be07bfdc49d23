"""Oracles of the selector search: exhaustive enumeration, the chronological
backtracking search the package had before limited backtracking, and a
refutation checker of its own.

``exhaustive_min_modulus`` is the exact minimum of the selector modulus
over all 2^k tournaments on a graph with k vertex pairs, evaluated for
every tournament at once along a numpy axis.  ``backtracking_verdicts``
runs the old search, which backtracks into earlier decisions, for the
verdict at every r.  Both take their pair neighbourhoods from
``selector_oracle``, not from the search, so they share nothing with it
beyond the distance matrix.  ``oracle_verify_refutation`` checks a
refutation against plain distance lists and the max-min Hausdorff formula.
"""
from __future__ import annotations

import itertools

import numpy as np

from coarsegraph.graph_core import Graph, PathMetric
from coarsegraph.search import Feasible, min_modulus_search
from conftest import brute_hausdorff
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


def _backtracking_at(m: PathMetric, pairs, nbrs, r: int):
    """The old search at bound r: (feasible, nodes, backtracks).

    Variables are ordered by neighbor count (most constrained first) and
    values by lower vertex id; a failed value backtracks chronologically,
    into earlier decisions once both values of a pair have failed.
    """
    count = len(pairs)
    order = sorted(range(count), key=lambda i: (-len(nbrs[i]), pairs[i]))
    assignment: dict[int, int] = {}
    nodes = 0
    backtracks = 0

    def prune(var: int, trail: list) -> bool:
        queue = [var]
        while queue:
            cur = queue.pop()
            row = m.row(assignment[cur])
            for other in nbrs[cur]:
                if other in assignment:
                    if row[assignment[other]] > r:
                        return False
                    continue
                a, b = pairs[other]
                if row[a] > r:
                    if row[b] > r:
                        return False
                    assignment[other] = b
                elif row[b] > r:
                    assignment[other] = a
                else:
                    continue
                trail.append(other)
                queue.append(other)
        return True

    # one frame per decision: [depth, var, next value, pairs assigned by the
    # value tried last, or None once they are unassigned]
    stack: list[list] = []
    depth = 0
    while True:
        while depth < count and order[depth] in assignment:
            depth += 1
        if depth == count:
            return True, nodes, backtracks
        stack.append([depth, order[depth], 0, None])
        while stack:
            frame = stack[-1]
            depth, var, i, trail = frame
            if trail is not None:
                for other in trail:
                    del assignment[other]
                backtracks += 1
                frame[3] = None
            if i == 2:
                stack.pop()
                continue
            frame[2] = i + 1
            nodes += 1
            assignment[var] = pairs[var][i]
            frame[3] = trail = [var]
            if prune(var, trail):
                depth += 1
                break
        else:
            return False, nodes, backtracks


def backtracking_verdicts(g: Graph, r_cap: int) -> list[bool]:
    """The old search's verdict at each r from 0 up to the first feasible one (or r_cap)."""
    m = PathMetric(g)
    pairs = list(itertools.combinations(range(g.vertex_count), 2))
    index = {p: i for i, p in enumerate(pairs)}
    nbrs = [sorted(index[q] for q in oracle_pair_neighbors(m, p)) for p in pairs]
    verdicts = []
    for r in range(r_cap + 1):
        verdicts.append(_backtracking_at(m, pairs, nbrs, r)[0])
        if verdicts[-1]:
            break
    return verdicts


def oracle_verify_refutation(dist, r: int, refutation) -> bool:
    """True iff ``refutation`` proves that no selector has modulus <= r.

    ``dist`` is a full distance matrix as lists.  Each branch assumes one
    element of the refuted pair; every later step must be forced, by a pair
    met earlier in the branch at Hausdorff distance <= 1, through the other
    element of its own pair lying more than r from that pair's image; the
    conflict pair must be at Hausdorff distance <= 1 from its forcing pair
    with no element the branch leaves it within r of the forcing image.
    """
    n = len(dist)

    def pair_ok(q):
        return len(q) == 2 and all(isinstance(v, int) and 0 <= v < n for v in q) and q[0] < q[1]

    root = tuple(refutation.pair)
    if not pair_ok(root) or len(refutation.branches) != 2:
        return False
    for assumed, branch in zip(root, refutation.branches):
        steps = [(tuple(q), c, by if by is None else tuple(by)) for q, c, by in branch.steps]
        if not steps or steps[0] != (root, assumed, None):
            return False
        chosen = {root: assumed}
        for q, c, by in steps[1:]:
            if not pair_ok(q) or q in chosen or by not in chosen or c not in q:
                return False
            if brute_hausdorff(dist, by, q) > 1:
                return False
            ruled_out = q[0] if c == q[1] else q[1]
            if dist[chosen[by]][ruled_out] <= r:
                return False
            chosen[q] = c
        q, by = (tuple(p) for p in branch.conflict)
        if not pair_ok(q) or by not in chosen or brute_hausdorff(dist, by, q) > 1:
            return False
        left = [chosen[q]] if q in chosen else list(q)
        if min(dist[chosen[by]][v] for v in left) <= r:
            return False
    return True
