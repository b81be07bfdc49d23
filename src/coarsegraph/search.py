"""Decide whether a graph admits any two-selector of modulus at most r.

Backtracking over one choice variable per vertex pair with unit
propagation along the d_H <= 1 neighbor constraints, plus an exhaustive
tournament-enumeration oracle for tiny instances.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph_core import Graph, InputError, InvariantError, PathMetric
from .hyperspace import neighbor_pair_candidates
from .selector import Holds, TwoSelector, selector_from_table, verify_selector


class TooLarge(ValueError):
    pass


class BudgetExceeded(InputError):
    def __init__(self, nodes: int):
        self.nodes = nodes
        super().__init__(f"search budget exceeded after {nodes} nodes")


@dataclass
class Feasible:
    r: int
    selector: TwoSelector
    nodes: int


@dataclass
class Infeasible:
    r: int
    nodes: int
    backtracks: int


def _pair_structure(m: PathMetric):
    """Pairs, their index map, and per-pair neighbor index lists."""
    n = m.graph.vertex_count
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    index = {p: i for i, p in enumerate(pairs)}
    nbrs = []
    for p in pairs:
        own = index[p]
        out = sorted(
            index[q]
            for q in neighbor_pair_candidates(m, p)
            if index[q] != own
        )
        nbrs.append(out)
    return pairs, index, nbrs


def _search_at(m: PathMetric, pairs, nbrs, r: int, budget: int):
    """Backtracking with propagation at bound r.

    Variables are ordered by neighbor count (most constrained first) and
    values by lower vertex id.  Returns (assignment, nodes, backtracks),
    with assignment None when no selector of modulus <= r exists.  The
    depth-first walk keeps its decisions on an explicit stack, so its depth
    is not bounded by Python's recursion limit.
    """
    count = len(pairs)
    order = sorted(range(count), key=lambda i: (-len(nbrs[i]), pairs[i]))
    domains = [list(pairs[i]) for i in range(count)]
    assignment: dict[int, int] = {}
    nodes = 0
    backtracks = 0

    def prune(var: int, trail: list) -> bool:
        """Propagate the assignment of ``var``; False on wipeout."""
        queue = [var]
        while queue:
            cur = queue.pop()
            chosen = assignment[cur]
            row = m.row(chosen)
            for other in nbrs[cur]:
                if other in assignment:
                    if row[assignment[other]] > r:
                        return False
                    continue
                dom = domains[other]
                kept = [v for v in dom if row[v] <= r]
                if len(kept) < len(dom):
                    trail.append((other, dom))
                    domains[other] = kept
                    if not kept:
                        return False
                    if len(kept) == 1:
                        assignment[other] = kept[0]
                        trail.append((other, None))
                        queue.append(other)
        return True

    def undo(trail):
        for other, dom in reversed(trail):
            if dom is None:
                del assignment[other]
            else:
                domains[other] = dom

    # One frame per decision: [depth, var, values, next value, trail of the
    # value tried last, or None once it is undone].
    stack: list[list] = []
    depth = 0
    while True:
        while depth < count and order[depth] in assignment:
            depth += 1
        if depth == count:
            return dict(assignment), nodes, backtracks
        var = order[depth]
        stack.append([depth, var, list(domains[var]), 0, None])
        while stack:
            frame = stack[-1]
            depth, var, values, i, trail = frame
            if trail is not None:
                undo(trail)
                backtracks += 1
                frame[4] = None
            if i == len(values):
                stack.pop()
                continue
            frame[3] = i + 1
            nodes += 1
            if nodes > budget:
                raise BudgetExceeded(nodes)
            assignment[var] = values[i]
            frame[4] = trail = [(var, None)]
            if prune(var, trail):
                depth += 1
                break
        else:
            return None, nodes, backtracks


def min_modulus_search(
    g: Graph, r_cap: int, node_budget: int = 500_000
) -> list[Feasible | Infeasible]:
    """Outcomes per r from 0 up to the first feasible bound (or r_cap).

    A Feasible outcome carries a selector that re-verifies at its r.
    """
    m = PathMetric(g)
    pairs, _, nbrs = _pair_structure(m)
    outcomes: list[Feasible | Infeasible] = []
    for r in range(r_cap + 1):
        assignment, nodes, backtracks = _search_at(m, pairs, nbrs, r, node_budget)
        if assignment is None:
            outcomes.append(Infeasible(r, nodes, backtracks))
            continue
        table = {pairs[i]: v for i, v in assignment.items()}
        selector = selector_from_table(table, name=f"search-r{r}")
        if not isinstance(verify_selector(m, selector, r), Holds):
            raise InvariantError("search produced a selector that fails verification")
        outcomes.append(Feasible(r, selector, nodes))
        break
    return outcomes


def minimal_modulus(g: Graph, r_cap: int | None = None) -> int | None:
    """First feasible r, searching up to the diameter by default."""
    if r_cap is None:
        r_cap = PathMetric(g).diameter()
    outcomes = min_modulus_search(g, r_cap)
    last = outcomes[-1]
    return last.r if isinstance(last, Feasible) else None


def exhaustive_min_modulus(g: Graph, pair_cap: int = 15) -> int:
    """Exact minimum over all tournaments of the selector modulus.

    Enumerates all 2^k tournaments (k = pair count, capped at
    ``pair_cap``), evaluating every d_H <= 1 constraint for every
    tournament; vectorized over the tournament axis.
    """
    m = PathMetric(g)
    pairs, index, nbrs = _pair_structure(m)
    k = len(pairs)
    if k > pair_cap:
        raise TooLarge(f"{k} pairs exceed the exhaustive cap {pair_cap}")
    if k == 0:
        raise ValueError("graph has no vertex pairs")
    dist = m.dense_matrix()
    masks = np.arange(1 << k, dtype=np.uint32)
    worst = np.zeros(1 << k, dtype=np.int32)
    for i, (a, b) in enumerate(pairs):
        bit_i = (masks >> np.uint32(i)) & 1
        choices_i = np.where(bit_i == 0, a, b)
        for j in nbrs[i]:
            if j < i:
                continue
            c, d = pairs[j]
            bit_j = (masks >> np.uint32(j)) & 1
            choices_j = np.where(bit_j == 0, c, d)
            np.maximum(worst, dist[choices_i, choices_j], out=worst)
    return int(worst.min())
