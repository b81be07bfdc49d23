"""Decide whether a graph admits any two-selector of modulus at most r.

Backtracking over one choice variable per vertex pair with unit
propagation along the d_H <= 1 neighbor constraints.
"""
from __future__ import annotations

from dataclasses import dataclass

from .graph_core import Graph, InputError, InvariantError, PathMetric
from .hyperspace import neighbor_pair_candidates
from .selector import Holds, TwoSelector, selector_from_table, verify_selector


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
    """Pairs (a, b) with a < b, and each pair's neighbor index list."""
    n = m.graph.vertex_count
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    index = {p: i for i, p in enumerate(pairs)}
    nbrs = [sorted(index[q] for q in neighbor_pair_candidates(m, p) if q != p) for p in pairs]
    return pairs, nbrs


def _search_at(m: PathMetric, pairs, nbrs, r: int, budget: int):
    """Backtracking with propagation at bound r.

    Variables are ordered by neighbor count (most constrained first) and
    values by lower vertex id.  Returns (assignment, nodes, backtracks),
    with assignment None when no selector of modulus <= r exists.  An
    unassigned pair always has both of its elements left: propagation
    assigns a pair as soon as one element is ruled out and fails when both
    are, so the assignment is the whole state.  The depth-first walk keeps
    its decisions on an explicit stack, so its depth is not bounded by
    Python's recursion limit.
    """
    count = len(pairs)
    order = sorted(range(count), key=lambda i: (-len(nbrs[i]), pairs[i]))
    assignment: dict[int, int] = {}
    nodes = 0
    backtracks = 0

    def prune(var: int, trail: list) -> bool:
        """Propagate the assignment of ``var``; False on wipeout."""
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

    # One frame per decision: [depth, var, next value, pairs assigned by the
    # value tried last, or None once they are unassigned].
    stack: list[list] = []
    depth = 0
    while True:
        while depth < count and order[depth] in assignment:
            depth += 1
        if depth == count:
            return dict(assignment), nodes, backtracks
        var = order[depth]
        stack.append([depth, var, 0, None])
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
            if nodes > budget:
                raise BudgetExceeded(nodes)
            assignment[var] = pairs[var][i]
            frame[3] = trail = [var]
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
    pairs, nbrs = _pair_structure(m)
    outcomes: list[Feasible | Infeasible] = []
    for r in range(r_cap + 1):
        assignment, nodes, backtracks = _search_at(m, pairs, nbrs, r, node_budget)
        if assignment is None:
            outcomes.append(Infeasible(r, nodes, backtracks))
            continue
        table = {pairs[i]: v for i, v in assignment.items()}
        selector = selector_from_table(table)
        if not isinstance(verify_selector(m, selector, r), Holds):
            raise InvariantError("search produced a selector that fails verification")
        outcomes.append(Feasible(r, selector, nodes))
        break
    return outcomes
