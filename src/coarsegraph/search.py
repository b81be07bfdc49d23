"""Decide whether a graph admits any two-selector of modulus at most r.

For a fixed r this is a 2-SAT instance: one boolean per vertex pair (it
chooses one element or the other), and one 2-clause for each pair of d_H <= 1
neighbour pairs and each choice of their elements at distance more than r.
The search decides it by limited backtracking (Even, Itai and Shamir, SIAM
J. Comput. 5, 1976): each unassigned pair in turn tries its first element and
propagates; on a conflict that trail is undone and the second element tried;
if both conflict, r is infeasible.  No earlier decision is revisited.  That
is sound because a propagation that ends without a conflict leaves every
clause that touches an assigned pair satisfied whatever the unassigned pairs
choose: the assigned part is an autarky.

For the same reason a conflict lies within its own branch, so an infeasible
r carries a ``Refutation`` that stands alone: the pair that fails both ways
and, for each of its elements, the forced steps ending in the conflict.
``verify_refutation`` re-derives it from the metric, without search code.
"""
from __future__ import annotations

from dataclasses import dataclass

from .graph_core import Graph, InputError, InvariantError, PathMetric
from .hyperspace import hausdorff_distance, pair_neighbor_lists
from .selector import Holds, TwoSelector, selector_from_table, verify_selector


class BudgetExceeded(InputError):
    def __init__(self, nodes: int):
        self.nodes = nodes
        super().__init__(f"search budget exceeded after {nodes} nodes")


@dataclass(frozen=True)
class Branch:
    """One element of a refuted pair, assumed, and what it forces.

    ``steps`` are (pair, choice, forcing pair) triples.  The first is the
    assumption, with forcing pair None.  Each later pair is forced to its
    choice because its other element lies more than r from the image of a
    d_H <= 1 neighbour pair chosen earlier in the branch.  ``conflict`` is
    (pair, forcing pair): no element the branch leaves to the pair lies
    within r of the forcing pair's image.
    """

    steps: tuple
    conflict: tuple


@dataclass(frozen=True)
class Refutation:
    """No selector has modulus <= r: both elements of ``pair`` conflict.

    ``branches[i]`` assumes that the pair chooses ``pair[i]``.
    """

    pair: tuple[int, int]
    branches: tuple[Branch, Branch]


@dataclass
class Feasible:
    r: int
    selector: TwoSelector
    nodes: int


@dataclass
class Infeasible:
    r: int
    nodes: int
    refutation: Refutation


def _search_at(m: PathMetric, pairs, nbrs, order, r: int, budget: int):
    """Limited backtracking with propagation at bound r.

    Pairs are decided in ``order`` and take their lower vertex first.
    Returns (assignment, nodes, refutation): the assignment maps pair index
    to chosen vertex, or is None with a refutation when no selector of
    modulus <= r exists; nodes counts the values tried, at most two per
    pair.  An unassigned pair always has both of its elements left:
    propagation assigns a pair as soon as one element is ruled out and
    fails when both are, so the assignment is the whole state.
    """
    assignment: dict[int, int] = {}
    nodes = 0

    def prune(var: int, trail: list):
        """Propagate the assignment of ``var``; the conflict, or None.

        Each forced pair goes on ``trail`` as (pair, choice, forcing pair).
        """
        queue = [var]
        while queue:
            cur = queue.pop()
            row = m.row(assignment[cur])
            for other in nbrs[cur]:
                if other in assignment:
                    if row[assignment[other]] > r:
                        return other, cur
                    continue
                a, b = pairs[other]
                if row[a] > r:
                    if row[b] > r:
                        return other, cur
                    assignment[other] = b
                elif row[b] > r:
                    assignment[other] = a
                else:
                    continue
                trail.append((other, assignment[other], cur))
                queue.append(other)
        return None

    for var in order:
        if var in assignment:
            continue
        branches = []
        for value in pairs[var]:
            nodes += 1
            if nodes > budget:
                raise BudgetExceeded(nodes)
            assignment[var] = value
            trail = [(var, value, None)]
            conflict = prune(var, trail)
            if conflict is None:
                break
            for other, _, _ in trail:
                del assignment[other]
            branches.append(Branch(
                tuple((pairs[q], c, None if by is None else pairs[by]) for q, c, by in trail),
                (pairs[conflict[0]], pairs[conflict[1]]),
            ))
        else:
            return None, nodes, Refutation(pairs[var], tuple(branches))
    return assignment, nodes, None


def verify_refutation(m: PathMetric, r: int, refutation: Refutation) -> bool:
    """True iff ``refutation`` proves that no selector has modulus <= r.

    Each branch must start from its element of the refuted pair, force every
    later step from a pair earlier in the branch through one d_H <= 1 check
    and one distance > r, and end in a conflict that the same two checks
    confirm.  Reads distances and ``hausdorff_distance``; nothing of the
    search.
    """
    n = m.graph.vertex_count

    def is_pair(q) -> bool:
        return isinstance(q, tuple) and len(q) == 2 and 0 <= q[0] < q[1] < n

    def linked(p, q) -> bool:
        return hausdorff_distance(m, p, q) <= 1

    pair = refutation.pair
    if not is_pair(pair) or len(refutation.branches) != 2:
        return False
    for value, branch in zip(pair, refutation.branches):
        image: dict[tuple[int, int], int] = {}
        for q, c, by in branch.steps:
            if not image:
                if (q, c, by) != (pair, value, None):
                    return False
            elif not (
                is_pair(q) and q not in image and by in image and c in q
                and linked(by, q) and m.distance(image[by], q[1] if c == q[0] else q[0]) > r
            ):
                return False
            image[q] = c
        q, by = branch.conflict
        if not (is_pair(q) and by in image and linked(by, q)):
            return False
        left = (image[q],) if q in image else q
        if any(m.distance(image[by], v) <= r for v in left):
            return False
    return True


def min_modulus_search(
    g: Graph, r_cap: int, node_budget: int = 500_000
) -> list[Feasible | Infeasible]:
    """Outcomes per r from 0 up to the first feasible bound (or r_cap).

    A Feasible outcome carries a selector that re-verifies at its r, and an
    Infeasible one its refutation.  The last refutation is checked by
    ``verify_refutation``; a refutation at r also holds at every smaller r,
    so it certifies every Infeasible outcome.  The budget caps the nodes of
    each r.
    """
    m = PathMetric(g)
    m.dense_matrix()  # verify_selector reads it anyway; the search's rows come from it
    pairs, nbrs = pair_neighbor_lists(m)
    order = sorted(range(len(pairs)), key=lambda i: (-len(nbrs[i]), pairs[i]))
    outcomes: list[Feasible | Infeasible] = []
    for r in range(r_cap + 1):
        assignment, nodes, refutation = _search_at(m, pairs, nbrs, order, r, node_budget)
        if assignment is None:
            outcomes.append(Infeasible(r, nodes, refutation))
            continue
        table = {pairs[i]: v for i, v in assignment.items()}
        selector = selector_from_table(table)
        if not isinstance(verify_selector(m, selector, r), Holds):
            raise InvariantError("search produced a selector that fails verification")
        outcomes.append(Feasible(r, selector, nodes))
        break
    infeasible = [o for o in outcomes if isinstance(o, Infeasible)]
    if infeasible and not verify_refutation(m, infeasible[-1].r, infeasible[-1].refutation):
        raise InvariantError("search produced a refutation that fails verification")
    return outcomes
