from __future__ import annotations

import itertools

import pytest

from coarsegraph import Holds, PathMetric, verify_selector
from coarsegraph.cli import parse_generate
from coarsegraph.search import (
    Branch,
    BudgetExceeded,
    Feasible,
    Infeasible,
    Refutation,
    min_modulus_search,
    verify_refutation,
)
from coarsegraph.selector import modulus, selector_from_table
from coarsegraph.generators import comb_graph, cycle_graph, grid_graph, path_graph, tripod_graph
from coarsegraph.graph_core import build_graph

from conftest import bfs_all_pairs, brute_hausdorff
from search_oracle import (
    TooLarge,
    backtracking_verdicts,
    exhaustive_min_modulus,
    minimal_modulus,
    oracle_verify_refutation,
)

# the graphs perfbench's selector_audit searches for seeds 1 and 2
AUDIT_GRAPHS = [
    "comb:5,1", "cycle:5", "cycle:6", "cycle:14", "cycle:15", "cycle:28", "cycle:29", "cycle:30",
    "grid:3x5", "grid:3x6", "grid:5x5", "grid:7x7", "tripod:1,1,1", "tripod:1,1,2",
    "tripod:1,2,2", "tripod:5,8,10", "tripod:11,8,4",
]
PINNED_GRAPHS = ["cycle:29", "cycle:30", "tripod:5,8,11", "comb:12,5"]


def _naive_exhaustive(g):
    """Reference oracle: literally enumerate all tournaments."""
    m = PathMetric(g)
    n = g.vertex_count
    pairs = list(itertools.combinations(range(n), 2))
    best = None
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        table = {p: p[bit] for p, bit in zip(pairs, bits)}
        r = modulus(m, selector_from_table(table)).r
        best = r if best is None else min(best, r)
    return best


def test_exhaustive_matches_naive_on_tiny_graphs():
    star = build_graph([(0, 1), (0, 2), (0, 3)])
    for g in (path_graph(2), path_graph(3), path_graph(4), star):
        assert exhaustive_min_modulus(g) == _naive_exhaustive(g)


def test_p4_minimal_modulus():
    g = path_graph(4)
    assert exhaustive_min_modulus(g) == 1
    outcomes = min_modulus_search(g, 2)
    assert [type(o) for o in outcomes] == [Infeasible, Feasible]
    assert outcomes[-1].r == 1


def test_p2_minimal_modulus():
    g = path_graph(2)
    assert exhaustive_min_modulus(g) == 0
    assert minimal_modulus(g) == 0


def test_star_agreement():
    g = build_graph([(0, 1), (0, 2), (0, 3)])
    assert minimal_modulus(g) == exhaustive_min_modulus(g)


def test_feasible_selector_reverifies():
    g = grid_graph(2, 3)
    outcomes = min_modulus_search(g, 4)
    last = outcomes[-1]
    assert isinstance(last, Feasible)
    m = PathMetric(g)
    assert isinstance(verify_selector(m, last.selector, last.r), Holds)


def test_tripod_stable_under_reordering():
    # too many pairs for the exhaustive oracle; compare against a rerun on a
    # relabeled copy of the graph
    g = tripod_graph(3, 3, 3)
    r = minimal_modulus(g)
    n = g.vertex_count
    relabel = {v: (v * 7) % n for v in range(n)}
    assert sorted(relabel.values()) == list(range(n))
    g2 = build_graph(
        [(relabel[u], relabel[v]) for u, v in g.edge_list()], vertex_count=n
    )
    assert minimal_modulus(g2) == r


def test_exhaustive_cap():
    with pytest.raises(TooLarge):
        exhaustive_min_modulus(path_graph(10))


def test_budget_exceeded():
    g = grid_graph(3, 3)
    with pytest.raises(BudgetExceeded) as exc:
        min_modulus_search(g, 0, node_budget=0)
    assert exc.value.nodes == 1


def _pair_count(g) -> int:
    return g.vertex_count * (g.vertex_count - 1) // 2


def test_search_depth_is_not_bounded_by_recursion_limit():
    # 2016 pairs, one decision each: deeper than Python's default recursion
    # limit allowed the search to go
    g = grid_graph(8, 8)
    outcomes = min_modulus_search(g, 8)
    assert [o.nodes for o in outcomes] == [2, 2, 2, 2, 3, 4, 8, 13, 1612]
    assert all(o.nodes <= 2 * _pair_count(g) for o in outcomes)
    assert isinstance(outcomes[-1], Feasible) and outcomes[-1].r == 8


@pytest.mark.parametrize(
    "graph, infeasible, feasible_nodes",
    [
        (cycle_graph(29), [2] * 4 + list(range(3, 13)), 406),
        (cycle_graph(30), [2] * 4 + list(range(3, 14)), 435),
        (tripod_graph(5, 8, 11), [2] * 4 + [3], 98),
        (comb_graph(12, 5), [2] * 5, 67),
    ],
    ids=["cycle:29", "cycle:30", "tripod:5,8,11", "comb:12,5"],
)
def test_search_counts_are_pinned(graph, infeasible, feasible_nodes):
    # nodes for each infeasible r, then the first feasible r's nodes
    outcomes = min_modulus_search(graph, len(infeasible))
    assert all(isinstance(o, Infeasible) for o in outcomes[:-1])
    assert [o.nodes for o in outcomes[:-1]] == infeasible
    assert isinstance(outcomes[-1], Feasible) and outcomes[-1].r == len(infeasible)
    assert outcomes[-1].nodes == feasible_nodes
    assert all(o.nodes <= 2 * _pair_count(graph) for o in outcomes)


@pytest.mark.parametrize("spec", sorted(set(AUDIT_GRAPHS + PINNED_GRAPHS)))
def test_verdicts_match_the_backtracking_search(spec):
    g = parse_generate(spec)
    r_cap = PathMetric(g).diameter()
    outcomes = min_modulus_search(g, r_cap)
    assert [isinstance(o, Feasible) for o in outcomes] == backtracking_verdicts(g, r_cap)
    assert isinstance(outcomes[-1], Feasible)
    dist = bfs_all_pairs(g.vertex_count, g.edge_list())
    for o in outcomes[:-1]:
        assert oracle_verify_refutation(dist, o.r, o.refutation), o.r
    if len(outcomes) > 1:
        # r* is feasible, so no refutation can hold there
        assert not oracle_verify_refutation(dist, outcomes[-1].r, outcomes[-2].refutation)
        assert not verify_refutation(PathMetric(g), outcomes[-1].r, outcomes[-2].refutation)


@pytest.mark.parametrize(
    "spec, r_star", [("grid:12x12", 12), ("cycle:61", 30), ("tripod:20,20,20", 20)]
)
def test_search_scales_past_chronological_backtracking(spec, r_star):
    # the chronological search ran out of its default budget on the first
    # two and took 525,400 nodes on the tripod
    g = parse_generate(spec)
    outcomes = min_modulus_search(g, r_star)
    assert isinstance(outcomes[-1], Feasible) and outcomes[-1].r == r_star
    assert all(o.nodes <= 2 * _pair_count(g) for o in outcomes)
    refutation = outcomes[-2].refutation
    assert verify_refutation(PathMetric(g), r_star - 1, refutation)
    assert oracle_verify_refutation(bfs_all_pairs(g.vertex_count, g.edge_list()), r_star - 1, refutation)


def _with_first_branch(refutation, extra_step=None, conflict=None):
    """``refutation`` with one step appended to its first branch, or its conflict replaced."""
    first, second = refutation.branches
    steps = first.steps + ((extra_step,) if extra_step else ())
    first = Branch(steps, conflict or first.conflict)
    return Refutation(refutation.pair, (first, second))


def _tampered(dist, r, refutation):
    """Copies of a valid refutation, each wrong in one check only.

    ``near forcing``: an appended step whose ruled-out element lies exactly r
    from its forcing image.  ``unlinked``: an appended step whose forcing
    pair lies at Hausdorff distance 2.  ``no conflict``: a conflict whose
    pair the forcing image reaches within r; exactly r where the graph has
    one.  ``unlinked conflict``: a conflict whose pair lies more than 1
    from its forcing pair.  Appended steps and the unlinked conflict use
    pairs the branch never mentions.
    """
    branch = refutation.branches[0]
    chosen = {q: c for q, c, _ in branch.steps}
    spare = [
        q for q in itertools.combinations(range(len(dist)), 2)
        if q not in chosen and q != branch.conflict[0]
    ]
    out = {}
    for p, image in chosen.items():
        for q in spare:
            link = brute_hausdorff(dist, p, q)
            for c, ruled_out in (q, q[::-1]):
                if link <= 1 and dist[image][ruled_out] == r:
                    out.setdefault("near forcing", _with_first_branch(refutation, (q, c, p)))
                if link == 2 and dist[image][ruled_out] > r:
                    out.setdefault("unlinked", _with_first_branch(refutation, (q, c, p)))
            if link > 1 and min(dist[image][v] for v in q) > r:
                out.setdefault("unlinked conflict", _with_first_branch(refutation, conflict=(q, p)))
        for q, c in chosen.items():
            if q != p and brute_hausdorff(dist, p, q) <= 1 and dist[image][c] <= r:
                key = "no conflict" if dist[image][c] == r else "no conflict (below r)"
                out.setdefault(key, _with_first_branch(refutation, conflict=(q, p)))
    if "no conflict" in out:
        out.pop("no conflict (below r)", None)
    return out


@pytest.mark.parametrize(
    "spec, unlinked_conflict",
    # on cycle:14 at r = 6 no pair has both elements 7 from one vertex
    [("cycle:14", False), ("grid:4x4", True), ("tripod:3,4,5", True)],
)
def test_both_checkers_reject_a_tampered_refutation(spec, unlinked_conflict):
    g = parse_generate(spec)
    outcomes = min_modulus_search(g, PathMetric(g).diameter())
    r = outcomes[-2].r
    refutation = outcomes[-2].refutation
    dist = bfs_all_pairs(g.vertex_count, g.edge_list())
    assert verify_refutation(PathMetric(g), r, refutation)
    assert oracle_verify_refutation(dist, r, refutation)
    tampered = _tampered(dist, r, refutation)
    assert {"near forcing", "unlinked"} <= set(tampered)
    assert ("unlinked conflict" in tampered) == unlinked_conflict
    assert any(k.startswith("no conflict") for k in tampered)
    for name, bad in tampered.items():
        assert not verify_refutation(PathMetric(g), r, bad), name
        assert not oracle_verify_refutation(dist, r, bad), name


def test_a_refutation_must_refute_both_elements():
    g = cycle_graph(14)
    refutation = min_modulus_search(g, 7)[-2].refutation
    first, second = refutation.branches
    dist = bfs_all_pairs(14, g.edge_list())
    for bad in (
        Refutation(refutation.pair, (first, first)),
        Refutation(refutation.pair, (first,)),
        Refutation(refutation.pair[::-1], (second, first)),
    ):
        assert not verify_refutation(PathMetric(g), 6, bad)
        assert not oracle_verify_refutation(dist, 6, bad)
