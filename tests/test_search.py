from __future__ import annotations

import itertools

import pytest

from coarsegraph import Holds, PathMetric, verify_selector
from coarsegraph.search import BudgetExceeded, Feasible, Infeasible, min_modulus_search
from coarsegraph.selector import modulus, selector_from_table
from coarsegraph.generators import comb_graph, cycle_graph, grid_graph, path_graph, tripod_graph
from coarsegraph.graph_core import build_graph

from search_oracle import TooLarge, exhaustive_min_modulus, minimal_modulus


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


def test_search_depth_is_not_bounded_by_recursion_limit():
    # 2016 pairs, one decision each: deeper than Python's default recursion
    # limit allowed the search to go
    outcomes = min_modulus_search(grid_graph(8, 8), 8)
    assert [o.nodes for o in outcomes] == [2, 2, 2, 2, 6, 14, 254, 8190, 1612]
    assert [o.backtracks for o in outcomes[:-1]] == [2, 2, 2, 2, 6, 14, 254, 8190]
    assert isinstance(outcomes[-1], Feasible) and outcomes[-1].r == 8


@pytest.mark.parametrize(
    "graph, infeasible, feasible_nodes",
    [
        (cycle_graph(29), [(2, 2)] * 4 + [(2**k - 2, 2**k - 2) for k in range(3, 13)], 406),
        (cycle_graph(30), [(2, 2)] * 4 + [(2**k - 2, 2**k - 2) for k in range(3, 14)], 435),
        (tripod_graph(5, 8, 11), [(2, 2)] * 4 + [(6, 6)], 98),
        (comb_graph(12, 5), [(2, 2)] * 5, 67),
    ],
    ids=["cycle:29", "cycle:30", "tripod:5,8,11", "comb:12,5"],
)
def test_search_counts_are_pinned(graph, infeasible, feasible_nodes):
    # (nodes, backtracks) for each infeasible r, then the first feasible r's nodes
    outcomes = min_modulus_search(graph, len(infeasible))
    assert all(isinstance(o, Infeasible) for o in outcomes[:-1])
    assert [(o.nodes, o.backtracks) for o in outcomes[:-1]] == infeasible
    assert isinstance(outcomes[-1], Feasible) and outcomes[-1].r == len(infeasible)
    assert outcomes[-1].nodes == feasible_nodes
