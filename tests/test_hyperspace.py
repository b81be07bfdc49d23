from __future__ import annotations

import itertools

import pytest

from coarsegraph import PathMetric, hausdorff_distance
from coarsegraph.hyperspace import EmptySet, neighbor_pair_candidates, vpair
from coarsegraph.generators import cycle_graph, grid_graph, path_graph, tripod_graph

from conftest import brute_hausdorff, exp_contains, floyd_warshall


def _small_family():
    return [
        path_graph(4),
        path_graph(9),
        cycle_graph(7),
        grid_graph(3, 3),
        tripod_graph(2, 3, 3),
    ]


def test_hausdorff_examples():
    m = PathMetric(path_graph(4))
    assert hausdorff_distance(m, (0, 1), (0, 1)) == 0
    assert hausdorff_distance(m, (0, 1), (2, 3)) == 2
    assert hausdorff_distance(m, (0, 2), (1, 3)) == 1


def test_hausdorff_rejects_empty():
    m = PathMetric(path_graph(4))
    with pytest.raises(EmptySet):
        hausdorff_distance(m, (), (0,))


def test_hausdorff_matches_direct_formula():
    for g in _small_family():
        n = g.vertex_count
        m = PathMetric(g)
        oracle = floyd_warshall(n, g.edge_list())
        subsets = [
            s
            for size in (1, 2, 3)
            for s in itertools.combinations(range(n), size)
        ]
        for A in subsets:
            for B in subsets:
                assert hausdorff_distance(m, A, B) == brute_hausdorff(oracle, A, B)


def test_hausdorff_metric_axioms_small_subsets():
    for g in _small_family():
        n = g.vertex_count
        m = PathMetric(g)
        subsets = [
            s
            for size in (1, 2, 3)
            for s in itertools.combinations(range(n), size)
        ]
        for A in subsets:
            assert hausdorff_distance(m, A, A) == 0
        for A, B in itertools.combinations(subsets, 2):
            assert hausdorff_distance(m, A, B) == hausdorff_distance(m, B, A)
        # triangle inequality on a subsample to keep runtime sane
        for A, B, C in itertools.islice(itertools.combinations(subsets, 3), 4000):
            ab = hausdorff_distance(m, A, B)
            bc = hausdorff_distance(m, B, C)
            ac = hausdorff_distance(m, A, C)
            assert ac <= ab + bc


def test_exp_contains_equals_hausdorff_bound():
    for g in _small_family()[:3]:
        m = PathMetric(g)
        n = g.vertex_count
        subsets = [
            s
            for size in (1, 2, 3)
            for s in itertools.combinations(range(n), size)
        ]
        diam = m.diameter()
        for A in subsets:
            for B in subsets:
                d = hausdorff_distance(m, A, B)
                for r in range(diam + 1):
                    assert exp_contains(m, A, B, r) == (d <= r)


def test_exp_contains_examples():
    m = PathMetric(path_graph(4))
    assert exp_contains(m, (0, 1), (0, 1), 0)
    assert not exp_contains(m, (0, 1), (2, 3), 1)
    assert exp_contains(m, (0, 1), (2, 3), 2)


def test_pair_neighbors_examples():
    m = PathMetric(path_graph(4))
    assert set(neighbor_pair_candidates(m, (0, 2))) == {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)}
    m2 = PathMetric(path_graph(2))
    assert set(neighbor_pair_candidates(m2, (0, 1))) == {(0, 1)}
    grid = PathMetric(grid_graph(3, 3))
    # {(0,0),(2,2)} = {0, 8}; {(0,0),(0,1)} = {0, 1} sits at d_H 3
    assert (0, 1) not in set(neighbor_pair_candidates(grid, (0, 8)))


def test_pair_neighbors_match_full_scan_and_symmetry():
    for g in _small_family()[:4]:
        m = PathMetric(g)
        n = g.vertex_count
        pairs = list(itertools.combinations(range(n), 2))
        for P in pairs:
            expected = {
                Q for Q in pairs if hausdorff_distance(m, P, Q) <= 1
            }
            got = set(neighbor_pair_candidates(m, P))
            assert got == expected
            for Q in got:
                assert P in set(neighbor_pair_candidates(m, Q))


def test_candidate_generation_needs_no_filter():
    # every generated candidate is already within d_H 1
    for g in _small_family():
        m = PathMetric(g)
        for P in itertools.combinations(range(g.vertex_count), 2):
            for Q in neighbor_pair_candidates(m, P):
                assert hausdorff_distance(m, P, Q) <= 1


def test_vpair_normalizes():
    assert vpair(3, 1) == (1, 3)
    with pytest.raises(ValueError):
        vpair(2, 2)
