from __future__ import annotations

import itertools
import random

import pytest

from coarsegraph import (
    Holds,
    PathMetric,
    TwoSelector,
    Witness,
    extract_line,
    hausdorff_distance,
    min_selector,
    modulus,
    order_to_selector,
    verify_selector,
    witness_is_violation,
)
from coarsegraph.order_compat import LinearOrder
from coarsegraph.selector import (
    InvalidSelector,
    NonInjectiveCoordinate,
    selector_from_table,
)
from coarsegraph.generators import grid_graph, path_graph, tripod_graph

from conftest import random_tournament
from selector_oracle import oracle_modulus


def test_min_selector_is_min():
    f = min_selector(list(range(10)))
    assert f.choose(3, 7) == 3
    assert f.choose(7, 3) == 3


def test_min_selector_reversed_coord():
    f = min_selector([0, -1, -2, -3])
    assert f.choose(0, 3) == 3


def test_min_selector_rejects_collisions():
    with pytest.raises(NonInjectiveCoordinate):
        min_selector([0, 1, 1, 2])


def test_modulus_min_on_p10():
    m = PathMetric(path_graph(10))
    res = modulus(m, min_selector(list(range(10))))
    assert res.r == 1
    assert witness_is_violation(m, min_selector(list(range(10))), 0, res.witness.pair_a, res.witness.pair_b)


def test_modulus_p2_any_selector():
    m = PathMetric(path_graph(2))
    for table in ({(0, 1): 0}, {(0, 1): 1}):
        assert modulus(m, selector_from_table(table)).r == 0


def test_table_selectors_are_keyed_either_way_and_cover_exactly_the_graph():
    m = PathMetric(path_graph(3))
    with pytest.raises(InvalidSelector, match=r"no choice for pair \{0, 2\}"):
        modulus(m, selector_from_table({(0, 1): 0}))
    reversed_key = selector_from_table({(0, 1): 0, (0, 2): 0, (2, 1): 1})
    assert reversed_key.choose(1, 2) == reversed_key.choose(2, 1) == 1
    assert modulus(m, reversed_key) == modulus(m, min_selector([0, 1, 2]))
    with pytest.raises(InvalidSelector, match=r"\{0, 5\}, not a pair of 0..2"):
        modulus(m, selector_from_table({(0, 1): 0, (0, 2): 0, (1, 2): 1, (0, 5): 0}))
    with pytest.raises(InvalidSelector, match="given twice"):
        selector_from_table({(1, 2): 1, (2, 1): 2})


def test_a_selector_built_from_a_table_directly_is_keyed_either_way():
    m = PathMetric(path_graph(3))
    table = {(2, 1): 1, (0, 1): 0, (0, 2): 0}
    f = TwoSelector(table=table)
    assert f.choose(1, 2) == f.choose(2, 1) == 1
    assert modulus(m, f) == modulus(m, min_selector([0, 1, 2]))
    assert table == {(2, 1): 1, (0, 1): 0, (0, 2): 0}  # the caller's dict is left as given
    with pytest.raises(InvalidSelector, match="given twice"):
        TwoSelector(table={(1, 2): 1, (2, 1): 2})


def test_modulus_lexmin_grid4():
    g = grid_graph(4, 4)
    m = PathMetric(g)
    f = min_selector(list(range(16)))
    res = modulus(m, f)
    assert res.r == 4
    # declared witness family: A = {(0,3),(1,0)}, B = {(1,3),(1,0)} as ids
    A, B = (3, 4), (4, 7)
    assert hausdorff_distance(m, A, B) == 1
    assert m.distance(f.choose(*A), f.choose(*B)) == 4


def test_modulus_minimality():
    for g in (path_graph(10), grid_graph(3, 3), tripod_graph(2, 2, 2)):
        m = PathMetric(g)
        f = min_selector(list(range(g.vertex_count)))
        r = modulus(m, f).r
        assert isinstance(verify_selector(m, f, r), Holds)
        if r > 0:
            assert isinstance(verify_selector(m, f, r - 1), Witness)


def test_dense_and_generic_modulus_agree():
    rng = random.Random(99)
    for g in (path_graph(9), grid_graph(3, 3), tripod_graph(2, 3, 2)):
        m = PathMetric(g)
        coord = list(range(g.vertex_count))
        rng.shuffle(coord)
        f = min_selector(coord)
        expected = oracle_modulus(m, f)
        assert modulus(m, f) == expected
        # the extensional copy of the same selector scans through its table
        n = g.vertex_count
        g_table = selector_from_table(
            {(a, b): f.choose(a, b) for a in range(n) for b in range(a + 1, n)}
        )
        assert modulus(m, g_table) == expected


def test_verify_examples():
    m = PathMetric(path_graph(10))
    f = min_selector(list(range(10)))
    assert isinstance(verify_selector(m, f, 1), Holds)
    w = verify_selector(m, f, 0)
    assert isinstance(w, Witness)
    assert witness_is_violation(m, f, 0, w.pair_a, w.pair_b)
    grid = PathMetric(grid_graph(4, 4))
    flex = min_selector(list(range(16)))
    w = verify_selector(grid, flex, 3)
    assert isinstance(w, Witness)
    assert witness_is_violation(grid, flex, 3, w.pair_a, w.pair_b)


def test_order_to_selector_matches_min():
    m = PathMetric(path_graph(10))
    natural = order_to_selector(LinearOrder.natural(10))
    plain = min_selector(list(range(10)))
    for a, b in itertools.combinations(range(10), 2):
        assert natural.choose(a, b) == plain.choose(a, b)
    assert modulus(m, natural).r == 1


def test_order_to_selector_p2_and_grid():
    m = PathMetric(path_graph(2))
    assert modulus(m, order_to_selector(LinearOrder.natural(2))).r == 0
    grid = PathMetric(grid_graph(4, 4))
    assert modulus(grid, order_to_selector(LinearOrder.natural(16))).r >= 4


def test_extraction_coordinate_round_trip():
    g = path_graph(200)
    m = PathMetric(g)
    result = extract_line(m, min_selector(list(range(200))))
    coord = result.cert.coord
    # an injective coordinate over the whole graph induces a selector again
    values = [coord[v] for v in range(200)]
    f = min_selector(values)
    assert modulus(m, f).r == 1


def test_random_tournament_witnesses_self_verify():
    rng = random.Random(17)
    g = grid_graph(3, 3)
    m = PathMetric(g)
    for _ in range(25):
        f = random_tournament(g, rng)
        r = modulus(m, f).r
        assert isinstance(verify_selector(m, f, r), Holds)
        if r > 0:
            w = verify_selector(m, f, r - 1)
            assert isinstance(w, Witness)
            assert witness_is_violation(m, f, r - 1, w.pair_a, w.pair_b)
