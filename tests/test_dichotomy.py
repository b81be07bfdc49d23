"""The paper's dichotomy on finite families, as pinned minimal moduli.

A connected graph admits a two-selector iff it is bounded or coarsely
equivalent to a ray or a line.  Every finite graph is bounded, so on finite
graphs the statement shows along families: the minimal modulus r* stays
bounded along a family that is uniformly coarsely a ray or a line, and
grows along the others.  Each pin is certified from both sides: the search
returns a selector of modulus r* (re-verified inside the search) and a
refutation at r* - 1 that ``verify_refutation`` checks again here.  The
constructive direction then runs from a searched selector, not one written
by hand: on a long member of a bounded family it yields a certified line.
"""
from __future__ import annotations

import pytest

from coarsegraph import PathMetric
from coarsegraph.cli import parse_generate
from coarsegraph.extraction import Line, extract_line
from coarsegraph.qi_cert import Valid, verify_qi
from coarsegraph.search import Feasible, Infeasible, min_modulus_search, verify_refutation

# families that are uniformly coarse rays or lines: r* does not move
BOUNDED = {
    "path:{}": (1, [10, 40, 160]),
    "grid:{}x2": (2, [10, 40, 80]),
    "grid:{}x3": (3, [10, 40, 80]),
    "comb:{},3": (3, [8, 20, 40]),  # a path with one 3-vertex tooth at its middle
}
# the other families: r* follows a closed form in the size k
GROWING = {
    "cycle:{}": (lambda k: k // 2, [10, 20, 40]),  # the diameter
    "grid:{0}x{0}": (lambda k: k, [4, 8, 12]),  # the diameter is 2k - 2
    "tripod:{0},{0},{0}": (lambda k: k, [4, 8, 16]),  # half the diameter 2k
}
PINS = {family.format(k): r for family, (r, sizes) in BOUNDED.items() for k in sizes}
PINS.update(
    (family.format(k), closed_form(k))
    for family, (closed_form, sizes) in GROWING.items()
    for k in sizes
)


@pytest.mark.parametrize("spec", sorted(PINS))
def test_minimal_modulus_is_pinned_and_refuted_below(spec):
    g = parse_generate(spec)
    r_star = PINS[spec]
    outcomes = min_modulus_search(g, r_star)
    assert [o.r for o in outcomes] == list(range(r_star + 1))
    assert isinstance(outcomes[-1], Feasible)
    last = outcomes[-2]
    assert isinstance(last, Infeasible)
    assert verify_refutation(PathMetric(g), r_star - 1, last.refutation)


@pytest.mark.parametrize("spec, r_star", [("path:60", 1), ("grid:90x2", 2)])
def test_searched_selector_extracts_a_certified_line(spec, r_star):
    # longer members of two bounded families: each diameter passes
    # 16(2r* + 1) + 2, the length the extraction needs to leave the
    # bounded case
    g = parse_generate(spec)
    m = PathMetric(g)
    assert m.diameter() > 16 * (2 * r_star + 1) + 2
    found = min_modulus_search(g, r_star)[-1]
    assert isinstance(found, Feasible) and found.r == r_star
    res = extract_line(m, found.selector)
    assert isinstance(res, Line)
    assert res.diagnostics["computed_r"] == r_star
    assert isinstance(verify_qi(m, res.cert), Valid)
