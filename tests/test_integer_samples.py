"""The integer-unit discretization against its Fraction oracle.

``coarsegraph.discretize`` holds a sample's distances as integers in units
of 1/L; ``discretize_oracle`` is the same layer with one Fraction per
matrix entry.  On sampled shapes, on parsed samples with random
denominators (disconnected ones and ones whose L forces Python ints
included) and on malformed distance fields, both must give the same
sample file bytes, delta, net, net-graph edges or components, certificate,
and the same input errors.
"""
from __future__ import annotations

import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import discretize_oracle as oracle
from coarsegraph import discretize
from coarsegraph.cli import run
from coarsegraph.discretize import (
    SAMPLE_CAP,
    DisconnectedNetGraph,
    greedy_net,
    net_graph,
    parse_sample_file,
    sample_space,
    write_sample_file,
)
from coarsegraph.graph_core import InputError
from coarsegraph.qi_cert import INT64_SAFE


def outcome(layer, sp):
    """Everything a sample feeds into a report, through one implementation."""
    net = layer.greedy_net(sp)
    result = {"delta": sp.delta, "net": net, "points": sp.points, "file": layer.write_sample_file(sp)}
    try:
        graph = layer.net_graph(sp, net)
    except DisconnectedNetGraph as exc:
        result["components"] = exc.components
        return result
    result["edges"] = graph.edge_list()
    result["certificate"] = layer.certify_net(sp, net, graph)
    return result


def assert_integer_matrix(sp):
    """No Fraction per entry: int64, or Python ints when 2L or an entry passes 2**62."""
    if sp.units.dtype == object:
        assert all(type(x) is int for x in sp.units.ravel().tolist())
    else:
        assert sp.units.dtype == np.int64
    assert type(sp.unit) is int and sp.unit > 0


def check_agrees(text):
    """Parse ``text`` with both implementations: the same error text, or the
    same outcome.  Returns (package space, oracle space), or None on an error."""
    try:
        mine = parse_sample_file(text)
    except InputError as exc:
        mine_error = str(exc)
    else:
        mine_error = None
    try:
        ref = oracle.parse_sample_file(text)
    except InputError as exc:
        assert mine_error == str(exc)
        return None
    assert mine_error is None, mine_error
    assert_integer_matrix(mine)
    assert outcome(discretize, mine) == outcome(oracle, ref)
    return mine, ref


@pytest.mark.parametrize("step", [Fraction(1, 2), Fraction(1, 3), Fraction(2, 5), Fraction(1, 4)])
@pytest.mark.parametrize(
    "shape",
    [("segment", 1), ("segment", 2), ("segment", 12), ("circle", 1), ("circle", 8), ("circle", 14),
     ("rectangle", 1, 1), ("rectangle", 3, 2), ("rectangle", 4, 4)],
)
def test_sampled_shapes_match_the_oracle(shape, step):
    try:
        ref = oracle.sample_space(shape, step)
    except InputError as exc:
        with pytest.raises(InputError, match=str(exc)):
            sample_space(shape, step)
        return
    sp = sample_space(shape, step)
    assert_integer_matrix(sp)
    assert (sp.unit, sp.units.dtype) == (step.denominator, np.int64)
    assert outcome(discretize, sp) == outcome(oracle, ref)
    assert check_agrees(write_sample_file(sp)) is not None


@st.composite
def sample_files(draw):
    """A sample file with random positive distances over a few random
    denominators, written in random non-reduced forms; the distances sit
    around the net's scale of 2, so some net graphs connect and some do not."""
    n = draw(st.integers(min_value=1, max_value=9))
    dens = draw(st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=3))
    lines = [f"points {n}"]
    for i in range(n):
        for j in range(i + 1, n):
            q = draw(st.sampled_from(dens))
            p = draw(st.integers(min_value=1, max_value=7 * q))
            scale = draw(st.sampled_from([1, 1, 1, 2, 3]))
            a, b = draw(st.sampled_from([(i, j), (j, i)]))
            field = f"{p * scale}/{q * scale}"
            if q == 1 and draw(st.booleans()):
                field = str(p)
            lines.append(f"{a} {b} {field}")
    body = lines[1:]
    draw(st.randoms()).shuffle(body)
    return "\n".join([lines[0], *body]) + "\n"


@settings(max_examples=150, deadline=None)
@given(sample_files())
def test_parsed_samples_match_the_oracle(text):
    check_agrees(text)


def test_a_disconnected_sample_matches_the_oracle():
    base = oracle.sample_space(("segment", 6), Fraction(1, 2))
    mat = [[d + (10 if (i < 7) != (j < 7) else 0) for j, d in enumerate(row)] for i, row in enumerate(base.dist_matrix)]
    mine, _ = check_agrees(oracle.sample_text(mat))
    with pytest.raises(DisconnectedNetGraph):
        net_graph(mine, greedy_net(mine))


BIG = [1_000_000_007, 998_244_353, (1 << 61) - 1]  # primes: their product passes 2**62


def test_a_large_common_denominator_runs_on_python_ints():
    mat = [[0, Fraction(5, BIG[0]), Fraction(3, BIG[1])],
           [Fraction(5, BIG[0]), 0, Fraction(7, BIG[2])],
           [Fraction(3, BIG[1]), Fraction(7, BIG[2]), 0]]
    mine, _ = check_agrees(oracle.sample_text(mat))
    assert mine.units.dtype == object and mine.unit == BIG[0] * BIG[1] * BIG[2] > INT64_SAFE
    # at the net's scale: net (0, 2), joined through point 1, and a certificate
    near = [[0, 1 + Fraction(1, BIG[0]), 2 + Fraction(1, BIG[2])],
            [1 + Fraction(1, BIG[0]), 0, 1 + Fraction(1, BIG[1])],
            [2 + Fraction(1, BIG[2]), 1 + Fraction(1, BIG[1]), 0]]
    mine, _ = check_agrees(oracle.sample_text(near))
    assert mine.units.dtype == object
    assert greedy_net(mine) == (0, 2) and net_graph(mine, (0, 2)).edge_list() == [(0, 1)]
    # an integer field too long for int64
    check_agrees(f"points 2\n0 1 {10 ** 30}\n")


def test_a_tiny_step_runs_on_python_ints():
    step = Fraction(1, 1 << 63)
    sp = sample_space(("segment", 2 * step), step)
    assert sp.units.dtype == object and sp.unit == 1 << 63
    assert outcome(discretize, sp) == outcome(oracle, oracle.sample_space(("segment", 2 * step), step))


def test_the_lowest_common_denominator_is_kept():
    sp = parse_sample_file("points 3\n0 1 2/4\n0 2 3/6\n1 2 4/8\n")
    assert (sp.unit, sp.units.tolist()) == (2, [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    assert parse_sample_file("points 2\n0 1 3/1\n").unit == 1


GRAMMAR = ["1.5", "1e3", "+2", "1_0", "٣", "2/4", "-1/2", "0/1", "1/0", "3/-4", "0", "00/5", "5/00",
           "/2", "2/", "1//2", "1/2/3", "0x10", "inf", "nan", "1 /2", "²", "7/" + "9" * 5000, "1" * 5000,
           "1E5000"]


@pytest.mark.parametrize("field", GRAMMAR, ids=range(len(GRAMMAR)))
def test_every_distance_field_is_read_as_fraction_reads_it(field):
    check_agrees(f"points 3\n0 1 1\n 1 2   {field}  # comment\n0 2 5/2\n")
    check_agrees(f"points 2\n0 1 {field}\n0 1 1\n")


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="0123456789/+-._eE ٣", min_size=1, max_size=8))
def test_drawn_distance_fields_are_read_as_fraction_reads_them(field):
    check_agrees(f"points 2\n0 1 {field}\n")


@pytest.mark.parametrize(
    "text",
    [
        "points 3\n0 1 1\n1 0 2\n0 2 x\n",  # a pair twice before a bad field
        "points 3\n0 1 1\n1 2 0\n0 1 1\n",  # a zero distance before a pair twice
        "points 3\n0 1 1\n0 2 1\n",  # too few entries
        "points 3\n0 9 1\n0 1 -1\n",  # a bad index before a negative distance
        "points 2\n0 1 1 1\n",
        "points 0\n",
        "points -2\n",
        "points 1\n",
        "points\n",
        "",
    ],
)
def test_input_errors_match_the_oracle(text):
    check_agrees(text)


def test_a_header_above_the_cap_is_refused_before_any_allocation():
    tracemalloc.start()
    try:
        for text in ("points 1000000000\n0 1 1\n", f"points {SAMPLE_CAP + 1}\n"):
            with pytest.raises(InputError, match=f"line 1, column 8: .* above the cap of {SAMPLE_CAP}"):
                parse_sample_file(text)
        # within the cap, the count check still comes before the n x n matrix
        with pytest.raises(InputError, match="expected 8386560 distance entries"):
            parse_sample_file(f"points {SAMPLE_CAP}\n0 1 1\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--shape", "segment:5000", "--step", "1/2"],
        ["net", "build", "--shape", "rectangle:100x100", "--step", "1/2"],
        ["net", "certify", "--shape", "circle:2049", "--step", "1/2"],
        ["sample", "--shape", f"segment:{10 ** 30}", "--step", "1/2"],
    ],
    ids=["segment", "rectangle", "circle", "huge"],
)
def test_shapes_above_the_cap_exit_2(capsys, argv):
    assert run(argv) == 2
    assert f"above the cap of {SAMPLE_CAP}" in json.loads(capsys.readouterr().out)["error"]


def test_the_cap_admits_a_shape_of_exactly_its_size(monkeypatch):
    monkeypatch.setattr(discretize, "SAMPLE_CAP", 21)
    assert sample_space(("segment", 10), Fraction(1, 2)).n == 21
    assert sample_space(("rectangle", 3, 1), Fraction(1, 2)).n == 21
    with pytest.raises(InputError, match="22 points, above the cap of 21"):
        sample_space(("segment", Fraction(21, 2)), Fraction(1, 2))
    assert parse_sample_file(write_sample_file(sample_space(("circle", 10), Fraction(1, 2)))).n == 20
