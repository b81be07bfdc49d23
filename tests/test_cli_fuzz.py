"""Fuzz the CLI contract over argv and over the bytes of its input files.

Whatever it is given, ``run`` returns without raising, prints exactly one
JSON object, and exits 0, 1 or 2; exit 2 comes exactly when the report has
a top-level ``error`` and no ``outcome``.  ``--help`` and ``--version`` keep
argparse's text output and are left out.  Sizes stay small (graphs of at
most 8 vertices, shapes up to segment:12, a ``--budget`` of at most 300
nodes) so the module runs in a few seconds.

Most cases are drawn well formed around one vertex count n, so that they
get past input checking into the commands; the rest carry noise: files of
random bytes, values out of range and argv with a token dropped or replaced.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings, strategies as st

from coarsegraph.cli import run

FORMATS = ("graph", "order", "selector", "coord", "sample", "cert")


def _lines(rows) -> bytes:
    return "".join(" ".join(map(str, row)) + "\n" for row in rows).encode()


TOKENS = st.sampled_from(
    ["0", "1", "2", "3", "7", "-1", "x", "1.9", "1/2", "9/1", "1/0", "->", "points", "#",
     "0 1", "1 2", "2 3", "1 -> 1", " ", "\t", "\n", "\n", "\n"]
)
NOISE = st.one_of(
    st.binary(max_size=48), st.lists(TOKENS, max_size=24).map(lambda ts: " ".join(ts).encode())
)
JSON_VALUES = st.one_of(
    st.integers(-2, 5), st.floats(allow_nan=True), st.booleans(), st.none(), st.text(max_size=3)
)


def _certs(values):
    block = st.fixed_dictionaries(
        {},
        optional={
            "coord": st.lists(st.lists(values, min_size=1, max_size=3), max_size=5),
            "lambda": st.one_of(st.sampled_from(["1/1", "3/2"]), values),
            "C": values,
            "D": values,
        },
    )
    return block.map(lambda b: json.dumps({"outcome": {"certificate": b}}).encode())


@st.composite
def _file(draw, kind: str, n: int) -> bytes:
    """A well-formed file of ``kind`` for graphs on n vertices, or noise."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.one_of(NOISE, _certs(JSON_VALUES)) if kind == "cert" else NOISE)
    vertex = st.integers(0, n - 1)
    if kind == "graph":
        tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
        return _lines(tree + draw(st.lists(st.tuples(vertex, vertex), max_size=2)))
    if kind == "order":
        return _lines([v] for v in draw(st.permutations(range(n))))
    if kind == "selector":
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        return _lines((a, b, "->", draw(st.sampled_from((a, b)))) for a, b in pairs)
    if kind == "coord":
        return _lines(draw(st.lists(st.tuples(vertex, st.integers(-3, 9)), min_size=1, max_size=6)))
    if kind == "sample":
        k = draw(st.integers(1, 4))
        d = st.fractions(min_value=Fraction(1, 2), max_value=9, max_denominator=2)
        return _lines([("points", k)] + [(i, j, draw(d)) for i in range(k) for j in range(i + 1, k)])
    return draw(_certs(st.integers(-1, n)))


# command -> alternative lists of the options it is given
COMMANDS = {
    "metric": [["--pairs"], ["--pairs", "--pairs", "--geodesic"]],
    "hausdorff": [["--set-a", "--set-b"], ["--set-a", "--set-b", "--neighbors-of"]],
    "selector modulus": [["--selector"]],
    "selector verify": [["--selector", "--r"]],
    "selector min": [[]],
    "selector from-order": [["--order"]],
    "selector search": [["--r-cap", "--budget"]],
    "claims c1": [["--selector", "--r", "--p", "--v", "--a", "--b"]],
    "claims c2": [["--selector", "--r", "--p", "--v", "--z"]],
    "claims c3": [["--selector", "--r", "--p", "--v", "--z"], ["--selector", "--r", "--p", "--v", "--z", "--q"]],
    "extract": [["--selector"], ["--selector", "--assert-r"]],
    "qi verify": [["--cert"], ["--coord", "--lam", "--C", "--D"]],
    "net build": [["--shape", "--step"], ["--sample"]],
    "net certify": [["--shape", "--step"], ["--sample"]],
    "sample": [["--shape", "--step"], ["--shape", "--step", "--out"]],
    "order compat": [["--order", "--e"], ["--order", "--e", "--cap"]],
    "order interval": [["--order", "--e"]],
}
NO_GRAPH = {"net build", "net certify", "sample"}


def _options(n: int) -> dict:
    """Option -> strategy for its value on graphs of n vertices; None marks a flag."""
    radius = st.sampled_from([str(i) for i in range(-1, 6)])
    vertex = st.sampled_from([str(i) for i in range(-1, n + 1)])
    ids = st.lists(st.integers(0, n - 1), min_size=1, max_size=4).map(lambda xs: ",".join(map(str, xs)))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).map(lambda p: f"{p[0]},{p[1]}")
    ids = st.one_of(ids, pair, st.sampled_from(["", "0,x", f"0,{n}"]))
    return {
        "--generate": st.sampled_from(
            [f"path:{n}", f"cycle:{max(n, 3)}", f"grid:1x{n}", f"comb:{max(n // 2, 2)},1",
             "tripod:1,2,2", "grid:3", "path:0"]
        ),
        "--graph": st.sampled_from(["@graph", "@graph", "@order", "@missing"]),
        "--pairs": ids, "--geodesic": None, "--set-a": ids, "--set-b": ids, "--neighbors-of": ids,
        "--selector": st.sampled_from(
            ["min", "lexmin", "file:@selector", "order:@order", "file:@graph", "bogus"]
        ),
        "--r": radius, "--p": radius, "--q": radius, "--v": vertex, "--a": vertex, "--b": vertex,
        "--z": ids, "--assert-r": radius, "--r-cap": radius,
        "--budget": st.integers(0, 300).map(str),
        "--order": st.sampled_from(["natural", "@order", "@order", "@graph"]),
        "--cert": st.sampled_from(["@cert", "@cert", "@coord", "@missing"]),
        "--coord": st.sampled_from(["@coord", "@coord", "@cert"]),
        "--lam": st.sampled_from(["1", "3/2", "2", "1/2", "1/0"]), "--C": radius, "--D": radius,
        "--shape": st.sampled_from(
            ["segment:0", "segment:5/2", "segment:12", "circle:1", "circle:10", "rectangle:1x2",
             "rectangle:2x2", "rectangle:3", "circle:0", "segment:-1", "segment:x", "disc:2"]
        ),
        "--step": st.sampled_from(["1/2", "1/2", "1/2", "1/4", "1", "0", "x"]),
        "--sample": st.sampled_from(["@sample", "@sample", "@graph"]),
        "--out": st.sampled_from(["@out", "@nodir/out"]),
        "--e": radius, "--cap": radius, "--timing": None, "--bogus": None,
    }


@st.composite
def _case(draw):
    """(argv, files) for one run; "@name" in argv stands for the file ``name``."""
    n = draw(st.integers(1, 8))
    options = _options(n)
    command = draw(st.sampled_from(sorted(COMMANDS)))
    flags = list(draw(st.sampled_from(COMMANDS[command])))
    if command not in NO_GRAPH:
        flags.insert(0, draw(st.sampled_from(["--generate", "--generate", "--graph"])))
    if draw(st.integers(0, 3)) == 0:
        flags.append(draw(st.sampled_from(sorted(options))))
    argv = command.split()
    for flag in flags:
        argv.append(flag)
        if options[flag] is not None:
            argv.append(draw(options[flag]))
    if draw(st.integers(0, 7)) == 0:  # a usage error: one token dropped or replaced
        i = draw(st.integers(0, len(argv) - 1))
        argv[i : i + 1] = draw(st.sampled_from([[], ["bogus"], ["-1,2"]]))
    return argv, {kind: draw(_file(kind, n)) for kind in FORMATS}


def _run_with_files(argv, files: dict) -> None:
    # the case runs inside its own directory, so a drawn relative path such
    # as `--out bogus` is written there; os.chdir, since contextlib.chdir
    # needs Python 3.11
    with tempfile.TemporaryDirectory() as tmp:
        for name, content in files.items():
            (Path(tmp) / name).write_bytes(content)
        buf = io.StringIO()
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(buf):
                code = run([arg.replace("@", tmp + "/") for arg in argv])
        finally:
            os.chdir(cwd)
    report = json.loads(buf.getvalue())
    assert isinstance(report, dict)
    assert code in (0, 1, 2)
    assert (code == 2) == ("error" in report and "outcome" not in report), (argv, report)


@settings(max_examples=200, deadline=None)
@given(case=_case())
def test_any_argv_gives_one_json_report(case):
    _run_with_files(*case)


FORMAT_ARGV = {
    "graph": ["metric", "--graph", "@graph", "--pairs", "0,1", "--geodesic"],
    "order": ["order", "compat", "--generate", "path:4", "--order", "@order", "--e", "1"],
    "selector": ["selector", "modulus", "--generate", "path:4", "--selector", "file:@selector"],
    "coord": ["qi", "verify", "--generate", "path:4", "--coord", "@coord", "--D", "3"],
    "sample": ["net", "certify", "--sample", "@sample"],
    "cert": ["qi", "verify", "--generate", "path:4", "--cert", "@cert"],
}


@settings(max_examples=120, deadline=None)
@given(kind=st.sampled_from(FORMATS), content=st.data())
def test_any_file_bytes_give_one_json_report(kind, content):
    noise = NOISE if kind != "cert" else st.one_of(NOISE, _certs(JSON_VALUES))
    _run_with_files(FORMAT_ARGV[kind], {kind: content.draw(st.one_of(noise, _file(kind, 4)))})
