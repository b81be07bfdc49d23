from __future__ import annotations

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import coarsegraph
from coarsegraph.cli import run


def _capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def test_metric_distance(capsys):
    code, out = _capture(capsys, ["metric", "--generate", "path:4", "--pairs", "0,3"])
    assert code == 0
    report = json.loads(out)
    assert report["outcome"]["distances"][0]["d"] == 3
    assert report["timing_ms"] is None


def test_reports_are_byte_identical(capsys):
    argv = ["selector", "modulus", "--generate", "grid:4x4", "--selector", "lexmin"]
    _, first = _capture(capsys, argv)
    _, second = _capture(capsys, argv)
    assert first == second


def test_selector_modulus_lexmin_grid(capsys):
    code, out = _capture(
        capsys, ["selector", "modulus", "--generate", "grid:4x4", "--selector", "lexmin"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["outcome"]["r"] == 4
    assert report["outcome"]["witness"]["pair_a"]


def test_selector_verify_witness_exit_code(capsys):
    code, out = _capture(
        capsys,
        ["selector", "verify", "--generate", "path:10", "--selector", "min", "--r", "0"],
    )
    assert code == 1
    assert json.loads(out)["outcome"]["verdict"] == "witness"


def test_extract_round_trips_through_qi_verify(capsys, tmp_path):
    code, out = _capture(
        capsys, ["extract", "--generate", "path:120", "--selector", "min"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["outcome"]["result"] in ("ray", "line")
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(out)
    code, out = _capture(
        capsys,
        ["qi", "verify", "--generate", "path:120", "--cert", str(cert_file)],
    )
    assert code == 0
    assert json.loads(out)["outcome"]["verdict"] == "valid"


def test_qi_verify_failure_exit_code(capsys, tmp_path):
    coord = tmp_path / "coord.txt"
    coord.write_text("0 0\n9 0\n")
    code, out = _capture(
        capsys,
        [
            "qi",
            "verify",
            "--generate",
            "path:10",
            "--coord",
            str(coord),
            "--lam",
            "1",
            "--D",
            "9",
        ],
    )
    assert code == 1
    report = json.loads(out)
    assert report["outcome"]["kind"] == "distance_bound"


def test_graph_file_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.edges"
    for text, position in (("0 1\n2 x\n", "line 2, column 3"), ("0 1\nx 2\n", "line 2, column 1")):
        bad.write_text(text)
        code, out = _capture(capsys, ["metric", "--graph", str(bad), "--pairs", "0,1"])
        assert code == 2
        assert json.loads(out)["error"].startswith(position)


def test_repeated_edges_are_counted_in_the_report(capsys, tmp_path):
    graph = tmp_path / "g.edges"
    for text, repeats in (("0 1\n0 1\n1 2\n", 1), ("0 1\n1 0\n0 1\n1 2\n", 2), ("0 1\n1 2\n", 0)):
        graph.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["metric", "--graph", str(graph), "--pairs", "0,2"])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == "" and not caught
        inputs = json.loads(captured.out)["inputs"]
        assert inputs.get("duplicate_edges") == (repeats or None)
        assert sorted(inputs) == (["duplicate_edges", "sha256"] if repeats else ["sha256"])


def test_selector_file(capsys, tmp_path):
    sel = tmp_path / "sel.txt"
    sel.write_text("0 1 -> 1\n0 2 -> 0\n1 2 -> 1\n")
    code, out = _capture(
        capsys,
        ["selector", "modulus", "--generate", "path:3", "--selector", f"file:{sel}"],
    )
    assert code == 0
    assert json.loads(out)["outcome"]["r"] >= 0


def test_order_file_and_compat(capsys, tmp_path):
    order = tmp_path / "order.txt"
    order.write_text("\n".join(str(v) for v in range(10)) + "\n")
    code, out = _capture(
        capsys,
        ["order", "compat", "--generate", "path:10", "--order", str(order), "--e", "2"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["outcome"]["result"]["g"] == 2
    assert report["outcome"]["order_selector_modulus"] == 1


def test_order_interval_counterexample(capsys):
    code, out = _capture(
        capsys,
        ["order", "interval", "--generate", "grid:3x3", "--order", "natural", "--e", "1"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["outcome"]["interval"] is False
    assert "counterexample" in report["outcome"]


def test_net_build_and_sample_round_trip(capsys, tmp_path):
    code, out = _capture(
        capsys, ["net", "build", "--shape", "segment:10", "--step", "1/2"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["outcome"]["net"] == ["0/1", "5/2", "5/1", "15/2", "10/1"]
    assert report["outcome"]["edges"] == [[0, 1], [1, 2], [2, 3], [3, 4]]

    sample_file = tmp_path / "sample.txt"
    code, _ = _capture(
        capsys,
        ["sample", "--shape", "segment:10", "--step", "1/2", "--out", str(sample_file)],
    )
    assert code == 0
    code, out = _capture(capsys, ["net", "build", "--sample", str(sample_file)])
    assert code == 0
    assert json.loads(out)["outcome"]["edges"] == [[0, 1], [1, 2], [2, 3], [3, 4]]


def test_net_certify(capsys):
    code, out = _capture(
        capsys, ["net", "certify", "--shape", "segment:10", "--step", "1/2"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["outcome"]["largeness"] == "1/1"


def test_claims_c1(capsys):
    code, out = _capture(
        capsys,
        [
            "claims", "c1", "--generate", "path:20", "--selector", "min",
            "--r", "1", "--p", "2", "--v", "19", "--a", "10", "--b", "12",
        ],
    )
    assert code == 0
    assert json.loads(out)["outcome"]["verdict"] == "holds"


def test_claims_c3(capsys):
    code, out = _capture(
        capsys,
        [
            "claims", "c3", "--generate", "path:40", "--selector", "min",
            "--r", "1", "--p", "1", "--v", "39",
            "--z", ",".join(str(i) for i in range(31)),
        ],
    )
    assert code == 0
    report = json.loads(out)
    assert report["outcome"]["verdict"] == "right_end"
    assert report["outcome"]["j"] == 30


def test_extract_falsified_exit_code(capsys, tmp_path):
    # a constant-flip tournament on a grid is not modulus-1
    sel_lines = []
    n = 16
    for a in range(n):
        for b in range(a + 1, n):
            sel_lines.append(f"{a} {b} -> {b if (a + b) % 3 else a}")
    sel = tmp_path / "sel.txt"
    sel.write_text("\n".join(sel_lines) + "\n")
    code, out = _capture(
        capsys,
        [
            "extract", "--generate", "grid:4x4",
            "--selector", f"file:{sel}", "--assert-r", "1",
        ],
    )
    report = json.loads(out)
    if report["outcome"]["result"] == "falsified":
        assert code == 1
    else:
        assert report["outcome"]["result"] == "bounded"


def test_selector_search_cli(capsys):
    code, out = _capture(
        capsys, ["selector", "search", "--generate", "path:4", "--r-cap", "2"]
    )
    assert code == 0
    assert json.loads(out)["outcome"]["minimal_modulus"] == 1


def test_missing_graph_is_input_error(capsys):
    code, out = _capture(capsys, ["metric", "--pairs", "0,1"])
    assert code == 2


@pytest.mark.parametrize(
    "text, message",
    [
        ("points 3\n0 1 1\n0 1 1\n1 2 1\n", "line 3, column 1: pair (0, 1) is given twice"),
        ("points 2\n0 1 -5\n", "line 2, column 5: distance -5 is not positive"),
    ],
    ids=["pair-twice", "negative-distance"],
)
def test_net_certify_refuses_a_sample_that_is_not_a_metric(capsys, tmp_path, text, message):
    sample = tmp_path / "in.sample"
    sample.write_text(text)
    code, out = _capture(capsys, ["net", "certify", "--sample", str(sample)])
    assert code == 2
    assert json.loads(out)["error"] == message


@pytest.mark.parametrize(
    "flag, text, extra, message",
    [
        (
            "--selector",
            "0 1 -> 0\n0 2 -> 0\n1 2 -> 1\n1 0 -> 1\n",
            ["selector", "modulus"],
            "line 4, column 1: pair {1, 0} is given twice",
        ),
        (
            "--coord",
            "0 0\n1 1\n  1 5\n2 2\n",
            ["qi", "verify"],
            "line 3, column 3: vertex 1 is given twice",
        ),
        (
            "--cert",
            '{"coord": [[0, 0], [1, 1], [1, 5], [2, 2]], "lambda": "1", "C": 0, "D": 0}',
            ["qi", "verify"],
            "bad certificate payload: vertex 1 is given twice",
        ),
    ],
    ids=["selector-pair", "coord-vertex", "cert-vertex"],
)
def test_a_key_given_twice_is_refused(capsys, tmp_path, flag, text, extra, message):
    path = tmp_path / "input"
    path.write_text(text)
    value = f"file:{path}" if flag == "--selector" else str(path)
    code, out = _capture(capsys, [*extra, "--generate", "path:3", flag, value])
    assert code == 2
    assert json.loads(out)["error"] == message


def test_selector_from_order_natural_is_the_min_selector(capsys):
    reports = []
    for argv in (["from-order", "--order", "natural"], ["min"]):
        code, out = _capture(capsys, ["selector", *argv, "--generate", "path:6"])
        assert code == 0
        reports.append(json.loads(out)["outcome"])
    assert reports[0]["r"] == reports[1]["r"]
    assert reports[0]["table"] == reports[1]["table"]


def test_selector_order_natural_is_the_min_selector(capsys):
    reports = []
    for spec in ("order:natural", "min"):
        code, out = _capture(capsys, ["selector", "modulus", "--generate", "path:6", "--selector", spec])
        assert code == 0
        reports.append(json.loads(out)["outcome"])
    assert reports[0] == reports[1]


def test_reused_parser_keeps_no_state_between_runs(capsys):
    pairs_twice = ["metric", "--generate", "path:5", "--pairs", "0,4", "--pairs", "1,2"]
    sequence = [
        ["metric", "--generate", "path:4", "--pairs", "0,3"],
        ["selector", "verify", "--generate", "path:6", "--selector", "min"],
        ["selector", "modulus", "--generate", "path:4", "--selector", "min", "--x"],
        ["selector", "verify", "--generate", "path:6", "--selector", "min", "--r", "-1"],
        ["metric", "--generate", "bogus:3", "--pairs", "0,1"],
        pairs_twice,
        ["selector", "verify", "--generate", "path:6", "--selector", "min", "--r", "1", "--timing"],
    ]
    reports = []
    for argv in sequence + sequence:
        code, out = _capture(capsys, argv)
        report = json.loads(out)
        if report.get("timing_ms") is not None:
            report["timing_ms"] = "masked"
        reports.append((code, report))
        if argv is pairs_twice:
            assert len(report["outcome"]["distances"]) == 2
    assert [code for code, _ in reports[: len(sequence)]] == [0, 2, 2, 2, 2, 0, 0]
    assert reports[len(sequence):] == reports[: len(sequence)]


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0


@pytest.mark.parametrize("vertex", [-1, 7])
def test_qi_verify_rejects_certificate_vertex_outside_graph(capsys, tmp_path, vertex):
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps({"coord": [[0, 0], [vertex, 1]], "lambda": "1/1", "C": 0, "D": 3}))
    code, out = _capture(capsys, ["qi", "verify", "--generate", "path:4", "--cert", str(cert)])
    assert code == 2
    assert f"vertex {vertex} out of range" in json.loads(out)["error"]


def test_extract_rejects_negative_asserted_modulus(capsys):
    code, out = _capture(
        capsys, ["extract", "--generate", "path:200", "--selector", "min", "--assert-r", "-1"]
    )
    assert code == 2
    assert "--assert-r must be nonnegative" in json.loads(out)["error"]


@pytest.mark.parametrize("flag", ["--r", "--p"])
def test_claims_reject_negative_radius(capsys, flag):
    values = {"--r": "1", "--p": "2"}
    values[flag] = "-1"
    code, out = _capture(
        capsys,
        [
            "claims", "c1", "--generate", "path:20", "--selector", "min",
            "--r", values["--r"], "--p", values["--p"], "--v", "19", "--a", "10", "--b", "12",
        ],
    )
    assert code == 2
    assert f"{flag} must be nonnegative" in json.loads(out)["error"]


SELECTOR_COMMANDS = [
    (["selector", "modulus"], []),
    (["selector", "verify"], ["--r", "1"]),
    (["extract"], []),
    (["claims", "c1"], ["--r", "1", "--p", "2", "--v", "3", "--a", "0", "--b", "1"]),
    (["claims", "c2"], ["--r", "1", "--p", "2", "--v", "3", "--z", "0,1"]),
    (["claims", "c3"], ["--r", "1", "--p", "1", "--v", "3", "--z", "0,1"]),
]


def _path4_table(tmp_path, drop=(), extra=""):
    pairs = [(a, b) for a in range(4) for b in range(a + 1, 4) if (a, b) not in drop]
    sel = tmp_path / "sel.txt"
    sel.write_text("".join(f"{a} {b} -> {a}\n" for a, b in pairs) + extra)
    return sel


@pytest.mark.parametrize("command, options", SELECTOR_COMMANDS, ids=lambda c: " ".join(c))
@pytest.mark.parametrize(
    "table, message",
    [
        (dict(drop=[(1, 3)]), "gives 5 of the 6 pairs; pair {1, 3} has no choice"),
        (dict(extra="2 4 -> 4\n"), "line 7, column 3: vertex 4 out of range 0..3"),
        (dict(extra="2 2 -> 2\n"), "line 7, column 3: {2, 2} is not a pair of distinct vertices"),
        (dict(drop=[(2, 3)], extra="2 3 -> 1\n"), "line 6, column 8: choice 1 not in pair {2, 3}"),
        (dict(extra="-1 0 -> 0\n2 2 -> 2\n"), "line 7, column 1: vertex -1 out of range 0..3"),
    ],
    ids=["missing-pair", "vertex-out-of-range", "equal-ends", "choice-outside-pair", "range-at-its-line"],
)
def test_selector_file_must_match_graph(capsys, tmp_path, command, options, table, message):
    sel = _path4_table(tmp_path, **table)
    argv = [*command, "--generate", "path:4", "--selector", f"file:{sel}", *options]
    code, out = _capture(capsys, argv)
    assert code == 2
    assert message in json.loads(out)["error"]


def test_one_vertex_modulus_agrees_across_commands(capsys):
    # a one-vertex graph has no neighbor pair: r = 0 and no witness, everywhere
    runs = {
        "modulus": ["selector", "modulus", "--generate", "path:1", "--selector", "min"],
        "min": ["selector", "min", "--generate", "path:1"],
        "from-order": ["selector", "from-order", "--generate", "path:1", "--order", "natural"],
        "verify": ["selector", "verify", "--generate", "path:1", "--selector", "min", "--r", "0"],
        "compat": ["order", "compat", "--generate", "path:1", "--e", "0"],
        "extract": ["extract", "--generate", "path:1", "--selector", "min"],
    }
    out = {}
    for name, argv in runs.items():
        code, text = _capture(capsys, argv)
        assert code == 0, name
        out[name] = json.loads(text)["outcome"]
    assert out["modulus"] == {"r": 0, "witness": None}
    assert out["min"]["r"] == out["from-order"]["r"] == 0
    assert out["verify"] == {"r": 0, "verdict": "holds"}
    assert out["compat"]["order_selector_modulus"] == 0
    assert out["extract"]["diagnostics"]["computed_r"] == 0


@pytest.mark.parametrize("extra", [[], ["--assert-r", "0"]], ids=["computed", "asserted"])
def test_extract_on_a_one_vertex_graph_is_bounded(capsys, extra):
    code, out = _capture(capsys, ["extract", "--generate", "path:1", "--selector", "min", *extra])
    outcome = json.loads(out)["outcome"]
    assert code == 0
    assert (outcome["result"], outcome["radius"], outcome["diagnostics"]["r"]) == ("bounded", 0, 0)


def test_selector_verify_rejects_negative_radius(capsys):
    code, out = _capture(
        capsys, ["selector", "verify", "--generate", "path:6", "--selector", "min", "--r", "-1"]
    )
    assert code == 2
    assert "--r must be nonnegative" in json.loads(out)["error"]


def test_selector_search_rejects_negative_cap(capsys):
    code, out = _capture(capsys, ["selector", "search", "--generate", "path:4", "--r-cap", "-1"])
    assert code == 2
    assert "--r-cap must be nonnegative" in json.loads(out)["error"]


def test_selector_search_rejects_negative_budget(capsys):
    code, out = _capture(capsys, ["selector", "search", "--generate", "path:4", "--r-cap", "1", "--budget", "-5"])
    assert code == 2
    assert "--budget must be nonnegative" in json.loads(out)["error"]


def test_selector_search_budget_is_input_error(capsys):
    code, out = _capture(
        capsys,
        ["selector", "search", "--generate", "grid:4x4", "--r-cap", "4", "--budget", "100"],
    )
    assert code == 2
    assert "search budget exceeded after 101 nodes" in json.loads(out)["error"]


@pytest.mark.parametrize(
    "coordinate", ["1.9", "true", '"1"', "coord-file"], ids=["float", "bool", "string", "coord-line"]
)
def test_qi_verify_takes_integers_only(capsys, tmp_path, coordinate):
    if coordinate == "coord-file":
        coord = tmp_path / "coord.txt"
        coord.write_text("0 0\n1 x\n")
        source = ["--coord", str(coord)]
    else:
        cert = tmp_path / "cert.json"
        cert.write_text(f'{{"coord": [[0, 0], [1, {coordinate}], [2, 2]], "lambda": "1/1", "C": 0, "D": 0}}')
        source = ["--cert", str(cert)]
    code, out = _capture(capsys, ["qi", "verify", "--generate", "path:3", *source])
    assert code == 2
    assert "outcome" not in json.loads(out)


@pytest.mark.parametrize(
    "argv, code, check",
    [
        (["metric", "--generate", "path:4", "--pairs", "0"], 2, "--pairs takes exactly two ids"),
        (["metric", "--generate", "path:4", "--pairs", "0,1,2"], 2, "--pairs takes exactly two ids"),
        (["order", "compat", "--generate", "path:6", "--e", "-1"], 2, "--e must be nonnegative"),
        (["order", "interval", "--generate", "path:6", "--e", "-1"], 2, "--e must be nonnegative"),
        (["order", "compat", "--generate", "path:6", "--cap", "1", "--e", "3"], 2, "cap must be at least e"),
        (["hausdorff", "--generate", "path:4", "--set-a", "", "--set-b", "1"], 2, "nonempty subset"),
        (["metric", "--graph", b"0 1\n\xff\n", "--pairs", "0,1"], 2, "can't decode"),
        (["sample", "--shape", "segment:4", "--out", "missing-dir/x.sample"], 2, "cannot write"),
        (["order", "compat", "--generate", "path:2", "--e", "2"], 0, ("result", {"g": 2})),
        (
            ["claims", "c3", "--generate", "path:10", "--selector", "min",
             "--r", "1", "--p", "1", "--v", "3", "--z", ""],
            0,
            ("reason", "empty chain"),
        ),
        (["metric", "--graph", b"0 1000000\n", "--pairs", "0,1"], 2, "cannot connect"),
    ],
    ids=[
        "pairs-one", "pairs-three", "compat-negative-e", "interval-negative-e", "cap-below-e",
        "empty-set", "non-utf8-graph", "out-missing-dir", "default-cap-is-e", "c3-empty-chain",
        "max-id-beyond-edges",
    ],
)
def test_inputs_that_raised_are_json_reports(capsys, tmp_path, argv, code, check):
    argv = list(argv)
    for i, arg in enumerate(argv):
        if isinstance(arg, bytes):
            path = tmp_path / "input"
            path.write_bytes(arg)
            argv[i] = str(path)
        elif arg.startswith("missing-dir/"):
            argv[i] = str(tmp_path / arg)
    got, out = _capture(capsys, argv)
    report = json.loads(out)
    assert got == code
    if code == 2:
        assert check in report["error"]
    else:
        key, value = check
        assert report["outcome"][key] == value


@pytest.mark.parametrize("command", ["build", "certify"])
def test_net_commands_report_disconnected_net_graph(capsys, tmp_path, command):
    sample = tmp_path / "in.sample"
    sample.write_text("points 3\n0 1 1\n0 2 9\n1 2 9\n")
    code, out = _capture(capsys, ["net", command, "--sample", str(sample)])
    assert code == 1
    outcome = json.loads(out)["outcome"]
    assert outcome["error"] == "disconnected_net_graph"
    assert outcome["components"] == [[0], [1]]


@pytest.mark.parametrize(
    "argv, command",
    [
        (["selector", "verify", "--generate", "path:6", "--selector", "min", "--r", "-1"], "selector.verify"),
        (["selector", "verify", "--generate", "path:6", "--selector", "min"], "selector.verify"),
        (["selector", "verify", "--generate", "path:6", "--selector", "min", "--r", "x"], "selector.verify"),
        (["net", "certify", "--step", "1/2"], "net.certify"),
        (["selector", "modulus", "--generate", "path:4", "--selector", "min", "--x"], "selector.modulus"),
        (["selector"], "selector"),
        (["bogus"], None),
        ([], None),
    ],
    ids=[
        "input-error", "missing-option", "bad-int", "no-shape", "unrecognized", "no-subcommand",
        "unknown", "empty",
    ],
)
def test_error_reports_name_the_dotted_command(capsys, argv, command):
    code, out = _capture(capsys, argv)
    report = json.loads(out)
    assert code == 2
    assert report["command"] == command
    assert "outcome" not in report and report["error"]


def test_digest_covers_the_coord_file(capsys, tmp_path):
    digests = []
    for text in ("0 0\n1 1\n", "0 0\n1 1\n2 2\n"):
        coord = tmp_path / "coord.txt"
        coord.write_text(text)
        code, out = _capture(
            capsys, ["qi", "verify", "--generate", "path:3", "--coord", str(coord), "--D", "2"]
        )
        assert code == 0
        digests.append(json.loads(out)["inputs"]["sha256"])
    assert digests[0] != digests[1]


def _huge_inputs(tmp_path):
    sample = tmp_path / "sample.txt"
    sample.write_text("points 3\n0 1 1\n1 2 1\n0 2 1E5000\n")
    coord = tmp_path / "coord.txt"
    coord.write_text("0 0\n1 1\n2 2\n")
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps({"coord": [[0, 0], [1, 1], [2, 2]], "lambda": "1E5000", "C": 0, "D": 0}))
    tiny = ["--shape", "segment:1E-4999", "--step", "1E-5000"]
    return {
        "certify-sample": ["net", "certify", "--sample", str(sample)],
        "certify-shape": ["net", "certify", *tiny],
        "sample": ["sample", *tiny, "--out", str(tmp_path / "out.txt")],
        "qi-coord": ["qi", "verify", "--generate", "path:3", "--coord", str(coord), "--lam", "1E5000"],
        "qi-cert": ["qi", "verify", "--generate", "path:3", "--cert", str(cert)],
    }


TEN_4999 = "1" + "0" * 4999  # 10**4999, more digits than str(int) prints


@pytest.mark.parametrize(
    "name, expected",
    [
        ("certify-sample", {"largeness": "1/1", "max_ambient_over_4graph": "25" + "0" * 4998 + "/1",
                            "max_4graph_over_ambient": "1/25" + "0" * 4998}),
        ("certify-shape", {"largeness": "1/" + TEN_4999, "max_ambient_over_4graph": "0/1"}),
        ("sample", {"delta": "1/" + TEN_4999 + "0", "points": 11}),
        ("qi-coord", {"verdict": "valid"}),
        ("qi-cert", {"verdict": "valid"}),
    ],
    ids=["certify-sample", "certify-shape", "sample", "qi-coord", "qi-cert"],
)
def test_rationals_of_any_size_are_printed_exactly(capsys, tmp_path, name, expected):
    code = run(_huge_inputs(tmp_path)[name])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    outcome = json.loads(captured.out)["outcome"]
    assert expected.items() <= outcome.items()
    if name.startswith("qi"):
        assert outcome["certificate"]["lambda"] == "1" + "0" * 5000 + "/1"
    if name == "sample":
        lines = (tmp_path / "out.txt").read_text().splitlines()
        assert (lines[0], lines[1], lines[10]) == ("points 11", f"0 1 1/{TEN_4999}0", f"0 10 1/{TEN_4999}")


@pytest.mark.parametrize(
    "argv, error",
    [
        (["sample", "--shape", "segment:1", "--step", "1E5000"], f"step 1{'0' * 5000} > 1/2"),
        (["sample", "--shape", "segment:1", "--step", "3E-5000"], f"step 3/1{'0' * 5000} does not divide 1"),
        (
            ["net", "build", "--shape", "segment:1E5000", "--step", "1/2"],
            f"the sample would hold 2{'0' * 4999}1 points, above the cap of 4096",
        ),
        (["sample", "--shape", "segment:1", "--step", "1"], "step 1 > 1/2"),
    ],
    ids=["step-above-half", "step-does-not-divide", "above-the-cap", "step-one"],
)
def test_error_texts_print_every_digit(capsys, argv, error):
    # str(int) refuses more than 4,300 digits; an integer still prints without '/1'
    code = run(argv)
    captured = capsys.readouterr()
    assert (code, captured.err) == (2, "")
    report = json.loads(captured.out)
    assert report["error"] == error and "outcome" not in report



def test_a_cap_below_e_is_refused_before_any_distance(capsys, monkeypatch):
    # order compat builds the all-pairs matrix through the modulus; a bad cap never gets there
    from coarsegraph import graph_core

    def no_matrix(self):
        raise AssertionError("the all-pairs matrix was built")

    monkeypatch.setattr(graph_core.PathMetric, "dense_matrix", no_matrix)
    code, out = _capture(capsys, ["order", "compat", "--generate", "path:200", "--e", "3", "--cap", "2"])
    assert (code, json.loads(out)["error"]) == (2, "cap must be at least e")

@pytest.mark.parametrize(
    "argv, code",
    [
        (["sample", "--shape", "segment:1", "--step", "1/400"], 0),
        (["selector", "min", "--generate", "path:40"], 0),
        (["selector", "verify", "--generate", "path:5", "--selector", "min", "--r", "0"], 1),
        (["selector", "modulus", "--generate", "path:5"], 2),
    ],
    ids=["success", "success-40kB", "outcome", "input-error"],
)
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_a_closed_stdout_ends_quietly_with_the_command_code(argv, code, unbuffered):
    # the write fails inside print when unbuffered or past the 8 kB buffer,
    # otherwise at the final flush
    src = str(Path(coarsegraph.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    proc = subprocess.Popen(
        [sys.executable, "-m", "coarsegraph", *argv], stdout=write_end, stderr=subprocess.PIPE, env=env
    )
    # both ends close while the child is still starting, so its report write always fails
    os.close(write_end)
    os.close(read_end)
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err.decode()) == (code, "")
