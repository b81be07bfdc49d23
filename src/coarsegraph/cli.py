"""Batch front door: parse inputs, run pipelines, emit JSON reports.

Every subcommand prints one JSON report to stdout.  Exit codes: 0 success,
1 verification failure (a witness, failure point, falsification or
disconnected net), 2 input error: any ``InputError``, argparse usage errors
included, caught once in ``run``.  Option ranges (the nonnegative radii and
step bounds) are checked by the parser as it reads each option.  Reports are
byte-identical across runs for identical inputs and flags; timing is only
recorded under --timing.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import os
import sys
import time
from fractions import Fraction

from . import __version__
from . import claims as claims_mod
from . import discretize, extraction, generators, order_compat, qi_cert, search
from . import selector as selector_mod
from .graph_core import (
    Graph,
    InputError,
    InvariantError,
    PathMetric,
    build_graph,
    field_error,
    geodesic_between,
    refused,
    tokenize,
)
from .hyperspace import hausdorff_distance, pair_neighbors
from .qi_cert import fraction_text
from .selector import Holds, TwoSelector, Witness

# selector min and from-order list their table only up to this many pairs
TABLE_PAIR_CAP = 2000


def _frac(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational {text!r}: {exc}") from exc


def _ints(fields) -> tuple[int, ...]:
    try:
        return tuple(map(int, fields))
    except ValueError:
        return ()


def _int_lines(text: str, form: str):
    """(line number, tuple of ints) for each line of ``text``, one int per field of ``form``."""
    width = len(form.split())
    for lineno, fields in tokenize(text):
        values = _ints(fields)
        if len(values) != width:
            raise field_error(text, lineno, fields, (int,) * width, f"expected '{form}'")
        yield lineno, values


def parse_generate(spec: str) -> Graph:
    kind, _, rest = spec.partition(":")
    try:
        if kind == "path":
            return generators.path_graph(int(rest))
        if kind == "cycle":
            return generators.cycle_graph(int(rest))
        if kind == "grid":
            w, h = rest.split("x")
            return generators.grid_graph(int(w), int(h))
        if kind == "tripod":
            a, b, c = (int(x) for x in rest.split(","))
            return generators.tripod_graph(a, b, c)
        if kind == "comb":
            s, t = (int(x) for x in rest.split(","))
            return generators.comb_graph(s, t)
    except ValueError as exc:
        raise InputError(f"bad generator spec {spec!r}: {exc}") from exc
    raise InputError(f"unknown generator {kind!r} (use path/cycle/grid/tripod/comb)")


def parse_order_file(text: str, n: int) -> order_compat.LinearOrder:
    ranking = [v for _, (v,) in _int_lines(text, "v")]
    if sorted(ranking) != list(range(n)):
        raise InputError(f"order file must list each of 0..{n - 1} exactly once")
    return order_compat.LinearOrder.from_ranking(ranking)


def parse_selector_file(text: str, n: int) -> dict:
    """A choice for exactly the pairs of 0..n-1, one 'a b -> c' line each, checked as it is read."""
    table = {}
    for lineno, fields in tokenize(text):
        values = _ints(fields[:2] + fields[3:])
        if len(values) != 3 or fields[2] != "->":
            raise field_error(text, lineno, fields, (int, int, str, int), "expected 'a b -> c'")
        a, b, c = values
        if not (0 <= a < n and 0 <= b < n):
            v, at_fault = (b, (int, refused)) if 0 <= a < n else (a, (refused,))
            raise field_error(text, lineno, fields, at_fault, f"vertex {v} out of range 0..{n - 1}")
        if a == b:
            message = f"{{{a}, {b}}} is not a pair of distinct vertices"
            raise field_error(text, lineno, fields, (int, refused), message)
        if c not in (a, b):
            message = f"choice {c} not in pair {{{a}, {b}}}"
            raise field_error(text, lineno, fields, (int, int, str, refused), message)
        key = (a, b) if a < b else (b, a)
        if key in table:
            raise field_error(text, lineno, (), (), f"pair {{{a}, {b}}} is given twice")
        table[key] = c
    pairs = n * (n - 1) // 2
    if len(table) < pairs:
        a, b = next((a, b) for a in range(n) for b in range(a + 1, n) if (a, b) not in table)
        raise InputError(
            f"selector file gives {len(table)} of the {pairs} pairs; pair {{{a}, {b}}} has no choice"
        )
    return table


def load_graph(args) -> Graph:
    if getattr(args, "generate", None):
        return parse_generate(args.generate)
    if getattr(args, "graph", None):
        g = build_graph(edge for _, edge in _int_lines(_read(args, args.graph), "u v"))
        args.duplicate_edges = g.duplicate_edges  # reported beside the digest
        return g
    raise InputError("supply --graph FILE or --generate SPEC")


def load_selector(args, graph: Graph) -> TwoSelector:
    spec = args.selector
    if spec in ("min", "lexmin"):
        # ids are row-major on generated grids, so lexmin and min coincide
        return selector_mod.min_selector(list(range(graph.vertex_count)))
    kind, _, path = spec.partition(":")
    if kind == "order":
        return selector_mod.order_to_selector(_load_order(args, path, graph.vertex_count))
    if kind == "file":
        table = parse_selector_file(_read(args, path), graph.vertex_count)
        return selector_mod.selector_from_table(table)
    raise InputError(f"unknown selector spec {spec!r}")


def _load_graph_and_selector(args) -> tuple[Graph, PathMetric, TwoSelector]:
    g = load_graph(args)
    return g, PathMetric(g), load_selector(args, g)


def _read(args, path: str) -> str:
    """The text of ``path``, read once per run and kept for the report's digest."""
    if path not in args.texts:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                args.texts[path] = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot read {path}: {exc}") from exc
    return args.texts[path]


def _digest(args) -> dict:
    """sha256 over every option and the text of every file the run read, and
    the number of repeated edges dropped from a graph file, if any."""
    h = hashlib.sha256()
    for key in sorted(vars(args)):
        if key in ("func", "texts", "timing", "duplicate_edges"):
            continue
        value = getattr(args, key)
        h.update(f"{key}={value!r}\n".encode())
        path = str(value).partition(":")[2] if key == "selector" else value
        if key in ("cert", "coord", "graph", "order", "sample", "selector") and path in args.texts:
            h.update(args.texts[path].encode())
    inputs = {"sha256": h.hexdigest()}
    if getattr(args, "duplicate_edges", 0):
        inputs["duplicate_edges"] = args.duplicate_edges
    return inputs


def _vertex_list(text: str, graph: Graph) -> list[int]:
    try:
        ids = [int(x) for x in text.split(",") if x != ""]
    except ValueError as exc:
        raise InputError(f"bad vertex list {text!r}: {exc}") from exc
    return [_check_vertex(graph, v) for v in ids]


def _check_vertex(g: Graph, v: int) -> int:
    if not 0 <= v < g.vertex_count:
        raise InputError(f"vertex {v} out of range 0..{g.vertex_count - 1}")
    return v


def _pair(text: str, graph: Graph, flag: str) -> list[int]:
    pair = _vertex_list(text, graph)
    if len(pair) != 2:
        raise InputError(f"{flag} takes exactly two ids, got {text!r}")
    return pair


def _cert_payload(cert: qi_cert.QuasiIsometryCert) -> dict:
    return {
        "coord": [[v, cert.coord[v]] for v in sorted(cert.coord)],
        "lambda": fraction_text(cert.lam),
        "C": cert.C,
        "D": cert.D,
    }


def _witness_payload(w: Witness) -> dict:
    return {"pair_a": list(w.pair_a), "pair_b": list(w.pair_b)}


# --- subcommand handlers: return (outcome dict, exit code) ---------------


def cmd_metric(args):
    g = load_graph(args)
    m = PathMetric(g)
    out = []
    for spec in args.pairs:
        u, v = _pair(spec, g, "--pairs")
        entry = {"u": u, "v": v, "d": m.distance(u, v)}
        if args.geodesic:
            entry["geodesic"] = list(geodesic_between(m, u, v))
        out.append(entry)
    return {"distances": out, "vertices": g.vertex_count}, 0


def cmd_hausdorff(args):
    g = load_graph(args)
    m = PathMetric(g)
    A = _vertex_list(args.set_a, g)
    B = _vertex_list(args.set_b, g)
    d = hausdorff_distance(m, A, B)
    outcome = {"set_a": sorted(set(A)), "set_b": sorted(set(B)), "d_H": d}
    if args.neighbors_of:
        pair = _pair(args.neighbors_of, g, "--neighbors-of")
        if pair[0] == pair[1]:
            raise InputError(f"--neighbors-of takes two distinct ids, got {args.neighbors_of!r}")
        outcome["pair_neighbors"] = sorted(
            list(p) for p in pair_neighbors(m, tuple(pair))
        )
    return outcome, 0


def cmd_selector_modulus(args):
    _, m, f = _load_graph_and_selector(args)
    res = selector_mod.modulus(m, f)
    return {
        "r": res.r,
        "witness": None if res.witness is None else _witness_payload(res.witness),
    }, 0


def cmd_selector_verify(args):
    _, m, f = _load_graph_and_selector(args)
    payload, code = _outcome_payload(selector_mod.verify_selector(m, f, args.r))
    return {"r": args.r, **payload}, code


def cmd_selector_table(args):
    """selector min and selector from-order: one selector's modulus and table."""
    g = load_graph(args)
    m = PathMetric(g)
    n = g.vertex_count
    if args.subcommand == "min":
        f = selector_mod.min_selector(list(range(n)))
    else:
        f = selector_mod.order_to_selector(_load_order(args, args.order, n))
    r = selector_mod.modulus(m, f).r
    table = None
    if n * (n - 1) // 2 <= TABLE_PAIR_CAP:
        table = [[a, b, f.choose(a, b)] for a in range(n) for b in range(a + 1, n)]
    return {"r": r, "table": table}, 0


def cmd_selector_search(args):
    g = load_graph(args)
    outcomes = search.min_modulus_search(g, args.r_cap, node_budget=args.budget)
    payload = [
        {"r": oc.r, "feasible": isinstance(oc, search.Feasible), "nodes": oc.nodes}
        for oc in outcomes
    ]
    infeasible = [oc for oc in outcomes if isinstance(oc, search.Infeasible)]
    if infeasible:
        # infeasibility is monotone in r, so the last refutation covers every smaller r
        ref = infeasible[-1].refutation
        payload[len(infeasible) - 1]["refutation"] = {
            "pair": ref.pair,
            "branches": [{"steps": b.steps, "conflict": b.conflict} for b in ref.branches],
        }
    feasible = [e["r"] for e in payload if e["feasible"]]
    return {
        "outcomes": payload,
        "minimal_modulus": feasible[0] if feasible else None,
    }, 0


def _outcome_payload(outcome):
    """The verdict fields of a selector or claim outcome, and its exit code."""
    if isinstance(outcome, Holds):
        return {"verdict": "holds"}, 0
    if isinstance(outcome, Witness):
        return {
            "verdict": "witness",
            "witness": _witness_payload(outcome),
        }, 1
    if isinstance(outcome, claims_mod.HypothesisUnmet):
        return {"verdict": "hypothesis_unmet", "reason": outcome.reason}, 0
    if isinstance(outcome, claims_mod.LeftEnd):
        return {"verdict": "left_end", "j": outcome.j}, 0
    if isinstance(outcome, claims_mod.RightEnd):
        return {"verdict": "right_end", "j": outcome.j}, 0
    raise InvariantError(f"unknown outcome {outcome!r}")


def cmd_claims_c1(args):
    g, m, f = _load_graph_and_selector(args)
    for v in (args.v, args.a, args.b):
        _check_vertex(g, v)
    outcome = claims_mod.claim1_propagate(m, f, args.r, args.v, args.a, args.b, args.p)
    return _outcome_payload(outcome)


def cmd_claims_c2(args):
    g, m, f = _load_graph_and_selector(args)
    config = claims_mod.ClaimConfig(
        v=_check_vertex(g, args.v), z=tuple(_vertex_list(args.z, g)), p=args.p
    )
    outcome = claims_mod.claim2_check(m, f, args.r, config)
    return _outcome_payload(outcome)


def cmd_claims_c3(args):
    g, m, f = _load_graph_and_selector(args)
    outcome = claims_mod.claim3_side(
        m, f, args.r, _vertex_list(args.z, g), _check_vertex(g, args.v), args.p, q=args.q
    )
    return _outcome_payload(outcome)


def cmd_extract(args):
    _, m, f = _load_graph_and_selector(args)
    result = extraction.extract_line(m, f, r=args.assert_r)
    diag = dict(result.diagnostics)
    diag["anomalies"] = list(diag.get("anomalies", []))
    if isinstance(result, extraction.Bounded):
        return {"result": "bounded", "radius": result.radius, "diagnostics": diag}, 0
    if isinstance(result, extraction.Falsified):
        return {
            "result": "falsified",
            "witness": _witness_payload(result.witness),
            "diagnostics": diag,
        }, 1
    kind = "ray" if isinstance(result, extraction.Ray) else "line"
    return {
        "result": kind,
        "certificate": _cert_payload(result.cert),
        "diagnostics": diag,
    }, 0


def _json_int(value) -> int:
    """A JSON integer; a float or a bool is refused, never truncated."""
    if type(value) is not int:
        raise TypeError(f"{value!r} is not a JSON integer")
    return value


def _load_cert(args) -> qi_cert.QuasiIsometryCert:
    if args.cert:
        try:
            block = json.loads(_read(args, args.cert))
        except ValueError as exc:
            raise InputError(f"bad certificate JSON: {exc}") from exc
        for key in ("outcome", "certificate"):
            if isinstance(block, dict) and key in block:
                block = block[key]
        try:
            coord = {}
            for v, c in block["coord"]:
                if _json_int(v) in coord:
                    raise ValueError(f"vertex {v} is given twice")
                coord[v] = _json_int(c)
            lam, C, D = block["lambda"], _json_int(block["C"]), _json_int(block["D"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad certificate payload: {exc}") from exc
        return qi_cert.QuasiIsometryCert(coord, _frac(str(lam)), C, D)
    if not args.coord:
        raise InputError("supply --cert FILE or --coord FILE with --lam/--C/--D")
    text = _read(args, args.coord)
    coord = {}
    for lineno, (v, value) in _int_lines(text, "vertex value"):
        if v in coord:
            raise field_error(text, lineno, (), (), f"vertex {v} is given twice")
        coord[v] = value
    return qi_cert.QuasiIsometryCert(coord, _frac(args.lam), args.c_const, args.d_const)


def cmd_qi_verify(args):
    g = load_graph(args)
    m = PathMetric(g)
    cert = _load_cert(args)
    verdict = qi_cert.verify_qi(m, cert)
    if isinstance(verdict, qi_cert.Valid):
        return {"verdict": "valid", "certificate": _cert_payload(cert)}, 0
    payload = {"verdict": "failure", "u": verdict.u}
    if verdict.v is not None:
        payload["v"] = verdict.v
        payload["kind"] = "distance_bound"
    else:
        payload["kind"] = "coverage"
    return payload, 1


def _load_space(args) -> discretize.FiniteMetricSpace:
    if args.sample:
        return discretize.parse_sample_file(_read(args, args.sample))
    if not args.shape:
        raise InputError("supply --shape KIND:DIMS --step Q or --sample FILE")
    kind, _, rest = args.shape.partition(":")
    dims = rest.split("x") if kind == "rectangle" else [rest]
    if kind == "rectangle" and len(dims) != 2:
        raise InputError(f"bad shape {args.shape!r}: use rectangle:WxH")
    return discretize.sample_space((kind, *map(_frac, dims)), _frac(args.step))


def _point_label(pt) -> str:
    if isinstance(pt, tuple):
        return "(" + ",".join(fraction_text(x) for x in pt) + ")"
    return fraction_text(pt)


def cmd_net(args):
    """net build and net certify: a disconnected net graph is an exit-1 outcome of both."""
    space = _load_space(args)
    net = discretize.greedy_net(space)
    labels = [_point_label(space.points[i]) for i in net]
    try:
        graph = discretize.net_graph(space, net)
    except discretize.DisconnectedNetGraph as exc:
        return {"net": labels, "error": "disconnected_net_graph", "components": exc.components}, 1
    if args.subcommand == "build":
        return {
            "net": labels,
            "net_indices": list(net),
            "edges": graph.edge_list(),
            "vertices": graph.vertex_count,
        }, 0
    cert = discretize.certify_net(space, net, graph)
    return {
        "net_indices": list(net),
        "largeness": fraction_text(cert.largeness),
        "max_ambient_over_4graph": fraction_text(cert.max_ambient_over_4graph),
        "max_4graph_over_ambient": fraction_text(cert.max_4graph_over_ambient),
    }, 0


def cmd_sample(args):
    space = _load_space(args)
    text = discretize.write_sample_file(space)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {args.out}: {exc}") from exc
    return {
        "points": space.n,
        "delta": fraction_text(space.delta),
        "written": args.out,
    }, 0


def _load_order(args, spec: str | None, n: int) -> order_compat.LinearOrder:
    """The order ``spec`` names: 'natural' (or no order at all) or an order file."""
    if spec in ("natural", None):
        return order_compat.LinearOrder.natural(n)
    return parse_order_file(_read(args, spec), n)


def cmd_order_compat(args):
    g = load_graph(args)
    m = PathMetric(g)
    order = _load_order(args, args.order, g.vertex_count)
    report = order_compat.min_compat_radius(m, order, args.e, cap=args.cap)
    sel_r = selector_mod.modulus(m, selector_mod.order_to_selector(order)).r
    payload = {"e": report.e, "order_selector_modulus": sel_r}
    if isinstance(report.result, order_compat.MinimalG):
        payload["result"] = {"g": report.result.g}
    else:
        payload["result"] = {"not_found_cap": report.result.cap}
        payload["violations"] = [list(t) for t in report.violations]
    return payload, 0


def cmd_order_interval(args):
    g = load_graph(args)
    m = PathMetric(g)
    order = _load_order(args, args.order, g.vertex_count)
    verdict = order_compat.is_interval_entourage(m, order, args.e)
    if verdict is True:
        return {"e": args.e, "interval": True}, 0
    return {
        "e": args.e,
        "interval": False,
        "counterexample": {"x": verdict.x, "gap_vertex": verdict.gap_vertex},
    }, 0


def _command_name(words) -> str | None:
    """The dotted name of a (sub)command, as in ``selector.verify``."""
    return ".".join(w for w in words if w) or None


class _Parser(argparse.ArgumentParser):
    """A usage error is an input error, named by the parser that found it."""

    def error(self, message):
        exc = InputError(message)
        exc.command = _command_name(self.prog.split()[1:])
        raise exc


class _Nonnegative(argparse.Action):
    """An int option that must be nonnegative, checked as the parser reads it."""

    def __call__(self, parser, namespace, value, option_string=None):
        if value < 0:
            parser.error(f"{self.option_strings[0]} must be nonnegative, got {value}")
        setattr(namespace, self.dest, value)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument tree, built once per process and reused by every ``run``.

    Options shared by several leaves are declared once, in parent parsers;
    each ``*_input`` parent adds its options to those of the one it extends.
    """

    def parent(*parents) -> _Parser:
        return _Parser(add_help=False, parents=parents)

    def leaf(subparsers, name, func, *parents, **kwargs) -> _Parser:
        p = subparsers.add_parser(name, parents=parents, **kwargs)
        p.set_defaults(func=func)
        return p

    graph = parent()
    graph.add_argument("--graph", help="edge list file: one 'u v' per line")
    graph.add_argument("--generate", help="path:N | cycle:N | grid:WxH | tripod:A,B,C | comb:S,T")
    timing = parent()
    timing.add_argument("--timing", action="store_true", help="record wall time in the report")
    graph_input = parent(graph, timing)
    selector_input = parent(graph_input)
    selector_input.add_argument("--selector", required=True)
    radius_input = parent(selector_input)
    radius_input.add_argument("--r", type=int, action=_Nonnegative, required=True)
    claim_input = parent(radius_input)
    claim_input.add_argument("--p", type=int, action=_Nonnegative, required=True)
    claim_input.add_argument("--v", type=int, required=True)
    order_input = parent(graph_input)
    order_input.add_argument("--order", help="order file, or 'natural'")
    order_input.add_argument("--e", type=int, action=_Nonnegative, required=True)

    def shape(required: bool) -> _Parser:
        p = parent()
        p.add_argument("--shape", required=required, help="segment:L | circle:C | rectangle:WxH")
        p.add_argument("--step", default="1/2")
        return p

    parser = _Parser(prog="coarsegraph")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = leaf(sub, "metric", cmd_metric, graph_input, help="distances and geodesics")
    p.add_argument("--pairs", action="append", required=True, metavar="U,V")
    p.add_argument("--geodesic", action="store_true")

    p = leaf(sub, "hausdorff", cmd_hausdorff, graph_input, help="Hausdorff distance between vertex sets")
    p.add_argument("--set-a", required=True)
    p.add_argument("--set-b", required=True)
    p.add_argument("--neighbors-of", help="also list all pairs within d_H 1 of this pair")

    ps = sub.add_parser("selector", help="selector operations")
    ssub = ps.add_subparsers(dest="subcommand", required=True)
    leaf(ssub, "modulus", cmd_selector_modulus, selector_input)
    leaf(ssub, "verify", cmd_selector_verify, radius_input)
    leaf(ssub, "min", cmd_selector_table, graph_input)
    q = leaf(ssub, "from-order", cmd_selector_table, graph_input)
    q.add_argument("--order", required=True, help="order file, or 'natural'")
    q = leaf(ssub, "search", cmd_selector_search, graph_input)
    q.add_argument("--r-cap", type=int, action=_Nonnegative, required=True)
    q.add_argument("--budget", type=int, action=_Nonnegative, default=500_000)

    pc = sub.add_parser("claims", help="consistency checks against a claimed modulus")
    csub = pc.add_subparsers(dest="subcommand", required=True)
    q = leaf(csub, "c1", cmd_claims_c1, claim_input)
    q.add_argument("--a", type=int, required=True)
    q.add_argument("--b", type=int, required=True)
    q = leaf(csub, "c2", cmd_claims_c2, claim_input)
    q.add_argument("--z", required=True, metavar="Z0,Z1,...")
    q = leaf(csub, "c3", cmd_claims_c3, claim_input)
    q.add_argument("--z", required=True, metavar="Z0,Z1,...")
    q.add_argument("--q", type=int, action=_Nonnegative, default=None)

    p = leaf(sub, "extract", cmd_extract, selector_input, help="coarse ray/line extraction")
    p.add_argument("--assert-r", type=int, action=_Nonnegative, default=None)

    pq = sub.add_parser("qi", help="quasi-isometry certificates")
    qsub = pq.add_subparsers(dest="subcommand", required=True)
    q = leaf(qsub, "verify", cmd_qi_verify, graph_input)
    q.add_argument("--cert", help="JSON report or certificate block")
    q.add_argument("--coord", help="file with 'vertex value' lines")
    q.add_argument("--lam", default="1")
    q.add_argument("--C", dest="c_const", type=int, default=0)
    q.add_argument("--D", dest="d_const", type=int, default=0)

    pn = sub.add_parser("net", help="separation nets on metric samples")
    nsub = pn.add_subparsers(dest="subcommand", required=True)
    net_shape = shape(required=False)
    for name in ("build", "certify"):
        leaf(nsub, name, cmd_net, net_shape, timing).add_argument("--sample", help="metric sample file")

    p = leaf(sub, "sample", cmd_sample, shape(required=True), timing, help="emit a metric sample file")
    p.add_argument("--out")
    p.set_defaults(sample=None)

    po = sub.add_parser("order", help="order compatibility")
    osub = po.add_subparsers(dest="subcommand", required=True)
    leaf(osub, "compat", cmd_order_compat, order_input).add_argument("--cap", type=int, default=None)
    leaf(osub, "interval", cmd_order_interval, order_input)

    return parser


def run(argv) -> int:
    command = None
    try:
        args, extra = build_parser().parse_known_args(argv)
        command = _command_name([args.command, getattr(args, "subcommand", None)])
        if extra:
            raise InputError(f"unrecognized arguments: {' '.join(extra)}")
        args.texts = {}
        started = time.monotonic()
        outcome, code = args.func(args)
        elapsed = round((time.monotonic() - started) * 1000.0, 3)
        report = {
            "command": command,
            "inputs": _digest(args),
            "outcome": outcome,
            "timing_ms": elapsed if args.timing else None,
            "version": __version__,
        }
    except InputError as exc:
        code = 2
        command = getattr(exc, "command", command)
        report = {"command": command, "error": str(exc), "version": __version__}
    print(json.dumps(report, sort_keys=True, indent=2))
    return code


class _QuietOnClosedPipe:
    """A text stream that goes quiet once the reader closes its pipe.

    The first BrokenPipeError points the stream's descriptor at os.devnull,
    as the Python docs advise for SIGPIPE, so the rest of the report and the
    interpreter's flush at exit go nowhere and the command keeps its exit code.
    """

    def __init__(self, stream):
        self._stream = stream

    def _to_devnull(self) -> None:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, self._stream.fileno())
        os.close(devnull)

    def write(self, text: str) -> int:
        try:
            return self._stream.write(text)
        except BrokenPipeError:
            self._to_devnull()
            return len(text)

    def flush(self) -> None:
        try:
            self._stream.flush()
        except BrokenPipeError:
            self._to_devnull()


def main() -> None:
    with contextlib.redirect_stdout(_QuietOnClosedPipe(sys.stdout)):
        code = run(sys.argv[1:])
        sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
