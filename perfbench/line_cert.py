"""line_cert: extraction of coarse rays and lines, and their certificates.

Each round runs ``extract`` and then ``qi verify`` on the report it wrote,
over paths and ladders, re-verifies tampered certificates (exit 1 naming the
first failure is the expected outcome), runs sub-threshold inputs that must
come back bounded, and runs criterion 9's chain on sampled segments and
circles: ``sample``, ``net build``, ``net certify``, ``extract`` on the net
graph, ``qi verify``.
"""
from __future__ import annotations

import json
import os
import random
from fractions import Fraction

import checks
from harness import Cli, spread

# (family, count, low, high), sizes stratified in size ** 2, the growth of
# the certificate's pair scans; ladders are grid:Lxk with k rows, "ray" and
# "line" are paths: 51 to 113 vertices give a line with no probe, longer ones
# a ray after a probe.
LINES = [
    ("ray", 10, 114, 150),
    ("line", 6, 52, 112),
    ("grid2", 3, 90, 130),
    ("grid3", 2, 118, 140),
    ("grid4", 1, 148, 152),
]
BOUNDED = [("path", 8, 20, 50), ("grid2", 6, 20, 60), ("grid3", 6, 20, 60), ("grid4", 6, 20, 60)]
# per family, in order of size, the tampered certificate each line group also
# verifies: D - 1 on ladders (whose lines leave D > 0), a moved coordinate or
# an under-claimed lambda on paths (lambda = 1, D = 0 there)
TAMPER = {
    "ray": ["coord", "lambda"],
    "line": ["coord", "lambda"],
    "grid2": ["D", "D", "D"],
    "grid3": ["D", "D"],
    "grid4": ["D"],
}
SEGMENTS = (126, 130)  # one long segment whose net graph is a line
SHORT_SEGMENTS = (20, 60)  # one whose net graph lies below the seed length
CIRCLES = (3, 10, 40)  # count, circumference range


def _spec(family: str, size: int) -> str:
    return f"grid:{size}x{family[-1]}" if family.startswith("grid") else f"path:{size}"


def setup(seed: int, workdir: str) -> dict:
    rng = random.Random(f"line_cert:{seed}")
    os.makedirs(workdir, exist_ok=True)
    groups = []
    for fam, k, lo, hi in LINES:
        sizes = sorted(spread(rng, k, lo, hi, 2))
        tampers = TAMPER[fam] + [None] * k
        groups += [("line", _spec(fam, s), t) for s, t in zip(sizes, tampers)]
    groups += [("bounded", _spec(fam, s), None) for fam, k, lo, hi in BOUNDED for s in spread(rng, k, lo, hi)]
    groups.append(("chain", f"segment:{spread(rng, 1, *SEGMENTS)[0]}", None))
    groups.append(("chain", f"segment:{spread(rng, 1, *SHORT_SEGMENTS)[0]}", None))
    k, lo, hi = CIRCLES
    groups += [("chain", f"circle:{c}", None) for c in spread(rng, k, lo, hi, 2)]
    rng.shuffle(groups)
    return {"groups": groups}


def jobs(plan, ctx):
    for i, (kind, spec, tamper) in enumerate(plan["groups"]):
        if kind == "chain":
            yield from _chain(ctx, i, spec)
            continue
        g = ctx.once(spec, lambda: checks.Graph.from_spec(spec))
        graph_args = ["--generate", spec]
        res = yield Cli("extract", ["extract", *graph_args, "--selector", "min"])
        if not res.ok:
            continue
        outcome = _check_extract(ctx, spec, g, res.out)
        if outcome != "certificate":
            ctx.check(kind == "bounded", f"{spec}: expected a ray or line")
            continue
        ctx.check(kind == "line", f"{spec}: expected bounded")
        yield from _verify_report(ctx, i, spec, g, graph_args, res.out, tamper)


def _verify_report(ctx, i, spec, g, graph_args, report, tamper):
    path = os.path.join(ctx.workdir, f"report{i}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    res = yield Cli("qi verify", ["qi", "verify", *graph_args, "--cert", path])
    if res.ok:
        ctx.check(
            res.out["outcome"]["verdict"] == "valid"
            and res.out["outcome"]["certificate"] == report["outcome"]["certificate"],
            f"{spec}: qi verify did not return the emitted certificate as valid",
        )
    if tamper is None:
        return
    cert = _tampered(report["outcome"]["certificate"], tamper)
    path = os.path.join(ctx.workdir, f"tampered{i}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cert, fh)
    res = yield Cli("qi verify tampered", ["qi", "verify", *graph_args, "--cert", path], expect=(1,))
    if not res.ok:
        return
    coord = {v: c for v, c in cert["coord"]}
    first = ctx.once(
        ("first failure", spec, json.dumps(cert)),
        lambda: checks.cert_first_failure(g, coord, Fraction(cert["lambda"]), cert["C"], cert["D"]),
    )
    out = res.out["outcome"]
    got = ("pair", out["u"], out["v"]) if out.get("kind") == "distance_bound" else ("cover", out.get("u"))
    ctx.check(first is not None and got == first,
              f"{spec}: tampered ({tamper}) certificate failure {got}, checker finds {first}")


def _tampered(cert: dict, kind: str) -> dict:
    """A certificate that must fail: D - 1, lambda below need, or one coordinate moved.

    lambda = 1 cannot be lowered, so the "lambda" kind doubles every
    coordinate (which needs lambda = 2) and claims 3/2.
    """
    cert = json.loads(json.dumps(cert))
    if kind == "D" and cert["D"] >= 1:
        cert["D"] -= 1
    elif kind == "lambda":
        cert["coord"] = [[v, 2 * c] for v, c in cert["coord"]]
        cert["lambda"] = "3/2"
    else:
        mid = cert["coord"][len(cert["coord"]) // 2]
        mid[1] += 3 * max(abs(c) for _, c in cert["coord"]) + 10
    return cert


def _expected_r(ctx, spec, g) -> int:
    """Modulus of the min selector: 1 on paths, brute force elsewhere."""
    if g.kind == "path":
        return 1
    return ctx.once(("r", spec), lambda: checks.brute_modulus(g, checks.Choice(g.n, coord=range(g.n))))


def _check_extract(ctx, spec, g, report) -> str:
    """Check an extract report; returns "bounded", "certificate" or "bad"."""
    out = report["outcome"]
    r = _expected_r(ctx, spec, g)
    diag = out.get("diagnostics", {})
    if not ctx.check(diag.get("computed_r") == r, f"{spec}: computed r {diag.get('computed_r')} != {r}"):
        return "bad"
    seed_length = 16 * (2 * r + 1) + 2
    diameter = g.diameter()
    if diameter < seed_length:
        ctx.check(out["result"] == "bounded" and out["radius"] == diameter,
                  f"{spec}: diameter {diameter} < {seed_length} but result {out['result']}")
        return "bounded"
    if not ctx.check(out["result"] in ("ray", "line"), f"{spec}: result {out['result']}"):
        return "bad"
    cert = out["certificate"]
    key = ("cert", spec, json.dumps(cert))

    def recheck():
        coord = {v: c for v, c in cert["coord"]}
        if not all(0 <= v < g.n for v in coord):
            return "coordinate names a vertex outside the graph"
        lam = Fraction(cert["lambda"])
        if lam < 1 or cert["C"] < 0:
            return f"lambda {lam}, C {cert['C']}"
        first = checks.cert_first_failure(g, coord, lam, cert["C"], cert["D"])
        if first is not None:
            return f"bound fails at {first}"
        cover = checks.covering_radius(g, list(coord))
        if cover != cert["D"]:
            return f"D = {cert['D']} but the covering radius is {cover}"
        return None

    problem = ctx.once(key, recheck)
    ctx.check(problem is None, f"{spec}: certificate {problem}")
    return "certificate"


def _chain(ctx, i, shape):
    kind, _, size = shape.partition(":")
    halves = 2 * int(size)
    net, edges, largeness = ctx.once(("net", shape), lambda: checks.expected_net(kind, halves))
    sample = os.path.join(ctx.workdir, f"chain{i}.sample")
    res = yield Cli("sample", ["sample", "--shape", shape, "--step", "1/2", "--out", sample])
    if not res.ok:
        return
    points = halves + 1 if kind == "segment" else halves
    ctx.check(res.out["outcome"]["points"] == points, f"{shape}: {res.out['outcome']['points']} points")
    res = yield Cli("net build", ["net", "build", "--sample", sample])
    if not res.ok:
        return
    out = res.out["outcome"]
    ctx.check(out["net_indices"] == net, f"{shape}: net {out['net_indices']}, expected {net}")
    ctx.check([tuple(e) for e in out["edges"]] == edges, f"{shape}: net graph edges differ")
    if kind == "segment":
        ctx.check(all(x % 5 == 0 for x in net) and edges == [(a, a + 1) for a in range(len(net) - 1)],
                  f"{shape}: segment net is not a path at multiples of 5/2")
    graph_file = os.path.join(ctx.workdir, f"chain{i}.graph")
    with open(graph_file, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{u} {v}\n" for u, v in out["edges"]))
    # the long segment's certificate would parse its sample a second time;
    # largeness is certified on the shorter shapes
    if len(net) <= 50:
        res = yield Cli("net certify", ["net", "certify", "--sample", sample])
        if res.ok:
            got = Fraction(res.out["outcome"]["largeness"])
            ctx.check(got == Fraction(largeness, 2) and got <= 2, f"{shape}: largeness {got}")
    if kind == "segment":  # its edges were checked to form a path
        g = ctx.once(("path", shape), lambda: checks.Graph("path", len(net)))
    else:
        g = ctx.once(("graph", shape), lambda: checks.Graph("edges", len(net), edges=edges))
    graph_args = ["--graph", graph_file]
    res = yield Cli("extract", ["extract", *graph_args, "--selector", "min"])
    if res.ok and _check_extract(ctx, shape, g, res.out) == "certificate":
        yield from _verify_report(ctx, i, shape, g, graph_args, res.out, None)
