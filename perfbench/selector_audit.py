"""selector_audit: selector moduli, verification, search and order scans.

Each selector gets ``selector modulus`` and ``selector verify`` at the
reported r (must hold) and at r - 1 (must give a witness).  Selectors are
lexmin on square grids, min on paths, order selectors from seeded random
orders, and table selectors from random tournaments and from min selectors
with a few pairs flipped.  Alongside: ``selector search``, ``order compat``,
``order interval``, ``extract`` on square grids (bounded after the modulus)
and one modulus on a path of about 2000 vertices.
"""
from __future__ import annotations

import os
import random

import checks
from harness import Cli, spread

TINY = ["path:4", "path:5", "cycle:4", "cycle:5", "cycle:6", "tripod:1,1,1",
        "tripod:1,1,2", "tripod:1,2,2", "grid:2x2", "grid:2x3", "comb:4,2", "comb:5,1"]


def _write(workdir: str, name: str, lines) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    return path


def _order(rng, workdir, name, n):
    """A seeded random order: the file lists vertices by rank."""
    by_rank = list(range(n))
    rng.shuffle(by_rank)
    rank = [0] * n
    for pos, v in enumerate(by_rank):
        rank[v] = pos
    return _write(workdir, name, (f"{v}\n" for v in by_rank)), rank


def _table(rng, workdir, name, n, flips=None):
    """All pairs: a random tournament, or the min selector with pairs flipped."""
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    if flips is None:
        table = {p: rng.choice(p) for p in pairs}
    else:
        table = {p: p[0] for p in pairs}
        for p in rng.sample(pairs, flips):
            table[p] = p[1]
    path = _write(workdir, name, (f"{a} {b} -> {c}\n" for (a, b), c in table.items()))
    return path, table


def setup(seed: int, workdir: str) -> dict:
    rng = random.Random(f"selector_audit:{seed}")
    os.makedirs(workdir, exist_ok=True)
    groups = []
    for k in spread(rng, 6, 4, 16, 4):
        groups.append(("selector", f"grid:{k}x{k}", "lexmin", None))
    for n in spread(rng, 4, 100, 500, 2):
        groups.append(("selector", f"path:{n}", "min", None))
    specs = [f"path:{n}" for n in spread(rng, 2, 30, 150, 2)] + [f"grid:{k}x{k}" for k in spread(rng, 2, 5, 10, 4)]
    for i, spec in enumerate(specs):
        path, rank = _order(rng, workdir, f"order{i}.txt", checks.Graph.from_spec(spec).n)
        groups.append(("selector", spec, f"order:{path}", {"coord": rank}))
    specs = [
        f"cycle:{spread(rng, 1, 8, 24)[0]}",
        "tripod:" + ",".join(str(a) for a in spread(rng, 3, 2, 7)),
        f"grid:3x{spread(rng, 1, 3, 6)[0]}",
        "comb:{},{}".format(*spread(rng, 1, 8, 16), *spread(rng, 1, 2, 6)),
    ]
    specs += [f"path:{n}" for n in spread(rng, 2, 60, 100, 2)] + [f"grid:{k}x3" for k in spread(rng, 2, 10, 30, 2)]
    for i, spec in enumerate(specs):
        n = checks.Graph.from_spec(spec).n
        flips = None if i < 4 else max(1, n * (n - 1) // 200)
        path, table = _table(rng, workdir, f"table{i}.txt", n, flips)
        groups.append(("selector", spec, f"file:{path}", {"table": table}))
    search = rng.sample(TINY, 3)
    search += [f"cycle:{spread(rng, 1, 10, 22)[0]}", "tripod:" + ",".join(str(a) for a in spread(rng, 3, 3, 12))]
    search += [f"grid:{k}x{k}" for k in spread(rng, 1, 4, 6)] + [f"grid:3x{k}" for k in spread(rng, 1, 3, 8)]
    # the node scale: 2036 nodes on grid:7x7 (grid:8x8 overflows the
    # search's recursion), and on cycle:2k and cycle:2k+1 alike about 8.6k
    # nodes for k = 14 and 16.8k for k = 15
    search += ["grid:7x7", f"cycle:{28 + rng.randrange(2)}", f"cycle:{30 + rng.randrange(2)}"]
    groups += [("search", spec, None, None) for spec in search]
    compat = [(f"path:{n}", "natural", e) for n, e in zip(spread(rng, 4, 50, 300, 2), spread(rng, 4, 1, 8))]
    compat += [(f"grid:{k}x{k}", "natural", 1) for k in spread(rng, 3, 5, 14, 4)]
    compat += [(f"path:{n}", None, e) for n, e in zip(spread(rng, 3, 20, 50, 2), spread(rng, 3, 1, 3))]
    interval = [(f"path:{n}", "natural", e) for n, e in zip(spread(rng, 3, 50, 300), spread(rng, 3, 1, 8))]
    interval += [(f"grid:{k}x{k}", "natural", 1) for k in spread(rng, 3, 3, 14)]
    interval += [(f"path:{n}", None, e) for n, e in zip(spread(rng, 3, 20, 60), spread(rng, 3, 1, 3))]
    for i, (kind, rows) in enumerate((("compat", compat), ("interval", interval))):
        for j, (spec, order, e) in enumerate(rows):
            n = checks.Graph.from_spec(spec).n
            if order is None:
                order, rank = _order(rng, workdir, f"{kind}{j}.txt", n)
            else:
                rank = list(range(n))
            groups.append((kind, spec, order, {"rank": rank, "e": e}))
    groups += [("extract", f"grid:{k}x{k}", None, None) for k in spread(rng, 4, 4, 12, 4)]
    groups.append(("big", f"path:{spread(rng, 1, 1990, 2010)[0]}", None, None))
    rng.shuffle(groups)
    return {"groups": groups}


def jobs(plan, ctx):
    handlers = {"selector": _selector, "search": _search, "compat": _compat,
                "interval": _interval, "extract": _extract, "big": _big}
    for kind, spec, arg, data in plan["groups"]:
        g = ctx.once(spec, lambda: checks.Graph.from_spec(spec))
        yield from handlers[kind](ctx, g, spec, arg, data)


def _choice(g, data):
    if data is None:
        return checks.Choice(g.n, coord=range(g.n))
    return checks.Choice(g.n, coord=data.get("coord"), table=data.get("table"))


def _modulus(ctx, g, spec, sel, data) -> int:
    """lexmin on grid:KxK has modulus K and min on a path 1; else brute force."""
    if sel == "lexmin" and g.kind == "grid" and g.dims[0] == g.dims[1]:
        return g.dims[0]
    if sel == "min" and g.kind == "path":
        return 1
    return ctx.once(("r", spec, sel), lambda: checks.brute_modulus(g, _choice(g, data)))


def _selector(ctx, g, spec, sel, data):
    base = ["--generate", spec, "--selector", sel]
    res = yield Cli("selector modulus", ["selector", "modulus", *base])
    if not res.ok:
        return
    f = ctx.once(("choice", spec, sel), lambda: _choice(g, data))
    r = res.out["outcome"]["r"]
    w = res.out["outcome"]["witness"]
    expected = _modulus(ctx, g, spec, sel, data)
    ctx.check(r == expected, f"{spec} {sel}: modulus {r}, checker {expected}")
    ctx.check(checks.witness_ok(g, f, r, w["pair_a"], w["pair_b"], exact=True),
              f"{spec} {sel}: modulus witness {w} does not attain r = {r}")
    res = yield Cli("selector verify", ["selector", "verify", *base, "--r", str(r)])
    if res.ok:
        ctx.check(res.out["outcome"]["verdict"] == "holds", f"{spec} {sel}: verify at r did not hold")
    res = yield Cli("selector verify", ["selector", "verify", *base, "--r", str(r - 1)], expect=(1,))
    if res.ok:
        w = res.out["outcome"]["witness"]
        ctx.check(checks.witness_ok(g, f, r - 1, w["pair_a"], w["pair_b"]),
                  f"{spec} {sel}: witness {w} at r - 1 does not re-verify")


def _search(ctx, g, spec, _arg, _data):
    r_cap = g.diameter()
    res = yield Cli("selector search", ["selector", "search", "--generate", spec, "--r-cap", str(r_cap)])
    if not res.ok:
        return
    out = res.out["outcome"]
    found = [e["feasible"] for e in out["outcomes"]]
    r_star = out["minimal_modulus"]
    ok = (
        [e["r"] for e in out["outcomes"]] == list(range(len(found)))
        and found[-1] and not any(found[:-1]) and r_star == len(found) - 1
    )
    if not ctx.check(ok, f"{spec}: search outcomes {out['outcomes']}"):
        return

    def recheck():
        # the CLI report holds no table; the library call returns the selector
        last = ctx.cg.search.min_modulus_search(ctx.cg.cli.parse_generate(spec), r_cap)[-1]
        r_sel = checks.brute_modulus(g, checks.Choice(g.n, table=last.selector.table))
        return r_sel, checks.exhaustive_min_modulus(g)

    r_sel, exact = ctx.once(("search", spec), recheck)
    ctx.check(r_sel <= r_star, f"{spec}: searched selector has modulus {r_sel} > {r_star}")
    ctx.check(exact is None or exact == r_star, f"{spec}: search {r_star}, exhaustive {exact}")


def _compat(ctx, g, spec, order, data):
    e = data["e"]
    res = yield Cli("order compat", ["order", "compat", "--generate", spec, "--order", order, "--e", str(e)])
    if not res.ok:
        return
    out = res.out["outcome"]
    g_found = out["result"].get("g")
    worst = ctx.once(("compat", spec, order, e), lambda: checks.compat_violation_radius(g, data["rank"], e))
    # holds at g iff g >= worst; the scan starts at e
    ctx.check(g_found == max(e, worst), f"{spec} e={e}: g {g_found}, checker {max(e, worst)}")
    if order == "natural" and g.kind == "path":
        ctx.check(g_found == e, f"{spec}: natural order g {g_found} != e {e}")
    if order == "natural":  # min on a path, lexmin on grid:KxK
        expected = 1 if g.kind == "path" else g.dims[0]
    else:
        expected = _modulus(ctx, g, spec, f"order:{order}", {"coord": data["rank"]})
    ctx.check(out["order_selector_modulus"] == expected,
              f"{spec}: order selector modulus {out['order_selector_modulus']} != {expected}")


def _interval(ctx, g, spec, order, data):
    e = data["e"]
    res = yield Cli("order interval", ["order", "interval", "--generate", spec, "--order", order, "--e", str(e)])
    if not res.ok:
        return
    out = res.out["outcome"]
    rank = data["rank"]
    expected = ctx.once(("interval", spec, order, e), lambda: checks.first_interval_gap(g, rank, e))
    got = None if out["interval"] else (out["counterexample"]["x"], out["counterexample"]["gap_vertex"])
    ctx.check(got == expected, f"{spec} e={e}: interval counterexample {got}, checker {expected}")
    if got is not None:
        x, gap = got
        ball = [u for u in range(g.n) if g.d(x, u) <= e]
        ranks = [rank[u] for u in ball]
        ctx.check(gap not in ball and min(ranks) < rank[gap] < max(ranks),
                  f"{spec}: counterexample {got} does not re-verify")


def _extract(ctx, g, spec, _arg, _data):
    res = yield Cli("extract", ["extract", "--generate", spec, "--selector", "lexmin"])
    if res.ok:
        out = res.out["outcome"]
        k = g.dims[0]
        ctx.check(out["result"] == "bounded" and out["radius"] == 2 * (k - 1)
                  and out["diagnostics"]["computed_r"] == k, f"{spec}: extract gave {out['result']}")


def _big(ctx, g, spec, _arg, _data):
    res = yield Cli("selector modulus", ["selector", "modulus", "--generate", spec, "--selector", "min"])
    if res.ok:
        out = res.out["outcome"]
        f = checks.Choice(g.n, coord=range(g.n))
        w = out["witness"]
        ctx.check(out["r"] == 1 and checks.witness_ok(g, f, 1, w["pair_a"], w["pair_b"], exact=True),
                  f"{spec}: modulus {out['r']}, witness {w}")
