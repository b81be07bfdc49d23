"""claims_sweep: library-level sweeps of chain families through the claims.

A job is one sweep, the shape of acceptance criterion 5: one graph, one
PathMetric shared by every call, a selector, a claimed r and a step bound
p; ``claim1_propagate`` over probe triples (v, a, b) that meet its
hypotheses, then ``claim2_check`` and ``claim3_side`` over chains (geodesics
subsampled at steps up to p) against probe vertices.  Most sweeps claim the
selector's true modulus, where no witness may appear; the rest claim one
less, or keep the true r with a table selector that has pairs flipped, and
there every witness must re-verify.
"""
from __future__ import annotations

import random

import checks
from harness import Call, spread

SWEEPS = 100  # of which 15 claim one less than the modulus, 15 flip pairs
UNDER = (4, 11, 18)  # sweep i claims r - 1 when i % 20 is one of these
PERTURBED = (1, 8, 15)  # and uses the perturbed table when it is one of these
CONFIGS = (600, 3000)  # chain-probe configurations per sweep
PROBES_PER_CHAIN = 40
# graph families, each with its size range, drawn stratified per family
FAMILIES = [("path:{}", (40, 100)), ("comb:{},{}", (24, 48), (6, 16)), ("grid:{}x2", (16, 48))]


def _graph_specs(rng) -> list[str]:
    """SWEEPS specs cycling through the families, sizes stratified in each.

    Sizes rise with the sweep index, as configuration counts do, so a
    sweep's cost has one seeded spread rather than the product of two.
    """
    per_family = []
    for k, (fmt, *ranges) in enumerate(FAMILIES):
        count = len(range(k, SWEEPS, len(FAMILIES)))
        dims = zip(*(sorted(spread(rng, count, lo, hi)) for lo, hi in ranges))
        per_family.append([fmt.format(*d) for d in dims])
    return [per_family[i % len(FAMILIES)][i // len(FAMILIES)] for i in range(SWEEPS)]


def _triples(rng, g, f, r, p, count):
    """Probe triples meeting claim1's hypotheses, found by rejection."""
    d = g.table()
    out = []
    for _ in range(50 * count):
        if len(out) == count:
            break
        v, a = rng.randrange(g.n), rng.randrange(g.n)
        if d[v][a] <= p + r or f.one(a, v) != a:
            continue
        near = [b for b in range(g.n) if d[a][b] <= p and d[v][b] > p + r]
        if near:
            out.append((v, a, rng.choice(near)))
    return out


def _chains(rng, g, p, count):
    """Subsampled geodesics between vertex pairs more than p + 1 apart."""
    d = g.table()
    out = []
    while len(out) < count:
        s, t = rng.randrange(g.n), rng.randrange(g.n)
        if d[s][t] <= p + 1:
            continue
        geo = checks.geodesic(g, s, t)
        z = tuple(geo[:: rng.randint(1, p)])
        if z[-1] != geo[-1]:
            z += (geo[-1],)
        out.append(z)
    return out


def setup(seed: int, workdir: str) -> dict:
    """Each sweep's graph, kind, step bound, size and seed; no distances.

    What needs the checker's distances or the true modulus (the claimed r,
    the perturbed table, chains, probes and triples) is drawn from the
    sweep's own seed by ``_inputs``, before the sweep first runs, so the
    timed set-up holds no checker work.
    """
    rng = random.Random(f"claims_sweep:{seed}")
    # sizes in rank order, so each (family, p) slot gets the same share of
    # small and large sweeps whatever the seed
    sizes = sorted(spread(rng, SWEEPS, *CONFIGS))
    sweeps = []
    for i, (spec, size) in enumerate(zip(_graph_specs(rng), sizes)):
        kind = "under" if i % 20 in UNDER else "perturbed" if i % 20 in PERTURBED else "true"
        p = 1 + (i // len(FAMILIES)) % 3
        sweeps.append({"kind": kind, "spec": spec, "p": p, "size": size, "seed": rng.getrandbits(64)})
    rng.shuffle(sweeps)
    return {"sweeps": sweeps}


def _inputs(ctx, desc) -> dict:
    rng = random.Random(desc["seed"])
    spec, size, p = desc["spec"], desc["size"], desc["p"]
    g = ctx.once(spec, lambda: checks.Graph.from_spec(spec))

    def true_r():
        if g.kind == "path":
            return 1
        return checks.brute_modulus(g, checks.Choice(g.n, coord=range(g.n)))

    r = ctx.once(("r", spec), true_r) - (desc["kind"] == "under")
    table = None
    if desc["kind"] == "perturbed":
        table = {(a, b): a for a in range(g.n) for b in range(a + 1, g.n)}
        for pair in rng.sample(sorted(table), max(1, len(table) // 50)):
            table[pair] = pair[1]
    f = checks.Choice(g.n, coord=None if table else range(g.n), table=table)
    chains = _chains(rng, g, p, max(2, size // PROBES_PER_CHAIN))
    probes = rng.sample(range(g.n), min(g.n, round(size / len(chains))))
    triples = _triples(rng, g, f, r, p, size // 40)
    return {**desc, "r": r, "table": table, "triples": triples, "chains": chains, "probes": probes}


def _sweep(cg, s):
    claims = cg.claims
    g = cg.cli.parse_generate(s["spec"])
    m = cg.PathMetric(g)
    if s["table"] is None:
        f = cg.selector.min_selector(range(g.vertex_count))
    else:
        f = cg.selector.selector_from_table(s["table"])
    r, p = s["r"], s["p"]
    out = [claims.claim1_propagate(m, f, r, v, a, b, p) for v, a, b in s["triples"]]
    for z in s["chains"]:
        for v in s["probes"]:
            out.append(claims.claim2_check(m, f, r, claims.ClaimConfig(v=v, z=z, p=p)))
            out.append(claims.claim3_side(m, f, r, z, v, p))
    return out


def jobs(plan, ctx):
    for i, desc in enumerate(plan["sweeps"]):
        s = ctx.once(("inputs", i), lambda: _inputs(ctx, desc))
        res = yield Call("claims sweep", lambda s=s: _sweep(ctx.cg, s))
        # outcomes are frozen dataclasses; a later round that repeats round
        # 1's outcomes exactly needs no second check
        digest = hash(tuple(res.value)) if res.ok else None
        if res.ok and digest != ctx.memo.get(("outcomes", i)):
            _check(ctx, s, res.value)
            ctx.memo[("outcomes", i)] = digest


def _check(ctx, s, outcomes):
    spec, r, p = s["spec"], s["r"], s["p"]
    g = ctx.once(spec, lambda: checks.Graph.from_spec(spec))
    f = checks.Choice(g.n, coord=None if s["table"] else range(g.n), table=s["table"])
    ends = outcomes[len(s["triples"]) + 1 :: 2]
    q = 2 * (r + p) + 1
    for o in outcomes:
        kind = type(o).__name__
        if kind == "Witness":
            ctx.check(s["kind"] != "true", f"{spec}: witness {o} at the true modulus {r}")
            ctx.check(checks.witness_ok(g, f, r, o.pair_a, o.pair_b),
                      f"{spec} r={r}: witness {o} does not re-verify")
    configs = [(z, v) for z in s["chains"] for v in s["probes"]]
    for (z, v), o in zip(configs, ends):
        kind = type(o).__name__
        if kind in ("LeftEnd", "RightEnd"):
            j = checks.nearest_index(g, v, z)
            last = len(z) - 1
            in_window = o.j <= q if kind == "LeftEnd" else o.j >= last - q
            ctx.check(o.j == j and in_window, f"{spec}: {o} for v={v}, checker nearest index {j}")
