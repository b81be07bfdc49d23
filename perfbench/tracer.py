"""Per-layer spans and counts, recorded from outside the program.

``Tracer.install`` wraps the public functions of each coarsegraph layer at
every module attribute that names them, so the wrapper sits where callers
look the function up (``extraction.tighten``, ``cli.selector_mod.modulus``,
``claims.geodesic_between`` ...).  A span records (id, job, name, start,
end, parent); a layer's self time is its span minus the time its child
spans cover.  Spans and counts stay in memory and are written out once.
Wrappers only record while ``active`` is set, that is, inside a timed job.
"""
from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name); the span's layer is the part before the dot
FUNCTIONS = [
    ("graph_core", "geodesic_between", "graph_core.geodesic"),
    ("hyperspace", "hausdorff_distance", "hyperspace.hausdorff"),
    ("selector", "modulus", "selector.modulus"),
    ("selector", "verify_selector", "selector.verify"),
    ("claims", "claim1_propagate", "claims.claim1"),
    ("claims", "claim2_check", "claims.claim2"),
    ("claims", "claim3_side", "claims.claim3"),
    ("extraction", "extract_line", "extraction.extract"),
    ("qi_cert", "tighten", "qi_cert.tighten"),
    ("qi_cert", "verify_qi", "qi_cert.verify"),
    ("search", "min_modulus_search", "search.search"),
    ("order_compat", "min_compat_radius", "order_compat.compat"),
    ("order_compat", "is_interval_entourage", "order_compat.interval"),
    ("discretize", "sample_space", "discretize.sample"),
    ("discretize", "parse_sample_file", "discretize.parse"),
    ("discretize", "net_graph", "discretize.net_graph"),
    ("discretize", "certify_net", "discretize.certify"),
    ("cli", "run", "cli.run"),
]

# per-layer metric -> (aggregate, key); aggregates are self time, inclusive
# time, calls (spans opened) and counts
METRICS = {
    "qi_cert.tighten_s": ("self", "qi_cert.tighten"),
    "qi_cert.verify_s": ("self", "qi_cert.verify"),
    "qi_cert.pairs_checked": ("count", "qi_cert.pairs_checked"),
    "qi_cert.verify_calls": ("calls", "qi_cert.verify"),
    "graph_core.rows_built": ("calls", "graph_core.row"),
    "graph_core.row_s": ("self", "graph_core.row"),
    "graph_core.dense_s": ("incl", "graph_core.dense"),
    "graph_core.multi_source_s": ("self", "graph_core.multi_source"),
    "graph_core.distance_calls": ("count", "graph_core.distance_calls"),
    "graph_core.geodesic_s": ("self", "graph_core.geodesic"),
    "claims.claim1_s": ("self", "claims.claim1"),
    "claims.claim2_s": ("self", "claims.claim2"),
    "claims.claim3_s": ("self", "claims.claim3"),
    "claims.calls": ("calls", ("claims.claim1", "claims.claim2", "claims.claim3")),
    "claims.distance_per_call": ("ratio", ("claims.distance_calls", "claims.calls")),
    "hyperspace.hausdorff_calls": ("calls", "hyperspace.hausdorff"),
    "hyperspace.hausdorff_s": ("self", "hyperspace.hausdorff"),
    "hyperspace.pair_candidates": ("count", "hyperspace.pair_candidates"),
    "selector.modulus_s": ("self", "selector.modulus"),
    "selector.verify_s": ("self", "selector.verify"),
    "selector.modulus_calls": ("calls", "selector.modulus"),
    "selector.verify_calls": ("calls", "selector.verify"),
    "search.search_s": ("self", "search.search"),
    "search.nodes": ("count", "search.nodes"),
    "order_compat.compat_s": ("self", "order_compat.compat"),
    "order_compat.interval_s": ("self", "order_compat.interval"),
    "order_compat.radii_tried": ("count", "order_compat.radii_tried"),
    "extraction.extract_s": ("incl", "extraction.extract"),
    "extraction.self_s": ("self", "extraction.extract"),
    "extraction.probes": ("count", "extraction.probes"),
    "discretize.sample_s": ("self", "discretize.sample"),
    "discretize.parse_s": ("self", "discretize.parse"),
    "discretize.net_graph_s": ("self", "discretize.net_graph"),
    "discretize.certify_s": ("self", "discretize.certify"),
    "discretize.sample_points": ("count", "discretize.sample_points"),
    "cli.self_s": ("self", "cli.run"),
    "cli.report_bytes": ("count", "cli.report_bytes"),
}

SPAN_CAP = 100_000  # spans kept for the trace file; aggregates see every span

UNITS = {"count": "count", "calls": "count", "ratio": "ratio", "self": "s", "incl": "s"}


def _pairs_scanned(cert, verdict) -> int:
    """Pairs verify_qi compared before returning, in its ascending scan."""
    k = len(cert.coord)
    v = getattr(verdict, "v", None)
    if v is None:
        return k * (k - 1) // 2
    S = sorted(cert.coord)
    i, j = S.index(verdict.u), S.index(v)
    return i * (k - 1) - i * (i - 1) // 2 + (j - i)


def _rebind(mods: dict, orig, wrapped) -> None:
    """Point every module attribute that names ``orig`` at ``wrapped``."""
    for mod in mods.values():
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, wrapped)


class Tracer:
    def __init__(self):
        self.active = False
        self.job = None
        self.keep_spans = True
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self._open = Counter()
        self._next_id = 0
        self.rounds: list[dict] = []
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()

    def _reset(self):
        # cleared in place: the installed wrappers hold these objects
        for agg in (self.self_s, self.incl_s, self.calls, self.counts):
            agg.clear()

    # -- spans -----------------------------------------------------------

    def enter(self, name: str):
        self._next_id += 1
        parent = self._stack[-1][3] if self._stack else None
        self._stack.append([name, time.perf_counter(), 0.0, self._next_id, parent])
        self._open[name.split(".")[0]] += 1
        self.calls[name] += 1

    def exit(self):
        end = time.perf_counter()
        name, start, child, sid, parent = self._stack.pop()
        self._open[name.split(".")[0]] -= 1
        dur = end - start
        self.self_s[name] += dur - child
        self.incl_s[name] += dur
        if self._stack:
            self._stack[-1][2] += dur
        if self.keep_spans and len(self.spans) < SPAN_CAP:
            self.spans.append((sid, self.job, name, start, end, parent))

    def start_job(self, name: str):
        self.job = name
        self.active = True
        self.enter("job")

    def end_job(self):
        self.exit()
        self.active = False

    def end_round(self):
        """Close the round's aggregates; only round 1 keeps its spans."""
        self.rounds.append(self._snapshot())
        self._reset()
        self.keep_spans = False

    def _snapshot(self) -> dict:
        calls = self.calls
        out = {}
        for metric, (agg, key) in METRICS.items():
            if agg == "self":
                out[metric] = self.self_s[key]
            elif agg == "incl":
                out[metric] = self.incl_s[key]
            elif agg == "calls":
                keys = key if isinstance(key, tuple) else (key,)
                out[metric] = sum(calls[k] for k in keys)
            elif agg == "count":
                out[metric] = self.counts[key]
            else:  # a count over a calls metric listed before it
                num, den = key
                out[metric] = self.counts[num] / out[den] if out[den] else 0.0
        return out

    def metrics(self) -> tuple[dict, list[str]]:
        """Counts from round 1 (they must repeat), times as medians over rounds."""
        problems = []
        first = self.rounds[0]
        out = {}
        for metric, (agg, _) in METRICS.items():
            if UNITS[agg] == "s":
                value = statistics.median(r[metric] for r in self.rounds)
            else:
                value = first[metric]
                if any(r[metric] != value for r in self.rounds[1:]):
                    problems.append(f"{metric} differs between rounds")
            out[metric] = {"value": value, "unit": UNITS[agg]}
        return out, problems

    # -- installation ----------------------------------------------------

    def _span_wrapper(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def install(self):
        mods = {k[len("coarsegraph.") :]: m for k, m in sys.modules.items() if k.startswith("coarsegraph.")}
        mods[""] = sys.modules["coarsegraph"]  # the package re-exports the layers' functions
        counts = self.counts
        after = {
            "qi_cert.tighten": lambda a, out: counts.update(
                {"qi_cert.pairs_checked": len(a[1]) * (len(a[1]) - 1)}
            ),
            "qi_cert.verify": lambda a, out: counts.update(
                {"qi_cert.pairs_checked": _pairs_scanned(a[1], out)}
            ),
            "search.search": lambda a, out: counts.update(
                {"search.nodes": sum(o.nodes for o in out)}
            ),
            "extraction.extract": lambda a, out: counts.update(
                {"extraction.probes": out.diagnostics.get("probes", 0)}
            ),
            "discretize.sample": lambda a, out: counts.update({"discretize.sample_points": out.n}),
        }
        for modname, attr, name in FUNCTIONS:
            orig = getattr(mods[modname], attr)
            _rebind(mods, orig, self._span_wrapper(name, orig, after.get(name)))

        tracer = self
        open_layers = self._open
        metric_cls = mods["graph_core"].PathMetric

        orig_row = metric_cls.row

        def row(m, u):
            if tracer.active and u not in m._rows:
                tracer.enter("graph_core.row")
                try:
                    return orig_row(m, u)
                finally:
                    tracer.exit()
            return orig_row(m, u)

        orig_distance = metric_cls.distance

        def distance(m, u, v):
            if tracer.active:
                counts["graph_core.distance_calls"] += 1
                if open_layers["claims"]:
                    counts["claims.distance_calls"] += 1
            return orig_distance(m, u, v)

        metric_cls.row = row
        metric_cls.distance = distance
        metric_cls.dense_matrix = self._span_wrapper("graph_core.dense", metric_cls.dense_matrix)
        metric_cls.distances_from_set = self._span_wrapper(
            "graph_core.multi_source", metric_cls.distances_from_set
        )

        orig_candidates = mods["hyperspace"].neighbor_pair_candidates

        def neighbor_pair_candidates(m, P):
            for q in orig_candidates(m, P):
                if tracer.active:
                    counts["hyperspace.pair_candidates"] += 1
                yield q

        orig_violations = mods["order_compat"]._violations_at

        def violations_at(*args, **kwargs):
            if tracer.active and open_layers["order_compat"]:
                counts["order_compat.radii_tried"] += 1
            return orig_violations(*args, **kwargs)

        _rebind(mods, orig_candidates, neighbor_pair_candidates)
        _rebind(mods, orig_violations, violations_at)

    def dump(self) -> dict:
        t0 = self.spans[0][3] if self.spans else 0.0
        return {
            "span_fields": ["id", "job", "name", "start_s", "end_s", "parent"],
            "spans": [(i, j, n, s - t0, e - t0, p) for i, j, n, s, e, p in self.spans],
            "rounds": self.rounds,
        }
