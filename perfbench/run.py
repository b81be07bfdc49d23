"""coarsegraph benchmark: three closed-loop workloads, one JSON result line.

    python3 perfbench/run.py --workload line_cert --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the repository root.  The program is imported from ``src/`` of the
checkout; without it the run exits 2 and prints no result.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics of a
separate traced run.  Details go to ``perfbench/out/``, generated inputs to
``perfbench/work/``.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("line_cert", "selector_audit", "claims_sweep")
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
SETUP_REPS = 5
CHILD_TIMEOUT_S = 170


class NoProgram(RuntimeError):
    pass


def import_program():
    """Import coarsegraph from this checkout's src/, and nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "coarsegraph", "__init__.py")):
        raise NoProgram(f"no coarsegraph package under {src}")
    sys.path.insert(0, src)
    import coarsegraph
    import coarsegraph.cli

    if not os.path.abspath(coarsegraph.__file__).startswith(src + os.sep):
        raise NoProgram(f"coarsegraph was imported from {coarsegraph.__file__}")
    return coarsegraph


def workdir(workload: str) -> str:
    return os.path.join(HERE, "work", workload)


def setup_probe(workload: str, seed: int) -> None:
    """One set-up, timed from before the import of coarsegraph."""
    t0 = time.perf_counter()
    import_program()
    module = importlib.import_module(workload)
    module.setup(seed, workdir(workload) + "-probe")
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def measure_setup(workload: str, seed: int) -> float:
    """One set-up time, in a fresh interpreter that pays the full import."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise NoProgram(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_workload(args) -> dict:
    from harness import Ctx, job_stats, run_round

    for path in (workdir(args.workload), workdir(args.workload) + "-probe"):
        shutil.rmtree(path, ignore_errors=True)
    setup_samples = [measure_setup(args.workload, args.seed)]
    cg = import_program()
    module = importlib.import_module(args.workload)
    plan = module.setup(args.seed, workdir(args.workload))
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    ctx = Ctx(cg, workdir(args.workload))
    # the collector skips what exists now, so gc.collect() before each job
    # stays cheap however much the run keeps alive
    gc.freeze()
    per_round, attempted, failed, spent, names = [], 0, 0, 0.0, []
    # whole rounds only, and none that would end past the time budget
    while not per_round or spent * (1 + 1 / len(per_round)) <= args.seconds:
        times, names, f = run_round(module, plan, ctx, tracer)
        if tracer:
            tracer.end_round()
        per_round.append(times)
        attempted += len(times)
        failed += f
        spent += sum(times)
        # set-up probes go between rounds, so they sample the whole run
        if len(setup_samples) < SETUP_REPS:
            setup_samples.append(measure_setup(args.workload, args.seed))
    while len(setup_samples) < SETUP_REPS:
        setup_samples.append(measure_setup(args.workload, args.seed))
    if len({len(t) for t in per_round}) != 1:
        ctx.check(False, "rounds ran different job lists")
        per_round = [t for t in per_round if len(t) == len(per_round[0])]
    stats = job_stats(per_round)
    stats["setup_s"] = statistics.median(setup_samples)
    stats["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        metrics, problems = tracer.metrics()
        for p in problems:
            ctx.check(False, p)
    else:
        metrics = {k: {"value": stats[k], "unit": u} for k, u in END_TO_END.items()}
    result = {
        "correct": not ctx.errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else "")
    detail = {"result": result, "stats": stats, "setup_samples_s": setup_samples,
              "errors": ctx.errors, "job_names": names, "job_times_s": per_round}
    if tracer:
        detail["trace"] = tracer.dump()
    with open(os.path.join(HERE, "out", stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump(detail, fh)
    for msg in ctx.errors[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    return result


def run_all(args) -> dict:
    """Each workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S + 600,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise NoProgram(f"{workload} exited {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']}"
              f" failed={result['failed']}")
        for name, m in result["metrics"].items():
            print(f"  {name:<28} {m['value']:>14.6g} {m['unit']}")
            combined["metrics"][f"{workload}.{name}"] = m
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.path.insert(0, HERE)
    try:
        if args.setup_probe:
            setup_probe(args.workload, args.seed)
            return 0
        result = run_all(args) if args.workload == "all" else run_workload(args)
    except (NoProgram, subprocess.TimeoutExpired) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
