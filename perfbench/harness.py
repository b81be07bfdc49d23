"""Closed-loop job runner shared by the workloads.

A workload's ``jobs`` is a generator that yields jobs one at a time and is
sent each job's result, so a later job's arguments can come from an earlier
job's report (``qi verify`` reads the certificate ``extract`` wrote).  Only
the job itself is timed; the checks a workload makes between jobs are not.
"""
from __future__ import annotations

import contextlib
import gc
import io
import json
import random
import statistics
import time
import traceback
from dataclasses import dataclass, field


@dataclass
class Cli:
    """One CLI command, run in-process through ``coarsegraph.cli.run``."""

    name: str
    argv: list
    expect: tuple = (0,)


@dataclass
class Call:
    """One library-level request: a zero-argument callable."""

    name: str
    fn: object


@dataclass
class Result:
    ok: bool
    dt: float
    code: int | None = None
    out: dict | None = None
    value: object = None
    error: str = ""


@dataclass
class Ctx:
    """What a workload's round sees: the package, its files and the check log."""

    cg: object
    workdir: str
    errors: list = field(default_factory=list)
    memo: dict = field(default_factory=dict)

    def check(self, cond, msg: str) -> bool:
        if not cond and msg not in self.errors:
            self.errors.append(msg)
        return bool(cond)

    def once(self, key, fn):
        """Compute an expectation once per run; inputs repeat every round."""
        if key not in self.memo:
            self.memo[key] = fn()
        return self.memo[key]


def spread(rng: random.Random, k: int, lo: float, hi: float, power: float = 1) -> list[int]:
    """k integers in [lo, hi], stratified in size ** power.

    One uniform draw in the middle half of each k-th of the range of
    size ** power.  With power the exponent of a job's cost in its size,
    costs spread evenly, so every seed gets nearly the same cost
    distribution, with no gaps for a median or a tail percentile to jump
    across.
    """
    a, b = lo**power, hi**power
    out = [round((a + (b - a) * (i + 0.25 + rng.random() / 2) / k) ** (1 / power)) for i in range(k)]
    rng.shuffle(out)
    return out


def run_job(job, cg, tracer) -> Result:
    gc.collect()
    if isinstance(job, Cli):
        buf = io.StringIO()
        if tracer:
            tracer.start_job(job.name)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cg.cli.run(job.argv)
        except (Exception, SystemExit):
            dt = time.perf_counter() - t0
            return Result(False, dt, error=traceback.format_exc(limit=3))
        finally:
            if tracer:
                tracer.end_job()
        dt = time.perf_counter() - t0
        text = buf.getvalue()
        if tracer:
            tracer.counts["cli.report_bytes"] += len(text.encode())
        try:
            out = json.loads(text)
        except json.JSONDecodeError:
            return Result(False, dt, code=code, error="stdout is not one JSON report")
        ok = code in job.expect
        err = "" if ok else f"exit {code}, expected {job.expect}: {text[:300]}"
        return Result(ok, dt, code=code, out=out, error=err)
    if tracer:
        tracer.start_job(job.name)
    t0 = time.perf_counter()
    try:
        value = job.fn()
    except Exception:
        return Result(False, time.perf_counter() - t0, error=traceback.format_exc(limit=3))
    finally:
        if tracer:
            tracer.end_job()
    return Result(True, time.perf_counter() - t0, value=value)


def run_round(workload, plan, ctx: Ctx, tracer):
    """Drive one pass of the job list; returns (job times, job names, failed)."""
    gen = workload.jobs(plan, ctx)
    times, names = [], []
    failed = 0
    result = None
    while True:
        try:
            job = gen.send(result)
        except StopIteration:
            break
        result = run_job(job, ctx.cg, tracer)
        times.append(result.dt)
        names.append(job.name)
        if not result.ok:
            failed += 1
            ctx.check(False, f"{job.name} {getattr(job, 'argv', '')}: {result.error}")
    return times, names, failed


def job_stats(per_round: list[list[float]]) -> dict:
    """Per-job medians over the rounds; their sum, median and tail percentile.

    Taking each job's median over the rounds first keeps a slow phase of the
    machine that covers a minority of the rounds out of every figure.  The
    tail is the highest percentile with at least ten jobs beyond it: with N
    jobs, the (N - 10)-th smallest per-job median.
    """
    n = len(per_round[0])
    per_job = sorted(statistics.median(r[i] for r in per_round) for i in range(n))
    tail_index = max(n - 11, 0)
    return {
        "wall_s": sum(per_job),
        "job_p50_ms": statistics.median(per_job) * 1000.0,
        "job_tail_ms": per_job[tail_index] * 1000.0,
        "tail_percentile": 100.0 * (tail_index + 1) / n,
        "jobs": n,
        "rounds": len(per_round),
        "round_walls_s": [sum(r) for r in per_round],
    }
