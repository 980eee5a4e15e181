"""Closed-loop benchmark of icss; see README.md next to this file.

    python3 bench/run.py --workload icss_fold --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
One caller runs the workload's job list (one public icss call per map)
again and again, each job after the previous one returned, until
``--seconds`` have passed; the pass under way when time runs out finishes.
Outputs are checked against an independent oracle after the timed loop.

Standard output: a context line ``{"context": ...}``, then the result line
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` untraced and traced
passes alternate and the metrics are the per-layer ones.  Exit status 2
means the benchmark could not run (for example, no ``src/icss`` to import).
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import inputs
import oracle
from tracer import Tracer
from workloads import WORKLOADS, top_space

ROOT = Path(__file__).resolve().parent.parent
SETUP_MIN_REPS, SETUP_MIN_S, SETUP_MAX_REPS = 5, 0.5, 50
TAIL_LADDER = (99.9, 99, 95, 90, 75)  # p50 is the median, not a tail
TAIL_BEYOND = 10


def import_icss():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import icss

    if Path(icss.__file__).resolve().parent != (src / "icss").resolve():
        raise ImportError(f"icss imported from {icss.__file__}, not from {src}")
    return importlib.import_module("icss.io")


def src_loc() -> int:
    return sum(
        len(p.read_text().splitlines()) for p in sorted((ROOT / "src" / "icss").glob("*.py"))
    )


def setup(workload, seed: int, io) -> list:
    """Generate the workload's maps, emit them as JSON map documents and load
    them back through icss.io; returns [(label, payload, SimplicialMap)]."""
    out = []
    for label, doc in workload.maps(seed):
        x, y = doc["x"], doc["y"]
        text = io.emit_map(
            io.MapDocument(x["vertices"], x["simplices"], y["vertices"], y["simplices"], doc["map"])
        )
        out.append((label, doc, io.parse_map(text).to_simplicial_map()))
    return out


def run_pass(jobs, call, job_name, outcomes, job_walls) -> tuple:
    """One closed-loop pass over the job list; returns (wall_s, cpu_s)."""
    wall = cpu = 0.0
    for label, _, f in jobs:
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            result, error = call(f), None
        except Exception as exc:  # a job that raises is a failed job, not a crash
            result, error = None, f"{type(exc).__name__}: {exc}"
        w, c = time.perf_counter() - w0, time.process_time() - c0
        wall += w
        cpu += c
        job_walls.append(w)
        outcomes.append((label, None if error else oracle.summarize(job_name, result), error))
    return wall, cpu


def tail(values) -> tuple:
    """(percentile, value): the highest ladder percentile with at least ten
    jobs beyond it, or the slowest job (100) when no tail percentile has."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_LADDER:
        if n * (1 - pct / 100) >= TAIL_BEYOND:
            return pct, ordered[math.ceil(pct / 100 * n) - 1]
    return 100, ordered[-1]


def unit(metric: str) -> str:
    if metric == "peak_rss_mb":
        return "MB"
    if metric.endswith("_s") or metric.startswith("job_s_"):
        return "s"
    if metric.endswith(("_ratio", "_density", "_frac")):
        return "ratio"
    if metric.endswith("_bits"):
        return "bits"
    return "count"


def check_outcomes(workload, jobs, outcomes) -> tuple:
    """(failures, negative control flagged) from the oracle, outside timing."""
    expected = {label: oracle.homology_of_target(doc) for label, doc, _ in jobs}
    failures = []
    first_good = None
    for label, summary, error in outcomes:
        problems = [error] if error else oracle.check(
            workload.job, summary, expected[label], workload.headline
        )
        if problems:
            failures.append({"map": label, "problems": problems[:3]})
        elif first_good is None:
            first_good = (label, summary)
    flagged = False
    if first_good is not None:
        label, summary = first_good
        bad = oracle.corrupted(workload.job, summary)
        flagged = bool(oracle.check(workload.job, bad, expected[label], workload.headline))
    return failures, flagged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        io = import_icss()
    except ImportError as exc:
        print(f"bench: cannot import icss from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    module = importlib.import_module(workload.module)

    setup_times = []
    setup_start = time.perf_counter()
    while len(setup_times) < SETUP_MIN_REPS or (
        time.perf_counter() - setup_start < SETUP_MIN_S and len(setup_times) < SETUP_MAX_REPS
    ):
        t0 = time.perf_counter()
        jobs = setup(workload, args.seed, io)
        setup_times.append(time.perf_counter() - t0)

    def plain(f):
        return getattr(module, workload.job)(f)

    outcomes, job_walls, untraced, traced, layer_passes = [], [], [], [], []
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
        tracer.reset()
        setup(workload, args.seed, io)
        parse_s = tracer.pass_metrics()["io.parse_s"]
        tracer.uninstall()

        def traced_call(f):
            return tracer.run_job(getattr(module, workload.job), f)

    start = time.perf_counter()
    while True:
        untraced.append(run_pass(jobs, plain, workload.job, outcomes, job_walls))
        if tracer and (not traced or time.perf_counter() - start < args.seconds):
            tracer.install()
            tracer.reset()
            try:
                traced.append(run_pass(jobs, traced_call, workload.job, outcomes, []))
            finally:
                tracer.uninstall()
            layer_passes.append(tracer.pass_metrics())
        if time.perf_counter() - start >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures, flagged = check_outcomes(workload, jobs, outcomes)
    tail_pct, tail_s = tail(job_walls)
    walls = [w for w, _ in untraced]
    context = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_loc": src_loc(),
        "inputs": [
            {
                "map": label,
                "x_simplices": len(inputs.closure(doc["x"]["simplices"])),
                "y_simplices": len(inputs.lift_counts(doc)),
                "max_lifts": max(inputs.lift_counts(doc).values()),
                "top_space": top_space(workload, doc),
            }
            for label, doc, _ in jobs
        ],
        "setup_reps": len(setup_times),
        "passes": len(untraced),
        "pass_wall_s": [round(w, 4) for w in walls],
        "traced_passes": len(traced),
        "jobs": len(job_walls),
        "job_s_tail_pct": tail_pct,
        "failed_frac": {"value": len(failures) / len(outcomes), "unit": "ratio"},
        "failures": failures[:5],
        "negative_control_flagged": flagged,
    }
    if tracer:
        metrics = {
            name: statistics.fmean(p[name] for p in layer_passes)
            for name in layer_passes[0]
        }
        metrics["io.parse_s"] = parse_s
        metrics["trace_overhead_frac"] = (
            statistics.median(w for w, _ in traced) / statistics.median(walls) - 1
        )
        context["self_sum_s"] = metrics.pop("self_sum_s")
        context["untraced_functions"] = tracer.missing
        context["probe_errors"] = dict(tracer.probe_errors)
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(c for _, c in untraced),
            "job_s_p50": statistics.median(job_walls),
            "job_s_tail": tail_s,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setup_times),
        }
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": not failures and flagged,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": unit(name)} for name, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
