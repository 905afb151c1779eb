"""One benchmark run of one workload, in a process of its own.

Started by run.py, one at a time, so that peak memory and set-up time
belong to this workload alone.  The process imports homopix from the
checkout's ``src``, generates its inputs from the seed, runs jobs one at a
time in a closed loop (one client, no threads), checks each job's output
outside the timed region, and writes a JSON record to ``--out``.

    python3 bench/worker.py --workload grid-batch --seed 1 --seconds 12 \\
        --trace 0 --t0 <time.monotonic() at spawn> --out bench/out/w.json
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import resource
import shutil
import sys
import time
import traceback
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# Other tenants of a shared machine change the interpreter's speed by up to a
# third from one minute to the next.  So the worker also times a fixed
# kernel, outside the timed region: after each job, for this share of the
# job's time, and for a fixed budget after set-up.  Reported times are
# reference seconds: wall seconds divided by the slowdown, the ratio of the
# kernel's mean time to REFERENCE_KERNEL_S (about its time on the 2-core
# machine the benchmark was tuned on when that machine was least loaded)
# raised to CONTENTION_EXPONENT.  Under contention homopix slows less than
# the kernel: over 130 runs of the four workloads on that machine, at kernel
# ratios of 1.0 to 2.4, a workload's raw time grew as the ratio to the power
# 0.74 to 0.99, about 0.85 on average in each of two separate sets of runs.
CALIBRATION_SHARE = 0.05
SETUP_CALIBRATION_S = 0.1
REFERENCE_KERNEL_S = 0.005
CONTENTION_EXPONENT = 0.85
# A run measures --seconds reference seconds, but at most this many times
# --seconds of wall time, so that a heavily loaded machine still ends it.
MAX_WALL_SHARE = 1.5


_TABLE = {(a, b): (a * b) % 5 for a in range(1, 25) for b in range(1, 25)}


def _kernel() -> int:
    # Exact-rational arithmetic, then tuples built from index assignments and
    # looked up in a dict, as in homopix's evaluation and enumeration paths,
    # which slow down by different amounts under contention.  It calls no
    # homopix code, so a change to homopix cannot move it.
    total = Fraction(0)
    for i in range(1, 600):
        x = Fraction(i, 997)
        total += x * x
    seen = set()
    for assign in itertools.combinations_with_replacement(range(1, 25), 3):
        seen.add(tuple(_TABLE[assign[i], assign[j]] for i, j in ((0, 1), (1, 2), (0, 2))))
    return total.denominator + len(seen)


def calibrate(budget_s: float) -> dict:
    """Run the kernel, with the collector off, until ``budget_s`` has been
    spent (at least once); return the kernel seconds and runs."""
    spent, runs = 0.0, 0
    gc.disable()
    try:
        while runs == 0 or spent < budget_s:
            start = time.perf_counter()
            _kernel()
            spent += time.perf_counter() - start
            runs += 1
    finally:
        gc.enable()
    return {"seconds": spent, "runs": runs}


def slowdown(calibration: dict) -> float:
    """How much slower than the reference a process ran: divide its wall
    seconds by this to get reference seconds."""
    ratio = calibration["seconds"] / calibration["runs"] / REFERENCE_KERNEL_S
    return ratio ** CONTENTION_EXPONENT


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--jobs", type=int, help="run exactly this many jobs")
    parser.add_argument("--fixed", action="store_true",
                        help="run exactly the workload's fixed rounds")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    import homopix

    if Path(homopix.__file__).resolve().parent != SRC / "homopix":
        raise SystemExit(f"imported homopix from {homopix.__file__}, not {SRC}")
    import workloads
    from spans import Tracer

    workload = workloads.WORKLOADS[args.workload]
    # a fixed path relative to the checkout's root, the working directory:
    # the CLI echoes its input path into the report, whose digest must not
    # depend on where the checkout is
    workdir = OUT.relative_to(ROOT) / "inputs"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        jobs = []
        for r in range(workload.setup_rounds):
            jobs.extend(workloads.make_round(workload, args.seed, r, workdir))
        round_len = len(jobs) // workload.setup_rounds
        fixed_jobs = workload.fixed_rounds * round_len
        if args.fixed:
            args.jobs = fixed_jobs
        tracer = Tracer() if args.trace else None
        setup_s = time.monotonic() - args.t0
        record = {"setup_s": setup_s, "setup_calibration": calibrate(SETUP_CALIBRATION_S)}
        if not args.setup_only:
            record.update(measure(
                args, workload, workloads, jobs, round_len, fixed_jobs, workdir, tracer
            ))
            if tracer is not None:
                record["layers"] = tracer.layer_totals()
                record["counters"] = tracer.counters(record["layers"])
                tracer.write(str(OUT / f"spans-{args.workload}"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


def measure(args, workload, workloads, jobs, round_len, fixed_jobs, workdir, tracer) -> dict:
    """The closed loop.  Stops after ``--jobs`` jobs, or else at the end of
    the first whole round, at least ``fixed_jobs`` jobs in, once the timed
    job seconds reach ``--seconds`` in reference seconds (or MAX_WALL_SHARE
    times that in wall seconds), so that the job count does not depend on
    the machine's load.

    Peak memory is read after ``fixed_jobs`` jobs (or at the end of a
    shorter ``--jobs`` run): the step-form cache and the job records grow
    with every job, so a figure read at the end would follow the speed."""
    records = []
    peak_rss_mib = None
    calibration = {"seconds": 0.0, "runs": 0}
    timed = 0.0
    i = 0
    while True:
        if i == len(jobs):
            jobs.extend(
                workloads.make_round(workload, args.seed, i // round_len, workdir)
            )
        job = jobs[i]
        # every job starts from a collected heap, as a fresh CLI process would
        gc.collect()
        with tracer.installed(job.index) if tracer else nullcontext():
            start = time.perf_counter()
            try:
                raw, error = workloads.run_job(workload, job), None
            except Exception:
                raw, error = None, traceback.format_exc()
            job_s = time.perf_counter() - start
        if error is None:
            try:
                verdict, report, error = workloads.check(workload, job, raw)
            except Exception:
                verdict, report, error = "error", b"", traceback.format_exc()
        else:
            verdict, report = "error", b""
        job_calibration = calibrate(CALIBRATION_SHARE * job_s)
        for key, value in job_calibration.items():
            calibration[key] += value
        records.append({
            "index": job.index,
            "round": i // round_len,
            "label": job.label,
            "job_s": job_s,
            "verdict": verdict,
            "sha256": workloads.digest(report),
            "error": error,
            "calibration": job_calibration,
        })
        timed += job_s
        i += 1
        if peak_rss_mib is None and i in (fixed_jobs, args.jobs):
            peak_rss_mib = _peak_rss_mib()
        if args.jobs is not None:
            if i == args.jobs:
                break
        elif i >= fixed_jobs and i % round_len == 0 and (
            timed / slowdown(calibration) >= args.seconds
            or timed >= MAX_WALL_SHARE * args.seconds
        ):
            break
    return {
        "jobs": records,
        "calibration": calibration,
        "peak_rss_mib": peak_rss_mib,
        "rss_jobs": min(fixed_jobs, i),
    }


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


if __name__ == "__main__":
    sys.exit(main())
