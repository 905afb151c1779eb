"""The homopix benchmark: closed-loop pixelate jobs, one workload per run.

    python3 bench/run.py --workload grid-batch --seed 1 --seconds 12 --trace 0
    python3 bench/run.py --smoke

``--seconds`` defaults to ``run_seconds`` in BENCHMARK.json.

Run from the root of a checkout; homopix is imported from its ``src``.
Every run starts fresh child processes (bench/worker.py), one at a time:

* ``--trace 0`` sets the workload up in ten set-up-only children, then
  measures it untraced in an eleventh.  It prints the end-to-end metrics.
* ``--trace 1`` runs the workload's fixed rounds (a set of jobs that does
  not depend on speed) with every layer wrapped, then the same jobs
  untraced.  It prints the per-layer metrics and the tracing overhead, and
  requires both runs to produce identical reports.
* ``--smoke`` runs one job of every workload, traced twice and untraced
  once, at the seed recorded in ``reference_digests.json``, checks that the
  three agree, and compares the report digests with that file's.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record of
each run goes to ``bench/out/``.  Metric names, units and bounds are in
BENCHMARK.json at the root of the repository; NOTES.md says why each
workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import COUNTERS, LAYERS
from worker import slowdown

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("grid-batch", "certify-enum", "certify-mu", "empirical-threshold")
# set-up samples per untraced run, the measuring child included: one
# sample varies by about 20% within a run, so one run takes many
SETUPS = 11
P90_MIN_JOBS = 100  # so that at least ten samples lie beyond the 90th percentile
RUN_BUDGET_S = 175  # a run must end within 180 s
CERTIFIED = ("pass", "consistent")

LAYER_NAMES = tuple(name for name, _, _ in LAYERS)


class RunError(Exception):
    """A child process failed; the run prints no result."""


def child(workload, seed, seconds, trace, deadline, jobs=None, fixed=False,
          setup_only=False) -> dict:
    """Run bench/worker.py once and return its record."""
    OUT.mkdir(exist_ok=True)
    out = OUT / f"child-{os.getpid()}.json"
    argv = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--out", str(out),
    ]
    if jobs is not None:
        argv += ["--jobs", str(jobs)]
    if fixed:
        argv.append("--fixed")
    if setup_only:
        argv.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError("time budget exhausted before a child could start")
    argv += ["--t0", repr(time.monotonic())]
    try:
        # the child's stdout goes to our stderr: our stdout ends in the result
        proc = subprocess.run(argv, stdout=sys.stderr, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise RunError(f"{workload} child exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise RunError(f"{workload} child exited with code {proc.returncode}")
    try:
        with open(out, encoding="utf-8") as fh:
            return json.load(fh)
    finally:
        out.unlink()


def summarize(record) -> dict:
    """End-to-end figures of one measured child, in reference seconds.

    Each job's time is divided by the slowdown of its own round, so that a
    change of the machine's load in the middle of a run moves no quantile."""
    jobs = record["jobs"]
    failed = sum(1 for j in jobs if j["error"])
    factor = slowdown(record["calibration"])
    rounds = {}
    for j in jobs:
        total = rounds.setdefault(j["round"], {"seconds": 0.0, "runs": 0})
        total["seconds"] += j["calibration"]["seconds"]
        total["runs"] += j["calibration"]["runs"]
    wall = [j["job_s"] for j in jobs]
    times = [j["job_s"] / slowdown(rounds[j["round"]]) for j in jobs]
    certified = sum(1 for j in jobs if j["verdict"] in CERTIFIED)
    summary = {
        "attempted": len(jobs),
        "failed": failed,
        "certified": certified,
        "timed_s": sum(times),
        "wall_s": sum(wall),
        "slowdown": factor,
        "jobs_per_s": (len(jobs) - failed) / sum(times),
        "job_s.p50": statistics.median(times),
        "job_s.p90": (
            statistics.quantiles(times, n=10)[-1]
            if len(jobs) >= P90_MIN_JOBS else None
        ),
        "certified_ratio": certified / len(jobs),
        "fail_ratio": failed / len(jobs),
        "peak_rss_mib": record["peak_rss_mib"],
        "rss_jobs": record["rss_jobs"],
        "jobs": jobs,
        "digests": [j["sha256"] for j in jobs],
        "errors": [(j["index"], j["error"]) for j in jobs if j["error"]],
    }
    summary["reports_sha256"] = hashlib.sha256(
        "".join(summary["digests"]).encode()
    ).hexdigest()
    return summary


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
    }


def _commit() -> str:
    # read .git directly: the checkout may not be a repository, and a git
    # command would search the directories above it
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def measure_untraced(workload, seed, seconds, deadline) -> tuple[dict, dict]:
    records = [
        child(workload, seed, seconds, 0, deadline, setup_only=True)
        for _ in range(SETUPS - 1)
    ]
    record = child(workload, seed, seconds, 0, deadline)
    records.append(record)
    setups = [r["setup_s"] / slowdown(r["setup_calibration"]) for r in records]
    summary = summarize(record)
    summary["setup_s"] = statistics.median(setups)
    summary["setup_samples"] = setups
    metrics = {
        "jobs_per_s": (summary["jobs_per_s"], "1/s"),
        "job_s.p50": (summary["job_s.p50"], "s"),
        "certified_ratio": (summary["certified_ratio"], "ratio"),
        "peak_rss_mib": (summary["peak_rss_mib"], "MiB"),
        "setup_s": (summary["setup_s"], "s"),
    }
    return summary, metrics


def measure_traced(workload, seed, seconds, deadline) -> tuple[dict, dict]:
    traced = child(workload, seed, seconds, 1, deadline, fixed=True)
    summary = summarize(traced)
    plain = summarize(child(workload, seed, seconds, 0, deadline, fixed=True))
    summary["untraced_jobs_per_s"] = plain["jobs_per_s"]
    summary["trace_overhead"] = 1 - summary["jobs_per_s"] / plain["jobs_per_s"]
    summary["digests_match_untraced"] = summary["digests"] == plain["digests"]
    summary["layers"] = {
        name: {"calls": layer["calls"], "self_s": layer["self_s"] / summary["slowdown"]}
        for name, layer in traced["layers"].items()
    }
    summary["counters"] = traced["counters"]
    metrics = {}
    for name in LAYER_NAMES:
        metrics[f"{name}.calls"] = (traced["layers"][name]["calls"], "count")
        metrics[f"{name}.self_s"] = (summary["layers"][name]["self_s"], "s")
    for name, unit in COUNTERS.items():
        metrics[name] = (traced["counters"][name], unit)
    metrics["trace.jobs"] = (summary["attempted"], "count")
    metrics["trace.overhead"] = (summary["trace_overhead"], "ratio")
    return summary, metrics


def report(workload, seed, trace, summary, metrics) -> dict:
    """Print the human-readable lines and return the contract's result."""
    n = summary["attempted"]
    print(f"workload {workload}  seed {seed}  trace {trace}  jobs {n}  "
          f"closed loop, 1 client")
    print(f"  times in reference seconds: {summary['wall_s']:.2f} s of wall time "
          f"at a mean slowdown of {summary['slowdown']:.3f}")
    print(f"  jobs_per_s        {summary['jobs_per_s']:.4f} 1/s  "
          f"({n - summary['failed']} jobs completed)")
    print(f"  job_s.p50         {summary['job_s.p50']:.4f} s  (n={n})")
    if summary["job_s.p90"] is not None:
        print(f"  job_s.p90         {summary['job_s.p90']:.4f} s  (n={n})")
    else:
        print(f"  job_s.p90         omitted: {n} jobs < {P90_MIN_JOBS}")
    print(f"  certified_ratio   {summary['certified_ratio']:.4f}  ({summary['certified']}/{n})")
    print(f"  fail_ratio        {summary['fail_ratio']:.4f}  ({summary['failed']}/{n})")
    print(f"  peak_rss_mib      {summary['peak_rss_mib']:.2f} MiB  "
          f"(after the first {summary['rss_jobs']} jobs)")
    if "setup_s" in summary:
        print(f"  setup_s           {summary['setup_s']:.4f} s  (median of {SETUPS})")
    print(f"  reports_sha256    {summary['reports_sha256']}")
    if trace:
        print(f"  trace overhead    {summary['trace_overhead']:.4f}  "
              f"(untraced {summary['untraced_jobs_per_s']:.4f} 1/s on the same jobs)")
        print(f"  digests equal untraced: {summary['digests_match_untraced']}")
        layers = sorted(
            LAYER_NAMES, key=lambda l: summary["layers"][l]["self_s"], reverse=True
        )
        for name in layers:
            layer = summary["layers"][name]
            print(f"    {name:40s} calls {layer['calls']:9d}  self {layer['self_s']:9.4f} s")
        for name, value in summary["counters"].items():
            print(f"    {name:48s} {value:g}")
    for index, error in summary["errors"]:
        print(f"  job {index} FAILED: {error}", file=sys.stderr)
    correct = summary["failed"] == 0 and summary.get("digests_match_untraced", True)
    return {
        "correct": correct,
        "attempted": n,
        "failed": summary["failed"],
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }


def smoke(deadline: float) -> int:
    """One job per workload, traced twice and untraced once; the three runs
    must agree on verdicts, report digests and deterministic counters."""
    with open(BENCH / "reference_digests.json", encoding="utf-8") as fh:
        reference = json.load(fh)
    seed = reference["seed"]
    ok = True
    digests = {}
    for workload in WORKLOADS:
        first = child(workload, seed, 0, 1, deadline, jobs=1)
        second = child(workload, seed, 0, 1, deadline, jobs=1)
        plain = child(workload, seed, 0, 0, deadline, jobs=1)
        a, b, c = summarize(first), summarize(second), summarize(plain)
        calls = {
            name: [r["layers"][name]["calls"] for r in (first, second)]
            for name in LAYER_NAMES
        }
        checks = {
            "no job failed": a["failed"] == b["failed"] == c["failed"] == 0,
            "traced runs give the same counters": first["counters"] == second["counters"],
            "traced runs give the same calls": all(x == y for x, y in calls.values()),
            "certified_ratio agrees": a["certified_ratio"] == b["certified_ratio"] == c["certified_ratio"],
            "digests agree": a["digests"] == b["digests"] == c["digests"],
        }
        digests[workload] = a["reports_sha256"]
        changed = digests[workload] != reference["digests"][workload]
        print(f"{workload}: verdict {plain['jobs'][0]['verdict']}  "
              f"digest_changed {changed}")
        for name, passed in checks.items():
            print(f"  {'ok  ' if passed else 'FAIL'} {name}")
            ok &= passed
        for index, error in a["errors"] + c["errors"]:
            print(f"  job {index} FAILED: {error}", file=sys.stderr)
    print(json.dumps({"seed": seed, "digests": digests}))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured reference seconds (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one job per workload at the seed in reference_digests.json, "
                             "with the determinism self-check")
    args = parser.parse_args()
    if not (ROOT / "src" / "homopix" / "__init__.py").is_file():
        print(f"error: no homopix sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds is None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        args.seconds = spec["run_seconds"]
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        if args.smoke:
            return smoke(deadline)
        if args.workload is None:
            parser.error("--workload is required unless --smoke is given")
        measure_run = measure_traced if args.trace else measure_untraced
        summary, metrics = measure_run(args.workload, args.seed, args.seconds, deadline)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    summary.update(environment())
    summary.update(workload=args.workload, seed=args.seed, trace=args.trace,
                   seconds=args.seconds)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{args.workload}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
    result = report(args.workload, args.seed, args.trace, summary, metrics)
    print(f"  python {summary['python']}  nproc {summary['nproc']}  commit {summary['commit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
