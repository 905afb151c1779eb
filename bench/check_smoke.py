"""Smoke test of the benchmark.  Not part of the tier-1 suite (the file name
does not match pytest's default patterns); run it explicitly:

    python3 -m pytest bench/check_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def test_smoke_mode_runs_one_job_per_workload_and_self_checks():
    proc = _run("--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "FAIL" not in proc.stdout
    digests = json.loads(proc.stdout.splitlines()[-1])["digests"]
    assert set(digests) == {
        "grid-batch", "certify-enum", "certify-mu", "empirical-threshold"
    }


def test_untraced_run_prints_the_end_to_end_metrics_last():
    proc = _run("--workload", "certify-mu", "--seed", "3", "--seconds", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 30  # the fixed rounds: 6 of the five dyadic cases
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == _units("end_to_end")
    assert all(m["value"] > 0 for m in metrics.values())


def test_traced_run_reports_every_layer_and_identical_reports():
    proc = _run("--workload", "certify-mu", "--seed", "3", "--seconds", "0",
                "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"]
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == _units("per_layer")
    assert metrics["measure.mu_exact.calls"]["value"] > 0
    assert metrics["measure.mu_exact.assignments"]["value"] > 0
    assert metrics["trace.jobs"]["value"] == result["attempted"]
    layers = [name[: -len(".self_s")] for name in metrics if name.endswith(".self_s")]
    assert len(layers) == 14
    busiest = max(layers, key=lambda name: metrics[name + ".self_s"]["value"])
    assert busiest == "measure.mu_exact"


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "grid-batch", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
