"""The benchmark's workloads: job generation, one timed job, and the output
check.

Jobs come in rounds.  A round holds one job of every input class of its
workload (a class fixes the input sizes that set a job's cost, such as the
grid side or the resolution), in an order shuffled from the seed, so every
completed round carries the same mix whatever the seed.  Within a class the
seed draws the free inputs: grid values, generator seeds, pixelate seeds.
Round ``r`` of workload ``w`` at seed ``s`` depends only on ``(w, s, r)``.

Why each workload exists, and which layers it stresses, is in NOTES.md.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction

import homopix
import homopix.cli
from homopix.errors import SearchBudgetError
from homopix.functions import homogeneous_function, resolution
from homopix.measure import distance_exact
from homopix.serialize import (
    certificate_to_json,
    function_to_json,
    model_from_json,
    rational_from_json,
)

CERTIFIED = ("pass", "consistent")
BUDGET = "budget-exhausted"

# certify-mu: the paper's negative-control family, (depth_cap, epsilon, n_max)
DYADIC_CASES = (
    (5, Fraction(1, 2), 3),
    (5, Fraction(9, 32), 4),
    (6, Fraction(1, 2), 3),
    (6, Fraction(9, 32), 3),
    (7, Fraction(1, 2), 2),
)
# certify-enum: epsilon 3/p for p = 24, 27, 30, so the resolution is p
ENUM_EPSILONS = (Fraction(1, 8), Fraction(1, 9), Fraction(1, 10))
ENUM_FAMILIES = ("order_function", "random_homogeneous/k2", "random_homogeneous/k3")
THRESHOLD_CUTS = (
    Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(4, 3), Fraction(3, 2)
)
THRESHOLD_EPSILONS = (Fraction(1, 3), Fraction(1, 2))


@dataclass(frozen=True)
class Job:
    index: int
    label: str  # input class
    f: homopix.PiecewiseFunction
    epsilon: Fraction
    n_max: int
    trials: int
    seed: int
    path: str | None = None  # CLI input file (grid-batch only)


def _grid_round(rng, r):
    jobs = []
    for m, k in [(3, 2), (3, 3), (4, 2), (4, 3), (5, 2), (5, 3)]:
        model = homopix.DiscreteModel(
            d=2, k=k, m=m, values=tuple(rng.randrange(1, k + 1) for _ in range(m * m))
        )
        jobs.append((f"m{m}k{k}", homopix.grid_function(model), Fraction(3, 10), 3, 400))
    return jobs


def _enum_round(rng, r):
    jobs = []
    for i, family in enumerate(ENUM_FAMILIES):
        # a Latin square over (family, epsilon): every round holds each
        # family once and each epsilon once
        epsilon = ENUM_EPSILONS[(i + r) % len(ENUM_EPSILONS)]
        if family == "order_function":
            f = homopix.generator("order_function")
        else:
            k = int(family[-1])
            f = homopix.generator(
                "random_homogeneous",
                {"l": 3, "d": 2, "k": k, "seed": rng.randrange(1 << 31)},
            )
        jobs.append((f"{family}/eps{epsilon}", f, epsilon, 4, 64))
    return jobs


def _mu_round(rng, r):
    return [
        (
            f"depth{depth}/eps{epsilon}/n{n_max}",
            homopix.generator("dyadic_alternating", {"depth_cap": depth}),
            epsilon,
            n_max,
            256,
        )
        for depth, epsilon, n_max in DYADIC_CASES
    ]


def _threshold_round(rng, r):
    return [
        (f"c{c}/eps{epsilon}", homopix.generator("threshold", {"c": c}), epsilon, 2, 64)
        for c in THRESHOLD_CUTS
        for epsilon in THRESHOLD_EPSILONS
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    cli: bool  # jobs run through homopix.cli.run instead of the library
    setup_rounds: int  # rounds generated before the first timed job
    # Rounds that every run completes, about 2/3 of a 12 s run today: peak
    # memory is read at their end, and a traced run runs exactly these, so
    # both describe the same work on every commit, whatever its speed.
    fixed_rounds: int
    round_specs: object  # (rng, round index) -> [(label, f, epsilon, n_max, trials)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("grid-batch", True, 32, 12, _grid_round),
        Workload("certify-enum", False, 10, 4, _enum_round),
        Workload("certify-mu", False, 16, 6, _mu_round),
        Workload("empirical-threshold", False, 10, 4, _threshold_round),
    )
}


def make_round(workload: Workload, seed: int, r: int, workdir: str) -> list[Job]:
    """The jobs of round ``r``; grid-batch also writes their input files."""
    rng = random.Random(f"{workload.name}/{seed}/{r}")
    specs = workload.round_specs(rng, r)
    rng.shuffle(specs)
    jobs = []
    for pos, (label, f, epsilon, n_max, trials) in enumerate(specs):
        index = r * len(specs) + pos
        path = None
        if workload.cli:
            path = os.path.join(workdir, f"input-{index}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(function_to_json(f), fh)
        jobs.append(
            Job(index, label, f, epsilon, n_max, trials, rng.randrange(1 << 31), path)
        )
    return jobs


def run_job(workload: Workload, job: Job):
    """The timed part: one pixelate job, returning its raw result."""
    if workload.cli:
        argv = [
            "pixelate", "--in", job.path,
            "--epsilon", f"{job.epsilon.numerator}/{job.epsilon.denominator}",
            "--nmax", str(job.n_max),
            "--trials", str(job.trials),
            "--seed", str(job.seed),
        ]
        buf = io.StringIO()
        with redirect_stdout(buf):
            # looked up at call time so that a traced run sees the wrapper
            code = homopix.cli.run(argv)
        return code, buf.getvalue()
    try:
        return homopix.pixelate(
            job.f, job.epsilon, job.n_max, trials=job.trials, seed=job.seed
        )
    except SearchBudgetError as exc:
        return exc


def check(workload: Workload, job: Job, raw) -> tuple[str, bytes, str | None]:
    """Check one job's output outside the timed region; return its verdict,
    its report bytes and the problem found, or None when it is correct.

    A certified result must carry the job's epsilon, a distance that
    ``distance_exact`` reproduces and that is within epsilon, one table per
    size up to n_max, and only positive rows (exact probabilities, or
    sampled counts in empirical mode).  A CLI run must exit 0 on a certified
    verdict and 1 on any other.  An exhausted search budget is a documented
    verdict, not a failure.
    """
    if workload.cli:
        code, text = raw
        result = json.loads(text)["result"]
        verdict = result.get("error") or result["verdict"]
        expected_code = 0 if verdict in CERTIFIED else 1
        if code != expected_code:
            problem = f"exit code {code} for verdict {verdict!r}"
        elif verdict == BUDGET:
            problem = None
        else:
            problem = _certificate_problem(
                job,
                verdict=verdict,
                mode=result["mode"],
                epsilon=rational_from_json(result["epsilon"]),
                distance=rational_from_json(result["distance"]),
                g=model_from_json(result["g_prime"]),
                tables=[
                    (t["n"], [_row_value(row) for row in t["entries"]])
                    for t in result["tables"]
                ],
            )
        return verdict, text.encode(), problem
    if isinstance(raw, SearchBudgetError):
        text = json.dumps({"error": BUDGET, "detail": str(raw)}, indent=2) + "\n"
        return BUDGET, text.encode(), None
    cert = raw
    text = json.dumps(certificate_to_json(cert), indent=2) + "\n"
    problem = _certificate_problem(
        job,
        verdict=cert.verdict,
        mode=cert.mode,
        epsilon=cert.epsilon,
        distance=cert.distance,
        g=homogeneous_function(cert.g_prime),
        tables=[
            (t.n, [e.mu if e.mu is not None else e.count for e in t.entries])
            for t in cert.tables
        ],
    )
    return cert.verdict, text.encode(), problem


def _row_value(row):
    return rational_from_json(row["mu"]) if "mu" in row else row["count"]


def _certificate_problem(job, verdict, mode, epsilon, distance, g, tables):
    exact = resolution(job.f) is not None
    if verdict not in CERTIFIED:
        return f"verdict {verdict!r}"
    if (verdict, mode) != (("pass", "exact") if exact else ("consistent", "empirical")):
        return f"verdict {verdict!r} in mode {mode!r}"
    if epsilon != job.epsilon:
        return f"epsilon {epsilon} != {job.epsilon}"
    if distance > epsilon:
        return f"distance {distance} > epsilon {epsilon}"
    recomputed = distance_exact(job.f, g)
    if recomputed != distance:
        return f"distance {distance} != recomputed {recomputed}"
    if [n for n, _ in tables] != list(range(1, job.n_max + 1)):
        return f"tables for sizes {[n for n, _ in tables]}"
    for n, values in tables:
        if not all(v > 0 for v in values):
            return f"a size-{n} table row has no positive mass"
    return None


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
