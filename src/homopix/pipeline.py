"""End-to-end constructions: quantization, candidate search, certified
approximation by part-homogeneous functions.

The driver replaces an input function by a nearby part-homogeneous one and
certifies, with exact rational statistics, that every substructure of the
output already occurs with positive probability in the input.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, comb

from .errors import InvalidInputError, SearchBudgetError
from .functions import PiecewiseFunction, homogeneous_function, resolution
from .homogeneity import HomogeneousSpec, consistent_pairs
from .inlay import Box, InlaySample, sample_random_inlay
from .measure import (
    CELL_CAP,
    StatisticDistribution,
    _box_measures,
    distance_exact,
    mu_exact,
    mu_sample,
)
from .models import DiscreteModel
from .sampling import substream
from .substructure import enumerate_substructures

DEFAULT_TRIALS = 64
EMPIRICAL_TRIALS = 2000
MAX_RESOLUTION_SCAN = 4096
BOX_SCAN_DEPTH = 3


def quantize(f: PiecewiseFunction, parts: int) -> HomogeneousSpec:
    """Best order-free spec at the given resolution: each grid box takes the
    color of maximum exact measure inside it, ties broken toward the
    smallest color index.  All patterns of a box share its color.

    One refinement at the step form's runs and the ``parts`` cell ends
    gives every box's measures; more than ``CELL_CAP`` merged cells (or
    boxes of a threshold) visited raise ``CapExceededError``."""
    if parts < 1:
        raise InvalidInputError("parts must be >= 1")
    _, boxes = _box_measures(f, parts, CELL_CAP)
    box_colors = {
        cells: max(sorted(measures), key=measures.__getitem__)
        for cells, measures in boxes.items()
    }
    table = {
        (cells, pattern): box_colors[cells]
        for cells, pattern in consistent_pairs(parts, f.d)
    }
    return HomogeneousSpec.from_table(parts, f.d, f.k, table)


@dataclass(frozen=True)
class CloseCandidate:
    """One homogeneous inlay found by the candidate search."""

    inlay: InlaySample
    distance: Fraction
    within_bound: bool  # satisfies the 2*d(F,G) + C(d,2)/l guarantee
    trial: int
    box: Box

    @property
    def spec(self) -> HomogeneousSpec:
        return self.inlay.spec

    @property
    def model(self) -> DiscreteModel:
        """The dense inlay model, built on first read."""
        return self.inlay.model


def _dyadic_windows(depth: int) -> list[tuple[Fraction, Fraction]]:
    windows = []
    for level in range(depth + 1):
        scale = 1 << level
        windows.extend(
            (Fraction(j, scale), Fraction(j + 1, scale)) for j in range(scale)
        )
    return windows


def _trial_box(strategy: str, parts: int, seed: int, trial: int) -> Box:
    if strategy == "full":
        return Box.full(parts)
    if strategy == "dyadic":
        # Conditioning stand-in: per block, a seeded pick from a dyadic grid
        # of candidate windows (the full window included at depth 0).
        rng = substream(seed, (trial << 20) | 1)
        windows = _dyadic_windows(BOX_SCAN_DEPTH)
        chosen = [windows[rng.randrange(len(windows))] for _ in range(parts)]
        return Box(
            lower=tuple(w[0] for w in chosen), upper=tuple(w[1] for w in chosen)
        )
    raise InvalidInputError(f"unknown box strategy {strategy!r}")


def iter_close_candidates(
    f: PiecewiseFunction,
    base: HomogeneousSpec,
    size: int,
    trials: int,
    seed: int,
    box_strategy: str = "full",
):
    """Lazily yield the candidates of :func:`sample_close_candidates` in
    trial order; consuming only a prefix skips the remaining sampling."""
    if size < f.d:
        raise InvalidInputError(f"size {size} smaller than arity {f.d}")
    parts = base.parts
    bound = 2 * distance_exact(f, homogeneous_function(base)) + Fraction(
        comb(f.d, 2), parts
    )
    avoid = resolution(f)
    seen: set[HomogeneousSpec] = set()
    for trial in range(trials):
        box = _trial_box(box_strategy, parts, seed, trial)
        sample = sample_random_inlay(
            f, parts, size, box, seed, index=trial, avoid_resolution=avoid
        )
        if sample.spec is None or sample.spec in seen:
            continue
        seen.add(sample.spec)
        dist = distance_exact(f, homogeneous_function(sample.spec))
        yield CloseCandidate(
            inlay=sample,
            distance=dist,
            within_bound=dist <= bound,
            trial=trial,
            box=box,
        )


def sample_close_candidates(
    f: PiecewiseFunction,
    base: HomogeneousSpec,
    size: int,
    trials: int,
    seed: int,
    box_strategy: str = "full",
) -> list[CloseCandidate]:
    """Sample inlays of ``f`` at the base spec's resolution, keep the
    part-homogeneous ones, and report each extracted spec with its exact
    distance to ``f``.

    Candidates beyond the ``2*d(f, base) + C(d,2)/parts`` guarantee are kept
    but marked; the guarantee is an existence statement, so a sufficiently
    sampled run contains at least one marked-true candidate.  An empty list
    is a valid outcome of an unlucky budget.
    """
    return list(
        iter_close_candidates(f, base, size, trials, seed, box_strategy)
    )


@dataclass(frozen=True)
class CertificateEntry:
    """One substructure row of a certification table."""

    model: DiscreteModel
    mu: Fraction | None  # exact probability, or None in empirical mode
    count: int | None = None
    trials: int | None = None


@dataclass(frozen=True)
class CertificateTable:
    n: int
    entries: tuple[CertificateEntry, ...]


@dataclass(frozen=True)
class EnsureSizeReport:
    """Containment of the input's size-r substructures in the output."""

    r: int
    min_mass: Fraction
    adjusted_epsilon: Fraction
    missing: tuple[DiscreteModel, ...]

    @property
    def ok(self) -> bool:
        return not self.missing


@dataclass(frozen=True)
class PixelationCertificate:
    """Output of the certified approximation driver.

    ``verdict`` is ``pass`` when every listed probability is positive and
    the distance is within budget -- both checked with exact rationals.  For
    inputs without an exact step form the tables hold sampled frequencies
    and the verdict can reach at most ``consistent``.
    """

    g_prime: HomogeneousSpec
    parts: int
    size: int
    epsilon: Fraction
    distance: Fraction
    tables: tuple[CertificateTable, ...]
    verdict: str  # "pass" | "consistent" | "fail"
    seed: int
    mode: str  # "exact" | "empirical"
    ensure_size: EnsureSizeReport | None = None


def certify(
    spec: HomogeneousSpec,
    f: PiecewiseFunction,
    n_max: int,
    trials: int = EMPIRICAL_TRIALS,
    seed: int = 0,
) -> tuple[tuple[CertificateTable, ...], str, str]:
    """Tabulate, for each n <= n_max, the probability under ``f`` of every
    substructure of ``spec``.

    Exact mode (``f`` has a step form): verdict ``pass`` iff all
    probabilities are positive.  Empirical mode: frequencies from seeded
    sampling with reported trial counts; verdict at most ``consistent``
    (never ``pass``), and ``fail`` when a substructure was never observed.
    """
    exact = resolution(f) is not None
    tables = []
    all_positive = True
    for n in range(1, n_max + 1):
        rows = []
        structures = enumerate_substructures(spec, n)
        if exact:
            dist = mu_exact(f, n)
            for model in structures:
                p = dist.probability(model)
                if p <= 0:
                    all_positive = False
                rows.append(CertificateEntry(model=model, mu=p))
        else:
            report = mu_sample(f, n, trials, substream(seed, n).getrandbits(32))
            counts = {model: c for model, c in report.counts}
            for model in structures:
                c = counts.get(model, 0)
                if c == 0:
                    all_positive = False
                rows.append(
                    CertificateEntry(model=model, mu=None, count=c, trials=trials)
                )
        tables.append(CertificateTable(n=n, entries=tuple(rows)))
    mode = "exact" if exact else "empirical"
    if all_positive:
        verdict = "pass" if exact else "consistent"
    else:
        verdict = "fail"
    return tuple(tables), verdict, mode


def _choose_parts(f: PiecewiseFunction, epsilon: Fraction) -> tuple[int, HomogeneousSpec]:
    """Smallest resolution at or above 3*C(d,2)/epsilon whose quantization is
    within epsilon/3 of the input."""
    base = max(ceil(Fraction(3 * comb(f.d, 2)) / epsilon), 1)
    native = resolution(f)
    limit = MAX_RESOLUTION_SCAN
    if native is not None:
        # A multiple of the native resolution quantizes exactly, so the scan
        # is guaranteed to stop by then.
        limit = base + native
    parts = base
    while parts <= limit:
        spec = quantize(f, parts)
        if distance_exact(f, homogeneous_function(spec)) <= epsilon / 3:
            return parts, spec
        parts += 1
    raise SearchBudgetError(
        f"no resolution up to {limit} quantizes within epsilon/3"
    )


def pixelate(
    f: PiecewiseFunction,
    epsilon: Fraction,
    n_max: int,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    box_strategy: str = "full",
    _ensure: tuple[int, StatisticDistribution] | None = None,
) -> PixelationCertificate:
    """Certified approximation: find a part-homogeneous spec within
    ``epsilon`` of ``f`` none of whose substructures of size <= n_max is new.

    Resolution starts at ``3*C(d,2)/epsilon`` and grows until quantization
    is within ``epsilon/3``; the inlay size is ``max(d, n_max)`` so that
    every substructure of the output up to ``n_max`` points already lives
    inside the sampled witness model.  Candidates are accepted in discovery
    order once the exact distance is within ``epsilon`` and certification
    succeeds.  Exhausting the budget raises, never silently accepts.
    """
    if isinstance(epsilon, float):
        raise InvalidInputError("epsilon must be an exact rational")
    epsilon = Fraction(epsilon)
    if not 0 < epsilon <= 1:
        raise InvalidInputError("epsilon must be in (0, 1]")
    if n_max < 1:
        raise InvalidInputError("n_max must be >= 1")
    parts, base = _choose_parts(f, epsilon)
    size = max(f.d, n_max)
    attempts = []
    found = 0
    for cand in iter_close_candidates(f, base, size, trials, seed, box_strategy):
        found += 1
        if cand.distance > epsilon:
            attempts.append((cand.spec, cand.distance, "distance"))
            continue
        ensure_report = None
        if _ensure is not None:
            r, dist_r = _ensure
            present = set(enumerate_substructures(cand.spec, r))
            missing = tuple(
                m for m in sorted(dist_r.support(), key=lambda m: m.values)
                if m not in present
            )
            ensure_report = EnsureSizeReport(
                r=r,
                min_mass=min(p for _, p in dist_r.entries if p > 0),
                adjusted_epsilon=epsilon,
                missing=missing,
            )
            if missing:
                attempts.append((cand.spec, cand.distance, "containment"))
                continue
        tables, verdict, mode = certify(cand.spec, f, n_max, seed=seed)
        if verdict in ("pass", "consistent"):
            return PixelationCertificate(
                g_prime=cand.spec,
                parts=parts,
                size=size,
                epsilon=epsilon,
                distance=cand.distance,
                tables=tables,
                verdict=verdict,
                seed=seed,
                mode=mode,
                ensure_size=ensure_report,
            )
        attempts.append((cand.spec, cand.distance, "certification"))
    raise SearchBudgetError(
        f"no certified candidate in {trials} trials "
        f"({found} homogeneous inlays, {len(attempts)} rejected)",
        report={"parts": parts, "attempts": attempts},
    )


def pixelate_ensure_size(
    f: PiecewiseFunction,
    epsilon: Fraction,
    r: int,
    n_max: int,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    box_strategy: str = "full",
) -> PixelationCertificate:
    """Like :func:`pixelate`, additionally guaranteeing containment in both
    directions at size ``r``: every size-``r`` substructure of ``f`` with
    positive probability also occurs in the output.

    Achieved by shrinking the distance budget to
    ``min(epsilon, delta / (2 r^d))`` where ``delta`` is the minimum positive
    mass at size ``r``, then rejecting candidates that miss a structure.
    """
    if isinstance(epsilon, float):
        raise InvalidInputError("epsilon must be an exact rational")
    epsilon = Fraction(epsilon)
    dist_r = mu_exact(f, r)
    delta = min(p for _, p in dist_r.entries if p > 0)
    adjusted = min(epsilon, delta / (2 * r**f.d))
    return pixelate(
        f,
        adjusted,
        n_max,
        trials=trials,
        seed=seed,
        box_strategy=box_strategy,
        _ensure=(r, dist_r),
    )
