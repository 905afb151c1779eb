"""Exact rational distance and statistic distributions, with seeded
Monte Carlo estimates.

All semantics-bearing values are exact fractions or exact counts.  For
inputs with an exact step form the Monte Carlo variants are statistical
cross-checks of the exact oracles.  ``threshold`` has no step form; its
box areas have a closed form (:func:`_low_numerator`), but its
certification is empirical: ``pipeline.certify`` decides ``consistent`` or
``fail`` from the :func:`mu_sample` counts.  Both samplers color the
integer words of their points (``functions._word_colorer``), so each count
is the one exact evaluation at those points would give.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, lcm, prod, sqrt
from typing import Mapping

from .errors import CapExceededError, InvalidInputError
from .functions import PiecewiseFunction, _step, _word_colorer
from .models import DiscreteModel, index_tuples, order_pattern, pattern_consistent
from .sampling import _trial_words
from .substructure import _induced_models

MU_CAP = 1_000_000
CELL_CAP = 250_000


@dataclass(frozen=True)
class StatisticDistribution:
    """Exact distribution of the model induced on ``n`` sorted uniform points."""

    n: int
    d: int
    k: int
    entries: tuple[tuple[DiscreteModel, Fraction], ...]
    _lookup: Mapping[DiscreteModel, Fraction] = field(
        init=False, repr=False, compare=False, default=None
    )

    def __post_init__(self):
        total = sum((p for _, p in self.entries), Fraction(0))
        if total != 1:
            raise InvalidInputError(f"probability mass {total} != 1")
        if any(p < 0 for _, p in self.entries):
            raise InvalidInputError("negative probability")
        lookup: dict[DiscreteModel, Fraction] = {}
        for model, p in self.entries:
            lookup.setdefault(model, p)
        object.__setattr__(self, "_lookup", lookup)

    def probability(self, model: DiscreteModel) -> Fraction:
        return self._lookup.get(model, Fraction(0))

    def support(self) -> set[DiscreteModel]:
        return {m for m, p in self.entries if p > 0}


@dataclass(frozen=True)
class SampleReport:
    """Observed models and counts from seeded sampling."""

    n: int
    trials: int
    seed: int
    counts: tuple[tuple[DiscreteModel, int], ...]
    _lookup: Mapping[DiscreteModel, int] = field(
        init=False, repr=False, compare=False, default=None
    )

    def __post_init__(self):
        if sum(c for _, c in self.counts) != self.trials:
            raise InvalidInputError("counts do not sum to trials")
        lookup: dict[DiscreteModel, int] = {}
        for model, c in self.counts:
            lookup.setdefault(model, c)
        object.__setattr__(self, "_lookup", lookup)

    def frequency(self, model: DiscreteModel) -> Fraction:
        return Fraction(self._lookup.get(model, 0), self.trials)


@dataclass(frozen=True)
class MonteCarloEstimate:
    estimate: Fraction
    stderr: float
    trials: int
    seed: int


def _strict_patterns(cells: tuple[int, ...]) -> tuple[list[tuple[int, ...]], int]:
    """Strict order patterns consistent with a cell vector, and ``prod(g!)``
    over its groups of ``g`` coordinates sharing a cell."""
    d = len(cells)
    groups: dict[int, list[int]] = {}
    for pos, c in enumerate(cells):
        groups.setdefault(c, []).append(pos)
    ordered = [groups[c] for c in sorted(groups)]
    ties = 1
    offsets = []
    base = 1
    for g in ordered:
        ties *= factorial(len(g))
        offsets.append(base)
        base += len(g)
    patterns = []
    for arrangement in itertools.product(
        *(itertools.permutations(g) for g in ordered)
    ):
        pattern = [0] * d
        for g_positions, off in zip(arrangement, offsets):
            for step, pos in enumerate(g_positions):
                pattern[pos] = off + step
        patterns.append(tuple(pattern))
    return patterns, ties


def _refine(grids, d: int, cap: int):
    """Common refinement of step grids at the union of their run ends.

    ``grids`` holds ``(res, ends)`` pairs, ``ends`` the last cell of every
    run of a step form, ascending, the last being ``res``.  The ends are
    scaled to ``L = lcm(res, ...)`` and merged, so every merged interval
    lies in one run of each grid; the last cell of that run stands for it.
    ``cap`` bounds the merged cells visited (``m^d`` for ``m`` merged
    intervals).

    Returns ``(L, cuts, regions)``: merged interval ``i`` is
    ``(cuts[i], cuts[i+1]]`` in units of ``1/L``, and ``regions`` yields
    ``(vec, cells, patterns, weight)`` for each merged cell vector ``vec``:
    ``cells[k]`` is grid ``k``'s representative cell vector, ``patterns``
    the strict order patterns of ``vec``, and ``weight`` the volume of each
    pattern's region as an integer over ``L^d * d!``.  Coordinates sharing
    a merged interval split its box evenly, so the weight is
    ``prod(len_i) * d!/prod(g!)``.
    """
    L = lcm(*(res for res, _ in grids))
    cuts = [0] + sorted({end * (L // res) for res, ends in grids for end in ends})
    reps = []
    for res, ends in grids:
        scale = L // res
        run_end = iter(ends)
        end = next(run_end)
        column = []
        for hi in cuts[1:]:
            while end * scale < hi:
                end = next(run_end)
            column.append(end)
        reps.append(column)
    count = (len(cuts) - 1) ** d
    if count > cap:
        raise CapExceededError(f"{count} merged cells exceed cap {cap}")
    return L, cuts, _regions(d, cuts, reps)


def _regions(d, cuts, reps):
    # the loop of _refine; the patterns of a merged cell vector depend only
    # on which of its coordinates share an interval, so they are kept per shape
    lengths = [hi - lo for lo, hi in zip(cuts, cuts[1:])]
    full = factorial(d)
    shapes: dict[tuple[int, ...], tuple[list[tuple[int, ...]], int]] = {}
    for vec in itertools.product(range(len(lengths)), repeat=d):
        shape = order_pattern(vec)
        known = shapes.get(shape)
        if known is None:
            patterns, ties = _strict_patterns(shape)
            known = shapes[shape] = (patterns, full // ties)
        yield (
            vec,
            tuple(tuple(column[i] for i in vec) for column in reps),
            known[0],
            prod(lengths[i] for i in vec) * known[1],
        )


# ---------------------------------------------------------------------------
# exact areas for the diagonal threshold generator (d = 2)

def _low_numerator(top: int, q: int, lo1: int, hi1: int, lo2: int, hi2: int) -> int:
    """``2*(q*L)^2`` times the area of ``{x1 + x2 <= p/q}`` in the box
    ``[lo1, hi1] x [lo2, hi2]``, with corners in units of ``1/L`` and
    ``top = p*L``: inclusion-exclusion on ``G(t) = max(t, 0)^2 / 2``, the
    area of ``{u + v <= t}`` for ``u, v >= 0``, over the integer corner
    values ``top - q*(x1 + x2)``."""
    total = 0
    for s, sign in ((lo1 + lo2, 1), (hi1 + lo2, -1), (lo1 + hi2, -1), (hi1 + hi2, 1)):
        t = top - q * s
        if t > 0:
            total += sign * t * t
    return total


def threshold_low_measure(
    cut: Fraction, cells: tuple[int, int], pattern: tuple[int, int] | None, res: int
) -> Fraction:
    """Area of ``{x1 + x2 <= cut}`` inside a grid box, optionally restricted
    to one strict-order half of it.  A diagonal box and the line are both
    symmetric under swapping ``x1`` and ``x2``, so each half holds half the
    area; an off-diagonal box lies wholly in one half."""
    if pattern and (pattern[0] == pattern[1] or not pattern_consistent(cells, pattern)):
        return Fraction(0)  # the tie line, or the half the box misses
    (c1, c2), q = cells, cut.denominator
    low = _low_numerator(cut.numerator * res, q, c1 - 1, c1, c2 - 1, c2)
    return Fraction(low, (4 if pattern and c1 == c2 else 2) * (q * res) ** 2)


def _box_measures(
    f: PiecewiseFunction, parts: int, cap: int
) -> tuple[int, dict[tuple[int, ...], dict[int, int]]]:
    """Measure of each color in each box of the ``parts``-grid, as
    numerators over the returned denominator.

    A step form is refined once at its runs and the ``parts`` cell ends; a
    threshold ``c = p/q`` is measured in closed form, over ``2*(parts*q)^2``.
    ``cap`` bounds the merged cells, or the threshold boxes, visited.  Every
    box holds at least one merged cell, so more than ``cap`` boxes raise
    before anything is built.
    """
    if parts**f.d > cap:
        raise CapExceededError(f"{parts**f.d} boxes exceed cap {cap}")
    step = _step(f)
    if step is not None:
        res, runs, color, _ = step
        L, _, regions = _refine([(res, runs), (parts, range(1, parts + 1))], f.d, cap)
        out: dict = {}
        for _, (cells, box_cells), patterns, weight in regions:
            measures = out.setdefault(box_cells, {})
            for pattern in patterns:
                c = color(cells, pattern)
                measures[c] = measures.get(c, 0) + weight
        return L**f.d * factorial(f.d), out
    if f.kind == "generator" and f.name == "threshold":
        cut = f.param("c")
        top, q = cut.numerator * parts, cut.denominator
        out = {}
        for c1, c2 in index_tuples(parts, 2):
            low = _low_numerator(top, q, c1 - 1, c1, c2 - 1, c2)
            out[c1, c2] = {1: low, 2: 2 * q * q - low}
        return 2 * (parts * q) ** 2, out
    raise InvalidInputError(f"generator {f.name!r} has no exact measure oracle")


def box_color_measures(
    f: PiecewiseFunction, cells: tuple[int, ...], parts: int
) -> dict[int, Fraction]:
    """Exact measure of each color inside a box of the ``parts``-grid."""
    if len(cells) != f.d or not all(1 <= c <= parts for c in cells):
        raise InvalidInputError(f"box {cells} is not a cell of the {parts}-grid")
    denom, boxes = _box_measures(f, parts, CELL_CAP)
    return {c: Fraction(w, denom) for c, w in boxes[tuple(cells)].items()}


# ---------------------------------------------------------------------------
# distance

def distance_exact(
    f: PiecewiseFunction, g: PiecewiseFunction, cell_cap: int = CELL_CAP
) -> Fraction:
    """Probability that ``f`` and ``g`` disagree at a uniform point, exactly.

    Both arguments must expose an exact step form, except that one side may
    be the threshold generator.  Two step forms are refined once at the
    union of their run ends (see :func:`_refine`), where each merged region
    has one color on either side; against a threshold ``c = p/q`` each
    merged box of the stepped side is measured in closed form, a diagonal
    one half per pattern, into one integer over ``4*(L*q)^2``.  ``cell_cap``
    bounds the ``m^d`` merged cells visited.  Tie regions have measure zero
    and contribute nothing.
    """
    if f.d != g.d or f.k != g.k:
        raise InvalidInputError("dimension/color mismatch")
    if f == g:
        return Fraction(0)
    sf, sg = _step(f), _step(g)
    if sf is None and sg is None:
        raise InvalidInputError("neither side has an exact step form")
    if sf is not None and sg is not None:
        (rf, runs_f, color_f, _), (rg, runs_g, color_g, _) = sf, sg
        L, _, regions = _refine([(rf, runs_f), (rg, runs_g)], f.d, cell_cap)
        differ = 0
        for _, (cells_f, cells_g), patterns, weight in regions:
            for pattern in patterns:
                if color_f(cells_f, pattern) != color_g(cells_g, pattern):
                    differ += weight
        return Fraction(differ, L**f.d * factorial(f.d))
    (res, runs, color, _), other = (sf, g) if sf is not None else (sg, f)
    if not (other.kind == "generator" and other.name == "threshold"):
        raise InvalidInputError(f"generator {other.name!r} has no exact step form")
    cut = other.param("c")
    L, cuts, regions = _refine([(res, runs)], 2, cell_cap)
    top, q = cut.numerator * L, cut.denominator
    vol_scale = 2 * q * q  # a weight over 2*L^2, rescaled to 4*(L*q)^2
    differ = 0
    for (i, j), (cells,), patterns, weight in regions:
        low = _low_numerator(top, q, cuts[i], cuts[i + 1], cuts[j], cuts[j + 1])
        if i != j:  # over 2*(L*q)^2; a diagonal box's halves each hold half
            low *= 2
        for pattern in patterns:
            differ += (weight * vol_scale - low) if color(cells, pattern) == 1 else low
    return Fraction(differ, 4 * (L * q) ** 2)


def distance_mc(
    f: PiecewiseFunction, g: PiecewiseFunction, trials: int, seed: int
) -> MonteCarloEstimate:
    """Fraction of uniformly sampled points where evaluations differ.

    Deterministic given the seed; trial ``t`` reads the words of
    ``substream(seed, t)`` (hashed for all trials in one loop by
    ``sampling._trial_words``), so the result is independent of any
    parallel evaluation order.  Each point is ``d`` integer words, ranked
    and colored on both sides as integers.
    """
    if f.d != g.d or f.k != g.k:
        raise InvalidInputError("dimension/color mismatch")
    if trials < 1:
        raise InvalidInputError("trials must be >= 1")
    pos = tuple(range(f.d))
    by_pattern = {}  # both colorers for the points of one order pattern
    differ = 0
    for us in _trial_words(seed, trials, f.d, distinct=False):
        pattern = order_pattern(us)
        pair = by_pattern.get(pattern)
        if pair is None:
            shapes = ((pos, pattern),)
            pair = by_pattern[pattern] = (
                _word_colorer(f, shapes), _word_colorer(g, shapes)
            )
        if pair[0](us) != pair[1](us):
            differ += 1
    p = Fraction(differ, trials)
    stderr = sqrt(float(p) * (1.0 - float(p)) / trials)
    return MonteCarloEstimate(estimate=p, stderr=stderr, trials=trials, seed=seed)


# ---------------------------------------------------------------------------
# statistic distributions

def mu_exact(f: PiecewiseFunction, n: int, cap: int = MU_CAP) -> StatisticDistribution:
    """Exact distribution of the ``[n]^d`` model induced by ``n`` sorted
    uniform points.

    The points are almost surely distinct and globally sorted, so the
    induced model depends only on which run of the step form (an interval
    of cells on which the color depends only on the run vector and the
    order pattern) each point lies in.  An assignment with ``cnt_i`` points
    in run ``i`` of ``len_i`` cells has probability
    ``n!/prod(cnt_i!) * prod(len_i^cnt_i) / L^n`` at step resolution ``L``.
    ``cap`` bounds the ``C(r+n-1, n)`` run assignments walked for ``r``
    runs.
    """
    step = _step(f)
    if step is None:
        raise InvalidInputError(
            f"generator {f.name!r} has no exact step form; use sampling instead"
        )
    res, runs, color, _ = step
    weights = _induced_models(runs, color, f.d, n, cap)
    denom = res**n
    entries = tuple(
        (DiscreteModel(d=f.d, k=f.k, m=n, values=v), Fraction(w, denom))
        for v, w in sorted(weights.items())
    )
    return StatisticDistribution(n=n, d=f.d, k=f.k, entries=entries)


def mu_sample(f: PiecewiseFunction, n: int, trials: int, seed: int) -> SampleReport:
    """Sampled counterpart of :func:`mu_exact`: draws ``n`` uniforms, sorts
    them (exact collisions are redrawn), and tallies the induced models.

    The points are sorted and distinct, so the order pattern of the point
    at an index tuple is that of the tuple itself, computed once; trial
    ``t`` colors the ``n`` sorted integer words of ``substream(seed, t)``,
    all hashed in one loop by ``sampling._trial_words``."""
    if trials < 1:
        raise InvalidInputError("trials must be >= 1")
    if n < 1:
        raise InvalidInputError("n must be >= 1")
    colors = _word_colorer(
        f,
        [
            (tuple(i - 1 for i in idx), order_pattern(idx))
            for idx in index_tuples(n, f.d)
        ],
    )
    counts = Counter(map(colors, _trial_words(seed, trials, n, distinct=True)))
    tallies = tuple(
        (DiscreteModel(d=f.d, k=f.k, m=n, values=v), c)
        for v, c in sorted(counts.items())
    )
    return SampleReport(n=n, trials=trials, seed=seed, counts=tallies)
