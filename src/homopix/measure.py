"""Exact rational distance and statistic distributions, with seeded
Monte Carlo cross-checks.

All semantics-bearing values are exact fractions.  The Monte Carlo variants
exist purely as statistical cross-checks of the exact oracles; they never
feed certification verdicts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, lcm, sqrt
from typing import Iterator, Mapping

from .errors import CapExceededError, InvalidInputError
from .functions import PiecewiseFunction, color_at, evaluate, resolution, step_form
from .models import DiscreteModel, index_tuples
from .sampling import dyadic_unit, sorted_distinct, substream
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


def strict_regions(
    cells: tuple[int, ...], res: int
) -> Iterator[tuple[tuple[int, ...], Fraction]]:
    """Strict order patterns consistent with a cell vector, with the exact
    volume of each region.

    Coordinates in distinct cells are ordered by their cells; within a group
    of g coordinates sharing a cell each of the g! strict orders carves out
    an equal share, so every region has volume ``res^-d / prod(g!)``.
    Tie regions have measure zero and are not enumerated.
    """
    d = len(cells)
    groups: dict[int, list[int]] = {}
    for pos, c in enumerate(cells):
        groups.setdefault(c, []).append(pos)
    ordered = [groups[c] for c in sorted(groups)]
    vol = Fraction(1, res**d)
    for g in ordered:
        vol /= factorial(len(g))
    offsets = []
    base = 1
    for g in ordered:
        offsets.append(base)
        base += len(g)
    for arrangement in itertools.product(
        *(itertools.permutations(g) for g in ordered)
    ):
        pattern = [0] * d
        for g_positions, off in zip(arrangement, offsets):
            for step, pos in enumerate(g_positions):
                pattern[pos] = off + step
        yield tuple(pattern), vol


# ---------------------------------------------------------------------------
# exact geometry for the diagonal threshold generator (d = 2)

def _clip_halfplane(poly, a: Fraction, b: Fraction, rhs: Fraction):
    # Sutherland-Hodgman step: keep a*x + b*y <= rhs, exact rationals.
    out = []
    n = len(poly)
    for i in range(n):
        px, py = poly[i]
        qx, qy = poly[(i + 1) % n]
        fp = a * px + b * py - rhs
        fq = a * qx + b * qy - rhs
        if fp <= 0:
            out.append((px, py))
        if (fp < 0 < fq) or (fq < 0 < fp):
            t = fp / (fp - fq)
            out.append((px + t * (qx - px), py + t * (qy - py)))
    return out


def _polygon_area(poly) -> Fraction:
    total = Fraction(0)
    n = len(poly)
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        total += x1 * y2 - x2 * y1
    return abs(total) / 2


def _region_polygon(cells: tuple[int, int], pattern: tuple[int, int] | None, res: int):
    (c1, c2) = cells
    a1, b1 = Fraction(c1 - 1, res), Fraction(c1, res)
    a2, b2 = Fraction(c2 - 1, res), Fraction(c2, res)
    poly = [(a1, a2), (b1, a2), (b1, b2), (a1, b2)]
    if pattern == (1, 2):  # x1 < x2
        poly = _clip_halfplane(poly, Fraction(1), Fraction(-1), Fraction(0))
    elif pattern == (2, 1):  # x2 < x1
        poly = _clip_halfplane(poly, Fraction(-1), Fraction(1), Fraction(0))
    return poly


def threshold_low_measure(
    cut: Fraction, cells: tuple[int, int], pattern: tuple[int, int] | None, res: int
) -> Fraction:
    """Area of ``{x1 + x2 <= cut}`` inside a grid box, optionally restricted
    to one strict-order half of it."""
    poly = _region_polygon(cells, pattern, res)
    poly = _clip_halfplane(poly, Fraction(1), Fraction(1), cut)
    return _polygon_area(poly)


def box_color_measures(
    f: PiecewiseFunction, cells: tuple[int, ...], parts: int
) -> dict[int, Fraction]:
    """Exact measure of each color inside a box of the ``parts``-grid."""
    res = resolution(f)
    if res is not None:
        fine = lcm(res, parts)
        ratio = fine // parts
        out: dict[int, Fraction] = {}
        axis_ranges = [range((c - 1) * ratio + 1, c * ratio + 1) for c in cells]
        for sub in itertools.product(*axis_ranges):
            for pattern, vol in strict_regions(sub, fine):
                color = color_at(f, sub, pattern, fine)
                out[color] = out.get(color, Fraction(0)) + vol
        return out
    if f.kind == "generator" and f.name == "threshold":
        low = threshold_low_measure(f.param("c"), cells, None, parts)
        box = Fraction(1, parts**f.d)
        return {1: low, 2: box - low}
    raise InvalidInputError(f"generator {f.name!r} has no exact measure oracle")


# ---------------------------------------------------------------------------
# distance

def distance_exact(
    f: PiecewiseFunction, g: PiecewiseFunction, cell_cap: int = CELL_CAP
) -> Fraction:
    """Probability that ``f`` and ``g`` disagree at a uniform point, exactly.

    Both arguments must expose an exact step form, except that one side may
    be the threshold generator (handled by exact polygon areas).  Tie
    regions have measure zero and contribute nothing.
    """
    if f.d != g.d or f.k != g.k:
        raise InvalidInputError("dimension/color mismatch")
    if f == g:
        return Fraction(0)
    rf, rg = resolution(f), resolution(g)
    if rf is None and rg is None:
        raise InvalidInputError("neither side has an exact step form")
    if rf is not None and rg is not None:
        res = lcm(rf, rg)
        if res**f.d > cell_cap:
            raise CapExceededError(f"{res}^{f.d} cells exceeds cap {cell_cap}")
        total = Fraction(0)
        for cells in index_tuples(res, f.d):
            for pattern, vol in strict_regions(cells, res):
                if color_at(f, cells, pattern, res) != color_at(g, cells, pattern, res):
                    total += vol
        return total
    stepped, other = (f, g) if rf is not None else (g, f)
    if not (other.kind == "generator" and other.name == "threshold"):
        raise InvalidInputError(f"generator {other.name!r} has no exact step form")
    cut = other.param("c")
    res = resolution(stepped)
    if res**2 > cell_cap:
        raise CapExceededError(f"{res}^2 cells exceeds cap {cell_cap}")
    total = Fraction(0)
    for cells in index_tuples(res, 2):
        for pattern, vol in strict_regions(cells, res):
            color = color_at(stepped, cells, pattern, res)
            low = threshold_low_measure(cut, cells, pattern, res)
            total += (vol - low) if color == 1 else low
    return total


def distance_mc(
    f: PiecewiseFunction, g: PiecewiseFunction, trials: int, seed: int
) -> MonteCarloEstimate:
    """Fraction of uniformly sampled points where evaluations differ.

    Deterministic given the seed; per-trial substreams keep the result
    independent of any parallel evaluation order.
    """
    if f.d != g.d or f.k != g.k:
        raise InvalidInputError("dimension/color mismatch")
    if trials < 1:
        raise InvalidInputError("trials must be >= 1")
    differ = 0
    for t in range(trials):
        rng = substream(seed, t)
        point = tuple(dyadic_unit(rng) for _ in range(f.d))
        if evaluate(f, point) != evaluate(g, point):
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
    form = step_form(f)
    if form is None:
        raise InvalidInputError(
            f"generator {f.name!r} has no exact step form; use sampling instead"
        )
    kind, obj = form
    if kind == "grid":
        res, color = obj.m, lambda cells, pattern: obj.get(cells)
    else:
        res, color = obj.parts, obj.color
    weights = _induced_models(obj.runs, color, f.d, n, cap)
    denom = res**n
    entries = tuple(
        (DiscreteModel(d=f.d, k=f.k, m=n, values=v), Fraction(w, denom))
        for v, w in sorted(weights.items())
    )
    return StatisticDistribution(n=n, d=f.d, k=f.k, entries=entries)


def mu_sample(f: PiecewiseFunction, n: int, trials: int, seed: int) -> SampleReport:
    """Sampled counterpart of :func:`mu_exact`: draws ``n`` uniforms, sorts
    them (exact collisions are redrawn), and tallies the induced models."""
    if trials < 1:
        raise InvalidInputError("trials must be >= 1")
    if n < 1:
        raise InvalidInputError("n must be >= 1")
    shapes = list(index_tuples(n, f.d))
    counts: dict[tuple[int, ...], int] = {}
    zero, one = Fraction(0), Fraction(1)
    for t in range(trials):
        rng = substream(seed, t)
        xs = sorted_distinct(rng, n, zero, one)
        values = tuple(
            evaluate(f, tuple(xs[i - 1] for i in idx)) for idx in shapes
        )
        counts[values] = counts.get(values, 0) + 1
    tallies = tuple(
        (DiscreteModel(d=f.d, k=f.k, m=n, values=v), c)
        for v, c in sorted(counts.items())
    )
    return SampleReport(n=n, trials=trials, seed=seed, counts=tallies)
