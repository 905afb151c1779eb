"""Exactly evaluable functions from the unit cube ``(0,1]^d`` to colors.

Three kinds are supported:

* ``grid``: a step function that is constant on every cell of an ``m``-grid
  (order patterns are ignored);
* ``homogeneous``: an l-part homogeneous function given by its spec table;
* ``generator``: a named closed-form rule with exact parameters.

Every kind evaluates exactly at rational points.  All kinds except the
``threshold`` generator also have an exact *step form* (a resolution ``L``
at which the function is determined by cell vector and order pattern);
``threshold``'s color regions are half-planes, which no grid aligns with.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence

from .errors import InvalidInputError
from .homogeneity import HomogeneousSpec, consistent_pairs
from .models import MAX_SIDE, DiscreteModel, order_pattern
from .sampling import DYADIC_BITS

GENERATOR_NAMES = (
    "order_function",
    "dyadic_alternating",
    "threshold",
    "random_homogeneous",
)

MAX_DYADIC_DEPTH = 13  # 2**13 < MAX_SIDE

_WORD_CELLS_KEPT = 4096  # cell vectors whose colors a word colorer keeps


@dataclass(frozen=True)
class PiecewiseFunction:
    """An exactly evaluable function ``(0,1]^d -> [k]``."""

    kind: str  # "grid" | "homogeneous" | "generator"
    d: int
    k: int
    grid: DiscreteModel | None = None
    spec: HomogeneousSpec | None = None
    name: str | None = None
    params: tuple[tuple[str, object], ...] = ()

    def param(self, key: str):
        for name, value in self.params:
            if name == key:
                return value
        raise InvalidInputError(f"generator parameter {key!r} missing")


def grid_function(model: DiscreteModel) -> PiecewiseFunction:
    """Step function that is constant on each cell of the model's grid."""
    return PiecewiseFunction(kind="grid", d=model.d, k=model.k, grid=model)


def homogeneous_function(spec: HomogeneousSpec) -> PiecewiseFunction:
    return PiecewiseFunction(kind="homogeneous", d=spec.d, k=spec.k, spec=spec)


def comparison_spec(parts: int) -> HomogeneousSpec:
    """The arity-2 spec coloring by coordinate comparison on every box:
    1 below the diagonal (x1 < x2), 2 on it, 3 above."""
    table = {}
    for cells, pattern in consistent_pairs(parts, 2):
        r1, r2 = pattern
        table[cells, pattern] = 1 if r1 < r2 else (2 if r1 == r2 else 3)
    return HomogeneousSpec.from_table(parts, 2, 3, table)


def _dyadic_model(depth_cap: int) -> DiscreteModel:
    # Cell c of the 2**depth grid lies inside a single dyadic band
    # (2**-r, 2**-r+1]; parity of r decides the color, the sub-band tail is 1.
    m = 1 << depth_cap

    def color(idx):
        c = idx[0]
        if c == 1:
            return 1
        r = depth_cap - (c - 1).bit_length() + 1
        return 1 if r % 2 == 0 else 2

    return DiscreteModel.from_function(1, 2, m, color)


def _random_spec(parts: int, d: int, k: int, seed: int) -> HomogeneousSpec:
    rng = random.Random(seed)
    table = {pair: rng.randrange(1, k + 1) for pair in consistent_pairs(parts, d)}
    return HomogeneousSpec.from_table(parts, d, k, table)


def generator(name: str, params: Mapping[str, object] | None = None) -> PiecewiseFunction:
    """Build a named closed-form function.

    * ``order_function`` (d=2, k=3): compares its two coordinates.
    * ``dyadic_alternating`` (d=1, k=2, param ``depth_cap``): color 2 on
      bands ``(2^-r, 2^-r+1]`` with odd ``r`` up to the cap, color 1 on even
      bands and below the resolution floor ``2^-depth_cap``.
    * ``threshold`` (d=2, k=2, param ``c``): color 1 iff ``x1 + x2 <= c``.
    * ``random_homogeneous`` (params ``l``, ``d``, ``k``, ``seed``): a
      seeded random part-homogeneous function.
    """
    params = dict(params or {})

    def take(key, default=None):
        if key in params:
            return params.pop(key)
        if default is not None:
            return default
        raise InvalidInputError(f"generator {name!r} requires parameter {key!r}")

    if name == "order_function":
        fn = PiecewiseFunction(kind="generator", d=2, k=3, name=name)
    elif name == "dyadic_alternating":
        depth = take("depth_cap")
        if not (isinstance(depth, int) and 1 <= depth <= MAX_DYADIC_DEPTH):
            raise InvalidInputError(
                f"depth_cap must be an integer in [1, {MAX_DYADIC_DEPTH}]"
            )
        fn = PiecewiseFunction(
            kind="generator", d=1, k=2, name=name, params=(("depth_cap", depth),)
        )
    elif name == "threshold":
        c = Fraction(take("c"))
        fn = PiecewiseFunction(
            kind="generator", d=2, k=2, name=name, params=(("c", c),)
        )
    elif name == "random_homogeneous":
        parts = take("l")
        d = take("d")
        k = take("k")
        seed = take("seed", 0)
        if not (isinstance(parts, int) and 1 <= parts <= MAX_SIDE):
            raise InvalidInputError("l must be a positive integer within the side cap")
        fn = PiecewiseFunction(
            kind="generator",
            d=d,
            k=k,
            name=name,
            params=(("l", parts), ("d", d), ("k", k), ("seed", seed)),
        )
        step_form(fn)  # validates l/d/k at construction time
    else:
        raise InvalidInputError(f"unknown generator {name!r}")
    if params:
        raise InvalidInputError(
            f"unexpected parameters for {name!r}: {sorted(params)}"
        )
    return fn


@lru_cache(maxsize=None)
def step_form(f: PiecewiseFunction):
    """Exact step form of a function: ("grid", model) or ("spec", spec),
    or None when no grid-aligned form exists (threshold)."""
    if f.kind == "grid":
        return ("grid", f.grid)
    if f.kind == "homogeneous":
        return ("spec", f.spec)
    if f.name == "order_function":
        return ("spec", comparison_spec(1))
    if f.name == "dyadic_alternating":
        return ("grid", _dyadic_model(f.param("depth_cap")))
    if f.name == "random_homogeneous":
        return ("spec", _random_spec(f.param("l"), f.d, f.k, f.param("seed")))
    return None


@lru_cache(maxsize=None)
def _step(f: PiecewiseFunction):
    """``(res, runs, color, ordered)`` of the exact step form, or None
    (threshold): its resolution, the last cell of every run, and
    ``color(cells, pattern)``, which reads the order pattern only when
    ``ordered`` (a spec) and ignores it on a grid.  The one place that
    reads :func:`step_form`'s ``"grid"``/``"spec"`` tag."""
    form = step_form(f)
    if form is None:
        return None
    kind, obj = form
    if kind == "grid":
        return obj.m, obj.runs, obj.color, False
    return obj.parts, obj.runs, obj.color, True


def resolution(f: PiecewiseFunction) -> int | None:
    """Grid resolution of the exact step form, or None if there is none."""
    step = _step(f)
    return None if step is None else step[0]


def _word_colorer(f: PiecewiseFunction, shapes):
    """Exact colors of ``f`` at sampled points, from their integer words.

    A sampled coordinate is ``u/2^64`` for an integer ``u`` in
    ``[1, 2^64]`` (see :mod:`homopix.sampling`).  ``shapes`` holds
    ``(pos, pattern)`` pairs.  Returns ``colors(us)``: for each shape, the
    color at the point with coordinates ``us[p]/2^64`` for ``p`` in
    ``pos``, where ``pattern`` must be that point's order pattern.  The
    decisions are those of :func:`evaluate` at ``Fraction(u, 2^64)``, made
    on the integers: the cell ``ceil(res*u/2^64)`` is ``-((-res*u) >> 64)``,
    and ``x1 + x2 <= c`` for ``c = p/q`` is ``(u1 + u2)*q <= p*2^64``.  On
    a step form the colors depend only on the cells of ``us``; the recent
    cell vectors keep theirs (a bounded cache, so memory does not grow
    with the trials).
    """
    step = _step(f)
    if step is None:  # threshold, the one input without a step form
        c = f.param("c")
        den, bound = c.denominator, c.numerator << DYADIC_BITS
        pairs = [pos for pos, _ in shapes]

        def colors(us):
            return tuple([1 if (us[i] + us[j]) * den <= bound else 2 for i, j in pairs])

        return colors
    res, _, color, _ = step

    @lru_cache(maxsize=_WORD_CELLS_KEPT)
    def by_cells(cells):
        return tuple(
            [color(tuple([cells[p] for p in pos]), pattern) for pos, pattern in shapes]
        )

    def colors(us):
        return by_cells(tuple([-((-res * u) >> DYADIC_BITS) for u in us]))

    return colors


def evaluate(f: PiecewiseFunction, point: Sequence[Fraction]) -> int:
    """Exact evaluation at a rational point of ``(0, 1]^d``.

    Coordinates must be exact rationals (or integers); floats are rejected
    so no inexact value can enter a semantics-bearing path.
    """
    if len(point) != f.d:
        raise InvalidInputError(f"point arity {len(point)} != {f.d}")
    xs = []
    for x in point:
        if not isinstance(x, Fraction):
            if isinstance(x, float):
                raise InvalidInputError("coordinates must be exact rationals")
            x = Fraction(x)
        if x.numerator <= 0 or x.numerator > x.denominator:
            raise InvalidInputError(f"coordinate {x} outside (0, 1]")
        xs.append(x)
    if f.kind == "generator" and f.name == "threshold":
        return 1 if xs[0] + xs[1] <= f.param("c") else 2
    res, _, color, ordered = _step(f)
    cells = tuple(-((-x.numerator * res) // x.denominator) for x in xs)
    return color(cells, order_pattern(xs) if ordered else None)
