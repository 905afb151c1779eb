"""Shared builders and independent naive oracles for the test suite.

The oracles here deliberately re-derive results from definitions (explicit
point placement, literal subset enumeration) rather than calling back into
the library's optimized paths, so agreement is meaningful.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import factorial, lcm, prod

from hypothesis import settings

from homopix import (
    DiscreteModel,
    HomogeneousSpec,
    NotHomogeneousError,
    check_homogeneous,
    consistent_pairs,
    evaluate,
    generator,
    grid_function,
    homogeneous_function,
    resolution,
)
from homopix.models import index_tuples, order_pattern

# one deterministic profile: no per-example deadline on a loaded machine,
# and the same examples drawn on every run
settings.register_profile("homopix", deadline=None, derandomize=True)
settings.load_profile("homopix")


# ---------------------------------------------------------------------------
# random instance builders

def rand_model(rng: random.Random, d: int, k: int, m: int) -> DiscreteModel:
    values = tuple(rng.randrange(1, k + 1) for _ in range(m**d))
    return DiscreteModel(d=d, k=k, m=m, values=values)


def rand_spec(rng: random.Random, parts: int, d: int, k: int) -> HomogeneousSpec:
    table = {pair: rng.randrange(1, k + 1) for pair in consistent_pairs(parts, d)}
    return HomogeneousSpec.from_table(parts, d, k, table)


def rand_function(rng: random.Random, d: int, k: int):
    roll = rng.randrange(3)
    if roll == 0:
        return grid_function(rand_model(rng, d, k, rng.randrange(1, 5)))
    if roll == 1:
        return homogeneous_function(rand_spec(rng, rng.randrange(1, 4), d, k))
    return generator(
        "random_homogeneous",
        {"l": rng.randrange(1, 4), "d": d, "k": k, "seed": rng.randrange(10_000)},
    )


def refine(spec: HomogeneousSpec, t: int) -> HomogeneousSpec:
    """The same function as ``spec``, tabulated at ``parts * t``."""
    table = {
        (cells, pattern): spec.color(tuple(-((-c) // t) for c in cells), pattern)
        for cells, pattern in consistent_pairs(spec.parts * t, spec.d)
    }
    return HomogeneousSpec.from_table(spec.parts * t, spec.d, spec.k, table)


def duplicated_grid(rng: random.Random, d: int, k: int) -> DiscreteModel:
    """A random grid whose rows/columns are repeated 1-3 times each."""
    base_side = rng.randrange(1, 4)
    base = [rng.randrange(1, k + 1) for _ in range(base_side**d)]
    axis = [c for c in range(base_side) for _ in range(rng.randrange(1, 4))]
    m = len(axis)
    values = []
    for idx in index_tuples(m, d):
        pos = 0
        for i in idx:
            pos = pos * base_side + axis[i - 1]
        values.append(base[pos])
    return DiscreteModel(d=d, k=k, m=m, values=tuple(values))


# ---------------------------------------------------------------------------
# naive oracles

def naive_appears(r: DiscreteModel, s: DiscreteModel, weak: bool):
    picker = (
        itertools.combinations_with_replacement if weak else itertools.combinations
    )
    for js in picker(range(1, s.m + 1), r.m):
        if all(
            s.get(tuple(js[i - 1] for i in idx)) == r.get(idx) for idx in r.tuples()
        ):
            return js
    return None


def naive_is_homogeneous(model: DiscreteModel, parts: int) -> bool:
    block = model.m // parts
    seen = {}
    for idx in model.tuples():
        key = (
            tuple((i - 1) // block + 1 for i in idx),
            order_pattern(idx),
        )
        if seen.setdefault(key, model.get(idx)) != model.get(idx):
            return False
    return True


def keyed_colors(model: DiscreteModel, parts: int) -> dict:
    """Raw (cells, pattern) -> color-set map, no homogeneity assumed."""
    block = model.m // parts
    out: dict = {}
    for idx in model.tuples():
        key = (tuple((i - 1) // block + 1 for i in idx), order_pattern(idx))
        out.setdefault(key, set()).add(model.get(idx))
    return out


def naive_compatible(a: DiscreteModel, b: DiscreteModel, parts: int) -> bool:
    """Definitional compatibility: every cross pair of tuples with matching
    cells and patterns agrees, evaluated grouped by the shared key."""
    ka, kb = keyed_colors(a, parts), keyed_colors(b, parts)
    for key in set(ka) & set(kb):
        if len(ka[key] | kb[key]) != 1:
            return False
    return True


def naive_mu(f, n: int, res: int) -> dict[tuple[int, ...], Fraction]:
    """Independent statistic distribution: places explicit rational points
    inside each assigned cell and evaluates the function there."""
    out: dict[tuple[int, ...], Fraction] = {}
    shapes = list(index_tuples(n, f.d))
    for assign in itertools.combinations_with_replacement(range(1, res + 1), n):
        counts: dict[int, int] = {}
        for c in assign:
            counts[c] = counts.get(c, 0) + 1
        weight = Fraction(factorial(n), res**n)
        for c in counts.values():
            weight /= factorial(c)
        points = [
            Fraction(assign[i] - 1, res) + Fraction(i + 1, res * (n + 1))
            for i in range(n)
        ]
        values = tuple(
            evaluate(f, tuple(points[i - 1] for i in idx)) for idx in shapes
        )
        out[values] = out.get(values, Fraction(0)) + weight
    return out


def naive_regions(res: int, d: int):
    """Every strict-order region of every cell of the ``res``-grid, as
    ``(cells, pattern, volume, point)`` with an explicit point inside it."""
    for cells in index_tuples(res, d):
        ties = prod(factorial(cells.count(c)) for c in set(cells))
        for pattern in itertools.permutations(range(1, d + 1)):
            if any(
                cells[i] < cells[j] and pattern[i] > pattern[j]
                for i in range(d)
                for j in range(d)
            ):
                continue
            point = tuple(
                Fraction(c - 1, res) + Fraction(r, res * (d + 1))
                for c, r in zip(cells, pattern)
            )
            yield cells, pattern, Fraction(1, res**d * ties), point


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
    # shoelace formula
    total = Fraction(0)
    n = len(poly)
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        total += x1 * y2 - x2 * y1
    return abs(total) / 2


def naive_low_area(cut, bounds, pattern=None) -> Fraction:
    """Area of ``{x1 + x2 <= cut}`` in the box ``bounds`` (two rational
    ``(lo, hi)`` pairs), or in its strict half ``x1 < x2`` (pattern
    ``(1, 2)``) or ``x2 < x1`` (``(2, 1)``): the box clipped as a polygon."""
    (a1, b1), (a2, b2) = bounds
    poly = [(a1, a2), (b1, a2), (b1, b2), (a1, b2)]
    one = Fraction(1)
    if pattern == (1, 2):
        poly = _clip_halfplane(poly, one, -one, Fraction(0))
    elif pattern == (2, 1):
        poly = _clip_halfplane(poly, -one, one, Fraction(0))
    return _polygon_area(_clip_halfplane(poly, one, one, Fraction(cut)))


def _cell_bounds(cells, res):
    return [(Fraction(c - 1, res), Fraction(c, res)) for c in cells]


def naive_distance(f, g) -> Fraction:
    """Disagreement measure at the ``lcm`` of both step resolutions, or at
    the stepped side's resolution against a threshold, region by region."""
    rf, rg = resolution(f), resolution(g)
    if rf is not None and rg is not None:
        return sum(
            (
                vol
                for _, _, vol, point in naive_regions(lcm(rf, rg), f.d)
                if evaluate(f, point) != evaluate(g, point)
            ),
            Fraction(0),
        )
    stepped, th = (f, g) if rf is not None else (g, f)
    cut = th.param("c")
    res = resolution(stepped)
    total = Fraction(0)
    for cells, pattern, vol, point in naive_regions(res, 2):
        low = naive_low_area(cut, _cell_bounds(cells, res), pattern)
        total += (vol - low) if evaluate(stepped, point) == 1 else low
    return total


def naive_quantize(f, parts: int) -> HomogeneousSpec:
    """Box colors of maximum measure (smallest color on ties), measured at
    ``lcm(res, parts)``; a threshold's boxes are split by exact areas."""
    measures: dict = {}
    res = resolution(f)
    if res is None:
        for cells in index_tuples(parts, f.d):
            low = naive_low_area(f.param("c"), _cell_bounds(cells, parts))
            measures[cells] = {1: low, 2: Fraction(1, parts**2) - low}
    else:
        fine = lcm(res, parts)
        for cells, _, vol, point in naive_regions(fine, f.d):
            box = tuple(-((-c * parts) // fine) for c in cells)
            color = evaluate(f, point)
            box_measures = measures.setdefault(box, {})
            box_measures[color] = box_measures.get(color, 0) + vol
    table = {}
    for cells, pattern in consistent_pairs(parts, f.d):
        box_measures = measures[cells]
        table[cells, pattern] = max(sorted(box_measures), key=box_measures.get)
    return HomogeneousSpec.from_table(parts, f.d, f.k, table)


def naive_find_inlay(model: DiscreteModel, parts: int, size: int):
    """Literal scan over all per-block selections in lexicographic order."""
    from homopix import InlaySelection, extract_inlay

    t = model.m // parts
    per_block = list(itertools.combinations(range(1, t + 1), size))
    for blocks in itertools.product(per_block, repeat=parts):
        sel = InlaySelection(blocks=blocks)
        sub = extract_inlay(model, sel)
        if naive_is_homogeneous(sub, parts):
            return sel, sub
    return None


def naive_inlay_spec(f, selection) -> HomogeneousSpec | None:
    """The dense inlay path: evaluate ``f`` at every entry of the
    ``[size*parts]^d`` model of a sampled selection (block ``a``'s points
    mapped to ``(a + x)/parts``), then ``check_homogeneous``; None when that
    model is not ``parts``-part homogeneous."""
    parts = selection.parts
    coords = [
        (a + x) / parts for a, block in enumerate(selection.blocks) for x in block
    ]

    def entry(idx):
        return evaluate(f, tuple(coords[i - 1] for i in idx))

    model = DiscreteModel.from_function(f.d, f.k, len(coords), entry)
    try:
        return check_homogeneous(model, parts)
    except NotHomogeneousError:
        return None


def naive_mono(vertices, colors, d: int, size: int):
    for subset in itertools.combinations(vertices, size):
        shades = {colors[frozenset(c)] for c in itertools.combinations(subset, d)}
        if len(shades) == 1:
            return subset
    return None


def naive_uniform(vertices, colors, d: int, size: int):
    for subset in itertools.combinations(vertices, size):
        ok = True
        for c in range(1, d + 1):
            shades = {
                colors[frozenset(sub)] for sub in itertools.combinations(subset, c)
            }
            if len(shades) > 1:
                ok = False
                break
        if ok:
            return subset
    return None


def naive_multisort(coloring, size: int):
    sorts = coloring.sorts
    d = coloring.d
    for picked in itertools.product(
        *(itertools.combinations(part, size) for part in sorts)
    ):
        pool = [v for u in picked for v in u]
        witness = {}
        ok = True
        for c in range(1, d + 1):
            for sub in itertools.combinations(pool, c):
                profile = tuple(sum(1 for v in sub if v in set(u)) for u in picked)
                shade = coloring.colors[frozenset(sub)]
                if witness.setdefault(profile, shade) != shade:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return picked
    return None
