"""The merged-run refinement behind ``distance_exact`` and ``quantize``,
checked against the ``lcm``-resolution oracles, with its cell caps."""

import random
from fractions import Fraction

import pytest

from homopix import (
    CapExceededError,
    DiscreteModel,
    InvalidInputError,
    distance_exact,
    generator,
    grid_function,
    homogeneous_function,
    pixelate,
    quantize,
)
from homopix.measure import box_color_measures
from conftest import (
    duplicated_grid,
    naive_distance,
    naive_quantize,
    rand_model,
    rand_spec,
    refine,
)

DYADIC_13 = generator("dyadic_alternating", {"depth_cap": 13})


def step_function(rng: random.Random, d: int, k: int):
    """A grid, spec, refined spec, duplicated grid or generator."""
    roll = rng.randrange(6)
    if roll == 0:
        side = rng.randrange(1, 6 if d < 3 else 4)
        return grid_function(rand_model(rng, d, k, side))
    if roll == 1:
        return homogeneous_function(rand_spec(rng, rng.randrange(1, 4), d, k))
    if roll == 2:
        coarse = rand_spec(rng, rng.randrange(1, 3), d, k)
        t = rng.randrange(1, 4 if d < 3 else 3)
        return homogeneous_function(refine(coarse, t))
    if roll == 3:
        return grid_function(duplicated_grid(rng, d, k))
    if roll == 4 and (d, k) == (1, 2):
        return generator("dyadic_alternating", {"depth_cap": rng.randrange(1, 6)})
    if roll == 4 and (d, k) == (2, 3):
        return generator("order_function")
    return generator(
        "random_homogeneous",
        {"l": rng.randrange(1, 4), "d": d, "k": k, "seed": rng.randrange(10_000)},
    )


def test_distance_and_quantize_match_oracles():
    rng = random.Random(4099)
    for _ in range(120):
        d = rng.randrange(1, 4)
        k = rng.choice([1, 2, 3] if d != 2 else [2, 3])
        if d == 1 and rng.random() < 0.3:
            k = 2
        f, g = step_function(rng, d, k), step_function(rng, d, k)
        assert distance_exact(f, g) == naive_distance(f, g)
        parts = rng.randrange(1, 6 if d < 3 else 4)
        assert quantize(f, parts) == naive_quantize(f, parts)


def test_threshold_against_step_forms_matches_oracle():
    rng = random.Random(8191)
    for _ in range(40):
        th = generator(
            "threshold", {"c": Fraction(rng.randrange(1, 12), rng.randrange(1, 7))}
        )
        g = step_function(rng, 2, 2)
        assert distance_exact(th, g) == naive_distance(th, g)
        assert distance_exact(g, th) == naive_distance(g, th)
        parts = rng.randrange(1, 5)
        assert quantize(th, parts) == naive_quantize(th, parts)


def test_box_color_measures_sum_to_box():
    rng = random.Random(12)
    for _ in range(20):
        f = step_function(rng, 2, 3)
        parts = rng.randrange(1, 5)
        for cells in [(1, 1), (1, parts), (parts, 1)]:
            measures = box_color_measures(f, cells, parts)
            assert sum(measures.values()) == Fraction(1, parts**2)
            assert all(p > 0 for p in measures.values())


def test_distance_cell_cap_counts_merged_cells():
    # runs (1, 2) and (1, 2, 3) merge at 2, 3, 4, 6 of L = 6: 4^2 cells
    f = grid_function(DiscreteModel(d=2, k=3, m=2, values=(1, 2, 3, 1)))
    g = homogeneous_function(rand_spec(random.Random(3), 3, 2, 3))
    assert g.spec.runs == (1, 2, 3)
    assert distance_exact(f, g, cell_cap=16) == naive_distance(f, g)
    with pytest.raises(CapExceededError, match="16 merged cells exceed cap 15"):
        distance_exact(f, g, cell_cap=15)
    # against a threshold only the stepped side's 3 runs are merged
    th = generator("threshold", {"c": Fraction(1)})
    g2 = homogeneous_function(rand_spec(random.Random(3), 3, 2, 2))
    assert g2.spec.runs == (1, 2, 3)
    assert distance_exact(th, g2, cell_cap=9) == naive_distance(th, g2)
    with pytest.raises(CapExceededError, match="9 merged cells exceed cap 8"):
        distance_exact(th, g2, cell_cap=8)


def test_quantize_cell_cap_counts_merged_cells(monkeypatch):
    # 14 runs ending at 2^0..2^13 and 16 parts ending at multiples of 2^9
    # merge into 9 + 16 = 25 intervals
    expected = quantize(DYADIC_13, 16)
    monkeypatch.setattr("homopix.pipeline.CELL_CAP", 25)
    assert quantize(DYADIC_13, 16) == expected
    monkeypatch.setattr("homopix.pipeline.CELL_CAP", 24)
    with pytest.raises(CapExceededError, match="25 merged cells exceed cap 24"):
        quantize(DYADIC_13, 16)
    th = generator("threshold", {"c": Fraction(1)})
    monkeypatch.setattr("homopix.pipeline.CELL_CAP", 9)
    assert quantize(th, 3) == naive_quantize(th, 3)
    monkeypatch.setattr("homopix.pipeline.CELL_CAP", 8)
    with pytest.raises(CapExceededError, match="9 boxes exceed cap 8"):
        quantize(th, 3)


def test_quantize_cap_raises_before_building_boxes():
    # 10^12 boxes: the count is checked before any box is built
    th = generator("threshold", {"c": Fraction(1)})
    constant = grid_function(DiscreteModel(d=2, k=2, m=1, values=(1,)))
    for f in (th, constant):
        with pytest.raises(CapExceededError, match=f"{10**12} boxes exceed cap"):
            quantize(f, 10**6)


def test_box_color_measures_rejects_cells_outside_grid():
    f = grid_function(DiscreteModel(d=2, k=2, m=1, values=(1,)))
    for cells in [(0, 1), (1, 3), (1,), (1, 1, 1)]:
        with pytest.raises(InvalidInputError):
            box_color_measures(f, cells, 2)


@pytest.mark.parametrize(
    "epsilon, parts, distance",
    [
        (Fraction(1, 10), 16, Fraction(171, 8192)),
        (Fraction(1, 100), 128, Fraction(21, 8192)),
    ],
)
def test_dyadic_depth_13_pixelates(epsilon, parts, distance):
    cert = pixelate(DYADIC_13, epsilon, 2)
    assert (cert.verdict, cert.parts, cert.distance) == ("pass", parts, distance)
