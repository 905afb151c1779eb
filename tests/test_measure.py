import random
from fractions import Fraction
from math import factorial, sqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homopix import (
    CapExceededError,
    DiscreteModel,
    HomogeneousSpec,
    InvalidInputError,
    distance_exact,
    distance_mc,
    generator,
    grid_function,
    homogeneous_function,
    mu_exact,
    mu_sample,
)
from homopix.measure import _strict_patterns, box_color_measures, threshold_low_measure
from conftest import naive_mu, rand_function, rand_spec

ORDER = generator("order_function")
CONST1 = homogeneous_function(
    HomogeneousSpec.from_table(
        1, 2, 3, {((1, 1), (1, 2)): 1, ((1, 1), (2, 1)): 1, ((1, 1), (1, 1)): 1}
    )
)
AB = grid_function(DiscreteModel(d=1, k=2, m=2, values=(1, 2)))


def test_distance_identity():
    assert distance_exact(ORDER, ORDER) == 0
    assert distance_exact(AB, AB) == 0


def test_distance_order_vs_constant():
    assert distance_exact(ORDER, CONST1) == Fraction(1, 2)
    assert distance_exact(CONST1, ORDER) == Fraction(1, 2)


def test_distance_refinement_example():
    g = homogeneous_function(
        HomogeneousSpec.from_table(
            3, 1, 2, {((1,), (1,)): 1, ((2,), (1,)): 2, ((3,), (1,)): 2}
        )
    )
    assert distance_exact(AB, g) == Fraction(1, 6)


def test_distance_mismatch_errors():
    with pytest.raises(InvalidInputError):
        distance_exact(AB, ORDER)


def test_strict_regions_partition_box():
    for cells in [(1, 1), (1, 2), (2, 2, 2), (1, 1, 2)]:
        res = 2
        patterns, ties = _strict_patterns(cells)
        # each pattern's region is an equal res^-d / ties share of the box
        assert len(patterns) * Fraction(1, res ** len(cells) * ties) == Fraction(
            1, res ** len(cells)
        )
        groups = {}
        for pos, c in enumerate(cells):
            groups.setdefault(c, []).append(pos)
        expected = 1
        for g in groups.values():
            expected *= factorial(len(g))
        assert len(patterns) == ties == expected


def test_mu_exact_two_cell_line():
    dist = mu_exact(AB, 2)
    masses = {m.values: p for m, p in dist.entries}
    assert masses == {
        (1, 1): Fraction(1, 4),
        (1, 2): Fraction(1, 2),
        (2, 2): Fraction(1, 4),
    }
    assert dist.probability(DiscreteModel(d=1, k=2, m=2, values=(2, 1))) == 0


def test_mu_exact_order_function():
    dist = mu_exact(ORDER, 2)
    assert len(dist.support()) == 1
    (only,) = dist.support()
    assert only.values == (2, 1, 3, 2)
    constant2 = DiscreteModel(d=2, k=3, m=2, values=(2, 2, 2, 2))
    assert dist.probability(constant2) == 0


def test_mu_exact_mass_sums_to_one_randomized():
    rng = random.Random(42)
    for _ in range(40):
        f = rand_function(rng, rng.randrange(1, 3), rng.randrange(1, 4))
        n = rng.randrange(1, 4)
        dist = mu_exact(f, n)
        assert sum(p for _, p in dist.entries) == 1


def test_mu_exact_matches_independent_oracle():
    rng = random.Random(17)
    from homopix.functions import resolution

    for _ in range(25):
        f = rand_function(rng, rng.randrange(1, 3), rng.randrange(1, 3))
        n = rng.randrange(1, 4)
        dist = mu_exact(f, n)
        expected = naive_mu(f, n, resolution(f))
        assert {m.values: p for m, p in dist.entries if p > 0} == {
            v: p for v, p in expected.items() if p > 0
        }


def test_homogeneous_support_bound():
    # every support element of a part-homogeneous function has mass at least
    # 1 / (l^n n!)
    rng = random.Random(9)
    for _ in range(30):
        parts = rng.randrange(1, 4)
        d = rng.randrange(1, 3)
        k = rng.randrange(2, 4)
        n = rng.randrange(1, 4)
        f = homogeneous_function(rand_spec(rng, parts, d, k))
        dist = mu_exact(f, n)
        floor = Fraction(1, parts**n * factorial(n))
        for _, p in dist.entries:
            if p > 0:
                assert p >= floor


def test_mu_cap():
    with pytest.raises(CapExceededError):
        mu_exact(AB, 3, cap=2)


def test_mu_non_piecewise_errors():
    th = generator("threshold", {"c": Fraction(1)})
    with pytest.raises(InvalidInputError, match="step form"):
        mu_exact(th, 2)


def test_mu_sample_constant():
    f = grid_function(DiscreteModel(d=1, k=2, m=1, values=(2,)))
    report = mu_sample(f, 2, 500, seed=1)
    assert len(report.counts) == 1
    model, count = report.counts[0]
    assert model.values == (2, 2)
    assert count == 500


def test_mu_sample_frequency_close():
    report = mu_sample(AB, 2, 10_000, seed=3)
    freq = report.frequency(DiscreteModel(d=1, k=2, m=2, values=(1, 2)))
    sigma = sqrt(0.25 / 10_000)
    assert abs(float(freq) - 0.5) <= 3 * sigma


def test_mu_sample_deterministic():
    a = mu_sample(ORDER, 2, 300, seed=11)
    b = mu_sample(ORDER, 2, 300, seed=11)
    assert a == b


def test_distance_mc_identity_and_determinism():
    est = distance_mc(ORDER, ORDER, 200, seed=5)
    assert est.estimate == 0
    a = distance_mc(ORDER, CONST1, 500, seed=5)
    b = distance_mc(ORDER, CONST1, 500, seed=5)
    assert a == b


def test_distance_mc_close_to_exact():
    est = distance_mc(ORDER, CONST1, 10_000, seed=21)
    sigma = sqrt(0.25 / 10_000)
    assert abs(float(est.estimate) - 0.5) <= 3 * sigma


def test_distance_mc_four_sigma_over_random_pairs():
    rng = random.Random(55)
    trials = 2000
    hits = 0
    runs = 60
    for seed in range(runs):
        f = rand_function(rng, rng.randrange(1, 3), 2)
        g = rand_function(rng, f.d, 2)
        exact = float(distance_exact(f, g))
        est = distance_mc(f, g, trials, seed=seed)
        sigma = sqrt(exact * (1 - exact) / trials)
        if abs(float(est.estimate) - exact) <= 4 * sigma:
            hits += 1
    assert hits >= 0.99 * runs


@given(st.integers(0, 2**32))
@settings(max_examples=20)
def test_distance_symmetric(seed):
    rng = random.Random(seed)
    f = rand_function(rng, 2, 2)
    g = rand_function(rng, 2, 2)
    assert distance_exact(f, g) == distance_exact(g, f)


def test_distance_pseudometric_triangle():
    rng = random.Random(77)
    for _ in range(25):
        f, g, h = (rand_function(rng, 1, 3) for _ in range(3))
        dfg = distance_exact(f, g)
        dgh = distance_exact(g, h)
        dfh = distance_exact(f, h)
        assert dfh <= dfg + dgh


# ---------------------------------------------------------------------------
# threshold geometry

def test_threshold_box_measures():
    th = generator("threshold", {"c": Fraction(1)})
    # (0,1/2]^2 lies entirely at or below the cut
    assert box_color_measures(th, (1, 1), 2) == {1: Fraction(1, 4), 2: Fraction(0)}
    # (1/2,1]^2 lies above it
    assert box_color_measures(th, (2, 2), 2) == {1: Fraction(0), 2: Fraction(1, 4)}
    # mixed box is split along the anti-diagonal into two triangles
    assert box_color_measures(th, (1, 2), 2) == {1: Fraction(1, 8), 2: Fraction(1, 8)}


def test_threshold_pattern_region_measures():
    cut = Fraction(1)
    # whole unit box, strict lower-triangle region x1 < x2 has area 1/2;
    # within it, x1 + x2 <= 1 cuts off half
    assert threshold_low_measure(cut, (1, 1), (1, 2), 1) == Fraction(1, 4)
    assert threshold_low_measure(cut, (1, 1), (2, 1), 1) == Fraction(1, 4)
    assert threshold_low_measure(cut, (1, 1), None, 1) == Fraction(1, 2)


def test_threshold_distance_exact():
    th = generator("threshold", {"c": Fraction(1)})
    const1 = homogeneous_function(
        HomogeneousSpec.from_table(
            1, 2, 2, {((1, 1), (1, 2)): 1, ((1, 1), (2, 1)): 1, ((1, 1), (1, 1)): 1}
        )
    )
    assert distance_exact(th, const1) == Fraction(1, 2)
    assert distance_exact(const1, th) == Fraction(1, 2)
    assert distance_exact(th, th) == 0


def test_threshold_distance_matches_mc():
    th = generator("threshold", {"c": Fraction(4, 5)})
    g = homogeneous_function(rand_spec(random.Random(1), 2, 2, 2))
    exact = distance_exact(th, g)
    est = distance_mc(th, g, 10_000, seed=2)
    sigma = max(est.stderr, 1e-9)
    assert abs(float(est.estimate) - float(exact)) <= 4 * sigma
