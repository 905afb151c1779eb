"""Spot coverage at arity 3: the suite elsewhere works mostly at d <= 2, so
this pins the machinery on the next arity up (13 order patterns, grouped
strict regions, block size >= 3)."""

import itertools
import random
from fractions import Fraction

from homopix import (
    HomogeneousSpec,
    check_homogeneous,
    consistent_pairs,
    distance_exact,
    enumerate_substructures,
    homogeneous_function,
    instantiate,
    mu_exact,
    evaluate,
)
from homopix.measure import _strict_patterns
from conftest import naive_mu, rand_spec


def majority_spec():
    # color 2 where at least two coordinates tie, else 1
    table = {}
    for cells, pattern in consistent_pairs(1, 3):
        table[cells, pattern] = 2 if len(set(pattern)) < 3 else 1
    return HomogeneousSpec.from_table(1, 3, 2, table)


def test_spec_table_size_is_ordered_bell():
    spec = majority_spec()
    assert len(spec.entries) == 13


def test_round_trip_arity_three():
    spec = majority_spec()
    for t in (3, 4):
        assert check_homogeneous(instantiate(spec, t), 1) == spec
    rng = random.Random(2)
    for _ in range(5):
        s = rand_spec(rng, 2, 3, 2)
        assert check_homogeneous(instantiate(s, 3), 2) == s


def test_evaluate_arity_three():
    f = homogeneous_function(majority_spec())
    third = Fraction(1, 3)
    assert evaluate(f, (third, third, third)) == 2
    assert evaluate(f, (Fraction(1, 4), third, Fraction(1, 2))) == 1
    assert evaluate(f, (third, Fraction(1, 2), third)) == 2


def test_strict_regions_partition_arity_three():
    for cells in itertools.combinations_with_replacement((1, 2, 3), 3):
        patterns, ties = _strict_patterns(cells)
        assert len(patterns) * Fraction(1, 27 * ties) == Fraction(1, 27)
        assert len(set(patterns)) == len(patterns)
        assert all(sorted(p) == [1, 2, 3] for p in patterns)


def test_mu_mass_and_oracle_arity_three():
    f = homogeneous_function(majority_spec())
    dist = mu_exact(f, 2)
    assert sum(p for _, p in dist.entries) == 1
    expected = naive_mu(f, 2, 1)
    assert {m.values: p for m, p in dist.entries if p > 0} == {
        v: p for v, p in expected.items() if p > 0
    }
    # sorted distinct points leave exactly one realizable model
    assert len(dist.support()) == 1


def test_enumerate_equals_support_arity_three():
    rng = random.Random(7)
    for _ in range(5):
        spec = rand_spec(rng, 1, 3, 2)
        f = homogeneous_function(spec)
        assert set(enumerate_substructures(spec, 2)) == mu_exact(f, 2).support()


def test_distance_arity_three():
    spec = majority_spec()
    f = homogeneous_function(spec)
    table = {pair: 1 for pair in consistent_pairs(1, 3)}
    const1 = homogeneous_function(HomogeneousSpec.from_table(1, 3, 2, table))
    # ties have measure zero, so only the 6 strict patterns matter and all
    # of them are colored 1 by the majority spec
    assert distance_exact(f, const1) == 0
    table2 = {
        pair: (2 if pair[1] == (1, 2, 3) else 1)
        for pair in consistent_pairs(1, 3)
    }
    g = homogeneous_function(HomogeneousSpec.from_table(1, 3, 2, table2))
    # exactly one of the 3! equally likely strict orders differs
    assert distance_exact(f, g) == Fraction(1, 6)
