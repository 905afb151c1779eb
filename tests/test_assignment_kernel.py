"""The run-compressed assignment kernel behind ``mu_exact`` and
``enumerate_substructures``, checked against the full-resolution oracle."""

import random

import pytest

from homopix import (
    CapExceededError,
    DiscreteModel,
    HomogeneousSpec,
    comparison_spec,
    consistent_pairs,
    enumerate_substructures,
    generator,
    grid_function,
    homogeneous_function,
    mu_exact,
)
from homopix.functions import step_form
from conftest import duplicated_grid, naive_mu, rand_spec, refine


def grid_as_spec(model: DiscreteModel) -> HomogeneousSpec:
    table = {
        (cells, pattern): model.get(cells)
        for cells, pattern in consistent_pairs(model.m, model.d)
    }
    return HomogeneousSpec.from_table(model.m, model.d, model.k, table)


def check_against_oracle(f, spec, n):
    dist = mu_exact(f, n)
    res = spec.parts
    assert {m.values: p for m, p in dist.entries} == naive_mu(f, n, res)
    assert set(enumerate_substructures(spec, n)) == dist.support()


def test_refined_specs_match_oracle():
    rng = random.Random(2024)
    for _ in range(40):
        d = rng.randrange(1, 4)
        n = rng.randrange(1, 4)
        coarse = rand_spec(rng, rng.randrange(1, 4), d, rng.randrange(1, 4))
        t = rng.randrange(1, 4 if d < 3 else 3)
        spec = refine(coarse, t)
        assert spec.runs == tuple(end * t for end in coarse.runs)
        check_against_oracle(homogeneous_function(spec), spec, n)


def test_duplicated_grids_match_oracle():
    rng = random.Random(77)
    for _ in range(40):
        d = rng.randrange(1, 4)
        n = rng.randrange(1, 4)
        model = duplicated_grid(rng, d, rng.randrange(1, 4))
        spec = grid_as_spec(model)
        assert model.runs == spec.runs
        check_against_oracle(grid_function(model), spec, n)


def test_run_counts():
    dyadic = step_form(generator("dyadic_alternating", {"depth_cap": 7}))[1]
    assert (dyadic.m, len(dyadic.runs)) == (128, 8)
    assert refine(comparison_spec(1), 24).runs == (24,)
    distinct = HomogeneousSpec.from_table(
        3, 1, 3, {((c,), (1,)): c for c in (1, 2, 3)}
    )
    assert refine(distinct, 10).runs == (10, 20, 30)


def test_dyadic_depth_13_within_cap():
    f = generator("dyadic_alternating", {"depth_cap": 13})
    dist = mu_exact(f, 2)
    assert sum(p for _, p in dist.entries) == 1
    assert dist.probability(DiscreteModel(d=1, k=2, m=2, values=(1, 2))) > 0
    # 14 runs: the cap counts C(15, 2) = 105 run assignments
    assert mu_exact(f, 2, cap=105) == dist
    with pytest.raises(CapExceededError, match="C\\(15,2\\)"):
        mu_exact(f, 2, cap=104)

