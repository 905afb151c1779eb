import itertools
import random

import pytest

from homopix import (
    CapExceededError,
    DiscreteModel,
    HomogeneousSpec,
    InvalidInputError,
    appears_in_discrete,
    appears_weak,
    check_arity_invariance,
    comparison_spec,
    consistent_pairs,
    enumerate_substructures,
    homogeneous_function,
    instantiate,
    mu_exact,
)
from conftest import naive_appears, rand_model, rand_spec

ORDER_SPEC = comparison_spec(1)


def test_appears_identity():
    rng = random.Random(2)
    s = rand_model(rng, 2, 2, 3)
    assert appears_in_discrete(s, s) == (1, 2, 3)


def test_appears_constant2_absent_strictly():
    const2 = DiscreteModel(d=2, k=3, m=2, values=(2,) * 4)
    inst = instantiate(ORDER_SPEC, 3)
    assert appears_in_discrete(const2, inst) is None


def test_appears_simple_witness():
    r = DiscreteModel(d=1, k=2, m=2, values=(1, 1))
    s = DiscreteModel(d=1, k=2, m=3, values=(1, 2, 1))
    assert appears_in_discrete(r, s) == (1, 3)


def test_appears_weak_diagonal():
    const2 = DiscreteModel(d=2, k=3, m=2, values=(2,) * 4)
    inst = instantiate(ORDER_SPEC, 3)
    assert appears_weak(const2, inst) == (1, 1)


def test_weak_extends_strict():
    rng = random.Random(5)
    for _ in range(40):
        r = rand_model(rng, 1, 2, 2)
        s = rand_model(rng, 1, 2, rng.randrange(2, 6))
        strict = appears_in_discrete(r, s)
        if strict is not None:
            assert appears_weak(r, s) is not None


def test_appears_weak_negative():
    r = DiscreteModel(d=1, k=2, m=2, values=(1, 2))
    s = DiscreteModel(d=1, k=2, m=2, values=(2, 2))
    assert appears_weak(r, s) is None


def test_appears_dimension_mismatch():
    r = DiscreteModel(d=1, k=2, m=2, values=(1, 2))
    s = DiscreteModel(d=2, k=2, m=2, values=(1, 2, 1, 2))
    with pytest.raises(InvalidInputError):
        appears_in_discrete(r, s)


@pytest.mark.parametrize("weak", [False, True])
def test_appears_matches_naive_oracle(weak):
    rng = random.Random(31)
    search = appears_weak if weak else appears_in_discrete
    # exhaustive over all small 1-d haystacks
    for m in range(1, 6):
        for values in itertools.product((1, 2), repeat=m):
            s = DiscreteModel(d=1, k=2, m=m, values=values)
            for n in range(1, 4):
                for rv in itertools.product((1, 2), repeat=n):
                    r = DiscreteModel(d=1, k=2, m=n, values=rv)
                    assert search(r, s) == naive_appears(r, s, weak)
    # randomized 2-d instances
    for _ in range(60):
        s = rand_model(rng, 2, 2, rng.randrange(2, 7))
        r = rand_model(rng, 2, 2, rng.randrange(1, 4))
        assert search(r, s) == naive_appears(r, s, weak)


def test_appears_deep_needle_without_recursion_error():
    # one search level per needle position: a side of 1200 is deeper than
    # the interpreter's default recursion limit
    m = 1200
    const = DiscreteModel(d=1, k=1, m=m, values=(1,) * m)
    assert appears_in_discrete(const, const) == tuple(range(1, m + 1))
    assert appears_weak(const, const) == (1,) * m
    tail = DiscreteModel(d=1, k=2, m=m, values=(1,) * (m - 1) + (2,))
    ones = DiscreteModel(d=1, k=2, m=m, values=(1,) * m)
    assert appears_in_discrete(tail, ones) is None


def test_enumerate_substructures_examples():
    assert [m.values for m in enumerate_substructures(ORDER_SPEC, 2)] == [
        (2, 1, 3, 2)
    ]
    const = HomogeneousSpec.from_table(1, 1, 2, {((1,), (1,)): 2})
    assert [m.values for m in enumerate_substructures(const, 3)] == [(2, 2, 2)]
    two = HomogeneousSpec.from_table(2, 1, 2, {((1,), (1,)): 1, ((2,), (1,)): 2})
    assert {m.values for m in enumerate_substructures(two, 2)} == {
        (1, 1),
        (1, 2),
        (2, 2),
    }


def test_enumerate_equals_mu_support():
    rng = random.Random(13)
    for _ in range(30):
        spec = rand_spec(rng, rng.randrange(1, 4), rng.randrange(1, 3), 2)
        n = rng.randrange(1, 4)
        listed = set(enumerate_substructures(spec, n))
        support = mu_exact(homogeneous_function(spec), n).support()
        assert listed == support


def test_substructures_appear_in_instantiation():
    rng = random.Random(23)
    for _ in range(15):
        spec = rand_spec(rng, rng.randrange(1, 3), rng.randrange(1, 3), 2)
        n = rng.randrange(1, 4)
        t = max(spec.d, n)
        inst = instantiate(spec, t)
        listed = enumerate_substructures(spec, n)
        for model in listed:
            assert appears_in_discrete(model, inst) is not None
        # and conversely every appearing model is listed
        for values in itertools.product(
            range(1, 3), repeat=n**spec.d
        ):
            r = DiscreteModel(d=spec.d, k=2, m=n, values=values)
            if appears_in_discrete(r, inst) is not None:
                assert r in listed


def test_enumerate_cap():
    spec = rand_spec(random.Random(0), 3, 1, 2)
    with pytest.raises(CapExceededError):
        enumerate_substructures(spec, 3, cap=2)


# ---------------------------------------------------------------------------
# lower-arity invariance

def _spec_colored_by(parts, d, color_fn):
    table = {
        (cells, pattern): color_fn(cells, pattern)
        for cells, pattern in consistent_pairs(parts, d)
    }
    return HomogeneousSpec.from_table(parts, d, 2, table)


def test_arity_invariance_pass():
    # bit depends only on the first coordinate's cell
    spec = _spec_colored_by(2, 2, lambda cells, pattern: 1 if cells[0] == 1 else 2)
    report = check_arity_invariance(spec, 1, 1)
    assert report.ok
    assert report.witnesses == ()


def test_arity_invariance_fail_with_size2_witness():
    # bit flips with the second coordinate
    spec = _spec_colored_by(2, 2, lambda cells, pattern: 1 if cells[1] == 1 else 2)
    report = check_arity_invariance(spec, 1, 1)
    assert not report.ok
    assert report.witnesses
    from homopix.substructure import color_bit

    for witness in report.witnesses:
        base = color_bit(witness.get((1, 1)), 1)
        assert any(
            color_bit(witness.get((1, tail)), 1) != base for tail in (1, 2)
        )


def test_arity_invariance_vacuous():
    spec = _spec_colored_by(2, 2, lambda cells, pattern: 1 if cells[1] == 1 else 2)
    report = check_arity_invariance(spec, 1, 2)
    assert report.ok


def test_arity_invariance_requires_power_of_two():
    spec = rand_spec(random.Random(1), 1, 2, 3)
    with pytest.raises(InvalidInputError, match="power of two"):
        check_arity_invariance(spec, 1, 1)
