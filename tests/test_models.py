import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homopix import (
    DiscreteModel,
    InvalidInputError,
    all_order_patterns,
    cell_index,
    evaluate,
    generator,
    grid_function,
    order_pattern,
    pattern_consistent,
)
from homopix.serialize import load_model_text, model_to_json


def test_order_pattern_examples():
    assert order_pattern((Fraction(3, 10), Fraction(1, 10), Fraction(3, 10))) == (2, 1, 2)
    assert order_pattern((5,)) == (1,)
    assert order_pattern((1, 2, 3)) == (1, 2, 3)


def test_order_pattern_zero_arity():
    with pytest.raises(InvalidInputError, match="zero arity"):
        order_pattern(())


def test_pattern_consistent_examples():
    assert pattern_consistent((1, 2), (1, 2))
    assert not pattern_consistent((1, 2), (2, 1))
    assert pattern_consistent((1, 1), (1, 1))
    with pytest.raises(InvalidInputError):
        pattern_consistent((1, 2), (1, 2, 3))


@given(st.lists(st.integers(1, 4), min_size=1, max_size=4))
def test_order_pattern_idempotent(ranks):
    p = order_pattern(ranks)
    assert order_pattern(p) == p


@given(st.lists(st.fractions(0, 1), min_size=1, max_size=4, unique=True))
def test_order_pattern_distinct_is_permutation(xs):
    p = order_pattern(xs)
    assert sorted(p) == list(range(1, len(xs) + 1))


@given(
    st.lists(st.integers(-20, 20), min_size=1, max_size=4),
    st.integers(1, 5),
    st.integers(0, 30),
)
@settings(max_examples=60)
def test_order_pattern_monotone_invariant(xs, scale, shift):
    assert order_pattern(xs) == order_pattern([scale * x + shift for x in xs])


def test_pattern_counts_are_ordered_bell():
    assert len(all_order_patterns(1)) == 1
    assert len(all_order_patterns(2)) == 3
    assert len(all_order_patterns(3)) == 13


def test_cell_convention():
    # half-open cells ((i-1)/l, i/l]: the boundary belongs to the lower cell
    assert cell_index(Fraction(1, 2), 2) == 1
    assert cell_index(Fraction(1, 2) + Fraction(1, 1000), 2) == 2
    assert cell_index(Fraction(1), 5) == 5
    with pytest.raises(InvalidInputError):
        cell_index(Fraction(0), 2)


def test_evaluate_order_function():
    f = generator("order_function")
    assert evaluate(f, (Fraction(1, 4), Fraction(3, 4))) == 1
    assert evaluate(f, (Fraction(1, 2), Fraction(1, 2))) == 2
    assert evaluate(f, (Fraction(3, 4), Fraction(1, 4))) == 3


def test_evaluate_grid_boundary():
    g = grid_function(DiscreteModel(d=1, k=2, m=2, values=(1, 2)))
    assert evaluate(g, (Fraction(1, 2),)) == 1


def test_evaluate_range_errors():
    f = generator("order_function")
    with pytest.raises(InvalidInputError):
        evaluate(f, (Fraction(0), Fraction(1, 2)))
    with pytest.raises(InvalidInputError):
        evaluate(f, (Fraction(1, 2), Fraction(3, 2)))
    with pytest.raises(InvalidInputError):
        evaluate(f, (Fraction(1, 2),))


def test_dyadic_generator():
    dy = generator("dyadic_alternating", {"depth_cap": 4})
    assert evaluate(dy, (Fraction(3, 4),)) == 2  # band 1, odd
    assert evaluate(dy, (Fraction(3, 8),)) == 1  # band 2, even
    assert evaluate(dy, (Fraction(3, 16),)) == 2
    assert evaluate(dy, (Fraction(1),)) == 2
    # constant below the resolution floor
    assert evaluate(dy, (Fraction(1, 16),)) == 1
    assert evaluate(dy, (Fraction(1, 1000),)) == 1


def test_random_homogeneous_deterministic():
    a = generator("random_homogeneous", {"l": 3, "d": 2, "k": 4, "seed": 9})
    b = generator("random_homogeneous", {"l": 3, "d": 2, "k": 4, "seed": 9})
    pt = (Fraction(2, 7), Fraction(6, 7))
    assert evaluate(a, pt) == evaluate(b, pt)


def test_generator_errors():
    with pytest.raises(InvalidInputError, match="unknown generator"):
        generator("nope")
    with pytest.raises(InvalidInputError):
        generator("dyadic_alternating", {})
    with pytest.raises(InvalidInputError):
        generator("dyadic_alternating", {"depth_cap": 0})
    with pytest.raises(InvalidInputError, match="unexpected"):
        generator("order_function", {"x": 1})


def test_grid_constant_on_cells():
    rng = random.Random(7)
    model = DiscreteModel(
        d=2, k=3, m=3, values=tuple(rng.randrange(1, 4) for _ in range(9))
    )
    f = grid_function(model)
    for _ in range(50):
        c1, c2 = rng.randrange(1, 4), rng.randrange(1, 4)

        def draw(cell):
            return Fraction(cell - 1, 3) + Fraction(rng.randrange(1, 1000), 3000)

        p1 = (draw(c1), draw(c2))
        p2 = (draw(c1), draw(c2))
        assert evaluate(f, p1) == evaluate(f, p2) == model.get((c1, c2))


def test_model_invariants():
    with pytest.raises(InvalidInputError):
        DiscreteModel(d=1, k=2, m=2, values=(1, 3))
    with pytest.raises(InvalidInputError):
        DiscreteModel(d=1, k=2, m=2, values=(1,))
    with pytest.raises(InvalidInputError):
        DiscreteModel(d=5, k=2, m=2, values=(1,) * 32)


def test_from_function_checks_caps_before_calling_fn():
    def never(idx):
        raise AssertionError(f"fn called at {idx}")

    # 72^4 = 26.9 M entries, an arity past the cap, an empty side
    for d, m, message in ((4, 72, "exceeds cap"), (5, 2, "arity"), (1, 0, "side")):
        with pytest.raises(InvalidInputError, match=message):
            DiscreteModel.from_function(d, 2, m, never)


def test_model_json_roundtrip():
    rng = random.Random(3)
    model = DiscreteModel(
        d=2, k=4, m=3, values=tuple(rng.randrange(1, 5) for _ in range(9))
    )
    decoded = load_model_text(json.dumps(model_to_json(model)))
    assert decoded == model


def test_function_json_roundtrip():
    from homopix.serialize import function_to_json

    for f in (
        generator("order_function"),
        generator("dyadic_alternating", {"depth_cap": 3}),
        generator("threshold", {"c": Fraction(1, 2)}),
        generator("random_homogeneous", {"l": 2, "d": 1, "k": 2, "seed": 1}),
        grid_function(DiscreteModel(d=1, k=2, m=2, values=(1, 2))),
    ):
        decoded = load_model_text(json.dumps(function_to_json(f)))
        assert decoded == f
