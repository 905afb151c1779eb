import itertools
import random
from fractions import Fraction
from math import sqrt

import pytest

import homopix.inlay
from homopix import (
    Box,
    DiscreteModel,
    InlaySelection,
    InvalidInputError,
    all_specs,
    check_homogeneous,
    comparison_spec,
    extract_inlay,
    find_homogeneous_inlay,
    generator,
    grid_function,
    homogeneous_function,
    instantiate,
    mu_exact,
    sample_random_inlay,
)
from homopix.errors import SearchBudgetError
from homopix.sampling import sorted_distinct
from conftest import naive_compatible, naive_find_inlay, naive_is_homogeneous, rand_model


def test_extract_basic():
    s = DiscreteModel(d=1, k=2, m=4, values=(1, 1, 2, 2))
    assert extract_inlay(s, InlaySelection(blocks=((1,), (2,)))).values == (1, 2)


def test_extract_identity():
    s = DiscreteModel(d=1, k=2, m=4, values=(1, 2, 2, 1))
    assert extract_inlay(s, InlaySelection(blocks=((1, 2), (1, 2)))) == s


def test_extract_order_instantiation():
    inst3 = instantiate(comparison_spec(1), 3)
    sub = extract_inlay(inst3, InlaySelection(blocks=((1, 3),)))
    expected = instantiate(comparison_spec(1), 2)
    assert sub == expected
    assert naive_compatible(sub, inst3, 1)


def test_selection_validation():
    with pytest.raises(InvalidInputError):
        InlaySelection(blocks=((1, 1),))
    with pytest.raises(InvalidInputError):
        InlaySelection(blocks=((1, 2), (1,)))
    with pytest.raises(InvalidInputError):
        extract_inlay(
            DiscreteModel(d=1, k=2, m=4, values=(1, 1, 2, 2)),
            InlaySelection(blocks=((1, 3), (1, 2))),
        )


def test_box_validation():
    with pytest.raises(InvalidInputError):
        Box(lower=(Fraction(1, 2),), upper=(Fraction(1, 2),))
    with pytest.raises(InvalidInputError):
        Box(lower=(Fraction(0),), upper=(Fraction(3, 2),))
    full = Box.full(3)
    assert full.lower == (Fraction(0),) * 3


def test_find_on_homogeneous_takes_first_selection():
    for spec in itertools.islice(all_specs(2, 2, 2), 0, 32, 5):
        model = instantiate(spec, 3)
        found = find_homogeneous_inlay(model, 2, 2)
        assert found is not None
        sel, sub = found
        assert sel.blocks == ((1, 2), (1, 2))
        assert check_homogeneous(sub, 2) == spec


def test_find_line_example():
    got = find_homogeneous_inlay(DiscreteModel(d=1, k=2, m=3, values=(1, 2, 1)), 1, 2)
    assert got is not None
    sel, sub = got
    assert sel.blocks == ((1, 3),)
    assert sub.values == (1, 1)


def test_find_exhaustive_at_line_bound():
    for values in itertools.product((1, 2), repeat=3):
        model = DiscreteModel(d=1, k=2, m=3, values=values)
        assert find_homogeneous_inlay(model, 1, 2) is not None


def test_find_matches_naive_exhaustively_small():
    # all binary models on domains of at most 2^9 colorings
    cases = [(1, 1, 3), (1, 1, 4), (1, 2, 2), (1, 2, 3), (2, 1, 3)]
    for d, parts, t in cases:
        m = parts * t
        for values in itertools.product((1, 2), repeat=m**d):
            model = DiscreteModel(d=d, k=2, m=m, values=values)
            for size in range(d, t + 1):
                got = find_homogeneous_inlay(model, parts, size)
                want = naive_find_inlay(model, parts, size)
                assert (got is None) == (want is None)
                if got is not None:
                    assert got[0] == want[0] and got[1] == want[1]


def test_find_matches_naive_randomized_larger():
    rng = random.Random(8)
    for _ in range(50):
        d = 2
        parts = rng.randrange(1, 3)
        t = rng.randrange(d, 5 - parts)
        model = rand_model(rng, d, 2, parts * t)
        for size in range(d, t + 1):
            got = find_homogeneous_inlay(model, parts, size)
            want = naive_find_inlay(model, parts, size)
            assert (got is None) == (want is None)
            if got is not None:
                assert got[0] == want[0]


def test_inlays_of_homogeneous_are_homogeneous_and_compatible():
    # exhaustive at parts <= 2, d <= 2, k = 2, t <= 4 (sampled at (2,2) to
    # keep the unit suite quick; the acceptance suite runs the full range)
    rng = random.Random(0)
    for parts, d in [(1, 1), (2, 1), (1, 2), (2, 2)]:
        specs = list(all_specs(parts, d, 2))
        if (parts, d) == (2, 2):
            specs = rng.sample(specs, 24)
        for spec in specs:
            for t in range(d, 5):
                model = instantiate(spec, t)
                for size in range(d, t + 1):
                    for blocks in itertools.product(
                        itertools.combinations(range(1, t + 1), size), repeat=parts
                    ):
                        sub = extract_inlay(model, InlaySelection(blocks=blocks))
                        assert naive_is_homogeneous(sub, parts)
                        assert check_homogeneous(sub, parts) == spec
                        assert naive_compatible(sub, model, parts)


def test_sampler_reproducible():
    f = generator("order_function")
    a = sample_random_inlay(f, 1, 2, Box.full(1), seed=42)
    b = sample_random_inlay(f, 1, 2, Box.full(1), seed=42)
    assert a == b
    c = sample_random_inlay(f, 1, 2, Box.full(1), seed=43)
    assert c != a


def test_sampler_on_homogeneous_always_homogeneous():
    spec = comparison_spec(2)
    f = homogeneous_function(spec)
    for idx in range(30):
        sample = sample_random_inlay(f, 2, 2, Box.full(2), seed=1, index=idx)
        assert sample.homogeneous
        assert sample.spec == spec


def test_sampler_order_function_single_outcome():
    f = generator("order_function")
    for idx in range(20):
        sample = sample_random_inlay(f, 1, 2, Box.full(1), seed=3, index=idx)
        assert sample.model == instantiate(comparison_spec(1), 2)


def test_sampler_homogeneity_frequency_matches_mu():
    # two-piece line, one block, two points: the inlay is homogeneous iff
    # both points land in the same half, which has exact probability 1/2
    f = grid_function(DiscreteModel(d=1, k=2, m=2, values=(1, 2)))
    dist = mu_exact(f, 2)
    exact = sum(
        p for model, p in dist.entries if model.values in {(1, 1), (2, 2)}
    )
    assert exact == Fraction(1, 2)
    trials = 4000
    hits = sum(
        sample_random_inlay(f, 1, 2, Box.full(1), seed=7, index=i).homogeneous
        for i in range(trials)
    )
    sigma = sqrt(0.25 / trials)
    assert abs(hits / trials - float(exact)) <= 3 * sigma


def test_sampler_box_restricts_support():
    f = grid_function(DiscreteModel(d=1, k=2, m=2, values=(1, 2)))
    box = Box(lower=(Fraction(0),), upper=(Fraction(1, 2),))
    for idx in range(20):
        sample = sample_random_inlay(f, 1, 2, box, seed=9, index=idx)
        assert sample.model.values == (1, 1)
        for x in sample.selection.blocks[0]:
            assert 0 < x <= Fraction(1, 2)


def test_sampler_avoids_boundaries_when_asked():
    f = grid_function(DiscreteModel(d=1, k=2, m=4, values=(1, 2, 1, 2)))
    for idx in range(40):
        sample = sample_random_inlay(
            f, 2, 2, Box.full(2), seed=11, index=idx, avoid_resolution=4
        )
        for block, base in zip(sample.selection.blocks, (0, 1)):
            for x in block:
                coord = (base + x) / 2
                assert (coord * 4).denominator != 1


# ---------------------------------------------------------------------------
# redraw budgets

class ConstantStream:
    """A stream that returns the same word forever."""

    def __init__(self, word: int):
        self._word = word

    def word(self) -> int:
        return self._word

    def getrandbits(self, bits: int) -> int:
        return self._word >> (64 - bits)


def test_sorted_distinct_budget_is_typed():
    with pytest.raises(SearchBudgetError, match="distinct samples"):
        sorted_distinct(ConstantStream(5), 2, Fraction(0), Fraction(1))


def test_boundary_redraw_budget_is_typed(monkeypatch):
    # the top word maps every draw onto its window's upper end, which is a
    # cell boundary of the avoided resolution
    monkeypatch.setattr(
        homopix.inlay, "substream", lambda seed, index: ConstantStream((1 << 64) - 1)
    )
    f = grid_function(DiscreteModel(d=1, k=2, m=2, values=(1, 2)))
    with pytest.raises(SearchBudgetError, match="boundary avoidance"):
        sample_random_inlay(f, 2, 1, Box.full(2), seed=0, avoid_resolution=2)
