"""The closed-form threshold areas (inclusion-exclusion on ``max(t, 0)^2/2``)
against the polygon-clipping oracle, and the exact threshold paths that use
them against the naive distance and quantization oracles."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from homopix import (
    distance_exact,
    generator,
    grid_function,
    homogeneous_function,
    quantize,
)
from homopix.measure import _low_numerator, box_color_measures, threshold_low_measure
from homopix.models import index_tuples
from conftest import (
    naive_distance,
    naive_low_area,
    naive_quantize,
    rand_model,
    rand_spec,
)

# the cuts of the benchmark's empirical-threshold workload
BENCH_CUTS = (
    Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(4, 3), Fraction(3, 2)
)
# outside the unit square's sums, and a denominator no grid here divides
OTHER_CUTS = (Fraction(-1, 2), Fraction(0), Fraction(2), Fraction(5, 2), Fraction(5, 7))


def interval(draw, L):
    ends = st.lists(st.integers(0, L), min_size=2, max_size=2, unique=True)
    return sorted(draw(ends))


@st.composite
def boxes_and_cuts(draw):
    """A box with corners in units of ``1/L`` and a rational cut: anywhere
    from below the unit square to above it, or exactly on a corner sum."""
    L = draw(st.integers(1, 12))
    lo1, hi1 = interval(draw, L)
    if draw(st.booleans()):  # a diagonal box
        lo2, hi2 = lo1, hi1
    else:
        lo2, hi2 = interval(draw, L)
    if draw(st.booleans()):
        corner = draw(st.sampled_from([lo1 + lo2, hi1 + lo2, lo1 + hi2, hi1 + hi2]))
        cut = Fraction(corner, L)
    else:
        q = draw(st.integers(1, 9))
        cut = Fraction(draw(st.integers(-q, 3 * q)), q)
    return L, (lo1, hi1), (lo2, hi2), cut


@given(boxes_and_cuts())
@settings(max_examples=150)
def test_closed_form_matches_clipped_polygon(case):
    L, (lo1, hi1), (lo2, hi2), cut = case
    q = cut.denominator
    low = _low_numerator(cut.numerator * L, q, lo1, hi1, lo2, hi2)
    bounds = [(Fraction(lo, L), Fraction(hi, L)) for lo, hi in ((lo1, hi1), (lo2, hi2))]
    assert Fraction(low, 2 * (q * L) ** 2) == naive_low_area(cut, bounds)


@given(
    st.integers(1, 9),
    st.data(),
    st.sampled_from([None, (1, 2), (2, 1)]),
    st.integers(1, 7),
    st.integers(-7, 21),
)
@settings(max_examples=150)
def test_pattern_halves_match_clipped_polygon(res, data, pattern, q, p):
    # diagonal boxes split in halves; an off-diagonal box lies wholly in the
    # half its pattern names, or outside it (an inconsistent pattern: 0)
    c1 = data.draw(st.integers(1, res))
    c2 = data.draw(st.sampled_from([c1, data.draw(st.integers(1, res))]))
    cut = Fraction(p, q)
    bounds = [(Fraction(c - 1, res), Fraction(c, res)) for c in (c1, c2)]
    expected = naive_low_area(cut, bounds, pattern)
    assert threshold_low_measure(cut, (c1, c2), pattern, res) == expected
    if pattern is not None and c1 != c2 and (c1 < c2) != (pattern == (1, 2)):
        assert expected == 0


def test_edge_cases():
    # c <= 0 leaves nothing below the line, c >= 2 everything
    for cut in (Fraction(-1, 3), Fraction(0), Fraction(2), Fraction(7, 3)):
        full = 0 if cut <= 0 else Fraction(1, 9)
        assert threshold_low_measure(cut, (2, 3), None, 3) == full
        assert threshold_low_measure(cut, (2, 2), (1, 2), 3) == full / 2
    # the tie line and the half an off-diagonal box misses have no area
    assert threshold_low_measure(Fraction(1), (1, 1), (1, 1), 2) == 0
    assert threshold_low_measure(Fraction(1), (1, 2), (2, 1), 2) == 0
    # a cut through a box corner: (1/3, 2/3] x (0, 1/3] at c = 2/3
    assert threshold_low_measure(Fraction(2, 3), (2, 1), None, 3) == Fraction(1, 18)


def stepped(rng: random.Random):
    """A random 2-D, 2-color grid (side 1-7) or spec (1-5 parts); most of
    these resolutions are not multiples of a cut's denominator."""
    if rng.random() < 0.5:
        return grid_function(rand_model(rng, 2, 2, rng.randrange(1, 8)))
    return homogeneous_function(rand_spec(rng, rng.randrange(1, 6), 2, 2))


@given(st.integers(0, 2**32), st.sampled_from(BENCH_CUTS + OTHER_CUTS))
@settings(max_examples=60)
def test_distance_exact_matches_oracle(seed, cut):
    rng = random.Random(seed)
    th, g = generator("threshold", {"c": cut}), stepped(rng)
    expected = naive_distance(th, g)
    assert distance_exact(th, g) == expected
    assert distance_exact(g, th) == expected


def test_box_measures_and_quantize_match_oracles():
    for cut in BENCH_CUTS + OTHER_CUTS:
        th = generator("threshold", {"c": cut})
        for parts in range(1, 7):
            box = Fraction(1, parts**2)
            for cells in index_tuples(parts, 2):
                bounds = [(Fraction(c - 1, parts), Fraction(c, parts)) for c in cells]
                low = naive_low_area(cut, bounds)
                assert box_color_measures(th, cells, parts) == {1: low, 2: box - low}
            assert quantize(th, parts) == naive_quantize(th, parts)
