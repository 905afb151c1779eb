"""Run-level inlays: the spec ``sample_random_inlay`` decides without the
dense model, checked against the dense path (``conftest.naive_inlay_spec``),
with no dense model on ``pixelate``'s path, and the arity of a unary color
bit kept in ``pixelate``'s ``g'``."""

import random
from bisect import bisect_left
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import homopix.inlay
from homopix import (
    Box,
    DiscreteModel,
    generator,
    grid_function,
    homogeneous_function,
    pixelate,
    resolution,
    sample_random_inlay,
)
from homopix.functions import _step
from homopix.pipeline import _trial_box

from conftest import naive_inlay_spec, rand_model, rand_spec

CUTS = ["1/3", "1/2", "3/4", "1", "4/3", "3/2"]


def _function(rng: random.Random):
    roll = rng.randrange(6)
    if roll == 0:
        d = rng.randrange(1, 4)
        return grid_function(
            rand_model(rng, d, rng.randrange(2, 4), rng.randrange(2, 5))
        )
    if roll == 1:
        d = rng.randrange(1, 4)
        return homogeneous_function(
            rand_spec(rng, rng.randrange(1, 4), d, rng.randrange(2, 4))
        )
    if roll == 2:
        d = rng.randrange(1, 4)
        return generator(
            "random_homogeneous",
            {"l": rng.randrange(1, 4), "d": d, "k": 2, "seed": rng.randrange(100)},
        )
    if roll == 3:
        return generator("order_function")
    if roll == 4:
        return generator("dyadic_alternating", {"depth_cap": rng.randrange(1, 5)})
    return generator("threshold", {"c": rng.choice(CUTS)})


def _straddles(f, sample) -> bool:
    """True iff some block's points lie in more than one run of ``f``."""
    res, runs, _, _ = _step(f)
    parts = sample.selection.parts
    for a, block in enumerate(sample.selection.blocks):
        points = [(a + x) / parts for x in block]
        cells = {-((-x.numerator * res) // x.denominator) for x in points}
        if len({bisect_left(runs, c) for c in cells}) > 1:
            return True
    return False


@given(
    st.integers(0, 2**32),
    st.sampled_from(["full", "dyadic"]),
    st.booleans(),
    st.integers(0, 10_000),
)
@settings(max_examples=150)
def test_run_level_spec_matches_dense_path(seed, strategy, avoid, trial):
    rng = random.Random(seed)
    f = _function(rng)
    # dense models of at most a few thousand entries
    parts = rng.randrange(1, {1: 13, 2: 7, 3: 4}[f.d])
    size = rng.randrange(f.d, {1: 5, 2: 5, 3: 5}[f.d])
    box = _trial_box(strategy, parts, seed, trial)
    sample = sample_random_inlay(
        f, parts, size, box, seed, index=trial,
        avoid_resolution=resolution(f) if avoid else None,
    )
    assert sample.spec == naive_inlay_spec(f, sample.selection)


def test_straddling_blocks_match_dense_path():
    # cells 1 and 2 are separate runs only because (1, 3) and (3, 1) differ
    # from (2, 3) and (3, 2); a window below 2/3 straddles their run end
    # and still gives homogeneous inlays, the full window does not always
    values = tuple(
        2 if (i, j) in {(1, 3), (3, 1)} else 1 for i in (1, 2, 3) for j in (1, 2, 3)
    )
    f = grid_function(DiscreteModel(d=2, k=2, m=3, values=values))
    low = Box(lower=(Fraction(0),), upper=(Fraction(2, 3),))
    outcomes = set()
    for index in range(40):
        for parts, box in ((1, low), (1, Box.full(1)), (2, Box.full(2))):
            sample = sample_random_inlay(f, parts, 3, box, seed=5, index=index)
            assert sample.spec == naive_inlay_spec(f, sample.selection)
            if _straddles(f, sample):
                outcomes.add((box is low, sample.homogeneous))
    assert outcomes == {(True, True), (False, True), (False, False)}
    # arity 3: block 2 of 3 straddles the spec's cell end at 1/2
    f = generator("random_homogeneous", {"l": 2, "d": 3, "k": 2, "seed": 1})
    for index in range(6):
        sample = sample_random_inlay(f, 3, 3, Box.full(3), seed=2, index=index)
        assert sample.spec == naive_inlay_spec(f, sample.selection)


class WordStream:
    """A stream that cycles through fixed words."""

    def __init__(self, words):
        self._words = words
        self._count = 0

    def word(self) -> int:
        self._count += 1
        return self._words[(self._count - 1) % len(self._words)]


def test_ties_and_cell_ends_match_dense_path(monkeypatch):
    # the words 2^63 - 1 and 2^62 - 1 are the points 1/2 and 1/4 of each
    # window: threshold sums land exactly on the cuts (a tie takes color 1)
    # and step-form points on cell ends (a point takes the lower cell)
    monkeypatch.setattr(
        homopix.inlay, "substream",
        lambda seed, index: WordStream([(1 << 63) - 1, (1 << 62) - 1]),
    )
    rng = random.Random(6)
    functions = [
        generator("threshold", {"c": c}) for c in ("1/2", "3/4", "1", "5/4")
    ] + [
        generator("dyadic_alternating", {"depth_cap": 3}),
        grid_function(rand_model(rng, 2, 3, 4)),
        homogeneous_function(rand_spec(rng, 4, 2, 2)),
    ]
    for f in functions:
        for parts in (1, 2):
            sample = sample_random_inlay(f, parts, 2, Box.full(parts), seed=0)
            assert sample.spec == naive_inlay_spec(f, sample.selection), (f, parts)
    f = generator("threshold", {"c": "1"})
    assert sample_random_inlay(f, 1, 2, Box.full(1), seed=0).homogeneous


def test_lazy_model_is_the_dense_inlay():
    f = generator("threshold", {"c": "3/4"})
    sample = sample_random_inlay(f, 2, 2, Box.full(2), seed=4)
    assert not sample.homogeneous
    assert sample.model is sample.model
    assert sample.model.m == 4
    assert sample == sample_random_inlay(f, 2, 2, Box.full(2), seed=4)


def test_pixelate_builds_no_dense_model(monkeypatch):
    rng = random.Random(3)
    jobs = [
        (grid_function(rand_model(rng, 2, 3, 4)), Fraction(3, 10), 3),
        (homogeneous_function(rand_spec(rng, 2, 2, 3)), Fraction(1, 4), 2),
        (generator("threshold", {"c": "1/2"}), Fraction(1, 2), 2),
    ]
    want = [pixelate(f, eps, n_max, seed=1) for f, eps, n_max in jobs]

    def refuse(*args, **kwargs):
        raise AssertionError("dense inlay model built")

    class NoDense(DiscreteModel):
        from_function = classmethod(refuse)

    monkeypatch.setattr(homopix.inlay, "evaluate", refuse)
    monkeypatch.setattr(homopix.inlay, "DiscreteModel", NoDense)
    got = [pixelate(f, eps, n_max, seed=1) for f, eps, n_max in jobs]
    assert got == want


@given(st.integers(0, 2**32))
@settings(max_examples=20)
def test_pixelate_keeps_a_unary_bit_unary(seed):
    # color - 1 = b1(x1, x2) + 2*b2(x1): bit 2 is a unary relation on x1,
    # so in g' it must read only the cell of x1
    rng = random.Random(seed)
    m = rng.randrange(2, 5)
    unary = [rng.randrange(2) for _ in range(m)]
    values = tuple(
        1 + rng.randrange(2) + 2 * unary[i] for i in range(m) for _ in range(m)
    )
    f = grid_function(DiscreteModel(d=2, k=4, m=m, values=values))
    cert = pixelate(f, Fraction(1, 2), 2, seed=seed)
    bit = {}
    for cells, _, color in cert.g_prime.entries:
        assert bit.setdefault(cells[0], (color - 1) >> 1) == (color - 1) >> 1
