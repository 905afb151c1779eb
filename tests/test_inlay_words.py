"""Integer-word inlays: ``sample_random_inlay`` keeps every coordinate as an
integer numerator over one denominator.  Its cells, cell-end flags and
threshold tests are checked against the ``Fraction`` path: the windows
mapped by ``sorted_distinct``, the coordinates of ``_coordinates`` and the
dense inlay of ``conftest.naive_inlay_spec``."""

import random
from fractions import Fraction
from math import floor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import homopix.inlay
from homopix import (
    Box,
    InlaySample,
    InlaySelection,
    SearchBudgetError,
    generator,
    grid_function,
    homogeneous_function,
    resolution,
    sample_random_inlay,
)
from homopix.inlay import _coordinates
from homopix.pipeline import _trial_box
from homopix.sampling import sorted_distinct

from conftest import naive_inlay_spec, rand_model, rand_spec

TOP = 1 << 64  # the word u = 2^64 is the top of a window
CUTS = ["1/3", "1/2", "3/4", "1", "4/3", "3/2"]


class WordStream:
    """A stream that cycles through fixed words ``w = u - 1``, so the
    sampler reads the given ``u``."""

    def __init__(self, words):
        self._words = words
        self._count = 0

    def word(self) -> int:
        self._count += 1
        return self._words[(self._count - 1) % len(self._words)] - 1


def _function(rng: random.Random):
    roll = rng.randrange(5)
    if roll == 0:
        d = rng.randrange(1, 3)
        return grid_function(
            rand_model(rng, d, rng.randrange(2, 4), rng.randrange(2, 6))
        )
    if roll == 1:
        return homogeneous_function(
            rand_spec(rng, rng.randrange(1, 5), rng.randrange(1, 3), 2)
        )
    if roll == 2:
        return generator("dyadic_alternating", {"depth_cap": rng.randrange(1, 5)})
    if roll == 3:
        return generator("order_function")
    return generator("threshold", {"c": rng.choice(CUTS)})


def _box(data, parts: int) -> Box:
    kind = data.draw(st.sampled_from(["full", "dyadic", "rational"]))
    if kind == "full":
        return Box.full(parts)
    if kind == "dyadic":
        return _trial_box("dyadic", parts, data.draw(st.integers(0, 99)), 0)
    windows = []
    for _ in range(parts):
        den = data.draw(st.integers(1, 7))
        lo = data.draw(st.integers(0, den - 1))
        hi = data.draw(st.integers(lo + 1, den))
        windows.append((Fraction(lo, den), Fraction(hi, den)))
    return Box(lower=tuple(w[0] for w in windows), upper=tuple(w[1] for w in windows))


def _words_near(target: Fraction, a: int, parts: int, lo, hi) -> list[int]:
    """Words of block ``a`` at and next to the global coordinate ``target``:
    the point of word ``u`` is ``(a + lo + (hi - lo)*u/2^64)/parts``."""
    u = floor((target * parts - a - lo) / (hi - lo) * TOP)
    return [min(max(w, 1), TOP) for w in (u - 1, u, u + 1, u + 2)]


def _draw_words(data, f, parts, size, box, res):
    """Per block, ``size`` distinct words: uniform, the window top, at or
    next to a cell end ``j/res``, and (threshold) at or next to ``c - x``
    for a point ``x`` drawn before."""
    points, words = [], []
    for a, (lo, hi) in enumerate(zip(box.lower, box.upper)):
        block = []
        while len(block) < size:
            kind = data.draw(st.integers(0, 3))
            if kind == 0 or (kind == 3 and not points):
                u = data.draw(st.integers(1, TOP))
            elif kind == 1:
                u = TOP
            else:
                target = Fraction(data.draw(st.integers(0, res)), res)
                if kind == 3 and f.name == "threshold":
                    target = f.param("c") - data.draw(st.sampled_from(points))
                u = data.draw(st.sampled_from(_words_near(target, a, parts, lo, hi)))
            while u in block:
                u = u % TOP + 1
            block.append(u)
            points.append((a + lo + (hi - lo) * Fraction(u, TOP)) / parts)
        words.append(block)
    return words


def _fraction_path(words, size, box):
    """The selection the sampler drew as rationals, as the windows map them."""
    return InlaySelection(
        blocks=tuple(
            sorted_distinct(WordStream(block), size, lo, hi)
            for block, lo, hi in zip(words, box.lower, box.upper)
        )
    )


@given(st.integers(0, 2**32), st.data())
@settings(max_examples=150)
def test_integer_words_match_the_fraction_path(seed, data):
    rng = random.Random(seed)
    f = _function(rng)
    parts = rng.randrange(1, 4)
    size = rng.randrange(max(f.d, 2), 4)
    box = _box(data, parts)
    res = resolution(f) or data.draw(st.integers(1, 6))
    avoid = data.draw(st.sampled_from([None, res]))
    words = _draw_words(data, f, parts, size, box, res)
    selection = _fraction_path(words, size, box)
    # the sampler redraws the same words while one lies on a cell end
    flagged = avoid is not None and any(
        (x * avoid).denominator == 1 for x in _coordinates(selection.blocks)
    )
    stream = [u for block in words for u in block]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homopix.inlay, "substream", lambda seed, index: WordStream(stream))
        if flagged:
            with pytest.raises(SearchBudgetError, match="boundary avoidance"):
                sample_random_inlay(f, parts, size, box, 0, avoid_resolution=avoid)
            return
        sample = sample_random_inlay(f, parts, size, box, 0, avoid_resolution=avoid)
    assert sample.selection == selection
    assert sample.spec == naive_inlay_spec(f, selection)
    same = InlaySample(selection=selection, spec=sample.spec, source=f)
    assert sample == same and hash(sample) == hash(same)


def _point(a: int, u: int, parts: int, box: Box) -> Fraction:
    lo, hi = box.lower[a], box.upper[a]
    return (a + lo + (hi - lo) * Fraction(u, TOP)) / parts


def _tie(c: Fraction, parts: int, box: Box):
    """Words ``u`` of block ``a`` and ``v`` of block ``b`` whose points sum
    to ``c`` exactly, or None."""
    for u in (1 << 62, 1 << 63, 3 << 62, TOP):
        for a in range(parts):
            rest = c - _point(a, u, parts, box)
            for b in range(parts):
                lo, hi = box.lower[b], box.upper[b]
                v = (rest * parts - b - lo) / (hi - lo) * TOP
                if v.denominator == 1 and 1 <= v <= TOP and (a, u) != (b, v):
                    return (a, u), (b, int(v))
    return None


@pytest.mark.parametrize(
    "box",
    [
        Box.full(2),
        Box(lower=(Fraction(1, 4), Fraction(0)), upper=(Fraction(1, 2), Fraction(1, 2))),
        Box(lower=(Fraction(1, 2), Fraction(1, 4)), upper=(Fraction(1), Fraction(3, 4))),
    ],
)
def test_threshold_sums_on_the_cut(box, monkeypatch):
    # two points that sum to c exactly (the cut is closed) and their
    # neighbours one word away, on full and dyadic windows
    ties = checked = 0
    for cut in ("1/2", "3/4", "1", "5/4", "3/2"):
        f = generator("threshold", {"c": cut})
        tie = _tie(f.param("c"), 2, box)
        if tie is None:  # no two points of the box sum to c
            continue
        ties += 1
        (a, u), (b, v) = tie
        assert _point(a, u, 2, box) + _point(b, v, 2, box) == f.param("c")
        for delta in (-1, 0, 1):
            words = [[], []]
            words[a].append(u)
            words[b].append(min(max(v + delta, 1), TOP))
            if len(set(words[a])) < len(words[a]):
                continue
            for block in words:
                for filler in (1 << 60, 5 << 60):
                    if len(block) < 2 and filler not in block:
                        block.append(filler)
            stream = words[0] + words[1]
            monkeypatch.setattr(
                homopix.inlay, "substream", lambda seed, index: WordStream(stream)
            )
            sample = sample_random_inlay(f, 2, 2, box, seed=0)
            selection = _fraction_path(words, 2, box)
            assert sample.selection == selection
            assert sample.spec == naive_inlay_spec(f, selection)
            checked += 1
    assert ties >= 2 and checked >= 3 * ties - 1
