"""The integer-word sampler: ``functions._word_colorer`` against ``evaluate``
at the dyadic points ``u/2^64`` the words stand for, boundary words
included, ``sampling.sorted_distinct`` as a map of the same words, and the
fused trial words of ``sampling._trial_words`` against one substream per
trial, collisions and an exhausted redraw budget included."""

import random
from fractions import Fraction
from hashlib import blake2b

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import homopix.sampling
from homopix import (
    InvalidInputError,
    SearchBudgetError,
    evaluate,
    generator,
    resolution,
)
from homopix.functions import _word_colorer
from homopix.models import index_tuples, order_pattern
from homopix.sampling import (
    _MAX_REDRAWS,
    _sorted_words,
    _trial_words,
    _unit_words,
    sorted_distinct,
    substream,
)

from conftest import rand_function

TOP = 1 << 64  # the word u = 2^64 is the coordinate 1
CUTS = ["0", "1/3", "1/2", "3/4", "1", "3/2", "5/7", "2"]


def _function(rng: random.Random):
    roll = rng.randrange(4)
    if roll == 0:
        return rand_function(rng, rng.randrange(1, 3), rng.randrange(2, 4))
    if roll == 1:
        return generator("dyadic_alternating", {"depth_cap": rng.randrange(1, 7)})
    if roll == 2:
        return generator("order_function")
    return generator("threshold", {"c": rng.choice(CUTS)})


def _words(res: int):
    """Uniform words, and words at or next to the cell ends ``j/res``: exact
    dyadic boundaries ``j*2^(64-k)`` when ``res = 2^k``, and ``u = 2^64``."""
    boundary = st.builds(
        lambda j, delta: min(max((j * TOP) // res + delta, 1), TOP),
        st.integers(1, res),
        st.integers(-1, 1),
    )
    return st.one_of(st.integers(1, TOP), st.just(TOP), boundary)


def _point(us):
    return [Fraction(u, TOP) for u in us]


@given(st.integers(0, 2**32), st.data())
@settings(max_examples=80)
def test_word_colorer_matches_evaluate(seed, data):
    f = _function(random.Random(seed))
    words = _words(resolution(f) or 4)
    # one point of d words, ties allowed, as distance_mc draws it
    us = data.draw(st.lists(words, min_size=f.d, max_size=f.d))
    shape = (tuple(range(f.d)), order_pattern(us))
    assert _word_colorer(f, [shape])(us) == (evaluate(f, _point(us)),)
    # n sorted distinct words read at every index tuple, as mu_sample does
    us = sorted(set(data.draw(st.lists(words, min_size=1, max_size=3))))
    shapes = [
        (tuple(i - 1 for i in idx), order_pattern(idx))
        for idx in index_tuples(len(us), f.d)
    ]
    expected = tuple(evaluate(f, _point([us[p] for p in pos])) for pos, _ in shapes)
    assert _word_colorer(f, shapes)(us) == expected


@pytest.mark.parametrize("cut", ["1/2", "1", "3/2"])
def test_threshold_words_on_the_cut(cut):
    # u_i + u_j = c*2^64 exactly is color 1 (the cut is closed); one more is 2
    f = generator("threshold", {"c": cut})
    total = Fraction(cut) * TOP
    assert total.denominator == 1
    total = int(total)
    colors = _word_colorer(f, [((0, 1), None)])  # the cut reads no pattern
    for first in (1, 2**62, total // 2, total // 2 + 1, total - TOP, TOP):
        for delta in (-1, 0, 1):
            second = total - first + delta
            if not (1 <= first <= TOP and 1 <= second <= TOP):
                continue
            us = [first, second]
            assert colors(us) == (evaluate(f, _point(us)),)
            assert colors(us) == ((1,) if delta <= 0 else (2,))


def test_dyadic_words_on_cell_ends():
    # on the 2^k grid of dyadic_alternating the word j*2^(64-k) is the last
    # point of cell j, and one more starts cell j+1
    depth = 5
    f = generator("dyadic_alternating", {"depth_cap": depth})
    for j in range(1, 2**depth + 1):
        for u in (j << (64 - depth), min((j << (64 - depth)) + 1, TOP)):
            assert _word_colorer(f, [((0,), (1,))])([u]) == (evaluate(f, _point([u])),)


def test_sorted_distinct_maps_the_sorted_words():
    lo, hi = Fraction(1, 3), Fraction(1, 2)
    words = _sorted_words(substream(9, 4), 5)
    points = sorted_distinct(substream(9, 4), 5, lo, hi)
    assert points == tuple(lo + (hi - lo) * Fraction(u, TOP) for u in words)
    assert list(points) == sorted(set(points))
    with pytest.raises(InvalidInputError):
        sorted_distinct(substream(9, 4), 2, hi, hi)


def _per_trial(seed, trials, n, distinct):
    draw = _sorted_words if distinct else _unit_words
    return [draw(substream(seed, t), n) for t in range(trials)]


@given(
    st.one_of(st.integers(0, 2**64 - 1), st.integers(-(2**70), 2**70)),
    st.integers(1, 40),
    st.integers(1, 4),
    st.booleans(),
)
@settings(max_examples=100)
def test_trial_words_are_the_per_trial_words(seed, trials, n, distinct):
    fused = list(_trial_words(seed, trials, n, distinct))
    assert fused == _per_trial(seed, trials, n, distinct)


class CollidingHash:
    """A BLAKE2b stand-in whose 8-byte digests take only ``2^bits`` values,
    so batches of words collide; it records the messages it digests."""

    bits = 1
    messages: set = set()

    def __init__(self, data=b"", digest_size=8):
        assert digest_size == 8
        self._data = bytes(data)

    def update(self, data):
        self._data += data

    def copy(self):
        return CollidingHash(self._data)

    def digest(self):
        CollidingHash.messages.add(self._data)
        word = int.from_bytes(blake2b(self._data, digest_size=8).digest(), "little")
        return (word % (1 << self.bits)).to_bytes(8, "little")


def _colliding(monkeypatch, bits, draw):
    """``draw()`` (or the arguments of the ``SearchBudgetError`` it raises)
    under :class:`CollidingHash`, and the set of messages it hashed."""
    monkeypatch.setattr(homopix.sampling, "blake2b", CollidingHash)
    monkeypatch.setattr(CollidingHash, "bits", bits)
    monkeypatch.setattr(CollidingHash, "messages", set())
    try:
        result = draw()
    except SearchBudgetError as err:
        result = err.args
    return result, CollidingHash.messages


def _messages(seed, index, counters):
    return {
        b"".join((x & (TOP - 1)).to_bytes(8, "little") for x in (seed, index, c))
        for c in counters
    }


@pytest.mark.parametrize("n, bits", [(2, 1), (3, 2), (4, 3)])
def test_collisions_redraw_as_the_per_trial_path(monkeypatch, n, bits):
    # with 2^bits digest values, a batch of n words often collides and is
    # redrawn from counter n on, as many times as it takes: both paths give
    # the same words and hash the same counters of every trial
    for seed in (0, 7, 2**63 + 5):
        fused = _colliding(
            monkeypatch, bits, lambda: list(_trial_words(seed, 60, n, True))
        )
        per_trial = _colliding(
            monkeypatch, bits, lambda: _per_trial(seed, 60, n, True)
        )
        assert fused == per_trial
        assert len(fused[1]) > 60 * n  # some batch was redrawn


@pytest.mark.parametrize("n, bits", [(2, 0), (3, 1), (4, 1)])
def test_exhausted_budget_after_the_same_batches(monkeypatch, n, bits):
    # n words from fewer than n values always collide: both paths give up
    # after _MAX_REDRAWS batches, the first one counted, so they hash the
    # counters below _MAX_REDRAWS * n of trial 0 and nothing more
    expected = ("exceeded redraw budget for distinct samples",)
    fused = _colliding(
        monkeypatch, bits, lambda: next(_trial_words(3, 5, n, True))
    )
    per_trial = _colliding(
        monkeypatch, bits, lambda: _sorted_words(substream(3, 0), n)
    )
    assert fused == per_trial == (expected, _messages(3, 0, range(_MAX_REDRAWS * n)))
    # in draw order nothing is redrawn
    fused = _colliding(
        monkeypatch, bits, lambda: list(_trial_words(3, 5, n, False))
    )
    per_trial = _colliding(
        monkeypatch, bits, lambda: _per_trial(3, 5, n, False)
    )
    assert fused == per_trial
    assert fused[1] == set().union(*(_messages(3, t, range(n)) for t in range(5)))
