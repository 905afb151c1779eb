"""Seeded dyadic-rational sampling.

Every randomized operation draws 64-bit words.  A coordinate drawn from the
word ``w`` is the dyadic rational ``u/2^64`` with the integer ``u = w + 1``
in ``[1, 2^64]``, so every sampled coordinate is exact and every run is
bit-exactly reproducible from its seed.  Batch operations derive one
substream per item from ``(seed, index)``, so results never depend on
evaluation order or worker count.  Substreams are counter-based: word
``c`` of substream ``(seed, index)`` is BLAKE2b over the message
``seed8 + index8 + c8`` (little-endian 64-bit fields), a pure function of
the three that keeps the words platform-stable.  :func:`_prefix_states`
absorbs the prefix ``seed8 + index8`` once per stream, and each word copies
that state.  A batch of trials therefore needs no stream object per trial:
:func:`_trial_words` hashes the words of ``substream(seed, t)`` for
``t = 0, 1, ...`` in one loop.

The statistic samplers (``mu_sample``, ``distance_mc``) never build the
``Fraction`` ``u/2^64``: they take the words ``u`` from
:func:`_trial_words` and color them in integer arithmetic
(``functions._word_colorer``), which makes the same decisions as
``evaluate`` at ``u/2^64``.  The inlay sampler maps the words of
:func:`_sorted_words` onto its windows as integers, and
:func:`sorted_distinct` maps them onto a window as rationals; a collision
is redrawn by :func:`_sorted_words` alone, so the redraw rule lives in
one place.
"""

from __future__ import annotations

from fractions import Fraction
from hashlib import blake2b

from .errors import InvalidInputError, SearchBudgetError

DYADIC_BITS = 64
_DYADIC_DEN = 1 << DYADIC_BITS
_MASK64 = _DYADIC_DEN - 1
_MAX_REDRAWS = 1000


def _field(value: int) -> bytes:
    """``value`` as one field of a message: 8 bytes, little-endian, mod 2^64."""
    return (value & _MASK64).to_bytes(8, "little")


def _prefix_states(seed: int, indices):
    """Yield, per index, the BLAKE2b state (8-byte digests) that has absorbed
    ``seed8 + index8``, the prefix of every message of ``substream(seed,
    index)``: word ``c`` is the digest of a copy that absorbs ``_field(c)``.
    """
    by_seed = blake2b(_field(seed), digest_size=8)
    for index in indices:
        state = by_seed.copy()
        state.update(_field(index))
        yield state


class Substream:
    """Deterministic stream of 64-bit words for one ``(seed, index)`` pair."""

    __slots__ = ("_state", "_counter")

    def __init__(self, seed: int, index: int):
        (self._state,) = _prefix_states(seed, (index,))
        self._counter = 0

    def word(self) -> int:
        h = self._state.copy()
        h.update(_field(self._counter))
        self._counter += 1
        return int.from_bytes(h.digest(), "little")

    def getrandbits(self, bits: int) -> int:
        if not 0 < bits <= DYADIC_BITS:
            raise ValueError(f"bits must be in [1, {DYADIC_BITS}]")
        return self.word() >> (DYADIC_BITS - bits)

    def randrange(self, bound: int) -> int:
        # rejection sampling keeps the choice exactly uniform
        limit = (_DYADIC_DEN // bound) * bound
        while True:
            w = self.word()
            if w < limit:
                return w % bound


def substream(seed: int, index: int) -> Substream:
    """Deterministic per-item stream derived from a base seed and an index."""
    return Substream(seed, index)


def _unit_words(rng: Substream, n: int) -> list[int]:
    """The next ``n`` words ``w`` of ``rng`` as the integers ``u = w + 1`` in
    ``[1, 2^64]``, in draw order: the coordinates ``u/2^64``."""
    word = rng.word
    return [word() + 1 for _ in range(n)]


def _sorted_words(rng: Substream, n: int) -> list[int]:
    """``n`` sorted, pairwise-distinct words from :func:`_unit_words`.

    Exact collisions are a probability ~``n^2/2^64`` event; the whole batch
    is redrawn when one occurs so the result stays distribution-correct.
    """
    for _ in range(_MAX_REDRAWS):
        us = sorted(_unit_words(rng, n))
        if len(set(us)) == n:
            return us
    raise SearchBudgetError("exceeded redraw budget for distinct samples")


def _trial_words(seed: int, trials: int, n: int, distinct: bool):
    """Yield, for ``t`` in ``range(trials)``, the first ``n`` words ``u`` of
    ``substream(seed, t)``: sorted and pairwise distinct as
    :func:`_sorted_words` returns them when ``distinct``, else in draw order
    as :func:`_unit_words` does.

    The same words as one stream per trial, hashed in one loop with no
    stream object: each word copies its trial's prefix state
    (:func:`_prefix_states`) to absorb its counter.  A batch with a
    collision is left to ``_sorted_words(substream(seed, t), n)``, which
    draws the same batch first and then redraws from counter ``n`` on.
    """
    counters = [_field(c) for c in range(n)]
    from_bytes = int.from_bytes
    for t, state in enumerate(_prefix_states(seed, range(trials))):
        us = []
        for c in counters:
            h = state.copy()
            h.update(c)
            us.append(from_bytes(h.digest(), "little") + 1)
        if distinct:
            us.sort()
            if len(set(us)) < n:
                us = _sorted_words(substream(seed, t), n)
        yield us


def sorted_distinct(
    rng: Substream, n: int, lo: Fraction, hi: Fraction
) -> tuple[Fraction, ...]:
    """``n`` sorted, pairwise-distinct uniforms in ``(lo, hi]``: the words of
    :func:`_sorted_words` mapped to ``lo + (hi - lo) * u/2^64``."""
    if not lo < hi:
        raise InvalidInputError(f"empty window ({lo}, {hi}]")
    span = hi - lo
    return tuple(lo + span * Fraction(u, _DYADIC_DEN) for u in _sorted_words(rng, n))
