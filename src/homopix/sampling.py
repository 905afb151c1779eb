"""Seeded dyadic-rational sampling.

Every randomized operation draws 64-bit words.  A coordinate drawn from the
word ``w`` is the dyadic rational ``u/2^64`` with the integer ``u = w + 1``
in ``[1, 2^64]``, so every sampled coordinate is exact and every run is
bit-exactly reproducible from its seed.  Batch operations derive one
substream per item from ``(seed, index)``, so results never depend on
evaluation order or worker count.  Substreams are counter-based (BLAKE2b
over seed, index, counter), which keeps them platform-stable and cheap to
create per trial.

The statistic samplers (``mu_sample``, ``distance_mc``) never build the
``Fraction`` ``u/2^64``: they take the words ``u`` from
:func:`_sorted_words` and color them in integer arithmetic
(``functions._word_colorer``), which makes the same decisions as
``evaluate`` at ``u/2^64``.  :func:`sorted_distinct` maps the same words
onto a window for the inlay sampler, so the redraw rule lives in one place.
"""

from __future__ import annotations

from fractions import Fraction
from hashlib import blake2b

from .errors import InvalidInputError, SearchBudgetError

DYADIC_BITS = 64
_DYADIC_DEN = 1 << DYADIC_BITS
_MASK64 = _DYADIC_DEN - 1
_MAX_REDRAWS = 1000


class Substream:
    """Deterministic stream of 64-bit words for one ``(seed, index)`` pair."""

    __slots__ = ("_prefix", "_counter")

    def __init__(self, seed: int, index: int):
        self._prefix = (seed & _MASK64).to_bytes(8, "little") + (
            index & _MASK64
        ).to_bytes(8, "little")
        self._counter = 0

    def word(self) -> int:
        digest = blake2b(
            self._prefix + self._counter.to_bytes(8, "little"), digest_size=8
        ).digest()
        self._counter += 1
        return int.from_bytes(digest, "little")

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


def sorted_distinct(
    rng: Substream, n: int, lo: Fraction, hi: Fraction
) -> tuple[Fraction, ...]:
    """``n`` sorted, pairwise-distinct uniforms in ``(lo, hi]``: the words of
    :func:`_sorted_words` mapped to ``lo + (hi - lo) * u/2^64``."""
    if not lo < hi:
        raise InvalidInputError(f"empty window ({lo}, {hi}]")
    span = hi - lo
    return tuple(lo + span * Fraction(u, _DYADIC_DEN) for u in _sorted_words(rng, n))
