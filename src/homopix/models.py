"""Dense discrete models, weak-order patterns, and exact cell arithmetic.

Conventions used throughout the package:

* colors are 1-based integers in ``[k]``;
* a grid at resolution ``l`` splits ``(0, 1]`` into half-open cells
  ``((i-1)/l, i/l]`` for ``i`` in ``[l]``, so the cell of ``x`` is
  ``ceil(l*x)``;
* the weak order of a coordinate tuple is canonicalized as its dense-rank
  vector (smallest value gets rank 1, equal values share a rank, ranks are
  contiguous).

All values are immutable after construction and all functions are pure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Sequence

from .errors import InvalidInputError

# Practical caps for dense storage; larger instances must be rejected, never
# silently truncated.
MAX_ARITY = 4
MAX_COLORS = 16
MAX_SIDE = 10_000
MAX_DENSE_ENTRIES = 10_000_000


def order_pattern(values: Sequence) -> tuple[int, ...]:
    """Dense ranks of a tuple: equal entries share a rank, ranks run 1..c.

    The result is invariant under any strictly monotone transformation of
    the entries.  Uses comparisons only, so exact rationals rank quickly.
    """
    n = len(values)
    if n == 0:
        raise InvalidInputError("zero arity")
    by_value = sorted(range(n), key=values.__getitem__)
    ranks = [0] * n
    rank = 0
    previous = None
    for i in by_value:
        if rank == 0 or values[i] != previous:
            rank += 1
            previous = values[i]
        ranks[i] = rank
    return tuple(ranks)


def is_order_pattern(ranks: Sequence[int]) -> bool:
    """True iff ``ranks`` is a valid dense-rank vector."""
    if len(ranks) == 0:
        return False
    seen = set(ranks)
    return seen == set(range(1, len(seen) + 1))


@lru_cache(maxsize=None)
def all_order_patterns(d: int) -> tuple[tuple[int, ...], ...]:
    """Every dense-rank vector of arity ``d``, in lexicographic order.

    The count is the ordered Bell number (3 for d=2, 13 for d=3).
    """
    if d < 1:
        raise InvalidInputError("zero arity")
    return tuple(
        p for p in itertools.product(range(1, d + 1), repeat=d) if is_order_pattern(p)
    )


def pattern_consistent(cells: Sequence[int], pattern: Sequence[int]) -> bool:
    """True iff the pattern can occur for points in the given cells.

    A strictly smaller cell forces a strictly smaller coordinate, so
    ``cells[j] < cells[j']`` must imply ``pattern[j] < pattern[j']``.
    """
    if len(cells) != len(pattern):
        raise InvalidInputError("arity mismatch between cells and pattern")
    for (c, r), (c2, r2) in itertools.combinations(zip(cells, pattern), 2):
        if c < c2 and not r < r2:
            return False
        if c2 < c and not r2 < r:
            return False
    return True


def cell_index(x: Fraction, parts: int) -> int:
    """Cell of ``x`` in ``(0, 1]`` at resolution ``parts``: ``ceil(parts*x)``.

    Computed in exact integer arithmetic; no floating point.
    """
    x = Fraction(x)
    if x.numerator <= 0 or x.numerator > x.denominator:
        raise InvalidInputError(f"coordinate {x} outside (0, 1]")
    return -((-x.numerator * parts) // x.denominator)


def index_tuples(m: int, d: int) -> Iterator[tuple[int, ...]]:
    """All tuples of ``[m]^d`` in row-major order (last index fastest)."""
    return itertools.product(range(1, m + 1), repeat=d)


def _slices_equal(values: tuple[int, ...], m: int, d: int, c: int) -> bool:
    # True iff, along every axis, the slice at cell c equals the slice at c+1.
    # Each comparison runs on whole tuple slices: contiguous ones when the
    # axis stride is long, strided ones (one per offset) when it is short.
    for axis in range(d):
        stride = m ** (d - 1 - axis)
        outer = m**axis
        block = m * stride
        lo = (c - 1) * stride
        if stride >= outer:
            for base in range(lo, outer * block, block):
                upper = base + stride
                if values[base:upper] != values[upper : upper + stride]:
                    return False
        else:
            for j in range(lo, lo + stride):
                if values[j::block] != values[j + stride :: block]:
                    return False
    return True


def _grid_runs(values: tuple[int, ...], m: int, d: int) -> tuple[int, ...]:
    ends = [c for c in range(1, m) if not _slices_equal(values, m, d, c)]
    ends.append(m)
    return tuple(ends)


def _dense_entries(d: int, k: int, m: int) -> int:
    """The ``m^d`` entries of a dense ``[m]^d -> [k]`` table, once the
    arity, color count, side and entry count are within their caps."""
    if not 1 <= d <= MAX_ARITY:
        raise InvalidInputError(f"arity d={d} outside [1, {MAX_ARITY}]")
    if not 1 <= k <= MAX_COLORS:
        raise InvalidInputError(f"color count k={k} outside [1, {MAX_COLORS}]")
    if not 1 <= m <= MAX_SIDE:
        raise InvalidInputError(f"side m={m} outside [1, {MAX_SIDE}]")
    total = m**d
    if total > MAX_DENSE_ENTRIES:
        raise InvalidInputError(f"dense table of {total} entries exceeds cap")
    return total


@dataclass(frozen=True)
class DiscreteModel:
    """A total function ``[m]^d -> [k]`` stored densely in row-major order."""

    d: int
    k: int
    m: int
    values: tuple[int, ...]
    _runs: tuple[int, ...] = field(
        init=False, repr=False, compare=False, default=None
    )

    def __post_init__(self):
        total = _dense_entries(self.d, self.k, self.m)
        if len(self.values) != total:
            raise InvalidInputError(
                f"value table has {len(self.values)} entries, expected {total}"
            )
        for v in self.values:
            if not (isinstance(v, int) and 1 <= v <= self.k):
                raise InvalidInputError(f"color {v!r} outside [1, {self.k}]")

    def flat_index(self, idx: Sequence[int]) -> int:
        if len(idx) != self.d:
            raise InvalidInputError(f"index arity {len(idx)} != {self.d}")
        pos = 0
        for i in idx:
            if not 1 <= i <= self.m:
                raise InvalidInputError(f"index {i} outside [1, {self.m}]")
            pos = pos * self.m + (i - 1)
        return pos

    def get(self, idx: Sequence[int]) -> int:
        """Color at a 1-based index tuple."""
        return self.values[self.flat_index(idx)]

    def color(self, cells: Sequence[int], pattern=None) -> int:
        """Color of the grid step function on a cell vector; the order
        pattern is ignored (the step-form signature shared with specs)."""
        return self.values[self.flat_index(cells)]

    def tuples(self) -> Iterator[tuple[int, ...]]:
        return index_tuples(self.m, self.d)

    @property
    def runs(self) -> tuple[int, ...]:
        """Last cell of every run of the grid step function, ascending.

        A run is a maximal interval of cells whose slices agree along every
        axis, so the color depends on the cell vector only through its run
        vector.  Computed on first use and kept on the model.
        """
        if self._runs is None:
            object.__setattr__(self, "_runs", _grid_runs(self.values, self.m, self.d))
        return self._runs

    @classmethod
    def from_function(cls, d: int, k: int, m: int, fn) -> "DiscreteModel":
        _dense_entries(d, k, m)  # reject before fn runs on m^d entries
        values = tuple(fn(idx) for idx in index_tuples(m, d))
        return cls(d=d, k=k, m=m, values=values)
