"""Part-homogeneous spec tables: extraction, instantiation, compatibility.

A function is *l-part homogeneous* when its value depends only on which of
the ``l`` equal cells each coordinate lies in and on the weak order of the
coordinates.  The canonical finite description is a total table from
(cell vector, consistent order pattern) pairs to colors.

Discrete models of side ``s*l`` are read as ``l`` blocks of size ``s``; the
cell of index ``i`` is ``ceil(i/s)``.  Requiring ``s >= d`` makes every
order expressible inside a single block, which is what makes the extracted
table total and the compatible extension unique.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from math import comb
from typing import Iterator, Mapping

from .errors import InvalidInputError, NotHomogeneousError
from .models import (
    MAX_ARITY,
    MAX_COLORS,
    DiscreteModel,
    all_order_patterns,
    index_tuples,
    is_order_pattern,
    order_pattern,
    pattern_consistent,
)

SpecKey = tuple[tuple[int, ...], tuple[int, ...]]

MAX_SPEC_CELLS = 1_000_000


def _check_spec_cells(parts: int, d: int) -> None:
    if parts**d > MAX_SPEC_CELLS:
        raise InvalidInputError(f"{parts}^{d} cells exceeds spec cap")


@functools.cache
def _consistent_patterns(shape: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The patterns consistent with every cell vector of order pattern
    ``shape``, which alone decides them, in lexicographic order.  The cache
    holds one entry per order pattern: 92 up to arity 4."""
    return tuple(
        p for p in all_order_patterns(len(shape)) if pattern_consistent(shape, p)
    )


def consistent_pairs(parts: int, d: int) -> Iterator[SpecKey]:
    """All (cell vector, pattern) pairs a spec table must cover, in
    lexicographic order."""
    _check_spec_cells(parts, d)
    for cells in index_tuples(parts, d):
        for p in _consistent_patterns(order_pattern(cells)):
            yield cells, p


def _pair_count(parts: int, d: int) -> int:
    """How many pairs :func:`consistent_pairs` yields, in closed form.

    Coordinates of one rank share a cell, since a smaller cell forces a
    smaller rank, so a consistent pair is a weak order with ``r`` ranks
    (``r! S(d, r)`` of them, by inclusion-exclusion) and a nondecreasing
    choice of cells for its ranks (``C(parts + r - 1, r)``).  Summed by cell
    vector instead, this is the product of the ordered Bell numbers of the
    tie-group sizes.
    """
    _check_spec_cells(parts, d)
    return sum(
        comb(parts + r - 1, r)
        * sum((-1) ** (r - j) * comb(r, j) * j**d for j in range(r + 1))
        for r in range(1, d + 1)
    )


@dataclass(frozen=True)
class HomogeneousSpec:
    """Canonical table form of an l-part homogeneous function.

    ``entries`` is sorted by (cells, pattern), holds exactly one entry per
    consistent pair, and two specs are equal iff their tables are identical.
    """

    parts: int
    d: int
    k: int
    entries: tuple[tuple[tuple[int, ...], tuple[int, ...], int], ...]
    _table: Mapping[SpecKey, int] = field(
        init=False, repr=False, compare=False, default=None
    )
    _runs: tuple[int, ...] = field(
        init=False, repr=False, compare=False, default=None
    )

    def __post_init__(self):
        if self.parts < 1:
            raise InvalidInputError("parts must be >= 1")
        if not 1 <= self.d <= MAX_ARITY:
            raise InvalidInputError(f"arity d={self.d} outside [1, {MAX_ARITY}]")
        if not 1 <= self.k <= MAX_COLORS:
            raise InvalidInputError(f"color count k={self.k} outside [1, {MAX_COLORS}]")
        entries = tuple(sorted(self.entries))
        object.__setattr__(self, "entries", entries)
        table = {}
        last = None  # sorted entries list each cell vector once
        for cells, pattern, color in entries:
            if len(cells) != self.d or len(pattern) != self.d:
                raise InvalidInputError("entry arity mismatch")
            if cells != last:
                if not all(1 <= c <= self.parts for c in cells):
                    raise InvalidInputError(
                        f"cells {cells} outside [1, {self.parts}]"
                    )
                allowed, last = _consistent_patterns(order_pattern(cells)), cells
            if pattern not in allowed:
                if not is_order_pattern(pattern):
                    raise InvalidInputError(
                        f"entry pattern {pattern} is not a dense-rank vector"
                    )
                raise InvalidInputError(
                    f"entry for inconsistent pair {cells}/{pattern}"
                )
            if not 1 <= color <= self.k:
                raise InvalidInputError(f"color {color} outside [1, {self.k}]")
            if (cells, pattern) in table:
                raise InvalidInputError(f"duplicate entry for {cells}/{pattern}")
            table[cells, pattern] = color
        # every entry is in range, consistent and unique, so counting the
        # pairs is enough for totality
        expected = _pair_count(self.parts, self.d)
        if len(table) != expected:
            raise InvalidInputError(
                f"table has {len(table)} entries, needs {expected} for totality"
            )
        object.__setattr__(self, "_table", table)

    @classmethod
    def from_table(
        cls, parts: int, d: int, k: int, table: Mapping[SpecKey, int]
    ) -> "HomogeneousSpec":
        return cls(
            parts=parts,
            d=d,
            k=k,
            entries=tuple((c, p, v) for (c, p), v in table.items()),
        )

    def color(self, cells: tuple[int, ...], pattern: tuple[int, ...]) -> int:
        try:
            return self._table[cells, pattern]
        except KeyError:
            raise InvalidInputError(
                f"spec has no entry for {cells}/{pattern} (corrupt or inconsistent lookup)"
            ) from None

    @property
    def table(self) -> Mapping[SpecKey, int]:
        return self._table

    @property
    def runs(self) -> tuple[int, ...]:
        """Last cell of every run, ascending: the coarsest partition of the
        cells into intervals such that the color depends only on the run
        vector and the order pattern.

        Cells ``c`` and ``c+1`` share a run iff moving every coordinate in
        cell ``c`` up to cell ``c+1`` never changes a color.  The move keeps
        the pattern consistent, and repeating it carries every cell vector
        of a run vector to the one with each coordinate in the last cell of
        its run.  Computed on first use and kept on the spec.
        """
        if self._runs is None:
            table = self._table
            cut = [False] * self.parts + [True]
            for (cells, pattern), color in table.items():
                for c in set(cells):
                    if cut[c]:
                        continue
                    moved = tuple(x + 1 if x == c else x for x in cells)
                    if table[moved, pattern] != color:
                        cut[c] = True
            runs = tuple(c for c in range(1, self.parts + 1) if cut[c])
            object.__setattr__(self, "_runs", runs)
        return self._runs


def check_homogeneous(model: DiscreteModel, parts: int) -> HomogeneousSpec:
    """Extract the spec of an l-part homogeneous model, or fail.

    The model side must be ``s*parts`` with block size ``s >= d``.  Raises
    :class:`NotHomogeneousError` carrying the first counterexample pair in
    row-major order when two tuples with equal cells and patterns disagree.
    """
    s, rem = divmod(model.m, parts)
    if rem != 0:
        raise InvalidInputError(f"side {model.m} not divisible by parts {parts}")
    if s < model.d:
        raise InvalidInputError(f"block size {s} smaller than arity {model.d}")
    first_seen: dict[SpecKey, tuple[tuple[int, ...], int]] = {}
    values = model.values
    pos = 0
    for idx in model.tuples():
        cells = tuple(-((-i) // s) for i in idx)
        key = (cells, order_pattern(idx))
        color = values[pos]
        pos += 1
        prior = first_seen.get(key)
        if prior is None:
            first_seen[key] = (idx, color)
        elif prior[1] != color:
            raise NotHomogeneousError(prior[0], idx)
    return HomogeneousSpec.from_table(
        parts, model.d, model.k, {key: c for key, (_, c) in first_seen.items()}
    )


def is_homogeneous(model: DiscreteModel, parts: int) -> bool:
    try:
        check_homogeneous(model, parts)
        return True
    except NotHomogeneousError:
        return False


def instantiate(spec: HomogeneousSpec, t: int) -> DiscreteModel:
    """The unique l-part homogeneous model over ``[t*l]^d`` compatible with
    ``spec`` (block size ``t >= d``)."""
    if t < spec.d:
        raise InvalidInputError(f"block size {t} smaller than arity {spec.d}")
    m = t * spec.parts

    def entry(idx):
        cells = tuple(-((-i) // t) for i in idx)
        return spec.color(cells, order_pattern(idx))

    return DiscreteModel.from_function(spec.d, spec.k, m, entry)


def compatible(r: DiscreteModel, s: DiscreteModel, parts: int) -> bool:
    """True iff two part-homogeneous models agree on every matching
    (cell vector, pattern) pair; equivalent to extracted-spec equality.

    Raises :class:`NotHomogeneousError` (with counterexample) if either
    input is not ``parts``-part homogeneous.
    """
    if r.d != s.d or r.k != s.k:
        raise InvalidInputError("dimension/color mismatch")
    return check_homogeneous(r, parts) == check_homogeneous(s, parts)


def flatten_order_dependency(spec: HomogeneousSpec) -> HomogeneousSpec:
    """Remove order dependence: on every cell vector, all patterns take the
    color of the pattern that ties all coordinates sharing a cell.

    That tie pattern is the dense rank of the cell vector itself, so cell
    vectors with all-distinct entries are unchanged.  The result is constant
    on every grid box, and the operation is idempotent.
    """
    table = {}
    for cells, pattern, _ in spec.entries:
        table[cells, pattern] = spec.color(cells, order_pattern(cells))
    return HomogeneousSpec.from_table(spec.parts, spec.d, spec.k, table)


def all_specs(parts: int, d: int, k: int) -> Iterator[HomogeneousSpec]:
    """Enumerate every l-part homogeneous spec for the given parameters.

    There are finitely many: ``k`` to the power of the number of consistent
    (cell, pattern) pairs.  Intended for desk-scale parameters only.
    """
    pairs = list(consistent_pairs(parts, d))
    for colors in itertools.product(range(1, k + 1), repeat=len(pairs)):
        yield HomogeneousSpec.from_table(
            parts, d, k, dict(zip(pairs, colors))
        )
