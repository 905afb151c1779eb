"""Ramsey-type finders and arbitrary-precision bound recursions.

The finders are exhaustive backtracking searches returning the
lexicographically first witness, suitable for desk-scale instances.  The
bound functions evaluate conservative upper-bound recursions exactly with
big integers; at the returned sizes the corresponding finder is guaranteed
to succeed, but the values grow so fast that only small parameter points
are feasible to validate by search.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable, Hashable, Mapping, Sequence

from .errors import InvalidInputError, PartialColoringError

Color = Hashable
SetColoring = Callable[[frozenset], Color]


def _as_callable(colors) -> SetColoring:
    if callable(colors):
        return colors

    def lookup(subset: frozenset):
        try:
            return colors[subset]
        except KeyError:
            raise PartialColoringError(
                f"coloring undefined for {sorted(subset)}"
            ) from None

    return lookup


@dataclass(frozen=True)
class SortedColoring:
    """A coloring of all nonempty subsets of size <= d of a multi-sort
    vertex set."""

    sorts: tuple[tuple[int, ...], ...]
    d: int
    colors: Mapping[frozenset, Color]

    def __post_init__(self):
        seen: set[int] = set()
        for part in self.sorts:
            overlap = seen.intersection(part)
            if overlap:
                raise InvalidInputError(f"sorts overlap on {sorted(overlap)}")
            seen.update(part)

    def color(self, subset: frozenset) -> Color:
        return _as_callable(self.colors)(subset)


def find_monochromatic(
    vertices: Sequence[int], colors, d: int, size: int
) -> tuple[int, ...] | None:
    """First subset of ``size`` vertices whose size-``d`` subsets all share
    one color, or None after exhausting the search."""
    if size < d:
        raise InvalidInputError("size must be >= d")
    f = _as_callable(colors)
    verts = list(vertices)
    chosen: list[int] = []
    state: list[Color] = []  # the established color, once one d-set is complete

    def extend(start: int) -> tuple[int, ...] | None:
        if len(chosen) == size:
            return tuple(chosen)
        for i in range(start, len(verts) - (size - len(chosen)) + 1):
            v = verts[i]
            new = [
                frozenset(rest + (v,))
                for rest in itertools.combinations(chosen, d - 1)
            ]
            shades = {f(c) for c in new}
            established = state[-1] if state else None
            if len(shades) > 1 or (
                established is not None and shades and shades != {established}
            ):
                continue
            chosen.append(v)
            state.append(established if established is not None else
                         (next(iter(shades)) if shades else None))
            found = extend(i + 1)
            if found is not None:
                return found
            chosen.pop()
            state.pop()
        return None

    return extend(0)


def find_size_uniform(
    vertices: Sequence[int], colors, d: int, size: int
) -> tuple[tuple[int, ...], dict[int, Color]] | None:
    """First subset on which subsets of size <= d are colored by size alone;
    returns the subset and the size->color witness."""
    if size < 1:
        raise InvalidInputError("size must be >= 1")
    f = _as_callable(colors)
    verts = list(vertices)
    chosen: list[int] = []

    def consistent() -> dict[int, Color] | None:
        witness: dict[int, Color] = {}
        for c in range(1, min(d, len(chosen)) + 1):
            for sub in itertools.combinations(chosen, c):
                shade = f(frozenset(sub))
                if witness.setdefault(c, shade) != shade:
                    return None
        return witness

    def extend(start: int):
        if len(chosen) == size:
            return tuple(chosen), consistent()
        for i in range(start, len(verts) - (size - len(chosen)) + 1):
            chosen.append(verts[i])
            if consistent() is not None:
                found = extend(i + 1)
                if found is not None:
                    return found
            chosen.pop()
        return None

    return extend(0)


def find_multisort(
    coloring: SortedColoring, size: int
) -> tuple[tuple[tuple[int, ...], ...], dict[tuple[int, ...], Color]] | None:
    """Per-sort subsets of the given size on which the coloring depends only
    on the intersection-size profile; returns them with the profile witness.

    Exhaustive over per-sort combinations in lexicographic order, pruning
    after each completed sort.
    """
    parts = len(coloring.sorts)
    d = coloring.d
    f = _as_callable(coloring.colors)
    for part in coloring.sorts:
        if len(part) < size:
            raise InvalidInputError("every sort needs at least `size` vertices")

    def profile(subset: Sequence[int], picked: list[tuple[int, ...]]) -> tuple[int, ...]:
        return tuple(
            sum(1 for v in subset if v in set(u)) for u in picked
        ) + (0,) * (parts - len(picked))

    def check(picked: list[tuple[int, ...]]) -> dict[tuple[int, ...], Color] | None:
        pool = [v for u in picked for v in u]
        witness: dict[tuple[int, ...], Color] = {}
        for c in range(1, d + 1):
            for sub in itertools.combinations(pool, c):
                key = profile(sub, picked)
                shade = f(frozenset(sub))
                if witness.setdefault(key, shade) != shade:
                    return None
        return witness

    def extend(level: int, picked: list[tuple[int, ...]]):
        if level == parts:
            return tuple(picked), check(picked)
        for combo in itertools.combinations(coloring.sorts[level], size):
            picked.append(combo)
            if check(picked) is not None:
                found = extend(level + 1, picked)
                if found is not None:
                    return found
            picked.pop()
        return None

    return extend(0, [])


# ---------------------------------------------------------------------------
# bound recursions (exact big integers)

def bound_monochromatic(d: int, alphabet: int, size: int) -> int:
    """Vertices guaranteeing a monochromatic subset of ``size`` under any
    ``alphabet``-coloring of size-``d`` subsets.

    Base case d=1 is the exact pigeonhole value ``alphabet*(size-1)+1``.
    For d >= 2 we evaluate a conservative candidate-shrinking recursion:
    build a sequence of t = bound(d-1, a, size)+1 picks, refining the
    candidate pool at step i into at most ``a^C(i-1, d-2)`` signature
    classes; ``req(i-1) = a^C(i-1,d-2) * req(i) + 1`` vertices suffice, and
    the resulting end-homogeneous sequence reduces to the d-1 case.
    """
    if d < 1 or alphabet < 1:
        raise InvalidInputError("d and alphabet must be >= 1")
    if size < d:
        raise InvalidInputError("size must be >= d")
    if d == 1:
        return alphabet * (size - 1) + 1
    t = bound_monochromatic(d - 1, alphabet, size) + 1
    req = 1
    for i in range(t, 0, -1):
        req = alphabet ** comb(i - 1, d - 2) * req + 1
    return req


def bound_size_uniform(d: int, alphabet: int, size: int) -> int:
    """Vertices guaranteeing a subset on which subsets of size <= d are
    colored by size alone: the d-fold composition of the monochromatic
    bound, innermost arity first."""
    if d < 1:
        raise InvalidInputError("d must be >= 1")
    if size < d:
        raise InvalidInputError("size must be >= d")
    value = size
    for arity in range(d, 0, -1):
        value = bound_monochromatic(arity, alphabet, value)
    return value


def bound_multisort(parts: int, d: int, alphabet: int, size: int) -> int:
    """Per-sort vertex count guaranteeing the multi-sort uniform subsets.

    Induction on the number of sorts: one sort is the size-uniform bound;
    each further sort folds the coloring over a window of
    ``w = bound_size_uniform(d, alphabet^(d+1)^parts, size)`` vertices into
    an enlarged alphabet of ``alphabet^(w^d)`` for the remaining sorts.
    """
    if parts < 1:
        raise InvalidInputError("parts must be >= 1")
    if parts == 1:
        return bound_size_uniform(d, alphabet, size)
    window = bound_size_uniform(d, alphabet ** ((d + 1) ** parts), size)
    return bound_multisort(parts - 1, d, alphabet ** (window**d), size)


def _surjections(d: int, c: int) -> int:
    return sum((-1) ** i * comb(c, i) * (c - i) ** d for i in range(c + 1))


def inlay_alphabet_size(d: int, k: int) -> int:
    """Colors needed to record, per vertex subset, every way of spreading d
    coordinates onto it: one k-ary value per surjection of [d] onto [c] for
    each subset size c."""
    return sum(k ** _surjections(d, c) for c in range(1, d + 1))


def bound_homogeneous_inlay(parts: int, size: int, d: int, k: int) -> tuple[int, int]:
    """Block size guaranteeing every k-colored model over ``[t*parts]^d``
    contains a part-homogeneous inlay of the given size; returns the bound
    together with the derived alphabet size."""
    if size < d:
        raise InvalidInputError("size must be >= d")
    alphabet = inlay_alphabet_size(d, k)
    return bound_multisort(parts, d, alphabet, size), alphabet


def inlay_probability_floor(parts: int, size: int, d: int, k: int) -> Fraction:
    """Lower bound on the probability that a random box-constrained inlay is
    part-homogeneous: ``1 / C(t, size)^parts`` with ``t`` the inlay bound."""
    t, _ = bound_homogeneous_inlay(parts, size, d, k)
    return Fraction(1, comb(t, size) ** parts)
