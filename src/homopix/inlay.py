"""Inlays: sub-models picked block by block from a function or model.

An inlay selects ``s`` increasing positions inside each of the ``l`` blocks
(indices of a discrete model, or points of a block interval of the unit
segment) and restricts the source to the selected grid.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import InvalidInputError, SearchBudgetError
from .functions import PiecewiseFunction, _step, evaluate
from .homogeneity import HomogeneousSpec
from .models import (
    DiscreteModel,
    _dense_entries,
    all_order_patterns,
    order_pattern,
)
from .sampling import DYADIC_BITS, _sorted_words, substream

_BOUNDARY_REDRAWS = 1000


@dataclass(frozen=True)
class InlaySelection:
    """Per-block strictly increasing positions, all blocks the same length.

    Entries are integers in ``[t]`` for discrete sources or rationals in a
    block's sampling window for continuous ones.
    """

    blocks: tuple[tuple, ...]

    def __post_init__(self):
        if not self.blocks:
            raise InvalidInputError("empty selection")
        sizes = {len(b) for b in self.blocks}
        if len(sizes) != 1 or 0 in sizes:
            raise InvalidInputError("blocks must share one positive length")
        for block in self.blocks:
            if any(a >= b for a, b in zip(block, block[1:])):
                raise InvalidInputError(f"block {block} not strictly increasing")

    @property
    def parts(self) -> int:
        return len(self.blocks)

    @property
    def size(self) -> int:
        return len(self.blocks[0])


@dataclass(frozen=True)
class Box:
    """Per-block sampling windows ``(lower_a, upper_a]`` within ``(0, 1]``."""

    lower: tuple[Fraction, ...]
    upper: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.lower) != len(self.upper):
            raise InvalidInputError("lower/upper length mismatch")
        for lo, hi in zip(self.lower, self.upper):
            if not (0 <= lo < hi <= 1):
                raise InvalidInputError(f"invalid window ({lo}, {hi}]")

    @classmethod
    def full(cls, parts: int) -> "Box":
        return cls(lower=(Fraction(0),) * parts, upper=(Fraction(1),) * parts)


@dataclass(frozen=True, init=False, eq=False, repr=False)
class InlaySample:
    """A sampled continuous inlay of ``source`` plus its extracted spec when
    homogeneous.

    The sampler keeps its coordinates as integer numerators over one common
    denominator (:func:`sample_random_inlay`); ``selection``, their
    per-block rationals, is built from them on first read and then kept,
    which made ``jobs_per_s`` about 4% higher on ``grid-batch`` and
    ``empirical-threshold`` than building it per sample.  ``model``, the
    dense ``[size*parts]^d`` inlay, is evaluated entry by entry on first
    read and then kept: the spec never needs it.  Equality and hash compare
    ``selection``, ``spec`` and ``source``.
    """

    spec: HomogeneousSpec | None
    source: PiecewiseFunction

    def __init__(self, selection, spec, source, _draw=None):
        # _draw, the sampler's (parts, numerators, denominator), stands in
        # for a selection of None until it is read
        self.__dict__.update(
            spec=spec, source=source, _selection=selection, _draw=_draw, _model=None
        )

    @property
    def selection(self) -> InlaySelection:
        if self._selection is None:
            # block a's point x maps to (a + x)/parts = N/D
            parts, numerators, D = self._draw
            size = len(numerators) // parts
            blocks = tuple(
                tuple(
                    Fraction(parts * N - a * D, D)
                    for N in numerators[a * size : (a + 1) * size]
                )
                for a in range(parts)
            )
            object.__setattr__(self, "_selection", InlaySelection(blocks=blocks))
        return self._selection

    @property
    def homogeneous(self) -> bool:
        return self.spec is not None

    @property
    def model(self) -> DiscreteModel:
        if self._model is None:
            f = self.source
            coords = _coordinates(self.selection.blocks)

            def entry(idx):
                return evaluate(f, tuple(coords[i - 1] for i in idx))

            model = DiscreteModel.from_function(f.d, f.k, len(coords), entry)
            object.__setattr__(self, "_model", model)
        return self._model

    def _key(self):
        return self.selection, self.spec, self.source

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"InlaySample(selection={self.selection!r}, spec={self.spec!r})"


def extract_inlay(model: DiscreteModel, selection: InlaySelection) -> DiscreteModel:
    """Restrict a model over ``[t*l]^d`` to the selected per-block indices,
    yielding a model over ``[s*l]^d``."""
    parts = selection.parts
    size = selection.size
    t, rem = divmod(model.m, parts)
    if rem != 0:
        raise InvalidInputError(f"side {model.m} not divisible by {parts} blocks")
    for block in selection.blocks:
        if any(not (isinstance(h, int) and 1 <= h <= t) for h in block):
            raise InvalidInputError(f"selection {block} outside [1, {t}]")

    def entry(idx):
        source = []
        for i in idx:
            block = -((-i) // size)
            offset = i - (block - 1) * size
            source.append((block - 1) * t + selection.blocks[block - 1][offset - 1])
        return model.get(tuple(source))

    return DiscreteModel.from_function(model.d, model.k, size * parts, entry)


def find_homogeneous_inlay(
    model: DiscreteModel, parts: int, size: int
) -> tuple[InlaySelection, DiscreteModel] | None:
    """Exhaustive backtracking over per-block selections for an inlay that is
    ``parts``-part homogeneous; lexicographically first result or None.

    Prunes after each completed block by checking consistency of all entries
    whose coordinates lie in the blocks chosen so far.
    """
    if size < model.d:
        raise InvalidInputError(f"size {size} smaller than arity {model.d}")
    t, rem = divmod(model.m, parts)
    if rem != 0:
        raise InvalidInputError(f"side {model.m} not divisible by {parts} blocks")
    if t < size:
        return None

    def consistent(blocks: list[tuple[int, ...]]) -> bool:
        # Partial homogeneity over the currently selected blocks: entries
        # sharing (cells, pattern) must agree.
        level = len(blocks)
        positions = [
            (a - 1) * t + h for a in range(1, level + 1) for h in blocks[a - 1]
        ]
        table: dict = {}
        for sub in itertools.product(range(len(positions)), repeat=model.d):
            cells = tuple(p // size + 1 for p in sub)
            pattern = order_pattern(sub)
            color = model.get(tuple(positions[p] for p in sub))
            if table.setdefault((cells, pattern), color) != color:
                return False
        return True

    chosen: list[tuple[int, ...]] = []

    def extend():
        if len(chosen) == parts:
            sel = InlaySelection(blocks=tuple(chosen))
            return sel, extract_inlay(model, sel)
        for combo in itertools.combinations(range(1, t + 1), size):
            chosen.append(combo)
            if consistent(chosen):
                found = extend()
                if found is not None:
                    return found
            chosen.pop()
        return None

    return extend()


def _coordinates(blocks: tuple[tuple[Fraction, ...], ...]) -> list[Fraction]:
    # block a's window maps into the a-th grid cell, so the flattened
    # coordinate list is globally increasing
    parts = len(blocks)
    return [(a + x) / parts for a, block in enumerate(blocks) for x in block]


def _run_tuples(block: tuple[int, ...], q: int) -> list[tuple[int, ...]]:
    """The distinct run tuples that ``q`` increasing points of one block can
    take: the ``q``-element sub-multisets of its nondecreasing ``block``."""
    counts = Counter(block)
    return [
        t
        for t in itertools.combinations_with_replacement(sorted(counts), q)
        if all(t.count(v) <= counts[v] for v in t)
    ]


def _inlay_spec(
    f: PiecewiseFunction, parts: int, size: int, numerators: list[int], D: int
) -> HomogeneousSpec | None:
    """The spec of the dense inlay of ``f`` at the globally increasing
    coordinates ``N/D`` for ``N`` in ``numerators`` (``size`` per block), or
    None when that inlay is not ``parts``-part homogeneous; decided without
    the dense model.

    A pair (cells, pattern) gives each block ``a`` in ``cells`` the ``q``
    ranks of the pattern that fall in it, and an entry of the pair takes ``q``
    increasing points of block ``a`` for them.  On a step form the color
    reads a point only through the last cell of its run, so each block
    supplies the distinct run tuples of :func:`_run_tuples` (exactly one
    when all its points share a run) and every product of those is colored
    once.  ``threshold``'s test ``x1 + x2 <= c`` is monotone in each
    coordinate, so each block supplies only its ``q`` smallest and ``q``
    largest points: the extreme sums of the pair decide it, as integers.
    The pair is homogeneous iff all its colors agree.
    """
    d = f.d
    step = _step(f)
    if step is None:  # threshold, the one input without a step form
        c = f.param("c")
        # x_i + x_j <= p/q iff (N_i + N_j) * q <= p * D
        values = numerators
        q, top = c.denominator, c.numerator * D

        def color(point, pattern):
            return 1 if (point[0] + point[1]) * q <= top else 2

        def supply(block, q):
            return {block[:q], block[-q:]}

    else:
        res, runs, color, _ = step
        # the cell of N/D is ceil(res * N / D)
        values = [runs[bisect_left(runs, -((-res * N) // D))] for N in numerators]
        supply = _run_tuples
    blocks = [tuple(values[a * size : (a + 1) * size]) for a in range(parts)]
    supplied: dict[tuple[int, int], tuple] = {}
    table = {}
    # a consistent pair is a pattern with r ranks and a nondecreasing choice
    # of cells for its ranks
    for r in range(1, d + 1):
        patterns = [p for p in all_order_patterns(d) if max(p) == r]
        for rank_cells in itertools.combinations_with_replacement(
            range(1, parts + 1), r
        ):
            choices = []
            for cell, group in itertools.groupby(rank_cells):
                key = (cell, len(tuple(group)))
                if key not in supplied:
                    supplied[key] = tuple(supply(blocks[cell - 1], key[1]))
                choices.append(supplied[key])
            by_rank = [sum(pick, ()) for pick in itertools.product(*choices)]
            for pattern in patterns:
                seen = {
                    color(tuple([ranked[p - 1] for p in pattern]), pattern)
                    for ranked in by_rank
                }
                if len(seen) > 1:
                    return None
                cells = tuple([rank_cells[p - 1] for p in pattern])
                table[cells, pattern] = seen.pop()
    return HomogeneousSpec.from_table(parts, d, f.k, table)


def sample_random_inlay(
    f: PiecewiseFunction,
    parts: int,
    size: int,
    box: Box,
    seed: int,
    index: int = 0,
    avoid_resolution: int | None = None,
) -> InlaySample:
    """Draw ``size`` sorted uniforms per block window and extract the spec of
    the induced model over ``[size*parts]^d`` when it is homogeneous.

    Block ``a``'s window ``(lo, hi]`` maps the sorted distinct words ``u``
    of :func:`sampling._sorted_words` to ``lo + (hi - lo) * u/2^64``, the
    coordinate ``(a + x)/parts`` of the inlay.  Every coordinate is kept as
    an integer numerator ``N`` over one denominator per call,
    ``D = parts * L * 2^64`` for ``L`` the lcm of the window denominators,
    so the sampler builds no ``Fraction``: a cell at resolution ``res`` is
    ``ceil(res*N/D)``, a cell end is ``res*N % D == 0``, and threshold's
    ``x_i + x_j <= p/q`` is ``(N_i + N_j)*q <= p*D``.  The spec is decided
    at run level (:func:`_inlay_spec`): every coordinate is mapped to the
    last cell of its run of ``f``, each block supplies only its distinct
    run tuples (threshold: its extreme points), and the first disagreement
    stops the check, so no entry of the dense model is evaluated;
    ``InlaySample.selection`` and ``InlaySample.model`` are built from the
    numerators on demand.
    Deterministic per ``(seed, index)``; batches pass consecutive indices so
    samples are independent of evaluation order.  With ``avoid_resolution``
    set, selections whose mapped coordinates land exactly on that grid's
    cell boundaries (a measure-zero event) are redrawn, so the sample always
    witnesses a positive-measure configuration of a step function at that
    resolution.
    """
    if size < f.d:
        raise InvalidInputError(f"size {size} smaller than arity {f.d}")
    if len(box.lower) != parts:
        raise InvalidInputError(f"box has {len(box.lower)} windows, expected {parts}")
    _dense_entries(f.d, f.k, size * parts)  # the dense inlay's caps
    L = lcm(*(x.denominator for x in box.lower + box.upper))
    D = parts * L << DYADIC_BITS
    lows, highs = (
        [x.numerator * (L // x.denominator) for x in ends]
        for ends in (box.lower, box.upper)
    )
    # with its ends scaled by L, block a maps word u to the numerator
    # ((a*L + lo) << 64) + (hi - lo)*u
    windows = [
        ((a * L + lo) << DYADIC_BITS, hi - lo)
        for a, (lo, hi) in enumerate(zip(lows, highs))
    ]
    rng = substream(seed, index)
    for _ in range(_BOUNDARY_REDRAWS):
        numerators = [
            base + span * u
            for base, span in windows
            for u in _sorted_words(rng, size)
        ]
        if avoid_resolution is not None and any(
            avoid_resolution * N % D == 0 for N in numerators
        ):
            continue
        break
    else:
        raise SearchBudgetError("exceeded redraw budget for boundary avoidance")
    spec = _inlay_spec(f, parts, size, numerators, D)
    return InlaySample(None, spec, f, _draw=(parts, numerators, D))
