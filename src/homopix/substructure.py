"""Appearance search and substructure enumeration.

A model ``R`` over ``[n]^d`` appears in ``S`` over ``[m]^d`` when a strictly
increasing index sequence ``j_1 < ... < j_n`` substitutes into ``S`` to
reproduce ``R`` entry by entry.  The weak variant allows repeats
(``j_1 <= ... <= j_n``), which is how "substructures with equalities" are
probed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

from .errors import CapExceededError, InvalidInputError
from .homogeneity import HomogeneousSpec
from .models import DiscreteModel, index_tuples, order_pattern

ENUM_CAP = 1_000_000


def _search(r: DiscreteModel, s: DiscreteModel, weak: bool) -> tuple[int, ...] | None:
    if r.d != s.d or r.k != s.k:
        raise InvalidInputError("dimension/color mismatch")
    n, m = r.m, s.m
    if not weak and n > m:
        return None
    # Entries become checkable once every coordinate is chosen; group them by
    # the largest coordinate so each new choice validates only its new ones.
    by_max: list[list[tuple[tuple[int, ...], int]]] = [[] for _ in range(n + 1)]
    for idx in r.tuples():
        by_max[max(idx)].append((idx, r.get(idx)))
    # Depth-first in lexicographic order with an explicit stack: ``chosen``
    # is the current prefix and ``j`` the next candidate for its next slot.
    chosen: list[int] = []
    j = 1
    while True:
        pos = len(chosen)
        if pos == n:
            return tuple(chosen)
        hi = m if weak else m - (n - pos - 1)
        if j > hi:
            if not chosen:
                return None
            j = chosen.pop() + 1
            continue
        chosen.append(j)
        if not all(
            s.get(tuple(chosen[i - 1] for i in idx)) == color
            for idx, color in by_max[pos + 1]
        ):
            chosen.pop()
            j += 1
        elif not weak:
            j += 1


def appears_in_discrete(r: DiscreteModel, s: DiscreteModel) -> tuple[int, ...] | None:
    """Lexicographically first strictly increasing witness, or None.

    The backtracking prunes on fully determined entries only, and is
    exhaustive: a None answer means no witness exists.
    """
    return _search(r, s, weak=False)


def appears_weak(r: DiscreteModel, s: DiscreteModel) -> tuple[int, ...] | None:
    """Like :func:`appears_in_discrete` but with nondecreasing witnesses."""
    return _search(r, s, weak=True)


def _induced_models(
    runs: tuple[int, ...], color, d: int, n: int, cap: int
) -> dict[tuple[int, ...], int]:
    """Every ``[n]^d`` model induced by ``n`` sorted points of a step form,
    with its integer weight over the common denominator ``L^n``.

    ``runs`` holds the last cell of every run of the step form (the last is
    ``L``) and ``color(cells, pattern)`` gives its colors.  The walk visits
    the nondecreasing run assignments prefix by prefix; an assignment with
    ``cnt_i`` points in run ``i`` of ``len_i`` cells has probability
    ``n!/prod(cnt_i!) * prod(len_i^cnt_i) / L^n``.  Each point is placed at
    the first cell of its run, and entries are grouped by their largest
    index, so each new position colors only its new entries.  Returns
    row-major value tables mapped to summed weights.
    """
    if n < 1:
        raise InvalidInputError("n must be >= 1")
    r = len(runs)
    if comb(r + n - 1, n) > cap:
        raise CapExceededError(
            f"C({r + n - 1},{n}) run assignments exceed cap {cap}"
        )
    starts = (1,) + tuple(end + 1 for end in runs[:-1])
    lengths = tuple(end - start + 1 for start, end in zip(starts, runs))
    groups: list[list[tuple[tuple[int, ...], tuple[int, ...]]]] = [
        [] for _ in range(n)
    ]
    for idx in index_tuples(n, d):
        groups[max(idx) - 1].append((tuple(i - 1 for i in idx), order_pattern(idx)))
    grouped = [idx for group in groups for idx, _ in group]
    row_major = sorted(range(len(grouped)), key=grouped.__getitem__)

    weights: dict[tuple[int, ...], int] = {}
    cells = [0] * n  # first cell of the run chosen at each position
    run_of = [0] * n
    mult = [0] * n  # points in run_of[pos] among positions 0..pos
    weight = [1] * (n + 1)  # weight[pos]: weight of the prefix 0..pos-1
    mark = [0] * n  # len(colors) before position pos was colored
    colors: list[int] = []
    pos, j = 0, 0
    while True:
        run_of[pos] = j
        cells[pos] = starts[j]
        cnt = mult[pos - 1] + 1 if pos and run_of[pos - 1] == j else 1
        mult[pos] = cnt
        weight[pos + 1] = weight[pos] * (pos + 1) * lengths[j] // cnt
        del colors[mark[pos]:]
        for positions, pattern in groups[pos]:
            colors.append(color(tuple(cells[i] for i in positions), pattern))
        if pos + 1 < n:
            pos += 1
            mark[pos] = len(colors)
            continue
        key = tuple(colors)
        weights[key] = weights.get(key, 0) + weight[n]
        while run_of[pos] + 1 == r:
            pos -= 1
            if pos < 0:
                return {
                    tuple(values[i] for i in row_major): w
                    for values, w in weights.items()
                }
        j = run_of[pos] + 1


def enumerate_substructures(
    spec: HomogeneousSpec, n: int, cap: int = ENUM_CAP
) -> list[DiscreteModel]:
    """All ``[n]^d`` models induced by sorted points in a part-homogeneous
    function, i.e. exactly the support of its statistic distribution.

    Walks the nondecreasing assignments of the points to the spec's runs
    (see :attr:`HomogeneousSpec.runs`); every such assignment has positive
    weight ``n!/prod(cnt_i!) * prod(len_i^cnt_i)``, which is ignored here.
    ``cap`` bounds the ``C(r+n-1, n)`` run assignments walked for ``r``
    runs.  Returned sorted by value table for determinism.
    """
    models = _induced_models(spec.runs, spec.color, spec.d, n, cap)
    return [
        DiscreteModel(d=spec.d, k=spec.k, m=n, values=v) for v in sorted(models)
    ]


def color_bit(color: int, bit: int) -> int:
    """Membership bit of relation ``bit`` encoded in a color (1-based)."""
    return ((color - 1) >> (bit - 1)) & 1


@dataclass(frozen=True)
class InvarianceReport:
    """Outcome of a lower-arity invariance check."""

    ok: bool
    bit: int
    effective_arity: int
    witnesses: tuple[DiscreteModel, ...]  # violating size-2 forbidden structures


def check_arity_invariance(
    spec: HomogeneousSpec, bit: int, effective_arity: int
) -> InvarianceReport:
    """Verify the designated relation bit ignores the last ``d - d'``
    coordinates.

    ``k`` must be a power of two (each color encodes one membership bit per
    relation).  Two table entries that agree on the first ``d'`` cells and on
    the relative order of the first ``d'`` coordinates must agree on the bit.
    On failure the returned report carries the violating size-2 forbidden
    structures: models ``S`` over ``[2]^d`` whose bit at ``(1,...,1)``
    differs from the bit at ``(1,...,1,tail)`` for some tail over ``{1,2}``.
    """
    if spec.k & (spec.k - 1):
        raise InvalidInputError(f"k={spec.k} is not a power of two")
    relations = spec.k.bit_length() - 1
    if not 1 <= bit <= max(relations, 1):
        raise InvalidInputError(f"relation index {bit} outside [1, {relations}]")
    if not 1 <= effective_arity <= spec.d:
        raise InvalidInputError("effective arity must be in [1, d]")
    if effective_arity == spec.d:
        return InvarianceReport(True, bit, effective_arity, ())

    prefix: dict[tuple, int] = {}
    ok = True
    for cells, pattern, color in spec.entries:
        key = (cells[:effective_arity], order_pattern(pattern[:effective_arity]))
        b = color_bit(color, bit)
        if prefix.setdefault(key, b) != b:
            ok = False
            break
    if ok:
        return InvarianceReport(True, bit, effective_arity, ())

    witnesses = []
    tail_len = spec.d - effective_arity
    head = (1,) * effective_arity
    for model in enumerate_substructures(spec, 2):
        base = color_bit(model.get(head + (1,) * tail_len), bit)
        for tail in itertools.product((1, 2), repeat=tail_len):
            if color_bit(model.get(head + tail), bit) != base:
                witnesses.append(model)
                break
    return InvarianceReport(False, bit, effective_arity, tuple(witnesses))
