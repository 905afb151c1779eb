import itertools
import random

import pytest

from homopix import (
    DiscreteModel,
    HomogeneousSpec,
    InvalidInputError,
    NotHomogeneousError,
    all_specs,
    check_homogeneous,
    compatible,
    comparison_spec,
    consistent_pairs,
    flatten_order_dependency,
    instantiate,
)
from homopix.homogeneity import _pair_count
from homopix.models import all_order_patterns, index_tuples, pattern_consistent
from conftest import naive_compatible, rand_spec

ORDER_SPEC = comparison_spec(1)


def order_model(m):
    def entry(idx):
        i, j = idx
        return 1 if i < j else (2 if i == j else 3)

    return DiscreteModel.from_function(2, 3, m, entry)


def test_check_homogeneous_order_model():
    spec = check_homogeneous(order_model(2), 1)
    assert spec.table == {
        ((1, 1), (1, 2)): 1,
        ((1, 1), (1, 1)): 2,
        ((1, 1), (2, 1)): 3,
    }
    assert spec == ORDER_SPEC


def test_check_homogeneous_constant():
    model = DiscreteModel(d=2, k=2, m=4, values=(1,) * 16)
    spec = check_homogeneous(model, 2)
    assert all(color == 1 for _, _, color in spec.entries)


def test_check_homogeneous_counterexample():
    with pytest.raises(NotHomogeneousError) as info:
        check_homogeneous(DiscreteModel(d=1, k=2, m=4, values=(1, 2, 1, 2)), 2)
    assert info.value.first == (1,)
    assert info.value.second == (2,)


def test_check_homogeneous_preconditions():
    model = DiscreteModel(d=2, k=2, m=3, values=(1,) * 9)
    with pytest.raises(InvalidInputError, match="not divisible"):
        check_homogeneous(model, 2)
    with pytest.raises(InvalidInputError, match="block size"):
        check_homogeneous(model, 3)  # blocks of 1 < d


def test_instantiate_order_spec():
    inst = instantiate(ORDER_SPEC, 3)
    for i, j in itertools.product(range(1, 4), repeat=2):
        assert inst.get((i, j)) == (1 if i < j else 2 if i == j else 3)
    # brute-force definitional compatibility against the t=2 instantiation
    assert naive_compatible(instantiate(ORDER_SPEC, 2), inst, 1)


def test_instantiate_block_expansion():
    spec = HomogeneousSpec.from_table(
        2, 1, 2, {((1,), (1,)): 1, ((2,), (1,)): 2}
    )
    assert instantiate(spec, 2).values == (1, 1, 2, 2)


def test_instantiate_constant():
    spec = HomogeneousSpec.from_table(1, 1, 2, {((1,), (1,)): 2})
    assert instantiate(spec, 3).values == (2, 2, 2)
    with pytest.raises(InvalidInputError):
        instantiate(ORDER_SPEC, 1)  # t < d


def test_compatible_instantiations():
    r = instantiate(ORDER_SPEC, 2)
    s = instantiate(ORDER_SPEC, 3)
    assert compatible(r, s, 1)
    assert naive_compatible(r, s, 1)


def test_compatible_perturbed():
    base = instantiate(ORDER_SPEC, 3)
    values = list(base.values)
    values[base.flat_index((1, 3))] = 2  # flip one off-diagonal entry
    bad = DiscreteModel(d=2, k=3, m=3, values=tuple(values))
    with pytest.raises(NotHomogeneousError):
        compatible(instantiate(ORDER_SPEC, 2), bad, 1)


def test_flatten_order_spec_is_constant_tie_color():
    flat = flatten_order_dependency(ORDER_SPEC)
    assert all(color == 2 for _, _, color in flat.entries)


def test_flatten_fixed_point_and_arity_one():
    spec = HomogeneousSpec.from_table(
        2, 1, 2, {((1,), (1,)): 1, ((2,), (1,)): 2}
    )
    assert flatten_order_dependency(spec) == spec
    rng = random.Random(5)
    for _ in range(20):
        s = rand_spec(rng, rng.randrange(1, 3), rng.randrange(1, 3), 2)
        flat = flatten_order_dependency(s)
        assert flatten_order_dependency(flat) == flat


def test_spec_totality_enforced():
    with pytest.raises(InvalidInputError, match="totality"):
        HomogeneousSpec.from_table(1, 2, 3, {((1, 1), (1, 2)): 1})
    with pytest.raises(InvalidInputError, match="dense-rank"):
        HomogeneousSpec.from_table(
            1,
            2,
            2,
            {
                ((1, 1), (1, 2)): 1,
                ((1, 1), (2, 1)): 1,
                ((1, 1), (1, 1)): 1,
                ((1, 1), (2, 2)): 1,
            },
        )
    table = {pair: 1 for pair in consistent_pairs(2, 2)}
    table[((1, 2), (2, 1))] = 1  # pattern contradicts the cell order
    with pytest.raises(InvalidInputError, match="inconsistent"):
        HomogeneousSpec.from_table(2, 2, 2, table)


@pytest.mark.parametrize(
    "extra, message",
    [
        (((1, 2), (2, 1), 1), "entry for inconsistent pair (1, 2)/(2, 1)"),
        (((2, 1), (1, 2), 1), "entry for inconsistent pair (2, 1)/(1, 2)"),
        (((1, 2), (1, 1), 1), "entry for inconsistent pair (1, 2)/(1, 1)"),
        (((1, 1), (1, 3), 1), "entry pattern (1, 3) is not a dense-rank vector"),
        (((2, 2), (2, 2), 1), "entry pattern (2, 2) is not a dense-rank vector"),
        (((1, 2), (0, 1), 1), "entry pattern (0, 1) is not a dense-rank vector"),
        (((1, 1), (1, 2), 2), "duplicate entry for (1, 1)/(1, 2)"),
        (((2, 1), (2, 1), 1), "duplicate entry for (2, 1)/(2, 1)"),
        (((1, 3), (1, 2), 1), "cells (1, 3) outside [1, 2]"),
        (((1, 1), (1, 2, 3), 1), "entry arity mismatch"),
        (((1, 2), (1, 2), 3), "color 3 outside [1, 2]"),
    ],
)
def test_spec_entry_errors_keep_their_text(extra, message):
    # one bad entry among the consistent pairs of parts 2, d 2; it sorts
    # before or after the accepted entries of its cell vector
    entries = tuple((cells, p, 1) for cells, p in consistent_pairs(2, 2))
    with pytest.raises(InvalidInputError) as err:
        HomogeneousSpec(parts=2, d=2, k=2, entries=entries + (extra,))
    assert str(err.value) == message


def test_pair_count_closed_form_matches_enumeration():
    for parts in range(1, 7):
        for d in range(1, 5):
            assert _pair_count(parts, d) == sum(1 for _ in consistent_pairs(parts, d))
    with pytest.raises(InvalidInputError, match="spec cap"):
        _pair_count(1001, 2)


def test_consistent_pairs_match_the_pattern_filter():
    # listed once per shape of the cell vector, in the order of a plain filter
    for parts in range(1, 7):
        for d in range(1, 5):
            patterns = all_order_patterns(d)
            expected = [
                (cells, p)
                for cells in index_tuples(parts, d)
                for p in patterns
                if pattern_consistent(cells, p)
            ]
            assert list(consistent_pairs(parts, d)) == expected


def test_enumerate_specs_count():
    assert sum(1 for _ in all_specs(1, 2, 2)) == 8


@pytest.mark.parametrize("parts,d", [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_round_trip_all_specs(parts, d):
    for spec in all_specs(parts, d, 2):
        for t in range(d, 4):
            assert check_homogeneous(instantiate(spec, t), parts) == spec


def test_uniqueness_brute_force_small():
    # For a given homogeneous R, exactly one homogeneous model per (t,) is
    # definitionally compatible with it.
    for parts, d in [(1, 1), (2, 1), (1, 2)]:
        specs = list(all_specs(parts, d, 2))
        for spec in specs:
            r = instantiate(spec, d)
            for t in range(d, 4):
                candidates = [instantiate(g, t) for g in specs]
                matches = [
                    c for c in candidates if naive_compatible(r, c, parts)
                ]
                assert len(matches) == 1
                assert matches[0] == instantiate(spec, t)


def _literal_all_pairs_compatible(r, s, parts):
    from homopix.models import order_pattern

    sb, tb = r.m // parts, s.m // parts
    for idx in r.tuples():
        for jdx in s.tuples():
            if (
                tuple((i - 1) // sb + 1 for i in idx)
                == tuple((j - 1) // tb + 1 for j in jdx)
                and order_pattern(idx) == order_pattern(jdx)
                and r.get(idx) != s.get(jdx)
            ):
                return False
    return True


def test_keyed_colors_oracle_matches_all_pairs_definition():
    # Sanity-check the factored oracle against the literal all-pairs loop.
    rng = random.Random(11)
    for _ in range(12):
        g1 = rand_spec(rng, 1, 2, 2)
        g2 = rand_spec(rng, 1, 2, 2)
        r, s = instantiate(g1, 2), instantiate(g2, 3)
        assert _literal_all_pairs_compatible(r, s, 1) == naive_compatible(r, s, 1)
