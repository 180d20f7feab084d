"""Finite measured structures: validation, definable sets, exact measures."""

import itertools
from fractions import Fraction

import pytest

from aml.structures import (DefinableSet, FiniteStructure, VFlag, index_tuple, measure,
                            tuple_index)

M4 = FiniteStructure.checked(
    4,
    constants={"e": 0},
    functions={"f": (1, (1, 2, 3, 0))},
    relations={"P": (1, frozenset({(0,), (2,)})),
               "R": (2, frozenset({(0, 1), (1, 2), (2, 3)}))},
)

W2 = FiniteStructure.checked(2, {}, {}, {}, weights=(Fraction(1, 3), Fraction(2, 3)))


def set_of(m: FiniteStructure, arity: int, tuples) -> DefinableSet:
    """The definable set of the given tuples."""
    return DefinableSet(m, arity, sum({1 << tuple_index(t, m.n) for t in tuples}))


# -- construction and validation -----------------------------------------------

def test_counting_weights_are_uniform():
    assert M4.weights == (Fraction(1, 4),) * 4
    assert sum(M4.weights) == 1


def test_weighted_structure_mass():
    assert sum(W2.weights) == 1


def test_subnormalized_weights_allowed():
    m = FiniteStructure.checked(2, {}, {}, {}, weights=(Fraction(1, 4), Fraction(1, 4)))
    assert sum(m.weights) == Fraction(1, 2)


def test_rejects_empty_universe():
    with pytest.raises(ValueError):
        FiniteStructure.checked(0, {}, {}, {})


def test_rejects_out_of_range_constant():
    with pytest.raises(ValueError):
        FiniteStructure.checked(2, {"e": 2}, {}, {})


def test_rejects_wrong_function_table_size():
    with pytest.raises(ValueError):
        FiniteStructure.checked(3, {}, {"f": (1, (0, 1))}, {})
    with pytest.raises(ValueError):
        FiniteStructure.checked(2, {}, {"g": (2, (0, 1, 0))}, {})


def test_rejects_out_of_range_relation_tuple():
    with pytest.raises(ValueError):
        FiniteStructure.checked(2, {}, {}, {"P": (1, frozenset({(2,)}))})
    with pytest.raises(ValueError):
        FiniteStructure.checked(2, {}, {}, {"R": (2, frozenset({(0, 1, 0)}))})


def test_rejects_negative_weight():
    with pytest.raises(ValueError):
        FiniteStructure.checked(2, {}, {}, {}, weights=(Fraction(3, 2), Fraction(-1, 2)))


def test_mass_above_one_is_allowed():
    # total mass is unconstrained above; only negativity is rejected
    m = FiniteStructure.checked(2, {}, {}, {}, weights=(Fraction(3, 2), Fraction(1, 2)))
    assert sum(m.weights) == 2


def test_tuple_indexing_is_lexicographic():
    assert tuple_index((0, 0), 4) == 0
    assert tuple_index((1, 2), 4) == 6
    assert index_tuple(6, 4, 2) == (1, 2)
    pairs = list(itertools.product(range(4), repeat=2))
    assert [index_tuple(tuple_index(t, 4), 4, 2) for t in pairs] == pairs


# -- definable sets ------------------------------------------------------------------

def test_set_membership_and_len():
    a = set_of(M4, 1, [(0,), (2,)])
    assert (0,) in a and (2,) in a and (1,) not in a
    assert len(a) == 2


def test_membership_is_false_for_tuples_outside_the_power():
    # over 4 elements, (1, 3) is bit 7: out-of-range, short and long tuples
    # must not alias it, and a negative element is no shift count
    a = set_of(M4, 2, [(1, 3)])
    assert (1, 3) in a
    for tup in [(0, 7), (7,), (0, 0, 7), (0, -1), (), (1, 3, 0), (1.5, 3)]:
        assert tup not in a, tup


def test_relation_indices_are_the_members_lexicographic_positions():
    m = FiniteStructure.checked(3, relations={"P": (1, frozenset({(2,)})),
                                              "R": (2, frozenset({(0, 1), (2, 0)})),
                                              "T": (3, frozenset({(1, 2, 0), (2, 2, 2)})),
                                              "E": (2, frozenset()),
                                              "Z": (0, frozenset({()}))})
    assert m.relation_indices == {"P": {2}, "R": {1, 6}, "T": {15, 26}, "E": set(), "Z": {0}}


# -- measures ----------------------------------------------------------------------

def test_counting_measure_values():
    # unary: |A| / n, binary: |A| / n^2
    assert measure(set_of(M4, 1, [(0,), (2,)])) == Fraction(1, 2)
    assert measure(DefinableSet(M4, 1, 0)) == 0
    assert measure(DefinableSet(M4, 2, (1 << 16) - 1)) == 1
    assert measure(set_of(M4, 2, [(0, 1), (1, 2), (2, 3)])) == Fraction(3, 16)


def test_weighted_measure_values():
    assert measure(set_of(W2, 1, [(0,)])) == Fraction(1, 3)
    assert measure(set_of(W2, 1, [(1,)])) == Fraction(2, 3)
    # product weights multiply coordinatewise
    assert measure(set_of(W2, 2, [(1, 1)])) == Fraction(4, 9)
    assert measure(DefinableSet(W2, 2, 0b1111)) == 1


def product(a: DefinableSet, b: DefinableSet) -> DefinableSet:
    """The Cartesian product A x B as a set of arity |A| + |B|."""
    return set_of(a.structure, a.arity + b.arity,
                  (s + t for s, t in itertools.product(a.tuples(), b.tuples())))


def test_product_measure_identity():
    a = set_of(M4, 1, [(0,), (1,)])
    b = set_of(M4, 1, [(2,)])
    assert sorted(product(a, b).tuples()) == [(0, 2), (1, 2)]
    assert measure(product(a, b)) == measure(a) * measure(b) == Fraction(1, 8)
    wa = set_of(W2, 1, [(0,)])
    wb = set_of(W2, 1, [(1,)])
    assert measure(product(wa, wb)) == measure(wa) * measure(wb) == Fraction(2, 9)


def test_measure_is_additive_on_disjoint_sets():
    a = set_of(M4, 1, [(0,)])
    b = set_of(M4, 1, [(1,), (3,)])
    assert measure(DefinableSet(M4, 1, a.bits | b.bits)) == measure(a) + measure(b) \
        == Fraction(3, 4)


def test_value_flags():
    assert VFlag.PLUS.value == "+"
    assert VFlag.MINUS.value == "-"
    assert VFlag.DOT.value == "."

