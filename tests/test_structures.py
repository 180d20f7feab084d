"""Finite measured structures: validation, definable sets, exact measures."""

from fractions import Fraction

import pytest

from aml.structures import DefinableSet, FiniteStructure, VFlag, measure

M4 = FiniteStructure.counting(
    4,
    constants={"e": 0},
    functions={"f": (1, (1, 2, 3, 0))},
    relations={"P": (1, frozenset({(0,), (2,)})),
               "R": (2, frozenset({(0, 1), (1, 2), (2, 3)}))},
)

W2 = FiniteStructure(2, {}, {}, {}, weights=(Fraction(1, 3), Fraction(2, 3)))


# -- construction and validation -----------------------------------------------

def test_counting_weights_are_uniform():
    assert M4.weights == (Fraction(1, 4),) * 4
    assert M4.uniform_weight == Fraction(1, 4)
    assert M4.total_mass == 1


def test_weighted_structure_mass():
    assert W2.uniform_weight is None
    assert W2.total_mass == 1


def test_subnormalized_weights_allowed():
    m = FiniteStructure(2, {}, {}, {}, weights=(Fraction(1, 4), Fraction(1, 4)))
    assert m.total_mass == Fraction(1, 2)


def test_rejects_empty_universe():
    with pytest.raises(ValueError):
        FiniteStructure(0, {}, {}, {})


def test_rejects_out_of_range_constant():
    with pytest.raises(ValueError):
        FiniteStructure(2, {"e": 2}, {}, {})


def test_rejects_wrong_function_table_size():
    with pytest.raises(ValueError):
        FiniteStructure(3, {}, {"f": (1, (0, 1))}, {})
    with pytest.raises(ValueError):
        FiniteStructure(2, {}, {"g": (2, (0, 1, 0))}, {})


def test_rejects_out_of_range_relation_tuple():
    with pytest.raises(ValueError):
        FiniteStructure(2, {}, {}, {"P": (1, frozenset({(2,)}))})
    with pytest.raises(ValueError):
        FiniteStructure(2, {}, {}, {"R": (2, frozenset({(0, 1, 0)}))})


def test_rejects_negative_weight():
    with pytest.raises(ValueError):
        FiniteStructure(2, {}, {}, {}, weights=(Fraction(3, 2), Fraction(-1, 2)))


def test_mass_above_one_is_allowed():
    # total mass is unconstrained above; only negativity is rejected
    m = FiniteStructure(2, {}, {}, {}, weights=(Fraction(3, 2), Fraction(1, 2)))
    assert m.total_mass == 2


# -- symbol application ------------------------------------------------------------

def test_apply_function():
    assert [M4.apply_function("f", (i,)) for i in range(4)] == [1, 2, 3, 0]
    with pytest.raises(KeyError):
        M4.apply_function("g", (0,))


def test_holds_relation():
    assert M4.holds_relation("P", (0,))
    assert not M4.holds_relation("P", (1,))
    assert M4.holds_relation("R", (1, 2))
    assert not M4.holds_relation("R", (2, 1))


def test_tuple_indexing_is_lexicographic():
    assert M4.tuple_index((0, 0)) == 0
    assert M4.tuple_index((1, 2)) == 6
    assert M4.index_tuple(6, 2) == (1, 2)
    assert [M4.index_tuple(M4.tuple_index(t), 2) for t in M4.all_tuples(2)] == \
        list(M4.all_tuples(2))


# -- definable sets ------------------------------------------------------------------

def test_set_algebra():
    a = M4.set_of(1, [(0,), (1,)])
    b = M4.set_of(1, [(1,), (2,)])
    assert sorted(a.union(b).tuples()) == [(0,), (1,), (2,)]
    assert sorted(a.intersection(b).tuples()) == [(1,)]
    assert sorted(a.difference(b).tuples()) == [(0,)]
    assert sorted(a.complement().tuples()) == [(2,), (3,)]
    assert len(M4.full_set(2)) == 16
    assert len(M4.empty_set(2)) == 0


def test_set_membership_and_len():
    a = M4.set_of(1, [(0,), (2,)])
    assert (0,) in a and (2,) in a and (1,) not in a
    assert len(a) == 2


def test_mismatched_sets_raise():
    a = M4.set_of(1, [(0,)])
    b = M4.set_of(2, [(0, 0)])
    with pytest.raises(ValueError):
        a.union(b)
    other = FiniteStructure.counting(3)
    c = other.set_of(1, [(0,)])
    with pytest.raises(ValueError):
        a.intersection(c)


def test_product_and_slice():
    a = M4.set_of(1, [(0,), (1,)])
    b = M4.set_of(1, [(2,)])
    p = a.product(b)
    assert sorted(p.tuples()) == [(0, 2), (1, 2)]
    assert sorted(p.slice_prefix((0,)).tuples()) == [(2,)]
    assert sorted(p.slice_prefix((3,)).tuples()) == []


# -- measures ----------------------------------------------------------------------

def test_counting_measure_values():
    # unary: |A| / n, binary: |A| / n^2
    assert measure(M4.set_of(1, [(0,), (2,)])) == Fraction(1, 2)
    assert measure(M4.empty_set(1)) == 0
    assert measure(M4.full_set(2)) == 1
    assert measure(M4.set_of(2, [(0, 1), (1, 2), (2, 3)])) == Fraction(3, 16)


def test_weighted_measure_values():
    assert measure(W2.set_of(1, [(0,)])) == Fraction(1, 3)
    assert measure(W2.set_of(1, [(1,)])) == Fraction(2, 3)
    # product weights multiply coordinatewise
    assert measure(W2.set_of(2, [(1, 1)])) == Fraction(4, 9)
    assert measure(W2.full_set(2)) == 1


def product_measure_check(a: DefinableSet, b: DefinableSet) -> bool:
    """Whether mu(A x B) = mu(A) * mu(B) exactly."""
    return measure(a.product(b)) == measure(a) * measure(b)


def test_product_measure_identity():
    a = M4.set_of(1, [(0,), (1,)])
    b = M4.set_of(1, [(2,)])
    assert product_measure_check(a, b)
    assert measure(a.product(b)) == measure(a) * measure(b) == Fraction(1, 8)
    wa = W2.set_of(1, [(0,)])
    wb = W2.set_of(1, [(1,)])
    assert product_measure_check(wa, wb)
    assert measure(wa.product(wb)) == Fraction(2, 9)


def test_measure_is_additive_on_disjoint_sets():
    a = M4.set_of(1, [(0,)])
    b = M4.set_of(1, [(1,), (3,)])
    assert measure(a.union(b)) == measure(a) + measure(b) == Fraction(3, 4)


def test_value_flags():
    assert VFlag.PLUS.value == "+"
    assert VFlag.MINUS.value == "-"
    assert VFlag.DOT.value == "."
