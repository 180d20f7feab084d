"""Formula AST invariants: signatures, free variables, rank, abbreviations."""

import dataclasses
from fractions import Fraction

import pytest

from aml.syntax import (
    COMPARISONS,
    AbbrevCmp,
    And,
    Atom,
    Cmp,
    Const,
    Equality,
    Exists,
    Forall,
    Func,
    Implies,
    Meas,
    Not,
    Or,
    Signature,
    Var,
    expand_abbrev,
    free_vars,
    rank,
    term_vars,
)

SIG = Signature(constants=("e",), functions=(("f", 1), ("mul", 2)),
                relations=(("P", 1), ("R", 2)))

X = Var("x")
Y = Var("y")
E = Const("e")
PX = Atom("P", (X,))
RXY = Atom("R", (X, Y))
XEQY = Equality(X, Y)
HALF = Fraction(1, 2)


# -- signatures -------------------------------------------------------------

def test_signature_arity_lookup():
    assert SIG.function_arity("f") == 1
    assert SIG.function_arity("mul") == 2
    assert SIG.function_arity("nope") is None
    assert SIG.relation_arity("P") == 1
    assert SIG.relation_arity("R") == 2
    assert SIG.relation_arity("f") is None
    assert SIG.is_constant("e")
    assert not SIG.is_constant("x")


def test_signature_rejects_duplicate_names():
    with pytest.raises(ValueError):
        Signature(constants=("e", "e"), functions=(), relations=())
    with pytest.raises(ValueError):
        Signature(constants=("e",), functions=(("e", 1),), relations=())
    with pytest.raises(ValueError):
        Signature(constants=(), functions=(("f", 1),), relations=(("f", 2),))


def test_signature_rejects_bad_arity():
    with pytest.raises(ValueError):
        Signature(constants=(), functions=(("f", 0),), relations=())
    with pytest.raises(ValueError):
        Signature(constants=(), functions=(), relations=(("R", -1),))


# -- term and formula variables ---------------------------------------------

def test_term_vars():
    assert term_vars(X) == {"x"}
    assert term_vars(E) == frozenset()
    assert term_vars(Func("mul", (X, Func("f", (Y,))))) == {"x", "y"}


def test_free_vars_atoms():
    assert free_vars(PX) == {"x"}
    assert free_vars(RXY) == {"x", "y"}
    assert free_vars(XEQY) == {"x", "y"}
    assert free_vars(Equality(E, E)) == frozenset()


def test_free_vars_binders():
    assert free_vars(Forall("x", RXY)) == {"y"}
    assert free_vars(Exists("y", RXY)) == {"x"}
    assert free_vars(Forall("x", Forall("y", RXY))) == frozenset()
    assert free_vars(Meas(("x",), Cmp.LT, HALF, RXY)) == {"y"}
    assert free_vars(Meas(("x", "y"), Cmp.LE, HALF, RXY)) == frozenset()


def test_free_vars_connectives():
    assert free_vars(And(PX, Atom("P", (Y,)))) == {"x", "y"}
    assert free_vars(Implies(Forall("x", PX), PX)) == {"x"}
    assert free_vars(Not(XEQY)) == {"x", "y"}


def test_free_variables_are_set_at_construction_outside_the_fields():
    def build():
        return Meas(("x",), Cmp.LT, HALF, And(RXY, Forall("y", Atom("P", (Y,)))))
    a, b = build(), build()
    assert a is not b
    assert "free_variables" in vars(a)  # computed eagerly, before any read
    assert a == b and hash(a) == hash(b)
    assert a.free_variables == {"y"}
    assert "free_variables" not in repr(a)
    assert [f.name for f in dataclasses.fields(a)] == ["vars", "cmp", "threshold", "body"]
    assert dataclasses.replace(a, vars=("y",)).free_variables == {"x"}
    assert dataclasses.replace(a, body=PX).free_variables == frozenset()
    assert dataclasses.replace(a, vars=("x", "y")).free_variables == frozenset()


# -- rank --------------------------------------------------------------------

def test_rank_classical_is_zero():
    assert rank(PX) == 0
    assert rank(Forall("x", Implies(PX, Or(RXY, Not(XEQY))))) == 0


def test_rank_counts_measure_nesting():
    m1 = Meas(("x",), Cmp.LT, HALF, PX)
    assert rank(m1) == 1
    m2 = Meas(("y",), Cmp.LE, HALF, And(RXY, m1))
    assert rank(m2) == 2
    assert rank(And(m1, m2)) == 2
    assert rank(Forall("z", Not(m2))) == 2


# -- measure constructor validation -------------------------------------------

def test_meas_requires_distinct_vars():
    with pytest.raises(ValueError):
        Meas(("x", "x"), Cmp.LT, HALF, RXY)


def test_meas_requires_some_var():
    with pytest.raises(ValueError):
        Meas((), Cmp.LT, HALF, PX)


def test_meas_requires_nonnegative_threshold():
    with pytest.raises(ValueError):
        Meas(("x",), Cmp.LT, Fraction(-1, 2), PX)
    assert Meas(("x",), Cmp.LE, 0, PX).threshold == 0


def test_meas_coerces_threshold_to_fraction():
    m = Meas(("x",), Cmp.LT, "2/3", PX)
    assert m.threshold == Fraction(2, 3)
    assert isinstance(m.threshold, Fraction)


# -- >= / > abbreviations ------------------------------------------------------

def test_ge_expands_to_negated_strict():
    got = expand_abbrev(("x",), AbbrevCmp.GE, HALF, PX)
    assert got == Not(Meas(("x",), Cmp.LT, HALF, PX))


def test_gt_expands_to_negated_weak():
    got = expand_abbrev(("x", "y"), AbbrevCmp.GT, Fraction(1, 3), RXY)
    assert got == Not(Meas(("x", "y"), Cmp.LE, Fraction(1, 3), RXY))


def test_core_comparisons_expand_to_the_bare_measure():
    assert expand_abbrev(["x"], Cmp.LT, "1/2", PX) == Meas(("x",), Cmp.LT, HALF, PX)
    assert expand_abbrev(("x", "y"), Cmp.LE, 0, RXY) == Meas(("x", "y"), Cmp.LE, 0, RXY)


def test_comparisons_are_the_four_written_forms():
    assert COMPARISONS == {"<": Cmp.LT, "<=": Cmp.LE, ">=": AbbrevCmp.GE, ">": AbbrevCmp.GT}
