"""Evaluator semantics: boundary flags, measure values, budgets, oracle agreement."""

import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from aml.axioms import (SchemeInstance, check_instance, generate_instances, random_formula,
                        random_structure)
from aml.parser import parse_formula
from aml.semantics import (
    Budget,
    BudgetExceeded,
    EvalError,
    Evaluator,
    check_continuity,
    check_probability,
    evaluate,
    extension,
    meas_holds,
    naive_evaluate,
)
from aml.structures import DefinableSet, FiniteStructure, VFlag, fiber_sums, measure
from aml.syntax import (And, Atom, Cmp, Equality, Exists, Forall, Func, Implies, Meas, Not, Or,
                        Signature, Var, free_vars)

SIG = Signature(constants=("e",), functions=(("f", 1),),
                relations=(("P", 1), ("R", 2)))

Z4 = FiniteStructure.counting(
    4,
    constants={"e": 0},
    functions={"f": (1, (1, 2, 3, 0))},
    relations={"P": (1, frozenset({(0,), (2,)})),
               "R": (2, frozenset({(0, 1), (1, 2), (2, 3)}))},
)


def ev(text: str, m=Z4, **kw):
    return evaluate(m, parse_formula(text, m.signature()), **kw)


# -- boundary semantics of measure comparisons ----------------------------------
# Away from the threshold both comparisons agree with the numeric order;
# at mu == r the flag decides:  < holds only under -, <= fails only under +.

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


def test_meas_holds_off_boundary():
    for flag in VFlag:
        assert meas_holds(Cmp.LT, THIRD, HALF, flag)
        assert meas_holds(Cmp.LE, THIRD, HALF, flag)
        assert not meas_holds(Cmp.LT, HALF, THIRD, flag)
        assert not meas_holds(Cmp.LE, HALF, THIRD, flag)


def test_meas_holds_boundary_truth_table():
    assert meas_holds(Cmp.LT, HALF, HALF, VFlag.MINUS)
    assert not meas_holds(Cmp.LT, HALF, HALF, VFlag.DOT)
    assert not meas_holds(Cmp.LT, HALF, HALF, VFlag.PLUS)
    assert meas_holds(Cmp.LE, HALF, HALF, VFlag.MINUS)
    assert meas_holds(Cmp.LE, HALF, HALF, VFlag.DOT)
    assert not meas_holds(Cmp.LE, HALF, HALF, VFlag.PLUS)


# -- classical connectives and quantifiers -----------------------------------------

def test_equality_and_relations():
    assert ev("e = e")
    assert ev("f(e) = f(e)")
    assert not ev("f(e) = e")
    assert ev("P(e)")
    assert ev("R(e, f(e))")
    assert not ev("R(f(e), e)")


def test_connective_truth_table():
    assert ev("P(e) & R(e, f(e))")
    assert not ev("P(e) & P(f(e))")
    assert ev("P(f(e)) | P(e)")
    assert not ev("P(f(e)) | R(f(e), e)")
    assert ev("P(f(e)) -> P(e)")
    assert ev("P(e) -> R(e, f(e))")
    assert not ev("P(e) -> P(f(e))")
    assert ev("~P(f(e))")


def test_quantifiers():
    # R is the successor graph minus the wraparound pair (3, 0)
    assert ev("forall x . ~(x = f(f(f(e)))) -> R(x, f(x))")
    assert not ev("forall x . R(x, f(x))")
    assert not ev("forall x . P(x)")
    assert ev("exists x . P(x) & ~(x = e)")
    assert not ev("exists x . R(x, x)")


def test_unbound_free_variable_is_an_error():
    with pytest.raises(EvalError):
        ev("P(x)")
    assert ev("P(x)", val={"x": 2})


# -- measure constructor values -----------------------------------------------------

def test_measure_of_singleton():
    # {x : x = e} has one point out of four
    assert ev("m[x] <= 1/4 . x = e")
    assert not ev("m[x] < 1/4 . x = e")
    assert ev("m[x] >= 1/4 . x = e")
    assert not ev("m[x] > 1/4 . x = e")


def test_measure_of_relation_pairs():
    # R holds on 3 of 16 ordered pairs
    assert ev("m[x,y] <= 3/16 . R(x, y)")
    assert not ev("m[x,y] < 3/16 . R(x, y)")
    assert ev("m[x,y] > 1/8 . R(x, y)")


def test_measure_with_parameter():
    # {y : R(x, y)} has one point for x in 0..2 and none for x = 3
    assert ev("m[y] <= 1/4 . R(x, y)", val={"x": 0})
    assert ev("m[y] <= 0 . R(x, y)", val={"x": 3})
    assert ev("forall x . m[y] <= 1/4 . R(x, y)")


def test_nested_measures():
    # inner: mu{y : R(x,y)} = 1/4 except at x=3; outer counts x with inner true
    assert ev("m[x] <= 1/4 . ~(m[y] <= 0 . R(x, y))", val=None) is False
    assert ev("m[x] <= 3/4 . ~(m[y] <= 0 . R(x, y))")


def test_weighted_measure():
    m = FiniteStructure(2, {}, {}, {"P": (1, frozenset({(1,)}))},
                        weights=(Fraction(1, 3), Fraction(2, 3)))
    phi = parse_formula("m[x] <= 2/3 . P(x)", m.signature())
    assert evaluate(m, phi)
    assert not evaluate(m, parse_formula("m[x] < 2/3 . P(x)", m.signature()))
    # binary weights multiply: mu{(x,y) : P(x) & P(y)} = 4/9
    assert evaluate(m, parse_formula("m[x,y] <= 4/9 . P(x) & P(y)", m.signature()))
    assert not evaluate(m, parse_formula("m[x,y] < 4/9 . P(x) & P(y)", m.signature()))


# -- extensions ----------------------------------------------------------------------

def test_extension_set_and_measure():
    phi = parse_formula("R(x, y)", Z4.signature())
    s = extension(Z4, phi, ("x", "y"))
    assert sorted(s.tuples()) == [(0, 1), (1, 2), (2, 3)]
    assert measure(s) == Fraction(3, 16)


def test_extension_with_params():
    phi = parse_formula("R(x, y)", Z4.signature())
    s = extension(Z4, phi, ("y",), params={"x": 1})
    assert sorted(s.tuples()) == [(2,)]
    # a binder that reuses a parameter's name shadows it
    phi = parse_formula("R(x, y) & exists x . R(y, x)", Z4.signature())
    assert sorted(extension(Z4, phi, ("y",), params={"x": 0}).tuples()) == [(1,)]


def test_extension_rejects_duplicates_and_unbound():
    phi = parse_formula("R(x, y)", Z4.signature())
    with pytest.raises(EvalError):
        extension(Z4, phi, ("x", "x"))
    with pytest.raises(EvalError):
        extension(Z4, phi, ("x",))


# -- budgets and traces ----------------------------------------------------------------

def test_budget_exhaustion():
    with pytest.raises(BudgetExceeded) as ex:
        ev("m[x,y] <= 1 . R(x, y)", budget=Budget(10))
    assert ex.value.used > ex.value.limit == 10
    # the same sentence fits in a budget of 16 + slack
    assert ev("m[x,y] <= 1 . R(x, y)", budget=Budget(100))


def test_trace_records_measure_decisions():
    trace = []
    ev("m[x] <= 1/4 . x = e", trace=trace)
    assert len(trace) == 1
    entry = trace[0]
    assert entry.vars == ("x",)
    assert entry.cmp is Cmp.LE
    assert entry.threshold == Fraction(1, 4)
    assert entry.count == 1
    assert entry.mu == Fraction(1, 4)
    assert entry.flag is VFlag.DOT
    assert entry.verdict is True


# -- the set-at-a-time evaluator agrees with the naive one --------------------------------

def test_oracle_agreement_on_seeded_instances():
    rng = random.Random(7)
    for _ in range(80):
        m = random_structure(rng)
        phi = random_formula(rng, ("x", "y"), depth=2, rank_budget=2)
        val = {"x": rng.randrange(m.n), "y": rng.randrange(m.n)}
        assert evaluate(m, phi, val) == naive_evaluate(m, phi, val)


def test_memoization_does_not_leak_between_valuations():
    phi = parse_formula("P(x)", Z4.signature())
    assert evaluate(Z4, phi, {"x": 0}) is True
    assert evaluate(Z4, phi, {"x": 1}) is False
    # one Evaluator evaluates at each valuation in turn: x stays fixed, so
    # each call tables the quantifier over y alone
    budget = Budget()
    one = Evaluator(Z4, budget)
    phi = parse_formula("exists y . R(x, y) & P(y)", Z4.signature())
    assert [one.eval(phi, {"x": a}) for a in range(4)] == [False, True, False, False]
    assert budget.used == 4 * 4
    with pytest.raises(EvalError):
        one.eval(phi, {"x": 4})


# -- unary-measure sentence schemes -------------------------------------------------------

def test_continuity_boundary():
    for n in (2, 5, 12):
        m = FiniteStructure.counting(n)
        assert check_continuity(m, Fraction(1, n))
        assert not check_continuity(m, Fraction(1, n) - Fraction(1, 12 * n))
        assert check_continuity(m, Fraction(1, n) + Fraction(1, 12 * n))


def test_continuity_rejects_nonpositive_threshold():
    with pytest.raises(ValueError):
        check_continuity(Z4, 0)


def test_probability_scheme():
    qs = [Fraction(1, 2), Fraction(3, 4), Fraction(9, 10)]
    assert check_probability(Z4, qs)
    sub = FiniteStructure(2, {}, {}, {}, weights=(Fraction(1, 4), Fraction(1, 4)))
    assert not check_probability(sub, qs)  # mass 1/2 <= 9/10 violates the lower clause
    over = FiniteStructure(2, {}, {}, {}, weights=(Fraction(1, 2), Fraction(1,)))
    assert not check_probability(over, qs)  # mass 3/2 violates the upper clause


# -- differential tests of the set-at-a-time evaluator -------------------------------------

def subformulas(phi):
    """Yield phi and all its subformulas, preorder."""
    yield phi
    if isinstance(phi, Not):
        yield from subformulas(phi.body)
    elif isinstance(phi, (And, Or, Implies)):
        yield from subformulas(phi.left)
        yield from subformulas(phi.right)
    elif isinstance(phi, (Forall, Exists, Meas)):
        yield from subformulas(phi.body)


def test_subformulas_covers_every_node():
    px, xeqy = Atom("P", (Var("x"),)), Equality(Var("x"), Var("y"))
    m1 = Meas(("x",), Cmp.LT, HALF, px)
    phi = And(m1, Not(xeqy))
    got = list(subformulas(phi))
    assert phi in got
    assert m1 in got
    assert px in got
    assert Not(xeqy) in got
    assert xeqy in got
    assert len(got) == 5


def _bound(phi):
    return set(phi.vars) if isinstance(phi, Meas) else {phi.var}


def _binders(phi):
    return [s for s in subformulas(phi) if isinstance(s, (Forall, Exists, Meas))]


def _has_function_term(phi):
    def term(t):
        return isinstance(t, Func) or any(term(a) for a in getattr(t, "args", ()))
    return any(isinstance(s, Atom) and any(map(term, s.args))
               or isinstance(s, Equality) and (term(s.left) or term(s.right))
               for s in subformulas(phi))


def _check_instance_naive(m, inst):
    for assignment in itertools.product(range(m.n), repeat=len(inst.param_vars)):
        val = dict(zip(inst.param_vars, assignment))
        if not naive_evaluate(m, inst.matrix, val):
            return False, val
    return True, None


# Hand-written matrices the generator may not produce: a measure rebinding the
# name of the measure around it, a quantifier rebinding a free parameter, and
# a vacuous binder over a function term.
_EXTRA_MATRICES = [
    "m[x] <= 1/2 . P(x) & m[x] < 1/3 . R(x, z)",
    "m[x,y] <= 3/8 . R(x, y) | ~(m[y] <= 1/4 . R(y, x))",
    "R(z, e) -> exists z . R(z, f(z))",
    "forall z . m[w5] < 11/4 . ~(f(z) = z)",
]

# sha256 of the (holds, witness) stream below, computed with the memoizing
# tuple-at-a-time evaluator this one replaced.
_VERDICTS_SHA256 = "aa7077983813bd511bd5b324e82756794067d095403380f8eed998e11e5f1cae"


def test_scheme_verdicts_and_witnesses_match_the_oracle_seeded():
    rng = random.Random(20261018)
    digest = hashlib.sha256()
    seen = {"zero weight": False, "shadowed binder": False, "vacuous binder": False,
            "nested measure": False, "function term": False, "open with bindings": False}
    for _ in range(40):
        m = random_structure(rng)
        seen["zero weight"] |= 0 in m.weights
        cases = generate_instances(rng.randrange(1 << 32), 6, sig=m.signature())
        for text in _EXTRA_MATRICES:
            phi = parse_formula(text, m.signature())
            cases.append(SchemeInstance("extra", phi, tuple(sorted(free_vars(phi))), phi))
        for inst in cases:
            phi = inst.matrix
            seen["shadowed binder"] |= any(_bound(s) & _bound(t)
                                           for s in _binders(phi) for t in _binders(s.body))
            seen["vacuous binder"] |= any(not _bound(s) <= free_vars(s.body)
                                          for s in _binders(phi))
            seen["nested measure"] |= any(
                isinstance(s, Meas) and any(isinstance(t, Meas) for t in subformulas(s.body))
                for s in subformulas(phi))
            seen["function term"] |= _has_function_term(phi)
            seen["open with bindings"] |= bool(inst.param_vars)
            got = check_instance(m, inst)
            assert (got.holds, got.witness) == _check_instance_naive(m, inst), phi
            digest.update(f"{got.holds} {got.witness}\n".encode())
    assert all(seen.values()), seen
    assert digest.hexdigest() == _VERDICTS_SHA256


def _measure_reference(s: DefinableSet) -> Fraction:
    """The product-weight measure by one Fraction product per tuple."""
    total = Fraction(0)
    for tup in s.tuples():
        prod = Fraction(1)
        for a in tup:
            prod *= s.structure.weights[a]
        total += prod
    return total


def test_integer_measure_matches_the_fraction_loop_seeded():
    rng = random.Random(5)
    for _ in range(120):
        m = random_structure(rng)
        arity = rng.randint(0, 3)
        bits = rng.getrandbits(m.n ** arity) & rng.getrandbits(m.n ** arity)
        s = DefinableSet(m, arity, bits)
        assert measure(s) == _measure_reference(s)
        # fiber by fiber: the first coordinate's slices
        if arity:
            scale = m.integer_weights[1] ** (arity - 1)
            sums = fiber_sums(m, bits, arity - 1, m.n)
            assert [Fraction(v, scale) for v in sums] == \
                [_measure_reference(s.slice_prefix((a,))) for a in range(m.n)]


def test_extension_matches_the_oracle_seeded():
    rng = random.Random(9)
    for _ in range(60):
        m = random_structure(rng, n_max=4)
        phi = random_formula(rng, ("x", "y", "z"), depth=3, rank_budget=2)
        xs = tuple(rng.sample(("x", "y", "z"), rng.randint(1, 3)))
        params = {v: rng.randrange(m.n) for v in ("x", "y", "z") if v not in xs}
        got = extension(m, phi, xs, params)
        want = {tup for tup in m.all_tuples(len(xs))
                if naive_evaluate(m, phi, {**params, **dict(zip(xs, tup))})}
        assert set(got.tuples()) == want, (phi, xs, params)


def test_binders_charge_their_tables_first():
    # a quantifier n^(|free| + 1), a measure n^(|free| + k); a valuation's
    # variables are fixed, so they do not count among |free|
    cases = [("forall x . m[y] <= 1/4 . R(x, y)", {}, 4 + 4 ** 2),
             ("exists y . R(x, y)", {"x": 0}, 4),
             ("m[y,z] <= 1/2 . R(x, y) & R(y, z)", {"x": 1}, 4 ** 2),
             ("m[x] <= 1 . exists y . R(x, y)", {}, 4 + 4 ** 2)]
    for text, val, units in cases:
        budget = Budget()
        ev(text, val=val, budget=budget)
        assert budget.used == units, text
        with pytest.raises(BudgetExceeded):
            ev(text, val=val, budget=Budget(units - 1))
    # an extension n^|xs|; its parameters stay fixed, so the measure inside is
    # tabled over y alone
    budget = Budget()
    phi = parse_formula("m[z] >= 1/4 . R(x, z) & R(z, y)", Z4.signature())
    assert sorted(extension(Z4, phi, ("y",), {"x": 0}, budget).tuples()) == [(2,)]
    assert budget.used == 4 + 4 ** 2


def test_nested_measure_trace_order():
    # inner entries first, one per x in order, then the root entry last
    trace = []
    assert ev("m[x] <= 3/4 . ~(m[y] <= 0 . R(x, y))", trace=trace)
    got = [(e.vars, e.count, e.mu, e.verdict) for e in trace]
    quarter = Fraction(1, 4)
    assert got == [(("y",), 1, quarter, False), (("y",), 1, quarter, False),
                   (("y",), 1, quarter, False), (("y",), 0, 0, True),
                   (("x",), 3, Fraction(3, 4), True)]


def test_weighted_trace_counts_tuples_and_sums_weights():
    m = FiniteStructure(3, {}, {}, {"P": (1, frozenset({(0,), (1,), (2,)}))},
                        weights=(Fraction(1, 2), Fraction(0), Fraction(1, 3)))
    trace = []
    assert evaluate(m, parse_formula("m[x,y] <= 25/36 . P(x) & P(y)", m.signature()),
                    trace=trace)
    assert [(e.count, e.mu, e.verdict) for e in trace] == [(9, Fraction(25, 36), True)]
