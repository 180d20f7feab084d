"""Evaluator semantics: boundary flags, measure values, budgets, oracle agreement."""

import hashlib
import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from aml import semantics
from aml.axioms import (SchemeInstance, check_instance, check_soundness, generate_instances,
                        random_formula)
from aml.parser import parse_formula
from aml.semantics import (
    Budget,
    BudgetExceeded,
    EvalError,
    Evaluator,
    check_continuity,
    evaluate,
    extension,
    meas_holds,
)
from aml.structures import (DefinableSet, FiniteStructure, VFlag, fiber_sums, index_tuple,
                            measure, tuple_index)
from aml.syntax import (And, Atom, Cmp, Equality, Exists, Forall, Func, Implies, Meas, Not, Or,
                        Signature, Var, free_vars)
from oracle import (atom_by_tuples, broadcast_by_digits, broadcast_by_repunit, check_probability,
                    naive_evaluate, random_structure, random_structure_over)

SIG = Signature(constants=("e",), functions=(("f", 1),),
                relations=(("P", 1), ("R", 2)))

Z4 = FiniteStructure.checked(
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
    m = FiniteStructure.checked(2, {}, {}, {"P": (1, frozenset({(1,)}))},
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


@pytest.mark.parametrize("params, message", [
    ({}, "unbound variables: x"),
    ({"y": 0}, "unbound variables: x"),
    ({"x": -1}, "binding x=-1 outside universe 0..3"),
    ({"x": 9}, "binding x=9 outside universe 0..3"),
])
def test_extension_checks_its_parameters_as_eval_does(params, message):
    # unchecked, a negative parameter indexes from the end and one past n raises IndexError
    phi = parse_formula("f(x) = y", Z4.signature())
    with pytest.raises(EvalError) as got:
        extension(Z4, phi, ("y",), params=params)
    with pytest.raises(EvalError) as want:
        Evaluator(Z4).eval(phi, {"y": 0, **params})
    assert str(got.value) == str(want.value) == message
    assert sorted(extension(Z4, phi, ("y",), params={"x": 3}).tuples()) == [(0,)]


# -- budgets and traces ----------------------------------------------------------------

def test_budget_exhaustion():
    with pytest.raises(BudgetExceeded) as ex:
        ev("m[x,y] <= 1 . R(x, y)", budget=Budget(10))
    assert ex.value.used > ex.value.limit == 10
    # the same sentence fits in a budget of 16 + slack
    assert ev("m[x,y] <= 1 . R(x, y)", budget=Budget(100))


def test_a_count_too_long_to_print_is_shown_by_its_size(digit_limit):
    budget = Budget(10)
    with pytest.raises(BudgetExceeded) as ex:
        budget.charge(10 ** digit_limit)          # one digit past the limit
    assert str(ex.value) == (f"enumeration budget exceeded: "
                             f"2^{(10 ** digit_limit).bit_length() - 1} or more "
                             f"work units > limit 10")
    assert ex.value.used == budget.used == 10 ** digit_limit


def test_a_power_past_the_limit_by_its_exponent_is_never_built():
    budget = Budget(1000)                      # 10 bits
    budget.charge(7)
    with pytest.raises(BudgetExceeded) as ex:
        budget.charge_power(2, 10 ** 12)       # 2^(10^12) would need 125 GB
    assert str(ex.value) == \
        "enumeration budget exceeded: 2^1000000000000 or more work units > limit 1000"
    assert ex.value.used == budget.used == 7
    budget.charge_power(3, 6, 1)               # 10 bits or fewer: charged exactly
    with pytest.raises(BudgetExceeded) as ex:
        budget.charge_power(2, 10, 2)
    assert str(ex.value) == "enumeration budget exceeded: 2784 work units > limit 1000"
    budget = Budget(10)
    budget.charge_power(1, 10 ** 12, 3)        # 1^(10^12) is 1: charged exactly
    assert budget.used == 3


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
        m = FiniteStructure.checked(n)
        assert check_continuity(m, Fraction(1, n))
        assert not check_continuity(m, Fraction(1, n) - Fraction(1, 12 * n))
        assert check_continuity(m, Fraction(1, n) + Fraction(1, 12 * n))


def test_continuity_rejects_nonpositive_threshold():
    with pytest.raises(ValueError):
        check_continuity(Z4, 0)


def test_probability_scheme():
    qs = [Fraction(1, 2), Fraction(3, 4), Fraction(9, 10)]
    assert check_probability(Z4, qs)
    sub = FiniteStructure.checked(2, {}, {}, {}, weights=(Fraction(1, 4), Fraction(1, 4)))
    assert not check_probability(sub, qs)  # mass 1/2 <= 9/10 violates the lower clause
    over = FiniteStructure.checked(2, {}, {}, {}, weights=(Fraction(1, 2), Fraction(1,)))
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
        ev = Evaluator(m)  # shared by the structure's instances, as check_soundness does
        for text in _EXTRA_MATRICES:
            phi = parse_formula(text, m.signature())
            cases.append(SchemeInstance("extra", phi, tuple(sorted(free_vars(phi)))))
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
            got = check_instance(ev, inst)
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
            block = m.n ** (arity - 1)
            fibers = [DefinableSet(m, arity - 1, bits >> a * block & (1 << block) - 1)
                      for a in range(m.n)]
            assert [Fraction(v, scale) for v in sums] == list(map(_measure_reference, fibers))


def test_extension_matches_the_oracle_seeded():
    rng = random.Random(9)
    for _ in range(60):
        m = random_structure(rng, n_max=4)
        phi = random_formula(rng, ("x", "y", "z"), depth=3, rank_budget=2)
        xs = tuple(rng.sample(("x", "y", "z"), rng.randint(1, 3)))
        params = {v: rng.randrange(m.n) for v in ("x", "y", "z") if v not in xs}
        got = extension(m, phi, xs, params)
        want = {tup for tup in itertools.product(range(m.n), repeat=len(xs))
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
    m = FiniteStructure.checked(3, {}, {}, {"P": (1, frozenset({(0,), (1,), (2,)}))},
                                weights=(Fraction(1, 2), Fraction(0), Fraction(1, 3)))
    trace = []
    assert evaluate(m, parse_formula("m[x,y] <= 25/36 . P(x) & P(y)", m.signature()),
                    trace=trace)
    assert [(e.count, e.mu, e.verdict) for e in trace] == [(9, Fraction(25, 36), True)]


def _broadcast_reference(bits, own, ctx, n):
    """Bit i of the table over ``ctx`` is the bit of ``bits`` at the own
    variables' values in the i-th assignment of ``ctx``."""
    digits = []
    for i in range(n ** len(ctx)):
        value = dict(zip(ctx, index_tuple(i, n, len(ctx))))
        digits.append("01"[bits >> tuple_index([value[v] for v in own], n) & 1])
    return int("".join(reversed(digits)) or "0", 2)


def test_broadcast_matches_the_per_index_reference():
    # every ordered ctx of up to four variables and every own subsequence of
    # it: own a suffix of ctx takes the doubling, the rest the digit path
    rng = random.Random(12)
    suffixes = others = 0
    for n in range(1, 5):
        ev = Evaluator(FiniteStructure.checked(n))
        for size in range(5):
            for ctx in itertools.permutations("wxyz", size):
                for mask in range(1 << size):
                    own = tuple(v for i, v in enumerate(ctx) if mask >> i & 1)
                    bits = rng.getrandbits(n ** len(own))
                    suffixes += ctx[size - len(own):] == own
                    others += ctx[size - len(own):] != own
                    assert ev._broadcast(bits, own, ctx) == \
                        _broadcast_reference(bits, own, ctx, n), (n, own, ctx)
    assert suffixes and others


def test_broadcasts_at_size_match_the_references():
    n = 48
    rng = random.Random(48)
    ev = Evaluator(FiniteStructure.checked(n))
    pair, triple = rng.getrandbits(n ** 2), rng.getrandbits(n ** 3)
    # a missing inner variable takes the digit path
    assert ev._broadcast(pair, ("x", "y"), ("x", "y", "z")) == \
        _broadcast_reference(pair, ("x", "y"), ("x", "y", "z"), n)
    # missing outer variables take the doubling
    assert ev._broadcast(pair, ("y", "z"), ("x", "y", "z")) == \
        broadcast_by_repunit(pair, n ** 2, n ** 3)
    start = time.perf_counter()
    spread = ev._broadcast(triple, ("x", "y", "z"), ("a", "x", "y", "z"))
    elapsed = time.perf_counter() - start
    assert spread == broadcast_by_repunit(triple, n ** 3, n ** 4)
    assert elapsed < 0.1  # the repunit product, quadratic, is hundreds of times slower


def test_innermost_broadcasts_match_the_digit_reference():
    # own a prefix of ctx: the missing variables are innermost, and each row
    # becomes a run of n^(missing) bits.  Every such shape for n 1-9 up to
    # 20,000 bits: runs below 8 bits, of a multiple of 8 bits and of neither,
    # each on both sides of the size from which the spread replaces the digits
    rng = random.Random(36)
    seen = set()
    names = tuple("abcdefghijklmnop")
    for n in range(1, 10):
        ev = Evaluator(FiniteStructure.checked(n))
        for size in range(2, 5 if n == 1 else 17):
            if n ** size > 20000:
                break
            ctx = names[:size]
            for own in (ctx[:i] for i in range(1, size)):
                run = n ** (size - len(own))
                for bits in (rng.getrandbits(n ** len(own)), (1 << n ** len(own)) - 1):
                    assert ev._broadcast(bits, own, ctx) == \
                        broadcast_by_digits(bits, own, ctx, n), (n, own, ctx)
                phases = 8 // math.gcd(run, 8)
                spread = n ** size >= semantics._SPREAD_BITS_PER_PHASE * phases
                seen.add(("short" if run < 8 else "other" if run % 8 else "bytes", spread))
    assert seen == set(itertools.product(("short", "bytes", "other"), (False, True)))


def test_atom_tables_stay_with_their_structure_and_valuation():
    def structure(p):
        return FiniteStructure.checked(2, {"e": 0}, {"f": (1, (1, 0))},
                                       {"P": (1, frozenset(p)),
                                         "R": (2, frozenset({(0, 1)}))})
    a, b = structure({(0,)}), structure({(1,)})
    px, rxy = parse_formula("P(x)", SIG), parse_formula("R(x, y)", SIG)
    ev_a, ev_b = Evaluator(a), Evaluator(b)
    assert [ev_a.table(px, ("x",), {}), ev_b.table(px, ("x",), {})] == [0b01, 0b10]
    assert [ev_a.table(px, ("x",), {}), ev_b.table(px, ("x",), {})] == [0b01, 0b10]
    # an atom that reads the environment is tabled afresh at each valuation
    assert [ev_a.table(rxy, ("y",), {"x": x}) for x in (0, 1, 0)] == [0b10, 0, 0b10]
    # the same instance checked on each structure in turn gets each one's witness
    bogus = SchemeInstance("bogus", px, ("x",))
    assert [check_soundness(m, [bogus])[0].witness for m in (a, b, a)] == \
        [{"x": 1}, {"x": 0}, {"x": 1}]


# -- a connective skips the operand its left side decides --------------------------------

# Left operands over x and y: contradictions and tautologies decide every row
# of a connective's table, an atom or a random formula some of them or none.
_CONTRADICTIONS = ["~(x = x)", "P(y) & ~P(y)", "m[w] < 0 . R(x, w)", "~(exists w . w = w)"]
_TAUTOLOGIES = ["x = y | ~(x = y)", "P(y) | ~P(y)", "m[w] >= 0 . R(x, w)",
                "forall w . w = w | P(w)"]


def _tiny_structure(rng):
    """A random structure over the test signature with 1 to 4 elements."""
    n = rng.randint(1, 4)
    if n > 1:
        return random_structure(rng, n_max=n)  # draws its size from 2..n
    return FiniteStructure.checked(1, {"e": 0}, {"f": (1, (0,))},
                                   {"P": (1, frozenset(rng.sample([(0,)], rng.randint(0, 1)))),
                                    "R": (2, frozenset(rng.sample([(0, 0)], rng.randint(0, 1))))})


def _left_operand(rng):
    kind = rng.choice(["contradiction", "tautology", "atom", "formula"])
    if kind in ("contradiction", "tautology"):
        texts = _CONTRADICTIONS if kind == "contradiction" else _TAUTOLOGIES
        return parse_formula(rng.choice(texts), SIG)
    return random_formula(rng, ("x", "y"), depth=0 if kind == "atom" else 2, rank_budget=1)


def test_short_circuits_match_the_oracle_seeded():
    rng = random.Random(20261019)
    decided = {"every row": 0, "some rows": 0, "no row": 0}
    for _ in range(400):
        m = _tiny_structure(rng)
        connective = rng.choice([And, Or, Implies])
        left = _left_operand(rng)
        phi = connective(left, random_formula(rng, ("x", "y"), depth=2, rank_budget=1))
        # the rows the left operand decides: false ones under & and ->, true under |
        rows = list(itertools.product(range(m.n), repeat=2))
        settled = [naive_evaluate(m, left, dict(zip("xy", row))) == (connective is Or)
                   for row in rows]
        decided["every row" if all(settled) else "some rows" if any(settled) else "no row"] += 1
        got = extension(m, phi, ("x", "y"))
        assert set(got.tuples()) == {row for row in rows
                                     if naive_evaluate(m, phi, dict(zip("xy", row)))}, phi
        # under binders, and at a valuation of what they leave free
        for var in rng.sample(("x", "y"), rng.randint(0, 2)):
            binder = rng.choice([Forall, Exists, Meas])
            phi = Meas((var,), rng.choice(list(Cmp)), Fraction(rng.randint(0, 4), 4), phi) \
                if binder is Meas else binder(var, phi)
        val = {v: rng.randrange(m.n) for v in free_vars(phi)}
        assert evaluate(m, phi, val) == naive_evaluate(m, phi, val), (phi, val)
    assert min(decided.values()) > 40, decided


def test_a_decided_connective_charges_nothing_for_its_right_operand():
    # the measure on the right charges 4^2 inside forall x, which charges 4
    right = "m[y] <= 1/2 . R(x, y)"
    cases = [("~(x = x) & ", 4), ("x = x | ", 4), ("~(x = x) -> ", 4),
             ("P(x) & ", 4 + 16), ("P(x) | ", 4 + 16), ("P(x) -> ", 4 + 16),
             ("x = x & ", 4 + 16), ("~(x = x) | ", 4 + 16), ("x = x -> ", 4 + 16)]
    for left, units in cases:
        budget = Budget()
        ev(f"forall x . {left}{right}", budget=budget)
        assert budget.used == units, left
    # the right operand is skipped before it is tabled, so it traces nothing
    trace = []
    assert not ev(f"~(x = x) & {right}", val={"x": 0}, trace=trace)
    assert trace == []


def test_a_skipped_operand_is_not_checked():
    # evaluate does not check phi against the structure's signature: an
    # unknown relation is an error only where the evaluator tables it
    unknown = Atom("Q", (Var("x"),))
    contradiction = Not(Equality(Var("x"), Var("x")))
    assert evaluate(Z4, And(contradiction, unknown), {"x": 0}) is False
    with pytest.raises(EvalError, match="unknown relation 'Q'"):
        evaluate(Z4, And(unknown, contradiction), {"x": 0})


# -- atoms read their relation and function tables by index ------------------------------

# A ternary relation and a binary function, beside the test signature's symbols.
WIDE = Signature(constants=("e",), functions=(("f", 1), ("add", 2)),
                 relations=(("P", 1), ("R", 2), ("T", 3)))
# Arguments in context order, permuted, repeated, constant and nested; the
# whole-table reads are R(x, y), T(x, y, z) and add(x, y) over (x, y) or (x, y, z).
WIDE_ATOMS = ["R(x, y)", "R(y, x)", "R(x, x)", "R(e, x)", "R(e, e)", "P(z)", "P(f(z))",
              "T(x, y, z)", "T(z, x, z)", "T(z, y, x)", "T(e, y, add(x, y))",
              "R(add(x, y), y)", "R(f(add(y, x)), add(z, e))", "add(x, y) = e",
              "add(y, x) = z", "f(x) = x", "x = y", "e = e"]
WIDE_CONTEXTS = [("x", "y", "z"), ("z", "y", "x"), ("y", "x", "z"), ("x", "y"), ("y", "x"),
                 ("x",), ()]


def test_atoms_match_the_tuple_oracle_seeded():
    rng = random.Random(2026)
    for n in range(1, 9):
        for weighted in (False, True):
            m = random_structure_over(rng, WIDE, n, weighted)
            ev = Evaluator(m)
            atoms = [parse_formula(text, WIDE) for text in WIDE_ATOMS]
            atoms += [random_formula(rng, ("x", "y", "z"), depth=0, sig=WIDE) for _ in range(12)]
            for phi in atoms:
                for ctx in WIDE_CONTEXTS:
                    env = {v: rng.randrange(n) for v in "xyz" if v not in ctx}
                    own = tuple(v for v in ctx if v in phi.free_variables)
                    assert ev._atom(phi, own, env) == atom_by_tuples(m, phi, own, env), \
                        (n, phi, own, env)
                    assert ev.table(phi, ctx, env) == atom_by_tuples(m, phi, ctx, env), \
                        (n, phi, ctx, env)


def test_formulas_over_a_wide_signature_match_the_oracle_seeded():
    rng = random.Random(2027)
    for n in range(1, 9):
        for weighted in (False, True):
            m = random_structure_over(rng, WIDE, n, weighted)
            # every listed atom under a measure of all three variables
            for text in WIDE_ATOMS:
                q = Fraction(rng.randint(0, 8), 8)
                phi = parse_formula(f"m[x,y,z] {rng.choice(['<', '<='])} {q} . {text}", WIDE)
                assert evaluate(m, phi) == naive_evaluate(m, phi), (n, phi)
            for _ in range(10):
                phi = random_formula(rng, ("x", "y", "z"), depth=2, rank_budget=2, sig=WIDE)
                val = {v: rng.randrange(n) for v in "xyz"}
                assert evaluate(m, phi, val) == naive_evaluate(m, phi, val), (n, phi, val)
                xs = tuple(rng.sample("xyz", rng.randint(1, 3)))
                got = extension(m, phi, xs, {v: a for v, a in val.items() if v not in xs})
                want = {tup for tup in itertools.product(range(n), repeat=len(xs))
                        if naive_evaluate(m, phi, {**val, **dict(zip(xs, tup))})}
                assert set(got.tuples()) == want, (n, phi, xs, val)
