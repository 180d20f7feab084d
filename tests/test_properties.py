"""Property-based checks: grammar round trips, measure laws, density bounds."""

from hypothesis import given, settings, strategies as st

from aml.axioms import random_formula
from aml.limits import banach_density
from aml.parser import parse_formula, print_formula
from aml.semantics import evaluate, meas_holds
from aml.structures import DefinableSet, FiniteStructure, VFlag, measure
from aml.syntax import Cmp, Signature
from oracle import naive_evaluate

SIG = Signature(constants=("e",), functions=(("f", 1),),
                relations=(("P", 1), ("R", 2)))

fractions = st.fractions(min_value=0, max_value=2, max_denominator=8)
flags = st.sampled_from(list(VFlag))
cmps = st.sampled_from([Cmp.LT, Cmp.LE])


@st.composite
def formulas(draw):
    rng_seed = draw(st.integers(min_value=0, max_value=2 ** 32 - 1))
    import random
    return random_formula(random.Random(rng_seed), ("x", "y"),
                          depth=3, rank_budget=2, sig=SIG)


@st.composite
def structures(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    f_table = tuple(draw(st.integers(min_value=0, max_value=n - 1))
                    for _ in range(n))
    p_bits = draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    r_bits = draw(st.integers(min_value=0, max_value=(1 << n * n) - 1))
    return FiniteStructure.checked(
        n,
        constants={"e": draw(st.integers(min_value=0, max_value=n - 1))},
        functions={"f": (1, f_table)},
        relations={"P": (1, frozenset((i,) for i in range(n)
                                      if p_bits >> i & 1)),
                   "R": (2, frozenset((i, j) for i in range(n)
                                      for j in range(n)
                                      if r_bits >> (i * n + j) & 1))})


@given(formulas())
@settings(max_examples=150, deadline=None)
def test_print_parse_round_trip(phi):
    assert parse_formula(print_formula(phi), SIG) == phi


@given(structures(), formulas(), st.integers(min_value=0, max_value=4),
       st.integers(min_value=0, max_value=4))
@settings(max_examples=150, deadline=None)
def test_evaluator_matches_naive(m, phi, a, b):
    val = {"x": a % m.n, "y": b % m.n}
    assert evaluate(m, phi, val) == naive_evaluate(m, phi, val)


@given(fractions, fractions, fractions, flags, cmps)
@settings(max_examples=300, deadline=None)
def test_meas_holds_is_monotone_in_mu(mu, mu_lower, r, flag, cmp):
    low, high = sorted((mu, mu_lower))
    if meas_holds(cmp, high, r, flag):
        assert meas_holds(cmp, low, r, flag)


@given(fractions, fractions, flags)
@settings(max_examples=300, deadline=None)
def test_strict_bound_implies_weak_bound(mu, r, flag):
    if meas_holds(Cmp.LT, mu, r, flag):
        assert meas_holds(Cmp.LE, mu, r, flag)


@given(structures(), st.integers(min_value=0, max_value=2 ** 25 - 1))
@settings(max_examples=150, deadline=None)
def test_measure_complement_law(m, bits):
    full = (1 << m.n ** 2) - 1
    s = DefinableSet(m, 2, bits & full)
    assert measure(s) + measure(DefinableSet(m, 2, full ^ s.bits)) == 1
    assert 0 <= measure(s) <= 1


@given(st.sets(st.integers(min_value=1, max_value=40), max_size=25),
       st.integers(min_value=1, max_value=10))
@settings(max_examples=150, deadline=None)
def test_banach_density_bounds_and_window_monotonicity(e, l_min):
    d_small = banach_density(e, 40, l_min)
    d_large = banach_density(e, 40, l_min + 5)
    assert 0 <= d_large <= d_small <= 1
    if e:
        assert d_small > 0


@given(st.sets(st.integers(min_value=1, max_value=30), min_size=1),
       st.sets(st.integers(min_value=1, max_value=30), min_size=1))
@settings(max_examples=100, deadline=None)
def test_banach_density_monotone_in_the_set(a, b):
    union = a | b
    assert banach_density(union, 30, 3) >= banach_density(a, 30, 3)
