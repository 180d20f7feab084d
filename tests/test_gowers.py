"""Uniformity norms: exact values, form agreement, dual identity, projections."""

import gc
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from aml import gowers
from aml.gowers import (
    AbelianGroup,
    FiniteAlgebra,
    GowersError,
    GridFunction,
    cond_expect,
    decimal_root,
    dual_function,
    gowers_box_pow,
    gowers_norm_pow,
    gowers_norm_pow_subst,
    inner_product,
    positivity_criterion,
)
from aml.semantics import Budget
from aml.structures import integer_table
from oracle import box_multiplication_check, coordinate_support, gowers_cube_by_terms

Z2 = AbelianGroup.cyclic(2)
Z3 = AbelianGroup.cyclic(3)
Z4 = AbelianGroup.cyclic(4)
KLEIN = AbelianGroup.from_table([[0, 1, 2, 3], [1, 0, 3, 2],
                                 [2, 3, 0, 1], [3, 2, 1, 0]])

IND2 = GridFunction.from_values([1, 0], 1)          # indicator of {0} in Z_2
IND3 = GridFunction.from_values([1, 0, 0], 1)       # indicator of {0} in Z_3
CHI = GridFunction.from_values([1, -1], 1)          # the sign character of Z_2
QUAD = GridFunction.from_values([1, 1, 1, -1], 2)   # 2x2 sign pattern


# -- groups --------------------------------------------------------------------

def test_cyclic_group_addition():
    assert Z4.table[3][2] == 1
    assert Z4.table[0][3] == 3
    assert Z4.zero == 0


def test_from_table_accepts_klein_group():
    assert KLEIN.table[1][2] == 3
    assert KLEIN.table[2][2] == 0


def test_from_table_finds_nonstandard_identity():
    # Z_2 with the identity sitting at position 1
    relabeled = AbelianGroup.from_table([[1, 0], [0, 1]])
    assert relabeled.zero == 1


def test_from_table_rejects_non_groups():
    with pytest.raises(GowersError):        # not commutative
        AbelianGroup.from_table([[0, 1, 2], [1, 2, 0], [2, 1, 0]])
    with pytest.raises(GowersError):        # no identity element
        AbelianGroup.from_table([[0, 0], [0, 0]])
    with pytest.raises(GowersError):        # missing inverses
        AbelianGroup.from_table([[0, 1], [1, 1]])


# -- grid functions ---------------------------------------------------------------

def test_grid_function_shape_checks():
    with pytest.raises(GowersError):
        GridFunction.from_values([1, 2, 3], 2)      # no n with n^2 = 3
    with pytest.raises(GowersError):
        GridFunction.from_values([1, 2, 3, 4], 2, n=3)
    assert GridFunction.from_values([1, 2, 3], 1).n == 3


def test_mean():
    f = GridFunction.from_values([Fraction(1, 2), Fraction(-1, 4)], 1)
    assert f.mean() == Fraction(1, 8)


def test_weighted_mean():
    f = GridFunction.from_values([1, 0], 1, weights=(Fraction(1, 3), Fraction(2, 3)))
    assert f.mean() == Fraction(1, 3)


# -- uniformity norms over groups ----------------------------------------------------
# Frozen values: the degree-k power of the point indicator on Z_n is 1/n^(k+1);
# characters have power exactly 1; the degree-1 power is the squared mean.

def test_indicator_norm_powers():
    assert gowers_norm_pow(Z2, IND2, 2) == Fraction(1, 8)
    assert gowers_norm_pow(Z3, IND3, 2) == Fraction(1, 27)
    assert gowers_norm_pow(Z2, IND2, 3) == Fraction(1, 16)
    assert gowers_norm_pow(Z3, IND3, 3) == Fraction(1, 81)


def test_character_norm_power_is_one():
    assert gowers_norm_pow(Z2, CHI, 2) == 1
    assert gowers_norm_pow(Z2, CHI, 3) == 1
    klein_parity = GridFunction.from_values([1, -1, -1, 1], 1)
    assert gowers_norm_pow(KLEIN, klein_parity, 2) == 1


def test_degree_one_power_is_squared_mean():
    f = GridFunction.from_values([Fraction(1, 2), Fraction(1, 4)], 1)
    assert gowers_norm_pow(Z2, f, 1) == f.mean() ** 2 == Fraction(9, 64)
    g = GridFunction.from_values([1, -1, Fraction(1, 3)], 1)
    assert gowers_norm_pow(Z3, g, 1) == g.mean() ** 2


def test_constant_function_norm_power():
    for n, grp in ((2, Z2), (3, Z3)):
        c = GridFunction.from_values([Fraction(2, 3)] * n, 1)
        assert gowers_norm_pow(grp, c, 2) == Fraction(2, 3) ** 4


def test_both_norm_forms_agree():
    rng = random.Random(5)
    relabeled = AbelianGroup.from_table([[1, 0], [0, 1]])   # Z_2, identity at 1
    for grp in (Z2, Z3, Z4, KLEIN, relabeled):
        for k in (1, 2, 3):
            for _ in range(6):
                vals = [Fraction(rng.randint(-4, 4), rng.randint(1, 4))
                        for _ in range(grp.n)]
                f = GridFunction.from_values(vals, 1)
                power = gowers_norm_pow(grp, f, k)
                assert power == gowers_norm_pow_subst(grp, f, k)
                assert power == gowers_cube_by_terms(grp, f, k)


def test_forms_ignore_the_functions_weights():
    # the U^k power averages over the group under counting measure, whatever
    # weights g carries; the substitution form lifts g's values, not them
    vals = [Fraction(3, 2), -1, Fraction(1, 3)]
    for weights in ((Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)), (1, 0, 0)):
        weighted = GridFunction.from_values(vals, 1, weights=weights)
        counting = GridFunction.from_values(vals, 1)
        for k in (1, 2, 3):
            power = gowers_norm_pow(Z3, counting, k)
            assert gowers_norm_pow_subst(Z3, weighted, k) == power
            assert gowers_norm_pow(Z3, weighted, k) == power
            assert gowers_cube_by_terms(Z3, weighted, k) == power


def test_norm_power_matches_the_term_by_term_cube_seeded():
    # zeros, negatives and wide denominators exercise the vanishing
    # derivatives, the signs and the integer rescaling
    rng = random.Random(20)
    relabeled = AbelianGroup.from_table([[1, 0], [0, 1]])   # Z_2, identity at 1
    groups = [AbelianGroup.cyclic(n) for n in range(1, 8)] + [KLEIN, relabeled]
    dens = (1, 1, 2, 3, 7, 10 ** 6 + 3, 2 ** 61 - 1)
    for grp in groups:
        for k in (1, 2, 3, 4):
            for _ in range(3 if grp.n ** (k + 1) < 5000 else 1):
                vals = [Fraction(rng.choice((0, 0, 0, rng.randint(-9, 9))), rng.choice(dens))
                        for _ in range(grp.n)]
                f = GridFunction.from_values(vals, 1)
                power = gowers_norm_pow(grp, f, k)
                assert power == gowers_cube_by_terms(grp, f, k), (grp.n, k, vals)
                if grp.n ** (2 * k) < 5000:
                    assert power == gowers_norm_pow_subst(grp, f, k), (grp.n, k, vals)


def test_cube_form_charges_its_terms():
    budget = Budget()
    gowers_norm_pow(Z4, GridFunction.from_values([1, -1, 1, -1], 1), 2, budget=budget)
    assert budget.used == (2 * 4) ** 2     # (2n)^k, while a square fits in one word
    wide = GridFunction.from_values([Fraction(1, 2 ** 64), 1, 0, 0], 1)
    budget = Budget()
    gowers_norm_pow(Z4, wide, 2, budget=budget)
    # the denominator 2^64 has b = 65 bits: 1 + 2^k·(b - 1)/64 = 5 words
    assert budget.used == (2 * 4) ** 2 * 5


def test_norm_power_nonnegative_and_monotone_under_mean():
    rng = random.Random(13)
    for _ in range(10):
        vals = [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(4)]
        f = GridFunction.from_values(vals, 1)
        pow2 = gowers_norm_pow(Z4, f, 2)
        assert pow2 >= 0
        assert f.mean() ** 4 <= pow2


# -- box norms over grids --------------------------------------------------------------

# The double sums over (h0, h1) in M^k x M^k that define the box-norm power
# and the dual function, at a cost of n^{2k} * 2^k: the references the
# slice recursions of the library are compared against.

def _box_pow_reference(f):
    k = f.arity
    fi, fden = integer_table(f.values)
    wi, wden = integer_table(f.weights)
    n = f.n
    total = 0
    for h0 in itertools.product(range(n), repeat=k):
        w0 = 1
        for a in h0:
            w0 *= wi[a]
        if not w0:
            continue
        for h1 in itertools.product(range(n), repeat=k):
            w1 = w0
            for b in h1:
                w1 *= wi[b]
            if not w1:
                continue
            idxs = [0]
            for a, b in zip(h0, h1):
                idxs = [v * n + a for v in idxs] + [v * n + b for v in idxs]
            prod = 1
            for v in idxs:
                prod *= fi[v]
                if not prod:
                    break
            total += prod * w1
    return Fraction(total, fden ** (1 << k) * wden ** (2 * k))


def _dual_reference(f):
    k = f.arity
    fi, fden = integer_table(f.values)
    wi, wden = integer_table(f.weights)
    n = f.n
    out = []
    scale = Fraction(1, fden ** ((1 << k) - 1) * wden ** k)
    for h0 in itertools.product(range(n), repeat=k):
        total = 0
        for h1 in itertools.product(range(n), repeat=k):
            w1 = 1
            for b in h1:
                w1 *= wi[b]
            if not w1:
                continue
            idxs = [0]
            for a, b in zip(h0, h1):
                idxs = [v * n + a for v in idxs] + [v * n + b for v in idxs]
            prod = 1
            for v in idxs[1:]:  # idxs[0] is the all-h0 corner, i.e. f(h0) itself
                prod *= fi[v]
                if not prod:
                    break
            total += prod * w1
        out.append(total * scale)
    return GridFunction(n, k, tuple(out), f.weights)


def _assert_matches_references(f):
    assert gowers_box_pow(f) == _box_pow_reference(f)
    assert dual_function(f) == _dual_reference(f)


def test_box_and_dual_match_references_seeded():
    rng = random.Random(31)
    for n in range(1, 5):
        for arity in range(1, 4):
            for weighted in (False, True):
                for _ in range(4):
                    vals = [Fraction(rng.randint(-4, 4), rng.randint(1, 5))
                            for _ in range(n ** arity)]
                    weights = tuple(Fraction(rng.randint(0, 3), rng.randint(1, 4))
                                    for _ in range(n)) if weighted else ()
                    _assert_matches_references(GridFunction(n, arity, tuple(vals), weights))


def test_box_and_dual_with_zero_weights_match_references():
    f = GridFunction(3, 3, tuple(Fraction(i % 5 - 2, 1 + i % 3) for i in range(27)),
                     (Fraction(0), Fraction(1, 2), Fraction(3, 2)))
    _assert_matches_references(f)
    zero = GridFunction(2, 2, (1, -1, 2, 3), (Fraction(0), Fraction(0)))
    assert gowers_box_pow(zero) == 0
    _assert_matches_references(zero)


@st.composite
def grid_functions(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    arity = draw(st.integers(min_value=1, max_value=3))
    rationals = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    vals = draw(st.lists(rationals, min_size=n ** arity, max_size=n ** arity))
    weights = draw(st.one_of(
        st.just(()),
        st.lists(st.fractions(min_value=0, max_value=2, max_denominator=5),
                 min_size=n, max_size=n).map(tuple)))
    return GridFunction(n, arity, tuple(vals), weights)


@given(grid_functions())
@settings(max_examples=60, deadline=None)
def test_box_and_dual_match_references(f):
    _assert_matches_references(f)


def test_box_and_dual_need_a_coordinate_to_slice():
    constant = GridFunction(2, 0, (Fraction(3),), ())
    with pytest.raises(GowersError):
        gowers_box_pow(constant)
    with pytest.raises(GowersError):
        dual_function(constant)


@pytest.mark.parametrize("make, message", [
    (lambda: GridFunction(0, 1, (), ()), "need n >= 1 and arity >= 0, got n=0, arity=1"),
    (lambda: GridFunction.from_values([], 1), "need n >= 1 and arity >= 0, got n=0, arity=1"),
    (lambda: GridFunction.from_values([1], 0), "cannot infer n at arity 0"),
], ids=["empty-domain", "no-values", "arity-0-inferred"])
def test_grid_functions_refuse_shapes_they_cannot_hold(make, message):
    # each once divided by zero: Fraction(1, 0) for the weights, 1 / arity for n
    with pytest.raises(GowersError, match=f"^{message}$"):
        make()


def test_box_and_dual_leave_no_reference_cycles():
    # their recursions are module functions, not closures that refer to
    # themselves, so a call leaves nothing for the cyclic collector
    f = GridFunction(3, 3, tuple(Fraction(i % 5 - 2, 1 + i % 3) for i in range(27)),
                     (Fraction(0), Fraction(1, 2), Fraction(3, 2)))
    gc.collect()
    gc.disable()
    try:
        for call in (gowers_box_pow, dual_function):
            call(f)
            assert gc.collect() == 0, call.__name__
    finally:
        gc.enable()


def test_box_power_degree_two_frozen():
    # rows of [[1,1],[1,-1]] have gram matrix [[2,0],[0,2]]: power 8/16
    assert gowers_box_pow(QUAD) == Fraction(1, 2)


def test_box_power_degree_one_is_squared_weighted_mean():
    f = GridFunction.from_values([1, 0], 1, weights=(Fraction(1, 3), Fraction(2, 3)))
    assert gowers_box_pow(f) == Fraction(1, 9)


def test_group_norm_is_box_norm_of_cube_lift():
    for grp, f in ((Z2, IND2), (Z3, IND3), (Z2, CHI)):
        lifted = GridFunction.from_group_function(f, 2, grp)
        assert gowers_box_pow(lifted) == gowers_norm_pow(grp, f, 2)


def test_dual_identity():
    rng = random.Random(23)
    for n, arity in ((2, 2), (3, 2), (2, 3)):
        for _ in range(5):
            vals = [Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                    for _ in range(n ** arity)]
            f = GridFunction.from_values(vals, arity)
            assert inner_product(f, dual_function(f)) == gowers_box_pow(f)


def test_dual_identity_with_weights():
    f = GridFunction.from_values([1, -1, Fraction(1, 2), 0], 2,
                                 weights=(Fraction(1, 4), Fraction(3, 4)))
    assert inner_product(f, dual_function(f)) == gowers_box_pow(f)


def test_box_multiplication_bound():
    f = GridFunction.from_values([1, -1, Fraction(1, 2), 1, 0, 1, -1, Fraction(1, 3), 1], 2)
    rows = sum(1 << i for i in range(9) if divmod(i, 3)[0] in (0, 1))
    cols = sum(1 << i for i in range(9) if divmod(i, 3)[1] in (0, 2))
    restricted, full = box_multiplication_check(
        f, {frozenset({0}): rows, frozenset({1}): cols})
    assert restricted == Fraction(161, 1296)
    assert full == Fraction(25153, 104976)
    assert 0 <= restricted <= full


def test_box_multiplication_rejects_non_cylinders():
    f = GridFunction.from_values([1] * 9, 2)
    with pytest.raises(GowersError):
        box_multiplication_check(f, {frozenset({0}): 0b000000010})  # depends on both
    with pytest.raises(GowersError):
        box_multiplication_check(f, {frozenset({0, 1}): 0})          # wrong |I|


def test_coordinate_support():
    rows = sum(1 << i for i in range(9) if divmod(i, 3)[0] == 1)
    assert coordinate_support(rows, 3, 2) == {0}
    full = (1 << 9) - 1
    assert coordinate_support(full, 3, 2) == frozenset()


# -- conditional expectation --------------------------------------------------------------

HALVES = FiniteAlgebra.from_generators(4, 1, [0b0011])
F4 = GridFunction.from_values([1, Fraction(1, 2), 0, Fraction(1, 4)], 1)


def test_cond_expect_averages_over_atoms():
    e = cond_expect(F4, HALVES)
    assert list(e.values) == [Fraction(3, 4), Fraction(3, 4), Fraction(1, 8), Fraction(1, 8)]


def test_cond_expect_is_a_projection():
    e = cond_expect(F4, HALVES)
    assert cond_expect(e, HALVES).values == e.values


def test_cond_expect_trivial_algebra_gives_mean():
    trivial = FiniteAlgebra.from_generators(4, 1, [])
    e = cond_expect(F4, trivial)
    assert set(e.values) == {F4.mean()}


def test_cond_expect_preserves_atom_masses():
    e = cond_expect(F4, HALVES)
    for atom in HALVES.atoms:
        chi = GridFunction.from_values(
            [1 if atom >> i & 1 else 0 for i in range(4)], 1)
        assert inner_product(F4, chi) == inner_product(e, chi)


def test_algebra_atoms_partition_the_grid():
    alg = FiniteAlgebra.from_generators(4, 1, [0b0011, 0b0101])
    assert sorted(alg.atoms) == [0b0001, 0b0010, 0b0100, 0b1000]
    assert [a for a in alg.atoms if a >> 2 & 1] == [0b0100]


# -- integrals against the product weight measure ------------------------------------------

# The per-tuple Fraction loops the library used to integrate with, multiplying
# a tuple's k weights for every term: the references its integer sums
# (structures.product_weights, one division per result) are compared against.

def _weight_of_index(f, idx):
    prod = Fraction(1)
    for _ in range(f.arity):
        prod *= f.weights[idx % f.n]
        idx //= f.n
    return prod


def _mean_reference(f):
    total = Fraction(0)
    for idx, v in enumerate(f.values):
        if v:
            total += v * _weight_of_index(f, idx)
    return total


def _inner_product_reference(f, g):
    total = Fraction(0)
    for idx, (a, b) in enumerate(zip(f.values, g.values)):
        if a and b:
            total += a * b * _weight_of_index(f, idx)
    return total


def _cond_expect_reference(f, algebra):
    out = list(f.values)
    for atom in algebra.atoms:
        num = Fraction(0)
        den = Fraction(0)
        bits = atom
        idxs = []
        while bits:
            low = bits & -bits
            idx = low.bit_length() - 1
            idxs.append(idx)
            w = _weight_of_index(f, idx)
            den += w
            num += f.values[idx] * w
            bits ^= low
        value = num / den if den else Fraction(0)
        for idx in idxs:
            out[idx] = value
    return GridFunction(f.n, f.arity, tuple(out), f.weights)


def _positivity_reference(f, atom_budget=1 << 16):
    k = f.arity
    first = gowers_box_pow(f) > 0
    subsets = [frozenset(c) for c in itertools.combinations(range(k), k - 1)]
    if f.n ** (len(subsets) * (k - 1)) > atom_budget:
        return first, "unknown"
    corr = {}
    for idx, v in enumerate(f.values):
        tup = []
        rest = idx
        for _ in range(k):
            tup.append(rest % f.n)
            rest //= f.n
        tup.reverse()
        sig = tuple(tuple(tup[i] for i in sorted(I)) for I in subsets)
        if v:
            corr[sig] = corr.get(sig, Fraction(0)) + v * _weight_of_index(f, idx)
    return first, any(c != 0 for c in corr.values())


def _assert_integrals_match_references(f, g, generators):
    algebra = FiniteAlgebra.from_generators(f.n, f.arity, generators)
    assert f.mean() == _mean_reference(f)
    assert inner_product(f, g) == _inner_product_reference(f, g)
    assert cond_expect(f, algebra) == _cond_expect_reference(f, algebra)
    assert positivity_criterion(f) == _positivity_reference(f)


def test_integrals_match_references_seeded():
    rng = random.Random(37)
    for n in range(1, 5):
        for arity in range(1, 4):
            for weighted in (False, True):
                for _ in range(4):
                    size = n ** arity
                    vals = [Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(size)]
                    other = [Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(size)]
                    weights = tuple(Fraction(rng.randint(0, 3), rng.randint(1, 4))
                                    for _ in range(n)) if weighted else ()
                    f = GridFunction(n, arity, tuple(vals), weights)
                    g = GridFunction(n, arity, tuple(other), weights)
                    generators = [rng.getrandbits(size) for _ in range(rng.randint(0, 3))]
                    _assert_integrals_match_references(f, g, generators)


def test_integrals_with_zero_weights_or_cancelling_terms_match_references():
    # at arity 1 the one correlation is the mean, and it cancels here
    cancel = GridFunction(2, 1, (1, -2), (Fraction(2, 3), Fraction(1, 3)))
    assert positivity_criterion(cancel) == (False, False)
    _assert_integrals_match_references(cancel, cancel, [0b01])
    f = GridFunction(3, 2, tuple(Fraction(i % 5 - 2, 1 + i % 3) for i in range(9)),
                     (Fraction(0), Fraction(1, 2), Fraction(0)))
    _assert_integrals_match_references(f, f, [0b000111000, 0b010010010])
    zero = GridFunction(2, 2, (1, -1, 2, 3), (Fraction(0), Fraction(0)))
    assert zero.mean() == 0
    assert cond_expect(zero, FiniteAlgebra.from_generators(2, 2, [])).values == (0,) * 4
    _assert_integrals_match_references(zero, zero, [0b0110])


@given(grid_functions(), st.data())
@settings(max_examples=60, deadline=None)
def test_integrals_match_references(f, data):
    size = f.n ** f.arity
    rationals = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    other = data.draw(st.lists(rationals, min_size=size, max_size=size))
    generators = data.draw(st.lists(st.integers(min_value=0, max_value=(1 << size) - 1),
                                    max_size=3))
    _assert_integrals_match_references(f, GridFunction(f.n, f.arity, tuple(other), f.weights),
                                       generators)


# -- positivity ------------------------------------------------------------------------------

def test_positivity_zero_function():
    zero = GridFunction.from_values([0, 0, 0, 0], 2)
    assert positivity_criterion(zero) == (False, False)


def test_positivity_sign_pattern():
    assert positivity_criterion(QUAD) == (True, True)


def test_positivity_agrees_exhaustively_on_small_grids():
    for vals in itertools.product((1, -1), repeat=4):
        f = GridFunction.from_values(list(vals), 2)
        pos, corr = positivity_criterion(f)
        assert pos == corr
    for vals in itertools.product((0, 1), repeat=4):
        f = GridFunction.from_values(list(vals), 2)
        pos, corr = positivity_criterion(f)
        assert pos == corr


def test_positivity_budget_reports_unknown(monkeypatch):
    monkeypatch.setattr(gowers, "ATOM_BUDGET", 1)
    pos, corr = positivity_criterion(QUAD)
    assert pos is True
    assert corr == "unknown"


# -- display -------------------------------------------------------------------------------

def test_decimal_root_frozen_strings():
    assert decimal_root(Fraction(1, 16), 4) == "0.50000000000000000000"
    assert decimal_root(Fraction(1, 2), 4) == "0.84089641525371454303"
    assert decimal_root(Fraction(1), 8) == "1"   # exact values print exactly
    assert decimal_root(Fraction(0), 4) == "0"
