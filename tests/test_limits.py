"""Families of growing structures: truth profiles, measure limits, densities."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from aml import limits
from aml.limits import (
    LimitError,
    banach_density,
    cyclic_family,
    furstenberg_check,
    interval_family,
    limit_measure,
    parse_family,
    truth_profile,
)
from aml.parser import ParseError, SourceSpan, parse_formula, parse_integers
from aml.semantics import Budget, BudgetExceeded
from aml.structures import FiniteStructure, VFlag
from oracle import banach_density_by_slides, member_tuples

CYCLIC = cyclic_family(1, 30)
SIG = CYCLIC.signature

SINGLETON = parse_formula("x = e", SIG)      # measure 1/n, falling to 0
EVERYTHING = parse_formula("x = x", SIG)     # measure 1 throughout
COMPLEMENT = parse_formula("~(x = e)", SIG)  # measure 1 - 1/n, rising to 1


# -- families -------------------------------------------------------------------

def test_cyclic_family_builds_groups():
    m = CYCLIC.at(5)
    assert m.n == 5
    assert m.constants == {"e": 0}
    assert m.functions["add"][1][3 * 5 + 4] == 2
    assert list(CYCLIC.indices()) == list(range(1, 31))


def test_cyclic_family_predicates():
    fam = cyclic_family(1, 10, predicates={"E": "even", "Z": "zero"})
    m = fam.at(6)
    assert m.relations["E"][1] == frozenset({0, 2, 4})
    assert m.relations["Z"][1] == frozenset({0})
    with pytest.raises(LimitError):
        cyclic_family(1, 5, predicates={"E": "no-such-rule"})


def test_interval_family_builds_initial_segments():
    fam = interval_family([2, 4], 3, 8)
    m = fam.at(5)
    assert m.n == 5
    assert m.relations["E"][1] == frozenset({1, 3})         # elements 2 and 4
    assert m.functions["f"][1] == (1, 2, 3, 4, 0)            # successor, wrapping


def test_family_members_match_the_checked_construction():
    # the builders skip the checks, so every member is rebuilt through them
    rules = {f"P{i}": rule for i, rule in enumerate(sorted(limits.PREDICATE_RULES))}
    cyclic = cyclic_family(1, 40, predicates=rules)
    for fam in (cyclic, interval_family([1, 2, 5, 39], 1, 40)):
        for i in fam.indices():
            m = fam.at(i)
            assert m == FiniteStructure.checked(i, m.constants, m.functions, member_tuples(m))
    for i in cyclic.indices():  # the addition table, built by rotating a row
        assert cyclic.at(i).functions["add"][1] == \
            tuple((a + b) % i for a in range(i) for b in range(i))


def test_families_declare_their_signature_without_building_a_member(monkeypatch):
    built = []
    real = limits.FiniteStructure

    def counting(*args, **kwargs):
        built.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(limits, "FiniteStructure", counting)
    families = [cyclic_family(3, 6, predicates={"Z": "zero", "A": "odd"}),
                interval_family([2, 4], 3, 5), parse_family("family cyclic 1500 1500", _no_e_file)]
    assert built == []
    for fam in families[:2]:
        for i in fam.indices():
            assert fam.at(i).signature() == fam.signature
    assert built == [3, 4, 5, 6, 3, 4, 5]


def test_family_index_bounds():
    with pytest.raises(LimitError):
        cyclic_family(5, 4)
    with pytest.raises(LimitError):
        CYCLIC.at(31)


# -- truth profiles -----------------------------------------------------------------

def test_profile_eventually_true():
    tp = truth_profile(CYCLIC, parse_formula("m[x] <= 1/3 . x = e", SIG))
    assert tp.verdict == "eventually-true"
    assert tp.from_index == 3                      # 1/n <= 1/3 exactly from n = 3
    assert tp.describe() == "EventuallyTrue(3)"
    assert tp.values[:3] == (False, False, True)


def test_profile_eventually_false():
    tp = truth_profile(CYCLIC, parse_formula("m[x] > 1/3 . x = e", SIG))
    assert tp.describe() == "EventuallyFalse(3)"


def test_profile_needs_slack_beyond_stabilization():
    short = cyclic_family(1, 6)
    tp = truth_profile(short, parse_formula("m[x] <= 1/3 . x = e", short.signature))
    assert tp.verdict == "undetermined"            # stabilizes at 3, but 3 + 5 > 6
    assert tp.describe() == "Undetermined"
    longer = cyclic_family(1, 9, predicates={})
    assert truth_profile(longer, parse_formula("m[x] <= 1/3 . x = e",
                                               longer.signature),
                         slack=1).verdict == "eventually-true"


def test_profile_rejects_open_formulas():
    with pytest.raises(LimitError):
        truth_profile(CYCLIC, parse_formula("x = e", SIG))


# -- measure limits --------------------------------------------------------------------

def test_limit_from_above_gets_plus_flag():
    lm = limit_measure(CYCLIC, SINGLETON, ("x",), 0)
    assert lm.verdict == "converged"
    assert lm.limit == 0
    assert lm.flag is VFlag.PLUS
    # approached from above: at the boundary neither < nor <= holds
    assert lm.lt_holds is False and lm.le_holds is False
    assert lm.describe() == "limit 0 flag +; m<0: False, m<=0: False"


def test_limit_of_constant_gets_exact_flag():
    lm = limit_measure(CYCLIC, EVERYTHING, ("x",), 1)
    assert lm.verdict == "converged"
    assert lm.limit == 1
    assert lm.flag is VFlag.DOT
    assert lm.lt_holds is False and lm.le_holds is True


def test_limit_from_below_gets_minus_flag():
    lm = limit_measure(CYCLIC, COMPLEMENT, ("x",), 1)
    assert lm.verdict == "converged"
    assert lm.flag is VFlag.MINUS
    assert lm.lt_holds is True and lm.le_holds is True


def test_oscillating_measure_is_undetermined():
    fam = cyclic_family(1, 20, predicates={"E": "even"})
    lm = limit_measure(fam, parse_formula("E(x)", fam.signature), ("x",),
                       Fraction(1, 2))
    assert lm.verdict == "undetermined"
    assert lm.note                                  # says why it failed
    assert lm.describe().startswith("Undetermined")
    assert lm.lt_holds is None and lm.le_holds is None


def _describe_limit(family, formula, target):
    phi = parse_formula(formula, family.signature)
    return limit_measure(family, phi, ("x",), target).describe()


@pytest.mark.parametrize("family, formula, target, want", [
    # 0, 1, 0, 1, ..., 1: only the last value equals the target
    (cyclic_family(1, 10, {"P": "evensize"}), "P(x)", 1,
     "Undetermined (tail equals 1 for only 1 of 10 indices)"),
    # 1, 1/2, 2/3, 1/2, ..., 5/9: the tail above 1/2 stops at a value equal to it
    (cyclic_family(1, 9, {"P": "bottom-half"}), "P(x)", Fraction(1, 2),
     "Undetermined (one-sided monotone suffix covers only 1 of 9 indices)"),
    # 1/i until i = 7, then 1/4 at i = 8: a reversal cuts the falling tail
    (interval_family([1, 8], 1, 12), "E(x)", 0,
     "Undetermined (one-sided monotone suffix covers only 5 of 12 indices)"),
    (interval_family([1, 5], 1, 12), "E(x)", 0,
     "limit 0 flag +; m<0: False, m<=0: False"),
    # 1, 1, 2/3, ..., 1/4: a weakly falling tail keeps its equal neighbours
    (interval_family([1, 2], 1, 8), "E(x)", 0, "limit 0 flag +; m<0: False, m<=0: False"),
    # eight 1s, then 8/9 ... 2/3: the whole range falls weakly, yet not by half
    (interval_family(range(1, 9), 1, 12), "E(x)", 0,
     "Undetermined (gap only shrank from 1 to 2/3)"),
    # 1/5, ..., 1/8: monotone and one-sided, but the gap did not halve
    (interval_family([1], 5, 8), "E(x)", 0, "Undetermined (gap only shrank from 1/5 to 1/8)"),
    # eight 0s, then 1/9 ... 1/3: the whole range rises weakly towards 1/2
    (interval_family(range(9, 13), 1, 12), "E(x)", Fraction(1, 2),
     "limit 1/2 flag -; m<1/2: True, m<=1/2: True"),
    # 0, 1/2, 2/3, ..., 11/12: rising to 1 from below
    (cyclic_family(1, 12, {"P": "nonzero"}), "P(x)", 1,
     "limit 1 flag -; m<1: True, m<=1: True"),
], ids=["tail-equals", "equal-neighbour-stops", "reversal-stops", "reversal-early",
        "weakly-falling", "weakly-falling-long", "gap-shrank", "weakly-rising", "from-below"])
def test_limit_measure_notes_and_verdicts_are_pinned(family, formula, target, want):
    assert _describe_limit(family, formula, target) == want


def test_limit_values_are_recorded():
    lm = limit_measure(cyclic_family(1, 4), SINGLETON, ("x",), 0)
    assert lm.values == (Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(1, 4))


def test_limit_rejects_stray_free_variables():
    # "add(x, y) = e" mentions y, which is outside the tracked tuple (x,)
    with pytest.raises(LimitError):
        limit_measure(CYCLIC, parse_formula("add(x, y) = e", SIG), ("x",), 0)


def test_family_members_are_charged_before_they_are_built():
    budget = Budget()
    assert CYCLIC.at(5, budget).n == 5
    assert budget.used == 5 + 5 ** 2        # the universe and the add table
    with pytest.raises(BudgetExceeded):
        CYCLIC.at(30, Budget(929))


def test_limit_budget_propagates():
    with pytest.raises(BudgetExceeded):
        limit_measure(CYCLIC, SINGLETON, ("x",), 0, budget=Budget(3))


# -- window densities ---------------------------------------------------------------------

def test_banach_density_frozen_values():
    assert banach_density([2, 4, 6, 8, 10], 10, 2) == Fraction(2, 3)
    assert banach_density([1], 10, 5) == Fraction(1, 5)
    assert banach_density(range(1, 11), 10, 1) == 1
    assert banach_density([], 10, 1) == 0


def test_banach_density_takes_the_best_window():
    # the dense block 5..8 dominates: window [5, 9) has all four points
    assert banach_density([5, 6, 7, 8], 20, 4) == 1
    assert banach_density([5, 6, 7, 8], 20, 8) == Fraction(1, 2)


def test_window_scan_and_shift_check_charge_their_loops():
    budget = Budget()
    banach_density([2, 4, 6, 8, 10], 10, 2, budget=budget)
    assert budget.used == 9 + 8             # the windows of lengths 2 and 3
    budget = Budget()
    banach_density([2, 4, 6, 8, 10], 10, 8, budget=budget)
    assert budget.used == 3 + 2 + 1         # lengths 8..10, all shorter than 2 * 8
    # one window: no work proportional to the horizon beyond the windows
    assert banach_density([1], 10 ** 12, 10 ** 12, budget=Budget(1)) == Fraction(1, 10 ** 12)
    # six lengths 10^12 - 5..10^12: 6 + 5 + ... + 1 windows, no matter the horizon
    assert banach_density([1], 10 ** 12, 10 ** 12 - 5, budget=Budget(21)) == \
        Fraction(1, 10 ** 12 - 5)
    budget = Budget()
    furstenberg_check([2, 4, 6, 8, 10], 10, [0, 2], budget=budget)
    assert budget.used == 10 * 2            # every point against every shift


def _banach_density_reference(elements, n_hi, l_min):
    """Every window [n, m) inside [1, n_hi] of length at least l_min."""
    e_set = set(elements)
    return max(Fraction(sum(x in e_set for x in range(n, m)), m - n)
               for n in range(1, n_hi + 1) for m in range(n + l_min, n_hi + 2))


def test_short_windows_match_the_full_scan_seeded():
    rng = random.Random(11)
    for _ in range(80):
        n_hi = rng.randint(1, 40)
        l_min = rng.randint(1, n_hi)
        p = rng.random()
        elements = [x for x in range(1, n_hi + 1) if rng.random() < p]
        assert banach_density(elements, n_hi, l_min) == \
            _banach_density_reference(elements, n_hi, l_min)


def test_window_kernel_matches_the_slide_loop_seeded():
    # horizons up to ~2,000, with l_min on both sides of (n_hi + 1) / 2: below
    # it the start and end prefix ranges overlap, above it they are disjoint
    rng = random.Random(20)
    for i in range(24):
        n_hi = rng.randint(1, 2000)
        half = (n_hi + 1) // 2
        l_min = rng.randint(1, max(1, half)) if i % 2 else rng.randint(min(half + 1, n_hi), n_hi)
        p = rng.choice((0.0, 0.05, 0.3, 0.9, 1.0))
        elements = [x for x in range(1, n_hi + 1) if rng.random() < p]
        assert banach_density(elements, n_hi, l_min) == \
            banach_density_by_slides(elements, n_hi, l_min), (n_hi, l_min, p)
    # the packed scan's edges.  A field of w bits holds counts below 2^(w-1),
    # so |E| of 127 takes 8-bit fields and 128 takes 16, 32,767 takes 16 and
    # 32,768 takes 32: |E| just below, at and above each step (the horizon
    # near 70,000 keeps l_min <= 3, so the slide loop stays fast)
    cases = [(300, 4, rng.sample(range(1, 301), size)) for size in (127, 128, 129)]
    cases += [(70_001, l_min, rng.sample(range(1, 70_002), size))
              for l_min, size in ((1, 32_767), (2, 32_768), (3, 32_769))]
    # E empty, and E = [1, n_hi], where every count of the 8- and 16-bit
    # fields fills it; l_min = 1, and l_min past (n_hi + 1) / 2
    for n_hi, l_min in ((1, 1), (2, 1), (2, 2), (127, 1), (127, 65), (127, 127),
                        (32_767, 1), (32_767, 32_765)):
        cases += [(n_hi, l_min, []), (n_hi, l_min, range(1, n_hi + 1))]
    for n_hi, l_min, elements in cases:
        assert banach_density(elements, n_hi, l_min) == \
            banach_density_by_slides(elements, n_hi, l_min), (n_hi, l_min, len(elements))


@given(st.integers(1, 30).flatmap(lambda n_hi: st.tuples(
    st.just(n_hi), st.integers(1, n_hi), st.sets(st.integers(1, n_hi)))))
@settings(max_examples=100, deadline=None)
def test_short_windows_match_the_full_scan(case):
    n_hi, l_min, elements = case
    assert banach_density(elements, n_hi, l_min) == \
        _banach_density_reference(elements, n_hi, l_min)


def test_banach_density_argument_checks():
    with pytest.raises(LimitError):
        banach_density([1], 10, 0)
    with pytest.raises(LimitError):
        banach_density([11], 10, 1)     # element beyond the horizon


def test_furstenberg_frozen_case():
    cyc, plain, bound = furstenberg_check([2, 4, 6, 8, 10], 10, [0, 2])
    assert (cyc, plain, bound) == (Fraction(1, 2), Fraction(2, 5), Fraction(1, 5))
    assert abs(cyc - plain) <= bound


def test_furstenberg_bound_holds_across_shift_sets():
    for shifts in ([0], [0, 1], [0, 3, 5], [10]):
        cyc, plain, bound = furstenberg_check([1, 3, 4, 7, 9], 12, shifts)
        assert abs(cyc - plain) <= bound
        assert bound == Fraction(max(shifts), 12)


# -- family files --------------------------------------------------------------------------

def _no_e_file(path):
    raise AssertionError(f"this family reads no E-file, yet {path!r} was loaded")


def test_parse_cyclic_family():
    fam = parse_family("family cyclic 1 20 predicate E even", _no_e_file)
    assert (fam.i_lo, fam.i_hi) == (1, 20)
    assert fam.at(4).relations["E"][1] == frozenset({0, 2})
    assert fam.at(4).signature() == fam.signature


def test_parse_interval_family_with_loader():
    fam = parse_family("family interval E.txt 2 6",
                       loader=lambda path: parse_integers("# odd numbers\n1 3  # small\n5\n"))
    assert fam.at(5).relations["E"][1] == frozenset({0, 2, 4})
    assert fam.at(5).signature() == fam.signature


def test_parse_family_errors():
    for bad in ("", "family", "family cyclic 1", "family cyclic 1 x",
                "family cyclic 1 5 predicate E", "family interval only 1",
                "family bogus 1 5", "family cyclic 0 5", "family cyclic 5 1"):
        with pytest.raises(ParseError):
            parse_family(bad, _no_e_file)
    with pytest.raises(ParseError) as e:
        parse_family("family interval E.txt 1 5", loader=lambda p: parse_integers("one three"))
    assert e.value.span == SourceSpan(16, 21)  # at the E-file's name
    # a predicate named twice, or after the groups' own symbols, at its second name
    for text, name, at in (("family cyclic 2 9 predicate P even predicate P odd", "P", 45),
                           ("family cyclic 2 9\npredicate add even", "add", 28),
                           ("family cyclic 2 9 predicate e zero", "e", 28)):
        with pytest.raises(ParseError) as e:
            parse_family(text, _no_e_file)
        assert e.value.message == f"symbol {name!r} is already declared"
        assert e.value.span == SourceSpan(at, at + len(name))
