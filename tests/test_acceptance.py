"""Acceptance suite: twelve end-to-end checks, one pass/fail line each.

Each test prints a single summary line (visible with `pytest -s` or in the
captured-output section) and enforces its own wall-clock budget.
"""

import itertools
import random
import time
from fractions import Fraction

from aml import axioms, gowers, limits, regularity, semantics
from aml.parser import ParseError, parse_formula, print_formula
from aml.semantics import evaluate
from aml.structures import FiniteStructure, VFlag
from aml.syntax import Cmp, Meas, Signature
from oracle import (box_multiplication_check, check_probability, gowers_cube_by_terms,
                    naive_evaluate, random_structure)

SIG = axioms.TEST_SIGNATURE


def report(name: str, budget_s: float, started: float, detail: str) -> None:
    elapsed = time.perf_counter() - started
    print(f"{name}: PASS — {detail} in {elapsed:.2f}s (budget {budget_s:.0f}s)")
    assert elapsed <= budget_s, f"{name} exceeded its {budget_s}s budget"


# -- 1: scheme soundness at scale ------------------------------------------------

def test_criterion_01_soundness_suite():
    t0 = time.perf_counter()
    rng = random.Random(20260816)
    structures = [random_structure(rng) for _ in range(50)]
    assert all(m.n <= 6 for m in structures)
    checked = 0
    for i, m in enumerate(structures):
        instances = axioms.generate_instances(1000 + i, 20, sig=SIG)
        failures = [f"{r.instance.describe()} FAILS at {r.witness}"
                    for r in axioms.check_soundness(m, instances) if not r.holds]
        assert not failures, "\n".join(failures)
        checked += len(instances)
    assert checked >= 1000
    report("criterion 01 (soundness suite)", 60, t0,
           f"{checked} instances across {len(structures)} structures, all hold")


# -- 2: evaluator vs naive oracle ---------------------------------------------------

def test_criterion_02_semantics_oracle():
    t0 = time.perf_counter()
    rng = random.Random(2)
    agreements = 0
    for _ in range(500):
        m = random_structure(rng)
        phi = axioms.random_formula(rng, ("x", "y"), depth=2, rank_budget=2)
        val = {"x": rng.randrange(m.n), "y": rng.randrange(m.n)}
        assert evaluate(m, phi, val) == naive_evaluate(m, phi, val)
        agreements += 1
    report("criterion 02 (semantics oracle)", 30, t0,
           f"{agreements} triples agree exactly")


# -- 3: centralizer measure in symmetric and cyclic groups ----------------------------

def _perm_mul(p, q):
    return tuple(p[q[i]] for i in range(len(q)))


def _group_structure(elements, mul):
    n = len(elements)
    index = {g: i for i, g in enumerate(elements)}
    table = tuple(index[mul(elements[a], elements[b])]
                  for a in range(n) for b in range(n))
    return FiniteStructure.checked(n, constants={"e": index[elements[0]]},
                                   functions={"mul": (2, table)})


def _rationals_up_to(denom_max):
    out = {Fraction(0), Fraction(1)}
    for q in range(1, denom_max + 1):
        for p in range(q + 1):
            out.add(Fraction(p, q))
    return sorted(out)


def test_criterion_03_group_centralizers():
    t0 = time.perf_counter()
    body = parse_formula("mul(x, g) = mul(g, x)",
                         Signature(constants=("e",), functions=(("mul", 2),),
                                   relations=()))
    thresholds = _rationals_up_to(12)
    checked = 0

    def check_group(m):
        nonlocal checked
        mul = m.functions["mul"][1]
        for g in range(m.n):
            centralizer = sum(1 for x in range(m.n)
                              if mul[x * m.n + g] == mul[g * m.n + x])
            for r in thresholds:
                claim = Meas(("x",), Cmp.LT, r, body)
                assert evaluate(m, claim, {"g": g}) == (centralizer < r * m.n)
                checked += 1

    # the symmetric group on three letters, built from actual permutations
    perms = sorted(itertools.permutations(range(3)))
    identity = (0, 1, 2)
    elements = [identity] + [p for p in perms if p != identity]
    s3 = _group_structure(elements, _perm_mul)
    sizes = sorted(sum(1 for x in elements if _perm_mul(x, g) == _perm_mul(g, x))
                   for g in elements)
    assert sizes == [2, 2, 2, 3, 3, 6]       # independent centralizer census
    check_group(s3)

    for n in range(1, 9):
        cyc = _group_structure(list(range(n)), lambda a, b: (a + b) % n)
        check_group(cyc)

    report("criterion 03 (group centralizers)", 5, t0,
           f"{checked} (g, r) comparisons exact on S_3 and Z_1..Z_8")


# -- 4: pointwise-continuity and probability sentences ----------------------------------

def test_criterion_04_continuity_probability():
    t0 = time.perf_counter()
    for n in range(1, 13):
        m = FiniteStructure.checked(n)
        q = Fraction(1, n)
        assert semantics.check_continuity(m, q)
        if n > 1:
            assert not semantics.check_continuity(m, q - Fraction(1, 12 * n))

    rng = random.Random(4)
    cases = 0
    for _ in range(40):
        n = rng.randint(1, 6)
        weights = tuple(Fraction(rng.randint(0, 3), 6) for _ in range(n))
        mass = sum(weights)
        if mass == 0:
            continue
        m = FiniteStructure.checked(n, {}, {}, {}, weights=weights)
        # the scheme separates mass exactly 1 one threshold at a time, so
        # sample a q strictly between the mass and 1 whenever mass < 1
        qs = [Fraction(1, 2)]
        if mass < 1:
            qs.append((mass + 1) / 2)
        qs = sorted({q for q in qs if 0 < q < 1})
        assert check_probability(m, qs) == (mass == 1)
        cases += 1
    report("criterion 04 (continuity and probability)", 5, t0,
           f"boundaries exact for n <= 12; {cases} weight vectors "
           "classified exactly")


# -- 5: uniformity-norm identities --------------------------------------------------------

def test_criterion_05_gowers_identities():
    t0 = time.perf_counter()
    groups = [gowers.AbelianGroup.cyclic(n) for n in range(1, 6)]
    groups.append(gowers.AbelianGroup.from_table(
        [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]))
    rng = random.Random(55)
    cases = 0
    while cases < 200:
        grp = rng.choice(groups)
        k = rng.randint(1, 3)
        vals = [Fraction(rng.randint(-4, 4), rng.randint(1, 4))
                for _ in range(grp.n)]
        g = gowers.GridFunction.from_values(vals, 1)
        power = gowers.gowers_norm_pow(grp, g, k)
        assert power == gowers.gowers_norm_pow_subst(grp, g, k)
        assert power == gowers_cube_by_terms(grp, g, k)
        assert power >= 0
        assert g.mean() ** (2 ** k) <= power
        if k == 1:
            assert power == g.mean() ** 2
        lifted = gowers.GridFunction.from_group_function(g, k, grp)
        assert gowers.gowers_box_pow(lifted) == power
        assert gowers.inner_product(lifted, gowers.dual_function(lifted)) == power
        if k == 2 and grp.n <= 3:
            cyl = {frozenset({axis}): _cylinder_lift(grp.n, axis,
                                                     rng.randrange(1 << grp.n))
                   for axis in (0, 1)}
            restricted, full = box_multiplication_check(lifted, cyl)
            assert 0 <= restricted <= full == power
        cases += 1
    report("criterion 05 (uniformity-norm identities)", 120, t0,
           f"{cases} (group, values, degree) cases, all identities exact")


def _cylinder_lift(n, axis, chosen):
    """Bitset over the n x n grid of {(x, y) : coordinate ``axis`` in chosen}."""
    bits = 0
    for idx in range(n * n):
        coord = (idx // n, idx % n)[axis]
        if chosen >> coord & 1:
            bits |= 1 << idx
    return bits


# -- 6: positivity matches cylinder correlation, exhaustively -------------------------------

def test_criterion_06_positivity_exhaustive():
    t0 = time.perf_counter()
    counts = []
    for arity in (2, 3):
        total = 0
        for vals in itertools.product((1, -1), repeat=2 ** arity):
            f = gowers.GridFunction.from_values(list(vals), arity)
            positive, correlates = gowers.positivity_criterion(f)
            assert correlates != "unknown"
            assert positive == correlates
            total += 1
        counts.append(total)
    assert counts == [16, 256]
    report("criterion 06 (positivity criterion)", 30, t0,
           "norm power > 0 iff some cylinder-atom correlation != 0 "
           "for all 16 + 256 sign functions")


# -- 7: regularity partitions on random graphs ----------------------------------------------

def test_criterion_07_regularity_partitions():
    t0 = time.perf_counter()
    rng = random.Random(77)
    done = 0
    for trial in range(20):
        n = rng.randint(12, 20)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < rng.choice((0.3, 0.5, 0.7))]
        g = regularity.Graph.from_edges(n, edges)
        eps = (Fraction(1, 3), Fraction(1, 4))[trial % 2]
        res = regularity.regularity_partition(g, eps, k_max=64)
        assert res.status == "regular"
        assert res.irregular_mass <= eps * n * n
        for i, j, w in res.irregular_pairs:
            assert regularity.validate_witness(
                g, res.parts[i], res.parts[j], eps, w)
        for a, b in zip(res.energy_log, res.energy_log[1:]):
            assert b - a >= eps ** 5 / 16
        done += 1
    report("criterion 07 (regularity partitions)", 300, t0,
           f"{done} graphs partitioned; masses within bound, "
           "witnesses re-validated, energy increments certified")


# -- 8: pattern removal ------------------------------------------------------------------------

def test_criterion_08_removal():
    t0 = time.perf_counter()
    tri = regularity.Hypergraph.from_edges(3, 2, [(0, 1), (1, 2), (0, 2)])
    r1 = regularity.remove_copies(tri, tri)
    assert len(r1.removed) == 1 and r1.copies_after == 0
    two = regularity.Hypergraph.from_edges(
        6, 2, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    r2 = regularity.remove_copies(tri, two)
    assert len(r2.removed) == 2 and r2.copies_after == 0
    rng = random.Random(8)
    hosts = 0
    for _ in range(12):
        n = rng.randint(4, 12)
        edges = [e for e in itertools.combinations(range(n), 2)
                 if rng.random() < 0.4]
        host = regularity.Hypergraph.from_edges(n, 2, edges)
        res = regularity.remove_copies(tri, host)
        assert res.copies_after == 0
        hosts += 1
    report("criterion 08 (pattern removal)", 30, t0,
           f"minimum removals 1 and 2 on the two benchmarks; "
           f"zero copies left on {hosts + 2} hosts")


# -- 9: arithmetic-progression encoding ----------------------------------------------------------

def test_criterion_09_ap_encoding():
    t0 = time.perf_counter()
    checked = 0
    for n in range(1, 7):
        for bits in range(1 << n):
            a = {i + 1 for i in range(n) if bits >> i & 1}
            enc = regularity.ap_encode(a, n, 2)
            assert enc.verified, (n, sorted(a))
            assert enc.copy_ap_count == enc.direct_ap_count
            checked += 1
    assert checked == 126
    report("criterion 09 (progression encoding)", 60, t0,
           f"copy counts equal independent enumeration on all {checked} subsets")


# -- 10: limits along the cyclic family -----------------------------------------------------------

def test_criterion_10_limits():
    t0 = time.perf_counter()
    fam = limits.cyclic_family(1, 30)
    sig = fam.signature
    lm = limits.limit_measure(fam, parse_formula("x = e", sig), ("x",), 0)
    assert lm.verdict == "converged"
    assert lm.limit == 0
    assert lm.flag is VFlag.PLUS
    assert lm.le_holds is False          # m[x] <= 0 fails in the limit
    assert lm.lt_holds is False
    tp = limits.truth_profile(fam, parse_formula("m[x] <= 1/3 . x = e", sig))
    assert tp.describe() == "EventuallyTrue(3)"
    report("criterion 10 (family limits)", 5, t0,
           "limit 0 with flag ⊕ rejects m<=0; profile EventuallyTrue(3)")


# -- 11: cyclic vs plain window densities ----------------------------------------------------------

def test_criterion_11_furstenberg_bound():
    t0 = time.perf_counter()
    rng = random.Random(11)
    done = 0
    for _ in range(100):
        n_hi = rng.randint(20, 200)
        e = sorted(rng.sample(range(1, n_hi + 1), rng.randint(0, n_hi // 3)))
        size = rng.randint(1, 4)
        shifts = sorted(rng.sample(range(0, 11), size))
        cyc, plain, bound = limits.furstenberg_check(e, n_hi, shifts)
        assert bound == Fraction(max(shifts), n_hi)
        assert abs(cyc - plain) <= bound
        done += 1
    report("criterion 11 (wraparound bound)", 10, t0,
           f"{done} random instances within max(U)/N exactly")


# -- 12: parser round trips and error spans ----------------------------------------------------------

BAD_FORMULAE = [
    "P(", "forall. P(x)", "m[x,x] < 1. P(x)", "m[x] < . P(x)", "R(x)",
    "P(x) &", "m[x] < -1 . P(x)", "(P(x)", "x =", "m[] < 1 . P(x)",
    "exists . P(x)", "m[x] ? 1 . P(x)",
]


def test_criterion_12_parser_round_trip():
    t0 = time.perf_counter()
    rng = random.Random(12)
    sig = SIG
    done = 0
    for _ in range(1000):
        phi = axioms.random_formula(rng, ("x", "y"), depth=4, rank_budget=3,
                                    sig=sig)
        assert parse_formula(print_formula(phi), sig) == phi
        done += 1
    spans = 0
    for text in BAD_FORMULAE:
        try:
            parse_formula(text, sig)
            raise AssertionError(f"no error for {text!r}")
        except ParseError as ex:
            assert 0 <= ex.span.start <= ex.span.end <= len(text) + 1
            spans += 1
    report("criterion 12 (parser round trips)", 10, t0,
           f"{done} formulae stable; {spans} error paths carry spans")
