"""Measure-law schemes: instantiation, side conditions, soundness checking."""

import dataclasses
import gc
import hashlib
import random
from fractions import Fraction

import pytest

from aml import axioms
from aml.axioms import (
    ALL_SCHEMES,
    GROUPS,
    SCHEMES,
    SchemeInstance,
    SideConditionError,
    check_instance,
    check_soundness,
    generate_instances,
    instantiate,
    random_formula,
)
from aml.parser import parse_formula, print_formula
from aml.semantics import Budget, BudgetExceeded, Evaluator, extension
from aml.structures import FiniteStructure
from aml.structures import index_tuple
from aml.syntax import Signature, free_vars, rank
from oracle import random_structure

SIG = Signature(constants=("e",), functions=(("f", 1),),
                relations=(("P", 1), ("R", 2)))

Z4 = FiniteStructure.checked(
    4,
    constants={"e": 0},
    functions={"f": (1, (1, 2, 3, 0))},
    relations={"P": (1, frozenset({(0,), (2,)})),
               "R": (2, frozenset({(0, 1), (1, 2), (2, 3)}))},
)

WEIGHTED = FiniteStructure.checked(
    3, {"e": 0}, {"f": (1, (1, 2, 0))},
    {"P": (1, frozenset({(0,), (1,)})), "R": (2, frozenset({(0, 1), (2, 2)}))},
    weights=(Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)),
)

PX = parse_formula("P(x)", SIG)
PY = parse_formula("P(y)", SIG)
RXY = parse_formula("R(x, y)", SIG)
XE = parse_formula("x = e", SIG)

# one valid kwargs set per scheme (gap laws need t on the right side of q*r)
VALID_KWARGS = {
    "emptyset-a": {},
    "emptyset-b": {},
    "comparability-a": dict(phi=PX, psi=PX, t=Fraction(1, 2)),
    "comparability-b": dict(phi=PX, psi=PX, t=Fraction(1, 2)),
    "coherence-a": dict(phi=PX, t=Fraction(1, 4)),
    "coherence-b": dict(phi=PX, t=Fraction(1, 4), t2=Fraction(1, 2)),
    "additivity-a": dict(phi=PX, psi=XE, t=Fraction(1, 4), t2=Fraction(1, 2)),
    "additivity-b": dict(phi=PX, psi=XE, t=Fraction(1, 4), t2=Fraction(1, 2)),
    "additivity-c": dict(phi=PX, psi=XE, t=Fraction(1, 4), t2=Fraction(1, 2)),
    "additivity-d": dict(phi=PX, psi=XE, t=Fraction(1, 4), t2=Fraction(1, 2)),
    "product-a": dict(xs=("x",), ys=("y",), phi=PX, psi=PY,
                      t=Fraction(1, 2), t2=Fraction(1, 2)),
    "product-b": dict(xs=("x",), ys=("y",), phi=PX, psi=PY,
                      t=Fraction(1, 2), t2=Fraction(1, 2)),
    "product-c": dict(xs=("x",), ys=("y",), phi=PX, psi=PY,
                      t=Fraction(1, 2), t2=Fraction(1, 2)),
    "product-d": dict(xs=("x",), ys=("y",), phi=PX, psi=PY,
                      t=Fraction(1, 2), t2=Fraction(1, 2)),
    "perm-a": dict(xs=("x", "y"), phi=RXY, sigma=(1, 0), t=Fraction(1, 3)),
    "perm-b": dict(xs=("x", "y"), phi=RXY, sigma=(1, 0), t=Fraction(1, 3)),
    "f-a": dict(xs=("x",), ys=("y",), phi=RXY, psi=PX,
                q=Fraction(1, 4), r=Fraction(1, 2), t=Fraction(1, 16)),
    "f-b": dict(xs=("x",), ys=("y",), phi=RXY, psi=PX,
                q=Fraction(1, 4), r=Fraction(1, 2), t=Fraction(1, 3)),
    "f+-a": dict(xs=("x",), ys=("y",), phi=RXY, psi=PX,
                 q=Fraction(1, 4), r=Fraction(1, 2)),
    "f+-b": dict(xs=("x",), ys=("y",), phi=RXY, psi=PX,
                 q=Fraction(1, 4), r=Fraction(1, 2)),
    "f+-c": dict(xs=("x",), ys=("y",), phi=RXY, psi=PX,
                 q=Fraction(1, 4), r=Fraction(1, 2)),
    "f+-d": dict(xs=("x",), ys=("y",), phi=RXY, psi=PX,
                 q=Fraction(1, 4), r=Fraction(1, 2)),
    "f+-e": dict(xs=("x",), ys=("y",), phi=RXY, psi=PX,
                 q=Fraction(1, 4), r=Fraction(1, 2)),
    "f+-f": dict(xs=("x",), ys=("y",), phi=RXY, psi=PX,
                 q=Fraction(1, 4), r=Fraction(1, 2)),
}


# -- scheme inventory -----------------------------------------------------------

def test_group_inventory():
    assert set(GROUPS) == {"AML", "I", "F", "F+"}
    assert len(ALL_SCHEMES) == 24
    assert len(set(ALL_SCHEMES)) == 24
    for name in ALL_SCHEMES:
        assert instantiate  # names are resolvable below
    # the table lists each group's schemes together, in ALL_SCHEMES order
    assert ALL_SCHEMES == tuple(SCHEMES)
    assert ALL_SCHEMES == tuple(name for group in GROUPS.values() for name in group)
    assert all(SCHEMES[name].group == group for group, names in GROUPS.items()
               for name in names)


def test_positive_rationals_are_rejected_at_zero():
    for scheme in ALL_SCHEMES:
        for p in SCHEMES[scheme].positive:
            kwargs = dict(VALID_KWARGS[scheme], **{p: 0})
            with pytest.raises(SideConditionError, match="on exact-measure structures"):
                instantiate(scheme, **kwargs)


def test_unknown_scheme_rejected():
    with pytest.raises(ValueError):
        instantiate("no-such-law")


# -- every scheme instantiates to a closed sentence -------------------------------

def test_instances_are_closed_sentences():
    assert set(VALID_KWARGS) == set(ALL_SCHEMES)
    for scheme in ALL_SCHEMES:
        inst = instantiate(scheme, **VALID_KWARGS[scheme])
        assert isinstance(inst, SchemeInstance)
        assert inst.scheme == scheme
        assert free_vars(inst.sentence) == frozenset()
        assert set(inst.param_vars) == set(free_vars(inst.matrix))
        # the sentence prints and re-parses
        text = print_formula(inst.sentence)
        assert parse_formula(text, SIG) == inst.sentence


def test_every_scheme_instance_holds_on_both_structures():
    instances = [instantiate(s, **VALID_KWARGS[s]) for s in ALL_SCHEMES]
    hold_on(Z4, instances)
    hold_on(WEIGHTED, instances)


def test_describe_mentions_scheme_and_rationals():
    inst = instantiate("coherence-b", phi=PX, t=Fraction(1, 4), t2=Fraction(1, 2))
    text = inst.describe()
    assert "coherence-b" in text
    assert "1/4" in text and "1/2" in text


# -- side conditions ---------------------------------------------------------------

def test_coherence_requires_increasing_thresholds():
    with pytest.raises(SideConditionError):
        instantiate("coherence-b", phi=PX, t=Fraction(1, 2), t2=Fraction(1, 2))
    with pytest.raises(SideConditionError):
        instantiate("coherence-b", phi=PX, t=Fraction(1, 2), t2=Fraction(1, 4))


def test_bound_tuples_must_be_distinct_and_disjoint():
    with pytest.raises(SideConditionError):
        instantiate("emptyset-a", xs=("x", "x"))
    with pytest.raises(SideConditionError):
        instantiate("product-a", xs=("x",), ys=("x",), phi=PX, psi=PX,
                    t=Fraction(1, 2), t2=Fraction(1, 2))


def test_product_side_variable_conditions():
    # psi may not mention the first bound tuple, phi may not mention the second
    with pytest.raises(SideConditionError):
        instantiate("product-a", xs=("x",), ys=("y",), phi=PY, psi=PY,
                    t=Fraction(1, 2), t2=Fraction(1, 2))
    with pytest.raises(SideConditionError):
        instantiate("product-a", xs=("x",), ys=("y",), phi=PX, psi=PX,
                    t=Fraction(1, 2), t2=Fraction(1, 2))


def test_negative_threshold_rejected():
    with pytest.raises(SideConditionError):
        instantiate("comparability-a", xs=("x",), phi=PX, psi=PX, t=Fraction(-1, 2))


# -- soundness on concrete structures -----------------------------------------------

def hold_on(m, instances):
    failures = [f"{r.instance.describe()} FAILS at {r.witness}"
                for r in check_soundness(m, instances) if not r.holds]
    assert not failures, "\n".join(failures)


def test_hand_built_instances_hold_on_counting_structure():
    instances = [
        instantiate("emptyset-a"),
        instantiate("emptyset-b"),
        instantiate("comparability-a", phi=PX, psi=PX, t=Fraction(1, 2)),
        instantiate("comparability-b", phi=PX, psi=PX, t=Fraction(1, 2)),
        instantiate("coherence-a", phi=PX, t=Fraction(1, 4)),
        instantiate("coherence-b", phi=PX, t=Fraction(1, 4), t2=Fraction(1, 2)),
        instantiate("additivity-a", phi=PX, psi=RXY, t=Fraction(1, 4), t2=Fraction(1, 2)),
        instantiate("product-a", xs=("x",), ys=("y",), phi=PX, psi=PY,
                    t=Fraction(1, 2), t2=Fraction(1, 2)),
        instantiate("perm-a", xs=("x", "y"), phi=RXY, sigma=(1, 0), t=Fraction(1, 3)),
        instantiate("f-a", xs=("x",), ys=("y",), phi=RXY, psi=PX,
                    q=Fraction(1, 4), r=Fraction(1, 2), t=Fraction(1, 16)),
    ]
    hold_on(Z4, instances)


def test_gap_laws_require_a_threshold():
    with pytest.raises(SideConditionError):
        instantiate("f-a", xs=("x",), ys=("y",), phi=RXY, psi=PX,
                    q=Fraction(1, 4), r=Fraction(1, 2))


def test_generated_instances_hold_on_weighted_structure():
    instances = generate_instances(11, 60, sig=SIG)
    hold_on(WEIGHTED, instances)


def test_generated_instances_hold_per_group():
    for group, schemes in GROUPS.items():
        instances = generate_instances(5, 24, schemes=schemes, sig=SIG)
        assert {i.scheme for i in instances} <= set(schemes)
        hold_on(Z4, instances)


def test_an_instance_holds_its_matrix_and_parameters_only():
    assert [f.name for f in dataclasses.fields(SchemeInstance)] == \
        ["scheme", "matrix", "param_vars", "params"]


def test_soundness_failure_reports_witness():
    # not a law: "P holds everywhere" — Z4 falsifies it at x=1
    bogus = SchemeInstance("bogus", PX, ("x",))
    assert bogus.sentence == parse_formula("forall x . P(x)", SIG)
    result = check_instance(Evaluator(Z4), bogus)
    assert not result.holds
    assert result.witness is not None
    assert result.witness["x"] not in Z4.relations["P"][1]
    assert check_soundness(Z4, [bogus]) == (result,)


def test_check_soundness_charges_are_pinned():
    # atoms are never charged, so sharing one evaluator per structure moves no
    # charge; a connective whose left operand decides every row charges nothing
    # for its right one
    rng = random.Random(1)
    used, weighted = [], set()
    for _ in range(6):
        m = random_structure(rng)
        budget = Budget()
        results = check_soundness(m, generate_instances(rng.randrange(1 << 32), 24, sig=SIG),
                                  budget)
        assert all(r.holds for r in results)
        used.append(budget.used)
        weighted.add(m.weights != (Fraction(1, m.n),) * m.n)
    assert weighted == {False, True}
    assert used == [651, 1756, 3612, 1839, 14958, 2290]


def test_shared_evaluator_matches_a_fresh_extension_per_instance():
    bogus = SchemeInstance("bogus", PX, ("x",))
    rng = random.Random(4)
    failed = 0
    for m in [Z4, WEIGHTED] + [random_structure(rng) for _ in range(8)]:
        instances = generate_instances(rng.randrange(1 << 32), 24, sig=SIG) + [bogus]
        for inst, got in zip(instances, check_soundness(m, instances)):
            k = len(inst.param_vars)
            bits = extension(m, inst.matrix, inst.param_vars).bits
            witness = next((dict(zip(inst.param_vars, index_tuple(i, m.n, k)))
                            for i in range(m.n ** k) if not bits >> i & 1), None)
            assert (got.holds, got.witness) == (witness is None, witness), inst.describe()
            failed += not got.holds
    assert failed


def test_check_soundness_budget_propagates():
    instances = generate_instances(3, 5, sig=SIG)
    with pytest.raises(BudgetExceeded):
        check_soundness(Z4, instances, budget=Budget(2))


# -- seeded generators ----------------------------------------------------------------

def test_generate_instances_is_deterministic():
    a = generate_instances(42, 30, sig=SIG)
    b = generate_instances(42, 30, sig=SIG)
    assert [i.describe() for i in a] == [i.describe() for i in b]
    c = generate_instances(43, 30, sig=SIG)
    assert [i.describe() for i in a] != [i.describe() for i in c]


def test_generated_stream_is_pinned():
    # any change to the generator's draws or to a law's matrix changes the digest
    h = hashlib.sha256()
    for schemes in (ALL_SCHEMES, GROUPS["AML"], GROUPS["I"], GROUPS["F"], GROUPS["F+"]):
        for seed in range(4):
            for inst in generate_instances(seed, 24, schemes=schemes, sig=SIG):
                h.update(repr((inst.describe(), inst.param_vars,
                               sorted(inst.params.items()))).encode())
    assert h.hexdigest() == "e6416061d299bcb474b2e4dbcc37ac8e3ec0480f629d4315aa711150f59a6d18"


def test_random_formula_leaves_no_reference_cycles():
    # its term and node generators are module functions, not closures that
    # refer to themselves, so a call leaves nothing for the cyclic collector
    gc.collect()
    gc.disable()
    try:
        for seed in range(5):
            random_formula(random.Random(seed), ("x", "y"), depth=3, rank_budget=2)
            assert gc.collect() == 0, seed
        generate_instances(1, 50)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_generate_instances_charges_its_count_first(monkeypatch):
    built = []
    monkeypatch.setattr(axioms, "instantiate", lambda *args, **kwargs: built.append(args))
    budget = Budget(10)
    with pytest.raises(BudgetExceeded):
        generate_instances(0, 11, sig=SIG, budget=budget)
    assert (budget.used, built) == (11, [])
    monkeypatch.undo()
    budget = Budget(10)
    assert len(generate_instances(0, 10, sig=SIG, budget=budget)) == 10
    assert budget.used == 10


def test_generate_instances_covers_all_schemes():
    instances = generate_instances(0, 200, sig=SIG)
    assert {i.scheme for i in instances} == set(ALL_SCHEMES)


def test_random_structure_shapes():
    rng = random.Random(3)
    for _ in range(40):
        m = random_structure(rng)
        assert 2 <= m.n <= 6
        assert set(m.constants) == {"e"}
        assert m.functions["f"][0] == 1
        assert m.relations["P"][0] == 1 and m.relations["R"][0] == 2


def test_random_formula_respects_signature_and_rank():
    rng = random.Random(9)
    other = Signature(constants=("c", "d"), functions=(("g", 2),),
                      relations=(("Q", 3),))
    for _ in range(60):
        phi = random_formula(rng, ("x", "y"), depth=3, rank_budget=2, sig=other)
        assert parse_formula(print_formula(phi), other) == phi
        assert rank(phi) <= 2
