"""Axiom schemes for the measure constructor, and empirical soundness checks.

Scheme groups:

  AML - emptyset-a/b, comparability-a/b, coherence-a/b, additivity-a/b/c/d,
        product-a/b/c/d: the core laws of a finitely additive product measure.
  I   - perm invariance: measure bounds survive permuting the bound tuple.
  F   - iterated-integration bounds (if fibers are bounded below/above, the
        product set is): the two threshold-gap forms (t < qr / qr < t).
  F+  - the boundary completions of F at threshold exactly qr.

Every scheme is one row of SCHEMES: its group, the shape of its bound tuples,
the formulas and rationals it reads, the rationals that must be positive, and
its law.  `instantiate` substitutes formulae and rationals into a row,
validates the side conditions, and returns the law's matrix with its free
parameters, whose universal closure is the instance's sentence;
`generate_instances` draws the substitutions.

Side conditions.  Some come written into the law itself (coherence-b needs
t < t'; f-a needs t < qr; f-b needs qr < t).  Others are required for the
law to hold on finite product-measure structures, where all flags are exact:
product-b and product-d need t > 0, f+-b needs q > 0, f+-c needs r > 0,
f+-e needs q > 0 and r > 0, and f+-f needs r > 0 — each has a zero-threshold
counterexample otherwise (e.g. product-b with t = 0: the antecedent
m[x] <= 0 . phi is satisfiable with an empty extension, but the consequent
m[x,y] < 0 . (phi & psi) can never hold).  `instantiate` rejects violations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .semantics import Budget, Evaluator
from .structures import FiniteStructure, index_tuple
from .syntax import (AbbrevCmp, And, Atom, Cmp, Const, Equality, Forall, Formula, Func,
                     Implies, Meas, Not, Or, Signature, Term, Var, expand_abbrev, free_vars)


class SideConditionError(ValueError):
    """A scheme's side condition was violated at instantiation time."""


@dataclass(frozen=True)
class SchemeInstance:
    scheme: str
    matrix: Formula                 # the law with parameters still free
    param_vars: tuple[str, ...]     # z-bar: the universally closed parameters
    params: dict[str, Fraction] = field(default_factory=dict)

    @property
    def sentence(self) -> Formula:
        """The universal closure of the matrix over ``param_vars``."""
        return _forall(self.param_vars, self.matrix)

    def describe(self) -> str:
        from .parser import print_formula
        rats = ", ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.scheme}[{rats}]: {print_formula(self.sentence)}"


ZERO = Fraction(0)


def _forall(vars: tuple[str, ...], body: Formula) -> Formula:
    for v in reversed(vars):
        body = Forall(v, body)
    return body


def _need(cond: bool, scheme: str, reason: str) -> None:
    if not cond:
        raise SideConditionError(f"{scheme}: {reason}")


def _m(xs: tuple[str, ...], op: str, bound: Fraction, body: Formula) -> Formula:
    """m[xs] op bound . body for op among <, <=, >=, >; the last two are
    negated core forms, as syntax.expand_abbrev writes them."""
    if op == "<":
        return Meas(xs, Cmp.LT, bound, body)
    if op == "<=":
        return Meas(xs, Cmp.LE, bound, body)
    return expand_abbrev(xs, AbbrevCmp(op), bound, body)


# ---------------------------------------------------------------------------
# Laws.  Each takes (scheme name, the row's ops, xs, ys, phi, psi, then the
# row's rationals in params order) and returns the matrix, checking the side
# conditions written into the law itself.


def _emptyset(name, ops, xs, ys, phi, psi):
    x1 = Var(xs[0])
    return _m(xs, ops[0], ZERO, Not(Equality(x1, x1)))


def _comparability(name, ops, xs, ys, phi, psi, t):
    _need(t >= 0, name, "threshold must be nonnegative")
    return Implies(_forall(xs, Implies(phi, psi)),
                   Implies(_m(xs, ops[0], t, psi), _m(xs, ops[0], t, phi)))


def _coherence(name, ops, xs, ys, phi, psi, t, t2=None):
    if t2 is None:  # coherence-a bounds phi by t twice
        t2 = t
    else:
        _need(t < t2, name, f"needs t < t', got t={t}, t'={t2}")
    return Implies(_m(xs, ops[0], t, phi), _m(xs, ops[1], t2, phi))


def _additivity(name, ops, xs, ys, phi, psi, t, t2):
    antecedent = And(_m(xs, ops[0], t, phi), _m(xs, ops[1], t2, psi))
    if ops[0] == ">=":  # lower bounds add up over disjoint extensions only
        antecedent = And(antecedent, _m(xs, "<=", ZERO, And(phi, psi)))
    return Implies(antecedent, _m(xs, ops[2], t + t2, Or(phi, psi)))


def _product(name, ops, xs, ys, phi, psi, t, t2):
    return Implies(And(_m(xs, ops[0], t, phi), _m(ys, ops[1], t2, psi)),
                   _m(xs + ys, ops[2], t * t2, And(phi, psi)))


def _perm(name, ops, xs, ys, phi, psi, t):
    # ys is xs permuted by sigma
    return Implies(_m(xs, ops[0], t, phi), _m(ys, ops[0], t, phi))


def _fubini(name, ops, xs, ys, phi, psi, q, r, t=None):
    """(forall xs (psi -> m[ys] ops[0] r . phi) & m[xs] ops[1] q . psi)
       -> m[xs,ys] ops[2] bound . (phi & psi).

    The boundary forms bound by qr; a gap form by its threshold t, which a
    lower bound needs below qr and an upper bound above it."""
    if t is None:
        bound = q * r
    elif ops[2] == ">":
        _need(t < q * r, name, f"needs t < qr, got t={t}, qr={q * r}")
        bound = t
    else:
        _need(q * r < t, name, f"needs qr < t, got t={t}, qr={q * r}")
        bound = t
    fiber = _m(ys, ops[0], r, phi)
    return Implies(And(_forall(xs, Implies(psi, fiber)), _m(xs, ops[1], q, psi)),
                   _m(xs + ys, ops[2], bound, And(phi, psi)))


# ---------------------------------------------------------------------------
# The scheme table

# Shapes of the bound tuples: ONE is a tuple xs; PERM is xs and its
# permutation by sigma; PRODUCT is disjoint xs and ys with phi over xs and psi
# over ys; FUBINI is disjoint xs and ys with psi free of ys.
ONE, PERM, PRODUCT, FUBINI = "one", "perm", "product", "fubini"

# The keyword argument of `instantiate` that carries each recorded rational.
_KWARG = {"t": "t", "t'": "t2", "q": "q", "r": "r"}


@dataclass(frozen=True)
class Scheme:
    """One axiom scheme, as both `instantiate` and `generate_instances` read it."""

    group: str
    shape: str
    formulas: tuple[str, ...]   # the formulas the law reads
    params: tuple[str, ...]     # the rationals the law reads, recorded in `params`
    positive: tuple[str, ...]   # rationals that must be > 0 on exact-measure structures
    law: Callable[..., Formula]
    ops: tuple[str, ...]        # the law's comparisons, in the order it makes them
    given: str = ""             # a gap form's threshold: the last of params, no default


PHI, BOTH = ("phi",), ("phi", "psi")

SCHEMES: dict[str, Scheme] = {
    "emptyset-a": Scheme("AML", ONE, (), (), (), _emptyset, ("<=",)),
    "emptyset-b": Scheme("AML", ONE, (), (), (), _emptyset, (">=",)),
    "comparability-a": Scheme("AML", ONE, BOTH, ("t",), (), _comparability, ("<",)),
    "comparability-b": Scheme("AML", ONE, BOTH, ("t",), (), _comparability, ("<=",)),
    "coherence-a": Scheme("AML", ONE, PHI, ("t",), (), _coherence, ("<", "<=")),
    "coherence-b": Scheme("AML", ONE, PHI, ("t", "t'"), (), _coherence, ("<=", "<"),
                          given="t'"),
    "additivity-a": Scheme("AML", ONE, BOTH, ("t", "t'"), (), _additivity, ("<=", "<=", "<=")),
    "additivity-b": Scheme("AML", ONE, BOTH, ("t", "t'"), (), _additivity, ("<=", "<", "<")),
    "additivity-c": Scheme("AML", ONE, BOTH, ("t", "t'"), (), _additivity, (">=", ">=", ">=")),
    "additivity-d": Scheme("AML", ONE, BOTH, ("t", "t'"), (), _additivity, (">=", ">", ">")),
    "product-a": Scheme("AML", PRODUCT, BOTH, ("t", "t'"), (), _product, ("<=", "<=", "<=")),
    "product-b": Scheme("AML", PRODUCT, BOTH, ("t", "t'"), ("t",), _product, ("<=", "<", "<")),
    "product-c": Scheme("AML", PRODUCT, BOTH, ("t", "t'"), (), _product, (">=", ">=", ">=")),
    "product-d": Scheme("AML", PRODUCT, BOTH, ("t", "t'"), ("t",), _product, (">=", ">", ">")),
    "perm-a": Scheme("I", PERM, PHI, ("t",), (), _perm, ("<=",)),
    "perm-b": Scheme("I", PERM, PHI, ("t",), (), _perm, ("<",)),
    "f-a": Scheme("F", FUBINI, BOTH, ("q", "r", "t"), (), _fubini, (">=", ">=", ">"), given="t"),
    "f-b": Scheme("F", FUBINI, BOTH, ("q", "r", "t"), (), _fubini, ("<=", "<=", "<"), given="t"),
    "f+-a": Scheme("F+", FUBINI, BOTH, ("q", "r"), (), _fubini, (">=", ">=", ">=")),
    "f+-b": Scheme("F+", FUBINI, BOTH, ("q", "r"), ("q",), _fubini, (">", ">=", ">")),
    "f+-c": Scheme("F+", FUBINI, BOTH, ("q", "r"), ("r",), _fubini, (">=", ">", ">")),
    "f+-d": Scheme("F+", FUBINI, BOTH, ("q", "r"), (), _fubini, ("<=", "<=", "<=")),
    "f+-e": Scheme("F+", FUBINI, BOTH, ("q", "r"), ("q", "r"), _fubini, ("<", "<=", "<")),
    "f+-f": Scheme("F+", FUBINI, BOTH, ("q", "r"), ("r",), _fubini, ("<=", "<", "<")),
}

GROUPS: dict[str, tuple[str, ...]] = {
    group: tuple(name for name, s in SCHEMES.items() if s.group == group)
    for group in dict.fromkeys(s.group for s in SCHEMES.values())}

ALL_SCHEMES = tuple(SCHEMES)


def instantiate(scheme: str, *, xs=None, ys=("y",), phi=None, psi=None, sigma=None,
                **rationals) -> SchemeInstance:
    """Build a closed instance of the named scheme.

    Rationals arrive as keywords t, t2 (recorded as t'), q and r, as anything
    Fraction-convertible; those the scheme reads default to 0, except a gap
    form's threshold.  Raises SideConditionError when a rational or variable
    side condition is violated, ValueError for unknown scheme names.
    """
    s = SCHEMES.get(scheme)
    if s is None:
        raise ValueError(f"unknown scheme {scheme!r}; known: {', '.join(sorted(SCHEMES))}")
    rats = [rationals.get(_KWARG[p]) if p == s.given else Fraction(rationals.get(_KWARG[p], 0))
            for p in s.params]
    xs = (("x", "y") if s.shape == PERM else ("x",)) if xs is None else tuple(xs)
    _need(len(set(xs)) == len(xs) and xs != (), scheme, "bound variables must be distinct")
    if s.shape == PERM:
        _need(sigma is not None and sorted(sigma) == list(range(len(xs))), scheme,
              f"sigma must be a permutation of 0..{len(xs) - 1}")
        ys = tuple(xs[i] for i in sigma)
    elif s.shape != ONE:
        ys = tuple(ys)
        _need(len(set(ys)) == len(ys) and ys != (), scheme, "bound variables must be distinct")
        _need(not set(xs) & set(ys), scheme, "the two bound tuples must be disjoint")
        if s.shape == FUBINI:
            _need(psi is None or not free_vars(psi) & set(ys), scheme,
                  "psi may not contain variables from the second bound tuple")
        elif phi is not None and psi is not None:
            _need(not free_vars(phi) & set(ys), scheme,
                  "phi may only use the first bound tuple and parameters")
            _need(not free_vars(psi) & set(xs), scheme,
                  "psi may only use the second bound tuple and parameters")
    if s.given:
        _need(rats[-1] is not None, scheme, f"needs an explicit threshold {s.given}")
        rats[-1] = Fraction(rats[-1])
    params = dict(zip(s.params, rats))
    if not all(params[p] > 0 for p in s.positive):
        raise SideConditionError(
            f"{scheme}: needs {' and '.join(f'{p} > 0' for p in s.positive)} on "
            f"exact-measure structures, got {', '.join(f'{p}={params[p]}' for p in s.positive)}")
    matrix = s.law(scheme, s.ops, xs, ys, phi, psi, *rats)
    zs = tuple(sorted(free_vars(matrix)))
    return SchemeInstance(scheme, matrix, zs, params)


# ---------------------------------------------------------------------------
# Soundness checking


@dataclass(frozen=True)
class SoundnessResult:
    instance: SchemeInstance
    holds: bool
    witness: dict[str, int] | None  # a falsifying parameter valuation, if any


def check_instance(ev: Evaluator, inst: SchemeInstance) -> SoundnessResult:
    """Table the instance's matrix over its parameter valuations in ``ev``'s
    structure, charged n^k first as an extension is; on failure, the first
    falsifying valuation in lexicographic order is the witness."""
    m = ev.m
    k = len(inst.param_vars)
    ev.budget.charge(m.n ** k)
    bits = ev.table(inst.matrix, inst.param_vars, {})
    if bits == (1 << m.n ** k) - 1:
        return SoundnessResult(inst, True, None)
    first = (~bits & (bits + 1)).bit_length() - 1  # the lowest clear bit
    return SoundnessResult(inst, False, dict(zip(inst.param_vars, index_tuple(first, m.n, k))))


def check_soundness(m: FiniteStructure, instances,
                    budget: Budget | None = None) -> tuple[SoundnessResult, ...]:
    """Each instance's result in ``m``, checked through one evaluator, so an
    atom tabled for one instance is reused by the next (see Evaluator)."""
    ev = Evaluator(m, budget)
    return tuple(check_instance(ev, inst) for inst in instances)


# ---------------------------------------------------------------------------
# Seeded random generation of formulae and instances

# The default signature of random formulae: constant e, unary function f,
# unary relation P and binary relation R.
TEST_SIGNATURE = Signature(constants=("e",), functions=(("f", 1),),
                           relations=(("P", 1), ("R", 2)))


# What random_formula's nodes are drawn from: atoms alone at depth 0, measures
# only while the rank budget lasts, at twice the weight of each connective.
_ATOMS_ONLY = ("atom",)
_CONNECTIVES = _ATOMS_ONLY + ("not", "and", "or", "implies")
_WITH_MEASURES = _CONNECTIVES + ("meas", "meas")
_BINARY = {"and": And, "or": Or, "implies": Implies}
DENOM_MAX = 12   # the largest denominator of a generated rational


def random_formula(rng: random.Random, vars_allowed: tuple[str, ...], depth: int = 2,
                   rank_budget: int = 1, sig: Signature = TEST_SIGNATURE) -> Formula:
    """A random formula over the given signature with free variables among
    ``vars_allowed``, connective depth <= depth, measure-nesting <= rank_budget."""
    if not vars_allowed and not sig.constants:
        raise ValueError("need a variable or a constant to build terms")
    return _random_node(rng, sig, tuple(vars_allowed), depth, rank_budget)


def _random_term(rng: random.Random, sig: Signature, vars_now: tuple[str, ...],
                 fuel: int = 1) -> Term:
    constants, functions = sig.constants, sig.functions
    v = rng.random()
    if vars_now and (v < 0.6 or (not constants and (not functions or fuel == 0))):
        return Var(rng.choice(vars_now))
    if constants and (v < 0.8 or not functions or fuel == 0):
        return Const(rng.choice(constants))
    if functions and fuel > 0:
        name, arity = rng.choice(functions)
        return Func(name, tuple(_random_term(rng, sig, vars_now, fuel - 1) for _ in range(arity)))
    return Var(rng.choice(vars_now)) if vars_now else Const(constants[0])


def _random_node(rng: random.Random, sig: Signature, vars_now: tuple[str, ...], d: int,
                 rk: int) -> Formula:
    """A random subformula of connective depth <= d and measure-nesting <= rk."""
    pick = rng.choice(_ATOMS_ONLY if d <= 0 else _WITH_MEASURES if rk > 0 else _CONNECTIVES)
    if pick == "atom":
        chosen = rng.choice((None,) + sig.relations)  # None: an equality
        if chosen is None:
            return Equality(_random_term(rng, sig, vars_now), _random_term(rng, sig, vars_now))
        return Atom(chosen[0], tuple(_random_term(rng, sig, vars_now) for _ in range(chosen[1])))
    if pick == "not":
        return Not(_random_node(rng, sig, vars_now, d - 1, rk))
    if pick != "meas":
        left = _random_node(rng, sig, vars_now, d - 1, rk)
        right = _random_node(rng, sig, vars_now, d - 1, rk)
        return _BINARY[pick](left, right)
    fresh = f"w{rng.randint(0, 999)}"
    while fresh in vars_now:
        fresh = f"w{rng.randint(0, 999)}"
    body = _random_node(rng, sig, vars_now + (fresh,), d - 1, rk - 1)
    cmp = rng.choice((Cmp.LT, Cmp.LE))
    thr = Fraction(rng.randint(0, 12), rng.randint(1, 12))
    return Meas((fresh,), cmp, thr, body)


def _rand_rational(rng: random.Random, positive: bool = False) -> Fraction:
    den = rng.randint(1, DENOM_MAX)
    lo = 1 if positive else 0
    return Fraction(rng.randint(lo, 2 * den), den)


def generate_instances(seed: int, count: int, schemes=ALL_SCHEMES,
                       sig: Signature = TEST_SIGNATURE,
                       budget: Budget | None = None) -> list[SchemeInstance]:
    """Seeded stream of valid scheme instances over the given signature.

    Formulae have depth <= 3 and measure-nesting rank <= 2 (counting the
    scheme's own constructor); rationals are drawn with denominators <=
    DENOM_MAX, steered onto each scheme's side conditions, and include
    boundary values (zero thresholds where legal, t = qr +- 1/DENOM_MAX).
    Charges ``budget`` max(1, the widest function arity) units per instance
    before generating any, since a generated term has up to that many
    arguments."""
    rng = random.Random(seed)
    schemes = tuple(schemes)
    (budget or Budget()).charge(count * max([1, *(a for _, a in sig.functions)]))
    out: list[SchemeInstance] = []
    while len(out) < count:
        scheme = schemes[len(out) % len(schemes)] if rng.random() < 0.5 else rng.choice(schemes)
        s = SCHEMES[scheme]
        xs = ("x",) if rng.random() < 0.7 else ("x", "x2")
        ys = ("y",) if rng.random() < 0.8 else ("y", "y2")
        zs = ("z",) if rng.random() < 0.5 else ()
        rats = {k: _rand_rational(rng) for k in ("t", "t2", "q", "r")}
        sigma = phi = psi = None
        if s.shape == PERM:
            xs = ("x", "x2") if len(xs) == 1 else xs
            order = list(range(len(xs)))
            rng.shuffle(order)
            sigma = tuple(order)
        if "phi" in s.formulas:
            phi = random_formula(rng, (xs + ys if s.shape == FUBINI else xs) + zs,
                                 depth=2, rank_budget=1, sig=sig)
        # coherence-a draws a psi it does not read, as the seeded stream always has
        if "psi" in s.formulas or scheme == "coherence-a":
            psi = random_formula(rng, (ys if s.shape == PRODUCT else xs) + zs,
                                 depth=2, rank_budget=1, sig=sig)
        for p in s.positive + (("q", "r") if scheme == "f-a" else ()):  # f-a: 0 <= t < qr
            if rats[_KWARG[p]] == 0:
                rats[_KWARG[p]] = _rand_rational(rng, positive=True)
        if scheme == "coherence-b":
            rats["t2"] = rats["t"] + Fraction(rng.randint(1, DENOM_MAX), DENOM_MAX)
        elif scheme == "f-a":
            rats["t"] = max(ZERO, rats["q"] * rats["r"] - Fraction(1, DENOM_MAX))
        elif scheme == "f-b":
            rats["t"] = rats["q"] * rats["r"] + Fraction(1, DENOM_MAX)
        out.append(instantiate(scheme, xs=xs, ys=ys, phi=phi, psi=psi, sigma=sigma, **rats))
    return out
