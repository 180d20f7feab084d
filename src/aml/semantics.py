"""Satisfaction for approximate measure logic on finite measured structures.

Classical connectives and quantifiers are standard.  The measure constructor
is evaluated by materializing the body's extension over the bound variables
and comparing its exact product measure against the threshold under the
approximation-flag clauses:

    m[xs] <  r . phi   holds iff  mu < r, or mu = r and flag is MINUS
    m[xs] <= r . phi   holds iff  mu < r, or mu = r and flag is not PLUS

Concrete finite structures carry flag DOT on every set, so both clauses
reduce to exact rational comparisons; the three-valued clauses are exposed in
:func:`meas_holds` so limit profiles can reuse them with PLUS/MINUS flags.

Two evaluators are provided: :func:`evaluate` (memoized per formula node and
relevant bindings, budget-metered) and :func:`naive_evaluate` (no caching at
all, recomputing every extension by full tuple enumeration — the oracle the
fast path is tested against).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .structures import DefinableSet, FiniteStructure, VFlag
from .syntax import (And, Atom, Cmp, Const, Equality, Exists, Forall, Formula, Func,
                     Implies, Meas, Not, Or, Term, Var, free_vars)


class EvalError(Exception):
    """Semantic evaluation error (unbound variable, unknown symbol, ...)."""


class BudgetExceeded(Exception):
    def __init__(self, used: int, limit: int):
        super().__init__(f"enumeration budget exceeded: {used} work units > limit {limit}")
        self.used = used
        self.limit = limit


class Budget:
    """Work-unit meter shared by every layer.  Each enumeration charges its
    size just before its loop: a measure constructor or extension n^k, a
    quantifier n, a parsed structure or graph its declared size; the other
    layers price their own loops next to them (Gowers cube terms, scanned
    windows, pattern maps, regularity subsets, family members)."""

    def __init__(self, limit: int | None = None):
        self.limit = limit
        self.used = 0

    def charge(self, units: int) -> None:
        self.used += units
        if self.limit is not None and self.used > self.limit:
            raise BudgetExceeded(self.used, self.limit)


def meas_holds(cmp: Cmp, mu: Fraction, r: Fraction, flag: VFlag) -> bool:
    """The measure-comparison clauses, including the boundary behavior driven
    by the approximation flag."""
    if mu < r:
        return True
    if mu > r:
        return False
    # mu == r: boundary decided by the flag
    if cmp is Cmp.LT:
        return flag is VFlag.MINUS
    return flag is not VFlag.PLUS


@dataclass
class MeasTraceEntry:
    vars: tuple[str, ...]
    cmp: Cmp
    threshold: Fraction
    count: int
    mu: Fraction
    flag: VFlag
    verdict: bool


class Evaluator:
    """Memoizing evaluator over one structure.

    Results are cached per (formula node, bindings of its free variables), so
    re-evaluating a subformula across enumeration loops that do not touch its
    free variables costs a dictionary lookup.  Caching never changes results —
    the naive evaluator below is the oracle for that claim.
    """

    def __init__(self, m: FiniteStructure, budget: Budget | None = None,
                 trace: list[MeasTraceEntry] | None = None):
        self.m = m
        self.budget = budget or Budget(None)
        self.trace = trace
        self._memo: dict[tuple, bool] = {}
        self._fv: dict[int, tuple[str, ...]] = {}
        self._pin: list[Formula] = []  # keep nodes alive while their id is a cache key

    def _free(self, phi: Formula) -> tuple[str, ...]:
        key = id(phi)
        got = self._fv.get(key)
        if got is None:
            got = tuple(sorted(free_vars(phi)))
            self._fv[key] = got
            self._pin.append(phi)
        return got

    def eval_term(self, t: Term, val: dict[str, int]) -> int:
        if isinstance(t, Var):
            try:
                return val[t.name]
            except KeyError:
                raise EvalError(f"unbound variable {t.name!r}") from None
        if isinstance(t, Const):
            try:
                return self.m.constants[t.name]
            except KeyError:
                raise EvalError(f"unknown constant {t.name!r}") from None
        if isinstance(t, Func):
            if t.name not in self.m.functions:
                raise EvalError(f"unknown function {t.name!r}")
            args = tuple(self.eval_term(a, val) for a in t.args)
            arity = self.m.functions[t.name][0]
            if len(args) != arity:
                raise EvalError(f"function {t.name!r} expects {arity} arguments")
            return self.m.apply_function(t.name, args)
        raise EvalError(f"not a term: {t!r}")

    def eval(self, phi: Formula, val: dict[str, int]) -> bool:
        if isinstance(phi, Equality):
            return self.eval_term(phi.left, val) == self.eval_term(phi.right, val)
        if isinstance(phi, Atom):
            if phi.name not in self.m.relations:
                raise EvalError(f"unknown relation {phi.name!r}")
            args = tuple(self.eval_term(a, val) for a in phi.args)
            if len(args) != self.m.relations[phi.name][0]:
                raise EvalError(f"relation {phi.name!r} arity mismatch")
            return self.m.holds_relation(phi.name, args)
        if isinstance(phi, Not):
            return not self.eval(phi.body, val)
        if isinstance(phi, And):
            return self.eval(phi.left, val) and self.eval(phi.right, val)
        if isinstance(phi, Or):
            return self.eval(phi.left, val) or self.eval(phi.right, val)
        if isinstance(phi, Implies):
            return not self.eval(phi.left, val) or self.eval(phi.right, val)
        if isinstance(phi, (Forall, Exists)):
            fv = self._free(phi)
            key = (id(phi),) + tuple(val[v] for v in fv)
            got = self._memo.get(key)
            if got is not None:
                return got
            self.budget.charge(self.m.n)
            inner = dict(val)
            result = isinstance(phi, Forall)
            for a in range(self.m.n):
                inner[phi.var] = a
                r = self.eval(phi.body, inner)
                if isinstance(phi, Forall):
                    if not r:
                        result = False
                        break
                else:
                    if r:
                        result = True
                        break
            self._memo[key] = result
            return result
        if isinstance(phi, Meas):
            fv = self._free(phi)
            key = (id(phi),) + tuple(val[v] for v in fv)
            got = self._memo.get(key)
            if got is not None:
                if self.trace is None:
                    return got
                # fall through so traces stay complete
            mu = self._measure_of_body(phi, val)
            verdict = meas_holds(phi.cmp, mu, phi.threshold, VFlag.DOT)
            self._memo[key] = verdict
            return verdict
        raise EvalError(f"not a formula: {phi!r}")

    def _measure_of_body(self, phi: Meas, val: dict[str, int]) -> Fraction:
        k = len(phi.vars)
        self.budget.charge(self.m.n ** k)
        inner = dict(val)
        w0 = self.m.uniform_weight
        count = 0
        mu = Fraction(0)
        for tup in itertools.product(range(self.m.n), repeat=k):
            for v, a in zip(phi.vars, tup):
                inner[v] = a
            if self.eval(phi.body, inner):
                count += 1
                if w0 is None:
                    prod = Fraction(1)
                    for a in tup:
                        prod *= self.m.weights[a]
                    mu += prod
        if w0 is not None:
            mu = count * w0 ** k
        if self.trace is not None:
            self.trace.append(MeasTraceEntry(phi.vars, phi.cmp, phi.threshold, count, mu,
                                             VFlag.DOT,
                                             meas_holds(phi.cmp, mu, phi.threshold, VFlag.DOT)))
        return mu


def evaluate(m: FiniteStructure, phi: Formula, val: dict[str, int] | None = None,
             budget: Budget | None = None,
             trace: list[MeasTraceEntry] | None = None) -> bool:
    """Evaluate ``phi`` in ``m`` under valuation ``val`` (must cover the free
    variables)."""
    ev = Evaluator(m, budget, trace)
    missing = free_vars(phi) - set(val or {})
    if missing:
        raise EvalError(f"unbound free variables: {sorted(missing)}")
    return ev.eval(phi, dict(val or {}))


def extension(m: FiniteStructure, phi: Formula, xs: tuple[str, ...],
              params: dict[str, int] | None = None,
              budget: Budget | None = None) -> DefinableSet:
    """The definable set {a in M^|xs| : phi holds with xs := a}, with the
    remaining free variables read from ``params``."""
    xs = tuple(xs)
    if len(set(xs)) != len(xs):
        raise EvalError(f"extension variables must be distinct, got {xs}")
    params = dict(params or {})
    missing = free_vars(phi) - set(xs) - set(params)
    if missing:
        raise EvalError(f"unbound free variables: {sorted(missing)}")
    ev = Evaluator(m, budget)
    ev.budget.charge(m.n ** len(xs))
    bits = 0
    idx = 0
    val = dict(params)
    for tup in itertools.product(range(m.n), repeat=len(xs)):
        for v, a in zip(xs, tup):
            val[v] = a
        if ev.eval(phi, val):
            bits |= 1 << idx
        idx += 1
    return DefinableSet(m, len(xs), bits)


# ---------------------------------------------------------------------------
# Independent oracle: no memoization, no sharing, full re-enumeration.


def naive_evaluate(m: FiniteStructure, phi: Formula, val: dict[str, int] | None = None) -> bool:
    val = dict(val or {})

    def term(t: Term) -> int:
        if isinstance(t, Var):
            if t.name not in val:
                raise EvalError(f"unbound variable {t.name!r}")
            return val[t.name]
        if isinstance(t, Const):
            if t.name not in m.constants:
                raise EvalError(f"unknown constant {t.name!r}")
            return m.constants[t.name]
        if isinstance(t, Func):
            return m.apply_function(t.name, tuple(term(a) for a in t.args))
        raise EvalError(f"not a term: {t!r}")

    if isinstance(phi, Equality):
        return term(phi.left) == term(phi.right)
    if isinstance(phi, Atom):
        return m.holds_relation(phi.name, tuple(term(a) for a in phi.args))
    if isinstance(phi, Not):
        return not naive_evaluate(m, phi.body, val)
    if isinstance(phi, And):
        return naive_evaluate(m, phi.left, val) and naive_evaluate(m, phi.right, val)
    if isinstance(phi, Or):
        return naive_evaluate(m, phi.left, val) or naive_evaluate(m, phi.right, val)
    if isinstance(phi, Implies):
        return (not naive_evaluate(m, phi.left, val)) or naive_evaluate(m, phi.right, val)
    if isinstance(phi, Forall):
        return all(naive_evaluate(m, phi.body, {**val, phi.var: a}) for a in range(m.n))
    if isinstance(phi, Exists):
        return any(naive_evaluate(m, phi.body, {**val, phi.var: a}) for a in range(m.n))
    if isinstance(phi, Meas):
        mu = Fraction(0)
        for tup in itertools.product(range(m.n), repeat=len(phi.vars)):
            inner = dict(val)
            for v, a in zip(phi.vars, tup):
                inner[v] = a
            if naive_evaluate(m, phi.body, inner):
                prod = Fraction(1)
                for a in tup:
                    prod *= m.weights[a]
                mu += prod
        return meas_holds(phi.cmp, mu, phi.threshold, VFlag.DOT)
    raise EvalError(f"not a formula: {phi!r}")


# ---------------------------------------------------------------------------
# Sentence schemes for measure-theoretic properties of the unary measure.


def continuity_sentence(q: Fraction) -> Formula:
    """forall x . m[y] <= q . (x = y) — every point has measure at most q."""
    return Forall("x", Meas(("y",), Cmp.LE, Fraction(q), Equality(Var("x"), Var("y"))))


def check_continuity(m: FiniteStructure, q) -> bool:
    """Truth of ``forall x . m[y] <= q . (x = y)`` for a single rational
    q > 0.  For normalized counting measure on n elements this holds exactly
    when q >= 1/n."""
    q = Fraction(q)
    if q <= 0:
        raise ValueError("continuity threshold must be positive")
    return evaluate(m, continuity_sentence(q))


def check_probability(m: FiniteStructure, qs) -> bool:
    """Truth of the probability scheme: m[x] <= 1 . (x = x) together with
    ~(m[x] <= q . (x = x)) for each supplied q in (0,1).  On finite
    structures with enough q samples this pins mu(M) = 1; it is exactly
    equivalent when the qs include values arbitrarily close to 1."""
    full = Equality(Var("x"), Var("x"))
    if not evaluate(m, Meas(("x",), Cmp.LE, Fraction(1), full)):
        return False
    for q in qs:
        q = Fraction(q)
        if not 0 < q < 1:
            raise ValueError(f"probability scheme thresholds must lie in (0,1), got {q}")
        if not evaluate(m, Not(Meas(("x",), Cmp.LE, q, full))):
            return False
    return True
