"""The naive oracle the set-at-a-time evaluator is tested against.

No memoization and no sharing: every connective recurses, every binder
re-enumerates its tuples, and every measure sums one Fraction product weight
per satisfying tuple.
"""

import itertools
from fractions import Fraction

from aml.semantics import EvalError, meas_holds
from aml.structures import FiniteStructure, VFlag, tuple_index
from aml.syntax import (And, Atom, Const, Equality, Exists, Forall, Formula, Func, Implies,
                        Meas, Not, Or, Term, Var)


def naive_evaluate(m: FiniteStructure, phi: Formula, val: dict[str, int] | None = None) -> bool:
    """Truth of ``phi`` in ``m`` under ``val``, walking the formula once per
    tuple and recomputing every measure by full tuple enumeration."""
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
            return m.functions[t.name][1][tuple_index([term(a) for a in t.args], m.n)]
        raise EvalError(f"not a term: {t!r}")

    if isinstance(phi, Equality):
        return term(phi.left) == term(phi.right)
    if isinstance(phi, Atom):
        return tuple(term(a) for a in phi.args) in m.relations[phi.name][1]
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
