"""Naive oracles the fast paths are tested against.

``naive_evaluate`` is the reference for the set-at-a-time evaluator: no
memoization and no sharing, every connective recurses, every binder
re-enumerates its tuples, and every measure sums one Fraction product weight
per satisfying tuple.  ``degree_certificate_by_scan`` and
``partition_energy_by_fractions`` are the references for the regularity
certificate and the partition energy: each sums its terms one by one.
"""

import itertools
from fractions import Fraction

from aml.regularity import Graph
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


def degree_certificate_by_scan(g: Graph, u, v, d_base: Fraction, eps: Fraction,
                               m_min_u: int, m_min_v: int) -> bool:
    """The degree-sequence certificate of ``aml.regularity`` with every
    (s, t) cell's bounds summed over the sorted degrees, O(|U| + |V|) a cell."""
    a, b = len(u), len(v)
    mask_u, mask_v = sum(1 << x for x in u), sum(1 << y for y in v)
    rows = sorted((g.degree_into(x, mask_v) for x in u), reverse=True)
    cols = sorted((g.degree_into(y, mask_u) for y in v), reverse=True)
    for s in range(m_min_u, a + 1):
        for t in range(m_min_v, b + 1):
            top = min(sum(min(r, t) for r in rows[:s]), sum(min(c, s) for c in cols[:t]))
            bottom = max(sum(max(0, r - b + t) for r in rows[a - s:]),
                         sum(max(0, c - a + s) for c in cols[b - t:]))
            cells = s * t
            if max(Fraction(top, cells) - d_base, d_base - Fraction(bottom, cells)) >= eps:
                return False
    return True


def partition_energy_by_fractions(g: Graph, parts) -> Fraction:
    """Sum over ordered part pairs (i, j), including i = j, of
    (|U_i||U_j| / n^2) · d(U_i, U_j)^2, one Fraction term per pair."""
    parts = [tuple(p) for p in parts]
    masks = [sum(1 << x for x in p) for p in parts]
    total = Fraction(0)
    for p in parts:
        for q, mask in zip(parts, masks):
            e = sum(g.degree_into(x, mask) for x in p)
            total += Fraction(e * e, len(p) * len(q) * g.n * g.n)
    return total
