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

Two evaluators are provided.  :class:`Evaluator` (behind :func:`evaluate`
and :func:`extension`) is the standard bottom-up relational-algebra model
check (Immerman, *Descriptive Complexity*, 1999): each subformula is
evaluated once, into a bitset over the assignments of the variables its
enclosing binders enumerate (a valuation's variables stay fixed), and each
measure compares an exact integer sum per fiber.  Each binder charges the
budget for its table before building it; nothing is memoized between calls.
:func:`naive_evaluate` walks the formula once per tuple with no sharing at
all and recomputes every extension by full tuple enumeration: it is the
oracle the set-at-a-time evaluator is tested against.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction

from .structures import DefinableSet, FiniteStructure, VFlag, fiber_counts, fiber_sums
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
    size just before it runs: a formula's table its number of bits (see
    :class:`Evaluator`), an extension n^k, a parsed structure or graph its
    declared size; the other layers price their own loops next to them
    (Gowers cube terms, scanned windows, pattern maps, regularity subsets,
    family members)."""

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


_ASCII01 = bytes.maketrans(b"\x00\x01", b"01")


def _bits(truths) -> int:
    """The bitset whose bit i is the i-th of ``truths``."""
    return int(bytes(truths)[::-1].translate(_ASCII01), 2)


def _repeat_blocks(digits: str, block: int, count: int) -> str:
    """Each ``block``-digit run of ``digits`` (a table written most significant
    bit first) repeated ``count`` times in place."""
    if block == 1:
        return digits.translate({48: "0" * count, 49: "1" * count})
    return "".join([digits[i:i + block] * count for i in range(0, len(digits), block)])


def _any_fiber(bits: int, width: int, fibers: int) -> int:
    """Bit j set iff some bit of ``bits`` in j*width .. (j+1)*width - 1 is set."""
    # Window ORs of power-of-two spans laid end to end cover each fiber
    # exactly, so fibers never mix; then keep every width-th bit.
    acc = offset = 0
    span, window, rest = 1, bits, width
    while rest:
        if rest & 1:
            acc |= window >> offset
            offset += span
        rest >>= 1
        if rest:
            window |= window >> span
            span *= 2
    return int(format(acc, f"0{width * fibers}b")[width - 1::width], 2)


class Evaluator:
    """Set-at-a-time evaluator over one structure.

    A subformula evaluated in a context (a tuple of distinct variables) is a
    table: an int bitset over the context's assignments, in the lexicographic
    order of ``DefinableSet``.  Atoms enumerate only their own variables and
    are broadcast to the context by block replication; connectives are bit
    operations.  A binder is tabled over its free variables (in context
    order) followed by its bound ones, so its body's fibers are contiguous
    blocks: a quantifier folds each fiber, a measure sums each fiber's
    product weights as integers.  The innermost binder of a name wins.

    Charges, made before the table is built: a quantifier n^(|free| + 1) and
    a measure over k variables n^(|free| + k), where |free| counts only the
    binder's free variables that its context enumerates.  No table has more
    bits than the charge enclosing it.  ``eval`` evaluates at the valuation:
    it tables the formula over the empty context with the valuation as the
    environment, so nothing is memoized between calls.
    """

    def __init__(self, m: FiniteStructure, budget: Budget | None = None,
                 trace: list[MeasTraceEntry] | None = None):
        self.m = m
        self.budget = budget or Budget(None)
        self.trace = trace

    def eval(self, phi: Formula, val: dict[str, int]) -> bool:
        """Whether phi holds when its free variables take the values in val."""
        free = free_vars(phi)
        missing = free - set(val)
        if missing:
            raise EvalError(f"unbound variables: {', '.join(sorted(missing))}")
        for v in sorted(free):
            if not 0 <= val[v] < self.m.n:
                raise EvalError(f"binding {v}={val[v]} outside universe 0..{self.m.n - 1}")
        return bool(self.table(phi, (), val))

    def table(self, phi: Formula, ctx: tuple[str, ...], env: dict[str, int]) -> int:
        """phi's table over ``ctx``; its other free variables read ``env``."""
        if isinstance(phi, (Equality, Atom)):
            names = free_vars(phi)
            own = tuple(v for v in ctx if v in names)
            return self._broadcast(self._atom(phi, own, env), own, ctx)
        if isinstance(phi, Not):
            return self._full(ctx) ^ self.table(phi.body, ctx, env)
        if isinstance(phi, And):
            return self.table(phi.left, ctx, env) & self.table(phi.right, ctx, env)
        if isinstance(phi, Or):
            return self.table(phi.left, ctx, env) | self.table(phi.right, ctx, env)
        if isinstance(phi, Implies):
            return (self._full(ctx) ^ self.table(phi.left, ctx, env)) \
                | self.table(phi.right, ctx, env)
        if isinstance(phi, (Forall, Exists, Meas)):
            bound = phi.vars if isinstance(phi, Meas) else (phi.var,)
            names = free_vars(phi)
            free = tuple(v for v in ctx if v in names)
            n = self.m.n
            self.budget.charge(n ** (len(free) + len(bound)))
            inner = {v: a for v, a in env.items() if v not in bound}
            body = self.table(phi.body, free + bound, inner)
            fibers = n ** len(free)
            if isinstance(phi, Meas):
                bits = self._measure(phi, body, fibers)
            elif isinstance(phi, Exists):
                bits = _any_fiber(body, n, fibers)
            else:  # forall = not exists not
                full = (1 << fibers) - 1
                bits = full ^ _any_fiber(body ^ ((1 << fibers * n) - 1), n, fibers)
            return self._broadcast(bits, free, ctx)
        raise EvalError(f"not a formula: {phi!r}")

    def _full(self, ctx: tuple[str, ...]) -> int:
        return (1 << self.m.n ** len(ctx)) - 1

    def _broadcast(self, bits: int, own: tuple[str, ...], ctx: tuple[str, ...]) -> int:
        """A table over ``own``, a subsequence of ``ctx``, as a table over
        ``ctx``: each missing variable repeats the blocks below it n times."""
        if len(own) == len(ctx):
            return bits
        n = self.m.n
        digits = format(bits, f"0{n ** len(own)}b")
        below = len(own)  # own variables after the current one
        for v in ctx:
            if v in own:
                below -= 1
            else:
                digits = _repeat_blocks(digits, n ** below, n)
        return int(digits, 2)

    def _values(self, t: Term, own: tuple[str, ...], env: dict[str, int]) -> list[int]:
        """The value of ``t`` at every assignment of ``own``, in order."""
        n = self.m.n
        size = n ** len(own)
        if isinstance(t, Var):
            if t.name in env:
                return [env[t.name]] * size
            if t.name not in own:
                raise EvalError(f"unbound variable {t.name!r}")
            run = n ** (len(own) - 1 - own.index(t.name))
            column: list[int] = []
            for a in range(n):
                column += [a] * run
            return column * (size // len(column))
        if isinstance(t, Const):
            try:
                return [self.m.constants[t.name]] * size
            except KeyError:
                raise EvalError(f"unknown constant {t.name!r}") from None
        if isinstance(t, Func):
            if t.name not in self.m.functions:
                raise EvalError(f"unknown function {t.name!r}")
            arity, results = self.m.functions[t.name]
            if len(t.args) != arity:
                raise EvalError(f"function {t.name!r} expects {arity} arguments")
            index = self._values(t.args[0], own, env)
            for a in t.args[1:]:
                index = [i * n + b for i, b in zip(index, self._values(a, own, env))]
            return list(map(results.__getitem__, index))
        raise EvalError(f"not a term: {t!r}")

    def _atom(self, phi: Equality | Atom, own: tuple[str, ...], env: dict[str, int]) -> int:
        if isinstance(phi, Equality):
            return _bits(map(operator.eq, self._values(phi.left, own, env),
                             self._values(phi.right, own, env)))
        if phi.name not in self.m.relations:
            raise EvalError(f"unknown relation {phi.name!r}")
        arity, tuples = self.m.relations[phi.name]
        if len(phi.args) != arity:
            raise EvalError(f"relation {phi.name!r} arity mismatch")
        columns = [self._values(a, own, env) for a in phi.args]
        rows = zip(*columns) if columns else [()] * self.m.n ** len(own)
        return _bits(map(tuples.__contains__, rows))

    def _measure(self, phi: Meas, body: int, fibers: int) -> int:
        """Bit j set iff the j-th fiber of ``body`` satisfies the bound."""
        k = len(phi.vars)
        sums = fiber_sums(self.m, body, k, fibers)
        scale = self.m.integer_weights[1] ** k  # mu = sum / scale
        num, den = phi.threshold.numerator * scale, phi.threshold.denominator
        if phi.cmp is Cmp.LT:
            verdicts = [s * den < num for s in sums]
        else:
            verdicts = [s * den <= num for s in sums]
        if self.trace is not None:
            counts = fiber_counts(body, self.m.n ** k, fibers)
            for s, count, verdict in zip(sums, counts, verdicts):
                self.trace.append(MeasTraceEntry(phi.vars, phi.cmp, phi.threshold, count,
                                                 Fraction(s, scale), VFlag.DOT, verdict))
        return _bits(verdicts)


def evaluate(m: FiniteStructure, phi: Formula, val: dict[str, int] | None = None,
             budget: Budget | None = None,
             trace: list[MeasTraceEntry] | None = None) -> bool:
    """Evaluate ``phi`` in ``m`` under valuation ``val`` (must cover the free
    variables)."""
    return Evaluator(m, budget, trace).eval(phi, dict(val or {}))


def extension(m: FiniteStructure, phi: Formula, xs: tuple[str, ...],
              params: dict[str, int] | None = None,
              budget: Budget | None = None) -> DefinableSet:
    """The definable set {a in M^|xs| : phi holds with xs := a}, with the
    remaining free variables read from ``params``; charged n^|xs|."""
    xs = tuple(xs)
    if len(set(xs)) != len(xs):
        raise EvalError(f"extension variables must be distinct, got {xs}")
    params = {v: a for v, a in (params or {}).items() if v not in xs}
    missing = free_vars(phi) - set(xs) - set(params)
    if missing:
        raise EvalError(f"unbound free variables: {sorted(missing)}")
    ev = Evaluator(m, budget)
    ev.budget.charge(m.n ** len(xs))
    return DefinableSet(m, len(xs), ev.table(phi, xs, params))


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
