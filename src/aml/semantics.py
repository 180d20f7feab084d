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

:class:`Evaluator` (behind :func:`evaluate` and :func:`extension`) is the
standard bottom-up relational-algebra model check (Immerman, *Descriptive
Complexity*, 1999): each subformula is evaluated at most once, into a bitset
over the assignments of the variables its enclosing binders enumerate (a
valuation's variables stay fixed), and each measure compares an exact integer
sum per fiber.  A connective skips its right operand when its left one
decides every row, as a conditional expression does.  Each binder charges
the budget for its table before building it, so a skipped one charges
nothing.
The one thing kept between calls is the table of an atom over a context that
holds all of its variables (see :class:`Evaluator`).  The naive per-tuple
oracle it is tested against lives in the test suite (``tests/oracle.py``).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat

from .structures import DefinableSet, FiniteStructure, VFlag, fiber_counts, fiber_sums
from .syntax import (And, Atom, Cmp, Const, Equality, Exists, Forall, Formula, Func,
                     Implies, Meas, Not, Or, Term, Var, free_vars)


class EvalError(Exception):
    """Semantic evaluation error (unbound variable, unknown symbol, ...)."""


class BudgetExceeded(Exception):
    """A charge took ``used`` units past ``limit``.  A count too long to print
    in decimal is shown by its size, as 2^b or more.  A power refused by its
    exponent alone (see Budget.charge_power) is ``shown`` as its own lower
    bound, and ``used`` stays at the units charged before it."""

    def __init__(self, used: int, limit: int, shown: str | None = None):
        if shown is None:
            try:
                shown = str(used)
            except ValueError:  # past the interpreter's int-to-str digit limit
                shown = f"2^{used.bit_length() - 1} or more"
        super().__init__(f"enumeration budget exceeded: {shown} work units > limit {limit}")
        self.used = used
        self.limit = limit


class Budget:
    """Work-unit meter shared by every layer.  Each enumeration charges its
    size just before it runs: a formula's table its number of bits (see
    :class:`Evaluator`), an extension n^k, a parsed structure or graph its
    declared size; the other layers price their own loops next to them
    (Gowers derivative tables, scanned windows, pattern maps, regularity subsets,
    family members)."""

    def __init__(self, limit: int | None = None):
        self.limit = limit
        self.used = 0

    def charge(self, units: int) -> None:
        self.used += units
        if self.limit is not None and self.used > self.limit:
            raise BudgetExceeded(self.used, self.limit)

    def charge_power(self, base: int, exp: int, times: int = 1) -> None:
        """Charge times·base^exp for an exponent read from input.  With
        base >= 2 and times >= 1, an exponent past the limit's bit length alone
        passes the limit, so it trips without the power being built."""
        if self.limit is not None and base >= 2 and times >= 1 \
                and exp > self.limit.bit_length():
            raise BudgetExceeded(self.used, self.limit, f"2^{exp} or more")
        self.charge(times * base ** exp)


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


def _are_vars(args: tuple[Term, ...], own: tuple[str, ...]) -> bool:
    """Whether ``args`` are exactly the variables ``own``, in order."""
    return len(args) == len(own) and all(
        type(a) is Var and a.name == v for a, v in zip(args, own))


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
    are broadcast to the context by block replication.  An atom's rows are
    read by index: each row's argument index is computed by C-level maps over
    the argument columns and tested against the relation's member indices
    (``FiniteStructure.relation_indices``), and when the arguments are
    exactly the own variables in context order, the atom reads the
    relation's index set or the function's result table whole.  So an atom
    builds nothing larger than its own table or the relation, whatever the
    relation's arity: ``T(x, x, x)`` reads n rows, never n^3.  Connectives
    are bit operations, and ``&``, ``|`` and ``->`` table their right operand
    only when their left one leaves a row undecided: not when it is 0 under
    ``&`` and ``->``, nor full under ``|``.  A skipped operand is neither
    charged, traced nor checked against the structure.  A binder is tabled
    over its free variables (in context order) followed by its bound ones, so
    its body's fibers are contiguous blocks: a quantifier folds each fiber, a
    measure sums each fiber's product weights as integers.  The innermost
    binder of a name wins.

    Charges, made before the table is built: a quantifier n^(|free| + 1) and
    a measure over k variables n^(|free| + k), where |free| counts only the
    binder's free variables that its context enumerates.  No table has more
    bits than the charge enclosing it.  ``eval`` evaluates at the valuation:
    it tables the formula over the empty context with the valuation as the
    environment.

    An atom whose variables all lie in the context reads no environment, so
    its table is kept, keyed by (atom, context), for as long as the
    evaluator lives, and later calls reuse it: ``check_soundness`` shares one
    evaluator across all of a structure's instances.  Nothing else is kept
    between calls.  Atoms are never charged, so reuse changes no charge; each
    kept table is no larger than a charge already made, so what is kept grows
    with the budget used.
    """

    def __init__(self, m: FiniteStructure, budget: Budget | None = None,
                 trace: list[MeasTraceEntry] | None = None):
        self.m = m
        self.budget = budget or Budget(None)
        self.trace = trace
        # (atom, ctx) -> the atom's table over ctx, for atoms that read no env
        self._atoms: dict[tuple[Equality | Atom, tuple[str, ...]], int] = {}

    def eval(self, phi: Formula, val: dict[str, int]) -> bool:
        """Whether phi holds when its free variables take the values in val."""
        self._check_valuation(free_vars(phi), val)
        return bool(self.table(phi, (), val))

    def _check_valuation(self, names: frozenset[str], val: dict[str, int]) -> None:
        """That ``val`` binds each of ``names`` to an element, else EvalError."""
        missing = names.difference(val)
        if missing:
            raise EvalError(f"unbound variables: {', '.join(sorted(missing))}")
        for v in sorted(names):
            if not 0 <= val[v] < self.m.n:
                raise EvalError(f"binding {v}={val[v]} outside universe 0..{self.m.n - 1}")

    def table(self, phi: Formula, ctx: tuple[str, ...], env: dict[str, int]) -> int:
        """phi's table over ``ctx``; its other free variables read ``env``."""
        rule = self._RULES.get(type(phi))
        if rule is None:
            raise EvalError(f"not a formula: {phi!r}")
        return rule(self, phi, ctx, env)

    def _table_atom(self, phi: Equality | Atom, ctx: tuple[str, ...],
                    env: dict[str, int]) -> int:
        names = phi.free_variables
        kept = names.issubset(ctx)  # then the table reads no env
        bits = self._atoms.get((phi, ctx)) if kept else None
        if bits is None:
            own = tuple(filter(names.__contains__, ctx))
            bits = self._broadcast(self._atom(phi, own, env), own, ctx)
            if kept:
                self._atoms[phi, ctx] = bits
        return bits

    def _table_not(self, phi: Not, ctx: tuple[str, ...], env: dict[str, int]) -> int:
        return self._full(ctx) ^ self.table(phi.body, ctx, env)

    def _table_and(self, phi: And, ctx: tuple[str, ...], env: dict[str, int]) -> int:
        left = self.table(phi.left, ctx, env)
        return left and left & self.table(phi.right, ctx, env)

    def _table_or(self, phi: Or, ctx: tuple[str, ...], env: dict[str, int]) -> int:
        left = self.table(phi.left, ctx, env)
        full = self._full(ctx)
        return full if left == full else left | self.table(phi.right, ctx, env)

    def _table_implies(self, phi: Implies, ctx: tuple[str, ...], env: dict[str, int]) -> int:
        left = self.table(phi.left, ctx, env)
        full = self._full(ctx)
        return full if not left else (full ^ left) | self.table(phi.right, ctx, env)

    def _table_binder(self, phi: Forall | Exists | Meas, ctx: tuple[str, ...],
                      env: dict[str, int]) -> int:
        bound = phi.vars if type(phi) is Meas else (phi.var,)
        names = phi.free_variables
        free = tuple(filter(names.__contains__, ctx))
        n = self.m.n
        self.budget.charge(n ** (len(free) + len(bound)))
        inner = {v: a for v, a in env.items() if v not in bound} if env else env
        body = self.table(phi.body, free + bound, inner)
        fibers = n ** len(free)
        if type(phi) is Meas:
            bits = self._measure(phi, body, fibers)
        elif type(phi) is Exists:
            bits = _any_fiber(body, n, fibers)
        else:  # forall = not exists not
            full = (1 << fibers) - 1
            bits = full ^ _any_fiber(body ^ ((1 << fibers * n) - 1), n, fibers)
        return self._broadcast(bits, free, ctx)

    _RULES = {Equality: _table_atom, Atom: _table_atom, Not: _table_not, And: _table_and,
              Or: _table_or, Implies: _table_implies, Forall: _table_binder,
              Exists: _table_binder, Meas: _table_binder}

    def _full(self, ctx: tuple[str, ...]) -> int:
        return (1 << self.m.n ** len(ctx)) - 1

    def _broadcast(self, bits: int, own: tuple[str, ...], ctx: tuple[str, ...]) -> int:
        """A table over ``own``, a subsequence of ``ctx``, as a table over
        ``ctx``: each missing variable repeats the blocks below it n times."""
        if len(own) == len(ctx):
            return bits
        n = self.m.n
        if ctx[len(ctx) - len(own):] == own:
            # the missing variables are outermost: the whole table repeats.
            # Each shift-and-OR doubles the copies; one mask trims the last.
            block, size = n ** len(own), n ** len(ctx)
            while block < size:
                bits |= bits << block
                block *= 2
            return bits & ((1 << size) - 1)
        digits = format(bits, f"0{n ** len(own)}b")
        below = len(own)  # own variables after the current one
        for v in ctx:
            if v in own:
                below -= 1
            else:
                digits = _repeat_blocks(digits, n ** below, n)
        return int(digits, 2)

    def _values(self, t: Term, own: tuple[str, ...], env: dict[str, int]):
        """The value of ``t`` at every assignment of ``own``, in order, as an
        iterable to be read once."""
        n = self.m.n
        size = n ** len(own)
        if isinstance(t, Var):
            if t.name in env:
                return repeat(env[t.name], size)
            if t.name not in own:
                raise EvalError(f"unbound variable {t.name!r}")
            run = n ** (len(own) - 1 - own.index(t.name))
            column: list[int] = []
            for a in range(n):
                column += [a] * run
            return column * (size // len(column))
        if isinstance(t, Const):
            try:
                return repeat(self.m.constants[t.name], size)
            except KeyError:
                raise EvalError(f"unknown constant {t.name!r}") from None
        if isinstance(t, Func):
            if t.name not in self.m.functions:
                raise EvalError(f"unknown function {t.name!r}")
            arity, results = self.m.functions[t.name]
            if len(t.args) != arity:
                raise EvalError(f"function {t.name!r} expects {arity} arguments")
            if _are_vars(t.args, own):  # the result table is the values
                return results
            return map(results.__getitem__, self._index(t.args, own, env))
        raise EvalError(f"not a term: {t!r}")

    def _index(self, args: tuple[Term, ...], own: tuple[str, ...], env: dict[str, int]):
        """The lexicographic index of the values of ``args`` (at least one)
        at every assignment of ``own``, in order, as an iterable to be read
        once: C-level maps over the argument columns."""
        n = self.m.n
        index = self._values(args[0], own, env)
        for a in args[1:]:
            index = map(operator.add, map(operator.mul, index, repeat(n)),
                        self._values(a, own, env))
        return index

    def _atom(self, phi: Equality | Atom, own: tuple[str, ...], env: dict[str, int]) -> int:
        if isinstance(phi, Equality):
            return _bits(map(operator.eq, self._values(phi.left, own, env),
                             self._values(phi.right, own, env)))
        if phi.name not in self.m.relations:
            raise EvalError(f"unknown relation {phi.name!r}")
        arity, _ = self.m.relations[phi.name]
        if len(phi.args) != arity:
            raise EvalError(f"relation {phi.name!r} arity mismatch")
        members = self.m.relation_indices[phi.name]
        if _are_vars(phi.args, own):  # the row index is the member index
            rows = bytearray(self.m.n ** len(own))
            for i in members:
                rows[i] = 1
            return _bits(rows)
        return _bits(map(members.__contains__, self._index(phi.args, own, env)))

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
    variables).  ``phi`` is not checked against ``m``'s signature: an unknown
    symbol is an EvalError where it is evaluated, and none in an operand that
    is skipped (see :class:`Evaluator`)."""
    return Evaluator(m, budget, trace).eval(phi, dict(val or {}))


def extension(m: FiniteStructure, phi: Formula, xs: tuple[str, ...],
              params: dict[str, int] | None = None,
              budget: Budget | None = None) -> DefinableSet:
    """The definable set {a in M^|xs| : phi holds with xs := a}, with the
    remaining free variables read from ``params`` and checked as
    :meth:`Evaluator.eval` checks its valuation; charged n^|xs|."""
    xs = tuple(xs)
    if len(set(xs)) != len(xs):
        raise EvalError(f"extension variables must be distinct, got {xs}")
    params = {v: a for v, a in (params or {}).items() if v not in xs}
    ev = Evaluator(m, budget)
    ev._check_valuation(free_vars(phi).difference(xs), params)
    ev.budget.charge(m.n ** len(xs))
    return DefinableSet(m, len(xs), ev.table(phi, xs, params))


def check_continuity(m: FiniteStructure, q) -> bool:
    """Truth of ``forall x . m[y] <= q . (x = y)``, that every point has
    measure at most q, for a single rational q > 0.  For normalized counting
    measure on n elements this holds exactly when q >= 1/n."""
    q = Fraction(q)
    if q <= 0:
        raise ValueError("continuity threshold must be positive")
    return evaluate(m, Forall("x", Meas(("y",), Cmp.LE, q, Equality(Var("x"), Var("y")))))
