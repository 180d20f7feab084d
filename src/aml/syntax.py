"""Abstract syntax for approximate measure logic.

Formulae are first-order formulae extended with the measure constructor
``m[x1,...,xn] < q . body`` / ``m[x1,...,xn] <= q . body``, which binds the
listed variables and asserts a bound on the measure of the body's extension.
``>=`` and ``>`` are abbreviations (negations of the core forms).  COMPARISONS
maps each written form to its ``Cmp`` or ``AbbrevCmp``, and :func:`expand_abbrev`
writes either in the core syntax, so evaluators only ever see LT/LE.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction


# ---------------------------------------------------------------------------
# Signatures


@dataclass(frozen=True)
class Signature:
    """Symbol table: constant names, function (name, arity), relation (name, arity)."""

    constants: tuple[str, ...] = ()
    functions: tuple[tuple[str, int], ...] = ()
    relations: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        names = list(self.constants)
        for name, arity in self.functions:
            if arity < 1:
                raise ValueError(f"function {name!r} must have positive arity, got {arity}")
            names.append(name)
        for name, arity in self.relations:
            if arity < 1:
                raise ValueError(f"relation {name!r} must have positive arity, got {arity}")
            names.append(name)
        if len(names) != len(set(names)):
            raise ValueError("symbol names must be distinct across constants/functions/relations")

    def function_arity(self, name: str) -> int | None:
        return dict(self.functions).get(name)

    def relation_arity(self, name: str) -> int | None:
        return dict(self.relations).get(name)

    def is_constant(self, name: str) -> bool:
        return name in self.constants


# ---------------------------------------------------------------------------
# Terms


class Term:
    __slots__ = ()


@dataclass(frozen=True)
class Var(Term):
    name: str


@dataclass(frozen=True)
class Const(Term):
    name: str


@dataclass(frozen=True)
class Func(Term):
    name: str
    args: tuple[Term, ...]

    def __post_init__(self):
        if not self.args:
            raise ValueError(f"function application {self.name!r} needs at least one argument")


def term_vars(t: Term) -> frozenset[str]:
    if isinstance(t, Var):
        return frozenset((t.name,))
    if isinstance(t, Const):
        return frozenset()
    if isinstance(t, Func):
        return frozenset().union(*map(term_vars, t.args))
    raise TypeError(f"not a term: {t!r}")


# ---------------------------------------------------------------------------
# Formulae


class Formula:
    """A formula node.  Each node's free variables are computed once, when
    it is built, from its children's (see free_vars); they are an attribute,
    not a field, so they take no part in equality, hashing or repr."""

    __slots__ = ()
    free_variables: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "free_variables", _FREE[type(self)](self))


@dataclass(frozen=True)
class Equality(Formula):
    left: Term
    right: Term


@dataclass(frozen=True)
class Atom(Formula):
    name: str
    args: tuple[Term, ...]


@dataclass(frozen=True)
class Not(Formula):
    body: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Forall(Formula):
    var: str
    body: Formula


@dataclass(frozen=True)
class Exists(Formula):
    var: str
    body: Formula


class Cmp(Enum):
    LT = "<"
    LE = "<="


class AbbrevCmp(Enum):
    GE = ">="
    GT = ">"


COMPARISONS = {c.value: c for c in (*Cmp, *AbbrevCmp)}


@dataclass(frozen=True)
class Meas(Formula):
    """Measure constructor: compares the measure of the body's extension
    over the bound variable tuple against a nonnegative rational threshold."""

    vars: tuple[str, ...]
    cmp: Cmp
    threshold: Fraction
    body: Formula

    def __post_init__(self):
        if not self.vars:
            raise ValueError("measure constructor needs at least one bound variable")
        if len(set(self.vars)) != len(self.vars):
            raise ValueError(f"measure variables must be distinct, got {self.vars}")
        if not isinstance(self.threshold, Fraction):
            object.__setattr__(self, "threshold", Fraction(self.threshold))
        if self.threshold < 0:
            raise ValueError(f"measure threshold must be nonnegative, got {self.threshold}")
        if not isinstance(self.cmp, Cmp):
            raise ValueError(f"cmp must be Cmp.LT or Cmp.LE, got {self.cmp!r}")
        super().__post_init__()


def _union(f: Formula) -> frozenset[str]:
    return f.left.free_variables | f.right.free_variables


# Each node type's free variables, from its children's.
_FREE = {
    Equality: lambda f: term_vars(f.left) | term_vars(f.right),
    Atom: lambda f: frozenset().union(*map(term_vars, f.args)),
    Not: lambda f: f.body.free_variables,
    And: _union,
    Or: _union,
    Implies: _union,
    Forall: lambda f: f.body.free_variables - {f.var},
    Exists: lambda f: f.body.free_variables - {f.var},
    Meas: lambda f: f.body.free_variables.difference(f.vars),
}


def expand_abbrev(vars: tuple[str, ...] | list[str], cmp: Cmp | AbbrevCmp,
                  threshold, body: Formula) -> Formula:
    """The measure bound m[xs] cmp q . body in the core syntax: a core
    comparison is the bare Meas, and a >= / > bound its negated core form,

    m[xs] >= q . body  becomes  ~ m[xs] < q . body
    m[xs] >  q . body  becomes  ~ m[xs] <= q . body
    """
    if isinstance(cmp, Cmp):
        return Meas(tuple(vars), cmp, threshold, body)  # Meas coerces the threshold
    inner = Cmp.LT if cmp is AbbrevCmp.GE else Cmp.LE
    return Not(Meas(tuple(vars), inner, threshold, body))


# ---------------------------------------------------------------------------
# Structural queries


def rank(phi: Formula) -> int:
    """Nesting depth of measure constructors: classical formulae are rank 0,
    connectives/quantifiers take the max of their children, and each measure
    constructor adds one to its body's rank."""
    if isinstance(phi, (Equality, Atom)):
        return 0
    if isinstance(phi, Not):
        return rank(phi.body)
    if isinstance(phi, (And, Or, Implies)):
        return max(rank(phi.left), rank(phi.right))
    if isinstance(phi, (Forall, Exists)):
        return rank(phi.body)
    if isinstance(phi, Meas):
        return rank(phi.body) + 1
    raise TypeError(f"not a formula: {phi!r}")


def free_vars(phi: Formula) -> frozenset[str]:
    if not isinstance(phi, Formula):
        raise TypeError(f"not a formula: {phi!r}")
    return phi.free_variables
