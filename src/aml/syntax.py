"""Abstract syntax for approximate measure logic.

Formulae are first-order formulae extended with the measure constructor
``m[x1,...,xn] < q . body`` / ``m[x1,...,xn] <= q . body``, which binds the
listed variables and asserts a bound on the measure of the body's extension.
``>=`` and ``>`` are abbreviations (negations of the core forms) and are
expanded by :func:`expand_abbrev`, so evaluators only ever see LT/LE.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property


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
        for n, a in self.functions:
            if n == name:
                return a
        return None

    def relation_arity(self, name: str) -> int | None:
        for n, a in self.relations:
            if n == name:
                return a
        return None

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
    __slots__ = ()

    @cached_property
    def free_variables(self) -> frozenset[str]:
        """The formula's free variables, computed once per node (see free_vars)."""
        if isinstance(self, Equality):
            return term_vars(self.left) | term_vars(self.right)
        if isinstance(self, Atom):
            return frozenset().union(*map(term_vars, self.args))
        if isinstance(self, Not):
            return self.body.free_variables
        if isinstance(self, (And, Or, Implies)):
            return self.left.free_variables | self.right.free_variables
        if isinstance(self, (Forall, Exists)):
            return self.body.free_variables - {self.var}
        if isinstance(self, Meas):
            return self.body.free_variables - set(self.vars)
        raise TypeError(f"not a formula: {self!r}")


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


def expand_abbrev(vars: tuple[str, ...] | list[str], cmp: AbbrevCmp | str,
                  threshold, body: Formula) -> Formula:
    """Expand a >= / > measure bound into the core syntax.

    m[xs] >= q . body  becomes  ~ m[xs] < q . body
    m[xs] >  q . body  becomes  ~ m[xs] <= q . body
    """
    if isinstance(cmp, str):
        cmp = AbbrevCmp(cmp)
    inner = Cmp.LT if cmp is AbbrevCmp.GE else Cmp.LE
    return Not(Meas(tuple(vars), inner, Fraction(threshold), body))


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


def check_formula(phi: Formula, sig: Signature) -> None:
    """Validate every symbol use in ``phi`` against ``sig`` (arity and kind).

    Raises ValueError on the first violation.
    """

    def check_term(t: Term) -> None:
        if isinstance(t, Var):
            if sig.is_constant(t.name) or sig.function_arity(t.name) is not None \
                    or sig.relation_arity(t.name) is not None:
                raise ValueError(f"{t.name!r} is a declared symbol, not a variable")
        elif isinstance(t, Const):
            if not sig.is_constant(t.name):
                raise ValueError(f"unknown constant {t.name!r}")
        elif isinstance(t, Func):
            arity = sig.function_arity(t.name)
            if arity is None:
                raise ValueError(f"unknown function {t.name!r}")
            if arity != len(t.args):
                raise ValueError(
                    f"function {t.name!r} expects {arity} arguments, got {len(t.args)}")
            for a in t.args:
                check_term(a)
        else:
            raise TypeError(f"not a term: {t!r}")

    if isinstance(phi, Equality):
        check_term(phi.left)
        check_term(phi.right)
    elif isinstance(phi, Atom):
        arity = sig.relation_arity(phi.name)
        if arity is None:
            raise ValueError(f"unknown relation {phi.name!r}")
        if arity != len(phi.args):
            raise ValueError(f"relation {phi.name!r} expects {arity} arguments, got {len(phi.args)}")
        for a in phi.args:
            check_term(a)
    elif isinstance(phi, Not):
        check_formula(phi.body, sig)
    elif isinstance(phi, (And, Or, Implies)):
        check_formula(phi.left, sig)
        check_formula(phi.right, sig)
    elif isinstance(phi, (Forall, Exists)):
        check_formula(phi.body, sig)
    elif isinstance(phi, Meas):
        check_formula(phi.body, sig)
    else:
        raise TypeError(f"not a formula: {phi!r}")


def rename_bound(phi: Formula, mapping: dict[str, str]) -> Formula:
    """Rename variables (free and bound alike) via ``mapping``; names not in
    the mapping are kept.  Only the bound-variable-renaming invariance tests
    use it; scheme instantiation does not."""

    def rt(t: Term) -> Term:
        if isinstance(t, Var):
            return Var(mapping.get(t.name, t.name))
        if isinstance(t, Const):
            return t
        if isinstance(t, Func):
            return Func(t.name, tuple(rt(a) for a in t.args))
        raise TypeError(f"not a term: {t!r}")

    if isinstance(phi, Equality):
        return Equality(rt(phi.left), rt(phi.right))
    if isinstance(phi, Atom):
        return Atom(phi.name, tuple(rt(a) for a in phi.args))
    if isinstance(phi, Not):
        return Not(rename_bound(phi.body, mapping))
    if isinstance(phi, And):
        return And(rename_bound(phi.left, mapping), rename_bound(phi.right, mapping))
    if isinstance(phi, Or):
        return Or(rename_bound(phi.left, mapping), rename_bound(phi.right, mapping))
    if isinstance(phi, Implies):
        return Implies(rename_bound(phi.left, mapping), rename_bound(phi.right, mapping))
    if isinstance(phi, Forall):
        return Forall(mapping.get(phi.var, phi.var), rename_bound(phi.body, mapping))
    if isinstance(phi, Exists):
        return Exists(mapping.get(phi.var, phi.var), rename_bound(phi.body, mapping))
    if isinstance(phi, Meas):
        return Meas(tuple(mapping.get(v, v) for v in phi.vars), phi.cmp, phi.threshold,
                    rename_bound(phi.body, mapping))
    raise TypeError(f"not a formula: {phi!r}")
