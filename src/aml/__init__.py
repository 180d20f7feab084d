"""Approximate measure logic over finite measured structures.

First-order logic extended with a measure constructor ``m[x1,...,xk] ⋈ q . φ``
bounding the exact rational measure of a formula's extension, together with
the combinatorial toolkit that logic supports: axiom-scheme soundness
testing, Gowers uniformity norms, ε-regular partitions, hypergraph copy
counting/removal, arithmetic-progression encodings, and eventual-behavior
profiles of structure sequences.
"""

from .structures import DefinableSet, FiniteStructure, VFlag, measure
from .syntax import (AbbrevCmp, And, Atom, Cmp, Const, Equality, Exists, Forall, Formula,
                     Func, Implies, Meas, Not, Or, Signature, Term, Var, expand_abbrev,
                     free_vars, rank)
from .semantics import (Budget, BudgetExceeded, EvalError, check_continuity, evaluate,
                        extension, meas_holds)
from .parser import ParseError, SourceSpan, parse_formula, parse_structure, print_formula

__version__ = "0.1.0"

__all__ = [
    "AbbrevCmp", "And", "Atom", "Budget", "BudgetExceeded", "Cmp", "Const",
    "DefinableSet", "Equality", "EvalError", "Exists", "FiniteStructure", "Forall",
    "Formula", "Func", "Implies", "Meas", "Not", "Or", "ParseError", "Signature",
    "SourceSpan", "Term", "VFlag", "Var", "check_continuity", "evaluate",
    "expand_abbrev", "extension", "free_vars", "meas_holds", "measure",
    "parse_formula", "parse_structure", "print_formula", "rank",
]
