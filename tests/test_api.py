"""The public names the ``aml`` package exports."""

import aml

PUBLIC = [
    "AbbrevCmp", "And", "Atom", "Budget", "BudgetExceeded", "Cmp", "Const",
    "DefinableSet", "Equality", "EvalError", "Exists", "FiniteStructure", "Forall",
    "Formula", "Func", "Implies", "Meas", "Not", "Or", "ParseError", "Signature",
    "SourceSpan", "Term", "VFlag", "Var", "check_continuity", "evaluate",
    "expand_abbrev", "extension", "free_vars", "meas_holds", "measure", "parse_formula",
    "parse_structure", "print_formula", "rank",
]


def test_public_names_are_pinned_and_resolve():
    assert sorted(aml.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(aml, name) is not None, name
