"""The public names the ``aml`` package exports, the library names that the
benchmark's tracer patches, and the library names the test oracle may use."""

import ast
import importlib.util
from pathlib import Path

import aml

TRACER = Path(__file__).parents[1] / "bench" / "tracer.py"
ORACLE = Path(__file__).parent / "oracle.py"

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


def test_the_bench_tracer_patches_names_that_exist():
    # bench/tracer.py wraps library attributes by name: a renamed or deleted
    # one fails its install here, before any traced benchmark run
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer()
    saved = []
    try:
        tracer.install()
        saved = list(tracer._saved)
        assert saved
        for owner, attr, original in saved:
            assert getattr(owner, attr) is not original, (owner.__name__, attr)
    finally:
        tracer.uninstall()
    for owner, attr, original in saved:
        assert getattr(owner, attr) is original, (owner.__name__, attr)


def test_the_oracle_imports_no_private_library_name():
    # an oracle that shares a helper with the code it checks cannot catch
    # that helper's mistakes, so it reads only public names of aml
    private = []
    for node in ast.walk(ast.parse(ORACLE.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "aml":
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names if alias.name.split(".")[0] == "aml"]
        else:
            continue
        private += [name for name in names if any(part.startswith("_")
                                                  for part in name.split("."))]
    assert not private, private
