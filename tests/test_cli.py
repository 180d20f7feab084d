"""Command-line front end: outputs, exit codes, records format, determinism."""

import argparse
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from io import StringIO
import itertools
import random
from pathlib import Path
import shlex
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from aml import cli, gowers
from aml.cli import main
from aml.parser import MAX_DEPTH

DATA = Path(__file__).parent / "data"
Z4 = str(DATA / "z4.struct")
G16 = str(DATA / "g16.graph")
TRI = str(DATA / "tri.hg")
TWOTRI = str(DATA / "twotri.hg")
FAM = str(DATA / "fam.fam")
EVENS = str(DATA / "evens.set")
UNARY = str(DATA / "unary.struct")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- eval ---------------------------------------------------------------------

def test_eval_true_with_measure_summary(capsys):
    code, out, _ = run(capsys, "eval", Z4, "m[x] <= 1/4 . x = e")
    assert code == 0
    assert out == "true (mu = 1/4, <= 1/4, flag ⊙)\n"


def test_eval_false_still_exits_zero(capsys):
    code, out, _ = run(capsys, "eval", Z4, "m[x] < 1/4 . x = e")
    assert code == 0
    assert out == "false (mu = 1/4, < 1/4, flag ⊙)\n"


def test_eval_negated_measure_shows_the_answered_comparison(capsys):
    # m[x] >= q parses as ~(m[x] < q); the summary states m >= q, not m < q
    code, out, _ = run(capsys, "eval", Z4, "m[x] >= 1/4 . x = e")
    assert (code, out) == (0, "true (mu = 1/4, >= 1/4, flag ⊙)\n")
    code, out, _ = run(capsys, "eval", Z4, "m[x] > 1/4 . x = e")
    assert (code, out) == (0, "false (mu = 1/4, > 1/4, flag ⊙)\n")
    code, out, _ = run(capsys, "eval", Z4, "m[x] >= 1/4 . x = e", "--format", "records")
    assert out == "verdict=true\nmu=1/4\ncmp=>=\nthreshold=1/4\nflag=.\n"
    code, out, _ = run(capsys, "eval", Z4, "m[x] > 1/4 . x = e", "--format", "records")
    assert out == "verdict=false\nmu=1/4\ncmp=>\nthreshold=1/4\nflag=.\n"


@pytest.mark.parametrize("formula, verdict, cmp", [
    ("~(m[x] > 1/2 . x = e)", "true", "<="),
    ("~(m[x] >= 1/2 . x = e)", "true", "<"),
    ("~~(m[x] < 1/2 . x = e)", "true", "<"),
    ("~~~(m[x] <= 1/2 . x = e)", "false", ">"),
])
def test_eval_summary_reads_every_leading_negation(capsys, formula, verdict, cmp):
    # each ~ flips the comparison shown, so the summary states what was decided
    assert run(capsys, "eval", Z4, formula) == \
        (0, f"{verdict} (mu = 1/4, {cmp} 1/2, flag ⊙)\n", "")
    assert run(capsys, "eval", Z4, formula, "--format", "records") == \
        (0, f"verdict={verdict}\nmu=1/4\ncmp={cmp}\nthreshold=1/2\nflag=.\n", "")


def test_eval_with_binding(capsys):
    code, out, _ = run(capsys, "eval", Z4, "x = e", "--bind", "x=0")
    assert (code, out) == (0, "true\n")
    code, out, _ = run(capsys, "eval", Z4, "x = e", "--bind", "x=2")
    assert (code, out) == (0, "false\n")


def test_eval_records_format(capsys):
    code, out, _ = run(capsys, "eval", Z4, "m[x] <= 1/4 . x = e",
                       "--format", "records")
    assert code == 0
    assert out == "verdict=true\nmu=1/4\ncmp=<=\nthreshold=1/4\nflag=.\n"


def test_eval_trace(capsys):
    code, out, _ = run(capsys, "eval", Z4, "m[x] <= 1/4 . x = e", "--trace")
    assert code == 0
    assert out.splitlines()[1] == \
        "  trace 0: m[x] <= 1/4: count 1, mu = 1/4, flag ⊙ -> true"


def test_eval_summary_reads_the_bound_assignment(capsys):
    # the open root is evaluated at x=0 only, so the trace has its one entry
    code, out, _ = run(capsys, "eval", Z4, "m[y] < 1/2 . add(x, y) = y", "--bind", "x=0",
                       "--trace")
    assert code == 0
    assert out.splitlines() == [
        "false (mu = 1, < 1/2, flag ⊙)",
        "  trace 0: m[y] < 1/2: count 4, mu = 1, flag ⊙ -> false"]


def test_eval_skips_the_operand_its_left_side_decides(capsys):
    # the measure on the right would charge 8 units and trace one line
    formula = "~(x = x) & m[y] < 1/2 . y = e"
    code, out, err = run(capsys, "eval", Z4, formula, "--bind", "x=0", "--budget", "5")
    assert (code, out, err) == (0, "false\n", "")
    code, out, err = run(capsys, "eval", Z4, formula, "--bind", "x=0", "--trace")
    assert (code, out, err) == (0, "false\n", "")
    # the formula is checked against the signature before it is evaluated
    for formula in ("~(x = x) & Q(x)", "Q(x) & ~(x = x)"):
        code, out, err = run(capsys, "eval", Z4, formula, "--bind", "x=0")
        assert (code, out) == (2, ""), formula
        assert err.startswith("parse error:"), formula


def test_an_atom_builds_no_more_than_its_own_table(capsys, tmp_path):
    # T(x, x, x) over 2000 elements is charged 2000 units; a table of T over
    # all of M^3 would take 8 * 10^9 bits
    structure = tmp_path / "t2000.struct"
    structure.write_text("universe 2000\nrelation T 3\n0 1 2\n5 5 5\nend\n")
    tracemalloc.start()
    try:
        start = time.perf_counter()
        code, out, err = run(capsys, "eval", str(structure), "m[x] <= 1/2 . T(x, x, x)")
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out, err) == (0, "true (mu = 1/2000, <= 1/2, flag ⊙)\n", "")
    assert elapsed < 1
    assert peak < 50 * 10 ** 6


# -- exit codes ------------------------------------------------------------------

def test_parse_error_exits_2(capsys):
    code, _, err = run(capsys, "eval", Z4, "m[x <= 1/4 . x = e")
    assert code == 2
    assert err.startswith("parse error:")
    assert "4..6" in err                      # span of the offending token


def test_non_decimal_digits_exit_2(capsys):
    # '²'.isdigit() holds but int('²') fails: a number is decimal digits only
    code, out, err = run(capsys, "eval", Z4, "m[x] <= ² . x = e")
    assert (code, out, err) == (2, "", "parse error: unexpected character '²' (at 8..9)\n")
    code, out, err = run(capsys, "gowers", "z²", "--g", "1", "--k", "1")
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot read z²:")


def test_semantic_error_exits_3(capsys):
    code, _, err = run(capsys, "eval", Z4, "x = e")
    assert code == 3
    assert "unbound variables: x" in err


def test_out_of_range_binding_exits_3(capsys):
    assert run(capsys, "eval", Z4, "x = e", "--bind", "x=9") == \
        (3, "", "semantic error: binding x=9 outside universe 0..3\n")


def test_a_binding_the_formula_does_not_use_is_ignored(capsys):
    # as evaluate ignores it: only the formula's free variables are checked
    assert run(capsys, "eval", Z4, "e = e", "--bind", "z=9") == (0, "true\n", "")


def test_a_binder_shadows_a_binding_of_its_variable(capsys):
    # the formula is closed: the measure's own x ranges over the universe,
    # whatever --bind gives the name x outside it
    assert run(capsys, "eval", Z4, "m[x] <= 1/4 . x = e", "--bind", "x=1") == \
        (0, "true (mu = 1/4, <= 1/4, flag ⊙)\n", "")


def test_budget_exhaustion_exits_4(capsys):
    code, _, err = run(capsys, "eval", Z4, "m[x,y] <= 1 . x = y",
                       "--budget", "5")
    assert code == 4
    assert err.startswith("budget error:")


def test_budget_env_variable(capsys, monkeypatch):
    # the argument parser is built once, and AML_BUDGET is read on every call
    built, init = [], argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._build_parser.cache_clear()
    monkeypatch.setenv("AML_BUDGET", "5")
    code, _, err = run(capsys, "eval", Z4, "m[x,y] <= 1 . x = y")
    assert code == 4
    parsers = len(built)
    monkeypatch.setenv("AML_BUDGET", "1000")
    code, _, _ = run(capsys, "eval", Z4, "m[x,y] <= 1 . x = y")
    assert code == 0
    assert parsers > 0 and len(built) == parsers
    cli._build_parser.cache_clear()


@pytest.mark.parametrize("env, argv", [("abc", []), ("0", []), ("", []), (None, ["--budget", "0"]),
                                       (None, ["--budget", "-3"]), ("1000", ["--budget", "0"])])
def test_a_bad_budget_exits_2(capsys, monkeypatch, env, argv):
    if env is None:
        monkeypatch.delenv("AML_BUDGET", raising=False)
    else:
        monkeypatch.setenv("AML_BUDGET", env)
    code, out, err = run(capsys, "eval", Z4, "e = e", *argv)
    assert (code, out, err) == (2, "", "error: budget must be a positive integer "
                                       "(check --budget / AML_BUDGET)\n")


def test_the_budget_flag_wins_over_the_environment(capsys, monkeypatch):
    monkeypatch.setenv("AML_BUDGET", "abc")
    assert run(capsys, "eval", Z4, "e = e", "--budget", "1000") == (0, "true\n", "")


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "eval", str(DATA / "nope.struct"), "e = e")
    assert code == 2


def test_formula_arguments_read_at_paths(capsys, tmp_path):
    formula = tmp_path / "phi.txt"
    formula.write_text("x = e\n")
    assert run(capsys, "eval", Z4, f"@{formula}", "--bind", "x=0") == (0, "true\n", "")
    missing = tmp_path / "none.txt"
    code, out, err = run(capsys, "eval", Z4, f"@{missing}")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {missing}: ")


@pytest.mark.parametrize("argv, code, err", [
    (["measure", Z4, "e = e"], 3,
     "semantic error: formula is closed; nothing to measure over (use eval instead)\n"),
    (["limit", FAM], 2, "error: need exactly one of --sentence (truth profile) or "
                        "--phi with --target (limit measure)\n"),
    (["limit", FAM, "--sentence", "e = e", "--phi", "x = e"], 2,
     "error: need exactly one of --sentence (truth profile) or "
     "--phi with --target (limit measure)\n"),
    (["limit", FAM, "--phi", "x = e"], 2, "error: --phi needs --target\n"),
    (["limit", FAM, "--sentence", "e = e", "--vars", "x"], 2,
     "error: --vars and --target need --phi\n"),
    (["limit", FAM, "--sentence", "e = e", "--target", "garbage"], 2,
     "error: --vars and --target need --phi\n"),
    (["hypergraph", TRI, "--pattern", TRI, "--eps", "garbage"], 2,
     "error: --eps needs --remove\n"),
    (["hypergraph", "no-such.hg", "--pattern", TRI, "--eps", "1/2"], 2,
     "error: --eps needs --remove\n"),
    (["hypergraph", TRI, "--pattern", TRI, "--remove", "--eps", ""], 2,
     "error: expected a rational, got ''\n"),
    (["eval", Z4, "x = e", "--bind", "x=abc"], 2, "error: bad binding value 'abc'\n"),
    (["eval", Z4, "x = e", "--bind", "x=0, x=1"], 2, "error: binding 'x' given twice\n"),
    (["furstenberg", "--E", "1,2", "--N", "5", "--U", "0,x"], 2,
     "error: expected an integer, got 'x'\n"),
    (["gowers", "z2", "--g=1,x", "--k", "1"], 2, "error: expected a rational, got 'x'\n"),
    (["check-axioms", Z4, "--schemes", ","], 2, "error: empty scheme selection\n"),
    (["eval", Z4, "x = e", "--bind", "x"], 2, "error: bad binding 'x': expected name=element\n"),
    (["check-axioms", Z4, "--schemes", "nope"], 2,
     "error: unknown scheme 'nope': expected group AML/I/F/F+ or scheme id\n"),
    (["eval", Z4, "m[x] . x = e"], 2,
     "parse error: expected a comparison after the measure list, found '.' (at 5..6)\n"),
    (["eval", Z4, "forall forall . e = e"], 2,
     "parse error: 'forall' is a keyword, not a variable (at 7..13)\n"),
    (["eval", Z4, "m[x] < 1/0 . x = e"], 2, "parse error: zero denominator (at 9..10)\n"),
    (["eval", Z4, "e = exists"], 2,
     "parse error: 'exists' is a keyword, not a term (at 4..10)\n"),
    (["eval", Z4, "add = e"], 2, "parse error: function 'add' needs arguments (at 0..3)\n"),
    (["eval", UNARY, "forall x . x = P"], 2,
     "parse error: 'P' is a relation, not a term (at 15..16)\n"),
    (["eval", Z4, "e = e e"], 2, "parse error: unexpected trailing input 'e' (at 6..7)\n"),
    # a repeated variable is refused where it is read, before the missing ']'
    (["eval", Z4, "m[x,x . x = e"], 2,
     "parse error: repeated variable 'x' in measure list (at 4..5)\n"),
], ids=["measure-closed", "limit-neither", "limit-both", "phi-without-target",
        "vars-without-phi", "target-without-phi", "eps-without-remove",
        "eps-without-remove-checked-first", "eps-empty", "bind-abc", "bind-twice",
        "shift-not-integer", "value-not-rational", "schemes-empty", "bind-without-equals",
        "unknown-scheme", "no-comparison", "keyword-variable", "zero-denominator",
        "keyword-term", "function-without-arguments", "relation-as-term", "trailing-input",
        "repeat-before-bracket"])
def test_argument_errors_exit_with_their_message(capsys, argv, code, err):
    assert run(capsys, *argv) == (code, "", err)


def test_a_trailing_comma_in_bind_is_ignored(capsys):
    assert run(capsys, "eval", Z4, "x = e", "--bind", "x=0,") == (0, "true\n", "")


def test_limit_trace_lists_each_truth_value(capsys):
    code, out, err = run(capsys, "limit", FAM, "--sentence", "m[x] <= 1/3 . x = e", "--trace")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[:4] == ["EventuallyTrue(3)", "  index 1: false", "  index 2: false",
                         "  index 3: true"]
    assert len(lines) == 21 and lines[-1] == "  index 20: true"


def test_check_axioms_splits_an_uneven_count(capsys, monkeypatch):
    from aml import axioms
    drawn, generate = [], axioms.generate_instances

    def recording(seed, count, **kwargs):
        drawn.append((seed, count))
        return generate(seed, count, **kwargs)

    monkeypatch.setattr(axioms, "generate_instances", recording)
    code, out, _ = run(capsys, "check-axioms", Z4, Z4, "--count", "5", "--seed", "7",
                       "--format", "records")
    assert (code, out, drawn) == (0, "held=5\ntotal=5\n", [(7, 3), (8, 2)])


def test_a_group_law_violation_is_a_semantic_error(capsys, tmp_path):
    group = tmp_path / "loop.group"
    group.write_text("group 3\n0 1 2\n1 0 1\n2 1 0\n")   # 0 is an identity, 1 + 2 = 1
    code, out, err = run(capsys, "gowers", str(group), "--g=1,0,1", "--k", "2")
    assert (code, out, err) == (3, "", "semantic error: not associative at (1,1,2)\n")


def test_property_failure_exits_1(capsys):
    # part budget too small to reach a regular partition
    code, out, _ = run(capsys, "regularity", G16, "--eps", "1/4",
                       "--kmax", "2")
    assert code == 1
    assert "k-max-exhausted" in out


def test_deeply_nested_negations_exit_2(capsys):
    code, _, err = run(capsys, "eval", Z4, "~" * 3000 + "(x = e)", "--bind", "x=0")
    assert code == 2
    assert err == (f"parse error: formula nests deeper than {MAX_DEPTH} levels "
                   f"(at {MAX_DEPTH}..{MAX_DEPTH + 1})\n")


def test_deeply_nested_parentheses_exit_2(capsys):
    code, _, err = run(capsys, "eval", Z4, "(" * 1200 + "x = e" + ")" * 1200,
                       "--bind", "x=0")
    assert code == 2
    assert err == (f"parse error: formula nests deeper than {MAX_DEPTH} levels "
                   f"(at {MAX_DEPTH}..{MAX_DEPTH + 1})\n")


def test_formula_at_the_depth_limit_evaluates(capsys):
    # the parenthesis is the last of the MAX_DEPTH levels; an odd number of ~
    code, out, _ = run(capsys, "eval", Z4, "~" * (MAX_DEPTH - 1) + "(x = e)",
                       "--bind", "x=0")
    assert (code, out) == (0, "false\n")


def test_malformed_graph_file_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.graph"
    bad.write_text("graph 4\n0 x\n")
    code, _, err = run(capsys, "regularity", str(bad), "--eps", "1/4")
    assert code == 2
    assert err == f"error: {bad}: line 2: bad vertex\n"


def test_regularity_algorithm_errors_still_exit_3(capsys):
    code, _, err = run(capsys, "regularity", G16, "--eps", "2")
    assert code == 3
    assert "eps must be in (0,1)" in err


def test_malformed_hypergraph_file_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.hg"
    bad.write_text("hypergraph 3 2\n0 1 2\n")
    code, _, err = run(capsys, "hypergraph", TWOTRI, "--pattern", str(bad))
    assert code == 2
    assert err == f"error: {bad}: line 2: expected 2 vertices\n"
    code, _, _ = run(capsys, "hypergraph", str(bad), "--pattern", TRI)
    assert code == 2


def test_graph_and_hypergraph_headers_name_their_line(capsys, tmp_path):
    bad = tmp_path / "bad.graph"
    bad.write_text("# no vertices\ngraph 0\n")
    code, out, err = run(capsys, "regularity", str(bad), "--eps", "1/4")
    assert (code, out, err) == (2, "", f"error: {bad}: line 2: graph file must start with "
                                       f"'graph <n>' (positive numbers)\n")
    bad.write_text("hypergraph 3 2\n0 1\n1 3\n")
    code, out, err = run(capsys, "hypergraph", TWOTRI, "--pattern", str(bad))
    assert (code, out, err) == (2, "", f"error: {bad}: line 3: expected 2 distinct vertices "
                                       f"in [0, 3), got '1 3'\n")


def test_structure_file_errors_name_the_path_and_line(capsys, tmp_path):
    bad = tmp_path / "bad.struct"
    bad.write_text("universe 2\nconstant e 0\n# table\nfunction f 1\n0 7\n")
    code, out, err = run(capsys, "eval", str(bad), "e = e")
    assert (code, out, err) == (2, "", f"error: {bad}: line 5: element 7 out of range [0, 2)\n")
    bad.write_text("universe 2\r\nrelation R 1\r\nend\r\n\r\nrelation R 2\r\nend\r\n")
    code, out, err = run(capsys, "measure", str(bad), "x = x")
    assert (code, out, err) == (2, "", f"error: {bad}: line 5: symbol 'R' is already declared\n")
    bad.write_text("universe 2\nfunction f 1\n0\n")    # the end of input: the last line
    code, out, err = run(capsys, "eval", str(bad), "e = e")
    assert (code, out, err) == (2, "", f"error: {bad}: line 3: non-total function table "
                                       f"for 'f': expected 2 results, found 1\n")
    bad.write_text("universe 2\nfunction f 20000\n0\n")  # 2^20000 is never computed
    code, out, err = run(capsys, "eval", str(bad), "e = e")
    assert (code, out, err) == (2, "", f"error: {bad}: line 3: non-total function table "
                                       f"for 'f': expected 2^20000 results, found 1\n")


def test_check_axioms_names_the_structure_file_that_failed(capsys, tmp_path):
    bad = tmp_path / "bad.struct"
    bad.write_text("universe 2\nconstant e 0\nconstant e 1\n")
    code, out, err = run(capsys, "check-axioms", Z4, str(bad), "--count", "4")
    assert (code, out, err) == (2, "", f"error: {bad}: line 3: symbol 'e' is already declared\n")


def test_files_that_are_not_utf8_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.struct"
    bad.write_bytes(b"universe 2\n\xff\n")
    code, out, err = run(capsys, "eval", str(bad), "e = e")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {bad}: not UTF-8 text: ")
    (tmp_path / "e.set").write_bytes(b"1 2\n\xfe\n")
    fam = tmp_path / "e.fam"
    fam.write_text("family interval e.set 1 5\n")
    code, out, err = run(capsys, "limit", str(fam), "--sentence", "e = e")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {tmp_path / 'e.set'}: not UTF-8 text: ")


def test_gowers_over_budget_exits_4(capsys):
    code, out, err = run(capsys, "gowers", "z8", "--g", "1,2,3,4,5,6,7,8",
                         "--k", "3", "--budget", "10")
    assert (code, out) == (4, "")
    # the z8 addition table is charged (8^2 units) before the derivative tables
    assert err == "budget error: enumeration budget exceeded: 64 work units > limit 10\n"
    code, _, _ = run(capsys, "gowers", "z2", "--g", "1,-1", "--k", "40")   # 4^40 units
    assert code == 4
    # z40 at k = 3: 40^2 + 80^3 units, well within the default budget
    code, out, _ = run(capsys, "gowers", "z40", "--g=" + ",".join(["1", "-1"] * 20), "--k", "3")
    assert (code, out) == (0, "U^3 power = 1\nnorm approx 1\n")


def test_density_over_budget_exits_4(capsys):
    # N = 10, Lmin = 2: only lengths 2 and 3 are scanned, 9 + 8 windows
    code, _, err = run(capsys, "density", "--E", EVENS, "--N", "10", "--Lmin", "2",
                       "--budget", "16")
    assert code == 4
    assert err == "budget error: enumeration budget exceeded: 17 work units > limit 16\n"
    code, out, _ = run(capsys, "density", "--E", EVENS, "--N", "10", "--Lmin", "2",
                       "--budget", "17")
    assert (code, out) == (0, "banach density = 2/3\n")


def test_seed_belongs_to_check_axioms_only(capsys):
    with pytest.raises(SystemExit) as ex:
        main(["eval", Z4, "e = e", "--seed", "1"])
    assert ex.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_trace_belongs_to_eval_and_limit(capsys):
    with pytest.raises(SystemExit) as ex:
        main(["gowers", "z2", "--g", "1,-1", "--k", "2", "--trace"])
    assert ex.value.code == 2
    assert "unrecognized arguments: --trace" in capsys.readouterr().err
    code, out, _ = run(capsys, "limit", FAM, "--phi", "x = e", "--vars", "x",
                       "--target", "0", "--trace")
    assert code == 0
    assert out.splitlines()[1:3] == ["  index 1: mu = 1", "  index 2: mu = 1/2"]


EVERY_SUBCOMMAND = [
    ["eval", Z4, "m[x] <= 1/4 . x = e"],
    ["measure", Z4, "x = e", "--vars", "x"],
    ["check-axioms", Z4, "--count", "10"],
    ["gowers", "z4", "--g", "1,-1,1,-1", "--k", "2"],
    ["regularity", G16, "--eps", "1/4"],
    ["hypergraph", TWOTRI, "--pattern", TRI],
    ["ap-encode", "--A", EVENS, "--n", "10", "--k", "2"],
    ["limit", FAM, "--sentence", "m[x] <= 1/3 . x = e"],
    ["density", "--E", EVENS, "--N", "10", "--Lmin", "2"],
    ["furstenberg", "--E", EVENS, "--N", "10", "--U", "0,2"],
]


@pytest.mark.parametrize("argv", EVERY_SUBCOMMAND, ids=lambda argv: argv[0])
def test_every_subcommand_honours_the_budget(capsys, argv):
    code, out, err = run(capsys, *argv, "--budget", "1")
    assert (code, out) == (4, "")
    assert err.startswith("budget error: enumeration budget exceeded:")
    assert run(capsys, *argv)[0] == 0


def _split_stats(out):
    """``out`` before its trailing stats.<name>=<n> records, and those records."""
    lines = out.splitlines(keepends=True)
    first = len(lines)
    while first and lines[first - 1].startswith("stats."):
        first -= 1
    return "".join(lines[:first]), [line.rstrip("\n") for line in lines[first:]]


@pytest.mark.parametrize("fmt", ["text", "records"])
@pytest.mark.parametrize("argv", EVERY_SUBCOMMAND, ids=lambda argv: argv[0])
def test_stats_come_last_and_change_nothing_else(capsys, argv, fmt):
    code, out, err = run(capsys, *argv, "--format", fmt)
    code_stats, out_stats, err_stats = run(capsys, *argv, "--format", fmt, "--stats")
    shown, stats = _split_stats(out_stats)
    assert (code_stats, shown, err_stats) == (code, out, err)
    assert stats[0].startswith("stats.budget.used=")
    names = [line.partition("=")[0] for line in stats[1:]]
    assert names == sorted(names)
    # the units charged: the run fits a budget of exactly that many, not one fewer
    used = int(stats[0].partition("=")[2])
    assert used > 1
    assert run(capsys, *argv, "--format", fmt, "--budget", str(used))[:2] == (code, out)
    assert run(capsys, *argv, "--format", fmt, "--budget", str(used - 1))[:2] == (4, "")


def test_stats_count_the_regularity_pair_checks(capsys):
    code, out, _ = run(capsys, "regularity", G16, "--eps", "1/4", "--stats")
    assert code == 0
    assert _split_stats(out)[1] == ["stats.budget.used=4366",
                                    "stats.regularity.irregular_pairs=22",
                                    "stats.regularity.pair_checks=29"]


@pytest.mark.parametrize("argv, code", [
    (["regularity", G16, "--eps", "1/4", "--kmax", "2"], 1),
    (["regularity", G16, "--eps", "2"], 3),
    (["regularity", G16, "--eps", "x"], 2),
    (["regularity", G16, "--eps", "1/4", "--budget", "100"], 4),
])
def test_stats_keep_the_exit_code_and_the_stream_rules(capsys, argv, code):
    # a property failure still prints its stats; an error prints no stdout
    got, out, err = run(capsys, *argv, "--stats")
    assert (got, err) == (code, run(capsys, *argv)[2])
    stats = _split_stats(out)[1]
    assert bool(stats) == (code == 1)


def test_declared_sizes_are_charged_before_allocation(capsys, tmp_path):
    # a header alone would otherwise build a 10^12-element universe or graph
    huge = tmp_path / "huge.struct"
    huge.write_text(f"universe {10 ** 12}\nmeasure counting\n")
    code, out, err = run(capsys, "eval", str(huge), "x = x", "--bind", "x=0")
    assert (code, out) == (4, "")
    assert err == ("budget error: enumeration budget exceeded: "
                   f"{10 ** 12} work units > limit {10 ** 7}\n")
    huge = tmp_path / "huge.graph"
    huge.write_text(f"graph {10 ** 12}\n0 1\n")
    code, out, _ = run(capsys, "regularity", str(huge), "--eps", "1/4")
    assert (code, out) == (4, "")


# main in a child whose address space is capped at 256 MiB (in the child only):
# a run that builds until the cap stops within a second
_CAPPED_MAIN = ("import resource, sys\n"
                "resource.setrlimit(resource.RLIMIT_AS, (1 << 28, 1 << 28))\n"
                "from aml.cli import main\n"
                "sys.exit(main(sys.argv[1:]))\n")


@pytest.fixture(scope="module")
def wide_graph(tmp_path_factory):
    """graph 5000000 and 20,000 random edges: 311 KB, whose adjacency masks
    would take about 12.5 GB."""
    rng = random.Random(1)
    path = tmp_path_factory.mktemp("wide") / "wide.graph"
    path.write_text("graph 5000000\n" + "".join(
        "{} {}\n".format(*rng.sample(range(5 * 10 ** 6), 2)) for _ in range(20000)))
    return str(path)


@pytest.mark.parametrize("argv", [
    ["regularity", "WIDE", "--eps", "1/2"],
    ["regularity", "WIDE", "--eps", "1/2", "--budget", str(10 ** 12)],
    ["eval", "UNIVERSE", "e = e"],
    ["eval", "UNIVERSE", "e = e", "--budget", str(10 ** 9)],
], ids=["wide-graph", "wide-graph-raised", "universe", "universe-raised"])
def test_inputs_past_memory_exit_4_without_a_traceback(tmp_path, wide_graph, argv):
    # the default budget stops both at their headers; a raised one lets them
    # build until memory runs out, and main maps the MemoryError to exit 4
    universe = tmp_path / "huge.struct"
    universe.write_text("universe 300000000\n")
    argv = [{"WIDE": wide_graph, "UNIVERSE": str(universe)}.get(a, a) for a in argv]
    src = str(Path(cli.__file__).parents[1])
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", _CAPPED_MAIN, *argv], capture_output=True,
                          text=True, env={"PYTHONPATH": src}, timeout=60)
    assert time.perf_counter() - start < 2
    assert (done.returncode, done.stdout) == (4, "")
    assert done.stderr.startswith("budget error: ")
    assert "Traceback" not in done.stderr


def test_gowers_cube_charges_its_corners(capsys):
    # z2 at k = 14: 4 units for the table, then (2n)^14 for the derivative tables
    start = time.perf_counter()
    code, out, err = run(capsys, "gowers", "z2", "--g=1,-1", "--k", "14", "--budget", "100000")
    assert (code, out) == (4, "")
    assert err == ("budget error: enumeration budget exceeded: "
                   f"{4 + 4 ** 14} work units > limit 100000\n")
    # z1 at k = 22 has one table per depth but is charged 2^22
    code, out, err = run(capsys, "gowers", "z1", "--g=1", "--k", "22", "--budget", "2")
    assert (code, out) == (4, "")
    assert err == "budget error: enumeration budget exceeded: 2^22 or more work units > limit 2\n"
    # within its budget, k = 1200 is 1200 tables deep, with no call depth
    code, out, err = run(capsys, "gowers", "z1", "--g=1", "--k", "1200",
                         "--budget", str(10 ** 400), "--format", "records")
    assert (code, out, err) == (0, "power=1\napprox=1\n", "")
    assert time.perf_counter() - start < 1


def test_gowers_cube_charges_the_words_of_each_product(capsys):
    # a common denominator of 26,576 bits: at k = 5 each square and the
    # power's denominator span 13,288 64-bit words, and at k = 6 26,576; on
    # z1 one of 13,288 bits spans 53,149 words at k = 8 (about a million
    # digits to print); all three trip the budget
    big = 10 ** 4000
    for group, g, k, words in [("z2", f"1/{big},1/{big - 1}", 5, 13288),
                               ("z2", f"1/{big},1/{big - 1}", 6, 26576),
                               ("z1", f"1/{big}", 8, 53149)]:
        n = int(group[1:])
        start = time.perf_counter()
        code, out, err = run(capsys, "gowers", group, f"--g={g}", "--k", str(k))
        assert (code, out) == (4, "")
        assert err == ("budget error: enumeration budget exceeded: "
                       f"{n * n + (2 * n) ** k * words} work units > limit {10 ** 7}\n")
        assert time.perf_counter() - start < 1


def test_gowers_charges_the_rendering_of_a_long_power(capsys):
    # z1 at k = 7 with g = 1/10^4000: the power 1/10^512000 (26,576 words)
    # costs 3,401,601 units to build, and its decimal root and 512,001
    # digits would take seconds more; its 26,575 words past the first are
    # charged 26,575² before either runs
    start = time.perf_counter()
    code, out, err = run(capsys, "gowers", "z1", f"--g=1/{10 ** 4000}", "--k", "7")
    assert (code, out) == (4, "")
    assert err == ("budget error: enumeration budget exceeded: "
                   f"{3401601 + 26575 ** 2} work units > limit {10 ** 7}\n")
    assert time.perf_counter() - start < 1
    # 1/10^5120 has 266 words: 33,921 units to build, 265² to render, and the
    # output needs exactly that budget
    argv = ("gowers", "z1", f"--g=1/{10 ** 40}", "--k", "7", "--format", "records")
    want = f"power=1/1{'0' * 5120}\napprox=1.0000000000000000000E-40\n"
    assert run(capsys, *argv, "--budget", str(33921 + 265 ** 2)) == (0, want, "")
    assert run(capsys, *argv, "--budget", str(33921 + 265 ** 2 - 1))[:2] == (4, "")
    # a power of one word is charged nothing to render: 4² + 8² units in all
    code, out, _ = run(capsys, "gowers", "z4", "--g=1,-1,1,-1", "--k", "2", "--stats")
    assert (code, out) == (0, "U^2 power = 1\nnorm approx 1\nstats.budget.used=80\n")


def test_exponents_read_from_input_trip_the_budget_unbuilt(capsys, tmp_path):
    # each power has an input integer for exponent, far past the limit's
    # 24 bits, so it trips the budget without being built or printed; the
    # hypergraph headers charge their 20 and 1000 vertices first
    host, pattern = tmp_path / "host.hg", tmp_path / "pattern.hg"
    host.write_text("hypergraph 20 1\n0\n")
    pattern.write_text("hypergraph 1000 1\n0\n")
    for argv, exponent in [(["gowers", "z3", "--g=1,1,1", "--k", "10000"], 10000),
                           (["ap-encode", "--A", "1,2", "--n", "3", "--k", "20000"], 20000),
                           (["hypergraph", str(host), "--pattern", str(pattern)], 1000)]:
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert (code, out) == (4, ""), argv
        assert err == ("budget error: enumeration budget exceeded: "
                       f"2^{exponent} or more work units > limit {10 ** 7}\n")
        assert time.perf_counter() - start < 1, argv
    # headers of 2 and 8 vertices fit a budget of 10, and 2^8 maps past its 4 bits
    host.write_text("hypergraph 2 1\n0\n")
    pattern.write_text("hypergraph 8 1\n0\n")
    code, out, err = run(capsys, "hypergraph", str(host), "--pattern", str(pattern),
                         "--budget", "10")
    assert (code, out) == (4, "")
    assert err == "budget error: enumeration budget exceeded: 2^8 or more work units > limit 10\n"


def test_a_charge_too_long_to_print_exits_4(capsys, digit_limit):
    # 4^k for k measured variables has more than digit_limit digits
    k = 2 * digit_limit
    code, out, err = run(capsys, "measure", Z4, "x0 = x0",
                         "--vars", ",".join(f"x{i}" for i in range(k)))
    assert (code, out) == (4, "")
    assert err == ("budget error: enumeration budget exceeded: "
                   f"2^{2 * k} or more work units > limit {10 ** 7}\n")


def test_integers_too_long_to_read_exit_2(capsys, tmp_path, digit_limit):
    digits = "1" * (digit_limit + 1)
    start = time.perf_counter()
    code, out, err = run(capsys, "eval", Z4, f"m[x] < {digits} . x = x")
    assert (code, out, err) == (2, "", f"parse error: integer of {len(digits)} digits is too "
                                       f"long (at 7..{7 + len(digits)})\n")
    code, out, err = run(capsys, "eval", Z4, f"m[x] < 1/{digits} . x = x")
    assert (code, out) == (2, "")
    assert err.startswith(f"parse error: integer of {len(digits)} digits is too long (at 9..")
    group = tmp_path / "big.group"
    group.write_text(f"# order past the limit\ngroup {digits}\n0\n")
    code, out, err = run(capsys, "gowers", str(group), "--g=1", "--k", "1")
    assert (code, out, err) == (2, "", f"error: {group}: line 2: integer of {len(digits)} "
                                       f"digits is too long\n")
    code, out, err = run(capsys, "gowers", f"z{digits}", "--g=1", "--k", "1")
    assert (code, out, err) == (2, "", f"error: integer of {len(digits)} digits is too long\n")
    assert time.perf_counter() - start < 1


def test_limit_charges_each_family_member(capsys, tmp_path):
    # Z_1..Z_600 need sum(i + i^2) > 7 * 10^7 units for universes and add tables
    fam = tmp_path / "big.fam"
    fam.write_text("family cyclic 1 600\n")
    code, out, _ = run(capsys, "limit", str(fam), "--sentence", "m[x] <= 1/3 . x = e")
    assert (code, out) == (4, "")


def _run_main(argv):
    """main()'s exit code, stdout and stderr, with argparse's own exits read
    as codes too."""
    out, err = StringIO(), StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    except SystemExit as e:
        code = e.code
    return code, out.getvalue(), err.getvalue()


# the first words of stderr for each error exit code
_ERROR_PREFIXES = {2: ("error: ", "parse error: ", "usage: "), 3: ("semantic error: ",),
                   4: ("budget error: ",)}


_FORMULA_TOKENS = ["~", "(", ")", "&", "|", "->", "forall", "exists", "x", "y", "e",
                   ".", ",", "=", "!=", "m[x]", "m[x,y]", "m[", "]", "<", "<=", ">=",
                   ">", "1/2", "1", "0/0", "add(", "add(x, e)", "@", "q", "forall x ."]
# words at the edge of the numeral grammar, a 5,000-digit literal among them
_NUMERALS = ["1_0", "٣", "²", "+7", "07", "-0", "1" * 5000]
_GRAPH_WORDS = ["graph", "hypergraph", "0", "1", "2", "3", "6", "-1", "x", "#", "1/2", *_NUMERALS]


@st.composite
def _formula_texts(draw):
    run_token = draw(st.sampled_from(["~", "(", "~(", "x = e & "]))
    run = run_token * draw(st.integers(min_value=0, max_value=30 * MAX_DEPTH))
    tokens = draw(st.lists(st.sampled_from(_FORMULA_TOKENS), max_size=30))
    return run + " ".join(tokens)


@st.composite
def _graph_texts(draw):
    header = draw(st.sampled_from(["graph 6", "graph 1", "graph 0", "graph", "graph x",
                                   "graph 3 3", "hypergraph 6 2", "hypergraph 6 1",
                                   "hypergraph 6 3", "",
                                   *(f"graph {w}" for w in _NUMERALS)]))
    lines = draw(st.lists(st.lists(st.sampled_from(_GRAPH_WORDS), max_size=3),
                          max_size=8))
    return "\n".join([header] + [" ".join(words) for words in lines]) + "\n"


def _cmd(*parts):
    """An argv strategy: each part is a string, a file (a ("file", text or bytes) pair,
    written out by the test) or a strategy drawing either or a list of them."""
    def flat(drawn):
        out = []
        for part in drawn:
            out.extend(part if isinstance(part, list) else [part])
        return out
    return st.tuples(*(p if isinstance(p, st.SearchStrategy) else st.just(p)
                       for p in parts)).map(flat)


def _opt(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


def _file(texts):
    return texts.map(lambda text: ("file", text))


@st.composite
def _structure_texts(draw):
    lines = Path(Z4).read_text().splitlines()
    kept = lines[:draw(st.integers(min_value=0, max_value=len(lines)))]
    extra = draw(st.sampled_from(["", "universe 0", "universe -1", "measure weights 1 0",
                                  "relation P 1", "0 9", "constant c 5",
                                  "constant add 1", "function e 1\n0 1 2 3",  # redeclared
                                  "function g 20000\n0",  # no file fills 4^20000
                                  *(f"constant c {w}" for w in _NUMERALS),
                                  *(f"measure weights {w} 1 1 1" for w in _NUMERALS)]))
    return "\n".join(kept + [extra]) + "\n"


@st.composite
def _group_texts(draw):
    n = draw(st.integers(min_value=-1, max_value=4))
    entries = draw(st.one_of(
        st.just([(a + b) % n for a in range(n) for b in range(n)] if n > 0 else []),
        st.lists(st.one_of(st.integers(min_value=-1, max_value=4), st.sampled_from(_NUMERALS)),
                 max_size=16)))
    header = draw(st.sampled_from([str(n), *_NUMERALS]))
    return f"group {header}\n" + " ".join(map(str, entries)) + "\n"


_INT = st.sampled_from(["0", "-1", "1", "2", "3", "12", *_NUMERALS])
_LIST = st.lists(st.sampled_from(["0", "1", "-1", "2", "5", "1/2", "x", "1/0", *_NUMERALS]),
                 max_size=6).map(",".join)
_NOT_UTF8 = _file(st.sampled_from([b"universe 2\n\xff\n", b"\xfe 1 2\n"]))
_SET = st.one_of(st.just(EVENS), _LIST, _file(_LIST), _NOT_UTF8)
_EPS = st.sampled_from(["1/4", "1/3", "0", "1", "2", "-1/2", "x", "1/0", *_NUMERALS])
_FORMULA = st.sampled_from(["x = e", "e = e", "m[x] <= 1/2 . add(x, x) = e", "x = y",
                            "P(x)", "x ="])
_STRUCTURE = st.one_of(_file(_structure_texts()), _NOT_UTF8)
_GRAPH = st.one_of(st.just(G16), _file(_graph_texts()), _NOT_UTF8)
_HYPERGRAPH = st.one_of(st.just(TRI), st.just(TWOTRI), _file(_graph_texts()))
_FAMILY = _file(st.builds(
    "family {} {} {}{}\n".format,
    st.sampled_from(["cyclic", f"interval {EVENS}", "interval nope", "bogus"]), _INT, _INT,
    st.sampled_from(["", " predicate E even", " predicate E nope", " predicate add odd"])))

_EVERY_SUBCOMMAND_ARGV = st.one_of(
    _formula_texts().map(lambda text: ["eval", Z4, text, "--bind", "x=0"]),
    _cmd("eval", _STRUCTURE, _FORMULA,
         _opt("--bind", st.sampled_from(["x=0", "x=9", "x", "x=0,x=1",
                                         *(f"x={w}" for w in _NUMERALS)]))),
    _cmd("measure", _STRUCTURE, _FORMULA, _opt("--vars", st.sampled_from(["x", "x,y", "x,x"]))),
    _cmd("check-axioms", _STRUCTURE, _opt("--count", _INT), _opt("--seed", _INT),
         _opt("--schemes", st.sampled_from(["AML", "I", "F", "F+", "f-a,I", "nope", ","]))),
    _cmd("gowers", st.one_of(_INT.map("z{}".format), _file(_group_texts())),
         "--g", _LIST, "--k", _INT),
    _cmd("regularity", _GRAPH, "--eps", _EPS, _opt("--cap", _INT), _opt("--kmax", _INT)),
    _cmd("hypergraph", _HYPERGRAPH, "--pattern", _HYPERGRAPH,
         st.sampled_from([[], ["--remove"]]), _opt("--eps", _EPS)),
    _cmd("ap-encode", "--A", _SET, "--n", _INT, "--k", _INT),
    _cmd("limit", _FAMILY,
         st.one_of(_cmd("--sentence", _FORMULA),
                   _cmd("--phi", _FORMULA, _opt("--target", _EPS), _opt("--vars", _LIST))),
         _opt("--slack", _INT)),
    _cmd("density", "--E", _SET, "--N", _INT, _opt("--Lmin", _INT)),
    _cmd("furstenberg", "--E", _SET, "--N", _INT, "--U", _LIST),
)


@given(_EVERY_SUBCOMMAND_ARGV)
@example(["regularity", G16, "--eps", "1/4", "--cap", "0"])
@settings(max_examples=200, deadline=None)
def test_every_input_gets_a_contract_exit_code(tmp_path_factory, argv):
    # codes 0-4 only: no traceback, and no exit 1 from a crash; an error
    # writes only stderr, under its code's prefix, and a result only stdout
    base = tmp_path_factory.getbasetemp()
    for i, arg in enumerate(argv):
        if isinstance(arg, tuple):
            path = base / f"fuzz{i}"
            (path.write_bytes if isinstance(arg[1], bytes) else path.write_text)(arg[1])
            argv[i] = str(path)
    code, out, err = _run_main(argv + ["--budget", "20000"])
    assert code in range(5)
    if code in _ERROR_PREFIXES:
        assert out == ""
        assert err.startswith(_ERROR_PREFIXES[code]), err
    else:
        assert err == ""


# -- measure ------------------------------------------------------------------------

def test_measure_text_and_records(capsys):
    code, out, _ = run(capsys, "measure", Z4, "x = e", "--vars", "x")
    assert (code, out) == (0, "mu = 1/4 (count 1 of 4)\n")
    code, out, _ = run(capsys, "measure", Z4, "x = e", "--vars", "x",
                       "--format", "records")
    assert out == "mu=1/4\ncount=1\ntuples=4\n"


# -- check-axioms ----------------------------------------------------------------------

def test_check_axioms_all_hold(capsys):
    code, out, _ = run(capsys, "check-axioms", Z4, "--count", "10",
                       "--seed", "1")
    assert (code, out) == (0, "10/10 hold\n")


def test_check_axioms_scheme_subset(capsys):
    code, out, _ = run(capsys, "check-axioms", Z4, "--count", "8",
                       "--seed", "2", "--schemes", "F")
    assert (code, out) == (0, "8/8 hold\n")


def test_check_axioms_deterministic(capsys):
    args = ("check-axioms", Z4, "--count", "12", "--seed", "5",
            "--format", "records")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second == "held=12\ntotal=12\n"


def test_check_axioms_charges_its_count_before_generating(capsys):
    # 4 for the universe, then 20000 instances times z4's widest arity, 2
    code, out, err = run(capsys, "check-axioms", Z4, "--count", "20000", "--budget", "100")
    assert (code, out) == (4, "")
    assert err == "budget error: enumeration budget exceeded: 40004 work units > limit 100\n"


def test_check_axioms_charges_a_huge_arity_before_generating(capsys, tmp_path):
    # one table entry, but every generated term of f would have 10^6 arguments
    huge = tmp_path / "huge.struct"
    huge.write_text("universe 1\nfunction f 1000000\n0\n")
    code, out, err = run(capsys, "check-axioms", str(huge), "--count", "1", "--budget", "1000")
    assert (code, out) == (4, "")
    assert err == "budget error: enumeration budget exceeded: 1000001 work units > limit 1000\n"


def test_check_axioms_rejects_a_negative_count(capsys):
    code, out, err = run(capsys, "check-axioms", Z4, "--count", "-1")
    assert (code, out, err) == (2, "", "error: --count must be nonnegative, got -1\n")


def test_check_axioms_over_several_structures(capsys):
    # the exit code compares held with the total over all structures
    code, out, _ = run(capsys, "check-axioms", Z4, Z4, "--count", "10")
    assert (code, out) == (0, "10/10 hold\n")


# -- gowers ------------------------------------------------------------------------------

def test_gowers_character(capsys):
    code, out, _ = run(capsys, "gowers", "z2", "--g", "1,-1", "--k", "2")
    assert code == 0
    assert out == "U^2 power = 1\nnorm approx 1\n"


def test_gowers_takes_a_leading_minus_after_equals(capsys):
    code, out, _ = run(capsys, "gowers", "z4", "--g=-1,1,-1,1", "--k", "2")
    assert (code, out) == (0, "U^2 power = 1\nnorm approx 1\n")
    # spaced, argparse reads "-1,1,-1,1" as an option and --g as missing its value
    with pytest.raises(SystemExit) as ex:
        main(["gowers", "z4", "--g", "-1,1,-1,1", "--k", "2"])
    assert ex.value.code == 2
    assert "argument --g: expected one argument" in capsys.readouterr().err


def test_gowers_records(capsys):
    code, out, _ = run(capsys, "gowers", "z4", "--g", "1,0,0,0", "--k", "2",
                       "--format", "records")
    assert code == 0
    assert out == "power=1/64\napprox=0.35355339059327376220\n"


def test_a_power_too_long_for_the_digit_limit_is_printed_exactly(capsys, digit_limit):
    # the power's denominator is about 10^(80·64): past the int-to-str limit,
    # so it prints with the limit lifted for that one conversion
    big = 10 ** 40
    g = gowers.GridFunction(2, 1, (Fraction(1, big), Fraction(1, big - 1)), ())
    power = gowers.gowers_norm_pow(gowers.AbelianGroup.cyclic(2), g, 6)
    sys.set_int_max_str_digits(0)
    try:
        exact = str(power)
    finally:
        sys.set_int_max_str_digits(digit_limit)
    assert len(exact) > digit_limit
    argv = ("gowers", "z2", f"--g=1/{big},1/{big - 1}", "--k", "6")
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == f"U^6 power = {exact}\nnorm approx 1.0000000000000000000E-40\n"
    code, out, err = run(capsys, *argv, "--format", "records")
    assert (code, err) == (0, "")
    assert out == f"power={exact}\napprox=1.0000000000000000000E-40\n"
    assert time.perf_counter() - start < 1
    assert sys.get_int_max_str_digits() == digit_limit


def test_a_measure_too_long_for_the_digit_limit_is_printed_exactly(capsys, tmp_path,
                                                                    digit_limit):
    # weights 1/10^h and 1, each within the limit: x = y over pairs measures
    # (10^(2h) + 1)/10^(2h), whose numerator has more digits than the limit
    h = digit_limit // 2 + 1
    structure = tmp_path / "tiny.struct"
    structure.write_text(f"universe 2\nmeasure weights 1/1{'0' * h} 1\n")
    mu = f"1{'0' * (2 * h - 1)}1/1{'0' * (2 * h)}"
    argv = ("measure", str(structure), "x = y", "--vars", "x,y")
    assert run(capsys, *argv) == (0, f"mu = {mu} (count 2 of 4)\n", "")
    assert run(capsys, *argv, "--format", "records") == \
        (0, f"mu={mu}\ncount=2\ntuples=4\n", "")
    argv = ("eval", str(structure), "m[x,y] <= 1 . x = y")
    assert run(capsys, *argv, "--trace") == \
        (0, f"false (mu = {mu}, <= 1, flag ⊙)\n"
            f"  trace 0: m[x,y] <= 1: count 2, mu = {mu}, flag ⊙ -> false\n", "")
    assert run(capsys, *argv, "--trace", "--format", "records") == \
        (0, f"verdict=false\nmu={mu}\ncmp=<=\nthreshold=1\nflag=.\n"
            f"trace.0=m[x,y] <= 1: count 2, mu = {mu}, flag ⊙ -> false\n", "")
    assert sys.get_int_max_str_digits() == digit_limit


def test_records_are_formatted_when_recorded(digit_limit):
    # so that printing them, after main's error handling, cannot raise
    out = cli._Out("records")
    with pytest.raises(ValueError):
        out.record("big", 10 ** digit_limit)


def test_gowers_checks_the_values_before_building_a_table(capsys, monkeypatch, tmp_path):
    built = []
    monkeypatch.setattr(gowers.AbelianGroup, "cyclic", staticmethod(built.append))
    code, out, err = run(capsys, "gowers", "z1000", "--g", "1", "--k", "1")
    assert (code, out, err) == (3, "", "semantic error: --g needs 1000 values for this group\n")
    group = tmp_path / "klein.group"
    group.write_text("group 4\n0 1 2 3\n1 0 3 2\n2 3 0 1\n3 2 1 0\n")
    monkeypatch.setattr(gowers.AbelianGroup, "from_table", staticmethod(built.append))
    code, out, err = run(capsys, "gowers", str(group), "--g", "1,-1", "--k", "1")
    assert (code, out, err) == (3, "", "semantic error: --g needs 4 values for this group\n")
    assert built == []


@pytest.mark.parametrize("group", ["z-3", "z0"])
def test_gowers_refuses_a_non_positive_order_before_the_values(capsys, group):
    code, out, err = run(capsys, "gowers", group, "--g=1", "--k", "1")
    assert (code, out, err) == (3, "", "semantic error: group order must be positive\n")


def test_gowers_checks_k_before_building_a_table(capsys, monkeypatch):
    built = []
    monkeypatch.setattr(gowers.AbelianGroup, "cyclic", staticmethod(built.append))
    ones = ",".join(["1"] * 1000)
    code, out, err = run(capsys, "gowers", "z1000", "--g", ones, "--k", "0", "--budget", "10")
    assert (code, out, err) == (3, "", "semantic error: k must be >= 1\n")
    assert built == []


def test_gowers_charges_the_cyclic_table_before_building_it(capsys):
    ones = ",".join(["1"] * 1000)
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "gowers", "z1000", "--g", ones, "--k", "1", "--budget", "10")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (4, "")
    assert err == "budget error: enumeration budget exceeded: 1000000 work units > limit 10\n"
    assert peak < 4 * 10 ** 6               # building the 1000 x 1000 table peaks over 30 MB


def test_group_files_take_comments_and_name_the_bad_line(capsys, tmp_path):
    group = tmp_path / "z2.group"
    group.write_text("# the cyclic group of order 2\ngroup 2  # order\n0 1\n1 0\n")
    assert run(capsys, "gowers", str(group), "--g", "1,-1", "--k", "1")[:2] == \
        (0, "U^1 power = 0\nnorm approx 0\n")
    group.write_text("# header missing\n0 1\n")
    code, out, err = run(capsys, "gowers", str(group), "--g", "1,-1", "--k", "1")
    assert (code, out, err) == (2, "", f"error: {group}: line 2: expected 'group <n>'\n")
    group.write_text("group 2\n0 1\n# swapped\n1 o\n")
    code, out, err = run(capsys, "gowers", str(group), "--g", "1,-1", "--k", "1")
    assert (code, out, err) == (2, "", f"error: {group}: line 4: expected an integer, got 'o'\n")
    for header in ("group 0", "group -1\n0"):
        group.write_text(f"# bad order\n{header}\n")
        code, out, err = run(capsys, "gowers", str(group), "--g", "1", "--k", "1")
        assert (code, out, err) == (2, "", f"error: {group}: line 2: expected 'group <n>'\n")
    group.write_text("group 2\n0 1\n1\n")
    code, out, err = run(capsys, "gowers", str(group), "--g", "1,-1", "--k", "1")
    assert (code, out, err) == (2, "", f"error: {group}: line 3: group table needs 4 entries, "
                                       f"got 3\n")


def test_group_files_charge_their_associativity_check(capsys, tmp_path):
    group = tmp_path / "klein.group"
    group.write_text("group 4\n0 1 2 3\n1 0 3 2\n2 3 0 1\n3 2 1 0\n")
    argv = ("gowers", str(group), "--g", "1,1,-1,-1", "--k", "2")
    code, out, err = run(capsys, *argv, "--budget", "63")
    assert (code, out) == (4, "")
    assert err == "budget error: enumeration budget exceeded: 64 work units > limit 63\n"
    assert run(capsys, *argv)[:2] == (0, "U^2 power = 1\nnorm approx 1\n")


# -- regularity -----------------------------------------------------------------------------

def test_regularity_text_output(capsys):
    code, out, _ = run(capsys, "regularity", G16, "--eps", "1/4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "partition of 16 vertices into 16 parts (status: regular)"
    assert lines[1] == "  part 0: 0"


def test_regularity_records_energy_log(capsys):
    code, out, _ = run(capsys, "regularity", G16, "--eps", "1/4",
                       "--format", "records")
    assert code == 0
    records = dict(line.split("=", 1) for line in out.splitlines())
    assert records["status"] == "regular"
    assert records["energy.0"] == "1801/8192"
    assert records["energy.1"] == "577/2048"
    assert records["energy.2"] == "59/128"


def test_regularity_rejects_a_cap_below_one(capsys):
    code, out, err = run(capsys, "regularity", G16, "--eps", "1/4", "--cap", "0")
    assert (code, out) == (3, "")
    assert err == "semantic error: the exact part-size cap must be at least 1, got 0\n"


def test_regularity_degree_certificate_is_metered(capsys, tmp_path):
    # K200 as one part of 200: the certificate would scan 151 x 151 cells over
    # 400 degrees each, so it is charged 9120400 units before it starts
    k200 = tmp_path / "k200.graph"
    k200.write_text("graph 200\n" + "".join(
        f"{a} {b}\n" for a, b in itertools.combinations(range(200), 2)))
    start = time.perf_counter()
    code, out, err = run(capsys, "regularity", str(k200), "--eps", "1/4", "--cap", "200",
                         "--budget", "100000")
    assert (code, out) == (4, "")
    assert err == "budget error: enumeration budget exceeded: 9121400 work units > limit 100000\n"
    assert time.perf_counter() - start < 1


def test_regularity_certificate_settles_k300_in_seconds(capsys, tmp_path):
    # K300 as one part of 300: 226 x 226 certificate cells, each read off
    # prefix sums of the sorted degrees, settle the pair as regular
    k300 = tmp_path / "k300.graph"
    k300.write_text("graph 300\n" + "".join(
        f"{a} {b}\n" for a, b in itertools.combinations(range(300), 2)))
    start = time.perf_counter()
    code, out, _ = run(capsys, "regularity", str(k300), "--eps", "1/4", "--cap", "300",
                       "--budget", "100000000", "--format", "records")
    assert code == 0
    assert "status=regular\n" in out
    assert time.perf_counter() - start < 5


# -- hypergraph -------------------------------------------------------------------------------

def test_hypergraph_count(capsys):
    code, out, _ = run(capsys, "hypergraph", TWOTRI, "--pattern", TRI)
    assert (code, out) == (0, "copies = 12\n")


def test_hypergraph_removal_enumerates_the_host_once(capsys):
    # the headers' 6 + 3 vertices, 6^3 = 216 maps for the removal, 9 copy
    # sets filtered by the branch and bound (two sets at each of the root's 3
    # branches, then one at 3 more), 216 more maps to recount the stripped host
    argv = ("hypergraph", TWOTRI, "--pattern", TRI, "--remove")
    code, out, err = run(capsys, *argv, "--budget", "449")
    assert (code, out) == (4, "")
    assert err == "budget error: enumeration budget exceeded: 450 work units > limit 449\n"
    code, out, _ = run(capsys, *argv, "--budget", "450")
    assert (code, out) == (0, "copies = 12\n"
                              "removed 2 edges (branch-and-bound); copies after = 0\n")


def test_hypergraph_removal_search_is_metered(capsys, tmp_path):
    # the 990 triangle copies of K11 send the exact search through an
    # exponential tree; it must exit 4 once it has filtered 100000 copy sets
    k11 = tmp_path / "k11.hg"
    k11.write_text("hypergraph 11 2\n" + "".join(
        f"{a} {b}\n" for a, b in itertools.combinations(range(11), 2)))
    start = time.perf_counter()
    code, out, err = run(capsys, "hypergraph", str(k11), "--pattern", TRI, "--remove",
                         "--budget", "100000")
    assert (code, out) == (4, "")
    assert err.startswith("budget error: enumeration budget exceeded:")
    assert time.perf_counter() - start < 10


def test_k4_copies_in_k40_are_counted_quickly(capsys, tmp_path):
    # 40·39·38·37 labeled copies: the last vertex's images are counted off a
    # link mask, not tried one map at a time
    k40, k4 = tmp_path / "k40.hg", tmp_path / "k4.hg"
    for path, n in ((k40, 40), (k4, 4)):
        path.write_text(f"hypergraph {n} 2\n" + "".join(
            f"{a} {b}\n" for a, b in itertools.combinations(range(n), 2)))
    start = time.perf_counter()
    code, out, _ = run(capsys, "hypergraph", str(k40), "--pattern", str(k4),
                       "--budget", "100000000")
    assert (code, out) == (0, "copies = 2193360\n")
    assert time.perf_counter() - start < 2


def test_a_thousand_edge_hitting_set_is_searched_without_recursion(capsys, tmp_path):
    # 1000 disjoint edges, each a copy of the one-edge pattern: the exact
    # search goes 1000 branches deep.  Charged the headers' 2000 + 2 vertices,
    # 2000^2 maps, the 1000 + 999 + ... + 1 copy sets its branches filter, and
    # 2000^2 maps to recount.
    host, edge = tmp_path / "host.hg", tmp_path / "edge.hg"
    host.write_text("hypergraph 2000 2\n" + "".join(f"{2 * i} {2 * i + 1}\n"
                                                    for i in range(1000)))
    edge.write_text("hypergraph 2 2\n0 1\n")
    argv = ("hypergraph", str(host), "--pattern", str(edge), "--remove")
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (0, "copies = 2000\n"
                                   "removed 1000 edges (branch-and-bound); copies after = 0\n", "")
    assert time.perf_counter() - start < 1
    code, out, err = run(capsys, *argv, "--budget", "8502501")
    assert (code, out) == (4, "")
    assert err == "budget error: enumeration budget exceeded: 8502502 work units > limit 8502501\n"


def test_a_greedy_hitting_set_keeps_its_counts(capsys, tmp_path):
    # K160 holds 25,440 copies of one edge, past the exact search's cap: the
    # greedy set is every edge, 12,720 rounds, so recounting every edge each
    # round is quadratic.  Charged the headers' 160 + 2 vertices, 160^2 maps,
    # the 12,720 copy sets' incidences, then 160^2 maps to recount.
    host, edge = tmp_path / "k160.hg", tmp_path / "edge.hg"
    host.write_text("hypergraph 160 2\n" + "".join(
        f"{u} {v}\n" for u, v in itertools.combinations(range(160), 2)))
    edge.write_text("hypergraph 2 2\n0 1\n")
    argv = ("hypergraph", str(host), "--pattern", str(edge), "--remove")
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (0, "copies = 25440\n"
                                   "removed 12720 edges (greedy); copies after = 0\n", "")
    assert time.perf_counter() - start < 2
    code, out, err = run(capsys, *argv, "--budget", str(162 + 160 ** 2 + 12719))
    assert (code, out) == (4, "")
    assert err == "budget error: enumeration budget exceeded: 38482 work units > limit 38481\n"


def test_a_pattern_larger_than_a_one_vertex_host_is_charged_its_size(capsys, tmp_path):
    # one map of 3000 vertices, walked one vertex at a time: charged 3000,
    # after the headers' 1 + 3000 vertices
    host, pattern = tmp_path / "host.hg", tmp_path / "pattern.hg"
    host.write_text("hypergraph 1 1\n0\n")
    pattern.write_text("hypergraph 3000 1\n0\n")
    argv = ("hypergraph", str(host), "--pattern", str(pattern))
    code, out, err = run(capsys, *argv, "--budget", "6000")
    assert (code, out) == (4, "")
    assert err == "budget error: enumeration budget exceeded: 6001 work units > limit 6000\n"
    start = time.perf_counter()
    assert run(capsys, *argv, "--budget", "6001") == (0, "copies = 1\n", "")
    # a header past the budget trips it before its file's edges are read
    pattern.write_text(f"hypergraph {10 ** 9} 1\n0\n")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (4, "")
    assert err == ("budget error: enumeration budget exceeded: "
                   f"{10 ** 9 + 1} work units > limit {10 ** 7}\n")
    assert time.perf_counter() - start < 1


def test_hypergraph_removal(capsys):
    code, out, _ = run(capsys, "hypergraph", TWOTRI, "--pattern", TRI,
                       "--remove", "--eps", "1/10")
    assert code == 0
    assert out == ("copies = 12\n"
                   "removed 2 edges (branch-and-bound); copies after = 0\n"
                   "within eps*n^k bound: True\n")


def test_removal_eps_must_be_nonnegative(capsys):
    # a negative eps is refused before any copy is counted; eps = 0 and
    # eps >= 1 are read as written
    assert run(capsys, "hypergraph", TWOTRI, "--pattern", TRI, "--remove", "--eps", "-1") == \
        (3, "", "semantic error: eps must be nonnegative\n")
    for eps, within in (("0", "False"), ("1", "True")):
        code, out, _ = run(capsys, "hypergraph", TWOTRI, "--pattern", TRI, "--remove", "--eps", eps)
        assert (code, out.splitlines()[-1]) == (0, f"within eps*n^k bound: {within}")


def test_removing_an_edgeless_pattern_exits_3(capsys, tmp_path):
    edgeless = tmp_path / "edgeless.hg"
    edgeless.write_text("hypergraph 2 2\n")
    code, out, err = run(capsys, "hypergraph", TRI, "--pattern", str(edgeless), "--remove")
    assert (code, out) == (3, "")
    assert err.startswith("semantic error: a pattern without edges")


# -- ap-encode ---------------------------------------------------------------------------------

def test_ap_encode_verified(capsys):
    code, out, _ = run(capsys, "ap-encode", "--A", "1,2,3", "--n", "3",
                       "--k", "2")
    assert code == 0
    assert out == ("hypergraph: 18 vertices, 9 edges, parts 3/3/12\n"
                   "copies with nonzero difference = 1; "
                   "direct AP count = 1; verified\n")


def test_ap_encode_rejects_n_below_1_by_name(capsys, tmp_path):
    empty = tmp_path / "empty.set"
    empty.write_text("# no elements\n")
    for elements in (str(empty), "1,2"):
        code, out, err = run(capsys, "ap-encode", "--A", elements, "--n", "0", "--k", "2")
        assert (code, out, err) == (3, "", "semantic error: n must be >= 1\n")


# -- limit --------------------------------------------------------------------------------------

def test_limit_truth_profile(capsys):
    code, out, _ = run(capsys, "limit", FAM, "--sentence",
                       "m[x] <= 1/3 . x = e")
    assert (code, out) == (0, "EventuallyTrue(3)\n")


def test_limit_measure(capsys):
    code, out, _ = run(capsys, "limit", FAM, "--phi", "x = e",
                       "--vars", "x", "--target", "0")
    assert (code, out) == (0, "limit 0 flag ⊕; m<0: False, m<=0: False\n")


@pytest.mark.parametrize("phi, target, line", [
    ("x = e", "0", "limit 0 flag ⊕; m<0: False, m<=0: False"),
    ("x != e", "1", "limit 1 flag ⊖; m<1: True, m<=1: True"),
    ("x = x", "1", "limit 1 flag ⊙; m<1: False, m<=1: True"),
    ("x != e", "1/2", "Undetermined (one-sided monotone suffix covers only 1 of 20 indices)"),
], ids=["plus", "minus", "dot", "undetermined"])
def test_limit_measure_shows_each_flag_glyph(capsys, phi, target, line):
    assert run(capsys, "limit", FAM, "--phi", phi, "--target", target) == (0, line + "\n", "")


def test_limit_measure_records(capsys):
    code, out, _ = run(capsys, "limit", FAM, "--phi", "x = e",
                       "--vars", "x", "--target", "0", "--format", "records")
    assert code == 0
    lines = out.splitlines()
    assert lines[:5] == ["verdict=converged", "limit=0", "flag=+",
                         "lt=false", "le=false"]
    assert lines[5] == "mu.1=1" and lines[-1] == "mu.20=1/20"


def test_family_and_e_file_errors_name_the_path_and_line(capsys, tmp_path):
    fam = tmp_path / "bad.fam"
    fam.write_text("family cyclic 1 5  # Z_1..Z_5\npredicate E\n")
    code, out, err = run(capsys, "limit", str(fam), "--sentence", "e = e")
    assert (code, out, err) == (2, "", f"error: {fam}: line 2: expected "
                                       f"'predicate <name> <rule-id>', got 'predicate E'\n")
    fam.write_text("# no kind\nfamily\n")
    code, out, err = run(capsys, "limit", str(fam), "--sentence", "e = e")
    assert (code, out, err) == (2, "", f"error: {fam}: line 2: family file must start "
                                       f"with 'family cyclic|interval'\n")
    for text, name in (("family cyclic 2 9 predicate P even\npredicate P odd\n", "P"),
                       ("family cyclic 2 9\npredicate add even\n", "add")):
        fam.write_text(text)
        code, out, err = run(capsys, "limit", str(fam), "--sentence", "e = e")
        assert (code, out, err) == (2, "", f"error: {fam}: line 2: "
                                           f"symbol {name!r} is already declared\n")
    evens = tmp_path / "evens.set"
    evens.write_text("# evens\n2, 4, 6\n8 ten\n")
    fam.write_text("family interval evens.set 1 10\n")
    code, out, err = run(capsys, "limit", str(fam), "--sentence", "e = e")
    assert (code, out, err) == (2, "", f"error: {evens}: line 3: "
                                       f"expected an integer, got 'ten'\n")
    evens.write_text("# evens\n2, 4, 6\n8 10\n")     # E-files take commas
    code, out, _ = run(capsys, "limit", str(fam), "--phi", "E(x)", "--vars", "x",
                       "--target", "1/2", "--format", "records")
    assert (code, out.splitlines()[-1]) == (0, "mu.10=1/2")


# -- density and furstenberg ----------------------------------------------------------------------

def test_density_output(capsys):
    code, out, _ = run(capsys, "density", "--E", EVENS, "--N", "10",
                       "--Lmin", "2")
    assert (code, out) == (0, "banach density = 2/3\n")


def test_density_inline_set(capsys):
    code, out, _ = run(capsys, "density", "--E", "1", "--N", "10",
                       "--Lmin", "5")
    assert (code, out) == (0, "banach density = 1/5\n")


@pytest.mark.parametrize("argv, out", [
    (["density", "--E", "", "--N", "5"], "banach density = 0\n"),
    (["ap-encode", "--A", ",", "--n", "3", "--k", "2"],
     "hypergraph: 18 vertices, 0 edges, parts 3/3/12\n"
     "copies with nonzero difference = 0; direct AP count = 0; verified\n"),
    (["furstenberg", "--E", "", "--N", "3", "--U", "0,1"],
     "cyclic density = 0, plain density = 0, wraparound bound = 1/3\n"
     "|cyclic - plain| <= bound: True\n"),
], ids=["density", "ap-encode", "furstenberg"])
def test_a_blank_inline_set_is_the_empty_set(capsys, tmp_path, argv, out):
    # as a file with no elements reads, not as a file named ''
    assert run(capsys, *argv) == (0, out, "")
    empty = tmp_path / "empty.set"
    empty.write_text("# nothing\n")
    at = argv.index("--E" if "--E" in argv else "--A") + 1
    assert run(capsys, *argv[:at], str(empty), *argv[at + 1:]) == (0, out, "")


def test_furstenberg_output(capsys):
    code, out, _ = run(capsys, "furstenberg", "--E", EVENS, "--N", "10",
                       "--U", "0,2")
    assert code == 0
    assert out == ("cyclic density = 1/2, plain density = 2/5, "
                   "wraparound bound = 1/5\n"
                   "|cyclic - plain| <= bound: True\n")


def test_set_files_take_comments_and_name_the_bad_line(capsys, tmp_path):
    evens = tmp_path / "evens.set"
    evens.write_text("# evens\n2 4 6  # small\n8, 10\n")
    assert run(capsys, "density", "--E", str(evens), "--N", "10", "--Lmin", "2")[:2] == \
        (0, "banach density = 2/3\n")
    code, out, _ = run(capsys, "furstenberg", "--E", str(evens), "--N", "10", "--U", "0,2")
    assert (code, out.splitlines()[-1]) == (0, "|cyclic - plain| <= bound: True")
    evens.write_text("# evens\n2 4 6\n8 ten\n")
    for argv in (["density", "--E", str(evens), "--N", "10"],
                 ["furstenberg", "--E", str(evens), "--N", "10", "--U", "0"]):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {evens}: line 3: "
                                           f"expected an integer, got 'ten'\n")


def test_furstenberg_records(capsys):
    code, out, _ = run(capsys, "furstenberg", "--E", EVENS, "--N", "10",
                       "--U", "0,2", "--format", "records")
    assert out == "cyclic=1/2\nplain=2/5\nbound=1/5\nwithin_bound=true\n"


# -- start-up ----------------------------------------------------------------------------------

def test_importing_the_cli_loads_no_subcommand_module():
    # each subcommand imports its own layer, so eval pays for none of these
    src = str(Path(cli.__file__).parents[1])
    probe = ("import sys, aml.cli; print(sorted(m for m in ('aml.axioms', 'aml.gowers', "
             "'aml.limits', 'aml.regularity') if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={"PYTHONPATH": src}, timeout=60, check=True)
    assert done.stdout == "[]\n"


# -- README and help ------------------------------------------------------------------------------

README = Path(__file__).parents[1] / "README.md"


def _quick_start():
    """Each `aml ...` line of the README's CLI quick start, as (argv, the
    `# ...` lines shown under it)."""
    text = README.read_text(encoding="utf-8").split("## Quick start — CLI\n", 1)[1]
    examples = []
    for line in text.split("```sh\n", 1)[1].split("```", 1)[0].splitlines():
        if line.startswith("aml "):
            examples.append((shlex.split(line, comments=True)[1:], []))
        elif line.startswith("# "):
            examples[-1][1].append(line[2:])
    return examples


def _shows(shown: str, line: str) -> bool:
    """Whether ``line`` is what ``shown`` shows, in part if it ends in '...'."""
    return line.startswith(shown[:-3]) if shown.endswith("...") else line == shown


def test_the_readme_quick_start_prints_what_it_shows(capsys, monkeypatch):
    monkeypatch.chdir(README.parent)
    monkeypatch.delenv("AML_BUDGET", raising=False)
    examples = _quick_start()
    assert examples
    for argv, shown in examples:
        code, out, err = run(capsys, *argv)
        lines = out.splitlines()
        assert (code, err) == (0, ""), argv
        assert len(lines) >= len(shown) and all(map(_shows, shown, lines)), (argv, out)


def test_every_parser_renders_its_help(capsys):
    # walks the subparsers action, so a new subcommand is covered with no list to update
    top = cli._build_parser()
    subparsers, = (a for a in top._actions if isinstance(a, argparse._SubParsersAction))
    assert subparsers.choices
    for argv in [[]] + [[name] for name in subparsers.choices]:
        with pytest.raises(SystemExit) as exit_:
            main(argv + ["--help"])
        out, err = capsys.readouterr()
        assert (exit_.value.code, err) == (0, ""), argv
        assert out.startswith(" ".join(["usage: aml"] + argv)), argv
