"""The numeral grammar: every reader of integer and rational words agrees on
every word, and no reader outside parser.py decides for itself."""

import ast
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from io import StringIO
from pathlib import Path

import pytest

from aml.cli import main
from aml.parser import INTEGERS, integer, integers, rational

SRC = Path(__file__).parents[1] / "src" / "aml"
DATA = Path(__file__).parent / "data"
Z4 = str(DATA / "z4.struct")
G16 = str(DATA / "g16.graph")
TRI = str(DATA / "tri.hg")
FAM = str(DATA / "fam.fam")

LONG = "1" * 5000   # past the interpreter's default digit limit of 4300
# rationals whose denominators, 10^5000 and 10^10000000, are past it too: each
# is refused by its length, before the power is built
SCALED = {"1e-5000": 5001, "1e-10000000": 10000001}

# plain rationals past the limit, and the digits each is refused for: the
# longer of p and q, or a decimal's whole and decimal digits together
LONG_RATIONALS = {LONG: 5000, "-" + LONG: 5000, "1/" + LONG: 5000, LONG + ".5": 5001}

# Each word's verdict: the value it reads as, or None where no reader takes it.
VERDICTS = {"1_0": None, "٣": None, "²": None, "+7": 7, "07": 7, "-0": 0,
            **dict.fromkeys(LONG_RATIONALS), **dict.fromkeys(SCALED)}


def _ones(v: int) -> str:
    return ",".join(["1"] * v)


def _cyclic_table(v: int) -> list[str]:
    return [str((a + b) % v) for a in range(v) for b in range(v)]


def _group_with_entry(w: str, v: int) -> str:
    """The table of Z8 with ``w`` in the cell (0, v), whose entry is v."""
    cells = _cyclic_table(8)
    cells[v % 8] = w
    return "group 8\n" + " ".join(cells) + "\n"


# reader -> (argv for word w, which reads as v where it is a numeral, and
# whether it reads integers (a word past the digit limit is named by length)
# rather than rationals)
READERS = {
    "E-file": (lambda w, v, f: ["density", "--E", f(f"1 {w}, 9\n"), "--N", "10"], True),
    "inline --E": (lambda w, v, f: ["density", "--E", f"1,{w}", "--N", "10"], True),
    "inline --A": (lambda w, v, f: ["ap-encode", "--A", f"1 {w}", "--n", "8", "--k", "2"], True),
    "inline --U": (lambda w, v, f: ["furstenberg", "--E", "1,2", "--N", "10", "--U", f"0,{w}"],
                   True),
    "universe": (lambda w, v, f: ["eval", f(f"universe {w}\n"), "forall x . x = x"], True),
    "constant": (lambda w, v, f: ["eval", f(f"universe 8\nconstant c {w}\n"), "c = c"], True),
    "arity": (lambda w, v, f: ["eval", f(f"universe 2\nrelation R {w}\nend\n"),
                               "forall x . x = x"], True),
    "relation body": (lambda w, v, f: ["measure", f(f"universe 8\nrelation R 1\n{w}\nend\n"),
                                       "R(x)"], True),
    "function table": (lambda w, v, f: ["measure", f(f"universe 8\nfunction g 1\n"
                                                     f"0 1 2 3 4 5 6 {w}\n"), "g(x) = x"], True),
    "graph header": (lambda w, v, f: ["regularity", f(f"graph {w}\n"), "--eps", "1/4"], True),
    "graph row": (lambda w, v, f: ["regularity", f(f"graph 8\n{w} 3\n1 2\n"), "--eps", "1/4"],
                  True),
    "hypergraph header": (lambda w, v, f: ["hypergraph", f(f"hypergraph 9 {w}\n"),
                                           "--pattern", TRI], True),
    "family": (lambda w, v, f: ["limit", f(f"family cyclic 1 {w}\n"), "--sentence", "e = e"],
               True),
    "group header": (lambda w, v, f: ["gowers", f(f"group {w}\n" + " ".join(_cyclic_table(v))),
                                      f"--g={_ones(v)}", "--k", "1"], True),
    "group entry": (lambda w, v, f: ["gowers", f(_group_with_entry(w, v)), f"--g={_ones(8)}",
                                     "--k", "1"], True),
    "z<n>": (lambda w, v, f: ["gowers", f"z{w}", f"--g={_ones(v)}", "--k", "1"], True),
    "--bind": (lambda w, v, f: ["eval", f("universe 8\n"), "x = x", "--bind", f"x = {w}"], True),
    "AML_BUDGET": (lambda w, v, f: ["eval", Z4, "e = e"], True),
    "--budget": (lambda w, v, f: ["eval", Z4, "e = e", "--budget", w], True),
    "--N": (lambda w, v, f: ["density", "--E", "1", "--N", w], True),
    "--count": (lambda w, v, f: ["check-axioms", Z4, "--count", w], True),
    "--k": (lambda w, v, f: ["gowers", "z2", "--g=1,-1", "--k", w], True),
    "weight": (lambda w, v, f: ["measure", f(f"universe 2\nmeasure weights {w} 1\n"
                                             f"relation R 1\n0\nend\n"), "R(x)"], False),
    "--g": (lambda w, v, f: ["gowers", "z2", f"--g={w},1", "--k", "1"], False),
    "--eps": (lambda w, v, f: ["regularity", G16, "--eps", w], False),
    "--target": (lambda w, v, f: ["limit", FAM, "--phi", "x = e", "--target", w], False),
}


def _run(argv, monkeypatch, budget=None):
    if budget is None:
        monkeypatch.delenv("AML_BUDGET", raising=False)
    else:
        monkeypatch.setenv("AML_BUDGET", budget)
    out, err = StringIO(), StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    except SystemExit as e:   # argparse's own exit
        code = e.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("reader", READERS)
def test_every_reader_gives_each_word_one_verdict(reader, tmp_path, monkeypatch, digit_limit):
    assert digit_limit < len(LONG)
    build, reads_integers = READERS[reader]
    files = iter(range(1000))

    def write(text):
        path = tmp_path / f"in{next(files)}"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def outcome(w, v):
        argv = build(w, v, write)
        return _run(argv, monkeypatch, budget=w if reader == "AML_BUDGET" else None)

    lengths = {**LONG_RATIONALS, **SCALED}   # the digits a rational reader names
    for word, value in VERDICTS.items():
        code, out, err = outcome(word, 1 if value is None else value)
        if value is None:   # rejected as a format error, whatever the reader
            assert (code, out) == (2, ""), (word, err)
            if word == LONG and reads_integers:
                assert f"integer of {len(LONG)} digits is too long" in err, err
            if word in lengths and not reads_integers:
                assert f"rational of {lengths[word]} digits is too long" in err, err
                assert len(err) < 200, err
        else:               # read as its plain numeral is
            assert (code, out) == outcome(str(value), value)[:2], word


def test_the_grammar_functions_agree_with_the_table(digit_limit):
    for word, value in VERDICTS.items():
        if value is None:
            with pytest.raises(ValueError):
                integer(word)
            with pytest.raises(ValueError):
                integers(f"1, {word} 2")
            with pytest.raises(ValueError):
                rational(word)
        else:
            assert integer(word) == integers(f"1, {word} 2")[1] == rational(word) == value
    with pytest.raises(ValueError, match=f"^integer of {len(LONG)} digits is too long$"):
        integer("-" + LONG)
    for word, digits in {**SCALED, **LONG_RATIONALS}.items():
        with pytest.raises(ValueError, match=f"^rational of {digits} digits is too long$"):
            rational(word)
    # the numerator or denominator as written, at the limit and one past it
    assert rational(f"1e{digit_limit - 1}") == 10 ** (digit_limit - 1)
    assert rational(f"-0.5e-{digit_limit - 2}") == Fraction(-5, 10 ** (digit_limit - 1))
    past = f"^rational of {digit_limit + 1} digits is too long$"
    for word in (f"1e{digit_limit}", f"10e{digit_limit - 1}", f"-0.5e-{digit_limit - 1}"):
        with pytest.raises(ValueError, match=past):
            rational(word)
    assert rational("0e99999999") == rational("-0.0e-99999999") == 0
    with pytest.raises(ValueError, match="^nope$"):
        integer("x", "nope")
    assert integers("") == integers(" , ,") == []
    with pytest.raises(ValueError, match="^expected an integer, got 'x'$"):
        integers("1,x 2")


@pytest.mark.parametrize("text", ["1" * 24 + "x", "1" * 20 + " " * 20 + "x", "1 " * 2000 + "+",
                                  ",-" * 3000])
def test_the_list_pattern_fails_in_linear_time(text):
    # each numeral must end at a separator, so a failed match backtracks at
    # most one numeral; (?:[+-]?[0-9]+[\s,]*)* would take seconds on the first
    start = time.perf_counter()
    assert INTEGERS.fullmatch(text) is None
    assert time.perf_counter() - start < 0.05


# -- the grammar stays in one place --------------------------------------------------------

# (module, enclosing function) -> why it may read digits itself
ALLOWED = {
    ("parser.py", "integer"): "the grammar's integer words",
    ("parser.py", "rational"): "the grammar's rational words: its unsigned p and p/q fast path",
    ("gowers.py", "FiniteAlgebra.from_generators"): "int(g) of a generator that is a number "
                                                    "already, not a word",
}


def _numeral_readers():
    """(module, enclosing function, line, what) for each one-argument int()
    call, str.isdecimal, str.isdigit or str.isnumeric, and type=int."""
    found = []
    for path in sorted(SRC.glob("*.py")):

        def walk(node, scope):
            for child in ast.iter_child_nodes(node):
                inner = scope
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    inner = scope + (child.name,)
                what = None
                if isinstance(child, ast.Call) and isinstance(child.func, ast.Name) \
                        and child.func.id == "int" and len(child.args) == 1 and not child.keywords:
                    what = "int()"
                elif isinstance(child, ast.Attribute) \
                        and child.attr in ("isdecimal", "isdigit", "isnumeric"):
                    what = child.attr
                elif isinstance(child, ast.keyword) and child.arg == "type" \
                        and isinstance(child.value, ast.Name) and child.value.id == "int":
                    what = "type=int"
                if what:
                    found.append((path.name, ".".join(inner), child.lineno, what))
                walk(child, inner)

        walk(ast.parse(path.read_text(encoding="utf-8")), ())
    return found


def test_only_the_grammar_reads_numerals():
    found = _numeral_readers()
    stray = [f"{module}:{line} {what} in {scope or '<module>'}"
             for module, scope, line, what in found if (module, scope) not in ALLOWED]
    assert not stray, "read numerals through aml.parser.integer/integers/rational: " + \
        "; ".join(stray)
    # every allowance is still used, so none outlives its reason
    assert {(module, scope) for module, scope, _, _ in found} == set(ALLOWED)
