"""Concrete-syntax round trips, precedence, error spans, structure files."""

import random
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from aml.axioms import random_formula
from aml.parser import (
    MAX_DEPTH,
    DataWords,
    ParseError,
    _fraction,
    SourceSpan,
    parse_formula,
    parse_structure,
    print_formula,
    print_term,
    tokenize,
)
from aml.semantics import Budget, BudgetExceeded, evaluate
from aml.structures import FiniteStructure
from aml.syntax import (
    And,
    Atom,
    Cmp,
    Const,
    Equality,
    Exists,
    Forall,
    Func,
    Implies,
    Meas,
    Not,
    Or,
    Signature,
    Var,
)
from oracle import member_tuples, naive_evaluate, tokenize_by_characters

SIG = Signature(constants=("e",), functions=(("f", 1), ("mul", 2)),
                relations=(("P", 1), ("R", 2)))


def rt(text: str):
    """Parse, print, re-parse; assert stability and return the AST."""
    phi = parse_formula(text, SIG)
    assert parse_formula(print_formula(phi), SIG) == phi
    return phi


# -- tokens -------------------------------------------------------------------

def test_tokenize_kinds_and_spans():
    toks = tokenize("m[x] <= 1/4 . P(x)")
    texts = [t.text for t in toks]
    assert texts == ["m", "[", "x", "]", "<=", "1", "/", "4", ".",
                     "P", "(", "x", ")", ""]
    assert toks[-1].kind == "eof"
    assert toks[0].span.start == 0
    assert toks[4].span.start == 5 and toks[4].span.end == 7


def test_tokenize_rejects_stray_characters():
    with pytest.raises(ParseError) as ex:
        tokenize("P(x) ? Q")
    assert ex.value.span.start == 5


# '²' and '½' are alphanumeric but neither letters nor decimal digits, 'ǅ' is
# a titlecase letter and '٣' an Arabic-Indic decimal digit.
_TOKEN_PIECES = st.sampled_from(list("xZ_7²½ǅ٣ \t\n\r\x0b\x1c\x1f\x85\xa0\u2028-<>=!~&|()[].,/?#")
                                + ["->", "<=", ">=", "!=", "forall", "m["])


def _tokens_or_error(tokenize, text: str):
    try:
        return tokenize(text)
    except ParseError as e:
        return e.message, e.span


@given(st.one_of(st.lists(_TOKEN_PIECES, max_size=25).map("".join), st.text(max_size=12)))
@settings(max_examples=600, deadline=None)
def test_tokenizer_matches_the_per_character_reference(text):
    assert _tokens_or_error(tokenize, text) == _tokens_or_error(tokenize_by_characters, text)


# -- input files ------------------------------------------------------------------

# every str.splitlines boundary, and whitespace that is no line boundary
_DATA_PIECES = st.sampled_from(["7", "ab", "#", "# c", " ", "\t", "\n", "\r", "\r\n", "\v",
                                "\f", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0",
                                "\u2028", "\u2029"])


@given(st.lists(_DATA_PIECES, max_size=25).map("".join), st.booleans())
@settings(max_examples=600, deadline=None)
def test_data_words_match_the_words_of_each_line(text, comments):
    text = text if comments else text.replace("#", "")
    d = DataWords(text)
    lines = [raw.split("#", 1)[0].split() for raw in text.splitlines()]
    assert d.rows == [row for row in lines if row]
    assert d.words == [w for row in lines for w in row]
    for i, w in enumerate(d.words):
        span = d.error("", i).span
        assert text[span.start:span.end] == w


def test_data_words_read_elements_through_one_numeral_table():
    words = "universe 5 # a comment\n0 4 2\n3 07 +7 5 1"
    assert DataWords(words).elements(2, 5, 5) == [0, 4, 2]
    assert DataWords(words).elements(10, 10, 5) == []
    for lo, hi in [(2, 7),    # "07"
                   (7, 8),    # "+7"
                   (8, 9),    # 5, a word >= n
                   (9, 11),   # hi past the last word
                   (0, 1)]:   # not a numeral at all
        assert DataWords(words).elements(lo, hi, 5) is None, (lo, hi)
    # the table holds no more numerals than the file has words
    assert DataWords("9 3").elements(0, 2, 10 ** 12) is None
    assert DataWords("1 0").elements(0, 2, 10 ** 12) == [1, 0]
    # every call honours its own n
    d = DataWords("0 2 1")
    assert d.elements(0, 3, 2) is None and d.elements(0, 3, 3) == [0, 2, 1]
    assert d.elements(0, 3, 2) is None and d.elements(0, 1, 0) is None


# -- terms ----------------------------------------------------------------------

def test_print_term_round_trip():
    t = Func("mul", (Func("f", (Var("x"),)), Const("e")))
    assert parse_formula(print_term(t) + " = e", SIG) == Equality(t, Const("e"))


# -- formula grammar ---------------------------------------------------------------

def test_atoms_and_equality():
    assert rt("P(x)") == Atom("P", (Var("x"),))
    assert rt("x = e") == Equality(Var("x"), Const("e"))
    assert rt("R(x, f(y))") == Atom("R", (Var("x"), Func("f", (Var("y"),))))


def test_precedence_imp_weakest_and_strongest():
    # ~ binds tighter than &, & tighter than |, | tighter than ->
    phi = rt("~(x = y) -> P(x) | P(y) & R(x,y)")
    assert phi == Implies(
        Not(Equality(Var("x"), Var("y"))),
        Or(Atom("P", (Var("x"),)),
           And(Atom("P", (Var("y"),)), Atom("R", (Var("x"), Var("y"))))))


def test_implies_right_associative():
    phi = rt("P(x) -> P(y) -> P(x)")
    assert phi == Implies(Atom("P", (Var("x"),)),
                          Implies(Atom("P", (Var("y"),)), Atom("P", (Var("x"),))))


def test_quantifiers_take_whole_rest():
    phi = rt("forall x . P(x) -> P(x)")
    assert phi == Forall("x", Implies(Atom("P", (Var("x"),)), Atom("P", (Var("x"),))))
    assert rt("exists y . R(x, y)") == Exists("y", Atom("R", (Var("x"), Var("y"))))


def test_measure_constructor_forms():
    assert rt("m[x] < 1/2 . P(x)") == Meas(("x",), Cmp.LT, Fraction(1, 2),
                                           Atom("P", (Var("x"),)))
    assert rt("m[x,y] <= 1/3 . R(x, y)") == Meas(("x", "y"), Cmp.LE, Fraction(1, 3),
                                                 Atom("R", (Var("x"), Var("y"))))


def test_measure_ge_gt_are_sugar_for_negations():
    assert parse_formula("m[x] >= 1/3 . P(x)", SIG) == \
        Not(Meas(("x",), Cmp.LT, Fraction(1, 3), Atom("P", (Var("x"),))))
    assert parse_formula("m[x] > 0 . P(x)", SIG) == \
        Not(Meas(("x",), Cmp.LE, Fraction(0), Atom("P", (Var("x"),))))


def test_nested_measures():
    phi = rt("m[x] <= 1/2 . m[y] < 1/4 . R(x, y)")
    assert phi == Meas(("x",), Cmp.LE, Fraction(1, 2),
                       Meas(("y",), Cmp.LT, Fraction(1, 4),
                            Atom("R", (Var("x"), Var("y")))))


def test_integer_and_fraction_thresholds():
    assert parse_formula("m[x] <= 1 . P(x)", SIG).threshold == 1
    assert parse_formula("m[x] < 3/4 . P(x)", SIG).threshold == Fraction(3, 4)


# -- error reporting --------------------------------------------------------------

BAD_INPUTS = [
    "P(",                 # unclosed argument list
    "forall. P(x)",       # missing bound variable
    "m[x,x] < 1. P(x)",   # repeated measure variable
    "m[x] < . P(x)",      # missing threshold
    "R(x)",               # wrong arity
    "mul(x) = e",         # wrong function arity
    "Q(x)",               # unknown relation
    "g(x) = e",           # unknown function
    "forall e . P(e)",    # declared constant as a variable
    "m[mul] < 1/2 . P(x)",  # declared function as a variable
    "P(x) &",             # dangling connective
    "m[x] < -1 . P(x)",   # negative threshold
    "(P(x)",              # unclosed paren
    "x =",                # missing right term
]


def test_every_error_carries_a_span():
    for text in BAD_INPUTS:
        with pytest.raises(ParseError) as ex:
            parse_formula(text, SIG)
        span = ex.value.span
        assert 0 <= span.start <= span.end <= len(text) + 1, text


def test_error_span_points_at_offender():
    # 'Q' is undeclared, so it reads as a term and the '(' is the offender.
    with pytest.raises(ParseError) as ex:
        parse_formula("P(x) & Q(x)", SIG)
    assert ex.value.span.start == 8
    with pytest.raises(ParseError) as ex:
        parse_formula("R(x, y", SIG)
    assert ex.value.span.start == len("R(x, y")


def test_inequality_atom_is_negated_equality():
    assert parse_formula("x != e", SIG) == Not(Equality(Var("x"), Const("e")))


# -- generated round trips -----------------------------------------------------------

def test_generated_formulae_round_trip():
    rng = random.Random(20260816)
    for _ in range(200):
        phi = random_formula(rng, ("x", "y"), depth=3, rank_budget=2, sig=SIG)
        text = print_formula(phi)
        assert parse_formula(text, SIG) == phi, text


# -- nesting depth -------------------------------------------------------------------

Z2 = FiniteStructure.checked(2, constants={"e": 0}, functions={"f": (1, (1, 0))},
                             relations={"P": (1, frozenset({(0,)}))})


@pytest.mark.parametrize("text", [
    "~" * (MAX_DEPTH - 1) + "(x = e)",                  # the parenthesis is a level too
    "(" * MAX_DEPTH + "x = e" + ")" * MAX_DEPTH,
    "exists y . " * (MAX_DEPTH - 2) + "m[z] <= 1/2 . " * 2 + "x = e",
    " & ".join(["P(x)"] * (MAX_DEPTH + 1)),
    " -> ".join(["x = e"] * (MAX_DEPTH + 1)),
    "f(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH + " = e",
], ids=["negations", "parentheses", "binders", "and-chain", "implication-chain",
        "function-terms"])
def test_formula_at_the_depth_limit_parses_evaluates_and_round_trips(text):
    phi = rt(text)
    assert evaluate(Z2, phi, {"x": 0}) == naive_evaluate(Z2, phi, {"x": 0})


@pytest.mark.parametrize("text, start", [
    ("~" * MAX_DEPTH + "(x = e)", MAX_DEPTH),          # the opening parenthesis crosses
    ("(" * (MAX_DEPTH + 1) + "x = e" + ")" * (MAX_DEPTH + 1), MAX_DEPTH),
    ("~" * 3000 + "(x = e)", MAX_DEPTH),
    ("(" * 1200 + "x = e" + ")" * 1200, MAX_DEPTH),
    ("f(" * (MAX_DEPTH + 1) + "x" + ")" * (MAX_DEPTH + 1) + " = e", 2 * MAX_DEPTH + 1),
    ("P(x) -> " * MAX_DEPTH + "P(x)", 8 * MAX_DEPTH + 1),   # the last P( crosses
], ids=["negations", "parentheses", "3000-negations", "1200-parentheses",
        "function-terms", "relation-arguments"])
def test_one_level_deeper_is_a_parse_error_at_the_crossing_token(text, start):
    with pytest.raises(ParseError) as ex:
        parse_formula(text, SIG)
    assert "nests deeper than" in ex.value.message
    assert (ex.value.span.start, ex.value.span.end) == (start, start + 1)


def test_long_connective_chains_are_parse_errors():
    # & and | build left-nested trees, so a long chain is as deep as it is long
    for op in (" & ", " | ", " -> "):
        text = op.join(["P(x)"] * (MAX_DEPTH + 2))
        with pytest.raises(ParseError, match="nests deeper than"):
            parse_formula(text, SIG)


# -- structure files -----------------------------------------------------------------

STRUCT_TEXT = """
universe 4
measure counting
constant e 0
function f 1
1 2 3 0
relation P 1
0 2
end
relation R 2
0 1
1 2
end
"""


def test_parse_structure_fields():
    m = parse_structure(STRUCT_TEXT)
    assert m.n == 4
    assert m.constants == {"e": 0}
    assert m.functions["f"] == (1, (1, 2, 3, 0))
    assert m.relations["P"] == (1, frozenset({0, 2}))
    assert m.relations["R"] == (2, frozenset({1, 6}))   # (0, 1) and (1, 2)
    assert m.weights == (Fraction(1, 4),) * 4


def _fraction_or_error(read, word: str):
    try:
        return read(word)
    except (ValueError, ZeroDivisionError) as e:
        return type(e), str(e)


@given(st.lists(st.sampled_from(["0", "1", "7", "08", "/", "+", "-", ".", "e", "_", " ",
                                 "x", "²", "٣"]), max_size=8).map("".join))
@example("1/2")
@example("07/08")
@example("+3")
@example("-1/2")
@example("1/0")
@example("0.25")
@example("1e-3")
@settings(max_examples=600, deadline=None)
def test_a_weight_reads_as_fraction_reads_it(word):
    # the unsigned p and p/q fast path, against the Fraction string parser
    got = _fraction_or_error(_fraction, word)
    assert got == _fraction_or_error(Fraction, word)
    if isinstance(got, Fraction):
        assert type(got.numerator) is type(got.denominator) is int


def test_weighted_structure():
    m = parse_structure("universe 2\nmeasure weights 1/3 2/3\n")
    assert m.weights == (Fraction(1, 3), Fraction(2, 3))
    assert sum(m.weights) == 1


def test_universe_size_is_charged_before_the_structure_is_built():
    budget = Budget()
    parse_structure(STRUCT_TEXT, budget=budget)
    assert budget.used == 4
    with pytest.raises(BudgetExceeded):
        parse_structure(f"universe {10 ** 12}\nmeasure counting\n", budget=Budget(10 ** 7))


STRUCT_ERRORS = [
    "universe 0",                               # empty universe
    "universe 2\nconstant e 5",                 # constant out of range
    "universe 2\nfunction f 1\n0",              # non-total function table
    "universe 2\nrelation P 1\n0",              # missing end
    "universe 2\nmeasure weights 1/2 -1/2",     # negative weight
    "universe 2\nbogus",                        # unknown declaration
    "universe 2\nrelation R 1\nend\nrelation R 2\nend",   # relation declared twice
    "universe 2\nconstant f 1\nfunction f 1\n0 1",        # constant and function share a name
]


def test_structure_errors_carry_spans():
    for text in STRUCT_ERRORS:
        with pytest.raises(ParseError) as ex:
            parse_structure(text)
        assert ex.value.span.end >= ex.value.span.start >= 0, text


def test_a_redeclared_symbol_is_an_error_at_its_second_name():
    for text, start in ((STRUCT_ERRORS[-2], 37), (STRUCT_ERRORS[-1], 33)):
        with pytest.raises(ParseError) as ex:
            parse_structure(text)
        name = text[start]
        assert ex.value.message == f"symbol {name!r} is already declared"
        assert (ex.value.span.start, ex.value.span.end) == (start, start + 1)


def test_a_comment_ends_at_any_line_boundary():
    for boundary in ("\n", "\r", "\r\n", "\f", "\x1c", "\u2028"):
        m = parse_structure(f"universe 2  # size{boundary}constant e 1")
        assert m.constants == {"e": 1}


# The per-character structure reader that parse_structure replaced, kept as
# the reference for the differential test below.  It does not reject a
# redeclared symbol.

@dataclass(frozen=True)
class _Word:
    text: str
    span: SourceSpan


def _words(text: str) -> list[_Word]:
    out: list[_Word] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c.isspace():
            i += 1
            continue
        j = i
        while j < n and not text[j].isspace() and text[j] != "#":
            j += 1
        out.append(_Word(text[i:j], SourceSpan(i, j)))
        i = j
    return out


class _WordReader:
    def __init__(self, text: str):
        self.words = _words(text)
        self.pos = 0
        self.end = SourceSpan(len(text), len(text))

    def peek(self) -> _Word | None:
        return self.words[self.pos] if self.pos < len(self.words) else None

    def next(self, what: str) -> _Word:
        w = self.peek()
        if w is None:
            raise ParseError(f"expected {what}, found end of input", self.end)
        self.pos += 1
        return w

    def next_int(self, what: str) -> tuple[int, SourceSpan]:
        w = self.next(what)
        try:
            return int(w.text), w.span
        except ValueError:
            raise ParseError(f"expected {what}, found {w.text!r}", w.span) from None

    def next_rational(self, what: str) -> tuple[Fraction, SourceSpan]:
        w = self.next(what)
        try:
            return Fraction(w.text), w.span
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"expected {what}, found {w.text!r}", w.span) from None


def _reference_parse_structure(text: str) -> FiniteStructure:
    r = _WordReader(text)
    kw = r.next("'universe'")
    if kw.text != "universe":
        raise ParseError(f"structure file must start with 'universe', found {kw.text!r}", kw.span)
    n, n_span = r.next_int("universe size")
    if n < 1:
        raise ParseError("universe must be nonempty", n_span)

    weights = None
    constants, functions, relations = {}, {}, {}

    def element(what: str) -> int:
        v, span = r.next_int(what)
        if not 0 <= v < n:
            raise ParseError(f"element {v} out of range [0, {n})", span)
        return v

    while True:
        w = r.peek()
        if w is None:
            break
        if w.text == "measure":
            r.next("'measure'")
            mode = r.next("'counting' or 'weights'")
            if mode.text == "counting":
                weights = tuple(Fraction(1, n) for _ in range(n))
            elif mode.text == "weights":
                ws = []
                for i in range(n):
                    v, span = r.next_rational(f"weight {i}")
                    if v < 0:
                        raise ParseError(f"weight {i} is negative", span)
                    ws.append(v)
                weights = tuple(ws)
            else:
                raise ParseError(f"unknown measure mode {mode.text!r}", mode.span)
        elif w.text == "constant":
            r.next("'constant'")
            name = r.next("constant name")
            constants[name.text] = element(f"value of constant {name.text!r}")
        elif w.text == "function":
            r.next("'function'")
            name = r.next("function name")
            arity, a_span = r.next_int("function arity")
            if arity < 1:
                raise ParseError("arity must be positive", a_span)
            table = []
            for i in range(n ** arity):
                nxt = r.peek()
                if nxt is None or nxt.text in ("measure", "constant", "function",
                                               "relation", "end"):
                    raise ParseError(
                        f"non-total function table for {name.text!r}: "
                        f"expected {n ** arity} results, found {i}",
                        nxt.span if nxt is not None else r.end)
                table.append(element(f"result {i} of function {name.text!r}"))
            functions[name.text] = (arity, tuple(table))
        elif w.text == "relation":
            r.next("'relation'")
            name = r.next("relation name")
            arity, a_span = r.next_int("relation arity")
            if arity < 1:
                raise ParseError("arity must be positive", a_span)
            tuples = set()
            while True:
                nxt = r.peek()
                if nxt is None:
                    raise ParseError(f"relation {name.text!r} is missing its 'end' line", r.end)
                if nxt.text == "end":
                    r.next("'end'")
                    break
                tuples.add(tuple(element(f"tuple entry for relation {name.text!r}")
                                 for _ in range(arity)))
            relations[name.text] = (arity, frozenset(tuples))
        else:
            raise ParseError(f"unknown declaration {w.text!r}", w.span)

    try:
        return FiniteStructure.checked(n, constants, functions, relations, weights or ())
    except ValueError as e:
        raise ParseError(str(e), SourceSpan(0, len(text))) from None


_SEPARATORS = [" ", "  ", "\t", "\n", "\r\n", " \t\n", "\n\n", "\r\n\t", "\f", "\u2028"]
_COMMENTS = ["#", "# note", "#end 1 2", "## relation R 1", "#\t0"]
_MUTANTS = ["end", "relation", "function", "measure", "constant", "universe", "counting",
            "x", "-1", "0", "1", "7", "07", "+1", "1/0", "2/3", "0x1", "e"]


def _structure_words(rng: random.Random) -> list[str]:
    """The words of a random structure file over a universe of 1-3 elements:
    every kind of declaration, distinct names, shuffled."""
    n = rng.randint(1, 3)
    blocks = []
    if rng.random() < 0.5:
        blocks.append(["measure", "counting"] if rng.random() < 0.5 else
                      ["measure", "weights"] + [rng.choice(["0", "1", "1/2", "2/3"])
                                                for _ in range(n)])
    for k in range(rng.randint(0, 2)):
        blocks.append(["constant", f"c{k}", str(rng.randrange(n))])
    for k in range(rng.randint(0, 2)):
        arity = rng.randint(1, 2)
        blocks.append(["function", f"f{k}", str(arity)]
                      + [str(rng.randrange(n)) for _ in range(n ** arity)])
    for k in range(rng.randint(0, 3)):
        arity = rng.randint(1, 3)
        blocks.append(["relation", f"R{k}", str(arity)]
                      + [str(rng.randrange(n)) for _ in range(arity * rng.randint(0, 3))]
                      + ["end"])
    rng.shuffle(blocks)
    return ["universe", str(n)] + [w for block in blocks for w in block]


def _mutate(rng: random.Random, words: list[str]) -> list[str]:
    """Up to two random edits: a word replaced, a word dropped, or the file
    cut short (a truncated table, a tuple cut in two, a missing 'end')."""
    words = list(words)
    for _ in range(rng.choice([0, 0, 1, 2])):
        if not words:
            break
        i = rng.randrange(len(words))
        edit = rng.random()
        if edit < 0.5:
            words[i] = rng.choice(_MUTANTS)
        elif edit < 0.75:
            del words[i]
        else:
            words = words[:i]
    return words


def _render(rng: random.Random, words: list[str]) -> str:
    """The words with random whitespace between them (tabs, CRLF, tables and
    tuples wrapped across lines) and, in half the texts, '#' comments, often
    glued to a word."""
    comments = rng.random() < 0.5
    out = [rng.choice(["", "# header\n", "\n"] if comments else ["", "\n"])]
    for w in words:
        out.append(w)
        if comments and rng.random() < 0.15:
            out.append(rng.choice(["", " "]) + rng.choice(_COMMENTS)
                       + rng.choice(["\n", "\r\n"]))
        else:
            out.append(rng.choice(_SEPARATORS))
    return "".join(out)


def _outcome(parse, text: str):
    try:
        return parse(text)
    except ParseError as e:
        return e.message, e.span.start, e.span.end


def test_structure_reader_matches_the_per_character_reference():
    rng = random.Random(20240518)
    texts = list(STRUCT_ERRORS)
    texts += [_render(rng, _mutate(rng, _structure_words(rng))) for _ in range(1500)]
    errors = 0
    for text in texts:
        got = _outcome(parse_structure, text)
        if isinstance(got, tuple) and got[0].endswith("is already declared"):
            continue  # the reference accepts a redeclared symbol
        assert got == _outcome(_reference_parse_structure, text), text
        errors += isinstance(got, tuple)
        if not isinstance(got, tuple):  # built unchecked, so check it here
            assert got == FiniteStructure.checked(got.n, got.constants, got.functions,
                                                  member_tuples(got), got.weights), text
    assert 300 < errors < 1300   # both outcomes are well represented
    assert sum("#" not in text for text in texts) > len(texts) / 3
