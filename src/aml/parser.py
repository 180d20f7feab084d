"""Concrete syntax: formulas, structure files, and the reader of every input file.

Formula grammar (lowest to highest precedence; binders extend maximally to
the right):

    formula  := disj ("->" formula)?
    disj     := conj ("|" conj)*
    conj     := neg ("&" neg)*
    neg      := "~" neg | quant | atom
    quant    := ("forall" | "exists") var "." formula
              | "m[" var ("," var)* "]" cmp rational "." formula
    cmp      := "<" | "<=" | ">" | ">="
    atom     := "(" formula ")" | term (("=" | "!=") term)? | relation "(" terms ")"
    rational := integer ("/" positive-integer)?

``>=`` / ``>`` measure bounds are expanded immediately (they abbreviate
negated ``<`` / ``<=`` bounds), so parsed ASTs only contain LT/LE.  Every
parse error carries a span of ``str`` indices (characters, not bytes) into
the input, and nesting is capped at ``MAX_DEPTH`` levels.
"""

from __future__ import annotations

import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import islice
from typing import NamedTuple

from .semantics import Budget
from .structures import FiniteStructure, column_indices
from .syntax import (COMPARISONS, And, Atom, Const, Equality, Exists, Forall, Formula, Func,
                     Implies, Meas, Not, Or, Signature, Term, Var, expand_abbrev)


@dataclass(frozen=True)
class SourceSpan:
    start: int
    end: int

    def __post_init__(self):
        if self.start > self.end:
            raise ValueError("span start after end")


# Each ~, parenthesis, quantifier, measure binder and -> opens one level, and
# the parsed tree may be no deeper: the parser, the printer, free_vars and the
# evaluators then stay within Python's default recursion limit.  (The printer
# may add parentheses, so a formula near the cap can print deeper than it.)
MAX_DEPTH = 100


class ParseError(Exception):
    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"{message} (at {span.start}..{span.end})")
        self.message = message
        self.span = span


# ---------------------------------------------------------------------------
# Tokenizer

_KEYWORDS = ("forall", "exists")


class Token(NamedTuple):
    """A formula token, text[start:end]; its SourceSpan is built only when read."""

    kind: str  # "ident" | "int" | punctuation itself | "eof"
    text: str
    start: int
    end: int

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.start, self.end)


# Whitespace, then one token: an identifier (checked to start with a letter or
# '_', which [^\W\d] alone does not ensure: it admits '²' and '½'), an
# integer, a punctuation mark, or else one stray character or the end.
_TOKEN = re.compile(r"\s*(?:(?P<ident>[^\W\d]\w*)|(?P<int>[0-9]+)"
                    r"|(?P<punct>->|<=|>=|!=|[<>=~&|()\[\].,/])|(?P<other>.|\Z))", re.S)


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        i, j = m.span(kind)
        if kind == "other" or kind == "ident" and not (text[i].isalpha() or text[i] == "_"):
            if i == len(text):
                break
            raise ParseError(f"unexpected character {text[i]!r}", SourceSpan(i, i + 1))
        word = m[kind]
        toks.append(Token(word if kind == "punct" else kind, word, i, j))
    toks.append(Token("eof", "", len(text), len(text)))
    return toks


class _Parser:
    def __init__(self, text: str, sig: Signature):
        self.text = text
        self.sig = sig
        toks = tokenize(text)
        self.toks = toks + toks[-1:]  # a second eof: peek(1) stays in the list
        self.pos = 0
        self.depth = 0

    # -- token helpers ------------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        """The token ``ahead`` (0 or 1) past the current one."""
        return self.toks[self.pos + ahead]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def expect(self, kind: str) -> Token:
        t = self.peek()
        if t.kind != kind:
            raise ParseError(f"expected {kind!r}, found {t.text or 'end of input'!r}", t.span)
        return self.next()

    @contextmanager
    def nested(self, tok: Token):
        """One more level of nesting, opened by ``tok``."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError(f"formula nests deeper than {MAX_DEPTH} levels", tok.span)
        yield
        self.depth -= 1

    # -- grammar ------------------------------------------------------------

    def formula(self) -> Formula:
        left = self.disj()
        if self.peek().kind == "->":
            with self.nested(self.next()):
                return Implies(left, self.formula())
        return left

    def disj(self) -> Formula:
        out = self.conj()
        while self.peek().kind == "|":
            self.next()
            out = Or(out, self.conj())
        return out

    def conj(self) -> Formula:
        out = self.neg()
        while self.peek().kind == "&":
            self.next()
            out = And(out, self.neg())
        return out

    def neg(self) -> Formula:
        t = self.peek()
        if t.kind == "~":
            with self.nested(self.next()):
                return Not(self.neg())
        if t.kind == "ident" and t.text in _KEYWORDS:
            with self.nested(t):
                return self.quantifier()
        if t.kind == "ident" and t.text == "m" and self.peek(1).kind == "[":
            with self.nested(t):
                return self.measure()
        return self.atom()

    def quantifier(self) -> Formula:
        kw = self.next()
        var = self.variable()
        self.expect(".")
        body = self.formula()
        return Forall(var, body) if kw.text == "forall" else Exists(var, body)

    def measure(self) -> Formula:
        self.next()  # "m"
        vars: list[str] = []
        sep = self.expect("[")
        while sep.kind != "]":  # a variable after the "[" and after each ","
            t = self.peek()
            v = self.variable()
            if v in vars:
                raise ParseError(f"repeated variable {v!r} in measure list", t.span)
            vars.append(v)
            sep = self.next() if self.peek().kind == "," else self.expect("]")
        cmp_tok = self.peek()
        if cmp_tok.kind not in COMPARISONS:
            raise ParseError(f"expected a comparison after the measure list, "
                             f"found {cmp_tok.text or 'end of input'!r}", cmp_tok.span)
        self.next()
        q = self.rational()
        self.expect(".")
        return expand_abbrev(vars, COMPARISONS[cmp_tok.kind], q, self.formula())

    def variable(self) -> str:
        t = self.expect("ident")
        if t.text in _KEYWORDS:
            raise ParseError(f"{t.text!r} is a keyword, not a variable", t.span)
        if self.sig.is_constant(t.text) or self.sig.function_arity(t.text) is not None \
                or self.sig.relation_arity(t.text) is not None:
            raise ParseError(f"{t.text!r} is a declared symbol, not a variable", t.span)
        return t.text

    def rational(self) -> Fraction:
        num = self.integer()
        if self.peek().kind == "/":
            self.next()
            span = self.peek().span
            den = self.integer()
            if den == 0:
                raise ParseError("zero denominator", span)
            return Fraction(num, den)
        return Fraction(num)

    def integer(self) -> int:
        t = self.expect("int")
        try:
            return integer(t.text)
        except NumeralError as e:  # more digits than the interpreter converts
            raise ParseError(str(e), t.span) from None

    def atom(self) -> Formula:
        t = self.peek()
        if t.kind == "(":
            with self.nested(self.next()):
                inner = self.formula()
            self.expect(")")
            return inner
        if t.kind != "ident":
            raise ParseError(f"expected a formula, found {t.text or 'end of input'!r}", t.span)
        if self.sig.relation_arity(t.text) is not None and self.peek(1).kind == "(":
            name = self.next()
            args = self.term_list(name.text, self.sig.relation_arity(name.text))
            return Atom(name.text, args)
        left = self.term()
        op = self.peek()
        if op.kind == "=":
            self.next()
            return Equality(left, self.term())
        if op.kind == "!=":
            self.next()
            return Not(Equality(left, self.term()))
        raise ParseError("expected '=' or '!=' after a term", op.span)

    def term(self) -> Term:
        t = self.expect("ident")
        if t.text in _KEYWORDS:
            raise ParseError(f"{t.text!r} is a keyword, not a term", t.span)
        fa = self.sig.function_arity(t.text)
        if fa is not None:
            if self.peek().kind != "(":
                raise ParseError(f"function {t.text!r} needs arguments", t.span)
            args = self.term_list(t.text, fa)
            return Func(t.text, args)
        if self.sig.relation_arity(t.text) is not None:
            raise ParseError(f"{t.text!r} is a relation, not a term", t.span)
        if self.sig.is_constant(t.text):
            return Const(t.text)
        return Var(t.text)

    def term_list(self, name: str, arity: int) -> tuple[Term, ...]:
        open_tok = self.expect("(")
        with self.nested(open_tok):
            args = [self.term()]
            while self.peek().kind == ",":
                self.next()
                args.append(self.term())
        close = self.expect(")")
        if len(args) != arity:
            raise ParseError(f"{name!r} expects {arity} arguments, got {len(args)}",
                             SourceSpan(open_tok.span.start, close.span.end))
        return tuple(args)


def parse_formula(text: str, sig: Signature) -> Formula:
    p = _Parser(text, sig)
    out = p.formula()
    t = p.peek()
    if t.kind != "eof":
        raise ParseError(f"unexpected trailing input {t.text!r}", t.span)
    if _height(out) > MAX_DEPTH:  # chains of & and | nest the tree to the left
        raise ParseError(f"formula nests deeper than {MAX_DEPTH} levels",
                         SourceSpan(0, len(text)))
    return out


def _height(phi: Formula) -> int:
    """The number of connectives and binders on the longest root-to-leaf path,
    found without recursion."""
    best = 0
    stack = [(phi, 0)]
    while stack:
        node, depth = stack.pop()
        best = max(best, depth)
        if isinstance(node, (Not, Forall, Exists, Meas)):
            stack.append((node.body, depth + 1))
        elif isinstance(node, (And, Or, Implies)):
            stack += [(node.left, depth + 1), (node.right, depth + 1)]
    return best


# ---------------------------------------------------------------------------
# Printer (canonical form; parse_formula(print_formula(phi)) == phi)

_LEVEL_IMPL, _LEVEL_OR, _LEVEL_AND, _LEVEL_NEG = 1, 2, 3, 4


def print_term(t: Term) -> str:
    if isinstance(t, (Var, Const)):
        return t.name
    if isinstance(t, Func):
        return f"{t.name}({', '.join(print_term(a) for a in t.args)})"
    raise TypeError(f"not a term: {t!r}")


def print_formula(phi: Formula) -> str:
    return _print(phi, 0)


def _print(phi: Formula, level: int) -> str:
    if isinstance(phi, Equality):
        s = f"{print_term(phi.left)} = {print_term(phi.right)}"
        return f"({s})" if level >= _LEVEL_NEG else s
    if isinstance(phi, Atom):
        return f"{phi.name}({', '.join(print_term(a) for a in phi.args)})"
    if isinstance(phi, Not):
        return "~" + _print(phi.body, _LEVEL_NEG)
    if isinstance(phi, And):
        s = f"{_print(phi.left, _LEVEL_AND - 1)} & {_print(phi.right, _LEVEL_AND)}"
        return f"({s})" if level >= _LEVEL_AND else s
    if isinstance(phi, Or):
        s = f"{_print(phi.left, _LEVEL_OR - 1)} | {_print(phi.right, _LEVEL_OR)}"
        return f"({s})" if level >= _LEVEL_OR else s
    if isinstance(phi, Implies):
        s = f"{_print(phi.left, _LEVEL_IMPL)} -> {_print(phi.right, _LEVEL_IMPL - 1)}"
        return f"({s})" if level >= _LEVEL_IMPL else s
    if isinstance(phi, (Forall, Exists)):
        kw = "forall" if isinstance(phi, Forall) else "exists"
        s = f"{kw} {phi.var} . {_print(phi.body, 0)}"
        return f"({s})" if level >= _LEVEL_IMPL else s
    if isinstance(phi, Meas):
        s = (f"m[{','.join(phi.vars)}] {phi.cmp.value} {phi.threshold} . "
             f"{_print(phi.body, 0)}")
        return f"({s})" if level >= _LEVEL_IMPL else s
    raise TypeError(f"not a formula: {phi!r}")


# ---------------------------------------------------------------------------
# Numerals, the one grammar of the numbers in files, flags and the environment
# (README, "Numerals"; the formula tokenizer reads its own).  In INTEGERS a
# numeral ends at a separator or the end, so a failed match backtracks linearly.

INTEGER = re.compile(r"[+-]?[0-9]+")
INTEGERS = re.compile(r"[\s,]*(?:[+-]?[0-9]+(?:[\s,]+|\Z))*")
# a rational with an exponent as Fraction(str) reads it: sign, digits, decimals, exponent
_SCALED = re.compile(r"\s*([-+]?)(?=\.?[0-9])([0-9]*)\.?([0-9]*)[eE]([-+]?[0-9]+)\s*")


class NumeralError(ValueError):
    """A word the grammar reads as no number; the CLI exits 2 with its message."""


def integer(word: str, bad: str = "") -> int:
    """``word`` as an integer, else a NumeralError: ``bad`` (by default "expected
    an integer, got <word>"), or past the digit limit its length."""
    if INTEGER.fullmatch(word) is None:
        raise NumeralError(bad or f"expected an integer, got {word!r}")
    try:
        return int(word)
    except ValueError:
        raise NumeralError(f"integer of {len(word.lstrip('+-'))} digits is too long") from None


def integers(text: str) -> list[int]:
    """The integers of ``text``, whitespace or commas between them: one match of
    the list, then ``int`` of each word, or else integer() of each."""
    words = text.replace(",", " ").split()
    if INTEGERS.fullmatch(text):
        try:
            return list(map(int, words))
        except ValueError:   # a numeral past the digit limit
            pass
    return list(map(integer, words))


def rational(word: str, bad: str = "") -> Fraction:
    """``word`` as a rational, else a NumeralError: ``bad`` or one naming the word
    (a zero denominator too), or past the digit limit the digits of the longer of
    ``p`` and ``q``, of a decimal's whole and decimal digits together, or of the
    numerator or denominator that a word with an exponent is written with (or of
    the exponent, when it alone is past the limit), counted before any of them
    is converted or any power is built.  An unsigned ``p`` or ``p/q`` is read
    without Fraction's regex."""
    num, slash, den = word.partition("/")
    try:
        if word.isascii() and num.isdigit() and (den.isdigit() or not slash):
            return Fraction(int(num), int(den) if slash else 1)
        scaled = _SCALED.fullmatch(word) if word.isascii() else None
        if scaled:
            sign, whole, decimals, exponent = scaled.groups()
            significant, power = (whole + decimals).lstrip("0"), exponent.lstrip("+-").lstrip("0")
            if not significant:
                return Fraction(0)
            limit = sys.get_int_max_str_digits()
            if 0 < limit < len(power):   # the exponent's own digits, before int()
                raise NumeralError(f"rational of {len(power)} digits is too long")
            shift = (-1 if exponent[0] == "-" else 1) * int(power or "0") - len(decimals)
            digits = max(len(significant) + max(shift, 0), 1 - min(shift, 0))
            if 0 < limit < digits:
                raise NumeralError(f"rational of {digits} digits is too long")
            return int(sign + significant) * Fraction(10) ** shift
        if word.isascii() and "_" not in word:
            return Fraction(word)
    except NumeralError:
        raise
    except (ValueError, ZeroDivisionError):   # no rational, 0 denominator, or past the limit
        p, q = num.strip().replace(".", "", 1), den.strip()
        p = p[1:] if p[:1] in ("+", "-") else p
        digits = max(len(p), len(q)) if p.isdigit() and (q.isdigit() or not slash) else 0
        if 0 < sys.get_int_max_str_digits() < digits:
            raise NumeralError(f"rational of {digits} digits is too long") from None
    raise NumeralError(bad or f"expected a rational, got {word!r}")


def parse_integers(text: str, start: int = 0) -> list[int]:
    """integers() of an input file's words from ``start`` on; a bad one is a
    ParseError at the word that holds it."""
    d = DataWords(text)
    try:
        return integers(" ".join(d.words[start:]))
    except NumeralError:   # read again word by word, to raise at the bad one
        return [v for i in range(start, len(d.words)) for v in d.read(i, integers)]


# ---------------------------------------------------------------------------
# Input files
#
# Every input file (structures, graphs, hypergraphs, families, element sets,
# groups) is read through DataWords: a '#' starts a comment that ends with
# its line (at any str.splitlines boundary), and the rest of the line splits
# into words at whitespace.  Every format error in one is a ParseError from
# DataWords.error, located at a word.

# A '#' comment, running to the next str.splitlines boundary; and a word, or
# such a comment.
_COMMENT = re.compile(r"#[^\n\r\v\f\x1c-\x1e\x85\u2028\u2029]*")
_WORD_OR_COMMENT = re.compile(rf"{_COMMENT.pattern}|[^\s#]+")


class DataWords:
    """The words of an input file, in order, and by line in ``rows`` (lines
    without words are left out).  The text is split once for ``words``: every
    str.splitlines boundary is whitespace to str.split, so with comments cut
    out the lines need not be split apart.  ``rows`` are split from the lines
    only when read, and a word's character span only when an error needs it."""

    def __init__(self, text: str):
        self.text = text
        self.words = (_COMMENT.sub("", text) if "#" in text else text).split()
        self._numerals: tuple[int, dict[str, int]] = (0, {})

    @cached_property
    def rows(self) -> list[list[str]]:
        lines = (raw.split("#", 1)[0].split() for raw in self.text.splitlines())
        return [words for words in lines if words]

    def error(self, message: str, i: int) -> ParseError:
        """A ParseError at word ``i``, or at the end of the text past the last."""
        if i >= len(self.words):
            return ParseError(message, SourceSpan(len(self.text), len(self.text)))
        words = (m for m in _WORD_OR_COMMENT.finditer(self.text) if m[0][0] != "#")
        return ParseError(message, SourceSpan(*next(islice(words, i, None)).span()))

    def read(self, i: int, reader, *args):
        """``reader(word i, *args)`` ("" past the last word), its NumeralError
        raised as a ParseError at the word."""
        try:
            return reader(self.words[i] if i < len(self.words) else "", *args)
        except NumeralError as e:
            raise self.error(str(e), i) from None

    def elements(self, lo: int, hi: int, n: int) -> list[int] | None:
        """Words lo..hi-1 as elements of 0..n-1, each looked up among the
        numerals "0".."m-1", m = min(n, word count), a table built once per
        file and n (rebuilt if n changes); None on a miss ("07", "+7", a word
        >= m) or when hi is past the last word, and the caller reads them one
        by one."""
        if self._numerals[0] != n:
            self._numerals = n, {str(v): v for v in range(min(n, len(self.words)))}
        try:
            vals = list(map(self._numerals[1].__getitem__, self.words[lo:hi]))
        except KeyError:
            return None
        return vals if len(vals) == hi - lo else None


# Structure files
#
#   universe <n>
#   measure counting                      (default if omitted)
#   measure weights <r_0> ... <r_{n-1}>
#   constant <name> <elem>
#   function <name> <arity>
#   <n^arity result elements, lexicographic argument order>
#   relation <name> <arity>
#   <e_1> ... <e_arity>
#   ...
#   end
#
# Words are read as one flat list, so a table or a tuple may wrap across
# lines.  Each table and relation body is converted in bulk by
# DataWords.elements; only when a word is not a numeral of 0..n-1 are its
# words read one by one by integer(), to convert "07" or report the first bad
# word.  A relation is kept as its members' indices, read from the body's k
# columns at once.
# Every check is made here, so the structure is built without a second one.

_DECLARATIONS = frozenset(("measure", "constant", "function", "relation", "end"))


def parse_structure(text: str, budget: Budget | None = None) -> FiniteStructure:
    d = DataWords(text)
    words = d.words

    def word(i: int, what: str) -> str:
        if i >= len(words):
            raise d.error(f"expected {what}, found end of input", i)
        return words[i]

    def integer_at(i: int, what: str) -> int:
        return d.read(i, integer, f"expected {what}, found {word(i, what)!r}")

    def elements(lo: int, hi: int, what) -> list[int]:
        """Words lo..hi-1 as elements; ``what(j)`` names the j-th for an error."""
        vals = d.elements(lo, hi, n)
        if vals is not None:
            return vals
        vals = []
        for i in range(lo, hi):  # "07" and "+7" too, or else the first bad word
            v = integer_at(i, what(i - lo))
            if not 0 <= v < n:
                raise d.error(f"element {v} out of range [0, {n})", i)
            vals.append(v)
        return vals

    def weight(i: int, j: int) -> Fraction:
        try:
            q = rational(word(j, f"weight {i}"))
        except NumeralError:   # read again, to raise at the word with its message
            q = d.read(j, rational, f"expected weight {i}, found {words[j]!r}")
        if q < 0:
            raise d.error(f"weight {i} is negative", j)
        return q

    def declare(kind: str, i: int) -> tuple[str, int]:
        """A new symbol's name at word i, and then a function's or relation's arity."""
        name = word(i, f"{kind} name")
        if name in constants or name in functions or name in relations:
            raise d.error(f"symbol {name!r} is already declared", i)
        if kind == "constant":
            return name, 0
        k = integer_at(i + 1, f"{kind} arity")
        if k < 1:
            raise d.error("arity must be positive", i + 1)
        return name, k

    kw = word(0, "'universe'")
    if kw != "universe":
        raise d.error(f"structure file must start with 'universe', found {kw!r}", 0)
    n = integer_at(1, "universe size")
    if n < 1:
        raise d.error("universe must be nonempty", 1)
    (budget or Budget()).charge(n)  # before anything of size n is built

    weights: tuple[Fraction, ...] = ()  # normalized counting
    constants: dict[str, int] = {}
    functions: dict[str, tuple[int, tuple[int, ...]]] = {}
    relations: dict[str, tuple[int, frozenset[int]]] = {}
    pos = 2
    while pos < len(words):
        w = words[pos]
        if w == "measure":
            mode = word(pos + 1, "'counting' or 'weights'")
            if mode not in ("counting", "weights"):
                raise d.error(f"unknown measure mode {mode!r}", pos + 1)
            weights = tuple(weight(i, pos + 2 + i) for i in range(n)) if mode == "weights" else ()
            pos += 2 + (n if mode == "weights" else 0)
        elif w == "constant":
            name, _ = declare("constant", pos + 1)
            constants[name], = elements(pos + 2, pos + 3, lambda j: f"value of constant {name!r}")
            pos += 3
        elif w == "function":
            name, k = declare("function", pos + 1)
            lo = pos + 3
            # n^k, unless n^k >= 2^(k*(bits(n)-1)) is past both 2^64 and the
            # words left: then the table is short whatever follows them
            big = k * (n.bit_length() - 1) > max(64, (len(words) - lo).bit_length())
            size = len(words) - lo + 1 if big else n ** k
            hi = min(lo + size, len(words))
            # a full table of numerals holds no declaration word
            table = d.elements(lo, hi, n) if hi - lo == size else None
            if table is None:
                if not _DECLARATIONS.isdisjoint(words[lo:hi]):  # the table stops short
                    hi = next(i for i in range(lo, hi) if words[i] in _DECLARATIONS)
                table = elements(lo, hi, lambda j: f"result {j} of function {name!r}")
                if len(table) < size:
                    raise d.error(f"non-total function table for {name!r}: expected "
                                  f"{f'{n}^{k}' if big else size} results, "
                                  f"found {len(table)}", hi)
            functions[name] = (k, tuple(table))
            pos = lo + size
        elif w == "relation":
            name, k = declare("relation", pos + 1)
            what, lo = f"tuple entry for relation {name!r}", pos + 3
            hi = words.index("end", lo) if "end" in words[lo:] else len(words)
            body = elements(lo, hi, lambda j: what)
            if (hi - lo) % k:
                integer_at(hi, what)  # the 'end' or the end of input inside a tuple
            if hi == len(words):
                raise d.error(f"relation {name!r} is missing its 'end' line", hi)
            relations[name] = (k, frozenset(column_indices([body[i::k] for i in range(k)], n)))
            pos = hi + 1
        else:
            raise d.error(f"unknown declaration {w!r}", pos)

    return FiniteStructure(n, constants, functions, relations, weights or (Fraction(1, n),) * n)
