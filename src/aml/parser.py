"""Concrete syntax: formula parser/printer and the structure file format.

Formula grammar (lowest to highest precedence; binders extend maximally to
the right):

    formula  := impl
    impl     := disj ("->" impl)?
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
parse error carries a byte-offset span into the input, and nesting is capped
at ``MAX_DEPTH`` levels.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

from .semantics import Budget
from .structures import FiniteStructure
from .syntax import (AbbrevCmp, And, Atom, Cmp, Const, Equality, Exists, Forall, Formula,
                     Func, Implies, Meas, Not, Or, Signature, Term, Var, expand_abbrev)


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

_PUNCT = ("->", "<=", ">=", "!=", "<", ">", "=", "~", "&", "|", "(", ")", "[", "]",
          ".", ",", "/")
_KEYWORDS = ("forall", "exists")


@dataclass(frozen=True)
class Token:
    kind: str  # "ident" | "int" | punctuation itself | "eof"
    text: str
    span: SourceSpan


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Token("ident", text[i:j], SourceSpan(i, j)))
            i = j
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(Token("int", text[i:j], SourceSpan(i, j)))
            i = j
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                toks.append(Token(p, p, SourceSpan(i, i + len(p))))
                i += len(p)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", SourceSpan(i, i + 1))
    toks.append(Token("eof", "", SourceSpan(n, n)))
    return toks


class _Parser:
    def __init__(self, text: str, sig: Signature):
        self.text = text
        self.sig = sig
        self.toks = tokenize(text)
        self.pos = 0
        self.depth = 0

    # -- token helpers ------------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

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
        return self.impl()

    def impl(self) -> Formula:
        left = self.disj()
        if self.peek().kind == "->":
            with self.nested(self.next()):
                return Implies(left, self.impl())
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
        start = self.next().span.start  # "m"
        self.expect("[")
        vars: list[str] = []
        spans: list[SourceSpan] = []
        while True:
            t = self.peek()
            vars.append(self.variable())
            spans.append(t.span)
            if self.peek().kind == ",":
                self.next()
                continue
            break
        close = self.expect("]")
        seen: set[str] = set()
        for v, sp in zip(vars, spans):
            if v in seen:
                raise ParseError(f"repeated variable {v!r} in measure list", sp)
            seen.add(v)
        cmp_tok = self.peek()
        if cmp_tok.kind not in ("<", "<=", ">", ">="):
            raise ParseError(f"expected a comparison after the measure list, "
                             f"found {cmp_tok.text or 'end of input'!r}", cmp_tok.span)
        self.next()
        q = self.rational()
        self.expect(".")
        body = self.formula()
        if cmp_tok.kind == "<":
            return Meas(tuple(vars), Cmp.LT, q, body)
        if cmp_tok.kind == "<=":
            return Meas(tuple(vars), Cmp.LE, q, body)
        abbrev = AbbrevCmp.GE if cmp_tok.kind == ">=" else AbbrevCmp.GT
        return expand_abbrev(tuple(vars), abbrev, q, body)

    def variable(self) -> str:
        t = self.expect("ident")
        if t.text in _KEYWORDS:
            raise ParseError(f"{t.text!r} is a keyword, not a variable", t.span)
        if self.sig.is_constant(t.text) or self.sig.function_arity(t.text) is not None \
                or self.sig.relation_arity(t.text) is not None:
            raise ParseError(f"{t.text!r} is a declared symbol, not a variable", t.span)
        return t.text

    def rational(self) -> Fraction:
        num = self.expect("int")
        if self.peek().kind == "/":
            self.next()
            den = self.expect("int")
            if int(den.text) == 0:
                raise ParseError("zero denominator", den.span)
            return Fraction(int(num.text), int(den.text))
        return Fraction(int(num.text))

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


def parse_term(text: str, sig: Signature) -> Term:
    p = _Parser(text, sig)
    out = p.term()
    t = p.peek()
    if t.kind != "eof":
        raise ParseError(f"unexpected trailing input {t.text!r}", t.span)
    return out


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
# '#' starts a comment (to end of line).


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


def parse_structure(text: str, budget: Budget | None = None) -> FiniteStructure:
    r = _WordReader(text)
    kw = r.next("'universe'")
    if kw.text != "universe":
        raise ParseError(f"structure file must start with 'universe', found {kw.text!r}", kw.span)
    n, n_span = r.next_int("universe size")
    if n < 1:
        raise ParseError("universe must be nonempty", n_span)
    (budget or Budget()).charge(n)  # before anything of size n is built

    weights: tuple[Fraction, ...] | None = None
    constants: dict[str, int] = {}
    functions: dict[str, tuple[int, tuple[int, ...]]] = {}
    relations: dict[str, tuple[int, frozenset[tuple[int, ...]]]] = {}

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
            tuples: set[tuple[int, ...]] = set()
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
        return FiniteStructure(n, constants, functions, relations, weights or ())
    except ValueError as e:
        raise ParseError(str(e), SourceSpan(0, len(text))) from None


def print_structure(m: FiniteStructure) -> str:
    """Write a structure back into the file format (round-trips through
    parse_structure)."""
    lines = [f"universe {m.n}"]
    if m.uniform_weight == Fraction(1, m.n):
        lines.append("measure counting")
    else:
        lines.append("measure weights " + " ".join(str(w) for w in m.weights))
    for name in sorted(m.constants):
        lines.append(f"constant {name} {m.constants[name]}")
    for name in sorted(m.functions):
        arity, table = m.functions[name]
        lines.append(f"function {name} {arity}")
        lines.append(" ".join(str(v) for v in table))
    for name in sorted(m.relations):
        arity, tuples = m.relations[name]
        lines.append(f"relation {name} {arity}")
        for tup in sorted(tuples):
            lines.append(" ".join(str(v) for v in tup))
        lines.append("end")
    return "\n".join(lines) + "\n"
