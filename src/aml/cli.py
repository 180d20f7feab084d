"""Command-line front end.

Subcommands: eval, measure, check-axioms, gowers, regularity, hypergraph,
ap-encode, limit, density, furstenberg.  Flags on every subcommand: --budget
(work units; without it main reads the AML_BUDGET environment variable on
every call, then falls back to DEFAULT_BUDGET), --format {text,records} and
--stats.  eval and limit also take --trace, check-axioms --seed.  The
argument parser is built once per process.  main builds one Budget per run,
and each layer charges it for its own enumeration just before running it and
bumps its named counters (see semantics.Budget); with --stats, main prints
stats.budget.used=<units> and then stats.<counter>=<n> for each counter, by
name, after the output of an exit 0 or 1, in either format.  eval evaluates
a formula at the --bind valuation (a name the formula does not use is
ignored), so eval --trace lists the measures decided at that valuation only
(an inner measure once per assignment of its enclosing binders' variables),
innermost first, and none in an operand skipped because the connective's
left operand already decides it; measure, check-axioms and limit table each
formula once over the variables they enumerate (see semantics.Evaluator).
eval's summary states its formula's measure bound as written: under an odd
number of leading '~' a < bound reads as >= and a <= bound as >.  Each
subcommand imports its layer (axioms, gowers, limits, regularity) when it
runs.

Input files (structures, graphs, hypergraphs, families and their E-files,
element sets, groups) are all read through parser.DataWords: '#' comments
end with the line.  A format error in any of them is a ParseError located at
a word; it, or a file that is not UTF-8, exits 2 as "error: <path>: line <L>:
<message>" (see _parse_input).  Every number in a file, a flag or AML_BUDGET
is read by parser's numeral grammar; a flag's or AML_BUDGET's word that it
refuses (a NumeralError) exits 2 as "error: <message>".  RegularityError,
LimitError and GowersError (a group file that breaks a group law among them)
are semantic errors (exit 3) wherever they arise.

Output formats: "text" is human-oriented; "records" prints one key=value
pair per line (indexed keys for list items), deterministic for fixed inputs
and seed.  All reported comparisons are exact rationals, and the gowers power
and every measure mu are printed in full even past the int-to-str digit
limit; decimal renderings are display-only and labeled approx.

Exit codes, chosen in main by the type of the error alone: 0 success, 1 a
checked property failed, 2 a bad argument or input file (stderr starts
"error:"; a formula's ParseError, "parse error:"; argparse's own, "usage:"),
3 a semantic error from a layer (unbound variable, out-of-range binding,
mismatched signature; "semantic error:"), 4 enumeration budget exceeded, or
memory exhausted by an input that the charges under-price ("budget error:").
Exits 2-4 print nothing on stdout, and exits 0 and 1 nothing on stderr.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .parser import (INTEGER, INTEGERS, DataWords, NumeralError, ParseError, integer, integers,
                     parse_formula, parse_integers, parse_structure, rational)
from .semantics import Budget, BudgetExceeded, EvalError, Evaluator, extension
from .structures import VFlag, measure
from .syntax import AbbrevCmp, Cmp, Meas, Not, free_vars

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_SEMANTIC = 3
EXIT_BUDGET = 4

DEFAULT_BUDGET = 10 ** 7

_FLAG_DISPLAY = {VFlag.PLUS: "⊕", VFlag.MINUS: "⊖", VFlag.DOT: "⊙"}


class CliError(Exception):
    """A bad argument or unreadable input file: exits 2 as "error: <message>"."""


def _read_file(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise CliError(f"cannot read {path}: {e}") from None
    except UnicodeDecodeError as e:
        raise CliError(f"{path}: not UTF-8 text: {e}") from None


def _formula_arg(text: str) -> str:
    """A formula argument is literal text, or @path to read it from a file."""
    if text.startswith("@"):
        return _read_file(text[1:])
    return text


def _element_set(text: str) -> set[int]:
    """An integer-set argument: inline integers (none, when it is blank or
    only commas), else the path of a file of them ('#' starts a comment)."""
    if INTEGERS.fullmatch(text):
        return set(integers(text))
    return set(_parse_input(parse_integers, text.strip()))


def _parse_input(parse, path: str, **kwargs):
    """Parse the file at ``path``; a format error exits 2 as "error: <path>:
    line <L>: <message>" (a ParseError's line is found from its span)."""
    text = _read_file(path)
    try:
        return parse(text, **kwargs)
    except ParseError as e:
        line = max(1, len(text[:e.span.start + 1].splitlines()))
        raise CliError(f"{path}: line {line}: {e.message}") from None


def _exact(value) -> str:
    """str(value) past the interpreter's int-to-str digit limit: an exact
    result is charged to the budget, so it is printed in full."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


class _Out:
    """Collects text lines and key=value records; prints one of them."""

    def __init__(self, fmt: str):
        self.fmt = fmt
        self.lines: list[str] = []
        self.records: list[str] = []

    def text(self, line: str) -> None:
        self.lines.append(line)

    def record(self, key: str, value) -> None:
        """Formatted now, so that flush, outside main's error handling, cannot raise."""
        if isinstance(value, bool):
            value = "true" if value else "false"
        self.records.append(f"{key}={value}")

    def flush(self) -> None:
        for line in self.records if self.fmt == "records" else self.lines:
            print(line)


def _parse_bindings(text: str | None) -> dict[str, int]:
    """The --bind pairs name=element, each name once; the evaluator checks
    the elements of the names the formula uses, and ignores the rest."""
    val: dict[str, int] = {}
    for piece in filter(None, map(str.strip, (text or "").split(","))):
        name, eq, value = map(str.strip, piece.partition("="))
        if not eq:
            raise CliError(f"bad binding {piece!r}: expected name=element")
        elem = integer(value, f"bad binding value {value!r}")
        if name in val:  # the run would not read the first value
            raise CliError(f"binding {name!r} given twice")
        val[name] = elem
    return val


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_eval(args, out: _Out, budget: Budget) -> int:
    m = _parse_input(parse_structure, args.structure, budget=budget)
    phi = parse_formula(_formula_arg(args.formula), m.signature())
    val = _parse_bindings(args.bind)
    trace: list = []
    verdict = Evaluator(m, budget=budget, trace=trace).eval(phi, val)
    out.record("verdict", verdict)
    root, negated = phi, False
    while isinstance(root, Not):
        root, negated = root.body, not negated
    summary = "true" if verdict else "false"
    if isinstance(root, Meas):
        top = trace[-1]  # the root measure is decided last
        cmp = top.cmp.value
        if negated:  # ~(m < q) reads as m >= q, ~(m <= q) as m > q
            cmp = (AbbrevCmp.GE if top.cmp is Cmp.LT else AbbrevCmp.GT).value
        mu = _exact(top.mu)
        summary += f" (mu = {mu}, {cmp} {top.threshold}, flag {_FLAG_DISPLAY[top.flag]})"
        out.record("mu", mu)
        out.record("cmp", cmp)
        out.record("threshold", top.threshold)
        out.record("flag", top.flag.value)
    out.text(summary)
    if args.trace:
        for i, entry in enumerate(trace):
            line = (f"m[{','.join(entry.vars)}] {entry.cmp.value} {entry.threshold}: "
                    f"count {entry.count}, mu = {_exact(entry.mu)}, flag "
                    f"{_FLAG_DISPLAY[entry.flag]} -> {str(entry.verdict).lower()}")
            out.text(f"  trace {i}: {line}")
            out.record(f"trace.{i}", line)
    return EXIT_OK


def _tuple_vars(text: str | None, phi) -> tuple[str, ...]:
    """The --vars tuple, else phi's free variables in sorted order."""
    return tuple(text.replace(",", " ").split()) if text else tuple(sorted(free_vars(phi)))


def _cmd_measure(args, out: _Out, budget: Budget) -> int:
    m = _parse_input(parse_structure, args.structure, budget=budget)
    phi = parse_formula(_formula_arg(args.formula), m.signature())
    xs = _tuple_vars(args.vars, phi)
    if not xs:
        raise EvalError("formula is closed; nothing to measure over (use eval instead)")
    ext = extension(m, phi, xs, budget=budget)
    mu = _exact(measure(ext))
    out.text(f"mu = {mu} (count {len(ext)} of {m.n ** len(xs)})")
    out.record("mu", mu)
    out.record("count", len(ext))
    out.record("tuples", m.n ** len(xs))
    return EXIT_OK


def _parse_schemes(text: str) -> tuple[str, ...]:
    from . import axioms
    chosen: list[str] = []
    for name in text.split(","):
        name = name.strip()
        if not name:
            continue
        if name in axioms.GROUPS:
            chosen.extend(axioms.GROUPS[name])
        elif name in axioms.ALL_SCHEMES:
            chosen.append(name)
        else:
            raise CliError(
                f"unknown scheme {name!r}: expected group "
                f"{'/'.join(axioms.GROUPS)} or scheme id")
    if not chosen:
        raise CliError("empty scheme selection")
    return tuple(chosen)


def _cmd_check_axioms(args, out: _Out, budget: Budget) -> int:
    from . import axioms
    schemes = _parse_schemes(args.schemes)
    if args.count < 0:
        raise CliError(f"--count must be nonnegative, got {args.count}")
    ms = [_parse_input(parse_structure, path, budget=budget) for path in args.structures]
    share = [args.count // len(ms) + (i < args.count % len(ms)) for i in range(len(ms))]
    held = total = 0
    failures: list[str] = []
    for which, m in enumerate(ms):
        if not share[which]:
            continue
        instances = axioms.generate_instances(args.seed + which, share[which], schemes=schemes,
                                              sig=m.signature(), budget=budget)
        results = axioms.check_soundness(m, instances, budget=budget)
        total += len(instances)
        held += sum(r.holds for r in results)
        failures.extend(f"{r.instance.scheme} on {args.structures[which]}"
                        for r in results if not r.holds)
    out.text(f"{held}/{total} hold")
    out.record("held", held)
    out.record("total", total)
    for i, f in enumerate(failures[:20]):
        out.text(f"  FAILED: {f}")
        out.record(f"failure.{i}", f)
    return EXIT_OK if held == total else EXIT_FAIL


def _group_table(text: str) -> list[int]:
    """A group file: "group <n>" and then the n*n entries of its addition
    table.  Returns n followed by the entries."""
    d = DataWords(text)
    n, *entries = (parse_integers(text, 1) if d.words[:1] == ["group"] else None) or [0]
    if n < 1:
        raise d.error("expected 'group <n>'", 0)
    if len(entries) != n * n:
        raise d.error(f"group table needs {n * n} entries, got {len(entries)}", len(d.words) - 1)
    return [n, *entries]


def _load_group(spec: str, order: int, budget: Budget):
    """A group argument: z<n> for the cyclic group, or a group file ('#'
    starts a comment), as a gowers.AbelianGroup.  The group must have
    ``order`` elements, which is checked before any table is built."""
    from . import gowers
    low = spec.strip().lower()
    if low.startswith("z") and INTEGER.fullmatch(low[1:]):
        n, entries = integer(low[1:]), None
    else:
        n, *entries = _parse_input(_group_table, spec)
    if n < 1:   # before the order is compared with the values
        raise gowers.GowersError("group order must be positive")
    if order != n:
        raise gowers.GowersError(f"--g needs {n} values for this group")
    if entries is None:
        return gowers.AbelianGroup.cyclic(n, budget=budget)
    return gowers.AbelianGroup.from_table([entries[i * n:(i + 1) * n] for i in range(n)],
                                          budget=budget)


def _cmd_gowers(args, out: _Out, budget: Budget) -> int:
    from . import gowers
    values = list(map(rational, args.g.replace(",", " ").split()))
    if args.k < 1:  # before _load_group builds an n*n addition table
        raise gowers.GowersError("k must be >= 1")
    group = _load_group(args.group, len(values), budget)
    g = gowers.GridFunction(group.n, 1, tuple(values), ())
    k = args.k
    power = gowers.gowers_norm_pow(group, g, k, budget=budget)   # a sum of squares
    # its decimal root and its digits take time quadratic in its length: w²,
    # w the 64-bit words past the first of its numerator or denominator
    words = (max(power.numerator, power.denominator).bit_length() - 1) >> 6
    budget.charge(words * words)
    approx = gowers.decimal_root(power, 1 << k)
    shown = _exact(power)
    out.text(f"U^{k} power = {shown}")
    out.text(f"norm approx {approx}")
    out.record("power", shown)
    out.record("approx", approx)
    return EXIT_OK


def _cmd_regularity(args, out: _Out, budget: Budget) -> int:
    from . import regularity
    g = _parse_input(regularity.parse_graph, args.graph, budget=budget)
    eps = rational(args.eps)
    res = regularity.regularity_partition(g, eps, k_max=args.kmax, exact_cap=args.cap,
                                          budget=budget)
    parts = res.parts
    out.text(f"partition of {g.n} vertices into {len(parts)} parts "
             f"(status: {res.status})")
    for i, p in enumerate(parts):
        out.text(f"  part {i}: {' '.join(map(str, p))}")
        out.record(f"part.{i}", " ".join(map(str, p)))
    rel = "<=" if res.irregular_mass <= res.mass_bound else ">"
    out.text(f"irregular mass {res.irregular_mass}/{g.n * g.n} {rel} {eps}")
    out.text(f"energy log: {' -> '.join(str(e) for e in res.energy_log)}")
    out.record("status", res.status)
    out.record("parts", len(parts))
    out.record("mass", res.irregular_mass)
    out.record("bound", res.mass_bound)
    for i, e in enumerate(res.energy_log):
        out.record(f"energy.{i}", e)
    return EXIT_OK if res.status == "regular" else EXIT_FAIL


def _cmd_hypergraph(args, out: _Out, budget: Budget) -> int:
    from . import regularity
    if args.eps is not None and not args.remove:
        raise CliError("--eps needs --remove")
    host = _parse_input(regularity.parse_hypergraph, args.host)
    pattern = _parse_input(regularity.parse_hypergraph, args.pattern)
    if args.remove:
        eps = None if args.eps is None else rational(args.eps)
        res = regularity.remove_copies(pattern, host, eps, budget=budget)
        copies = res.copies_before
    else:
        copies = regularity.count_copies(pattern, host, budget=budget)
    out.text(f"copies = {copies}")
    out.record("copies", copies)
    if args.remove:
        out.text(f"removed {len(res.removed)} edges ({res.method}); "
                 f"copies after = {res.copies_after}")
        for i, e in enumerate(sorted(res.removed)):
            out.record(f"removed.{i}", " ".join(map(str, e)))
        out.record("method", res.method)
        out.record("copies_after", res.copies_after)
        if res.within_bound is not None:
            out.text(f"within eps*n^k bound: {res.within_bound}")
            out.record("within_bound", res.within_bound)
    return EXIT_OK


def _cmd_ap_encode(args, out: _Out, budget: Budget) -> int:
    from . import regularity
    elements = _element_set(args.A)
    enc = regularity.ap_encode(elements, args.n, args.k, budget=budget)
    out.text(f"hypergraph: {enc.hypergraph.n} vertices, "
             f"{len(enc.hypergraph.edges)} edges, parts "
             f"{'/'.join(str(len(p)) for p in enc.parts)}")
    out.text(f"copies with nonzero difference = {enc.copy_ap_count}; "
             f"direct AP count = {enc.direct_ap_count}; "
             f"{'verified' if enc.verified else 'MISMATCH'}")
    out.record("vertices", enc.hypergraph.n)
    out.record("edges", len(enc.hypergraph.edges))
    out.record("copies_nontrivial", enc.copy_ap_count)
    out.record("copies_trivial", enc.trivial_copies)
    out.record("direct", enc.direct_ap_count)
    out.record("verified", enc.verified)
    return EXIT_OK if enc.verified else EXIT_FAIL


def _cmd_limit(args, out: _Out, budget: Budget) -> int:
    from . import limits
    base = os.path.dirname(os.path.abspath(args.family))  # E-file paths are relative to it
    family = _parse_input(limits.parse_family, args.family, loader=lambda path:
                          _parse_input(parse_integers, os.path.join(base, path)))
    if bool(args.sentence) == bool(args.phi):
        raise CliError("need exactly one of --sentence (truth profile) or "
                       "--phi with --target (limit measure)")
    if args.sentence and (args.vars is not None or args.target is not None):
        raise CliError("--vars and --target need --phi")
    if args.sentence:
        sigma = parse_formula(_formula_arg(args.sentence), family.signature)
        prof = limits.truth_profile(family, sigma, slack=args.slack, budget=budget)
        out.text(prof.describe())
        out.record("verdict", prof.verdict)
        if prof.from_index is not None:
            out.record("from", prof.from_index)
        for i, v in zip(family.indices(), prof.values):
            out.record(f"value.{i}", v)
            if args.trace:
                out.text(f"  index {i}: {str(v).lower()}")
        return EXIT_OK
    if args.target is None:
        raise CliError("--phi needs --target")
    phi = parse_formula(_formula_arg(args.phi), family.signature)
    xs = _tuple_vars(args.vars, phi)
    target = rational(args.target)
    lm = limits.limit_measure(family, phi, xs, target, budget=budget)
    out.text(lm.describe().replace(f"flag {lm.flag.value}", f"flag {_FLAG_DISPLAY[lm.flag]}")
             if lm.flag else lm.describe())
    out.record("verdict", lm.verdict)
    if lm.verdict == "converged":
        out.record("limit", lm.limit)
        out.record("flag", lm.flag.value)
        out.record("lt", lm.lt_holds)
        out.record("le", lm.le_holds)
    else:
        out.record("note", lm.note)
    for i, v in zip(family.indices(), lm.values):
        out.record(f"mu.{i}", v)
        if args.trace:
            out.text(f"  index {i}: mu = {v}")
    return EXIT_OK


def _cmd_density(args, out: _Out, budget: Budget) -> int:
    from . import limits
    elements = _element_set(args.E)
    d = limits.banach_density(elements, args.N, args.Lmin, budget=budget)
    out.text(f"banach density = {d}")
    out.record("density", d)
    return EXIT_OK


def _cmd_furstenberg(args, out: _Out, budget: Budget) -> int:
    from . import limits
    elements = _element_set(args.E)
    shifts = set(integers(args.U))
    cyc, plain, bound = limits.furstenberg_check(elements, args.N, shifts, budget=budget)
    ok = abs(cyc - plain) <= bound
    out.text(f"cyclic density = {cyc}, plain density = {plain}, "
             f"wraparound bound = {bound}")
    out.text(f"|cyclic - plain| <= bound: {ok}")
    out.record("cyclic", cyc)
    out.record("plain", plain)
    out.record("bound", bound)
    out.record("within_bound", ok)
    return EXIT_OK if ok else EXIT_FAIL


# ---------------------------------------------------------------------------
# Argument wiring


def _integer_arg(word: str) -> int:
    """argparse's type for every integer flag: integer(), with its message."""
    try:
        return integer(word)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built once per process, so it holds nothing read from the environment."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--budget", type=_integer_arg,
                        help="enumeration budget in work units (default: the "
                             "AML_BUDGET environment variable, read on every "
                             f"run, else {DEFAULT_BUDGET})")
    common.add_argument("--format", choices=("text", "records"), default="text")
    common.add_argument("--stats", action="store_true",
                        help="after the output, print the work units charged and "
                             "the run's counters as stats.<name>=<n> records")

    top = argparse.ArgumentParser(prog="aml", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", parents=[common],
                       help="evaluate a formula in a structure")
    p.add_argument("structure")
    p.add_argument("formula", help="formula text, or @path to a file")
    p.add_argument("--bind", help="valuation, e.g. x=0,y=2")
    p.add_argument("--trace", action="store_true",
                   help="print each measure that is tabled")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("measure", parents=[common],
                       help="measure a formula's extension")
    p.add_argument("structure")
    p.add_argument("formula")
    p.add_argument("--vars", help="tuple variables, e.g. x,y "
                                  "(default: sorted free variables)")
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser("check-axioms", parents=[common],
                       help="seeded soundness run over structures")
    p.add_argument("structures", nargs="+")
    p.add_argument("--schemes", default="AML,I,F,F+")
    p.add_argument("--count", type=_integer_arg, default=100)
    p.add_argument("--seed", type=_integer_arg, default=0)
    p.set_defaults(func=_cmd_check_axioms)

    p = sub.add_parser("gowers", parents=[common],
                       help="uniformity norm power of a group function")
    p.add_argument("group", help="z<n> for a cyclic group, or a group file")
    p.add_argument("--g", required=True,
                   help="function values, e.g. --g=-1,1,-1,1 (with '=', a leading "
                        "minus is not read as an option)")
    p.add_argument("--k", type=_integer_arg, required=True)
    p.set_defaults(func=_cmd_gowers)

    p = sub.add_parser("regularity", parents=[common],
                       help="energy-increment regularity partition")
    p.add_argument("graph")
    p.add_argument("--eps", required=True)
    p.add_argument("--kmax", type=_integer_arg, default=64)
    p.add_argument("--cap", type=_integer_arg, default=15,
                   help="exact regularity part-size cap")
    p.set_defaults(func=_cmd_regularity)

    p = sub.add_parser("hypergraph", parents=[common],
                       help="pattern copy counting and removal")
    p.add_argument("host")
    p.add_argument("--pattern", required=True)
    p.add_argument("--remove", action="store_true")
    p.add_argument("--eps", help="with --remove: report whether removal fits eps * n^k")
    p.set_defaults(func=_cmd_hypergraph)

    p = sub.add_parser("ap-encode", parents=[common],
                       help="arithmetic-progression hypergraph encoding")
    p.add_argument("--A", required=True, help="set elements, or a file path")
    p.add_argument("--n", type=_integer_arg, required=True)
    p.add_argument("--k", type=_integer_arg, required=True)
    p.set_defaults(func=_cmd_ap_encode)

    p = sub.add_parser("limit", parents=[common],
                       help="truth profile or limit measure along a family")
    p.add_argument("family", help="family spec file")
    p.add_argument("--sentence", help="closed formula for a truth profile")
    p.add_argument("--phi", help="formula for a limit measure")
    p.add_argument("--vars", help="tuple variables, with --phi only")
    p.add_argument("--target", help="target rational, with --phi only")
    p.add_argument("--slack", type=_integer_arg, default=5)
    p.add_argument("--trace", action="store_true", help="print each index's value")
    p.set_defaults(func=_cmd_limit)

    p = sub.add_parser("density", parents=[common],
                       help="best-window (Banach) density")
    p.add_argument("--E", required=True, help="set elements, or a file path")
    p.add_argument("--N", type=_integer_arg, required=True)
    p.add_argument("--Lmin", type=_integer_arg, default=1)
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("furstenberg", parents=[common],
                       help="cyclic vs plain shift-intersection densities")
    p.add_argument("--E", required=True)
    p.add_argument("--N", type=_integer_arg, required=True)
    p.add_argument("--U", required=True, help="shift set, e.g. 0,2")
    p.set_defaults(func=_cmd_furstenberg)

    return top


def _budget(limit: int | None) -> Budget:
    """The run's Budget: --budget, else AML_BUDGET (read on every call), else
    DEFAULT_BUDGET."""
    bad = "budget must be a positive integer (check --budget / AML_BUDGET)"
    if limit is None:
        limit = integer(os.environ.get("AML_BUDGET", str(DEFAULT_BUDGET)), bad)
    if limit <= 0:
        raise CliError(bad)
    return Budget(limit)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    out = _Out(args.format)
    try:
        budget = _budget(args.budget)
        code = args.func(args, out, budget)
    except (CliError, NumeralError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except (BudgetExceeded, MemoryError) as e:   # the latter for inputs the charges under-price
        print(f"budget error: {str(e) or 'out of memory'}", file=sys.stderr)
        return EXIT_BUDGET
    except (EvalError, ValueError) as e:  # the layers' own errors are ValueErrors
        print(f"semantic error: {e}", file=sys.stderr)
        return EXIT_SEMANTIC
    out.flush()
    if args.stats:
        print(f"stats.budget.used={budget.used}")
        for name, n in sorted(budget.counts.items()):
            print(f"stats.{name}={n}")
    return code


if __name__ == "__main__":
    sys.exit(main())
