"""Eventual behavior of formula truth and measures along families of
growing finite structures, plus upper Banach density and a finite
shift-system comparison.

A StructureFamily maps each index i in a finite range to a finite measured
structure over one shared signature.  truth_profile records a sentence's
truth at every index and reports EventuallyTrue(i0)/EventuallyFalse(i0)
only when the verdict holds for every index from i0 on and i0 precedes the
end of the range by more than a slack margin — never extrapolating beyond
the computed range.  limit_measure watches the measure sequence of a
formula's extension and, when the recorded tail approaches a target value r
from one side, reports the limiting value together with an approach flag:
PLUS for approach from above, MINUS from below, DOT for a constant tail.
The induced boundary verdicts for m < r and m <= r follow the flag rules
(at the boundary, m < r holds only under MINUS; m <= r fails only under
PLUS).

The two built-in families mirror the package's running examples: cyclic
groups with named subset predicates, and integer intervals [1, i] carrying
a set E and the successor map with wraparound.
"""

from __future__ import annotations

import itertools
import operator
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from .parser import DataWords, ParseError
from .semantics import Budget, Evaluator, extension, meas_holds
from .structures import FiniteStructure, VFlag, measure
from .syntax import Cmp, Formula, Signature, free_vars


class LimitError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Families


@dataclass(frozen=True)
class StructureFamily:
    """Finite indexed family i -> structure, i in [i_lo, i_hi]."""

    i_lo: int
    i_hi: int
    builder: Callable[[int], FiniteStructure]
    signature: Signature

    def __post_init__(self):
        if self.i_lo > self.i_hi:
            raise LimitError("empty index range")

    def indices(self) -> range:
        return range(self.i_lo, self.i_hi + 1)

    def at(self, i: int, budget: Budget | None = None) -> FiniteStructure:
        if not self.i_lo <= i <= self.i_hi:
            raise LimitError(f"index {i} outside [{self.i_lo}, {self.i_hi}]")
        # the universe and the function tables, charged before they are built
        (budget or Budget()).charge(i + sum(i ** a for _, a in self.signature.functions))
        return self.builder(i)


#: Named membership rules for cyclic-family predicates: rule(i) is the
#: predicate's extension inside {0, ..., i-1}.
PREDICATE_RULES: dict[str, Callable[[int], frozenset[int]]] = {
    "even": lambda i: frozenset(x for x in range(i) if x % 2 == 0),
    "odd": lambda i: frozenset(x for x in range(i) if x % 2 == 1),
    "zero": lambda i: frozenset({0}),
    "nonzero": lambda i: frozenset(range(1, i)),
    "evensize": lambda i: frozenset(range(i)) if i % 2 == 0 else frozenset(),
    "bottom-half": lambda i: frozenset(range((i + 1) // 2)),
}


def cyclic_family(i_lo: int, i_hi: int,
                  predicates: dict[str, str] | None = None) -> StructureFamily:
    """The groups Z_i for i = i_lo..i_hi, with constant e = 0, binary
    addition mod i, and optional unary predicates drawn from PREDICATE_RULES
    (mapping predicate name -> rule id)."""
    if i_lo < 1:
        raise LimitError("cyclic family needs i_lo >= 1")
    predicates = dict(predicates or {})
    for name, rule in predicates.items():
        if rule not in PREDICATE_RULES:
            raise LimitError(f"unknown membership rule {rule!r} "
                             f"(available: {sorted(PREDICATE_RULES)})")

    def build(n: int) -> FiniteStructure:  # valid by construction, so not re-checked
        row = tuple(range(n))
        add = tuple(itertools.chain.from_iterable(row[a:] + row[:a] for a in range(n)))
        # a unary relation's member indices are its elements
        rels = {name: (1, PREDICATE_RULES[rule](n)) for name, rule in predicates.items()}
        return FiniteStructure(n, {"e": 0}, {"add": (2, add)}, rels, (Fraction(1, n),) * n)

    sig = Signature(constants=("e",), functions=(("add", 2),),
                    relations=tuple(sorted((name, 1) for name in predicates)))
    return StructureFamily(i_lo, i_hi, build, sig)


def interval_family(elements, i_lo: int, i_hi: int) -> StructureFamily:
    """The systems ([1, i], E ∩ [1, i], successor with wraparound) for
    i = i_lo..i_hi: value v in [1, i] is element v-1, the unary predicate E
    marks the set's members, and f maps v to v+1 for v < i and i to 1."""
    e_set = frozenset(elements)
    if e_set and min(e_set) < 1:
        raise LimitError("interval-family elements must be >= 1")
    if i_lo < 1:
        raise LimitError("interval family needs i_lo >= 1")

    def build(i: int) -> FiniteStructure:  # valid by construction, so not re-checked
        succ = tuple(range(1, i)) + (0,)
        members = frozenset(v - 1 for v in e_set if v <= i)
        return FiniteStructure(i, {}, {"f": (1, succ)}, {"E": (1, members)},
                               (Fraction(1, i),) * i)

    sig = Signature(functions=(("f", 1),), relations=(("E", 1),))
    return StructureFamily(i_lo, i_hi, build, sig)


# ---------------------------------------------------------------------------
# Truth profiles


@dataclass(frozen=True)
class TruthProfile:
    i_lo: int
    i_hi: int
    values: tuple[bool, ...]
    verdict: str          # "eventually-true" | "eventually-false" | "undetermined"
    from_index: int | None
    slack: int

    def describe(self) -> str:
        if self.verdict == "eventually-true":
            return f"EventuallyTrue({self.from_index})"
        if self.verdict == "eventually-false":
            return f"EventuallyFalse({self.from_index})"
        return "Undetermined"


def _suffix_start(values: tuple, keeps: Callable[..., bool]) -> int:
    """Where the longest suffix of ``values`` starts (0-based) in which each
    value and its successor satisfy keeps(value, successor): with operator.eq
    the run equal to the last value, with operator.ge or operator.le the run
    weakly falling or rising to it.  The last value alone is such a suffix."""
    start = len(values) - 1
    while start > 0 and keeps(values[start - 1], values[start]):
        start -= 1
    return start


def truth_profile(family: StructureFamily, sigma: Formula, slack: int = 5,
                  budget: Budget | None = None) -> TruthProfile:
    """Evaluate a sentence at every index and classify its tail behavior.

    EventuallyTrue(i0) means: true at every recorded index >= i0, with
    i0 < i_hi - slack, and i0 minimal with that property (similarly for
    EventuallyFalse).  Anything else is Undetermined.
    """
    if free_vars(sigma):
        raise LimitError(f"profile needs a closed formula; free: "
                         f"{sorted(free_vars(sigma))}")
    if slack < 0:
        raise LimitError("slack must be >= 0")
    values = []
    for i in family.indices():
        ev = Evaluator(family.at(i, budget), budget=budget)
        values.append(ev.eval(sigma, {}))
    values = tuple(values)
    last = values[-1]
    i0 = family.i_lo + _suffix_start(values, operator.eq)
    if i0 < family.i_hi - slack:
        verdict = "eventually-true" if last else "eventually-false"
        return TruthProfile(family.i_lo, family.i_hi, values, verdict, i0, slack)
    return TruthProfile(family.i_lo, family.i_hi, values, "undetermined",
                        None, slack)


# ---------------------------------------------------------------------------
# Limit measures


@dataclass(frozen=True)
class LimitMeasure:
    i_lo: int
    i_hi: int
    values: tuple[Fraction, ...]
    target: Fraction
    verdict: str               # "converged" | "undetermined"
    limit: Fraction | None
    flag: VFlag | None
    lt_holds: bool | None      # m[xs] < target in the limit
    le_holds: bool | None      # m[xs] <= target in the limit
    note: str = ""

    def describe(self) -> str:
        if self.verdict != "converged":
            return f"Undetermined ({self.note})" if self.note else "Undetermined"
        return (f"limit {self.limit} flag {self.flag.value}; "
                f"m<{self.target}: {self.lt_holds}, m<={self.target}: {self.le_holds}")


def limit_measure(family: StructureFamily, phi: Formula, xs, r,
                  budget: Budget | None = None) -> LimitMeasure:
    """Track mu_i = measure of phi's extension over the tuple variables xs in
    each family structure, and decide approach to the target r.

    The verdict "converged" requires one-sided evidence on a monotone suffix
    covering at least half the range: all suffix values equal to r (flag DOT),
    or all above r, weakly decreasing, with the final gap at most half the
    suffix's initial gap (flag PLUS), or the mirror image (flag MINUS).  The
    verdict asserts the recorded evidence, not convergence beyond the range.
    """
    r = Fraction(r)
    xs = tuple(xs)
    extra = free_vars(phi) - set(xs)
    if extra:
        raise LimitError(f"free variables {sorted(extra)} outside the tuple {xs}")
    values = []
    for i in family.indices():
        ext = extension(family.at(i, budget), phi, xs, budget=budget)
        values.append(measure(ext))
    values = tuple(values)
    count = len(values)
    need = max(2, (count + 1) // 2)

    def result(verdict, limit, flag, note=""):
        lt = le = None
        if verdict == "converged":
            lt, le = meas_holds(Cmp.LT, r, r, flag), meas_holds(Cmp.LE, r, r, flag)
        return LimitMeasure(family.i_lo, family.i_hi, values, r, verdict,
                            limit, flag, lt, le, note)

    last = values[-1]
    if last == r:
        equal = count - _suffix_start(values, operator.eq)
        if equal >= need:
            return result("converged", r, VFlag.DOT)
        return result("undetermined", None, None,
                      f"tail equals {r} for only {equal} of {count} indices")
    # a suffix weakly monotone towards the last value stays on its side of r
    above = last > r
    suffix = values[_suffix_start(values, operator.ge if above else operator.le):]
    if len(suffix) < need:
        return result("undetermined", None, None,
                      f"one-sided monotone suffix covers only {len(suffix)} "
                      f"of {count} indices")
    gap0, gap1 = abs(suffix[0] - r), abs(suffix[-1] - r)
    if gap1 * 2 > gap0:
        return result("undetermined", None, None,
                      f"gap only shrank from {gap0} to {gap1}")
    return result("converged", r, VFlag.PLUS if above else VFlag.MINUS)


# ---------------------------------------------------------------------------
# Banach density and the finite shift comparison


def _prefix_counts(e_set: frozenset[int], lo: int, count: int) -> list[int]:
    """|E ∩ [1, i]| for i = lo..lo + count - 1."""
    marks = bytearray(count - 1)    # marks[j] = 1 when lo + 1 + j is in E
    for x in e_set:
        if lo < x < lo + count:
            marks[x - lo - 1] = 1
    return list(itertools.accumulate(marks, initial=sum(1 for x in e_set if x <= lo)))


def banach_density(elements, n_hi: int, l_min: int = 1,
                   budget: Budget | None = None) -> Fraction:
    """max over windows n <= x < m inside [1, n_hi] with m - n >= l_min of
    |E ∩ [n, m)| / (m - n).

    Only lengths l_min..2*l_min - 1 are scanned: a longer window splits into
    two of length at least l_min, one at least as dense as the whole (Lin,
    Jiang & Chao, JCSS 2002).  A window [lo, lo + l) holds P(lo + l - 1) -
    P(lo - 1) points of E, with P(i) = |E ∩ [1, i]|, so the scan reads P
    only where a window starts, i in [0, n_hi - l_min], and where one ends,
    i in [l_min, n_hi]: n_hi + 1 - l_min positions each, which leave a gap
    in [0, n_hi] when 2*l_min > n_hi + 1.

    Each range is packed into one int, a field of w bits per position, w the
    smallest of 8, 16, 32, 64 with |E| < 2^(w-1), so no field carries into
    the next (Lamport's full-word byte processing, CACM 1975).  For a length
    l = l_min + d, ends - (starts << w*d) holds every window's count in the
    fields d..; the fields below d hold P(l_min..l - 1), no more than the
    count of [1, l], and the fields past the span, borrowed into, are never
    read.  Adding 2^(w-1) - c to every field sets a top bit exactly where a
    count reaches c, so one test tells whether the length beats the best
    density so far, and only a length that does has its counts unpacked.

    This is the density of the best window of length at least l_min — a
    lower bound for the upper Banach density of any extension of E.
    """
    e_set = frozenset(elements)
    if e_set and not all(1 <= x <= n_hi for x in e_set):
        raise LimitError(f"elements must lie in [1, {n_hi}]")
    if l_min < 1:
        raise LimitError("l_min must be >= 1")
    if n_hi < l_min:
        raise LimitError("window [1, n_hi] shorter than l_min")
    longest = min(2 * l_min - 1, n_hi)
    lengths = longest - l_min + 1   # a length-l window starts at 1..n_hi + 1 - l
    (budget or Budget()).charge(lengths * (n_hi + 1) - (l_min + longest) * lengths // 2)
    span = n_hi + 1 - l_min         # the windows of length l_min
    code = next(c for c in "BHIQ" if len(e_set) < 1 << 8 * array(c).itemsize - 1)
    w = 8 * array(code).itemsize
    starts, ends, ones = (int.from_bytes(array(code, counts), sys.byteorder) for counts in (
        _prefix_counts(e_set, 0, span),        # P(0..n_hi - l_min)
        _prefix_counts(e_set, l_min, span),    # P(l_min..n_hi)
        [1] * span))
    top, every = ones << w - 1, (1 << w * span) - 1
    best, best_length = 0, 1
    for length in range(l_min, longest + 1):
        least = best * length // best_length + 1   # the least count that beats best
        if least > len(e_set):   # it only grows with the length
            break
        counts = ends - (starts << w * (length - l_min))
        if (counts + top - least * ones) & top:
            packed = (counts & every).to_bytes(w // 8 * span, sys.byteorder)
            best, best_length = max(memoryview(packed).cast(code)), length
    return Fraction(best, best_length)


def furstenberg_check(elements, n_hi: int, shifts,
                      budget: Budget | None = None) -> tuple[Fraction, Fraction, Fraction]:
    """Compare, for E ⊆ [1, n_hi] and a finite shift set U:

    - the cyclic density |{x : f^i(x) in E for all i in U}| / n_hi, where f is
      the successor on [1, n_hi] with wraparound, and
    - the plain density |{x : x + i in E for all i in U}| / n_hi,

    returning (cyclic, plain, max(U)/n_hi).  The two densities differ only at
    the max(U) points that wrap, so |cyclic - plain| <= max(U)/n_hi exactly.
    """
    e_set = frozenset(elements)
    shift_set = sorted(set(shifts))
    if not shift_set:
        raise LimitError("need at least one shift")
    if shift_set[0] < 0:
        raise LimitError("shifts must be >= 0")
    if shift_set[-1] >= n_hi:
        raise LimitError(f"max shift {shift_set[-1]} must be < n_hi = {n_hi}")
    if e_set and not all(1 <= x <= n_hi for x in e_set):
        raise LimitError(f"elements must lie in [1, {n_hi}]")
    (budget or Budget()).charge(n_hi * len(shift_set))
    xs = range(1, n_hi + 1)
    cyclic = sum(all((x - 1 + i) % n_hi + 1 in e_set for i in shift_set) for x in xs)
    plain = sum(all(x + i in e_set for i in shift_set) for x in xs)
    return (Fraction(cyclic, n_hi), Fraction(plain, n_hi),
            Fraction(shift_set[-1], n_hi))


# ---------------------------------------------------------------------------
# Family spec files


def parse_family(text: str, loader: Callable[[str], Iterable[int]]) -> StructureFamily:
    """Parse a family spec:

        family cyclic <i_lo> <i_hi> [predicate <name> <rule-id>]...
        family interval <E-file> <i_lo> <i_hi>

    The words may wrap across lines, and a format error, such as a name
    declared twice, is a ParseError at the word it concerns.  For interval
    families ``loader`` reads the E-file's integers; a ParseError it raises
    is reported at the file name.
    """
    d = DataWords(text)
    words = d.words
    kind = words[1] if len(words) > 1 and words[0] == "family" else None
    usage = {"cyclic": "<i_lo> <i_hi>", "interval": "<E-file> <i_lo> <i_hi>"}.get(kind)
    if usage is None:
        raise d.error("family file must start with 'family cyclic|interval'", 1)
    first = 2 if kind == "cyclic" else 3
    try:
        i_lo, i_hi = int(words[first]), int(words[first + 1])
    except (IndexError, ValueError):
        raise d.error(f"expected 'family {kind} {usage}'", first) from None
    if kind == "interval" and len(words) != 5:
        raise d.error(f"expected 'family {kind} {usage}'", 5)
    if kind == "cyclic":
        predicates = {}
        for i in range(4, len(words), 3):
            if words[i] != "predicate" or len(words) < i + 3:
                raise d.error(f"expected 'predicate <name> <rule-id>', "
                              f"got {' '.join(words[i:i + 3])!r}", i)
            name = words[i + 1]
            if name in predicates or name in ("e", "add"):  # the groups' own symbols
                raise d.error(f"symbol {name!r} is already declared", i + 1)
            predicates[name] = words[i + 2]
    else:
        try:
            elements = set(loader(words[2]))
        except ParseError as e:
            raise d.error(f"cannot read E-file {words[2]!r}: {e}", 2) from None
    try:
        return (cyclic_family(i_lo, i_hi, predicates) if kind == "cyclic"
                else interval_family(elements, i_lo, i_hi))
    except LimitError as e:
        raise d.error(str(e), 0) from None
