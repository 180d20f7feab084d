"""Finite measured structures with exact rational product measures.

A structure has universe {0, ..., n-1}, interpretations for constants, total
functions and relations, and a unary weight vector w (default: normalized
counting, w(a) = 1/n).  The measure of A ⊆ M^k is the product-weight sum
Σ_{a in A} Π_i w(a_i), so the arity-(m+n) measure extends the product of the
arity-m and arity-n measures by construction.

Definable sets are stored as bitsets over M^k in lexicographic tuple order
(leftmost coordinate most significant).
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property


class VFlag(Enum):
    """Approximation flag for a measure value: known from above (PLUS), from
    below (MINUS), or exactly (DOT).  Concrete finite structures carry DOT on
    every set; PLUS/MINUS arise only as limits of structure sequences."""

    PLUS = "+"
    MINUS = "-"
    DOT = "."


def check_weights(weights, n: int) -> tuple[Fraction, ...]:
    """The unary weights of an n-element universe as rationals: normalized
    counting when ``weights`` is empty, else n nonnegative values."""
    if not weights:
        return (Fraction(1, n),) * n
    weights = tuple(map(Fraction, weights))
    if len(weights) != n:
        raise ValueError(f"weight vector has {len(weights)} entries, universe size is {n}")
    if min(weights) < 0:
        raise ValueError("weights must be nonnegative")
    return weights


def integer_table(values) -> tuple[tuple[int, ...], int]:
    """(V, L) with values[i] = V[i] / L, L the lcm of the values' denominators."""
    scale = math.lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (scale // v.denominator) for v in values), scale


def product_weights(ints, k: int) -> list[int]:
    """ints[a_1] * ... * ints[a_k] for every a in M^k, in lexicographic order:
    with the W of ``integer_weights``, each tuple's product weight times L^k."""
    table = [1]
    for _ in range(k):
        table = [t * w for t in table for w in ints]
    return table


def tuple_index(tup, n: int) -> int:
    """The lexicographic position of ``tup`` among the tuples over {0..n-1}."""
    idx = 0
    for a in tup:
        idx = idx * n + a
    return idx


def index_tuple(idx: int, n: int, arity: int) -> tuple[int, ...]:
    """The ``idx``-th tuple of {0..n-1}^arity in lexicographic order."""
    return tuple(idx // n ** (arity - 1 - i) % n for i in range(arity))


@dataclass(frozen=True)
class FiniteStructure:
    n: int
    constants: dict[str, int] = field(default_factory=dict)
    # name -> (arity, flat result table in lexicographic argument order)
    functions: dict[str, tuple[int, tuple[int, ...]]] = field(default_factory=dict)
    # name -> (arity, frozenset of argument tuples)
    relations: dict[str, tuple[int, frozenset[tuple[int, ...]]]] = field(default_factory=dict)
    weights: tuple[Fraction, ...] = ()

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("universe must be nonempty")
        object.__setattr__(self, "weights", check_weights(self.weights, self.n))
        n = self.n
        for name, e in self.constants.items():
            if not 0 <= e < n:
                raise ValueError(f"constant {name!r} = {e} out of range")
        for name, (arity, table) in self.functions.items():
            if len(table) != n ** arity:
                raise ValueError(f"function {name!r} table is not total "
                                 f"({len(table)} entries, need {n ** arity})")
            if not 0 <= min(table) <= max(table) < n:
                raise ValueError(f"function {name!r} has out-of-range results")
        for name, (arity, tuples) in self.relations.items():
            flat = list(itertools.chain.from_iterable(tuples)) or [0]  # [0]: no tuples
            if any(map(arity.__ne__, map(len, tuples))) or not 0 <= min(flat) <= max(flat) < n:
                bad = next(t for t in tuples if len(t) != arity or not all(0 <= v < n for v in t))
                raise ValueError(f"relation {name!r} has an invalid tuple {bad}")

    # -- signature ---------------------------------------------------------

    def signature(self):
        from .syntax import Signature
        return Signature(
            constants=tuple(sorted(self.constants)),
            functions=tuple(sorted((n, a) for n, (a, _) in self.functions.items())),
            relations=tuple(sorted((n, a) for n, (a, _) in self.relations.items())),
        )

    # -- weights -----------------------------------------------------------

    @property
    def total_mass(self) -> Fraction:
        return sum(self.weights, Fraction(0))

    @property
    def uniform_weight(self) -> Fraction | None:
        """The common weight if all elements weigh the same, else None."""
        w0 = self.weights[0]
        return w0 if all(w == w0 for w in self.weights) else None

    @cached_property
    def integer_weights(self) -> tuple[tuple[int, ...], int]:
        """(W, L) with w(a) = W[a] / L, L the lcm of the weights' denominators."""
        return integer_table(self.weights)

    def apply_function(self, name: str, args: tuple[int, ...]) -> int:
        return self.functions[name][1][tuple_index(args, self.n)]

    def holds_relation(self, name: str, args: tuple[int, ...]) -> bool:
        return args in self.relations[name][1]

    # -- tuple indexing ----------------------------------------------------

    def tuple_index(self, tup: tuple[int, ...]) -> int:
        return tuple_index(tup, self.n)

    def index_tuple(self, idx: int, arity: int) -> tuple[int, ...]:
        return index_tuple(idx, self.n, arity)

    def all_tuples(self, arity: int):
        return itertools.product(range(self.n), repeat=arity)

    # -- definable sets ----------------------------------------------------

    def empty_set(self, arity: int) -> "DefinableSet":
        return DefinableSet(self, arity, 0)

    def full_set(self, arity: int) -> "DefinableSet":
        return DefinableSet(self, arity, (1 << self.n ** arity) - 1)

    def set_of(self, arity: int, tuples) -> "DefinableSet":
        bits = 0
        for tup in tuples:
            bits |= 1 << self.tuple_index(tup)
        return DefinableSet(self, arity, bits)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def counting(n: int, constants=None, functions=None, relations=None) -> "FiniteStructure":
        return FiniteStructure(n, dict(constants or {}), dict(functions or {}),
                               dict(relations or {}))


@dataclass(frozen=True)
class DefinableSet:
    """A subset of M^arity stored as a bitset (bit i <-> the i-th tuple in
    lexicographic order)."""

    structure: FiniteStructure
    arity: int
    bits: int

    def __post_init__(self):
        size = self.structure.n ** self.arity
        if self.bits < 0 or self.bits >> size:
            raise ValueError("bitset out of range for this arity")

    def _check_same(self, other: "DefinableSet") -> None:
        if self.structure is not other.structure and self.structure != other.structure:
            raise ValueError("sets belong to different structures")
        if self.arity != other.arity:
            raise ValueError(f"arity mismatch: {self.arity} vs {other.arity}")

    def __contains__(self, tup) -> bool:
        return bool(self.bits >> self.structure.tuple_index(tuple(tup)) & 1)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def tuples(self):
        bits = self.bits
        while bits:
            low = bits & -bits
            yield self.structure.index_tuple(low.bit_length() - 1, self.arity)
            bits ^= low

    def union(self, other: "DefinableSet") -> "DefinableSet":
        self._check_same(other)
        return DefinableSet(self.structure, self.arity, self.bits | other.bits)

    def intersection(self, other: "DefinableSet") -> "DefinableSet":
        self._check_same(other)
        return DefinableSet(self.structure, self.arity, self.bits & other.bits)

    def difference(self, other: "DefinableSet") -> "DefinableSet":
        self._check_same(other)
        return DefinableSet(self.structure, self.arity, self.bits & ~other.bits)

    def complement(self) -> "DefinableSet":
        full = (1 << self.structure.n ** self.arity) - 1
        return DefinableSet(self.structure, self.arity, full & ~self.bits)

    def product(self, other: "DefinableSet") -> "DefinableSet":
        """Cartesian product A x B as a set of arity |A|+|B|."""
        if self.structure is not other.structure and self.structure != other.structure:
            raise ValueError("sets belong to different structures")
        shift = other.structure.n ** other.arity
        bits = 0
        a = self.bits
        while a:
            low = a & -a
            i = low.bit_length() - 1
            bits |= other.bits << i * shift
            a ^= low
        return DefinableSet(self.structure, self.arity + other.arity, bits)

    def slice_prefix(self, prefix: tuple[int, ...]) -> "DefinableSet":
        """The fiber {b : prefix + b in A} as a set of arity |A| - |prefix|."""
        rest = self.arity - len(prefix)
        if rest < 0:
            raise ValueError("prefix longer than arity")
        block = self.structure.n ** rest
        start = self.structure.tuple_index(prefix) * block
        bits = self.bits >> start & (1 << block) - 1
        return DefinableSet(self.structure, rest, bits)


_BYTE01 = bytes.maketrans(b"01", b"\x00\x01")


def fiber_counts(bits: int, block: int, fibers: int) -> list[int]:
    """The number of set bits in each of the ``fibers`` consecutive
    ``block``-bit runs of ``bits``, lowest run first."""
    if fibers == 1:
        return [bits.bit_count()]
    digits = format(bits, f"0{block * fibers}b")
    return [digits.count("1", i, i + block) for i in range(len(digits) - block, -1, -block)]


def fiber_sums(m: FiniteStructure, bits: int, k: int, fibers: int) -> list[int]:
    """For a bitset over ``fibers`` consecutive blocks of n^k tuples, each
    block's product-weight sum times L^k (see ``integer_weights``), as an
    integer: the last k coordinates are summed out one at a time."""
    ints, _ = m.integer_weights
    if min(ints) == max(ints):
        return [c * ints[0] ** k for c in fiber_counts(bits, m.n ** k, fibers)]
    n = m.n
    sums = format(bits, f"0{n ** k * fibers}b").encode()[::-1].translate(_BYTE01)
    for _ in range(k):  # sums starts as one 0/1 byte per tuple
        sums = [sum(map(operator.mul, ints, sums[i:i + n])) for i in range(0, len(sums), n)]
    return list(sums)


def measure(s: DefinableSet) -> Fraction:
    """Exact product-weight measure of a definable set."""
    m = s.structure
    return Fraction(fiber_sums(m, s.bits, s.arity, 1)[0], m.integer_weights[1] ** s.arity)
