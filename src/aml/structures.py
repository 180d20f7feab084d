"""Finite measured structures with exact rational product measures.

A structure has universe {0, ..., n-1}, interpretations for constants, total
functions and relations, and a unary weight vector w (default: normalized
counting, w(a) = 1/n).  The measure of A ⊆ M^k is the product-weight sum
Σ_{a in A} Π_i w(a_i), so the arity-(m+n) measure extends the product of the
arity-m and arity-n measures by construction.

Definable sets are stored as bitsets over M^k in lexicographic tuple order
(leftmost coordinate most significant).  A structure also keeps each
relation's members by their index in that order, so an atom tests an int
against a set instead of building a tuple per row.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
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


def set_bits(bits: int) -> list[int]:
    """The positions of the set bits of ``bits`` >= 0, lowest first."""
    return [i for i, digit in enumerate(bin(bits)[:1:-1]) if digit == "1"]


@dataclass(frozen=True)
class FiniteStructure:
    """A structure over {0, ..., n-1}, built from checked data: the parser
    and the family builders check what they read or make it valid by
    construction, and raw data enters through ``checked``, which checks
    every table once.  ``weights`` holds all n weights, counting included."""

    n: int
    constants: dict[str, int]
    # name -> (arity, flat result table in lexicographic argument order)
    functions: dict[str, tuple[int, tuple[int, ...]]]
    # name -> (arity, frozenset of argument tuples)
    relations: dict[str, tuple[int, frozenset[tuple[int, ...]]]]
    weights: tuple[Fraction, ...]

    @staticmethod
    def checked(n: int, constants=None, functions=None, relations=None,
                weights=()) -> "FiniteStructure":
        """The structure of raw data, each table checked: constants and
        function results in range, total function tables, relation tuples of
        their arity in range, and ``check_weights`` (empty: counting)."""
        if n < 1:
            raise ValueError("universe must be nonempty")
        constants, functions, relations = constants or {}, functions or {}, relations or {}
        for name, e in constants.items():
            if not 0 <= e < n:
                raise ValueError(f"constant {name!r} = {e} out of range")
        for name, (arity, table) in functions.items():
            if len(table) != n ** arity:
                raise ValueError(f"function {name!r} table is not total "
                                 f"({len(table)} entries, need {n ** arity})")
            if not 0 <= min(table) <= max(table) < n:
                raise ValueError(f"function {name!r} has out-of-range results")
        for name, (arity, tuples) in relations.items():
            flat = list(itertools.chain.from_iterable(tuples)) or [0]  # [0]: no tuples
            if any(map(arity.__ne__, map(len, tuples))) or not 0 <= min(flat) <= max(flat) < n:
                bad = next(t for t in tuples if len(t) != arity or not all(0 <= v < n for v in t))
                raise ValueError(f"relation {name!r} has an invalid tuple {bad}")
        return FiniteStructure(n, constants, functions, relations, check_weights(weights, n))

    # -- signature ---------------------------------------------------------

    def signature(self):
        from .syntax import Signature
        return Signature(
            constants=tuple(sorted(self.constants)),
            functions=tuple(sorted((n, a) for n, (a, _) in self.functions.items())),
            relations=tuple(sorted((n, a) for n, (a, _) in self.relations.items())),
        )

    # -- relations ---------------------------------------------------------

    @cached_property
    def relation_indices(self) -> dict[str, frozenset[int]]:
        """Each relation's members by their lexicographic index (see
        ``tuple_index``), built once, in O(|R|) per relation: a binary
        relation's by one comprehension, the others' by C-level maps over the
        members' columns."""
        n, indices = self.n, {}
        for name, (arity, tuples) in self.relations.items():
            if arity == 2:  # graphs: one comprehension takes half the maps' time
                index = [a * n + b for a, b in tuples]
            else:
                columns = zip(*tuples)
                index = next(columns, [0] * len(tuples))  # arity 0: {()} is {0}
                for column in columns:
                    index = map(operator.add, map(operator.mul, index, itertools.repeat(n)),
                                column)
            indices[name] = frozenset(index)
        return indices

    # -- weights -----------------------------------------------------------

    @cached_property
    def integer_weights(self) -> tuple[tuple[int, ...], int]:
        """(W, L) with w(a) = W[a] / L, L the lcm of the weights' denominators."""
        return integer_table(self.weights)


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

    def __contains__(self, tup) -> bool:
        """Whether ``tup``, arity-many elements of 0..n-1, is in the set;
        False for any other tuple."""
        n = self.structure.n
        return len(tup) == self.arity and all(isinstance(a, int) and 0 <= a < n for a in tup) \
            and bool(self.bits >> tuple_index(tup, n) & 1)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def tuples(self):
        return (index_tuple(i, self.structure.n, self.arity) for i in set_bits(self.bits))


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
