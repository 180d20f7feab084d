"""Uniformity norms in exact rational arithmetic.

For a function g on a finite abelian group G, the k-th uniformity norm is
computed as its 2^k-th power (the root is irrational in general):

    ||g||^{2^k}  =  (1/|G|^{k+1}) sum_{x, h_1..h_k} prod_{S subset of [k]} g(x + sum_{i in S} h_i)

and, equivalently (substituting x = sum h0_i, h_i = h1_i - h0_i):

    (1/|G|^{2k}) sum_{h0, h1 in G^k} prod_{omega in {0,1}^k} g(sum_i h_i^{omega(i)}).

Gowers' derivative identity (Gowers, "A new proof of Szemeredi's theorem",
GAFA 2001) gives the same power recursively, at a cost of about |G|^k:

    ||g||^{2^k}  =  E_h ||g * g(. + h)||^{2^{k-1}},   with  ||g||^2 = (E g)^2.

For a k-variable function f on a measured universe, the box-norm power is

    ||f||^{2^k}  =  sum_{h0, h1 in M^k} prod_omega f(h_1^{omega(1)}, ..., h_k^{omega(k)}) * prod_i w(h0_i) w(h1_i),

with the dual function D(f)(h0) = sum_{h1} prod_{omega != 0} f(...) * prod_i w(h1_i),
so that  integral of f * D(f)  equals the box-norm power exactly.  Both are
computed by slicing along the first coordinate, with f_a = f(a, .):

    ||f||^{2^k}  =  sum_{a,b} w(a) w(b) ||f_a * f_b||^{2^{k-1}},  with ||f||^2 = (sum w f)^2,
    D(f)(a, y)   =  sum_b w(b) f(b, y) D(f_a * f_b)(y),          with D(f) = sum w f at k = 1,

at a cost of about n^{2k-1} instead of the n^{2k} * 2^k of the double sums.

All hot loops run over integer-rescaled tables (lcm of denominators), with a
single exact division at the end.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .semantics import Budget
from .structures import (DefinableSet, check_weights, index_tuple, integer_table,
                         product_weights, tuple_index)


class GowersError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Groups


@dataclass(frozen=True)
class AbelianGroup:
    n: int
    table: tuple[tuple[int, ...], ...]  # table[a][b] = a + b
    zero: int

    @staticmethod
    def cyclic(n: int, budget: Budget | None = None) -> "AbelianGroup":
        """Z_n; its n x n addition table is charged to ``budget`` first."""
        if n < 1:
            raise GowersError("group order must be positive")
        (budget or Budget()).charge(n * n)
        table = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
        return AbelianGroup(n, table, 0)

    @staticmethod
    def from_table(table, budget: Budget | None = None) -> "AbelianGroup":
        """Build from an addition table, verifying the abelian group laws;
        the n^3 associativity check is charged to ``budget``."""
        table = tuple(tuple(row) for row in table)
        n = len(table)
        if any(len(row) != n for row in table) or \
                any(not 0 <= v < n for row in table for v in row):
            raise GowersError("addition table must be an n x n table over 0..n-1")
        zero = None
        for e in range(n):
            if all(table[e][a] == a and table[a][e] == a for a in range(n)):
                zero = e
                break
        if zero is None:
            raise GowersError("no identity element")
        for a in range(n):
            for b in range(n):
                if table[a][b] != table[b][a]:
                    raise GowersError(f"not commutative at ({a},{b})")
        for a in range(n):
            if zero not in table[a]:
                raise GowersError(f"element {a} has no inverse")
        (budget or Budget()).charge(n ** 3)
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if table[table[a][b]][c] != table[a][table[b][c]]:
                        raise GowersError(f"not associative at ({a},{b},{c})")
        return AbelianGroup(n, table, zero)

    def add(self, a: int, b: int) -> int:
        return self.table[a][b]


# ---------------------------------------------------------------------------
# Grid functions


@dataclass(frozen=True)
class GridFunction:
    """A rational-valued function on M^arity, M = {0..n-1}, with per-element
    weights (default: normalized counting).  Values are stored flat in
    lexicographic tuple order, leftmost coordinate most significant.  Every
    integral against the product weight measure sums integers and divides
    once (see ``structures.product_weights``)."""

    n: int
    arity: int
    values: tuple[Fraction, ...]
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(map(Fraction, self.values)))
        if len(self.values) != self.n ** self.arity:
            raise GowersError(f"need {self.n ** self.arity} values, got {len(self.values)}")
        object.__setattr__(self, "weights", check_weights(self.weights, self.n))

    @staticmethod
    def from_values(values, arity: int, n: int | None = None, weights=()) -> "GridFunction":
        values = tuple(values)
        if n is None:
            n = round(len(values) ** (1 / arity))
            while n ** arity < len(values):
                n += 1
            if n ** arity != len(values):
                raise GowersError(f"cannot infer n from {len(values)} values at arity {arity}")
        return GridFunction(n, arity, values, tuple(weights))

    @staticmethod
    def from_group_function(g: "GridFunction", k: int, group: AbelianGroup) -> "GridFunction":
        """The k-variable function f(h_1,...,h_k) = g(h_1 + ... + h_k)."""
        if g.arity != 1 or g.n != group.n:
            raise GowersError("g must be a 1-variable function on the group")
        vals = []
        for tup in itertools.product(range(group.n), repeat=k):
            s = group.zero
            for a in tup:
                s = group.add(s, a)
            vals.append(g.values[s])
        return GridFunction(group.n, k, tuple(vals), g.weights)

    def value_at(self, tup) -> Fraction:
        return self.values[tuple_index(tup, self.n)]

    @property
    def bound(self) -> Fraction:
        return max((abs(v) for v in self.values), default=Fraction(0))

    @cached_property
    def integer_product_weights(self) -> tuple[list[int], int]:
        """(P, D): the i-th tuple's product weight is P[i] / D."""
        ints, scale = integer_table(self.weights)
        return product_weights(ints, self.arity), scale ** self.arity

    def mean(self) -> Fraction:
        """Integral of f against the product weight measure."""
        vi, vden = integer_table(self.values)
        pw, wden = self.integer_product_weights
        return Fraction(sum(map(operator.mul, vi, pw)), vden * wden)


# ---------------------------------------------------------------------------
# Norm powers


def _check_degree(group: AbelianGroup, g: GridFunction, k: int) -> None:
    if k < 1:
        raise GowersError("k must be >= 1")
    if g.arity != 1 or g.n != group.n:
        raise GowersError("g must be a 1-variable function on the group")


def gowers_norm_pow(group: AbelianGroup, g: GridFunction, k: int,
                    budget: Budget | None = None) -> Fraction:
    """||g||^{2^k} via the direct cube average over x and h_1..h_k."""
    _check_degree(group, g, k)
    (budget or Budget()).charge(group.n ** (k + 1))  # the cube's terms
    gi, denom = integer_table(g.values)
    add = group.table
    n = group.n
    total = 0
    for x in range(n):
        for hs in itertools.product(range(n), repeat=k):
            corners = [x]
            for h in hs:
                row_h = add[h]
                corners += [row_h[c] for c in corners]
            prod = 1
            for c in corners:
                prod *= gi[c]
            total += prod
    return Fraction(total, denom ** (1 << k) * n ** (k + 1))


def gowers_norm_pow_derivative(group: AbelianGroup, g: GridFunction, k: int) -> Fraction:
    """||g||^{2^k} via the derivative identity, recursing on g * g(. + h)."""
    _check_degree(group, g, k)
    gi, denom = integer_table(g.values)
    add = group.table
    n = group.n

    def scaled(t: list[int], depth: int) -> int:
        # n^{depth+1} * ||t||^{2^depth} for an integer table t
        if depth == 1:
            return sum(t) ** 2
        return sum(scaled([a * t[row[h]] for a, row in zip(t, add)], depth - 1)
                   for h in range(n))

    return Fraction(scaled(gi, k), denom ** (1 << k) * n ** (k + 1))


def gowers_norm_pow_subst(group: AbelianGroup, g: GridFunction, k: int) -> Fraction:
    """||g||^{2^k} via the two-sided substitution form over (h0, h1) in G^k x G^k.

    Costs |G|^{2k} * 2^k; kept as the small-n reference that tests compare
    the other forms against."""
    _check_degree(group, g, k)
    gi, denom = integer_table(g.values)
    add = group.table
    n = group.n
    zero = group.zero
    total = 0
    for h0 in itertools.product(range(n), repeat=k):
        for h1 in itertools.product(range(n), repeat=k):
            sums = [zero]
            for a, b in zip(h0, h1):
                sums = [add[s][a] for s in sums] + [add[s][b] for s in sums]
            prod = 1
            for s in sums:
                prod *= gi[s]
            total += prod
    return Fraction(total, denom ** (1 << k) * n ** (2 * k))


def gowers_box_pow(f: GridFunction) -> Fraction:
    """Box-norm power ||f||^{2^k} over M^k with the product weight measure."""
    k = f.arity
    if k < 1:
        raise GowersError("arity must be >= 1")
    fi, fden = integer_table(f.values)
    wi, wden = integer_table(f.weights)
    n = f.n
    live = [a for a in range(n) if wi[a]]

    def scaled(t: list[int], depth: int) -> int:
        # the weighted box sum of the integer table t over M^depth
        if depth == 1:
            return sum(wi[a] * t[a] for a in live) ** 2
        m = len(t) // n
        rows = [t[a * m:(a + 1) * m] for a in range(n)]
        return sum((1 if a == b else 2) * wi[a] * wi[b]
                   * scaled([x * y for x, y in zip(rows[a], rows[b])], depth - 1)
                   for i, a in enumerate(live) for b in live[i:])

    return Fraction(scaled(fi, k), fden ** (1 << k) * wden ** (2 * k))


def dual_function(f: GridFunction) -> GridFunction:
    """D(f): the cube average with the h0 corner left out, so that
    integral of f * D(f) equals gowers_box_pow(f) exactly."""
    k = f.arity
    if k < 1:
        raise GowersError("arity must be >= 1")
    fi, fden = integer_table(f.values)
    wi, wden = integer_table(f.weights)
    n = f.n
    live = [b for b in range(n) if wi[b]]

    def scaled(t: list[int], depth: int) -> list[int]:
        # the weighted dual table of the integer table t over M^depth
        if depth == 1:
            return [sum(wi[b] * t[b] for b in live)] * n
        m = len(t) // n
        rows = [t[a * m:(a + 1) * m] for a in range(n)]
        out: list[int] = []
        for row_a in rows:
            terms = [(wi[b], rows[b], scaled([x * y for x, y in zip(row_a, rows[b])], depth - 1))
                     for b in live]
            out += [sum(w * row_b[y] * d[y] for w, row_b, d in terms) for y in range(m)]
        return out

    scale = Fraction(1, fden ** ((1 << k) - 1) * wden ** k)
    return GridFunction(n, k, tuple(v * scale for v in scaled(fi, k)), f.weights)


def inner_product(f: GridFunction, g: GridFunction) -> Fraction:
    """Integral of f*g against the product weight measure."""
    if (f.n, f.arity) != (g.n, g.arity) or f.weights != g.weights:
        raise GowersError("functions live on different measured grids")
    fi, fden = integer_table(f.values)
    gi, gden = integer_table(g.values)
    pw, wden = f.integer_product_weights
    return Fraction(sum(map(operator.mul, map(operator.mul, fi, gi), pw)), fden * gden * wden)


# ---------------------------------------------------------------------------
# Finite algebras and conditional expectation


@dataclass(frozen=True)
class FiniteAlgebra:
    """The finite Boolean algebra generated by a list of subsets of M^arity,
    stored by its atoms (nonempty cells of the common refinement)."""

    n: int
    arity: int
    atoms: tuple[int, ...]  # bitsets over M^arity
    generators: tuple[int, ...]

    @staticmethod
    def from_generators(n: int, arity: int, generators) -> "FiniteAlgebra":
        size = n ** arity
        full = (1 << size) - 1
        gens = []
        for g in generators:
            bits = g.bits if isinstance(g, DefinableSet) else int(g)
            if bits < 0 or bits >> size:
                raise GowersError("generator bitset out of range")
            gens.append(bits)
        atoms = [full]
        for g in gens:
            nxt = []
            for a in atoms:
                inside = a & g
                outside = a & ~g
                if inside:
                    nxt.append(inside)
                if outside:
                    nxt.append(outside)
            atoms = nxt
        return FiniteAlgebra(n, arity, tuple(atoms), tuple(gens))

    def atom_of(self, idx: int) -> int:
        for a in self.atoms:
            if a >> idx & 1:
                return a
        raise GowersError(f"index {idx} not covered by the atoms")


def coordinate_support(bits: int, n: int, arity: int) -> frozenset[int]:
    """The set of coordinates a subset of M^arity actually depends on."""
    support = set()
    for i in range(arity):
        stride = n ** (arity - 1 - i)
        for idx in range(n ** arity):
            base = idx - (idx // stride % n) * stride
            bit0 = bits >> idx & 1
            if any(bits >> (base + c * stride) & 1 != bit0 for c in range(n)):
                support.add(i)
                break
    return frozenset(support)


def cond_expect(f: GridFunction, algebra: FiniteAlgebra) -> GridFunction:
    """Conditional expectation onto the algebra: on each atom, the weighted
    mean of f; atoms of measure zero get value 0."""
    if (f.n, f.arity) != (algebra.n, algebra.arity):
        raise GowersError("function and algebra live on different grids")
    vi, vden = integer_table(f.values)
    pw, _ = f.integer_product_weights
    out = list(f.values)
    for atom in algebra.atoms:
        idxs, bits = [], atom
        while bits:
            low = bits & -bits
            idxs.append(low.bit_length() - 1)
            bits ^= low
        den = sum(pw[i] for i in idxs)
        value = Fraction(sum(vi[i] * pw[i] for i in idxs), vden * den) if den else Fraction(0)
        for idx in idxs:
            out[idx] = value
    return GridFunction(f.n, f.arity, tuple(out), f.weights)


# ---------------------------------------------------------------------------
# Box multiplication and the positivity criterion


def box_multiplication_check(f: GridFunction, cylinders) -> tuple[Fraction, Fraction]:
    """Given one cylinder set per (k-1)-element coordinate set I (as a map
    I -> bitset over M^k, each depending only on the coordinates in I),
    return (||f * prod of indicators||^{2^k}, ||f||^{2^k}).

    The first is always between 0 and the second.
    """
    k = f.arity
    size = f.n ** k
    mask = (1 << size) - 1
    product_bits = mask
    for I, bits in dict(cylinders).items():
        I = frozenset(I)
        if len(I) != k - 1 or not I <= set(range(k)):
            raise GowersError(f"cylinder index set {sorted(I)} must be a "
                              f"(k-1)-subset of coordinates 0..{k - 1}")
        bits = bits.bits if isinstance(bits, DefinableSet) else int(bits)
        if bits < 0 or bits >> size:
            raise GowersError("cylinder bitset out of range")
        support = coordinate_support(bits, f.n, k)
        if not support <= I:
            raise GowersError(f"set depends on coordinates {sorted(support)}, "
                              f"not cylindrical over {sorted(I)}")
        product_bits &= bits
    restricted = tuple(v if product_bits >> i & 1 else Fraction(0)
                       for i, v in enumerate(f.values))
    g = GridFunction(f.n, f.arity, restricted, f.weights)
    return gowers_box_pow(g), gowers_box_pow(f)


def positivity_criterion(f: GridFunction, atom_budget: int = 1 << 16):
    """Returns (||f||^{2^k} > 0, whether some product of (k-1)-coordinate
    cylinder atoms correlates with f).

    The second component is found by exhaustive search over atom combinations
    (one fiber of M^I per (k-1)-subset I); if there are more than
    ``atom_budget`` combinations it is reported as "unknown", never guessed.
    """
    k = f.arity
    first = gowers_box_pow(f) > 0
    subsets = [frozenset(c) for c in itertools.combinations(range(k), k - 1)]
    combos = f.n ** (len(subsets) * (k - 1))
    if combos > atom_budget:
        return first, "unknown"
    vi, _ = integer_table(f.values)  # positive rescalings keep a sum's sign
    pw, _ = f.integer_product_weights
    corr: dict[tuple, int] = {}
    for idx, v in enumerate(vi):
        if v:
            tup = index_tuple(idx, f.n, k)
            sig = tuple(tuple(tup[i] for i in sorted(I)) for I in subsets)
            corr[sig] = corr.get(sig, 0) + v * pw[idx]
    second = any(c != 0 for c in corr.values())
    return first, second


# ---------------------------------------------------------------------------
# Display helper: decimal approximation of the 2^k-th root


def decimal_root(value: Fraction, degree: int, digits: int = 20) -> str:
    """Decimal rendering of value^(1/degree) to ``digits`` significant digits,
    round-half-even.  Display only — nothing downstream consumes it."""
    import decimal

    if value < 0:
        raise GowersError("cannot take an even root of a negative value")
    if value == 0:
        return "0"
    with decimal.localcontext() as ctx:
        ctx.prec = digits + 15
        x = decimal.Decimal(value.numerator) / decimal.Decimal(value.denominator)
        root = (x.ln() / degree).exp()
        ctx.prec = digits
        ctx.rounding = decimal.ROUND_HALF_EVEN
        return str(+root)
