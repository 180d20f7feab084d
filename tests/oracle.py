"""Naive oracles the fast paths are tested against.

``naive_evaluate`` is the reference for the set-at-a-time evaluator: no
memoization and no sharing, every connective recurses, every binder
re-enumerates its tuples, and every measure sums one Fraction product weight
per satisfying tuple; a relation atom looks its argument values up, by their
``tuple_index``, among the relation's members.  ``atom_by_tuples`` is the
reference for an atom's table: it evaluates the atom one row at a time.
``broadcast_by_repunit`` is the reference for spreading a table over outer
variables: one product with a repunit.  ``broadcast_by_digits`` is the
reference for spreading a table over any missing variables, inner ones too:
it repeats the blocks of the table's base-2 digit string in place.
``fiber_sums_by_blocks`` is the reference for the weighted fiber sums: it
sums out one coordinate at a time, one block of n weighted values at a time.
``degree_certificate_by_scan`` and
``partition_energy_by_fractions`` are the references for the regularity
certificate and the partition energy: each sums its terms one by one.
``is_epsilon_regular_by_subsets`` is the reference for the pair check: the
certificate over every cell, then ``regular_by_enumeration``, which tries
every qualifying subset of the smaller side against every prefix length of
the other side's degree order.
``regularity_partition_by_checks`` is the reference for the partition's
survey: one pair check per unordered part pair, through the public
``is_epsilon_regular`` unless told otherwise, and each part refined by the
vertices' membership in its witness sets.
``ap_encode_by_scan`` is the reference for the AP encoding: it scans every
value of x_{k+1} for each edge family and counter.  ``greedy_hitting_set_by_recount``
is the reference for the greedy hitting set: each round recounts and resorts
every edge of the constraints not yet hit.  ``tokenize_by_characters``
is the reference for the regex tokenizer: it reads one character at a time.
``gowers_cube_by_terms`` is the reference for the Gowers power, which the
library computes by the derivative identity: it forms the 2^k-corner product
of every (x, h_1..h_k) term of the cube average one by one.
``banach_density_by_slides`` is the reference for the window scan: it slides
every window of each length one step at a time over set lookups and keeps
the best density as a Fraction.

The rest are references and generators that only the tests use:
``random_structure`` draws structures over ``axioms.TEST_SIGNATURE``,
``random_structure_over`` structures of a given size over any signature,
``member_tuples`` a structure's relations as the member tuples that
``FiniteStructure.checked`` takes,
``degree_into`` a vertex's neighbours among a bitmask of vertices,
``check_probability`` is the probability sentence scheme, and
``box_multiplication_check`` the box-multiplication inequality of
cylinder-restricted box norms.
"""

import itertools
import math
import operator
import random
from fractions import Fraction

from aml.gowers import AbelianGroup, GowersError, GridFunction, gowers_box_pow
from aml.parser import ParseError, SourceSpan, Token
from aml.regularity import (APEncoding, Graph, Hypergraph, PartitionResult, RegularityError,
                            RegularityVerdict, is_epsilon_regular)
from aml.semantics import Budget, EvalError, evaluate, meas_holds
from aml.structures import FiniteStructure, VFlag, index_tuple, integer_table, tuple_index
from aml.syntax import (And, Atom, Cmp, Const, Equality, Exists, Forall, Formula, Func,
                        Implies, Meas, Not, Or, Signature, Term, Var)


def naive_evaluate(m: FiniteStructure, phi: Formula, val: dict[str, int] | None = None) -> bool:
    """Truth of ``phi`` in ``m`` under ``val``, walking the formula once per
    tuple and recomputing every measure by full tuple enumeration."""
    val = dict(val or {})

    def term(t: Term) -> int:
        if isinstance(t, Var):
            if t.name not in val:
                raise EvalError(f"unbound variable {t.name!r}")
            return val[t.name]
        if isinstance(t, Const):
            if t.name not in m.constants:
                raise EvalError(f"unknown constant {t.name!r}")
            return m.constants[t.name]
        if isinstance(t, Func):
            return m.functions[t.name][1][tuple_index([term(a) for a in t.args], m.n)]
        raise EvalError(f"not a term: {t!r}")

    if isinstance(phi, Equality):
        return term(phi.left) == term(phi.right)
    if isinstance(phi, Atom):
        return tuple_index([term(a) for a in phi.args], m.n) in m.relations[phi.name][1]
    if isinstance(phi, Not):
        return not naive_evaluate(m, phi.body, val)
    if isinstance(phi, And):
        return naive_evaluate(m, phi.left, val) and naive_evaluate(m, phi.right, val)
    if isinstance(phi, Or):
        return naive_evaluate(m, phi.left, val) or naive_evaluate(m, phi.right, val)
    if isinstance(phi, Implies):
        return (not naive_evaluate(m, phi.left, val)) or naive_evaluate(m, phi.right, val)
    if isinstance(phi, Forall):
        return all(naive_evaluate(m, phi.body, {**val, phi.var: a}) for a in range(m.n))
    if isinstance(phi, Exists):
        return any(naive_evaluate(m, phi.body, {**val, phi.var: a}) for a in range(m.n))
    if isinstance(phi, Meas):
        mu = Fraction(0)
        for tup in itertools.product(range(m.n), repeat=len(phi.vars)):
            inner = dict(val)
            for v, a in zip(phi.vars, tup):
                inner[v] = a
            if naive_evaluate(m, phi.body, inner):
                prod = Fraction(1)
                for a in tup:
                    prod *= m.weights[a]
                mu += prod
        return meas_holds(phi.cmp, mu, phi.threshold, VFlag.DOT)
    raise EvalError(f"not a formula: {phi!r}")


def atom_by_tuples(m: FiniteStructure, phi: Equality | Atom, ctx: tuple[str, ...],
                   env: dict[str, int]) -> int:
    """The table of the atom ``phi`` over ``ctx`` (``env`` binds its other
    variables), one row at a time in lexicographic order: a relation atom
    looks the row's argument values up among the relation's members."""
    truths = (naive_evaluate(m, phi, {**env, **dict(zip(ctx, row))})
              for row in itertools.product(range(m.n), repeat=len(ctx)))
    return sum(truth << i for i, truth in enumerate(truths))


def broadcast_by_repunit(bits: int, block: int, size: int) -> int:
    """The ``block``-bit table ``bits`` repeated to fill ``size`` bits, a
    multiple of ``block``: one product with the repunit in base 2^block,
    whose division and product take time quadratic in the table's size."""
    return bits * (((1 << size) - 1) // ((1 << block) - 1))


def broadcast_by_digits(bits: int, own: tuple[str, ...], ctx: tuple[str, ...], n: int) -> int:
    """The table ``bits`` over ``own``, a subsequence of ``ctx``, as a table
    over ``ctx``: written most significant digit first, each missing
    variable repeats every block of the digits below it n times."""
    digits = format(bits, f"0{n ** len(own)}b")
    below = len(own)  # own variables after the current one
    for v in ctx:
        if v in own:
            below -= 1
        else:
            block = n ** below
            digits = "".join([digits[i:i + block] * n for i in range(0, len(digits), block)])
    return int(digits, 2)


def fiber_sums_by_blocks(m: FiniteStructure, bits: int, k: int, fibers: int) -> list[int]:
    """Each of the ``fibers`` consecutive blocks of n^k tuples of ``bits``,
    its product-weight sum times L^k (``integer_table`` of the weights):
    the last k coordinates summed out one at a time, block by block."""
    ints, _ = integer_table(m.weights)
    n = m.n
    sums = [1 if digit == "1" else 0 for digit in reversed(format(bits, f"0{n ** k * fibers}b"))]
    for _ in range(k):
        sums = [sum(map(operator.mul, ints, sums[i:i + n])) for i in range(0, len(sums), n)]
    return sums


def degree_into(g: Graph, v: int, mask: int) -> int:
    """The neighbours of ``v`` among the vertices of the bitmask ``mask``."""
    return (g.adj[v] & mask).bit_count()


def degree_certificate_by_scan(g: Graph, u, v, d_base: Fraction, eps: Fraction,
                               m_min_u: int, m_min_v: int) -> bool:
    """The degree-sequence certificate of ``aml.regularity`` with every
    (s, t) cell's bounds summed over the sorted degrees, O(|U| + |V|) a cell."""
    a, b = len(u), len(v)
    mask_u, mask_v = sum(1 << x for x in u), sum(1 << y for y in v)
    rows = sorted((degree_into(g, x, mask_v) for x in u), reverse=True)
    cols = sorted((degree_into(g, y, mask_u) for y in v), reverse=True)
    for s in range(m_min_u, a + 1):
        for t in range(m_min_v, b + 1):
            top = min(sum(min(r, t) for r in rows[:s]), sum(min(c, s) for c in cols[:t]))
            bottom = max(sum(max(0, r - b + t) for r in rows[a - s:]),
                         sum(max(0, c - a + s) for c in cols[b - t:]))
            cells = s * t
            if max(Fraction(top, cells) - d_base, d_base - Fraction(bottom, cells)) >= eps:
                return False
    return True


def _least_qualifying(eps: Fraction, size: int) -> int:
    return max(1, math.ceil(eps * size))


def _edges_between(g: Graph, xs, ys) -> int:
    mask = sum(1 << y for y in ys)
    return sum(degree_into(g, x, mask) for x in xs)


def regular_by_enumeration(g: Graph, part_u, part_v, eps: Fraction) -> RegularityVerdict:
    """The exact pair check without a certificate: every subset A of the
    smaller side of at least its least qualifying size, in bitmask order,
    against every prefix length m of at least the other side's least
    qualifying size, with the other side ordered by degree into A (most first,
    ties to the lesser vertex): first its top m vertices, up by eps or more,
    then its bottom m, down by eps or more.  The first deviating pair is the
    witness."""
    u, v = tuple(sorted(part_u)), tuple(sorted(part_v))
    base, base_cells = _edges_between(g, u, v), len(u) * len(v)
    p, q = eps.numerator, eps.denominator
    swapped = len(u) > len(v)
    left, right = (v, u) if swapped else (u, v)
    m_l, m_r = _least_qualifying(eps, len(left)), _least_qualifying(eps, len(right))
    for bits in range(1, 1 << len(left)):
        if bits.bit_count() < m_l:
            continue
        sub = tuple(x for i, x in enumerate(left) if bits >> i & 1)
        mask = sum(1 << x for x in sub)
        by_degree = sorted(right, key=lambda y: (-degree_into(g, y, mask), y))
        degrees = [degree_into(g, y, mask) for y in by_degree]
        for m in range(m_r, len(right) + 1):
            cells = len(sub) * m
            top, bottom = sum(degrees[:m]), sum(degrees[len(right) - m:])
            # e/cells − base/base_cells >= p/q, cleared of denominators
            if q * (top * base_cells - base * cells) >= p * cells * base_cells:
                other, edges = by_degree[:m], top
            elif q * (base * cells - bottom * base_cells) >= p * cells * base_cells:
                other, edges = by_degree[len(right) - m:], bottom
            else:
                continue
            other = tuple(sorted(other))
            return RegularityVerdict(False, Fraction(base, base_cells),
                                     (other, sub) if swapped else (sub, other),
                                     Fraction(edges, cells))
    return RegularityVerdict(True, Fraction(base, base_cells))


def is_epsilon_regular_by_subsets(g: Graph, part_u, part_v, eps, exact_cap: int = 15,
                                  budget: Budget | None = None) -> RegularityVerdict:
    """``aml.regularity.is_epsilon_regular`` with the same charges, reading
    every cell and every subset: the certificate over all qualifying (s, t)
    cells (``degree_certificate_by_scan``) unless a part is one vertex, then
    ``regular_by_enumeration``.  Takes valid parts; ``exact_cap`` is only
    accepted."""
    eps = Fraction(eps)
    u, v = tuple(sorted(part_u)), tuple(sorted(part_v))
    a, b = len(u), len(v)
    m_u, m_v = _least_qualifying(eps, a), _least_qualifying(eps, b)
    budget = budget or Budget()
    budget.charge((a - m_u + 1) * (b - m_v + 1) * (a + b))
    if min(a, b) > 1:
        d_base = Fraction(_edges_between(g, u, v), a * b)
        if degree_certificate_by_scan(g, u, v, d_base, eps, m_u, m_v):
            return RegularityVerdict(True, d_base)
        budget.charge(1 << min(a, b))
    verdict = regular_by_enumeration(g, u, v, eps)
    if min(a, b) == 1 and not verdict.regular:
        budget.charge(2)
    return verdict


def regularity_partition_by_checks(g: Graph, eps, k_max: int = 64, exact_cap: int = 15,
                                   budget: Budget | None = None, check=is_epsilon_regular,
                                   rounds_parts: list | None = None) -> PartitionResult:
    """``aml.regularity.regularity_partition`` with the same charges, its
    survey written out as one ``check`` call per unordered part pair, except
    a pair of two parts that each equal their least qualifying size: only
    the pair itself qualifies, so it is regular, charged |U| + |U'|.  Each
    round splits every part of an irregular pair into the classes of
    vertices that agree on membership in each of its witness sets.  Each
    round's parts, whose energy it logs, are appended to ``rounds_parts``
    when it is given.  Takes valid arguments."""
    eps, budget, n = Fraction(eps), budget or Budget(), g.n
    pieces = -(-n // exact_cap)
    sizes = [n // pieces + (i < n % pieces) for i in range(pieces)]
    ends = list(itertools.accumulate(sizes, initial=0))
    parts = [tuple(range(start, end)) for start, end in zip(ends, ends[1:])]
    energies, bound, rounds = [partition_energy_by_fractions(g, parts)], eps * n * n, 0
    while True:
        if rounds_parts is not None:
            rounds_parts.append(parts)
        irregular, mass = [], 0
        for i, j in itertools.combinations_with_replacement(range(len(parts)), 2):
            u, v = parts[i], parts[j]
            if all(_least_qualifying(eps, len(part)) == len(part) for part in (u, v)):
                budget.charge(len(u) + len(v))
                continue
            verdict = check(g, u, v, eps, exact_cap=exact_cap, budget=budget)
            if not verdict.regular:
                irregular.append((i, j, verdict.witness))
                mass += len(u) * len(v) * (1 if i == j else 2)
        if mass <= bound:
            return PartitionResult(tuple(parts), "regular", tuple(irregular), mass, bound,
                                   tuple(energies), rounds)
        cuts = [[] for _ in parts]
        for i, j, (a, b) in irregular:
            cuts[i].append(set(a))
            cuts[j].append(set(b))
        refined = []
        for part, part_cuts in zip(parts, cuts):
            classes: dict[tuple[bool, ...], list[int]] = {}
            for x in part:
                classes.setdefault(tuple(x in cut for cut in part_cuts), []).append(x)
            refined.extend(tuple(c) for c in classes.values())
        if len(refined) > k_max:
            return PartitionResult(tuple(parts), "k-max-exhausted", tuple(irregular), mass,
                                   bound, tuple(energies), rounds)
        parts, rounds = sorted(refined), rounds + 1
        energies.append(partition_energy_by_fractions(g, parts))


def partition_energy_by_fractions(g: Graph, parts) -> Fraction:
    """Sum over ordered part pairs (i, j), including i = j, of
    (|U_i||U_j| / n^2) · d(U_i, U_j)^2, one Fraction term per pair."""
    parts = [tuple(p) for p in parts]
    masks = [sum(1 << x for x in p) for p in parts]
    total = Fraction(0)
    for p in parts:
        for q, mask in zip(parts, masks):
            e = sum(degree_into(g, x, mask) for x in p)
            total += Fraction(e * e, len(p) * len(q) * g.n * g.n)
    return total


def _ap_vertex(part: int, value: int, n: int) -> int:
    """The vertex of ``value`` in part X_part, whose ids start at (part − 1)·n."""
    return (part - 1) * n + value - 1


def ap_encode_by_scan(elements, n: int, k: int, budget: Budget | None = None) -> APEncoding:
    """``aml.regularity.ap_encode`` by scanning: each edge family tries every
    x_{k+1} in [1, k²n], counter one tests all k + 1 edges of every partite
    tuple, and counter two enumerates [1, n]^k for the multiplicities."""
    a_set = frozenset(elements)
    if not all(1 <= x <= n for x in a_set):
        raise RegularityError("elements must lie in [1, n]")
    if k < 1:
        raise RegularityError("k must be >= 1")
    big = k * k * n
    n_vertices = k * n + big
    (budget or Budget()).charge(n ** k * big)

    edges = set()
    # edge omitting X_{k+1}: values x_1..x_k with sum i*x_i in A
    for xs in itertools.product(range(1, n + 1), repeat=k):
        if sum(i * x for i, x in zip(range(1, k + 1), xs)) in a_set:
            edges.add(tuple(sorted(_ap_vertex(i + 1, x, n) for i, x in enumerate(xs))))
    # edge omitting X_i: values x_j (j != i) and x_{k+1}
    for i in range(1, k + 1):
        others = [j for j in range(1, k + 1) if j != i]
        for xs in itertools.product(range(1, n + 1), repeat=k - 1):
            partial = sum((j - i) * x for j, x in zip(others, xs))
            for x_last in range(1, big + 1):
                if partial + i * x_last in a_set:
                    e = {_ap_vertex(j, x, n) for j, x in zip(others, xs)}
                    e.add(_ap_vertex(k + 1, x_last, n))
                    edges.add(tuple(sorted(e)))
    hg = Hypergraph(n_vertices, k, frozenset(edges))
    parts = tuple(tuple(range((i - 1) * n, i * n)) for i in range(1, k + 1)) + \
        (tuple(range(k * n, k * n + big)),)

    # Counter one: enumerate partite tuples, test all k+1 edges.
    total = trivial = 0
    for xs in itertools.product(range(1, n + 1), repeat=k):
        base = [_ap_vertex(i + 1, x, n) for i, x in enumerate(xs)]
        if tuple(sorted(base)) not in hg.edges:
            continue
        for x_last in range(1, big + 1):
            v_last = _ap_vertex(k + 1, x_last, n)
            ok = True
            for i in range(k):
                e = tuple(sorted(base[:i] + base[i + 1:] + [v_last]))
                if e not in hg.edges:
                    ok = False
                    break
            if ok:
                total += 1
                if x_last == sum(xs):
                    trivial += 1
    copy_count = total - trivial

    # Counter two: direct AP enumeration with the representation multiplicity
    # r(a, d) = #{x in [1,n]^k : sum i*x_i = a and sum x_i + d in [1, k^2 n]}.
    reps: dict[int, list[int]] = {}
    for xs in itertools.product(range(1, n + 1), repeat=k):
        a_val = sum(i * x for i, x in zip(range(1, k + 1), xs))
        reps.setdefault(a_val, []).append(sum(xs))
    direct = 0
    for a_val in sorted(a_set):
        for d in range(-big, big + 1):
            if d == 0:
                continue
            if any(a_val + i * d not in a_set for i in range(1, k + 1)):
                continue
            for s in reps.get(a_val, ()):
                if 1 <= s + d <= big:
                    direct += 1

    return APEncoding(hg, parts, total, trivial, copy_count, direct, copy_count == direct)


def gowers_cube_by_terms(group: AbelianGroup, g: GridFunction, k: int) -> Fraction:
    """||g||^{2^k} as the cube average over x and h_1..h_k, each term the
    product of its 2^k corner values."""
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


def banach_density_by_slides(elements, n_hi: int, l_min: int) -> Fraction:
    """The best density over windows of lengths l_min..2*l_min - 1 inside
    [1, n_hi], each length's windows slid one step at a time: a step gains
    lo + length and loses lo."""
    e_set = frozenset(elements)
    has = e_set.__contains__
    longest = min(2 * l_min - 1, n_hi)
    first = sum(1 for x in e_set if x < l_min)
    best = Fraction(0)
    for length in range(l_min, longest + 1):
        first += has(length)   # |E ∩ [1, 1 + length)|
        slides = map(operator.sub, map(has, range(1 + length, n_hi + 1)),
                     map(has, range(1, n_hi + 1 - length)))
        best = max(best, Fraction(max(itertools.accumulate(slides, initial=first)), length))
    return best


def greedy_hitting_set_by_recount(constraint_sets: list[frozenset]) -> frozenset:
    remaining = list(constraint_sets)
    chosen = set()
    while remaining:
        counts: dict[frozenset, int] = {}
        for c in remaining:
            for e in c:
                counts[e] = counts.get(e, 0) + 1
        edge = max(sorted(counts, key=sorted), key=lambda e: counts[e])
        chosen.add(edge)
        remaining = [c for c in remaining if edge not in c]
    return frozenset(chosen)


def random_structure(rng: random.Random, n_max: int = 6) -> FiniteStructure:
    """A random structure over the fixed test signature: constant e, unary
    function f, unary relation P, binary relation R; counting measure 70% of
    the time, otherwise random small nonnegative weights."""
    n = rng.randint(2, n_max)
    f_table = tuple(rng.randrange(n) for _ in range(n))
    p = frozenset((a,) for a in range(n) if rng.random() < 0.5)
    pairs = frozenset((a, b) for a in range(n) for b in range(n) if rng.random() < 0.4)
    weights: tuple[Fraction, ...] = ()
    if rng.random() < 0.3:
        weights = tuple(Fraction(rng.randint(0, 4), rng.randint(1, 6)) for _ in range(n))
        if all(w == 0 for w in weights):
            weights = tuple(Fraction(1, n) for _ in range(n))
    return FiniteStructure.checked(n, {"e": rng.randrange(n)}, {"f": (1, f_table)},
                                   {"P": (1, p), "R": (2, pairs)}, weights)


def random_structure_over(rng: random.Random, sig: Signature, n: int,
                          weighted: bool) -> FiniteStructure:
    """A random n-element structure over ``sig``: uniform constants and
    function tables, each tuple in each relation with probability 0.4, and
    counting measure unless ``weighted`` (then random small nonnegative
    weights, not all zero)."""
    constants = {c: rng.randrange(n) for c in sig.constants}
    functions = {f: (k, tuple(rng.randrange(n) for _ in range(n ** k)))
                 for f, k in sig.functions}
    relations = {r: (k, frozenset(t for t in itertools.product(range(n), repeat=k)
                                  if rng.random() < 0.4))
                 for r, k in sig.relations}
    weights: tuple[Fraction, ...] = ()
    if weighted:
        weights = tuple(Fraction(rng.randint(0, 4), rng.randint(1, 6)) for _ in range(n))
        if not any(weights):
            weights = (Fraction(1),) + weights[1:]
    return FiniteStructure.checked(n, constants, functions, relations, weights)


def member_tuples(m: FiniteStructure) -> dict[str, tuple[int, frozenset[tuple[int, ...]]]]:
    """Each relation of ``m`` as its arity and its members' tuples."""
    return {name: (arity, frozenset(index_tuple(i, m.n, arity) for i in members))
            for name, (arity, members) in m.relations.items()}


def check_probability(m: FiniteStructure, qs) -> bool:
    """Truth of the probability scheme: m[x] <= 1 . (x = x) together with
    ~(m[x] <= q . (x = x)) for each supplied q in (0,1).  On finite
    structures with enough q samples this pins mu(M) = 1; it is exactly
    equivalent when the qs include values arbitrarily close to 1."""
    full = Equality(Var("x"), Var("x"))
    if not evaluate(m, Meas(("x",), Cmp.LE, Fraction(1), full)):
        return False
    for q in map(Fraction, qs):
        if not 0 < q < 1:
            raise ValueError(f"probability scheme thresholds must lie in (0,1), got {q}")
        if not evaluate(m, Not(Meas(("x",), Cmp.LE, q, full))):
            return False
    return True


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


def box_multiplication_check(f: GridFunction, cylinders) -> tuple[Fraction, Fraction]:
    """Given one cylinder set per (k-1)-element coordinate set I (a map
    I -> bitset over M^k, each depending only on the coordinates in I),
    return (||f * prod of indicators||^{2^k}, ||f||^{2^k}).  The first is
    always between 0 and the second."""
    k = f.arity
    size = f.n ** k
    product_bits = (1 << size) - 1
    for index_set, bits in dict(cylinders).items():
        index_set = frozenset(index_set)
        if len(index_set) != k - 1 or not index_set <= set(range(k)):
            raise GowersError(f"cylinder index set {sorted(index_set)} must be a "
                              f"(k-1)-subset of coordinates 0..{k - 1}")
        if bits < 0 or bits >> size:
            raise GowersError("cylinder bitset out of range")
        support = coordinate_support(bits, f.n, k)
        if not support <= index_set:
            raise GowersError(f"set depends on coordinates {sorted(support)}, "
                              f"not cylindrical over {sorted(index_set)}")
        product_bits &= bits
    restricted = tuple(v if product_bits >> i & 1 else Fraction(0)
                       for i, v in enumerate(f.values))
    return gowers_box_pow(GridFunction(f.n, k, restricted, f.weights)), gowers_box_pow(f)


_PUNCT = ("->", "<=", ">=", "!=", "<", ">", "=", "~", "&", "|", "(", ")", "[", "]",
          ".", ",", "/")


def tokenize_by_characters(text: str) -> list[Token]:
    """The tokens of a formula, read one character at a time: identifiers
    start with a letter or '_' and go on with letters, digits or '_',
    integers are runs of ASCII digits, and the longest punctuation wins."""
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
            toks.append(Token("ident", text[i:j], i, j))
            i = j
            continue
        if "0" <= c <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            toks.append(Token("int", text[i:j], i, j))
            i = j
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                toks.append(Token(p, p, i, i + len(p)))
                i += len(p)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", SourceSpan(i, i + 1))
    toks.append(Token("eof", "", n, n))
    return toks
