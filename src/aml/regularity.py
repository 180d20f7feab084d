"""Graph regularity toolkit in exact rational arithmetic.

Provides edge densities over ordered pairs, exact epsilon-regular pair
checking (a degree-sequence certificate, else subset enumeration below a
part-size cap), a constructive energy-increment regularity partition, labeled
hypergraph copy counting by backtracking and minimum-removal, and the
classical encoding of arithmetic progressions as a (k+1)-partite k-uniform
hypergraph.

A pair (U, U') is epsilon-regular when every V ⊆ U, V' ⊆ U' with
|V| ≥ ε|U| and |V'| ≥ ε|U'| satisfies |d(U,U') − d(V,V')| < ε, where
d(X, Y) = #{(x, y) ∈ X×Y : {x,y} an edge} / (|X||Y|) counts ordered pairs.
Every verdict is certified: "regular" by a degree-sequence certificate or
the exhaustive search, "irregular" by a witness pair that re-validates alone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .parser import DataWords
from .semantics import Budget


class RegularityError(ValueError):
    pass


def _ceil_frac(q: Fraction) -> int:
    return -((-q.numerator) // q.denominator)


# ---------------------------------------------------------------------------
# Graphs and hypergraphs


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices 0..n-1."""

    n: int
    edges: frozenset[frozenset[int]]
    adj: tuple[int, ...] = field(compare=False, default=())

    def __post_init__(self):
        if self.n < 1:
            raise RegularityError("graph needs at least one vertex")
        adj = [0] * self.n
        for e in self.edges:
            if len(e) != 2:
                raise RegularityError(f"edge {sorted(e)} is not an unordered pair")
            u, v = sorted(e)
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise RegularityError(f"edge {sorted(e)} out of range")
            if u == v:
                raise RegularityError(f"self-loop at {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        object.__setattr__(self, "adj", tuple(adj))

    @staticmethod
    def from_edges(n: int, pairs) -> "Graph":
        return Graph(n, frozenset(frozenset(p) for p in pairs))

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree_into(self, v: int, mask: int) -> int:
        return (self.adj[v] & mask).bit_count()


@dataclass(frozen=True)
class Hypergraph:
    """k-uniform hypergraph: edges are k-element subsets of 0..n-1."""

    n: int
    k: int
    edges: frozenset[frozenset[int]]

    def __post_init__(self):
        if self.n < 1 or self.k < 1:
            raise RegularityError("need n >= 1 and k >= 1")
        for e in self.edges:
            if len(e) != self.k:
                raise RegularityError(f"edge {sorted(e)} is not a {self.k}-set")
            if not all(0 <= v < self.n for v in e):
                raise RegularityError(f"edge {sorted(e)} out of range")

    @staticmethod
    def from_edges(n: int, k: int, edge_sets) -> "Hypergraph":
        return Hypergraph(n, k, frozenset(frozenset(e) for e in edge_sets))


def _mask_of(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


# ---------------------------------------------------------------------------
# Density and epsilon-regularity


def density(g: Graph, part_u, part_v) -> Fraction:
    """d(U, U'): ordered-pair edge density between two vertex sets."""
    u = tuple(part_u)
    v = tuple(part_v)
    if not u or not v:
        raise RegularityError("density needs nonempty vertex sets")
    mask_v = _mask_of(v)
    count = sum(g.degree_into(x, mask_v) for x in u)
    return Fraction(count, len(u) * len(v))


@dataclass(frozen=True)
class RegularityVerdict:
    regular: bool
    base_density: Fraction
    witness: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    witness_density: Fraction | None = None

    def describe(self) -> str:
        if self.regular:
            return "regular"
        a, b = self.witness
        return (f"irregular: witness V={list(a)}, V'={list(b)} with "
                f"d(V,V')={self.witness_density} vs d(U,U')={self.base_density}")


def validate_witness(g: Graph, part_u, part_v, eps: Fraction,
                     witness) -> bool:
    """Re-check an irregularity witness from scratch: size thresholds and a
    density deviation of at least eps."""
    u = tuple(part_u)
    v = tuple(part_v)
    a, b = witness
    if not set(a) <= set(u) or not set(b) <= set(v):
        return False
    if len(a) < eps * len(u) or len(b) < eps * len(v):
        return False
    return abs(density(g, a, b) - density(g, u, v)) >= eps


def _scan_extremes(g: Graph, sub_a: tuple[int, ...], side_b: tuple[int, ...],
                   m_min: int, d_base: Fraction, eps: Fraction):
    """For a fixed left set A, find a right subset B (|B| >= m_min) whose
    density against A deviates from d_base by >= eps, if one exists.

    For each size m the extreme densities are attained by the m vertices of
    largest (resp. smallest) degree into A, so scanning prefixes of the
    degree-sorted order is an exact search over all subsets of the right side.
    """
    mask_a = _mask_of(sub_a)
    deg = {v: g.degree_into(v, mask_a) for v in side_b}
    by_deg = sorted(side_b, key=lambda v: (-deg[v], v))
    dn, dd, p, q = d_base.numerator, d_base.denominator, eps.numerator, eps.denominator
    hi = lo = 0
    for m in range(1, len(side_b) + 1):
        hi += deg[by_deg[m - 1]]
        lo += deg[by_deg[-m]]
        cells = len(sub_a) * m
        if m < m_min:
            continue
        if q * (hi * dd - dn * cells) >= p * cells * dd:   # hi/cells - d_base >= eps
            return tuple(sorted(by_deg[:m])), Fraction(hi, cells)
        if q * (dn * cells - lo * dd) >= p * cells * dd:
            return tuple(sorted(by_deg[-m:])), Fraction(lo, cells)
    return None


def _degree_certificate(g: Graph, u: tuple[int, ...], v: tuple[int, ...], d_base: Fraction,
                        eps: Fraction, m_min_u: int, m_min_v: int) -> bool:
    """True when degree sequences prove (U, V) eps-regular: with r the degrees
    of U into V and c those of V into U, any X ⊆ U, Y ⊆ V of sizes s, t have
    min(Σ top-s min(r, t), Σ top-t min(c, s)) >= e(X,Y) >=
    max(Σ bottom-s max(0, r − (|V|−t)), Σ bottom-t max(0, c − (|U|−s))).
    No witness exists if both bounds, over s·t, lie strictly within eps of
    d_base for every qualifying (s, t); False leaves the pair undecided."""
    a, b = len(u), len(v)
    mask_u, mask_v = _mask_of(u), _mask_of(v)
    rows = sorted((g.degree_into(x, mask_v) for x in u), reverse=True)
    cols = sorted((g.degree_into(y, mask_u) for y in v), reverse=True)
    dn, dd, p, q = d_base.numerator, d_base.denominator, eps.numerator, eps.denominator
    for s in range(m_min_u, a + 1):
        for t in range(m_min_v, b + 1):
            top = min(sum(min(r, t) for r in rows[:s]), sum(min(c, s) for c in cols[:t]))
            bottom = max(sum(max(0, r - b + t) for r in rows[a - s:]),
                         sum(max(0, c - a + s) for c in cols[b - t:]))
            cells = s * t
            if q * max(top * dd - dn * cells, dn * cells - bottom * dd) >= p * cells * dd:
                return False
    return True


def is_epsilon_regular(g: Graph, part_u, part_v, eps, exact_cap: int = 15,
                       budget: Budget | None = None) -> RegularityVerdict:
    """Check epsilon-regularity of (U, U') exactly.

    Tries the uncharged degree-sequence certificate first.  If it cannot
    settle the pair, enumerates every qualifying subset pair (left side by
    bitmask, right side by exact degree-prefix scan) and either certifies
    regularity or returns a violating witness; both parts must be within
    ``exact_cap``.
    """
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise RegularityError("eps must be in (0,1)")
    u = tuple(sorted(part_u))
    v = tuple(sorted(part_v))
    if not u or not v:
        raise RegularityError("regularity check needs nonempty vertex sets")
    if len(u) > exact_cap or len(v) > exact_cap:
        raise RegularityError(f"exact check caps part sizes at {exact_cap}; "
                              f"got {len(u)} and {len(v)}")
    d_base = density(g, u, v)
    m_min_u = max(1, _ceil_frac(eps * len(u)))
    m_min_v = max(1, _ceil_frac(eps * len(v)))
    if _degree_certificate(g, u, v, d_base, eps, m_min_u, m_min_v):
        return RegularityVerdict(True, d_base)
    # Enumerate subsets on the smaller side, scan the other exactly.
    left, right, swapped = (u, v, False) if len(u) <= len(v) else (v, u, True)
    m_min_l = m_min_u if not swapped else m_min_v
    m_min_r = m_min_v if not swapped else m_min_u
    (budget or Budget()).charge(1 << len(left))  # one unit per subset
    for bits in range(1, 1 << len(left)):
        if bits.bit_count() < m_min_l:
            continue
        sub = tuple(left[i] for i in range(len(left)) if bits >> i & 1)
        found = _scan_extremes(g, sub, right, m_min_r, d_base, eps)
        if found:
            other, d_wit = found
            wit = (other, sub) if swapped else (sub, other)
            return RegularityVerdict(False, d_base, wit, d_wit)
    return RegularityVerdict(True, d_base)


# ---------------------------------------------------------------------------
# Energy-increment regularity partition


@dataclass(frozen=True)
class Partition:
    n: int
    parts: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen = set()
        for p in self.parts:
            if not p:
                raise RegularityError("empty part")
            for x in p:
                if x in seen:
                    raise RegularityError(f"vertex {x} in two parts")
                seen.add(x)
        if seen != set(range(self.n)):
            raise RegularityError("parts must cover all vertices exactly once")


def partition_energy(g: Graph, parts) -> Fraction:
    """Mean-square edge density: sum over ordered part pairs (i,j), including
    i = j, of (|U_i||U_j| / n^2) * d(U_i, U_j)^2."""
    parts = [tuple(p) for p in parts]
    n = g.n
    masks = [_mask_of(p) for p in parts]
    total = Fraction(0)
    for i, p in enumerate(parts):
        for j, q in enumerate(parts):
            e = sum(g.degree_into(x, masks[j]) for x in p)
            if e:
                total += Fraction(e * e, len(p) * len(q) * n * n)
    return total


@dataclass(frozen=True)
class PartitionResult:
    partition: Partition
    status: str  # "regular" | "k-max-exhausted"
    irregular_pairs: tuple  # (i, j, witness) for i <= j, certified irregular
    irregular_mass: int      # ordered-pair mass over non-certified-regular pairs
    mass_bound: Fraction     # eps * n^2
    energy_log: tuple[Fraction, ...]
    rounds: int


def _initial_chunks(n: int, pieces: int) -> list[tuple[int, ...]]:
    base, extra = divmod(n, pieces)
    out = []
    start = 0
    for i in range(pieces):
        size = base + (1 if i < extra else 0)
        out.append(tuple(range(start, start + size)))
        start += size
    return [p for p in out if p]


def _survey(g: Graph, parts, eps, exact_cap, budget):
    """Exact verdicts for all unordered part pairs; returns (irregular list,
    ordered-pair mass of irregular pairs)."""
    irregular = []
    mass = 0
    for i in range(len(parts)):
        for j in range(i, len(parts)):
            verdict = is_epsilon_regular(g, parts[i], parts[j], eps,
                                         exact_cap=exact_cap, budget=budget)
            if not verdict.regular:
                irregular.append((i, j, verdict.witness))
                block = len(parts[i]) * len(parts[j])
                mass += block if i == j else 2 * block
    return irregular, mass


def regularity_partition(g: Graph, eps, k_max: int = 64, exact_cap: int = 15,
                         budget: Budget | None = None) -> PartitionResult:
    """Refine an initial partition by irregularity witnesses until the
    ordered-pair mass of irregular pairs is at most eps * n^2, or the part
    budget k_max is exhausted.

    The initial partition has ceil(n / exact_cap) contiguous chunks, so
    every part fits the exact regularity checker from the start.
    Each round checks all pairs exactly, then simultaneously refines every
    part by all of its witness sets; the partition energy provably rises by
    at least eps^4 * (irregular mass) / n^2 > eps^5 per round, so the loop
    terminates (energy is at most 1).
    """
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise RegularityError("eps must be in (0,1)")
    if exact_cap < 1:
        raise RegularityError(f"the exact part-size cap must be at least 1, got {exact_cap}")
    n = g.n
    pieces = _ceil_frac(Fraction(n, exact_cap))
    if pieces > k_max:
        raise RegularityError(f"need at least {pieces} parts to start "
                              f"but k_max={k_max}")
    parts = _initial_chunks(n, pieces)
    energies = [partition_energy(g, parts)]
    bound = eps * n * n
    rounds = 0

    while True:
        irregular, mass = _survey(g, parts, eps, exact_cap, budget)
        if mass <= bound:
            return PartitionResult(Partition(n, tuple(parts)),
                                   "regular", tuple(irregular), mass, bound,
                                   tuple(energies), rounds)
        cuts: dict[int, list[frozenset[int]]] = {}
        for i, j, (wit_a, wit_b) in irregular:
            cuts.setdefault(i, []).append(frozenset(wit_a))
            cuts.setdefault(j, []).append(frozenset(wit_b))
        new_parts: list[tuple[int, ...]] = []
        for idx, part in enumerate(parts):
            cells = [frozenset(part)]
            for cut in cuts.get(idx, ()):
                nxt = []
                for cell in cells:
                    inside = cell & cut
                    outside = cell - cut
                    if inside:
                        nxt.append(inside)
                    if outside:
                        nxt.append(outside)
                cells = nxt
            new_parts.extend(tuple(sorted(c)) for c in cells)
        new_parts.sort(key=lambda p: p[0])
        if len(new_parts) > k_max:
            return PartitionResult(Partition(n, tuple(parts)),
                                   "k-max-exhausted", tuple(irregular), mass,
                                   bound, tuple(energies), rounds)
        rounds += 1
        parts = new_parts
        energies.append(partition_energy(g, parts))


# ---------------------------------------------------------------------------
# Copy counting and removal


def _pattern_maps(pattern: Hypergraph, host: Hypergraph, budget: Budget | None):
    """(assignment, image edges) for each map of the pattern's vertices into
    the host's that sends every pattern edge onto a host edge, in
    lexicographic order.  Backtracking tests each pattern edge once its
    largest vertex is mapped; the charge is the worst case, all maps."""
    if pattern.k != host.k:
        raise RegularityError("pattern and host must have the same uniformity")
    (budget or Budget()).charge(host.n ** pattern.n)
    closing = [[] for _ in range(pattern.n)]   # pattern edges by their largest vertex
    for e in pattern.edges:
        closing[max(e)].append(e)
    assignment, images, i = [-1] * pattern.n, [[]] * pattern.n, 0
    while i >= 0:
        assignment[i] += 1
        if assignment[i] == host.n:   # every image of vertex i tried: back up
            i -= 1
            continue
        images[i] = [frozenset(assignment[w] for w in e) for e in closing[i]]
        if not host.edges.issuperset(images[i]):
            continue
        if i < pattern.n - 1:
            i += 1
            assignment[i] = -1
        else:
            yield tuple(assignment), frozenset(itertools.chain.from_iterable(images))


def count_copies(pattern: Hypergraph, host: Hypergraph,
                 budget: Budget | None = None) -> int:
    """Number of labeled maps from the pattern's vertices into the host such
    that every pattern edge lands on a host edge (injectivity not required;
    a map collapsing an edge never counts, since the image is too small to
    be an edge)."""
    return sum(1 for _ in _pattern_maps(pattern, host, budget))


@dataclass(frozen=True)
class RemovalResult:
    removed: frozenset[frozenset[int]]
    method: str  # "branch-and-bound" | "greedy" | "none"
    copies_before: int
    copies_after: int
    within_bound: bool | None  # |removed| <= eps * n^k, when eps was given


def _min_hitting_set(constraint_sets: list[frozenset], budget: Budget):
    """Exact minimum hitting set by branch and bound on the constraint with
    the fewest remaining options; each branch charges the constraints it
    filters before filtering them."""
    best: list[frozenset | None] = [None]

    def lower_bound(remaining):
        # greedy packing of pairwise-disjoint constraints
        used: set = set()
        count = 0
        for c in sorted(remaining, key=len):
            if not (c & used):
                count += 1
                used |= c
        return count

    def search(remaining, chosen: set):
        if best[0] is not None and len(chosen) + lower_bound(remaining) >= len(best[0]):
            return
        if not remaining:
            best[0] = frozenset(chosen)
            return
        pivot = min(remaining, key=len)
        for edge in sorted(pivot, key=sorted):
            budget.charge(len(remaining))
            nxt = [c for c in remaining if edge not in c]
            chosen.add(edge)
            search(nxt, chosen)
            chosen.remove(edge)

    search(constraint_sets, set())
    assert best[0] is not None
    return best[0]


def _greedy_hitting_set(constraint_sets: list[frozenset]):
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


def remove_copies(pattern: Hypergraph, host: Hypergraph, eps=None,
                  bb_cap: int = 10 ** 4, budget: Budget | None = None) -> RemovalResult:
    """A set of host edges meeting every copy of the pattern: the exact
    minimum hitting set (branch and bound) when there are at most ``bb_cap``
    copies, greedy otherwise.  The result always leaves zero copies."""
    if not pattern.edges:
        raise RegularityError("a pattern without edges has copies no edge removal can destroy")
    copy_sets = [used for _, used in _pattern_maps(pattern, host, budget)]
    before = len(copy_sets)
    if not before:
        return RemovalResult(frozenset(), "none", 0, 0,
                             None if eps is None else True)
    unique = sorted(set(copy_sets), key=lambda s: sorted(map(sorted, s)))
    if before <= bb_cap:
        removed = _min_hitting_set(list(unique), budget or Budget())
        method = "branch-and-bound"
    else:
        removed = _greedy_hitting_set(list(unique))
        method = "greedy"
    stripped = Hypergraph(host.n, host.k, host.edges - removed)
    after = count_copies(pattern, stripped, budget)
    within = None
    if eps is not None:
        within = len(removed) <= Fraction(eps) * host.n ** host.k
    return RemovalResult(removed, method, before, after, within)


# ---------------------------------------------------------------------------
# Arithmetic-progression encoding


@dataclass(frozen=True)
class APEncoding:
    n: int
    k: int
    elements: frozenset[int]          # A as a subset of [1, n]
    hypergraph: Hypergraph
    parts: tuple[tuple[int, ...], ...]  # vertex ranges X_1..X_{k+1}
    total_copies: int                 # complete-pattern copies, any difference
    trivial_copies: int               # copies with x_{k+1} = sum x_i
    copy_ap_count: int                # copies with x_{k+1} != sum x_i
    direct_ap_count: int              # AP enumeration with multiplicity
    verified: bool


def _ap_vertex(i: int, value: int, n: int) -> int:
    """Vertex id for value ∈ [1,n] in part X_i (parts are disjoint ranges)."""
    return (i - 1) * n + (value - 1)


def ap_encode(elements, n: int, k: int, budget: Budget | None = None) -> APEncoding:
    """Encode A ⊆ [1,n] as a (k+1)-partite k-uniform hypergraph whose
    complete-pattern copies with x_{k+1} ≠ x_1 + ... + x_k correspond exactly
    (with multiplicity) to (k+1)-term arithmetic progressions inside A with
    nonzero difference.

    Parts X_1..X_k are copies of [1,n]; X_{k+1} is a copy of [1, k^2 n].
    The k-set omitting X_{k+1} is an edge iff sum of i*x_i lies in A; the
    k-set omitting X_i is an edge iff sum over j≠i of (j−i)*x_j + i*x_{k+1}
    lies in A.  Both counters below are computed independently and compared.
    """
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
            edges.add(frozenset(_ap_vertex(i + 1, x, n) for i, x in enumerate(xs)))
    # edge omitting X_i: values x_j (j != i) and x_{k+1}
    for i in range(1, k + 1):
        others = [j for j in range(1, k + 1) if j != i]
        for xs in itertools.product(range(1, n + 1), repeat=k - 1):
            partial = sum((j - i) * x for j, x in zip(others, xs))
            for x_last in range(1, big + 1):
                if partial + i * x_last in a_set:
                    e = {_ap_vertex(j, x, n) for j, x in zip(others, xs)}
                    e.add(_ap_vertex(k + 1, x_last, n))
                    edges.add(frozenset(e))
    hg = Hypergraph(n_vertices, k, frozenset(edges))
    parts = tuple(tuple(range((i - 1) * n, i * n)) for i in range(1, k + 1)) + \
        (tuple(range(k * n, k * n + big)),)

    # Counter one: enumerate partite tuples, test all k+1 edges.
    total = trivial = 0
    for xs in itertools.product(range(1, n + 1), repeat=k):
        base = [_ap_vertex(i + 1, x, n) for i, x in enumerate(xs)]
        if frozenset(base) not in hg.edges:
            continue
        for x_last in range(1, big + 1):
            v_last = _ap_vertex(k + 1, x_last, n)
            ok = True
            for i in range(k):
                e = frozenset(base[:i] + base[i + 1:] + [v_last])
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

    return APEncoding(n, k, a_set, hg, parts, total, trivial, copy_count,
                      direct, copy_count == direct)


# ---------------------------------------------------------------------------
# File formats


def _parse_edges(text: str, kind: str, budget: Budget | None = None):
    """n, k and the edges of a "graph <n>" or "hypergraph <n> <k>" file: one
    edge per line, each k distinct vertices in [0, n) (k = 2 for a graph).
    A format error is a ParseError at the first word of its line."""
    d = DataWords(text)
    header, *rows = d.rows or [[]]
    usage = "graph <n>" if kind == "graph" else "hypergraph <n> <k>"
    fields = header[1:] if header[:1] == [kind] else []
    try:
        n, k = map(int, fields if kind == "hypergraph" else fields + ["2"])
    except ValueError:  # not a number, or a wrong count of them
        n = k = 0
    if n < 1 or k < 1:
        raise d.error(f"{kind} file must start with '{usage}' (positive numbers)", 0)
    (budget or Budget()).charge(n)  # before an n-vertex graph is built
    edges = []
    first = len(header)  # the index of the row's first word
    for body in rows:
        if len(body) != k:
            raise d.error(f"expected {k} vertices", first)
        try:
            vs = [int(w) for w in body]
        except ValueError:
            raise d.error("bad vertex", first) from None
        if len(set(vs)) != k or not all(0 <= v < n for v in vs):
            raise d.error(f"expected {k} distinct vertices in [0, {n}), "
                          f"got {' '.join(body)!r}", first)
        edges.append(vs)
        first += k
    return n, k, edges


def parse_graph(text: str, budget: Budget | None = None) -> Graph:
    """Parse "graph <n>" followed by one "u v" edge per line."""
    n, _, edges = _parse_edges(text, "graph", budget)
    return Graph.from_edges(n, edges)


def parse_hypergraph(text: str) -> Hypergraph:
    """Parse "hypergraph <n> <k>" followed by one k-set of vertices per line."""
    n, k, edges = _parse_edges(text, "hypergraph")
    return Hypergraph.from_edges(n, k, edges)
