"""Graph regularity toolkit in exact rational arithmetic.

Provides edge densities over ordered pairs, exact epsilon-regular pair
checking (a degree-sequence certificate, else subset enumeration below a
part-size cap), a constructive energy-increment regularity partition, labeled
hypergraph copy counting by link-mask backtracking and minimum-removal, and
the classical encoding of arithmetic progressions as a (k+1)-partite
k-uniform hypergraph.

A pair (U, U') is epsilon-regular when every V ⊆ U, V' ⊆ U' with
|V| ≥ ε|U| and |V'| ≥ ε|U'| satisfies |d(U,U') − d(V,V')| < ε, where
d(X, Y) = #{(x, y) ∈ X×Y : {x,y} an edge} / (|X||Y|) counts ordered pairs.
Every verdict is certified: "regular" by a degree-sequence certificate or
the exhaustive search, "irregular" by a witness pair that re-validates alone.
With m = max(1, ⌈ε|U|⌉) and m' = max(1, ⌈ε|U'|⌉) the least qualifying sizes,
both read only those sizes:

1. The certificate reads the one cell (m, m').  Over |V||V'| its upper bound
   on e(V, V') never rises as |V| or |V'| grows and its lower bound never
   falls (top-s means of degrees never rise with s and bottom-s means never
   fall; for a degree r, min(r, t)/t never rises with t and
   max(0, r − |U'| + t)/t never falls), so that cell is the worst of all.
   Its row half, from the degrees already counted for e(U, U') (U the
   smaller side), is tried first; the column degrees are counted only when
   the rows leave the pair open, m >= 2 and U' has two vertices or more.
   At m = 1 the row bounds are exact (the most and the fewest neighbours
   one vertex has among m'), with one vertex in U' the rows are 0/1 and
   exact too, and at m' = 1 the column bounds are exact: so when m or m' is
   1 it fails exactly when a witness exists (at m = 1, it is charged but
   not run: 2 decides alone).
2. The search finds the first witness in bitmask order among the m-subsets
   of the smaller side alone, against the m'-prefix of the other side's
   degree order: if (A, B) deviates, so does (A*, B) for the m vertices A*
   of A with the most (or fewest) neighbours in B, and A* ⊆ A comes no later;
   and top-m' (bottom-m') mean degrees never rise (fall) as m' grows.  When
   that side's m is 1, A is one vertex and the degrees into it are its row's
   bits, so the witness is read off the degrees counted for e(U, U').

A pair of parts too small to hold any proper qualifying subset is regular
outright, and the partition survey settles it without a check.  Each round
the survey computes every part's mask and least qualifying size once, then
decides each other pair with one unchecked kernel, which builds no Fraction
and no verdict for a regular pair; :func:`is_epsilon_regular` is the checked
entry to the same kernel.  Either way the kernel counts its checks in the
budget's ``regularity.pair_checks`` and ``regularity.irregular_pairs``.
A round's partition energy is one integer sum over a common denominator of
the e(U, U') the survey's kernel counts, each unordered part pair once.
The AP encoding reads each edge family's solutions from A's residue class of
its coefficient, with two bisections per tuple of the other coordinates,
builds each edge as its vertex tuple in part order, and links only the faces
its first counter reads.
"""

from __future__ import annotations

import bisect
import heapq
import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction

from .parser import DataWords, integer
from .semantics import Budget
from .structures import set_bits


class RegularityError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Graphs and hypergraphs


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on 0..n-1: bit v of adj[u] is set when {u, v}
    is an edge.  Edges from outside are checked by from_edges and parse_graph."""

    n: int
    adj: tuple[int, ...]

    @staticmethod
    def from_edges(n: int, pairs) -> "Graph":
        """The graph on 0..n-1 whose edges are ``pairs``, each checked to be
        two distinct vertices in range."""
        if n < 1:
            raise RegularityError("graph needs at least one vertex")
        pairs = [sorted(frozenset(p)) for p in pairs]
        for e in pairs:
            if len(e) != 2:
                raise RegularityError(f"edge {e} is not an unordered pair")
            if e[0] < 0 or e[1] >= n:
                raise RegularityError(f"edge {e} out of range")
        return Graph(n, _adjacency(n, pairs))


def _adjacency(n: int, pairs) -> tuple[int, ...]:
    """The adjacency masks of the graph on 0..n-1 with the given checked pairs."""
    adj = [0] * n
    for u, v in pairs:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return tuple(adj)


@dataclass(frozen=True)
class Hypergraph:
    """k-uniform hypergraph on 0..n-1, each edge the ascending tuple of its k
    vertices, built once where it enters.  Edges from outside are checked by
    from_edges and parse_hypergraph."""

    n: int
    k: int
    edges: frozenset[tuple[int, ...]]

    @staticmethod
    def from_edges(n: int, k: int, edge_sets) -> "Hypergraph":
        """The hypergraph whose edges are ``edge_sets``, each checked to be k
        distinct vertices in range, in any order."""
        if n < 1 or k < 1:
            raise RegularityError("need n >= 1 and k >= 1")
        edges = frozenset(tuple(sorted(set(e))) for e in edge_sets)
        for e in edges:
            if len(e) != k:
                raise RegularityError(f"edge {list(e)} is not a {k}-set")
            if e[0] < 0 or e[-1] >= n:
                raise RegularityError(f"edge {list(e)} out of range")
        return Hypergraph(n, k, edges)


def _mask_of(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _vertex_mask(g: Graph, vertices) -> int:
    """The bitmask of ``vertices``, each checked to be a vertex of ``g``, none
    repeated."""
    try:
        mask = _mask_of(vertices)
    except ValueError:  # a negative shift count: a negative vertex
        raise RegularityError(f"vertex {min(vertices)} out of range 0..{g.n - 1}") from None
    if mask >> g.n:
        raise RegularityError(f"vertex {mask.bit_length() - 1} out of range 0..{g.n - 1}")
    if mask.bit_count() != len(vertices):
        raise RegularityError("vertex sets must not repeat a vertex")
    return mask


# ---------------------------------------------------------------------------
# Density and epsilon-regularity


def density(g: Graph, part_u, part_v) -> Fraction:
    """d(U, U'): ordered-pair edge density between two nonempty sets of
    vertices of ``g``, each without a repeated vertex."""
    u = tuple(part_u)
    v = tuple(part_v)
    if not u or not v:
        raise RegularityError("density needs nonempty vertex sets")
    _vertex_mask(g, u)
    mask, adj = _vertex_mask(g, v), g.adj
    return Fraction(sum([(adj[x] & mask).bit_count() for x in u]), len(u) * len(v))


@dataclass(frozen=True)
class RegularityVerdict:
    regular: bool
    base_density: Fraction
    witness: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    witness_density: Fraction | None = None


def validate_witness(g: Graph, part_u, part_v, eps: Fraction,
                     witness) -> bool:
    """Re-check an irregularity witness from scratch: sets of distinct
    vertices, size thresholds and a density deviation of at least eps."""
    u = tuple(part_u)
    v = tuple(part_v)
    a, b = witness
    if len(set(a)) != len(a) or len(set(b)) != len(b):
        return False
    if not set(a) <= set(u) or not set(b) <= set(v):
        return False
    if len(a) < eps * len(u) or len(b) < eps * len(v):
        return False
    return abs(density(g, a, b) - density(g, u, v)) >= eps


def _least_qualifying(eps: Fraction, size: int) -> int:
    """The least qualifying subset size of a part, max(1, ⌈eps·size⌉)."""
    return max(1, -(-eps.numerator * size // eps.denominator))


def _bounds(degrees: list[int], s: int, t: int, other: int) -> tuple[int, int]:
    """Σ top-s min(r, t) and Σ bottom-s max(0, r − (other − t)) over the
    ``degrees`` r, sorted descending, of one part's vertices into the other
    part, of ``other`` vertices: an upper and a lower bound on e(X, Y) for
    any s of those vertices X and any t of the other part's Y."""
    return (sum([min(r, t) for r in degrees[:s]]),
            sum([max(0, r - other + t) for r in degrees[len(degrees) - s:]]))


def _degree_certificate(adj, rows: list[int], v: tuple[int, ...], mask_u: int,
                        s: int, t: int, test: tuple[int, int, int]) -> bool:
    """True when degree sequences prove (U, U') eps-regular: with r the
    degrees ``rows`` of U into U', sorted descending, and c the degrees of
    the vertices ``v`` of U' into U (``mask_u``), any X ⊆ U, Y ⊆ U' of sizes
    s, t have
    min(Σ top-s min(r, t), Σ top-t min(c, s)) >= e(X,Y) >=
    max(Σ bottom-s max(0, r − (|U'|−t)), Σ bottom-t max(0, c − (|U|−s))),
    and no witness exists when both bounds of the cell of the least
    qualifying sizes (s, t) lie strictly within eps of d(U, U'), that is when
    scale·bound < hi and scale·bound > lo for ``test`` = (scale, hi, lo).
    False leaves the pair undecided.  The row half is tried first, and the
    columns are counted only when it leaves the pair open.  Argument 1 of
    the module docstring says why that one cell decides every cell."""
    scale, hi, lo = test
    top, bottom = _bounds(rows, s, t, len(v))
    if scale * top < hi and scale * bottom > lo:
        return True
    top_c, bottom_c = _bounds(sorted([(adj[y] & mask_u).bit_count() for y in v], reverse=True),
                              t, s, len(rows))
    return scale * min(top, top_c) < hi and scale * max(bottom, bottom_c) > lo


def _first_witness(adj, left: tuple[int, ...], right: tuple[int, ...],
                   m_l: int, m_r: int, test: tuple[int, int, int]):
    """The first (A, B, e(A, B)) that deviates by ``test`` (see
    :func:`_degree_certificate`), taking the m_l-subsets A of ``left`` in
    increasing bitmask order and, for each, B the m_r vertices of ``right``
    of most degree into A, then those of least (ties to the lesser vertex
    among the most, the greater among the least); None if there is none.
    The kernel calls it for m_l >= 2.  A is a vertex mask, so a degree into
    it is one AND of an adjacency row and a popcount.  Gosper's step runs
    within the mask of ``left``: the vertices outside it are set before the
    lowest bit is added, so the carry skips them."""
    rows = [adj[y] for y in right]
    scale, hi, lo = test
    top_min = -(-hi // scale)  # m_r degrees summing to at least this deviate up
    bottom_max = lo // scale   # and to at most this, down
    lowest = [0]   # lowest[i]: the i least vertices of ``left``
    for x in left:
        lowest.append(lowest[-1] | 1 << x)
    whole = lowest[-1]
    outside = ~whole
    bits = lowest[m_l]
    while True:
        degrees = sorted([(row & bits).bit_count() for row in rows])
        top, bottom = sum(degrees[-m_r:]), sum(degrees[:m_r])
        if top >= top_min or bottom <= bottom_max:
            # a stable sort, reversed or not: equal degrees stay in vertex order
            into = [(row & bits).bit_count() for row in rows]
            order = sorted(range(len(right)), key=into.__getitem__, reverse=True)
            chosen, edges = (order[:m_r], top) if top >= top_min else (order[-m_r:], bottom)
            return (tuple(x for x in left if bits >> x & 1),
                    tuple(sorted(right[j] for j in chosen)), edges)
        # the next larger mask of m_l vertices of ``left``: the lowest run of
        # them moves its top vertex up one and the rest to the bottom; the
        # carry leaves ``left`` past the last mask
        ripple = ((bits | outside) + (bits & -bits)) & whole
        if not ripple:
            return None
        bits = ripple | lowest[(bits ^ ripple).bit_count() - 2]


def _pair_kernel(adj, u: tuple[int, ...], v: tuple[int, ...], mask_u: int, mask_v: int,
                 m_u: int, m_v: int, p: int, q: int, budget: Budget):
    """The pair check of :func:`is_epsilon_regular`, unchecked: ``u`` and
    ``v`` are sorted tuples of distinct vertices, within the cap, with masks
    ``mask_u``, ``mask_v`` and least qualifying sizes m_u, m_v at eps = p/q.
    Returns (e(U, U'), None) for a regular pair, else (e(U, U'), (A, B,
    e(A, B))) with A ⊆ U and B ⊆ U' the first witness, and bumps the
    counters ``regularity.pair_checks`` and ``regularity.irregular_pairs``.
    At m = 1 on the smaller side its vertex scan alone decides (module
    docstring), charging the subsets only with a witness: B is the first
    (most edges) or last m' of x's neighbours, then non-neighbours, ascending."""
    a, b = len(u), len(v)
    budget.charge((a - m_u + 1) * (b - m_v + 1) * (a + b))
    budget.count("regularity.pair_checks")
    swapped = a > b
    left, right, m_l, m_r, mask_l, mask_r = \
        (v, u, m_v, m_u, mask_v, mask_u) if swapped else (u, v, m_u, m_v, mask_u, mask_v)
    degrees = [(adj[x] & mask_r).bit_count() for x in left]
    edges, cells = sum(degrees), a * b
    # e/(m_u m_v) is at least eps from edges/cells exactly when scale·e >= hi
    # or scale·e <= lo, in integers
    scale, hi, lo = test = \
        q * cells, (q * edges + p * cells) * m_u * m_v, (q * edges - p * cells) * m_u * m_v
    if m_l == 1:
        size, top_min, bottom_max = len(right), -(-hi // scale), lo // scale
        # m_r vertices carry at most min(r, m_r) edges to x, >= top_min exactly when
        # r >= r_top, and at least max(0, m_r − size + r), <= bottom_max exactly when r <= r_bottom
        r_top = top_min if m_r >= top_min else size + 1
        r_bottom = bottom_max + size - m_r if bottom_max >= 0 else -1
        for x, r in zip(left, degrees):
            if r >= r_top or r <= r_bottom:
                break
        else:
            return edges, None
        budget.charge(1 << len(left))  # one unit per subset
        row = adj[x] & mask_r
        order = [y for y in right if row >> y & 1] + [y for y in right if not row >> y & 1]
        chosen, wit_edges = (order[:m_r], min(r, m_r)) if r >= r_top else \
            (order[size - m_r:], max(0, m_r - size + r))
        found = (x,), tuple(sorted(chosen)), wit_edges
    else:
        if _degree_certificate(adj, sorted(degrees, reverse=True), right, mask_l, m_l, m_r, test):
            return edges, None
        budget.charge(1 << len(left))  # one unit per subset
        found = _first_witness(adj, left, right, m_l, m_r, test)
        if found is None:
            return edges, None
    budget.count("regularity.irregular_pairs")
    sub, other, wit_edges = found
    return edges, (other, sub, wit_edges) if swapped else found


def is_epsilon_regular(g: Graph, part_u, part_v, eps, exact_cap: int = 15,
                       budget: Budget | None = None) -> RegularityVerdict:
    """Check epsilon-regularity of (U, U') exactly.

    Charges the degree-sequence certificate's (s, t) cells times |U| + |U'|,
    then tries it: it reads one cell, the row half first and the columns
    only when the rows leave the pair open (see :func:`_degree_certificate`).
    If it cannot settle the pair, charges the 2^min(|U|, |U'|) subsets of the
    smaller side and returns the first witness in their bitmask order, or
    certifies regularity when there is none; both parts must be within
    ``exact_cap``.  When the smaller side's m is 1 (a one-vertex side, or up
    to ⌊1/ε⌋ vertices) the certificate is exact, so the scan of that side's
    vertices alone decides the pair, with the same charges.  Both read only
    the least qualifying sizes (module docstring).  This is the checked
    entry: it validates its arguments and runs the same kernel as the
    partition survey, counted the same way.
    """
    eps = Fraction(eps)
    p, q = eps.numerator, eps.denominator
    if not 0 < p < q:
        raise RegularityError("eps must be in (0,1)")
    u = tuple(sorted(part_u))
    v = tuple(sorted(part_v))
    if not u or not v:
        raise RegularityError("regularity check needs nonempty vertex sets")
    a, b = len(u), len(v)
    if a > exact_cap or b > exact_cap:
        raise RegularityError(f"exact check caps part sizes at {exact_cap}; "
                              f"got {a} and {b}")
    m_u, m_v = _least_qualifying(eps, a), _least_qualifying(eps, b)
    edges, found = _pair_kernel(g.adj, u, v, _vertex_mask(g, u), _vertex_mask(g, v),
                                m_u, m_v, p, q, budget or Budget())
    d_base = Fraction(edges, a * b)
    if found is None:
        return RegularityVerdict(True, d_base)
    sub, other, wit_edges = found
    return RegularityVerdict(False, d_base, (sub, other), Fraction(wit_edges, m_u * m_v))


# ---------------------------------------------------------------------------
# Energy-increment regularity partition


@dataclass(frozen=True)
class PartitionResult:
    parts: tuple[tuple[int, ...], ...]  # disjoint, covering 0..n-1, by least vertex
    status: str  # "regular" | "k-max-exhausted"
    irregular_pairs: tuple  # (i, j, witness) for i <= j, certified irregular
    irregular_mass: int      # ordered-pair mass over non-certified-regular pairs
    mass_bound: Fraction     # eps * n^2
    energy_log: tuple[Fraction, ...]
    rounds: int


def _initial_chunks(n: int, pieces: int) -> list[tuple[int, ...]]:
    """0..n-1 in ``pieces`` <= n runs, the first n mod pieces one longer."""
    base, extra = divmod(n, pieces)
    return [tuple(range(i * base + min(i, extra), (i + 1) * base + min(i + 1, extra)))
            for i in range(pieces)]


def _survey(g: Graph, parts, eps: Fraction, budget: Budget):
    """Exact verdicts for all unordered part pairs; returns (irregular list,
    ordered-pair mass of irregular pairs, energy).  The energy is the sum over
    ordered part pairs (i, j), i = j too, of (|U_i||U_j| / n²) d(U_i, U_j)²:
    with L = lcm |U_i|, the integer sum Σ e² (L/|U_i|)(L/|U_j|) over (L n)².
    The parts are sorted, disjoint and within the cap (the initial chunks fit
    it and refinement only splits them), so nothing is re-checked per pair.
    Each pair is decided by :func:`_pair_kernel`, which counts e(U, U') for
    the energy, and a pair of whole parts by popcounts."""
    irregular, mass = [], 0
    adj, p, q = g.adj, eps.numerator, eps.denominator
    masks = [_mask_of(part) for part in parts]
    least = [_least_qualifying(eps, len(part)) for part in parts]
    lcm = math.lcm(*map(len, parts))
    scales = [lcm // len(part) for part in parts]
    # the pairs of two single-vertex parts, both of scale lcm, have e(U, U')
    # 0 or 1: their sum over ordered pairs is one popcount per such vertex
    single = sum([mask for part, mask in zip(parts, masks) if len(part) == 1])
    total = lcm * lcm * sum([(adj[x] & single).bit_count() for x in set_bits(single)])
    for i, (u, mask_u, m_u) in enumerate(zip(parts, masks, least)):
        # parts no larger than their least qualifying size ⌈ε|U|⌉: only the
        # pair itself qualifies, so a pair of two of them is regular; it is
        # charged the certificate's one cell, |U| + |U'|
        a = len(u)
        whole_u = m_u == a
        row = 0   # Σ e(U, U_j)² scale_j over j >= i, twice for j > i
        for j in range(i, len(parts)):
            v, m_v = parts[j], least[j]
            if whole_u and m_v == len(v):
                budget.charge(a + len(v))
                if a + len(v) == 2:   # two single vertices, summed above
                    continue
                edges = sum([(adj[x] & masks[j]).bit_count() for x in u])
            else:
                edges, found = _pair_kernel(adj, u, v, mask_u, masks[j], m_u, m_v, p, q, budget)
                if found is not None:
                    irregular.append((i, j, found[:2]))
                    block = a * len(v)
                    mass += block if i == j else 2 * block
            row += edges * edges * scales[j] * (1 if i == j else 2)
        total += scales[i] * row
    return irregular, mass, Fraction(total, (lcm * g.n) ** 2)


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
    budget = budget or Budget()
    n = g.n
    pieces = -(-n // exact_cap)
    if pieces > k_max:
        raise RegularityError(f"need at least {pieces} parts to start "
                              f"but k_max={k_max}")
    parts = _initial_chunks(n, pieces)
    energies, bound, rounds = [], eps * n * n, 0

    while True:
        irregular, mass, energy = _survey(g, parts, eps, budget)
        energies.append(energy)
        if mass <= bound:
            return PartitionResult(tuple(parts), "regular", tuple(irregular), mass,
                                   bound, tuple(energies), rounds)
        cuts: dict[int, list[frozenset[int]]] = {}
        for i, j, (wit_a, wit_b) in irregular:
            cuts.setdefault(i, []).append(frozenset(wit_a))
            cuts.setdefault(j, []).append(frozenset(wit_b))
        new_parts: list[tuple[int, ...]] = []
        for idx, part in enumerate(parts):
            cells = [frozenset(part)]
            for cut in cuts.get(idx, ()):
                cells = [piece for cell in cells for piece in (cell & cut, cell - cut) if piece]
            new_parts.extend(tuple(sorted(c)) for c in cells)
        new_parts.sort(key=lambda p: p[0])
        if len(new_parts) > k_max:
            return PartitionResult(tuple(parts), "k-max-exhausted", tuple(irregular),
                                   mass, bound, tuple(energies), rounds)
        rounds += 1
        parts = new_parts


# ---------------------------------------------------------------------------
# Copy counting and removal


def _links(edges) -> dict[int, int]:
    """Each (k−1)-face of the ``edges``, keyed by the bitmask of its
    vertices, mapped to the bitmask of the vertices that complete it to an
    edge."""
    links: dict[int, int] = {}
    for t in edges:
        bits = [1 << v for v in t]
        whole = sum(bits)   # an edge's vertices are distinct
        for bit in bits:
            links[whole ^ bit] = links.get(whole ^ bit, 0) | bit
    return links


def _partial_maps(pattern: Hypergraph, host: Hypergraph, budget: Budget | None):
    """(bits, mask) for each map of the pattern's vertices but the last that
    sends their edges onto host edges, in lexicographic order: ``bits[i]`` is
    1 << the image of vertex i (``bits[-1]`` is 0), and ``mask`` holds the
    last vertex's images that complete the map.  A vertex's candidates
    are the AND of the host links of the other images of the edges it is the
    largest vertex of, else every host vertex.  A face is looked up by the
    sum of its images' bits, their OR when the images are distinct; images
    that collapse carry, so the sum has fewer than k − 1 bits and is no key.
    ``bits`` is reused.  The charge is the worst case, all maps, and at
    least the pattern's vertices, which the search steps through one by one."""
    if pattern.k != host.k:
        raise RegularityError("pattern and host must have the same uniformity")
    budget = budget or Budget()
    if host.n > 1:
        budget.charge_power(host.n, pattern.n)
    else:  # one map at most, of pattern.n vertices
        budget.charge(pattern.n)
    links, every = _links(host.edges), (1 << host.n) - 1
    faces = [[] for _ in range(pattern.n)]   # the rest of each edge, by its largest vertex
    for e in pattern.edges:
        faces[e[-1]].append(e[:-1])
    last = pattern.n - 1
    bits = [0] * pattern.n      # 1 << each assigned vertex's image
    untried = [0] * pattern.n   # each assigned vertex's candidates not yet tried
    image_bit = bits.__getitem__
    i = 0
    while True:
        mask = every   # vertex i's candidates, given the images of 0..i-1
        for face in faces[i]:
            mask &= links.get(sum(map(image_bit, face)), 0)
        if i == last:
            if mask:
                yield bits, mask
            mask = 0
        while not mask:   # back to the last vertex with a candidate left
            i -= 1
            if i < 0:
                return
            mask = untried[i]
        low = mask & -mask
        untried[i] = mask ^ low
        bits[i] = low
        i += 1


def count_copies(pattern: Hypergraph, host: Hypergraph,
                 budget: Budget | None = None) -> int:
    """Number of labeled maps from the pattern's vertices into the host such
    that every pattern edge lands on a host edge (injectivity not required;
    a map collapsing an edge never counts, since the image is too small to
    be an edge): the last vertex's images are counted, not enumerated."""
    return sum(mask.bit_count() for _, mask in _partial_maps(pattern, host, budget))


@dataclass(frozen=True)
class RemovalResult:
    removed: frozenset[tuple[int, ...]]   # host edges, as in Hypergraph.edges
    method: str  # "branch-and-bound" | "greedy" | "none"
    copies_before: int
    copies_after: int
    within_bound: bool | None  # |removed| <= eps * n^k, when eps was given


def _min_hitting_set(constraint_sets: list[frozenset], budget: Budget) -> frozenset:
    """Exact minimum hitting set by branch and bound on the constraint with
    the fewest remaining options; each branch charges the constraints it
    filters before filtering them.  The branches are walked with an explicit
    stack, so the depth of a hitting set is not bounded by recursion."""
    best: frozenset | None = None
    chosen: list = []   # the edge of each open branch
    frames: list = []   # (constraints left, pivot edges not yet tried) per open node

    def lower_bound(remaining):
        # greedy packing of pairwise-disjoint constraints
        used: set = set()
        count = 0
        for c in sorted(remaining, key=len):
            if not (c & used):
                count += 1
                used |= c
        return count

    def open_node(remaining) -> bool:
        """Enter a branch: prune it, record a hitting set, or open a frame."""
        nonlocal best
        if best is not None and len(chosen) + lower_bound(remaining) >= len(best):
            return False
        if not remaining:
            best = frozenset(chosen)
            return False
        pivot = min(remaining, key=len)
        frames.append((remaining, iter(sorted(pivot))))
        return True

    open_node(constraint_sets)
    while frames:
        remaining, edges = frames[-1]
        edge = next(edges, None)
        if edge is None:
            frames.pop()
            if frames:
                chosen.pop()
            continue
        budget.charge(len(remaining))
        chosen.append(edge)
        if not open_node([c for c in remaining if edge not in c]):
            chosen.pop()
    return best


def _greedy_hitting_set(constraint_sets: list[frozenset], budget: Budget) -> frozenset:
    """Greedy hitting set (Chvátal 1979): each round takes the edge in the most
    constraints not yet hit, ties going to the least edge tuple.  Each edge's
    count drops as its constraints are hit, and a heap entry whose count went
    stale is pushed back when it reaches the top, so the work is bounded by
    the incidences, charged once first."""
    budget.charge(sum(map(len, constraint_sets)))
    holders: dict[tuple, list[int]] = {}   # the positions of each edge's constraints
    for i, c in enumerate(constraint_sets):
        for e in c:
            holders.setdefault(e, []).append(i)
    counts = {e: len(held) for e, held in holders.items()}
    heap = [(-count, e) for e, count in counts.items()]
    heapq.heapify(heap)
    hit, chosen = [False] * len(constraint_sets), []
    while heap:
        negated, edge = heapq.heappop(heap)
        if counts[edge] != -negated:   # stale: back in at its count, if any is left
            if counts[edge]:
                heapq.heappush(heap, (-counts[edge], edge))
            continue
        chosen.append(edge)
        for i in holders[edge]:
            if not hit[i]:
                hit[i] = True
                for e in constraint_sets[i]:
                    counts[e] -= 1
    return frozenset(chosen)


BB_CAP = 10 ** 4   # the most copies whose hitting set remove_copies searches exactly


def remove_copies(pattern: Hypergraph, host: Hypergraph, eps=None,
                  budget: Budget | None = None) -> RemovalResult:
    """A set of host edges meeting every copy of the pattern: the exact
    minimum hitting set (branch and bound) when there are at most BB_CAP
    copies, greedy otherwise.  The result always leaves zero copies."""
    if not pattern.edges:
        raise RegularityError("a pattern without edges has copies no edge removal can destroy")
    if eps is not None and Fraction(eps) < 0:
        raise RegularityError("eps must be nonnegative")
    budget = budget or Budget()
    # a copy is the set of its image edges, each as its rank in sorted(host.edges),
    # looked up by its vertices' bitmask; rank order is edge order
    edges = sorted(host.edges)
    rank = {sum(1 << v for v in e): r for r, e in enumerate(edges)}
    closes = [e[-1] == pattern.n - 1 for e in pattern.edges]   # holds the last vertex
    copy_sets: set[frozenset] = set()   # distinct copies, kept as they are found
    before = 0
    for bits, mask in _partial_maps(pattern, host, budget):
        faces = [sum(map(bits.__getitem__, e)) for e in pattern.edges]   # without the last
        for v in set_bits(mask):   # v completes each face it closes, so holds none
            copy_sets.add(frozenset([rank[face | c << v] for face, c in zip(faces, closes)]))
        before += mask.bit_count()
    if not before:
        return RemovalResult(frozenset(), "none", 0, 0,
                             None if eps is None else True)
    unique = sorted(copy_sets, key=sorted)   # each copy by its edges in order
    if before <= BB_CAP:
        ranks = _min_hitting_set(unique, budget)
        method = "branch-and-bound"
    else:
        ranks = _greedy_hitting_set(unique, budget)
        method = "greedy"
    removed = frozenset(edges[r] for r in ranks)
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
    hypergraph: Hypergraph
    parts: tuple[tuple[int, ...], ...]  # vertex ranges X_1..X_{k+1}
    total_copies: int                 # complete-pattern copies, any difference
    trivial_copies: int               # copies with x_{k+1} = sum x_i
    copy_ap_count: int                # copies with x_{k+1} != sum x_i
    direct_ap_count: int              # AP enumeration with multiplicity
    verified: bool


def ap_encode(elements, n: int, k: int, budget: Budget | None = None) -> APEncoding:
    """Encode A ⊆ [1,n] as a (k+1)-partite k-uniform hypergraph whose
    complete-pattern copies with x_{k+1} ≠ x_1 + ... + x_k correspond exactly
    (with multiplicity) to (k+1)-term arithmetic progressions inside A with
    nonzero difference.

    Parts X_1..X_k are copies of [1,n]; X_{k+1} is a copy of [1, k^2 n].
    The k-set omitting X_{k+1} is an edge iff sum of i*x_i lies in A; the
    k-set omitting X_i is an edge iff sum over j≠i of (j−i)*x_j + i*x_{k+1}
    lies in A.  Each family is built by solving its sum for one coordinate,
    x_1 or x_{k+1}, with coefficient c: for each tuple of the other
    coordinates, with partial sum p, only the a ∈ A with a ≡ p (mod c) and
    c·x = a − p in range solve it, and two bisections find them in A's
    residue class.  Each edge is built as its vertex tuple in part order,
    which is sorted, since the parts are ascending ranges.  Both counters
    below are computed independently, from the hypergraph's edges and from
    A, and compared: the first reads only the links of the faces of the
    edges that end in X_{k+1}, so only those are built, and the second
    lists each a's steps d once.
    """
    if n < 1:
        raise RegularityError("n must be >= 1")
    a_set = frozenset(elements)
    if not all(1 <= x <= n for x in a_set):
        raise RegularityError("elements must lie in [1, n]")
    if k < 1:
        raise RegularityError("k must be >= 1")
    big = k * k * n
    n_vertices = k * n + big
    (budget or Budget()).charge_power(n, k, big)

    # (part solved for, its coefficient, its largest value, (part, coefficient)
    # of the k − 1 others) for each edge family
    families = [(1, 1, n, [(j, j) for j in range(2, k + 1)])]
    families += [(k + 1, i, big, [(j, j - i) for j in range(1, k + 1) if j != i])
                 for i in range(1, k + 1)]
    # A's elements by residue modulo each coefficient, each class ascending:
    # the a that solve coeff·x = a − partial with 1 <= x <= top are those of
    # the class of partial mod coeff in [partial + coeff, partial + coeff·top]
    ordered = sorted(a_set)
    classes = {c: [[a for a in ordered if a % c == r] for r in range(c)]
               for c in range(1, k + 1)}
    # an edge's tuple has the solved part first (X_1) or last (X_{k+1}); the
    # vertex of value x in part j is (j − 1)·n + x − 1, its part's offset
    # (j − 1)·n − 1 plus x.  No edge is built twice: the families cover
    # different parts, and within one, a fixes x.  An edge ending in X_{k+1}
    # also links its first k − 1 vertices, as a face, to that vertex, as bit
    # x − 1: counter one reads only these links.
    inner, outer = [], []   # the edges avoiding X_{k+1}, and the rest
    links: dict[tuple[int, ...], int] = {}
    for solved, coeff, top, others in families:
        first, offset = solved == 1, (solved - 1) * n - 1
        faces = [(0, ())]   # (partial sum, vertex tuple) for each tuple of the others' values
        for j, c in others:
            base = (j - 1) * n - 1
            faces = [(p + c * x, f + (base + x,)) for p, f in faces for x in range(1, n + 1)]
        residues = classes[coeff]
        for partial, rest in faces:
            row = residues[partial % coeff]
            lo = bisect.bisect_left(row, partial + coeff)
            hits = row[lo:bisect.bisect_right(row, partial + coeff * top, lo)]
            if not hits:
                continue
            if first:
                inner += [(a - partial + offset,) + rest for a in hits]
            else:
                ends = [(a - partial) // coeff for a in hits]
                outer += [rest + (offset + x,) for x in ends]
                links[rest] = sum([1 << x - 1 for x in ends])   # distinct bits
    hg = Hypergraph(n_vertices, k, frozenset(inner + outer))
    parts = tuple(tuple(range((i - 1) * n, i * n)) for i in range(1, k + 1)) + \
        (tuple(range(k * n, k * n + big)),)

    # Counter one, from the inner edges and the links alone: for each edge
    # avoiding X_{k+1}, the X_{k+1} vertices completing all k of its faces,
    # and whether x_{k+1} = sum x_i (bit sum x_i − 1) is one of them.
    total = trivial = 0
    for t in inner:
        common = links.get(t[1:], 0)
        for i in range(1, k):
            common &= links.get(t[:i] + t[i + 1:], 0)
        total += common.bit_count()
        trivial += common >> (sum(t) - n * k * (k - 1) // 2 + k - 1) & 1
    copy_count = total - trivial

    # Counter two: direct AP enumeration with the representation multiplicity
    # r(a, d) = #{x in [1,n]^k : sum i*x_i = a and sum x_i + d in [1, k^2 n]},
    # from the number of x with each (sum i*x_i, sum x_i), a coordinate at a
    # time; a weighted sum past n stays past it, so it is dropped.
    reps = {(0, 0): 1}
    for i in range(1, k + 1):
        nxt: dict[tuple[int, int], int] = {}
        for (w, s), c in reps.items():
            for x in range(1, min(n, (n - w) // i) + 1):
                key = (w + i * x, s + x)
                nxt[key] = nxt.get(key, 0) + c
        reps = nxt
    # each a's nonzero steps d, ascending, with a + i·d in A for i = 1..k
    # (a + k·d must lie in [1, n])
    steps = {a: [d for d in range(-((a - 1) // k), (n - a) // k + 1)
                 if d and all(a + i * d in a_set for i in range(1, k + 1))] for a in a_set}
    direct = 0
    for (a_val, s), c in reps.items():
        if a_val in a_set:   # the steps d with 1 <= s + d <= k²n
            ds = steps[a_val]
            direct += c * (bisect.bisect_right(ds, big - s) - bisect.bisect_left(ds, 1 - s))

    return APEncoding(hg, parts, total, trivial, copy_count, direct, copy_count == direct)


# ---------------------------------------------------------------------------
# File formats


# A pair file of the common shape, converted in bulk: the header "graph <n>"
# or "hypergraph <n> 2", then lines each blank or one edge of two unsigned
# decimal integers, and no comment.
_PLAIN_PAIRS = re.compile(r"\s*(?:graph[ \t]+[0-9]+|hypergraph[ \t]+[0-9]+[ \t]+2)"
                          r"(?:[ \t\r]*\n(?:[ \t]*[0-9]+[ \t]+[0-9]+)?)*\s*")


def _parse_edges(text: str, kind: str, budget: Budget | None = None):
    """n, k and the edges of a "graph <n>" or "hypergraph <n> <k>" file: one
    edge per line, each k distinct vertices in [0, n) (k = 2 for a graph).
    A plain pair file's vertices are read in bulk by DataWords.elements.  A
    format error is a ParseError at a word that is no numeral, else at the
    first word of its line, found by reading the rows one by one, as are the
    files the bulk read refuses."""
    d = DataWords(text)
    plain = _PLAIN_PAIRS.fullmatch(text)
    header = d.words[:2 if kind == "graph" else 3] if plain else (d.rows or [[]])[0]
    usage = "graph <n>" if kind == "graph" else "hypergraph <n> <k>"
    shape = f"{kind} file must start with '{usage}' (positive numbers)"
    if header[:1] != [kind] or len(header) != (2 if kind == "graph" else 3):
        raise d.error(shape, 0)
    n, k = d.read(1, integer, shape), d.read(2, integer, shape) if kind == "hypergraph" else 2
    if n < 1 or k < 1:
        raise d.error(shape, 0)
    # before an n-vertex graph is built: n, and a graph's n·⌈n/64⌉ adjacency words
    (budget or Budget()).charge(n * (1 + (-(-n // 64) if kind == "graph" else 0)))
    if plain:
        vs = d.elements(len(header), len(d.words), n)
        if vs is not None:
            us, ws = vs[::2], vs[1::2]
            if all(map(operator.ne, us, ws)):
                return n, k, list(zip(us, ws))
    edges = []
    first = len(header)  # the index of the row's first word
    for body in d.rows[1:]:
        if len(body) != k:
            raise d.error(f"expected {k} vertices", first)
        vs = [d.read(i, integer, "bad vertex") for i in range(first, first + k)]
        if len(set(vs)) != k or min(vs) < 0 or max(vs) >= n:
            raise d.error(f"expected {k} distinct vertices in [0, {n}), "
                          f"got {' '.join(body)!r}", first)
        edges.append(vs)
        first += k
    return n, k, edges


def parse_graph(text: str, budget: Budget | None = None) -> Graph:
    """Parse "graph <n>" followed by one "u v" edge per line."""
    n, _, pairs = _parse_edges(text, "graph", budget)
    return Graph(n, _adjacency(n, pairs))


def parse_hypergraph(text: str, budget: Budget | None = None) -> Hypergraph:
    """Parse "hypergraph <n> <k>" followed by one k-set of vertices per line."""
    n, k, rows = _parse_edges(text, "hypergraph", budget)   # each row's vertices as written
    return Hypergraph(n, k, frozenset(tuple(sorted(row)) for row in rows))
