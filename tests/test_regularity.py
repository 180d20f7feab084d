"""Density, regular pairs, energy-increment partitions, copy counting, removal."""

import collections
import dataclasses
import itertools
import random
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from aml import regularity
from aml.regularity import (
    APEncoding,
    Graph,
    Hypergraph,
    RegularityError,
    RegularityVerdict,
    _degree_certificate,
    ap_encode,
    count_copies,
    density,
    is_epsilon_regular,
    parse_graph,
    parse_hypergraph,
    regularity_partition,
    remove_copies,
    validate_witness,
)
from aml.parser import ParseError, SourceSpan
from aml.semantics import Budget, BudgetExceeded
from aml.structures import set_bits
from oracle import (ap_encode_by_scan, degree_certificate_by_scan, degree_into,
                    greedy_hitting_set_by_recount, is_epsilon_regular_by_subsets,
                    partition_energy_by_fractions, regular_by_enumeration,
                    regularity_partition_by_checks)

DATA = Path(__file__).parent / "data"

QUARTER = Fraction(1, 4)

# the staircase: left vertex i joined to right vertex 6+j exactly when i >= j
HALF = Graph.from_edges(12, [(i, 6 + j) for i in range(6) for j in range(6) if i >= j])
LEFT = tuple(range(6))
RIGHT = tuple(range(6, 12))

C4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])

TRIANGLE = Hypergraph.from_edges(3, 2, [(0, 1), (1, 2), (0, 2)])
TWO_TRIANGLES = Hypergraph.from_edges(6, 2, [(0, 1), (1, 2), (0, 2),
                                             (3, 4), (4, 5), (3, 5)])


# -- graphs ---------------------------------------------------------------------

def test_graph_rejects_self_loops_and_range():
    with pytest.raises(RegularityError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(RegularityError):
        Graph.from_edges(3, [(0, 3)])


def test_graph_is_its_adjacency_masks():
    assert [f.name for f in dataclasses.fields(Graph)] == ["n", "adj"]
    assert C4 == Graph(4, (0b1010, 0b0101, 0b1010, 0b0101))
    with pytest.raises(RegularityError, match=r"^graph needs at least one vertex$"):
        Graph.from_edges(0, [])
    with pytest.raises(RegularityError, match=r"^edge \[0, 1, 2\] is not an unordered pair$"):
        Graph.from_edges(3, [(0, 1), (0, 1, 2)])


def test_hypergraph_from_edges_checks_every_edge():
    for n, k, edges, message in [(0, 2, [], r"need n >= 1 and k >= 1"),
                                 (3, 0, [], r"need n >= 1 and k >= 1"),
                                 (3, 2, [(0, 1), (2,)], r"edge \[2\] is not a 2-set"),
                                 (3, 2, [(1, 1)], r"edge \[1\] is not a 2-set"),
                                 (3, 2, [(0, 3)], r"edge \[0, 3\] out of range"),
                                 (3, 2, [(-1, 0)], r"edge \[-1, 0\] out of range")]:
        with pytest.raises(RegularityError, match=f"^{message}$"):
            Hypergraph.from_edges(n, k, edges)
    # each edge is kept as the ascending tuple of its vertices
    assert Hypergraph.from_edges(3, 2, [(2, 0)]).edges == {(0, 2)}
    assert Hypergraph.from_edges(4, 3, [[3, 1, 2], {0, 3, 1}]).edges == {(1, 2, 3), (0, 1, 3)}


def test_graph_adjacency_is_symmetric():
    assert HALF.adj[3] >> 8 & 1 and HALF.adj[8] >> 3 & 1  # 3 >= 2
    assert not HALF.adj[2] >> 9 & 1                        # 2 < 3
    assert degree_into(HALF, 6, (1 << 6) - 1) == 6        # right vertex 6: all of left


def test_density_values():
    assert density(HALF, LEFT, RIGHT) == Fraction(7, 12)  # 21 of 36 pairs
    assert density(C4, range(4), range(4)) == Fraction(1, 2)
    assert density(C4, (0,), (1,)) == 1
    assert density(C4, (0,), (2,)) == 0
    with pytest.raises(RegularityError):
        density(C4, (), (0,))


def test_density_rejects_repeated_vertices():
    # (5,) against (6, 6) would count the edge 5-6 once over 1 x 2 cells
    repeated = "^vertex sets must not repeat a vertex$"
    with pytest.raises(RegularityError, match=repeated):
        density(HALF, (5,), (6, 6))
    with pytest.raises(RegularityError, match=repeated):
        density(HALF, (5, 5), (6,))
    with pytest.raises(RegularityError, match=repeated):
        is_epsilon_regular(HALF, (0, 0, 1), RIGHT, QUARTER)


PATH4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])


@pytest.mark.parametrize("check, vertex", [
    (lambda: density(PATH4, (0, 1), (2, 7)), 7),
    (lambda: density(PATH4, (-1, 1), (2, 3)), -1),
    (lambda: is_epsilon_regular(PATH4, (0, 9), (1, 2), QUARTER), 9),
    (lambda: is_epsilon_regular(PATH4, (0, -1), (1, 2), QUARTER), -1),
    (lambda: is_epsilon_regular(PATH4, (0, 1), (2, 4), QUARTER), 4),
], ids=["density-past-n", "density-negative", "pair-past-n", "pair-negative", "pair-n"])
def test_vertices_out_of_range_are_named(check, vertex):
    # 7 counted as a non-neighbour (density 1/4), 9 raised IndexError and -1
    # ValueError: negative shift count
    with pytest.raises(RegularityError, match=rf"^vertex {vertex} out of range 0\.\.3$"):
        check()


# -- regular pairs -----------------------------------------------------------------

def test_complete_bipartite_pair_is_regular():
    g = Graph.from_edges(8, [(i, 4 + j) for i in range(4) for j in range(4)])
    v = is_epsilon_regular(g, range(4), range(4, 8), QUARTER)
    assert v.regular
    assert v.base_density == 1
    assert v.witness is None


def test_staircase_pair_is_irregular_with_frozen_witness():
    v = is_epsilon_regular(HALF, LEFT, RIGHT, QUARTER)
    assert not v.regular
    assert v.base_density == Fraction(7, 12)
    assert v.witness == ((0, 1), (10, 11))
    assert v.witness_density == 0
    assert validate_witness(HALF, LEFT, RIGHT, QUARTER, v.witness)


def test_witness_validation_rules():
    w = ((0, 1), (10, 11))
    assert not validate_witness(HALF, LEFT, RIGHT, Fraction(2, 3), w)   # too small now
    assert not validate_witness(HALF, LEFT, RIGHT, QUARTER, ((0, 99), (10, 11)))
    # a balanced sub-pair whose density matches the base is no witness
    assert not validate_witness(HALF, LEFT, RIGHT, QUARTER, (LEFT, RIGHT))
    # ({0}, {11}) is below the 6/4 size threshold, however often a vertex repeats
    assert not validate_witness(HALF, LEFT, RIGHT, QUARTER, ((0, 0), (11, 11)))
    assert not validate_witness(HALF, LEFT, RIGHT, QUARTER, ((0, 1, 1), (10, 11)))
    assert not validate_witness(HALF, LEFT, RIGHT, QUARTER, ((0, 1), (11, 11)))


def test_exact_check_charges_its_subsets():
    budget = Budget()
    is_epsilon_regular(HALF, LEFT, RIGHT, QUARTER, budget=budget)
    # the certificate's 5 x 5 cells (sizes 2..6) times 6 + 6, then the subsets
    # of the 6-vertex side
    assert budget.used == 5 * 5 * 12 + (1 << 6)
    with pytest.raises(BudgetExceeded):
        is_epsilon_regular(HALF, LEFT, RIGHT, QUARTER, budget=Budget(5 * 5 * 12 + 63))


def test_singleton_pair_is_charged_its_one_cell():
    budget = Budget()
    assert is_epsilon_regular(C4, (0,), (1,), QUARTER, budget=budget).regular
    assert budget.used == 2
    # the survey settles singleton pairs without a check, at the same charge:
    # three pairs of the two one-vertex parts
    budget = Budget()
    res = regularity_partition(Graph.from_edges(2, [(0, 1)]), QUARTER, exact_cap=1,
                               budget=budget)
    assert (res.status, res.irregular_pairs, budget.used) == ("regular", (), 3 * 2)


def test_singleton_side_is_decided_by_its_one_scan():
    # vertex 0 of the staircase sees only 6; the certificate's 5 cells (sizes
    # 1 x 2..6) times 1 + 6, then the 2 subsets of the one-vertex side: its
    # exact row bounds fail only when a witness exists, and the scan finds it
    for u, v, swapped in (((0,), RIGHT, False), (RIGHT, (0,), True)):
        budget = Budget()
        verdict = is_epsilon_regular(HALF, u, v, QUARTER, budget=budget)
        assert verdict == regular_by_enumeration(HALF, u, v, QUARTER)
        assert verdict.witness == (((6, 7), (0,)) if swapped else ((0,), (6, 7)))
        assert budget.used == 5 * 7 + 2
        with pytest.raises(BudgetExceeded):
            is_epsilon_regular(HALF, u, v, QUARTER, budget=Budget(5 * 7 + 1))
    budget = Budget(5 * 7)   # vertex 5 sees all of the right side: regular, no subsets
    assert is_epsilon_regular(HALF, (5,), RIGHT, QUARTER, budget=budget).regular


def test_eps_out_of_range():
    with pytest.raises(RegularityError):
        is_epsilon_regular(C4, (0, 1), (2, 3), Fraction(3, 2))


def _m_min(eps, part):
    """The least qualifying subset size, max(1, ⌈eps·|part|⌉)."""
    return max(1, -(-eps.numerator * len(part) // eps.denominator))


def _certified(g, u, v, eps):
    """The degree certificate of ``aml.regularity`` on (u, v): its one cell,
    the row half first."""
    mask_u = sum(1 << x for x in u)
    rows = sorted((degree_into(g, x, sum(1 << y for y in v)) for x in u), reverse=True)
    s, t = _m_min(eps, u), _m_min(eps, v)
    edges, cells, p, q = sum(rows), len(u) * len(v), eps.numerator, eps.denominator
    test = q * cells, (q * edges + p * cells) * s * t, (q * edges - p * cells) * s * t
    return _degree_certificate(g.adj, rows, tuple(v), mask_u, s, t, test)


def _pair_graph(rng, a, b, kind, same):
    """A graph holding the pair (U, V), |U| = a, |V| = b: V = U when ``same``,
    else the next b vertices.  "planted" pairs are complete (or, within one
    part, empty) with about 5% of the pairs flipped; "random" ones are G(n, p)."""
    n = a if same else a + b
    p = rng.choice((0.2, 0.5, 0.8))
    edges = []
    for x in range(n):
        for y in range(x + 1, n):
            planted = not same and x < a <= y
            flip = rng.random() < (0.05 if kind == "planted" else p)
            if flip != (kind == "planted" and planted):
                edges.append((x, y))
    u = tuple(range(a))
    return Graph.from_edges(n, edges), u, u if same else tuple(range(a, a + b))


EPS_CHOICES = (Fraction(1, 2), Fraction(1, 3), QUARTER, Fraction(1, 5), Fraction(1, 8),
               Fraction(2, 5), Fraction(3, 7), Fraction(1, 10))


def _assert_matches_enumeration(g, u, v, eps):
    """The certificate never calls an irregular pair regular, and the full
    check returns the enumeration's verdict, witness and witness density.
    The enumeration's first witness has the least qualifying size on each
    side, whatever the check does."""
    certified = _certified(g, u, v, eps)
    want = regular_by_enumeration(g, u, v, eps)
    assert not certified or want.regular
    assert is_epsilon_regular(g, u, v, eps) == want
    if not want.regular:
        assert tuple(map(len, want.witness)) == (_m_min(eps, u), _m_min(eps, v))
    return certified


def test_certificate_and_check_match_enumeration_seeded():
    rng = random.Random(2024)
    certified = 0
    for case in range(120):
        a, b = rng.randint(1, 10), rng.randint(1, 10)
        kind = ("planted", "random")[case % 2]
        g, u, v = _pair_graph(rng, a, b, kind, same=case % 5 == 0)
        certified += _assert_matches_enumeration(g, u, v, EPS_CHOICES[case % 8])
    assert certified >= 20   # the certificate settles a good share of these pairs


@given(st.integers(1, 10), st.integers(1, 10), st.sampled_from(("planted", "random")),
       st.booleans(), st.sampled_from(EPS_CHOICES), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_certificate_and_check_match_enumeration(a, b, kind, same, eps, rng):
    g, u, v = _pair_graph(rng, a, b, kind, same)
    _assert_matches_enumeration(g, u, v, eps)


def _assert_matches_the_subset_oracle(g, u, v, eps):
    """Verdict, witness, witness density and charge as the all-cells,
    all-subsets check has them."""
    want_budget, got_budget = Budget(), Budget()
    want = is_epsilon_regular_by_subsets(g, u, v, eps, budget=want_budget)
    assert (is_epsilon_regular(g, u, v, eps, budget=got_budget), got_budget.used) == \
        (want, want_budget.used)
    return want.regular


def test_pair_check_matches_the_subset_oracle_seeded():
    rng = random.Random(22)
    regular = 0
    for case in range(2400):
        a, b = (15, rng.randint(12, 15)) if case % 397 == 0 else \
            (rng.randint(1, 12), rng.randint(1, 12))
        g, u, v = _pair_graph(rng, a, b, ("planted", "random")[case % 2],
                              same=case % 5 == 0)
        regular += _assert_matches_the_subset_oracle(g, u, v, EPS_CHOICES[case % 8])
    assert 600 <= regular <= 1800   # both verdicts are well represented


@given(st.integers(1, 12), st.integers(1, 12), st.sampled_from(("planted", "random")),
       st.booleans(), st.sampled_from(EPS_CHOICES), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_pair_check_matches_the_subset_oracle(a, b, kind, same, eps, rng):
    g, u, v = _pair_graph(rng, a, b, kind, same)
    _assert_matches_the_subset_oracle(g, u, v, eps)


def test_pair_check_matches_the_subset_oracle_on_every_tiny_pair():
    # parts of at most 3 vertices make up most of a survey's checks, and
    # their one-vertex sides are settled by the certificate's rows alone: every
    # cross-adjacency of disjoint parts of sizes 1-3, which interleave, and
    # every graph on one part of 2-4 vertices, at each eps
    checked = 0
    for a, b in itertools.product((1, 2, 3), repeat=2):
        u, v = (0, 3, 4)[:a], (1, 2, 5)[:b]
        cross = list(itertools.product(u, v))
        for bits in range(1 << len(cross)):
            g = Graph.from_edges(6, [e for i, e in enumerate(cross) if bits >> i & 1])
            for eps in EPS_CHOICES:
                _assert_matches_the_subset_oracle(g, u, v, eps)
            checked += 1
    for size in (2, 3, 4):
        u = tuple(range(size))
        pairs = list(itertools.combinations(u, 2))
        for bits in range(1 << len(pairs)):
            g = Graph.from_edges(size, [e for i, e in enumerate(pairs) if bits >> i & 1])
            for eps in EPS_CHOICES:
                _assert_matches_the_subset_oracle(g, u, u, eps)
            checked += 1
    assert checked == 682 + 2 + 8 + 64


def test_pair_check_matches_the_subset_oracle_at_the_widest_one_vertex_searches():
    # a smaller side of 4-10 vertices whose least qualifying size is still 1
    # (eps·size <= 1) is searched one vertex at a time, off its rows; the
    # pairs come in both orders, so either side is the one searched
    rng = random.Random(25)
    outcomes = collections.Counter()
    for case in range(400):
        eps = (QUARTER, Fraction(1, 5), Fraction(1, 8), Fraction(1, 10))[case % 4]
        small = rng.randint(4, eps.denominator)
        a, b = small, rng.randint(small, 15)
        if case // 4 % 2:
            a, b = b, a
        g, u, v = _pair_graph(rng, a, b, ("planted", "random")[case // 8 % 2], same=False)
        assert _m_min(eps, u if a <= b else v) == 1
        certified = _certified(g, u, v, eps)
        regular = _assert_matches_the_subset_oracle(g, u, v, eps)
        outcomes["certified" if certified else "regular" if regular else "witness"] += 1
    # at m = 1 the certificate is exact, so the search runs only when a
    # witness exists: on most of these pairs
    assert outcomes["witness"] >= 300 and outcomes["certified"] >= 10, outcomes
    assert not outcomes["regular"]


def _partition_runs(seed, count):
    """(graph, eps, cap, k_max): G(n, p) graphs at three densities and
    planted ones, whose blocks are joined at densities drawn from 0.1 and
    0.9, at several eps and part-size caps; every other pair of runs allows
    two parts more than it starts with, so some stop at k_max."""
    rng = random.Random(seed)
    runs = []
    for case in range(count):
        n = rng.randint(10, 30)
        if case % 2:
            block = [rng.randrange(rng.randint(2, 4)) for _ in range(n)]
            levels = {}
            p = lambda x, y: levels.setdefault((block[x], block[y]), rng.choice((0.1, 0.9)))
        else:
            p = lambda x, y, level=(0.15, 0.5, 0.85)[case // 2 % 3]: level
        g = Graph.from_edges(n, [(x, y) for x in range(n) for y in range(x + 1, n)
                                 if rng.random() < p(x, y)])
        eps = (Fraction(1, 3), QUARTER, Fraction(1, 5), Fraction(2, 5))[case % 4]
        cap = rng.randint(4, 11)
        runs.append((g, eps, cap, 64 if case % 4 < 2 else -(-n // cap) + 2))
    return runs


def test_partition_is_unchanged_with_the_subset_oracle():
    # the survey's kernel against the reference survey, which checks every
    # pair through the public entry or the all-subsets oracle: the same
    # result, total charge and counters
    seen = collections.Counter()
    for g, eps, cap, k_max in _partition_runs(23, 16):
        got_budget, want_budget, oracle_budget = Budget(), Budget(), Budget()
        got = regularity_partition(g, eps, k_max, cap, got_budget)
        assert got == regularity_partition_by_checks(g, eps, k_max, cap, want_budget)
        assert (got_budget.used, got_budget.counts) == (want_budget.used, want_budget.counts)
        assert got == regularity_partition_by_checks(g, eps, k_max, cap, oracle_budget,
                                                     check=is_epsilon_regular_by_subsets)
        assert got_budget.used == oracle_budget.used
        seen[got.status] += 1
        seen["refined"] += got.rounds > 0
    assert seen["regular"] and seen["k-max-exhausted"] and seen["refined"], seen


WIDE_EPS = (Fraction(1, 2), Fraction(2, 3), Fraction(3, 4))


def _wide_eps_runs(seed, count):
    """_partition_runs' graphs at eps 1/2, 2/3 and 3/4 with part-size caps of
    2-4, so that whole parts of two or three vertices (no larger than their
    least qualifying size) are surveyed from the first round on; every other
    pair of runs allows two parts more than it starts with."""
    return [(g, WIDE_EPS[case % 3], 2 + case % 3,
             64 if case % 4 < 2 else -(-g.n // (2 + case % 3)) + 2)
            for case, (g, _, _, _) in enumerate(_partition_runs(seed, count))]


def _assert_energy_log(g, eps, cap, k_max):
    """The survey's energy of every round is the Fraction sum of that round's
    parts, as the reference refines them; returns the result and the parts of
    each round."""
    rounds = []
    got = regularity_partition(g, eps, k_max, cap)
    assert got == regularity_partition_by_checks(g, eps, k_max, cap, rounds_parts=rounds)
    assert got.energy_log == tuple([partition_energy_by_fractions(g, parts) for parts in rounds])
    return got, rounds


def test_energy_log_is_each_rounds_partition_energy_seeded():
    seen = collections.Counter()
    for g, eps, cap, k_max in _partition_runs(43, 16) + _wide_eps_runs(47, 24):
        got, rounds = _assert_energy_log(g, eps, cap, k_max)
        seen[got.status, eps >= Fraction(1, 2)] += 1
        seen["refined", eps >= Fraction(1, 2)] += got.rounds > 0
        seen["whole parts of 2-3 vertices"] += any(
            1 < len(part) == _m_min(eps, part) for parts in rounds for part in parts)
    assert seen["k-max-exhausted", False] and seen["k-max-exhausted", True], seen
    assert seen["refined", False] and seen["refined", True], seen
    assert seen["whole parts of 2-3 vertices"] >= 5, seen


@given(st.integers(1, 20), st.sampled_from(EPS_CHOICES + WIDE_EPS), st.integers(1, 6),
       st.booleans(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_energy_log_is_each_rounds_partition_energy(n, eps, cap, tight, rng):
    density = rng.random()
    g = Graph.from_edges(n, [(x, y) for x in range(n) for y in range(x + 1, n)
                             if rng.random() < density])
    _assert_energy_log(g, eps, cap, -(-n // cap) + 1 if tight else 64)


def _kernel_check(seen):
    """A ``check`` for the reference survey that decides every pair with the
    kernel too, with its own budget, and asserts the same base density,
    witness, witness density and charge as the all-subsets oracle, one pair
    check counted and one irregular pair when there is a witness.  ``seen``
    counts the pairs by (the smaller side's m is 1, verdict)."""

    def compared(g, u, v, eps, exact_cap, budget):
        want_budget, got_budget = Budget(), Budget()
        want = is_epsilon_regular_by_subsets(g, u, v, eps, budget=want_budget)
        m_u, m_v = _m_min(eps, u), _m_min(eps, v)
        edges, found = regularity._pair_kernel(
            g.adj, u, v, sum(1 << x for x in u), sum(1 << y for y in v), m_u, m_v,
            eps.numerator, eps.denominator, got_budget)
        assert Fraction(edges, len(u) * len(v)) == want.base_density
        assert found == (None if want.regular else
                         (*want.witness, want.witness_density * m_u * m_v))
        assert got_budget.used == want_budget.used
        assert got_budget.counts == {"regularity.pair_checks": 1,
                                     **({} if want.regular else {"regularity.irregular_pairs": 1})}
        budget.charge(want_budget.used)
        seen[(m_u if len(u) <= len(v) else m_v) == 1, want.regular] += 1
        return want

    return compared


def test_survey_kernel_matches_the_subset_oracle_on_every_pair():
    # every pair of every round of the reference survey
    seen = collections.Counter()
    for g, eps, cap, k_max in _partition_runs(29, 16):
        regularity_partition_by_checks(g, eps, k_max, cap, check=_kernel_check(seen))
    assert seen[False, True] >= 10 and seen[False, False] >= 40, seen
    assert seen[True, True] + seen[False, True] >= 100, seen
    assert seen[True, False] + seen[False, False] >= 100, seen


def test_the_vertex_scan_alone_matches_the_subset_oracle_on_every_pair():
    # a pair whose smaller side has m = 1 is decided by the vertex scan
    # alone, and its subsets are charged only with a witness: every such
    # pair of every round of seeded partitions, at eps below 1/2 and from
    # 1/2 on, against the all-subsets oracle
    seen = collections.Counter()
    for g, eps, cap, k_max in _partition_runs(37, 12) + _wide_eps_runs(41, 12):
        regularity_partition_by_checks(g, eps, k_max, cap, check=_kernel_check(seen))
    assert seen[True, True] >= 100 and seen[True, False] >= 100, seen


def _certified_by_scan(g, u, v, eps):
    return degree_certificate_by_scan(g, u, v, density(g, u, v), eps, _m_min(eps, u),
                                      _m_min(eps, v))


CERTIFICATE_EPS = (Fraction(1, 2), Fraction(1, 3), QUARTER, Fraction(1, 5), Fraction(1, 8))


def test_certificate_matches_the_cell_by_cell_scan_seeded():
    rng = random.Random(31)
    certified = 0
    for case in range(400):
        a, b = rng.randint(1, 14), rng.randint(1, 14)
        g, u, v = _pair_graph(rng, a, b, ("planted", "random")[case % 2], same=case % 3 == 0)
        eps = CERTIFICATE_EPS[case % 5]
        got = _certified(g, u, v, eps)
        assert got == _certified_by_scan(g, u, v, eps), (case, a, b, eps)
        certified += got
    assert 50 <= certified <= 350   # both verdicts are well represented


@given(st.integers(1, 14), st.integers(1, 14), st.sampled_from(("planted", "random")),
       st.booleans(), st.sampled_from(CERTIFICATE_EPS), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_certificate_matches_the_cell_by_cell_scan(a, b, kind, same, eps, rng):
    g, u, v = _pair_graph(rng, a, b, kind, same)
    assert _certified(g, u, v, eps) == _certified_by_scan(g, u, v, eps)


def test_a_twenty_vertex_pair_is_searched_at_its_least_sizes():
    # complete between the halves, 10% of the pairs flipped: regular at
    # eps = 1/3, and the certificate leaves it open, so the check reads the
    # C(20, 7) = 77,520 seven-subsets of the left half, charged as all 2^20
    # subsets; a search over every subset would take seconds
    rng = random.Random(3)
    g = Graph.from_edges(40, [(x, y) for x in range(20) for y in range(20, 40)
                              if rng.random() >= 0.1])
    u, v, eps = range(20), range(20, 40), Fraction(1, 3)
    assert not _certified(g, tuple(u), tuple(v), eps)
    budget = Budget()
    start = time.perf_counter()
    verdict = is_epsilon_regular(g, u, v, eps, exact_cap=20, budget=budget)
    elapsed = time.perf_counter() - start
    assert verdict.regular
    assert budget.used == 14 * 14 * 40 + (1 << 20) == 1_056_416
    assert elapsed < 2.0


def test_certified_pairs_charge_no_subsets():
    complete = Graph.from_edges(20, [(i, 10 + j) for i in range(10) for j in range(10)])
    budget = Budget(8 * 8 * 20)  # the certificate's cells (sizes 3..10) times 10 + 10
    assert is_epsilon_regular(complete, range(10), range(10, 20), QUARTER,
                              budget=budget).regular
    assert budget.used == 8 * 8 * 20
    with pytest.raises(BudgetExceeded):
        is_epsilon_regular(complete, range(10), range(10, 20), QUARTER,
                           budget=Budget(8 * 8 * 20 - 1))


# -- partitions ------------------------------------------------------------------------

G16 = parse_graph((DATA / "g16.graph").read_text())


def test_partition_energy_of_frozen_graph():
    # the first round surveys the initial chunks: one part at cap 16, two at 8
    whole = regularity_partition(G16, QUARTER, exact_cap=16).energy_log[0]
    halves = regularity_partition(G16, QUARTER, exact_cap=8).energy_log[0]
    assert whole == partition_energy_by_fractions(G16, [tuple(range(16))])
    assert halves == partition_energy_by_fractions(G16, [tuple(range(8)), tuple(range(8, 16))])
    assert whole <= halves   # refinement never loses energy


def test_regularity_partition_frozen_run():
    res = regularity_partition(G16, QUARTER)
    assert res.status == "regular"
    assert res.rounds == 2
    assert res.energy_log == (Fraction(1801, 8192), Fraction(577, 2048),
                              Fraction(59, 128))
    assert res.irregular_mass == 0
    assert res.mass_bound == 64


def test_partition_invariants_on_seeded_graphs():
    rng = random.Random(99)
    for _ in range(6):
        n = rng.randint(12, 20)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.5]
        g = Graph.from_edges(n, edges)
        eps = rng.choice((Fraction(1, 3), QUARTER))
        res = regularity_partition(g, eps)
        # parts partition the vertex set
        seen = sorted(v for p in res.parts for v in p)
        assert seen == list(range(n))
        # energy strictly increases with the guaranteed increment
        for a, b in zip(res.energy_log, res.energy_log[1:]):
            assert b - a >= eps ** 5 / 16
        # every reported witness re-validates
        for i, j, w in res.irregular_pairs:
            assert validate_witness(g, res.parts[i],
                                    res.parts[j], eps, w)
        if res.status == "regular":
            assert res.irregular_mass <= eps * n * n


@pytest.mark.parametrize("g, eps, cap, used, shape", [
    (G16, QUARTER, 15, 4334, ("regular", 2, 16)),
    (_pair_graph(random.Random(5), 15, 15, "planted", False)[0], QUARTER, 10, 16536,
     ("regular", 2, 27)),
    (_pair_graph(random.Random(6), 18, 18, "random", False)[0], Fraction(1, 3), 12, 40574,
     ("regular", 2, 36)),
], ids=["g16", "planted", "random"])
def test_partition_charge_is_pinned(g, eps, cap, used, shape):
    budget = Budget()
    res = regularity_partition(g, eps, exact_cap=cap, budget=budget)
    assert (res.status, res.rounds, len(res.parts)) == shape
    assert budget.used == used


def test_partition_charges_its_pair_checks():
    budget = Budget()
    regularity_partition(G16, QUARTER, budget=budget)
    assert regularity_partition(G16, QUARTER, budget=Budget(budget.used)).status == "regular"
    with pytest.raises(BudgetExceeded):
        regularity_partition(G16, QUARTER, budget=Budget(budget.used - 1))


def test_exact_cap_bounds_the_parts():
    stair = Graph.from_edges(32, [(i, 16 + j) for i in range(16) for j in range(16) if i >= j])
    with pytest.raises(RegularityError):
        is_epsilon_regular(stair, range(16), range(16, 32), QUARTER)   # over the cap of 15
    for cap in (0, -1):
        with pytest.raises(RegularityError):
            regularity_partition(G16, QUARTER, exact_cap=cap)


def test_partition_rejects_bad_eps_and_kmax():
    with pytest.raises(RegularityError):
        regularity_partition(G16, Fraction(2))
    with pytest.raises(RegularityError):
        regularity_partition(G16, QUARTER, k_max=1, exact_cap=4)


# -- copy counting ------------------------------------------------------------------------

def _expanded_maps(pattern, host):
    """(assignment, image edges) for each map of regularity._partial_maps,
    each mask expanded in order to its last vertex's images."""
    for bits, mask in regularity._partial_maps(pattern, host, None):
        for v in set_bits(mask):
            full = tuple(b.bit_length() - 1 for b in bits[:-1]) + (v,)
            yield full, frozenset(tuple(sorted({full[w] for w in e})) for e in pattern.edges)


def count_copies_injective(pattern, host):
    return sum(1 for assignment, _ in _expanded_maps(pattern, host)
               if len(set(assignment)) == pattern.n)


def _pattern_maps_reference(pattern, host):
    """Every assignment in lexicographic order, each pattern edge tested."""
    pat_edges = sorted(pattern.edges)
    for assignment in itertools.product(range(host.n), repeat=pattern.n):
        used = []
        for e in pat_edges:
            image = tuple(sorted({assignment[w] for w in e}))
            if image not in host.edges:
                break
            used.append(image)
        else:
            yield assignment, frozenset(used)


def _random_hypergraph(rng, n, k, p):
    return Hypergraph.from_edges(n, k, [e for e in itertools.combinations(range(n), k)
                                        if rng.random() < p])


def _assert_maps_match_the_reference(pattern, host):
    """The map stream is the reference's, and count_copies its length."""
    want = list(_pattern_maps_reference(pattern, host))
    assert list(_expanded_maps(pattern, host)) == want
    assert count_copies(pattern, host) == len(want)


def test_map_stream_matches_product_reference_seeded():
    rng = random.Random(7)
    patterns = [TRIANGLE, TWO_TRIANGLES, Hypergraph.from_edges(2, 2, [(0, 1)]),
                Hypergraph.from_edges(3, 2, [(1, 2)]), Hypergraph.from_edges(2, 2, []),
                Hypergraph.from_edges(3, 2, [(0, 1)]), Hypergraph.from_edges(1, 1, [(0,)]),
                Hypergraph.from_edges(3, 1, [(0,), (2,)]),
                Hypergraph.from_edges(4, 3, [(0, 1, 3), (1, 2, 3)]),
                # k = 4: a face has three vertices, whose images can collapse
                # two onto one or all three onto one
                Hypergraph.from_edges(4, 4, [(0, 1, 2, 3)]),
                Hypergraph.from_edges(5, 4, [(0, 1, 2, 4), (1, 2, 3, 4)]),
                Hypergraph.from_edges(5, 4, [(0, 1, 2, 3), (0, 2, 3, 4), (1, 2, 3, 4)])]
    for pattern in patterns:
        for _ in range(4):
            host = _random_hypergraph(rng, rng.randint(1, 7), pattern.k, rng.random())
            if pattern.n > 5 and host.n > 5:
                continue
            _assert_maps_match_the_reference(pattern, host)


def test_collapsed_faces_admit_nothing():
    # the face (0, 1, 2) of the pattern's edge is looked up by its images'
    # bits; images (1, 1, 3) and (2, 2, 2) both sum to 12, the mask of {2, 3},
    # which has fewer than three vertices, so it is no host face
    pattern = Hypergraph.from_edges(4, 4, [(0, 1, 2, 3)])
    host = Hypergraph.from_edges(5, 4, list(itertools.combinations(range(5), 4)))
    assert 12 not in regularity._links(host.edges)
    maps = list(_expanded_maps(pattern, host))
    assert maps == list(_pattern_maps_reference(pattern, host))
    assert len(maps) == 120 and all(len(set(a)) == 4 for a, _ in maps)
    assert all(len(set(b[:3])) == 3 for b, _ in regularity._partial_maps(pattern, host, None))


@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 7), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_map_stream_matches_product_reference(k, pattern_n, host_n, rng):
    pattern_n = max(pattern_n, k)
    pattern = _random_hypergraph(rng, pattern_n, k, rng.random())
    host = _random_hypergraph(rng, host_n, k, rng.random())
    _assert_maps_match_the_reference(pattern, host)


def test_copy_maps_charge_the_worst_case():
    budget = Budget()
    assert count_copies(TRIANGLE, TWO_TRIANGLES, budget=budget) == 12
    assert budget.used == 6 ** 3


def test_triangle_copies_in_itself():
    assert count_copies(TRIANGLE, TRIANGLE) == 6           # all vertex bijections
    assert count_copies_injective(TRIANGLE, TRIANGLE) == 6


def test_edge_copies_in_cycle():
    edge = Hypergraph.from_edges(2, 2, [(0, 1)])
    c4 = Hypergraph.from_edges(4, 2, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert count_copies(edge, c4) == 8                     # 4 edges, 2 orientations


def test_no_copies_in_triangle_free_host():
    c4 = Hypergraph.from_edges(4, 2, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert count_copies(TRIANGLE, c4) == 0


def test_copy_count_budget():
    with pytest.raises(BudgetExceeded):
        count_copies(TRIANGLE, TWO_TRIANGLES, budget=Budget(3))


K4 = Hypergraph.from_edges(4, 2, list(itertools.combinations(range(4), 2)))
PATH3 = Hypergraph.from_edges(4, 3, [(0, 1, 3), (1, 2, 3)])


def _copy_hosts():
    rng = random.Random(11)
    return [_random_hypergraph(rng, 9, 2, 0.5), _random_hypergraph(rng, 12, 2, 0.35),
            _random_hypergraph(rng, 7, 3, 0.3)]


def _removal(pattern, host, **kw):
    r = remove_copies(pattern, host, **kw)
    return r.copies_before, len(r.removed), r.method, r.copies_after


def _greedy_removal(pattern, host, **kw):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(regularity, "BB_CAP", 1)
        return _removal(pattern, host, **kw)


def _ap_counts(elements, n, k, budget):
    e = ap_encode(elements, n, k, budget=budget)
    return e.total_copies, e.trivial_copies, e.direct_ap_count


@pytest.mark.parametrize("run, used, result", [
    (lambda b, h: count_copies(TRIANGLE, h[0], budget=b), 729, 54),
    (lambda b, h: count_copies(K4, h[1], budget=b), 20736, 72),
    (lambda b, h: count_copies(PATH3, h[2], budget=b), 2401, 196),
    (lambda b, h: _removal(TRIANGLE, h[0], budget=b), 1614, (54, 4, "branch-and-bound", 0)),
    (lambda b, h: _removal(K4, h[1], budget=b), 41496, (72, 1, "branch-and-bound", 0)),
    (lambda b, h: _removal(PATH3, h[2], budget=b), 5075, (196, 14, "branch-and-bound", 0)),
    # greedy: the 9 triangles' 27 edge incidences on top of the two passes' 1458
    (lambda b, h: _greedy_removal(TRIANGLE, h[0], budget=b), 1485, (54, 4, "greedy", 0)),
    (lambda b, h: _ap_counts({1, 3, 4, 5, 7, 8}, 8, 2, b), 2048, (22, 10, 12)),
    (lambda b, h: _ap_counts(set(range(1, 8)), 7, 3, b), 21609, (5, 2, 3)),
], ids=["count-k3", "count-k4", "count-3uniform", "remove-k3", "remove-k4",
        "remove-3uniform", "remove-greedy", "ap-k2", "ap-k3"])
def test_copy_and_encoding_charges_are_pinned(run, used, result):
    budget = Budget()
    assert run(budget, _copy_hosts()) == result
    assert budget.used == used


# -- removal --------------------------------------------------------------------------------

def test_removal_minimum_on_one_triangle():
    r = remove_copies(TRIANGLE, TRIANGLE)
    assert len(r.removed) == 1
    assert r.method == "branch-and-bound"
    assert (r.copies_before, r.copies_after) == (6, 0)


def test_removal_minimum_on_two_disjoint_triangles():
    r = remove_copies(TRIANGLE, TWO_TRIANGLES, eps=Fraction(1, 10))
    assert len(r.removed) == 2
    assert (r.copies_before, r.copies_after) == (12, 0)
    assert r.within_bound is True                          # 2 <= 36/10


def test_removal_rejects_a_negative_eps():
    for eps in (Fraction(-1, 10), -1, "-1/3"):
        with pytest.raises(RegularityError, match="eps must be nonnegative"):
            remove_copies(TRIANGLE, TWO_TRIANGLES, eps=eps)
    assert remove_copies(TRIANGLE, TWO_TRIANGLES, eps=0).within_bound is False   # 2 > 0
    assert remove_copies(TRIANGLE, TWO_TRIANGLES, eps=1).within_bound is True


def test_removal_on_copy_free_host():
    c4 = Hypergraph.from_edges(4, 2, [(0, 1), (1, 2), (2, 3), (3, 0)])
    r = remove_copies(TRIANGLE, c4)
    assert r.removed == frozenset() and r.method == "none"


def test_greedy_removal_still_eliminates_all_copies(monkeypatch):
    monkeypatch.setattr(regularity, "BB_CAP", 1)
    r = remove_copies(TRIANGLE, TWO_TRIANGLES)
    assert r.method == "greedy"
    assert r.copies_after == 0
    assert len(r.removed) >= 2


def test_removal_keeps_only_the_distinct_copies():
    # K4 in K16: 43,680 labeled copies of 1,820 distinct edge sets.  Each copy
    # is deduplicated as it is found, so the peak stays far below the ~60 MB
    # a list of every labeled copy took; greedy leaves K_{8,4,4}, which has
    # no K4
    k16 = Hypergraph.from_edges(16, 2, list(itertools.combinations(range(16), 2)))
    budget = Budget()
    tracemalloc.start()
    try:
        r = remove_copies(K4, k16, budget=budget)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    blocks = (range(8), range(8, 12), range(12, 16))
    assert r.removed == {e for b in blocks for e in itertools.combinations(b, 2)}
    assert (r.method, r.copies_before, r.copies_after) == ("greedy", 43680, 0)
    assert budget.used == 141992
    assert peak < 10 * 2 ** 20


def test_greedy_hitting_set_matches_the_recounting_reference():
    rng = random.Random(31)
    patterns = (TRIANGLE, K4, PATH3, Hypergraph.from_edges(3, 2, [(0, 1), (1, 2)]))
    for _ in range(60):
        pattern = rng.choice(patterns)
        host = _random_hypergraph(rng, rng.randint(3, 9), pattern.k, rng.uniform(0.2, 0.9))
        unique = sorted({used for _, used in _expanded_maps(pattern, host)},
                        key=lambda s: sorted(map(sorted, s)))
        budget = Budget()
        assert regularity._greedy_hitting_set(unique, budget) == \
            greedy_hitting_set_by_recount(unique)
        assert budget.used == sum(map(len, unique))
    # random constraint sets over a few edges tie often
    edges = list(itertools.combinations(range(5), 2))
    for _ in range(200):
        sets = [frozenset(rng.sample(edges, rng.randint(1, 4))) for _ in range(rng.randint(1, 12))]
        assert regularity._greedy_hitting_set(sets, Budget()) == \
            greedy_hitting_set_by_recount(sets)


def test_built_hypergraphs_pass_the_checked_construction(monkeypatch):
    # ap_encode and remove_copies build their hypergraphs without a check, so
    # each must be one that from_edges accepts and rebuilds unchanged
    rng = random.Random(23)
    built = [ap_encode({x for x in range(1, n + 1) if rng.random() < p}, n, k).hypergraph
             for n in range(1, 9) for k in range(1, 5) for p in (0.3, 0.7)]
    count = regularity.count_copies
    monkeypatch.setattr(regularity, "count_copies",    # remove_copies recounts its stripped host
                        lambda pattern, host, budget=None: built.append(host)
                        or count(pattern, host, budget))
    hosts = _copy_hosts()
    for pattern, host in [(TRIANGLE, TWO_TRIANGLES), (TRIANGLE, hosts[0]), (K4, hosts[1]),
                          (PATH3, hosts[2])]:
        for bb_cap in (1, 10 ** 4):
            monkeypatch.setattr(regularity, "BB_CAP", bb_cap)
            assert remove_copies(pattern, host).copies_after == 0
    assert len(built) == 8 * 4 * 2 + 8
    # and so must every parsed one, read in bulk or row by row, its edges
    # written in descending order: from_edges makes each edge an ascending
    # tuple, so an edge left in any other order fails
    for h in built[:8] + hosts + [TRIANGLE, K4, PATH3]:
        text = f"hypergraph {h.n} {h.k}\n" + "".join(" ".join(map(str, e[::-1])) + "\n"
                                                    for e in h.edges)
        built += [parse_hypergraph(text), parse_hypergraph(text + "#")]
    for h in built:
        assert Hypergraph.from_edges(h.n, h.k, h.edges) == h


# -- arithmetic-progression encoding ----------------------------------------------------------

def test_ap_encoding_frozen_small_case():
    enc = ap_encode({1, 2, 3}, 3, 2)
    assert isinstance(enc, APEncoding)
    assert enc.copy_ap_count == 1
    assert enc.direct_ap_count == 1
    assert enc.verified
    assert enc.total_copies == 2 and enc.trivial_copies == 1
    assert enc.hypergraph.k == 2
    assert len(enc.parts) == 3
    assert sum(len(p) for p in enc.parts) == 3 + 3 + 4 * 3   # [1,n] x2 and [1, k^2 n]


def test_ap_encoding_agrees_across_subsets():
    for n in (2, 3, 4):
        for bits in range(1 << n):
            a = {i + 1 for i in range(n) if bits >> i & 1}
            enc = ap_encode(a, n, 2)
            assert enc.verified, (a, n)
            assert enc.copy_ap_count == enc.direct_ap_count


def _assert_encoding_matches_the_scan(elements, n, k):
    got_budget, want_budget = Budget(), Budget()
    got = ap_encode(elements, n, k, got_budget)
    want = ap_encode_by_scan(elements, n, k, want_budget)
    assert got == want and got.hypergraph.edges == want.hypergraph.edges
    assert got.verified and got_budget.used == want_budget.used


def test_ap_encoding_matches_the_scan_seeded():
    rng = random.Random(41)
    for case in range(120):
        n, k = rng.randint(1, 8), case % 4 + 1
        p = (0, 0.3, 0.6, 1)[case // 4 % 4]
        _assert_encoding_matches_the_scan({x for x in range(1, n + 1) if rng.random() < p}, n, k)


def test_ap_encoding_matches_the_scan_at_the_bench_sizes():
    # the combinatorics mix encodes k = 2 up to n = 20 and k = 3 from n = 10
    rng = random.Random(42)
    shapes = [(n, 2) for n in range(9, 21)] + [(n, 3) for n in (10, 11, 12)]
    for case, (n, k) in enumerate(shapes * 2):
        p = (0.3, 0.5, 0.8)[case % 3]
        _assert_encoding_matches_the_scan({x for x in range(1, n + 1) if rng.random() < p}, n, k)


@given(st.integers(1, 8), st.integers(1, 4), st.data())
@settings(max_examples=60, deadline=None)
def test_ap_encoding_matches_the_scan(n, k, data):
    elements = data.draw(st.sets(st.integers(1, n)))
    _assert_encoding_matches_the_scan(elements, n, k)


def test_ap_encode_checks_n_first():
    for elements in (set(), {1, 2}):
        with pytest.raises(RegularityError, match=r"^n must be >= 1$"):
            ap_encode(elements, 0, 2)


def test_ap_encode_budget():
    with pytest.raises(BudgetExceeded):
        ap_encode({1, 2, 3, 4, 5}, 5, 2, budget=Budget(10))


# -- file formats -------------------------------------------------------------------------------

def print_graph(g):
    lines = [f"graph {g.n}"]
    lines += [f"{u} {v}" for u in range(g.n) for v in range(u + 1, g.n) if g.adj[u] >> v & 1]
    return "\n".join(lines) + "\n"


def print_hypergraph(h):
    lines = [f"hypergraph {h.n} {h.k}"]
    lines += [" ".join(map(str, sorted(e))) for e in sorted(h.edges, key=sorted)]
    return "\n".join(lines) + "\n"


def test_graph_file_round_trip():
    assert parse_graph(print_graph(G16)).adj == G16.adj
    assert print_graph(G16) == (DATA / "g16.graph").read_text()


def test_parsed_graph_matches_the_checked_construction():
    rng = random.Random(8)
    for _ in range(30):
        n = rng.randint(1, 20)
        pairs = [(x, y) for x in range(n) for y in range(x + 1, n) if rng.random() < 0.3]
        pairs += [(y, x) for x, y in pairs[:3]]   # a repeated edge, reversed
        text = f"graph {n}\n" + "".join(f"{x} {y}\n" for x, y in pairs)
        g, want = parse_graph(text), Graph.from_edges(n, pairs)
        assert (g, g.adj) == (want, want.adj)


def _parsed_or_error(parse, text: str):
    try:
        return parse(text)
    except ParseError as e:
        return e.message, e.span


def test_plain_graph_files_read_in_bulk_match_the_row_reader():
    # a trailing comment sends the same file down the row-by-row reader; the
    # pair files ("graph <n>", "hypergraph <n> 2") of the plain shape take the
    # bulk path, and "hypergraph <n> 1|3" files always take the row reader
    rng = random.Random(17)
    odd = ["07", "+1", "-1", "٣", "x", "1" * 5000, ""]
    ends = ["\n", "\n\n", "\r\n", " \n", "\t\n \n", "\r", "\f", "\x1c", "\u2028"]
    plain = collections.Counter()
    accepted = collections.Counter()
    for kind, k in [("graph", 2)] * 1500 + [("hypergraph", 2), ("hypergraph", 1),
                                            ("hypergraph", 3)] * 1500:
        n = rng.randint(1, 6)
        boundaries = ends[:5] if rng.random() < 0.7 else ends  # newlines, or any
        text = rng.choice(["", "\n", " "]) + (f"graph {n}" if kind == "graph" else
                                              f"hypergraph {n} {k}")
        for _ in range(rng.randint(0, 6)):
            words = [str(v) for v in rng.sample(range(n + 1), min(k, n + 1))]  # n: out of range
            edit = rng.random()
            if edit < 0.05:
                words[1:2] = words[:1]  # a repeated vertex
            elif edit < 0.1:
                words[rng.randrange(len(words))] = rng.choice(odd)
            elif edit < 0.15:
                words = words[:1] if rng.random() < 0.5 else words + ["0"]
            text += rng.choice(boundaries) + rng.choice([" ", "\t", "  "]).join(words)
        text += rng.choice(["", "\n", " \n"])
        parse = parse_graph if kind == "graph" else parse_hypergraph
        got = _parsed_or_error(parse, text)
        assert got == _parsed_or_error(parse, text + "\n#"), text
        if regularity._PLAIN_PAIRS.fullmatch(text):
            assert k == 2, text
            plain[kind] += 1
            accepted[kind] += isinstance(got, (Graph, Hypergraph))
    # the bulk path is taken often for both pair kinds, and succeeds
    for kind in ("graph", "hypergraph"):
        assert plain[kind] > 500 and accepted[kind] > 200, (plain, accepted)


def test_hypergraph_file_round_trip():
    assert parse_hypergraph((DATA / "tri.hg").read_text()).edges == TRIANGLE.edges
    assert parse_hypergraph(print_hypergraph(TWO_TRIANGLES)).edges == \
        TWO_TRIANGLES.edges


def test_graph_header_is_charged_before_the_graph_is_built():
    budget = Budget()
    assert parse_graph("graph 5\n0 1\n", budget=budget).n == 5
    assert budget.used == 5 + 5   # n, and n·⌈n/64⌉ words of adjacency masks
    budget = Budget()
    parse_graph("graph 65\n", budget=budget)
    assert budget.used == 65 + 65 * 2
    with pytest.raises(BudgetExceeded):
        parse_graph(f"graph {10 ** 12}\n", budget=Budget(10 ** 7))


def test_graph_parse_errors():
    # a format error is a ParseError at the first word of its line, or at a
    # word that is no numeral
    with pytest.raises(ParseError) as e:
        parse_graph("graph 3\n# edges\n0 3\n")
    assert e.value.span == SourceSpan(16, 17)
    with pytest.raises(ParseError) as e:
        parse_graph("not-a-graph 3\n")
    assert e.value.span == SourceSpan(0, 11)
    with pytest.raises(ParseError) as e:
        parse_hypergraph("hypergraph 4 3\n0 1 2\n1 x 3\n")
    assert (e.value.message, e.value.span) == ("bad vertex", SourceSpan(23, 24))   # at the x
