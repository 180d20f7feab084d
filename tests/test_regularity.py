"""Density, regular pairs, energy-increment partitions, copy counting, removal."""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from aml.regularity import (
    APEncoding,
    Graph,
    Hypergraph,
    RegularityError,
    ap_encode,
    count_copies,
    count_copies_injective,
    density,
    is_epsilon_regular,
    parse_graph,
    parse_hypergraph,
    partition_energy,
    print_graph,
    print_hypergraph,
    regularity_partition,
    remove_copies,
    validate_witness,
)
from aml.semantics import Budget, BudgetExceeded

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


def test_graph_adjacency_is_symmetric():
    assert HALF.has_edge(3, 8) and HALF.has_edge(8, 3)   # 3 >= 2
    assert not HALF.has_edge(2, 9)                        # 2 < 3
    assert HALF.degree_into(6, (1 << 6) - 1) == 6         # right vertex 6: all of left


def test_density_values():
    assert density(HALF, LEFT, RIGHT) == Fraction(7, 12)  # 21 of 36 pairs
    assert density(C4, range(4), range(4)) == Fraction(1, 2)
    assert density(C4, (0,), (1,)) == 1
    assert density(C4, (0,), (2,)) == 0
    with pytest.raises(RegularityError):
        density(C4, (), (0,))


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
    assert "irregular" in v.describe()


def test_witness_validation_rules():
    w = ((0, 1), (10, 11))
    assert not validate_witness(HALF, LEFT, RIGHT, Fraction(2, 3), w)   # too small now
    assert not validate_witness(HALF, LEFT, RIGHT, QUARTER, ((0, 99), (10, 11)))
    # a balanced sub-pair whose density matches the base is no witness
    assert not validate_witness(HALF, LEFT, RIGHT, QUARTER, (LEFT, RIGHT))


def test_exact_check_charges_its_subsets():
    budget = Budget()
    is_epsilon_regular(HALF, LEFT, RIGHT, QUARTER, budget=budget)
    assert budget.used == 1 << 6            # subsets of the 6-vertex side
    with pytest.raises(BudgetExceeded):
        is_epsilon_regular(HALF, LEFT, RIGHT, QUARTER, budget=Budget(63))


def test_eps_out_of_range():
    with pytest.raises(RegularityError):
        is_epsilon_regular(C4, (0, 1), (2, 3), Fraction(3, 2))


# -- partitions ------------------------------------------------------------------------

G16 = parse_graph((DATA / "g16.graph").read_text())


def test_partition_energy_of_frozen_graph():
    chunks = [tuple(range(0, 8)), tuple(range(8, 16))]
    assert partition_energy(G16, [tuple(range(16))]) <= \
        partition_energy(G16, chunks)   # refinement never loses energy


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
        seen = sorted(v for p in res.partition.parts for v in p)
        assert seen == list(range(n))
        # energy strictly increases with the guaranteed increment
        for a, b in zip(res.energy_log, res.energy_log[1:]):
            assert b - a >= eps ** 5 / 16
        # every reported witness re-validates
        for i, j, w in res.irregular_pairs:
            assert validate_witness(g, res.partition.parts[i],
                                    res.partition.parts[j], eps, w)
        if res.status == "regular":
            assert res.irregular_mass <= eps * n * n


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


def test_removal_on_copy_free_host():
    c4 = Hypergraph.from_edges(4, 2, [(0, 1), (1, 2), (2, 3), (3, 0)])
    r = remove_copies(TRIANGLE, c4)
    assert r.removed == frozenset() and r.method == "none"


def test_greedy_removal_still_eliminates_all_copies():
    r = remove_copies(TRIANGLE, TWO_TRIANGLES, bb_cap=1)
    assert r.method == "greedy"
    assert r.copies_after == 0
    assert len(r.removed) >= 2


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


def test_ap_encode_budget():
    with pytest.raises(BudgetExceeded):
        ap_encode({1, 2, 3, 4, 5}, 5, 2, budget=Budget(10))


# -- file formats -------------------------------------------------------------------------------

def test_graph_file_round_trip():
    assert parse_graph(print_graph(G16)).adj == G16.adj
    assert print_graph(G16) == (DATA / "g16.graph").read_text()


def test_hypergraph_file_round_trip():
    assert parse_hypergraph((DATA / "tri.hg").read_text()).edges == TRIANGLE.edges
    assert parse_hypergraph(print_hypergraph(TWO_TRIANGLES)).edges == \
        TWO_TRIANGLES.edges


def test_graph_header_is_charged_before_the_graph_is_built():
    budget = Budget()
    assert parse_graph("graph 5\n0 1\n", budget=budget).n == 5
    assert budget.used == 5
    with pytest.raises(BudgetExceeded):
        parse_graph(f"graph {10 ** 12}\n", budget=Budget(10 ** 7))


def test_graph_parse_errors():
    with pytest.raises(RegularityError):
        parse_graph("graph 3\n0 3\n")
    with pytest.raises(RegularityError):
        parse_graph("not-a-graph 3\n")
