"""Energy-increment partitioning, pattern removal, and progression encoding.

Three connected combinatorial tools:

  1. regularity_partition refines a vertex partition until all but an
     eps-fraction of vertex-pair mass lies in certified-regular pairs; each
     refinement round provably raises the partition energy, so it stops.
  2. remove_copies finds a minimum set of edges meeting every copy of a
     pattern (exact branch-and-bound at demo sizes).
  3. ap_encode turns "does this integer set contain 3-term progressions?"
     into a copy-counting question on a 3-partite graph, and verifies the
     translation by counting both sides independently.
"""

import random
from fractions import Fraction

from aml.regularity import (
    Graph,
    Hypergraph,
    ap_encode,
    density,
    is_epsilon_regular,
    regularity_partition,
    remove_copies,
    validate_witness,
)

rng = random.Random(2024)
N = 18
g = Graph.from_edges(N, [(i, j) for i in range(N) for j in range(i + 1, N)
                         if rng.random() < (0.9 if (i < 9) == (j < 9) else 0.1)])

print(f"A {N}-vertex graph with two dense blocks and a sparse bridge:")
print(f"  overall density {density(g, range(N), range(N))}")

eps = Fraction(1, 3)
verdict = is_epsilon_regular(g, range(9), range(9, 18), eps)
print(f"  the block pair is {'regular' if verdict.regular else 'irregular'}"
      f" at eps = {eps}")

res = regularity_partition(g, eps)
sizes = sorted((len(p) for p in res.parts), reverse=True)
print(f"\nPartition run: {res.status} after {res.rounds} round(s), "
      f"{len(sizes)} parts of sizes {sizes}")
print(f"  energy log: {' -> '.join(str(e) for e in res.energy_log)}")
print(f"  irregular mass {res.irregular_mass} <= bound {res.mass_bound}")
for i, j, w in res.irregular_pairs:
    ok = validate_witness(g, res.parts[i], res.parts[j], eps, w)
    print(f"  leftover irregular pair ({i},{j}): witness re-validates: {ok}")

print("\nMinimum edge removal to destroy every triangle:")
tri = Hypergraph.from_edges(3, 2, [(0, 1), (1, 2), (0, 2)])
bowtie = Hypergraph.from_edges(5, 2, [(0, 1), (1, 2), (0, 2),
                                      (2, 3), (3, 4), (2, 4)])
r = remove_copies(tri, bowtie)
print(f"  bowtie (two triangles sharing a vertex): {r.copies_before} labeled "
      f"copies, removed {len(r.removed)} edge(s) via {r.method}, "
      f"{r.copies_after} left")

print("\nProgressions as graph copies:")
for a in ({1, 2, 3, 5, 8, 9, 10}, {1, 2, 4, 8}):
    enc = ap_encode(a, 10, 2)
    print(f"  A = {sorted(a)}: copy count {enc.copy_ap_count}, "
          f"direct count {enc.direct_ap_count}, verified: {enc.verified}")
