"""Measuring how central each group element is.

In a finite group with normalized counting measure, the set of elements
commuting with g is the centralizer C(g), so

    m[x] < r . (x*g = g*x)    holds exactly when |C(g)| < r * |G|.

The demo builds the symmetric group on three letters as a table structure,
evaluates the measure formula for every element against a sweep of
thresholds, and checks the verdicts against directly counted centralizers.
"""

import itertools
from fractions import Fraction

from aml.semantics import evaluate
from aml.structures import FiniteStructure
from aml.syntax import Cmp, Meas
from aml.parser import parse_formula

PERMS = [(0, 1, 2)] + sorted(p for p in itertools.permutations(range(3))
                             if p != (0, 1, 2))
INDEX = {p: i for i, p in enumerate(PERMS)}


def mul(p, q):
    return tuple(p[q[i]] for i in range(3))


S3 = FiniteStructure.checked(
    6,
    constants={"e": 0},
    functions={"mul": (2, tuple(INDEX[mul(a, b)]
                                for a in PERMS for b in PERMS))},
)

BODY = parse_formula("mul(x, g) = mul(g, x)", S3.signature())

NAMES = {(0, 1, 2): "e", (1, 0, 2): "(01)", (2, 1, 0): "(02)",
         (0, 2, 1): "(12)", (1, 2, 0): "(012)", (2, 0, 1): "(021)"}

print("Centralizer measures in the symmetric group on {0,1,2}:")
for perm in PERMS:
    g = INDEX[perm]
    size = sum(1 for p in PERMS if mul(p, perm) == mul(perm, p))
    mu = Fraction(size, 6)
    print(f"  g = {NAMES[perm]:6s} |C(g)| = {size}   mu(commuters) = {mu}")

print("\nSweeping m[x] < r . (x*g = g*x) against |C(g)| < r*|G|:")
thresholds = sorted({Fraction(p, q) for q in range(1, 13)
                     for p in range(q + 1)})
agreements = 0
for perm in PERMS:
    g = INDEX[perm]
    size = sum(1 for p in PERMS if mul(p, perm) == mul(perm, p))
    for r in thresholds:
        claim = Meas(("x",), Cmp.LT, r, BODY)
        assert evaluate(S3, claim, {"g": g}) == (size < r * 6)
        agreements += 1
print(f"  {agreements} (element, threshold) pairs, all verdicts agree")

sample = [(NAMES[p], r) for p in [(1, 0, 2), (1, 2, 0)]
          for r in (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3))]
print("\nA few rows of the sweep:")
for name, r in sample:
    perm = next(p for p, nm in NAMES.items() if nm == name)
    verdict = evaluate(S3, Meas(("x",), Cmp.LT, r, BODY), {"g": INDEX[perm]})
    print(f"  m[x] < {r!s:4s}. (x*{name} = {name}*x)  ->  {str(verdict).lower()}")
