"""Sentence truth and measure values along growing structure families.

A family is an indexed sequence of finite structures (here: cyclic groups
Z_1, Z_2, ...).  Along such a family one can ask:

  * truth_profile   — does a sentence settle to a fixed truth value, and
                      from which index onward?
  * limit_measure   — does a measured set's mass converge, and if it lands
                      exactly on a threshold r, which comparisons survive
                      in the limit?  The answer is a boundary flag.
  * banach_density  — the densest window a set of integers achieves.
  * furstenberg_check — how far cyclic wraparound counting can drift from
                      plain interval counting when shifting a set.
"""

from fractions import Fraction

from aml.limits import (
    banach_density,
    cyclic_family,
    furstenberg_check,
    limit_measure,
    truth_profile,
)
from aml.parser import parse_formula

fam = cyclic_family(1, 24)
print(f"Family: Z_i for i = {fam.i_lo}..{fam.i_hi}")

print("\nTruth profiles over the family:")
for text in ("exists x. ~(x = e)",            # needs at least 2 elements
             "forall x. add(x, x) = e",       # only Z_1 and Z_2 have this
             "m[x] <= 1/2. add(x, x) = e"):   # involutions thin out
    prof = truth_profile(fam, parse_formula(text, fam.signature))
    print(f"  {text!r}: {prof.describe()}")

print("\nMeasure limits that land exactly on a threshold:")
single = parse_formula("x = e", fam.signature)       # mass 1/n, falls to 0
rest = parse_formula("~(x = e)", fam.signature)      # mass 1 - 1/n, rises to 1
involution = parse_formula("add(x, x) = e", fam.signature)
lim = limit_measure(fam, single, ("x",), Fraction(0))
print(f"  m[x](x = e): head {[str(v) for v in lim.values[:4]]} ..., "
      f"{lim.describe()}")
lim = limit_measure(fam, rest, ("x",), Fraction(1))
print(f"  m[x](~(x = e)): head {[str(v) for v in lim.values[:4]]} ..., "
      f"{lim.describe()}")
lim = limit_measure(fam, involution, ("x",), Fraction(0))
print(f"  m[x](add(x, x) = e): head {[str(v) for v in lim.values[:4]]} ..., "
      f"{lim.describe()}")

print("\nBanach density (best window of length >= l_min):")
for name, s, l_min in (("multiples of 3 up to 90, windows >= 30",
                        range(3, 91, 3), 30),
                       ("a block of 10 inside [1, 100], windows >= 10",
                        range(40, 50), 10),
                       ("powers of 2 up to 512, windows >= 4",
                        [1, 2, 4, 8, 16, 32, 64, 128, 256, 512], 4),
                       ("powers of 2 up to 512, windows >= 256",
                        [1, 2, 4, 8, 16, 32, 64, 128, 256, 512], 256)):
    print(f"  {name}: {banach_density(s, max(s), l_min)}")

print("\nWraparound drift bound for shift counting:")
evens = list(range(2, 41, 2))
cyc, plain, bound = furstenberg_check(evens, 40, [0, 2, 4])
print(f"  evens in Z_40, shifts {{0, 2, 4}}: cyclic count {cyc}, "
      f"plain count {plain}")
print(f"  drift |{cyc} - {plain}| = {abs(cyc - plain)} <= bound {bound}: "
      f"{abs(cyc - plain) <= bound}")
