"""Uniformity norms distinguish structured functions from noise-like ones.

The degree-k norm power averages a function over k-dimensional additive
cubes.  Characters (perfectly structured) score 1; sparse indicators score
near the minimum; the degree-1 power is just the squared mean.  Everything
here is computed in exact rational arithmetic — all identities are checked
with ==, not with tolerances.
"""

from fractions import Fraction

from aml.gowers import (
    AbelianGroup,
    FiniteAlgebra,
    GridFunction,
    cond_expect,
    decimal_root,
    dual_function,
    gowers_box_pow,
    gowers_norm_pow,
    inner_product,
    positivity_criterion,
)

Z8 = AbelianGroup.cyclic(8)

SIGN = GridFunction.from_values([1, -1, 1, -1, 1, -1, 1, -1], 1)
POINT = GridFunction.from_values([1, 0, 0, 0, 0, 0, 0, 0], 1)
RAMP = GridFunction.from_values([Fraction(i, 8) for i in range(8)], 1)

print("Degree-2 norm powers on Z_8 (exact, with decimal renderings):")
for name, f in (("alternating sign", SIGN), ("point mass", POINT),
                ("linear ramp", RAMP)):
    p = gowers_norm_pow(Z8, f, 2)
    print(f"  {name:17s} power = {str(p):8s} norm ~ {decimal_root(p, 4, 6)}")

print("\nThe power equals the box-norm power of the lift f(h_1..h_k) = g(h_1 + ... + h_k):")
for k in (1, 2, 3):
    a = gowers_norm_pow(Z8, RAMP, k)
    b = gowers_box_pow(GridFunction.from_group_function(RAMP, k, Z8))
    print(f"  degree {k}:  derivative recursion {a} == box norm of the lift {b}: {a == b}")

print("\nThe squared-mean floor (degree-1 power equals the squared mean):")
print(f"  mean(ramp)^2 = {RAMP.mean() ** 2} = {gowers_norm_pow(Z8, RAMP, 1)}")
print(f"  mean^4 <= degree-2 power: "
      f"{RAMP.mean() ** 4} <= {gowers_norm_pow(Z8, RAMP, 2)}")

print("\nThe dual function certifies the norm as a correlation:")
lifted = GridFunction.from_group_function(POINT, 2, Z8)
dual = dual_function(lifted)
print(f"  <f, D(f)> = {inner_product(lifted, dual)}"
      f" = box power {gowers_box_pow(lifted)}")

print("\nConditional expectation onto a two-atom algebra is a projection:")
halves = FiniteAlgebra.from_generators(8, 1, [0b00001111])
proj = cond_expect(RAMP, halves)
print(f"  E(ramp | halves) values: {[str(v) for v in proj.values]}")
print(f"  projecting twice changes nothing: "
      f"{cond_expect(proj, halves).values == proj.values}")

print("\nPositive norm power always comes with a correlating cylinder product:")
grid = GridFunction.from_values([1, -1, -1, 1], 2)
positive, correlates = positivity_criterion(grid)
print(f"  2x2 checkerboard: power > 0 is {positive}, "
      f"correlation found is {correlates}")
zero = GridFunction.from_values([0, 0, 0, 0], 2)
print(f"  zero function:    {positivity_criterion(zero)}")
