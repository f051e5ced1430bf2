"""The exact integer linear algebra underneath everything.

Smith normal form with unimodular transforms, canonical forms of finitely
generated abelian groups, and cohomology of two-step windows, all in exact
arbitrary-precision arithmetic.
"""

from bredon.abgrp import (
    FgAbelianGroup,
    IntegerMatrix,
    cohomology_at,
    kernel_basis,
    mod_m_cohomology_at,
    smith_normal_form,
    solve,
)

print(__doc__)

a = IntegerMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
u, d, v = smith_normal_form(a)
print("A =", a.to_rows())
print("D = U A V =", d.to_rows())
print("U =", u.to_rows())
print("V =", v.to_rows())
print("check U A V == D:", (u @ a) @ v == d)

print("\nKernel and integer solving:")
k = kernel_basis(a)
print("  kernel basis columns:", k.to_rows())
b = a @ IntegerMatrix.from_rows([[1], [2], [3]])
x = solve(a, b)
print("  solve(A, A.[1,2,3]^T) =", x.to_rows())

print("\nCanonical forms are unique, so equality is structural:")
g = FgAbelianGroup.from_cyclic_orders([4, 6, 0])
print("  Z/4 (+) Z/6 (+) Z =", g, "| invariant factors:", g.invariant_factors)
print("  Z/2 (+) Z/3 == Z/6:",
      FgAbelianGroup.from_cyclic_orders([2, 3]) == FgAbelianGroup.cyclic(6))

print("\nCohomology of a two-step window ker(d_out)/im(d_in):")
d_in = IntegerMatrix.from_rows([[2], [-2]])
d_out = IntegerMatrix.from_rows([[2, 2]])
print("  d_in = (2,-2)^T, d_out = (2,2):", cohomology_at(d_in, d_out))
print("  same window mod 2:", mod_m_cohomology_at(d_in, d_out))
