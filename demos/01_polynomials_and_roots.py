"""
Polynomials, roots, and critical data
=====================================

The package stores complex polynomials as ascending coefficient arrays and
finds all roots at once as the eigenvalues of the companion matrix, merging
clusters into multiple roots. Critical points and values drive everything else:
level-set topology, properness of lemniscates, and the region construction.
"""
import numpy as np

from lemniscates import (
    Polynomial,
    critical_points,
    critical_values,
    design_counterexample,
    f4_polynomial,
    poly_roots,
)

# the built-in quartic: a double zero at 0 and simple zeros at -1, -3
f4 = f4_polynomial()
print("coefficients (ascending):", f4.coeffs.real.tolist())
print("f4(1) =", f4(1.0))

print("\nroots with multiplicity:")
for root, mult in poly_roots(f4, tol=1e-8):
    print(f"  {root:.12g}  (x{mult})")

print("\ncritical points:", np.round(critical_points(f4), 12).tolist())
print("critical values:", np.round(critical_values(f4), 12).tolist())
print("critical moduli sorted:", sorted(round(abs(v), 9) for v in critical_values(f4)))

# the same construction scales to degree 8: negative zeros spaced by 3,
# validated so each critical level set nests inside the next
design = design_counterexample(5)
print("\ndegree-5 family member:")
print("  zeros:", np.asarray(design.zeros).real.tolist())
print("  spacing ratio:", design.ratio, "| validation levels:", np.round(design.levels_checked, 4).tolist())

# a deliberately clustered case: the solver reports the triple root once
p = Polynomial.from_roots([2.0, 2.0, 2.0])
print("\n(z-2)^3 ->", poly_roots(p, tol=1e-4))
