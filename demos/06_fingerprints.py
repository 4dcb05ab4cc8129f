"""
Fingerprints of curves and pseudo-lemniscates
=============================================

The fingerprint of a Jordan curve composes its normalized exterior and
interior Riemann maps into a circle diffeomorphism. For the preimage curve
p^{-1}(Gamma) of a degree-n polynomial (proper case: all critical values
inside Gamma), the fingerprint factors as the n-th root of the base curve's
fingerprint composed with a degree-n Blaschke product whose zeros are the
disk preimages of the zeros of p.

This demo traces pseudo-lemniscates, builds the Blaschke model, and
measures the factorization residual in radians.
"""
import os

import numpy as np

from lemniscates import (
    Polynomial,
    ellipse,
    fingerprint_of_curve,
    identity_report,
    is_proper,
    is_proper_oracle,
    pseudo_lemniscate,
    unit_circle,
)
from lemniscates.io import curves_to_svg, save_circle_map_csv

OUT = os.environ.get("LEMNISCATES_OUTDIR", "demo_output")
os.makedirs(OUT, exist_ok=True)

T = unit_circle(512)
E = ellipse(1.0, 0.6, 512)

# circles have the identity fingerprint; the ellipse does not
k_circle = fingerprint_of_curve(unit_circle(256, radius=2.0), nodes=256)
t = np.linspace(0, 2 * np.pi, 9)
print("circle fingerprint deviation from identity:", np.abs(k_circle.lift(t) - t).max())
k_ell = fingerprint_of_curve(E, nodes=512)
print("ellipse fingerprint at pi/2:", k_ell.lift(np.pi / 2), "(identity would give", np.pi / 2, ")")

# properness: the critical-value criterion and the independent lap
# monodromy (one lap of T lifted from each preimage of its start point,
# proper iff the laps form a single n-cycle) must agree
p = Polynomial([-0.1, 0, 1])  # z^2 - 0.1
print("\nz^2 - 0.1 proper on the circle:", is_proper(p, T), "/", is_proper_oracle(p, T))

lem = pseudo_lemniscate(p, T, 1024)
curves_to_svg([lem, T], os.path.join(OUT, "pseudo_lemniscate.svg"))
print("traced preimage curve with", len(lem), "samples ->", os.path.join(OUT, "pseudo_lemniscate.svg"))

# the factorization identity, measured: n * lift(k_p) vs lift(k_Gamma o B)
rep = identity_report(p, T, samples=512, nodes=1024)
print("\ndegree-2 over the circle:")
print("  Blaschke zeros:", np.round(rep.blaschke.zeros, 9).tolist(), "(exact: +-sqrt(0.1))")
print("  identity residual:", rep.residual, "rad")
save_circle_map_csv(rep.k_p, os.path.join(OUT, "k_p.csv"), samples=512)

rep3 = identity_report(Polynomial([0, -0.3, 0, 1]), E, samples=512, nodes=1024)
print("\ndegree-3 over the ellipse:")
print("  identity residual:", rep3.residual, "rad")

# the exact case: z^n over the circle gives the identity on both sides
for n in (1, 2, 3, 4):
    r = identity_report(Polynomial([0] * n + [1]), T, samples=256, nodes=256)
    print(f"  z^{n} over the circle: residual {r.residual:.2e}")
