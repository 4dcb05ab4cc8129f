"""
The degree-4 region and its non-injectivity degree
==================================================

Ten tabulated level arcs (modulus, signed arg change, endpoint arguments),
joined by inferred gradient arcs, pin down a closed Jordan region bounded
by level and gradient arcs of z^2(z+1)(z+3). The starting vertex is not
given: all four preimages of the starting value are traced and exactly one
yields a closed Jordan chain.

Inside the region, every target value is taken at most twice, even though
no cubic (or lower) conformal reparametrization of the quartic exists
there. The scan below measures that maximum preimage count on a polar grid.
"""
import os

import numpy as np

from lemniscates import (
    PolarGrid,
    build_boundary,
    chain_from_table,
    d4_table,
    f4_polynomial,
    noninjectivity_degree,
    reproduce_table,
    winding_number,
)
from lemniscates.io import curves_to_svg, save_curve

OUT = os.environ.get("LEMNISCATES_OUTDIR", "demo_output")
os.makedirs(OUT, exist_ok=True)

rows = d4_table()
print("arc data (modulus, change/pi, start/pi, end/pi):")
for r in rows:
    print(f"  {r.label:8s} {r.modulus:5.2f} {r.total_change/np.pi:+7.4f} "
          f"{r.initial_arg/np.pi:6.4f} {r.final_arg/np.pi:6.4f}")
print("signed changes sum to:", round(sum(r.total_change for r in rows), 15))

f4 = f4_polynomial()
chain = build_boundary(f4, chain_from_table(rows), step=0.01)
print(f"\nchain closed with residual {chain.closure_residual:.2e}; "
      f"{len(chain.vertices)} vertices, {len(chain.curve)} samples")

report = reproduce_table(f4, chain)
print("re-measured arcs all within tolerance:", report.all_ok)
worst = max(r.change_deviation for r in report.rows)
print(f"worst arg-change deviation: {worst:.2e} rad")

print("\nwinding of the boundary about its centroid:", winding_number(chain.curve, chain.vertices.mean()))

res = noninjectivity_degree(f4, chain, PolarGrid(180, 50, 0.16, 7.9))
print(f"max preimage count over {res.n_evaluated} targets: {res.degree} "
      f"({res.n_skipped} skipped near the image curve)")
print("first witnesses:", [f"{w:.4f}" for w in res.witnesses[:3]])

save_curve(chain.curve, os.path.join(OUT, "region_boundary.json"))
curves_to_svg([chain.curve], os.path.join(OUT, "region_boundary.svg"))
print("wrote", os.path.join(OUT, "region_boundary.svg"))
