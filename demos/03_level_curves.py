"""
Level and gradient arcs of |f| and arg f
========================================

Level sets {|f| = eps} are traced by lifting the circle eps*exp(i s)
through f^{-1} on a uniform grid in s = arg f, so "total change of arg f
along an arc" is the natural stopping currency. Gradient rays
{arg f = alpha} lift exp(s + i alpha) on a uniform grid in s = log|f|.
Both use the same two-step predictor and Newton corrector onto the exact
target, so every node satisfies its constraint to a relative 1e-12.
The closed components of {|f| = eps} are the cycles of the lap monodromy:
one lap of eps*exp(i s) lifted from every root of f - eps, the laps joined
in the order their ends meet the next lap's start.
"""
import os

import numpy as np

from lemniscates import (
    Polynomial,
    level_components,
    solve_target,
    trace_gradient,
    trace_level,
)
from lemniscates.curves import winding_numbers
from lemniscates.io import curves_to_svg

OUT = os.environ.get("LEMNISCATES_OUTDIR", "demo_output")
os.makedirs(OUT, exist_ok=True)

f4 = Polynomial([0, 0, 3, 4, 1])  # z^2 (z+1)(z+3)
ZEROS = (0.0, -1.0, -3.0)


def components(eps):
    """The closed components of {|f4| = eps}, keyed by the zeros each winds
    about."""
    found = {}
    for loop in level_components(f4, eps, 0.01):
        counts = winding_numbers(loop.points, ZEROS, min_distance=0.0)[0]
        found[tuple(z for z, c in zip(ZEROS, counts) if c)] = loop
    return found


# a vertex: the point with |f4| = 8 and arg f4 = pi/2, from a coarse seed
grid = (np.linspace(-4, 2, 60)[None, :] + 1j * np.linspace(-3, 3, 60)[:, None]).ravel()
seed = grid[int(np.argmin(np.abs(f4(grid) - 8j)))]
v5 = solve_target(f4, 8j, seed)
print(f"vertex v5 = {v5:.9f},  |f4| = {abs(f4(v5)):.12f},  arg = {np.angle(f4(v5))/np.pi:.6f} pi")

# follow the level curve until arg f4 first reaches 5 pi/3: change is 7 pi/6
arc = trace_level(f4, 8.0, v5, 7 * np.pi / 6, step=0.01)
change = arc.arg_lift[-1] - arc.arg_lift[0]
print(f"arc change: {change / (np.pi/6):.6f} * pi/6 over {len(arc)} nodes")

# the level-8 set is one loop around all four zeros: a 4-cycle of laps, so
# arg f4 changes by 8 pi around it; tracing 8 pi from v5 comes back to v5.
# At step 0.01 a lap has ceil(2 pi / 0.01) = 629 steps.
rings = []
for eps in (0.15, 0.6, 8.0):
    groups = components(eps)
    rings += groups.values()
    print(f"level {eps:g}: " + ", ".join(
        f"{len(loop) // 629} laps about {list(zeros)}" for zeros, loop in groups.items()))
loop = trace_level(f4, 8.0, v5, 8 * np.pi, step=0.01)
print(f"8 pi from v5 closes to {abs(loop.samples[-1] - v5):.1e}")

# a gradient arc: hold arg f4 = 3 pi/2 while |f4| grows from 0.15 to 0.6
comp = components(0.15)[(0.0,)]
vals = f4(comp.points)
start = comp.points[int(np.argmin(np.abs(np.angle(vals) + np.pi / 2)))]
start = solve_target(f4, 0.15 * np.exp(-1j * np.pi / 2), complex(start))
grad = trace_gradient(f4, -np.pi / 2, start, 0.6, step=0.01)
print(f"gradient arc: |f4| {abs(grad.f_values[0]):.6g} -> {abs(grad.f_values[-1]):.6g}, "
      f"max arg deviation {np.max(np.abs(np.angle(grad.f_values*1j))):.2e}")

# the components drawn together: three rings, two, then one
curves_to_svg(rings, os.path.join(OUT, "level_families.svg"),
              labels=[f"component {i}" for i in range(len(rings))])
print("wrote", os.path.join(OUT, "level_families.svg"))
