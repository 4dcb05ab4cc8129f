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
    arg_change_along,
    level_component_enclosing,
    level_components,
    solve_target,
    trace_gradient,
    trace_level,
)
from lemniscates.io import curves_to_svg, save_arc_csv

OUT = os.environ.get("LEMNISCATES_OUTDIR", "demo_output")
os.makedirs(OUT, exist_ok=True)

f4 = Polynomial([0, 0, 3, 4, 1])  # z^2 (z+1)(z+3)

# a vertex: the point with |f4| = 8 and arg f4 = pi/2, from a coarse seed
grid = (np.linspace(-4, 2, 60)[None, :] + 1j * np.linspace(-3, 3, 60)[:, None]).ravel()
seed = grid[int(np.argmin(np.abs(f4(grid) - 8j)))]
v5 = solve_target(f4, 8j, seed)
print(f"vertex v5 = {v5:.9f},  |f4| = {abs(f4(v5)):.12f},  arg = {np.angle(f4(v5))/np.pi:.6f} pi")

# follow the level curve until arg f4 first reaches 5 pi/3: change is 7 pi/6
arc = trace_level(f4, 8.0, v5, 7 * np.pi / 6, step=0.01)
print(f"arc change: {arg_change_along(arc) / (np.pi/6):.6f} * pi/6 over {len(arc)} nodes")
save_arc_csv(arc, os.path.join(OUT, "level_arc_8.csv"))

# the level-8 set is one loop around all four zeros: a 4-cycle of laps, so
# arg f4 changes by 8 pi around it; tracing 8 pi from v5 comes back to v5.
# At step 0.01 a lap has ceil(2 pi / 0.01) = 629 steps.
for eps in (0.15, 0.6, 8.0):
    laps = [len(loop) // 629 for loop in level_components(f4, eps, 0.01)]
    print(f"level {eps:g}: components of {laps} laps")
loop = trace_level(f4, 8.0, v5, 8 * np.pi, step=0.01)
print(f"8 pi from v5 closes to {abs(loop.samples[-1] - v5):.1e}")

# a gradient arc: hold arg f4 = 3 pi/2 while |f4| grows from 0.15 to 0.6
comp = level_component_enclosing(f4, 0.15, [0.0], step=0.01)
vals = f4(comp.points)
start = comp.points[int(np.argmin(np.abs(np.angle(vals) + np.pi / 2)))]
start = solve_target(f4, 0.15 * np.exp(-1j * np.pi / 2), complex(start))
grad = trace_gradient(f4, -np.pi / 2, start, 0.6, step=0.01)
print(f"gradient arc: |f4| {abs(grad.f_values[0]):.6g} -> {abs(grad.f_values[-1]):.6g}, "
      f"max arg deviation {np.max(np.abs(np.angle(grad.f_values*1j))):.2e}")

# level components sort themselves by which zeros they enclose
rings = []
for eps, zeros in [(0.15, [0.0]), (0.15, [-1.0]), (0.15, [-3.0]),
                   (0.6, [0.0, -1.0]), (0.6, [-3.0]), (8.0, [0.0, -1.0, -3.0])]:
    rings.append(level_component_enclosing(f4, eps, zeros, step=0.01))
curves_to_svg(rings, os.path.join(OUT, "level_families.svg"),
              labels=[f"component {i}" for i in range(len(rings))])
print("wrote", os.path.join(OUT, "level_families.svg"))
