"""The counterexample region: a Jordan domain bounded by alternating level
and gradient arcs of z^2(z+1)(z+3), built from tabulated arc data, plus the
degree-of-non-injectivity scan over a polar target grid.

The boundary chain is resolved by enumerating all preimages of the starting
vertex value and keeping the unique candidate whose chain closes and is
Jordan. Each candidate is traced arc by arc and dropped at the first test
that finds its open prefix crossing itself (the tests follow PREFIX_GROWTH);
only the survivors are traced to the end and tested for closure and as
closed curves. Gradient arcs are inferred from consecutive level rows
(shared argument, connecting the two moduli).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .curves import SampledCurve, is_jordan, winding_number, winding_numbers
from .errors import ChainClosureError, NumericalError, PreconditionError, TraceError
from .levelcurves import TracedArc, trace_gradient, trace_level
from .polynomials import Polynomial, as_rational, roots_flat

_PI6 = np.pi / 6.0
TABLE_TOL = 1e-3        # radians, per-row reproduction tolerance
MODULUS_RTOL = 1e-6     # relative |f| deviation allowed on level arcs
CLOSE_TOL_FACTOR = 1e-6  # chain closure tolerance, relative to diameter
JORDAN_TOL = 1e-9       # closest approach of non-adjacent boundary segments
# a candidate's open prefix is tested for self-crossings after its first arc
# and then whenever its point count has doubled since the last test, so the
# tests cost at most two full-length Jordan tests per candidate, and a
# crossing is found before the prefix is twice as long as where it occurred.
# On the d4 table's ten row offsets doubling drops 29 of the 30 crossing
# candidates. Growth 4 tests after arcs 0 and 10 only on most offsets: it
# was a few ms faster there, but on one offset it drops no candidate at all
PREFIX_GROWTH = 2.0


@dataclass(frozen=True)
class Table1Row:
    label: str
    modulus: float
    total_change: float
    initial_arg: float
    final_arg: float

    def consistent(self, tol=1e-12) -> bool:
        gap = (self.initial_arg + self.total_change - self.final_arg) % (2 * np.pi)
        return min(gap, 2 * np.pi - gap) <= tol


@dataclass(frozen=True)
class ArcSpec:
    kind: str    # "level" | "gradient"
    value: float  # eps for level, alpha (radians) for gradient
    stop: float   # signed arg change for level, target modulus for gradient

    def __post_init__(self):
        if self.kind not in ("level", "gradient"):
            raise PreconditionError(f"unknown arc kind {self.kind!r}")
        if self.kind == "level" and self.stop == 0:
            raise PreconditionError("level arc needs a nonzero signed arg change")
        if self.kind == "gradient" and self.stop <= 0:
            raise PreconditionError("gradient arc needs a positive target modulus")


# (modulus, change, initial, final) in units of pi/6 for the angle entries
_D4_ROWS = [
    ("v1v2", 0.15, -15, 0, 9),
    ("v3v4", 0.6, 6, 9, 3),
    ("v5v6", 8.0, 7, 3, 10),
    ("v7v8", 2.0, -1, 10, 9),
    ("v9v10", 6.0, -5, 9, 4),
    ("v11v12", 3.0, 14, 4, 6),
    ("v13v14", 2.0, -14, 6, 4),
    ("v15v16", 0.15, -1, 4, 3),
    ("v17v18", 0.47, -5, 3, 10),
    ("v19v20", 0.25, 14, 10, 0),
]


def d4_table() -> list[Table1Row]:
    """The ten level-arc rows of the degree-4 region's boundary data."""
    return [
        Table1Row(label, mod, ch * _PI6, a0 * _PI6, a1 * _PI6)
        for (label, mod, ch, a0, a1) in _D4_ROWS
    ]


def f4_polynomial() -> Polynomial:
    return Polynomial([0.0, 0.0, 3.0, 4.0, 1.0])


def chain_from_table(rows: list[Table1Row]) -> list[ArcSpec]:
    """Alternating level/gradient arc specs from consecutive table rows.

    Each row contributes its level arc; the gradient arc between rows i and
    i+1 (cyclically) runs at their shared argument from the first modulus to
    the second.
    """
    if not rows:
        raise PreconditionError("empty table")
    specs: list[ArcSpec] = []
    n = len(rows)
    for i, row in enumerate(rows):
        if not row.consistent():
            raise PreconditionError(f"row {row.label}: final != initial + change (mod 2pi)")
        nxt = rows[(i + 1) % n]
        gap = (row.final_arg - nxt.initial_arg) % (2 * np.pi)
        if min(gap, 2 * np.pi - gap) > 1e-9:
            raise PreconditionError(
                f"rows {row.label} and {nxt.label} are incompatible: "
                f"final arg {row.final_arg:.6g} != initial arg {nxt.initial_arg:.6g}"
            )
        specs.append(ArcSpec("level", row.modulus, row.total_change))
        specs.append(ArcSpec("gradient", row.final_arg, nxt.modulus))
    return specs


@dataclass
class BoundaryChain:
    specs: list[ArcSpec]
    vertices: np.ndarray          # 2k resolved vertices, starting at the chain seed
    curve: SampledCurve           # concatenated closed boundary
    arcs: list[TracedArc] = field(repr=False, default_factory=list)
    start_arg: float = 0.0
    closure_residual: float = 0.0

    def image_points(self) -> np.ndarray:
        """f-values along the boundary (the image curve of the chain)."""
        vals = [arc.f_values[:-1] for arc in self.arcs]
        return np.concatenate(vals)

    def diameter(self) -> float:
        return self.curve.diameter()


def _trace_chain(f, specs, z_start, start_arg, step):
    """Trace the alternating chain from one candidate starting vertex,
    yielding each arc as soon as it is traced."""
    z = z_start
    lift = start_arg
    modulus = specs[0].value
    for spec in specs:
        if spec.kind == "level":
            if abs(spec.value - modulus) > 1e-9 * max(spec.value, modulus):
                raise TraceError(
                    f"level arc at eps={spec.value:.6g} reached with |f|={modulus:.6g}"
                )
            arc = trace_level(f, spec.value, z, spec.stop, step=step)
            # re-anchor the arc's lift to the chain's continuous bookkeeping
            arc.arg_lift = arc.arg_lift - arc.arg_lift[0] + lift
            lift += spec.stop
        else:
            misfit = (lift - spec.value) % (2 * np.pi)
            if min(misfit, 2 * np.pi - misfit) > 1e-6:
                raise TraceError(
                    f"gradient arc at alpha={spec.value:.6g} reached with arg={lift:.6g}"
                )
            arc = trace_gradient(f, lift, z, spec.stop, step=step)
            modulus = spec.stop
        yield arc
        z = complex(arc.samples[-1])


def _trace_until_crossing(f, specs, z_start, start_arg, step):
    """Trace one candidate's chain arc by arc, testing its open prefix for
    self-crossings on the PREFIX_GROWTH schedule.

    Returns (arcs, k): k is the index of the arc after which a test found
    the prefix crossing itself (the crossing lies on arc k or before), and
    then arcs stop there; k is None when every arc was traced. The last arc
    closes the chain, so only the closed test sees it.
    """
    arcs, size, tested = [], 1, 0
    for k, arc in enumerate(_trace_chain(f, specs, z_start, start_arg, step)):
        arcs.append(arc)
        size += len(arc) - 1
        if k + 1 < len(specs) and size >= PREFIX_GROWTH * tested:
            tested = size
            prefix = np.concatenate([a.samples[:-1] for a in arcs] + [arc.samples[-1:]])
            if not is_jordan(SampledCurve(prefix, closed=False), tol=JORDAN_TOL):
                return arcs, k
    return arcs, None


def _lies_on(points: np.ndarray, z: complex) -> bool:
    """Whether z lies on the curve sampled by the closed polygon `points`.

    A point of the curve between two samples is within half their distance
    of the chord while the curve turns by less than a half turn between
    them, so z must be that close to its nearest segment.
    """
    u = np.roll(points, -1) - points
    rel = z - points
    s = np.clip((rel * np.conj(u)).real / np.abs(u) ** 2, 0.0, 1.0)
    dist = np.abs(rel - s * u)
    i = int(np.argmin(dist))
    return bool(dist[i] <= 0.5 * abs(u[i]))


def build_boundary(
    f,
    specs: list[ArcSpec],
    seed_hint=None,
    start_arg: float = 0.0,
    step: float = 0.01,
    close_tol_factor: float = CLOSE_TOL_FACTOR,
) -> BoundaryChain:
    """Resolve and trace the closed boundary chain described by specs.

    The starting vertex is the unique preimage of eps_1*exp(i*start_arg)
    from which the traced chain closes (within close_tol_factor * diameter)
    and is Jordan. Each candidate is traced arc by arc and dropped once its
    open prefix crosses itself, since such a prefix can never become a
    Jordan chain; the closure and full Jordan tests run on the survivors.
    Two closed Jordan candidates are one chain when the second one's start
    lies on the first one's curve. Zero or several distinct chains raise
    ChainClosureError listing every candidate's residual, error or
    "crossed_after_arc" index.
    """
    f = as_rational(f)
    if not specs:
        raise PreconditionError("chain needs at least one arc")
    if len(specs) >= 2:
        kinds = [s.kind for s in specs]
        if any(a == b for a, b in zip(kinds, kinds[1:] + kinds[:1])):
            raise PreconditionError("arc kinds must alternate cyclically")
    if specs[0].kind != "level":
        raise PreconditionError("chain must start with a level arc")

    w_start = specs[0].value * np.exp(1j * start_arg)
    target = f.num - w_start * f.den
    candidates = [complex(r) for r in roots_flat(target, tol=1e-8)]
    if seed_hint is not None:
        candidates.sort(key=lambda z: abs(z - complex(seed_hint)))
    else:
        candidates.sort(key=lambda z: (z.real, z.imag))

    results = []
    distinct = []
    for cand in candidates:
        entry = {"start": cand}
        results.append(entry)
        try:
            arcs, crossed = _trace_until_crossing(f, specs, cand, start_arg, step)
        except (TraceError, NumericalError) as err:
            entry["error"] = str(err)
            continue
        if crossed is not None:
            entry["crossed_after_arc"] = crossed
            continue
        verts = np.array(
            [arcs[0].samples[0]] + [a.samples[-1] for a in arcs[:-1]], dtype=complex
        )
        allpts = np.concatenate([a.samples for a in arcs])
        diam = float(
            np.hypot(
                allpts.real.max() - allpts.real.min(),
                allpts.imag.max() - allpts.imag.min(),
            )
        )
        resid = abs(complex(arcs[-1].samples[-1]) - cand)
        entry.update(closure_residual=resid, diameter=diam)
        if resid > close_tol_factor * diam:
            continue
        points = np.concatenate([a.samples[:-1] for a in arcs])
        curve = SampledCurve(points, closed=True)
        if curve.orientation != 1:
            curve = curve.reversed()
        entry["jordan"] = is_jordan(curve, tol=JORDAN_TOL)
        # distinct candidates trace one closed chain when the image path
        # repeats itself (p = z**2 on a circle)
        if entry["jordan"] and not any(_lies_on(kept[4].points, cand) for kept in distinct):
            distinct.append((cand, arcs, verts, resid, curve))
    if len(distinct) != 1:
        raise ChainClosureError(
            f"{len(distinct)} of {len(candidates)} candidates gave distinct "
            "closed Jordan chains",
            candidates=results,
        )
    cand, arcs, verts, resid, curve = distinct[0]
    return BoundaryChain(
        specs=list(specs),
        vertices=verts,
        curve=curve,
        arcs=arcs,
        start_arg=start_arg,
        closure_residual=resid,
    )


def region_contains(chain: BoundaryChain, z) -> bool:
    """Whether z lies in the bounded region of the chain (winding != 0)."""
    return winding_number(chain.curve, z) != 0


@dataclass(frozen=True)
class PolarGrid:
    """Log-spaced moduli times uniform arguments in the w-plane."""

    n_args: int = 360
    n_moduli: int = 100
    mod_min: float | None = None
    mod_max: float | None = None

    def points(self, default_range) -> np.ndarray:
        lo = self.mod_min if self.mod_min is not None else default_range[0]
        hi = self.mod_max if self.mod_max is not None else default_range[1]
        if not 0 < lo < hi:
            raise PreconditionError("grid moduli must satisfy 0 < min < max")
        mods = np.geomspace(lo, hi, self.n_moduli)
        args = np.linspace(0.0, 2 * np.pi, self.n_args, endpoint=False)
        return (mods[:, None] * np.exp(1j * args)[None, :]).ravel()


@dataclass
class NoninjectivityResult:
    degree: int
    witnesses: list[complex]
    n_evaluated: int
    n_skipped: int
    skipped: list[complex]
    counts: np.ndarray = field(repr=False, default=None)
    grid_w: np.ndarray = field(repr=False, default=None)


def noninjectivity_degree(
    f, chain: BoundaryChain, grid: PolarGrid | None = None, max_witnesses: int = 100
) -> NoninjectivityResult:
    """Max preimage count (with multiplicity) of grid targets inside the chain.

    For each admissible grid value w the count is the winding of the
    boundary's image about w; grid points closer to the image polyline than
    a chord-curvature margin are skipped and reported.
    """
    f = as_rational(f)
    grid = grid or PolarGrid()
    img = chain.image_points()
    level_mods = [s.value for s in chain.specs if s.kind == "level"]
    if len(set(level_mods)) > 1:
        default_range = (min(level_mods) * 1.05, max(level_mods) * 0.98)
    else:
        default_range = (level_mods[0] * 0.05, level_mods[0] * 0.95)
    ws = grid.points(default_range)

    # polyline-vs-true-image deviation: level arcs are circular (sagitta
    # bound eps*dphi^2/8), gradient arcs are radial segments (chords exact)
    sagitta = 0.0
    for arc in chain.arcs:
        if arc.kind == "level" and len(arc) > 1:
            dphi = float(np.abs(np.diff(arc.arg_lift)).max())
            sagitta = max(sagitta, arc.value * dphi * dphi / 8.0)
    margin = max(6.0 * sagitta, 1e-9)

    counts, valid = winding_numbers(img, ws, min_distance=margin)
    if not valid.any():
        raise NumericalError("every grid point is too close to the image curve")
    admissible = counts[valid]
    if admissible.min() < 0:
        raise NumericalError("negative preimage count: check chain orientation")
    degree = int(admissible.max())
    witness_idx = np.nonzero(valid & (counts == degree))[0]
    skipped_idx = np.nonzero(~valid)[0]
    return NoninjectivityResult(
        degree=degree,
        witnesses=[complex(w) for w in ws[witness_idx[:max_witnesses]]],
        n_evaluated=int(valid.sum()),
        n_skipped=int(skipped_idx.size),
        skipped=[complex(w) for w in ws[skipped_idx[:max_witnesses]]],
        counts=counts,
        grid_w=ws,
    )


@dataclass
class RowReport:
    label: str
    expected_modulus: float
    measured_modulus: float
    modulus_rel_deviation: float
    expected_change: float
    measured_change: float
    change_deviation: float
    expected_initial_arg: float
    measured_initial_arg: float
    expected_final_arg: float
    measured_final_arg: float
    ok: bool

    def to_dict(self):
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


@dataclass
class TableReport:
    rows: list[RowReport]
    table_tol: float
    modulus_rtol: float

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.rows)

    def to_dict(self):
        return {
            "table_tol_rad": self.table_tol,
            "modulus_rtol": self.modulus_rtol,
            "all_ok": self.all_ok,
            "rows": [r.to_dict() for r in self.rows],
        }


def _circ_dist(a: float, b: float) -> float:
    d = (a - b) % (2 * np.pi)
    return min(d, 2 * np.pi - d)


def reproduce_table(
    f,
    chain: BoundaryChain,
    table_tol: float = TABLE_TOL,
    modulus_rtol: float = MODULUS_RTOL,
) -> TableReport:
    """Re-measure every level arc of the chain from its raw samples and
    compare with the driving arc data.

    The measured total change comes from freshly unwrapping arg f along the
    arc samples, independent of the stop-rule bookkeeping used to trace it.
    """
    f = as_rational(f)
    rows = []
    lift = chain.start_arg
    level_idx = 0
    for spec, arc in zip(chain.specs, chain.arcs):
        if spec.kind != "level":
            continue
        level_idx += 1
        label = f"v{2 * level_idx - 1}v{2 * level_idx}"
        fvals = np.asarray(f(arc.samples))
        mods = np.abs(fvals)
        measured_mod = float(mods.mean())
        mod_dev = float(np.max(np.abs(mods - spec.value)) / spec.value)
        fresh = np.unwrap(np.angle(fvals))
        measured_change = float(fresh[-1] - fresh[0])
        expected_initial = lift % (2 * np.pi)
        expected_final = (lift + spec.stop) % (2 * np.pi)
        measured_initial = float(np.angle(fvals[0])) % (2 * np.pi)
        measured_final = float(np.angle(fvals[-1])) % (2 * np.pi)
        ok = (
            abs(measured_change - spec.stop) <= table_tol
            and mod_dev <= modulus_rtol
            and _circ_dist(measured_initial, expected_initial) <= table_tol
            and _circ_dist(measured_final, expected_final) <= table_tol
        )
        rows.append(
            RowReport(
                label=label,
                expected_modulus=spec.value,
                measured_modulus=measured_mod,
                modulus_rel_deviation=mod_dev,
                expected_change=spec.stop,
                measured_change=measured_change,
                change_deviation=abs(measured_change - spec.stop),
                expected_initial_arg=expected_initial,
                measured_initial_arg=measured_initial,
                expected_final_arg=expected_final,
                measured_final_arg=measured_final,
                ok=bool(ok),
            )
        )
        lift += spec.stop
    return TableReport(rows=rows, table_tol=table_tol, modulus_rtol=modulus_rtol)


def build_d4_chain(step: float = 0.01) -> BoundaryChain:
    """Convenience: the degree-4 region's boundary chain."""
    return build_boundary(f4_polynomial(), chain_from_table(d4_table()), step=step)
