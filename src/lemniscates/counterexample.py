"""The counterexample region: a Jordan domain bounded by alternating level
and gradient arcs of z^2(z+1)(z+3), built from tabulated arc data, plus the
degree-of-non-injectivity scan over a polar target grid and the degree-n
family that generalizes z^2(z+1)(z+3). Every polynomial argument here is a
`Polynomial`; anything else raises PreconditionError.

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

from .curves import SampledCurve, is_jordan, winding_numbers
from .errors import ChainClosureError, NumericalError, PreconditionError, TraceError
from .levelcurves import TracedArc, level_components, trace_gradient, trace_level
from .polynomials import Polynomial, critical_values, require_polynomial, roots_flat

_PI6 = np.pi / 6.0
TABLE_TOL = 1e-3        # radians, per-row reproduction tolerance
MODULUS_RTOL = 1e-6     # relative |f| deviation allowed on level arcs
CLOSE_TOL_FACTOR = 1e-6  # chain closure tolerance, relative to diameter
SPACING_RATIO = 3.0     # ratio of consecutive negative zeros in the degree-n family
JORDAN_TOL = 1e-9       # closest approach of non-adjacent boundary segments
MAX_WITNESSES = 100     # witnesses and skipped targets kept in a NoninjectivityResult
# a candidate's open prefix is tested for self-crossings after its first arc
# and then whenever its point count has doubled since the last test, so the
# tests cost at most two full-length Jordan tests per candidate, and a
# crossing is found before the prefix is twice as long as where it occurred.
# On the d4 table's ten row offsets doubling drops 29 of the 30 crossing
# candidates. Growth 4 tests after arcs 0 and 10 only on most offsets: it
# was a few ms faster there, but on one offset it drops no candidate at all
PREFIX_GROWTH = 2.0


def _circ_dist(a: float, b: float) -> float:
    d = (a - b) % (2 * np.pi)
    return min(d, 2 * np.pi - d)


@dataclass(frozen=True)
class Table1Row:
    label: str
    modulus: float
    total_change: float
    initial_arg: float
    final_arg: float

    def consistent(self) -> bool:
        return _circ_dist(self.initial_arg + self.total_change, self.final_arg) <= 1e-12


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
    """z^2 (z+1)(z+3), the degree-4 member of the family."""
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
        if _circ_dist(row.final_arg, nxt.initial_arg) > 1e-9:
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
    for spec in specs:
        if spec.kind == "level":
            arc = trace_level(f, spec.value, z, spec.stop, step=step)
            # re-anchor the arc's lift to the chain's continuous bookkeeping
            arc.arg_lift = arc.arg_lift - arc.arg_lift[0] + lift
            lift += spec.stop
        else:
            arc = trace_gradient(f, lift, z, spec.stop, step=step)
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
    f, specs: list[ArcSpec], start_arg: float = 0.0, step: float = 0.01
) -> BoundaryChain:
    """Resolve and trace the closed boundary chain of the polynomial f
    described by specs.

    The starting vertex is the unique root of f - eps_1*exp(i*start_arg)
    from which the traced chain closes (within CLOSE_TOL_FACTOR * diameter)
    and is Jordan. Each candidate is traced arc by arc and dropped once its
    open prefix crosses itself, since such a prefix can never become a
    Jordan chain; the closure and full Jordan tests run on the survivors.
    Two closed Jordan candidates are one chain when the second one's start
    lies on the first one's curve. Specs whose arc does not start at the
    modulus or argument the one before reached raise PreconditionError
    before any tracing; zero or several distinct chains raise
    ChainClosureError listing every candidate's residual, error or
    "crossed_after_arc" index.
    """
    require_polynomial(f)
    if not specs:
        raise PreconditionError("chain needs at least one arc")
    if len(specs) >= 2:
        kinds = [s.kind for s in specs]
        if any(a == b for a, b in zip(kinds, kinds[1:] + kinds[:1])):
            raise PreconditionError("arc kinds must alternate cyclically")
    if specs[0].kind != "level":
        raise PreconditionError("chain must start with a level arc")
    lift, modulus = start_arg, specs[0].value
    for spec in specs:  # each arc starts at the modulus or argument reached before it
        if spec.kind == "level":
            if abs(spec.value - modulus) > 1e-9 * max(spec.value, modulus):
                raise PreconditionError(
                    f"level arc at eps={spec.value:.6g} reached with |f|={modulus:.6g}")
            lift += spec.stop
        else:
            if _circ_dist(lift, spec.value) > 1e-6:
                raise PreconditionError(
                    f"gradient arc at alpha={spec.value:.6g} reached with arg={lift:.6g}")
            modulus = spec.stop

    w_start = specs[0].value * np.exp(1j * start_arg)
    candidates = [complex(r) for r in roots_flat(f - w_start, tol=1e-8)]

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
        curve = SampledCurve(np.concatenate([a.samples[:-1] for a in arcs]), closed=True)
        resid = abs(complex(arcs[-1].samples[-1]) - cand)
        entry.update(closure_residual=resid, diameter=curve.diameter())
        if resid > CLOSE_TOL_FACTOR * entry["diameter"]:
            continue
        if curve.orientation != 1:
            curve = curve.reversed()
        entry["jordan"] = is_jordan(curve, tol=JORDAN_TOL)
        # distinct candidates trace one closed chain when the image path
        # repeats itself (p = z**2 on a circle)
        if entry["jordan"] and not any(_lies_on(kept[2].points, cand) for kept in distinct):
            distinct.append((arcs, resid, curve))
    if len(distinct) != 1:
        raise ChainClosureError(
            f"{len(distinct)} of {len(candidates)} candidates gave distinct "
            "closed Jordan chains",
            candidates=results,
        )
    arcs, resid, curve = distinct[0]
    verts = np.array([arcs[0].samples[0]] + [a.samples[-1] for a in arcs[:-1]], dtype=complex)
    return BoundaryChain(
        specs=list(specs),
        vertices=verts,
        curve=curve,
        arcs=arcs,
        start_arg=start_arg,
        closure_residual=resid,
    )


@dataclass(frozen=True)
class PolarGrid:
    """n_moduli log-spaced moduli in [mod_min, mod_max] times n_args uniform
    arguments in the w-plane."""

    n_args: int
    n_moduli: int
    mod_min: float
    mod_max: float

    def points(self) -> np.ndarray:
        if not 0 < self.mod_min < self.mod_max:
            raise PreconditionError("grid moduli must satisfy 0 < min < max")
        mods = np.geomspace(self.mod_min, self.mod_max, self.n_moduli)
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


def noninjectivity_degree(f, chain: BoundaryChain, grid: PolarGrid) -> NoninjectivityResult:
    """Max preimage count (with multiplicity) inside the chain over the
    targets grid.points().

    For each admissible grid value w the count is the winding of the
    boundary's image about w; grid points closer to the image polyline than
    a chord-curvature margin are skipped and reported. The image is the
    chain's own f-values, so the polynomial f is checked but never read.
    """
    require_polynomial(f)
    img = chain.image_points()
    ws = grid.points()

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
        witnesses=[complex(w) for w in ws[witness_idx[:MAX_WITNESSES]]],
        n_evaluated=int(valid.sum()),
        n_skipped=int(skipped_idx.size),
        skipped=[complex(w) for w in ws[skipped_idx[:MAX_WITNESSES]]],
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

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.rows)

    def to_dict(self):
        return {
            "table_tol_rad": TABLE_TOL,
            "modulus_rtol": MODULUS_RTOL,
            "all_ok": self.all_ok,
            "rows": [r.to_dict() for r in self.rows],
        }


def reproduce_table(f, chain: BoundaryChain) -> TableReport:
    """Re-measure every level arc of the chain from its raw samples and
    compare with the driving arc data, to TABLE_TOL in the angles and
    MODULUS_RTOL in |f|.

    The measured total change comes from freshly unwrapping arg f along the
    arc samples of the polynomial f, independent of the stop-rule
    bookkeeping used to trace it.
    """
    require_polynomial(f)
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
        # each measured angle is reported on the branch nearest its expected one
        measured_initial, measured_final = (
            e + float(np.angle(v * np.exp(-1j * e)))
            for v, e in ((fvals[0], expected_initial), (fvals[-1], expected_final))
        )
        ok = (
            abs(measured_change - spec.stop) <= TABLE_TOL
            and mod_dev <= MODULUS_RTOL
            and abs(measured_initial - expected_initial) <= TABLE_TOL
            and abs(measured_final - expected_final) <= TABLE_TOL
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
    return TableReport(rows=rows)


def build_d4_chain(step: float = 0.01) -> BoundaryChain:
    """Convenience: the degree-4 region's boundary chain."""
    return build_boundary(f4_polynomial(), chain_from_table(d4_table()), step=step)


# -- the degree-n family ---------------------------------------------------------


@dataclass
class CounterexampleDesign:
    """Validated member of the counterexample family, with build metadata."""

    poly: Polynomial
    zeros: list
    ratio: float
    levels_checked: list

    def metadata(self):
        return {
            "degree": self.poly.degree,
            "zeros": [[z.real, z.imag] for z in np.asarray(self.zeros, dtype=complex)],
            "spacing_ratio": self.ratio,
            "levels_checked": self.levels_checked,
        }


def design_counterexample(n: int) -> CounterexampleDesign:
    """Construct and numerically validate the degree-n family member: a
    double zero at 0 plus n - 2 simple zeros at -1, -3, -9, ...
    (SPACING_RATIO).

    n = 4 is f4_polynomial(). For n >= 5 validation checks that the n - 2
    nonzero critical moduli are strictly increasing and that between
    consecutive critical moduli the level set splits the zeros as a nested
    figure-eight sequence requires: the first k+1 zeros share one component
    while every farther zero has its own. A member that fails raises
    NumericalError; with zeros spaced by SPACING_RATIO, n = 5..8 validate.
    """
    if n < 4:
        raise PreconditionError("counterexample family needs n >= 4")
    zeros = [0.0, 0.0] + [-(SPACING_RATIO**k) for k in range(n - 2)]
    if n == 4:
        return CounterexampleDesign(f4_polynomial(), zeros, SPACING_RATIO, [])
    poly = Polynomial.from_roots(zeros)
    points = sorted(set(zeros), key=abs)  # distinct zero locations
    vals = critical_values(poly)
    scale = max(abs(v) for v in vals)
    mods = sorted(abs(v) for v in vals if abs(v) > 1e-12 * max(scale, 1.0))
    if len(mods) != n - 2:
        raise NumericalError(f"degree {n}: {len(mods)} nonzero critical moduli, expected {n - 2}")
    for a, b in zip(mods, mods[1:]):
        if not b > a * (1.0 + 1e-9):
            raise NumericalError(f"critical moduli not strictly increasing: {a:.6g}, {b:.6g}")
    levels = []
    for k in range(1, len(mods)):
        eps = float(np.sqrt(mods[k - 1] * mods[k]))
        groups = []
        for loop in level_components(poly, eps):
            counts = winding_numbers(loop.points, points, min_distance=0.0)[0]
            groups.append(tuple(z for z, c in zip(points, counts) if c))
        expected = [tuple(points[: k + 1])] + [(far,) for far in points[k + 1 :]]
        if sorted(groups) != sorted(expected):
            raise TraceError(
                f"level {eps:.6g} groups the zeros as {sorted(groups)}, "
                f"expected {sorted(expected)}"
            )
        levels.append(eps)
    return CounterexampleDesign(poly, zeros, SPACING_RATIO, levels)
