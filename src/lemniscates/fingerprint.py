"""Conformal welding fingerprints of curves and polynomial pseudo-lemniscates.

The fingerprint of a curve is the circle diffeomorphism composing the
inverse exterior Riemann map with the interior one; for the preimage curve
p^{-1}(Gamma) of a degree-n polynomial it factors through a degree-n
Blaschke product, and `verify_identity` measures how well the computed
objects satisfy that factorization.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.ndimage import label as _label

from ._fourier import fourier_coeffs, trig_eval, trig_eval_deriv
from .conformal import DiskMap, ExteriorMap, exterior_map, interior_map
from .curves import NEAR_HIT, SampledCurve, winding_number, winding_numbers
from .errors import (
    GridResolutionError,
    NumericalError,
    PreconditionError,
    TraceError,
)
from .levelcurves import lift_path
from .polynomials import Polynomial, critical_values, roots_flat

_TWO_PI = 2.0 * np.pi
LIFT_TOL = 1e-8  # allowed defect in the 2*pi*degree total increase


class CircleMap:
    """Monotone lift of a degree-d circle map, interpolated by a monotone
    (PCHIP) spline through its nodes."""

    def __init__(self, t_nodes, lift_nodes, degree: int = 1):
        t = np.asarray(t_nodes, dtype=float)
        y = np.asarray(lift_nodes, dtype=float)
        if t.ndim != 1 or t.size < 4 or t.shape != y.shape:
            raise PreconditionError("need matching 1-d node arrays (>= 4 nodes)")
        if np.any(np.diff(t) <= 0) or t[-1] - t[0] >= _TWO_PI:
            raise PreconditionError("t nodes must be strictly increasing within one period")
        if np.any(np.diff(y) <= 0):
            raise NumericalError("lift nodes are not strictly increasing")
        self.degree = int(degree)
        total = self.degree * _TWO_PI
        self.t_nodes = t
        self.lift_nodes = y
        # periodic padding keeps the spline's slopes honest across the seam
        pad = min(4, t.size)
        te = np.concatenate([t[-pad:] - _TWO_PI, t, t[:pad] + _TWO_PI])
        ye = np.concatenate([y[-pad:] - total, y, y[:pad] + total])
        self._pchip = PchipInterpolator(te, ye, extrapolate=False)
        gap_y = (y[0] + total) - y[-1]
        if gap_y <= 0:
            raise NumericalError("lift wrap is not increasing")

    @property
    def total_increase(self) -> float:
        return self.degree * _TWO_PI

    def lift(self, x):
        """Evaluate the continuous lift at arbitrary real angles."""
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        base = self.t_nodes[0]
        k = np.floor((x - base) / _TWO_PI)
        xr = x - _TWO_PI * k
        out = self._pchip(xr) + self.total_increase * k
        return float(out[0]) if scalar else out

    def __call__(self, x):
        """The circle map itself: lift reduced mod 2*pi."""
        return np.mod(self.lift(x), _TWO_PI)

    def check_monotone(self, probes: int = 4096, tol: float = LIFT_TOL):
        """Assert strict monotonicity and exact total increase on a fine grid."""
        x = np.linspace(self.t_nodes[0], self.t_nodes[0] + _TWO_PI, probes + 1)
        y = self.lift(x)
        if np.any(np.diff(y) <= 0):
            raise NumericalError("circle map lift is not strictly increasing")
        if abs((y[-1] - y[0]) - self.total_increase) > tol:
            raise NumericalError(
                f"total lift increase {(y[-1] - y[0]):.12g} != {self.total_increase:.12g}"
            )
        return True

    def __repr__(self):
        return f"CircleMap(degree={self.degree}, nodes={self.t_nodes.size})"


@dataclass(frozen=True)
class BlaschkeProduct:
    """Finite Blaschke product: rotation * prod (z - a)/(1 - conj(a) z)."""

    zeros: np.ndarray
    rotation: complex = 1.0 + 0j

    def __post_init__(self):
        z = np.atleast_1d(np.asarray(self.zeros, dtype=complex))
        if np.any(np.abs(z) >= 1.0):
            raise PreconditionError("Blaschke zeros must lie strictly inside the disk")
        if abs(abs(complex(self.rotation)) - 1.0) > 1e-12:
            raise PreconditionError("rotation must be unimodular")
        object.__setattr__(self, "zeros", z)
        object.__setattr__(self, "rotation", complex(self.rotation))

    @property
    def degree(self) -> int:
        return self.zeros.size

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.full(z.shape, self.rotation, dtype=complex)
        for a in self.zeros:
            pole = np.abs(1.0 - np.conj(a) * z)
            if np.any(pole < 1e-12):
                raise PreconditionError("evaluation at a pole of the Blaschke product")
            out = out * (z - a) / (1.0 - np.conj(a) * z)
        return out if out.ndim else complex(out)


def blaschke_eval(b: BlaschkeProduct, z):
    return b(z)


def circle_map_of_blaschke(b: BlaschkeProduct, samples: int = 4096) -> CircleMap:
    """Continuous lift of theta -> arg B(e^{i theta}), total increase 2*pi*degree."""
    if b.degree < 1:
        raise PreconditionError("need degree >= 1")
    t = np.linspace(0.0, _TWO_PI, samples, endpoint=False)
    vals = b(np.exp(1j * t))
    lift = np.unwrap(np.angle(vals))
    gaps = np.diff(lift)
    if np.any(gaps <= 0) or gaps.max() >= np.pi / 2:
        raise NumericalError("Blaschke lift under-resolved; increase samples")
    cm = CircleMap(t, lift, degree=b.degree)
    wrap_gap = (lift[0] + b.degree * _TWO_PI) - lift[-1]
    if not 0 < wrap_gap < np.pi / 2:
        raise NumericalError("Blaschke lift does not close with the right degree")
    return cm


def nth_root_lift(m: CircleMap, n: int, branch: int = 0) -> CircleMap:
    """Degree-1 circle map whose lift is m's lift divided by n (branch class
    `branch` of the n-th root)."""
    if n < 1 or m.degree != n:
        raise PreconditionError(f"lift has total increase {m.degree}*2pi, expected {n}")
    c = _TWO_PI * (branch % n) / n
    return CircleMap(m.t_nodes, m.lift_nodes / n + c, degree=1)


# -- pseudo-lemniscate tracing --------------------------------------------------


def _gamma_interpolant(gamma: SampledCurve):
    if not gamma.closed:
        raise PreconditionError("the base curve must be closed")
    if gamma.orientation != 1:
        raise PreconditionError("the base curve must be positively oriented")
    gc = fourier_coeffs(gamma.points)
    return gc


def _trace_pseudo_lemniscate(p: Polynomial, gamma: SampledCurve, samples_per_lap: int):
    """Lift Gamma(tau mod 2 pi) through p^{-1} over n laps, tau in [0, 2 pi n].

    Returns (points, taus): nm samples of the preimage curve, uniform in tau,
    and the base parameter of each (the Gamma-lap position).
    """
    n = p.degree
    if n < 1:
        raise PreconditionError("polynomial must be nonconstant")
    gc = _gamma_interpolant(gamma)
    m = samples_per_lap
    taus = (_TWO_PI / m) * np.arange(n * m + 1)

    def path(t):
        return trig_eval(gc, np.mod(t, _TWO_PI))

    def dpath(t):
        return trig_eval_deriv(gc, np.mod(t, _TWO_PI))

    w0 = complex(path(taus[:1])[0])
    z0 = min(roots_flat(p - w0, tol=1e-8), key=lambda z: (z.real, z.imag))
    pts, _ = lift_path(p, path, dpath, z0, taus)
    tol = 1e-8 * (1.0 + np.max(np.abs(pts)))
    early = np.nonzero(np.abs(pts[m : n * m : m] - pts[0]) < tol)[0]
    if early.size:
        raise TraceError(
            f"curve closed after {early[0] + 1} of {n} laps; input is not proper"
        )
    if abs(pts[-1] - pts[0]) > tol:
        raise TraceError(
            f"curve did not close after {n} laps (gap {abs(pts[-1] - pts[0]):.3g})"
        )
    return pts[:-1], taus[:-1]


def pseudo_lemniscate(
    p: Polynomial, gamma: SampledCurve, samples_per_lap: int = 1024
) -> SampledCurve:
    """The preimage curve p^{-1}(Gamma), traced as a single closed Jordan
    curve covering Gamma degree-n times. Requires a proper input."""
    if not is_proper(p, gamma):
        raise PreconditionError(
            "pseudo-lemniscate is not Jordan: some critical value lies outside"
        )
    pts, _ = _trace_pseudo_lemniscate(p, gamma, samples_per_lap)
    return SampledCurve(pts, closed=True)


# -- properness ----------------------------------------------------------------


def is_proper(p: Polynomial, gamma: SampledCurve) -> bool:
    """Criterion: every finite critical value lies in the bounded face."""
    if p.degree < 1:
        raise PreconditionError("polynomial must be nonconstant")
    if p.degree == 1:
        return True
    if not gamma.closed:
        raise PreconditionError("winding number needs a closed curve")
    cvs = np.array(critical_values(p))
    counts, valid = winding_numbers(gamma.points, cvs, min_distance=NEAR_HIT)
    if not valid.all():
        raise PreconditionError(
            f"critical value {cvs[~valid][0]:.6g} within 1e-9 of the curve (degenerate)"
        )
    return bool(np.all(counts == 1))


@dataclass(frozen=True)
class RectGrid:
    """Rectangular z-plane grid for the connectivity oracle."""

    nx: int = 96
    ny: int = 96


def _preimage_component_count(p: Polynomial, gamma: SampledCurve, nx: int, ny: int):
    wmax = float(np.max(np.abs(gamma.points)))
    c = p.coeffs
    bound = 1.0 + (np.max(np.abs(c[:-1])) + wmax) / abs(c[-1])
    xs = np.linspace(-bound, bound, nx)
    ys = np.linspace(-bound, bound, ny)
    zg = xs[None, :] + 1j * ys[:, None]
    pts = gamma.points
    if pts.size > 256:  # classification only needs a coarse polygon
        pts = pts[:: pts.size // 256]
    counts, _ = winding_numbers(pts, p(zg.ravel()), min_distance=0.0)
    mask = counts.reshape(ny, nx) == 1
    _, ncomp = _label(mask)
    return int(ncomp)


def is_proper_oracle(p: Polynomial, gamma: SampledCurve, grid: RectGrid | None = None) -> bool:
    """Independent connectivity test: flood-fill count of the grid region
    mapping into the bounded face; proper iff a single component.

    The count must agree between two consecutive 2x refinements; the grid
    doubles (up to 8x the base) until it does."""
    if p.degree < 1:
        raise PreconditionError("polynomial must be nonconstant")
    grid = grid or RectGrid()
    counts = [_preimage_component_count(p, gamma, grid.nx, grid.ny)]
    factor = 2
    while factor <= 8:
        counts.append(
            _preimage_component_count(p, gamma, factor * grid.nx, factor * grid.ny)
        )
        if counts[-1] == counts[-2]:
            return counts[-1] == 1
        factor *= 2
    raise GridResolutionError(
        f"component count unstable under refinement (saw {counts})"
    )


# -- fingerprints ----------------------------------------------------------------


def _fingerprint_from_maps(dm: DiskMap, em: ExteriorMap) -> CircleMap:
    x = dm.theta
    y = em.theta
    # both lifts are sampled at the same curve parameter grid
    y = y - _TWO_PI * np.floor((y[0] - x[0] + np.pi) / _TWO_PI)
    return CircleMap(x, y, degree=1)


def fingerprint_of_curve(gamma: SampledCurve, nodes: int = 512) -> CircleMap:
    """Welding fingerprint of an analytic Jordan curve with 0 inside."""
    dm = interior_map(gamma, nodes)
    em = exterior_map(gamma, nodes)
    return _fingerprint_from_maps(dm, em)


def _blaschke_from_maps(
    p: Polynomial, dm_lem: DiskMap, dm_gamma: DiskMap, taus: np.ndarray
) -> BlaschkeProduct:
    """Blaschke model from solved maps and the lap correspondence taus."""
    n = p.degree
    roots = np.asarray(roots_flat(p, tol=1e-8), dtype=complex)
    zeros = np.atleast_1d(dm_lem.interior_inverse(roots))
    b0 = BlaschkeProduct(zeros, 1.0)
    total = taus.size
    sel = np.unique(np.linspace(0, total - 1, 256).astype(int))
    t_curve = _TWO_PI * sel / total  # lemniscate curve parameter
    a = dm_lem._theta_of_t(t_curve)
    eta = dm_gamma._theta_of_t(np.mod(taus[sel], _TWO_PI))
    phase = np.exp(1j * eta) / b0(np.exp(1j * a))
    rot = np.mean(phase)
    rot /= abs(rot)
    return BlaschkeProduct(zeros, complex(rot))


def blaschke_model(
    p: Polynomial, gamma: SampledCurve, nodes: int = 512, samples_per_lap: int = 1024
) -> BlaschkeProduct:
    """Degree-n Blaschke product whose zeros are the disk preimages of the
    zeros of p under the interior map of the pseudo-lemniscate, rotated to
    match the boundary correspondence."""
    if not is_proper(p, gamma):
        raise PreconditionError("input is not proper")
    pts, taus = _trace_pseudo_lemniscate(p, gamma, samples_per_lap)
    lem = SampledCurve(pts, closed=True)
    if winding_number(lem, 0.0) != 1:
        raise PreconditionError("the origin must lie inside the pseudo-lemniscate")
    dm_lem = interior_map(lem, nodes)
    dm_gamma = interior_map(gamma, nodes)
    return _blaschke_from_maps(p, dm_lem, dm_gamma, taus)


def fingerprint_of_pseudolemniscate(
    p: Polynomial, gamma: SampledCurve, nodes: int = 512, samples_per_lap: int = 1024
) -> CircleMap:
    """Fingerprint of the traced pseudo-lemniscate."""
    return fingerprint_of_curve(pseudo_lemniscate(p, gamma, samples_per_lap), nodes)


@dataclass
class IdentityReport:
    """All artifacts of one fingerprint-identity verification."""

    residual: float
    degree: int
    k_p: CircleMap
    k_gamma: CircleMap
    blaschke: BlaschkeProduct
    lemniscate: SampledCurve = field(repr=False)
    nodes: int = 0
    samples: int = 0
    maps: dict = field(repr=False, default_factory=dict)


def identity_report(
    p: Polynomial,
    gamma: SampledCurve,
    samples: int = 512,
    nodes: int = 1024,
    samples_per_lap: int | None = None,
) -> IdentityReport:
    """Measure max over sample angles of the circle distance between
    n*lift(k_p) and lift(k_Gamma)(lift(B)), after aligning the constant
    2*pi*k branch offset.

    The polynomial must have positive leading coefficient and be proper for
    the curve; the origin must lie inside both the curve and its preimage.
    """
    lead = p.coeffs[-1]
    if abs(lead.imag) > 1e-12 * abs(lead) or lead.real <= 0:
        raise PreconditionError("polynomial must have a positive leading coefficient")
    if not is_proper(p, gamma):
        raise PreconditionError("input is not proper")
    n = p.degree
    m = samples_per_lap or max(512, (2 * nodes) // n)
    pts, taus = _trace_pseudo_lemniscate(p, gamma, m)
    lem = SampledCurve(pts, closed=True)
    if winding_number(gamma, 0.0) != 1 or winding_number(lem, 0.0) != 1:
        raise PreconditionError("the origin must lie inside the curve and its preimage")

    dm_lem = interior_map(lem, nodes)
    em_lem = exterior_map(lem, nodes)
    dm_gam = interior_map(gamma, nodes)
    em_gam = exterior_map(gamma, nodes)
    k_p = _fingerprint_from_maps(dm_lem, em_lem)
    k_g = _fingerprint_from_maps(dm_gam, em_gam)
    b = _blaschke_from_maps(p, dm_lem, dm_gam, taus)
    lb = circle_map_of_blaschke(b, samples=max(4096, 4 * nodes))

    theta = np.linspace(0.0, _TWO_PI, samples, endpoint=False)
    c = n * k_p.lift(theta) - k_g.lift(lb.lift(theta))
    k_star = np.round(np.median(c) / _TWO_PI)
    residual = float(np.max(np.abs(c - _TWO_PI * k_star)))
    return IdentityReport(
        residual=residual,
        degree=n,
        k_p=k_p,
        k_gamma=k_g,
        blaschke=b,
        lemniscate=lem,
        nodes=nodes,
        samples=samples,
        maps={
            "curve_interior": dm_lem,
            "curve_exterior": em_lem,
            "base_interior": dm_gam,
            "base_exterior": em_gam,
        },
    )


def verify_identity(
    p: Polynomial, gamma: SampledCurve, samples: int = 512, nodes: int = 1024
) -> float:
    """Max residual (radians) of the fingerprint factorization identity."""
    return identity_report(p, gamma, samples=samples, nodes=nodes).residual
