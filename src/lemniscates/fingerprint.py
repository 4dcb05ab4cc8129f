"""Conformal welding fingerprints of curves and polynomial pseudo-lemniscates.

The fingerprint of a curve is the circle diffeomorphism composing the
inverse exterior Riemann map with the interior one; for the preimage curve
p^{-1}(Gamma) of a degree-n polynomial it factors through a degree-n
Blaschke product, and `identity_report` measures how well the computed
objects satisfy that factorization. B's lift is taken in closed form: each
factor (z - a)/(1 - conj(a) z) lifts to theta + 2 arg(1 - a e^{-i theta}).

The preimage curve is traced by `levelcurves.preimage_loops`, which joins
the laps of Gamma lifted from the roots of p - Gamma(0) into the components
of p^{-1}(Gamma). p is proper for Gamma iff there is one component, the
pseudo-lemniscate; `is_proper` decides it from the critical values alone.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .conformal import DEFAULT_NODES, DiskMap, ExteriorMap, riemann_maps
from .curves import NEAR_HIT, SampledCurve, is_jordan, winding_numbers
from .errors import NumericalError, PreconditionError, TraceError, require_count
from .levelcurves import preimage_loops
from .polynomials import Polynomial, critical_values, require_polynomial, roots_flat

_TWO_PI = 2.0 * np.pi
LIFT_TOL = 1e-8  # allowed defect in the 2*pi*degree total increase
ORACLE_STEPS_PER_LAP = 128  # lap resolution of is_proper_oracle
_SAMPLES_PER_LAP = 1024  # lap resolution of pseudo_lemniscate


class CircleMap:
    """Monotone lift of a degree-d circle map, interpolated through its nodes
    by a periodic monotone cubic Hermite (PCHIP) spline. The slope at each
    node is the weighted harmonic mean of its two secants (Fritsch & Butland
    1984), the wrap secant closing the period; every secant is positive, so
    the spline is strictly increasing."""

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
        if (y[0] + total) - y[-1] <= 0:
            raise NumericalError("lift wrap is not increasing")
        self.t_nodes = t
        self.lift_nodes = y
        # interval i runs from node i to node i + 1, the last one across the seam
        self._width = np.diff(t, append=t[0] + _TWO_PI)
        self._secant = np.diff(y, append=y[0] + total) / self._width
        # at each node: the widths and secants of the intervals before and after it
        h0, h1 = np.roll(self._width, 1), self._width
        s0, s1 = np.roll(self._secant, 1), self._secant
        w0, w1 = 2 * h1 + h0, h1 + 2 * h0
        self._slope = (w0 + w1) / (w0 / s0 + w1 / s1)

    @property
    def total_increase(self) -> float:
        return self.degree * _TWO_PI

    def lift(self, x):
        """Evaluate the continuous lift at arbitrary real angles."""
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        k = np.floor((x - self.t_nodes[0]) / _TWO_PI)
        xr = x - _TWO_PI * k
        # xr can round to just below t0
        i = np.maximum(np.searchsorted(self.t_nodes, xr, side="right") - 1, 0)
        h, s = self._width[i], self._secant[i]
        d0, d1 = self._slope[i], self._slope[(i + 1) % self.t_nodes.size]
        u = (xr - self.t_nodes[i]) / h
        # the Hermite cubic as the secant line plus its bend
        out = self.lift_nodes[i] + h * u * (s + (1 - u) * ((d0 - s) * (1 - u) - (d1 - s) * u))
        out += self.total_increase * k
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

    def lift(self, theta):
        """Continuous lift of theta -> arg B(e^{i theta}), in closed form:
        each factor lifts to theta + 2 arg(1 - a e^{-i theta}), continuous
        as |a| < 1. Shifted by 2 pi k so that lift(0) lies in (-pi, pi]."""
        theta = np.asarray(theta, dtype=float)
        u = np.exp(-1j * theta)[..., None]
        arg = np.angle(self.rotation)
        lift = arg + self.degree * theta + 2.0 * np.angle(1.0 - self.zeros * u).sum(axis=-1)
        at0 = arg + 2.0 * np.angle(1.0 - self.zeros).sum()
        return lift + _TWO_PI * np.floor((np.pi - at0) / _TWO_PI)


def circle_map_of_blaschke(b: BlaschkeProduct, samples: int = 4096) -> CircleMap:
    """B's lift (total increase 2*pi*degree) as a CircleMap through `samples`
    uniform nodes."""
    if b.degree < 1:
        raise PreconditionError("need degree >= 1")
    t = np.linspace(0.0, _TWO_PI, samples, endpoint=False)
    return CircleMap(t, b.lift(t), degree=b.degree)


def nth_root_lift(m: CircleMap, n: int, branch: int = 0) -> CircleMap:
    """Degree-1 circle map whose lift is m's lift divided by n (branch class
    `branch` of the n-th root)."""
    if n < 1 or m.degree != n:
        raise PreconditionError(f"lift has total increase {m.degree}*2pi, expected {n}")
    c = _TWO_PI * (branch % n) / n
    return CircleMap(m.t_nodes, m.lift_nodes / n + c, degree=1)


# -- pseudo-lemniscates ------------------------------------------------------------


def pseudo_lemniscate(p: Polynomial, gamma: SampledCurve,
                      samples_per_lap: int = _SAMPLES_PER_LAP) -> SampledCurve:
    """The preimage curve p^{-1}(Gamma), the one `preimage_loops` component
    covering Gamma degree-n times. Requires a proper input; a trace that
    still splits into several loops raises TraceError."""
    if not is_proper(p, gamma):
        raise PreconditionError(
            "pseudo-lemniscate is not Jordan: some critical value lies outside"
        )
    return _traced_lemniscate(p, gamma, samples_per_lap)


def _traced_lemniscate(p: Polynomial, gamma: SampledCurve,
                       samples_per_lap: int = _SAMPLES_PER_LAP) -> SampledCurve:
    """`pseudo_lemniscate` for a caller that has already found p proper for
    Gamma with `is_proper`."""
    first, *rest = preimage_loops(p, gamma, samples_per_lap)
    if rest:
        raise TraceError(f"curve closed after {first.size // samples_per_lap} of "
                         f"{p.degree} laps; input is not proper")
    return SampledCurve(first, closed=True)


# -- properness ----------------------------------------------------------------


def is_proper(p: Polynomial, gamma: SampledCurve) -> bool:
    """Criterion: every finite critical value lies in the bounded face of
    Gamma, a closed, positively oriented Jordan polygon."""
    if require_polynomial(p).degree < 1:
        raise PreconditionError("polynomial must be nonconstant")
    if not gamma.closed:
        raise PreconditionError("the base curve must be closed")
    if gamma.orientation != 1:
        raise PreconditionError("the base curve must be positively oriented")
    if not is_jordan(gamma):
        raise PreconditionError("the base curve must be a Jordan curve")
    if p.degree == 1:
        return True
    cvs = np.array(critical_values(p))
    counts, valid = winding_numbers(gamma.points, cvs, min_distance=NEAR_HIT)
    if not valid.all():
        raise PreconditionError(
            f"critical value {cvs[~valid][0]:.6g} within 1e-9 of the curve (degenerate)"
        )
    return bool(np.all(counts == 1))


def is_proper_oracle(p: Polynomial, gamma: SampledCurve) -> bool:
    """Independent properness test: p^{-1}(Gamma) is one Jordan curve, i.e.
    `preimage_loops` finds a single component.

    The answer is a loop count, exact once each lap lands on a unique root;
    the laps are lifted at ORACLE_STEPS_PER_LAP grid steps, every step
    certified to stay on its branch (`levelcurves.lift_path`). The check
    that the lap ends permute the roots stays as a guard and raises
    TraceError. Gamma must be a closed, positively oriented Jordan polygon."""
    if not is_jordan(gamma):
        raise PreconditionError("the base curve must be a Jordan curve")
    return len(preimage_loops(p, gamma, ORACLE_STEPS_PER_LAP)) == 1


# -- fingerprints ----------------------------------------------------------------


def _fingerprint_from_maps(dm: DiskMap, em: ExteriorMap) -> CircleMap:
    x = dm.theta
    y = em.theta
    # both lifts are sampled at the same curve parameter grid
    y = y - _TWO_PI * np.floor((y[0] - x[0] + np.pi) / _TWO_PI)
    return CircleMap(x, y, degree=1)


def fingerprint_of_curve(gamma: SampledCurve, nodes: int = DEFAULT_NODES) -> CircleMap:
    """Welding fingerprint of an analytic Jordan curve with 0 inside."""
    return _fingerprint_from_maps(*riemann_maps(gamma, nodes))


def _blaschke_from_maps(
    p: Polynomial, dm_lem: DiskMap, dm_gamma: DiskMap, m: int
) -> BlaschkeProduct:
    """Blaschke model from solved maps; the pseudo-lemniscate was traced at m
    samples per lap of Gamma."""
    n = p.degree
    roots = np.asarray(roots_flat(p, tol=1e-8), dtype=complex)
    zeros = np.atleast_1d(dm_lem.interior_inverse(roots))
    b0 = BlaschkeProduct(zeros, 1.0)
    total = n * m
    sel = np.unique(np.linspace(0, total - 1, 256).astype(int))
    # the lemniscate parameter 2 pi sel / total and the lap position
    # 2 pi sel / m mod 2 pi are nodes of the total- and m-point grids
    a = dm_lem._theta_on_grid(total)[sel]
    eta = dm_gamma._theta_on_grid(m)[sel % m]
    phase = np.exp(1j * eta) / b0(np.exp(1j * a))
    rot = np.mean(phase)
    rot /= abs(rot)
    return BlaschkeProduct(zeros, complex(rot))


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
) -> IdentityReport:
    """Measure max over `samples` uniform angles (an integer >= 1) of the
    circle distance between n*lift(k_p) and lift(k_Gamma)(lift(B)), after
    aligning the constant 2*pi*k branch offset.

    `nodes`, an integer >= 3, is the node count of the four Riemann maps
    and the cap of the resolution they are solved at (see
    `conformal.riemann_maps`). The
    pseudo-lemniscate is traced at m = max(512, 2*nodes // n) samples per
    lap of Gamma, so its n*m samples resolve the `nodes`-point maps.
    The polynomial must have positive leading coefficient and be proper for
    the curve; the origin must lie inside both the curve and its preimage.
    """
    require_count(samples, 1, "sample count")
    lead = require_polynomial(p).coeffs[-1]
    if abs(lead.imag) > 1e-12 * abs(lead) or lead.real <= 0:
        raise PreconditionError("polynomial must have a positive leading coefficient")
    n = p.degree
    m = max(512, (2 * nodes) // max(n, 1))  # is_proper refuses n = 0
    lem = pseudo_lemniscate(p, gamma, m)
    dm_lem, em_lem = riemann_maps(lem, nodes)
    dm_gam, em_gam = riemann_maps(gamma, nodes)
    k_p = _fingerprint_from_maps(dm_lem, em_lem)
    k_g = _fingerprint_from_maps(dm_gam, em_gam)
    b = _blaschke_from_maps(p, dm_lem, dm_gam, m)

    theta = np.linspace(0.0, _TWO_PI, samples, endpoint=False)
    c = n * k_p.lift(theta) - k_g.lift(b.lift(theta))
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
