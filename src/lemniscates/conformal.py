"""Numerical Riemann maps of analytic Jordan domains.

The interior map phi: D -> Omega with phi(0)=0, phi'(0)>0 is computed from
its inverse f(z) = z * exp(g(z)) where Re g = -log|z| on the boundary. The
harmonic Dirichlet problem for Re g is solved with the Neumann-kernel
second-kind integral equation (double layer, Nystrom trapezoid), and g is
completed holomorphically by a Cauchy-type integral of the same density,
using a singularity subtraction for its boundary values. On analytic
boundaries every ingredient converges spectrally.

Exterior maps are reduced to interior ones by the inversion z -> 1/z.
Both maps share one solve path: the curve is checked once per call (closed,
positively oriented, origin inside), resampled and checked Jordan at each
solver resolution, and either solved at the requested node count or by one
doubling loop that stops when the boundary images settle.
"""
from __future__ import annotations

import numpy as np

from ._fourier import (
    fourier_coeffs,
    trig_diff,
    trig_eval,
    trig_eval_deriv,
    trig_resample,
)
from .curves import SampledCurve, is_jordan, winding_number
from .errors import NumericalError, PreconditionError, SolverError

DEFAULT_NODES = 512
MAX_NODES = 4096
SELF_CONSISTENCY_TOL = 1e-6
INTERIOR_MARGIN = 0.02  # reject |w| > 1 - margin in disk-side evaluation

_TWO_PI = 2.0 * np.pi


def _resampled_points(gamma: SampledCurve, nodes: int) -> np.ndarray:
    pts = trig_resample(gamma.points, nodes)
    if not is_jordan(SampledCurve(pts, closed=True), tol=1e-9):
        raise PreconditionError("curve is not Jordan at the solver resolution")
    return pts


def _self_consistent(solve, gamma: SampledCurve, nodes: int | None):
    """solve() on gamma resampled at `nodes`, or, with nodes=None, at 512
    nodes doubled until the 64 probe images move by at most 1e-6."""
    if not gamma.closed:
        raise PreconditionError("conformal maps need a closed curve")
    if gamma.orientation != 1:
        raise PreconditionError("curve must be positively oriented")
    if winding_number(gamma, 0.0) != 1:
        raise PreconditionError("origin must lie inside the curve (winding 1)")
    if nodes is not None:
        return solve(_resampled_points(gamma, nodes))
    n = DEFAULT_NODES
    m = solve(_resampled_points(gamma, n))
    probe = np.linspace(0.0, _TWO_PI, 64, endpoint=False)
    while 2 * n <= MAX_NODES:
        m2 = solve(_resampled_points(gamma, 2 * n))
        delta = np.max(np.abs(m2.boundary_forward(probe) - m.boundary_forward(probe)))
        m = m2
        n *= 2
        if delta <= SELF_CONSISTENCY_TOL:
            return m
    raise SolverError(f"no self-consistent solve within {MAX_NODES} nodes")


class DiskMap:
    """Boundary correspondence and evaluators for phi: D -> Omega, phi(0)=0."""

    def __init__(self, points, theta, center_derivative, mu=None, g0=0j):
        self.points = np.asarray(points, dtype=complex)
        self.nodes = self.points.size
        self.theta = np.asarray(theta, dtype=float)
        self.center_derivative = float(center_derivative)
        self._mu = None if mu is None else np.asarray(mu, dtype=float)
        self._g0 = complex(g0)
        self._gamma_c = fourier_coeffs(self.points)
        self._dgamma = trig_diff(self.points)
        t = np.linspace(0.0, _TWO_PI, self.nodes, endpoint=False)
        self._p_c = fourier_coeffs(self.theta - t)  # periodic part of the lift
        self._dtheta = 1.0 + np.real(trig_diff(self.theta - t))
        gaps = np.diff(np.concatenate([self.theta, [self.theta[0] + _TWO_PI]]))
        if np.any(gaps <= 0):
            raise SolverError("boundary correspondence is not strictly increasing")
        if self.center_derivative <= 0:
            raise SolverError("center derivative must be positive")

    # -- parameter <-> angle ------------------------------------------------

    def _theta_of_t(self, t):
        t = np.asarray(t, dtype=float)
        return t + np.real(trig_eval(self._p_c, t))

    def _t_of_theta(self, theta):
        """Invert the monotone lift theta(t) = t + P(t) by Newton."""
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        base = self.theta[0]
        red = np.mod(theta - base, _TWO_PI) + base
        t = np.interp(
            red,
            np.concatenate([self.theta, [self.theta[0] + _TWO_PI]]),
            np.concatenate(
                [np.linspace(0.0, _TWO_PI, self.nodes, endpoint=False), [_TWO_PI]]
            ),
        )
        for _ in range(30):
            val = t + np.real(trig_eval(self._p_c, t)) - red
            der = 1.0 + np.real(trig_eval_deriv(self._p_c, t))
            step = val / der
            t = t - step
            if np.max(np.abs(step)) < 1e-14:
                break
        return t

    # -- boundary -----------------------------------------------------------

    def boundary_forward(self, theta):
        """Boundary point phi(e^{i theta})."""
        t = self._t_of_theta(theta)
        out = trig_eval(self._gamma_c, t)
        return out if np.ndim(theta) else complex(out[0])

    def boundary_inverse(self, point, tol=None):
        """Angle theta in [0, 2pi) with phi(e^{i theta}) = point."""
        z = complex(point)
        scale = max(np.max(np.abs(self.points)), 1e-300)
        tol = 1e-8 * scale if tol is None else tol
        j = int(np.argmin(np.abs(self.points - z)))
        t = _TWO_PI * j / self.nodes
        for _ in range(60):
            gz = trig_eval(self._gamma_c, t)[0] - z
            dg = trig_eval_deriv(self._gamma_c, t)[0]
            step = (gz * np.conj(dg)).real / max(abs(dg) ** 2, 1e-300)
            t = t - step
            if abs(step) < 1e-15:
                break
        resid = abs(trig_eval(self._gamma_c, t)[0] - z)
        if resid > tol:
            raise PreconditionError(
                f"point {z:.6g} is off the curve (residual {resid:.3g})"
            )
        return float(np.mod(self._theta_of_t(np.array([t]))[0], _TWO_PI))

    # -- interior -----------------------------------------------------------

    def interior_eval(self, w):
        """phi(w) for |w| < 1 - margin, by the Cauchy integral over the
        boundary correspondence."""
        w_arr = np.atleast_1d(np.asarray(w, dtype=complex))
        if np.any(np.abs(w_arr) > 1.0 - INTERIOR_MARGIN):
            raise PreconditionError(
                f"interior evaluation needs |w| <= {1.0 - INTERIOR_MARGIN}"
            )
        out = self._cauchy(w_arr, 1)
        return out if np.ndim(w) else complex(out[0])

    def _cauchy(self, w, power):
        """Cauchy sum over the boundary correspondence: phi(w) for power 1,
        phi'(w) for power 2, at the 1-D array w."""
        zeta = np.exp(1j * self.theta)
        weight = self.points * zeta * self._dtheta / self.nodes
        return (weight[None, :] / (zeta[None, :] - w[:, None]) ** power).sum(axis=1)

    def interior_inverse(self, z):
        """w in D with phi(w) = z, for z strictly inside Omega."""
        if self._mu is not None:
            f = self._forward_f(z)
            a = np.abs(np.atleast_1d(f))
            if np.any(a >= 1.0):
                raise PreconditionError("point is not strictly inside the domain")
            return f
        # density unavailable (cache-loaded map): Newton on the evaluator
        z_arr = np.atleast_1d(np.asarray(z, dtype=complex))
        w = np.clip(
            np.abs(z_arr / self.center_derivative), 0.0, 0.8
        ) * np.exp(1j * np.angle(z_arr / self.center_derivative))
        for _ in range(80):
            step = (self._cauchy(w, 1) - z_arr) / self._cauchy(w, 2)
            w = w - step
            w = np.where(np.abs(w) > 0.97, 0.97 * np.exp(1j * np.angle(w)), w)
            if np.max(np.abs(step)) < 1e-14:
                break
        resid = np.max(np.abs(self._cauchy(w, 1) - z_arr))
        if resid > 1e-9 * max(np.max(np.abs(self.points)), 1.0):
            raise NumericalError(f"interior inversion stalled (residual {resid:.3g})")
        return w if np.ndim(z) else complex(w[0])

    def _forward_f(self, z):
        """f(z) = phi^{-1}(z) via the solved density."""
        z_arr = np.atleast_1d(np.asarray(z, dtype=complex))
        rho = self._mu * self._dgamma * (_TWO_PI / self.nodes)
        g = (rho[None, :] / (self.points[None, :] - z_arr[:, None])).sum(axis=1) / (
            1j * np.pi
        )
        f = z_arr * np.exp(g - 1j * self._g0.imag)
        return f if np.ndim(z) else complex(f[0])

    def to_dict(self):
        return {
            "kind": "interior",
            "theta": self.theta.tolist(),
            "points": [[p.real, p.imag] for p in self.points],
            "center_derivative": self.center_derivative,
        }

    @classmethod
    def from_dict(cls, d):
        pts = np.array([complex(re, im) for re, im in d["points"]])
        return cls(pts, np.asarray(d["theta"], dtype=float), d["center_derivative"])

    def __repr__(self):
        return f"DiskMap(nodes={self.nodes}, center_derivative={self.center_derivative:.6g})"


def _solve_interior(points: np.ndarray) -> DiskMap:
    """Solve the boundary correspondence on the given uniform samples."""
    n = points.size
    if np.min(np.abs(points)) < 1e-12:
        raise PreconditionError("boundary passes through the origin")
    dg = trig_diff(points)
    ddg = trig_diff(dg)
    w = _TWO_PI / n

    diff = points[None, :] - points[:, None]  # [s, t] -> gamma_t - gamma_s
    np.fill_diagonal(diff, 1.0)
    kern = np.imag(dg[None, :] / diff) / np.pi
    np.fill_diagonal(kern, np.imag(ddg / (2.0 * dg)) / np.pi)
    h = -np.log(np.abs(points))
    mu = np.linalg.solve(np.eye(n) + kern * w, h)

    dmu = np.real(trig_diff(mu))
    num = (mu[None, :] - mu[:, None]) * dg[None, :]
    mat = num / diff
    np.fill_diagonal(mat, dmu)
    i_s = mat.sum(axis=1) * w
    g_b = i_s / (1j * np.pi) + 2.0 * mu

    g0 = (mu * dg / points).sum() * w / (1j * np.pi)
    theta = np.unwrap(np.angle(points)) + np.imag(g_b) - g0.imag
    theta -= _TWO_PI * np.floor(theta[0] / _TWO_PI)
    center_derivative = float(np.exp(-g0.real))
    return DiskMap(points, theta, center_derivative, mu=mu, g0=g0)


def interior_map(gamma: SampledCurve, nodes: int | None = None) -> DiskMap:
    """Interior Riemann map of the bounded face of gamma, normalized by
    phi(0)=0 and phi'(0)>0.

    With nodes=None the solve starts at 512 nodes and doubles until the
    boundary images move by less than 1e-6, capped at 4096.
    """
    return _self_consistent(_solve_interior, gamma, nodes)


class ExteriorMap:
    """phi_plus: exterior of the disk -> exterior of gamma, phi(inf)=inf,
    with positive Laurent coefficient a."""

    def __init__(self, points, inner: DiskMap):
        self.points = np.asarray(points, dtype=complex)
        self.nodes = self.points.size
        self.inner = inner
        self.a = 1.0 / inner.center_derivative
        n = self.nodes
        raw = -inner.theta[(-np.arange(n)) % n]
        lift = np.empty(n)
        lift[0] = np.mod(raw[0], _TWO_PI)
        steps = np.mod(np.diff(raw), _TWO_PI)
        lift[1:] = lift[0] + np.cumsum(steps)
        total = (lift[-1] + np.mod(raw[0] - raw[-1], _TWO_PI)) - lift[0]
        if abs(total - _TWO_PI) > 1e-6:
            raise SolverError("exterior correspondence does not have degree 1")
        self.theta = lift

    def boundary_forward(self, theta):
        theta = np.asarray(theta, dtype=float)
        out = 1.0 / self.inner.boundary_forward(-np.atleast_1d(theta))
        return out if np.ndim(theta) else complex(out[0])

    def boundary_inverse(self, point, tol=None):
        th = self.inner.boundary_inverse(1.0 / complex(point), tol=tol)
        return float(np.mod(-th, _TWO_PI))

    def exterior_eval(self, zeta):
        """phi_plus(zeta) for |zeta| > 1/(1 - margin)."""
        zeta_arr = np.atleast_1d(np.asarray(zeta, dtype=complex))
        out = 1.0 / self.inner.interior_eval(1.0 / zeta_arr)
        return out if np.ndim(zeta) else complex(out[0])

    def exterior_inverse(self, z):
        """zeta outside the unit disk with phi_plus(zeta) = z."""
        z_arr = np.atleast_1d(np.asarray(z, dtype=complex))
        out = 1.0 / self.inner.interior_inverse(1.0 / z_arr)
        return out if np.ndim(z) else complex(out[0])

    def to_dict(self):
        return {
            "kind": "exterior",
            "theta": self.theta.tolist(),
            "points": [[p.real, p.imag] for p in self.points],
            "a": self.a,
            "inner": self.inner.to_dict(),
        }

    @classmethod
    def from_dict(cls, d):
        pts = np.array([complex(re, im) for re, im in d["points"]])
        return cls(pts, DiskMap.from_dict(d["inner"]))

    def __repr__(self):
        return f"ExteriorMap(nodes={self.nodes}, a={self.a:.6g})"


def _solve_exterior(points: np.ndarray) -> ExteriorMap:
    """Solve the exterior map on the given uniform samples through the
    interior map of the reflected curve."""
    reflected = 1.0 / points[(-np.arange(points.size)) % points.size]
    return ExteriorMap(points, _solve_interior(reflected))


def exterior_map(gamma: SampledCurve, nodes: int | None = None) -> ExteriorMap:
    """Exterior Riemann map of gamma via the inversion z -> 1/z.

    Requires the origin inside gamma so the reflected curve is bounded.
    Node selection is as in interior_map.
    """
    return _self_consistent(_solve_exterior, gamma, nodes)
