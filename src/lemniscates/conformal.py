"""Numerical Riemann maps of analytic Jordan domains.

The interior map phi: D -> Omega with phi(0)=0, phi'(0)>0 is computed from
its inverse f(z) = z * exp(g(z)) where Re g = -log|z| on the boundary. The
double-layer density mu of Re g solves the Neumann-kernel equation
(I + wK) mu = h (Nystrom trapezoid) by GMRES (_gmres), and g is completed
holomorphically by the singularity-subtracted Cauchy integral of mu. The
Cauchy matrix C = gamma'_t / (gamma_t - gamma_s) gives both: K is its
imaginary part, and the correspondence needs only the real part of the
integral. So each solve holds two real n x n kernels, (2/n) Im C and Re C,
built a block of rows at a time; C itself is never held whole. On analytic
boundaries all of it converges spectrally.

Exterior maps are reduced to interior ones by the reflection z -> conj(1/z).
1/z reverses the orientation and conj reverses it back, so the reflected
curve keeps the curve's node order and its interior correspondence is the
exterior one. Its Cauchy matrix is the conjugate of a diagonal rescaling of
the curve's, so `riemann_maps` builds one pair of kernels per curve and
resolution, solves the interior system on it, turns it in place into the
reflected curve's pair and solves the exterior system in the same buffers:
2 * 8k^2 bytes for both maps at k nodes, and GMRES adds a basis of at most
100 columns of k.

All three entry points share one adaptive-resolution loop. The curve is
checked (closed, positively oriented, origin inside), resampled at the
caller's node count n (default 1024) and checked Jordan there. The loop
walks k = min(64, n), 2k, ... up to n. Each map is taken from the first k
solved at which its density's Fourier coefficients at |j| >= k/4 are at
most 1e-13 * max(|h| + |mu|, 1), h = -log|curve| the right-hand side of the
interior and, up to sign, of the reflected system; a refused map doubles k.
A k < n is solved only where two tails predict that this test passes: the
curve's coefficients that resampling to k drops or folds (|j| >= k/2) are
at most 1e-13 * max|curve|, and h's at |j| >= k/4 pass the density's test
with h in place of mu, 1e-13 * max(2|h|, 1), since the densities' tails
follow h's. Both spectra are taken once, at n. At n the maps are always
solved. A solve returns arrays (theta, mu, g0), and each accepted map is
built once, on the n nodes: theta - t and mu are resampled to n by FFT
(copied at k = n) and g0 is kept, so the map is checked monotone at n, and
its solve_nodes is the k it was solved at. A SolverError below n, from the
solve or the build, counts as unresolved. n is both the maps' node count and
the cap of the solve's resolution. The maps' file format is io's.
"""
from __future__ import annotations

import numpy as np

from ._fourier import (
    deriv_coeffs,
    fourier_coeffs,
    trig_diff,
    trig_eval,
    trig_eval_deriv,
    trig_grid,
    trig_resample,
)
from .curves import NEAR_HIT, SampledCurve, is_jordan, winding_number, winding_numbers
from .errors import PreconditionError, SolverError, require_count

DEFAULT_NODES = 1024
INTERIOR_MARGIN = 0.02  # reject |w| > 1 - margin in disk-side evaluation

_TWO_PI = 2.0 * np.pi
_START_EPS = 1e-9  # theta starts in [-eps, 2*pi - eps)
_BLOCK_ROWS = 16  # rows of C built or rescaled per pass: 0.5 MB of complex at 2048 nodes
_START_NODES = 64  # first resolution of the solve loop
_KRYLOV_COLUMNS = 100  # cap on the GMRES basis
_GMRES_RTOL = 1e-14  # GMRES stops at this residual relative to |b|
_RESIDUAL_TOL = 1e-12  # a solve whose true relative residual exceeds this fails
_TAIL = 1e-13  # bound on the dropped Fourier coefficients (see the module docstring)


def _resampled_points(gamma: SampledCurve, nodes: int) -> np.ndarray:
    """gamma resampled at `nodes` uniform parameters, after checking that
    `nodes` is an integer >= 3 and that gamma is closed, positively
    oriented, winds once about the origin and is Jordan at that resolution."""
    require_count(nodes, 3, "node count")
    if not gamma.closed:
        raise PreconditionError("conformal maps need a closed curve")
    if gamma.orientation != 1:
        raise PreconditionError("curve must be positively oriented")
    if winding_number(gamma, 0.0) != 1:
        raise PreconditionError("origin must lie inside the curve (winding 1)")
    pts = trig_resample(gamma.points, nodes)
    if not is_jordan(SampledCurve(pts, closed=True), tol=1e-9):
        raise PreconditionError("curve is not Jordan at the solver resolution")
    return pts


class DiskMap:
    """Boundary correspondence and evaluators for phi: D -> Omega, phi(0)=0;
    mu and g0 = g(0) are the solve's density and constant (see _solve_on).
    solve_nodes is the node count the solve ran at, None for a loaded map."""

    def __init__(self, points, theta, mu, g0):
        self.points = np.asarray(points, dtype=complex)
        self.nodes = self.points.size
        self.solve_nodes = None
        self.theta = np.asarray(theta, dtype=float)
        self.mu = np.asarray(mu, dtype=float)
        self.g0 = complex(g0)
        if not all(np.all(np.isfinite(a)) for a in (self.points, self.theta, self.mu)):
            raise SolverError("map has a non-finite point, angle or density value")
        t = np.linspace(0.0, _TWO_PI, self.nodes, endpoint=False)
        self._p_c = fourier_coeffs(self.theta - t)  # periodic part of the lift
        gaps = np.diff(np.concatenate([self.theta, [self.theta[0] + _TWO_PI]]))
        if not np.all(gaps > 0):
            raise SolverError("boundary correspondence is not strictly increasing")
        if not (np.isfinite(self.g0) and 0 < self.center_derivative < np.inf):
            raise SolverError(f"g0 = {self.g0} gives no finite positive center derivative")

    @property
    def center_derivative(self) -> float:
        """phi'(0) = exp(-Re g0), the inverse of |f'(0)| for f = z exp(g)."""
        with np.errstate(over="ignore"):
            return float(np.exp(-self.g0.real))

    # -- parameter <-> angle ------------------------------------------------

    def _theta_on_grid(self, m):
        """theta at the parameters 2*pi*j/m, j = 0..m-1, by FFT."""
        t = _TWO_PI * np.arange(m) / m
        return t + np.real(trig_grid(self._p_c, m))

    def _t_of_theta(self, theta):
        """Invert the monotone lift theta(t) = t + P(t) by Newton."""
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        if not np.all(np.isfinite(theta)):
            raise PreconditionError("boundary evaluation needs finite angles")
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
        out = trig_eval(fourier_coeffs(self.points), t)
        return out if np.ndim(theta) else complex(out[0])

    # -- interior -----------------------------------------------------------

    def interior_eval(self, w):
        """phi(w) for |w| < 1 - margin, by the Cauchy integral over the
        boundary correspondence."""
        w_arr = np.atleast_1d(np.asarray(w, dtype=complex))
        if not np.all(np.abs(w_arr) <= 1.0 - INTERIOR_MARGIN):  # NaN included
            raise PreconditionError(
                f"interior evaluation needs |w| <= {1.0 - INTERIOR_MARGIN}"
            )
        zeta = np.exp(1j * self.theta)
        dtheta = 1.0 + np.real(trig_grid(deriv_coeffs(self._p_c), self.nodes))
        weight = self.points * zeta * dtheta / self.nodes
        out = (weight[None, :] / (zeta[None, :] - w_arr[:, None])).sum(axis=1)
        return out if np.ndim(w) else complex(out[0])

    def interior_inverse(self, z):
        """w = f(z) in D with phi(w) = z, for z strictly inside Omega: the
        node polygon winds once about z, farther than NEAR_HIT away."""
        z_arr = np.atleast_1d(np.asarray(z, dtype=complex))
        counts, valid = winding_numbers(self.points, z_arr, min_distance=NEAR_HIT)
        if not np.all(valid & (counts == 1)):
            raise PreconditionError("point is not strictly inside the domain")
        rho = self.mu * trig_diff(self.points) * (_TWO_PI / self.nodes)
        g = (rho / (self.points - z_arr[:, None])).sum(axis=1) / (1j * np.pi)
        f = z_arr * np.exp(g - 1j * self.g0.imag)
        if np.any(np.abs(f) >= 1.0):
            raise PreconditionError("point is not strictly inside the domain")
        return f if np.ndim(z) else complex(f[0])

    def __repr__(self):
        return f"DiskMap(nodes={self.nodes}, center_derivative={self.center_derivative:.6g})"


def _kernels(points: np.ndarray, dg: np.ndarray):
    """(im, re): the real n x n kernels im = (2/n) Im C, which is wK with K
    the Neumann kernel and w the trapezoid weight, and re = Re C, of the
    Cauchy matrix C[s, t] = gamma'_t / (gamma_t - gamma_s), 0 on the
    diagonal. C is built _BLOCK_ROWS rows at a time, so no complex n x n
    array is allocated."""
    if np.min(np.abs(points)) < 1e-12:
        raise PreconditionError("boundary passes through the origin")
    n = points.size
    im = np.empty((n, n))
    re = np.empty((n, n))
    block = np.empty((min(_BLOCK_ROWS, n), n), dtype=complex)
    for i0 in range(0, n, _BLOCK_ROWS):
        rows = points[i0:i0 + _BLOCK_ROWS]
        i1 = i0 + rows.size
        c = block[:rows.size]
        np.subtract(points[None, :], rows[:, None], out=c)  # [s, t] -> gamma_t - gamma_s
        k = np.arange(rows.size)
        c[k, i0 + k] = np.inf  # so that the quotient is 0 on the diagonal
        np.divide(dg[None, :], c, out=c)
        np.multiply(c.imag, 2.0 / n, out=im[i0:i1])
        np.copyto(re[i0:i1], c.real)
    return im, re


def _rescale(im: np.ndarray, re: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Turn the kernels (im, re) of C in place into those of the conjugate
    conj(diag(a) C diag(b)): one complex product a_s C[s, t] b_t per entry,
    of which Re and -(2/n) Im are written back, taken _BLOCK_ROWS rows at a
    time in two block buffers."""
    n = b.size
    z = np.empty((min(_BLOCK_ROWS, n), n), dtype=complex)
    f = np.empty_like(z)
    for i0 in range(0, n, _BLOCK_ROWS):
        blk_im, blk_re = im[i0:i0 + _BLOCK_ROWS], re[i0:i0 + _BLOCK_ROWS]
        k = blk_im.shape[0]
        np.copyto(z[:k].real, blk_re)
        np.multiply(blk_im, n / 2.0, out=z[:k].imag)  # z = C on these rows
        np.multiply(a[i0:i0 + k, None], b[None, :], out=f[:k])
        z[:k] *= f[:k]
        np.copyto(blk_re, z[:k].real)
        np.multiply(z[:k].imag, -2.0 / n, out=blk_im)


def _gmres(a, b, x0=None):
    """(x, iterations): one cycle of GMRES (Saad & Schultz, SIAM J. Sci.
    Stat. Comput. 7, 1986) for a x = b from x0 (default 0). The Arnoldi basis
    of at most min(n, _KRYLOV_COLUMNS) columns is orthogonalized by classical
    Gram-Schmidt done twice, and Givens rotations keep the least-squares
    residual |b - a x| as they go, so the cycle stops once that estimate is
    at most _GMRES_RTOL * |b|, or at the cap with what it has."""
    m = min(b.size, _KRYLOV_COLUMNS)
    x = np.zeros(b.size) if x0 is None else np.array(x0, dtype=float)
    r = b - a @ x
    beta, goal = np.linalg.norm(r), _GMRES_RTOL * np.linalg.norm(b)
    if not beta > goal:
        return x, 0
    basis = np.empty((m, b.size))  # rows
    hess = np.zeros((m + 1, m))
    rot = np.empty((m, 2))  # (cos, sin) of each rotation
    g = np.zeros(m + 1)  # the rotated right-hand side beta * e_0
    g[0] = beta
    basis[0] = r / beta
    for j in range(m):
        v = a @ basis[j]
        col = hess[:, j]
        for _ in range(2):  # classical Gram-Schmidt, twice
            c = basis[:j + 1] @ v
            v -= c @ basis[:j + 1]
            col[:j + 1] += c
        col[j + 1] = norm = np.linalg.norm(v)
        for i, (cs, sn) in enumerate(rot[:j]):
            col[i], col[i + 1] = cs * col[i] + sn * col[i + 1], cs * col[i + 1] - sn * col[i]
        rho = np.hypot(col[j], col[j + 1])
        rot[j] = col[j] / rho, col[j + 1] / rho
        col[j], col[j + 1] = rho, 0.0
        g[j], g[j + 1] = rot[j, 0] * g[j], -rot[j, 1] * g[j]
        if not abs(g[j + 1]) > goal or j + 1 == m:
            break
        basis[j + 1] = v / norm
    y = np.linalg.solve(hess[:j + 1, :j + 1], g[:j + 1])
    return x + y @ basis[:j + 1], j + 1


def _solve_on(im, re, points, dg):
    """(theta, mu, g0) of `points` (derivative dg) on the kernels (im, re) of
    its Cauchy matrix (see _kernels): the boundary correspondence, lifted by
    _lift_start, the density and g(0). The diagonal of im holds that of I + wK
    during the solve and is 0 again on return, also when GMRES fails."""
    n = points.size
    w = _TWO_PI / n
    diag = 1.0 + np.imag(trig_diff(dg) / (2.0 * dg)) * (2.0 / n)
    np.fill_diagonal(im, diag)  # im is now I + wK, K the Neumann kernel
    h = -np.log(np.abs(points))
    scale = max(np.linalg.norm(h), 1e-300)
    mu, its = _gmres(im, h)
    resid = np.linalg.norm(h - im @ mu) / scale
    # a second cycle, from the iterate, runs when the true residual misses
    # the goal the Arnoldi estimate met, or the basis ran out first
    if resid > _GMRES_RTOL:
        mu, more = _gmres(im, h, mu)
        its += more
        resid = np.linalg.norm(h - im @ mu) / scale
    np.fill_diagonal(im, 0.0)
    if not resid <= _RESIDUAL_TOL:
        raise SolverError(f"GMRES failed: {its} iterations, residual {resid:.3g}")

    # Im g on the boundary is -Re(i_s)/pi, with i_s the Cauchy integral of mu
    # over the boundary, singularity subtracted; one pass over re gives both
    # of its sums
    sums = re @ np.stack([mu, np.ones(n)], axis=1)
    i_s = (sums[:, 0] - mu * sums[:, 1] + np.real(trig_diff(mu))) * w
    g0 = (mu * dg / points).sum() * w / (1j * np.pi)
    theta = np.unwrap(np.angle(points)) - i_s / np.pi - g0.imag
    return _lift_start(theta), mu, g0


def _lift_start(theta: np.ndarray) -> np.ndarray:
    """theta shifted by whole turns to start in [-eps, 2*pi - eps): a lift
    that starts at 0 up to rounding stays at 0, not at 2*pi."""
    return theta - _TWO_PI * np.floor((theta[0] + _START_EPS) / _TWO_PI)


def _spectrum(vals: np.ndarray) -> np.ndarray:
    """|c_l| of the Fourier coefficients of vals, in FFT order."""
    return np.abs(np.fft.fft(vals)) / vals.size


def _tail(spectrum: np.ndarray, j: int) -> float:
    """Largest of the |c_l| in spectrum (see _spectrum) with |l| >= j."""
    return float(spectrum[j:spectrum.size - j + 1].max())


def _accepted(im, re, pts, dg, points: np.ndarray):
    """The map that _solve_on gives on the k samples pts of a curve, built
    once on its n = points.size samples with solve_nodes = k: theta - t and
    mu are resampled to n by FFT, g0 is kept. Below n it is None when the
    solve or the build raises SolverError or the density's coefficients at
    |l| >= k/4 exceed _TAIL * max(|h| + |mu|, 1): the floor of 1 passes
    mu ~ 1e-16 on a circle."""
    k, n = pts.size, points.size
    try:
        theta, mu, g0 = _solve_on(im, re, pts, dg)
        if k < n:
            scale = np.max(np.abs(np.log(np.abs(pts)))) + np.max(np.abs(mu))
            if _tail(_spectrum(mu), k // 4) > _TAIL * max(scale, 1.0):
                return None
            p_c = fourier_coeffs(theta - np.linspace(0.0, _TWO_PI, k, endpoint=False))
            theta = _lift_start(_TWO_PI * np.arange(n) / n + np.real(trig_grid(p_c, n)))
        dm = DiskMap(points, theta, np.real(trig_resample(mu, n)), g0)
    except SolverError:
        if k == n:
            raise
        return None
    dm.solve_nodes = k
    return dm


class ExteriorMap:
    """phi_plus: exterior of the disk -> exterior of gamma, phi(inf)=inf,
    with positive Laurent coefficient a, as 1/conj(psi(1/conj(zeta))) with psi
    = `inner` the interior map of conj(1/gamma). On the circle 1/conj(zeta) =
    zeta, so psi and phi_plus share the boundary correspondence theta, and
    a = 1/psi'(0); both are read off `inner`, and so is the node count."""

    def __init__(self, inner: DiskMap):
        self.inner = inner
        self.nodes = inner.nodes

    @property
    def theta(self):
        return self.inner.theta

    @property
    def a(self):
        return 1.0 / self.inner.center_derivative

    def boundary_forward(self, theta):
        return 1.0 / np.conj(self.inner.boundary_forward(theta))

    def exterior_eval(self, zeta):
        """phi_plus(zeta) for |zeta| >= 1/(1 - margin)."""
        zeta_arr = np.atleast_1d(np.asarray(zeta, dtype=complex))
        if not np.all(np.isfinite(zeta_arr) & (np.abs(zeta_arr) * (1.0 - INTERIOR_MARGIN) >= 1.0)):
            raise PreconditionError(
                f"exterior evaluation needs finite |zeta| >= 1/{1 - INTERIOR_MARGIN}")
        out = 1.0 / np.conj(self.inner.interior_eval(1.0 / np.conj(zeta_arr)))
        return out if np.ndim(zeta) else complex(out[0])

    def __repr__(self):
        return f"ExteriorMap(nodes={self.nodes}, a={self.a:.6g})"


def _solve_pair(points: np.ndarray, k: int | None = None, wanted=(True, True)) -> list:
    """[interior map, exterior map] of the curve with uniform samples
    `points`, solved at k of its nodes (default all) from one pair of
    kernels and built on all of them by _accepted. A map not wanted is
    None, and so is one that _accepted refuses.

    The exterior map is the interior map of the reflected curve
    rho_k = conj(1/gamma_k), which is positively oriented in the curve's node
    order. Its Cauchy matrix is the conjugate of a diagonal rescaling of the
    curve's, C_rho[s, t] = conj(a_s C[s, t] b_t) with a_s = -gamma_s and
    b_t = conj(rho'_t) gamma_t / gamma'_t, so the curve's kernels are turned
    into the reflected curve's in place (_rescale)."""
    pts = trig_resample(points, points.size if k is None else k)
    dg = trig_diff(pts)
    im, re = _kernels(pts, dg)
    maps = [None, None]
    if wanted[0]:
        maps[0] = _accepted(im, re, pts, dg, points)
    if wanted[1]:
        reflected = np.conj(1.0 / pts)
        dr = trig_diff(reflected)
        _rescale(im, re, -pts, np.conj(dr) * pts / dg)
        inner = _accepted(im, re, reflected, dr, np.conj(1.0 / points))
        maps[1] = None if inner is None else ExteriorMap(inner)
    return maps


def _solve_maps(points: np.ndarray, wanted) -> list:
    """The wanted maps of _solve_pair, each taken from the first resolution
    of the loop (see the module docstring) that gives it. Below n a k is
    solved only where the curve's tail at |j| >= k/2 and the tail of
    h = -log|curve| at |j| >= k/4 pass; both only shrink as k grows, so the
    k skipped unsolved are the first ones. A k predicted too high costs a
    solve of twice the size, one too low a refused solve of half it."""
    n = points.size
    h = -np.log(np.abs(points))
    curve, rhs = _spectrum(points), _spectrum(h)
    curve_bound = _TAIL * np.max(np.abs(points))
    rhs_bound = _TAIL * max(2.0 * np.max(np.abs(h)), 1.0)  # _accepted's, mu taken as h
    maps = [None, None]
    k = min(_START_NODES, n)
    while True:
        todo = [w and m is None for w, m in zip(wanted, maps)]
        if not any(todo):
            return maps
        if k == n or (_tail(curve, k // 2) <= curve_bound and _tail(rhs, k // 4) <= rhs_bound):
            maps = [m if s is None else s for m, s in zip(maps, _solve_pair(points, k, todo))]
        k = min(2 * k, n)


def interior_map(gamma: SampledCurve, nodes: int = DEFAULT_NODES) -> DiskMap:
    """Interior Riemann map of the bounded face of gamma, normalized by
    phi(0)=0 and phi'(0)>0, on gamma resampled at `nodes` points: the
    map's node count and the cap of the solve's resolution."""
    return _solve_maps(_resampled_points(gamma, nodes), (True, False))[0]


def riemann_maps(gamma: SampledCurve, nodes: int = DEFAULT_NODES):
    """(interior map, exterior map) of gamma resampled at `nodes` points,
    from one pair of kernels per resolution; `nodes` is the maps' node
    count and the cap of the solve's resolution."""
    return tuple(_solve_maps(_resampled_points(gamma, nodes), (True, True)))


def exterior_map(gamma: SampledCurve, nodes: int = DEFAULT_NODES) -> ExteriorMap:
    """Exterior Riemann map of gamma via the reflection z -> conj(1/z), on
    gamma resampled at `nodes` points as in riemann_maps, which gives the
    same map.

    Requires the origin inside gamma so the reflected curve is bounded.
    """
    return _solve_maps(_resampled_points(gamma, nodes), (False, True))[1]
