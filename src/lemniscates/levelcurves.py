"""Tracing of level sets {|f| = eps} and gradient rays {arg f = alpha} of a
polynomial f by lifting w-plane paths through f^{-1}. Every entry point takes
a `Polynomial` and refuses anything else with PreconditionError.

`lift_path` is the one continuation kernel, predictor-corrector
continuation (Allgower & Georg, Introduction to Numerical Continuation
Methods, ch. 2) on two levels. Its scalar stepper predicts each step by the
two-step (Adams-Bashforth) rule from the slopes z' = w'(s) / f'(z) of the
last two samples and corrects it by Newton onto the exact target w(s_j),
halving the step into Euler substeps when the corrector does not contract or
the step jumps branches. It crosses only every _COARSE-th grid node, where
its O(h^3) prediction error leaves one Newton update and one confirming
evaluation per step at the coarse goal. Cubic Hermite interpolation of those
samples and slopes predicts every grid sample, and one vectorized Newton pass
corrects all of them to rounding level: the next update is at rounding level
or, as the scalar corrector also accepts, the residual is at Horner rounding
level. Each corrected step is certified: the two-step prediction from the
sample before it passes Smale's alpha test (Blum, Cucker, Shub & Smale,
Complexity and Real Computation, ch. 8) and lies within 2 beta of the sample,
which is therefore the root Newton reaches from the scalar stepper's own
prediction; the step also keeps the branch bound and the critical floor.
Each path, whatever its length, is lifted whole on one route: on the two
levels when the coarse pass reaches the end and every fine step is
certified, else by the scalar stepper on the whole grid from its projected
start, so a TraceError keeps its message and the samples before it. Level
arcs lift eps*exp(i s) on a uniform grid in s = arg f, gradient arcs
exp(s + i alpha) on a uniform grid in s = log|f|.
Every sample lands on its exact target to a relative residual of
NEWTON_TOL = 1e-12 or better, so a level arc's argument lift is its grid and
|f| = eps holds to that residual.

`preimage_loops` is the one closed-curve tracer: it lifts one lap of a closed
curve Gamma through p^{-1} from every root of p - Gamma(0), and each cycle of
the permutation of the lap ends, its laps joined in order, is a component of
p^{-1}(Gamma). With Gamma the circle of radius eps they are the closed
components of {|p| = eps} (`level_components`); with a Jordan curve whose
critical values lie inside, the one loop of n laps is the pseudo-lemniscate,
and the loop count is `fingerprint.is_proper_oracle`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._fourier import deriv_coeffs, fourier_coeffs, trig_eval, trig_eval_deriv, trig_grid
from .curves import SampledCurve, unit_circle, winding_numbers
from .errors import PreconditionError, TraceError, require_count
from .polynomials import (
    Polynomial,
    critical_values,
    poly_roots,
    require_polynomial,
    roots_flat,
)

DEFAULT_STEP = 0.01          # radians of arg (level) / log-modulus (gradient)
NEWTON_TOL = 1e-12           # corrector goal: |f(z) - w| <= NEWTON_TOL * |w|
LEVEL_INVARIANT_TOL = 1e-8   # contract: max | |f|-eps | / eps on level arcs
CRITICAL_FIELD_TOL = 1e-10   # |f'| below this scale aborts a trace
BRANCH_JUMP_FACTOR = 2.0     # kappa: a step may move at most kappa*|dw|/|f'|
_CORRECTOR_ITERS = 8         # Newton iterations per substep before halving
_MAX_HALVINGS = 12           # smallest substep is 2^-12 of a grid step
_COARSE = 8                  # C: grid steps per step of the coarse pass
_COARSE_TOL = 1e-7           # coarse corrector goal; the fine pass polishes every sample
_ALPHA_BOUND = 0.1           # Smale's alpha test that certifies each fine step
_ROUNDING = 1e-14            # an update below _ROUNDING * (1 + |z|) is rounding
_EPS = np.finfo(float).eps


@dataclass
class TracedArc:
    samples: np.ndarray
    f_values: np.ndarray
    arg_lift: np.ndarray
    kind: str        # "level" or "gradient"
    value: float     # eps for level arcs, alpha for gradient arcs

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=complex)
        self.f_values = np.asarray(self.f_values, dtype=complex)
        self.arg_lift = np.asarray(self.arg_lift, dtype=float)

    def __len__(self):
        return self.samples.size


# -- the path-lifting kernel -----------------------------------------------------


def _scalar_kernels(p):
    """Fast scalar z -> (p(z), p'(z), scale) for the polynomial p, all three
    from one Horner pass over cached coefficient lists; scale =
    1 + sum |k c_k| |z|^(k-1), over p', is what a critical |p'| is measured
    against."""
    nc = [complex(c) for c in require_polynomial(p).coeffs][::-1]
    ad = [abs(complex(c)) for c in p.derivative().coeffs][::-1]
    lead = nc[0]
    # (c_k, |k c_k|) from the top: p' accumulates the partial sums of p
    terms = list(zip(nc[1:], ad))

    def fd(z):
        az = abs(z)
        v, dv, scale = lead, 0j, 0.0
        for c, a in terms:
            dv = dv * z + v
            scale = scale * az + a
            v = v * z + c
        return v, dv, scale + 1.0

    return fd


def _newton(fd, z, w, tol, iters, p):
    """Newton iteration onto p(z) = w, fd = _scalar_kernels(p); returns
    (z, p(z), p'(z)).

    Stops once |p(z) - w| <= tol*|w| (tol when w == 0) or, from the second
    iterate on, the update is at rounding level: a small first update says
    the guess is good, not that the residual is at its rounding floor, so it
    is always applied. Each update must be shorter than the one before; a
    critical point, a growing or non-finite update, or running out of
    iterations raises TraceError carrying the iterates. An iterate whose
    update does not shrink is still accepted when |p(z) - w| is at Horner
    rounding level, 4 n u sum |c_k| |z|^k: near a small p' the update of
    such a residual can stay above _ROUNDING.
    """
    goal = tol * (abs(w) if w != 0 else 1.0)
    trail = [z]
    last = np.inf
    for k in range(iters):
        fv, dv, scale = fd(z)
        if abs(dv) < CRITICAL_FIELD_TOL * scale:
            raise TraceError(f"critical point near {z:.6g}", samples=trail)
        r = fv - w
        dz = r / dv
        size = abs(dz)
        if abs(r) <= goal or (k and size <= _ROUNDING * (1.0 + abs(z))):
            return z, fv, dv
        if not size < last:
            if abs(r) <= 4 * p.degree * _EPS * p.eval_scale(z):
                return z, fv, dv
            raise TraceError(f"Newton iteration not contracting near {z:.6g}", samples=trail)
        last = size
        z = z - dz
        trail.append(z)
    raise TraceError(f"Newton did not reach |f(z)-w| <= {goal:.3g} from {trail[0]:.6g}",
                     samples=trail)


def _taylor(nc, z, order):
    """The Taylor coefficients f^(k)(z)/k!, k < order, of the polynomial with
    coefficients nc (leading first) at every point of the array z, by
    repeated synthetic division by (x - z)."""
    out = []
    for _ in range(order):
        acc, quotient = nc[0], []
        for c in nc[1:]:
            quotient.append(acc)
            acc = acc * z + c
        out.append(acc if isinstance(acc, np.ndarray) else np.full(np.shape(z), acc))
        nc = quotient
    return out


def _polish(nc, z, w):
    """Vectorized Newton onto f(z) = w from every point of z: at least one
    update, then on until every next update is at rounding level or
    _CORRECTOR_ITERS updates are spent. Returns (z, f(z), f'(z), done), done
    marking the points whose next update is at rounding level."""
    fv, dv = _taylor(nc, z, 2)
    dz = (fv - w) / dv
    for _ in range(_CORRECTOR_ITERS):
        z = z - dz
        fv, dv = _taylor(nc, z, 2)
        dz = (fv - w) / dv
        done = np.abs(dz) <= _ROUNDING * (1.0 + np.abs(z))
        if done.all():
            break
    return z, fv, dv, done


def _bend(s):
    """(h_j/h_{j-1})/2 per step h_j of the grid s: the weight of the slope
    change in the two-step predictor; 0 on the first step makes it Euler."""
    hs = np.diff(s)
    return np.append(0.0, 0.5 * hs[1:] / np.where(hs[:-1] == 0, np.inf, hs[:-1]))


def _alpha_certified(nc, z, dv, s, w, dw):
    """Whether each step j -> j+1 of the corrected samples z (f' = dv) at the
    nodes s lands on the root that Newton onto w[j+1] reaches from the
    two-step prediction zh made at z[j]: Smale's alpha = beta*gamma <
    _ALPHA_BOUND at zh, with beta = |f(zh) - w[j+1]| / |f'(zh)| and gamma =
    max_k |f^(k)(zh) / (k! f'(zh))|^(1/(k-1)), and |z[j+1] - zh| <= 2 beta
    (Blum, Cucker, Shub and Smale, Complexity and Real Computation, ch. 8)."""
    slope = dw / dv
    back = np.concatenate((slope[:1], slope[:-2]))  # slope[j-1]; bend[0] = 0
    zh = z[:-1] + np.diff(s) * (slope[:-1] + _bend(s) * (slope[:-1] - back))
    taylor = _taylor(nc, zh, len(nc))
    beta = np.abs(taylor[0] - w[1:]) / np.abs(taylor[1])
    gamma = np.zeros(beta.shape)
    for k, a in enumerate(taylor[2:], start=2):
        gamma = np.maximum(gamma, np.abs(a / taylor[1]) ** (1.0 / (k - 1)))
    near = np.abs(z[1:] - zh) <= 2.0 * beta + _ROUNDING * (1.0 + np.abs(zh))
    return (beta * gamma < _ALPHA_BOUND) & near


def _fine_pass(f, nc, guess, s, w, dw):
    """Correct the predicted samples at the nodes s of the path w (slope dw)
    by one vectorized Newton pass, then check each: its update ended at
    rounding level or, as _newton accepts, its residual is at Horner rounding
    level, |f'| is above the critical floor, and the step onto it keeps the
    branch bound and is alpha-certified. Returns the samples and values when
    every one passes, else None."""
    with np.errstate(all="ignore"):  # a non-finite sample fails its checks
        z, fv, dv, ok = _polish(nc, guess, w)
        ok |= np.abs(fv - w) <= 4 * f.degree * _EPS * f.eval_scale(z)
        # 1 + sum |k c_k| |z|^(k-1), as in _scalar_kernels
        ok &= np.abs(dv) >= CRITICAL_FIELD_TOL * (f.derivative().eval_scale(z) + 1.0)
        ok[1:] &= np.abs(np.diff(z)) <= BRANCH_JUMP_FACTOR * np.abs(np.diff(w)) / np.abs(dv[:-1])
        ok[1:] &= _alpha_certified(nc, z, dv, s, w, dw)
    return (z, fv) if ok.all() else None


def _scalar_grid(s, ws, dws):
    """The scalar stepper's grid: its nodes, dw at the nodes, and per step
    (h_j, bend_j, w_j, w_{j+1}, dw_{j+1}), all as plain Python scalars, which
    keep the per-step arithmetic cheap."""
    ws, dws = ws.tolist(), dws.tolist()
    return s.tolist(), dws, list(zip(np.diff(s).tolist(), _bend(s).tolist(),
                                     ws[:-1], ws[1:], dws[1:]))


def lift_path(f, w, dw, z0, s):
    """Lift the w-plane path w(s) through f^{-1} from z0, one sample per node of s.

    f is a Polynomial; w and dw are vectorized callables for the path and its
    derivative, evaluated once on s and shared when z0 is an array of starts.
    Each start is first Newton-projected onto w(s[0]).

    The scalar stepper predicts each step h_j = s_{j+1} - s_j from the slopes
    z'_j = dw(s_j)/f'(z_j) of the accepted samples by the two-step
    (Adams-Bashforth) rule z_j + h_j*(z'_j + (h_j/h_{j-1})*(z'_j - z'_{j-1})/2),
    an Euler step z_j + h_j*z'_j on the first step, and corrects it by Newton
    onto w(s_{j+1}); the f' of the accepted corrector is the next slope's.
    A step whose corrector fails to contract, or that moves
    |dz| > BRANCH_JUMP_FACTOR*|dw|/|f'| (a jump to another branch), is
    halved into Euler substeps, as is one that meets a critical point, down
    to 2^-_MAX_HALVINGS of the step; halved substeps stay internal.

    Each path is lifted whole, in one of two ways. The two-level lift: the
    scalar stepper crosses every _COARSE-th node (and the last) to the
    corrector goal _COARSE_TOL; cubic Hermite interpolation of these samples
    and their slopes predicts every grid sample, and `_fine_pass` corrects
    all of them, the coarse ones included, to rounding level and certifies
    each step. When the coarse pass stops short of the end or a step is not
    certified, the scalar stepper lifts the whole path on the grid instead,
    from the projected start.

    Returns (samples, f(samples)), of shape z0.shape + s.shape; raises
    TraceError when a start projection fails or a substep of the scalar
    stepper on the grid is still rejected after the last halving, carrying
    the samples before it.
    """
    fd = _scalar_kernels(f)
    nc = [complex(c) for c in f.coeffs][::-1]
    s = np.asarray(s, dtype=float)
    iters, kappa = _CORRECTOR_ITERS, BRANCH_JUMP_FACTOR
    w_s = np.asarray(w(s), dtype=complex)
    dw_s = np.asarray(dw(s), dtype=complex)

    def correct(z, dv, guess, w0, w1, tol):
        """Newton from guess onto w1; a step from z must stay on its branch."""
        z1, f1, d1 = _newton(fd, guess, w1, tol, iters, f)
        if abs(z1 - z) > kappa * abs(w1 - w0) / abs(dv):
            raise TraceError(f"step from {z:.6g} jumped to another branch at {z1:.6g}")
        return z1, f1, d1

    def halve(z, dv, t0, w0, dw0, t1, w1, depth, tol):
        """Cross [t0, t1] in two Euler substeps of 2^-depth of a step,
        halving a rejected one again."""
        tm = 0.5 * (t0 + t1)
        wm, dwm = complex(w(np.array([tm]))[0]), complex(dw(np.array([tm]))[0])
        for ta, wa, dwa, tb, wb in ((t0, w0, dw0, tm, wm), (tm, wm, dwm, t1, w1)):
            try:
                z, fv, dv1 = correct(z, dv, z + dwa * (tb - ta) / dv, wa, wb, tol)
            except TraceError:
                if depth == _MAX_HALVINGS:
                    raise
                z, fv, dv1 = halve(z, dv, ta, wa, dwa, tb, wb, depth + 1, tol)
            dv = dv1
        return z, fv, dv

    def walk(grid, z, fv, dv, tol):
        """The scalar stepper over grid = (nodes, dw at the nodes, steps) from
        the sample z at the first node; returns the samples and values."""
        ts, dws, steps = grid
        zs, fs = [z], [fv]
        slope = prev = dws[0] / dv
        for i, (h, b, w0, w1, dw1) in enumerate(steps, start=1):
            try:
                z1, fv, dv1 = correct(z, dv, z + h * (slope + b * (slope - prev)), w0, w1, tol)
            except TraceError:
                try:
                    z1, fv, dv1 = halve(z, dv, ts[i - 1], w0, dws[i - 1], ts[i], w1, 1, tol)
                except TraceError as err:
                    raise TraceError(f"{err} (lifting s = {ts[i]:.6g})",
                                     samples=np.array(zs)) from None
            z, dv, prev, slope = z1, dv1, slope, dw1 / dv1
            zs.append(z)
            fs.append(fv)
        return zs, fs

    n = s.size - 1
    nodes = np.append(np.arange(0, n, _COARSE), n)
    coarse = _scalar_grid(s[nodes], w_s[nodes], dw_s[nodes])
    # grid node i lies on the coarse interval J[i], a coarse node on the one
    # it ends, at the fraction u of it: the cubic Hermite weights of that
    # interval's end samples and end slopes
    J = np.clip((np.arange(n + 1) - 1) // _COARSE, 0, nodes.size - 2)
    span = s[nodes[J + 1]] - s[nodes[J]]
    with np.errstate(invalid="ignore"):  # a one-node path has no interval: NaN
        u = (s - s[nodes[J]]) / span
    h00, h10, h01, h11 = ((1 + 2 * u) * (1 - u) ** 2, u * (1 - u) ** 2 * span,
                          u ** 2 * (3 - 2 * u), u ** 2 * (u - 1) * span)

    def two_level(z, fv, dv):
        """The coarse pass from the projected start z, then `_fine_pass` on
        the grid; None when either stops short of the end."""
        try:
            zc = np.asarray(walk(coarse, z, fv, dv, _COARSE_TOL)[0])
        except TraceError:
            return None
        with np.errstate(all="ignore"):  # _fine_pass refuses a non-finite guess
            mc = dw_s[nodes] / _taylor(nc, zc, 2)[1]
            guess = h00 * zc[J] + h10 * mc[J] + h01 * zc[J + 1] + h11 * mc[J + 1]
        return _fine_pass(f, nc, guess, s, w_s, dw_s)

    fine = None
    starts = np.asarray(z0, dtype=complex)
    samples = np.empty(starts.shape + s.shape, dtype=complex)
    values = np.empty(starts.shape + s.shape, dtype=complex)
    for k in np.ndindex(starts.shape):
        z, fv, dv = _newton(fd, complex(starts[k]), complex(w_s[0]), NEWTON_TOL, iters, f)
        lifted = two_level(z, fv, dv)
        if lifted is None:  # the scalar stepper on the grid
            fine = fine or _scalar_grid(s, w_s, dw_s)
            lifted = walk(fine, z, fv, dv, NEWTON_TOL)
        samples[k], values[k] = lifted
    return samples, values


def solve_target(f, w, seed) -> complex:
    """Newton-solve f(z) = w for the polynomial f from the given seed with the
    lift_path corrector.

    The corrector goal NEWTON_TOL is relative to |w| (absolute when w == 0);
    landing on a critical point or a stalled iteration raises TraceError
    carrying the iterates.
    """
    fd = _scalar_kernels(f)
    z, _, dv = _newton(fd, complex(seed), complex(w), NEWTON_TOL, 80, f)
    # a solution this close to a target with |f'|^2 ~ goal*|f''| is a
    # numerically multiple preimage, i.e. a critical point landing
    goal = NEWTON_TOL * (abs(w) if w != 0 else 1.0)
    h = 1e-5 * (1.0 + abs(z))
    d2 = abs(fd(z + h)[1] - fd(z - h)[1]) / (2 * h)
    if abs(dv) ** 2 <= 8.0 * goal * d2:
        raise TraceError(f"solution {z:.6g} is a critical point", samples=[z])
    return z


# -- level and gradient arcs -----------------------------------------------------


def _grid(a: float, b: float, step: float) -> np.ndarray:
    """Uniform grid from a to b, both ends exact, spacing at most step."""
    if not (np.isfinite(step) and step > 0):
        raise PreconditionError(f"step must be finite and positive, got {step!r}")
    n = max(1, int(np.ceil(abs(b - a) / step - 1e-9)))
    return np.linspace(a, b, n + 1)


def trace_level(f, eps, start, delta, step: float = DEFAULT_STEP) -> TracedArc:
    """Follow {|f| = eps} from start until arg f has changed by delta.

    The arc lifts eps*exp(i s) over a uniform grid in s = arg f from
    lift0 = arg f(start) to lift0 + delta, of spacing at most step, so its
    arg_lift is that grid; a positive delta turns arg f counterclockwise,
    a negative one clockwise.
    """
    require_polynomial(f)
    if eps <= 0:
        raise PreconditionError("level needs eps > 0")
    if not (np.isfinite(delta) and delta != 0):
        raise PreconditionError(f"arg change must be nonzero and finite, got {delta!r}")
    fv = complex(f(complex(start)))
    if abs(abs(fv) - eps) > 1e-3 * eps:
        raise PreconditionError(
            f"start point has |f| = {abs(fv):.6g}, expected {eps:.6g}"
        )
    lift0 = float(np.angle(fv))

    def level(s):
        return eps * np.exp(1j * s)

    def dlevel(s):
        return 1j * eps * np.exp(1j * s)

    lifts = _grid(lift0, lift0 + delta, step)
    samples, fvals = lift_path(f, level, dlevel, start, lifts)
    dev = float(np.max(np.abs(np.abs(fvals) - eps))) / eps
    if dev > LEVEL_INVARIANT_TOL:
        raise TraceError(f"level invariant violated: relative deviation {dev:.3g}")
    return TracedArc(samples, fvals, lifts, "level", float(eps))


def trace_gradient(
    f, alpha, start, target_modulus, step: float = DEFAULT_STEP
) -> TracedArc:
    """Follow {arg f = alpha} from start until |f| reaches target_modulus.

    The arc lifts exp(s + i alpha) over a uniform grid in s = log|f| of
    spacing at most step. alpha may be any lift of the start argument; the
    returned arc stores it unchanged so chained traces keep a continuous
    argument bookkeeping.
    """
    require_polynomial(f)
    if target_modulus <= 0:
        raise PreconditionError("target modulus must be positive")
    fv = complex(f(complex(start)))
    m0 = abs(fv)
    if m0 == 0:
        raise PreconditionError("start point is a zero of f")
    if abs(target_modulus - m0) <= 1e-12 * m0:
        raise PreconditionError("target modulus equals the start modulus")
    if abs(float(np.angle(fv * np.exp(-1j * alpha)))) > 1e-3:
        raise PreconditionError(
            f"start argument {np.angle(fv):.6g} is not alpha (mod 2pi)"
        )
    phase = np.exp(1j * float(alpha))

    def ray(s):
        return np.exp(s) * phase

    s = _grid(np.log(m0), np.log(target_modulus), step)
    samples, fvals = lift_path(f, ray, ray, start, s)
    mods = np.abs(fvals)
    if not (np.all(np.diff(mods) > 0) or np.all(np.diff(mods) < 0)):
        raise TraceError("modulus not strictly monotone along gradient arc")
    dev = np.max(np.abs(np.angle(fvals * np.exp(-1j * float(alpha)))))
    if dev > LEVEL_INVARIANT_TOL:
        raise TraceError(f"gradient invariant violated: arg deviation {dev:.3g}")
    return TracedArc(samples, fvals, np.full(s.size, float(alpha)), "gradient", float(alpha))


# -- preimage loops and closed level components ----------------------------------


def preimage_loops(p, gamma: SampledCurve, m: int) -> list:
    """The components of p^{-1}(Gamma) for the polynomial p: one array of
    k*m samples per cycle of k laps, in the order of each cycle's smallest
    root, the roots of p - Gamma(0), Gamma(0) = gamma.points[0], in
    `roots_flat`'s (re, im) order. The lap count m must be an integer >= 1.

    Gamma must be a closed, positively oriented Jordan polygon; the callers
    that take a user's Gamma check `is_jordan` (its absolute default tol
    would reject the exact eps-circles of `level_components` for tiny eps).
    Gamma is the trigonometric interpolant of its samples, lifted over the
    grid tau_j = 2 pi j / m, j = 0..m, from each root. Gamma and Gamma' are
    sampled on that grid by FFT; only the midpoints of halved steps are
    evaluated densely. Each lap end must lie within 1e-8 * (1 + max|z|) of
    exactly one root, or TraceError is raised.
    """
    p = require_polynomial(p)
    if p.degree < 1:
        raise PreconditionError("polynomial must be nonconstant")
    if not gamma.closed:
        raise PreconditionError("the base curve must be closed")
    if gamma.orientation != 1:
        raise PreconditionError("the base curve must be positively oriented")
    require_count(m, 1, "samples per lap")
    gc = fourier_coeffs(gamma.points)
    taus = (2 * np.pi / m) * np.arange(m + 1)
    w_taus = trig_grid(gc, m)
    # the sample, not the FFT value: its rounding varies with m and could
    # reorder roots tied in (re, im)
    w_taus[0] = gamma.points[0]
    w_taus = np.append(w_taus, w_taus[0])
    dw_taus = trig_grid(deriv_coeffs(gc), m)
    dw_taus = np.append(dw_taus, dw_taus[0])

    def path(t):
        return w_taus if np.array_equal(t, taus) else trig_eval(gc, t)

    def dpath(t):
        return dw_taus if np.array_equal(t, taus) else trig_eval_deriv(gc, t)

    w0 = complex(w_taus[0])
    arcs, _ = lift_path(p, path, dpath, np.array(roots_flat(p - w0, tol=1e-8)), taus)
    tol = 1e-8 * (1.0 + np.max(np.abs(arcs)))
    hits = np.abs(arcs[:, -1, None] - arcs[None, :, 0]) <= tol
    for i, count in enumerate(hits.sum(axis=1)):
        if count != 1:
            raise TraceError(
                f"lap from root {arcs[i, 0]:.6g} ends at {arcs[i, -1]:.6g}, "
                f"within {tol:.3g} of {count} roots",
                samples=arcs[i],
            )
    perm = np.argmax(hits, axis=1)
    if np.unique(perm).size < perm.size:
        raise TraceError(f"lap ends {perm.tolist()} are not a permutation of the roots")
    loops, seen = [], set()
    for first in range(len(perm)):
        if first not in seen:
            cycle = [first]
            while perm[cycle[-1]] != first:
                cycle.append(int(perm[cycle[-1]]))
            seen.update(cycle)
            loops.append(arcs[cycle, :m].ravel())
    return loops


def level_components(p: Polynomial, eps: float, step: float = DEFAULT_STEP) -> list:
    """The closed components of {|p| = eps}: the `preimage_loops` of the
    circle eps*T.

    Each lap lifts eps*exp(i tau) over m = _grid(0, 2 pi, step).size - 1
    uniform steps; arg p turns once per lap around a loop, which is
    positively oriented, so a loop of k laps encloses k zeros (with multiplicity).
    Returns the loops ordered by each loop's smallest enclosed zero in
    (re, im) order. A loop whose max | |p| - eps | / eps exceeds
    LEVEL_INVARIANT_TOL, beyond the rounding of its samples, raises
    TraceError, as trace_level does for arcs. A TraceError is raised again
    with its samples and the nonzero critical value of modulus nearest eps.
    """
    if not eps > 0:
        raise PreconditionError("eps must be positive")
    m = _grid(0.0, 2 * np.pi, step).size - 1
    try:
        loops = preimage_loops(p, unit_circle(8, radius=eps), m)
        zero_pts = [z for z, _ in poly_roots(p, tol=1e-9)]  # distinct, (re, im) order
        found = []
        for loop in map(SampledCurve, loops):
            inside = np.flatnonzero(winding_numbers(loop.points, zero_pts, min_distance=0.0)[0])
            if inside.size == 0:
                raise TraceError(f"level loop of {len(loop) // m} laps encloses no zero",
                                 samples=loop.points)
            err = np.abs(np.abs(p(loop.points)) - eps)
            # a sample is only known to rounding, which moves p by up to about
            # deg * u * eval_scale: more than LEVEL_INVARIANT_TOL * eps on a tiny
            # level about a zero away from the origin
            rounding = p.degree * _EPS * p.eval_scale(loop.points)
            if np.any(err > LEVEL_INVARIANT_TOL * eps + rounding):
                raise TraceError(f"level invariant violated: relative deviation "
                                 f"{np.max(err) / eps:.3g}", samples=loop.points)
            found.append((inside[0], loop))
    except TraceError as err:
        cvs = [cv for cv in critical_values(p) if cv != 0] if p.degree > 1 else []
        if not cvs:
            raise
        cv = min(cvs, key=lambda c: abs(abs(c) - eps))
        raise type(err)(f"{err}; eps = {eps:.6g}, nearest nonzero critical value "
                        f"{cv:.6g} of modulus {abs(cv):.6g}", samples=err.samples) from err
    found.sort(key=lambda item: item[0])
    return [loop for _, loop in found]

