"""Tracing of level sets {|f| = eps} and gradient rays {arg f = alpha} of a
polynomial f by lifting w-plane paths through f^{-1}. Every entry point takes
a `Polynomial` and refuses anything else with PreconditionError.

`lift_path` is the one continuation kernel, predictor-corrector
continuation (Allgower & Georg, Introduction to Numerical Continuation
Methods, ch. 2) on two levels, every returned step certified to stay on its
branch of f^{-1}. First each step w_j -> w_{j+1} of the path is halved until
rho_j = |w_{j+1} - w_j| / dist(w_j, CV) <= 3 - 2 sqrt 2, CV the finite
critical values of f. The branch g of f^{-1} through z_j is then one-to-one
on the disc of radius dist(w_j, CV) about w_j: by the growth theorem
g(w_{j+1}) lies within |w_{j+1} - w_j| / (|f'(z_j)| (1 - rho_j)^2) of z_j,
and by Koebe's 1/4 theorem that ball lies in the sheet g(disc), on which f
is one-to-one (Duren, Univalent Functions, 1983, ch. 2), so a preimage of
w_{j+1} in the ball is g(w_{j+1}). The coarse pass only predicts: a
scalar stepper crosses every _COARSE-th node, predicting each step by the
two-step (Adams-Bashforth) rule from the slopes z' = w'(s) / f'(z) of the
last two samples and correcting it by Newton onto w(s_j). Cubic Hermite
interpolation of those samples and slopes predicts every sample, and one
vectorized Newton pass corrects all of them to rounding level (the next
update is at rounding level or the residual at Horner rounding level) and
checks each step against that distance bound and the critical floor. A
step that no halving makes short enough (a critical value on the path), a
coarse step Newton cannot take or a step that fails its check raises
TraceError with the certified samples before it; there is no second route.
Level arcs lift eps*exp(i s) on a uniform grid in s = arg f, gradient arcs
exp(s + i alpha) on a uniform grid in s = log|f|. Every sample lands on its
exact target to a relative residual of NEWTON_TOL = 1e-12 or better, so a
level arc's argument lift is its grid and |f| = eps holds to that residual.

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
_CORRECTOR_ITERS = 8         # Newton updates per start, coarse step or fine pass
_COARSE = 8                  # C: grid steps per step of the coarse pass
_COARSE_TOL = 1e-7           # coarse corrector goal; the fine pass polishes every sample
_SHEET = 3 - 2 * 2 ** 0.5    # the longest certified step, as a share of dist(w, CV)
_MAX_REFINEMENTS = 40        # halvings of the steps longer than that
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


def _horner(nc, z):
    """f(z) and f'(z) at every point of the array z for the polynomial with
    coefficients nc (leading first), by one Horner pass."""
    v, dv = np.full(np.shape(z), nc[0]), np.zeros(np.shape(z), dtype=complex)
    for c in nc[1:]:
        dv = dv * z + v
        v = v * z + c
    return v, dv


def _polish(nc, z, w):
    """Vectorized Newton onto f(z) = w from every point of z: at least one
    update, then on until every next update is at rounding level or
    _CORRECTOR_ITERS updates are spent. Returns (z, f(z), f'(z), done), done
    marking the points whose next update is at rounding level."""
    fv, dv = _horner(nc, z)
    dz = (fv - w) / dv
    for _ in range(_CORRECTOR_ITERS):
        z = z - dz
        fv, dv = _horner(nc, z)
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


def _refined(f, w, dw, s, w_s, dw_s):
    """Halve each step of the path w over the nodes s whose rho_j =
    |w_{j+1} - w_j| / dist(w_j, CV) is not <= _SHEET, w and dw evaluated at
    the midpoints, until none is or _MAX_REFINEMENTS rounds are spent.
    Returns the nodes, w and dw there, each step's rho, and s's nodes' mask."""
    cv = np.array(critical_values(f) if f.degree > 1 else [], dtype=complex)
    node = np.ones(s.size, dtype=bool)
    for depth in range(_MAX_REFINEMENTS + 1):
        with np.errstate(divide="ignore", invalid="ignore"):
            dist = np.min(np.abs(w_s[:-1, None] - cv), axis=1, initial=np.inf)
            rho = np.abs(np.diff(w_s)) / dist
        long = np.flatnonzero(~(rho <= _SHEET)) + 1
        if long.size == 0 or depth == _MAX_REFINEMENTS:
            return s, w_s, dw_s, rho, node
        mid = 0.5 * (s[long - 1] + s[long])
        s, node = np.insert(s, long, mid), np.insert(node, long, False)
        w_s = np.insert(w_s, long, np.asarray(w(mid), dtype=complex))
        dw_s = np.insert(dw_s, long, np.asarray(dw(mid), dtype=complex))


def _hermite(t, nodes):
    """(J, h00, h10, h01, h11): node i of t[:nodes[-1] + 1] lies on the
    coarse interval J[i] between nodes, a coarse node on the one it ends, at
    the fraction u of it; the h are the cubic Hermite weights there of that
    interval's end samples and end slopes (u = 0 on a one-node path)."""
    t = t[:nodes[-1] + 1]
    J = np.clip((np.arange(t.size) - 1) // _COARSE, 0, nodes.size - 2)
    span = t[nodes[J + 1]] - t[nodes[J]]
    u = np.divide(t - t[nodes[J]], span, out=np.zeros(t.size), where=span != 0)
    return (J, (1 + 2 * u) * (1 - u) ** 2, u * (1 - u) ** 2 * span,
            u ** 2 * (3 - 2 * u), u ** 2 * (u - 1) * span)


def _fine_pass(f, nc, guess, w, rho):
    """Correct the predicted samples of the path w by one vectorized Newton
    pass, then check each: its update ended at rounding level or, as _newton
    accepts, its residual is at Horner rounding level, |f'| is above the
    critical floor, and the step onto it moves at most
    |w_{j+1} - w_j| / (|f'(z_j)| (1 - rho_j)^2). Returns (z, f(z), passed)."""
    with np.errstate(all="ignore"):  # a non-finite sample fails its checks
        z, fv, dv, ok = _polish(nc, guess, w)
        ok |= np.abs(fv - w) <= 4 * f.degree * _EPS * f.eval_scale(z)
        # 1 + sum |k c_k| |z|^(k-1), as in _scalar_kernels
        ok &= np.abs(dv) >= CRITICAL_FIELD_TOL * (f.derivative().eval_scale(z) + 1.0)
        bound = np.abs(np.diff(w)) / (np.abs(dv[:-1]) * (1.0 - rho) ** 2)
        ok[1:] &= np.abs(np.diff(z)) <= bound + _ROUNDING * (1.0 + np.abs(z[1:]))
    return z, fv, ok


def lift_path(f, w, dw, z0, s):
    """Lift the w-plane path w(s) through f^{-1} from z0, one sample per node of s.

    f is a Polynomial; w and dw are vectorized callables for the path and its
    derivative, evaluated once on s and shared when z0 is an array of starts.
    Each start is first Newton-projected onto w(s[0]).

    Every step whose ratio rho to its distance to the critical values is
    not at most _SHEET is halved, w and dw evaluated at the midpoint, until
    none is; these internal nodes are never returned. The coarse pass only
    predicts: a scalar stepper crosses every _COARSE-th node (and the last)
    to the corrector goal _COARSE_TOL. It predicts each step h_j from the
    slopes z'_j = dw(s_j)/f'(z_j) of the accepted samples by the two-step
    rule z_j + h_j*(z'_j + (h_j/h_{j-1})*(z'_j - z'_{j-1})/2), an Euler step
    on the first step, and corrects it by Newton onto w(s_{j+1}). Cubic
    Hermite interpolation of these samples and their slopes predicts every
    sample, and `_fine_pass` corrects all of them and certifies each step:
    the certificate, not the stepper, keeps the lift on its branch.

    Returns (samples, f(samples)), of shape z0.shape + s.shape. Raises
    PreconditionError when s is empty, and TraceError when a start
    projection fails, or, naming the node of s it did not reach and
    carrying the certified samples at the nodes before it, when a step is
    still too long after _MAX_REFINEMENTS halvings (a critical value on the
    path, or a start on one), Newton cannot take a coarse step, or a sample
    fails its certificate.
    """
    fd = _scalar_kernels(f)
    nc = [complex(c) for c in f.coeffs][::-1]
    s = np.asarray(s, dtype=float)
    if not s.size:
        raise PreconditionError("lift_path needs at least one node of s")
    t, w_t, dw_t, rho, node = _refined(f, w, dw, s, np.asarray(w(s), dtype=complex),
                                       np.asarray(dw(s), dtype=complex))
    stuck = np.flatnonzero(~(rho <= _SHEET))
    end, refused = t.size, None
    if stuck.size:  # lift up to the step no halving certified
        end = stuck[0] + 1
        refused = (f"step from w = {w_t[stuck[0]]:.6g} to {w_t[end]:.6g} is too long for "
                   f"its distance to the critical values after {_MAX_REFINEMENTS} halvings")
    nodes = np.append(np.arange(0, end - 1, _COARSE), end - 1)
    weights = _hermite(t, nodes)
    # the coarse steps (h_j, bend_j, w_{j+1}, dw_{j+1}) as plain Python
    # scalars, which keep the per-step arithmetic cheap
    steps = list(zip(np.diff(t[nodes]).tolist(), _bend(t[nodes]).tolist(),
                     w_t[nodes[1:]].tolist(), dw_t[nodes[1:]].tolist()))

    starts = np.asarray(z0, dtype=complex)
    samples = np.empty(starts.shape + s.shape, dtype=complex)
    values = np.empty(starts.shape + s.shape, dtype=complex)
    for k in np.ndindex(starts.shape):
        z, _, dv = _newton(fd, complex(starts[k]), complex(w_t[0]), NEWTON_TOL,
                           _CORRECTOR_ITERS, f)
        zc, why = [z], refused
        slope = prev = complex(dw_t[0]) / dv
        for h, b, w1, dw1 in steps:  # the coarse pass, up to the node it cannot reach
            try:
                z, _, dv = _newton(fd, z + h * (slope + b * (slope - prev)), w1,
                                   _COARSE_TOL, _CORRECTOR_ITERS, f)
            except TraceError as err:
                why = str(err)
                break
            prev, slope = slope, dw1 / dv
            zc.append(z)
        lifted, zc = nodes[:len(zc)], np.asarray(zc)
        J, h00, h10, h01, h11 = weights if lifted.size == nodes.size else _hermite(t, lifted)
        with np.errstate(all="ignore"):  # _fine_pass refuses a non-finite guess
            mc = dw_t[lifted] / _horner(nc, zc)[1]
            guess = h00 * zc[J] + h10 * mc[J] + h01 * zc[J + 1] + h11 * mc[J + 1]
        m = lifted[-1] + 1
        zt, ft, ok = _fine_pass(f, nc, guess, w_t[:m], rho[:m - 1])
        if not ok.all():
            m = int(np.argmin(ok))
            why = f"sample {zt[m]:.6g} is not certified on its branch"
        if why is not None:
            at = m + int(np.argmax(node[m:]))  # the node of s not reached
            raise TraceError(f"{why} (lifting s = {t[at]:.6g})", samples=zt[:m][node[:m]])
        samples[k], values[k] = zt[node], ft[node]
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

