"""Tracing of level sets {|f| = eps} and gradient rays {arg f = alpha} by
lifting w-plane paths through f^{-1}.

`lift_path` is the one continuation kernel: an Euler predictor
z + w'(s) ds / f'(z) and a Newton corrector onto the exact target w(s_j)
(Allgower & Georg, Introduction to Numerical Continuation Methods, ch. 2),
with the substep halved when the corrector does not contract or the step
jumps branches. Level arcs lift eps*exp(i s) on a uniform grid in s = arg f,
gradient arcs exp(s + i alpha) on a uniform grid in s = log|f|. Every sample
lands on its exact target to a relative residual of NEWTON_TOL = 1e-12, so a
level arc's argument lift is its grid and |f| = eps holds to that residual.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import SampledCurve, winding_number
from .errors import PreconditionError, TraceError
from .polynomials import as_rational, critical_values

DEFAULT_STEP = 0.01          # radians of arg (level) / log-modulus (gradient)
NEWTON_TOL = 1e-12           # corrector goal: |f(z) - w| <= NEWTON_TOL * |w|
LEVEL_INVARIANT_TOL = 1e-8   # contract: max | |f|-eps | / eps on level arcs
CRITICAL_FIELD_TOL = 1e-10   # |f'| below this scale aborts a trace
BRANCH_JUMP_FACTOR = 2.0     # kappa: a step may move at most kappa*|dw|/|f'|
_CORRECTOR_ITERS = 8         # Newton iterations per substep before halving
_MAX_HALVINGS = 12           # smallest substep is 2^-12 of a grid step


# -- stop rules ---------------------------------------------------------------


@dataclass(frozen=True)
class ArgChangeReaches:
    delta: float  # signed total change of arg f


@dataclass(frozen=True)
class ClosedLoop:
    pass


@dataclass(frozen=True)
class HitsGradient:
    alpha: float
    crossing: int = 1  # stop at the k-th crossing of arg f = alpha


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

    def curve(self, closed=False) -> SampledCurve:
        return SampledCurve(self.samples, closed=closed)

    def __len__(self):
        return self.samples.size


def arg_change_along(arc: TracedArc) -> float:
    """Total change of the continuous argument lift along the arc."""
    if len(arc) == 0:
        raise PreconditionError("empty arc")
    return float(arc.arg_lift[-1] - arc.arg_lift[0])


# -- the path-lifting kernel -----------------------------------------------------


def _scalar_kernels(f):
    """Fast scalar z -> (f(z), f'(z), scale) from cached coefficient lists;
    scale = 1 + sum |c_k| |z|^k over the numerator derivative is what a
    critical |f'| is measured against."""
    f = as_rational(f)
    nc = [complex(c) for c in f.num.coeffs][::-1]
    dc = [complex(c) for c in f.den.coeffs][::-1]
    nd = [complex(c) for c in f.num.derivative().coeffs][::-1]
    dd = [complex(c) for c in f.den.derivative().coeffs][::-1]
    ad = [abs(c) for c in nd]

    def horner(cs, z):
        acc = cs[0]
        for c in cs[1:]:
            acc = acc * z + c
        return acc

    if len(dc) == 1 and dc[0] == 1.0:

        def fd(z):
            return horner(nc, z), horner(nd, z), horner(ad, abs(z)) + 1.0

    else:

        def fd(z):
            n = horner(nc, z)
            d = horner(dc, z)
            dn = horner(nd, z)
            ddv = horner(dd, z)
            return n / d, (dn * d - n * ddv) / (d * d), horner(ad, abs(z)) + 1.0

    return fd


def _newton(fd, z, w, tol, iters):
    """Newton iteration onto f(z) = w; returns (z, f(z), f'(z)).

    Stops once |f(z) - w| <= tol*|w| (tol when w == 0) or the update is at
    rounding level. Each update must be shorter than the one before; a
    critical point, a growing or non-finite update, or running out of
    iterations raises TraceError carrying the iterates.
    """
    goal = tol * (abs(w) if w != 0 else 1.0)
    trail = [z]
    last = np.inf
    for _ in range(iters):
        fv, dv, scale = fd(z)
        if abs(dv) < CRITICAL_FIELD_TOL * scale:
            raise TraceError(f"critical point near {z:.6g}", samples=trail)
        dz = (fv - w) / dv
        if abs(fv - w) <= goal or abs(dz) <= 1e-14 * (1.0 + abs(z)):
            return z, fv, dv
        if not abs(dz) < last:
            raise TraceError(f"Newton iteration not contracting near {z:.6g}", samples=trail)
        last = abs(dz)
        z = z - dz
        trail.append(z)
    raise TraceError(f"Newton did not reach |f(z)-w| <= {goal:.3g} from {trail[0]:.6g}",
                     samples=trail)


def lift_path(f, w, dw, z0, s):
    """Lift the w-plane path w(s) through f^{-1} from z0, one sample per node of s.

    w and dw are vectorized callables for the path and its derivative. z0 is
    first Newton-projected onto w(s[0]); each grid step is an Euler predictor
    z + dw(s_j)*(s_{j+1} - s_j)/f'(z) and a Newton corrector onto w(s_{j+1}).
    A substep whose corrector fails to contract, or that moves
    |dz| > BRANCH_JUMP_FACTOR*|dw|/|f'| (a jump to another branch), is
    halved, as is one that meets a critical point, down to 2^-_MAX_HALVINGS
    of the grid step; halved substeps stay internal. Returns
    (samples, f(samples)); raises TraceError when the start projection fails
    or a substep is still rejected after the last halving.
    """
    fd = _scalar_kernels(f)
    s = np.asarray(s, dtype=float)
    # plain Python scalars keep the per-step arithmetic cheap
    ts = s.tolist()
    ws = np.asarray(w(s), dtype=complex).tolist()
    dws = np.asarray(dw(s), dtype=complex).tolist()

    def advance(z, dv, t0, w0, dw0, t1, w1, depth):
        try:
            z1, f1, d1 = _newton(fd, z + dw0 * (t1 - t0) / dv, w1, NEWTON_TOL, _CORRECTOR_ITERS)
            if abs(z1 - z) > BRANCH_JUMP_FACTOR * abs(w1 - w0) / abs(dv):
                raise TraceError(f"step from {z:.6g} jumped to another branch at {z1:.6g}")
            return z1, f1, d1
        except TraceError:
            if depth == _MAX_HALVINGS:
                raise
        tm = 0.5 * (t0 + t1)
        wm, dwm = complex(w(np.array([tm]))[0]), complex(dw(np.array([tm]))[0])
        zm, _, dm = advance(z, dv, t0, w0, dw0, tm, wm, depth + 1)
        return advance(zm, dm, tm, wm, dwm, t1, w1, depth + 1)

    samples = np.empty(s.size, dtype=complex)
    values = np.empty(s.size, dtype=complex)
    z, fv, dv = _newton(fd, complex(z0), ws[0], NEWTON_TOL, _CORRECTOR_ITERS)
    samples[0], values[0] = z, fv
    for j in range(1, s.size):
        try:
            z, fv, dv = advance(z, dv, ts[j - 1], ws[j - 1], dws[j - 1], ts[j], ws[j], 0)
        except TraceError as err:
            raise TraceError(f"{err} (lifting s = {ts[j]:.6g})", samples=samples[:j]) from None
        samples[j], values[j] = z, fv
    return samples, values


def solve_target(f, w, seed, tol: float = 1e-12) -> complex:
    """Newton-solve f(z) = w from the given seed with the lift_path corrector.

    The tolerance is relative to |w| (absolute when w == 0); landing on a
    critical point or a stalled iteration raises TraceError carrying the
    iterates.
    """
    fd = _scalar_kernels(f)
    z, _, dv = _newton(fd, complex(seed), complex(w), tol, 80)
    # a solution this close to a target with |f'|^2 ~ goal*|f''| is a
    # numerically multiple preimage, i.e. a critical point landing
    goal = tol * (abs(w) if w != 0 else 1.0)
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


def trace_level(f, eps, start, direction, stop, step: float = DEFAULT_STEP) -> TracedArc:
    """Follow {|f| = eps} from start with arg f moving in the given direction.

    The arc lifts eps*exp(i s) over a uniform grid in s = arg f of spacing at
    most step, so its arg_lift is that grid. Stop rules:
    ArgChangeReaches(delta) ends exactly at lift0 + delta, HitsGradient(alpha, k)
    at the k-th crossing of arg f = alpha, and ClosedLoop() lifts one full turn
    at a time until the lift is back at its start.
    """
    f = as_rational(f)
    if eps <= 0:
        raise PreconditionError("level needs eps > 0")
    if direction not in (1, -1):
        raise PreconditionError("direction must be +1 or -1")
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

    if isinstance(stop, HitsGradient):
        rel = (stop.alpha - lift0) * direction % (2 * np.pi)
        if rel < 1e-12:
            rel = 2 * np.pi
        stop = ArgChangeReaches(direction * (rel + (stop.crossing - 1) * 2 * np.pi))
    if isinstance(stop, ArgChangeReaches):
        if stop.delta == 0 or np.sign(stop.delta) != direction:
            raise PreconditionError("stop delta must be nonzero with the trace's sign")
        lifts = _grid(lift0, lift0 + stop.delta, step)
        samples, fvals = lift_path(f, level, dlevel, start, lifts)
    else:  # ClosedLoop: a component winds at most deg f times
        lap = _grid(0.0, direction * 2 * np.pi, step)
        samples, fvals, lifts = [], [], []
        z = start
        for k in range(f.num.degree + f.den.degree + 1):
            s = lift0 + direction * 2 * np.pi * k + lap
            zs, fs = lift_path(f, level, dlevel, z, s)
            drop = 1 if k else 0
            samples.append(zs[drop:])
            fvals.append(fs[drop:])
            lifts.append(s[drop:])
            z = zs[-1]
            if abs(z - samples[0][0]) <= 1e-7 * (1.0 + abs(samples[0][0])):
                break
        else:
            raise TraceError(
                f"level component did not close within {k + 1} turns",
                samples=np.concatenate(samples),
            )
        samples, fvals, lifts = map(np.concatenate, (samples, fvals, lifts))
        samples[-1], fvals[-1] = samples[0], fvals[0]
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
    f = as_rational(f)
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


def _component_through(f, eps, z0, step, zero_pts):
    """Trace the closed component of {|f| = eps} bounding the sublevel region
    of the zero z0. Returns (loop, winding signature over zero_pts)."""
    f = as_rational(f)
    fd = _scalar_kernels(f)
    z0 = complex(z0)
    bound = 16.0 * (1.0 + max(abs(z) for z in zero_pts)) + 4.0 * eps
    last_err = None
    for phi in (0.0, np.pi / 2, np.pi, 3 * np.pi / 2, np.pi / 4, 5 * np.pi / 4):
        u = np.exp(1j * phi)
        try:
            t_lo, t_hi = 1e-9 * (1.0 + abs(z0)), None
            t = 1e-6 * (1.0 + abs(z0))
            while t <= bound:
                if abs(fd(z0 + t * u)[0]) >= eps:
                    t_hi = t
                    break
                t_lo = t
                t *= 1.6
            if t_hi is None:
                continue
            for _ in range(200):  # bisect to the first crossing
                tm = 0.5 * (t_lo + t_hi)
                if abs(fd(z0 + tm * u)[0]) >= eps:
                    t_hi = tm
                else:
                    t_lo = tm
                if t_hi - t_lo < 1e-12 * (1.0 + t_hi):
                    break
            seed = z0 + t_hi * u
            fs = fd(seed)[0]
            seed = solve_target(f, eps * fs / abs(fs), seed)
            arc = trace_level(f, eps, seed, +1, ClosedLoop(), step=step)
            loop = SampledCurve(arc.samples[:-1], closed=True)
            signature = tuple(winding_number(loop, z) for z in zero_pts)
            if signature[zero_pts.index(z0)] < 1:  # the ray stepped over a neck
                raise TraceError(f"ray from {z0:.6g} reached another component")
            return loop, signature
        except TraceError as err:
            last_err = err
            continue
    raise last_err or TraceError(f"could not seed the level component of {z0:.6g}")


def level_component_enclosing(
    f, eps, zeros_subset, step: float = DEFAULT_STEP
) -> SampledCurve:
    """The closed component of {|f| = eps} that winds about every listed zero
    of f and about no other zero.

    Seeded by marching a ray from the first listed zero to its first level
    crossing, then tracing a closed loop. Fails naming the critical value
    that blocks the requested grouping.
    """
    f = as_rational(f)
    if f.num.degree < 1:
        raise PreconditionError("f needs at least one zero")
    if eps <= 0:
        raise PreconditionError("eps must be positive")
    cvals = critical_values(f.num) if f.is_polynomial and f.num.degree >= 2 else []
    for cv in cvals:
        if abs(abs(cv) - eps) < 1e-9 * max(eps, abs(cv)):
            raise PreconditionError(
                f"eps {eps:.6g} coincides with critical modulus |{cv:.6g}|"
            )
    zero_pts = sorted({complex(r) for r, _ in f.zeros()}, key=lambda z: (z.real, z.imag))
    subset = []
    for p in zeros_subset:
        p = complex(p)
        match = min(zero_pts, key=lambda z: abs(z - p))
        if abs(match - p) > 1e-6 * (1.0 + abs(match)):
            raise PreconditionError(f"{p:.6g} is not a zero of f")
        if match not in subset:
            subset.append(match)
    others = [z for z in zero_pts if z not in subset]

    loop, signature = _component_through(f, eps, subset[0], step, zero_pts)
    got = dict(zip(zero_pts, signature))
    if all(got[z] >= 1 for z in subset) and all(got[z] == 0 for z in others):
        return loop
    enclosed = [z for z in zero_pts if got[z] >= 1]
    raise TraceError(
        "no component separates the requested zeros: component through "
        f"{subset[0]:.6g} encloses {enclosed}; blocking critical value "
        f"{_blocking_value(cvals, eps, len(enclosed) > len(subset)):.6g}"
    )


def _blocking_value(cvals, eps, too_many):
    mods = [cv for cv in cvals if abs(cv) > 0]
    if not mods:
        return 0j
    if too_many:
        below = [cv for cv in mods if abs(cv) < eps]
        return max(below, key=abs) if below else min(mods, key=lambda c: abs(abs(c) - eps))
    above = [cv for cv in mods if abs(cv) > eps]
    return min(above, key=abs) if above else min(mods, key=lambda c: abs(abs(c) - eps))
