"""Complex polynomials and rational maps: evaluation, roots, critical data.

Coefficients are stored in ascending degree order as complex128 arrays.
Root finding is a simultaneous (Aberth-Ehrlich) iteration started from a
perturbed circle, with multiple roots recovered by cluster merging.
"""
from __future__ import annotations

import numpy as np

from .errors import NumericalError, PreconditionError, RootFindingError, TraceError

MAX_DEGREE = 64
_ABERTH_MAX_ITER = 200


class Polynomial:
    """Dense complex polynomial; ``coeffs[k]`` multiplies ``z**k``."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = np.atleast_1d(np.asarray(coeffs, dtype=complex))
        if c.ndim != 1 or c.size == 0:
            raise PreconditionError("coefficients must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(c)):
            raise PreconditionError("coefficients must be finite")
        nz = np.nonzero(c)[0]
        c = c[: nz[-1] + 1] if nz.size else np.zeros(1, dtype=complex)
        if c.size - 1 > MAX_DEGREE:
            raise PreconditionError(
                f"degree {c.size - 1} exceeds supported maximum {MAX_DEGREE}"
            )
        self.coeffs = c

    @classmethod
    def from_roots(cls, roots, leading=1.0):
        c = np.array([leading], dtype=complex)
        for r in np.asarray(roots, dtype=complex).ravel():
            c = np.convolve(c, np.array([-r, 1.0], dtype=complex))
        return cls(c)

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    @property
    def is_zero(self) -> bool:
        return self.degree == 0 and self.coeffs[0] == 0

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.full_like(z, self.coeffs[-1])
        for c in self.coeffs[-2::-1]:
            out = out * z + c
        return out if out.ndim else complex(out)

    def derivative(self) -> "Polynomial":
        if self.degree == 0:
            return Polynomial([0.0])
        k = np.arange(1, self.coeffs.size)
        return Polynomial(self.coeffs[1:] * k)

    def eval_scale(self, z):
        """Sum |c_k| |z|^k, the natural backward-error scale at z."""
        az = np.abs(np.asarray(z, dtype=complex))
        out = np.full_like(az, abs(self.coeffs[-1]))
        for c in self.coeffs[-2::-1]:
            out = out * az + abs(c)
        return out if out.ndim else float(out)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            return Polynomial(np.convolve(self.coeffs, other.coeffs))
        return Polynomial(self.coeffs * complex(other))

    __rmul__ = __mul__

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial([complex(other)])
        n = max(self.coeffs.size, other.coeffs.size)
        a = np.zeros(n, dtype=complex)
        a[: self.coeffs.size] = self.coeffs
        a[: other.coeffs.size] += other.coeffs
        return Polynomial(a)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial([complex(other)])
        return self + (-1.0) * other

    def __repr__(self):
        return f"Polynomial(degree={self.degree})"


class RationalMap:
    """Quotient num/den of two polynomials with no shared root."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        self.num = num if isinstance(num, Polynomial) else Polynomial(num)
        self.den = (
            Polynomial([1.0])
            if den is None
            else (den if isinstance(den, Polynomial) else Polynomial(den))
        )
        if self.den.is_zero:
            raise PreconditionError("denominator is identically zero")
        if self.den.degree >= 1 and self.num.degree >= 1:
            self._check_common_roots()

    def _check_common_roots(self, tol=1e-9):
        zn = [r for r, m in poly_roots(self.num, tol=1e-8)]
        zd = [r for r, m in poly_roots(self.den, tol=1e-8)]
        for a in zn:
            for b in zd:
                if abs(a - b) <= tol * max(1.0, abs(a), abs(b)):
                    raise PreconditionError(
                        f"numerator and denominator share a root near {a:.6g}"
                    )

    @classmethod
    def from_polynomial(cls, p):
        return cls(p if isinstance(p, Polynomial) else Polynomial(p))

    @property
    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    def __call__(self, z):
        if self.is_polynomial:
            return self.num(z) / self.den.coeffs[0]
        return self.num(z) / self.den(z)

    def zeros(self, tol=1e-9):
        if self.num.degree == 0:
            return []
        return poly_roots(self.num, tol=tol)

    def poles(self, tol=1e-9):
        if self.den.degree == 0:
            return []
        return poly_roots(self.den, tol=tol)

    def __repr__(self):
        return f"RationalMap(num_degree={self.num.degree}, den_degree={self.den.degree})"


def as_rational(f) -> RationalMap:
    """Coerce a Polynomial or RationalMap to RationalMap."""
    if isinstance(f, RationalMap):
        return f
    return RationalMap.from_polynomial(f)


def _aberth(coeffs: np.ndarray) -> np.ndarray:
    """All roots of the polynomial with the given ascending coefficients.

    Simultaneous Newton (Aberth-Ehrlich) iteration from a perturbed circle.
    The leading and trailing coefficients must be nonzero, and p must be
    finite in floating point on the disk |z| <= r0 that holds its roots.
    """
    n = coeffs.size - 1
    p = Polynomial(coeffs)
    dp = p.derivative()
    with np.errstate(over="ignore"):
        bound = 1.0 + np.max(np.abs(coeffs[:-1])) / np.abs(coeffs[-1])
        reach = p.eval_scale(bound)
    if not np.isfinite(reach):
        raise PreconditionError(
            f"coefficient range too wide: p overflows on its root bound |z| <= {bound:.3g}"
        )
    r0 = 1.0 + np.max(np.abs(coeffs[:-1] / coeffs[-1]))
    k = np.arange(n)
    z = 0.7 * r0 * np.exp(2j * np.pi * (k + 0.25) / n + 0.43j)
    frozen = np.zeros(n, dtype=bool)
    for _ in range(_ABERTH_MAX_ITER):
        pv = p(z)
        scale = p.eval_scale(z)
        frozen |= np.abs(pv) <= 1e-15 * np.maximum(scale, 1e-300)
        if np.all(frozen):
            break
        dv = dp(z)
        dv = np.where(dv == 0, 1e-300, dv)
        w = pv / dv
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, 1.0)
        s = np.sum(1.0 / diff, axis=1) - 1.0 / np.diag(diff)
        denom = 1.0 - w * s
        denom = np.where(np.abs(denom) < 1e-300, 1e-300, denom)
        step = np.where(frozen, 0.0, w / denom)
        z = z - step
        if np.max(np.abs(step)) < 1e-15 * (1.0 + np.max(np.abs(z))):
            break
    return z


def _cluster(roots: np.ndarray, radius_tol: float):
    """Merge roots within radius_tol*max(1,|z|) (single linkage)."""
    n = roots.size
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            r = radius_tol * max(1.0, abs(roots[i]), abs(roots[j]))
            if abs(roots[i] - roots[j]) <= r:
                parent[find(i)] = find(j)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(roots[i])
    return [(np.mean(g), len(g)) for g in groups.values()]


def _polish_multiple(p: Polynomial, z0: complex, mult: int) -> complex:
    """Newton-refine a multiplicity-m cluster center on p^(m-1)."""
    q = p
    for _ in range(mult - 1):
        q = q.derivative()
    dq = q.derivative()
    z = z0
    for _ in range(6):
        qv, dv = q(z), dq(z)
        if abs(dv) == 0:
            break
        step = qv / dv
        z = z - step
        if abs(step) < 1e-15 * (1.0 + abs(z)):
            break
    return z


def poly_roots(p: Polynomial, tol: float = 1e-8):
    """All roots of p with multiplicity, as a list of (root, multiplicity).

    Roots closer than tol*max(1,|z|) are merged into one cluster whose
    multiplicity is the cluster size; the residual |p(root)| of every
    returned simple root must not exceed tol * eval_scale, or the rounding
    of p's largest coefficient where that is larger (at a root within
    rounding of 0, eval_scale is the rounding noise of the constant
    coefficient). Exact zero trailing coefficients are deflated as roots at
    the origin first.

    Raises PreconditionError when p overflows on the disk that holds its
    roots, and RootFindingError (carrying the best iterates) on
    non-convergence or a non-finite root.
    """
    if not isinstance(p, Polynomial):
        p = Polynomial(p)
    if p.degree < 1:
        raise PreconditionError("root finding needs degree >= 1")
    c = p.coeffs
    k0 = int(np.nonzero(c)[0][0])  # exact zeros at the origin deflate cleanly
    out = [(0j, k0)] if k0 else []
    c = c[k0:]
    if c.size > 1:
        raw = _aberth(c)
        clustered = _cluster(raw, tol)
        q = Polynomial(c)
        rounding = np.finfo(float).eps * float(np.abs(c).max())
        for z, m in clustered:
            if m > 1:
                z = _polish_multiple(q, z, m)
            resid = abs(q(z))
            allowed = max(tol * q.eval_scale(z), rounding) * (2.0 ** (m - 1))
            if not np.isfinite(z) or (m == 1 and not resid <= allowed):
                raise RootFindingError(
                    f"root iterate {z:.6g} residual {resid:.3g} exceeds {allowed:.3g}",
                    best=raw,
                )
            out.append((complex(z), m))
    out.sort(key=lambda rm: (rm[0].real, rm[0].imag))
    return out


def roots_flat(p: Polynomial, tol: float = 1e-8):
    """Roots repeated by multiplicity, deterministic order."""
    flat = []
    for z, m in poly_roots(p, tol=tol):
        flat.extend([z] * m)
    return flat


def critical_points(p: Polynomial, tol: float = 1e-8):
    """Roots of p', repeated by multiplicity (degree(p)-1 values)."""
    if p.degree < 2:
        raise PreconditionError("critical points need degree >= 2")
    return roots_flat(p.derivative(), tol=tol)


def critical_values(p: Polynomial, tol: float = 1e-8):
    """p evaluated at each finite critical point, with multiplicity."""
    return [complex(p(z)) for z in critical_points(p, tol=tol)]


def normalize_leading(p: Polynomial):
    """Rotate p so its leading coefficient is positive real.

    Returns (rotated polynomial, applied unimodular factor).
    """
    lead = p.coeffs[-1]
    if lead == 0:
        raise PreconditionError("zero polynomial has no leading coefficient")
    rot = complex(abs(lead) / lead)
    if rot == 1.0:
        return p, 1.0 + 0j
    return Polynomial(p.coeffs * rot), rot


def counterexample_zeros(n: int, ratio: float = 3.0):
    """Zero list for the degree-n family: double zero at 0 plus n-2
    geometrically spaced simple zeros on the negative real axis."""
    if n < 4:
        raise PreconditionError("the family starts at degree 4")
    zs = [0.0, 0.0]
    x = 1.0
    for _ in range(n - 2):
        zs.append(-x)
        x *= ratio
    return zs


class CounterexampleDesign:
    """Validated member of the counterexample family, with build metadata."""

    def __init__(self, poly, zeros, ratio, attempts, levels_checked):
        self.poly = poly
        self.zeros = zeros
        self.ratio = ratio
        self.attempts = attempts
        self.levels_checked = levels_checked

    def metadata(self):
        return {
            "degree": self.poly.degree,
            "zeros": [[z.real, z.imag] for z in np.asarray(self.zeros, dtype=complex)],
            "spacing_ratio": self.ratio,
            "attempts": self.attempts,
            "levels_checked": self.levels_checked,
        }


def _nonzero_critical_moduli(p: Polynomial):
    vals = critical_values(p)
    scale = max(abs(v) for v in vals) if vals else 1.0
    mods = sorted(abs(v) for v in vals if abs(v) > 1e-12 * max(scale, 1.0))
    return mods


def design_counterexample(n: int, step: float = 0.02, max_attempts: int = 5):
    """Construct and numerically validate the degree-n family member.

    Validation checks that the nonzero critical moduli are strictly
    increasing and that between consecutive critical moduli the level set
    splits the zeros as a nested figure-eight sequence requires: the first
    k+1 zeros share one component while every farther zero has its own.
    The spacing ratio doubles on failure, up to max_attempts.
    """
    from .curves import winding_numbers  # deferred: cycle
    from .levelcurves import LEVEL_INVARIANT_TOL, level_components

    if n < 4:
        raise PreconditionError("counterexample family needs n >= 4")
    if n == 4:
        poly = Polynomial([0.0, 0.0, 3.0, 4.0, 1.0])  # z^2 (z+1)(z+3)
        return CounterexampleDesign(poly, counterexample_zeros(4), 3.0, 1, [])

    ratio = 3.0
    last_err = None
    for attempt in range(1, max_attempts + 1):
        zeros = counterexample_zeros(n, ratio)
        poly = Polynomial.from_roots(zeros)
        points = sorted(set(zeros), key=abs)  # distinct zero locations
        try:
            mods = _nonzero_critical_moduli(poly)
            if len(mods) != n - 2:
                raise NumericalError("unexpected critical value count")
            for a, b in zip(mods, mods[1:]):
                if not b > a * (1.0 + 1e-9):
                    raise NumericalError(
                        f"critical moduli not strictly increasing: {a:.6g}, {b:.6g}"
                    )
            levels = []
            for k in range(1, len(mods)):
                eps = float(np.sqrt(mods[k - 1] * mods[k]))
                groups = []
                for loop, dev in level_components(poly, eps, step):
                    if dev > LEVEL_INVARIANT_TOL:
                        raise TraceError(f"level invariant violated: relative deviation {dev:.3g}")
                    counts = winding_numbers(loop.points, points, min_distance=0.0)[0]
                    groups.append(tuple(z for z, c in zip(points, counts) if c))
                expected = [tuple(points[: k + 1])] + [(far,) for far in points[k + 1 :]]
                if sorted(groups) != sorted(expected):
                    raise TraceError(
                        f"level {eps:.6g} groups the zeros as {sorted(groups)}, "
                        f"expected {sorted(expected)}"
                    )
                levels.append(eps)
            return CounterexampleDesign(poly, zeros, ratio, attempt, levels)
        except NumericalError as err:
            last_err = err
            ratio *= 2.0
    raise NumericalError(
        f"no validated spacing found for n={n} after {max_attempts} attempts: {last_err}"
    )


def construct_counterexample_poly(n: int) -> Polynomial:
    """Degree-n member of the counterexample family (n=4 gives z^2(z+1)(z+3))."""
    return design_counterexample(n).poly
