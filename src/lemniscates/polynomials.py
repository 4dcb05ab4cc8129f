"""Complex polynomials and rational maps: evaluation, roots, critical data.

Every layer above takes a Polynomial (`require_polynomial`); a RationalMap
serves only the argument-principle count of `curves.count_preimages`.
Coefficients are stored in ascending degree order as complex128 arrays.
Roots are the eigenvalues of the companion matrix, with multiple roots
recovered by cluster merging; the eigenvalue solve and the residual test
need p finite on the disk that holds its roots, so a coefficient range too
wide for that is refused.
"""
from __future__ import annotations

import numpy as np

from .errors import PreconditionError, RootFindingError

MAX_DEGREE = 64


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

    @property
    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    def __call__(self, z):
        if self.is_polynomial:
            return self.num(z) / self.den.coeffs[0]
        return self.num(z) / self.den(z)

    def __repr__(self):
        return f"RationalMap(num_degree={self.num.degree}, den_degree={self.den.degree})"


def as_rational(f) -> RationalMap:
    """Coerce a Polynomial or RationalMap to RationalMap."""
    if isinstance(f, RationalMap):
        return f
    return RationalMap(f)


def require_polynomial(f) -> Polynomial:
    """f itself; anything but a Polynomial raises PreconditionError."""
    if not isinstance(f, Polynomial):
        raise PreconditionError(f"expected a Polynomial, got {type(f).__name__}")
    return f


def _companion_roots(coeffs: np.ndarray) -> np.ndarray:
    """All roots of the polynomial with the given ascending coefficients, as
    the eigenvalues of its companion matrix, which are backward stable
    (Edelman & Murakami, Math. Comp. 64, 1995).

    The leading and trailing coefficients must be nonzero. The companion
    matrix and the residual test of `poly_roots` need p finite in floating
    point on the disk |z| <= 1 + max|c_k|/|c_n| that holds its roots; a
    coefficient range too wide for that is refused.
    """
    with np.errstate(over="ignore"):
        bound = 1.0 + np.max(np.abs(coeffs[:-1])) / np.abs(coeffs[-1])
        reach = Polynomial(coeffs).eval_scale(bound)
    if not np.isfinite(reach):
        raise PreconditionError(
            f"coefficient range too wide: p overflows on its root bound |z| <= {bound:.3g}"
        )
    try:
        return np.roots(coeffs[::-1])
    except np.linalg.LinAlgError as err:
        raise RootFindingError(f"companion eigenvalue solve failed: {err}") from None


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

    Raises PreconditionError when p is not a Polynomial, unless 0 < tol < 1,
    or when p overflows on the disk that holds its roots, and
    RootFindingError when the companion eigenvalue solve fails or (carrying
    the raw eigenvalues) a root is non-finite or fails its residual test.
    """
    if not 0.0 < tol < 1.0:  # also refuses NaN
        raise PreconditionError(f"root tolerance must lie in (0, 1), got {tol}")
    if require_polynomial(p).degree < 1:
        raise PreconditionError("root finding needs degree >= 1")
    c = p.coeffs
    k0 = int(np.nonzero(c)[0][0])  # exact zeros at the origin deflate cleanly
    out = [(0j, k0)] if k0 else []
    c = c[k0:]
    if c.size > 1:
        raw = _companion_roots(c)
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
    """Roots repeated by multiplicity, in `poly_roots`' (re, im) order."""
    flat = []
    for z, m in poly_roots(p, tol=tol):
        flat.extend([z] * m)
    return flat


def critical_points(p: Polynomial):
    """Roots of p', repeated by multiplicity (degree(p)-1 values), found to
    `roots_flat`'s default tolerance 1e-8."""
    if p.degree < 2:
        raise PreconditionError("critical points need degree >= 2")
    return roots_flat(p.derivative())


def critical_values(p: Polynomial):
    """p evaluated at each finite critical point, with multiplicity."""
    return [complex(p(z)) for z in critical_points(p)]


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
