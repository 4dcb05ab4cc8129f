import ast
import warnings
from pathlib import Path

import numpy as np
import pytest

from lemniscates import polynomials
from lemniscates.counterexample import build_d4_chain, f4_polynomial
from lemniscates.curves import unit_circle
from lemniscates.errors import PreconditionError, RootFindingError
from lemniscates.fingerprint import identity_report
from lemniscates.polynomials import (
    Polynomial,
    RationalMap,
    critical_points,
    critical_values,
    normalize_leading,
    poly_roots,
)

# closed-form critical data of f4 = z^2 (z+1)(z+3):
# f4' = 2z(2z^2+6z+3), critical points 0 and (-3 +- sqrt(3))/2,
# f4((-3+sqrt(3))/2) = (3*sqrt(3) - 4.5)/2, f4((-3-sqrt(3))/2) = -(3*sqrt(3) + 4.5)/2
CP_PLUS = (-3 + np.sqrt(3.0)) / 2
CP_MINUS = (-3 - np.sqrt(3.0)) / 2
CV_PLUS = (3 * np.sqrt(3.0) - 4.5) / 2
CV_MINUS = -(3 * np.sqrt(3.0) + 4.5) / 2


def test_eval_examples(f4):
    assert f4(1.0) == pytest.approx(8.0)  # 1*2*4
    p = Polynomial([3.5 + 1j, 2.0, 1.0])
    assert p(0.0) == pytest.approx(3.5 + 1j)
    assert Polynomial([0, 0, 1])(1j) == pytest.approx(-1.0)


def test_eval_vectorized(f4):
    z = np.array([0.0, 1.0, 1j])
    vals = f4(z)
    assert vals.shape == (3,)
    assert vals[1] == pytest.approx(8.0)


def test_derivative_examples(f4):
    assert np.allclose(Polynomial([0, 0, 1]).derivative().coeffs, [0, 2])
    assert Polynomial([5.0]).derivative().coeffs.tolist() == [0j]
    # expand z^2(z+1)(z+3) = z^4 + 4z^3 + 3z^2 by hand, differentiate
    assert np.allclose(f4.derivative().coeffs, [0, 6, 12, 4])


def test_derivative_matches_finite_difference(rng):
    coeffs = rng.normal(size=6) + 1j * rng.normal(size=6)
    p = Polynomial(coeffs)
    dp = p.derivative()
    h = 1e-6
    for _ in range(100):
        z = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
        fd = (p(z + h) - p(z - h)) / (2 * h)
        assert abs(dp(z) - fd) < 1e-6 * (1 + abs(dp(z)))


def test_roots_f4(f4):
    roots = poly_roots(f4, tol=1e-6)
    assert sorted(m for _, m in roots) == [1, 1, 2]
    by_mult = {m: z for z, m in roots}
    assert by_mult[2] == pytest.approx(0.0, abs=1e-10)
    simple = sorted((z for z, m in roots if m == 1), key=lambda z: z.real)
    assert simple[0] == pytest.approx(-3.0, abs=1e-9)
    assert simple[1] == pytest.approx(-1.0, abs=1e-9)


def test_roots_trivial_cases():
    roots = poly_roots(Polynomial([1, 0, 1]), tol=1e-8)
    assert sorted(z.imag for z, _ in roots) == pytest.approx([-1.0, 1.0], abs=1e-10)
    triple = poly_roots(Polynomial.from_roots([2.0, 2.0, 2.0]), tol=1e-4)
    assert triple == [(pytest.approx(2.0, abs=1e-8), 3)]


def test_roots_reconstruction_property(rng):
    for _ in range(20):
        deg = int(rng.integers(1, 7))
        roots = rng.normal(size=deg) + 1j * rng.normal(size=deg)
        lead = complex(rng.normal() + 1j * rng.normal())
        if abs(lead) < 0.1:
            lead = 1.0
        p = Polynomial.from_roots(roots, leading=lead)
        found = []
        for z, m in poly_roots(p, tol=1e-6):
            found.extend([z] * m)
        q = Polynomial.from_roots(found, leading=p.coeffs[-1])
        scale = np.max(np.abs(p.coeffs))
        assert np.max(np.abs(q.coeffs - p.coeffs)) < 1e-8 * scale


def test_roots_failure_carries_best_iterate():
    with pytest.raises(PreconditionError):
        poly_roots(Polynomial([3.0]))


def test_critical_points_f4(f4):
    cps = sorted(critical_points(f4), key=lambda z: z.real)
    assert len(cps) == 3
    assert cps[0] == pytest.approx(CP_MINUS, abs=1e-10)
    assert cps[1] == pytest.approx(CP_PLUS, abs=1e-10)
    assert cps[2] == pytest.approx(0.0, abs=1e-10)


def test_critical_points_count_property(rng):
    for _ in range(10):
        deg = int(rng.integers(2, 7))
        p = Polynomial(rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1))
        assert len(critical_points(p)) == p.degree - 1


def test_critical_values(f4):
    cvs = sorted(critical_values(f4), key=lambda z: z.real)
    assert cvs[0] == pytest.approx(CV_MINUS, abs=1e-9)
    assert cvs[1] == pytest.approx(0.0, abs=1e-9)
    assert cvs[2] == pytest.approx(CV_PLUS, abs=1e-9)
    assert critical_values(Polynomial([0, 0, 1])) == [pytest.approx(0.0)]
    # z^3 - 0.3 z: critical points +-sqrt(0.1), values -+ 0.2*sqrt(0.1)
    cv3 = sorted(critical_values(Polynomial([0, -0.3, 0, 1])), key=lambda z: z.real)
    expect = 0.2 * np.sqrt(0.1)
    assert cv3[0] == pytest.approx(-expect, abs=1e-12)
    assert cv3[1] == pytest.approx(expect, abs=1e-12)


def _count_roots(monkeypatch):
    """Records the coefficients of each polynomial `poly_roots` is called on."""
    calls = []
    poly_roots_ = polynomials.poly_roots

    def counting(p, tol=1e-8):
        calls.append(p.coeffs.tolist())
        return poly_roots_(p, tol)

    monkeypatch.setattr(polynomials, "poly_roots", counting)
    return calls


def test_critical_values_are_found_once_per_polynomial(monkeypatch):
    """The first call finds the critical values; later calls on the same
    Polynomial return a new list of the same values without a root solve."""
    calls = _count_roots(monkeypatch)
    p = Polynomial([0, -0.3, 0, 1])
    first = critical_values(p)
    first.append(1.0)
    assert critical_values(p) == first[:-1] and len(calls) == 1
    assert critical_values(Polynomial(p.coeffs)) == first[:-1] and len(calls) == 2


def test_identity_report_and_d4_chain_find_critical_values_once(monkeypatch):
    """identity_report finds the roots of p', of p and of p - Gamma(0), one
    solve each: `is_proper` and the lap lifts share the critical values. The
    d4 chain solves f4 - w_start for its start and f4' once for all of its
    lifts."""
    calls = _count_roots(monkeypatch)
    identity_report(Polynomial([-0.1, 0, 1]), unit_circle(512), nodes=256)
    assert len(calls) == 3
    calls.clear()
    build_d4_chain(step=0.01)
    f4_prime = f4_polynomial().derivative().coeffs.tolist()
    assert len(calls) == 2 and calls.count(f4_prime) == 1


def test_critical_value_moduli_ordering(f4):
    mods = sorted(abs(v) for v in critical_values(f4))
    assert mods[0] == pytest.approx(0.0, abs=1e-9)
    assert mods[1] == pytest.approx(CV_PLUS, abs=1e-9)
    assert mods[2] == pytest.approx(abs(CV_MINUS), abs=1e-9)


def test_degree_cap():
    with pytest.raises(PreconditionError):
        Polynomial(np.ones(70))


def test_normalize_leading():
    p = Polynomial([1.0, 0, 1j])
    q, rot = normalize_leading(p)
    assert q.coeffs[-1] == pytest.approx(1.0)
    assert abs(rot) == pytest.approx(1.0)
    assert np.allclose(q.coeffs, p.coeffs * rot)


def test_rational_map_common_root_rejected():
    with pytest.raises(PreconditionError):
        RationalMap(Polynomial.from_roots([0.5, 2.0]), Polynomial.from_roots([0.5]))


def test_poly_roots_root_within_rounding_of_zero():
    """A constant coefficient at rounding level puts a root near 1e-32, where
    tol * eval_scale is ~1e-40: the residual goal is floored at the rounding
    of the largest coefficient."""
    roots = poly_roots(Polynomial([7e-33, -0.6, 1.0]))
    assert [m for _, m in roots] == [1, 1]
    assert abs(roots[0][0]) < 1e-31 and abs(roots[1][0] - 0.6) < 1e-15


@pytest.mark.parametrize("coeffs", [[1e308, 0, 1e-308], [1, 0, 1e-320], [1e300, 0, 1]])
def test_poly_roots_rejects_overflowing_coefficient_range(coeffs):
    """p overflows on the disk |z| <= 1 + max|c_k|/|c_n| that holds its roots,
    where the companion matrix and the residual test need it finite: refused
    up front, with no numpy warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PreconditionError, match="coefficient range too wide"):
            poly_roots(Polynomial(coeffs))


@pytest.mark.parametrize("coeffs", [[1, 0, 1], np.array([1, 0, 1]), RationalMap([1, 0, 1])])
def test_poly_roots_takes_a_polynomial_only(coeffs):
    with pytest.raises(PreconditionError, match="expected a Polynomial"):
        poly_roots(coeffs)


@pytest.mark.parametrize("tol", [np.inf, np.nan, 0.0, -1.0, 1.0])
def test_poly_roots_rejects_tol_outside_unit_interval(tol):
    """An infinite tol used to merge every root into one cluster at their
    mean, and a NaN one to fail every residual test."""
    with pytest.raises(PreconditionError, match="tolerance"):
        poly_roots(Polynomial([0.05 + 0.02j, 0.1, 0.3 + 0.1j, 0.8]), tol=tol)


def test_poly_roots_never_returns_non_finite_roots(monkeypatch):
    # a NaN residual compares False against any goal: it must still fail
    monkeypatch.setattr(polynomials, "_companion_roots",
                        lambda c: np.full(c.size - 1, np.nan + 0j))
    with pytest.raises(RootFindingError):
        poly_roots(Polynomial([1, 0, 1]))


def test_poly_roots_eigenvalue_failure_is_a_root_finding_error(monkeypatch):
    def no_convergence(c):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(polynomials.np, "roots", no_convergence)
    with pytest.raises(RootFindingError, match="did not converge"):
        poly_roots(Polynomial([1, 0, 1]))


def _decades_roots():
    rng = np.random.default_rng(35)
    return 10.0 ** rng.uniform(-3, 2, 16) * np.exp(2j * np.pi * rng.uniform(size=16))


def _golden_spiral_roots():
    g = (np.sqrt(5.0) - 1.0) / 2.0
    return 10.0 ** np.linspace(-2, 2, 20) * np.exp(2j * np.pi * g * np.arange(20))


@pytest.mark.parametrize("roots", [_decades_roots(), _golden_spiral_roots()],
                         ids=["16_over_5_decades", "20_on_a_golden_spiral"])
def test_poly_roots_spanning_several_decades(roots):
    """Simple roots whose moduli span four or five decades: each true root is
    found to 1e-10 relative. A simultaneous iteration from one start circle
    misses one of the 16 by 2.7e-4 and gives up on the 20."""
    found = poly_roots(Polynomial.from_roots(roots))
    assert [m for _, m in found] == [1] * roots.size
    points = np.array([z for z, _ in found])
    for t in roots:
        assert np.min(np.abs(points - t)) <= 1e-10 * max(1.0, abs(t))


def test_polynomials_is_a_bottom_layer():
    """polynomials imports nothing of the package but its errors, so every
    layer above can import it without a cycle."""
    tree = ast.parse(Path(polynomials.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):  # deferred imports inside functions too
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert {m for m in imported if m.startswith((".", "lemniscates"))} == {".errors"}
