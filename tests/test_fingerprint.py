import numpy as np
import pytest

from lemniscates.curves import SampledCurve, count_preimages, is_jordan, winding_number

from lemniscates.errors import NumericalError, PreconditionError
from lemniscates.fingerprint import (
    BlaschkeProduct,
    CircleMap,
    RectGrid,
    blaschke_eval,
    blaschke_model,
    circle_map_of_blaschke,
    fingerprint_of_curve,
    fingerprint_of_pseudolemniscate,
    identity_report,
    is_proper,
    is_proper_oracle,
    nth_root_lift,
    pseudo_lemniscate,
    verify_identity,
)
from lemniscates.polynomials import Polynomial

SQRT01 = np.sqrt(0.1)


def zpow(n):
    return Polynomial([0] * n + [1])


def test_blaschke_eval_examples():
    assert blaschke_eval(BlaschkeProduct([0.0]), 0.7 + 0.1j) == pytest.approx(0.7 + 0.1j)
    b = BlaschkeProduct([0.5])
    assert b(0.0) == pytest.approx(-0.5)
    t = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    b2 = BlaschkeProduct([0.5, -0.3 + 0.2j], rotation=np.exp(0.4j))
    assert np.max(np.abs(np.abs(b2(np.exp(1j * t))) - 1.0)) < 1e-12


def test_blaschke_validation():
    with pytest.raises(PreconditionError):
        BlaschkeProduct([1.2])
    with pytest.raises(PreconditionError):
        BlaschkeProduct([0.2], rotation=2.0)
    with pytest.raises(PreconditionError):
        BlaschkeProduct([0.9])(1 / np.conj(0.9))


def test_circle_map_of_blaschke_degrees():
    ident = circle_map_of_blaschke(BlaschkeProduct([0.0]), 512)
    t = np.linspace(0, 2 * np.pi, 33)
    assert np.max(np.abs(ident.lift(t) - t)) < 1e-12
    two = circle_map_of_blaschke(BlaschkeProduct([0.0, 0.0]), 512)
    assert two.total_increase == pytest.approx(4 * np.pi)
    off = circle_map_of_blaschke(BlaschkeProduct([0.5, -0.5]), 2048)
    assert off.total_increase == pytest.approx(4 * np.pi)
    assert off.check_monotone()


def test_circle_map_validation():
    t = np.linspace(0, 2 * np.pi, 32, endpoint=False)
    with pytest.raises(NumericalError):
        CircleMap(t, -t + 2 * t[::-1] * 0, degree=1)  # decreasing lift


def test_nth_root_lift():
    two = circle_map_of_blaschke(BlaschkeProduct([0.0, 0.0]), 512)
    root = nth_root_lift(two, 2)
    t = np.linspace(0, 2 * np.pi, 65)
    assert np.max(np.abs(root.lift(t) - t)) < 1e-12
    assert root.total_increase == pytest.approx(2 * np.pi)
    shifted = nth_root_lift(two, 2, branch=1)
    assert shifted.lift(0.0) - root.lift(0.0) == pytest.approx(np.pi)
    with pytest.raises(PreconditionError):
        nth_root_lift(two, 3)


def test_fingerprint_of_circle_is_identity():
    for radius in (1.0, 2.0):
        from lemniscates.curves import unit_circle

        k = fingerprint_of_curve(unit_circle(256, radius=radius), nodes=256)
        t = np.linspace(0, 2 * np.pi, 50)
        assert np.max(np.abs(k.lift(t) - t)) < 1e-10
        k.check_monotone()


def test_fingerprint_scaling_invariance(ellipse_E):
    k1 = fingerprint_of_curve(ellipse_E, nodes=512)
    k2 = fingerprint_of_curve(SampledCurve(2.0 * ellipse_E.points), nodes=512)
    t = np.linspace(0, 2 * np.pi, 101)
    assert np.max(np.abs(k1.lift(t) - k2.lift(t))) < 1e-6


def test_fingerprint_node_doubling(ellipse_E):
    k1 = fingerprint_of_curve(ellipse_E, nodes=256)
    k2 = fingerprint_of_curve(ellipse_E, nodes=512)
    t = np.linspace(0, 2 * np.pi, 101)
    assert np.max(np.abs(k1.lift(t) - k2.lift(t))) < 1e-5


def test_pseudo_lemniscate_identity_poly(ellipse_E):
    lem = pseudo_lemniscate(Polynomial([0, 1]), ellipse_E, 512)
    # same point set as the ellipse (as a set; start point may differ)
    d = np.abs(lem.points[:, None] - ellipse_E.points[None, ::8]).min(axis=0)
    assert d.max() < 1e-6


def test_pseudo_lemniscate_square_covers_twice(circle_T):
    lem = pseudo_lemniscate(zpow(2), circle_T, 512)
    assert len(lem) == 1024
    assert np.max(np.abs(np.abs(lem.points) - 1.0)) < 1e-12  # the set is the circle
    k = count_preimages(zpow(2), SampledCurve(np.exp(2j * np.pi * np.linspace(0, 1, 64, endpoint=False))), 0.0)
    assert k == 2


def test_pseudo_lemniscate_jordan_and_covering(circle_T, rng):
    p = Polynomial([-0.1, 0, 1])
    lem = pseudo_lemniscate(p, circle_T, 512)
    assert is_jordan(lem, tol=1e-9)
    assert winding_number(lem, 0.0) == 1
    # covering degree: every target inside the base curve has n preimages
    for _ in range(5):
        w = (rng.uniform(-0.5, 0.5) + 1j * rng.uniform(-0.5, 0.5)) * 0.8
        assert count_preimages(p, lem, complex(w)) == 2


def test_pseudo_lemniscate_rejects_improper(circle_T):
    with pytest.raises(PreconditionError):
        pseudo_lemniscate(Polynomial([-4, 0, 1]), circle_T, 256)


def test_is_proper_examples(circle_T, ellipse_E):
    assert is_proper(zpow(3), circle_T)
    assert not is_proper(Polynomial([-4, 0, 1]), circle_T)
    assert is_proper(Polynomial([0, -0.3, 0, 1]), ellipse_E)
    assert is_proper(Polynomial([0.3, 1.0]), ellipse_E)  # degree 1 is vacuous


def test_is_proper_degenerate_rejected(circle_T):
    # critical value exactly on the unit circle
    with pytest.raises(PreconditionError):
        is_proper(Polynomial([-1.0, 0, 1]), circle_T)
    # critical value p(0) = 0.5+0.5i on the middle of an edge, far from samples
    diamond = SampledCurve([1, 1j, -1, -1j], closed=True)
    with pytest.raises(PreconditionError, match="degenerate"):
        is_proper(Polynomial([0.5 + 0.5j, 0, 1]), diamond)


def test_is_proper_oracle_examples(circle_T):
    assert is_proper_oracle(zpow(2), circle_T)
    assert not is_proper_oracle(Polynomial([-4, 0, 1]), circle_T)


def test_oracle_agreement_smoke(circle_T, ellipse_E, rng):
    for _ in range(8):
        d = int(rng.integers(2, 5))
        roots = rng.normal(0, 0.75, d) + 1j * rng.normal(0, 0.75, d)
        p = Polynomial.from_roots(roots, leading=float(np.exp(rng.uniform(-0.5, 1.6))))
        for gamma in (circle_T, ellipse_E):
            try:
                direct = is_proper(p, gamma)
            except PreconditionError:
                continue
            assert direct == is_proper_oracle(p, gamma, RectGrid(64, 64))


def test_blaschke_model_zn(circle_T):
    for n in (1, 2, 3):
        b = blaschke_model(zpow(n), circle_T, nodes=256, samples_per_lap=256)
        assert b.degree == n
        assert np.max(np.abs(b.zeros)) < 1e-9
        assert b.rotation == pytest.approx(1.0, abs=1e-9)


def test_blaschke_model_scaled_identity(circle_T):
    b = blaschke_model(Polynomial([0, 2.0]), circle_T, nodes=256, samples_per_lap=256)
    assert b.degree == 1
    assert abs(b.zeros[0]) < 1e-9
    assert b.rotation == pytest.approx(1.0, abs=1e-9)


def test_blaschke_model_closed_form(circle_T):
    """For z^2 - 0.1 over the unit circle the interior map of the preimage
    region is w*sqrt(0.99)/sqrt(1-0.1 w^2), so the Blaschke zeros are exactly
    +-sqrt(0.1) with rotation 1."""
    b = blaschke_model(Polynomial([-0.1, 0, 1]), circle_T, nodes=512)
    zs = sorted(b.zeros, key=lambda z: z.real)
    assert zs[0] == pytest.approx(-SQRT01, abs=1e-9)
    assert zs[1] == pytest.approx(SQRT01, abs=1e-9)
    assert b.rotation == pytest.approx(1.0, abs=1e-9)
    # conjugation-negation symmetry of the pair
    assert zs[1] == pytest.approx(-np.conj(zs[0]), abs=1e-9)


def test_interior_map_closed_form_derivative(circle_T):
    from lemniscates.conformal import interior_map

    lem = pseudo_lemniscate(Polynomial([-0.1, 0, 1]), circle_T, 512)
    dm = interior_map(lem, nodes=512)
    assert dm.center_derivative == pytest.approx(np.sqrt(0.99), abs=1e-10)


def test_fingerprint_of_pseudolemniscate_cases(circle_T, ellipse_E):
    k = fingerprint_of_pseudolemniscate(zpow(2), circle_T, nodes=256, samples_per_lap=256)
    t = np.linspace(0, 2 * np.pi, 65)
    assert np.max(np.abs(k.lift(t) - t)) < 1e-10  # the curve is the circle
    k2 = fingerprint_of_pseudolemniscate(
        Polynomial([0, 1]), ellipse_E, nodes=256, samples_per_lap=512
    )
    kg = fingerprint_of_curve(ellipse_E, nodes=256)
    # identity polynomial: same fingerprint as the base curve
    assert np.max(np.abs(k2.lift(t) - kg.lift(t))) < 1e-6


def test_verify_identity_exact_cases(circle_T):
    for n in (1, 2, 3, 4):
        res = verify_identity(zpow(n), circle_T, samples=256, nodes=256)
        assert res <= 1e-10


def test_verify_identity_thm4_instance(circle_T):
    res = verify_identity(Polynomial([-0.1, 0, 1]), circle_T, samples=512, nodes=1024)
    assert res <= 1e-4


def test_verify_identity_thm5_instance(ellipse_E):
    res = verify_identity(Polynomial([0, -0.3, 0, 1]), ellipse_E, samples=512, nodes=1024)
    assert res <= 1e-4


def test_verify_identity_complex_coefficients(circle_T):
    """Rotating the constant term rotates the Blaschke zeros with it; the
    same closed form as the real case gives zeros +-sqrt(0.1i)."""
    p = Polynomial([-0.1j, 0, 1])
    rep = identity_report(p, circle_T, samples=256, nodes=512)
    assert rep.residual <= 1e-4
    want = np.sqrt(0.1j)
    zs = sorted(rep.blaschke.zeros, key=lambda z: z.real)
    assert zs[0] == pytest.approx(-want, abs=1e-8)
    assert zs[1] == pytest.approx(want, abs=1e-8)


def test_verify_identity_asymmetric_quartic(ellipse_E):
    p = Polynomial.from_roots([0.1 + 0.2j, -0.25, 0.3j, -0.1 - 0.15j])
    assert is_proper(p, ellipse_E)
    assert verify_identity(p, ellipse_E, samples=512, nodes=1024) <= 1e-4


def test_verify_identity_requires_positive_leading(circle_T):
    with pytest.raises(PreconditionError):
        verify_identity(Polynomial([-0.1, 0, -1]), circle_T)


def test_nth_root_matches_kp(circle_T):
    """k_p agrees with the degree-n root of the composed lift, up to branch."""
    p = Polynomial([-0.1, 0, 1])
    rep = identity_report(p, circle_T, samples=256, nodes=512)
    lb = circle_map_of_blaschke(rep.blaschke, 4096)
    t = np.linspace(0, 2 * np.pi, 256, endpoint=False)
    composed = rep.k_gamma.lift(lb.lift(t))
    best = np.inf
    for branch in range(rep.degree):
        cand = composed / rep.degree + 2 * np.pi * branch / rep.degree
        gap = cand - rep.k_p.lift(t)
        gap = gap - 2 * np.pi * np.round(np.median(gap) / (2 * np.pi))
        best = min(best, float(np.max(np.abs(gap))))
    assert best <= 1e-4


def test_rotation_alignment_absorbed(circle_T):
    """Precomposing the lemniscate parametrization with a rotation leaves the
    aligned residual unchanged (the fingerprint class is rotation-stable)."""
    p = Polynomial([-0.1, 0, 1])
    r1 = verify_identity(p, circle_T, samples=256, nodes=512)
    rolled = SampledCurve(np.roll(circle_T.points, 37), closed=True)
    r2 = verify_identity(p, rolled, samples=256, nodes=512)
    assert abs(r1 - r2) < 1e-8


def test_identity_report_monotone_fingerprints(circle_T):
    rep = identity_report(Polynomial([-0.1, 0, 1]), circle_T, samples=256, nodes=512)
    rep.k_p.check_monotone()
    rep.k_gamma.check_monotone()
    assert rep.k_p.total_increase == pytest.approx(2 * np.pi)
    assert rep.k_gamma.total_increase == pytest.approx(2 * np.pi)
