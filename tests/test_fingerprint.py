import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lemniscates import conformal, fingerprint, levelcurves
from lemniscates._fourier import fourier_coeffs, trig_eval, trig_eval_deriv
from lemniscates.conformal import riemann_maps
from lemniscates.curves import (
    SampledCurve,
    count_preimages,
    ellipse,
    is_jordan,
    unit_circle,
    winding_number,
)
from lemniscates.errors import NumericalError, PreconditionError, SolverError, TraceError
from lemniscates.fingerprint import (
    ORACLE_STEPS_PER_LAP,
    BlaschkeProduct,
    CircleMap,
    circle_map_of_blaschke,
    fingerprint_of_curve,
    identity_report,
    is_proper,
    is_proper_oracle,
    nth_root_lift,
    pseudo_lemniscate,
)
from lemniscates.levelcurves import lift_path, preimage_loops
from lemniscates.polynomials import Polynomial, roots_flat

SQRT01 = np.sqrt(0.1)


def zpow(n):
    return Polynomial([0] * n + [1])


def test_blaschke_eval_examples():
    assert BlaschkeProduct([0.0])(0.7 + 0.1j) == pytest.approx(0.7 + 0.1j)
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


@settings(max_examples=60)
@given(
    zeros=st.lists(st.complex_numbers(max_magnitude=0.9999), min_size=1, max_size=5),
    phase=st.floats(0.0, 2 * np.pi),
)
def test_blaschke_lift_is_the_continuous_argument(zeros, phase):
    """The closed-form lift is arg B(e^{i theta}) mod 2 pi, strictly
    increasing, with total increase 2 pi n, and starts in (-pi, pi]."""
    b = BlaschkeProduct(zeros, np.exp(1j * phase))
    # theta is rounded to about eps * 2 pi, and the lift's slope reaches
    # (1 + |a|)/(1 - |a|) per zero, at the zero's angle
    r = np.abs(b.zeros)
    tol = max(1e-12, np.finfo(float).eps * 2 * np.pi * np.sum((1 + r) / (1 - r)))
    t = np.linspace(0.0, 2 * np.pi, 4097)
    probe = np.concatenate([t, np.angle(b.zeros)])
    gap = b.lift(probe) - np.angle(b(np.exp(1j * probe)))
    assert np.max(np.abs(gap - 2 * np.pi * np.round(gap / (2 * np.pi)))) <= tol
    lift = b.lift(t)
    assert np.all(np.diff(lift) > 0)
    assert abs(lift[-1] - lift[0] - 2 * np.pi * b.degree) <= tol
    assert -np.pi < lift[0] <= np.pi


def test_blaschke_lift_of_z_power_on_circle(circle_T):
    """For p = z^n on the unit circle, B = z^n and its lift is n theta."""
    t = np.linspace(0.0, 2 * np.pi, 257)
    for n in (1, 2, 3, 4):
        b = identity_report(zpow(n), circle_T, nodes=256).blaschke
        assert np.max(np.abs(b.lift(t) - n * t)) <= 1e-12


def test_circle_map_of_blaschke_crowded_zero():
    """A zero at 0.999 turns its factor by 4.4 rad within 0.004 rad, under
    three spacings of 4096 uniform nodes: too fast for a lift unwrapped from
    samples, while the closed form needs no finer grid."""
    b = BlaschkeProduct([0.999, -0.3])
    m = circle_map_of_blaschke(b, 4096)
    assert m.check_monotone()
    assert m.total_increase == pytest.approx(4 * np.pi)
    gap = m.lift_nodes - np.angle(b(np.exp(1j * m.t_nodes)))
    assert np.max(np.abs(gap - 2 * np.pi * np.round(gap / (2 * np.pi)))) <= 1e-12


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


def _padded_pchip_lift(m: CircleMap, x):
    """The lift as scipy's PchipInterpolator gave it: a spline through the
    nodes padded by 4 periodic copies on each side, reduced to one period."""
    interpolate = pytest.importorskip("scipy.interpolate")
    t, y, total = m.t_nodes, m.lift_nodes, m.total_increase
    pad = min(4, t.size)
    te = np.concatenate([t[-pad:] - 2 * np.pi, t, t[:pad] + 2 * np.pi])
    ye = np.concatenate([y[-pad:] - total, y, y[:pad] + total])
    spline = interpolate.PchipInterpolator(te, ye, extrapolate=False)
    k = np.floor((x - t[0]) / (2 * np.pi))
    return spline(x - 2 * np.pi * k) + total * k


@pytest.fixture(scope="module")
def pchip_cases():
    rep = identity_report(Polynomial([-0.1, 0, 1]), ellipse(1.0, 0.6, 512), nodes=512)
    blaschke = {d: circle_map_of_blaschke(BlaschkeProduct(z), 512) for d, z in
                [(1, [0.5]), (2, [0.3 + 0.4j, -0.6]), (3, [0.9, -0.5j, 0.2 - 0.3j])]}
    rng = np.random.default_rng(5)
    widths = rng.uniform(0.2, 3.0, 40)  # the last one is the wrap
    t = 0.7 + 2 * np.pi * np.cumsum(np.append(0.0, widths[:-1])) / widths.sum()
    return {
        "k_p": rep.k_p,
        "k_gamma": rep.k_gamma,
        **{f"blaschke degree {d}": m for d, m in blaschke.items()},
        "nth root": nth_root_lift(blaschke[2], 2, branch=1),
        "nonuniform from 0.7": CircleMap(t, 2 * t + 0.5 * np.sin(3 * t), degree=2),
    }


@pytest.mark.parametrize("case", [
    "k_p", "k_gamma", "blaschke degree 1", "blaschke degree 2", "blaschke degree 3",
    "nth root", "nonuniform from 0.7",
])
def test_circle_map_matches_scipy_pchip(pchip_cases, case):
    """The periodic PCHIP gives the lift the padded scipy spline gave: at the
    nodes, mid-interval, at the seam t0 and t0 + 2 pi, and three periods to
    either side."""
    m = pchip_cases[case]
    t = m.t_nodes
    period = np.append(t, t[0] + 2 * np.pi)
    x = np.concatenate([period, (period[:-1] + period[1:]) / 2])
    x = np.concatenate([x + 2 * np.pi * j for j in range(-3, 4)])
    assert m.lift(t[0]) == m.lift_nodes[0]
    assert m.lift(t[0] + 2 * np.pi) == pytest.approx(m.lift_nodes[0] + m.total_increase,
                                                     abs=1e-13)
    assert np.max(np.abs(m.lift(x) - _padded_pchip_lift(m, x))) <= 1e-13


def test_runs_without_scipy():
    """With scipy blocked the package imports and verifies an identity, and
    no scipy module is loaded."""
    src = str(Path(fingerprint.__file__).parents[1])
    code = textwrap.dedent(f"""
        import sys
        sys.modules["scipy"] = None
        sys.path.insert(0, {src!r})
        import lemniscates
        from lemniscates.curves import unit_circle
        from lemniscates.fingerprint import identity_report
        from lemniscates.polynomials import Polynomial
        rep = identity_report(Polynomial([-0.1, 0, 1]), unit_circle(512), nodes=1024)
        loaded = [m for m in sys.modules if m.startswith("scipy") and sys.modules[m]]
        assert not loaded, loaded
        print(rep.residual)
    """)
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert float(r.stdout) <= 1e-4


@pytest.mark.parametrize("call, bad", [
    *((call, bad) for call in ("interior_map", "exterior_map", "riemann_maps")
      for bad in (0, -4, 2, True, 64.0)),
    *(("identity_report", bad) for bad in (0, -3, 2.5, True)),
])
def test_size_arguments_are_checked(call, bad):
    gamma = unit_circle(64)
    with pytest.raises(PreconditionError, match="must be an integer"):
        if call == "identity_report":
            identity_report(Polynomial([-0.1, 0, 1]), gamma, samples=bad)
        else:
            getattr(conformal, call)(gamma, nodes=bad)


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


def test_clockwise_base_curve_rejected(circle_T):
    p = Polynomial([-0.1, 0, 1])
    clockwise = circle_T.reversed()
    for check in (is_proper, is_proper_oracle, pseudo_lemniscate, identity_report):
        with pytest.raises(PreconditionError, match="positively oriented"):
            check(p, clockwise)


def test_self_crossing_base_curve_rejected():
    # a counterclockwise bow tie: its two lobes cross, so it bounds no Jordan domain
    bow_tie = SampledCurve([-1 - 0.5j, -1 + 0.5j, 2 - 2j, 2 + 2j], closed=True)
    assert bow_tie.orientation == 1 and not is_jordan(bow_tie)
    p = Polynomial([-0.1, 0, 1])
    for check in (is_proper, is_proper_oracle, pseudo_lemniscate):
        with pytest.raises(PreconditionError, match="Jordan"):
            check(p, bow_tie)


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
            assert direct == is_proper_oracle(p, gamma)


# (seed, polynomial index, curve) of the criterion-6 generator, curve 0 the
# circle and 1 the ellipse: improper pairs the flood-fill grid oracle called
# proper (the first six) or could not settle (the last two)
IMPROPER_PINNED = [
    (13, 19, 0), (13, 19, 1), (15, 14, 0), (15, 14, 1),
    (16, 9, 0), (17, 43, 0), (17, 43, 1), (20, 47, 0),
]


@pytest.mark.parametrize("seed, index, curve", IMPROPER_PINNED)
def test_oracle_pinned_improper_pairs(criterion6_poly, seed, index, curve):
    p = criterion6_poly(seed, index)
    gamma = [unit_circle(512), ellipse(1.0, 0.6, 512)][curve]
    assert is_proper(p, gamma) is False
    assert is_proper_oracle(p, gamma) is False


# (seed, polynomial index, curve, answer) of the criterion-6 generator, curve
# 0 the circle and 1 the ellipse: lap lifts whose fine steps, corrected from
# the coarse pass without the alpha certificate, landed on another branch,
# so that the lap ends were no permutation of the roots
ORACLE_BRANCH_PINNED = [
    (9, 33, 1, True), (10, 2, 1, True), (10, 41, 1, False),
    (12, 49, 0, False), (16, 26, 1, False), (20, 6, 0, False),
]


@pytest.mark.parametrize("seed, index, curve, answer", ORACLE_BRANCH_PINNED)
def test_oracle_pinned_branch_draws(criterion6_poly, seed, index, curve, answer):
    p = criterion6_poly(seed, index)
    assert is_proper_oracle(p, [unit_circle(512), ellipse(1.0, 0.6, 512)][curve]) is answer


def test_oracle_lap_grid_resolves_two_crowded_quartics(criterion6_poly):
    """Two criterion-6 quartics over the circle whose laps, at 64 steps per
    lap, landed on another root's lap, so that the lap ends were no
    permutation of the roots; at ORACLE_STEPS_PER_LAP the oracle answers and
    agrees with the critical-value test."""
    circle = unit_circle(512)
    improper, proper = criterion6_poly(3, 48), criterion6_poly(11, 10)
    assert is_proper(improper, circle) is is_proper_oracle(improper, circle) is False
    assert len(preimage_loops(improper, circle, ORACLE_STEPS_PER_LAP)) == 3
    assert is_proper(proper, circle) is is_proper_oracle(proper, circle) is True


def test_pseudo_lemniscate_samples_resolve_at_1024():
    """A quadratic over the ellipse whose pseudo-lemniscate (traced at the
    m = 2048 that identity_report takes at 2048 nodes) both maps resolve at
    1024 nodes. Samples corrected to two different goals, the coarse nodes
    to NEWTON_TOL and their neighbours to rounding, carry a comb of period
    _COARSE: it shows in the curve's Fourier coefficients beyond the first
    N/32 (5e-15 of max|z| against 2e-17), and it can lift the exterior
    density's tail past its bound at 1024, so that the map is solved at
    2048."""
    p = Polynomial.from_roots([0.41096216833021765 + 0.20085354572048494j,
                               0.31368823941776763 + 0.4778347822243175j],
                              leading=1.0918592102484836)
    lem = pseudo_lemniscate(p, ellipse(1.0, 0.6, 512), 2048).points
    n = lem.size
    coeffs = np.abs(np.fft.fft(lem)) / n
    assert coeffs[n // 32:n - n // 32 + 1].max() <= 1e-15 * np.abs(lem).max()
    dm, em = riemann_maps(SampledCurve(lem, closed=True), 2048)
    assert dm.solve_nodes == em.inner.solve_nodes == 1024


# Reference: the n-lap tracer the lap-monodromy routine replaced, kept
# verbatim (renamed, the curve checks inlined, and w0 the sample Gamma(0),
# as preimage_loops takes it) as an independent oracle.
def _n_lap_trace(p: Polynomial, gamma: SampledCurve, samples_per_lap: int):
    n = p.degree
    if n < 1:
        raise PreconditionError("polynomial must be nonconstant")
    if not gamma.closed or gamma.orientation != 1:
        raise PreconditionError("the base curve must be closed and positively oriented")
    gc = fourier_coeffs(gamma.points)
    m = samples_per_lap
    taus = (2 * np.pi / m) * np.arange(n * m + 1)

    def path(t):
        return trig_eval(gc, np.mod(t, 2 * np.pi))

    def dpath(t):
        return trig_eval_deriv(gc, np.mod(t, 2 * np.pi))

    w0 = complex(gamma.points[0])
    z0 = min(roots_flat(p - w0, tol=1e-8), key=lambda z: (z.real, z.imag))
    pts, _ = lift_path(p, path, dpath, z0, taus)
    tol = 1e-8 * (1.0 + np.max(np.abs(pts)))
    early = np.nonzero(np.abs(pts[m : n * m : m] - pts[0]) < tol)[0]
    if early.size:
        raise TraceError(
            f"curve closed after {early[0] + 1} of {n} laps; input is not proper"
        )
    if abs(pts[-1] - pts[0]) > tol:
        raise TraceError(
            f"curve did not close after {n} laps (gap {abs(pts[-1] - pts[0]):.3g})"
        )
    return pts[:-1], taus[:-1]


def _assert_matches_n_lap_trace(p, gamma, m):
    pts = pseudo_lemniscate(p, gamma, m).points
    ref_pts, _ = _n_lap_trace(p, gamma, m)
    assert np.max(np.abs(pts - ref_pts)) <= 1e-12


@pytest.mark.parametrize("p, curve", [
    *((zpow(n), 0) for n in (1, 2, 3, 4)),
    (Polynomial([-0.1, 0, 1]), 0),
    (Polynomial([0, -0.3, 0, 1]), 1),
])
def test_lap_arcs_match_n_lap_trace(p, curve):
    _assert_matches_n_lap_trace(p, [unit_circle(512), ellipse(1.0, 0.6, 512)][curve], 512)


@settings(max_examples=20)
@given(
    roots=st.lists(st.complex_numbers(max_magnitude=0.6), min_size=2, max_size=4),
    log_lead=st.floats(-0.5, 0.5),
    curve=st.sampled_from([0, 1]),
)
def test_lap_arcs_match_n_lap_trace_on_proper_draws(roots, log_lead, curve):
    p = Polynomial.from_roots(roots, leading=float(np.exp(log_lead)))
    gamma = [unit_circle(512), ellipse(1.0, 0.6, 512)][curve]
    try:
        proper = is_proper(p, gamma)
    except PreconditionError:  # a critical value on the curve
        proper = False
    assume(proper)
    _assert_matches_n_lap_trace(p, gamma, 128)


def test_preimage_loops_start_root_independent_of_m(circle_T):
    """z^3 - 0.3z - 1 has a conjugate pair of roots with equal real parts;
    the loop starts at the same one of them for every lap count."""
    p = Polynomial([0, -0.3, 0, 1])
    starts = {complex(levelcurves.preimage_loops(p, circle_T, m)[0][0])
              for m in (512, 682, 700, 1024, 2048)}
    assert len(starts) == 1


def test_pseudo_lemniscate_rejects_two_loops(circle_T, monkeypatch):
    """z^2 - 4 over T has two preimage loops; with the critical-value test
    fooled, the traced loop count still refuses the input."""
    monkeypatch.setattr(fingerprint, "is_proper", lambda p, gamma: True)
    with pytest.raises(TraceError, match="closed after 1 of 2 laps"):
        pseudo_lemniscate(Polynomial([-4, 0, 1]), circle_T, 128)


def test_lap_end_at_no_root_raises(circle_T, monkeypatch):
    def shifted_ends(*args):
        arcs, values = lift_path(*args)
        arcs[:, -1] += 1e-3
        return arcs, values

    monkeypatch.setattr(levelcurves, "lift_path", shifted_ends)
    with pytest.raises(TraceError, match="of 0 roots"):
        is_proper_oracle(Polynomial([-0.1, 0, 1]), circle_T)


def test_lap_end_at_two_roots_raises(circle_T, monkeypatch):
    def stray_sample(*args):
        arcs, values = lift_path(*args)
        arcs[0, 1] = 1e9  # widens the end tolerance past the root spacing
        return arcs, values

    monkeypatch.setattr(levelcurves, "lift_path", stray_sample)
    with pytest.raises(TraceError, match="of 2 roots"):
        is_proper_oracle(Polynomial([-0.1, 0, 1]), circle_T)


def test_blaschke_model_zn(circle_T):
    for n in (1, 2, 3):
        b = identity_report(zpow(n), circle_T, nodes=256).blaschke
        assert b.degree == n
        assert np.max(np.abs(b.zeros)) < 1e-9
        assert b.rotation == pytest.approx(1.0, abs=1e-9)


def test_blaschke_model_scaled_identity(circle_T):
    b = identity_report(Polynomial([0, 2.0]), circle_T, nodes=256).blaschke
    assert b.degree == 1
    assert abs(b.zeros[0]) < 1e-9
    assert b.rotation == pytest.approx(1.0, abs=1e-9)


def test_blaschke_model_closed_form(circle_T):
    """For z^2 - 0.1 over the unit circle the interior map of the preimage
    region is w*sqrt(0.99)/sqrt(1-0.1 w^2), so the Blaschke zeros are exactly
    +-sqrt(0.1) with rotation 1."""
    b = identity_report(Polynomial([-0.1, 0, 1]), circle_T, nodes=512).blaschke
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


def test_fingerprint_of_curve_on_pseudolemniscates(circle_T, ellipse_E):
    k = fingerprint_of_curve(pseudo_lemniscate(zpow(2), circle_T, 256), nodes=256)
    t = np.linspace(0, 2 * np.pi, 65)
    assert np.max(np.abs(k.lift(t) - t)) < 1e-10  # the curve is the circle
    k2 = fingerprint_of_curve(pseudo_lemniscate(Polynomial([0, 1]), ellipse_E, 512), nodes=256)
    kg = fingerprint_of_curve(ellipse_E, nodes=256)
    # identity polynomial: same fingerprint as the base curve
    assert np.max(np.abs(k2.lift(t) - kg.lift(t))) < 1e-6


def test_verify_identity_exact_cases(circle_T):
    for n in (1, 2, 3, 4):
        res = identity_report(zpow(n), circle_T, samples=256, nodes=256).residual
        assert res <= 1e-10


def test_verify_identity_thm4_instance(circle_T):
    res = identity_report(Polynomial([-0.1, 0, 1]), circle_T, samples=512, nodes=1024).residual
    assert res <= 1e-4


def test_verify_identity_thm5_instance(ellipse_E):
    res = identity_report(Polynomial([0, -0.3, 0, 1]), ellipse_E, samples=512, nodes=1024).residual
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
    assert identity_report(p, ellipse_E, samples=512, nodes=1024).residual <= 1e-4


def test_verify_identity_requires_positive_leading(circle_T):
    with pytest.raises(PreconditionError):
        identity_report(Polynomial([-0.1, 0, -1]), circle_T)


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
    r1 = identity_report(p, circle_T, samples=256, nodes=512).residual
    rolled = SampledCurve(np.roll(circle_T.points, 37), closed=True)
    r2 = identity_report(p, rolled, samples=256, nodes=512).residual
    assert abs(r1 - r2) < 1e-8


def test_identity_report_monotone_fingerprints(circle_T):
    rep = identity_report(Polynomial([-0.1, 0, 1]), circle_T, samples=256, nodes=512)
    rep.k_p.check_monotone()
    rep.k_gamma.check_monotone()
    assert rep.k_p.total_increase == pytest.approx(2 * np.pi)
    assert rep.k_gamma.total_increase == pytest.approx(2 * np.pi)


def test_identity_report_crowded_pseudo_lemniscate():
    """A proper cubic whose pseudo-lemniscate nearly pinches: at 2048 nodes the
    crowded interior map's correspondence is not resolved, and the solve raises
    instead of returning a non-monotone fingerprint. The linear solve converges
    here; the limit is the discretisation (ROADMAP item 4)."""
    p = Polynomial([-0.319428 - 0.508323j, -0.517153 - 0.255875j,
                    0.811032 + 0.474064j, 0.825615])
    with pytest.raises(SolverError, match="boundary correspondence is not strictly increasing"):
        identity_report(p, ellipse(1.0, 0.6, 512), nodes=2048)
