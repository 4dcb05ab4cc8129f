import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lemniscates import conformal
from lemniscates._fourier import trig_diff
from lemniscates.conformal import ExteriorMap, exterior_map, interior_map, riemann_maps
from lemniscates.curves import SampledCurve, ellipse, unit_circle
from lemniscates.errors import PreconditionError, SolverError
from lemniscates.fingerprint import pseudo_lemniscate
from lemniscates.polynomials import Polynomial

TH64 = np.linspace(0, 2 * np.pi, 64, endpoint=False)


def mobius(w):
    """Closed-form map of the unit disk onto |z - 0.3| < 1 with phi(0)=0,
    phi'(0) = 0.91 > 0."""
    return 0.3 + (w - 0.3) / (1 - 0.3 * w)


def mobius_inv(z):
    return z / (0.91 + 0.3 * z)


def test_identity_map():
    dm = interior_map(unit_circle(256), nodes=256)
    assert dm.center_derivative == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(dm.boundary_forward(TH64) - np.exp(1j * TH64))) < 1e-12


def test_scaled_circle():
    dm = interior_map(unit_circle(256, radius=2.0), nodes=256)
    assert dm.center_derivative == pytest.approx(2.0, abs=1e-12)
    assert dm.boundary_forward(0.0) == pytest.approx(2.0, abs=1e-12)
    assert dm.interior_eval(0.5) == pytest.approx(1.0, abs=1e-12)
    assert dm.interior_inverse(1.0) == pytest.approx(0.5, abs=1e-12)


def test_mobius_oracle_boundary():
    dm = interior_map(unit_circle(512, center=0.3), nodes=512)
    assert dm.center_derivative == pytest.approx(0.91, abs=1e-9)
    err = np.abs(dm.boundary_forward(TH64) - mobius(np.exp(1j * TH64)))
    assert err.max() < 1e-6


def test_mobius_oracle_interior(rng):
    dm = interior_map(unit_circle(512, center=0.3), nodes=512)
    w = 0.9 * np.sqrt(rng.uniform(0, 1, 100)) * np.exp(2j * np.pi * rng.uniform(0, 1, 100))
    assert np.max(np.abs(dm.interior_eval(w) - mobius(w))) < 1e-6
    z = mobius(w)
    assert np.max(np.abs(dm.interior_inverse(z) - w)) < 1e-6


def test_interior_roundtrip(rng):
    dm = interior_map(ellipse(1.0, 0.6, 512), nodes=512)
    w = 0.8 * np.sqrt(rng.uniform(0, 1, 100)) * np.exp(2j * np.pi * rng.uniform(0, 1, 100))
    z = dm.interior_eval(w)
    assert np.max(np.abs(dm.interior_inverse(z) - w)) <= 1e-7


def test_interior_inverse_refuses_points_outside():
    # the ellipse reaches 0.6i; at 0.7i, outside it, |f| is still below 1
    dm = interior_map(ellipse(1.0, 0.6, 256), nodes=256)
    with pytest.raises(PreconditionError, match="not strictly inside"):
        dm.interior_inverse(0.7j)
    with pytest.raises(PreconditionError):
        dm.interior_inverse(np.array([0.3j, 0.7j]))
    w = dm.interior_inverse(0.3j)
    assert abs(dm.interior_eval(w) - 0.3j) <= 1e-10


def test_interior_eval_margin():
    dm = interior_map(unit_circle(128), nodes=128)
    with pytest.raises(PreconditionError):
        dm.interior_eval(0.999)


def test_origin_must_be_inside():
    curve = unit_circle(128, center=5.0)
    for solve in (interior_map, exterior_map):
        for kwargs in ({"nodes": 128}, {}):
            with pytest.raises(PreconditionError, match="origin must lie inside"):
                solve(curve, **kwargs)


def test_correspondence_strictly_increasing():
    for curve in (unit_circle(256, center=0.3), ellipse(1.0, 0.6, 256)):
        dm = interior_map(curve, nodes=256)
        assert np.all(np.diff(dm.theta) > 0)
        em = exterior_map(curve, nodes=256)
        assert np.all(np.diff(em.theta) > 0)


def test_exterior_circle():
    em = exterior_map(unit_circle(256, radius=3.0), nodes=256)
    assert em.a == pytest.approx(3.0, abs=1e-10)
    assert np.max(np.abs(em.boundary_forward(TH64) - 3 * np.exp(1j * TH64))) < 1e-10
    em1 = exterior_map(unit_circle(256), nodes=256)
    assert em1.a == pytest.approx(1.0, abs=1e-12)


def _warped_exterior(s):
    """phi_plus(zeta) = zeta + 0.2/zeta + 0.05i/zeta^2, univalent on |zeta| > 1
    since sum k|b_k| = 0.3 <= 1, with a = 1."""
    return s + 0.2 / s + 0.05j / s**2


def _warp(t):
    """The circle angle s(t) of the warped curve's node t: not affine in t,
    so the exterior correspondence is not a shift of the node index."""
    return t + 0.3 * np.sin(t + 0.7)


def _warped_curve(n=512):
    t = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    return SampledCurve(_warped_exterior(np.exp(1j * _warp(t))), closed=True)


@pytest.mark.parametrize("nodes", [512, 1024])
def test_exterior_warped_closed_form(nodes):
    em = exterior_map(_warped_curve(), nodes=nodes)
    t = np.linspace(0.0, 2 * np.pi, nodes, endpoint=False)
    assert np.max(np.abs(np.angle(np.exp(1j * (em.theta - _warp(t)))))) <= 1e-10
    assert em.a == pytest.approx(1.0, abs=1e-10)
    zeta = 1.5 * np.exp(1j * TH64)
    assert np.max(np.abs(em.exterior_eval(zeta) - _warped_exterior(zeta))) <= 1e-10


def test_exterior_map_refuses_the_origin():
    em = exterior_map(ellipse(1.0, 0.6, 256), nodes=256)
    for zeta in (0, np.array([2.0, 0.0]), 1.01):
        with pytest.raises(PreconditionError):
            em.exterior_eval(zeta)


def test_exterior_ellipse_joukowski():
    em = exterior_map(ellipse(1.0, 0.6, 512), nodes=512)
    assert em.a == pytest.approx(0.8, abs=1e-4)
    target = 0.8 * np.exp(1j * TH64) + 0.2 * np.exp(-1j * TH64)
    assert np.max(np.abs(em.boundary_forward(TH64) - target)) < 1e-6
    # exterior evaluation vs the closed form at |zeta| = 2
    zeta = 2.0 * np.exp(1j * TH64)
    expect = 0.8 * zeta + 0.2 / zeta
    assert np.max(np.abs(em.exterior_eval(zeta) - expect)) < 1e-6


def test_default_nodes_exterior_ellipse():
    em = exterior_map(ellipse(1.0, 0.6, 512))
    assert em.nodes == 1024
    assert em.a == pytest.approx(0.8, abs=1e-10)
    target = 0.8 * np.exp(1j * TH64) + 0.2 * np.exp(-1j * TH64)
    assert np.max(np.abs(em.boundary_forward(TH64) - target)) < 1e-10
    fixed = exterior_map(ellipse(1.0, 0.6, 512), nodes=1024)
    assert np.array_equal(em.theta, fixed.theta)


def test_theta_start_stable_under_rounding():
    """On a curve symmetric about the real axis the lifts start at 0 up to
    rounding; perturbing the points by about 1e-15 must not move the start
    by 2 pi."""
    c = unit_circle(512, center=0.3)
    rng = np.random.default_rng(7)
    for scale in (0.0, 1e-15, 1e-15, 1e-15):
        noise = scale * (rng.standard_normal(512) + 1j * rng.standard_normal(512))
        curve = SampledCurve(c.points + noise, closed=True)
        assert abs(interior_map(curve, nodes=1024).theta[0]) <= 1e-9
        assert abs(exterior_map(curve, nodes=1024).theta[0]) <= 1e-9


def test_node_doubling_self_consistency():
    probe = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    for curve in (unit_circle(1024, center=0.3), ellipse(1.0, 0.6, 1024)):
        a = interior_map(curve, nodes=256).boundary_forward(probe)
        b = interior_map(curve, nodes=512).boundary_forward(probe)
        assert np.max(np.abs(a - b)) <= 1e-6


def test_default_node_count():
    dm = interior_map(unit_circle(1024, center=0.3))
    assert dm.nodes == 1024
    assert dm.center_derivative == pytest.approx(0.91, abs=1e-8)


def test_mobius_composition_invariance(rng):
    # conformal invariance: map the off-center disk, compose with the
    # closed-form inverse, recover the identity on the circle
    dm = interior_map(unit_circle(512, center=0.3), nodes=512)
    th = rng.uniform(0, 2 * np.pi, 50)
    pts = dm.boundary_forward(th)
    assert np.max(np.abs(mobius_inv(pts) - np.exp(1j * th))) < 1e-6


def test_solved_map_roundtrip_serialization(tmp_path):
    import json

    from lemniscates.io import solved_map_from_dict, solved_map_to_dict

    dm = interior_map(unit_circle(256, center=0.3), nodes=256)
    d = json.loads(json.dumps(solved_map_to_dict(dm)))
    dm2 = solved_map_from_dict(d)
    assert np.max(np.abs(dm2.boundary_forward(TH64) - dm.boundary_forward(TH64))) < 1e-12
    # the file carries the density, so the reloaded map inverts bit for bit
    z = dm.interior_eval(0.9 * np.exp(1j * TH64))
    assert np.array_equal(dm2.interior_inverse(z), dm.interior_inverse(z))
    # the solve's resolution is not written
    assert dm.solve_nodes == 128 and "solve_nodes" not in d and dm2.solve_nodes is None


def test_exterior_map_roundtrip_serialization():
    import json

    from lemniscates.io import solved_map_from_dict, solved_map_to_dict

    em = exterior_map(ellipse(1.0, 0.6, 512), nodes=512)
    em2 = solved_map_from_dict(json.loads(json.dumps(solved_map_to_dict(em))))
    assert isinstance(em2, ExteriorMap)
    assert np.max(np.abs(em2.boundary_forward(TH64) - em.boundary_forward(TH64))) <= 1e-12
    zeta = 1.5 * np.exp(1j * TH64)
    assert np.max(np.abs(em2.exterior_eval(zeta) - em.exterior_eval(zeta))) <= 1e-10


def _dense_system(points):
    """The Neumann-kernel system (I + wK, h) of the curve, built densely."""
    n = points.size
    dg = trig_diff(points)
    diff = points[None, :] - points[:, None]
    np.fill_diagonal(diff, 1.0)
    kern = np.imag(dg[None, :] / diff) / np.pi
    np.fill_diagonal(kern, np.imag(trig_diff(dg) / (2.0 * dg)) / np.pi)
    return np.eye(n) + kern * (2 * np.pi / n), -np.log(np.abs(points))


def _dense_solve(points):
    """Reference solve: the Neumann-kernel system I + wK by dense LU, and the
    boundary correspondence from a separately built singularity-subtracted
    Cauchy matrix; returns (mu, theta)."""
    n = points.size
    w = 2 * np.pi / n
    dg = trig_diff(points)
    diff = points[None, :] - points[:, None]
    np.fill_diagonal(diff, 1.0)
    mu = np.linalg.solve(*_dense_system(points))
    mat = (mu[None, :] - mu[:, None]) * dg[None, :] / diff
    np.fill_diagonal(mat, np.real(trig_diff(mu)))
    g_b = mat.sum(axis=1) * w / (1j * np.pi) + 2.0 * mu
    g0 = (mu * dg / points).sum() * w / (1j * np.pi)
    return mu, np.unwrap(np.angle(points)) + np.imag(g_b) - g0.imag


_QUARTIC = Polynomial.from_roots(np.array([0.4, -0.4, 0.35j, -0.1 - 0.3j]), leading=1.5)
_ORACLE_CURVES = {
    "ellipse": lambda: ellipse(1.0, 0.6, 512),
    "off-centre circle": lambda: unit_circle(512, center=0.3),
    "quartic pseudo-lemniscate": lambda: pseudo_lemniscate(_QUARTIC, unit_circle(512), 1024),
}


@pytest.mark.parametrize("nodes", [1024, 2048])
@pytest.mark.parametrize("name", list(_ORACLE_CURVES))
def test_gmres_solve_matches_dense_lu(name, nodes):
    points = conformal._resampled_points(_ORACLE_CURVES[name](), nodes)
    dm = conformal._solve_pair(points, wanted=(True, False))[0]
    mu, theta = _dense_solve(points)
    assert np.max(np.abs(dm.mu - mu)) <= 1e-12
    # theta is normalized to start in [-1e-9, 2 pi - 1e-9): compare modulo 2 pi
    assert np.max(np.abs(np.angle(np.exp(1j * (dm.theta - theta))))) <= 1e-12


def _solve_exterior(points):
    """Reference exterior solve, independent of ExteriorMap: the interior map
    of the reversed reflection 1/gamma_{-k}, from its own Cauchy matrix, with
    its correspondence negated, reversed and lifted back to the curve's node
    order. Returns (theta, a)."""
    n = points.size
    order = (-np.arange(n)) % n
    inner = conformal._solve_pair(1.0 / points[order], wanted=(True, False))[0]
    raw = -inner.theta[order]
    start = raw[0] - 2 * np.pi * np.floor((raw[0] + 1e-9) / (2 * np.pi))
    theta = start + np.concatenate([[0.0], np.cumsum(np.mod(np.diff(raw), 2 * np.pi))])
    assert theta[-1] < start + 2 * np.pi
    return theta, 1.0 / inner.center_derivative


def _gmres_edge_quartic():
    """The traced quartic pseudo-lemniscate whose reflection solve needs a
    second GMRES cycle (test_gmres_true_residual_just_above_rtol_is_finished)."""
    p = Polynomial([
        -0.008397275803812963 - 0.0060303012633803384j,
        -0.0010675538742815523 + 0.04695791998193767j,
        0.21071742001482985 + 0.02503992073412329j,
        0.5122364728399919 - 0.2739373201120606j,
        0.6996842523629684,
    ])
    return pseudo_lemniscate(p, ellipse(1.0, 0.6, 512), 1024)


_REFLECTION_CURVES = {
    **_ORACLE_CURVES, "gmres edge quartic": _gmres_edge_quartic, "warped": _warped_curve,
}


@pytest.mark.parametrize("name, nodes", [
    ("off-centre circle", 512), ("off-centre circle", 2048),
    ("ellipse", 512), ("ellipse", 2048),
    ("gmres edge quartic", 2048),
    ("warped", 512), ("warped", 2048),
])
def test_riemann_maps_match_reflection_solve(name, nodes):
    curve = _REFLECTION_CURVES[name]()
    dm, em = riemann_maps(curve, nodes)
    theta, a = _solve_exterior(conformal._resampled_points(curve, nodes))
    assert em.nodes == nodes
    assert np.max(np.abs(em.theta - theta)) <= 1e-12
    assert em.a == pytest.approx(a, abs=1e-12)
    alone = interior_map(curve, nodes)
    assert np.array_equal(dm.theta, alone.theta)
    assert np.array_equal(dm.mu, alone.mu)
    assert dm.center_derivative == alone.center_derivative


@pytest.mark.parametrize("nodes", [512, 1024, 2048])
@pytest.mark.parametrize("name", ["off-centre circle", "ellipse", "gmres edge quartic", "warped"])
def test_riemann_maps_match_full_solve(name, nodes):
    """The maps from the resolution loop against the direct solve at `nodes`."""
    curve = _REFLECTION_CURVES[name]()
    dm, em = riemann_maps(curve, nodes)
    full_dm, full_em = conformal._solve_pair(conformal._resampled_points(curve, nodes))
    for loop, direct in ((dm, full_dm), (em.inner, full_em.inner)):
        assert loop.nodes == nodes
        assert np.max(np.abs(loop.theta - direct.theta)) <= 1e-12
        assert loop.center_derivative == pytest.approx(direct.center_derivative, abs=1e-12)
    assert np.array_equal(exterior_map(curve, nodes).theta, em.theta)


def test_resolved_curve_is_solved_at_64_nodes():
    dm, em = riemann_maps(unit_circle(512), 2048)
    assert dm.solve_nodes == em.inner.solve_nodes == 64
    assert dm.nodes == em.nodes == 2048


def test_riemann_maps_build_each_map_once(monkeypatch):
    """The ellipse is solved at 256 of 2048 nodes, and each of its maps is
    built once, on all 2048 nodes, from the solve's arrays."""
    built = []
    real = conformal.DiskMap.__init__

    def counting(self, points, *args):
        built.append(np.size(points))
        real(self, points, *args)

    monkeypatch.setattr(conformal.DiskMap, "__init__", counting)
    dm, em = riemann_maps(ellipse(1.0, 0.6, 512), 2048)
    assert built == [2048, 2048]
    assert dm.solve_nodes == em.inner.solve_nodes == 256


def _high_mode_curve(n):
    """The unit circle plus a 1e-6 mode at frequency 400, at n samples."""
    t = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    return SampledCurve(np.exp(1j * t) + 1e-6 * np.exp(400j * t), closed=True)


def test_high_mode_is_not_solved_at_512_nodes(monkeypatch):
    """A 1e-6 mode at frequency 400 is dropped by resampling to 512 nodes,
    so the loop builds no kernels there."""
    curve = _high_mode_curve(2048)
    sizes = []
    real = conformal._kernels

    def counting(points, dg):
        sizes.append(points.size)
        return real(points, dg)

    monkeypatch.setattr(conformal, "_kernels", counting)
    dm, em = riemann_maps(curve, 2048)
    assert dm.solve_nodes > 512 and em.inner.solve_nodes > 512
    assert sizes and 512 not in sizes
    full = conformal._solve_pair(conformal._resampled_points(curve, 2048))
    assert np.max(np.abs(dm.theta - full[0].theta)) <= 1e-12
    assert np.max(np.abs(em.theta - full[1].theta)) <= 1e-12


def test_solver_error_below_nodes_doubles(monkeypatch):
    """A GMRES failure at the first resolution tried (256 nodes for the
    ellipse, see test_riemann_maps_build_each_map_once) is read as
    unresolved: the loop doubles and takes the maps that _solve_pair gives
    at 512."""
    real = conformal._gmres

    def failing_at_256(a, b, x0=None):
        return (0.5 * b, 1) if b.size == 256 else real(a, b, x0)

    curve = ellipse(1.0, 0.6, 512)
    at_512 = conformal._solve_pair(conformal._resampled_points(curve, 1024), 512)
    monkeypatch.setattr(conformal, "_gmres", failing_at_256)
    dm, em = riemann_maps(curve, 1024)
    assert dm.solve_nodes == em.inner.solve_nodes == 512
    assert np.array_equal(dm.theta, at_512[0].theta) and np.array_equal(em.theta, at_512[1].theta)


_PREDICTED_CURVES = {
    "unit circle": lambda: unit_circle(512),
    "ellipse": _ORACLE_CURVES["ellipse"],
    "quartic pseudo-lemniscate": _ORACLE_CURVES["quartic pseudo-lemniscate"],
    "mode 400": lambda: _high_mode_curve(2048),
}


@pytest.mark.parametrize("name", list(_PREDICTED_CURVES))
def test_predicted_resolution_wastes_no_solve(monkeypatch, name):
    """riemann_maps builds kernels once, at the first k from 64 where the
    curve is resolved (its coefficients at |j| >= k/2 at most 1e-13 max|curve|)
    and _solve_pair alone gives both maps: the tail of -log|curve| predicts
    that k, so no solve is refused."""
    n = 2048
    points = conformal._resampled_points(_PREDICTED_CURVES[name](), n)
    coeffs = np.abs(np.fft.fft(points)) / n
    k = 64
    while k < n and (np.max(coeffs[k // 2:n - k // 2 + 1]) > 1e-13 * np.max(np.abs(points))
                     or None in conformal._solve_pair(points, k)):
        k *= 2
    sizes = []
    real = conformal._kernels

    def counting(pts, dg):
        sizes.append(pts.size)
        return real(pts, dg)

    monkeypatch.setattr(conformal, "_kernels", counting)
    dm, em = riemann_maps(_PREDICTED_CURVES[name](), n)
    assert sizes == [dm.solve_nodes] == [em.inner.solve_nodes] == [k]


def test_riemann_maps_check_jordan_once_per_resolution(monkeypatch):
    calls = []
    real = conformal.is_jordan

    def counting(curve, **kwargs):
        calls.append(curve.points.size)
        return real(curve, **kwargs)

    monkeypatch.setattr(conformal, "is_jordan", counting)
    riemann_maps(ellipse(1.0, 0.6, 512))
    assert calls == [1024]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_map_evaluators_refuse_non_finite_arguments(bad):
    """Each evaluator refuses a non-finite argument, alone or next to a good
    one, with PreconditionError, not a NaN and a RuntimeWarning."""
    dm, em = riemann_maps(ellipse(1.0, 0.6, 256), 256)
    for evaluate, good in ((dm.boundary_forward, 0.5), (dm.interior_eval, 0.5),
                           (dm.interior_inverse, 0.1), (em.boundary_forward, 0.5),
                           (em.exterior_eval, 2.0)):
        evaluate(good)
        for arg in (bad, np.array([good, bad])):
            with pytest.raises(PreconditionError):
                evaluate(arg)


@pytest.mark.parametrize("iterate, iterations, message", [
    ("stagnated", 100, r"200 iterations, residual 1$"),
    ("wrong", 1, r"2 iterations, residual 0\.[1-9]\d*$"),
], ids=["stagnated", "wrong"])
def test_gmres_failure_raises(monkeypatch, iterate, iterations, message):
    """_solve_on checks the iterate by its true residual, whatever the
    iteration count claims: the zero iterate of a GMRES that stagnated at its
    cap, and a wrong one returned as if converged in one iteration, both
    raise SolverError after the one extra cycle, naming the iterations of
    both cycles and the residual."""
    def fake_gmres(a, b, x0=None):
        return (np.zeros(b.size) if iterate == "stagnated" else 0.5 * b), iterations

    monkeypatch.setattr(conformal, "_gmres", fake_gmres)
    with pytest.raises(SolverError, match="GMRES failed: " + message):
        interior_map(ellipse(1.0, 0.6, 256), nodes=256)


@pytest.mark.parametrize("name", ["ellipse", "quartic pseudo-lemniscate"])
def test_gmres_matches_dense_solve(name):
    """_gmres on the I + wK system at 256 nodes against LU: the same x, in at
    most 30 iterations, and none from the exact solution."""
    a, b = _dense_system(conformal._resampled_points(_ORACLE_CURVES[name](), 256))
    exact = np.linalg.solve(a, b)
    x, its = conformal._gmres(a, b)
    assert np.max(np.abs(x - exact)) <= 1e-12
    assert 0 < its <= 30
    x, its = conformal._gmres(a, b, exact)
    assert its == 0 and np.array_equal(x, exact)


def test_gmres_stops_at_its_basis_cap():
    """On the cyclic shift with b = e_0 GMRES makes no progress until the
    Krylov space is whole (n steps): at n = 256 it stops at its 100-column
    cap with the residual unreduced."""
    n = 256
    shift = np.roll(np.eye(n), 1, axis=0)
    b = np.zeros(n)
    b[0] = 1.0
    x, its = conformal._gmres(shift, b)
    assert its == conformal._KRYLOV_COLUMNS == 100
    assert np.linalg.norm(b - shift @ x) == pytest.approx(1.0, abs=1e-12)


def test_gmres_true_residual_just_above_rtol_is_finished():
    """The reflection solve of this traced quartic pseudo-lemniscate at 2048
    nodes, on its own kernels: the first GMRES cycle's estimate meets rtol
    after 15 iterations while the recomputed residual reads about 1.00e-14
    (on x86-64 with OpenBLAS on one thread); a second cycle then finishes the
    solve instead of raising SolverError. The exterior map, solved on the
    curve's two real kernels rescaled in place, is checked on the same curve."""
    lem = _gmres_edge_quartic()
    theta, _ = _solve_exterior(conformal._resampled_points(lem, 2048))
    assert np.all(np.diff(theta) > 0)
    em = exterior_map(lem, nodes=2048)
    assert np.all(np.diff(em.theta) > 0)


def _dense_cauchy(points, dg):
    """C[s, t] = gamma'_t / (gamma_t - gamma_s), 0 on the diagonal."""
    diff = points[None, :] - points[:, None]
    np.fill_diagonal(diff, 1.0)
    dense = dg[None, :] / diff
    np.fill_diagonal(dense, 0.0)
    return dense


def test_kernels_and_rescale_match_dense_cauchy_matrix():
    """_kernels against the dense complex Cauchy matrix of the curve, and the
    curve's kernels after _rescale against the dense Cauchy matrix of the
    reflected curve rho = conj(1/gamma), built from rho's own points and
    trig_diff(rho), at a node count that leaves a partial last block of rows."""
    n = 3 * conformal._BLOCK_ROWS + 5
    points = _warped_curve(n).points
    dg = trig_diff(points)
    dense = _dense_cauchy(points, dg)
    im, re = conformal._kernels(points, dg)
    scale = np.max(np.abs(dense))
    assert np.max(np.abs(im - (2.0 / n) * dense.imag)) <= 1e-14 * (2.0 / n) * scale
    assert np.max(np.abs(re - dense.real)) <= 1e-14 * scale

    rho = np.conj(1.0 / points)
    dr = trig_diff(rho)
    conformal._rescale(im, re, -points, np.conj(dr) * points / dg)
    reflected = _dense_cauchy(rho, dr)
    scale = np.max(np.abs(reflected))
    assert np.max(np.abs(im - (2.0 / n) * reflected.imag)) <= 1e-14 * (2.0 / n) * scale
    assert np.max(np.abs(re - reflected.real)) <= 1e-14 * scale
    assert not np.any(np.diag(im)) and not np.any(np.diag(re))


def test_riemann_maps_peak_memory():
    """One Riemann-map pair holds two real n x n kernels, 2 * 8n^2 bytes, and
    GMRES adds a basis of at most 100 columns of n; a complex n x n Cauchy
    matrix would add 2 * 8n^2 more, and a restart = n GMRES workspace about
    as much again. The curve's mode at frequency 400 keeps the solve at all
    n nodes."""
    n = 1024
    curve = _high_mode_curve(n)
    assert riemann_maps(curve, n)[0].solve_nodes == n  # imports and caches outside the traced call
    tracemalloc.start()
    try:
        riemann_maps(curve, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 8 * n * n


@settings(max_examples=15)
@given(c=st.complex_numbers(max_magnitude=0.5))
def test_mobius_covariance(c):
    """The disk |z - c| < 1 around 0 has the closed-form Riemann map
    phi(w) = c + (w - c) / (1 - conj(c) w), with phi'(0) = 1 - |c|^2."""
    def phi(w):
        return c + (w - c) / (1 - np.conj(c) * w)

    dm = interior_map(unit_circle(512, center=c), nodes=512)
    assert dm.center_derivative == pytest.approx(1 - abs(c) ** 2, abs=1e-9)
    assert np.max(np.abs(dm.boundary_forward(TH64) - phi(np.exp(1j * TH64)))) <= 1e-6
    w = (np.linspace(0.0, 0.9, 4)[:, None] * np.exp(1j * TH64[::4])).ravel()
    assert np.max(np.abs(dm.interior_eval(w) - phi(w))) <= 1e-6
