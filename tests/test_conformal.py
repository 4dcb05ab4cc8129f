import numpy as np
import pytest

from lemniscates.conformal import exterior_map, interior_map

from lemniscates.curves import ellipse, unit_circle
from lemniscates.errors import PreconditionError

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


def test_boundary_inverse_roundtrip():
    dm = interior_map(unit_circle(512, center=0.3), nodes=512)
    for th in TH64[::8]:
        pt = dm.boundary_forward(float(th))
        back = dm.boundary_inverse(pt)
        gap = abs((back - th + np.pi) % (2 * np.pi) - np.pi)
        assert gap <= 1e-8


def test_interior_roundtrip(rng):
    dm = interior_map(ellipse(1.0, 0.6, 512), nodes=512)
    w = 0.8 * np.sqrt(rng.uniform(0, 1, 100)) * np.exp(2j * np.pi * rng.uniform(0, 1, 100))
    z = dm.interior_eval(w)
    assert np.max(np.abs(dm.interior_inverse(z) - w)) <= 1e-7


def test_interior_eval_margin():
    dm = interior_map(unit_circle(128), nodes=128)
    with pytest.raises(PreconditionError):
        dm.interior_eval(0.999)


def test_off_curve_point_rejected():
    dm = interior_map(unit_circle(256), nodes=256)
    with pytest.raises(PreconditionError):
        dm.boundary_inverse(1.5 + 0.5j)


def test_origin_must_be_inside():
    curve = unit_circle(128, center=5.0)
    for solve in (interior_map, exterior_map):
        for nodes in (128, None):
            with pytest.raises(PreconditionError, match="origin must lie inside"):
                solve(curve, nodes=nodes)


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


def test_exterior_ellipse_joukowski():
    em = exterior_map(ellipse(1.0, 0.6, 512), nodes=512)
    assert em.a == pytest.approx(0.8, abs=1e-4)
    target = 0.8 * np.exp(1j * TH64) + 0.2 * np.exp(-1j * TH64)
    assert np.max(np.abs(em.boundary_forward(TH64) - target)) < 1e-6
    # exterior evaluation vs the closed form at |zeta| = 2
    zeta = 2.0 * np.exp(1j * TH64)
    expect = 0.8 * zeta + 0.2 / zeta
    assert np.max(np.abs(em.exterior_eval(zeta) - expect)) < 1e-6


def test_adaptive_exterior_ellipse():
    em = exterior_map(ellipse(1.0, 0.6, 512))
    assert em.nodes == 1024  # one doubling from the 512 default settles
    assert em.a == pytest.approx(0.8, abs=1e-10)
    target = 0.8 * np.exp(1j * TH64) + 0.2 * np.exp(-1j * TH64)
    assert np.max(np.abs(em.boundary_forward(TH64) - target)) < 1e-10
    fixed = exterior_map(ellipse(1.0, 0.6, 512), nodes=1024)
    assert np.array_equal(em.theta, fixed.theta)


def test_node_doubling_self_consistency():
    probe = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    for curve in (unit_circle(1024, center=0.3), ellipse(1.0, 0.6, 1024)):
        a = interior_map(curve, nodes=256).boundary_forward(probe)
        b = interior_map(curve, nodes=512).boundary_forward(probe)
        assert np.max(np.abs(a - b)) <= 1e-6


def test_adaptive_node_selection():
    dm = interior_map(unit_circle(1024, center=0.3))
    assert dm.nodes == 1024  # one doubling from the 512 default settles
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
    # cache-loaded maps invert through Newton on the evaluator
    z = dm.interior_eval(0.4 + 0.1j)
    assert dm2.interior_inverse(z) == pytest.approx(0.4 + 0.1j, abs=1e-8)
