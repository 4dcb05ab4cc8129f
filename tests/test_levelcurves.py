import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lemniscates.curves import SampledCurve, count_preimages, winding_number
from lemniscates.errors import PreconditionError, TraceError
from lemniscates.levelcurves import (
    LEVEL_INVARIANT_TOL,
    ArgChangeReaches,
    ClosedLoop,
    HitsGradient,
    arg_change_along,
    level_component_enclosing,
    lift_path,
    solve_target,
    trace_gradient,
    trace_level,
)
from lemniscates.polynomials import Polynomial, RationalMap, critical_values

F4 = RationalMap(Polynomial([0, 0, 3, 4, 1]))
Z = RationalMap(Polynomial([0, 1]))
PI6 = np.pi / 6


def _v5():
    """Vertex on {|f4|=8} with arg f4 = pi/2, found from a coarse grid seed."""
    gr = (np.linspace(-4, 2, 60)[None, :] + 1j * np.linspace(-3, 3, 60)[:, None]).ravel()
    vals = F4(gr)
    seed = gr[int(np.argmin(np.abs(vals - 8j)))]
    return solve_target(F4, 8j, seed)


def test_solve_target_examples():
    sq = RationalMap(Polynomial([0, 0, 1]))
    assert solve_target(sq, 4.0, 1.9) == pytest.approx(2.0, abs=1e-9)
    assert solve_target(Z, 0.7 + 0.1j, 0.5) == pytest.approx(0.7 + 0.1j, abs=1e-12)
    v5 = _v5()
    assert abs(F4(v5)) == pytest.approx(8.0, abs=1e-10)
    assert np.angle(F4(v5)) == pytest.approx(np.pi / 2, abs=1e-10)


def test_solve_target_critical_point_failure():
    sq = RationalMap(Polynomial([0, 0, 1]))
    with pytest.raises(TraceError):
        solve_target(sq, 0.0, 0.5)  # solution z=0 is critical


def test_trace_level_identity_circle():
    arc = trace_level(Z, 1.0, 1.0, +1, ClosedLoop(), step=0.02)
    assert arg_change_along(arc) == pytest.approx(2 * np.pi, abs=1e-9)
    assert np.max(np.abs(np.abs(arc.samples) - 1.0)) < 1e-8
    assert abs(arc.samples[-1] - arc.samples[0]) < 1e-12


def test_trace_level_v5v6_change():
    # stop at the first crossing of arg f = 5*pi/3 going positively
    arc = trace_level(F4, 8.0, _v5(), +1, HitsGradient(5 * np.pi / 3, 1), step=0.01)
    assert arg_change_along(arc) == pytest.approx(7 * np.pi / 6, abs=1e-12)
    # honest re-measurement from the samples themselves
    fresh = np.unwrap(np.angle(arc.f_values))
    assert fresh[-1] - fresh[0] == pytest.approx(7 * np.pi / 6, abs=1e-9)


def test_trace_level_closed_loop_lev8():
    arc = trace_level(F4, 8.0, _v5(), +1, ClosedLoop(), step=0.01)
    assert arg_change_along(arc) == pytest.approx(8 * np.pi, abs=1e-9)


def test_trace_level_invariants():
    arc = trace_level(F4, 8.0, _v5(), +1, ArgChangeReaches(7 * np.pi / 6), step=0.01)
    assert np.max(np.abs(np.abs(arc.f_values) - 8.0)) / 8.0 <= 1e-8
    assert np.max(np.abs(np.diff(arc.arg_lift))) < np.pi / 4


def test_trace_level_reverse_returns_to_start():
    v5 = _v5()
    fwd = trace_level(F4, 8.0, v5, +1, ArgChangeReaches(np.pi / 2), step=0.01)
    back = trace_level(
        F4, 8.0, complex(fwd.samples[-1]), -1, ArgChangeReaches(-np.pi / 2), step=0.01
    )
    assert abs(back.samples[-1] - v5) < 10 * 0.01 * 1e-6 + 1e-9


def test_trace_gradient_real_segment():
    arc = trace_gradient(Z, 0.0, 1.0, 2.0, step=0.02)
    assert arc.samples[0] == pytest.approx(1.0)
    assert arc.samples[-1] == pytest.approx(2.0, abs=1e-12)
    assert np.max(np.abs(arc.samples.imag)) < 1e-12
    mods = np.abs(arc.f_values)
    assert np.all(np.diff(mods) > 0)


def test_trace_gradient_v2v3():
    # the arc joining Lev(f4, 0.15) to Lev(f4, 0.6) along arg f4 = 3*pi/2
    comp = level_component_enclosing(F4, 0.15, [0.0], step=0.01)
    vals = F4(comp.points)
    j = int(np.argmin(np.abs(np.angle(vals) - (-np.pi / 2))))
    start = solve_target(F4, 0.15 * np.exp(-1j * np.pi / 2), complex(comp.points[j]))
    arc = trace_gradient(F4, -np.pi / 2, start, 0.6, step=0.01)
    assert abs(abs(F4(arc.samples[-1])) - 0.6) < 1e-10
    dev = np.max(np.abs(np.angle(arc.f_values * np.exp(1j * np.pi / 2))))
    assert dev <= 1e-8


def test_trace_gradient_rejects_same_modulus():
    with pytest.raises(PreconditionError):
        trace_gradient(Z, 0.0, 1.0, 1.0)


def test_arg_change_along_closed_component():
    # component of Lev(f4, 0.6) around {0, -1} encloses 3 zeros with multiplicity
    comp = level_component_enclosing(F4, 0.6, [0.0, -1.0], step=0.01)
    k = count_preimages(F4, comp, 0.0)
    assert k == 3
    start = complex(comp.points[0])
    arc = trace_level(F4, 0.6, start, +1, ClosedLoop(), step=0.01)
    assert arg_change_along(arc) == pytest.approx(2 * np.pi * k, abs=1e-9)


def test_level_component_enclosing_examples():
    small = level_component_enclosing(F4, 0.15, [0.0], step=0.01)
    assert winding_number(small, 0.0) == 1
    assert winding_number(small, -1.0) == 0
    assert winding_number(small, -3.0) == 0

    big = level_component_enclosing(F4, 8.0, [0.0, -1.0, -3.0], step=0.01)
    for z in (0.0, -1.0, -3.0):
        assert winding_number(big, z) == 1

    circ = level_component_enclosing(Z, 1.0, [0.0], step=0.02)
    assert np.max(np.abs(np.abs(circ.points) - 1.0)) < 1e-8


def test_level_component_failure_names_blocking_value():
    with pytest.raises(TraceError, match="blocking critical value"):
        level_component_enclosing(F4, 0.6, [0.0], step=0.01)


def test_level_component_rejects_critical_modulus():
    cv = (3 * np.sqrt(3.0) - 4.5) / 2
    with pytest.raises(PreconditionError):
        level_component_enclosing(F4, cv, [0.0], step=0.01)


def test_cross_module_lift_vs_count(circle_T):
    # lift of a closed level loop equals 2*pi*(preimages of 0 inside)
    comp = level_component_enclosing(F4, 0.15, [0.0], step=0.01)
    start = complex(comp.points[0])
    arc = trace_level(F4, 0.15, start, +1, ClosedLoop(), step=0.01)
    inside = count_preimages(F4, comp, 0.0)
    assert arg_change_along(arc) == pytest.approx(2 * np.pi * inside, abs=1e-6)


# -- the path-lifting kernel: properties on random polynomials -------------------

_coord = st.floats(-2.0, 2.0).map(lambda x: round(x, 4))
_point = st.builds(complex, _coord, _coord)
_polys = st.lists(_point, min_size=2, max_size=5).map(
    lambda roots: RationalMap(Polynomial.from_roots(roots))
)


def _clear_of_critical_values(f, eps, margin=0.05):
    """eps is at least `margin` (relative) away from every critical modulus."""
    return all(abs(abs(cv) - eps) >= margin * eps for cv in critical_values(f.num))


@settings(max_examples=25)
@given(f=_polys, start=_point, delta=st.floats(0.3, 3 * np.pi), direction=st.sampled_from([1, -1]))
def test_lift_level_arc_properties(f, start, delta, direction):
    fv = complex(f(start))
    eps = abs(fv)
    assume(eps > 1e-3 and _clear_of_critical_values(f, eps))
    delta *= direction
    arc = trace_level(f, eps, start, direction, ArgChangeReaches(delta), step=0.02)
    assert np.max(np.abs(np.abs(arc.f_values) - eps)) / eps <= LEVEL_INVARIANT_TOL
    # one sample per node of the uniform arg grid, ending exactly at lift0 + delta
    lift0 = float(np.angle(fv))
    gaps = np.diff(arc.arg_lift)
    assert len(arc.samples) == len(arc.arg_lift) == gaps.size + 1
    assert np.allclose(gaps, delta / gaps.size, rtol=1e-12, atol=0.0)
    assert np.all(np.abs(gaps) <= 0.02 * (1 + 1e-9))
    assert arc.arg_lift[0] == lift0 and arc.arg_lift[-1] == lift0 + delta
    # the lift is the honest argument of f along the samples
    fresh = np.unwrap(np.angle(f(arc.samples)))
    fresh += 2 * np.pi * np.round((arc.arg_lift[0] - fresh[0]) / (2 * np.pi))
    assert np.max(np.abs(fresh - arc.arg_lift)) <= 1e-9


@settings(max_examples=25)
@given(f=_polys, start=_point, log_ratio=st.floats(0.2, 1.5), grow=st.booleans())
def test_lift_gradient_arc_properties(f, start, log_ratio, grow):
    fv = complex(f(start))
    m0, alpha = abs(fv), float(np.angle(fv))
    assume(m0 > 1e-3 and _clear_of_critical_values(f, m0))
    target = m0 * np.exp(log_ratio if grow else -log_ratio)
    lo, hi = sorted((m0, target))
    for cv in critical_values(f.num):  # keep critical points off the ray
        on_ray = abs(np.angle(cv * np.exp(-1j * alpha))) < 0.05
        assume(not (on_ray and 0.9 * lo <= abs(cv) <= 1.1 * hi))
    arc = trace_gradient(f, alpha, start, target, step=0.02)
    vals = f(arc.samples)
    assert np.max(np.abs(np.angle(vals * np.exp(-1j * alpha)))) <= LEVEL_INVARIANT_TOL
    mods = np.abs(vals)
    assert np.all(np.diff(mods) > 0) if grow else np.all(np.diff(mods) < 0)
    assert abs(mods[-1] - target) <= 1e-10 * target


def test_lift_path_raises_at_critical_value():
    sq = RationalMap(Polynomial([0, 0, 1]))
    s = np.linspace(1.0, -1.0, 100)  # w(s) = s crosses the critical value 0
    with pytest.raises(TraceError):
        lift_path(sq, lambda t: t + 0j, lambda t: np.ones_like(t, dtype=complex), 1.0, s)


@pytest.mark.parametrize("step", [0.0, -0.01, np.nan, np.inf])
def test_trace_rejects_bad_step(step):
    with pytest.raises(PreconditionError):
        trace_level(Z, 1.0, 1.0, +1, ClosedLoop(), step=step)
    with pytest.raises(PreconditionError):
        trace_gradient(Z, 0.0, 1.0, 2.0, step=step)


def _groupings(eps, step):
    zeros = [0.0, -1.0, -3.0]
    found = set()
    for k in range(1, 4):
        for subset in itertools.combinations(zeros, k):
            try:
                level_component_enclosing(F4, eps, list(subset), step=step)
            except TraceError:
                continue
            found.add(subset)
    return found


def test_near_pinch_groupings_step_independent():
    """Just below and above each nonzero critical modulus of z^2(z+1)(z+3) the
    level set is about to pinch or has just merged; a coarse step must find
    the same zero groupings as a fine one. Just below a pinch every zero keeps
    its own component: a seeding ray from -1 (resp. -3) that steps over the
    narrow neck onto its neighbour's component is rejected and the next
    direction is tried."""
    cv_small = (3 * np.sqrt(3.0) - 4.5) / 2
    cv_big = max(abs(cv) for cv in critical_values(F4.num))
    expected = {
        0.999 * cv_small: {(0.0,), (-1.0,), (-3.0,)},
        1.001 * cv_small: {(0.0, -1.0), (-3.0,)},
        0.999 * cv_big: {(0.0, -1.0), (-3.0,)},
        1.001 * cv_big: {(0.0, -1.0, -3.0)},
    }
    for eps, groups in expected.items():
        assert _groupings(eps, 0.01) == groups
        assert _groupings(eps, 0.1) == groups
