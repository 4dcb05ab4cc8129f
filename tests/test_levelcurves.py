import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lemniscates import levelcurves
from lemniscates.counterexample import (
    PolarGrid,
    build_boundary,
    chain_from_table,
    d4_table,
    noninjectivity_degree,
    reproduce_table,
)
from lemniscates.curves import (
    SampledCurve,
    count_preimages,
    ellipse,
    unit_circle,
    winding_number,
    winding_numbers,
)
from lemniscates.errors import PreconditionError, TraceError
from lemniscates.fingerprint import identity_report, is_proper, is_proper_oracle, pseudo_lemniscate
from lemniscates.levelcurves import (
    _COARSE,
    _CORRECTOR_ITERS,
    _MAX_HALVINGS,
    BRANCH_JUMP_FACTOR,
    LEVEL_INVARIANT_TOL,
    NEWTON_TOL,
    _grid,
    _newton,
    _scalar_kernels,
    level_components,
    lift_path,
    preimage_loops,
    solve_target,
    trace_gradient,
    trace_level,
)
from lemniscates.polynomials import Polynomial, RationalMap, critical_values

F4 = Polynomial([0, 0, 3, 4, 1])
F4_ZEROS = (0.0, -1.0, -3.0)
Z = Polynomial([0, 1])
PI6 = np.pi / 6


def _components(eps, step=0.01):
    """The closed components of {|f4| = eps}, keyed by the zeros each winds
    about, as design_counterexample groups them."""
    found = {}
    for loop in level_components(F4, eps, step):
        counts = winding_numbers(loop.points, F4_ZEROS, min_distance=0.0)[0]
        found[tuple(z for z, c in zip(F4_ZEROS, counts) if c)] = loop
    return found


def _laps(loop, step):
    """Laps of the lap-monodromy cycle a level loop was joined from."""
    m = _grid(0.0, 2 * np.pi, step).size - 1
    assert len(loop) % m == 0
    return len(loop) // m


def _level_dev(p, loop, eps):
    """max | |p| - eps | / eps over the loop's samples."""
    return float(np.max(np.abs(np.abs(p(loop.points)) - eps))) / eps


def _v5():
    """Vertex on {|f4|=8} with arg f4 = pi/2, found from a coarse grid seed."""
    gr = (np.linspace(-4, 2, 60)[None, :] + 1j * np.linspace(-3, 3, 60)[:, None]).ravel()
    vals = F4(gr)
    seed = gr[int(np.argmin(np.abs(vals - 8j)))]
    return solve_target(F4, 8j, seed)


def test_solve_target_examples():
    sq = Polynomial([0, 0, 1])
    assert solve_target(sq, 4.0, 1.9) == pytest.approx(2.0, abs=1e-9)
    assert solve_target(Z, 0.7 + 0.1j, 0.5) == pytest.approx(0.7 + 0.1j, abs=1e-12)
    v5 = _v5()
    assert abs(F4(v5)) == pytest.approx(8.0, abs=1e-10)
    assert np.angle(F4(v5)) == pytest.approx(np.pi / 2, abs=1e-10)


def test_solve_target_critical_point_failure():
    sq = Polynomial([0, 0, 1])
    with pytest.raises(TraceError):
        solve_target(sq, 0.0, 0.5)  # solution z=0 is critical


def test_trace_level_identity_circle():
    arc = trace_level(Z, 1.0, 1.0, 2 * np.pi, step=0.02)
    assert arc.arg_lift[-1] - arc.arg_lift[0] == pytest.approx(2 * np.pi, abs=1e-9)
    assert np.max(np.abs(np.abs(arc.samples) - 1.0)) < 1e-8
    assert abs(arc.samples[-1] - arc.samples[0]) < 1e-12


def test_trace_level_v5v6_change():
    # from arg f = pi/2 to the first crossing of arg f = 5*pi/3 going positively
    arc = trace_level(F4, 8.0, _v5(), 7 * np.pi / 6, step=0.01)
    assert arc.arg_lift[-1] - arc.arg_lift[0] == pytest.approx(7 * np.pi / 6, abs=1e-12)
    # honest re-measurement from the samples themselves
    fresh = np.unwrap(np.angle(arc.f_values))
    assert fresh[-1] - fresh[0] == pytest.approx(7 * np.pi / 6, abs=1e-9)


def test_trace_level_closed_loop_lev8():
    # the level-8 component is one 4-cycle of laps: arg f turns 8*pi around it
    [loop] = level_components(F4, 8.0, 0.01)
    assert _laps(loop, 0.01) == 4 and _level_dev(F4, loop, 8.0) <= LEVEL_INVARIANT_TOL
    arc = trace_level(F4, 8.0, _v5(), 8 * np.pi, step=0.01)
    assert arc.arg_lift[-1] - arc.arg_lift[0] == pytest.approx(8 * np.pi, abs=1e-9)
    assert abs(arc.samples[-1] - arc.samples[0]) < 1e-9


def test_trace_level_invariants():
    arc = trace_level(F4, 8.0, _v5(), 7 * np.pi / 6, step=0.01)
    assert np.max(np.abs(np.abs(arc.f_values) - 8.0)) / 8.0 <= 1e-8
    assert np.max(np.abs(np.diff(arc.arg_lift))) < np.pi / 4


def test_trace_level_reverse_returns_to_start():
    v5 = _v5()
    fwd = trace_level(F4, 8.0, v5, np.pi / 2, step=0.01)
    back = trace_level(F4, 8.0, complex(fwd.samples[-1]), -np.pi / 2, step=0.01)
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
    comp = _components(0.15)[(0.0,)]
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


def test_arg_change_around_closed_component():
    # component of Lev(f4, 0.6) around {0, -1} encloses 3 zeros with multiplicity
    comp = _components(0.6)[(0.0, -1.0)]
    k = count_preimages(F4, comp, 0.0)
    assert k == 3
    # its cycle has k laps, and arg f turns 2*pi per lap around it
    assert _laps(comp, 0.01) == k
    args = np.unwrap(np.angle(F4(np.append(comp.points, comp.points[0]))))
    assert args[-1] - args[0] == pytest.approx(2 * np.pi * k, abs=1e-9)


def test_level_components_examples():
    small = _components(0.15)[(0.0,)]
    assert winding_number(small, 0.0) == 1
    assert winding_number(small, -1.0) == 0
    assert winding_number(small, -3.0) == 0

    big = _components(8.0)[F4_ZEROS]
    for z in F4_ZEROS:
        assert winding_number(big, z) == 1

    [circ] = level_components(Z, 1.0, step=0.02)
    assert np.max(np.abs(np.abs(circ.points) - 1.0)) < 1e-8


def test_level_component_rejects_critical_modulus():
    """The level set through a critical point is not a union of Jordan loops:
    tracing it raises instead of returning loops, naming the critical value."""
    for cv in filter(None, critical_values(F4)):
        match = f"nearest nonzero critical value .* of modulus {abs(cv):.6g}$"
        with pytest.raises(TraceError, match=match) as info:
            level_components(F4, abs(cv), step=0.01)
        assert info.value.samples is not None


def test_level_component_needs_constant_denominator():
    """Level components take a Polynomial: even a RationalMap with a constant
    denominator, f4 itself, is refused."""
    for f in (RationalMap(F4 * 0.5, Polynomial([0.5])), RationalMap(F4, Polynomial([2.0, 1.0]))):
        with pytest.raises(PreconditionError, match="expected a Polynomial"):
            level_components(f, 0.15, step=0.01)


def test_cross_module_lift_vs_count(circle_T):
    # a closed level loop lifts 2*pi per lap: its laps equal the preimages of 0 inside
    comp = _components(0.15)[(0.0,)]
    inside = count_preimages(F4, comp, 0.0)
    assert inside == 2
    assert _laps(comp, 0.01) == inside


# -- the path-lifting kernel: properties on random polynomials -------------------


def test_scalar_kernels_rational_map():
    """The kernel is one Horner pass over a Polynomial; a RationalMap, even 1/z
    with its closed-form f and f', is refused up front."""
    with pytest.raises(PreconditionError, match="expected a Polynomial"):
        _scalar_kernels(RationalMap(Polynomial([1.0]), Polynomial([0, 1])))
    val, der, scale = _scalar_kernels(Polynomial([1.0, 0.0, 2.0]))(2.0)  # 1 + 2z^2
    assert (val, der, scale) == (9.0, 8.0, 9.0)


_F4_RATIONAL = RationalMap(F4)


@pytest.mark.parametrize("call", [
    lambda f: lift_path(f, np.exp, np.exp, 1.0, np.linspace(0.0, 0.1, 5)),
    lambda f: solve_target(f, 8j, 1.0),
    lambda f: trace_level(f, 8.0, 1.0, 0.1),
    lambda f: trace_gradient(f, 0.0, 1.0, 9.0),
    lambda f: level_components(f, 0.15),
    lambda f: preimage_loops(f, unit_circle(64), 64),
    lambda f: build_boundary(f, chain_from_table(d4_table())),
    lambda f: reproduce_table(f, None),
    lambda f: noninjectivity_degree(f, None, PolarGrid(8, 2, 0.5, 2.0)),
    lambda f: is_proper(f, unit_circle(64)),
    lambda f: is_proper_oracle(f, unit_circle(64)),
    lambda f: pseudo_lemniscate(f, unit_circle(64)),
    lambda f: identity_report(f, unit_circle(64)),
], ids=["lift_path", "solve_target", "trace_level", "trace_gradient",
        "level_components", "preimage_loops", "build_boundary",
        "reproduce_table", "noninjectivity_degree", "is_proper", "is_proper_oracle",
        "pseudo_lemniscate", "identity_report"])
def test_continuation_refuses_rational_map(call):
    """Every continuation entry point, and every fingerprint entry point that
    traces p^{-1}(Gamma), takes a Polynomial and refuses a RationalMap, even
    one that is a polynomial, with PreconditionError."""
    with pytest.raises(PreconditionError, match="expected a Polynomial"):
        call(_F4_RATIONAL)


_coord = st.floats(-2.0, 2.0).map(lambda x: round(x, 4))
_point = st.builds(complex, _coord, _coord)
_polys = st.lists(_point, min_size=2, max_size=5).map(Polynomial.from_roots)


def _clear_of_critical_values(f, eps, margin=0.05):
    """eps is at least `margin` (relative) away from every critical modulus."""
    return all(abs(abs(cv) - eps) >= margin * eps for cv in critical_values(f))


@settings(max_examples=25)
@given(f=_polys, start=_point, delta=st.floats(0.3, 3 * np.pi), direction=st.sampled_from([1, -1]))
def test_lift_level_arc_properties(f, start, delta, direction):
    fv = complex(f(start))
    eps = abs(fv)
    assume(eps > 1e-3 and _clear_of_critical_values(f, eps))
    delta *= direction
    arc = trace_level(f, eps, start, delta, step=0.02)
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
    for cv in critical_values(f):  # keep critical points off the ray
        on_ray = abs(np.angle(cv * np.exp(-1j * alpha))) < 0.05
        assume(not (on_ray and 0.9 * lo <= abs(cv) <= 1.1 * hi))
    arc = trace_gradient(f, alpha, start, target, step=0.02)
    vals = f(arc.samples)
    assert np.max(np.abs(np.angle(vals * np.exp(-1j * alpha)))) <= LEVEL_INVARIANT_TOL
    mods = np.abs(vals)
    assert np.all(np.diff(mods) > 0) if grow else np.all(np.diff(mods) < 0)
    assert abs(mods[-1] - target) <= 1e-10 * target


def test_lift_path_raises_at_critical_value():
    sq = Polynomial([0, 0, 1])
    s = np.linspace(1.0, -1.0, 100)  # w(s) = s crosses the critical value 0
    for lift in (lift_path, _euler_lift_path):  # the kernel and its Euler oracle
        with pytest.raises(TraceError):
            lift(sq, lambda t: t + 0j, lambda t: np.ones_like(t, dtype=complex), 1.0, s)


def test_lift_path_array_of_starts_matches_single_lifts():
    cube = Polynomial([0, 0, 0, 1])
    s = np.linspace(0.0, 2 * np.pi, 65)
    evals = []

    def w(t):
        evals.append(np.size(t))
        return np.exp(1j * t)

    starts = np.exp(2j * np.pi * np.arange(3) / 3).reshape(3, 1)
    zs, fs = lift_path(cube, w, lambda t: 1j * np.exp(1j * t), starts, s)
    assert zs.shape == fs.shape == (3, 1, 65)
    assert evals == [65]  # one path evaluation shared by all starts
    for k in range(3):
        z1, f1 = lift_path(cube, w, lambda t: 1j * np.exp(1j * t), starts[k, 0], s)
        assert np.array_equal(zs[k, 0], z1) and np.array_equal(fs[k, 0], f1)
    assert np.allclose(zs[:, 0, -1], np.roll(starts[:, 0], -1), atol=1e-12)


def test_lift_path_two_evaluations_per_grid_step(monkeypatch):
    """The scalar stepper runs on the coarse grid of every _COARSE-th node,
    and its two-step predictor lands close enough there for one Newton update
    and one confirming evaluation per coarse step at the coarse goal (at
    NEWTON_TOL it needs 3); the fine samples are corrected in one vectorized
    pass, which makes no scalar evaluation."""
    v5 = _v5()
    calls = []

    def counted(f):
        fd = _scalar_kernels(f)

        def counting(z):
            calls.append(z)
            return fd(z)

        return counting

    monkeypatch.setattr(levelcurves, "_scalar_kernels", counted)
    arc = trace_level(F4, 8.0, v5, 8 * np.pi, step=0.01)
    assert len(calls) <= 2.1 * np.ceil((len(arc) - 1) / _COARSE)


# -- the Euler-predictor kernel that lift_path replaced: a test oracle -----------


def _horner_kernels(p):
    """Scalar z -> (p(z), p'(z), scale) by three Horner passes over cached
    coefficient lists; scale = 1 + sum |c_k| |z|^k over p' is what a
    critical |p'| is measured against."""
    nc = [complex(c) for c in p.coeffs][::-1]
    nd = [complex(c) for c in p.derivative().coeffs][::-1]
    ad = [abs(c) for c in nd]

    def horner(cs, z):
        acc = cs[0]
        for c in cs[1:]:
            acc = acc * z + c
        return acc

    def fd(z):
        return horner(nc, z), horner(nd, z), horner(ad, abs(z)) + 1.0

    return fd


def _euler_lift_path(f, w, dw, z0, s):
    """lift_path with an Euler predictor z + dw(s_j)*(s_{j+1} - s_j)/f'(z)
    on every step and three Horner passes per evaluation."""
    fd = _horner_kernels(f)
    s = np.asarray(s, dtype=float)
    # plain Python scalars keep the per-step arithmetic cheap
    ts = s.tolist()
    ws = np.asarray(w(s), dtype=complex).tolist()
    dws = np.asarray(dw(s), dtype=complex).tolist()

    def advance(z, dv, t0, w0, dw0, t1, w1, depth):
        try:
            z1, f1, d1 = _newton(fd, z + dw0 * (t1 - t0) / dv, w1, NEWTON_TOL, _CORRECTOR_ITERS, f)
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

    starts = np.asarray(z0, dtype=complex)
    samples = np.empty(starts.shape + s.shape, dtype=complex)
    values = np.empty(starts.shape + s.shape, dtype=complex)
    for k in np.ndindex(starts.shape):
        row, vals = samples[k], values[k]
        z, fv, dv = _newton(fd, complex(starts[k]), ws[0], NEWTON_TOL, _CORRECTOR_ITERS, f)
        row[0], vals[0] = z, fv
        for j in range(1, s.size):
            try:
                z, fv, dv = advance(z, dv, ts[j - 1], ws[j - 1], dws[j - 1], ts[j], ws[j], 0)
            except TraceError as err:
                raise TraceError(f"{err} (lifting s = {ts[j]:.6g})", samples=row[:j]) from None
            row[j], vals[j] = z, fv
    return samples, values


def _assert_same_lift(p, got, oracle):
    """Each kernel's samples meet the corrector goal |p(z) - w| <= NEWTON_TOL*|w|,
    so the two may differ by twice that residual over |p'| on top of rounding."""
    assert got.shape == oracle.shape
    reach = 2 * NEWTON_TOL * np.abs(p(oracle)) / np.abs(p.derivative()(oracle))
    assert np.all(np.abs(got - oracle) <= 1e-12 * (1.0 + np.abs(oracle)) + reach)


@settings(max_examples=25, deadline=None)
@given(f=_polys, start=_point, delta=st.floats(0.3, 3 * np.pi), log_ratio=st.floats(0.2, 1.5),
       grow=st.booleans(), log_radius=st.floats(-3.0, 3.0))
def test_lift_path_matches_euler_oracle(f, start, delta, log_ratio, grow, log_radius):
    fv = complex(f(start))
    eps, alpha = abs(fv), float(np.angle(fv))
    assume(eps > 1e-3 and _clear_of_critical_values(f, eps))
    target = eps * np.exp(log_ratio if grow else -log_ratio)
    lo, hi = sorted((eps, target))
    for cv in critical_values(f):  # keep critical points off the ray
        on_ray = abs(np.angle(cv * np.exp(-1j * alpha))) < 0.05
        assume(not (on_ray and 0.9 * lo <= abs(cv) <= 1.1 * hi))
    # the one-pass kernel: the same f and scale, f' to rounding (degree <= 5)
    (v, d, scale), (v0, d0, scale0) = _scalar_kernels(f)(start), _horner_kernels(f)(start)
    assert v == v0 and scale == scale0 and abs(d - d0) <= 1e-14 * scale0

    def level(t):
        return eps * np.exp(1j * t)

    def dlevel(t):
        return 1j * eps * np.exp(1j * t)

    def ray(t):
        return np.exp(t + 1j * alpha)

    for path, dpath, s in [
        (level, dlevel, _grid(alpha, alpha + delta, 0.02)),
        (ray, ray, _grid(np.log(eps), np.log(target), 0.02)),
    ]:
        _assert_same_lift(f, lift_path(f, path, dpath, start, s)[0],
                          _euler_lift_path(f, path, dpath, start, s)[0])
    # the laps of a circle: the same laps, so the same loops
    radius = float(np.exp(log_radius))
    assume(_clear_of_critical_values(f, radius))
    circle = unit_circle(8, radius=radius)
    loops = preimage_loops(f, circle, 64)
    with mock.patch.object(levelcurves, "lift_path", _euler_lift_path):
        oracle_loops = preimage_loops(f, circle, 64)
    assert [loop.size for loop in loops] == [loop.size for loop in oracle_loops]
    for loop, oracle in zip(loops, oracle_loops):
        _assert_same_lift(f, loop, oracle)


def _fine_pass_log(monkeypatch):
    """Records (samples predicted, whether all were certified) per vectorized
    pass."""
    log = []
    fine_pass = levelcurves._fine_pass

    def logged(f, nc, guess, *path):
        out = fine_pass(f, nc, guess, *path)
        log.append((guess.size, bool(out[2].all())))
        return out

    monkeypatch.setattr(levelcurves, "_fine_pass", logged)
    return log


def _line(offset):
    """The path w(s) = s + offset, its derivative, and a grid from 1 to -1."""
    return (lambda t: t + offset, lambda t: np.ones_like(t, dtype=complex),
            np.linspace(1.0, -1.0, 100))


def test_lift_path_refines_the_steps_too_long_for_their_critical_distance(monkeypatch):
    """Lifting s + 0.01i through z^2 passes 0.01 from the critical value 0,
    where grid steps of 0.0202 are longer than 3 - 2 sqrt 2 of their distance
    to it: they are halved until none is, and one certified vectorized pass
    over the refined nodes lifts the path, as the Euler oracle does on the
    grid."""
    log = _fine_pass_log(monkeypatch)
    sq = Polynomial([0, 0, 1])
    w, dw, s = _line(0.01j)
    got = lift_path(sq, w, dw, 1.0, s)[0]
    assert len(log) == 1 and log[0][0] > s.size and log[0][1]
    _assert_same_lift(sq, got, _euler_lift_path(sq, w, dw, 1.0, s)[0])


def test_lift_path_fallback_error_carries_the_samples_before_it(monkeypatch):
    """Lifting s through z^2 meets the critical value 0: no halving makes the
    step onto it short enough, so the nodes before it are lifted in one
    certified vectorized pass, and the TraceError names the grid node and
    carries every sample before it, as the Euler oracle's does."""
    log = _fine_pass_log(monkeypatch)
    sq = Polynomial([0, 0, 1])
    w, dw, s = _line(0j)
    errors = []
    for lift in (lift_path, _euler_lift_path):
        with pytest.raises(TraceError, match=r"\(lifting s = ") as err:
            lift(sq, w, dw, 1.0, s)
        errors.append(err.value)
    got, oracle = errors
    assert len(log) == 1 and log[0][1]
    assert len(got.samples) == len(oracle.samples) == s.size // 2
    assert str(got).split("(lifting")[1] == str(oracle).split("(lifting")[1]
    _assert_same_lift(sq, np.asarray(got.samples), np.asarray(oracle.samples))


def test_lift_path_short_paths_take_the_two_level_route(monkeypatch):
    """A 10-step level arc and a 5-step gradient arc, shorter than two coarse
    steps, are lifted on two levels like any other path: the vectorized pass
    certifies every sample, and the lift matches the Euler oracle."""
    log = _fine_pass_log(monkeypatch)
    v5 = _v5()

    def ray(t):
        return np.exp(t + 0.5j * np.pi)

    paths = [
        (lambda t: 8.0 * np.exp(1j * t), lambda t: 8j * np.exp(1j * t),
         np.linspace(0.5 * np.pi, 0.5 * np.pi + 0.1, 11)),
        (ray, ray, np.linspace(np.log(8.0), np.log(8.0) + 0.05, 6)),
    ]
    for w, dw, s in paths:
        assert s.size - 1 < 2 * _COARSE
        _assert_same_lift(F4, lift_path(F4, w, dw, v5, s)[0],
                          _euler_lift_path(F4, w, dw, v5, s)[0])
    assert log == [(11, True), (6, True)]


def test_lift_path_raises_a_sample_that_leaves_its_branch(monkeypatch):
    """A polish that moves sample 20 of a lift of the unit circle through
    z^2 onto the other preimage, its negative, breaks the certificate of the
    step onto it: lift_path raises TraceError naming that node and carrying
    the 20 samples before it."""
    sq = Polynomial([0, 0, 1])
    s = np.linspace(0.0, 1.0, 41)
    path = (lambda t: np.exp(1j * t), lambda t: 1j * np.exp(1j * t), 1.0, s)
    good = lift_path(sq, *path)[0]
    polish = levelcurves._polish

    def broken(nc, z, w):
        z, fv, dv, done = polish(nc, z, w)
        z[20], dv[20] = -z[20], -dv[20]
        return z, fv, dv, done

    monkeypatch.setattr(levelcurves, "_polish", broken)
    with pytest.raises(TraceError, match=re.escape(f"(lifting s = {s[20]:.6g})")) as err:
        lift_path(sq, *path)
    assert np.array_equal(err.value.samples, good[:20])


def test_lift_path_coarse_failure_carries_the_fine_samples_before_it(monkeypatch):
    """When the coarse pass cannot reach its fourth coarse node, the nodes up
    to the third are corrected and certified as usual, and the TraceError
    names the node after them and carries their samples."""
    sq = Polynomial([0, 0, 1])
    s = np.linspace(0.0, 1.0, 41)
    path = (lambda t: np.exp(1j * t), lambda t: 1j * np.exp(1j * t), 1.0, s)
    good = lift_path(sq, *path)[0]
    newton, blocked = levelcurves._newton, complex(path[0](s)[3 * _COARSE])

    def refusing(fd, z, w, *args):
        if w == blocked:
            raise TraceError("refused")
        return newton(fd, z, w, *args)

    monkeypatch.setattr(levelcurves, "_newton", refusing)
    reached = 2 * _COARSE + 1
    with pytest.raises(TraceError, match=re.escape(f"refused (lifting s = {s[reached]:.6g})")) as err:
        lift_path(sq, *path)
    _assert_same_lift(sq, np.asarray(err.value.samples), good[:reached])


def _certified(p, z, w):
    """Whether every step z_j -> z_{j+1} of a lift of the points w keeps
    rho_j = |w_{j+1} - w_j| / dist(w_j, CV) <= 3 - 2 sqrt 2 against the
    critical values of p and moves at most
    |w_{j+1} - w_j| / (|p'(z_j)| (1 - rho_j)^2), up to rounding."""
    dw = np.abs(np.diff(w))
    rho = dw / np.min(np.abs(w[:-1, None] - np.array(critical_values(p))), axis=1)
    bound = dw / (np.abs(p.derivative()(z[:-1])) * (1 - rho) ** 2)
    return (np.all(rho <= 3 - 2 * np.sqrt(2))
            and np.all(np.abs(np.diff(z)) <= bound + 1e-13 * (1 + np.abs(z[1:]))))


def test_d4_chain_steps_are_certified(f4, d4_chain):
    """Every returned step of the d4 chain's arcs passes the branch
    certificate on the grid itself: no step needed refining."""
    for arc in d4_chain.arcs:
        assert _certified(f4, arc.samples, arc.f_values)


def test_fingerprint_laps_are_certified():
    """The same on the pseudo-lemniscates of the seed-1 inputs of the
    `fingerprint` benchmark: p of degree 2-4 with p(0) and its critical
    values inside gamma/2, gamma alternating circle and ellipse, each traced
    at the m samples per lap identity_report takes at 2048 nodes."""
    rng = np.random.default_rng(1)
    gammas = [unit_circle(512), ellipse(1.0, 0.6, 512)]
    for i in range(24):
        gamma, d = gammas[i % 2], int(rng.integers(2, 5))
        while True:
            roots = rng.normal(0, 0.5, d) + 1j * rng.normal(0, 0.5, d)
            p = Polynomial.from_roots(roots, leading=float(np.exp(rng.uniform(-0.5, 0.5))))
            try:
                if all(winding_number(gamma, 2.0 * w) == 1
                       for w in [p(0.0), *critical_values(p)]):
                    break
            except PreconditionError:
                pass
        (loop,) = preimage_loops(p, gamma, max(512, 4096 // d))
        closed = np.append(loop, loop[0])
        assert _certified(p, closed, p(closed))


@pytest.mark.parametrize("step", [0.0, -0.01, np.nan, np.inf])
def test_trace_rejects_bad_step(step):
    with pytest.raises(PreconditionError):
        trace_level(Z, 1.0, 1.0, 2 * np.pi, step=step)
    with pytest.raises(PreconditionError):
        trace_gradient(Z, 0.0, 1.0, 2.0, step=step)


@pytest.mark.parametrize("m", [0, -3, 2.5, 4.0, "4", None, True])
@pytest.mark.parametrize("trace", [preimage_loops, pseudo_lemniscate])
def test_preimage_trace_rejects_bad_lap_count(trace, m):
    with pytest.raises(PreconditionError, match="samples per lap"):
        trace(Polynomial([-0.1, 0, 1]), unit_circle(64), m)


@pytest.mark.parametrize("delta", [0.0, np.nan, np.inf])
def test_trace_level_rejects_bad_arg_change(delta):
    with pytest.raises(PreconditionError):
        trace_level(Z, 1.0, 1.0, delta)


@settings(max_examples=15, deadline=None)
@given(roots=st.lists(_point, min_size=2, max_size=5), log_eps=st.floats(-3.0, 3.0))
def test_level_components_match_preimage_counts(roots, log_eps):
    p = Polynomial.from_roots(roots)
    eps = float(np.exp(log_eps))
    assume(_clear_of_critical_values(p, eps, margin=0.01))
    loops = level_components(p, eps, 0.02)
    laps = [_laps(loop, 0.02) for loop in loops]
    assert sum(laps) == p.degree
    for loop, k in zip(loops, laps):
        assert _level_dev(p, loop, eps) <= LEVEL_INVARIANT_TOL
        assert count_preimages(p, loop, 0.0) == k
    for z in set(roots):
        assert sum(winding_number(loop, z) for loop in loops) == 1
        assert all(winding_number(loop, z) in (0, 1) for loop in loops)


def test_level_components_of_a_tiny_level():
    """Level circles far below the Jordan test's absolute tolerance still
    trace, and the loop about the zero at the origin, where z carries its
    full relative precision, holds the level invariant: a corrector that
    accepted a good prediction without an update would leave the
    predictor's error there. (About the zero at 0.5, z is only known to
    0.5 ulp of 0.5, i.e. 2.7e-7 of a 1e-10 level.)"""
    p = Polynomial.from_roots([0.0, 0.5])
    for eps in (1e-10, 1e-13):
        origin, _ = loops = level_components(p, eps, 0.02)
        assert [_laps(loop, 0.02) for loop in loops] == [1, 1]
        assert np.max(np.abs(origin.points)) < 1e3 * eps
        assert _level_dev(p, origin, eps) <= LEVEL_INVARIANT_TOL


@pytest.mark.parametrize("roots, eps", [
    ([-2 - 2j, -2 - 2j, 0.2391 + 0.087j, -1.9999 - 2j, -1.5 + 0.0001j], 0.10639254140360185),
    ([0.22443350746948296 + 5.229760513976301j, 0.22443350746948296 + 5.229760513976301j,
      0.22439288201555055 + 5.229569180255634j, 1.5075320766527778 + 2.748978301872578j,
      -0.4549660740304664 - 0.31520434285192306j], 0.06451716853589426),
    ([-3.164211908917782 - 1.2505856229281676j, -3.164211908917782 - 1.2505856229281676j,
      -3.1641892589131637 - 1.250811647942721j, -0.7723732992536106 - 3.3329203362202087j,
      -0.6873505632973168 - 0.6927690489513799j], 0.25750588526179014),
])
def test_level_components_accept_a_start_at_rounding_level(roots, eps, monkeypatch):
    """Near a double root |p'| is small at the roots of p - eps: the Newton
    projection of such a start has |p(z) - eps| at Horner rounding level
    while its update stays above rounding and stops shrinking. That residual
    is accepted, not raised as "not contracting", by the scalar corrector
    and by the vectorized pass alike: every lap takes the two-level route."""
    log = _fine_pass_log(monkeypatch)
    p = Polynomial.from_roots(roots)
    loops = level_components(p, eps, 0.02)
    assert sum(_laps(loop, 0.02) for loop in loops) == 5
    assert len(log) == 5 and all(certified for _, certified in log)


def test_level_components_when_gamma0_is_p0_up_to_rounding():
    """At eps = p(0) rounded down, p - eps has a root within rounding of 0,
    where eval_scale is the rounding noise of the constant coefficient."""
    p = Polynomial.from_roots([0.3 + 0.1j, 0.3 - 0.1j])  # p(0) = 0.1
    for eps in (np.nextafter(0.1, 0), 0.1, np.nextafter(0.1, 1)):
        (loop,) = level_components(p, eps)
        assert _level_dev(p, loop, eps) <= LEVEL_INVARIANT_TOL and _laps(loop, 0.01) == 2


def test_near_pinch_groupings_step_independent():
    """Just below and above each nonzero critical modulus of z^2(z+1)(z+3) the
    level set is about to pinch or has just merged; a coarse step must find
    the same zero groupings as a fine one. Just below a pinch every zero keeps
    its own component: the laps of eps*T lifted past the narrow neck must stay
    on their own side of it, so the lap monodromy keeps the two neighbouring
    cycles apart."""
    cv_small = (3 * np.sqrt(3.0) - 4.5) / 2
    cv_big = max(abs(cv) for cv in critical_values(F4))
    expected = {
        0.999 * cv_small: {(0.0,), (-1.0,), (-3.0,)},
        1.001 * cv_small: {(0.0, -1.0), (-3.0,)},
        0.999 * cv_big: {(0.0, -1.0), (-3.0,)},
        1.001 * cv_big: {(0.0, -1.0, -3.0)},
    }
    for eps, groups in expected.items():
        assert set(_components(eps, 0.01)) == groups
        assert set(_components(eps, 0.1)) == groups
