import numpy as np
import pytest

from lemniscates.counterexample import (
    ArcSpec,
    PolarGrid,
    Table1Row,
    _lies_on,
    _trace_chain,
    _trace_until_crossing,
    build_boundary,
    chain_from_table,
    d4_table,
    design_counterexample,
    f4_polynomial,
    noninjectivity_degree,
    reproduce_table,
)
from lemniscates.curves import SampledCurve, is_jordan, winding_number, winding_numbers
from lemniscates.errors import ChainClosureError, NumericalError, PreconditionError
from lemniscates.polynomials import Polynomial, critical_values, roots_flat

PI6 = np.pi / 6


def test_table_dataset():
    rows = d4_table()
    assert len(rows) == 10
    by_label = {r.label: r for r in rows}
    v5v6 = by_label["v5v6"]
    assert (v5v6.modulus, v5v6.total_change) == (8.0, pytest.approx(7 * PI6))
    assert (v5v6.initial_arg, v5v6.final_arg) == (
        pytest.approx(np.pi / 2),
        pytest.approx(5 * np.pi / 3),
    )
    v1v2 = by_label["v1v2"]
    assert (v1v2.modulus, v1v2.total_change) == (0.15, pytest.approx(-15 * PI6))
    assert (v1v2.initial_arg, v1v2.final_arg) == (0.0, pytest.approx(3 * np.pi / 2))
    for r in rows:
        assert r.consistent()


def test_table_changes_sum_to_zero_exactly():
    rows = d4_table()
    numerators = [round(r.total_change / PI6) for r in rows]
    assert sum(numerators) == 0
    assert abs(sum(r.total_change for r in rows)) < 1e-12


def test_chain_from_table():
    specs = chain_from_table(d4_table())
    assert len(specs) == 20
    kinds = [s.kind for s in specs]
    assert kinds == ["level", "gradient"] * 10
    grad_args = [s.value for s in specs if s.kind == "gradient"]
    expect = np.array([9, 3, 10, 9, 4, 6, 4, 3, 10, 0]) * PI6
    assert np.allclose(grad_args, expect)
    # the closing gradient arc joins 0.25 back to 0.15 at arg 0
    assert specs[-1].value == pytest.approx(0.0)
    assert specs[-1].stop == pytest.approx(0.15)
    assert specs[-2].value == pytest.approx(0.25)


def test_chain_from_table_rejects_incompatible_rows():
    rows = d4_table()
    bad = rows[:1] + [
        Table1Row("broken", 0.6, np.pi, np.pi / 4, np.pi / 4 + np.pi)
    ] + rows[2:]
    with pytest.raises(PreconditionError, match="incompatible"):
        chain_from_table(bad)


def test_boundary_chain_properties(f4, d4_chain):
    chain = d4_chain
    assert len(chain.vertices) == 20
    assert chain.closure_residual <= 1e-6 * chain.diameter()
    assert chain.curve.closed and is_jordan(chain.curve, tol=1e-9)
    # every vertex satisfies both incident arc constraints
    lift = 0.0
    eps = chain.specs[0].value
    vals = f4(chain.vertices)
    for i, spec in enumerate(chain.specs):
        v = vals[i]
        if spec.kind == "level":
            assert abs(abs(v) - spec.value) <= 1e-8 * spec.value
            gap = abs((np.angle(v) - lift + np.pi) % (2 * np.pi) - np.pi)
            assert gap <= 1e-8
            lift += spec.stop
        else:
            gap = abs((np.angle(v) - spec.value + np.pi) % (2 * np.pi) - np.pi)
            assert gap <= 1e-8


def test_perturbed_table_fails_closure(f4):
    rows = d4_table()
    # shift one row's change by 2*pi: per-row consistency survives (mod 2pi)
    # but the chain endpoint walks off
    r = rows[2]
    rows[2] = Table1Row(r.label, r.modulus, r.total_change + 2 * np.pi,
                        r.initial_arg, r.final_arg)
    with pytest.raises(ChainClosureError) as info:
        build_boundary(f4, chain_from_table(rows), step=0.02)
    # every candidate says how it ended: dropped at a crossing, not closed,
    # or failed; three cross themselves before the last arc
    ends = [set(c) - {"start"} for c in info.value.candidates]
    assert len(ends) == 4
    assert ends.count({"crossed_after_arc"}) == 3
    assert ends.count({"closure_residual", "diameter"}) == 1
    assert all(0 <= c.get("crossed_after_arc", 0) < 19 for c in info.value.candidates)


def _full_trace_choice(f, specs, start_arg, step):
    """The chain chosen by tracing every candidate through every arc: the
    closed Jordan curve of the one candidate that gives one. Also returns
    each candidate's start and whether its full curve is Jordan."""
    w = specs[0].value * np.exp(1j * start_arg)
    chosen, full = [], []
    for cand in sorted(roots_flat(f - w, tol=1e-8), key=lambda z: (z.real, z.imag)):
        arcs = list(_trace_chain(f, specs, cand, start_arg, step))
        assert abs(complex(arcs[-1].samples[-1]) - cand) <= 1e-12  # every candidate closes
        curve = SampledCurve(np.concatenate([a.samples[:-1] for a in arcs]), closed=True)
        if curve.orientation != 1:
            curve = curve.reversed()
        jordan = is_jordan(curve, tol=1e-9)
        full.append((cand, jordan))
        if jordan:
            chosen.append(curve)
    assert len(chosen) == 1
    return chosen[0], full


@pytest.mark.parametrize("offset", range(10))
def test_prefix_drop_keeps_the_full_trace_choice(offset):
    """Dropping candidates at their first self-crossing gives the chain that
    tracing all four to the end gives, point for point, and drops only
    candidates whose full curves are not Jordan."""
    f4 = Polynomial([0.0, 0.0, 3.0, 4.0, 1.0])
    rows = d4_table()
    rows = rows[offset:] + rows[:offset]
    specs = chain_from_table(rows)
    expected, full = _full_trace_choice(f4, specs, rows[0].initial_arg, 0.01)
    chain = build_boundary(f4, specs, start_arg=rows[0].initial_arg, step=0.01)
    assert np.array_equal(chain.curve.points, expected.points)
    dropped = 0
    for cand, jordan in full:
        _, crossed = _trace_until_crossing(f4, specs, cand, rows[0].initial_arg, 0.01)
        assert crossed is None or not jordan
        dropped += crossed is not None
    assert dropped >= 2


def test_reproduce_table(f4, d4_chain):
    report = reproduce_table(f4, d4_chain)
    assert report.all_ok
    assert len(report.rows) == 10
    by_label = {r.label: r for r in report.rows}
    assert by_label["v11v12"].measured_change == pytest.approx(14 * PI6, abs=1e-3)
    assert by_label["v1v2"].measured_change == pytest.approx(-15 * PI6, abs=1e-3)
    for r in report.rows:  # each angle is reported next to its expected value
        assert abs(r.measured_initial_arg - r.expected_initial_arg) <= 1e-9
        assert abs(r.measured_final_arg - r.expected_final_arg) <= 1e-9
    assert abs(sum(r.measured_change for r in report.rows)) <= 1e-3


def _staircase_from_table(rows, step=0.002):
    """Exact w-plane image of the boundary, built from the table alone:
    circular arcs at each modulus joined by radial segments."""
    pts = []
    lift = 0.0
    n = len(rows)
    for i, row in enumerate(rows):
        phis = np.arange(0.0, abs(row.total_change), step) * np.sign(row.total_change)
        pts.append(row.modulus * np.exp(1j * (lift + phis)))
        lift += row.total_change
        m2 = rows[(i + 1) % n].modulus
        rads = np.linspace(row.modulus, m2, 32, endpoint=False)
        pts.append(rads * np.exp(1j * lift))
    return np.concatenate(pts)


def test_noninjectivity_against_staircase_oracle(f4, d4_chain):
    """The preimage count equals the winding of the exact table staircase."""
    oracle = _staircase_from_table(d4_table())
    grid = PolarGrid(45, 12, 0.16, 7.9)
    res = noninjectivity_degree(f4, d4_chain, grid)
    ws = res.grid_w
    counts_oracle, valid = winding_numbers(oracle, ws, min_distance=1e-3)
    agree = 0
    for i in range(ws.size):
        if valid[i] and np.min(np.abs(d4_chain.image_points() - ws[i])) > 1e-2:
            assert res.counts[i] == counts_oracle[i]
            agree += 1
    assert agree >= ws.size // 2
    assert counts_oracle[valid].max() == 2


def test_noninjectivity_root_count_oracle(f4, d4_chain, rng):
    """n(w) equals the number of roots of f4 - w inside the region."""
    res = noninjectivity_degree(f4, d4_chain, PolarGrid(36, 10, 0.2, 7.5))
    img = d4_chain.image_points()
    checked = 0
    for i in rng.permutation(res.grid_w.size)[:40]:
        w = res.grid_w[i]
        if np.min(np.abs(img - w)) < 1e-2:
            continue
        inside = 0
        for r in roots_flat(f4 - complex(w), tol=1e-8):
            if np.min(np.abs(d4_chain.curve.points - r)) > 1e-9 and winding_number(
                d4_chain.curve, r
            ):
                inside += 1
        assert inside == res.counts[i]
        checked += 1
    assert checked >= 20


def test_noninjectivity_small_grid(f4, d4_chain):
    res = noninjectivity_degree(f4, d4_chain, PolarGrid(90, 25, 0.16, 7.9))
    assert res.degree == 2
    assert res.n_evaluated > 0.9 * 90 * 25
    assert all(res.counts[np.nonzero(res.counts >= 0)] >= 0)


@pytest.mark.parametrize(
    "grid, expected",
    [
        (PolarGrid(360, 100, 0.16, 7.9), (2, 35688, 312)),
        (PolarGrid(720, 200, 0.16, 7.9), (2, 143077, 923)),
    ],
)
def test_noninjectivity_scan_figures_pinned(f4, d4_chain, grid, expected):
    """(degree, evaluated, skipped) of the acceptance scans, as the dense
    angle-sum kernel also gave them."""
    res = noninjectivity_degree(f4, d4_chain, grid)
    assert (res.degree, res.n_evaluated, res.n_skipped) == expected


def test_noninjectivity_monotone_under_nested_refinement(f4, d4_chain):
    base = noninjectivity_degree(f4, d4_chain, PolarGrid(60, 15, 0.2, 7.5))
    fine = noninjectivity_degree(f4, d4_chain, PolarGrid(120, 29, 0.2, 7.5))
    assert fine.degree >= base.degree


def test_single_arc_chain_unit_circle():
    from lemniscates.polynomials import Polynomial

    chain = build_boundary(Polynomial([0, 1]), [ArcSpec("level", 1.0, 2 * np.pi)], step=0.02)
    assert np.max(np.abs(np.abs(chain.curve.points) - 1.0)) < 1e-8
    res = noninjectivity_degree(Polynomial([0, 1]), chain, PolarGrid(60, 20, 0.1, 0.9))
    assert res.degree == 1  # injective map


def test_noninjectivity_square_on_disk():
    """Two starting candidates trace the same circle; the scan sees the
    two-sheeted covering."""
    from lemniscates.polynomials import Polynomial

    p2 = Polynomial([0, 0, 1])
    chain = build_boundary(p2, [ArcSpec("level", 1.0, 4 * np.pi)], step=0.02)
    res = noninjectivity_degree(p2, chain, PolarGrid(60, 20, 0.1, 0.9))
    assert res.degree == 2
    # the kept chain starts at -1 and passes through the other candidate, +1,
    # between two samples: 1.2e-5 off their 0.01-long chord
    assert chain.vertices[0] == -1 and _lies_on(chain.curve.points, 1.0)
    assert not _lies_on(chain.curve.points, 1.0 + 1e-2)


def test_symmetric_distinct_chains_raise():
    """|z^2 - 1| = 0.5 has two components, one about each zero: the two
    preimages of 0.5 trace two distinct closed Jordan chains."""
    with pytest.raises(ChainClosureError, match="2 of 2") as info:
        build_boundary(Polynomial([-1, 0, 1]), [ArcSpec("level", 0.5, 2 * np.pi)], step=0.02)
    assert all(c["jordan"] for c in info.value.candidates)


def test_clockwise_chain_is_reversed():
    """A level arc traced with a negative argument change runs clockwise;
    the chain's curve is that trace reversed, positively oriented."""
    chain = build_boundary(Polynomial([0, 1]), [ArcSpec("level", 1.0, -2 * np.pi)], step=0.02)
    traced = chain.arcs[0].samples[:-1]
    assert SampledCurve(traced).orientation == -1
    assert chain.curve.orientation == 1
    assert np.array_equal(chain.curve.points, traced[::-1])


def test_candidate_trace_error_is_recorded():
    """|z^2 - 1| = 1 passes through the critical point 0 (critical value -1):
    both candidates fail to trace, and each records its error."""
    with pytest.raises(ChainClosureError, match="0 of 2") as info:
        build_boundary(Polynomial([-1, 0, 1]), [ArcSpec("level", 1.0, 2 * np.pi)], step=0.02)
    assert len(info.value.candidates) == 2
    assert all("error" in c for c in info.value.candidates)


def test_arcspec_validation():
    with pytest.raises(PreconditionError):
        ArcSpec("level", 1.0, 0.0)
    with pytest.raises(PreconditionError):
        ArcSpec("gradient", 1.0, -2.0)
    with pytest.raises(PreconditionError):
        ArcSpec("surface", 1.0, 1.0)


@pytest.mark.parametrize("index, spec, message", [
    (2, ArcSpec("level", 0.61, 6 * PI6), "level arc at eps=0.61 reached with [|]f[|]=0.6"),
    (3, ArcSpec("gradient", 4 * PI6, 8.0), "gradient arc at alpha=2.0944 reached with"),
])
def test_build_boundary_refuses_discontinuous_specs(f4, monkeypatch, index, spec, message):
    """An arc that does not start where the one before it ends is a fault of
    the specs, refused before any candidate is traced."""
    specs = chain_from_table(d4_table())
    specs[index] = spec
    monkeypatch.setattr("lemniscates.counterexample.trace_level", None)
    with pytest.raises(PreconditionError, match=message):
        build_boundary(f4, specs)


# -- the degree-n family ---------------------------------------------------------


def test_counterexample_poly_degree4(f4):
    design = design_counterexample(4)
    assert design.poly.coeffs.tolist() == f4_polynomial().coeffs.tolist() == f4.coeffs.tolist()
    assert design.zeros == [0.0, 0.0, -1.0, -3.0] and design.levels_checked == []


def test_counterexample_poly_degree5():
    design = design_counterexample(5)
    assert design.ratio == 3.0
    assert sorted(z.real for z in np.asarray(design.zeros, dtype=complex)) == [
        -9.0,
        -3.0,
        -1.0,
        0.0,
        0.0,
    ]
    mods = sorted(
        abs(v) for v in critical_values(design.poly) if abs(v) > 1e-9
    )
    assert all(b > a for a, b in zip(mods, mods[1:]))


def test_counterexample_rejects_small_degree():
    with pytest.raises(PreconditionError):
        design_counterexample(3)


@pytest.mark.parametrize("n", range(4, 9))
def test_family_validates_through_degree_8(n):
    """Zeros spaced by 3 validate on the one ratio tried: n - 3 levels between
    the n - 2 strictly increasing nonzero critical moduli."""
    design = design_counterexample(n)
    assert design.poly.degree == n and design.ratio == 3.0
    assert np.allclose(design.poly(np.asarray(design.zeros)), 0.0)
    assert len(design.levels_checked) == (0 if n == 4 else n - 3)
    assert design.levels_checked == sorted(design.levels_checked)
    assert "attempts" not in design.metadata()


@pytest.mark.parametrize("n", [9, 10])
def test_family_fails_past_degree_8(n):
    """Past degree 8 the smallest nonzero critical moduli of the ratio-3
    member lie below 1e-12 of the largest, where they cannot be told from
    the critical value 0: the failure is numerical, not a precondition."""
    with pytest.raises(NumericalError):
        design_counterexample(n)
