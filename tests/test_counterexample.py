import numpy as np
import pytest

from lemniscates.counterexample import (
    ArcSpec,
    PolarGrid,
    Table1Row,
    build_boundary,
    chain_from_table,
    d4_table,
    noninjectivity_degree,
    region_contains,
    reproduce_table,
)
from lemniscates.curves import SampledCurve, is_jordan, winding_number, winding_numbers
from lemniscates.errors import ChainClosureError, PreconditionError
from lemniscates.polynomials import roots_flat

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
    with pytest.raises(ChainClosureError):
        build_boundary(f4, chain_from_table(rows), step=0.02)


def test_region_contains(d4_chain):
    assert region_contains(d4_chain, d4_chain.vertices.mean())
    assert not region_contains(d4_chain, 10.0)
    with pytest.raises(PreconditionError):
        region_contains(d4_chain, complex(d4_chain.curve.points[7]))


def test_reproduce_table(f4, d4_chain):
    report = reproduce_table(f4, d4_chain)
    assert report.all_ok
    assert len(report.rows) == 10
    by_label = {r.label: r for r in report.rows}
    assert by_label["v11v12"].measured_change == pytest.approx(14 * PI6, abs=1e-3)
    assert by_label["v1v2"].measured_change == pytest.approx(-15 * PI6, abs=1e-3)
    init = by_label["v1v2"].measured_initial_arg
    assert min(init, 2 * np.pi - init) <= 1e-9  # arg 0 up to the 2*pi wrap
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


def test_arcspec_validation():
    with pytest.raises(PreconditionError):
        ArcSpec("level", 1.0, 0.0)
    with pytest.raises(PreconditionError):
        ArcSpec("gradient", 1.0, -2.0)
    with pytest.raises(PreconditionError):
        ArcSpec("surface", 1.0, 1.0)
