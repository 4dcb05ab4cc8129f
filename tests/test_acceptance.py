"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured figures (run with `pytest tests/test_acceptance.py -v -s`).
Every tolerance is pinned here, not configurable."""
import time

import numpy as np
import pytest

from lemniscates.conformal import exterior_map, interior_map
from lemniscates.counterexample import (
    PolarGrid,
    build_boundary,
    chain_from_table,
    d4_table,
    f4_polynomial,
    noninjectivity_degree,
    reproduce_table,
)
from lemniscates.curves import (
    count_preimages,
    ellipse,
    is_jordan,
    unit_circle,
)
from lemniscates.fingerprint import (
    circle_map_of_blaschke,
    identity_report,
    is_proper,
    is_proper_oracle,
    nth_root_lift,
)
from lemniscates.polynomials import Polynomial, RationalMap

PI6 = np.pi / 6

# circle maps produced during this run, audited by criterion 9
CIRCLE_MAPS: list = []


def _record(*maps):
    CIRCLE_MAPS.extend(maps)


@pytest.fixture(scope="module")
def chain_timing():
    t0 = time.monotonic()
    chain = build_boundary(f4_polynomial(), chain_from_table(d4_table()), step=0.01)
    return chain, time.monotonic() - t0


def test_criterion_1_table_reproduction(chain_timing):
    """Rebuild the region from the tabulated data and re-measure each arc."""
    chain, elapsed = chain_timing
    report = reproduce_table(f4_polynomial(), chain)
    assert len(report.rows) == 10
    worst_change = max(r.change_deviation for r in report.rows)
    worst_mod = max(r.modulus_rel_deviation for r in report.rows)
    by_label = {r.label: r for r in report.rows}
    assert by_label["v5v6"].measured_change == pytest.approx(7 * PI6, abs=1e-3)
    assert by_label["v1v2"].measured_change == pytest.approx(-15 * PI6, abs=1e-3)
    assert by_label["v11v12"].measured_change == pytest.approx(14 * PI6, abs=1e-3)
    assert by_label["v13v14"].measured_change == pytest.approx(-14 * PI6, abs=1e-3)
    assert worst_change <= 1e-3
    assert worst_mod <= 1e-6
    assert elapsed <= 60.0
    print(
        f"\nACCEPTANCE 1: PASS - 10/10 arcs, max |d arg| dev {worst_change:.2e} rad "
        f"(tol 1e-3), max |f| rel dev {worst_mod:.2e} (tol 1e-6), build {elapsed:.1f}s <= 60s"
    )


def test_criterion_2_closure_and_jordan(chain_timing):
    chain, _ = chain_timing
    tol = 1e-6 * chain.diameter()
    assert chain.closure_residual <= tol
    assert is_jordan(chain.curve, tol=1e-9)
    numerators = [round(r.total_change / PI6) for r in d4_table()]
    assert sum(numerators) == 0  # exact zero in pi/6 units
    measured = sum(r.measured_change for r in reproduce_table(f4_polynomial(), chain).rows)
    assert abs(measured) <= 1e-3
    print(
        f"\nACCEPTANCE 2: PASS - closure {chain.closure_residual:.2e} <= {tol:.2e}, "
        f"Jordan ok, tabulated change sum exactly 0, measured sum {measured:.2e} <= 1e-3"
    )


def test_criterion_3_noninjectivity_degree(chain_timing):
    chain, _ = chain_timing
    f4 = f4_polynomial()
    t0 = time.monotonic()
    base = noninjectivity_degree(f4, chain, PolarGrid(360, 100, 0.16, 7.9))
    fine = noninjectivity_degree(f4, chain, PolarGrid(720, 200, 0.16, 7.9))
    elapsed = time.monotonic() - t0
    assert base.degree == 2
    assert fine.degree == 2
    assert elapsed <= 300.0
    print(
        f"\nACCEPTANCE 3: PASS - N(f4,D4) = {base.degree} on 360x100 "
        f"({base.n_evaluated} targets, {base.n_skipped} skipped), stable at 720x200 "
        f"({fine.n_evaluated} targets), {elapsed:.0f}s <= 300s"
    )


def test_criterion_4_factorization_identity_circle():
    """Degree-2 instance over the unit circle: the fingerprint factors
    through the Blaschke model, and the residual shrinks with resolution."""
    p = Polynomial([-0.1, 0, 1])
    gamma = unit_circle(512)
    rep = identity_report(p, gamma, samples=512, nodes=1024)
    rep2 = identity_report(p, gamma, samples=512, nodes=2048)
    _record(rep.k_p, rep.k_gamma, rep2.k_p, rep2.k_gamma)
    assert rep.residual <= 1e-4
    assert rep2.residual < rep.residual
    print(
        f"\nACCEPTANCE 4: PASS - residual {rep.residual:.2e} <= 1e-4 at 1024 nodes, "
        f"{rep2.residual:.2e} at 2048 (decreasing)"
    )


def test_criterion_5_factorization_identity_general():
    gamma = ellipse(1.0, 0.6, 512)
    rep = identity_report(Polynomial([0, -0.3, 0, 1]), gamma, samples=512, nodes=1024)
    _record(rep.k_p, rep.k_gamma)
    assert rep.residual <= 1e-4
    exact = []
    T = unit_circle(512)
    for n in (1, 2, 3, 4):
        r = identity_report(Polynomial([0] * n + [1]), T, samples=512, nodes=512)
        _record(r.k_p, r.k_gamma)
        exact.append(r.residual)
        assert r.residual <= 1e-10
    print(
        f"\nACCEPTANCE 5: PASS - cubic/ellipse residual {rep.residual:.2e} <= 1e-4; "
        f"exact cases n=1..4 max residual {max(exact):.2e} <= 1e-10"
    )


def test_criterion_6_properness_equivalence():
    rng = np.random.default_rng(2024)
    polys = []
    for _ in range(50):
        d = int(rng.integers(2, 5))
        roots = rng.normal(0, 0.75, d) + 1j * rng.normal(0, 0.75, d)
        scale = float(np.exp(rng.uniform(-0.5, 1.6)))
        polys.append(Polynomial.from_roots(roots, leading=scale))
    curves = [unit_circle(512), ellipse(1.0, 0.6, 512)]
    agree = n_proper = n_improper = 0
    for p in polys:
        for gamma in curves:
            direct = is_proper(p, gamma)
            oracle = is_proper_oracle(p, gamma)
            assert direct == oracle
            agree += 1
            n_proper += direct
            n_improper += not direct
    assert agree == 100
    assert n_proper >= 10 and n_improper >= 10
    print(
        f"\nACCEPTANCE 6: PASS - 100/100 agreement, {n_proper} proper, "
        f"{n_improper} improper (both >= 10)"
    )


def test_criterion_7_covering_degree_bookkeeping():
    rng = np.random.default_rng(77)
    T = unit_circle(503)  # odd count: no sample at angle 0 exactly
    worst = 0.0
    for _ in range(20):
        m_in = int(rng.integers(0, 4))
        m_out = int(rng.integers(0, 3))
        n_in = int(rng.integers(0, 2))
        n_out = int(rng.integers(0, 2))
        if m_in + m_out == 0 and n_in + n_out == 0:
            m_in = 1
        def draw(k, lo, hi):
            return (
                rng.uniform(lo, hi, k) * np.exp(2j * np.pi * rng.uniform(0, 1, k))
                if k
                else np.empty(0, dtype=complex)
            )
        num_roots = np.concatenate([draw(m_in, 0.15, 0.75), draw(m_out, 1.3, 2.5)])
        den_roots = np.concatenate([draw(n_in, 0.15, 0.75), draw(n_out, 1.3, 2.5)])
        lead = complex(rng.normal() + 1j * rng.normal()) or 1.0
        num = (
            Polynomial.from_roots(num_roots, leading=lead)
            if num_roots.size
            else Polynomial([lead])
        )
        den = Polynomial.from_roots(den_roots) if den_roots.size else Polynomial([1.0])
        f = RationalMap(num, den)
        k, residual = count_preimages(f, T, 0.0, return_residual=True)
        assert k == m_in - n_in
        worst = max(worst, residual)
    assert worst <= 1e-6
    print(
        f"\nACCEPTANCE 7: PASS - 20/20 seeded rational maps give M - N exactly, "
        f"max pre-rounding residual {worst:.2e} <= 1e-6"
    )


def test_criterion_8_conformal_solver_validation():
    th = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    ident = interior_map(unit_circle(512), nodes=512)
    e_id = float(np.max(np.abs(ident.boundary_forward(th) - np.exp(1j * th))))
    assert e_id <= 1e-8 and abs(ident.center_derivative - 1.0) <= 1e-8

    scaled = interior_map(unit_circle(512, radius=2.0), nodes=512)
    e_sc = float(np.max(np.abs(scaled.boundary_forward(th) - 2 * np.exp(1j * th))))
    assert e_sc <= 1e-8 and abs(scaled.center_derivative - 2.0) <= 1e-8

    off = interior_map(unit_circle(512, center=0.3), nodes=512)
    mob = lambda w: 0.3 + (w - 0.3) / (1 - 0.3 * w)
    e_mob = float(np.max(np.abs(off.boundary_forward(th) - mob(np.exp(1j * th)))))
    rng = np.random.default_rng(5)
    w = 0.9 * np.sqrt(rng.uniform(0, 1, 100)) * np.exp(2j * np.pi * rng.uniform(0, 1, 100))
    e_mob = max(e_mob, float(np.max(np.abs(off.interior_eval(w) - mob(w)))))
    assert e_mob <= 1e-6

    em = exterior_map(ellipse(1.0, 0.6, 512), nodes=512)
    e_a = abs(em.a - 0.8)
    assert e_a <= 1e-4
    print(
        f"\nACCEPTANCE 8: PASS - identity {e_id:.1e} <= 1e-8, scaling {e_sc:.1e} <= 1e-8, "
        f"off-center vs closed form {e_mob:.1e} <= 1e-6, ellipse a dev {e_a:.1e} <= 1e-4"
    )


def test_criterion_9_monotonicity_suite():
    """Audit every degree-1 circle map produced during this run, plus fresh
    fingerprints and root lifts."""
    from lemniscates.fingerprint import BlaschkeProduct, fingerprint_of_curve

    fresh = [fingerprint_of_curve(ellipse(1.0, 0.6, 512), nodes=512)]
    b = BlaschkeProduct([0.4, -0.2 + 0.3j], rotation=np.exp(0.3j))
    fresh.append(nth_root_lift(circle_map_of_blaschke(b, 4096), 2))
    audited = 0
    for cm in CIRCLE_MAPS + fresh:
        if cm.degree != 1:
            continue
        cm.check_monotone(probes=4096, tol=1e-8)
        audited += 1
    assert audited >= 10
    print(
        f"\nACCEPTANCE 9: PASS - {audited} circle maps strictly increasing with "
        f"total lift increase 2*pi (tol 1e-8)"
    )
