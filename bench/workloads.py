"""The benchmark workloads: seeded input generators, one op each, and
the per-op correctness check against the tolerances pinned by
`tests/test_acceptance.py`.

Every workload calls the public functions of `lemniscates` through their
module (`counterexample.build_boundary`, not an imported name), so that the
traced run can wrap them in place.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from lemniscates import counterexample, curves, fingerprint
from lemniscates.errors import PreconditionError
from lemniscates.polynomials import Polynomial, critical_values

# tolerances pinned by the acceptance suite
TABLE_TOL = 1e-3           # rad, criterion 1
MODULUS_RTOL = 1e-6        # relative |f| deviation, criterion 1
CLOSURE_FACTOR = 1e-6      # closure residual / diameter, criterion 2
JORDAN_TOL = 1e-9          # criterion 2
RESIDUAL_TOL = 1e-4        # rad, criteria 4-5
NONINJ_DEGREE = 2          # criterion 3


@dataclass(frozen=True)
class Check:
    ok: bool
    digits: float | None    # min log10(tolerance / error) over the checked figures
    summary: tuple          # the op's results, compared bit for bit across runs


@dataclass(frozen=True)
class Workload:
    name: str
    op: str      # what one op does
    check: str   # what each op's output must satisfy
    why: str     # why the workload is in the benchmark
    setup: Callable[[np.random.Generator], list]   # seeded op inputs
    run: Callable[[Any], Any]                       # one op on one input
    verify: Callable[[Any], Check]                  # check of one op's output


def _digits(tol: float, err: float) -> float:
    return math.log10(tol / max(err, 1e-300))


# -- d4_table --------------------------------------------------------------------


def _d4_table_setup(rng):
    rows = counterexample.d4_table()
    return [rows[k:] + rows[:k] for k in (int(i) for i in rng.permutation(len(rows)))]


def _d4_table_run(rows):
    f4 = counterexample.f4_polynomial()
    chain = counterexample.build_boundary(
        f4,
        counterexample.chain_from_table(rows),
        start_arg=rows[0].initial_arg,
        step=0.01,
    )
    return chain, counterexample.reproduce_table(f4, chain)


def _d4_table_verify(out):
    chain, report = out
    change = max(r.change_deviation for r in report.rows)
    modulus = max(r.modulus_rel_deviation for r in report.rows)
    closure_tol = CLOSURE_FACTOR * chain.diameter()
    ok = (
        report.all_ok
        and chain.closure_residual <= closure_tol
        and curves.is_jordan(chain.curve, tol=JORDAN_TOL)
    )
    digits = min(
        _digits(TABLE_TOL, change),
        _digits(MODULUS_RTOL, modulus),
        _digits(closure_tol, chain.closure_residual),
    )
    summary = (chain.closure_residual,) + tuple(
        (r.measured_change, r.modulus_rel_deviation) for r in report.rows
    )
    return Check(bool(ok), digits, summary)


# -- d4_noninj -------------------------------------------------------------------


def _d4_noninj_setup(rng):
    chain = counterexample.build_d4_chain(step=0.01)
    grids = [
        counterexample.PolarGrid(
            360, 100, float(rng.uniform(0.155, 0.17)), float(rng.uniform(7.8, 7.95))
        )
        for _ in range(64)
    ]
    return [(chain, grid) for grid in grids]


def _d4_noninj_run(case):
    chain, grid = case
    return counterexample.noninjectivity_degree(counterexample.f4_polynomial(), chain, grid)


def _d4_noninj_verify(res):
    return Check(res.degree == NONINJ_DEGREE, None, (res.degree, res.n_evaluated, res.n_skipped))


# -- fingerprint -----------------------------------------------------------------


def _base_curves():
    return [curves.unit_circle(512), curves.ellipse(1.0, 0.6, 512)]


def _well_inside(p, gamma) -> bool:
    """p(0) and every critical value lie inside gamma scaled by 1/2.

    This makes p proper for gamma with 0 inside the pseudo-lemniscate, as
    identity_report requires, and keeps the pseudo-lemniscate away from
    pinching: when p(0) or a critical value comes close to gamma the interior
    maps crowd and a fixed 2048-node solve raises SolverError.
    """
    try:
        return all(
            curves.winding_number(gamma, 2.0 * w) == 1
            for w in [p(0.0), *critical_values(p)]
        )
    except PreconditionError:  # a point on the curve
        return False


def _fingerprint_setup(rng):
    gammas = _base_curves()
    cases = []
    for i in range(24):
        gamma = gammas[i % 2]
        d = int(rng.integers(2, 5))
        while True:  # input conditions, drawn before timing
            roots = rng.normal(0, 0.5, d) + 1j * rng.normal(0, 0.5, d)
            p = Polynomial.from_roots(roots, leading=float(np.exp(rng.uniform(-0.5, 0.5))))
            if _well_inside(p, gamma):
                break
        cases.append((p, gamma))
    return cases


def _fingerprint_run(case):
    p, gamma = case
    return fingerprint.identity_report(p, gamma, samples=512, nodes=2048)


def _fingerprint_verify(rep):
    ok = rep.residual <= RESIDUAL_TOL
    ok = ok and rep.k_p.check_monotone() and rep.k_gamma.check_monotone()
    return Check(bool(ok), _digits(RESIDUAL_TOL, rep.residual), (rep.residual,))


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "d4_table",
            op="build_boundary over the ten level rows rotated by a seeded offset "
            "(start_arg = first row's initial argument), then reproduce_table",
            check="all rows ok, closure <= 1e-6 * diameter, is_jordan(tol=1e-9)",
            why="levelcurves continuation dominates; the winding kernel and conformal idle",
            setup=_d4_table_setup,
            run=_d4_table_run,
            verify=_d4_table_verify,
        ),
        Workload(
            "d4_noninj",
            op="noninjectivity_degree on a 360x100 polar grid, moduli jittered "
            "within [0.155, 0.17] x [7.8, 7.95]; the chain is built in setup",
            check="degree == 2",
            why="winding_numbers with the near-hit margin on a 5,550-vertex image polygon; "
            "levelcurves idle",
            setup=_d4_noninj_setup,
            run=_d4_noninj_run,
            verify=_d4_noninj_verify,
        ),
        Workload(
            "fingerprint",
            op="identity_report(p, gamma, samples=512, nodes=2048), p of degree 2-4 with "
            "p(0) and its critical values inside gamma/2, gamma alternating circle/ellipse",
            check="residual <= 1e-4, check_monotone on k_p and k_gamma",
            why="the conformal solve dominates, plus is_jordan and the pseudo-lemniscate "
            "tracer; the memory-heavy workload",
            setup=_fingerprint_setup,
            run=_fingerprint_run,
            verify=_fingerprint_verify,
        ),
    ]
}
