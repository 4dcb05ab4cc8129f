import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lemniscates._fourier import _freqs, deriv_coeffs, trig_eval, trig_eval_deriv, trig_grid


def _deriv_reference(coeffs, t):
    """trig_eval_deriv's former blocked loop, kept as the reference."""
    n = coeffs.size
    k = _freqs(n)
    dc = coeffs * 1j * k
    if n % 2 == 0:
        dc[n // 2] = 0.0
    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.zeros(t.shape, dtype=complex)
    block = max(1, int(2_000_000 // n))
    for i in range(0, t.size, block):
        tb = t[i : i + block]
        out[i : i + block] = np.exp(1j * np.outer(tb, k)) @ dc
    return out


@pytest.mark.parametrize("n", [7, 8, 512, 513, 2048])
def test_trig_eval_deriv_matches_blocked_loop_exactly(n, rng):
    coeffs = rng.normal(size=n) + 1j * rng.normal(size=n)
    t = np.concatenate([rng.uniform(0, 2 * np.pi, 1500), [0.0, np.pi]])
    assert np.array_equal(trig_eval_deriv(coeffs, t), _deriv_reference(coeffs, t))


@settings(max_examples=25)
@given(
    n=st.sampled_from([7, 8, 512, 513]),
    size=st.sampled_from(["m < N", "m = N", "m > N"]),
    frac=st.floats(0.0, 1.0),
    deriv=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_trig_grid_matches_trig_eval(n, size, frac, deriv, seed):
    m = {"m < N": 1 + int(frac * (n - 2)), "m = N": n, "m > N": n + 1 + int(frac * 2 * n)}[size]
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=n) + 1j * rng.normal(size=n)
    t = 2 * np.pi * np.arange(m) / m
    if deriv:
        coeffs, ref = deriv_coeffs(coeffs), trig_eval_deriv(coeffs, t)
    else:
        ref = trig_eval(coeffs, t)
    got = trig_grid(coeffs, m)
    assert got.shape == (m,)
    assert np.max(np.abs(got - ref)) <= 1e-13 * (1 + np.sum(np.abs(coeffs)))
