import numpy as np
import pytest

from lemniscates._fourier import _freqs, trig_eval_deriv


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
