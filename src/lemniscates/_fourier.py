"""Trigonometric interpolation helpers for uniformly sampled periodic data.

All routines treat `vals[j]` as samples at t_j = 2*pi*j/N. The Nyquist bin
of even-length data is interpreted symmetrically (as a cosine), which keeps
resampling and differentiation self-consistent.
"""
from __future__ import annotations

import numpy as np


def fourier_coeffs(vals: np.ndarray) -> np.ndarray:
    return np.fft.fft(np.asarray(vals, dtype=complex)) / len(vals)


def _freqs(n: int) -> np.ndarray:
    return np.fft.fftfreq(n, d=1.0 / n)  # integer frequencies


def trig_eval(coeffs: np.ndarray, t) -> np.ndarray:
    """Evaluate the interpolant at arbitrary angles t (scalar or array)."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    n = coeffs.size
    k = _freqs(n)
    out = np.zeros(t.shape, dtype=complex)
    # 4 MB of phases per block: larger blocks (32 MB) could stay in the
    # process heap after the call and add to the next caller's peak
    block = max(1, int(250_000 // n))
    for i in range(0, t.size, block):
        tb = t[i : i + block]
        phase = np.exp(1j * np.outer(tb, k))
        if n % 2 == 0:
            phase[:, n // 2] = np.cos(tb * (n // 2))
        out[i : i + block] = phase @ coeffs
    return out


def deriv_coeffs(coeffs: np.ndarray) -> np.ndarray:
    """Coefficients of the interpolant's derivative."""
    n = coeffs.size
    dc = coeffs * 1j * _freqs(n)
    if n % 2 == 0:
        dc[n // 2] = 0.0  # Nyquist cosine term: keep the symmetric (zero-mean) choice
    return dc


def trig_eval_deriv(coeffs: np.ndarray, t) -> np.ndarray:
    """Evaluate the derivative of the interpolant at angles t."""
    return trig_eval(deriv_coeffs(coeffs), t)


def trig_grid(coeffs: np.ndarray, m: int) -> np.ndarray:
    """The interpolant at the m angles 2*pi*j/m, j = 0..m-1, by one inverse
    FFT: frequency k contributes to bin k mod m, and an even-length Nyquist
    cosine splits into frequencies +-N/2. Exact for any m (up to rounding)."""
    n = coeffs.size
    k = _freqs(n).astype(int)
    c = np.asarray(coeffs, dtype=complex)
    if n % 2 == 0:
        k = np.append(k, n // 2)
        c = np.append(c, 0.5 * c[n // 2])
        c[n // 2] *= 0.5
    bins = np.zeros(m, dtype=complex)
    np.add.at(bins, k % m, c)
    return np.fft.ifft(bins) * m


def trig_diff(vals: np.ndarray) -> np.ndarray:
    """Spectral derivative sampled at the nodes."""
    return np.fft.ifft(deriv_coeffs(fourier_coeffs(vals)) * len(vals))


def trig_resample(vals: np.ndarray, m: int) -> np.ndarray:
    """Band-limited resampling of N uniform samples to M uniform samples."""
    vals = np.asarray(vals, dtype=complex)
    n = vals.size
    if m == n:
        return vals.copy()
    c = np.fft.fft(vals)
    out = np.zeros(m, dtype=complex)
    half = min(n, m) // 2
    out[: half + (1 if min(n, m) % 2 else 0)] = c[: half + (1 if min(n, m) % 2 else 0)]
    out[m - half + 1 :] = c[n - half + 1 :]
    if min(n, m) % 2 == 0:
        if m > n:  # split the Nyquist bin symmetrically when upsampling
            out[half] = 0.5 * c[half]
            out[m - half] = 0.5 * c[half]
        else:  # fold the two bins when downsampling
            out[half] = c[half] + c[n - half]
    return np.fft.ifft(out) * (m / n)
