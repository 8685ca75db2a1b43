"""Frozen copies of replaced periodic_fn code: TrigPolynomial's rule as a
complex direct sum for every series, a ladder level that samples one
subgrid per call, and the builtin bump's rule with its support mask.
Tests compare the current code with them bit for bit; do not edit them to
follow changes in periodic_fn.
"""

import numpy as np

from frozen_envelope import _partial_sums

_TERMS_PER_CHUNK = 2 ** 20


def trig_rule(coefficients):
    """The rule of TrigPolynomial(coefficients): at each point a_0 plus the
    complex pair terms of orders 1..N, summed in that order, in chunks of
    at most _TERMS_PER_CHUNK terms; the real part when the coefficients are
    conjugate-symmetric."""
    items = {int(n): complex(a) for n, a in coefficients.items()}
    degree = max((abs(n) for n in items), default=0)
    coeffs = np.zeros(2 * degree + 1, dtype=np.complex128)
    for n, a in items.items():
        coeffs[n + degree] = a
    real = bool(np.all(coeffs[::-1] == np.conj(coeffs)))

    def rule(x):
        x = np.asarray(x, dtype=float)
        flat, out = x.ravel(), np.empty(x.size, dtype=np.complex128)
        step = max(1, _TERMS_PER_CHUNK // (degree + 1))
        for s in range(0, x.size, step):
            out[s:s + step] = _partial_sums(coeffs, flat[s:s + step])[-1]
        return (out.real if real else out).reshape(x.shape)

    return rule


def add_level(ladder, f):
    """_TrapezoidLadder._add_level sampling, transforming and folding one
    2^14-point subgrid per call."""
    B = 2 ** 14
    L = len(ladder.est)
    K = B << max(L - 1, 0)
    start = 0.5 if L else 0.0
    step = 2.0 * np.pi / K
    P = K // B
    ns = np.arange(0 if ladder.real else -ladder.M, ladder.M + 1)
    r = ns % B
    fold = np.minimum(r, B - r) if ladder.real else r
    for q in range(P):
        v = f.sample(-np.pi + step * (start + q + P * np.arange(B)))
        if ladder.real:
            bins = np.fft.rfft(np.real(v))[fold]
            bins = np.where(r > B // 2, np.conj(bins), bins)
        else:
            bins = np.fft.fft(v)[fold]
        term = np.exp(-1j * (step * (start + q)) * ns) * bins
        sums = sums + term if q else term
    sums *= np.where(ns % 2, -1.0, 1.0)
    ladder.total = ladder.total + sums if L else sums
    ladder.est.append(ladder.total / (B << L))


def bump_rule(x):
    """The builtin bump's rule with its support mask."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    m = np.abs(x) <= np.pi / 2
    out[m] = np.sqrt(np.maximum(0.0, 1.0 - 4.0 * x[m] ** 2 / np.pi ** 2))
    return out
