"""A frozen copy of truncation_envelope's lines as they were before the
remainder sweep wrote its orders into reused grid arrays: the sweep, the
pair term and the partial sums it runs, each allocating its arrays anew.
The coefficient fetch, the extents, the disks and the tail bound come from
commbound itself.  Tests compare the current envelope with it bit for bit;
do not edit it to follow changes in circle_bounds or periodic_fn.
"""

import numpy as np

from commbound.circle_bounds import _corollary_tails
from commbound.periodic_fn import (
    _coefficients,
    _grid,
    _reduce_angle,
    _refine_peaks,
    _row_peaks,
    _signed_orders,
    _smallest_disk,
)


def _refined_extent(x, rows, values):
    return _refine_peaks(x, [_row_peaks(v) for v in rows], values)


def _pair_term(a_pos, a_neg, k, x):
    e = np.exp(1j * (k * x))
    c = np.empty_like(e)
    c.real = e.real
    np.subtract(0.0, e.imag, out=c.imag)
    return a_pos * e + a_neg * c


def _partial_sums(coeffs, x):
    d = coeffs.size // 2
    k = np.arange(1, d + 1)[:, None]
    terms = np.empty((d + 1, x.size), dtype=np.complex128)
    terms[0] = coeffs[d]
    terms[1:] = _pair_term(coeffs[d + 1:, None], coeffs[:d][::-1, None], k, x)
    return np.cumsum(terms, axis=0, out=terms)


def truncation_lines(f, N_max, grid_size=2 ** 16):
    """[(slope, intercept, provenance), ...] of the truncation lines
    N = 0..N_max, without the constant cap."""
    N_max = int(N_max)
    ns = _signed_orders(0, N_max)
    c = np.zeros(2 * N_max + 1, dtype=np.complex128)
    c[ns + N_max], err = _coefficients(f, ns, 1e-10)
    err_run = [0.0] + np.cumsum(err)[::2].tolist()
    x = _grid(grid_size)
    xs = _reduce_angle(x)
    fv = np.asarray(f.sample(xs))
    y = _reduce_angle(xs)
    heads = [c[N_max - N:N_max + N + 1] for N in range(N_max + 1)]
    real_g = [bool(np.all(a[::-1] == np.conj(a))) for a in heads]
    real = [N for N in range(N_max + 1) if f.real_valued and real_g[N]]
    radii = {}

    def real_remainders():
        g = np.full(x.size, c[N_max])
        for N in range(N_max + 1):
            if N:
                g += _pair_term(c[N_max + N], c[N_max - N], N, y)
            r = fv - (g.real if real_g[N] else g)
            if N in real:
                yield np.real(r)
            else:
                radii[N] = _smallest_disk(r)[1]

    def values(r, t):
        t = _reduce_angle(t)
        top = real[-1]
        gv = _partial_sums(c[N_max - top:N_max + top + 1], _reduce_angle(t))
        return np.real(np.asarray(f.sample(t))
                       - gv[np.asarray(real)[r], np.arange(t.size)].real)

    lo, hi = _refined_extent(x, real_remainders(), values)
    for N, a, b in zip(real, lo, hi):
        radii[N] = 0.5 * (float(b) - float(a))
    tails = _corollary_tails(f, N_max)
    lines = []
    for N, a in enumerate(heads):
        m = float(np.sum(np.abs(np.arange(-N, N + 1) * a)))
        b_lemma = 2.0 * radii[N]
        b_tail = tails[N]
        if b_tail is not None:
            b_tail += 2.0 * err_run[N + 1]
        if b_tail is not None and b_tail < b_lemma:
            b, branch = b_tail, "tail"
            other = " [oscillation b=%.6g]" % b_lemma
        else:
            b, branch = b_lemma, "oscillation"
            other = "" if b_tail is None else " [tail b=%.6g]" % b_tail
        prov = "truncation N=%d (%s)" % (N, branch) + other
        lines.append((m, b, prov))
    return lines
