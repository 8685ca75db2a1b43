"""Upper-bound curves and the constructive lower bound for unitary commutators.

The quantity bounded is the worst case of ||[f(V), A]|| over unitaries V
and contractions A with ||[V, A]|| <= delta.  Upper bounds are affine
lines delta -> m*delta + b collected into lower envelopes; the lower
bound comes from evaluating f at pairs of nearby spectral points.
"""

from __future__ import annotations

import numpy as np

from .bound_curve import BoundCurve, BoundLine
from .periodic_fn import (
    PeriodicFunction,
    TrigPolynomial,
    chebyshev_radius,
    derivative_fourier_norm,
    TWO_PI,
    _coefficients,
    _dyadic_l1,
    _golden_max,
    _grid,
    _reduce_angle,
    _refine_peaks,
    _row_peaks,
    _running_sums,
    _signed_orders,
    _smallest_disk,
)

__all__ = [
    "continuity_bound",
    "eta_lower",
    "folk_line",
    "split_line",
    "truncation_envelope",
]

_LOWER_CHUNK = 2 ** 19   # offsets x points per block of the complex scan
_LOWER_BLOCK = 2 ** 14   # samples or deltas per block of eta_lower's passes


def folk_line(g: TrigPolynomial) -> BoundLine:
    """Slope-only bound ||[g(V), A]|| <= (sum |n a_n|) ||[V, A]||."""
    return BoundLine(derivative_fourier_norm(g), 0.0, 2.0, "folk")


def _remainder(f: PeriodicFunction, g: TrigPolynomial) -> PeriodicFunction:
    def rule(x):
        return f.sample(x) - g.sample(x)

    return PeriodicFunction(rule, real_valued=f.real_valued and g.real_valued,
                            name="%s remainder" % (f.name or "f"))


def split_line(f: PeriodicFunction, g: TrigPolynomial) -> BoundLine:
    """Bound from the split f = g + h: slope from g, intercept from h.

    The intercept is twice the Chebyshev radius of the remainder, which for
    real h equals max(h) - min(h).
    """
    h = _remainder(f, g)
    return BoundLine(derivative_fourier_norm(g), 2.0 * chebyshev_radius(h),
                     2.0, "split")


def _corollary_tails(f, N_max):
    """[2 * sum_{|n|>N} |a_n| for N = 0..N_max], by closed form when the
    function carries one, else by cutoff summation with a geometric
    remainder estimate over dyadic blocks; None where the tail cannot be
    estimated.  The blocks of every N are summed from one fetch of the
    orders they span."""
    if f.l1_tail_rule is not None:
        return [2.0 * float(f.l1_tail_rule(N)) for N in range(N_max + 1)]
    cut = [max(10 * max(N, 1), N + 8) for N in range(N_max + 1)]
    table = _coefficients(f, _signed_orders(0, 4 * cut[-1]), 1e-6)
    tails = [_dyadic_l1(table, N + 1, c, 2 * c, 4 * c, 1e-6)
             for N, c in enumerate(cut)]
    return [None if t is None else 2.0 * t for t in tails]


def _remainder_rows(f, c, grid_size):
    """One entry per N = 0..N_max for f - g_N, g_N the partial sums of c
    (orders -N_max..N_max), on the grid of grid_size points: for a
    real-valued f the grid peaks (_row_peaks) of f - Re g_N, otherwise the
    radius of the least disk of f - g_N.  The slope sum |n a_n| bounds
    Re g_N's too, so a real f's split holds for any head c.

    f is sampled once where every remainder's rule samples it, and g_N
    is read from _running_sums at the points y where g_N.sample
    evaluates, for a real f in real arithmetic.
    """
    real = f.real_valued
    xs = _reduce_angle(_grid(grid_size))
    fv = f.sample(xs)
    y = _reduce_angle(xs)
    del xs
    return [_row_peaks(fv - g) if real else _smallest_disk(fv - g)[1]
            for g in _running_sums(c, y, real)]


def truncation_envelope(f: PeriodicFunction, N_max: int,
                        grid_size: int = 2 ** 16) -> BoundCurve:
    """Envelope of the truncation bounds for N = 0..N_max.

    For each N the slope is sum_{|n|<=N} |n a_n|.  The intercept is the
    tighter of the remainder oscillation and the coefficient-tail bound
    2 sum_{|n|>N} (|a_n| + |a_-n|); the losing branch's value is retained
    in the provenance string.  A real-valued f's remainder is f - Re g_N.

    Line N = 0 is the flat range bound, so no cap min(2 radius(f), 2 l1) is
    added: the radius is shift-invariant and the tail over |n| >= 1 is at
    most l1 = sum |a_n|.  A cap's l1 branch wins only where 2 l1_est <
    osc_est - 1e-12; as osc_est <= 2 radius(f) <= 2 l1_true, that is only
    where the l1 estimate falls below the true sum, and gives no bound.

    Coefficients come from best-effort quadrature estimates, so slowly
    converging integrands still produce lines: the oscillation intercept
    certifies the split against the polynomial actually built, and any
    residual coefficient error is charged to the tail intercept before
    the two branches are compared.
    """
    N_max = int(N_max)
    if N_max < 0:
        raise ValueError("N_max must be nonnegative")
    ns = _signed_orders(0, N_max)
    c = np.zeros(2 * N_max + 1, dtype=np.complex128)   # a_n at n + N_max
    c[ns + N_max], err = _coefficients(f, ns, 1e-10)
    # err_run[k]: the errors of the orders |n| < k, added one by one
    err_run = [0.0] + np.cumsum(err)[::2].tolist()

    def values(r, t):
        # a bracket's value is the one a lone search of its remainder
        # computes: copies of every running sum, indexed by degree
        t = _reduce_angle(t)
        gv = [g.copy() for g in _running_sums(c, _reduce_angle(t), True)]
        return f.sample(t) - np.array(gv)[r, np.arange(t.size)]

    radii = rows = _remainder_rows(f, c, grid_size)
    if f.real_valued:
        # the grid is built once the sweep has freed its arrays; the
        # searches read only the peaks' points
        lo, hi = _refine_peaks(_grid(grid_size), rows, values)
        radii = (0.5 * (hi - lo)).tolist()
    tails = _corollary_tails(f, N_max)
    lines = []
    for N in range(N_max + 1):
        a = c[N_max - N:N_max + N + 1]
        m = float(np.sum(np.abs(np.arange(-N, N + 1) * a)))
        b_lemma = 2.0 * radii[N]
        b_tail = tails[N]
        if b_tail is not None:
            # the tail certificate speaks about the exact truncation; shifting
            # it to the estimated polynomial costs the accumulated head error
            b_tail += 2.0 * err_run[N + 1]
        if b_tail is not None and b_tail < b_lemma:
            b, branch = b_tail, "tail"
            other = " [oscillation b=%.6g]" % b_lemma
        else:
            b, branch = b_lemma, "oscillation"
            other = "" if b_tail is None else " [tail b=%.6g]" % b_tail
        prov = "truncation N=%d (%s)" % (N, branch) + other
        lines.append(BoundLine(m, b, 2.0, prov))
    return BoundCurve(lines)


def _best_by_offset(vals, d_max):
    """Largest |vals[i+d] - vals[i]| per circular offset d = 1..d_max
    (entry 0 is 0), scanned in blocks of offsets."""
    n = vals.shape[0]
    shifted = np.lib.stride_tricks.sliding_window_view(
        np.concatenate((vals, vals[:d_max])), n)   # row d is vals rolled by d
    best = np.zeros(d_max + 1)
    step = max(1, _LOWER_CHUNK // n)
    for s in range(1, d_max + 1, step):
        block = shifted[s:s + step]
        best[s:s + block.shape[0]] = np.max(np.abs(block - vals), axis=1)
    return best


def _window_ranges(vals):
    """For real samples vals on a circle of n points, a function mapping an
    int array of offsets d <= n // 2 to the largest |vals[j] - vals[i]| over
    pairs at most d apart, equal bit for bit to
    np.maximum.accumulate(_best_by_offset(vals, n // 2))[d].

    Those pairs are the pairs inside the circular windows of d + 1 samples,
    and round-to-nearest subtraction is monotone, so the value is the
    largest fl(max - min) over the windows.  A doubling table holds the max
    and min of every window of 2^k samples; a window of d + 1 samples is
    the union of two of them.  Only the distinct offsets asked for are
    evaluated, in blocks of about _LOWER_BLOCK samples.
    """
    n = vals.size
    hi = [np.concatenate((vals, vals[:n // 2]))]
    lo = hi[:]
    while 2 ** len(hi) <= n // 2 + 1:
        s = 2 ** (len(hi) - 1)
        hi.append(np.maximum(hi[-1][:-s], hi[-1][s:]))
        lo.append(np.minimum(lo[-1][:-s], lo[-1][s:]))
    rows = max(1, _LOWER_BLOCK // n)

    def ranges(d):
        u, inv = np.unique(d, return_inverse=True)
        k = np.frexp(u + 1)[1] - 1        # 2^k <= d + 1 < 2^(k+1)
        shift = u + 1 - 2 ** k
        out = np.zeros(u.size)            # offset 0 (level 0) spans no pair
        for level in range(1, len(hi)):
            at = np.flatnonzero(k == level)
            top = np.lib.stride_tricks.sliding_window_view(hi[level], n)
            bot = np.lib.stride_tricks.sliding_window_view(lo[level], n)
            for s in range(0, at.size, rows):
                j = at[s:s + rows]
                wide, low = top[shift[j]], bot[shift[j]]
                np.maximum(wide, top[0], out=wide)
                np.subtract(wide, np.minimum(low, bot[0], out=low), out=wide)
                # abs: a window of zeros may give -0 where the scan gives +0
                out[j] = np.abs(np.max(wide, axis=1))
        return out[inv.reshape(d.shape)]

    return ranges


def _lower_table(f: PeriodicFunction, grid_size: int):
    """(x, vals, ranges) for the grid of grid_size points: ranges maps
    offsets d <= grid_size // 2 to the largest sample difference over grid
    pairs at most d apart."""
    x = -np.pi + TWO_PI * np.arange(grid_size) / grid_size
    vals = f.sample(x)
    if np.iscomplexobj(vals):
        # a complex window's diameter does not split into two halves
        ranges = np.maximum.accumulate(
            _best_by_offset(vals, grid_size // 2)).__getitem__
    else:
        ranges = _window_ranges(vals)
    return x, vals, ranges


def eta_lower(f: PeriodicFunction, delta, grid_size: int = 4096):
    """Constructive lower bound: the largest |f(x2) - f(x1)| over pairs
    whose circular distance is at most 2 arcsin(delta/2).

    Grid pairs at all admissible offsets are combined with an exact
    full-width pair scan and one golden-section refinement around the best
    full-width pair; ties go to the smaller x1.

    delta may be a float (returns a float) or an array (returns an array
    of the same shape).  The scan runs in blocks of about _LOWER_BLOCK
    samples and the searches for all deltas in lockstep, in blocks of
    _LOWER_BLOCK deltas; each entry equals the scalar call bit for bit.
    """
    if (isinstance(grid_size, bool)
            or not isinstance(grid_size, (int, np.integer)) or grid_size < 1):
        raise ValueError("grid_size must be an integer >= 1, got %r"
                         % (grid_size,))
    scalar = np.ndim(delta) == 0
    deltas = np.asarray(delta, dtype=float)
    if not np.all((deltas >= 0.0) & (deltas < 2.0)):
        raise ValueError("delta must lie in [0, 2)")
    flat = deltas.ravel()
    out = np.zeros(flat.size)
    pos = np.flatnonzero(flat)
    if pos.size:
        G = int(grid_size)
        x, vals, ranges = _lower_table(f, G)
        h = TWO_PI / G
        w = 2.0 * np.arcsin(0.5 * flat[pos])
        d_max = np.floor(w / h).astype(np.int64)
        d_max[d_max * h > w] -= 1
        best = ranges(np.minimum(d_max, G // 2))
        # pairs at separation exactly w, one endpoint on the grid
        i0 = np.empty(w.size, dtype=np.int64)
        rows = max(1, _LOWER_BLOCK // G)
        for s in range(0, w.size, rows):
            j = slice(s, s + rows)
            diffs = np.abs(f.sample(x + w[j, None]) - vals)
            i0[j] = np.argmax(diffs, axis=1)
            best[j] = np.maximum(best[j], diffs[np.arange(len(diffs)), i0[j]])
        for s in range(0, w.size, _LOWER_BLOCK):
            j = slice(s, s + _LOWER_BLOCK)
            t = x[i0[j]]
            best[j] = np.maximum(best[j], _golden_max(
                lambda t, w=w[j]: np.abs(f.sample(t + w) - f.sample(t)),
                t - h, t + h))
        out[pos] = best
    return float(out[0]) if scalar else out.reshape(deltas.shape)


def continuity_bound(curve: BoundCurve, d: float) -> float:
    """Upper bound on ||f(V) - f(V1)|| given ||V - V1|| = d, via the curve."""
    d = float(d)
    if not 0.0 <= d <= 2.0:
        raise ValueError("d must lie in [0, 2]")
    return curve.evaluate(d)
