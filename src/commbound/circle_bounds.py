"""Upper-bound curves and the constructive lower bound for unitary commutators.

The quantity bounded is the worst case of ||[f(V), A]|| over unitaries V
and contractions A with ||[V, A]|| <= delta.  Upper bounds are affine
lines delta -> m*delta + b collected into lower envelopes; the lower
bound comes from evaluating f at pairs of nearby spectral points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .periodic_fn import (
    PeriodicFunction,
    TrigPolynomial,
    chebyshev_radius,
    derivative_fourier_norm,
    TWO_PI,
    _coefficients,
    _cosine_pairs,
    _cosine_term,
    _dyadic_l1,
    _golden_max,
    _grid,
    _pair_term,
    _partial_sums,
    _reduce_angle,
    _refine_peaks,
    _row_peaks,
    _signed_orders,
    _smallest_disk,
)

__all__ = [
    "BoundCurve",
    "BoundLine",
    "continuity_bound",
    "eta_lower",
    "folk_line",
    "split_line",
    "truncation_envelope",
]

_LOWER_CHUNK = 2 ** 19   # offsets x points per block of the complex scan
_LOWER_BLOCK = 2 ** 14   # samples or deltas per block of eta_lower's passes
                         # and of the truncation envelope's remainder sweep


def _check_line(slope, intercept, delta_max):
    """The checks of a line; a curve passes its least slope and intercept."""
    # not (x >= 0) refuses NaN and passes -0.0
    if not slope >= 0.0:
        raise ValueError("slope must be nonnegative")
    if not intercept >= 0.0:
        raise ValueError("intercept must be nonnegative")
    if not 0.0 < delta_max <= 2.0:
        raise ValueError("delta_max must lie in (0, 2]")


@dataclass(frozen=True)
class BoundLine:
    """Affine bound delta -> slope*delta + intercept on [0, delta_max]; a
    BoundCurve stores its lines as arrays, and line(i) builds one of these."""

    slope: float
    intercept: float
    delta_max: float = 2.0
    provenance: str = ""

    def __post_init__(self):
        _check_line(self.slope, self.intercept, self.delta_max)

    def value(self, delta):
        """slope*delta + intercept, valued by a one-line BoundCurve, so
        delta must lie in [0, delta_max]."""
        return BoundCurve([self]).evaluate(delta)


class BoundCurve:
    """Pointwise minimum of a family of bound lines.

    Evaluation is the minimum over the lines that `_candidates` names, all
    of them here, valued in `_min_over_lines` alone; breakpoint
    segmentation is derived separately for export and must reproduce the
    same values.
    """

    def __init__(self, lines=None, arrays=None, clamp_above=False):
        if arrays is None:
            lines = list(lines)
            if not lines:
                raise ValueError("a bound curve needs at least one line")
            if len({l.delta_max for l in lines}) > 1:
                raise ValueError("bound lines must share one domain")
            provs = [l.provenance for l in lines]
            arrays = ([l.slope for l in lines], [l.intercept for l in lines],
                      lines[0].delta_max, provs.__getitem__)
        m, b, delta_max, self._prov_fn = arrays
        self._m = np.asarray(m, dtype=float)
        self._b = np.asarray(b, dtype=float)
        self.delta_max = float(delta_max)
        if self._m.ndim != 1 or self._m.shape != self._b.shape:
            raise ValueError("slopes and intercepts must be two 1-D arrays "
                             "of one length")
        if self.size == 0:
            raise ValueError("a bound curve needs at least one line")
        # min keeps NaN; initial=inf passes an empty table, whose lines a
        # subclass values in _line_values
        _check_line(self._m.min(initial=np.inf), self._b.min(initial=np.inf),
                    self.delta_max)
        self.clamp_above = bool(clamp_above)

    @property
    def size(self):
        return int(self._m.size)

    def _line_values(self, idx):
        """Slopes and intercepts of the lines at the integer index or
        array idx; every method reads line values through here."""
        return self._m[idx], self._b[idx]

    def line(self, idx) -> BoundLine:
        if isinstance(idx, bool) or not isinstance(idx, (int, np.integer)):
            raise TypeError("line index must be an integer, not %r" % (idx,))
        idx = int(idx)
        if not 0 <= idx < self.size:
            raise IndexError("line index %d outside 0..%d" % (idx, self.size - 1))
        m, b = self._line_values(idx)
        return BoundLine(float(m), float(b), self.delta_max, self._prov_fn(idx))

    def lines(self):
        idx = np.arange(self.size)
        m, b = self._line_values(idx)
        return [BoundLine(mi, bi, self.delta_max, self._prov_fn(i))
                for i, mi, bi in zip(idx.tolist(), m.tolist(), b.tolist())]

    def _lines_from(self, lo):
        """Indices, ascending, of every line that can be least at some
        delta >= lo: here all."""
        return np.arange(self.size)

    def _candidates(self, d):
        """Indices, in index order along the last axis, of the lines to
        compare at deltas d of shape (..., 1): here all lines."""
        return np.arange(self.size)

    def _min_over_lines(self, deltas):
        d = np.asarray(deltas, dtype=float)[..., None]
        idx = self._candidates(d)
        m, b = self._line_values(idx)
        table = m * d + b
        idx = np.broadcast_to(idx, table.shape)
        k = np.argmin(table, axis=-1)[..., None]  # ties go to the first line
        return (np.take_along_axis(table, k, -1)[..., 0],
                np.take_along_axis(idx, k, -1)[..., 0])

    def _check_domain(self, deltas):
        deltas = np.asarray(deltas, dtype=float)
        # not any(< 0) would let NaN through; -0.0 passes
        if not np.all(deltas >= 0.0):
            raise ValueError("delta must be nonnegative")
        if np.any(deltas > self.delta_max) and not self.clamp_above:
            raise ValueError("delta beyond the curve domain [0, %g]" % self.delta_max)
        if self.clamp_above:
            deltas = np.minimum(deltas, self.delta_max)
        return deltas

    def evaluate(self, deltas):
        """Pointwise minimum over the stored lines, exactly."""
        scalar = np.isscalar(deltas) or np.asarray(deltas).ndim == 0
        vals, _ = self._min_over_lines(self._check_domain(deltas))
        return float(vals) if scalar else vals

    def evaluate_with_provenance(self, delta):
        """(value, provenance of the active line) at a float delta, or
        (values, list of provenances in row-major order) at an array."""
        deltas = np.asarray(delta, dtype=float)
        clamped = self._check_domain(deltas)
        vals, idxs = self._min_over_lines(clamped)
        suffix = " (clamped at delta=%g)" % self.delta_max
        provs = [self._prov_fn(i) + (suffix if c != d else "")
                 for i, c, d in zip(idxs.ravel().tolist(),
                                    clamped.ravel().tolist(),
                                    deltas.ravel().tolist())]
        if deltas.ndim == 0:
            return float(vals), provs[0]
        return vals, provs

    def segments(self, lo=0.0, hi=None):
        """Breakpoint segmentation of [lo, hi]: rows (start, end, slope,
        intercept, provenance) of the active lines, read through
        _line_values; no BoundLine is built.

        The minimum of lines is concave, so its active slopes decrease left
        to right.  The lines _lines_from(lo) names, all that can be active
        past lo, are sorted by decreasing slope, keeping the least
        intercept of each slope.  Each pass takes the crossings x of
        neighbouring lines, where a line's successor takes over, and the
        starts max(lo, x), and drops every line whose successor takes over
        no later than its own start, until none drops.  Each pass but the
        last drops a line, so n lines need at most n passes; gamma0 takes
        7, a truncation envelope 2.  lo is checked as evaluate checks a
        delta; hi is cut to the curve's domain.
        """
        lo = float(self._check_domain(lo))
        hi = self.delta_max if hi is None else min(float(hi), self.delta_max)
        if not lo < hi:
            raise ValueError("empty segmentation interval")
        idx = self._lines_from(lo)
        slopes, intercepts = self._line_values(idx)
        k = np.lexsort((intercepts, -slopes))
        m = slopes[k]
        k = k[np.r_[True, m[1:] != m[:-1]]]
        while True:
            m, b = slopes[k], intercepts[k]
            x = (b[1:] - b[:-1]) / (m[:-1] - m[1:])
            starts = np.r_[lo, np.maximum(lo, x)]
            drop = x <= starts[:-1]
            if not drop.any():
                break
            k = k[np.r_[~drop, True]]
        ends = np.minimum(np.r_[starts[1:], hi], hi)
        keep = starts < ends
        k = k[keep]
        return list(zip(starts[keep].tolist(), ends[keep].tolist(),
                        slopes[k].tolist(), intercepts[k].tolist(),
                        map(self._prov_fn, idx[k].tolist())))


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


def _corollary_tail(f, N):
    """2 * sum_{|n|>N} |a_n|, by closed form when the function carries one,
    else by cutoff summation with a geometric remainder estimate over dyadic
    blocks; None when the tail cannot be estimated."""
    if f.l1_tail_rule is not None:
        return 2.0 * float(f.l1_tail_rule(N))
    cutoff = max(10 * max(N, 1), N + 8)
    tail = _dyadic_l1(f, N + 1, cutoff, 2 * cutoff, 4 * cutoff, 1e-6)
    return None if tail is None else 2.0 * tail


def truncation_envelope(f: PeriodicFunction, N_max: int,
                        grid_size: int = 2 ** 16) -> BoundCurve:
    """Envelope of the truncation bounds for N = 0..N_max.

    For each N the slope is sum_{|n|<=N} |n a_n|.  The intercept is the
    tighter of the remainder oscillation and the coefficient-tail bound
    2 sum_{|n|>N} (|a_n| + |a_-n|); the losing branch's value is retained
    in the provenance string.

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
    # g_N's coefficients, with the reality flag a TrigPolynomial would set
    heads = [c[N_max - N:N_max + N + 1] for N in range(N_max + 1)]
    real_g = [bool(np.all(a[::-1] == np.conj(a))) for a in heads]
    real = [N for N in range(N_max + 1) if f.real_valued and real_g[N]]
    radii = {}

    def real_remainders():
        # f - g_N with g_N = g_{N-1} + pair term N, each used as it is made:
        # a real one by the lockstep extent, block by block, a complex one
        # by its disk.  f is sampled once where every remainder's rule
        # samples it, and g_N summed at the points y where g_N.sample
        # evaluates.  Pair terms and remainder blocks are written into
        # block-sized arrays, so a yielded block is overwritten when the
        # next one is asked for; f, y and g_N are freed when the sweep ends
        xs = _reduce_angle(_grid(grid_size))
        fv = f.sample(xs)
        y = _reduce_angle(xs)
        del xs
        B = min(_LOWER_BLOCK, y.size)
        work = (np.empty(B), np.empty(B, dtype=np.complex128),
                np.empty(B, dtype=np.complex128))
        rem = np.empty(B)
        # when every head is conjugate-symmetric only g_N's real part is
        # read, so only that part is summed: a real pair as its cosine
        # term, a zero one not at all (see _cosine_pairs)
        real_sum = real_g[-1]
        cos = _cosine_pairs(c)
        g = np.full(y.size, c[N_max].real if real_sum else c[N_max])
        blocks = [(y[s:s + B], np.real(fv[s:s + B]), g[s:s + B])
                  for s in range(0, y.size, B)]
        for N in range(N_max + 1):
            if N and not cos[N - 1]:
                for t, _, gb in blocks:
                    term = _pair_term(c[N_max + N], c[N_max - N], N, t,
                                      [w[:t.size] for w in work])
                    gb += term.real if real_sum else term
            elif N and c[N_max + N] != 0.0:
                for t, _, gb in blocks:
                    gb += _cosine_term(c[N_max + N].real, N, t,
                                       work[0][:t.size])
            if N in real:
                # the bits of np.real(fv - g.real), for a complex fv too
                yield (np.subtract(fb, gb.real, out=rem[:fb.size])
                       for _, fb, gb in blocks)
            else:
                radii[N] = _smallest_disk(fv - (g.real if real_g[N] else g))[1]

    def values(r, t):
        # a bracket's value is the one a lone search of its remainder
        # computes: all partial sums at once, indexed by degree
        t = _reduce_angle(t)
        top = real[-1]
        gv = _partial_sums(c[N_max - top:N_max + top + 1], _reduce_angle(t))
        return np.real(f.sample(t)
                       - gv[np.asarray(real)[r], np.arange(t.size)])

    peaks = _row_peaks(real_remainders())
    # the grid is built once the sweep has freed its arrays; the searches
    # read only the peaks' points
    lo, hi = _refine_peaks(_grid(grid_size), peaks, values)
    for N, a, b in zip(real, lo, hi):
        radii[N] = 0.5 * (float(b) - float(a))
    lines = []
    for N, a in enumerate(heads):
        m = float(np.sum(np.abs(np.arange(-N, N + 1) * a)))
        b_lemma = 2.0 * radii[N]
        b_tail = _corollary_tail(f, N)
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
    table = f._pair_cache.get(grid_size)
    if table is None:
        x = -np.pi + TWO_PI * np.arange(grid_size) / grid_size
        vals = f.sample(x)
        if np.iscomplexobj(vals):
            # a complex window's diameter does not split into two halves
            ranges = np.maximum.accumulate(
                _best_by_offset(vals, grid_size // 2)).__getitem__
        else:
            ranges = _window_ranges(vals)
        table = (x, vals, ranges)
        f._pair_cache[grid_size] = table
    return table


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
