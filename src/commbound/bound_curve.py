"""Bound curves: affine lines delta -> m*delta + b and their lower envelopes.

The circle layer's truncation envelope and the sqrt layer's gamma0 are
both BoundCurves; this module depends on numpy alone, so either layer
loads without the other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "BoundCurve",
    "BoundLine",
]


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
