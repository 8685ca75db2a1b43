"""A frozen copy of BoundCurve.segments as it was before the stack sweep
became one vectorized pass: the per-line convex-hull-of-lines sweep over
every stored line, without the pruning of gamma0's Pedersen lines past
floor(1/lo) + 2, which gave the same segments.  The domain check and
line() come from the curve itself.  Tests compare the current segments()
with it bit for bit; do not edit it to follow changes in circle_bounds.
"""

import numpy as np


def segments(curve, lo=0.0, hi=None):
    """Breakpoint segmentation [(start, end, BoundLine), ...] on [lo, hi]."""
    lo = float(curve._check_domain(lo))
    hi = curve.delta_max if hi is None else min(float(hi), curve.delta_max)
    if not lo < hi:
        raise ValueError("empty segmentation interval")
    m, b = curve._m, curve._b
    order = np.lexsort((b, -m))
    kept = []          # active line indices, slopes decreasing
    starts = []        # delta where kept[i] becomes active

    def cross(i, j):
        # delta where line i and line j meet; slopes differ
        return (b[j] - b[i]) / (m[i] - m[j])

    for idx in order:
        idx = int(idx)
        if kept and m[kept[-1]] == m[idx]:
            continue  # same slope, intercept not smaller
        while kept:
            x = cross(kept[-1], idx)
            if x <= starts[-1]:
                kept.pop()
                starts.pop()
            else:
                break
        start = lo if not kept else max(lo, cross(kept[-1], idx))
        kept.append(idx)
        starts.append(start)
    out = []
    for i, idx in enumerate(kept):
        a = starts[i]
        e = starts[i + 1] if i + 1 < len(kept) else hi
        e = min(e, hi)
        if a < e:
            out.append((float(a), float(e), curve.line(idx)))
    return out
