"""A frozen copy of periodic_fn._smallest_disk as it was before farthest-
point pivoting replaced it: Welzl's incremental construction (1991) over
shuffled points, with its own two-point disk, circumdisk and first-outside
scan.  Tests measure the current disk against it; do not edit it to follow
changes in periodic_fn.
"""

import numpy as np


def _disk_two(a, b):
    c = 0.5 * (a + b)
    return c, abs(a - b) * 0.5


def _circumdisk(a, b, c):
    """Smallest disk through three points; falls back to best two-point disk."""
    big = max(abs(a), abs(b), abs(c))
    if big > 2.0 ** 300:
        # the cubic terms below would overflow: find the center of the
        # points scaled by a power of two, which is exact, and scale back
        s = np.ldexp(1.0, -int(np.frexp(big)[1]))
        center = _circumdisk(a * s, b * s, c * s)[0]
        center = complex(center.real / s, center.imag / s)
        return center, max(abs(a - center), abs(b - center), abs(c - center))
    d = 2.0 * ((a.real * (b.imag - c.imag))
               + (b.real * (c.imag - a.imag))
               + (c.real * (a.imag - b.imag)))
    if abs(d) < 1e-30:
        cands = [_disk_two(a, b), _disk_two(a, c), _disk_two(b, c)]
        center, r = max(cands, key=lambda t: t[1])
        return center, r
    ux = ((abs(a) ** 2) * (b.imag - c.imag)
          + (abs(b) ** 2) * (c.imag - a.imag)
          + (abs(c) ** 2) * (a.imag - b.imag)) / d
    uy = ((abs(a) ** 2) * (c.real - b.real)
          + (abs(b) ** 2) * (a.real - c.real)
          + (abs(c) ** 2) * (b.real - a.real)) / d
    center = complex(ux, uy)
    return center, max(abs(a - center), abs(b - center), abs(c - center))


def _first_outside(pts, center, radius):
    bad = np.abs(pts - center) > radius * (1.0 + 1e-13) + 1e-15
    idx = np.nonzero(bad)[0]
    return int(idx[0]) if idx.size else -1


def smallest_disk(pts):
    """(center, radius) of the smallest enclosing disk of complex points,
    incremental construction over a fixed-seed shuffle."""
    pts = np.asarray(pts, dtype=np.complex128)
    if pts.size == 0:
        return 0j, 0.0
    if pts.size == 1:
        return complex(pts[0]), 0.0
    p = pts[np.random.default_rng(0).permutation(pts.size)]
    center, radius = _disk_two(p[0], p[1])
    i = 2
    while True:
        k = _first_outside(p[i:], center, radius)
        if k < 0:
            return center, float(radius)
        i += k
        q1 = p[i]
        # rebuild with q1 on the boundary
        center, radius = _disk_two(p[0], q1)
        j = 1
        while True:
            k2 = _first_outside(p[j:i], center, radius)
            if k2 < 0:
                break
            j += k2
            q2 = p[j]
            center, radius = _disk_two(q1, q2)
            t = 0
            while True:
                k3 = _first_outside(p[t:j], center, radius)
                if k3 < 0:
                    break
                t += k3
                center, radius = _circumdisk(q1, q2, p[t])
                t += 1
            j += 1
        i += 1
