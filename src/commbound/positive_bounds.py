"""Bound envelopes for functions of positive contractions, chiefly sqrt.

The target quantity is the worst case of ||[f(H), A]|| over positive
contractions H and contractions A with ||[H, A]|| <= delta.  For
f(x) = sqrt(x) two line families combine into the envelope gamma0:
partial sums of the series for 1 - sqrt(1-x) and tangent lines to sqrt
at points a in [1/4, 1].
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .circle_bounds import BoundCurve, BoundLine

__all__ = [
    "PowerSeries",
    "SqrtEnvelope",
    "TangentParam",
    "gamma0",
    "pedersen_envelope",
    "pedersen_line",
    "power_series_line",
    "reflect_function",
    "reflect_instance",
    "sqrt_series",
    "tangent_line",
]


def _frozen(a):
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class PowerSeries:
    """Coefficients c_n (n = 0..N_store) with running plain and n-weighted sums."""

    coefficients: np.ndarray
    partial_sums: np.ndarray
    weighted_sums: np.ndarray

    def __post_init__(self):
        if not (len(self.coefficients) == len(self.partial_sums)
                == len(self.weighted_sums)):
            raise ValueError("coefficient and sum arrays must align")

    @property
    def order(self):
        return len(self.coefficients) - 1

    def partial(self, N):
        return float(self.partial_sums[N])

    def weighted(self, N):
        return float(self.weighted_sums[N])


def sqrt_series(N: int) -> PowerSeries:
    """Series data for 1 - sqrt(1-x) through degree N (N >= 1).

    c_0 = 0, c_1 = 1/2, c_{n+1} = c_n (2n-1)/(2n+2); all later c_n are
    positive and the partial sums increase toward 1.  The sums come in
    closed form from b_N = C(2N, N) / 4^N, a product of the ratios
    (2n-1)/(2n): sum_{n<=N} c_n = 1 - b_N and sum_{n<=N} n c_n = N b_N.
    """
    N = int(N)
    if N < 1:
        raise ValueError("N must be at least 1")
    n = np.arange(1.0, N + 1.0)
    # running products of c_{n+1} / c_n and of b_n / b_{n-1}
    c = np.r_[0.0, np.cumprod(np.r_[0.5, (2.0 * n[:-1] - 1.0) / (2.0 * n[:-1] + 2.0)])]
    b = np.r_[1.0, np.cumprod((2.0 * n - 1.0) / (2.0 * n))]
    return PowerSeries(_frozen(c), _frozen(1.0 - b), _frozen(np.r_[0.0, n] * b))


def power_series_line(series: PowerSeries, N: int, h_osc: float) -> BoundLine:
    """Line with slope sum_{n<=N} |n c_n| and the caller-supplied remainder
    oscillation as intercept; domain [0, 1] (positive-contraction setting)."""
    N = int(N)
    if not 0 <= N <= series.order:
        raise ValueError("N outside the stored series range")
    c = series.coefficients
    m = math.fsum(abs(n * c[n]) for n in range(N + 1))
    return BoundLine(m, float(h_osc), 1.0, "power series N=%d" % N)


def _step_up(x, k):
    """x stepped up k doubles toward +inf; k is a count, or an array of
    counts or of booleans, one per entry of x."""
    k = np.asarray(k, dtype=np.int64)
    for i in range(int(k.max(initial=0))):
        x = np.where(k > i, np.nextafter(x, np.inf), x)
    return x


def _split(v):
    # Veltkamp's split: v = hi + lo exactly, each half of 26 bits or fewer
    t = 134217729.0 * v
    hi = t - (t - v)
    return hi, v - hi


def _excess(x, y, c):
    """x*y - c with the sign of the exact difference, for positive doubles
    x, y whose product neither overflows nor underflows and a double c
    within a factor 2 of fl(x*y) (or equal to it).  Dekker's product
    gives x*y - fl(x*y) exactly, fl(x*y) - c is exact (Sterbenz), and
    their sum is rounded once, which keeps its sign."""
    p = x * y
    xh, xl = _split(x)
    yh, yl = _split(y)
    return (p - c) + (((xh * yh - p) + xh * yl + xl * yh) + xl * yl)


# b_N = C(2N, N) / 4^N = Gamma(N + 1/2) / (sqrt(pi) Gamma(N + 1)) =
# (pi N)^(-1/2) (1 - 1/(8N) + 1/(128N^2) + 5/(1024N^3) - 21/(32768N^4)
# - 399/(262144N^5) + 869/(4194304N^6) + ...): the seven dyadic
# coefficients, highest order first, for Horner in 1/N
_SERIES = (869 / 4194304, -399 / 262144, -21 / 32768, 5 / 1024, 1 / 128,
           -1 / 8, 1.0)
_SERIES_FROM = 64
_SERIES_ULPS = 3


def _ceil_ratio(num, den):
    """The least double >= num/den, for positive integers num and den."""
    q = num / den   # int / int rounds correctly
    p, d = q.as_integer_ratio()
    return q if p * den >= num * d else math.nextafter(q, math.inf)


@functools.lru_cache(maxsize=None)
def _exact_head():
    """Slopes N b_N and intercepts b_N for N < _SERIES_FROM (entry 0
    unused), each the exact rational rounded up."""
    head = np.zeros((2, _SERIES_FROM))
    for N in range(1, _SERIES_FROM):
        num, den = math.comb(2 * N, N), 4 ** N
        head[:, N] = _ceil_ratio(N * num, den), _ceil_ratio(num, den)
    return _frozen(head)


def _pedersen_lines(N):
    """Slopes and intercepts of the Pedersen lines N (an integer array,
    every entry >= 1), from N alone, each at or above its exact value
    N b_N or b_N.

    Below N = 64 both are the exact rationals rounded up, less than 1 ulp
    above.  From N = 64 on, b_N is the seven-term series above, valued by
    Horner and one division by sqrt(pi N), then stepped up _SERIES_ULPS =
    3 doubles.  Each step adds more than u = 2^-53 relative, and the valued
    series lies less than 2.92u below b_N: so at every N in [64, 10^6]
    against a 160-bit recurrence (-2.92u at N = 64, where the first term
    left out is largest; it shrinks as N^-7), and past 10^6 the series'
    five roundings bound it by about 1.9u.  The slope is N times that
    stepped b_N, stepped up one double where the product rounded down,
    which Dekker's exact product tells.  So an intercept lies at most 6
    ulps and a slope at most 12 ulps above its exact value (5.44 and 7.74
    at most over N <= 10^6).
    """
    N = np.asarray(N)
    n = N.astype(float)
    x, p = 1.0 / n, 0.0
    for c in _SERIES:
        p = p * x + c
    b = p / np.sqrt(np.pi * n)
    b = _step_up(b, _SERIES_ULPS)
    m = n * b
    m = _step_up(m, _excess(n, b, m) > 0.0)
    small = N < _SERIES_FROM
    head = _exact_head()[:, np.where(small, N, 0)]
    return np.where(small, head[0], m), np.where(small, head[1], b)


def pedersen_line(N: int) -> BoundLine:
    """Line N of pedersen_envelope(N): slope N b_N and intercept b_N =
    C(2N, N) / 4^N, each rounded up (see _pedersen_lines).  Through the
    degree-N partial sum of the series for 1 - sqrt(1-x), the slope is
    sum_{n<=N} n c_n and the intercept 1 - sum_{n<=N} c_n, the value at 1
    of the nonnegative increasing remainder, which equals its oscillation
    on [0, 1].
    """
    return _PedersenEnvelope(N).line(int(N) - 1)


@dataclass(frozen=True)
class TangentParam:
    """Tangency abscissa for sqrt, restricted to the window [1/4, 1]."""

    a: float

    def __post_init__(self):
        if not 0.25 <= self.a <= 1.0:
            raise ValueError("tangent parameter must lie in [1/4, 1]")


def _tangent(a):
    """Slope and intercept of the tangent to sqrt at a, a float or an
    array in [1/4, 1], rounded up: the slope at or above 1/(2 sqrt(a)),
    the intercept at or above sqrt(a)/2, each stepped up one double only
    where inexact.  np.sqrt rounds correctly, as math.sqrt does, so the
    root r is within one double of sqrt(a), on the side of the exact sign
    of r*r - a."""
    r = np.sqrt(a)
    e = _excess(r, r, a)
    b = 0.5 * _step_up(r, e < 0.0)
    r = np.where(e > 0.0, np.nextafter(r, 0.0), r)
    m = 0.5 / r
    return _step_up(m, _excess(m, r, 0.5) < 0.0), b


def tangent_line(a) -> BoundLine:
    """Tangent bound delta/(2 sqrt(a)) + sqrt(a)/2; equals sqrt(a) at delta=a."""
    if not isinstance(a, TangentParam):
        a = TangentParam(float(a))
    m, b = _tangent(a.a)
    return BoundLine(float(m), float(b), 1.0, "tangent a=%.12g" % a.a)


class _PedersenEnvelope(BoundCurve):
    """The pedersen lines N = 1..N_max (index N - 1), valued from N by
    _pedersen_lines when read, then any lines stored after them, with the
    pedersen minimum in closed form: line N has slope N b_N and intercept
    b_N, so lines N and N + 1 cross exactly at delta = 1/(N+1).  The
    candidates are lines N - 1, N, N + 1 for N = floor(1/delta) (the
    neighbours absorb rounding), then the first line stored after them
    (line N_max again if there is none), so value and provenance equal the
    brute-force minimum, ties included.
    """

    def __init__(self, N_max, m=(), b=(), clamp_above=False):
        N_max = int(N_max)
        if N_max < 1:
            raise ValueError("N_max must be at least 1")
        self._n_max = N_max
        super().__init__(arrays=(m, b, 1.0, self._provenance),
                         clamp_above=clamp_above)

    @property
    def size(self):
        return self._n_max + int(self._m.size)

    def _line_values(self, idx):
        idx = np.asarray(idx)
        # each line once: a block of deltas shares few candidates
        N, at = np.unique(np.minimum(idx, self._n_max - 1) + 1,
                          return_inverse=True)
        m, b = (v[at].reshape(idx.shape) for v in _pedersen_lines(N))
        if self._m.size:
            stored = idx >= self._n_max
            j = np.where(stored, idx - self._n_max, 0)
            m = np.where(stored, self._m[j], m)
            b = np.where(stored, self._b[j], b)
        return m, b

    def _lines_from(self, lo):
        # pedersen line N is the least of them only on [1/(N+1), 1/N]; two
        # more lines absorb the rounding of the crossings
        top = (self._n_max if lo * self._n_max <= 1.0
               else min(self._n_max, int(1.0 / lo) + 2))
        return np.r_[0:top, self._n_max:self.size]

    def _provenance(self, i):
        return "pedersen N=%d" % (i + 1)

    def _candidates(self, d):
        # abs: 1/-0.0 would select line 1 instead of N_max
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            n = np.clip(np.floor(1.0 / np.abs(d)), 1, self._n_max).astype(np.int64)
        # the fourth slot clips to the first line after the pedersen lines
        hi = [self._n_max - 1] * 3 + [min(self._n_max, self.size - 1)]
        return np.clip(n + [-2, -1, 0, self._n_max], 0, hi)


class SqrtEnvelope(_PedersenEnvelope):
    """The sqrt envelope gamma0 on delta in [0, 1]: pedersen lines
    N = 1..N_max, tangents on a uniform a-grid over [1/4, 1] (endpoints
    included) and on [1/4, 1] the tangent at the exact minimizer a = delta,
    sqrt(delta).  Pedersen line 1 is at most the range extent 1 of sqrt.

    Below 1/4 only the grid tangent at a = 1/4, the fourth pedersen
    candidate, can undercut the pedersen lines; sqrt(delta) then replaces
    the minimum only where strictly below it, so ties go to the stored
    line.  The value equals the minimum over all lines bit for bit below
    1/4.  On [1/4, 1] it is never below it; it can be above it, by at most
    1 ulp, only where a grid tangent, though rounded up, values below
    sqrt(delta) through the two roundings of m*delta + b, which no delta
    of the tests' grids showed.  The other grid tangents only shape
    `segments()`.  Queries beyond delta = 1 clamp.
    """

    def __init__(self, N_max=10 ** 5, a_grid=1024):
        if int(a_grid) < 2:
            raise ValueError("a_grid must be at least 2")
        self._a = np.linspace(0.25, 1.0, int(a_grid))
        super().__init__(N_max, *_tangent(self._a), clamp_above=True)

    def _provenance(self, i):
        j = i - self._n_max
        if j < 0:
            return super()._provenance(i)
        if j < self._a.size:
            return "tangent a=%.12g" % self._a[j]
        return "tangent a=delta (exact minimizer)"

    def _min_over_lines(self, deltas):
        vals, idx = super()._min_over_lines(deltas)
        # the tangent at a = delta, under the index past the stored lines
        exact = np.sqrt(np.maximum(deltas, 0.25))
        win = (deltas >= 0.25) & (exact < vals)
        return np.where(win, exact, vals), np.where(win, self.size, idx)


def pedersen_envelope(N_max: int = 10 ** 5) -> BoundCurve:
    """Envelope of the pedersen lines alone, N = 1..N_max, on [0, 1]."""
    return _PedersenEnvelope(N_max)


def gamma0(N_max: int = 10 ** 5, a_grid: int = 1024) -> SqrtEnvelope:
    """The combined sqrt envelope gamma0 (see SqrtEnvelope)."""
    return SqrtEnvelope(N_max, a_grid)


def reflect_instance(H) -> np.ndarray:
    """I - H for a Hermitian H with spectrum in [0, 1] (checked to 1e-10)."""
    H = np.asarray(H, dtype=np.complex128)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError("square matrix required")
    if np.linalg.norm(H - H.conj().T) > 1e-10:
        raise ValueError("Hermitian matrix required")
    w = np.linalg.eigvalsh(H)
    if w[0] < -1e-10 or w[-1] > 1.0 + 1e-10:
        raise ValueError("spectrum outside [0, 1]")
    return np.eye(H.shape[0], dtype=np.complex128) - H


def reflect_function(f1):
    """The reflected rule f2(x) = 1 - f1(1 - x); reflecting twice returns
    the original rule (exactly so on dyadic arguments)."""

    def f2(x):
        return 1.0 - f1(1.0 - x)

    f2.inner = f1
    return f2
