"""2pi-periodic functions: evaluation, Fourier coefficients, norms, builtins.

A PeriodicFunction is known through a vectorized evaluation rule on
[-pi, pi]; it may carry an exact coefficient rule n -> a_n and a closed
form for the coefficient l1 tail.  Coefficients follow the complex
exponential convention f(x) = sum a_n e^{inx}.  Quadrature-based
coefficients use the composite trapezoid rule on uniform samples, which
is spectrally accurate for periodic integrands.  Each grid level, from
2^14 to 2^22 points, gives the trapezoid sums of every order |n| <= M at
once (Trefethen and Weideman, SIAM Review 2014) from 2^14-point FFTs of
interleaved subgrids, in O(2^14 + M) memory.  Each order is accepted at
the first level where its error estimate is within the requested absolute
error: the raw difference |T_2K - T_K| of the last two levels, or, from
the fifth level on, the spread of Aitken extrapolations of the last levels
where that is smaller, which catches the K^-3/2 convergence of square-root
edges by 2^18 points instead of 2^22.  No error is reported below the
sums' own rounding, log2(K) eps max|f| with max|f| over the level's
samples.  The errors are estimates from the levels reached, not bounds:
they assume the convergence seen so far goes on.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

__all__ = [
    "PeriodicFunction",
    "TrigPolynomial",
    "QuadratureError",
    "builtin_bump",
    "builtin_triangle",
    "chebyshev_radius",
    "coefficient_l1",
    "derivative_fourier_norm",
    "fourier_coefficient",
    "fourier_coefficient_estimate",
    "from_coefficients",
    "range_extent",
    "truncate",
]

TWO_PI = 2.0 * np.pi

_QUAD_K_START = 2 ** 14
_QUAD_K_CAP = 2 ** 22
_EXTENT_GRID = 2 ** 16
_LADDER_ROWS = 4      # subgrids of a ladder level sampled per call


class QuadratureError(RuntimeError):
    """Raised when a coefficient quadrature cannot meet its error target."""


def _reduce_angle(x):
    """Map angles into [-pi, pi); the seam invariant makes the endpoints agree.

    When every y = x + pi lies in [0, 4pi) the fmod is skipped: there
    np.mod(y, 2pi) is y itself or y - 2pi, and that subtraction is exact
    (Sterbenz), so the result is bitwise the np.mod one.
    """
    y = np.array(x, dtype=float)
    np.add(y, np.pi, out=y)
    if not (y.size and 0.0 <= y.min() and y.max() < 2.0 * TWO_PI):
        y = np.mod(y, TWO_PI)
    elif y.max() >= TWO_PI:
        np.subtract(y, TWO_PI, out=y, where=y >= TWO_PI)
    return y - np.pi


class PeriodicFunction:
    """A 2pi-periodic function with optional exact coefficient data.

    rule: callable taking an ndarray of angles in [-pi, pi] and returning
    values (real or complex) of the same shape.  It must act elementwise:
    a value depends on its own angle only, never on the other angles of
    the call, because searches, sweeps and the spectral calculus batch
    any points into one call.  real_valued promises |Im f| < 1e-12, and
    sample returns the real part.
    coefficient_rule, if given, returns the exact Fourier coefficient a_n.
    l1_tail_rule, if given, returns sum_{|n| > N} |a_n| exactly.
    """

    def __init__(self, rule, real_valued=False, name="", coefficient_rule=None,
                 l1_tail_rule=None):
        self.rule = rule
        self.real_valued = bool(real_valued)
        self.name = name
        self.coefficient_rule = coefficient_rule
        self.l1_tail_rule = l1_tail_rule
        self._ladder = _TrapezoidLadder(self.real_valued)
        self._check_seam()
        if self.real_valued:
            self._check_real()

    def _seam_size(self, ends):
        # what the rounding at the seam scales with: the larger end value
        return float(np.max(np.abs(ends)))

    def _check_seam(self):
        ends = np.asarray(self.rule(np.array([-np.pi, np.pi])))
        tol = 1e-12 * max(1.0, self._seam_size(ends))
        if abs(complex(ends[0]) - complex(ends[1])) >= tol:
            raise ValueError(
                "rule is not periodic at the seam: f(-pi)=%r f(pi)=%r"
                % (complex(ends[0]), complex(ends[1]))
            )

    def _check_real(self):
        x = np.linspace(-np.pi, np.pi, 97)
        v = np.asarray(self.rule(x))
        if np.iscomplexobj(v) and np.max(np.abs(v.imag)) >= 1e-12:
            raise ValueError("real_valued is set but the rule returns complex values")

    def sample(self, x):
        """f on an array of angles, reduced mod 2pi into [-pi, pi): an
        array of x's shape, whatever dtype the rule returns.  It is float64
        for a real-valued f, the real part of the rule's values, and
        otherwise complex128 when the rule gives complex values and float64
        when it does not."""
        v = np.asarray(self.rule(_reduce_angle(x)))
        if self.real_valued:
            v = v.real
        return v.astype(np.complex128 if np.iscomplexobj(v) else float,
                        copy=False)

    def __call__(self, x):
        return complex(self.sample(np.array([float(x)]))[0])

    def __repr__(self):
        return "PeriodicFunction(name=%r, real_valued=%r)" % (self.name, self.real_valued)


def _add_pair(g, a_pos, a_neg, k, x):
    """Add the pair term a_k e^{ikx} + a_{-k} e^{-ikx} of order k at the
    angles x into g, in place and in real arithmetic, as c cos kx + i s
    sin kx with c = a_k + a_{-k} and s = a_k - a_{-k}.  The real part,
    Re c cos kx - Im s sin kx, computes the sine only when Im s != 0, so
    a real pair a_k = a_{-k} = a adds (2a) cos kx, which is 2 (a cos kx)
    bit for bit, doubling being exact in the normal range.  Only a complex
    g takes Im c cos kx + Re s sin kx; its real part takes the real sum's
    operations, and so its bits.  Each step is a real ufunc, so no point's
    value depends on the others of the call."""
    c, s = a_pos + a_neg, a_pos - a_neg
    t = np.multiply(k, x)
    complex_g = g.dtype.kind == "c"
    if s.imag or complex_g:
        sine = np.sin(t)
    np.cos(t, out=t)
    if complex_g:
        im = g.imag
        im += c.imag * t + s.real * sine
        g = g.real
    t *= c.real
    if s.imag:
        sine *= s.imag
        t -= sine
    g += t


def _running_sums(coeffs, x, real):
    """Yield the partial sums g_0..g_d of coeffs (orders -d..d) at the 1-D
    angles x, in one buffer: g_0 = a_0, and g_N = g_{N-1} + the pair term
    of order N, added in place in ascending order, so each point's value
    depends on that point only, by _add_pair.  With real set only the
    real parts are summed.  A zero pair adds a signed zero at a
    finite angle N x and NaN at any other, so it is skipped only when every
    N x is finite; a sum of -0.0 then keeps its sign."""
    d = coeffs.size // 2
    finite = bool(np.isfinite(d * x).all())
    g = np.full(x.size, coeffs[d].real if real else coeffs[d])
    yield g
    pairs = zip(coeffs[d + 1:].tolist(), coeffs[:d][::-1].tolist())
    for N, (a, b) in enumerate(pairs, 1):
        if a != 0.0 or b != 0.0 or not finite:
            _add_pair(g, a, b, N, x)
        yield g


class TrigPolynomial(PeriodicFunction):
    """Finite Fourier sum of degree N, from a dict n -> a_n: at each point
    a_0 plus the pair terms a_k e^{ikx} + a_{-k} e^{-ikx}, k = 1..N, summed
    in that order, by _running_sums, in O(points) memory.
    Conjugate-symmetric coefficients make a real function, of which only
    the real part is summed."""

    def __init__(self, coefficients, name=""):
        items = {int(n): complex(a) for n, a in coefficients.items()}
        degree = max((abs(n) for n in items), default=0)
        ns = np.arange(-degree, degree + 1)
        coeffs = np.zeros(2 * degree + 1, dtype=np.complex128)
        for n, a in items.items():
            coeffs[n + degree] = a
        self.degree = int(degree)
        self.ns = ns
        self.coeffs = coeffs
        real = bool(np.all(coeffs[::-1] == np.conj(coeffs)))

        def rule(x, _c=coeffs, _real=real):
            x = np.asarray(x, dtype=float)
            *_, g = _running_sums(_c, x.ravel(), _real)    # g_N, the last
            return g.reshape(x.shape)

        super().__init__(
            rule,
            real_valued=real,
            name=name or "trig polynomial",
            coefficient_rule=self.coefficient,
            l1_tail_rule=self._l1_tail,
        )

    def coefficient(self, n):
        n = int(n)
        if abs(n) > self.degree:
            return 0j
        return complex(self.coeffs[n + self.degree])

    def _seam_size(self, ends):
        # e^{+-in pi} rounds by about n eps, so |n| + 1 weights |a_n|; the
        # ends themselves may be tiny, as for sin x
        return float(np.sum((np.abs(self.ns) + 1.0) * np.abs(self.coeffs)))

    def _l1_tail(self, N):
        mask = np.abs(self.ns) > N
        return float(np.sum(np.abs(self.coeffs[mask])))


class _TrapezoidLadder:
    """Trapezoid sums of f(x) e^{-inx} for the orders |n| <= M.

    Level l is the K-point rule, K = 2^14 * 2^l, on x_j = -pi + 2pi j/K;
    level 0 samples that grid and level l adds the midpoints of level l-1,
    decimated in time (Cooley and Tukey, 1965) into P = K/B interleaved
    subgrids of B = 2^14 points.  Subgrid q is sampled, its FFT folded into
    the orders by T[n] = sum_q e^{-in x_q} DFT_B(f(x[q::P]))[n mod B], and
    dropped, so a level holds O(B + M) numbers.  Bin n mod B aliases as a
    direct sum over the grid does.  A real f uses rfft and orders n >= 0
    only, and a_{-n} is conj(a_n) exactly.  M grows to the next power of
    two when a larger order is asked for, and the levels are then rebuilt;
    each order's sums do not depend on M.
    """

    def __init__(self, real):
        self.real, self.M, self.total = real, 64, None
        # per level: the sums of every order, and max|f| over its samples
        self.est, self.peak = [], []

    def _add_level(self, f):
        L = len(self.est)
        K = _QUAD_K_START << max(L - 1, 0)
        start = 0.5 if L else 0.0   # the K midpoints double the K-point rule
        step = TWO_PI / K
        B, P = _QUAD_K_START, K // _QUAD_K_START
        ns = np.arange(0 if self.real else -self.M, self.M + 1)
        r = ns % B
        fold = np.minimum(r, B - r) if self.real else r
        offsets = P * np.arange(B)
        peak = self.peak[-1] if L else 0.0
        for q0 in range(0, P, _LADDER_ROWS):
            # subgrids q0.. sampled and transformed as rows of one array
            qs = np.arange(q0, min(q0 + _LADDER_ROWS, P))
            v = f.sample(-np.pi + step * ((start + qs)[:, None] + offsets))
            peak = max(peak, float(np.max(np.abs(v))))
            if self.real:
                bins = np.fft.rfft(v, axis=-1)[:, fold]
                bins = np.where(r > B // 2, np.conj(bins), bins)
            else:
                bins = np.fft.fft(v, axis=-1)[:, fold]
            for q, row in zip(qs.tolist(), bins):
                # at the subgrid point j = q + P m,
                # e^{-inx_j} = (-1)^n e^{-in step (start + q)} e^{-2pi i nm/B}
                term = np.exp(-1j * (step * (start + q)) * ns) * row
                sums = sums + term if q else term
        sums *= np.where(ns % 2, -1.0, 1.0)
        self.total = self.total + sums if L else sums
        self.est.append(self.total / (_QUAD_K_START << L))
        self.peak.append(peak)

    def coefficients(self, f, ns, tol):
        """(estimate, error, K) arrays for the integer orders ns, each from
        the first level K whose error estimate (_accelerated) is within
        tol, else from the cap level.  The kept levels are walked anew on
        every call, so each answer depends on f, n and tol alone."""
        top = int(np.max(np.abs(ns), initial=0))
        if top > self.M:
            self.M, self.est, self.peak = 1 << (top - 1).bit_length(), [], []
        value = np.zeros(ns.size, dtype=complex)
        error, Ks = np.zeros(ns.size), np.zeros(ns.size, dtype=np.int64)
        todo, level = np.arange(ns.size), 0
        while todo.size:
            level += 1
            while len(self.est) <= level:
                self._add_level(f)
            n = ns[todo]
            j = np.abs(n) if self.real else n + self.M
            K = _QUAD_K_START << level
            sums = [e[j] for e in self.est[max(level - 4, 0):level + 1]]
            floor = np.log2(K) * np.finfo(float).eps * self.peak[level]
            new, err = _accelerated(np.array(sums), floor)
            done = (err <= tol) | (K >= _QUAD_K_CAP)
            new = np.where(self.real & (n < 0), np.conj(new), new)
            value[todo[done]] = new[done]
            error[todo[done]] = err[done]
            Ks[todo[done]] = K
            todo = todo[~done]
        return value, error, Ks


def _accelerated(T, floor):
    """(value, error estimate) of each order from T, its trapezoid sums at
    the last two to five levels, oldest first.

    The raw value is the last sum T_l, with |T_l - T_{l-1}| as its error.
    Aitken's delta-squared step X_l = T_l + d_l / (d_{l-1}/d_l - 1), with
    d_l = T_l - T_{l-1}, removes the geometric part of the error whatever
    its rate: K^-3/2 for the bump's square-root edges, K^-2 for a kink.
    From five levels X_l replaces T_l where its error, the spread
    max(|X_l - X_{l-1}|, |X_{l-1} - X_{l-2}|), is finite and smaller than
    the raw one; one difference alone under-reports where the rate is
    still settling.

    No error is below floor, the rounding of the sums themselves, which a
    difference of two sums that round alike does not show.  The caller
    passes c log2(K) eps max|f| with c = 1: a level is, in exact
    arithmetic, one K-point DFT, which a radix-2 FFT computes through
    log2(K) stages that each round a bin by about eps of the stage's
    inputs, at most K max|f| before the 1/K scaling.  Higham's worst case
    (Accuracy and Stability of Numerical Algorithms, Thm 24.2) is about
    3.3 times that, with every stage's roundings aligned.  On sums known
    exactly (the even orders of the rule-free triangle, cos 3x, and
    exp(i sin x) against its 2^14-point value) the ladder's rounding at
    K = 2^14..2^22 reached at most 0.23 of this floor.
    """
    d = np.diff(T, axis=0)
    value, error = T[-1], np.maximum(np.abs(d[-1]), floor)
    if len(T) < 5:
        return value, error
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        X = T[2:] + d[1:] / (d[:-1] / d[1:] - 1.0)
        spread = np.maximum(np.max(np.abs(np.diff(X, axis=0)), axis=0), floor)
    use = np.isfinite(spread) & (spread < error)
    return np.where(use, X[-1], value), np.where(use, spread, error)


def _coefficients(f: PeriodicFunction, ns, tol: float) -> tuple:
    """(values, errors) arrays of a_n for the orders ns: the exact rule with
    error 0 when f carries one, else the trapezoid ladder's estimates."""
    ns = np.asarray(ns, dtype=np.int64)
    if f.coefficient_rule is not None:
        values = [complex(f.coefficient_rule(int(n))) for n in ns]
        return np.array(values, dtype=np.complex128), np.zeros(ns.size)
    return f._ladder.coefficients(f, ns, tol)[:2]


def _signed_orders(a, b):
    """The orders a, -a, a + 1, -(a + 1), ..., b, -b, with 0 listed once."""
    n = np.arange(a, b + 1)
    return np.stack((n, -n), axis=1).ravel()[1 if a == 0 else 0:]


def _certified(f, ns, tol):
    """Array of a_n for the integer orders ns, each within tol;
    QuadratureError names the first order the cap grid cannot certify."""
    values, errors = _coefficients(f, ns, tol)
    ok = errors <= tol
    if f.coefficient_rule is None and not ok.all():
        k = int(np.argmin(ok))
        raise QuadratureError(
            "coefficient a_%d: error estimate %.3e exceeds target %.3e at K=%d"
            % (ns[k], errors[k], tol, _QUAD_K_CAP)
        )
    return values


def fourier_coefficient(f: PeriodicFunction, n: int, tol: float = 1e-10) -> complex:
    """Fourier coefficient a_n = (1/2pi) integral f(x) e^{-inx} dx.

    Uses the exact rule when the function carries one.  Otherwise the
    trapezoid ladder is walked until the error estimate is within tol: the
    K vs 2K difference, or the spread of Aitken extrapolations where that
    is smaller, never below the rounding floor log2(K) eps max|f|.
    QuadratureError if no level up to the cap grid meets tol.
    """
    return complex(_certified(f, [int(n)], tol)[0])


def fourier_coefficient_estimate(
    f: PeriodicFunction, n: int, tol: float = 1e-10
) -> tuple:
    """Best-effort coefficient with its error estimate; never raises.

    Returns (value, error).  Functions with an exact rule report error 0.
    Otherwise the error is fourier_coefficient's estimate at the level
    where the order stopped: an estimate, not a bound, and at least the
    rounding floor log2(K) eps max|f|.  It may exceed tol when refinement
    reaches the cap grid; the order then keeps its best value.
    """
    est, diff = _coefficients(f, [int(n)], tol)
    return complex(est[0]), float(diff[0])


def truncate(f: PeriodicFunction, N: int) -> TrigPolynomial:
    """Degree-N Fourier partial sum of f."""
    N = int(N)
    if N < 0:
        raise ValueError("truncation degree must be nonnegative")
    ns = list(range(-N, N + 1))
    coeffs = dict(zip(ns, _certified(f, ns, 1e-10).tolist()))
    return TrigPolynomial(coeffs, name="%s truncated at N=%d" % (f.name or "f", N))


def derivative_fourier_norm(p: TrigPolynomial) -> float:
    """l1 norm of the differentiated coefficient sequence, sum |n a_n|."""
    return float(np.sum(np.abs(p.ns * p.coeffs)))


def _golden_max(g, a, b):
    """Golden-section search for the maximum of g on each bracket [a, b]
    of the arrays a, b, all advanced in lockstep; g maps an array of
    points to their values.  Returns the larger final probe value after
    80 steps."""
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    gc, gd = g(c), g(d)
    for _ in range(80):
        left = gc >= gd
        # left: the bracket shrinks to [a, d] and c is replaced;
        # otherwise it shrinks to [c, b] and d is replaced
        a, b = np.where(left, a, c), np.where(left, d, b)
        p = np.where(left, b - phi * (b - a), a + phi * (b - a))
        gp = g(p)
        c, d = np.where(left, p, d), np.where(left, c, p)
        gc, gd = np.where(left, gp, gd), np.where(left, gc, gp)
    return np.maximum(gc, gd)


def _grid(grid_size):
    """The uniform grid -pi + 2pi j/grid_size, j < grid_size."""
    if grid_size < 1024:
        raise ValueError("grid_size must be at least 1024")
    return -np.pi + TWO_PI * np.arange(grid_size) / grid_size


def _row_peaks(v):
    """(imax, imin, vmax, vmin): the first argmax and argmin of a real
    sample row v, and the values there."""
    i, j = int(np.argmax(v)), int(np.argmin(v))
    return i, j, v[i], v[j]


def _refine_peaks(x, peaks, values):
    """(lo, hi): arrays of the min and max of k real functions from their
    grid peaks (_row_peaks) on the grid x, each refined by one
    golden-section pass inside its best cell.

    values(r, t) maps arrays of row indices and points to the values of
    function r[j] at t[j].  All 2k searches run in lockstep, the min
    searches on the negated values.
    """
    if not peaks:
        return np.empty(0), np.empty(0)
    imax, imin, vmax, vmin = (np.array(c) for c in zip(*peaks))
    k = imax.size
    h = TWO_PI / x.size
    r = np.tile(np.arange(k), 2)
    sign = np.repeat([1.0, -1.0], k)
    mid = x[np.concatenate((imax, imin))]
    refined = sign * _golden_max(lambda t: sign * values(r, t),
                                 mid - h, mid + h)
    # min(v, refined) and max(v, refined), ties to the grid value
    return (np.where(refined[k:] < vmin, refined[k:], vmin),
            np.where(refined[:k] > vmax, refined[:k], vmax))


def _extent(f, x, v):
    """(min, max) of the real f from its samples v on the grid x."""
    lo, hi = _refine_peaks(x, [_row_peaks(v)], lambda r, t: f.sample(t))
    return float(lo[0]), float(hi[0])


def range_extent(f: PeriodicFunction, grid_size: int = _EXTENT_GRID):
    """(min, max) of a real-valued f over a uniform grid with one refinement.

    One golden-section pass inside the best cell; extents are certified
    only to grid tolerance.
    """
    if not f.real_valued:
        raise ValueError("range_extent requires a real-valued function")
    x = _grid(grid_size)
    return _extent(f, x, f.sample(x))


def _least_disk(s):
    """(center, reach, points) of the least disk of 1 to 4 points s: of the
    pair midpoints and the circumcenters of the triples that are not
    exactly collinear, the center whose largest distance to s is least, and
    the points that define it."""
    cands = [(0.5 * (a + b), [a, b])
             for a, b in combinations(s, 2)] or [(s[0], s)]
    for a, b, c in combinations(s, 3):
        u, v = b - a, c - a
        d = 2.0 * (u.real * v.imag - u.imag * v.real)
        if d:
            uu, vv = u.real ** 2 + u.imag ** 2, v.real ** 2 + v.imag ** 2
            cands.append((a + complex((v.imag * uu - u.imag * vv) / d,
                                      (u.real * vv - v.real * uu) / d),
                          [a, b, c]))
    reach = [max(abs(p - c) for p in s) for c, _ in cands]
    k = reach.index(min(reach))
    return cands[k][0], reach[k], cands[k][1]


def _smallest_disk(pts):
    """(center, radius) of the least disk enclosing complex points, by
    farthest-point pivoting (Gartner, ESA 1999): find the least disk of a
    support of at most three points, add the sample farthest from its
    center, and repeat until that sample lies within the support's reach
    or the reach stops growing.

    The points are scaled by 2^-e, with 2^e above every coordinate, which
    is exact, so the result scales with the points bit for bit.  The
    center returned is the one, of every support's, whose reach over all
    points is least, and the radius is that reach, max |p - center|.  A
    NaN or infinite point gives a NaN radius.
    """
    parts = np.asarray(pts, dtype=np.complex128).ravel().view(float)
    if parts.size == 0:
        return 0j, 0.0
    top = max(np.max(parts), -np.min(parts))
    if not np.isfinite(top):
        return complex(np.nan, np.nan), np.nan
    e = int(np.frexp(top)[1])
    q = np.ldexp(parts, -e).view(np.complex128)
    support, best, last = [complex(q[0])], (0j, np.inf), -1.0
    diff, d = np.empty_like(q), np.empty(q.size)
    while True:
        center, r, support = _least_disk(support)
        np.abs(np.subtract(q, center, out=diff), out=d)
        k = int(np.argmax(d))
        if d[k] < best[1]:
            best = center, float(d[k])
        if d[k] <= r or r <= last:
            break
        last = r
        support.append(complex(q[k]))
    center, reach = best
    x, y = np.ldexp([center.real, center.imag], e)
    return complex(x, y), float(np.ldexp(reach, e))


def chebyshev_radius(f: PeriodicFunction, grid_size: int = _EXTENT_GRID) -> float:
    """min over constants of sup |f - c|, to grid tolerance.

    Real case: half the oscillation (max - min)/2.  Complex case: the
    reach max |f(x) - c| over the samples from the center c of their
    smallest enclosing disk, which scales with f bit for bit.
    """
    x = _grid(grid_size)
    v = f.sample(x)
    if f.real_valued:
        lo, hi = _extent(f, x, v)
        return 0.5 * (hi - lo)
    return _smallest_disk(v)[1]


def _dyadic_l1(table, lo, hi, end0, end1, tol):
    """Estimate of sum_{|n| >= lo} |a_n| (each term inflated by tol) from
    table, the (values, errors) of _coefficients for the orders
    _signed_orders(0, m), m >= end1: the orders up to hi summed, then the
    blocks hi < |n| <= end0 and end0 < |n| <= end1, then the geometric
    remainder b1 r / (1 - r) with r = b1 / b0 the block ratio.  None when
    the blocks do not decay (r >= 0.75, or b0 = 0 < b1) or an order misses
    tol."""
    values, errors = table
    sums = []
    for a, b in ((lo, hi), (hi + 1, end0), (end0 + 1, end1)):
        i = slice(max(2 * a - 1, 0), 2 * b + 1)    # the orders a, -a, .., -b
        if not np.all(errors[i] <= tol):
            return None
        # cumsum adds the terms one by one in the order n, -n, n + 1, ...
        sums.append(float(np.cumsum(np.r_[0.0, np.abs(values[i]) + tol])[-1]))
    s, b0, b1 = sums
    if b0 <= 0.0:
        return None if b1 > 0.0 else s
    ratio = b1 / b0
    if ratio >= 0.75:
        return None
    return s + b0 + b1 + b1 * ratio / (1.0 - ratio)


def coefficient_l1(f: PeriodicFunction, head: int = 64, tol: float = 1e-6):
    """sum |a_n|: with a closed tail, the head plus that tail; otherwise an
    estimate, or None when the blocks do not decay.

    With a closed tail the head's coefficients come from the coefficient
    rule, or from quadrature to within 1e-10 each, by its error estimate.
    Otherwise dyadic blocks past the head are summed and the remainder is
    extrapolated geometrically from the block ratio: an estimate, not a
    bound, since nothing proves that later blocks keep decaying at that
    ratio (ROADMAP item 1).
    """
    if f.l1_tail_rule is not None:
        a = np.abs(_certified(f, _signed_orders(0, max(head, 0)), 1e-10))
        # |a_0|, then |a_n| + |a_-n| added one pair at a time
        total = np.cumsum(np.r_[a[0], a[1::2] + a[2::2]])[-1]
        return float(total + f.l1_tail_rule(head))
    end = 4 * head + 3
    return _dyadic_l1(_coefficients(f, _signed_orders(0, end), tol),
                      0, head, 2 * head + 1, end, tol)


def builtin_triangle() -> PeriodicFunction:
    """Triangle wave 1 - (2/pi)|x| on [-pi, pi], range [-1, 1].

    Carries the exact coefficient rule a_n = 4/(pi^2 n^2) for odd n and 0
    for even n (complex exponential convention) and the closed l1 tail.
    """

    def rule(x):
        return 1.0 - (2.0 / np.pi) * np.abs(x)

    def coeff(n):
        n = int(n)
        if n == 0 or n % 2 == 0:
            return 0j
        return complex(4.0 / (np.pi ** 2 * n ** 2))

    def l1_tail(N):
        # sum over odd m of m^-2 is pi^2/8, so the total l1 mass is 1
        odd = np.arange(1, int(N) + 1, 2, dtype=float)
        head = (8.0 / np.pi ** 2) * float(np.sum(odd ** -2.0))
        return max(0.0, 1.0 - head)

    return PeriodicFunction(rule, real_valued=True, name="triangle",
                            coefficient_rule=coeff, l1_tail_rule=l1_tail)


def builtin_bump() -> PeriodicFunction:
    """Half-disc bump sqrt(1 - 4x^2/pi^2) on [-pi/2, pi/2], zero elsewhere."""

    def rule(x):
        # sqrt(fmax(0, 1 - 4 x^2 / pi^2)), written into one array: a
        # temporary per step made eta_lower's 4 x 4096-point blocks page
        # fault three times as often.  Off the support 4x^2/pi^2 rounds to
        # at least 1, as rounding is monotone and fl(pi^2) =
        # 4 fl((pi/2)^2), so the value there is +0.0; fmax maps NaN to 0
        v = np.array(x, dtype=float)
        np.square(v, out=v)
        v *= 4.0
        v /= np.pi ** 2
        np.subtract(1.0, v, out=v)
        np.fmax(v, 0.0, out=v)
        return np.sqrt(v, out=v)

    return PeriodicFunction(rule, real_valued=True, name="bump")


def from_coefficients(coefficients) -> TrigPolynomial:
    """Trig polynomial from a finite map n -> a_n."""
    return TrigPolynomial(coefficients, name="from coefficients")
