"""Tests for the square-root series, Pedersen lines, and the gamma envelope."""

import functools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import commbound as cb
from commbound import positive_bounds as pb
from commbound.experiments_cli import MAX_SQRT_LINES


def exact_tail(N):
    # 1 - sum_{n<=N} c_n = C(2N, N) / 4^N, kept exact in rationals
    return Fraction(math.comb(2 * N, N), 4 ** N)


class TestRefusedInputs:
    @pytest.mark.parametrize("call, message", [
        (lambda: cb.PowerSeries(np.zeros(3), np.zeros(2), np.zeros(3)),
         "coefficient and sum arrays must align"),
        (lambda: cb.power_series_line(cb.sqrt_series(4), 5, 0.1),
         "N outside the stored series range"),
        (lambda: cb.power_series_line(cb.sqrt_series(4), -1, 0.1),
         "N outside the stored series range"),
        (lambda: cb.gamma0(64, 1), "a_grid must be at least 2"),
        (lambda: cb.reflect_instance(np.zeros((2, 3))),
         "square matrix required"),
    ], ids=["misaligned-series", "past-the-order", "negative-order",
            "a-grid-1", "reflect-non-square"])
    def test_message(self, call, message):
        with pytest.raises(ValueError, match="^%s$" % message):
            call()


class TestSqrtSeries:
    def test_leading_coefficients_are_dyadic(self):
        s = cb.sqrt_series(6)
        c = s.coefficients
        assert c[0] == 0.0
        assert c[1] == 0.5
        assert c[2] == 0.125
        assert c[3] == 0.0625
        assert c[4] == 0.0390625

    def test_recurrence_ratio(self):
        s = cb.sqrt_series(200)
        c = s.coefficients
        for n in (1, 2, 10, 99, 199):
            # c_{n+1} = c_n (2n - 1) / (2n + 2), evaluated the same way
            assert c[n + 1] == c[n] * ((2.0 * n - 1.0) / (2.0 * n + 2.0))

    def test_symbolic_oracle(self):
        sympy = pytest.importorskip("sympy")
        s = cb.sqrt_series(12)
        for n in range(1, 13):
            want = abs(sympy.binomial(sympy.Rational(1, 2), n))
            assert abs(s.coefficients[n] - float(want)) <= 1e-13

    def test_tail_matches_central_binomial(self):
        s = cb.sqrt_series(2000)
        for N in (1, 2, 5, 10, 100, 1000, 2000):
            got = 1.0 - s.partial(N)
            want = exact_tail(N)
            assert abs(got - float(want)) <= 1e-12 * float(want)

    def test_partial_sum_identity_headroom(self):
        # sum c_n plus the exact binomial tail reproduces 1 to near machine
        s = cb.sqrt_series(100000)
        for N in (10, 1000, 100000):
            total = s.partial(N) + float(exact_tail(N))
            assert abs(total - 1.0) <= 1e-14

    def test_series_approximates_sqrt(self):
        N = 64
        s = cb.sqrt_series(N)
        tail = 1.0 - s.partial(N)
        xs = np.linspace(0.0, 1.0, 257)
        acc = np.zeros_like(xs)
        u = np.ones_like(xs)
        for n in range(1, N + 1):
            u *= 1.0 - xs
            acc += s.coefficients[n] * u
        err = np.abs((1.0 - acc) - np.sqrt(xs))
        assert np.max(err) <= tail + 1e-15
        # the defect concentrates at zero, where it equals the tail exactly
        assert abs(err[0] - tail) <= 1e-15

    def test_prefix_consistency_of_cache(self):
        a = cb.sqrt_series(50)
        b = cb.sqrt_series(400)
        np.testing.assert_array_equal(a.coefficients, b.coefficients[:51])

    def test_tables_are_frozen(self):
        s = cb.sqrt_series(8)
        with pytest.raises(ValueError):
            s.coefficients[0] = 0.0

    @pytest.mark.parametrize("table", ["coefficients", "partial_sums",
                                       "weighted_sums"])
    def test_every_table_stays_read_only(self, table):
        # the tables are frozen in place, without a copy
        a = getattr(cb.sqrt_series(8), table)
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[1] = 0.0

    def test_order_validation(self):
        with pytest.raises(ValueError):
            cb.sqrt_series(0)

    def test_partial_and_weighted_windows(self):
        s = cb.sqrt_series(10)
        assert s.partial(0) == 0.0 and s.weighted(0) == 0.0
        assert s.order == 10
        with pytest.raises(IndexError):
            s.partial(11)


class TestLines:
    def test_power_series_line_carries_given_oscillation(self):
        s = cb.sqrt_series(4)
        line = cb.power_series_line(s, 2, 0.1)
        assert line.slope == s.weighted(2)
        assert line.intercept == 0.1
        assert line.delta_max == 1.0

    def test_pedersen_first_order(self):
        line = cb.pedersen_line(1)
        assert line.slope == 0.5
        assert line.intercept == 0.5
        assert line.provenance == "pedersen N=1"

    def test_pedersen_second_order(self):
        line = cb.pedersen_line(2)
        assert line.slope == 0.75
        assert line.intercept == 0.375

    def test_pedersen_order_validation(self):
        with pytest.raises(ValueError, match="^N must be at least 1$"):
            cb.pedersen_line(0)

    @pytest.mark.parametrize("N", [2.5, True, 3.0])
    def test_pedersen_order_must_be_an_integer(self, N):
        # a float or a bool must not be cut to a line number
        with pytest.raises(TypeError):
            cb.pedersen_line(N)

    def test_pedersen_numpy_integer_order(self):
        line = cb.pedersen_line(np.int64(3))
        assert line == cb.pedersen_line(3)
        assert type(line.slope) is float and type(line.intercept) is float
        assert line.provenance == "pedersen N=3"

    def test_tangent_examples(self):
        line = cb.tangent_line(0.25)
        assert line.slope == 1.0 and line.intercept == 0.25
        line = cb.tangent_line(1.0)
        assert line.slope == 0.5 and line.intercept == 0.5

    def test_tangent_touches_sqrt_at_anchor(self):
        for a in (0.25, 0.4, 0.81, 1.0):
            line = cb.tangent_line(a)
            assert abs(line.value(a) - math.sqrt(a)) <= 1e-15

    def test_tangent_line_is_the_stored_grid_line(self):
        env = cb.gamma0(64, 16)
        for j, a in enumerate(np.linspace(0.25, 1.0, 16)):
            want, got = cb.tangent_line(a), env.line(64 + j)
            assert got == want
            assert (got.slope.hex(), got.intercept.hex()) == \
                (want.slope.hex(), want.intercept.hex())

    def test_tangent_anchor_validation(self):
        for a in (0.2, 1.01, -1.0):
            with pytest.raises(ValueError):
                cb.tangent_line(a)

    def test_tangent_param_carrier(self):
        p = cb.TangentParam(0.5)
        assert p.a == 0.5
        with pytest.raises(ValueError):
            cb.TangentParam(0.1)


def exact_brackets(Ns, bits=256):
    """{N: (lo, hi)} with lo <= b_N <= hi as Fractions, for each N in Ns:
    b_N itself up to N = 64, else from the integer recurrence V_N =
    floor(V_{N-1} (2N - 1) / (2N)), V_0 = 2^bits.  Each floor loses less
    than 1 and the factor (2N - 1) / (2N) < 1 shrinks the earlier loss, so
    0 <= b_N 2^bits - V_N < N."""
    out = {N: (exact_tail(N),) * 2 for N in Ns if N <= 64}
    want = set(Ns) - set(out)
    v = 1 << bits
    for N in range(1, max(want, default=0) + 1):
        v = v * (2 * N - 1) // (2 * N)
        if N in want:
            out[N] = (Fraction(v, 1 << bits), Fraction(v + N, 1 << bits))
    return out


def ulps_above(x, exact):
    """How far the double x lies above the rational exact, in units of x's
    own spacing."""
    return (Fraction(x) - exact) / Fraction(np.spacing(x))


# N = 1..64, then about 2,000 more spread geometrically and evenly up to
# the CLI cap, the default N_max among them
SPREAD = sorted(set(range(1, 65)) | {10 ** 5, 10 ** 6} | set(
    np.r_[np.geomspace(65, 10 ** 6, 1000),
          np.linspace(65, 10 ** 6, 1000)].astype(int).tolist()))


class TestExactLines:
    """Every line at or above its exact value, within the ulps
    _pedersen_lines and _tangent state."""

    def test_pedersen_lines_round_up(self):
        assert len(SPREAD) > 1900 and SPREAD[-1] == MAX_SQRT_LINES
        m, b = pb._pedersen_lines(np.array(SPREAD))
        brackets = exact_brackets(SPREAD)
        for N, mi, bi in zip(SPREAD, m.tolist(), b.tolist()):
            lo, hi = brackets[N]
            assert Fraction(bi) >= hi and Fraction(mi) >= N * hi, N
            assert ulps_above(bi, lo) <= 6 and ulps_above(mi, N * lo) <= 12, N

    def test_pedersen_lines_are_the_curve_lines(self):
        env = cb.gamma0()
        for N in (1, 2, 63, 64, 65, 99999, 100000):
            line = env.line(N - 1)
            want = pb._pedersen_lines(np.array([N]))
            assert (line.slope, line.intercept) == (want[0][0], want[1][0])
            assert line == cb.pedersen_line(N)

    def test_tangents_round_up(self):
        env = cb.gamma0()
        a = np.r_[np.linspace(0.25, 1.0, 1024),
                  np.random.default_rng(5).uniform(0.25, 1.0, 2000)]
        m, b = pb._tangent(a)
        stored = env.lines()[10 ** 5:]
        assert [(l.slope, l.intercept) for l in stored] == \
            list(zip(m[:1024].tolist(), b[:1024].tolist()))
        for x, mi, bi in zip(a.tolist(), m.tolist(), b.tolist()):
            x, mf, bf = Fraction(x), Fraction(mi), Fraction(bi)
            # slope >= 1/(2 sqrt(a)) and intercept >= sqrt(a)/2, squared
            assert 4 * mf * mf * x >= 1 and 4 * bf * bf >= x
            # and each within 3 doubles of it
            m3, b3 = (Fraction(np.nextafter(v, 0.0) - 2 * np.spacing(v))
                      for v in (mi, bi))
            assert 4 * m3 * m3 * x < 1 and 4 * b3 * b3 < x

    def test_least_line_is_above_the_exact_envelope(self):
        # in exact arithmetic the least of gamma0's lines is at or above
        # gamma0 of the exact lines: min over N of b_N (N delta + 1), the
        # tangents, and sqrt(delta) on [1/4, 1], compared by squaring
        N_max = 2000
        env = cb.gamma0(N_max, 256)
        lines = env.lines()
        m = np.array([l.slope for l in lines])
        b = np.array([l.intercept for l in lines])
        deltas = breakpoint_deltas(N_max, 300)
        for d in deltas.tolist():
            vals = m * d + b
            # the exact least line is among those within rounding of it
            near = np.flatnonzero(vals <= vals.min() * (1 + 1e-12))
            D = Fraction(d)
            least = min(Fraction(m[i]) * D + Fraction(b[i]) for i in near)
            if d >= 0.25:
                assert least * least >= D, d
                continue
            # below 1/4 the least exact tangent is the one at a = 1/4
            n = N_max if d * N_max <= 1 else int(1 / d)
            exact = min([exact_tail(k) * (k * D + 1)
                         for k in range(max(n - 2, 1), min(n + 2, N_max) + 1)]
                        + [D + Fraction(1, 4)])
            assert least >= exact, d


class TestPedersenEnvelope:
    def test_matches_line_minimum(self):
        env = cb.pedersen_envelope(N_max=64)
        lines = [cb.pedersen_line(N) for N in range(1, 65)]
        for d in np.linspace(0.0, 1.0, 101):
            want = min(line.value(d) for line in lines)
            assert env.evaluate(float(d)) == want

    def test_dominates_sqrt(self):
        env = cb.pedersen_envelope(N_max=512)
        deltas = np.linspace(0.0, 1.0, 401)
        assert np.all(env.evaluate(deltas) >= np.sqrt(deltas) - 1e-15)

    def test_tracks_two_over_sqrt_pi_asymptote(self):
        # min_N over the series lines approaches (2/sqrt(pi)) sqrt(delta)
        # from a hair below; sqrt(delta) itself stays a firm floor
        env = cb.pedersen_envelope(N_max=100000)
        for d in (1e-4, 1e-3, 1e-2, 0.1):
            ratio = env.evaluate(d) / math.sqrt(d)
            assert 1.0 <= ratio <= 1.05 * 2.0 / math.sqrt(math.pi)


class TestGammaEnvelope:
    def test_pinch_points(self, gamma_small):
        assert abs(gamma_small.evaluate(0.25) - 0.5) <= 1e-12
        assert abs(gamma_small.evaluate(1.0) - 1.0) <= 1e-12

    def test_equals_sqrt_on_upper_range(self, gamma_small):
        deltas = np.linspace(0.25, 1.0, 200)
        np.testing.assert_allclose(gamma_small.evaluate(deltas), np.sqrt(deltas), atol=1e-12, rtol=0)

    def test_strictly_above_sqrt_below_quarter(self, gamma_small):
        # the refinement toward sqrt applies only past the crossing at 1/4
        for d in (0.01, 0.1, 0.2):
            assert gamma_small.evaluate(d) > math.sqrt(d) + 1e-6

    def test_small_delta_ratio(self, gamma_small):
        for d in (1e-3, 1e-2, 0.1):
            ratio = gamma_small.evaluate(d) / math.sqrt(d)
            assert ratio <= 1.05 * 2.0 / math.sqrt(math.pi)

    def test_monotone(self, gamma_small):
        deltas = np.linspace(0.0, 1.0, 500)
        vals = gamma_small.evaluate(deltas)
        assert np.all(np.diff(vals) >= -1e-15)

    def test_clamps_above_one(self, gamma_small):
        assert gamma_small.evaluate(1.7) == gamma_small.evaluate(1.0)
        val, prov = gamma_small.evaluate_with_provenance(1.7)
        assert "clamped" in prov

    def test_provenance_regions(self, gamma_small):
        val, prov = gamma_small.evaluate_with_provenance(0.5)
        assert prov.startswith("tangent a=")
        val, prov = gamma_small.evaluate_with_provenance(0.05)
        assert prov.startswith("pedersen N=")

    def test_vector_and_scalar_agree(self, gamma_small):
        deltas = np.array([0.1, 0.25, 0.6, 1.0])
        vec = gamma_small.evaluate(deltas)
        for d, v in zip(deltas, vec):
            assert gamma_small.evaluate(float(d)) == v

    def test_segments_cover_domain(self, gamma_small):
        segs = gamma_small.segments(0.0, 1.0)
        assert segs[0][0] == 0.0 and segs[-1][1] == 1.0
        slopes = [s[2] for s in segs]
        assert all(x > y for x, y in zip(slopes, slopes[1:]))

    def test_every_line_domain_is_the_unit_interval(self, gamma_small):
        assert gamma_small.delta_max == 1.0
        assert {l.delta_max for l in gamma_small.lines()} == {1.0}

    @staticmethod
    def traced_peak(N_max):
        tracemalloc.start()
        try:
            cb.gamma0(N_max)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_default_envelope_memory(self):
        # the Pedersen lines are valued from N when read, so the curve
        # stores only its 1,024 tangents (0.12 MB; 4.0 MB when the series
        # tables built every line)
        assert self.traced_peak(10 ** 5) < 0.5 * 10 ** 6

    def test_envelope_memory_does_not_grow_with_n_max(self):
        assert self.traced_peak(MAX_SQRT_LINES) < 0.5 * 10 ** 6


class BruteEnvelope:
    """Reference for gamma0 and pedersen_envelope: the brute-force minimum
    over every line, as a BoundCurve, and for gamma0 sqrt(delta) on [1/4, 1]
    where it is strictly lower (the tangent at the exact minimizer).  The
    lines are valued by the closed forms the curves use, which
    TestExactLines checks against exact rationals; the reference checks the
    candidate windows.  The gamma0 reference keeps the cap 1 as its last
    line, so the tests against it show that the cap never wins."""

    def __init__(self, N_max, a_grid=None):
        m, b = pb._pedersen_lines(np.arange(1, N_max + 1))
        m, b = [m], [b]
        provs = ["pedersen N=%d" % N for N in range(1, N_max + 1)]
        self.sqrt = a_grid is not None
        if self.sqrt:
            a = np.linspace(0.25, 1.0, a_grid)
            tm, tb = pb._tangent(a)
            m += [tm, [0.0]]
            b += [tb, [1.0]]
            provs += ["tangent a=%.12g" % x for x in a] + ["constant cap"]
        m, b = np.concatenate(m), np.concatenate(b)
        self.curve = cb.BoundCurve(arrays=(m, b, 1.0, provs.__getitem__),
                                   clamp_above=self.sqrt)

    def __call__(self, delta):
        """(value, provenance) at one delta in [0, 1]."""
        val, prov = self.curve.evaluate_with_provenance(delta)
        if self.sqrt and delta >= 0.25 and math.sqrt(delta) < val:
            return math.sqrt(delta), "tangent a=delta (exact minimizer)"
        return val, prov


def breakpoint_deltas(N_max, count=None):
    """Every 1/N for N <= N_max + 3 (or `count` of them, spread
    geometrically) with both neighbours, plus a uniform grid of [0, 1]."""
    N = np.arange(1, N_max + 4) if count is None else np.unique(
        np.geomspace(1, N_max + 3, count).astype(int))
    inv = 1.0 / N
    d = np.r_[inv, np.nextafter(inv, 0.0), np.nextafter(inv, 2.0),
              np.linspace(0.0, 1.0, 401), 1e-300, 5e-324]
    return np.unique(d[d <= 1.0])


@functools.lru_cache(maxsize=None)
def envelopes(N_max, a_grid):
    """(closed form, brute-force reference) for gamma0 and the pedersen
    envelope; the curves are read-only, so one pair serves every test."""
    return [(cb.gamma0(N_max, a_grid), BruteEnvelope(N_max, a_grid)),
            (cb.pedersen_envelope(N_max), BruteEnvelope(N_max))]


SIZES = [(1, 2), (2, 2), (3, 5), (64, 16), (2000, 256)]


class TestClosedForm:
    @pytest.mark.parametrize("N_max, a_grid", SIZES + [(100000, 1024)])
    def test_equals_brute_force(self, N_max, a_grid):
        # bitwise below 1/4; on [1/4, 1] never below and at most 1 ulp above
        count = 300 if N_max > 2000 else None
        deltas = breakpoint_deltas(N_max, count)
        for env, ref in envelopes(N_max, a_grid):
            vals = env.evaluate(deltas)
            for d, v in zip(deltas, vals):
                want, prov = ref(float(d))
                got = env.evaluate_with_provenance(float(d))
                if d < 0.25 or not ref.sqrt:
                    assert got == (want, prov), d
                    assert v == want, d
                else:
                    assert want <= v <= np.nextafter(want, 2.0), d
                    assert got[0] == v

    def test_lines_are_the_brute_force_lines(self):
        for env, ref in envelopes(64, 16):
            want = ref.curve.lines()[:-1] if ref.sqrt else ref.curve.lines()
            assert [(l.slope, l.intercept, l.delta_max, l.provenance)
                    for l in env.lines()] == [
                (l.slope, l.intercept, l.delta_max, l.provenance)
                for l in want]
        assert cb.gamma0(64, 16).size == 64 + 16

    @pytest.mark.parametrize("N_max, a_grid", SIZES)
    def test_zero_and_negative_zero(self, N_max, a_grid):
        for env, ref in envelopes(N_max, a_grid):
            want = ref(0.0)
            if not ref.sqrt:
                assert want[1] == "pedersen N=%d" % N_max
            assert env.evaluate_with_provenance(0.0) == want
            assert env.evaluate_with_provenance(-0.0) == want
            assert env.evaluate(np.array([0.0, -0.0]))[1] == want[0]

    @pytest.mark.parametrize("delta", [math.nan, np.array([0.25, math.nan]),
                                       np.array([[math.nan, 2.0]])],
                             ids=["scalar", "array", "nested"])
    def test_nan_rejected(self, delta):
        # a NaN "bound" once came back labelled as clamped at delta = 1
        for env in (cb.gamma0(64, 16), cb.pedersen_envelope(64)):
            for call in (env.evaluate, env.evaluate_with_provenance):
                with pytest.raises(ValueError, match="nonnegative"):
                    call(delta)

    @pytest.mark.parametrize("lo", [-0.5, -1e-300, math.nan])
    def test_segments_reject_negative_or_nan_lo(self, lo):
        for env in (cb.gamma0(64, 16), cb.pedersen_envelope(64)):
            with pytest.raises(ValueError, match="nonnegative"):
                env.segments(lo, 1.0)

    def test_line_index_outside_range_rejected(self):
        env = cb.gamma0(64, 16)
        for idx in (-1, -env.size, env.size, env.size + 1):
            with pytest.raises(IndexError):
                env.line(idx)
        # int() would truncate 1.7 to line 1 and read True as line 1
        for idx in (1.7, 1.0, True, np.bool_(True), np.float64(1.0), "1",
                    None):
            with pytest.raises(TypeError, match="integer"):
                env.line(idx)
        assert env.line(np.int64(1)) == env.line(1)
        assert env.line(1).provenance == "pedersen N=2"
        assert env.line(0).provenance == "pedersen N=1"
        assert env.line(env.size - 1).provenance == "tangent a=1"

    @pytest.mark.parametrize("N_max, a_grid", SIZES)
    def test_clamps_above_one(self, N_max, a_grid):
        env = cb.gamma0(N_max, a_grid)
        at_one = env.evaluate(1.0)
        assert env.evaluate(1.7) == at_one
        assert np.array_equal(env.evaluate(np.array([1.0, 1.5, 1e300])),
                              [at_one] * 3)
        val, prov = env.evaluate_with_provenance(1.7)
        assert val == at_one
        assert prov == env.evaluate_with_provenance(1.0)[1] + \
            " (clamped at delta=1)"
        with pytest.raises(ValueError):
            cb.pedersen_envelope(N_max).evaluate(1.5)

    @pytest.mark.parametrize("N_max, a_grid", SIZES + [(100000, 1024)])
    def test_vector_equals_scalar(self, N_max, a_grid):
        deltas = breakpoint_deltas(min(N_max, 500))
        for env, _ in envelopes(N_max, a_grid):
            vals = env.evaluate(deltas)
            assert np.array_equal(vals, [env.evaluate(float(d)) for d in deltas])
            grid = deltas[:400].reshape(20, 20)
            assert np.array_equal(env.evaluate(grid), vals[:400].reshape(20, 20))


EXACT = "tangent a=delta (exact minimizer)"


def segment_deltas(curve):
    """Every segment end of the curve with both neighbours, plus a uniform
    grid of its domain."""
    ends = np.array([x for a, b, *_ in curve.segments() for x in (a, b)])
    d = np.r_[ends, np.nextafter(ends, 0.0), np.nextafter(ends, 3.0),
              np.linspace(0.0, curve.delta_max, 401)]
    return np.unique(d[(d >= 0.0) & (d <= curve.delta_max)])


def assert_valued_by_named_line(curve, deltas):
    """Each value is, bit for bit, the arithmetic m*delta + b of the line its
    provenance names, or sqrt(delta) for the exact minimizer."""
    lines = {l.provenance: l for l in curve.lines()}
    assert len(lines) == curve.size
    vals, provs = curve.evaluate_with_provenance(deltas)
    want = np.array([math.sqrt(d) if p == EXACT else
                     np.float64(lines[p].slope) * d + lines[p].intercept
                     for d, p in zip(deltas.tolist(), provs)])
    assert vals.tobytes() == want.tobytes()


class TestOnePath:
    @pytest.mark.parametrize("N_max, a_grid", SIZES + [(100000, 1024)])
    def test_sqrt_values_come_from_the_named_line(self, N_max, a_grid):
        deltas = breakpoint_deltas(N_max, 300 if N_max > 2000 else None)
        for env, _ in envelopes(N_max, a_grid):
            assert_valued_by_named_line(env, deltas)

    @pytest.mark.parametrize("name", ["triangle", "bump", "complex"])
    def test_circle_values_come_from_the_named_line(self, name, request):
        f = (cb.from_coefficients({1: 0.5, -2: 0.25j, 3: 0.125})
             if name == "complex" else request.getfixturevalue(name))
        env = cb.truncation_envelope(f, 16)
        assert_valued_by_named_line(env, segment_deltas(env))

    def test_ties_go_to_the_stored_line(self):
        # at 1/4 the a = 1/4 tangent and sqrt(delta) are both 0.5; at 1,
        # pedersen line 1, the a = 1 tangent and sqrt(delta) are all 1
        env = cb.gamma0()
        assert env.evaluate_with_provenance(0.25) == (0.5, "tangent a=0.25")
        assert env.evaluate_with_provenance(1.0) == (1.0, "pedersen N=1")


class TestReflection:
    def test_reflect_instance_is_complement(self):
        H = cb.random_positive_contraction(5, seed=3)
        R = cb.reflect_instance(H)
        np.testing.assert_allclose(R, np.eye(5) - H, atol=0)
        np.testing.assert_allclose(cb.reflect_instance(R), H, atol=1e-15)

    def test_reflect_instance_validation(self):
        with pytest.raises(ValueError):
            cb.reflect_instance(np.array([[0.5, 1.0], [0.0, 0.5]]))
        with pytest.raises(ValueError):
            cb.reflect_instance(np.diag([0.5, 1.5]))

    def test_reflect_function_formula(self):
        f2 = cb.reflect_function(np.sqrt)
        xs = np.arange(257) / 256.0
        np.testing.assert_array_equal(f2(xs), 1.0 - np.sqrt(1.0 - xs))
        assert f2.inner is np.sqrt

    def test_reflect_function_fixed_values(self):
        f2 = cb.reflect_function(np.sqrt)
        assert f2(np.array([0.0]))[0] == 0.0
        assert f2(np.array([1.0]))[0] == 1.0
        assert f2(np.array([0.75]))[0] == 0.5

    def test_commutator_norm_transfers(self):
        # [f2(H), A] = -[sqrt(I - H), A] when f2(x) = 1 - sqrt(1 - x)
        rng = cb.stream(11, 0)
        H = cb.random_positive_contraction(6, seed=11)
        A = cb.random_contraction(6, seed=12)
        f2 = cb.reflect_function(np.sqrt)
        lhs = cb.op_norm(cb.commutator(cb.hermitian_calculus(f2, H), A))
        rhs = cb.op_norm(cb.commutator(cb.hermitian_calculus(np.sqrt, np.eye(6) - H), A))
        assert abs(lhs - rhs) <= 1e-12
