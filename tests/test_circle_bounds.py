"""Tests for unitary-commutator bound lines, envelopes, and the lower bound."""

import csv
import json
import math
import tracemalloc

import numpy as np
import pytest

import commbound as cb
import frozen_envelope
from commbound import circle_bounds, periodic_fn


@pytest.fixture(scope="module")
def complex_poly():
    return cb.from_coefficients({1: 0.5, -2: 0.25j, 3: 0.125})


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def closed_triangle_lower(delta):
    return (4.0 / math.pi) * math.asin(delta / 2.0)


def closed_bump_lower(delta):
    w = 2.0 * math.asin(delta / 2.0)
    if w >= math.pi / 2.0:
        return 1.0
    return math.sqrt(1.0 - (1.0 - 2.0 * w / math.pi) ** 2)


class TestBoundLine:
    def test_value_is_affine(self):
        line = cb.BoundLine(1.5, 0.25, 2.0, "x")
        assert line.value(0.0) == 0.25
        assert line.value(1.0) == 1.75

    def test_negative_slope_rejected(self):
        with pytest.raises(ValueError):
            cb.BoundLine(-0.1, 0.0)

    def test_zero_and_negative_zero_accepted(self):
        for m, b in [(0.0, -0.0), (-0.0, 0.0), (0.0, 0.0)]:
            assert cb.BoundLine(m, b).value(1.0) == 0.0

    def test_negative_intercept_rejected(self):
        with pytest.raises(ValueError):
            cb.BoundLine(1.0, -1e-9)

    def test_domain_endpoint_rejected(self):
        with pytest.raises(ValueError):
            cb.BoundLine(1.0, 0.0, delta_max=0.0)
        with pytest.raises(ValueError):
            cb.BoundLine(1.0, 0.0, delta_max=2.5)


class TestBoundCurve:
    def lines(self):
        return [
            cb.BoundLine(2.0, 0.0, 2.0, "steep"),
            cb.BoundLine(0.5, 0.4, 2.0, "shallow"),
            cb.BoundLine(0.0, 1.2, 2.0, "flat"),
        ]

    def test_pointwise_minimum(self):
        curve = cb.BoundCurve(lines=self.lines())
        deltas = np.linspace(0.0, 2.0, 401)
        want = np.minimum(2.0 * deltas, np.minimum(0.5 * deltas + 0.4, 1.2))
        np.testing.assert_array_equal(curve.evaluate(deltas), want)

    def test_scalar_evaluate(self):
        curve = cb.BoundCurve(lines=self.lines())
        assert curve.evaluate(0.1) == 0.2

    def test_provenance_tracks_active_line(self):
        curve = cb.BoundCurve(lines=self.lines())
        assert curve.evaluate_with_provenance(0.1)[1] == "steep"
        assert curve.evaluate_with_provenance(0.5)[1] == "shallow"
        assert curve.evaluate_with_provenance(1.9)[1] == "flat"

    def test_mixed_domains_rejected(self):
        lines = [cb.BoundLine(0.0, 0.1, 0.5, "narrow"), cb.BoundLine(0.0, 0.3, 2.0, "wide")]
        with pytest.raises(ValueError, match="one domain"):
            cb.BoundCurve(lines=lines)
        assert cb.BoundCurve(lines=lines[:1]).delta_max == 0.5

    @pytest.mark.parametrize("delta_max", [5.0, 2.5, 0.0, -1.0, math.nan])
    def test_array_domain_checked(self, delta_max):
        with pytest.raises(ValueError, match="delta_max"):
            cb.BoundCurve(arrays=([1.0], [0.0], delta_max, str))

    def test_array_domain_is_one_number(self):
        with pytest.raises(TypeError):
            cb.BoundCurve(arrays=([1.0], [0.0], [5.0], str))

    @pytest.mark.parametrize("m, b", [
        ([1.0, 2.0], [0.0]),
        ([1.0], [0.0, 0.5]),
        ([[1.0, 2.0]], [[0.0, 0.5]]),
        (1.0, 0.0),
    ], ids=["short-b", "short-m", "two-d", "scalars"])
    def test_array_lengths_checked(self, m, b):
        with pytest.raises(ValueError, match="one length"):
            cb.BoundCurve(arrays=(m, b, 2.0, str))

    @pytest.mark.parametrize("m, b, what", [
        ([1.0, -1.0], [0.0, 0.0], "slope"),
        ([1.0, math.nan], [0.0, 0.0], "slope"),
        ([-1.0], [math.nan], "slope"),
        ([1.0, 0.0], [0.0, -1e-300], "intercept"),
        ([1.0], [math.nan], "intercept"),
    ])
    def test_array_signs_checked_as_lines_are(self, m, b, what):
        # the messages of BoundLine, which checks the slope first
        with pytest.raises(ValueError, match="%s must be nonnegative" % what):
            cb.BoundCurve(arrays=(m, b, 2.0, str))
        with pytest.raises(ValueError, match="%s must be nonnegative" % what):
            [cb.BoundLine(s, c) for s, c in zip(m, b)]

    def test_valid_arrays_accepted(self):
        curve = cb.BoundCurve(arrays=([2.0, 0.0, math.inf], [0.0, 1.0, -0.0],
                                      2.0, str))
        assert curve.size == 3 and curve.evaluate(0.25) == 0.5

    def test_line_index_outside_range_rejected(self):
        curve = cb.BoundCurve(lines=self.lines())
        for idx in (-1, 3, 100):
            with pytest.raises(IndexError):
                curve.line(idx)
        assert curve.lines() == self.lines()

    def test_out_of_range_rejected(self):
        curve = cb.BoundCurve(lines=self.lines())
        with pytest.raises(ValueError):
            curve.evaluate(-0.01)
        with pytest.raises(ValueError):
            curve.evaluate(2.01)

    @pytest.mark.parametrize("clamp", [False, True])
    @pytest.mark.parametrize("delta", [math.nan, [0.5, math.nan],
                                       [[math.nan]]],
                             ids=["scalar", "array", "nested"])
    def test_nan_rejected(self, delta, clamp):
        curve = cb.BoundCurve(lines=self.lines(), clamp_above=clamp)
        delta = np.array(delta) if isinstance(delta, list) else delta
        for call in (curve.evaluate, curve.evaluate_with_provenance):
            with pytest.raises(ValueError, match="nonnegative"):
                call(delta)

    def test_negative_zero_accepted(self):
        curve = cb.BoundCurve(lines=self.lines())
        assert curve.evaluate_with_provenance(-0.0) == (0.0, "steep")
        assert curve.evaluate(np.array([-0.0, 0.1])).tolist() == [0.0, 0.2]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cb.BoundCurve(lines=[])

    def test_empty_arrays_rejected(self):
        with pytest.raises(ValueError,
                           match="^a bound curve needs at least one line$"):
            cb.BoundCurve(arrays=([], [], 1.0, str))

    @pytest.mark.parametrize("lo, hi", [(0.5, 0.5), (0.7, 0.2), (2.0, None),
                                        (0.0, 0.0)])
    def test_segments_reject_an_empty_interval(self, lo, hi):
        curve = cb.BoundCurve(lines=self.lines())
        with pytest.raises(ValueError, match="^empty segmentation interval$"):
            curve.segments(lo, hi)

    @pytest.mark.parametrize("lo", [-0.5, -1e-300, math.nan])
    def test_segments_reject_negative_or_nan_lo(self, lo):
        curve = cb.BoundCurve(lines=self.lines())
        with pytest.raises(ValueError, match="nonnegative"):
            curve.segments(lo, 1.0)

    def test_segments_accept_negative_zero_lo(self):
        curve = cb.BoundCurve(lines=self.lines())
        assert curve.segments(-0.0, 1.0) == curve.segments(0.0, 1.0)

    def test_segments_partition_and_match_evaluation(self):
        rng = np.random.default_rng(7)
        lines = [
            cb.BoundLine(float(m), float(b), 2.0, "l%d" % i)
            for i, (m, b) in enumerate(zip(rng.uniform(0, 3, 12), rng.uniform(0, 2, 12)))
        ]
        curve = cb.BoundCurve(lines=lines)
        segs = curve.segments(0.0, 2.0)
        assert segs[0][0] == 0.0 and segs[-1][1] == 2.0
        for (a0, b0, *_), (a1, *_) in zip(segs, segs[1:]):
            assert b0 == a1
        # active slopes of a lower envelope only ever decrease
        slopes = [s[2] for s in segs]
        assert all(x > y for x, y in zip(slopes, slopes[1:]))
        for lo, hi, m, b, prov in segs:
            assert (m, b) == (lines[int(prov[1:])].slope,
                              lines[int(prov[1:])].intercept)
            for d in np.linspace(lo, hi, 9):
                assert abs(m * d + b - curve.evaluate(d)) <= 1e-12


class TestArrayProvenance:
    def test_array_call_equals_scalar_calls(self, triangle_envelope):
        deltas = np.linspace(0.0, 2.0, 41)
        vals, provs = triangle_envelope.evaluate_with_provenance(deltas)
        assert vals.shape == (41,) and len(provs) == 41
        for d, v, p in zip(deltas, vals, provs):
            assert (v, p) == triangle_envelope.evaluate_with_provenance(float(d))

    def test_clamped_rows_say_so(self):
        curve = cb.BoundCurve([cb.BoundLine(1.0, 0.0, 1.0, "a")], clamp_above=True)
        vals, provs = curve.evaluate_with_provenance(np.array([[0.5, 1.5]]))
        assert vals.tolist() == [[0.5, 1.0]]
        assert provs == ["a", "a (clamped at delta=1)"]


class TestFolkAndSplit:
    def test_folk_line_from_derivative_norm(self, triangle):
        g = cb.truncate(triangle, 1)
        line = cb.folk_line(g)
        assert line.intercept == 0.0
        assert abs(line.slope - 8.0 / math.pi ** 2) <= 1e-15

    def test_split_line_adds_remainder_oscillation(self, triangle):
        g = cb.truncate(triangle, 1)
        line = cb.split_line(triangle, g)
        assert abs(line.slope - 8.0 / math.pi ** 2) <= 1e-15
        # remainder is the triangle minus its fundamental mode; its extremes
        # sit at 0 and pi, giving oscillation 2 (1 - 8/pi^2)
        want = 2.0 * (1.0 - 8.0 / math.pi ** 2)
        assert abs(line.intercept - want) <= 1e-6

    def test_split_of_polynomial_by_itself_is_folk(self):
        p = cb.from_coefficients({1: 0.5, -1: 0.5})
        line = cb.split_line(p, p)
        assert line.intercept <= 1e-12
        assert abs(line.slope - 1.0) <= 1e-15


class TestLineZeroIsTheCap:
    @pytest.mark.parametrize("make", [
        cb.builtin_triangle,
        cb.builtin_bump,
        lambda: cb.from_coefficients({1: 0.5, -2: 0.25j, 3: 0.125}),
        # the one input seen where the cap took its l1 branch
        lambda: cb.from_coefficients({1: 1e6}),
    ], ids=["triangle", "bump", "complex", "big"])
    def test_flat_cap_never_wins(self, make):
        # line N = 0 is the range bound: no flat cap min(2 radius, 2 l1)
        # lies below it, and adding one changes no value and no provenance
        f = make()
        env = cb.truncation_envelope(f, 16)
        l1 = cb.coefficient_l1(f)
        cap = 2.0 * cb.chebyshev_radius(f)
        if l1 is not None:
            cap = min(cap, 2.0 * l1)
        assert env.line(0).slope == 0.0
        assert env.line(0).intercept <= cap
        capped = cb.BoundCurve(env.lines() + [cb.BoundLine(0.0, cap, 2.0, "cap")])
        deltas = np.linspace(0.0, 2.0, 4001)
        got, want = env.evaluate_with_provenance(deltas), \
            capped.evaluate_with_provenance(deltas)
        assert same_bits(got[0], want[0])
        assert got[1] == want[1]


class TestTruncationEnvelope:
    def test_pure_mode_doubles_delta(self):
        p = cb.from_coefficients({2: 1.0})
        env = cb.truncation_envelope(p, 4, grid_size=4096)
        for d in (0.0, 0.3, 0.9):
            assert abs(env.evaluate(d) - min(2.0 * d, 2.0)) <= 1e-12

    def test_constant_function_costs_nothing(self):
        p = cb.from_coefficients({0: 0.8})
        env = cb.truncation_envelope(p, 2, grid_size=4096)
        for d in (0.0, 1.0, 1.99):
            assert env.evaluate(d) == 0.0

    def test_triangle_envelope_shape(self, triangle_envelope):
        deltas = np.linspace(0.0, 1.99, 200)
        vals = triangle_envelope.evaluate(deltas)
        # nondecreasing, capped by the flat oscillation line
        assert np.all(np.diff(vals) >= -1e-15)
        assert np.all(vals <= 2.0 + 1e-15)
        assert vals[0] <= 0.35

    def test_triangle_envelope_beats_single_lines(self, triangle, triangle_envelope):
        for N in (0, 4, 16):
            line = cb.split_line(triangle, cb.truncate(triangle, N))
            for d in (0.05, 0.4, 1.2):
                assert triangle_envelope.evaluate(d) <= line.value(d) + 1e-12

    def test_provenance_names_active_degree(self, triangle_envelope):
        val, prov = triangle_envelope.evaluate_with_provenance(0.02)
        assert prov.startswith("truncation N=")
        # the fundamental-mode split meets the flat line N = 0 exactly at
        # delta 2
        val, prov = triangle_envelope.evaluate_with_provenance(1.98)
        assert prov.startswith("truncation N=1")
        assert val < 2.0
        val, prov = triangle_envelope.evaluate_with_provenance(2.0)
        assert abs(val - 2.0) <= 1e-12

    def test_shift_invariance_for_polynomials(self, triangle):
        base = cb.truncate(triangle, 9)
        shifted = cb.from_coefficients(
            {int(n): base.coefficient(n) + (0.3 if n == 0 else 0.0) for n in base.ns}
        )
        env0 = cb.truncation_envelope(base, 9, grid_size=8192)
        env1 = cb.truncation_envelope(shifted, 9, grid_size=8192)
        for d in np.linspace(0.0, 1.99, 40):
            assert abs(env0.evaluate(d) - env1.evaluate(d)) <= 1e-12

    def test_segments_reject_negative_lo(self, triangle):
        env = cb.truncation_envelope(triangle, 4, grid_size=4096)
        with pytest.raises(ValueError, match="nonnegative"):
            env.segments(-1.0)
        assert env.segments(0.0)[0][0] == 0.0

    def test_negative_degree_rejected(self, triangle):
        with pytest.raises(ValueError):
            cb.truncation_envelope(triangle, -1)

    def test_real_f_with_asymmetric_head_takes_no_disk(self, monkeypatch):
        # a_-3 breaks conjugate symmetry by 1e-17j: the remainders are
        # scanned against Re g_N as real rows, and the curve still holds
        coeffs = {1: 0.5, -1: 0.5, 3: 0.25, -3: 0.25 + 1e-17j}
        f = cb.PeriodicFunction(lambda x: np.cos(x) + 0.5 * np.cos(3 * x),
                                real_valued=True,
                                coefficient_rule=lambda n: coeffs.get(n, 0.0))

        def no_disk(pts):
            raise AssertionError("a real-valued f's remainder took the disk")

        monkeypatch.setattr(circle_bounds, "_smallest_disk", no_disk)
        curve = cb.truncation_envelope(f, 8)
        assert len(cb.sample_sweep(f, "unitary", 500, range(2, 9), 0,
                                   curve)) == 500

    def test_bump_envelope_builds_from_estimates(self, bump):
        # even coefficients only reach 2.5e-10 certified error, which the
        # envelope absorbs rather than refusing to build
        env = cb.truncation_envelope(bump, 4, grid_size=4096)
        vals = env.evaluate(np.linspace(0.0, 1.99, 50))
        assert np.all(vals <= 1.0 + 1e-12)
        assert np.all(np.diff(vals) >= -1e-15)

    def test_lines_do_not_depend_on_earlier_requests(self):
        # a finer request before the envelope must not move its tail
        # branch: the ladder answers each request from its levels anew
        f = cb.builtin_bump()
        periodic_fn._coefficients(f, np.arange(-128, 129), 1e-10)
        got = cb.truncation_envelope(f, 8, grid_size=4096).lines()
        assert got == cb.truncation_envelope(cb.builtin_bump(), 8,
                                             grid_size=4096).lines()

    @pytest.mark.parametrize("make", [
        cb.builtin_bump,
        lambda: cb.PeriodicFunction(cb.builtin_triangle().rule,
                                    real_valued=True),
        lambda: cb.PeriodicFunction(lambda x: np.exp(np.exp(1j * x))),
    ], ids=["bump", "raw-triangle", "exp-exp"])
    def test_tails_equal_one_fetch_per_block(self, make):
        # the tails of every N come from slices of one fetch; each equals
        # the tail summed from its own three block fetches
        def tail(f, N):
            cut = max(10 * max(N, 1), N + 8)
            sums = []
            for a, b in ((N + 1, cut), (cut + 1, 2 * cut),
                         (2 * cut + 1, 4 * cut)):
                values, errors = periodic_fn._coefficients(
                    f, periodic_fn._signed_orders(a, b), 1e-6)
                if not np.all(errors <= 1e-6):
                    return None
                sums.append(float(np.cumsum(
                    np.r_[0.0, np.abs(values) + 1e-6])[-1]))
            s, b0, b1 = sums
            if b0 <= 0.0:
                return None if b1 > 0.0 else 2.0 * s
            r = b1 / b0
            return None if r >= 0.75 else 2.0 * (s + b0 + b1
                                                 + b1 * r / (1.0 - r))

        want = [tail(make(), N) for N in range(13)]
        assert circle_bounds._corollary_tails(make(), 12) == want

    def test_tail_branch_bounds_true_tail(self, bump):
        special = pytest.importorskip("scipy.special")
        got = circle_bounds._corollary_tails(bump, 2)[2]
        assert got is not None
        true_tail = 2.0 * sum(
            2.0 * abs(special.j1(n * math.pi / 2.0) / (2.0 * n))
            for n in range(3, 4000)
        )
        assert got >= true_tail


def per_degree_lines(f, N_max, grid_size=2 ** 16):
    """The envelope's truncation lines with every remainder sampled through
    its own PeriodicFunction by chebyshev_radius, one degree at a time."""
    coeffs, err_run = {}, [0.0]
    for k in range(N_max + 1):
        step = err_run[-1]
        for n in ((0,) if k == 0 else (k, -k)):
            coeffs[n], err = cb.fourier_coefficient_estimate(f, n)
            step += err
        err_run.append(step)
    tails = circle_bounds._corollary_tails(f, N_max)
    lines = []
    for N in range(N_max + 1):
        g = cb.TrigPolynomial({n: coeffs[n] for n in range(-N, N + 1)})
        b_lemma = 2.0 * cb.chebyshev_radius(circle_bounds._remainder(f, g),
                                            grid_size)
        b_tail = tails[N] + 2.0 * err_run[N + 1]
        if b_tail < b_lemma:
            b, prov = b_tail, "truncation N=%d (tail) [oscillation b=%.6g]" % (
                N, b_lemma)
        else:
            b, prov = b_lemma, "truncation N=%d (oscillation) [tail b=%.6g]" % (
                N, b_tail)
        lines.append((cb.derivative_fourier_norm(g), b, prov))
    return lines


class TestSharedRemainderTable:
    @pytest.mark.parametrize("name", ["triangle", "bump"])
    def test_lines_equal_per_degree_remainders(self, name, request):
        f = request.getfixturevalue(name)
        env = (request.getfixturevalue("triangle_envelope") if name == "triangle"
               else cb.truncation_envelope(f, 16))
        got = [(l.slope, l.intercept, l.provenance) for l in env.lines()]
        assert got == per_degree_lines(f, 16)

    def test_complex_polynomial_lines_equal_per_degree_remainders(self):
        p = cb.from_coefficients({1: 0.5, -2: 0.25j, 3: 0.125})
        env = cb.truncation_envelope(p, 4, grid_size=4096)
        got = [(l.slope, l.intercept, l.provenance) for l in env.lines()]
        assert got == per_degree_lines(p, 4, grid_size=4096)

    def test_all_complex_remainders_equal_per_degree_remainders(self):
        # exp(e^{ix}) has a_n = 1/n! for n >= 0 only: no truncation is real,
        # so every remainder takes the smallest-disk branch
        def coefficient(n):
            return 1.0 / math.factorial(n) if n >= 0 else 0.0

        def l1_tail(N):
            return sum(coefficient(n) for n in range(N + 1, 30))

        f = cb.PeriodicFunction(lambda x: np.exp(np.exp(1j * x)),
                                coefficient_rule=coefficient,
                                l1_tail_rule=l1_tail)
        env = cb.truncation_envelope(f, 4, grid_size=4096)
        got = [(l.slope, l.intercept, l.provenance) for l in env.lines()]
        assert got == per_degree_lines(f, 4, grid_size=4096)
        for N, (_, b, _) in enumerate(got):
            assert 0.0 < b <= 2.0 * l1_tail(N)

    def test_real_polynomial_lines_equal_per_degree_remainders(self):
        # at N >= 3 the truncation sums the polynomial's own terms in its
        # own order, so the remainder is exactly zero
        p = cb.from_coefficients({1: 0.5, -1: 0.5, 3: 0.2 + 0.1j, -3: 0.2 - 0.1j})
        env = cb.truncation_envelope(p, 5, grid_size=4096)
        got = [(l.slope, l.intercept, l.provenance) for l in env.lines()]
        assert got == per_degree_lines(p, 5, grid_size=4096)
        assert [l.intercept for l in env.lines()[3:]] == [0.0, 0.0, 0.0]


class TestExpTable:
    @pytest.mark.parametrize("degree", [0, 1, 16])
    def test_reflected_series_sums_at_negated_angles(self, degree):
        # f(-x) = sum a_{-n} e^{inx}: the running sums of the series at -x
        # equal those of the reflected series at x bit for bit at every
        # order, since k (-x) = -(k x), cos is even and sin is odd; the
        # reduced grid holds +0.0, and -0.0 and the seam are added
        x = periodic_fn._reduce_angle(periodic_fn._grid(2 ** 12))
        x = np.concatenate((x, [-0.0, 0.0, -np.pi, np.pi]))
        rng = np.random.default_rng(degree)
        c = rng.standard_normal((2 * degree + 1, 2)) @ np.array([1.0, 1j])
        got = periodic_fn._running_sums(c, -x, False)
        want = periodic_fn._running_sums(c[::-1].copy(), x, False)
        for N in range(degree + 1):
            assert same_bits(next(got), next(want)), N
        assert next(got, None) is None and next(want, None) is None

    @pytest.mark.parametrize("conjugate", [False, True])
    def test_pair_term_within_4_ulps_of_frozen_copy(self, conjugate):
        # the pair term added into a complex buffer of -0.0 against the
        # frozen complex-exp term; its real part is the real buffer's bit
        # for bit, and a conjugate pair adds a zero imaginary part
        x = periodic_fn._reduce_angle(periodic_fn._grid(2 ** 12))
        x = np.concatenate((x, [-0.0, 0.0, -np.pi, np.pi]))
        rng = np.random.default_rng(int(conjugate))
        a = rng.standard_normal((129, 2)) @ np.array([1.0, 1j])
        b = (np.conj(a) if conjugate
             else rng.standard_normal((129, 2)) @ np.array([1.0, 1j]))
        for k in range(129):
            got = -np.zeros(x.size, dtype=np.complex128)
            periodic_fn._add_pair(got, a[k], b[k], k, x)
            want = frozen_envelope._pair_term(a[k], b[k], k, x)
            tol = 4.0 * np.spacing(abs(a[k]) + abs(b[k]))
            assert np.max(np.abs(got.real - want.real)) <= tol, k
            assert np.max(np.abs(got.imag - want.imag)) <= tol, k
            real = -np.zeros(x.size)
            periodic_fn._add_pair(real, a[k], b[k], k, x)
            assert same_bits(got.real.copy(), real), k
            if conjugate:
                assert np.all(got.imag == 0.0), k

    def test_envelope_memory(self):
        # remainders are built one degree at a time on the 2^16 grid (1 MB
        # per complex row); a (33, 2^16) table of e^{inx} would be 34.6 MB
        f = cb.builtin_triangle()
        tracemalloc.start()
        try:
            cb.truncation_envelope(f, 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 10 ** 6


def degree60():
    return cb.from_coefficients({s * n: (-1) ** n / n ** 2
                                 for n in range(1, 61) for s in (1, -1)})


# a_n = (-1)^n / n^2 for 1 <= |n| <= 500 with a_0 = 0.3; real pairs, zero
# orders in between and at the top, and one conjugate-symmetric complex pair
DEG500A0 = {0: 0.3, **{s * n: (-1) ** n / n ** 2
                       for n in range(1, 501) for s in (1, -1)}}
SPARSE = {0: 0.25, 1: 0.5, -1: 0.5, 3: 0.2 + 0.05j, -3: 0.2 - 0.05j,
          4: -0.125, -4: -0.125, 9: 0.0625, -9: 0.0625, 12: 0.0}


def line_bits(lines):
    return [(float(m).hex(), float(b).hex(), prov) for m, b, prov in lines]


def assert_lines_within_ulps(got, want, ulps):
    """Equal slopes and provenance, and intercepts within ulps units in
    the last place of the frozen ones."""
    assert [(m.hex(), p) for m, _, p in got] == [(m.hex(), p) for m, _, p in want]
    b, b0 = np.array([l[1] for l in got]), np.array([l[1] for l in want])
    assert np.all(np.abs(b - b0) <= ulps * np.spacing(b0)), b - b0


class TestSweepAgainstFrozenCopy:
    """The remainder sweep's lines against the frozen complex sweep, at
    the CLI cap and on the real, complex and all-zero-remainder paths: bit
    for bit, but for the bump, whose quadrature pairs are complex and whose
    intercepts move by rounding (within 2 ulps).  Each side gets its own
    function."""

    @pytest.mark.parametrize("make, N_max", [
        (cb.builtin_triangle, 0),
        (cb.builtin_triangle, 1),
        (cb.builtin_triangle, 16),
        (cb.builtin_triangle, 128),
        (cb.builtin_bump, 16),
        (degree60, 60),
        (lambda: cb.from_coefficients({1: 0.5, -2: 0.25j, 3: 0.125}), 4),
    ], ids=["triangle-0", "triangle-1", "triangle-16", "triangle-128",
            "bump-16", "degree60-60", "complex-4"])
    def test_lines_equal_frozen_copy(self, make, N_max):
        env = cb.truncation_envelope(make(), N_max)
        got = [(l.slope, l.intercept, l.provenance) for l in env.lines()]
        want = frozen_envelope.truncation_lines(make(), N_max)
        if make is cb.builtin_bump:
            assert_lines_within_ulps(got, want, 2)
        else:
            assert line_bits(got) == line_bits(want)

    # the smallest grid, and one of 3 * 2^14 + 5 points
    @pytest.mark.parametrize("grid_size", [1024, 3 * 2 ** 14 + 5])
    @pytest.mark.parametrize("make, N_max", [
        (cb.builtin_triangle, 16),
        (degree60, 60),
        (lambda: cb.from_coefficients({1: 0.5, -2: 0.25j, 3: 0.125}), 4),
    ], ids=["triangle-16", "degree60-60", "complex-4"])
    def test_awkward_grid_sizes_equal_frozen_copy(self, make, N_max,
                                                  grid_size):
        env = cb.truncation_envelope(make(), N_max, grid_size=grid_size)
        got = [(l.slope, l.intercept, l.provenance) for l in env.lines()]
        want = frozen_envelope.truncation_lines(make(), N_max, grid_size)
        assert line_bits(got) == line_bits(want)


class TestSweepEqualsSplitLines:
    """Each line of the batch sweep against split_line of its own
    truncation, which samples one remainder through its own
    PeriodicFunction: slopes always, intercepts where the oscillation wins,
    bit for bit."""

    @pytest.mark.parametrize("make, N_max", [
        (cb.builtin_triangle, 16),
        (cb.builtin_bump, 16),
        (lambda: cb.from_coefficients(DEG500A0), 24),
        (lambda: cb.from_coefficients(SPARSE), 14),
        (lambda: cb.from_coefficients({1: 0.5, -2: 0.25j, 3: 0.125}), 6),
    ], ids=["triangle-16", "bump-16", "deg500-24", "sparse-mixed-14",
            "complex-6"])
    def test_lines_equal_split_lines(self, make, N_max):
        f = make()
        lines = cb.truncation_envelope(f, N_max).lines()
        assert any("(oscillation)" in l.provenance for l in lines)
        for N, line in enumerate(lines):
            split = cb.split_line(f, cb.truncate(f, N))
            assert line.slope.hex() == split.slope.hex()
            if "(oscillation)" in line.provenance:
                assert line.intercept.hex() == split.intercept.hex()


class TestRealSweepAgainstFrozenCopy:
    """Real heads summed in real arithmetic, zero pairs skipped: the lines
    against the frozen complex sweep, bit for bit where every pair is real,
    and intercepts within 1 ulp where a conjugate-symmetric complex pair
    adds a sine part."""

    @pytest.mark.parametrize("coefficients, N_max", [
        (DEG500A0, 24),
        (SPARSE, 14),
        ({0: -0.0, 1: 0.0, 2: 1.0, -2: 1.0}, 3),
        ({0: -0.0, 1: 0.0, -1: 0.0, 3: 0.5, -3: 0.5}, 4),
        ({0: 0.0, 1: 0.0, -1: 0.0, 3: 0.5, -3: 0.5}, 4),
    ], ids=["deg500", "sparse-mixed", "negzero", "negzero-zero-pair",
            "zero-pair"])
    def test_lines_equal_frozen_copy(self, coefficients, N_max):
        env = cb.truncation_envelope(cb.from_coefficients(coefficients), N_max)
        got = [(l.slope, l.intercept, l.provenance) for l in env.lines()]
        want = frozen_envelope.truncation_lines(
            cb.from_coefficients(coefficients), N_max)
        if coefficients is SPARSE:
            # from N = 9 on, the head is the whole polynomial, summed as its
            # rule sums it, so the remainder is exactly zero where the
            # frozen complex sum leaves 8.9e-16 and the tail (0) wins
            assert_lines_within_ulps(got[:9], want[:9], 1)
            assert [l[1:] for l in got[9:]] == [
                (0.0, "truncation N=%d (oscillation) [tail b=0]" % N)
                for N in range(9, 15)]
        else:
            assert line_bits(got) == line_bits(want)

    def test_bump_pairs_all_have_a_sine_part(self, bump):
        # quadrature coefficients are conjugate-symmetric with tiny
        # imaginary parts, so every pair of the bump's sweep takes the
        # sine part
        ns = np.arange(-128, 129)
        c = periodic_fn._coefficients(bump, ns, 1e-10)[0]
        assert np.all(c[::-1] == np.conj(c))
        assert np.all((c[129:] - c[:128][::-1]).imag != 0.0)


class TestSweepMemory:
    @pytest.mark.parametrize("N_max", [16, 128])
    def test_envelope_peak_below_one_set_of_sweep_arrays(self, N_max):
        # the grid, f, the twice-reduced angles, g_N and one order's term
        # and remainder; a table of every order would lift the peak above
        # 7.8 MB
        f = cb.builtin_triangle()
        tracemalloc.start()
        try:
            cb.truncation_envelope(f, N_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7 * 10 ** 6

    @pytest.mark.parametrize("make", [cb.builtin_triangle, cb.builtin_bump])
    @pytest.mark.parametrize("N_max", [16, 128])
    def test_envelope_peak_below_four_grid_rows(self, make, N_max):
        # the sweep holds f, the twice-reduced angles and g_N (real here),
        # 1.5 MB, and one order's term, sine part and remainder, and frees
        # them before the refinement builds its grid
        f = make()
        tracemalloc.start()
        try:
            cb.truncation_envelope(f, N_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 10 ** 6


class TestEtaLower:
    CLI_GRID = np.linspace(0.0, 1.99, 500)

    @pytest.mark.parametrize("imag", [
        lambda x: 0j, lambda x: 1e-13j * np.sin(x)], ids=["zero", "1e-13"])
    @pytest.mark.parametrize("make", [cb.builtin_triangle, cb.builtin_bump],
                             ids=["triangle", "bump"])
    def test_real_samples_equal_complex_samples(self, make, imag):
        # a real-valued f samples as the real part of its rule, so a
        # complex rule gives the float rule's outputs bit for bit; each
        # side has its own function, so neither reuses the other's memo
        f = make()
        g = cb.PeriodicFunction(lambda x: f.rule(x) + imag(x),
                                real_valued=True,
                                coefficient_rule=f.coefficient_rule,
                                l1_tail_rule=f.l1_tail_rule)
        assert g.sample(np.zeros(1)).dtype == np.float64
        assert circle_bounds._lower_table(g, 4096)[1].dtype == np.float64
        out = []
        for h in (f, g):
            lines = cb.truncation_envelope(h, 8, grid_size=4096).lines()
            out.append((
                cb.eta_lower(h, self.CLI_GRID).tobytes(),
                cb.chebyshev_radius(h).hex(),
                [(l.slope.hex(), l.intercept.hex(), l.provenance)
                 for l in lines]))
        assert out[0] == out[1]

    @pytest.mark.parametrize("name", ["triangle", "bump", "complex_poly"])
    def test_array_call_equals_scalar_calls(self, name, request):
        f = request.getfixturevalue(name)
        got = cb.eta_lower(f, self.CLI_GRID)
        want = np.array([cb.eta_lower(f, float(d)) for d in self.CLI_GRID])
        assert got.shape == (500,) and got.dtype == float
        np.testing.assert_array_equal(got, want)

    def test_array_shape_zero_and_domain(self, triangle):
        deltas = np.array([[0.0, 0.5], [1.0, 0.0]])
        got = cb.eta_lower(triangle, deltas)
        assert got.shape == (2, 2)
        assert got[0, 0] == 0.0 and got[1, 1] == 0.0
        assert got[0, 1] == cb.eta_lower(triangle, 0.5)
        np.testing.assert_array_equal(cb.eta_lower(triangle, np.zeros(3)), 0.0)
        for bad in ([0.5, -0.1], [0.5, 2.0], [np.nan]):
            with pytest.raises(ValueError):
                cb.eta_lower(triangle, np.array(bad))

    def test_scalar_call_returns_float(self, bump):
        for d in (0.0, 0.7, np.float64(0.7), np.array(0.7)):
            assert type(cb.eta_lower(bump, d)) is float

    def test_triangle_matches_closed_form(self, triangle):
        for d in (0.05, 0.3, 0.7, 1.0, 1.5, 1.95):
            got = cb.eta_lower(triangle, d)
            assert abs(got - closed_triangle_lower(d)) <= 1e-12

    def test_bump_matches_closed_form(self, bump):
        for d in (0.1, 0.5, 0.9, 1.2, 1.5, 1.9):
            got = cb.eta_lower(bump, d)
            assert abs(got - closed_bump_lower(d)) <= 1e-12

    def test_zero_distance_is_zero(self, triangle):
        assert cb.eta_lower(triangle, 0.0) == 0.0

    def test_domain_rejected(self, triangle):
        with pytest.raises(ValueError):
            cb.eta_lower(triangle, -0.1)
        with pytest.raises(ValueError):
            cb.eta_lower(triangle, 2.0)

    def test_monotone_in_delta(self, triangle):
        deltas = np.linspace(0.01, 1.99, 60)
        vals = [cb.eta_lower(triangle, float(d)) for d in deltas]
        assert all(b >= a - 1e-10 for a, b in zip(vals, vals[1:]))

    def test_dominates_coarse_pair_search(self, bump):
        # every pair drawn from a coarser grid is admissible for the finer
        # default grid, so the reported value can only be larger
        n = 512
        xs = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
        vals = bump.sample(xs)
        for delta in (0.2, 0.8, 1.4):
            w = 2.0 * math.asin(delta / 2.0)
            d_max = int(w / (2.0 * math.pi / n))
            best = 0.0
            for off in range(1, d_max + 1):
                diff = np.max(np.abs(np.roll(vals, -off) - vals))
                best = max(best, float(diff))
            assert cb.eta_lower(bump, delta) >= best - 1e-12

    def test_approaches_full_oscillation(self, triangle):
        assert cb.eta_lower(triangle, 2.0 - 1e-8) >= 2.0 - 1e-3

    def test_lower_never_exceeds_upper(self, triangle, triangle_envelope):
        for d in np.linspace(0.01, 1.99, 80):
            lo = cb.eta_lower(triangle, float(d))
            hi = triangle_envelope.evaluate(float(d))
            assert lo <= hi + 1e-8


class TestEtaLowerPasses:
    def test_one_refinement_for_all_deltas(self):
        # the table, the exact scan in blocks of rows, then one lockstep
        # golden-section search (2 + 80 probes, each sampling t + w and t)
        sizes = []

        def rule(x):
            sizes.append(x.size)
            return np.abs(x)

        f = cb.PeriodicFunction(rule, real_valued=True)
        sizes.clear()   # the constructor's own probes
        cb.eta_lower(f, np.linspace(0.01, 1.99, 500))
        rows = circle_bounds._LOWER_BLOCK // 4096
        scan = [rows * 4096] * (500 // rows) + [500 % rows * 4096] * (500 % rows > 0)
        assert sizes == [4096] + scan + [500] * 164

    def test_many_deltas_memory(self):
        # 10^5 deltas on a 256-point grid: 8.2 MB here, 19.2 MB when the
        # scan and the searches ran in chunks of 2^19 samples; one unblocked
        # pass over all pairs would hold 205 MB per temporary
        f = cb.builtin_triangle()
        deltas = np.linspace(1e-3, 1.99, 10 ** 5)
        tracemalloc.start()
        try:
            got = cb.eta_lower(f, deltas, grid_size=256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 10 ** 6
        picks = [0, 1, 4096, 50000, 99999]
        assert same_bits(got[picks], [cb.eta_lower(f, float(deltas[i]), 256)
                                      for i in picks])

    @pytest.mark.parametrize("bad", [0, -4, 4096.7, 4096.0, "4096", True, None])
    def test_bad_grid_size_rejected(self, bad):
        f = cb.builtin_triangle()
        with pytest.raises(ValueError, match="grid_size must be an integer"):
            cb.eta_lower(f, 0.5, grid_size=bad)

    @pytest.mark.parametrize("grid_size", [1, 2, 3, np.int64(5)])
    def test_tiny_grids(self, grid_size):
        f = cb.builtin_triangle()
        got = cb.eta_lower(f, np.array([0.0, 0.5, 1.5]), grid_size=grid_size)
        assert got[0] == 0.0 and 0.0 < got[1] <= got[2] <= 2.0


class TestWindowRanges:
    @staticmethod
    def arrays(n):
        rng = cb.stream(8, n)
        signed_zeros = np.where(rng.integers(0, 2, n) == 1, 0.0, -0.0)
        yield "repeats", rng.integers(-3, 4, n).astype(float)
        yield "normal", rng.standard_normal(n)
        yield "constant", np.full(n, 0.75)
        yield "minus zeros", np.full(n, -0.0)
        yield "signed zeros", signed_zeros
        yield "zeros then values", np.where(np.arange(n) < n // 2,
                                            signed_zeros, rng.uniform(size=n))

    @pytest.mark.parametrize("n", [1, 2, 3, 1000, 4096])
    def test_equal_running_max_of_scan(self, n):
        d = np.arange(n // 2 + 1)
        rng = cb.stream(9, n)
        for name, vals in self.arrays(n):
            want = np.maximum.accumulate(circle_bounds._best_by_offset(vals, n // 2))
            ranges = circle_bounds._window_ranges(vals)
            assert same_bits(ranges(d), want), name
            # distinct offsets in any order, repeats and shapes
            pick = rng.integers(0, n // 2 + 1, (3, 7))
            assert same_bits(ranges(pick), want[pick]), name

    def test_signed_zeros_give_plus_zero_whatever_the_tie_rule(self, monkeypatch):
        # which of two equal zeros np.maximum and np.minimum return is left
        # to the build; here np.minimum is made to pick the other operand,
        # so max - min of a window of zeros can be -0
        vals = dict(self.arrays(1000))["signed zeros"]
        want = np.maximum.accumulate(circle_bounds._best_by_offset(vals, 500))
        minimum = np.minimum
        monkeypatch.setattr(np, "minimum",
                            lambda a, b, **kw: minimum(b, a, **kw))
        got = circle_bounds._window_ranges(vals)(np.arange(501))
        assert same_bits(got, want)
        assert not np.any(np.signbit(got))

    def test_complex_samples_keep_the_scan(self, complex_poly):
        x, vals, ranges = circle_bounds._lower_table(complex_poly, 1024)
        want = np.maximum.accumulate(circle_bounds._best_by_offset(vals, 512))
        assert vals.dtype == np.complex128
        assert same_bits(ranges(np.arange(513)), want)


class TestBestByOffset:
    @pytest.mark.parametrize("complex_vals", [False, True])
    def test_blocks_equal_one_offset_at_a_time(self, complex_vals, monkeypatch):
        rng = cb.stream(5, 7)
        vals = rng.standard_normal(1024)
        if complex_vals:
            vals = vals + 1j * rng.standard_normal(1024)
        want = np.zeros(513)
        for d in range(1, 513):
            want[d] = np.max(np.abs(np.roll(vals, -d) - vals))
        # 2^19 // 1024 = 512 offsets per block, then 3 per block
        assert np.array_equal(circle_bounds._best_by_offset(vals, 512), want)
        monkeypatch.setattr(circle_bounds, "_LOWER_CHUNK", 3 * 1024)
        assert np.array_equal(circle_bounds._best_by_offset(vals, 512), want)

    def test_best_by_offset_against_roll(self):
        rng = cb.stream(4, 100)
        vals = rng.standard_normal(512)
        best = circle_bounds._best_by_offset(vals, 64)
        assert best[0] == 0.0
        for d in (1, 7, 64):
            want = np.max(np.abs(np.roll(vals, -d) - vals))
            assert best[d] == want


class TestContinuityBound:
    def test_delegates_to_curve(self, triangle_envelope):
        for d in (0.0, 0.5, 2.0):
            assert cb.continuity_bound(triangle_envelope, d) == triangle_envelope.evaluate(d)

    def test_domain_rejected(self, triangle_envelope):
        with pytest.raises(ValueError):
            cb.continuity_bound(triangle_envelope, -0.1)
        with pytest.raises(ValueError):
            cb.continuity_bound(triangle_envelope, 2.1)


def scaled_poly(k):
    """Item 3's complex polynomial times 2^k, which is exact."""
    s = 2.0 ** k
    return {1: 0.5 * s, -2: 0.25j * s, 3: 0.125 * s}


class TestScaleByPowersOfTwo:
    """f times 2^k scales every certificate of the complex polynomial by
    exactly 2^k: the disk has no absolute tolerance, and its points are
    scaled by a power of two before any arithmetic."""

    @pytest.fixture(scope="class")
    def unscaled(self):
        f = cb.from_coefficients(scaled_poly(0))
        curve = cb.truncation_envelope(f, 8)
        return (curve._m, curve._b, cb.chebyshev_radius(f),
                cb.eta_lower(f, np.linspace(0.0, 1.99, 500)))

    @pytest.mark.parametrize("k", [-60, -50, -30, 0, 30, 60])
    def test_certificates_scale_bit_for_bit(self, k, unscaled):
        f = cb.from_coefficients(scaled_poly(k))
        curve = cb.truncation_envelope(f, 8)
        m, b, radius, lower = unscaled
        s = 2.0 ** k
        assert same_bits(curve._m, m * s)
        assert same_bits(curve._b, b * s)
        assert cb.chebyshev_radius(f) == radius * s
        assert same_bits(cb.eta_lower(f, np.linspace(0.0, 1.99, 500)),
                         lower * s)

    @pytest.mark.parametrize("k", [-60, -50, -30, 0, 30, 60])
    def test_curve_rows_keep_upper_above_lower(self, k, tmp_path):
        from commbound.experiments_cli import main

        path = tmp_path / "poly.json"
        path.write_text(json.dumps({str(n): [a.real, a.imag]
                                    for n, a in scaled_poly(k).items()}))
        out = tmp_path / "curve.csv"
        assert main(["curve", "circle", "--function", str(path),
                     "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 500
        bad = [r for r in rows if float(r["upper"]) < float(r["lower"])]
        assert not bad, (len(bad), bad[0])
