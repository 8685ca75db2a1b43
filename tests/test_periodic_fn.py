"""Tests for periodic function evaluation and Fourier analysis."""

import itertools
import math
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import commbound as cb
import frozen_disk
import frozen_envelope
import frozen_periodic
from commbound import periodic_fn
from commbound.periodic_fn import QuadratureError


def raw_triangle_rule(x):
    # same function as the builtin, but carrying no closed coefficient rule,
    # so the quadrature path actually runs
    y = np.mod(np.asarray(x, dtype=float) + np.pi, 2.0 * np.pi) - np.pi
    return 1.0 - 2.0 * np.abs(y) / np.pi


def triangle_coefficient(n):
    if n == 0 or n % 2 == 0:
        return 0.0
    return 4.0 / (math.pi ** 2 * n * n)


def bump_coefficient(n):
    """The bump's a_n = J_1(n pi/2) / (2n), a_0 = pi/8, without scipy.

    With x = pi s/2, a_n = (1/4) int_{-1}^{1} sqrt(1 - s^2) cos(n pi s/2) ds,
    summed by the Gauss-Chebyshev rule of the second kind on n pi/3 + 40
    nodes (nodes cos t_i, t_i = i pi/(m + 1), weights pi/(m + 1) sin^2 t_i).
    It matches scipy.special.j1 within 1e-15 for n <= 640; n pi/4 + 40
    nodes do so only up to n = 128, and miss by 1.7e-4 at n = 640.
    """
    n = abs(int(n))
    m = math.ceil(n * math.pi / 3.0 + 40.0)
    t = np.arange(1, m + 1) * (math.pi / (m + 1))
    w = (math.pi / (m + 1)) * np.sin(t) ** 2
    return 0.25 * float(np.sum(w * np.cos(n * (math.pi / 2.0) * np.cos(t))))


class TestEvaluate:
    def test_builtin_triangle_values(self, triangle):
        xs = np.array([0.0, math.pi / 2.0, math.pi, -math.pi / 2.0])
        np.testing.assert_allclose(triangle.sample(xs), [1.0, 0.0, -1.0, 0.0], atol=0)

    def test_builtin_bump_is_semicircle_arch(self, bump):
        # sqrt(1 - (2x/pi)^2) inside [-pi/2, pi/2], zero outside
        for x in (0.0, 0.3, 1.2, 2.0, 3.0):
            want = math.sqrt(max(1.0 - (2.0 * x / math.pi) ** 2, 0.0))
            assert abs(bump(x) - want) <= 1e-15

    def test_wraps_by_full_periods(self, triangle):
        for x in (0.3, 1.7, -2.2):
            a = triangle(x)
            b = triangle(x + 6.0 * math.pi)
            assert abs(a - b) <= 1e-12

    def test_seam_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cb.PeriodicFunction(lambda x: np.asarray(x, dtype=float))

    def test_declared_real_with_complex_rule_rejected(self):
        with pytest.raises(ValueError):
            cb.PeriodicFunction(
                lambda x: np.exp(1j * np.asarray(x, dtype=float)), real_valued=True
            )


class TestSeamTolerance:
    """The seam check allows rounding in proportion to the function's
    size: |n| + 1 times |a_n| summed for a trig polynomial, the larger end
    value for a rule."""

    @pytest.mark.parametrize("coeffs", [
        {1: 5000.0}, {3: 2000.0}, {1: 1e200}, {65536: 1.0},
        {1: 5000.0, -1: -5000.0},
    ], ids=["5000", "order-3", "1e200", "order-65536", "sine"])
    def test_large_trig_polynomials_are_accepted(self, coeffs):
        g = cb.from_coefficients(coeffs)
        # the ends differ by rounding alone, which passes the old 1e-12
        ends = g.rule(np.array([-math.pi, math.pi]))
        assert abs(ends[0] - ends[1]) >= 1e-12

    @pytest.mark.parametrize("rule", [
        lambda x: x, lambda x: 1e6 * x, lambda x: 5000.0 + 1e-6 * x,
        lambda x: 1e200 * (1.0 + 1e-9 * x),
    ], ids=["x", "1e6-x", "small-jump-on-5000", "1e200"])
    def test_non_periodic_rules_are_rejected(self, rule):
        with pytest.raises(ValueError, match="not periodic at the seam"):
            cb.PeriodicFunction(lambda x: rule(np.asarray(x, dtype=float)))

    def test_small_values_keep_the_absolute_floor(self):
        with pytest.raises(ValueError, match="not periodic at the seam"):
            cb.PeriodicFunction(lambda x: 1e-12 * np.asarray(x, dtype=float))
        cb.PeriodicFunction(lambda x: 1e-13 * np.asarray(x, dtype=float))


class TestFourierCoefficient:
    def test_triangle_rule_odd_orders(self, triangle):
        for n in (1, 3, 5, 15, -1, -7):
            got = cb.fourier_coefficient(triangle, n)
            assert got.imag == 0.0
            assert abs(got.real - triangle_coefficient(abs(n))) <= 1e-16

    def test_triangle_rule_even_orders_vanish(self, triangle):
        for n in (0, 2, 4, -8):
            assert cb.fourier_coefficient(triangle, n) == 0.0

    def test_quadrature_matches_closed_form(self):
        f = cb.PeriodicFunction(raw_triangle_rule, real_valued=True, name="raw")
        got = cb.fourier_coefficient(f, 1)
        assert abs(got - triangle_coefficient(1)) <= 1e-10
        assert abs(cb.fourier_coefficient(f, 2)) <= 1e-12

    def test_quadrature_repeat_is_cached_value(self):
        f = cb.PeriodicFunction(raw_triangle_rule, real_valued=True, name="raw")
        a = cb.fourier_coefficient(f, 3)
        b = cb.fourier_coefficient(f, 3)
        assert a == b

    def test_unreachable_target_raises(self):
        f = cb.PeriodicFunction(raw_triangle_rule, real_valued=True, name="raw")
        with pytest.raises(QuadratureError):
            cb.fourier_coefficient(f, 1, tol=1e-16)

    def test_tail_estimate_is_none_when_an_order_misses_its_target(self):
        f = cb.PeriodicFunction(raw_triangle_rule, real_valued=True, name="raw")
        table = periodic_fn._coefficients(
            f, periodic_fn._signed_orders(0, 3), 1e-16)
        assert periodic_fn._dyadic_l1(table, 1, 1, 2, 3, 1e-16) is None

    def test_range_extent_refusals(self, triangle):
        with pytest.raises(ValueError, match="^grid_size must be at least 1024$"):
            cb.range_extent(triangle, 512)
        with pytest.raises(ValueError, match="^range_extent requires a "
                                             "real-valued function$"):
            cb.range_extent(cb.from_coefficients({1: 0.5j}))

    def test_polynomial_coefficients_are_exact(self):
        p = cb.from_coefficients({0: 0.25, 2: 0.5 - 0.125j, -2: 0.5 + 0.125j})
        assert cb.fourier_coefficient(p, 2) == 0.5 - 0.125j
        assert cb.fourier_coefficient(p, 5) == 0.0

    def test_parseval_identity(self, triangle):
        # mean of |p|^2 equals sum |a_n|^2; the quadrature is exact for
        # trig polynomials well below the starting grid
        p = cb.truncate(triangle, 9)
        sq = cb.PeriodicFunction(
            lambda x: np.abs(p.sample(x)) ** 2, real_valued=True, name="|p|^2"
        )
        want = float(np.sum(np.abs(p.coeffs) ** 2))
        got = cb.fourier_coefficient(sq, 0)
        assert abs(got.real - want) <= 1e-14
        assert abs(got.imag) <= 1e-14


class TestBumpCoefficients:
    """Quadrature against the Bessel closed form a_n = J1(n pi/2) / (2n)."""

    def test_oracle_matches_scipy(self):
        special = pytest.importorskip("scipy.special")
        for n in list(range(1, 129)) + [147, 149, 639, 640]:
            want = special.j1(n * math.pi / 2.0) / (2.0 * n)
            assert abs(bump_coefficient(n) - want) <= 1e-15, n
        assert abs(bump_coefficient(0) - math.pi / 8.0) <= 1e-15

    def test_odd_orders_certify_at_default_target(self, bump):
        for n in (1, 3, 5, 15):
            got = cb.fourier_coefficient(bump, n)
            want = bump_coefficient(n)
            assert abs(got.real - want) <= 5e-11
            assert abs(got.imag) <= 1e-12

    def test_even_orders_estimate_with_honest_error(self, bump):
        for n in (2, 4, 8):
            got, err = cb.fourier_coefficient_estimate(bump, n)
            want = bump_coefficient(n)
            assert err <= 3e-10
            assert abs(got.real - want) <= err

    def test_mean_certifies_default_target(self, bump):
        # the sqrt edges slow the raw differences to K^-3/2, and the Aitken
        # step meets the default target below the cap grid; a target
        # under the rounding floor still refuses, and the estimate keeps
        # its best value with an error that covers the true one
        assert abs(cb.fourier_coefficient(bump, 0).real - math.pi / 8.0) <= 1e-10
        got, err = cb.fourier_coefficient_estimate(bump, 0)
        assert err <= 1e-10
        assert abs(got.real - math.pi / 8.0) <= err
        with pytest.raises(QuadratureError):
            cb.fourier_coefficient(bump, 0, tol=1e-15)
        got, err = cb.fourier_coefficient_estimate(bump, 0, tol=1e-15)
        assert 1e-15 < err <= 1e-10
        assert abs(got.real - math.pi / 8.0) <= err

    def test_mean_at_relaxed_target(self, bump):
        got = cb.fourier_coefficient(bump, 0, tol=1e-8)
        assert abs(got.real - math.pi / 8.0) <= 1e-8

    def test_conjugate_symmetry(self, bump):
        a = cb.fourier_coefficient(bump, 1)
        b = cb.fourier_coefficient(bump, -1)
        assert abs(a - np.conj(b)) <= 1e-12


def raw_triangle():
    return cb.PeriodicFunction(raw_triangle_rule, real_valued=True, name="raw")


class TestErrorEstimatesCoverTrueErrors:
    """Every reported error is at least the true one, for n <= 128, against
    closed forms whose trapezoid errors fall at two rates: K^-3/2 for the
    bump's square-root edges, K^-2 for the rule-free triangle's kinks."""

    @pytest.mark.parametrize("tol", [1e-10, 1e-12])
    @pytest.mark.parametrize("make, exact", [
        (cb.builtin_bump, bump_coefficient),
        (raw_triangle, triangle_coefficient)], ids=["bump", "raw-triangle"])
    def test_reported_error_covers_true_error(self, make, exact, tol):
        f = make()
        ns = np.arange(129)
        values, errors = periodic_fn._coefficients(f, ns, tol)
        true = np.abs(values - np.array([exact(n) for n in ns]))
        assert np.flatnonzero(errors > tol).tolist() == []
        assert np.flatnonzero(true > errors).tolist() == []
        assert f._ladder.coefficients(f, ns, tol)[2].max() < periodic_fn._QUAD_K_CAP

    def test_truncated_bump_returns(self):
        p = cb.truncate(cb.builtin_bump(), 16)
        assert p.degree == 16 and p.real_valued
        for n in range(-16, 17):
            assert abs(p.coefficient(n) - bump_coefficient(n)) <= 1e-10, n


class TestSampleDtype:
    """sample returns float64 or complex128 whatever dtype the rule gives,
    so a float32 or complex64 rule is its float64 or complex128 cast to
    every layer: the ladder's error estimates hold, and each output has the
    bits of the cast rule's."""

    @pytest.mark.parametrize("dtype, want", [
        (np.float32, np.float64), (np.int64, np.float64),
        (np.bool_, np.float64), (np.complex64, np.complex128)])
    def test_sample_is_float64_or_complex128(self, dtype, want):
        f = cb.PeriodicFunction(lambda x: np.ones(x.shape, dtype=dtype))
        v = f.sample(np.zeros((2, 3)))
        assert v.dtype == want and v.shape == (2, 3)

    @pytest.mark.parametrize("rule, real, n, exact", [
        (lambda x: np.cos(3 * x).astype(np.float32), True, 3, 0.5),
        (lambda x: np.exp(2j * x).astype(np.complex64), False, 2, 1.0)],
        ids=["float32-cos3x", "complex64-exp2ix"])
    def test_narrow_rule_error_covers_true_error(self, rule, real, n, exact):
        f = cb.PeriodicFunction(rule, real_valued=real)
        value, error = cb.fourier_coefficient_estimate(f, n, 1e-10)
        assert abs(value - exact) <= error <= 1e-10

    @pytest.mark.parametrize("rule, real", [
        (lambda x: np.exp(np.cos(x)).astype(np.float32), True),
        (lambda x: np.exp(1j * np.sin(x) + np.cos(2 * x)).astype(np.complex64),
         False)], ids=["float32", "complex64"])
    def test_narrow_rule_gives_the_bits_of_its_cast(self, rule, real):
        wide = np.float64 if real else np.complex128
        g32 = cb.PeriodicFunction(rule, real_valued=real)
        g64 = cb.PeriodicFunction(lambda x: rule(x).astype(wide),
                                  real_valued=real)
        deltas = np.linspace(0.0, 1.99, 500)
        V = np.stack([cb.haar_unitary(4, seed=s) for s in range(6)])
        out = []
        for g in (g32, g64):
            lines = cb.truncation_envelope(g, 4, grid_size=4096).lines()
            out.append((
                [(l.slope.hex(), l.intercept.hex(), l.provenance)
                 for l in lines],
                cb.eta_lower(g, deltas, grid_size=500).tobytes(),
                cb.chebyshev_radius(g).hex(),
                cb.unitary_calculus(g, V).tobytes()))
        assert out[0] == out[1]


def level_sums(f, n):
    """Per-order grid doubling with direct trapezoid sums, the algorithm the
    FFT ladder replaced: yields (K, sum) for K = 2^14, 2^15, ..., 2^22,
    each level adding the midpoints of the one before."""
    step_block = 2 ** 16

    def block_sum(count, start, step):
        total = 0.0 + 0.0j
        for done in range(0, count, step_block):
            m = min(step_block, count - done)
            x = -np.pi + step * (start + done + np.arange(m))
            total += complex(np.sum(f.sample(x) * np.exp(-1j * n * x)))
        return total

    K = 2 ** 14
    total = block_sum(K, 0.0, 2.0 * np.pi / K)
    yield K, total / K
    while K < 2 ** 22:
        total = total + block_sum(K, 0.5, 2.0 * np.pi / K)
        K *= 2
        yield K, total / K


def doubling_reference(f, n, tol):
    """(estimate, error, at_cap, K) of order n by per-order grid doubling,
    accepted at the first raw difference within tol."""
    sums = level_sums(f, n)
    est = next(sums)[1]
    for K, new in sums:
        diff = abs(new - est)
        est = new
        if diff <= tol:
            return complex(est), diff, False, K
    return complex(est), diff, True, K


class OneFFTLadder(periodic_fn._TrapezoidLadder):
    """Reference ladder: one K-point FFT of each whole level, which holds
    K samples and their transform."""

    def _add_level(self, f):
        L = len(self.est)
        K = 2 ** 14 << max(L - 1, 0)
        start = 0.5 if L else 0.0
        step = 2.0 * np.pi / K
        buf = np.empty(K, dtype=float if self.real else np.complex128)
        m = min(K, 2 ** 16)
        for s in range(0, K, m):
            v = f.sample(-np.pi + step * (start + s + np.arange(m)))
            buf[s:s + m] = np.real(v) if self.real else v
        ns = np.arange(0 if self.real else -self.M, self.M + 1)
        r = ns % K
        if self.real:
            bins = np.fft.rfft(buf)[np.minimum(r, K - r)]
            bins = np.where(r > K // 2, np.conj(bins), bins)
        else:
            bins = np.fft.fft(buf)[r]
        sums = np.where(ns % 2, -1.0, 1.0) * np.exp(-1j * (step * start) * ns) * bins
        self.total = self.total + sums if L else sums
        self.est.append(self.total / (2 ** 14 << L))


def complex_bump():
    bump = cb.builtin_bump()
    return cb.PeriodicFunction(
        lambda x: bump.rule(x) * np.exp(1j * np.sin(x)), name="complex bump")


def complex_bump_coefficient(n):
    """a_n of complex_bump(): by Jacobi-Anger e^{i sin x} = sum_m J_m(1)
    e^{imx}, so a_n = sum_m J_m(1) b_{n-m} with b the bump's coefficients.
    A 64-point trapezoid rule gives every J_m(1) to rounding, and
    |J_m(1)| < 1e-24 past |m| = 20."""
    J = np.fft.fft(np.exp(1j * np.sin(2.0 * np.pi * np.arange(64) / 64))) / 64
    return complex(sum(J[m % 64] * bump_coefficient(n - m)
                       for m in range(-20, 21)))


def ladder_orders(ladder, f, orders, tol):
    """(estimate, error, at_cap, K) per order from one array request."""
    got, err, K = ladder.coefficients(f, np.array(orders), tol)
    return list(zip(got.tolist(), err.tolist(), (err > tol).tolist(),
                    K.tolist()))


def assert_same_one_by_one(f, orders, tol, found):
    # one order at a time, so M grows and the levels are rebuilt in between
    one_by_one = periodic_fn._TrapezoidLadder(f.real_valued)
    for n, row in zip(orders, found):
        assert ladder_orders(one_by_one, f, [n], tol) == [row], n


def assert_ladder_matches_reference(f, orders, tol, atol=1e-14):
    ladder = periodic_fn._TrapezoidLadder(f.real_valued)
    found = ladder_orders(ladder, f, orders, tol)
    for n, (got, err, at_cap, K) in zip(orders, found):
        want, want_err, want_cap, want_K = doubling_reference(f, n, tol)
        assert (at_cap, K) == (want_cap, want_K), n
        assert abs(got - want) <= atol, n
        assert abs(err - want_err) <= atol, n
    assert_same_one_by_one(f, orders, tol, found)


def assert_ladder_matches_oracle(f, orders, tol, exact, atol=1e-14):
    """Every raw level sum of the ladder equals the direct sum, and every
    order meets tol below the cap grid, within its error of exact(n)."""
    ladder = periodic_fn._TrapezoidLadder(f.real_valued)
    found = ladder_orders(ladder, f, orders, tol)
    for n, (got, err, at_cap, K) in zip(orders, found):
        assert not at_cap and K < periodic_fn._QUAD_K_CAP, n
        assert abs(got - exact(n)) <= err, n
        for est, (K_l, want) in zip(ladder.est, level_sums(f, n)):
            have = est[abs(n)] if f.real_valued else est[n + ladder.M]
            have = np.conj(have) if f.real_valued and n < 0 else have
            assert abs(have - want) <= atol, (n, K_l)
    assert_same_one_by_one(f, orders, tol, found)


class TestFFTLadder:
    """The FFT ladder against per-order doubling."""

    # the envelope's orders (negative ones are exact conjugates, tested
    # below), both sides of the raw difference's level changes at 1e-10
    # (25/27, 147/149) and orders whose raw differences would walk to the
    # 2^22 cap (0 and the even ones)
    DEEP_ORDERS = list(range(17)) + [-1, -2, 25, 27, -147, 149, -639, 640]

    def test_bump_matches_doubling_at_tight_target(self):
        assert_ladder_matches_oracle(cb.builtin_bump(), self.DEEP_ORDERS,
                                     1e-10, bump_coefficient)

    def test_bump_matches_doubling_at_loose_target(self):
        # the largest order first, so the ladder is built once
        orders = sorted(range(-640, 641), key=lambda n: -abs(n))
        assert_ladder_matches_reference(cb.builtin_bump(), orders, 1e-6)

    def test_real_function_coefficients_are_exact_conjugates(self):
        f = cb.builtin_bump()
        for n in [9000, 640, 100] + list(range(16, 0, -1)):
            a, err = cb.fourier_coefficient_estimate(f, n)
            b, err_b = cb.fourier_coefficient_estimate(f, -n)
            assert b == a.conjugate() and err_b == err
        # exact symmetry keeps a truncation of a real function real
        p = cb.truncate(cb.PeriodicFunction(raw_triangle_rule, real_valued=True), 5)
        assert p.real_valued

    def test_complex_rule_uses_full_fft(self):
        f = complex_bump()
        assert not f.real_valued
        assert_ladder_matches_oracle(f, [0, 1, -2, 40], 1e-8,
                                     complex_bump_coefficient)
        a = cb.fourier_coefficient_estimate(f, 3, 1e-8)[0]
        b = cb.fourier_coefficient_estimate(f, -3, 1e-8)[0]
        assert abs(b - a.conjugate()) > 1e-3

    def test_orders_past_half_the_first_grid_alias_as_direct_sums(self):
        # 9000 and 2^14 + 5 sit past K/2 = 2^13 on the first level, where
        # the bin n mod K and the conjugate half of the rfft are used; the
        # direct sums round their phases n*x of size ~5e4 to about 1e-11
        assert_ladder_matches_reference(
            cb.builtin_bump(), [9000, -9000, 2 ** 14 + 5], np.inf, atol=1e-12)
        f = cb.PeriodicFunction(lambda x: np.cos(3 * np.asarray(x)) + 0j,
                                name="cos 3x")
        assert_ladder_matches_reference(f, [3, 3 - 2 ** 14, 9000], np.inf,
                                        atol=1e-12)

    def test_looser_request_gets_the_fresh_value(self):
        # a coefficient depends on f, n and tol alone, not on what the
        # ladder was asked before
        f = cb.builtin_bump()
        fine = cb.fourier_coefficient_estimate(f, 5, 1e-10)
        loose = cb.fourier_coefficient_estimate(f, 5, 1e-6)
        assert loose == cb.fourier_coefficient_estimate(cb.builtin_bump(), 5, 1e-6)
        assert loose[1] > 1e-10 and loose != fine
        assert cb.fourier_coefficient_estimate(f, 5, 1e-10) == fine


class TestDecimatedLadder:
    """Each level from 2^14-point subgrids against one FFT of the level."""

    # 16384 and 32768 are the M that the orders 9000 and 2^14 + 5 set; at
    # both, orders past 2^13 = B/2 alias within each subgrid's transform
    @pytest.mark.parametrize("M", [1024, 2 ** 14, 2 ** 15])
    @pytest.mark.parametrize("make", [cb.builtin_bump, complex_bump])
    def test_every_order_at_every_level_matches_one_fft(self, make, M):
        f = make()
        new = periodic_fn._TrapezoidLadder(f.real_valued)
        old = OneFFTLadder(f.real_valued)
        new.M = old.M = M
        for level in range(9):
            new._add_level(f)
            old._add_level(f)
            assert new.est[level].shape == old.est[level].shape
            assert np.max(np.abs(new.est[level] - old.est[level])) <= 1e-15

    def test_ladder_memory_is_a_few_subgrids(self):
        # one FFT of the whole 2^22 cap level holds 32 MB of samples and
        # 32 MB of transform; the subgrids hold 2^14 points at a time.  The
        # envelope's orders stop below the cap, so a target under the
        # rounding floor walks order 0 there
        f = cb.builtin_bump()
        tracemalloc.start()
        try:
            stops = f._ladder.coefficients(f, np.arange(17), 1e-10)[2]
            periodic_fn._coefficients(f, np.arange(641), 1e-6)
            cap = f._ladder.coefficients(f, np.arange(1), 1e-16)[2]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stops.max() < periodic_fn._QUAD_K_CAP
        assert cap[0] == periodic_fn._QUAD_K_CAP
        assert peak < 4e6

    def test_orders_arrive_in_the_order_asked(self):
        f = cb.builtin_bump()
        ns = np.array([5, -640, 0, 3, -3, 640, 5])
        values, errors = periodic_fn._coefficients(f, ns, 1e-6)
        for n, v, e in zip(ns, values, errors):
            assert (v, e) == cb.fourier_coefficient_estimate(f, n, 1e-6)


class TestTruncate:
    def test_triangle_coefficients_transfer(self, triangle):
        p = cb.truncate(triangle, 5)
        assert p.degree == 5
        for n in range(-5, 6):
            assert p.coefficient(n) == cb.fourier_coefficient(triangle, n)

    def test_polynomial_fixed_point(self):
        p = cb.from_coefficients({1: 0.5, -1: 0.5, 3: 0.1j, -3: -0.1j})
        q = cb.truncate(p, 4)
        xs = np.linspace(-math.pi, math.pi, 64)
        np.testing.assert_allclose(q.sample(xs), p.sample(xs), atol=1e-15)

    def test_negative_degree_rejected(self, triangle):
        with pytest.raises(ValueError):
            cb.truncate(triangle, -1)


class TestDerivativeNorm:
    def test_triangle_partial_sums(self, triangle):
        # sum |n a_n| = (8/pi^2) sum_{odd n<=N} 1/n
        for N in (1, 5, 9):
            p = cb.truncate(triangle, N)
            want = (8.0 / math.pi ** 2) * sum(1.0 / n for n in range(1, N + 1, 2))
            assert abs(cb.derivative_fourier_norm(p) - want) <= 1e-14

    def test_constant_has_zero_norm(self):
        p = cb.from_coefficients({0: 0.7})
        assert cb.derivative_fourier_norm(p) == 0.0


class TestRangeAndRadius:
    def test_triangle_extent(self, triangle):
        lo, hi = cb.range_extent(triangle)
        assert abs(lo + 1.0) <= 1e-12 and abs(hi - 1.0) <= 1e-12
        assert abs(cb.chebyshev_radius(triangle) - 1.0) <= 1e-12

    def test_bump_extent(self, bump):
        lo, hi = cb.range_extent(bump)
        assert abs(lo) <= 1e-12 and abs(hi - 1.0) <= 1e-12
        assert abs(cb.chebyshev_radius(bump) - 0.5) <= 1e-12

    def test_rotation_radius_is_one(self):
        # complex range is the unit circle; smallest enclosing disc has radius 1
        p = cb.from_coefficients({1: 1.0})
        assert abs(cb.chebyshev_radius(p) - 1.0) <= 1e-9

    def test_constant_radius_is_zero(self):
        p = cb.from_coefficients({0: 0.3 + 0.4j})
        assert cb.chebyshev_radius(p) <= 1e-12

    def test_offcenter_complex_radius(self):
        # 0.5 + e^{ix}: circle of radius 1 centered at 0.5
        p = cb.from_coefficients({0: 0.5, 1: 1.0})
        assert abs(cb.chebyshev_radius(p) - 1.0) <= 1e-9


def reduce_by_mod(x):
    """The np.mod form of periodic_fn._reduce_angle."""
    return np.mod(np.asarray(x, dtype=float) + np.pi, 2.0 * np.pi) - np.pi


class TestReduceAngle:
    def boundary_points(self):
        pts = [np.pi, -np.pi, 3 * np.pi, -3 * np.pi, 0.0, -0.0, 2 * np.pi,
               -2 * np.pi, 4 * np.pi, 1e-300, -1e-300, 5e-324]
        pts += [np.nextafter(p, s) for p in list(pts) for s in (np.inf, -np.inf)]
        # y = x + pi within three ulps of the 0, 2pi and 4pi boundaries
        for y in (0.0, 2 * np.pi, 4 * np.pi):
            up = down = y
            pts.append(y - np.pi)
            for _ in range(3):
                up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
                pts += [up - np.pi, down - np.pi]
        return np.array(pts)

    def fast_path_points(self):
        x = self.boundary_points()
        y = x + np.pi
        return x[(y >= 0.0) & (y < 4 * np.pi)]

    def fast_path_and_top_points(self):
        # one point with x + pi == 4pi, which np.mod maps to 0
        return np.append(self.fast_path_points(), 4 * np.pi - np.pi)

    @pytest.mark.parametrize("x", [
        "boundary_points", "fast_path_points", "fast_path_and_top_points",
        np.array([np.nan]), np.array([1.0, np.nan, -2.0]),
        np.array([np.inf, -np.inf]), np.array([0.5, np.inf]), np.array([]),
        np.array([0.0, np.pi]), np.array(0.5), np.array(-0.0),
        np.array(np.nan), -np.pi, 7.5,
        np.linspace(-np.pi, 3 * np.pi, 4097)[:-1],
        np.random.default_rng(3).uniform(-40.0, 40.0, (8, 16))],
        ids=["boundaries", "fast-path-boundaries", "fast-path-and-top", "nan",
             "nan-inside", "infs", "inf-inside", "empty", "top-at-2pi", "0-d",
             "0-d-negzero", "0-d-nan", "scalar-minus-pi", "scalar-outside",
             "fast-path-range", "wide-2-d"])
    def test_equals_mod_form_bit_for_bit(self, x):
        if isinstance(x, str):
            x = getattr(self, x)()
        with np.errstate(invalid="ignore"):
            want = reduce_by_mod(x)
            got = periodic_fn._reduce_angle(x)
        assert type(got) is type(want)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(np.asarray(got).view(np.uint64),
                              np.asarray(want).view(np.uint64))

    def test_input_is_not_modified(self):
        x = np.array([0.5, 3.5, 7.0])
        periodic_fn._reduce_angle(x)
        assert x.tolist() == [0.5, 3.5, 7.0]


EPS = np.finfo(float).eps


def reach(pts, center):
    return float(np.max(np.abs(np.asarray(pts, dtype=complex) - center)))


def brute_force_radius(pts):
    """The least reach over every pair midpoint and the circumcenter of
    every triple that is not exactly collinear."""
    p = np.asarray(pts, dtype=complex)
    i, j = np.triu_indices(p.size, 1)
    centers = [0.5 * (p[i] + p[j])]
    a, b, c = p[np.array(list(itertools.combinations(range(p.size), 3)))].T
    u, v = b - a, c - a
    d = 2.0 * (u.real * v.imag - u.imag * v.real)
    ok = d != 0.0
    u, v, a, d = u[ok], v[ok], a[ok], d[ok]
    uu, vv = np.abs(u) ** 2, np.abs(v) ** 2
    circum = np.empty_like(a)
    with np.errstate(over="ignore"):
        # a nearly collinear triple's center may overflow to inf, which
        # is never the least reach
        circum.real = a.real + (v.imag * uu - u.imag * vv) / d
        circum.imag = a.imag + (u.real * vv - v.real * uu) / d
    centers = np.concatenate(centers + [circum])
    return float(np.min(np.max(np.abs(p[None, :] - centers[:, None]), axis=1)))


def small_set(seed):
    """A set of 3 to 25 points: random, cocircular, collinear, with repeats
    or on a dyadic grid, by seed."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 26))
    kind = seed % 5
    if kind == 0:
        return rng.standard_normal(n) + 1j * rng.standard_normal(n)
    if kind == 1:
        return 1.5 * np.exp(1j * rng.uniform(-np.pi, np.pi, n)) + (0.25 - 2j)
    if kind == 2:
        return (0.3 - 0.7j) + (2.0 + 1.0j) * rng.standard_normal(n)
    if kind == 3:
        base = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        return base[rng.integers(0, 3, n)]
    return (rng.integers(-8, 9, n) + 1j * rng.integers(-8, 9, n)) / 16.0


class TestSmallestDisk:
    """Farthest-point pivoting, measured against the incremental
    construction it replaced (tests/frozen_disk.py) and against brute
    force: its radius is its center's reach over every point, no larger
    than the frozen center's reach up to 4 eps, and within 4 eps of the
    least reach over all pair midpoints and circumcenters."""

    def test_no_point_and_one_point(self):
        assert periodic_fn._smallest_disk([]) == (0j, 0.0)
        assert periodic_fn._smallest_disk([1.5 - 2j]) == (1.5 - 2j, 0.0)

    @pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
    def test_collinear_points_take_the_widest_pair(self, order):
        pts = np.array([0.5 + 0.5j, 2 + 2j, 1 + 1j])[list(order)]
        assert periodic_fn._smallest_disk(pts) == (
            1.25 + 1.25j, float(np.abs(0.75 + 0.75j)))

    @pytest.mark.parametrize("N", [0, 1, 2])
    def test_polynomial_remainders_reach_no_further_than_the_loop(self, N):
        # the remainders f - g_N of a complex polynomial
        f = cb.from_coefficients({1: 0.5, -2: 0.25j, 3: 0.125})
        g = cb.truncate(f, N)
        vals = f.sample(periodic_fn._grid(2 ** 16)) - g.sample(
            periodic_fn._grid(2 ** 16))
        center, radius = periodic_fn._smallest_disk(vals)
        assert radius == reach(vals, center)
        assert radius <= reach(vals, frozen_disk.smallest_disk(vals)[0]) * (
            1.0 + 4.0 * EPS)
        assert radius > 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_random_clouds_reach_no_further_than_the_loop(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 3000))
        pts = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        if seed % 2:
            pts = np.exp(1j * rng.uniform(-np.pi, np.pi, n)) * 2.0 + (0.3 - 0.1j)
        center, radius = periodic_fn._smallest_disk(pts)
        assert radius == reach(pts, center)
        assert radius <= reach(pts, frozen_disk.smallest_disk(pts)[0]) * (
            1.0 + 4.0 * EPS)

    @pytest.mark.parametrize("seed", range(40))
    def test_small_sets_match_brute_force(self, seed):
        pts = small_set(seed)
        center, radius = periodic_fn._smallest_disk(pts)
        assert radius == reach(pts, center)
        want = brute_force_radius(pts)
        assert abs(radius - want) <= 4.0 * EPS * want

    def test_polygon_radius_is_the_circle_radius(self):
        # the kept best center: the last support's center reaches
        # 3.0000000000000315 here
        pts = 3.0 * np.exp(1j * periodic_fn._grid(2 ** 16)) + (1.0 - 2.0j)
        center, radius = periodic_fn._smallest_disk(pts)
        assert radius == reach(pts, center)
        assert radius <= 3.0 * (1.0 + 4.0 * EPS)

    def test_non_finite_points_give_a_nan_radius(self):
        # in a fresh interpreter under a timeout, so that a loop that
        # never ends fails the test; the real analogue, last, is NaN too
        code = (
            "import numpy as np, commbound as cb\n"
            "from commbound.periodic_fn import _smallest_disk\n"
            "f = cb.PeriodicFunction(lambda x: np.where(\n"
            "    abs(x - 1) < 1e-3, np.nan, 1.0) * np.exp(1j * x))\n"
            "print(cb.chebyshev_radius(f))\n"
            "for bad in (np.nan, np.inf, -np.inf, complex(0, np.nan),\n"
            "            complex(1, -np.inf)):\n"
            "    print(_smallest_disk([1.0, 2j, bad, -1.0])[1])\n"
            "print(cb.chebyshev_radius(cb.PeriodicFunction(\n"
            "    lambda x: np.where(abs(x - 1) < 1e-3, np.nan, np.cos(x)))))\n")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["nan"] * 7

    @pytest.mark.parametrize("scale", [1e100, 1e200, 1e303])
    def test_huge_clouds_scale_without_overflow(self, scale):
        # |p|^2 (p - q) overflowed above about 1e102, and the radius came
        # out NaN with RuntimeWarnings
        rng = np.random.default_rng(3)
        pts = rng.standard_normal(500) + 1j * rng.standard_normal(500)
        center, radius = periodic_fn._smallest_disk(pts)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            big_center, big_radius = periodic_fn._smallest_disk(pts * scale)
        assert abs(big_center / scale - center) <= 1e-14 * radius
        assert abs(big_radius / scale - radius) <= 1e-14 * radius
        assert np.all(np.abs(pts * scale - big_center) <= big_radius * (1.0 + 1e-13))


class TestLockstepExtent:
    def test_rows_in_lockstep_equal_rows_alone(self):
        fs = [cb.builtin_triangle(), cb.builtin_bump(),
              cb.from_coefficients({1: 0.5, -1: 0.5, 3: 0.25, -3: 0.25})]
        x = periodic_fn._grid(4096)
        rows = [np.real(f.sample(x)) for f in fs]

        def values(r, t):
            return np.array([np.real(fs[k].sample(t[j:j + 1]))[0]
                             for j, k in enumerate(r)])

        peaks = [periodic_fn._row_peaks(v) for v in rows]
        lo, hi = periodic_fn._refine_peaks(x, peaks, values)
        for k, f in enumerate(fs):
            assert (float(lo[k]), float(hi[k])) == cb.range_extent(f, 4096)

    def test_one_reused_row_array_gives_the_same_extents(self):
        fs = [cb.builtin_triangle(), cb.builtin_bump(),
              cb.from_coefficients({1: 0.5, -1: 0.5, 3: 0.25, -3: 0.25})]
        x = periodic_fn._grid(4096)
        rows = [np.real(f.sample(x)) for f in fs]

        def values(r, t):
            return np.array([np.real(fs[k].sample(t[j:j + 1]))[0]
                             for j, k in enumerate(r)])

        def reused():
            buf = np.empty(x.size)
            for row in rows:
                buf[:] = row
                yield buf

        want = periodic_fn._refine_peaks(
            x, [periodic_fn._row_peaks(v) for v in rows], values)
        got = periodic_fn._refine_peaks(
            x, [periodic_fn._row_peaks(v) for v in reused()], values)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()

    def test_no_rows_give_empty_extents(self):
        def values(r, t):
            raise AssertionError("no bracket to refine")

        lo, hi = periodic_fn._refine_peaks(periodic_fn._grid(4096), [], values)
        assert lo.shape == hi.shape == (0,)


class TestRowPeaks:
    @staticmethod
    def rows():
        # ties (+-0.0 and repeated extremes), a NaN after a maximum, and
        # rows of random values
        rng = np.random.default_rng(3)
        tied = np.zeros(1000)
        tied[[5, 400, 999]] = 2.0
        tied[[7, 401]] = -2.0
        signed = np.zeros(1000)
        signed[::3] = -0.0
        nan = rng.standard_normal(1000)
        nan[[10, 600]] = [9.0, np.nan]
        return [tied, signed, nan] + list(rng.standard_normal((5, 1000)))

    def test_first_peaks_and_their_values(self):
        for v in self.rows():
            imax, imin, vmax, vmin = periodic_fn._row_peaks(v)
            assert (imax, imin) == (int(np.argmax(v)), int(np.argmin(v)))
            assert vmax.tobytes() == v[imax].tobytes()
            assert vmin.tobytes() == v[imin].tobytes()
        tied, signed, nan = self.rows()[:3]
        assert periodic_fn._row_peaks(tied)[:2] == (5, 7)
        assert periodic_fn._row_peaks(signed)[:2] == (0, 0)
        assert periodic_fn._row_peaks(nan)[:2] == (600, 600)


class TestCoefficientL1:
    def test_triangle_total_is_one(self, triangle):
        assert cb.coefficient_l1(triangle) == 1.0

    def test_polynomial_total(self):
        p = cb.from_coefficients({0: 0.25, 1: -0.5, -1: -0.5, 4: 0.125j, -4: -0.125j})
        assert abs(cb.coefficient_l1(p) - 1.5) <= 1e-15


def old_coefficient_l1(f, head=64, tol=1e-6):
    """coefficient_l1 before the shared dyadic-tail helper, for functions
    without a closed tail."""
    def block(lo, hi, s=0.0):
        for n in range(lo, hi + 1):
            s += abs(cb.fourier_coefficient(f, n, tol)) + tol
            s += abs(cb.fourier_coefficient(f, -n, tol)) + tol
        return s
    try:
        total = block(1, head, abs(cb.fourier_coefficient(f, 0, tol)) + tol)
        b0 = block(head + 1, 2 * head + 1)
        b1 = block(2 * head + 2, 4 * head + 3)
    except QuadratureError:
        return None
    total += b0
    total += b1
    if b0 <= 0.0:
        return float(total)
    ratio = b1 / b0
    if ratio >= 0.75:
        return None
    return float(total + b1 * ratio / (1.0 - ratio))


def loop_functions():
    return [cb.builtin_triangle(), cb.builtin_bump(),
            cb.from_coefficients({1: 0.5, -2: 0.25j, 3: 0.125}),
            cb.from_coefficients({n: (-1) ** n / n ** 2
                                  for n in range(-40, 41) if n})]


def outcome(call, *args):
    try:
        return call(*args)
    except QuadratureError as err:
        return str(err)


class TestOneCallFetches:
    """truncate and the closed-tail branch of coefficient_l1 fetch their
    orders in one call; both give the bits and the QuadratureError message
    of the order-by-order loops they replace."""

    @pytest.mark.parametrize("N", [0, 3, 9])
    @pytest.mark.parametrize("k", range(4))
    def test_truncate_equals_loop(self, k, N):
        def loop(f):
            coeffs = {n: cb.fourier_coefficient(f, n) for n in range(-N, N + 1)}
            return cb.TrigPolynomial(coeffs).coeffs.tobytes()

        want = outcome(loop, loop_functions()[k])
        got = outcome(lambda f: cb.truncate(f, N).coeffs.tobytes(),
                      loop_functions()[k])
        assert got == want
        if k == 1:
            # the bump's coefficients meet 1e-10 below the cap grid
            assert isinstance(got, bytes)

    @pytest.mark.parametrize("head", [0, 1, 5, 64])
    @pytest.mark.parametrize("k", [0, 2, 3])
    def test_closed_tail_l1_equals_loop(self, k, head):
        f = loop_functions()[k]
        total = abs(cb.fourier_coefficient(f, 0))
        for n in range(1, head + 1):
            total += (abs(cb.fourier_coefficient(f, n))
                      + abs(cb.fourier_coefficient(f, -n)))
        assert cb.coefficient_l1(f, head) == float(total + f.l1_tail_rule(head))


class TestDyadicTail:
    @pytest.fixture(scope="class")
    def quadrature_only(self):
        tri = cb.builtin_triangle()
        poly = cb.from_coefficients({0: 0.25, 1: -0.5, -1: -0.5, 4: 0.125j,
                                     -4: -0.125j})
        return [cb.builtin_bump(),
                cb.PeriodicFunction(tri.rule, real_valued=True),
                cb.PeriodicFunction(poly.rule, real_valued=True)]

    @pytest.mark.parametrize("head", [4, 64])
    def test_coefficient_l1_equals_the_old_code(self, quadrature_only, head):
        for f in quadrature_only:
            assert cb.coefficient_l1(f, head) == old_coefficient_l1(f, head)

    def test_empty_first_block_with_a_later_one_is_not_extrapolated(self):
        # blocks 3..5 and 6..11 past head 2: only order 6 is nonzero, and
        # with tol = 0 the first block sums to exactly 0
        f = cb.PeriodicFunction(lambda x: np.cos(6.0 * x), real_valued=True,
                                coefficient_rule=lambda n: 0.5 * (abs(n) == 6))
        assert old_coefficient_l1(f, head=2, tol=0.0) == 1.0
        assert cb.coefficient_l1(f, head=2, tol=0.0) is None
        assert cb.coefficient_l1(f, head=8, tol=0.0) == 1.0


class TestFromCoefficients:
    def test_evaluation_matches_direct_sum(self):
        coeffs = {0: 0.2, 1: 0.3 - 0.1j, -1: 0.3 + 0.1j, 2: 0.05j, -2: -0.05j}
        p = cb.from_coefficients(coeffs)
        assert p.real_valued
        for x in (0.0, 0.7, -2.4):
            want = sum(a * np.exp(1j * n * x) for n, a in coeffs.items())
            assert abs(p(x) - want) <= 1e-14

    def test_high_degree_evaluates_in_bounded_chunks(self):
        # 601 orders x 2^14 angles exceeds one chunk of 2^22 terms
        rng = np.random.default_rng(3)
        coeffs = {n: complex(*rng.standard_normal(2)) / (1 + n * n)
                  for n in range(-300, 301)}
        p = cb.from_coefficients(coeffs)
        assert p.ns.size * 2 ** 14 > periodic_fn._TERMS_PER_CHUNK
        xs = np.linspace(-math.pi, math.pi, 2 ** 14).reshape(2, -1)
        got = p.sample(xs)
        assert got.shape == xs.shape
        for i, j in ((0, 0), (0, 5000), (1, 77), (1, 2 ** 13 - 1)):
            want = p.coeffs @ np.exp(1j * p.ns * xs[i, j])
            assert abs(got[i, j] - want) <= 1e-12

    def test_real_table_holds_no_complex_rows(self):
        # a conjugate-symmetric series is summed through one real table per
        # chunk of 2^20 terms (8.4 MB) and the sine parts of its rows; the
        # complex pair terms and their real parts took 48.8 MB
        rng = np.random.default_rng(4)
        coeffs = {0: 0.3}
        for n in range(1, 201):
            coeffs[n] = complex(*rng.standard_normal(2))
            coeffs[-n] = coeffs[n].conjugate()
        p = cb.from_coefficients(coeffs)
        assert p.real_valued
        x = periodic_fn._grid(2 ** 16)
        tracemalloc.start()
        try:
            p.sample(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 25 * 10 ** 6

    @pytest.mark.parametrize("degree", [0, 3, 16, 300])
    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_one_call_equals_one_point_per_call(self, degree, real):
        # each point's value is its own running sum over orders, so a call
        # on many points, split into chunks, gives the bits of lone points
        rng = np.random.default_rng(degree)
        n = np.arange(1, degree + 1)
        pos, neg = rng.standard_normal((2, degree, 2)) @ np.array([1.0, 1j])
        a0 = 0.5 if real else 0.5 + 0.25j
        coeffs = {0: a0, **dict(zip(n, pos / n ** 2)),
                  **dict(zip(-n, (np.conj(pos) if real else neg) / n ** 2))}
        p = cb.from_coefficients(coeffs)
        assert p.real_valued == real
        # at degree 300 the 2-D input spans two chunks and part of a third
        step = periodic_fn._TERMS_PER_CHUNK // (degree + 1)
        xs = rng.uniform(-4.0, 4.0, (2, (step if degree == 300 else 4) + 3))
        xs[0, 0] = 0.0
        got = p.sample(xs)
        assert got.shape == xs.shape
        want = np.array([p.sample(t[None])[0] for t in xs.ravel()])
        assert np.array_equal(got.ravel().view(np.uint64), want.view(np.uint64))
        for t in xs[:, :2].ravel():
            lone = p.sample(t)
            assert lone.shape == () and lone == p.sample(np.array([t]))[0]

    @pytest.mark.parametrize("degree", [3, 16, 300])
    def test_partial_sums_equal_a_loop_over_orders(self, degree):
        rng = np.random.default_rng(degree + 1)
        c = rng.standard_normal((2 * degree + 1, 2)) @ np.array([1.0, 1j])
        x = rng.uniform(-np.pi, np.pi, 257)
        got = periodic_fn._partial_sums(c, x, False)
        s = np.full(x.size, c[degree])
        assert np.array_equal(got[0], s)
        for k in range(1, degree + 1):
            s = s + periodic_fn._pair_term(c[degree + k], c[degree - k], k, x)
            assert np.array_equal(got[k].view(np.uint64), s.view(np.uint64))

    def test_nonsymmetric_coefficients_give_complex_function(self):
        p = cb.from_coefficients({1: 1.0})
        assert not p.real_valued


def nan_bits(a, b):
    """a and b hold the same bits, but for the payload and sign of a NaN."""
    a, b = np.asarray(a), np.asarray(b)
    nan = np.isnan(a)
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.array_equal(nan, np.isnan(b))
            and a[~nan].tobytes() == b[~nan].tobytes())


def pair_angles():
    # the reduced grid, which holds +0.0, then -0.0, the seam and random
    # angles
    x = periodic_fn._reduce_angle(periodic_fn._grid(2 ** 12))
    rng = np.random.default_rng(5)
    return np.concatenate((x, [-0.0, 0.0, -np.pi, np.pi],
                           rng.uniform(-np.pi, np.pi, 1000)))


def coefficient_vector(coefficients):
    degree = max(abs(n) for n in coefficients)
    c = np.zeros(2 * degree + 1, dtype=np.complex128)
    for n, a in coefficients.items():
        c[n + degree] = a
    return c


DEG500 = {s * n: (-1) ** n / n ** 2 for n in range(1, 501) for s in (1, -1)}

# real, sparse, signed-zero, conjugate-symmetric complex and complex series
COEFFICIENT_CASES = {
    **{"triangle-%d" % N: {n: 4.0 / (np.pi ** 2 * n * n) if n % 2 else 0.0
                           for n in range(-N, N + 1)} for N in (0, 1, 5, 16)},
    "deg500": {0: 0.3, **DEG500},
    "sparse": {1: 0.5, 3: 0.125},
    "zero-pairs": {0: 0.25, 1: 0.5, -1: 0.5, 4: -0.125, -4: -0.125, 12: 0.0},
    "negzero": {0: -0.0, 1: 0.0, 2: 1.0},
    "negzero-all-zero": {0: -0.0, 1: 0.0, -1: 0.0},
    "poszero": {0: 0.0, 1: -0.0, 2: 1.0},
    "conjugate": {0: 0.2, 1: 0.3 - 0.1j, -1: 0.3 + 0.1j, 2: 0.5, -2: 0.5,
                  3: 0.05j, -3: -0.05j},
    "complex": {1: 0.5, -2: 0.25j, 3: 0.125},
}


class TestRealPairTerm:
    """The real pair term Re(a_k + a_{-k}) cos kx - Im(a_k - a_{-k}) sin kx
    against the cosine term and the complex term's real part."""

    def test_cos_is_the_real_part_of_exp(self):
        # what the real series' bit-for-bit agreement with the frozen
        # complex sums rests on, at the phases of the envelope's orders and
        # of high-degree coefficient files
        rng = np.random.default_rng(0)
        kx = np.multiply.outer(np.arange(129), pair_angles()).ravel()
        t = np.concatenate((rng.uniform(-60.0, 60.0, 2 ** 16),
                            rng.uniform(-7000.0, 7000.0, 2 ** 16), kx))
        e = np.exp(np.multiply(1j, t))
        assert np.array_equal(np.cos(t).view(np.uint64),
                              e.real.view(np.uint64))

    @pytest.mark.parametrize("a", [0.5, -3.25e-3, 4.0 / np.pi ** 2, 1e300,
                                   -1e-250, 0.0, -0.0])
    def test_real_pair_is_twice_a_cosine(self, a):
        # doubling is exact in the normal range, so (2a) cos kx rounds as
        # 2 (a cos kx) does
        x = pair_angles()
        for k in range(129):
            got = periodic_fn._real_pair_term(a, a, k, x)
            want = 2.0 * (a * np.cos(k * x))
            assert got.tobytes() == want.tobytes(), k
            assert got.tobytes() == periodic_fn._real_pair_term(
                complex(a), complex(a), k, x).tobytes(), k

    def test_zero_pair_adds_nothing(self):
        x = pair_angles()
        for k in range(129):
            term = periodic_fn._real_pair_term(0j, -0j, k, x)
            for g in (1.0, 0.0, -2.5, 5e-324):
                assert np.all((g + term).view(np.uint64)
                              == np.float64(g).view(np.uint64))

    @pytest.mark.parametrize("a, b", [
        (0.3 - 0.1j, 0.3 + 0.1j), (0.05j, -0.05j), (1e-18j, -1e-18j),
        (0.5 + 0.25j, -0.125 + 1j), (0.5, 0.25j), (1.0, 0.0)])
    def test_complex_pairs_within_4_ulps_of_the_complex_term(self, a, b):
        x = pair_angles()
        tol = 4.0 * np.spacing(abs(a) + abs(b))
        for k in range(129):
            got = periodic_fn._real_pair_term(a, b, k, x)
            want = periodic_fn._pair_term(a, b, k, x).real
            assert np.max(np.abs(got - want)) <= tol, k

    def test_complex_pairs_are_not_cosine_terms(self):
        # a sine part moves the term off the cosine term's bits
        x = pair_angles()
        for a, b in ((0.3 - 0.1j, 0.3 + 0.1j), (0.5 + 0.25j, 0.5 - 0.2j)):
            got = periodic_fn._real_pair_term(a, b, 5, x)
            assert not np.array_equal(got, (a + b).real * np.cos(5 * x))

    @pytest.mark.parametrize("imag", ["none", "some", "all"])
    def test_stacked_orders_equal_one_order_at_a_time(self, imag):
        # as _partial_sums passes them: a column of orders and coefficients,
        # with the sine part on no row, on some and on every row
        x = pair_angles()
        k = np.arange(1, 129)[:, None]
        rng = np.random.default_rng(2)
        a = rng.standard_normal(128) + 0j
        b = a.copy()
        if imag != "none":
            im = rng.standard_normal(128) * (1.0 if imag == "all"
                                             else rng.integers(0, 2, 128))
            a, b = a + 1j * im, b - 1j * im
        got = np.empty((128, x.size))
        assert periodic_fn._real_pair_term(a[:, None], b[:, None], k, x,
                                           out=got) is got
        for i in range(128):
            row = periodic_fn._real_pair_term(a[i], b[i], i + 1, x)
            assert np.array_equal(got[i].view(np.uint64), row.view(np.uint64))


def assert_like_frozen(name, got, want):
    """got against the frozen complex sum: bit for bit (NaN only where the
    frozen sum has one), but for the conjugate-symmetric complex pairs,
    whose sine parts round otherwise (within 4 ulps of the sum of |a_n|),
    and the zero pairs added to a_0 = -0.0, whose zeros may differ in
    sign."""
    if name == "conjugate":
        tol = 4.0 * np.spacing(sum(abs(a) for a in COEFFICIENT_CASES[name].values()))
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert np.nanmax(np.abs(got - want)) <= tol
    elif name == "negzero-all-zero":
        assert np.array_equal(got, want, equal_nan=True)
    else:
        assert nan_bits(got, want)


class TestRealSumsAgainstFrozenCopy:
    """Real series summed in real arithmetic against the frozen complex
    direct sum."""

    @pytest.fixture(autouse=True)
    def nan_angles(self):
        with np.errstate(invalid="ignore"):
            yield

    @staticmethod
    def angles():
        # three chunks of the degree-500 rule, NaN, the infinities and
        # angles that the rule reduces
        return np.concatenate((pair_angles(), [np.nan, np.inf, -np.inf,
                                               1e3, -7.5, 40.0]))

    @pytest.mark.parametrize("name", list(COEFFICIENT_CASES))
    def test_partial_sums(self, name):
        c = coefficient_vector(COEFFICIENT_CASES[name])
        x = pair_angles()[::3]
        real = bool(np.all(c[::-1] == np.conj(c)))
        got = periodic_fn._partial_sums(c, x, real)
        want = frozen_envelope._partial_sums(c, x)
        assert got.dtype == (float if real else np.complex128)
        assert_like_frozen(name, got, want.real if real else want)

    @pytest.mark.parametrize("name", list(COEFFICIENT_CASES))
    def test_rule(self, name):
        coefficients = COEFFICIENT_CASES[name]
        p = cb.from_coefficients(coefficients)
        rule = frozen_periodic.trig_rule(coefficients)
        x = self.angles()
        assert x.size > periodic_fn._TERMS_PER_CHUNK // 501 * 2
        assert_like_frozen(name, p.sample(x), rule(periodic_fn._reduce_angle(x)))
        assert_like_frozen(name, p.rule(x.reshape(2, -1)), rule(x.reshape(2, -1)))
        assert_like_frozen(name, p.rule(0.5), rule(0.5))

    def test_triangle_truncations(self, triangle):
        x = self.angles()
        for N in (0, 3, 16, 64):
            p = cb.truncate(triangle, N)
            rule = frozen_periodic.trig_rule(dict(zip(p.ns.tolist(),
                                                      p.coeffs)))
            assert nan_bits(p.rule(x), rule(x))


class TestMaskFreeBump:
    def test_equals_masked_rule_bit_for_bit(self):
        rng = np.random.default_rng(11)
        edge = np.pi / 2
        near = [edge, np.nextafter(edge, 0.0), np.nextafter(edge, 4.0),
                np.nextafter(np.nextafter(edge, 4.0), 4.0)]
        x = np.concatenate((
            np.linspace(-4.0, 4.0, 2 ** 16), rng.uniform(-4.0, 4.0, 10 ** 5),
            near, np.negative(near),
            [np.pi, -np.pi, 0.0, -0.0, np.nan, np.inf, -np.inf]))
        rule = cb.builtin_bump().rule
        got, want = rule(x), frozen_periodic.bump_rule(x)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert rule(np.array(0.5)).shape == ()
        assert rule(0.5) == frozen_periodic.bump_rule(0.5)
        assert not np.signbit(got).any()


class TestBatchedLadder:
    # level 2 has two subgrids and level 8 sixty-four: a partial batch and
    # whole ones
    @pytest.mark.parametrize("make", [cb.builtin_bump, complex_bump])
    def test_levels_equal_one_subgrid_per_call(self, make):
        f = make()
        new = periodic_fn._TrapezoidLadder(f.real_valued)
        old = periodic_fn._TrapezoidLadder(f.real_valued)
        for _ in range(9):
            new._add_level(f)
            frozen_periodic.add_level(old, f)
        for a, b in zip(new.est, old.est):
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
