"""Tests for matrix generation, functional calculus, sweeps, and the probe."""

import dataclasses
import math

import numpy as np
import pytest

import commbound as cb
import frozen_probe


def power_norm(M, iters=600, seed=5):
    """Largest singular value by power iteration on M*M.

    Deliberately avoids the SVD so it can cross-check op_norm through an
    unrelated route.
    """
    M = np.asarray(M, dtype=np.complex128)
    B = M.conj().T @ M
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(M.shape[1]) + 1j * rng.standard_normal(M.shape[1])
    v = v / math.sqrt(np.vdot(v, v).real)
    lam = 0.0
    for _ in range(iters):
        w = B @ v
        nw = math.sqrt(abs(np.vdot(w, w).real))
        if nw == 0.0:
            return 0.0
        v = w / nw
        lam = nw
    return math.sqrt(lam)


def cos_function():
    return cb.from_coefficients({1: 0.5, -1: 0.5})


class TestRefusedInputs:
    @pytest.mark.parametrize("call, message", [
        (lambda: cb.hermitian_calculus(np.sqrt, np.zeros((2, 3))),
         "square matrix required"),
        (lambda: cb.commutator(np.eye(2), np.eye(3)), "dimension mismatch"),
        (lambda: cb.block_pair(np.eye(2), np.eye(3)), "dimension mismatch"),
        (lambda: cb.sample_sweep(np.sqrt, "positive", 0, [2], 0,
                                 cb.gamma0(64)), "count must be at least 1"),
        (lambda: cb.sample_sweep(np.sqrt, "positive", 3, [], 0,
                                 cb.gamma0(64)), "dims must be nonempty"),
        (lambda: cb.probe_max_commutator(0.25, 2, 0, 0),
         "iters and restarts must be positive"),
        (lambda: cb.probe_max_commutator(0.25, 2, 10, 0, restarts=0),
         "iters and restarts must be positive"),
    ], ids=["hermitian-non-square", "commutator-shapes", "block-pair-shapes",
            "sweep-count-0", "sweep-no-dims", "probe-iters-0",
            "probe-restarts-0"])
    def test_message(self, call, message):
        with pytest.raises(ValueError, match="^%s$" % message):
            call()


class TestOpNorm:
    def test_diagonal(self):
        assert cb.op_norm(np.diag([3.0, -7.0, 2.0])) == 7.0

    def test_nilpotent(self):
        assert cb.op_norm(np.array([[0.0, 2.0], [0.0, 0.0]])) == 2.0

    def test_zero(self):
        assert cb.op_norm(np.zeros((4, 4))) == 0.0

    def test_unitary_is_one(self):
        U = cb.haar_unitary(6, seed=1)
        assert abs(cb.op_norm(U) - 1.0) <= 1e-12

    def test_power_iteration_agreement(self):
        for seed in range(8):
            rng = cb.stream(seed, 77)
            M = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            assert abs(cb.op_norm(M) - power_norm(M)) <= 1e-10 * cb.op_norm(M)


class TestCommutator:
    def test_formula(self):
        X = np.array([[1.0, 2.0], [3.0, 4.0]])
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_array_equal(cb.commutator(X, A), X @ A - A @ X)

    def test_commuting_pair_vanishes(self):
        X = np.diag([1.0, 2.0, 3.0])
        A = np.diag([5.0, 6.0, 7.0])
        assert cb.op_norm(cb.commutator(X, A)) == 0.0

    def test_diag_against_swap(self):
        X = np.diag([0.25, 0.75]).astype(complex)
        A = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        assert abs(cb.op_norm(cb.commutator(X, A)) - 0.5) <= 1e-15

    def test_contraction_pair_never_exceeds_two(self):
        for seed in range(20):
            U = cb.haar_unitary(4, seed=seed)
            A = cb.random_contraction(4, seed=seed + 1000)
            assert cb.op_norm(cb.commutator(U, A)) <= 2.0 + 1e-12


class TestStreams:
    def test_same_key_same_draws(self):
        a = cb.stream(42, 7).standard_normal(8)
        b = cb.stream(42, 7).standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_index_separates_streams(self):
        a = cb.stream(42, 0).standard_normal(8)
        b = cb.stream(42, 1).standard_normal(8)
        assert np.any(a != b)

    def test_seed_separates_streams(self):
        a = cb.stream(0, 3).standard_normal(8)
        b = cb.stream(1, 3).standard_normal(8)
        assert np.any(a != b)

    @pytest.mark.parametrize("seed, index", [(0, 0), (42, 7), (3, 2 ** 64),
                                             (2 ** 64 + 5, 2 ** 65 + 3),
                                             (-1, -2)])
    def test_restart_draws_like_a_new_stream(self, seed, index):
        rng = cb.stream(9, 9)
        state = rng.bit_generator.state
        for _ in range(2):   # the state dict is reused
            rng.standard_normal(5)
            rng.integers(0, 3, 7)   # leaves a part-used buffer and 32-bit word
            cb.matrix_lab._restart(rng, state, seed, index)
            want = cb.stream(seed, index)
            for draw in (lambda g: g.standard_normal((2, 3, 3)),
                         lambda g: g.integers(0, 3, 5),
                         lambda g: g.uniform(0.0, 1.0, 4)):
                assert draw(rng).tobytes() == draw(want).tobytes()


class TestGenerators:
    def test_haar_unitarity(self):
        for seed in range(100):
            U = cb.haar_unitary(3, seed=seed)
            assert cb.op_norm(U.conj().T @ U - np.eye(3)) <= 1e-12

    def test_haar_determinism(self):
        np.testing.assert_array_equal(cb.haar_unitary(5, seed=9), cb.haar_unitary(5, seed=9))

    def test_haar_det_phase_spread(self):
        # det phases should fill the circle; 16-bin chi-square against
        # uniform, threshold at the 0.999 quantile for 15 dof
        n = 4096
        phases = np.array([np.angle(np.linalg.det(cb.haar_unitary(3, seed=s))) for s in range(n)])
        counts, _ = np.histogram(phases, bins=16, range=(-math.pi, math.pi))
        chi2 = float(np.sum((counts - n / 16.0) ** 2 / (n / 16.0)))
        assert chi2 < 37.697

    def test_contraction_norm(self):
        for seed in range(50):
            A = cb.random_contraction(5, seed=seed)
            assert cb.op_norm(A) <= 1.0 + 1e-15
            assert np.any(A.imag != 0.0)

    def test_positive_contraction_uniform(self):
        for seed in range(30):
            H = cb.random_positive_contraction(4, seed=seed)
            assert cb.op_norm(H - H.conj().T) <= 1e-13
            w = np.linalg.eigvalsh(H)
            assert w.min() >= -1e-12 and w.max() <= 1.0 + 1e-12

    def test_positive_contraction_atoms_hits_endpoints(self):
        saw_zero = saw_one = False
        for seed in range(40):
            H = cb.random_positive_contraction(5, seed=seed, spectrum_mode="atoms")
            w = np.linalg.eigvalsh(H)
            saw_zero = saw_zero or np.any(np.abs(w) <= 1e-10)
            saw_one = saw_one or np.any(np.abs(w - 1.0) <= 1e-10)
            assert w.min() >= -1e-12 and w.max() <= 1.0 + 1e-12
        assert saw_zero and saw_one

    def test_spectrum_modes_differ(self):
        a = cb.random_positive_contraction(4, seed=2, spectrum_mode="uniform")
        b = cb.random_positive_contraction(4, seed=2, spectrum_mode="atoms")
        assert np.any(a != b)


class TestUnitaryCalculus:
    def test_cos_identity(self):
        f = cos_function()
        for seed in (0, 3):
            V = cb.haar_unitary(5, seed=seed)
            want = (V + V.conj().T) / 2.0
            assert cb.op_norm(cb.unitary_calculus(f, V) - want) <= 1e-10

    def test_constant_gives_scaled_identity(self):
        f = cb.from_coefficients({0: 0.7})
        V = cb.haar_unitary(4, seed=5)
        assert cb.op_norm(cb.unitary_calculus(f, V) - 0.7 * np.eye(4)) <= 1e-12

    def test_matches_eig_oracle(self, triangle):
        for seed in (1, 8, 21):
            V = cb.haar_unitary(6, seed=seed)
            w, Q = np.linalg.eig(V)
            want = Q @ np.diag(triangle.sample(np.angle(w))) @ np.linalg.inv(Q)
            got = cb.unitary_calculus(triangle, V)
            assert cb.op_norm(got - want) <= 1e-9

    def test_clustered_phases(self, triangle):
        # phases 3e-9 apart force the cluster pass; the result must track
        # the spectral construction of the input
        U = cb.haar_unitary(4, seed=13)
        theta = np.array([0.4, 0.4 + 3e-9, -1.0, 2.0])
        V = U @ np.diag(np.exp(1j * theta)) @ U.conj().T
        want = U @ np.diag(triangle.sample(theta)) @ U.conj().T
        assert cb.op_norm(cb.unitary_calculus(triangle, V) - want) <= 1e-9

    def test_exactly_degenerate_phases(self, triangle):
        U = cb.haar_unitary(3, seed=14)
        theta = np.array([0.9, 0.9, -2.0])
        V = U @ np.diag(np.exp(1j * theta)) @ U.conj().T
        want = U @ np.diag(triangle.sample(theta)) @ U.conj().T
        assert cb.op_norm(cb.unitary_calculus(triangle, V) - want) <= 1e-9

    def test_phases_pi_and_minus_pi_are_one_point(self):
        # np.angle gives pi for -1 + 0j and -pi for -1 - 0j; the rule sees
        # both as -pi
        seen = []
        f = cb.PeriodicFunction(lambda x: seen.append(x.copy()) or np.cos(x))
        seen.clear()   # the seam check's call
        V = np.diag([-1.0 + 0j, complex(-1.0, -0.0), 1j])
        assert sorted(np.angle(np.diagonal(V)).tolist()) == [-np.pi, np.pi / 2,
                                                             np.pi]
        cb.unitary_calculus(f, V)
        assert sorted(np.concatenate(seen).tolist()) == [-np.pi, -np.pi,
                                                         np.pi / 2]

    def test_rejects_nonunitary(self, triangle):
        with pytest.raises(ValueError):
            cb.unitary_calculus(triangle, np.diag([1.0, 0.5]))

    def test_result_norm_within_range(self, triangle):
        V = cb.haar_unitary(5, seed=2)
        F = cb.unitary_calculus(triangle, V)
        assert cb.op_norm(F) <= 1.0 + 1e-12


class TestHermitianCalculus:
    def test_sqrt_on_diagonal(self):
        H = np.diag([0.25, 1.0]).astype(complex)
        R = cb.hermitian_calculus(np.sqrt, H)
        np.testing.assert_allclose(R, np.diag([0.5, 1.0]), atol=1e-14)

    def test_square_root_squares_back(self):
        for seed in (0, 4):
            H = cb.random_positive_contraction(5, seed=seed)
            R = cb.hermitian_calculus(np.sqrt, H)
            assert cb.op_norm(R @ R - H) <= 1e-12

    def test_rejects_nonhermitian(self):
        with pytest.raises(ValueError):
            cb.hermitian_calculus(np.sqrt, np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_spectrum_outside_unit_interval(self):
        with pytest.raises(ValueError):
            cb.hermitian_calculus(np.sqrt, np.diag([0.5, 1.5]))
        with pytest.raises(ValueError):
            cb.hermitian_calculus(np.sqrt, np.diag([-0.5, 0.5]))


class TestBlocks:
    def test_offdiag_layout(self):
        M1 = np.array([[1.0, 2.0], [3.0, 4.0]])
        M2 = np.array([[5.0, 6.0], [7.0, 8.0]])
        T = cb.block_offdiag(M1, M2)
        np.testing.assert_array_equal(T[:2, 2:], M1)
        np.testing.assert_array_equal(T[2:, :2], M2)
        np.testing.assert_array_equal(T[:2, :2], np.zeros((2, 2)))

    def test_offdiag_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cb.block_offdiag(np.eye(2), np.eye(3))

    def test_equal_inputs_commute(self):
        V = cb.haar_unitary(3, seed=6)
        S, T = cb.block_pair(V, V)
        assert cb.op_norm(cb.commutator(S, T)) <= 1e-14

    def test_opposite_identities(self):
        S, T = cb.block_pair(np.eye(2), -np.eye(2))
        assert abs(cb.op_norm(cb.commutator(S, T)) - 2.0) <= 1e-14

    def test_swap_identity_random_pairs(self):
        for seed in range(20):
            V = cb.haar_unitary(4, seed=seed)
            V1 = cb.haar_unitary(4, seed=seed + 500)
            S, T = cb.block_pair(V, V1)
            lhs = cb.op_norm(cb.commutator(S, T))
            assert abs(lhs - cb.op_norm(V - V1)) <= 1e-10

    def test_swap_identity_transfers_through_calculus(self, triangle):
        V = cb.haar_unitary(4, seed=31)
        V1 = cb.haar_unitary(4, seed=32)
        S, _ = cb.block_pair(V, V1)
        FV = cb.unitary_calculus(triangle, V)
        FV1 = cb.unitary_calculus(triangle, V1)
        lhs = cb.op_norm(cb.commutator(S, cb.block_offdiag(FV, FV1)))
        assert abs(lhs - cb.op_norm(FV - FV1)) <= 1e-10


class TestLowerBoundInstance:
    def test_coincident_angles(self, triangle):
        r = cb.lower_bound_instance(triangle, 0.7, 0.7)
        assert r.delta == 0.0 and r.measured == 0.0

    def test_antipodal_angles(self, triangle):
        r = cb.lower_bound_instance(triangle, 0.0, math.pi)
        assert abs(r.delta - 2.0) <= 1e-15
        assert abs(r.measured - 2.0) <= 1e-15

    def test_quarter_turn(self, triangle):
        r = cb.lower_bound_instance(triangle, 0.0, math.pi / 2.0)
        assert abs(r.delta - math.sqrt(2.0)) <= 1e-15
        assert abs(r.measured - 1.0) <= 1e-15

    def test_never_above_pointwise_lower_bound(self, triangle):
        rng = cb.stream(3, 0)
        for _ in range(25):
            x1, x2 = rng.uniform(-math.pi, math.pi, 2)
            r = cb.lower_bound_instance(triangle, float(x1), float(x2))
            if r.delta < 2.0:
                assert r.measured <= cb.eta_lower(triangle, r.delta) + 1e-12


class TestInstancePair:
    def test_unitary_role(self):
        p = cb.instance_pair("unitary", 4, seed=7, index=3)
        assert p.x.shape == (4, 4)
        assert cb.op_norm(p.x.conj().T @ p.x - np.eye(4)) <= 1e-12
        assert cb.op_norm(p.a) <= 1.0 + 1e-15
        assert p.spectrum_mode is None

    def test_positive_role(self):
        p = cb.instance_pair("positive", 4, seed=7, index=3, spectrum_mode="uniform")
        w = np.linalg.eigvalsh(p.x)
        assert w.min() >= -1e-12 and w.max() <= 1.0 + 1e-12

    def test_bitwise_reproducibility(self):
        a = cb.instance_pair("positive", 5, seed=123, index=17, spectrum_mode="atoms")
        b = cb.instance_pair("positive", 5, seed=123, index=17, spectrum_mode="atoms")
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.a, b.a)

    def test_index_varies_instances(self):
        a = cb.instance_pair("unitary", 3, seed=1, index=0)
        b = cb.instance_pair("unitary", 3, seed=1, index=1)
        assert np.any(a.x != b.x)

    def test_validate_passes_and_refuses_each_check(self):
        pairs = [cb.instance_pair("unitary", 5, 7, 3),
                 cb.instance_pair("positive", 4, 7, 3, "uniform"),
                 cb.instance_pair("positive", 4, 7, 3, "atoms")]
        for p in pairs:
            assert p.validate() is None
        u, h = pairs[0], pairs[1]
        skew = np.triu(np.ones((4, 4)), 1)
        for bad, message in [
            (dataclasses.replace(u, x=1.01 * u.x), "unitary role"),
            (dataclasses.replace(h, x=h.x + 0.1 * skew), "not Hermitian"),
            (dataclasses.replace(h, x=h.x + 0.5 * np.eye(4)), "spectrum"),
            (dataclasses.replace(h, x=h.x - 0.5 * np.eye(4)), "spectrum"),
            (dataclasses.replace(u, a=3.0 * u.a), "not a contraction"),
            (dataclasses.replace(h, a=3.0 * h.a), "not a contraction"),
            (dataclasses.replace(u, role="other"), "unknown role"),
        ]:
            with pytest.raises(ValueError, match=message):
                bad.validate()

    def test_validation(self):
        for kwargs in (
            dict(role="unitary", dim=1, seed=0, index=0),
            dict(role="unitary", dim=65, seed=0, index=0),
            dict(role="other", dim=4, seed=0, index=0),
            dict(role="positive", dim=4, seed=0, index=0, spectrum_mode="odd"),
        ):
            with pytest.raises(ValueError):
                cb.instance_pair(**kwargs)


class TestSampleSweep:
    def test_positive_sweep_against_gamma(self, gamma_small):
        records = cb.sample_sweep(np.sqrt, "positive", 40, (2, 3, 4), seed=5, curve=gamma_small)
        assert len(records) == 40
        dims = [r.dim for r in records]
        assert dims[:6] == [2, 3, 4, 2, 3, 4]
        for r in records:
            assert r.bound is not None
            assert r.margin == r.bound - r.measured
            assert r.margin >= -1e-8

    def test_unitary_sweep_against_envelope(self, triangle, triangle_envelope):
        records = cb.sample_sweep(triangle, "unitary", 30, (2, 5, 8), seed=2, curve=triangle_envelope)
        assert len(records) == 30
        for r in records:
            assert r.margin >= -1e-8

    def test_folk_bound_on_polynomial(self, triangle):
        g = cb.truncate(triangle, 3)
        curve = cb.BoundCurve(lines=[cb.folk_line(g)])
        records = cb.sample_sweep(g, "unitary", 50, (2, 3, 4, 5), seed=8, curve=curve)
        for r in records:
            assert r.margin >= -1e-9

    def test_violation_reported_with_payload(self, triangle):
        absurd = cb.BoundCurve(lines=[cb.BoundLine(0.0, 1e-9, 2.0, "absurd")])
        with pytest.raises(cb.ViolationError) as info:
            cb.sample_sweep(triangle, "unitary", 10, (3,), seed=4, curve=absurd)
        payload = info.value.payload
        for key in ("seed", "index", "dim", "role", "delta", "measured", "bound", "margin", "x", "a"):
            assert key in payload

    def test_violation_payload_replays(self, triangle):
        absurd = cb.BoundCurve(lines=[cb.BoundLine(0.0, 1e-9, 2.0, "absurd")])
        with pytest.raises(cb.ViolationError) as info:
            cb.sample_sweep(triangle, "unitary", 10, (3,), seed=4, curve=absurd)
        payload = info.value.payload
        pair = cb.instance_pair(payload["role"], payload["dim"], payload["seed"], payload["index"])
        x = np.array([[complex(re, im) for re, im in row] for row in payload["x"]])
        a = np.array([[complex(re, im) for re, im in row] for row in payload["a"]])
        np.testing.assert_array_equal(pair.x, x)
        np.testing.assert_array_equal(pair.a, a)
        delta = cb.op_norm(cb.commutator(pair.x, pair.a))
        measured = cb.op_norm(cb.commutator(cb.unitary_calculus(triangle, pair.x), pair.a))
        assert delta == payload["delta"]
        assert measured == payload["measured"]

    def test_role_validation(self, gamma_small):
        with pytest.raises(ValueError):
            cb.sample_sweep(np.sqrt, "nonsense", 5, (2,), seed=0, curve=gamma_small)


class TestProbe:
    def test_pinch_probe_reaches_half(self):
        res = cb.probe_max_commutator(0.25, 2, 2000, seed=0, restarts=2)
        assert res.record.measured >= 0.5 - 1e-4
        assert res.record.bound == 0.5
        assert res.gap == res.record.bound - res.record.measured

    def test_probe_output_is_feasible(self):
        res = cb.probe_max_commutator(0.25, 2, 2000, seed=0, restarts=2)
        w = np.linalg.eigvalsh(res.h)
        assert w.min() >= -1e-12 and w.max() <= 1.0 + 1e-12
        assert cb.op_norm(res.a) <= 1.0 + 1e-12
        assert cb.op_norm(cb.commutator(res.h, res.a)) <= 0.25 + 1e-10
        root = cb.hermitian_calculus(np.sqrt, res.h)
        measured = cb.op_norm(cb.commutator(root, res.a))
        assert measured == res.record.measured

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_probe_at_cli_defaults_replays(self, seed):
        res = cb.probe_max_commutator(0.25, 2, 20000, seed=seed, restarts=64)
        root = cb.hermitian_calculus(np.sqrt, res.h)
        assert cb.op_norm(cb.commutator(root, res.a)) == res.record.measured
        assert cb.op_norm(cb.commutator(res.h, res.a)) == res.record.delta
        assert res.record.delta <= 0.25 + 1e-10
        assert 0.5 - 1e-6 <= res.record.measured <= 0.5 + 1e-9
        assert res.iterations == 20000 // 64 * 64

    def test_probe_determinism(self):
        a = cb.probe_max_commutator(0.09, 3, 500, seed=11, restarts=2)
        b = cb.probe_max_commutator(0.09, 3, 500, seed=11, restarts=2)
        np.testing.assert_array_equal(a.h, b.h)
        np.testing.assert_array_equal(a.a, b.a)
        assert a.record.measured == b.record.measured

    def test_probe_never_beats_certificate(self, gamma_small):
        for dt in (0.04, 0.25, 0.64):
            res = cb.probe_max_commutator(dt, 3, 800, seed=3, restarts=2)
            assert res.record.measured <= gamma_small.evaluate(dt) + 1e-9

    @pytest.mark.parametrize("dim", [2, 3])
    def test_one_step_probe_is_always_feasible(self, dim):
        # a flat clipped spectrum leaves no swap pair; the random
        # contraction is then the answer, not a missing A.  The measured
        # delta may pass 0.25 by rounding (by 11 ulps at most here)
        for seed in range(400):
            res = cb.probe_max_commutator(0.25, dim, 1, seed, restarts=1)
            assert res.a.shape == (dim, dim)
            assert res.record.delta <= 0.25 + 1e-12
            assert cb.op_norm(res.a) <= 1.0 + 1e-12
            w = np.linalg.eigvalsh(res.h)
            assert w.min() >= -1e-12 and w.max() <= 1.0 + 1e-12

    def test_probe_validation(self):
        with pytest.raises(ValueError):
            cb.probe_max_commutator(0.0, 2, 100, seed=0)
        with pytest.raises(ValueError):
            cb.probe_max_commutator(1.5, 2, 100, seed=0)
        with pytest.raises(ValueError):
            cb.probe_max_commutator(0.25, 1, 100, seed=0)


class TestProbeAgainstFrozenCopy:
    """Each proposal is drawn with one generator call into a slot of the
    draw stack; the climb must give the frozen copy's bits."""

    @staticmethod
    def assert_same_bits(delta, dim, iters, seed, restarts):
        new = cb.probe_max_commutator(delta, dim, iters, seed, restarts=restarts)
        old = frozen_probe.probe_max_commutator(delta, dim, iters, seed,
                                                restarts=restarts)
        assert new.h.tobytes() == old.h.tobytes()
        assert new.a.tobytes() == old.a.tobytes()
        assert new.record == old.record
        assert new.iterations == old.iterations

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cli_defaults(self, seed):
        self.assert_same_bits(0.25, 2, 20000, seed, 64)

    @pytest.mark.parametrize("delta", [1.0, 1e-3])
    @pytest.mark.parametrize("restarts", [1, 7])
    @pytest.mark.parametrize("dim", [3, 5, 8])
    def test_dims_restarts_deltas(self, dim, restarts, delta):
        self.assert_same_bits(delta, dim, 60 * restarts, 5, restarts)
