"""The stacked spectral path: batched calculus, sweeps and probe scores must
give the same bits as their one-matrix counterparts."""

import numpy as np
import pytest

import commbound as cb
import frozen_probe
from commbound import matrix_lab

DIMS = range(2, 9)


def cap_curve(value=2.0):
    return cb.BoundCurve(lines=[cb.BoundLine(0.0, value, 2.0, "cap")])


def replay_mismatches(f, role, records, seed, mode, curve):
    """Records whose delta, measured or bound differ from a replay of
    (seed, index) through the public one-matrix functions."""
    calc = cb.hermitian_calculus if role == "positive" else cb.unitary_calculus
    bad = []
    for i, rec in enumerate(records):
        m = mode
        if role == "positive" and mode == "both":
            m = "uniform" if i % 2 == 0 else "atoms"
        pair = cb.instance_pair(role, rec.dim, seed, i, m)
        delta = cb.op_norm(cb.commutator(pair.x, pair.a))
        measured = cb.op_norm(cb.commutator(calc(f, pair.x), pair.a))
        bound = curve.evaluate(min(delta, curve.delta_max))
        if (delta, measured, bound) != (rec.delta, rec.measured, rec.bound):
            bad.append(i)
    return bad


class TestSweepReplay:
    @pytest.mark.parametrize("mode", ["uniform", "atoms", "both"])
    def test_positive_sweep_replays_bitwise(self, mode, gamma_small):
        records = cb.sample_sweep(np.sqrt, "positive", 84, DIMS, seed=6,
                                  curve=gamma_small, spectrum_mode=mode)
        assert [r.dim for r in records[:7]] == list(DIMS)
        assert replay_mismatches(np.sqrt, "positive", records, 6, mode,
                                 gamma_small) == []

    def test_unitary_sweep_replays_bitwise(self, triangle, triangle_envelope):
        records = cb.sample_sweep(triangle, "unitary", 70, DIMS, seed=9,
                                  curve=triangle_envelope)
        assert replay_mismatches(triangle, "unitary", records, 9, None,
                                 triangle_envelope) == []

    def test_trig_polynomial_sweep_replays_bitwise(self):
        # complex coefficients through degree 8: sampling such a polynomial
        # on a longer array of angles changes the last bits, so this
        # catches a calculus that samples a whole stack at once
        coeffs = {n: complex(0.04 * n, 0.03) for n in range(-8, 9)}
        g = cb.from_coefficients(coeffs)
        curve = cap_curve(2.0 * sum(abs(c) for c in coeffs.values()))
        records = cb.sample_sweep(g, "unitary", 70, DIMS, seed=4, curve=curve)
        assert replay_mismatches(g, "unitary", records, 4, None, curve) == []

    def test_repeated_dims_keep_index_order(self, gamma_small):
        records = cb.sample_sweep(np.sqrt, "positive", 12, (3, 2, 3), seed=1,
                                  curve=gamma_small)
        assert [r.dim for r in records] == [3, 2, 3] * 4
        assert replay_mismatches(np.sqrt, "positive", records, 1, "both",
                                 gamma_small) == []

    def test_violation_raises_at_smallest_index(self, triangle):
        # a cap between the measured values fails some records but not all
        probe = cb.sample_sweep(triangle, "unitary", 40, DIMS, seed=2,
                                curve=cap_curve())
        measured = sorted(r.measured for r in probe)
        cap = measured[len(measured) // 2]
        first = min(i for i, r in enumerate(probe) if cap - r.measured < -1e-8)
        with pytest.raises(cb.ViolationError) as info:
            cb.sample_sweep(triangle, "unitary", 40, DIMS, seed=2,
                            curve=cap_curve(cap))
        payload = info.value.payload
        assert payload["index"] == first
        assert payload["dim"] == probe[first].dim
        assert payload["measured"] == probe[first].measured


class CountingCurve:
    """A curve that records every evaluate call it receives."""

    def __init__(self, curve):
        self.curve = curve
        self.delta_max = curve.delta_max
        self.calls = []

    def evaluate(self, deltas):
        self.calls.append(np.array(deltas))
        return self.curve.evaluate(deltas)


class TestOneCurveEvaluation:
    def sweep_bounds_match_scalar_calls(self, f, role, curve, count, seed):
        counting = CountingCurve(curve)
        records = cb.sample_sweep(f, role, count, DIMS, seed=seed,
                                  curve=counting)
        assert len(counting.calls) == 1
        assert counting.calls[0].shape == (count,)
        for rec in records:
            want = curve.evaluate(min(rec.delta, curve.delta_max))
            assert type(rec.bound) is float and rec.bound == want

    def test_positive_role(self):
        self.sweep_bounds_match_scalar_calls(np.sqrt, "positive", cb.gamma0(),
                                             140, 3)

    def test_unitary_role(self, triangle, triangle_envelope):
        self.sweep_bounds_match_scalar_calls(triangle, "unitary",
                                             triangle_envelope, 70, 5)

    def test_violation_payload_replays(self):
        probe = cb.sample_sweep(np.sqrt, "positive", 40, DIMS, seed=2,
                                curve=cap_curve())
        cap = sorted(r.measured for r in probe)[20]
        first = min(i for i, r in enumerate(probe) if cap - r.measured < -1e-8)
        with pytest.raises(cb.ViolationError) as info:
            cb.sample_sweep(np.sqrt, "positive", 40, DIMS, seed=2,
                            curve=cap_curve(cap))
        pair = cb.instance_pair("positive", probe[first].dim, 2, first,
                                "uniform" if first % 2 == 0 else "atoms")
        measured = probe[first].measured
        assert info.value.payload == {
            "seed": 2, "index": first, "dim": pair.dim, "role": "positive",
            "spectrum_mode": pair.spectrum_mode, "delta": probe[first].delta,
            "measured": measured, "bound": cap, "margin": cap - measured,
            "x": matrix_lab._matrix_entries(pair.x),
            "a": matrix_lab._matrix_entries(pair.a)}


class TestStackedCalculus:
    def test_hermitian_stack_matches_single(self):
        H = np.stack([cb.random_positive_contraction(5, seed=s) for s in range(6)])
        F = cb.hermitian_calculus(np.sqrt, H)
        for k in range(len(H)):
            np.testing.assert_array_equal(F[k], cb.hermitian_calculus(np.sqrt, H[k]))

    def test_unitary_stack_matches_single_with_clusters(self, triangle):
        U = cb.haar_unitary(4, seed=13)
        theta = np.array([0.4, 0.4 + 3e-9, -1.0, 2.0])
        clustered = U @ np.diag(np.exp(1j * theta)) @ U.conj().T
        V = np.stack([cb.haar_unitary(4, seed=1), clustered,
                      cb.haar_unitary(4, seed=2)])
        F = cb.unitary_calculus(triangle, V)
        for k in range(len(V)):
            np.testing.assert_array_equal(F[k], cb.unitary_calculus(triangle, V[k]))
        want = U @ np.diag(triangle.sample(theta)) @ U.conj().T
        assert cb.op_norm(F[1] - want) <= 1e-9

    def test_checks_apply_to_every_matrix(self, triangle):
        good = cb.random_positive_contraction(3, seed=0)
        with pytest.raises(ValueError):
            cb.hermitian_calculus(np.sqrt, np.stack([good, np.diag([0.5, 1.5, 0.2])]))
        skew = good.copy()
        skew[0, 1] += 1e-3
        with pytest.raises(ValueError):
            cb.hermitian_calculus(np.sqrt, np.stack([good, skew]))
        with pytest.raises(ValueError):
            cb.unitary_calculus(triangle, np.stack([cb.haar_unitary(3, seed=0),
                                                    0.5 * np.eye(3)]))

    def test_op_norm_stack(self):
        rng = cb.stream(3, 5)
        M = rng.standard_normal((6, 4, 4)) + 1j * rng.standard_normal((6, 4, 4))
        norms = cb.op_norm(M)
        assert norms.shape == (6,)
        for k in range(6):
            assert norms[k] == cb.op_norm(M[k]) == np.linalg.norm(M[k], 2)


def screen_cases(tol):
    """Matrices around the screen's thresholds: op norm just above tol;
    Frobenius norm just above tol/2 or above tol with op norm below tol;
    rank one, where op and Frobenius norms agree; zero."""
    up, down = np.nextafter(tol, 1.0), np.nextafter(tol, 0.0)
    rng = cb.stream(21, 0)
    u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    rank1 = np.outer(u, v.conj())
    rank1 /= np.linalg.norm(rank1)
    return [
        np.diag([up, 0.0, 0.0, 0.0]).astype(complex),
        np.diag([tol, 0.0, 0.0, 0.0]).astype(complex),
        np.diag([0.26 * tol] * 4).astype(complex),
        np.diag([0.9 * tol] * 4).astype(complex),
        1j * np.diag([down, down, 0.0, 0.0]),
        rank1 * up, rank1 * tol, rank1 * down, rank1 * (tol / 2.0),
        rank1 * np.nextafter(tol / 2.0, 1.0),
        np.zeros((4, 4), dtype=complex),
    ]


class TestFrobeniusScreen:
    """The calculus checks send only matrices whose Frobenius norm exceeds
    tol/2 to the SVD; every decision, and the worst norm reported, must be
    the SVD's."""

    @pytest.mark.parametrize("tol", [1e-10, 1e-9])
    def test_decisions_equal_the_svd(self, tol):
        cases = screen_cases(tol)
        rng = cb.stream(22, 0)
        noise = rng.standard_normal((40, 4, 4)) + 1j * rng.standard_normal((40, 4, 4))
        noise *= (rng.uniform(0.2, 1.5, 40) * tol / matrix_lab._norms(noise))[:, None, None]
        mixed = np.concatenate([np.stack(cases), noise])[rng.permutation(51)]
        # rank one at Frobenius norm tol: the SVD puts about a third above
        # tol, which a screen at tol rather than tol/2 would wave through
        u = rng.standard_normal((200, 4)) + 1j * rng.standard_normal((200, 4))
        v = rng.standard_normal((200, 4)) + 1j * rng.standard_normal((200, 4))
        rank1 = u[:, :, None] * v.conj()[:, None, :]
        rank1 *= (tol / np.linalg.norm(rank1, axis=(1, 2)))[:, None, None]
        for M in cases + [mixed, mixed.reshape(3, 17, 4, 4), rank1]:
            svd = matrix_lab._norms(M)
            screened = matrix_lab._screened_norms(M, tol)
            np.testing.assert_array_equal(screened > tol, svd > tol)
            sent = screened != 0.0
            np.testing.assert_array_equal(screened[sent], svd[sent])
            if np.max(svd) > tol:
                assert np.max(screened) == np.max(svd)
        assert np.any(matrix_lab._norms(mixed) > tol)
        assert not np.all(matrix_lab._norms(mixed) > tol)

    def test_hermitian_check_matches_the_svd(self):
        # H - H* is the anti-Hermitian D exactly: its off-diagonal halves
        # are added to zeros
        tol = 1e-10
        for z in (np.nextafter(tol, 1.0), tol, 0.51 * tol, 0.49 * tol):
            for phase in (1.0, 1j, np.exp(0.3j)):
                d = np.zeros((3, 3), dtype=complex)
                d[0, 2] = z * phase
                d[2, 0] = -np.conj(d[0, 2])
                H = np.diag([0.2, 0.5, 0.7]) + d / 2.0
                assert np.array_equal(H - H.conj().T, d)
                stack = np.stack([cb.random_positive_contraction(3, seed=1), H])
                rejects = bool(np.any(matrix_lab._norms(stack - matrix_lab._adjoint(stack)) > tol))
                if rejects:
                    with pytest.raises(ValueError, match="Hermitian input"):
                        cb.hermitian_calculus(np.sqrt, stack)
                else:
                    cb.hermitian_calculus(np.sqrt, stack)

    def test_residual_message_reports_the_svd_worst(self):
        q = np.stack([cb.haar_unitary(4, seed=s) for s in range(3)])
        lam = np.tile(np.linspace(0.1, 0.9, 4), (3, 1))
        exact = matrix_lab._reassemble(q, lam)
        bumps = np.stack(screen_cases(1e-9)[:3]) * 1.5
        M = exact + bumps
        worst = np.max(matrix_lab._norms(M - exact))
        assert worst > 1e-9
        with pytest.raises(matrix_lab.DecompositionError) as info:
            matrix_lab._check_residual(M, q, lam, "Hermitian")
        assert str(info.value) == ("Hermitian diagonalization residual %.3e"
                                   % worst)
        matrix_lab._check_residual(exact, q, lam, "Hermitian")


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def one_matrix_instance(role, dim, seed, index, mode):
    """(X, A) at (seed, index) built one matrix at a time, as the generators
    were written before they drew into stacks."""
    rng = cb.stream(seed, index)
    g = (rng.standard_normal((dim, dim))
         + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    mag = np.abs(d)
    x = q * np.where(mag > 0, d / np.where(mag > 0, mag, 1.0), 1.0)
    if role == "positive":
        if mode == "uniform":
            lam = rng.uniform(0.0, 1.0, dim)
        else:
            kind = rng.integers(0, 3, dim)
            unif = rng.uniform(0.0, 1.0, dim)
            lam = np.where(kind == 0, 0.0, np.where(kind == 1, 1.0, unif))
        h = (x * lam) @ x.conj().T
        x = (h + h.conj().T) / 2.0
    a = (rng.standard_normal((dim, dim))
         + 1j * rng.standard_normal((dim, dim))) / np.sqrt(8.0 * dim)
    nrm = float(np.linalg.svd(a, compute_uv=False).max())
    if nrm > 1.0:
        a = a / nrm
    return x, a


class TestStackedGenerators:
    CASES = [("unitary", None), ("positive", "uniform"), ("positive", "atoms")]

    @pytest.mark.parametrize("role, mode", CASES)
    @pytest.mark.parametrize("dim", DIMS)
    def test_stacks_equal_one_matrix_calls(self, role, mode, dim):
        indices = list(range(3, 40, 3))
        x, a = matrix_lab._instances(role, dim, 11, indices,
                                     [mode] * len(indices))
        assert x.shape == a.shape == (len(indices), dim, dim)
        for j, i in enumerate(indices):
            want_x, want_a = one_matrix_instance(role, dim, 11, i, mode)
            pair = cb.instance_pair(role, dim, 11, i, mode)
            for got in (x[j], pair.x):
                assert same_bits(got, want_x)
            for got in (a[j], pair.a):
                assert same_bits(got, want_a)

    @pytest.mark.parametrize("mode", ["uniform", "atoms"])
    @pytest.mark.parametrize("dim", DIMS)
    def test_public_generators_equal_one_matrix_calls(self, mode, dim):
        x, a = one_matrix_instance("positive", dim, 4, 9, mode)
        u, _ = one_matrix_instance("unitary", dim, 4, 9, None)
        assert same_bits(cb.haar_unitary(dim, cb.stream(4, 9)), u)
        rng = cb.stream(4, 9)
        assert same_bits(cb.random_positive_contraction(dim, rng, mode), x)
        assert same_bits(cb.random_contraction(dim, rng), a)

    def test_sweep_blocks_equal_one_stack(self, monkeypatch):
        # dims 2 and 5 in stacks of 3 and 1 matrices, against one stack each
        want = cb.sample_sweep(np.sqrt, "positive", 13, [2, 5], 6, cap_curve())
        monkeypatch.setattr(matrix_lab, "_SWEEP_ENTRIES", 12)
        assert cb.sample_sweep(np.sqrt, "positive", 13, [2, 5], 6,
                               cap_curve()) == want


class TestProbeScores:
    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_scores_do_not_depend_on_the_batch(self, dim):
        rng = cb.stream(21, dim)
        shape = (12, dim, dim)
        H = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        A = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / dim
        A[3] = 0.0  # [H, A] = 0 takes the pair value alone
        H[5] = np.diag(np.linspace(0.0, 1.0, dim))
        A[5] = np.diag(np.ones(dim))
        for dt in (0.04, 0.25, 1.0):
            scores = matrix_lab._probe_scores(H, A, dt)
            for k in range(len(H)):
                one = matrix_lab._probe_scores(H[k:k + 1], A[k:k + 1], dt)
                assert scores[k] == one[0]

    def test_pair_values_match_loop_reference(self):
        def loop(w, dt):
            r = np.sqrt(w)
            best, bi, bj = 0.0, 0, 0
            for i in range(len(w)):
                for j in range(i + 1, len(w)):
                    gap = abs(w[i] - w[j])
                    num = abs(r[i] - r[j])
                    v = dt * num / gap if gap >= dt else num
                    if v > best:
                        best, bi, bj = v, i, j
            return best, bi, bj

        rng = cb.stream(8, 8)
        for n in (2, 3, 6):
            w = np.sort(rng.uniform(0.0, 1.0, (40, n)), axis=1)
            w[::4] = np.round(w[::4] * 4.0) / 4.0  # ties and exact 0 / 1
            for dt in (0.01, 0.25, 0.7):
                best, i, j = matrix_lab._pair_values(w, dt)
                for k in range(len(w)):
                    assert (best[k], i[k], j[k]) == loop(w[k], dt)

    def test_pair_value_of_diagonal_pinch(self):
        w = np.array([[0.0, 0.25], [0.3, 0.3]])
        best, i, j = matrix_lab._pair_values(w, 0.25)
        assert best[0] == 0.5 and (i[0], j[0]) == (0, 1)
        assert best[1] == 0.0 and (i[1], j[1]) == (0, 0)


class TestScoresAgainstFrozenCopy:
    """At dim 2 the score is the swap-pair value alone; the frozen copy
    also scores the random contraction, which can only add rounding."""

    DELTAS = (1e-3, 0.04, 0.25, 1.0)

    @staticmethod
    def stack(dim, rows, seed):
        rng = cb.stream(seed, dim)
        shape = (rows, dim, dim)
        H = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        A = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / dim
        eye = np.eye(dim)
        # flat clipped spectra, below 0, above 1 and inside [0, 1]
        H[0], H[1], H[2] = -0.5 * eye, 3.0 * eye, 0.3 * eye
        H[3] = np.diag(np.linspace(-2.0, -1.0, dim))
        H[4] = np.diag(np.linspace(1.5, 4.0, dim))
        # [H, A] = 0: A zero, or diagonal in H's eigenbasis
        A[5] = 0.0
        H[6] = np.diag(np.linspace(0.1, 0.9, dim))
        A[6] = np.diag(np.linspace(1.0, -1.0, dim))
        return H, A

    @pytest.mark.parametrize("dt", DELTAS)
    def test_dim_two_scores_are_the_pair_values(self, dt):
        H, A = self.stack(2, 4000, 31)
        scores = matrix_lab._probe_scores(H, A, dt)
        w, _ = matrix_lab._eigh_box(H)
        assert scores.tobytes() == matrix_lab._pair_values(w, dt)[0].tobytes()
        assert (scores[:5] == 0.0).all() and (scores[5:7] > 0.0).all()
        excess = frozen_probe._probe_scores(H, A, dt) - scores
        eps = np.finfo(float).eps
        assert excess.min() >= 0.0 and excess.max() <= 8 * eps
        assert (excess[:7] == 0.0).all()

    @pytest.mark.parametrize("dt", DELTAS)
    @pytest.mark.parametrize("dim", [3, 5])
    def test_larger_dims_keep_the_frozen_scores(self, dim, dt):
        H, A = self.stack(dim, 300, 32)
        scores = matrix_lab._probe_scores(H, A, dt)
        old = frozen_probe._probe_scores(H, A, dt)
        assert scores.tobytes() == old.tobytes()


def test_weighted_sums_close_the_tail_identity():
    N_max = 100000
    s = cb.sqrt_series(N_max)
    N = np.arange(N_max + 1)
    want = N * (1.0 - s.partial_sums)
    np.testing.assert_allclose(s.weighted_sums, want, rtol=1e-12, atol=0)

