"""A frozen copy of the probe as it was before its draws went through one
generator call per proposal: probe_max_commutator and every helper it runs,
including the calculus checks it passes through.  Tests compare the current
probe with it bit for bit; do not edit it to follow changes in matrix_lab.
"""

import math

import numpy as np

from commbound.matrix_lab import DecompositionError, ProbeResult, SampleRecord

_DIM_MIN = 2
_DIM_MAX = 64
_SQRT2 = math.sqrt(2.0)


def _check_square(M, stacked=False):
    if M.ndim < 2 or (M.ndim > 2 and not stacked) or M.shape[-1] != M.shape[-2]:
        raise ValueError("square matrix required")


def _check_dim(n):
    if not _DIM_MIN <= n <= _DIM_MAX:
        raise ValueError("dimension must lie in [%d, %d]" % (_DIM_MIN, _DIM_MAX))


def _adjoint(M):
    return M.conj().swapaxes(-1, -2)


def _norms(M):
    return np.linalg.svd(np.asarray(M, dtype=np.complex128), compute_uv=False).max(-1)


def op_norm(M):
    """Largest singular value; a stack (..., n, n) gives an array of them."""
    s = _norms(M)
    return float(s) if s.ndim == 0 else s


def commutator(M1, M2) -> np.ndarray:
    M1 = np.asarray(M1, dtype=np.complex128)
    M2 = np.asarray(M2, dtype=np.complex128)
    _check_square(M1, stacked=True)
    if M1.shape != M2.shape:
        raise ValueError("dimension mismatch")
    return M1 @ M2 - M2 @ M1


def _stream_key(seed, index):
    return np.array([int(seed) % 2 ** 64, int(index) % 2 ** 64], dtype=np.uint64)


def stream(seed: int, index: int) -> np.random.Generator:
    """Independent generator for record (seed, index)."""
    return np.random.Generator(np.random.Philox(key=_stream_key(seed, index)))


def _complex(re, im, scale):
    return (re + 1j * im) / scale


def _ginibre(rng, n):
    return _complex(rng.standard_normal((n, n)), rng.standard_normal((n, n)),
                    _SQRT2)


def _reassemble(q, lam):
    # q diag(lam) q*, one per stacked matrix
    return (q * lam[..., None, :]) @ _adjoint(q)


def _check_residual(M, q, lam, kind):
    worst = np.max(_norms(M - _reassemble(q, lam)))
    if worst > 1e-9:
        raise DecompositionError("%s diagonalization residual %.3e" % (kind, worst))


def _per_spectrum(f, lam):
    # one flat call on every eigenvalue of the stack: f acts elementwise,
    # so a stacked result replays bit for bit through the unstacked one
    return np.asarray(f(lam.ravel()), dtype=np.complex128).reshape(lam.shape)


def hermitian_calculus(f, H) -> np.ndarray:
    """f(H) for Hermitian H with spectrum in [0, 1] (checked to 1e-10);
    eigenvalues are clipped to [0, 1] before applying the plain callable f,
    which must act elementwise.  H may be a stack (..., n, n); every check
    applies to each matrix."""
    H = np.ascontiguousarray(H, dtype=np.complex128)
    _check_square(H, stacked=True)
    if np.any(_norms(H - _adjoint(H)) > 1e-10):
        raise ValueError("Hermitian input required")
    w, q = np.linalg.eigh((H + _adjoint(H)) / 2.0)
    if np.any(w[..., 0] < -1e-10) or np.any(w[..., -1] > 1.0 + 1e-10):
        raise ValueError("spectrum outside [0, 1]")
    _check_residual(H, q, w, "Hermitian")
    return _reassemble(q, _per_spectrum(f, np.clip(w, 0.0, 1.0)))


def _eigh_box(H):
    # Hermitize and clip each spectrum of the stack to [0, 1]
    w, q = np.linalg.eigh((H + _adjoint(H)) / 2.0)
    return np.clip(w, 0.0, 1.0), q


def _bind_contraction(w, q, araw, delta_target):
    """A from a stack of raw material: rescale to a contraction, then
    shrink so the commutator constraint against H = q diag(w) q* binds
    when possible.  Returns (A, ok); ok is False where [H, A] = 0."""
    a = araw.copy()
    nrm = _norms(a)
    big = nrm > 1.0
    a[big] = a[big] / nrm[big, None, None]
    dc = _norms(commutator(_reassemble(q, w), a))
    ok = dc != 0.0
    t = delta_target / np.where(ok, dc, 1.0)
    shrink = ok & (t <= 1.0)
    a[shrink] = t[shrink, None, None] * a[shrink]
    return a, ok


def _pair_values(w, delta_target):
    """Closed-form value of the best eigenbasis swap A = s (q_i q_j* +
    q_j q_i*) per spectrum: with s binding the constraint it is
    min(1, dt/gap) * |sqrt(w_j) - sqrt(w_i)|.  Returns (value, i, j) for
    the first best pair, or (0, 0, 0) where no pair has a positive value."""
    r = np.sqrt(w)
    i, j = np.triu_indices(w.shape[-1], 1)
    gap = np.abs(w[:, i] - w[:, j])
    num = np.abs(r[:, i] - r[:, j])
    with np.errstate(divide="ignore", invalid="ignore"):
        v = np.where(gap >= delta_target, delta_target * num / gap, num)
    k = np.argmax(v, axis=1)
    best = v[np.arange(len(k)), k]
    hit = best > 0.0
    return best, np.where(hit, i[k], 0), np.where(hit, j[k], 0)


def _probe_scores(hraw, araw, delta_target):
    """Composite objective of a stack of raw states: the better of the
    feasible random instance and the best swap pair for the candidate
    spectrum."""
    w, q = _eigh_box(hraw)
    a, ok = _bind_contraction(w, q, araw, delta_target)
    rand = np.where(ok, _norms(commutator(_reassemble(q, np.sqrt(w)), a)), 0.0)
    return np.maximum(rand, _pair_values(w, delta_target)[0])


def _materialize_best(hraw, araw, delta_target):
    """Turn one winning raw state into actual matrices (H, A), picking
    whichever of the two candidate A's measures higher."""
    w, q = _eigh_box(hraw[None])
    h = _reassemble(q, w)[0]
    h = (h + h.conj().T) / 2.0
    root = _reassemble(q, np.sqrt(w))[0]
    cands = []
    a_rand, ok = _bind_contraction(w, q, araw[None], delta_target)
    if ok[0]:
        cands.append(a_rand[0])
    _, bi, bj = _pair_values(w, delta_target)
    w, q, bi, bj = w[0], q[0], int(bi[0]), int(bj[0])
    gap = abs(w[bi] - w[bj])
    if gap > 0.0:
        s = min(1.0, delta_target / gap)
        qi = q[:, bi]
        qj = q[:, bj]
        cands.append(s * (np.outer(qi, qj.conj()) + np.outer(qj, qi.conj())))
    best = None
    best_v = -1.0
    for a in cands:
        v = op_norm(commutator(root, a))
        if v > best_v:
            best_v = v
            best = a
    return h, best


def probe_max_commutator(delta_target: float, dim: int, iters: int, seed: int,
                         restarts: int = 64, sigma0: float = 0.5,
                         stall_limit: int = 10) -> ProbeResult:
    """Random-restart hill climb maximizing ||[sqrt(H), A]|| subject to
    ||[H, A]|| <= delta_target.

    The climb walks raw complex matrices; evaluation projects H's spectrum
    to [0, 1], rescales A to a contraction, and shrinks A until the
    commutator constraint binds.  Each candidate is scored as the better
    of that feasible instance and the best eigenbasis swap pair for its
    spectrum, so proposals that improve the spectral pair structure are
    accepted even before a good A is found.  Equal scores are accepted
    (plateau drift); the step size grows 1.5x on improvement up to sigma0
    and halves after `stall_limit` rejected steps.

    The restarts advance in lockstep, scored as one stack, and restart r
    draws its proposals from stream (seed, r).  The first restart with the
    best score is materialized into actual matrices (H, A), and the
    reported value is ||[sqrt(H), A]|| measured on them through
    hermitian_calculus.
    """
    dt = float(delta_target)
    if not 0.0 < dt <= 1.0:
        raise ValueError("delta_target must lie in (0, 1]")
    dim = int(dim)
    _check_dim(dim)
    iters = int(iters)
    restarts = int(restarts)
    if iters < 1 or restarts < 1:
        raise ValueError("iters and restarts must be positive")
    steps_per = max(1, iters // restarts)
    rngs = [stream(seed, r) for r in range(restarts)]
    shape = (restarts, dim, dim)
    hraw = np.empty(shape, dtype=np.complex128)
    araw = np.empty(shape, dtype=np.complex128)
    for r, rng in enumerate(rngs):
        hraw[r] = _ginibre(rng, dim) * _SQRT2
        araw[r] = _ginibre(rng, dim) / math.sqrt(dim)
    v = _probe_scores(hraw, araw, dt)
    sigma = np.full(restarts, float(sigma0))
    stall = np.zeros(restarts, dtype=np.int64)
    which = np.zeros(restarts, dtype=np.int64)
    # real and imaginary Gaussian parts of each restart's proposal for H
    # (k = 0, unless which is 1) and for A (k = 1, unless which is 0), drawn
    # in the order _ginibre draws them
    draws = np.zeros((restarts, 2, 2, dim, dim))
    for _ in range(steps_per):
        for r, rng in enumerate(rngs):
            which[r] = rng.integers(0, 3)
            for k in (0, 1):
                if which[r] != 1 - k:
                    rng.standard_normal(out=draws[r, k, 0])
                    rng.standard_normal(out=draws[r, k, 1])
        g = _complex(draws[:, :, 0], draws[:, :, 1], _SQRT2)
        step = (sigma * _SQRT2)[:, None, None]
        hc = np.where((which != 1)[:, None, None], hraw + step * g[:, 0], hraw)
        ac = np.where((which != 0)[:, None, None], araw + step * g[:, 1], araw)
        vc = _probe_scores(hc, ac, dt)
        up = vc > v
        acc = vc >= v
        stall[up] = 0
        sigma[up] = np.minimum(sigma[up] * 1.5, sigma0)
        v = np.where(acc, vc, v)
        hraw = np.where(acc[:, None, None], hc, hraw)
        araw = np.where(acc[:, None, None], ac, araw)
        stall[~acc] += 1
        slow = ~acc & (stall >= stall_limit)
        sigma[slow] = np.maximum(sigma[slow] * 0.5, 1e-300)
        stall[slow] = 0
    best = int(np.argmax(v))
    h, a = _materialize_best(hraw[best], araw[best], dt)
    delta = op_norm(commutator(h, a))
    measured = op_norm(commutator(hermitian_calculus(np.sqrt, h), a))
    bound = math.sqrt(dt)
    record = SampleRecord(seed=int(seed), dim=dim, delta=delta,
                          measured=measured, bound=bound,
                          margin=bound - measured)
    return ProbeResult(record=record, gap=bound - measured,
                       iterations=steps_per * restarts, restarts=restarts,
                       h=h, a=a)
