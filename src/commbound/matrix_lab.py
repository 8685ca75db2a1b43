"""Desk-scale matrix oracle for the commutator bounds.

Matrices are plain complex numpy arrays, dimensions 2..64.  Everything a
validation run produces is reproducible from (seed, index) alone: each
record draws from its own counter-based stream, so a reported violation
can be replayed bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "DecompositionError",
    "InstancePair",
    "ProbeResult",
    "SampleRecord",
    "ViolationError",
    "block_offdiag",
    "block_pair",
    "commutator",
    "haar_unitary",
    "hermitian_calculus",
    "instance_pair",
    "lower_bound_instance",
    "op_norm",
    "probe_max_commutator",
    "random_contraction",
    "random_positive_contraction",
    "sample_sweep",
    "stream",
    "unitary_calculus",
]

_DIM_MIN = 2
_DIM_MAX = 64
_SQRT2 = math.sqrt(2.0)
# a sweep assembles each dimension's instances in stacks of at most this
# many matrix entries (4 MB of complex128): 4,096 matrices at dim 8, 64 at
# dim 64
_SWEEP_ENTRIES = 2 ** 18


class DecompositionError(RuntimeError):
    """Eigendecomposition failed to reproduce the input within tolerance."""


class ViolationError(RuntimeError):
    """A measured commutator norm exceeded its certified bound.

    Carries a replay payload: seed, index, dimension, spectrum mode, the
    offending matrices (entries as [re, im] pairs), and the numbers.
    """

    def __init__(self, message, payload):
        super().__init__(message)
        self.payload = payload


@dataclass
class SampleRecord:
    """One validation datum; margin = bound - measured when a bound applies."""

    seed: int
    dim: int
    delta: float
    measured: float
    bound: Optional[float] = None
    margin: Optional[float] = None


@dataclass
class InstancePair:
    """A tagged random instance (X, A) with its generation coordinates."""

    x: np.ndarray
    a: np.ndarray
    role: str  # "unitary" | "positive"
    seed: int
    index: int
    dim: int
    spectrum_mode: Optional[str] = None

    def validate(self):
        n = self.dim
        if self.role == "unitary":
            if op_norm(self.x.conj().T @ self.x - np.eye(n)) > 1e-10:
                raise ValueError("unitary role check failed")
        elif self.role == "positive":
            if op_norm(self.x - self.x.conj().T) > 1e-10:
                raise ValueError("positive role check failed: not Hermitian")
            w = np.linalg.eigvalsh(self.x)
            if w[0] < -1e-12 or w[-1] > 1.0 + 1e-12:
                raise ValueError("positive role check failed: spectrum")
        else:
            raise ValueError("unknown role %r" % self.role)
        if op_norm(self.a) > 1.0 + 1e-12:
            raise ValueError("A is not a contraction")


@dataclass
class ProbeResult:
    """Outcome of the hill-climb probe, with the matrices behind it."""

    record: SampleRecord
    gap: float
    iterations: int
    restarts: int
    h: np.ndarray
    a: np.ndarray


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


def _screened_norms(M, tol):
    """Operator norms of the matrices of the C-contiguous complex stack M
    that may exceed tol, 0.0 for the rest.  ||M||_2 <= ||M||_F, so a matrix
    whose Frobenius norm is at most tol/2 lies below tol with room to spare
    for rounding and skips the SVD; every norm above tol is the SVD's."""
    m = M.reshape(M.shape[:-2] + (-1,)).view(np.float64)
    # NaN sums go to the SVD too, which decides them as before
    big = ~(np.einsum("...i,...i->...", m, m) <= (tol / 2.0) ** 2)
    out = np.zeros(big.shape)
    if big.any():
        out[big] = _norms(M[big])
    return out


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


def _restart(rng, state, seed, index):
    """Put rng, a generator on a Philox bit generator, in the state that
    stream(seed, index) starts from: key set, counter 0, buffer empty.
    state is a Philox state dict with an empty buffer, as a new stream's
    bit_generator.state, reused: only its key and counter are rewritten."""
    key, counter = state["state"]["key"], state["state"]["counter"]
    key[0], key[1] = int(seed) % 2 ** 64, int(index) % 2 ** 64
    counter[:] = 0
    rng.bit_generator.state = state


def _as_rng(seed_or_rng):
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return stream(int(seed_or_rng), 0)


def _complex(re, im, scale):
    return (re + 1j * im) / scale


def _spectrum(rng, lam, kind, spectrum_mode):
    # draw one spectrum: for `atoms` first which entries are the atoms 0
    # and 1 (kind 0 and 1; kind 2, as left for `uniform`, is a uniform
    # draw), then in both modes the uniform draws, which random() writes
    # into lam as the same doubles as uniform(0, 1); _atoms sets the atoms
    if spectrum_mode == "atoms":
        kind[...] = rng.integers(0, 3, lam.shape[-1])
    elif spectrum_mode != "uniform":
        raise ValueError("spectrum_mode must be 'uniform' or 'atoms'")
    rng.random(out=lam)


def _atoms(lam, kind):
    # a stack of spectra with the atoms of kind set, once per stack
    return np.where(kind == 2, lam, kind)


def _haar(re, im):
    # QR of a stack of Gaussian matrices, the diagonal phases of R folded
    # into Q
    q, r = np.linalg.qr(_complex(re, im, _SQRT2))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    mag = np.abs(d)
    ph = np.where(mag > 0, d / np.where(mag > 0, mag, 1.0), 1.0)
    return q * ph[..., None, :]


def _positive(u, lam):
    h = _reassemble(u, lam)
    return (h + _adjoint(h)) / 2.0


def _rescale(a):
    """Scale each matrix of the stack a with norm above 1 to norm 1."""
    nrm = _norms(a)
    big = nrm > 1.0
    a[big] = a[big] / nrm[big, None, None]
    return a


def _contraction(re, im):
    return _rescale(_complex(re, im, math.sqrt(8.0 * re.shape[-1])))


def haar_unitary(n: int, seed) -> np.ndarray:
    """Haar-distributed unitary: QR of a Gaussian matrix with the
    triangular factor's diagonal phases folded into Q."""
    n = int(n)
    _check_dim(n)
    # the real, then the imaginary Gaussian part, as one stack each
    return _haar(*_as_rng(seed).standard_normal((2, 1, n, n)))[0]


def random_contraction(n: int, seed) -> np.ndarray:
    """Gaussian matrix scaled so the typical norm is near 1, then rescaled
    to a contraction only when the norm exceeds 1."""
    n = int(n)
    _check_dim(n)
    return _contraction(*_as_rng(seed).standard_normal((2, 1, n, n)))[0]


def random_positive_contraction(n: int, seed, spectrum_mode: str = "uniform") -> np.ndarray:
    """H = U diag(lam) U* with Haar U; spectrum_mode `uniform` draws
    eigenvalues i.i.d. uniform on [0,1], `atoms` mixes in exact 0 and 1
    eigenvalues to hit the boundary cases."""
    n = int(n)
    _check_dim(n)
    rng = _as_rng(seed)
    u = _haar(*rng.standard_normal((2, 1, n, n)))
    lam, kind = np.empty((1, n)), np.full((1, n), 2)
    _spectrum(rng, lam[0], kind[0], spectrum_mode)
    return _positive(u, _atoms(lam, kind))[0]


def _reassemble(q, lam):
    # q diag(lam) q*, one per stacked matrix
    return (q * lam[..., None, :]) @ _adjoint(q)


def _check_residual(M, q, lam, kind):
    worst = np.max(_screened_norms(M - _reassemble(q, lam), 1e-9))
    if worst > 1e-9:
        raise DecompositionError("%s diagonalization residual %.3e" % (kind, worst))


def unitary_calculus(f, V) -> np.ndarray:
    """f[V] for unitary V: eigendecompose, sample f on the stacked
    eigenvalue phases in [-pi, pi] in one call, reassemble; f sees pi and
    -pi as one point, as f.sample reduces both to -pi.  V may be a stack
    (..., n, n); every check applies to each matrix.

    V is normal, so it is diagonalized in two Hermitian steps: the real
    part fixes the basis up to clusters (tolerance 1e-8), and within each
    cluster the compressed imaginary part separates the eigenvalues.  The
    residual ||V - Q Lam Q*|| must stay below 1e-9.
    """
    V = np.ascontiguousarray(V, dtype=np.complex128)
    _check_square(V, stacked=True)
    n = V.shape[-1]
    if np.any(_screened_norms(_adjoint(V) @ V - np.eye(n), 1e-10) > 1e-10):
        raise ValueError("unitary input required")
    w, q = np.linalg.eigh((V + _adjoint(V)) / 2.0)
    ws = w.reshape(-1, n)
    qs = q.reshape(-1, n, n)
    h2s = ((V - _adjoint(V)) / 2.0j).reshape(-1, n, n)
    # chain clustering of sorted eigenvalues: split where the gap exceeds 1e-8
    for k in np.flatnonzero(np.any(np.diff(ws, axis=-1) <= 1e-8, axis=-1)):
        cuts = np.flatnonzero(np.diff(ws[k]) > 1e-8) + 1
        for s, e in zip(np.r_[0, cuts], np.r_[cuts, n]):
            if e - s > 1:
                qc = qs[k][:, s:e]
                c = qc.conj().T @ h2s[k] @ qc
                _, rot = np.linalg.eigh((c + c.conj().T) / 2.0)
                qs[k][:, s:e] = qc @ rot
    lam = np.diagonal(_adjoint(q) @ V @ q, axis1=-2, axis2=-1).copy()
    _check_residual(V, q, lam, "unitary")
    return _reassemble(q, f.sample(np.angle(lam)))


def hermitian_calculus(f, H) -> np.ndarray:
    """f(H) for Hermitian H with spectrum in [0, 1] (checked to 1e-10);
    eigenvalues are clipped to [0, 1] before applying the plain callable f,
    which must act elementwise.  H may be a stack (..., n, n); every check
    applies to each matrix."""
    H = np.ascontiguousarray(H, dtype=np.complex128)
    _check_square(H, stacked=True)
    if np.any(_screened_norms(H - _adjoint(H), 1e-10) > 1e-10):
        raise ValueError("Hermitian input required")
    w, q = np.linalg.eigh((H + _adjoint(H)) / 2.0)
    if np.any(w[..., 0] < -1e-10) or np.any(w[..., -1] > 1.0 + 1e-10):
        raise ValueError("spectrum outside [0, 1]")
    _check_residual(H, q, w, "Hermitian")
    # one flat call on every eigenvalue of the stack: f acts elementwise,
    # so a stacked result replays bit for bit through the unstacked one
    lam = np.clip(w, 0.0, 1.0)
    return _reassemble(q, np.asarray(f(lam.ravel())).reshape(lam.shape))


def block_offdiag(M1, M2) -> np.ndarray:
    """[[0, M1], [M2, 0]] in doubled dimension."""
    M1 = np.asarray(M1, dtype=np.complex128)
    M2 = np.asarray(M2, dtype=np.complex128)
    if M1.shape != M2.shape:
        raise ValueError("dimension mismatch")
    _check_square(M1)
    n = M1.shape[0]
    z = np.zeros((n, n), dtype=np.complex128)
    return np.block([[z, M1], [M2, z]])


def block_pair(V, V1):
    """(S, T) with S the off-diagonal identity swap and T = offdiag(V, V1);
    the identity ||[S, T]|| = ||V - V1|| is verified to 1e-10 on return."""
    V = np.asarray(V, dtype=np.complex128)
    V1 = np.asarray(V1, dtype=np.complex128)
    if V.shape != V1.shape:
        raise ValueError("dimension mismatch")
    _check_square(V)
    n = V.shape[0]
    eye = np.eye(n, dtype=np.complex128)
    s = block_offdiag(eye, eye)
    t = block_offdiag(V, V1)
    lhs = op_norm(commutator(s, t))
    rhs = op_norm(V - V1)
    if abs(lhs - rhs) > 1e-10:
        raise RuntimeError("block identity failed: %.3e vs %.3e" % (lhs, rhs))
    return s, t


def lower_bound_instance(f, x1: float, x2: float) -> SampleRecord:
    """The 2x2 witness V = diag(e^{i x1}, e^{i x2}), A = swap: delta is
    2 |sin((x1 - x2)/2)| and the measured norm is |f(x2) - f(x1)|; both
    are obtained from the actual matrices."""
    v = np.diag(np.exp(1j * np.array([float(x1), float(x2)])))
    a = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
    delta = op_norm(commutator(v, a))
    measured = op_norm(commutator(unitary_calculus(f, v), a))
    return SampleRecord(seed=0, dim=2, delta=delta, measured=measured)


def _instances(role, dim, seed, indices, modes):
    """Stacks (X, A) for the given indices of one dimension.  Each index's
    raw material (real, then imaginary Gaussian parts of X's matrix, the
    spectrum, the parts of A's) is drawn from its own stream, then every
    matrix is assembled at once."""
    if role not in ("unitary", "positive"):
        raise ValueError("role must be 'unitary' or 'positive'")
    _check_dim(dim)
    raw = np.empty((len(indices), 4, dim, dim))
    lam = np.empty((len(indices), dim))
    kind = np.full(lam.shape, 2)
    # one generator, built for the first index and restarted for the
    # others through one state dict
    rng = stream(seed, indices[0])
    state = rng.bit_generator.state
    for j, (i, mode) in enumerate(zip(indices, modes)):
        if j:
            _restart(rng, state, seed, i)
        rng.standard_normal(out=raw[j, :2])
        if role == "positive":
            _spectrum(rng, lam[j], kind[j], mode)
        rng.standard_normal(out=raw[j, 2:])
    x = _haar(raw[:, 0], raw[:, 1])
    if role == "positive":
        x = _positive(x, _atoms(lam, kind))
    return x, _contraction(raw[:, 2], raw[:, 3])


def instance_pair(role: str, dim: int, seed: int, index: int,
                  spectrum_mode: Optional[str] = None) -> InstancePair:
    """Deterministically regenerate the instance at (seed, index)."""
    x, a = _instances(role, dim, seed, [index], [spectrum_mode or "uniform"])
    return InstancePair(x=x[0], a=a[0], role=role, seed=seed, index=index,
                        dim=dim, spectrum_mode=spectrum_mode)


def _matrix_entries(M):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(M)]


def sample_sweep(f, role: str, count: int, dims, seed: int, curve,
                 spectrum_mode: str = "both"):
    """Random validation sweep: for each index, draw (X, A), measure
    delta = ||[X, A]|| and ||[f(X), A]||, and check the margin against the
    supplied curve.  A margin below -1e-8 raises ViolationError carrying
    a full replay payload for the smallest violating index.

    Dimensions cycle through `dims`; for the positive role the spectrum
    mode alternates uniform/atoms when `both` is requested.  f is a
    periodic function for the unitary role and a plain callable on [0, 1]
    for the positive role.  Instances are drawn per index from their own
    stream; the norms and the calculus then run once per dimension on the
    stacked matrices, and the curve is evaluated once on all deltas, which
    gives the same bits as measuring each index on its own.
    """
    count = int(count)
    if count < 1:
        raise ValueError("count must be at least 1")
    dims = [int(d) for d in dims]
    if not dims:
        raise ValueError("dims must be nonempty")
    for d in dims:
        _check_dim(d)
    modes = [None] * count
    if role == "positive":
        modes = [spectrum_mode if spectrum_mode != "both"
                 else ("uniform" if i % 2 == 0 else "atoms")
                 for i in range(count)]
    calculus = unitary_calculus if role == "unitary" else hermitian_calculus
    index_dims = np.array(dims)[np.arange(count) % len(dims)]
    deltas = np.empty(count)
    measured = np.empty(count)
    # a set, not np.unique, which would import numpy.ma
    for dim in sorted(set(index_dims.tolist())):
        idx = np.flatnonzero(index_dims == dim)
        # at most _SWEEP_ENTRIES matrix entries per stack
        step = max(1, _SWEEP_ENTRIES // (dim * dim))
        for s in range(0, idx.size, step):
            block = idx[s:s + step]
            x, a = _instances(role, dim, seed, block,
                              [modes[i] for i in block])
            deltas[block] = _norms(commutator(x, a))
            measured[block] = _norms(commutator(calculus(f, x), a))
    # fp guard: delta may poke past the curve domain by rounding only
    bounds = curve.evaluate(np.minimum(deltas, curve.delta_max))
    margins = bounds - measured
    bad = np.flatnonzero(margins < -1e-8)
    if bad.size:
        i = int(bad[0])
        dim = int(index_dims[i])
        meas, bound = float(measured[i]), float(bounds[i])
        pair = instance_pair(role, dim, seed, i, modes[i])
        payload = {
            "seed": int(seed),
            "index": i,
            "dim": dim,
            "role": role,
            "spectrum_mode": modes[i],
            "delta": float(deltas[i]),
            "measured": meas,
            "bound": bound,
            "margin": float(margins[i]),
            "x": _matrix_entries(pair.x),
            "a": _matrix_entries(pair.a),
        }
        raise ViolationError(
            "bound violated at seed=%d index=%d: measured %.12e > bound %.12e"
            % (seed, i, meas, bound), payload)
    return [SampleRecord(seed=seed, dim=dim, delta=delta, measured=meas,
                         bound=bound, margin=margin)
            for dim, delta, meas, bound, margin in zip(
                index_dims.tolist(), deltas.tolist(), measured.tolist(),
                bounds.tolist(), margins.tolist())]


def _eigh_box(H):
    # Hermitize and clip each spectrum of the stack to [0, 1]
    w, q = np.linalg.eigh((H + _adjoint(H)) / 2.0)
    return np.clip(w, 0.0, 1.0), q


def _bind_contraction(w, q, araw, delta_target):
    """A from a stack of raw material: rescale to a contraction, then
    shrink so the commutator constraint against H = q diag(w) q* binds
    when possible.  Returns (A, ok); ok is False where [H, A] = 0."""
    a = _rescale(araw.copy())
    dc = _norms(commutator(_reassemble(q, w), a))
    ok = dc != 0.0
    t = delta_target / np.where(ok, dc, 1.0)
    shrink = ok & (t <= 1.0)
    a[shrink] = t[shrink, None, None] * a[shrink]
    return a, ok


@functools.lru_cache(maxsize=None)
def _pairs(n):
    # the index pairs i < j of one dimension, built once; there are at
    # most 63 dimensions
    return np.triu_indices(n, 1)


def _pair_values(w, delta_target):
    """Closed-form value of the best eigenbasis swap A = s (q_i q_j* +
    q_j q_i*) per spectrum: with s binding the constraint it is
    min(1, dt/gap) * |sqrt(w_j) - sqrt(w_i)|.  Returns (value, i, j) for
    the first best pair, or (0, 0, 0) where no pair has a positive value."""
    r = np.sqrt(w)
    i, j = _pairs(w.shape[-1])
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
    spectrum.

    At dim 2 the swap pair alone is the score.  In H's eigenbasis a 2x2
    commutator is [f(W), B] = (f(w0) - f(w1)) [[0, B01], [-B10, 0]], of
    norm |f(w0) - f(w1)| m with m = max(|B01|, |B10|) <= ||B|| <= 1.  So
    the random contraction, shrunk until ||[H, A]|| <= dt, scores
    min(num m, num dt/gap) <= num min(1, dt/gap), the pair value (num =
    |sqrt(w0) - sqrt(w1)|, gap = |w0 - w1|): the maximum is the pair value
    in exact arithmetic, and the SVDs of the random candidate are skipped.
    They could only add rounding, a few ulps in about one evaluation in
    eight of a default climb.  At dims 3 and up only the random
    contraction can exceed sqrt(dt), so both are scored."""
    if hraw.shape[-1] == 2:
        # eigvalsh gives eigh's eigenvalues bit for bit at dim 2, not at
        # dims 3 to 8, and the pair needs no eigenvectors
        w = np.linalg.eigvalsh((hraw + _adjoint(hraw)) / 2.0)
        return _pair_values(np.clip(w, 0.0, 1.0), delta_target)[0]
    w, q = _eigh_box(hraw)
    pair = _pair_values(w, delta_target)[0]
    a, ok = _bind_contraction(w, q, araw, delta_target)
    rand = np.where(ok, _norms(commutator(_reassemble(q, np.sqrt(w)), a)), 0.0)
    return np.maximum(rand, pair)


def _materialize_best(hraw, araw, delta_target):
    """Turn one winning raw state into actual matrices (H, A).  The
    candidate A's are the rescaled random contraction, feasible even where
    [H, A] = 0, and the swap pair where its two eigenvalues differ; the
    first to measure highest wins."""
    w, q = _eigh_box(hraw[None])
    h = _positive(q, w)[0]
    root = _reassemble(q, np.sqrt(w))[0]
    a_rand, _ = _bind_contraction(w, q, araw[None], delta_target)
    cands = [a_rand[0]]
    _, bi, bj = _pair_values(w, delta_target)
    w, q, bi, bj = w[0], q[0], int(bi[0]), int(bj[0])
    gap = abs(w[bi] - w[bj])
    if gap > 0.0:
        s = min(1.0, delta_target / gap)
        qi, qj = q[:, bi], q[:, bj]
        cands.append(s * (np.outer(qi, qj.conj()) + np.outer(qj, qi.conj())))
    values = [op_norm(commutator(root, a)) for a in cands]
    return h, cands[int(np.argmax(values))]


def probe_max_commutator(delta_target: float, dim: int, iters: int, seed: int,
                         restarts: int = 64) -> ProbeResult:
    """Random-restart hill climb maximizing ||[sqrt(H), A]|| subject to
    ||[H, A]|| <= delta_target.

    The climb walks raw complex matrices; evaluation projects H's spectrum
    to [0, 1], rescales A to a contraction, and shrinks A until the
    commutator constraint binds.  Each candidate is scored as the better
    of that feasible instance and the best eigenbasis swap pair for its
    spectrum, so proposals that improve the spectral pair structure are
    accepted even before a good A is found.  At dim 2 the pair is never
    beaten in exact arithmetic, so the score is the pair value alone (see
    _probe_scores); A still takes its steps, and the random contraction is
    still a candidate when the winner is materialized.  Equal scores are
    accepted (plateau drift); the step size grows 1.5x on improvement up
    to 0.5 and halves after 10 rejected steps.

    The restarts advance in lockstep, scored as one stack, and restart r
    draws its proposals from stream (seed, r).  The first restart with the
    best score is materialized into actual matrices (H, A), and the
    reported value is ||[sqrt(H), A]|| measured on them through
    hermitian_calculus.

    The constraint holds up to rounding: A is shrunk and ||[H, A]|| is
    measured in floating point, so record.delta may exceed delta_target by
    a few ulps (up to 11 ulps of 0.25 over seeds 0-399 at dims 2 and 3
    with one step).  ROADMAP.md item 2 plans a stated tolerance tau for
    such measurements; until then the excess is not flagged.
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
    # real and imaginary Gaussian parts of each restart's start, then of
    # its proposal, for H (k = 0) and for A (k = 1): a start fills all
    # four in one standard_normal call, a step the slot which picks, H's
    # (0), A's (1) or both, which lie next to each other (2)
    draws = np.empty((restarts, 2, 2, dim, dim))
    for r, rng in enumerate(rngs):
        rng.standard_normal(out=draws[r])
    g = _complex(draws[:, :, 0], draws[:, :, 1], _SQRT2)
    hraw = g[:, 0] * _SQRT2
    araw = g[:, 1] / math.sqrt(dim)
    v = _probe_scores(hraw, araw, dt)
    sigma = np.full(restarts, 0.5)
    stall = np.zeros(restarts, dtype=np.int64)
    which = np.zeros(restarts, dtype=np.int64)
    slots = [(rng, (draws[r, 0], draws[r, 1], draws[r]))
             for r, rng in enumerate(rngs)]
    for _ in range(steps_per):
        for r, (rng, slot) in enumerate(slots):
            which[r] = k = rng.integers(3)
            rng.standard_normal(out=slot[k])
        g = _complex(draws[:, :, 0], draws[:, :, 1], _SQRT2)
        step = (sigma * _SQRT2)[:, None, None]
        hc = np.where((which != 1)[:, None, None], hraw + step * g[:, 0], hraw)
        ac = np.where((which != 0)[:, None, None], araw + step * g[:, 1], araw)
        vc = _probe_scores(hc, ac, dt)
        up = vc > v
        acc = vc >= v
        sigma = np.where(up, np.minimum(sigma * 1.5, 0.5), sigma)
        v = np.where(acc, vc, v)
        hraw = np.where(acc[:, None, None], hc, hraw)
        araw = np.where(acc[:, None, None], ac, araw)
        stall = np.where(up, 0, np.where(acc, stall, stall + 1))
        slow = ~acc & (stall >= 10)
        sigma = np.where(slow, np.maximum(sigma * 0.5, 1e-300), sigma)
        stall = np.where(slow, 0, stall)
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
