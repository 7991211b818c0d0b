"""Quantum states and channels in Kraus form.

States are plain PSD numpy arrays; ``Channel`` wraps a list of Kraus
operators with validation.  Random instances are generated from explicit
seeds so that every experiment is reproducible bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import (
    MAX_TENSOR_DIM,
    _checked,
    _eigh,
    _factor_split,
    _integers,
    dagger,
    eig_hermitian,
    tensor_product,
    trace_norm_hermitian,
)

DEFAULT_ATOL = 1e-10


# ---------------------------------------------------------------------------
# state validation and construction
# ---------------------------------------------------------------------------

def assert_positive(mat: np.ndarray) -> np.ndarray:
    """Check Hermiticity and positivity within ``DEFAULT_ATOL``; returns the
    array unchanged."""
    mat = np.asarray(mat, dtype=complex)
    dec = eig_hermitian(mat)
    lo = float(dec.eigenvalues[-1])
    if lo < -DEFAULT_ATOL * max(1.0, float(dec.eigenvalues[0])):
        raise ValueError(f"operator is not PSD: minimum eigenvalue {lo:.3e}")
    return mat


def pure_state(vec) -> np.ndarray:
    """Projector onto a normalized copy of the given state vector, which
    must be finite and nonzero."""
    v = np.asarray(vec, dtype=complex).reshape(-1)
    norm = np.linalg.norm(v)  # NaN when an entry is NaN, inf when one is infinite
    if not 0.0 < norm < np.inf:
        raise ValueError(f"state vector norm must be positive and finite, got {norm}")
    v = v / norm
    return np.outer(v, v.conj())


def ghz_state(n_qubits: int = 3) -> np.ndarray:
    """GHZ state density matrix on ``n_qubits`` qubits."""
    d = 2**n_qubits
    v = np.zeros(d, dtype=complex)
    v[0] = v[-1] = 1.0 / np.sqrt(2.0)
    return pure_state(v)


def maximally_mixed(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex) / dim


def random_density(
    dim: int,
    seed,
    ensemble: str = "hilbert-schmidt",
    rank: int | None = None,
) -> np.ndarray:
    """Random density matrix, deterministic for a fixed seed.

    ``ensemble="hilbert-schmidt"`` draws ``G G^dag / tr`` with ``G`` a square
    complex Gaussian matrix; ``ensemble="rank-k"`` uses a ``dim x rank``
    factor so the result has numerical rank exactly ``rank``.
    """
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    if ensemble == "hilbert-schmidt":
        k = dim
    elif ensemble == "rank-k":
        if rank is None:
            raise ValueError("rank-k ensemble needs the rank argument")
        if not 1 <= rank <= dim:
            raise ValueError(f"rank must lie in [1, {dim}], got {rank}")
        k = rank
    else:
        raise ValueError(f"unknown ensemble {ensemble!r}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, k)) + 1j * rng.standard_normal((dim, k))
    rho = g @ dagger(g)
    rho = 0.5 * (rho + dagger(rho))
    return rho / np.trace(rho).real


def _haar_isometry(rows: int, cols: int, seed) -> np.ndarray:
    """Haar-distributed ``rows x cols`` isometry (``rows >= cols``) via
    phase-fixed QR of a complex Gaussian."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_unitary(dim: int, seed) -> np.ndarray:
    """Haar-distributed unitary via phase-fixed QR of a complex Gaussian."""
    return _haar_isometry(dim, dim, seed)


# ---------------------------------------------------------------------------
# channels
# ---------------------------------------------------------------------------

# Stack members per pass of a Kraus sum: a longer stack is applied in runs of
# this length, so its temporaries do not grow with the stack.  A shorter one,
# and a single input, skip the split and its reshape and concatenate.
_RUN = 16


def _kraus_sum(ops: np.ndarray, x, name: str) -> np.ndarray:
    """``sum_k A_k x A_k^dag`` for a ``(k, a, b)`` operator stack and an
    input ``x`` or a ``(..., b, b)`` stack of inputs; a mismatched input is
    refused with the side's ``name``."""
    x = np.asarray(x, dtype=complex)
    _, rows, cols = ops.shape
    if x.shape[-2:] != (cols, cols):
        raise ValueError(f"input of shape {x.shape} does not match {name} {cols}")
    lead = x.shape[:-2]
    if math.prod(lead) > _RUN:
        flat = x.reshape((-1, cols, cols))
        runs = [_kraus_sum(ops, flat[start : start + _RUN], name)
                for start in range(0, len(flat), _RUN)]
        return np.concatenate(runs).reshape(lead + (rows, rows))
    # chunks of at most 2**14 operator entries bound the temporaries of each
    # input; neither their size nor the run length depends on the input, so a
    # stack member gets its own call's bits
    size = max(1, 2**14 // (rows * cols))
    shape = (-1,) + (1,) * (x.ndim - 2) + (rows, cols)
    blocks = (ops[start : start + size].reshape(shape) for start in range(0, len(ops), size))
    return sum((block @ x @ block.conj().swapaxes(-1, -2)).sum(axis=0) for block in blocks)


class Channel:
    """Completely positive map given by Kraus operators.

    ``kraus`` is a sequence of equally shaped operators or one
    ``(k, dim_out, dim_in)`` array.  ``mode="tp"`` enforces trace
    preservation (sum K^dag K = id) and ``mode="tni"`` only trace
    non-increase (sum K^dag K <= id), both within ``atol``, which must be
    finite and nonnegative.
    """

    def __init__(self, kraus, mode: str = "tp", atol: float = DEFAULT_ATOL):
        try:
            # a complex (k, m, n) array is kept as is, without a copy
            self.kraus = np.asarray(kraus, dtype=complex)
        except ValueError as exc:
            raise ValueError("all Kraus operators must share one 2-d shape") from exc
        if self.kraus.shape[:1] == (0,):
            raise ValueError("a channel needs at least one Kraus operator")
        if self.kraus.ndim != 3:
            raise ValueError("all Kraus operators must share one 2-d shape")
        if not np.all(np.isfinite(self.kraus)):
            raise ValueError("Kraus operators have non-finite entries")
        if mode not in ("tp", "tni"):
            raise ValueError(f"mode must be 'tp' or 'tni', got {mode!r}")
        # a NaN atol would pass every test below, since err > nan is never true
        if not (np.isfinite(atol) and atol >= 0.0):
            raise ValueError(f"atol must be finite and nonnegative, got {atol}")
        self.mode = mode
        _, self.dim_out, self.dim_in = self.kraus.shape

        flat = self.kraus.reshape(-1, self.dim_in)
        # sum K^dag K is PSD: its extreme eigenvalues give both tests
        vals = np.linalg.eigvalsh(dagger(flat) @ flat)
        lo, top = float(vals[0]), float(vals[-1])
        if mode == "tp":
            err = max(top - 1.0, 1.0 - lo)
            if err > atol:
                raise ValueError(
                    f"Kraus completeness violated: ||sum K^dag K - id|| = {err:.3e}"
                )
        elif top > 1.0 + atol:
            raise ValueError(
                f"trace non-increasing violated: max eig of sum K^dag K = {top}"
            )
        elif top <= atol:
            raise ValueError("sum K^dag K vanishes; not a channel")

    @property
    def num_kraus(self) -> int:
        return self.kraus.shape[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Channel action ``sum_k K x K^dag``.

        ``x`` may also be a stack ``(..., dim_in, dim_in)`` of inputs; the
        map acts on each.
        """
        return _kraus_sum(self.kraus, x, "dim_in")

    def adjoint_apply(self, y: np.ndarray) -> np.ndarray:
        """Adjoint map ``sum_k K^dag y K`` (unital when ``mode='tp'``).

        ``y`` may also be a stack ``(..., dim_out, dim_out)`` of inputs.
        """
        return _kraus_sum(self.kraus.conj().swapaxes(1, 2), y, "dim_out")

    def stinespring_isometry(self) -> np.ndarray:
        """Isometric extension ``U = sum_k K_k (x) |k>_E``.

        Returns a ``(dim_out * env) x dim_in`` matrix with ``env`` equal to
        the number of Kraus operators; output ordering is big-endian
        (system first, environment second).
        """
        return self.kraus.transpose(1, 0, 2).copy().reshape(-1, self.dim_in)

    def choi(self) -> np.ndarray:
        """Choi matrix ``sum_ij E_ij (x) N(E_ij)`` (input factor first)."""
        vecs = self.kraus.transpose(0, 2, 1).reshape(self.num_kraus, -1)
        return np.einsum("ki,kj->ij", vecs, vecs.conj())

    def tensor(self, other: "Channel") -> "Channel":
        """Parallel composition ``self (x) other``."""
        ops = [
            tensor_product(a, b)
            for a in self.kraus
            for b in other.kraus
        ]
        mode = "tp" if self.mode == other.mode == "tp" else "tni"
        return Channel(ops, mode=mode)


def identity_channel(dim: int) -> Channel:
    return Channel([np.eye(dim, dtype=complex)])


def unitary_channel(u: np.ndarray) -> Channel:
    return Channel([np.asarray(u, dtype=complex)])


def _weyl_unitaries(dim: int):
    """Clock-and-shift unitary basis W_jk = X^j Z^k of dimension ``dim``."""
    omega = np.exp(2j * np.pi / dim)
    shift = np.zeros((dim, dim), dtype=complex)
    for m in range(dim):
        shift[(m + 1) % dim, m] = 1.0
    clock = np.diag(omega ** np.arange(dim))
    out = []
    xj = np.eye(dim, dtype=complex)
    for _ in range(dim):
        zk = np.eye(dim, dtype=complex)
        for _ in range(dim):
            out.append(xj @ zk)
            zk = zk @ clock
        xj = xj @ shift
    return out


def depolarizing_channel(dim: int, lam: float) -> Channel:
    """``rho -> (1 - lam) rho + lam * tr(rho) id/dim``."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"depolarizing strength must lie in [0, 1], got {lam}")
    weyl = _weyl_unitaries(dim)
    ops = [np.sqrt(1.0 - lam + lam / dim**2) * np.eye(dim, dtype=complex)]
    ops += [np.sqrt(lam) / dim * w for w in weyl[1:]]
    return Channel(ops)


def dephasing_channel(dim: int, lam: float) -> Channel:
    """``rho -> (1 - lam) rho + lam * diag(rho)``."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"dephasing strength must lie in [0, 1], got {lam}")
    ops = [np.sqrt(1.0 - lam) * np.eye(dim, dtype=complex)]
    for i in range(dim):
        e = np.zeros((dim, dim), dtype=complex)
        e[i, i] = np.sqrt(lam)
        ops.append(e)
    return Channel(ops)


def bit_flip_channel(p: float) -> Channel:
    """Qubit channel applying Pauli X with probability ``p``."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"flip probability must lie in [0, 1], got {p}")
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    return Channel([np.sqrt(1.0 - p) * np.eye(2, dtype=complex), np.sqrt(p) * x])


def partial_trace_channel(dims, keep) -> Channel:
    """Channel tracing out every tensor factor not listed in ``keep``; both
    must hold integers, split as ``linalg._factor_split`` does."""
    dims, keep, traced = _factor_split(dims, keep)
    total = math.prod(dims)
    if total > MAX_TENSOR_DIM:
        raise ValueError(f"dimension {total} exceeds the configured maximum {MAX_TENSOR_DIM}")
    # Kraus operator j: the rows of id whose traced digits are j
    eye = np.eye(total, dtype=complex).reshape(dims + [total])
    return Channel(eye.transpose(traced + keep + [len(dims)])
                   .reshape(math.prod(dims[i] for i in traced), -1, total))


def three_qubit_bit_flip_code() -> np.ndarray:
    """Projector onto the span of ``|000>`` and ``|111>``."""
    pi = np.zeros((8, 8), dtype=complex)
    pi[0, 0] = 1.0
    pi[7, 7] = 1.0
    return pi


def single_bit_flip_channel(p: float) -> Channel:
    """Three-qubit channel flipping at most one qubit, each with weight ``p``."""
    if not 0.0 <= p <= 1.0 / 3.0:
        raise ValueError(f"flip probability must lie in [0, 1/3], got {p}")
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    eye = np.eye(2, dtype=complex)
    ops = [np.sqrt(1.0 - 3.0 * p) * np.eye(8, dtype=complex)]
    for site in range(3):
        factors = [x if i == site else eye for i in range(3)]
        ops.append(np.sqrt(p) * tensor_product(*factors))
    return Channel(ops)


def random_channel(dim_in: int, dim_out: int, env_dim: int, seed) -> Channel:
    """Random trace-preserving channel from a Haar-style isometry.

    Needs ``dim_out * env_dim >= dim_in`` so that an isometry exists; the
    Kraus operators are the environment blocks of the isometry.
    """
    if dim_out * env_dim < dim_in:
        raise ValueError(
            f"no isometry with dim_out * env_dim = {dim_out * env_dim} < "
            f"dim_in = {dim_in}"
        )
    blocks = _haar_isometry(dim_out * env_dim, dim_in, seed).reshape(dim_out, env_dim, dim_in)
    return Channel([blocks[:, k, :] for k in range(env_dim)])


def choi_distance(a: Channel, b: Channel) -> float:
    """Trace distance between the normalized Choi states of two channels."""
    if (a.dim_in, a.dim_out) != (b.dim_in, b.dim_out):
        raise ValueError("channels act between different spaces")
    diff = (a.choi() - b.choi()) / a.dim_in
    return 0.5 * trace_norm_hermitian(diff)


def channels_close(a: Channel, b: Channel, tol: float = 1e-9) -> bool:
    """Representation-independent channel equality via Choi trace distance."""
    return choi_distance(a, b) <= tol


# ---------------------------------------------------------------------------
# truncation
# ---------------------------------------------------------------------------

def truncate_project(rho: np.ndarray, k: int, reference: np.ndarray | None = None) -> np.ndarray:
    """Compress ``rho`` onto the ``k`` leading eigenvectors of ``reference``.

    The default reference is ``rho`` itself, which retains the most mass;
    any PSD operator of the same dimension may be supplied instead (a
    convergence study should use one common reference for all operators
    it compresses).  The result is subnormalized in general.
    """
    rho = _checked(rho)
    dim = rho.shape[0]
    (k,) = _integers([k], "k")
    if not 1 <= k <= dim:
        raise ValueError(f"k must lie in [1, {dim}], got {k}")
    ref = rho if reference is None else _checked(reference)
    cols = _eigh(ref)[1][:, :k]
    pi = cols @ dagger(cols)
    return pi @ rho @ pi


__all__ = [
    "Channel",
    "assert_positive",
    "bit_flip_channel",
    "channels_close",
    "choi_distance",
    "dephasing_channel",
    "depolarizing_channel",
    "ghz_state",
    "identity_channel",
    "maximally_mixed",
    "partial_trace_channel",
    "pure_state",
    "random_channel",
    "random_density",
    "random_unitary",
    "single_bit_flip_channel",
    "three_qubit_bit_flip_code",
    "truncate_project",
    "unitary_channel",
]
