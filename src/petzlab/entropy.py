"""Scalar information quantities.

All entropies are returned in nats (natural logarithm); ``nats_to_bits``
converts for display.  Support violations yield ``float('inf')`` rather
than an exception, and no function here returns NaN.
"""

from __future__ import annotations

import numpy as np

from .channels import Channel
from .linalg import (
    SUPPORT_TOL,
    _checked,
    _on_support,
    _power,
    _psd_eigensystem,
    dagger,
    eig_hermitian,
    partial_trace,
    schatten_norm,
    trace_norm_hermitian,
)

LN2 = float(np.log(2.0))
# Absolute slack of a POVM's effect eigenvalues and of its sum's distance to id.
POVM_TOL = 1e-10


def nats_to_bits(x: float) -> float:
    return x / LN2


def bits_to_nats(x: float) -> float:
    return x * LN2


def _von_neumann(rho) -> float:
    """Entropy of a checked or built state from its eigenvalues above the
    rank cutoff, under the PSD rule of ``_psd_eigensystem``."""
    vals = _psd_eigensystem(rho)[0]
    lam = vals[vals > 0.0]
    if lam.size == 0:
        return 0.0
    return float(-np.sum(lam * np.log(lam)))


def von_neumann_entropy(rho: np.ndarray) -> float:
    """``-tr(rho log rho)`` in nats, computed on the support."""
    return _von_neumann(_checked(rho))


def _outside_mass(rho: np.ndarray, support: np.ndarray) -> float:
    """Relative mass of ``rho`` outside the span of the orthonormal columns
    ``support``."""
    pi_perp = np.eye(rho.shape[0]) - support @ dagger(support)
    tr = float(np.trace(rho).real)
    if tr <= 0.0:
        return 0.0
    return max(0.0, float(np.trace(pi_perp @ rho).real) / tr)


def support_violation(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Relative mass of ``rho`` outside the support of ``sigma``."""
    vals, vecs = _psd_eigensystem(_checked(sigma))
    return _outside_mass(np.asarray(rho, dtype=complex), vecs[:, vals > 0.0])


def _relative_entropy(rho, sigma) -> float:
    """``relative_entropy`` of complex arrays the caller checked or built."""
    mu, vecs = _psd_eigensystem(sigma)
    if _outside_mass(rho, vecs[:, mu > 0.0]) > SUPPORT_TOL:
        return float(np.inf)
    log_sigma = _on_support(mu, vecs, np.log)
    # tr(rho log rho) = -S(rho)
    return -_von_neumann(rho) - float(np.trace(rho @ log_sigma).real)


def relative_entropy(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Quantum relative entropy ``tr(rho (log rho - log sigma))`` in nats.

    Returns ``inf`` when more than ``SUPPORT_TOL`` of the mass of ``rho``
    (relative to its trace) lies outside the support of ``sigma``; both
    logarithms are taken on the respective supports.  Inputs need not be
    normalized.
    """
    return _relative_entropy(_checked(rho), _checked(sigma))


def _root_fidelities(rho: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """Root fidelities ``|| sqrt(rho) sqrt(x) ||_1`` for every ``x`` of a
    ``(T, d, d)`` stack.

    ``sqrt(rho)`` is taken once; the stack goes through one batched ``eigh``
    and one batched singular-value call, each member held to the rank
    cutoff, clamp and PSD rule of ``_psd_eigensystem``.  No hermiticity
    residual is computed: callers pass matrices they have checked or built.
    """
    root = _on_support(*_psd_eigensystem(rho), np.sqrt)
    roots = _on_support(*_psd_eigensystem(stack), np.sqrt)
    return np.linalg.svd(root @ roots, compute_uv=False).sum(axis=-1)


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Root fidelity ``|| sqrt(rho) sqrt(sigma) ||_1`` of two PSD operators."""
    return float(_root_fidelities(_checked(rho), _checked(sigma)[None])[0])


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Half the trace norm of the difference."""
    diff = np.asarray(rho, dtype=complex) - np.asarray(sigma, dtype=complex)
    return 0.5 * trace_norm_hermitian(0.5 * (diff + dagger(diff)))


def conditional_mutual_information(rho_abc: np.ndarray, dims) -> float:
    """``I(A:C|B) = H(AB) + H(BC) - H(ABC) - H(B)`` in nats."""
    da, db, dc = (int(d) for d in dims)
    rho_abc = np.asarray(rho_abc, dtype=complex)
    if rho_abc.shape[0] != da * db * dc:
        raise ValueError(
            f"dims {dims} do not match state dimension {rho_abc.shape[0]}"
        )
    h_abc = _von_neumann(_checked(rho_abc))
    h_ab, h_bc, h_b = (
        _von_neumann(partial_trace(rho_abc, (da, db, dc), keep=keep))
        for keep in ((0, 1), (1, 2), (1,))
    )
    return h_ab + h_bc - h_abc - h_b


def binary_entropy(p: float) -> float:
    """``h2(p)`` in nats with ``h2(0) = h2(1) = 0``."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"binary entropy needs p in [0, 1], got {p}")
    out = 0.0
    if 0.0 < p < 1.0:
        out = float(-p * np.log(p) - (1.0 - p) * np.log(1.0 - p))
    return out


def fannes_audenaert_bound(eps: float, d: int) -> float:
    """Entropy-continuity bound ``eps * log d + h2(eps)`` in nats."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps must lie in [0, 1], got {eps}")
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    return eps * float(np.log(d)) + binary_entropy(eps)


# ---------------------------------------------------------------------------
# measured relative entropy
# ---------------------------------------------------------------------------

def validate_povm(effects, dim: int):
    """Check that the effects are PSD and sum to the identity, within ``POVM_TOL``."""
    effects = [np.asarray(m, dtype=complex) for m in effects]
    total = np.zeros((dim, dim), dtype=complex)
    for m in effects:
        if m.shape != (dim, dim):
            raise ValueError(f"effect of shape {m.shape} does not match dim {dim}")
        lo = float(np.min(np.linalg.eigvalsh(0.5 * (m + dagger(m)))))
        if lo < -POVM_TOL:
            raise ValueError(f"POVM effect has negative eigenvalue {lo:.3e}")
        total += m
    if np.linalg.norm(total - np.eye(dim), 2) > POVM_TOL:
        raise ValueError("POVM effects do not sum to the identity")
    return effects


def measurement_distribution(rho: np.ndarray, effects) -> np.ndarray:
    """Outcome probabilities ``tr(rho M_x)``, clipped at zero."""
    p = np.array([float(np.trace(rho @ m).real) for m in effects])
    return np.clip(p, 0.0, None)


def _measured_lb(rho, omega, effects) -> float:
    """``measured_relative_entropy_lb`` for effects known to form a POVM."""
    p = measurement_distribution(rho, effects)
    q = measurement_distribution(omega, effects)
    if np.any((p > SUPPORT_TOL) & (q < 1e-300)):
        return float(np.inf)
    mask = p > 0.0
    return float(np.sum(p[mask] * (np.log(p[mask]) - np.log(q[mask]))))


def measured_relative_entropy_lb(rho: np.ndarray, omega: np.ndarray, effects) -> float:
    """Classical relative entropy of the outcome distributions of one POVM.

    Any single POVM gives a certified lower bound on the measured relative
    entropy; by data processing it also never exceeds the quantum relative
    entropy.  Returns ``inf`` on a classical support violation.
    """
    return _measured_lb(rho, omega, validate_povm(effects, np.asarray(rho).shape[0]))


def _fidelity_measurement(rho, omega):
    """``fidelity_measurement`` of complex arrays the caller checked or built."""
    vals, vecs = _psd_eigensystem(omega)
    root = _power(vals, vecs, 0.5)
    inv_root = _power(vals, vecs, -0.5)
    middle = _power(*_psd_eigensystem(root @ rho @ root), 0.5)
    geometric = inv_root @ middle @ inv_root
    # Hermitian by construction; rounding noise from the triple product can
    # be large for badly conditioned omega, so symmetrize before decomposing.
    geometric = 0.5 * (geometric + dagger(geometric))
    dec = eig_hermitian(geometric, herm_tol=np.inf)
    vecs = dec.eigenvectors
    return [np.outer(vecs[:, j], vecs[:, j].conj()) for j in range(vecs.shape[1])]


def fidelity_measurement(rho: np.ndarray, omega: np.ndarray):
    """Projective measurement whose outcome statistics achieve the fidelity.

    The effects are the eigenprojectors of the geometric operator
    ``omega^{-1/2} (omega^{1/2} rho omega^{1/2})^{1/2} omega^{-1/2}``
    (pseudo-inverses on the support, the basis completed arbitrarily on the
    kernel).  For states with ``supp(rho)`` inside ``supp(omega)`` the
    classical fidelity of the two outcome distributions equals the quantum
    fidelity of the pair.
    """
    return _fidelity_measurement(_checked(rho), _checked(omega))


# ---------------------------------------------------------------------------
# Renyi difference
# ---------------------------------------------------------------------------

def _renyi_delta(rho, sigma, channel: Channel, alpha: float) -> float:
    """``renyi_delta`` of complex arrays the caller checked or built."""
    if alpha == 1.0:
        raise ValueError("alpha = 1 is excluded; use the entropy difference")
    if alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    s_vals, s_vecs = _psd_eigensystem(sigma)
    if _outside_mass(rho, s_vecs[:, s_vals > 0.0]) > SUPPORT_TOL:
        return float(np.inf)

    p = (1.0 - alpha) / (2.0 * alpha)
    n_rho_p = _power(*_psd_eigensystem(channel.apply(rho)), p)
    n_sigma_p = _power(*_psd_eigensystem(channel.apply(sigma)), -p)
    u = channel.stinespring_isometry()
    block = np.kron(n_rho_p @ n_sigma_p, np.eye(channel.num_kraus))
    sigma_p = _power(s_vals, s_vecs, p)
    root_rho = _power(*_psd_eigensystem(rho), 0.5)
    mat = block @ u @ sigma_p @ root_rho
    norm = schatten_norm(mat, 2.0 * alpha)
    coeff = 2.0 * alpha / (alpha - 1.0)
    if norm <= 0.0:
        return float(np.inf) if coeff < 0 else float(-np.inf)
    return coeff * float(np.log(norm))


def renyi_delta(rho: np.ndarray, sigma: np.ndarray, channel: Channel, alpha: float) -> float:
    """Renyi-type generalization of the relative entropy difference.

    Evaluates ``(2a/(a-1)) log || (N(rho)^{(1-a)/2a} N(sigma)^{(a-1)/2a}
    (x) id_E) U sigma^{(1-a)/2a} rho^{1/2} ||_{2a}`` in nats, with ``U`` an
    isometric extension of the channel and every fractional power taken on
    the support.  As ``alpha -> 1`` this approaches
    ``D(rho||sigma) - D(N(rho)||N(sigma))``.
    """
    return _renyi_delta(_checked(rho), _checked(sigma), channel, alpha)


__all__ = [
    "binary_entropy",
    "bits_to_nats",
    "conditional_mutual_information",
    "fannes_audenaert_bound",
    "fidelity",
    "fidelity_measurement",
    "measured_relative_entropy_lb",
    "measurement_distribution",
    "nats_to_bits",
    "relative_entropy",
    "renyi_delta",
    "support_violation",
    "trace_distance",
    "validate_povm",
    "von_neumann_entropy",
]
