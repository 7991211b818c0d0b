"""Scalar information quantities.

All entropies are returned in nats (natural logarithm); ``nats_to_bits``
converts for display.  Support violations yield ``float('inf')`` rather
than an exception, and no function here returns NaN.
"""

from __future__ import annotations

import numpy as np

from .channels import Channel
from .linalg import (
    _built_power,
    _checked,
    _clamp_psd,
    _on_support,
    _psd_eigensystem,
    dagger,
    eig_hermitian,
    partial_trace,
    rank_cutoff,
    schatten_norm,
    trace_norm_hermitian,
)

LN2 = float(np.log(2.0))

DEFAULT_SUPPORT_TOL = 1e-10


def nats_to_bits(x: float) -> float:
    return x / LN2


def bits_to_nats(x: float) -> float:
    return x * LN2


def _von_neumann(rho, rank_tol=None, herm_tol: float = 1e-10) -> float:
    dec = eig_hermitian(rho, rank_tol=rank_tol, herm_tol=herm_tol)
    lam = dec.eigenvalues[dec.eigenvalues > dec.rank_tolerance]
    if lam.size == 0:
        return 0.0
    return float(-np.sum(lam * np.log(lam)))


def von_neumann_entropy(rho: np.ndarray, rank_tol: float | None = None) -> float:
    """``-tr(rho log rho)`` in nats, computed on the support."""
    return _von_neumann(rho, rank_tol)


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
    vals, vecs = _psd_eigensystem(sigma, None)
    return _outside_mass(np.asarray(rho, dtype=complex), vecs[:, vals > 0.0])


def _relative_entropy(rho, sigma, support_tol, rank_tol=None, herm_tol=np.inf) -> float:
    """``relative_entropy`` of complex arrays; the hermiticity residual is
    checked only for a finite ``herm_tol``."""
    dec_s = eig_hermitian(sigma, rank_tol=rank_tol, herm_tol=herm_tol)
    mu = dec_s.eigenvalues
    # the support test takes the default cutoff, whatever rank_tol is
    support = _clamp_psd(mu, rank_cutoff(mu)) > 0.0
    if _outside_mass(rho, dec_s.eigenvectors[:, support]) > support_tol:
        return float(np.inf)
    dec_r = eig_hermitian(rho, rank_tol=rank_tol, herm_tol=herm_tol)
    lam = dec_r.eigenvalues
    keep = lam > dec_r.rank_tolerance
    term1 = float(np.sum(lam[keep] * np.log(lam[keep]))) if np.any(keep) else 0.0

    pos = mu > dec_s.rank_tolerance
    log_sigma = (dec_s.eigenvectors[:, pos] * np.log(mu[pos])) @ dagger(
        dec_s.eigenvectors[:, pos]
    )
    term2 = float(np.trace(rho @ log_sigma).real)
    return term1 - term2


def relative_entropy(
    rho: np.ndarray,
    sigma: np.ndarray,
    support_tol: float = DEFAULT_SUPPORT_TOL,
    rank_tol: float | None = None,
) -> float:
    """Quantum relative entropy ``tr(rho (log rho - log sigma))`` in nats.

    Returns ``inf`` when more than ``support_tol`` of the mass of ``rho``
    (relative to its trace) lies outside the support of ``sigma``; both
    logarithms are taken on the respective supports.  Inputs need not be
    normalized.
    """
    return _relative_entropy(
        np.asarray(rho, dtype=complex),
        np.asarray(sigma, dtype=complex),
        support_tol,
        rank_tol,
        herm_tol=1e-10,
    )


def _root_fidelities(rho: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """Root fidelities ``|| sqrt(rho) sqrt(x) ||_1`` for every ``x`` of a
    ``(T, d, d)`` stack.

    ``sqrt(rho)`` is taken once; the stack goes through one batched ``eigh``
    and one batched singular-value call, each member held to the rank
    cutoff, clamp and PSD rule of ``_psd_eigensystem``.  No hermiticity
    residual is computed: callers pass matrices they have checked or built.
    """
    vals, vecs = _psd_eigensystem(rho, None, np.inf)
    root = (vecs * np.sqrt(vals)) @ dagger(vecs)
    lam, v = np.linalg.eigh(0.5 * (stack + stack.conj().swapaxes(-1, -2)))
    lam = _clamp_psd(lam, rank_cutoff(lam))
    roots = (v * np.sqrt(lam)[..., None, :]) @ v.conj().swapaxes(-1, -2)
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
    h_abc = _von_neumann(rho_abc)
    # the marginals of a checked state need no hermiticity check of their own
    h_ab, h_bc, h_b = (
        _von_neumann(partial_trace(rho_abc, (da, db, dc), keep=keep), herm_tol=np.inf)
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

def validate_povm(effects, dim: int, atol: float = 1e-10):
    """Check that the effects are PSD and sum to the identity."""
    effects = [np.asarray(m, dtype=complex) for m in effects]
    total = np.zeros((dim, dim), dtype=complex)
    for m in effects:
        if m.shape != (dim, dim):
            raise ValueError(f"effect of shape {m.shape} does not match dim {dim}")
        lo = float(np.min(np.linalg.eigvalsh(0.5 * (m + dagger(m)))))
        if lo < -atol:
            raise ValueError(f"POVM effect has negative eigenvalue {lo:.3e}")
        total += m
    if np.linalg.norm(total - np.eye(dim), 2) > atol:
        raise ValueError("POVM effects do not sum to the identity")
    return effects


def measurement_distribution(rho: np.ndarray, effects) -> np.ndarray:
    """Outcome probabilities ``tr(rho M_x)``, clipped at zero."""
    p = np.array([float(np.trace(rho @ m).real) for m in effects])
    return np.clip(p, 0.0, None)


def measured_relative_entropy_lb(
    rho: np.ndarray,
    omega: np.ndarray,
    effects,
    support_tol: float = DEFAULT_SUPPORT_TOL,
) -> float:
    """Classical relative entropy of the outcome distributions of one POVM.

    Any single POVM gives a certified lower bound on the measured relative
    entropy; by data processing it also never exceeds the quantum relative
    entropy.  Returns ``inf`` on a classical support violation.
    """
    effects = validate_povm(effects, np.asarray(rho).shape[0])
    p = measurement_distribution(rho, effects)
    q = measurement_distribution(omega, effects)
    if np.any((p > support_tol) & (q < 1e-300)):
        return float(np.inf)
    mask = p > 0.0
    return float(np.sum(p[mask] * (np.log(p[mask]) - np.log(q[mask]))))


def fidelity_measurement(rho: np.ndarray, omega: np.ndarray):
    """Projective measurement whose outcome statistics achieve the fidelity.

    The effects are the eigenprojectors of the geometric operator
    ``omega^{-1/2} (omega^{1/2} rho omega^{1/2})^{1/2} omega^{-1/2}``
    (pseudo-inverses on the support, the basis completed arbitrarily on the
    kernel).  For states with ``supp(rho)`` inside ``supp(omega)`` the
    classical fidelity of the two outcome distributions equals the quantum
    fidelity of the pair.
    """
    rho = _checked(rho)
    vals, vecs = _psd_eigensystem(omega, None)
    root = _on_support(vals, vecs, lambda v: v**0.5)
    inv_root = _on_support(vals, vecs, lambda v: v**-0.5)
    middle = _built_power(root @ rho @ root, 0.5)
    geometric = inv_root @ middle @ inv_root
    # Hermitian by construction; rounding noise from the triple product can
    # be large for badly conditioned omega, so symmetrize before decomposing.
    geometric = 0.5 * (geometric + dagger(geometric))
    dec = eig_hermitian(geometric, herm_tol=np.inf)
    vecs = dec.eigenvectors
    return [np.outer(vecs[:, j], vecs[:, j].conj()) for j in range(vecs.shape[1])]


# ---------------------------------------------------------------------------
# Renyi difference
# ---------------------------------------------------------------------------

def renyi_delta(
    rho: np.ndarray,
    sigma: np.ndarray,
    channel: Channel,
    alpha: float,
    support_tol: float = DEFAULT_SUPPORT_TOL,
) -> float:
    """Renyi-type generalization of the relative entropy difference.

    Evaluates ``(2a/(a-1)) log || (N(rho)^{(1-a)/2a} N(sigma)^{(a-1)/2a}
    (x) id_E) U sigma^{(1-a)/2a} rho^{1/2} ||_{2a}`` in nats, with ``U`` an
    isometric extension of the channel and every fractional power taken on
    the support.  As ``alpha -> 1`` this approaches
    ``D(rho||sigma) - D(N(rho)||N(sigma))``.
    """
    if alpha == 1.0:
        raise ValueError("alpha = 1 is excluded; use the entropy difference")
    if alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    s_vals, s_vecs = _psd_eigensystem(sigma, None)
    if _outside_mass(rho, s_vecs[:, s_vals > 0.0]) > support_tol:
        return float(np.inf)

    p = (1.0 - alpha) / (2.0 * alpha)
    n_rho = channel.apply(rho)
    n_sigma = channel.apply(sigma)
    left = _built_power(n_rho, p) @ _built_power(n_sigma, -p)
    u = channel.stinespring_isometry()
    env = channel.num_kraus
    block = np.kron(left, np.eye(env))
    sigma_p = _on_support(s_vals, s_vecs, lambda v: v**p)
    root_rho = _on_support(*_psd_eigensystem(rho, None), lambda v: v**0.5)
    mat = block @ u @ sigma_p @ root_rho
    norm = schatten_norm(mat, 2.0 * alpha)
    coeff = 2.0 * alpha / (alpha - 1.0)
    if norm <= 0.0:
        return float(np.inf) if coeff < 0 else float(-np.inf)
    return coeff * float(np.log(norm))


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
