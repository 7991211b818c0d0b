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
    _eigh,
    _integers,
    _masked_log,
    _on_support,
    _power,
    _psd_eigensystem,
    dagger,
    partial_trace,
    schatten_norm,
    trace_norm_hermitian,
)
from .recovery import _PetzFactory

LN2 = float(np.log(2.0))
# Absolute slack of a POVM's effect eigenvalues and of its sum's distance to id.
POVM_TOL = 1e-10
# Smallest eigenvalue, relative to the trace, at which a Cholesky factor
# stands in for the square root in a fidelity: about 1e7 times the rank
# cutoff, so the clamp would change nothing, and the two routes' backward
# errors (about d eps lambda_max) move F by at most about 1e-11 above it.
CHOLESKY_FLOOR = 1e-8


def nats_to_bits(x: float) -> float:
    return x / LN2


def _von_neumann(vals):
    """Entropy of a clamped spectrum (``_psd_eigensystem``), a float, or of
    each spectrum of a stack along the last axis, an array."""
    h = -np.sum(vals * _masked_log(vals)[0], axis=-1)  # 0 log 0 = 0 on the kernel
    return float(h) if h.ndim == 0 else h


def von_neumann_entropy(rho: np.ndarray) -> float:
    """``-tr(rho log rho)`` in nats, computed on the support."""
    return _von_neumann(_psd_eigensystem(_checked(rho))[0])


def _diagonal(rho, vecs):
    """Real diagonal of ``V^dag rho V`` for eigenvector columns ``vecs``: the
    weights of ``rho`` on a reference's eigenvectors.  Stacks broadcast."""
    return (vecs.conj() * (rho @ vecs)).sum(axis=-2).real


def _outside_mass(rho, ref, diag=None):
    """Relative mass of ``rho`` outside the support of the clamped eigensystem
    ``ref`` (``_psd_eigensystem``); a ``(..., d, d)`` stack gives an array,
    against ``ref`` or, member by member, a stack of eigensystems.

    The mass is the sum of ``rho``'s weights (``_diagonal``, or ``diag`` when
    the caller has it) on the eigenvectors of ``ref``'s kernel, over
    ``tr rho``; no projector is formed.
    """
    diag = _diagonal(rho, ref[1]) if diag is None else diag
    tr = np.trace(rho, axis1=-2, axis2=-1).real
    out = np.sum(np.where(ref[0] > 0.0, 0.0, diag), axis=-1)
    mass = np.maximum(0.0, np.divide(out, tr, out=np.zeros_like(tr), where=tr > 0.0))
    return float(mass) if mass.ndim == 0 else mass


def support_violation(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Relative mass of ``rho`` outside the support of ``sigma``."""
    return _outside_mass(_checked(rho, herm_tol=np.inf), _psd_eigensystem(_checked(sigma)))


def _relative_entropy(rho, ref, vals=None):
    """``relative_entropy`` of a complex array the caller checked or built
    (clamped spectrum ``vals``, if known), against the clamped eigensystem
    ``ref`` of the reference state; stacks pair up as in ``_outside_mass``.

    ``tr(rho log sigma)`` is the sum of ``rho``'s weights on the reference
    eigenvectors (``_diagonal``) times ``_masked_log`` of the reference
    spectrum, so no dense ``log sigma`` is formed.
    """
    vals = _psd_eigensystem(rho)[0] if vals is None else vals
    diag = _diagonal(rho, ref[1])
    # tr(rho log rho) = -S(rho)
    d = -_von_neumann(vals) - np.sum(diag * _masked_log(ref[0])[0], axis=-1)
    d = np.where(_outside_mass(rho, ref, diag) > SUPPORT_TOL, np.inf, d)
    return float(d) if d.ndim == 0 else d


def relative_entropy(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Quantum relative entropy ``tr(rho (log rho - log sigma))`` in nats.

    Returns ``inf`` when more than ``SUPPORT_TOL`` of the mass of ``rho``
    (relative to its trace) lies outside the support of ``sigma``; both
    logarithms are taken on the respective supports.  Inputs need not be
    normalized.
    """
    return _relative_entropy(_checked(rho), _psd_eigensystem(_checked(sigma)))


def _root_fidelities(rho_sys, stack: np.ndarray) -> np.ndarray:
    """Root fidelities ``|| sqrt(rho) sqrt(x) ||_1``, from the clamped
    eigensystem ``rho_sys`` of ``rho``, for every ``x`` of a ``(T, d, d)`` stack.
    A stack of ``T`` eigensystems ``rho_sys`` broadcasts: member ``t`` of the
    stack is then paired with ``rho_t``.

    ``sqrt(rho)`` is taken once.  Each member's Cholesky factor ``C`` stands
    in for ``sqrt(x)``: ``C = sqrt(x) V`` with ``V`` unitary, so the singular
    values of ``sqrt(rho) C`` are those of ``sqrt(rho) sqrt(x)``, from one
    batched ``cholesky`` and one batched singular-value call.  That result is
    used when every member provably has ``lambda_min(x) > CHOLESKY_FLOOR tr x``;
    otherwise (a singular or ill-conditioned member, or rounding negativity)
    the stack goes through one batched ``eigh``, each member held to the rank
    cutoff, clamp and PSD rule of ``_psd_eigensystem``.  No hermiticity
    residual is computed: callers pass matrices they have checked or built.
    """
    root = _on_support(*rho_sys, np.sqrt)
    fast = _cholesky_fidelities(rho_sys[0][..., 0], root, stack)
    if fast is not None:
        return fast
    roots = _on_support(*_psd_eigensystem(stack), np.sqrt)
    return np.linalg.svd(root @ roots, compute_uv=False).sum(axis=-1)


def _cholesky_fidelities(rho_top, root, stack):
    """``_root_fidelities`` from the Cholesky factors of the stack, or None
    unless every member is certified above ``CHOLESKY_FLOOR``.

    Two free lower bounds on ``lambda_min(x)`` certify a member:
    ``s_min^2 / lambda_max(rho)``, since the smallest singular value of
    ``sqrt(rho) C`` is at most ``||sqrt(rho)|| sigma_min(C)``, and ``det x /
    tr(x)^(d-1)``, since ``det x <= lambda_min lambda_max^(d-1)``; the second
    is formed only when the first leaves a member uncertified.  ``rho_top``
    is ``lambda_max(rho)``, one per member when ``rho`` is a stack.
    """
    x = 0.5 * (stack + stack.conj().swapaxes(-1, -2))
    try:
        chol = np.linalg.cholesky(x)
    except np.linalg.LinAlgError:
        return None
    s = np.linalg.svd(root @ chol, compute_uv=False)
    tr = np.trace(x, axis1=-2, axis2=-1).real
    # multiplied out, so a pure rho (s_min = 0) or rho = 0 divides by nothing
    by_svd = s[..., -1] ** 2 > CHOLESKY_FLOOR * tr * rho_top
    if not by_svd.all():
        # det x / tr^d as a product of factors |C_ii|^2 / tr <= 1, which cannot overflow
        diag = np.diagonal(chol, axis1=-2, axis2=-1).real
        by_det = np.prod(diag**2 / tr[..., None], axis=-1) > CHOLESKY_FLOOR
        if not np.all(by_det | by_svd):
            return None
    return s.sum(axis=-1)


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Root fidelity ``|| sqrt(rho) sqrt(sigma) ||_1`` of two PSD operators,
    through ``_root_fidelities`` on a stack of one (a Cholesky factor of
    ``sigma`` when it is well conditioned, its clamped square root otherwise)."""
    return float(_root_fidelities(_psd_eigensystem(_checked(rho)), _checked(sigma)[None])[0])


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Half the trace norm of the difference."""
    diff = _checked(rho, herm_tol=np.inf) - _checked(sigma, herm_tol=np.inf)
    return 0.5 * trace_norm_hermitian(0.5 * (diff + dagger(diff)))


def conditional_mutual_information(rho_abc: np.ndarray, dims) -> float:
    """``I(A:C|B) = H(AB) + H(BC) - H(ABC) - H(B)`` in nats."""
    da, db, dc = _integers(dims, "dims")
    rho_abc = np.asarray(rho_abc, dtype=complex)
    if rho_abc.shape[0] != da * db * dc:
        raise ValueError(
            f"dims {dims} do not match state dimension {rho_abc.shape[0]}"
        )
    h_abc = von_neumann_entropy(rho_abc)
    h_ab, h_bc, h_b = (
        _von_neumann(_psd_eigensystem(partial_trace(rho_abc, (da, db, dc), keep=keep))[0])
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
    """Check that the effects are Hermitian (``_checked``) and PSD and sum to
    the identity, within ``POVM_TOL``."""
    effects = [np.asarray(m, dtype=complex) for m in effects]
    total = np.zeros((dim, dim), dtype=complex)
    for m in effects:
        if m.shape != (dim, dim):
            raise ValueError(f"effect of shape {m.shape} does not match dim {dim}")
        lo = float(np.linalg.eigvalsh(_checked(m))[0])
        if lo < -POVM_TOL:
            raise ValueError(f"POVM effect has negative eigenvalue {lo:.3e}")
        total += m
    if np.linalg.norm(total - np.eye(dim), 2) > POVM_TOL:
        raise ValueError("POVM effects do not sum to the identity")
    return effects


def measurement_distribution(rho: np.ndarray, effects) -> np.ndarray:
    """Outcome probabilities ``tr(rho M_x)``, clipped at zero.

    ``effects`` is a sequence or an ``(n, d, d)`` stack; an ``(..., n, d, d)``
    stack with an ``(..., d, d)`` stack of states gives ``(..., n)``.
    """
    rho = np.asarray(rho)
    p = np.trace(rho[..., None, :, :] @ np.asarray(effects), axis1=-2, axis2=-1).real
    return np.clip(p, 0.0, None)


def _measured_lb(rho, omega, effects) -> np.ndarray:
    """``measured_relative_entropy_lb`` for effects known to form a POVM, one
    bound per member of ``(..., d, d)`` state stacks and their
    ``(..., n, d, d)`` effect stack."""
    p = measurement_distribution(rho, effects)
    q = measurement_distribution(omega, effects)
    # an outcome counts when p > 0, except rounding mass (p <= SUPPORT_TOL)
    # where q = 0: that lies off the support, as in _relative_entropy
    mask = (p > 0.0) & ((q > 0.0) | (p > SUPPORT_TOL))
    with np.errstate(divide="ignore"):  # q = 0 under p > SUPPORT_TOL gives inf
        terms = p * (np.log(np.where(mask, p, 1.0)) - np.log(np.where(mask, q, 1.0)))
    lb = terms.sum(axis=-1)
    # numpy groups a sum of 8 or more terms pairwise, so zero padding changes
    # the rounding: a member with uncounted outcomes sums its counted terms alone
    for i in zip(*np.nonzero(~mask.all(axis=-1))):
        lb[i] = terms[i][mask[i]].sum()
    return np.where(np.any((p > SUPPORT_TOL) & (q < 1e-300), axis=-1), np.inf, lb)


def measured_relative_entropy_lb(rho: np.ndarray, omega: np.ndarray, effects) -> float:
    """Classical relative entropy of the outcome distributions of one POVM.

    Any single POVM gives a certified lower bound on the measured relative
    entropy; by data processing it also never exceeds the quantum relative
    entropy.  Returns ``inf`` on a classical support violation: an outcome
    with probability above ``SUPPORT_TOL`` under ``rho`` and 0 under ``omega``.
    """
    rho, omega = _checked(rho, herm_tol=np.inf), _checked(omega, herm_tol=np.inf)
    povm = np.array(validate_povm(effects, rho.shape[0]))
    return float(_measured_lb(rho[None], omega[None], povm[None])[0])


def _fidelity_measurement(rho, omega) -> np.ndarray:
    """Eigenvectors (columns, eigenvalues descending) of the geometric
    operator of ``fidelity_measurement``, for ``(..., d, d)`` stacks of
    complex arrays the caller checked or built."""
    vals, vecs = _psd_eigensystem(omega)
    root = _power(vals, vecs, 0.5)
    inv_root = _power(vals, vecs, -0.5)
    middle = _power(*_psd_eigensystem(root @ rho @ root), 0.5)
    # Hermitian by construction; _eigh drops the triple product's rounding
    # noise, which can be large for badly conditioned omega
    return _eigh(inv_root @ middle @ inv_root)[1]


def _projectors(vecs: np.ndarray) -> np.ndarray:
    """The ``(..., n, d, d)`` stack of projectors onto the columns of a
    ``(..., d, n)`` stack."""
    cols = vecs.swapaxes(-1, -2)
    return cols[..., :, None] * cols.conj()[..., None, :]


def fidelity_measurement(rho: np.ndarray, omega: np.ndarray):
    """Projective measurement whose outcome statistics achieve the fidelity.

    The effects are the eigenprojectors of the geometric operator
    ``omega^{-1/2} (omega^{1/2} rho omega^{1/2})^{1/2} omega^{-1/2}``
    (pseudo-inverses on the support, the basis completed arbitrarily on the
    kernel).  For states with ``supp(rho)`` inside ``supp(omega)`` the
    classical fidelity of the two outcome distributions equals the quantum
    fidelity of the pair.
    """
    vecs = _fidelity_measurement(_checked(rho)[None], _checked(omega)[None])
    return list(_projectors(vecs)[0])


# ---------------------------------------------------------------------------
# Renyi difference
# ---------------------------------------------------------------------------

def _renyi_delta(rho, rho_sys, out, pair, alphas) -> list:
    """``renyi_delta`` at every alpha of ``alphas``, for a complex array the
    caller checked or built, its clamped eigensystem ``rho_sys``, its channel
    output ``out = N(rho)``, and the eigensystems of the reference pair
    ``pair`` (a ``recovery._PetzFactory``), decomposing ``N(rho)`` once; every
    alpha is positive and not 1."""
    if _outside_mass(rho, pair.s_sys) > SUPPORT_TOL:
        return [float(np.inf)] * len(alphas)
    n_rho = _psd_eigensystem(out)
    right = pair.s_sys[1].conj().T @ _power(*rho_sys, 0.5)
    ps = np.array([(1.0 - alpha) / (2.0 * alpha) for alpha in alphas])
    # N(sigma)^-p K_k sigma^p = V_N cores_k^dag V_sigma^dag, the Petz core under
    # lam^{p - 1/2} and mu^{1/2 - p}
    cores = pair.cores(*pair.diagonals(ps - 0.5))
    out = []
    for alpha, p, core in zip(alphas, ps, cores.conj().swapaxes(-1, -2)):
        # the rows of U = sum_k K_k (x) |k>, permuted to (k, out): same singular values
        mat = (_power(*n_rho, p) @ pair.m_sys[1]) @ core @ right
        norm = schatten_norm(mat.reshape(-1, pair.channel.dim_in), 2.0 * alpha)
        coeff = 2.0 * alpha / (alpha - 1.0)
        if norm <= 0.0:
            out.append(float(np.inf) if coeff < 0 else float(-np.inf))
        else:
            out.append(coeff * float(np.log(norm)))
    return out


def renyi_delta(rho: np.ndarray, sigma: np.ndarray, channel: Channel, alpha: float) -> float:
    """Renyi-type generalization of the relative entropy difference.

    Evaluates ``(2a/(a-1)) log || (N(rho)^{(1-a)/2a} N(sigma)^{(a-1)/2a}
    (x) id_E) U sigma^{(1-a)/2a} rho^{1/2} ||_{2a}`` in nats, with ``U`` an
    isometric extension of the channel and every fractional power taken on
    the support.  As ``alpha -> 1`` this approaches
    ``D(rho||sigma) - D(N(rho)||N(sigma))``.  ``alpha`` is finite, at least
    1/2 (the ``2a``-norm is a norm) and not 1.
    """
    if alpha == 1.0:
        raise ValueError("alpha = 1 is excluded; use the entropy difference")
    if not 0.5 <= alpha < np.inf:
        raise ValueError(f"alpha must be finite and at least 1/2, got {alpha}")
    rho, pair = _checked(rho), _PetzFactory(_checked(sigma), channel)
    return _renyi_delta(rho, _psd_eigensystem(rho), channel.apply(rho), pair, [alpha])[0]


__all__ = [
    "binary_entropy",
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
