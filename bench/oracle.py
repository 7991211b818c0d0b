"""Independent numpy-only reference computations for checking petzlab outputs.

Nothing here imports petzlab.  Every quantity is computed from
``np.linalg.eigh``/``eigvalsh`` or from reshapes, by a route that differs
from the library's where a choice exists (relative entropy in the Klein
form over both eigenbases, root fidelity from the spectrum of
``sqrt(sigma) rho sqrt(sigma)`` rather than a singular value sum), so a
shared bug does not cancel out.  Entropies are in nats.
"""

from __future__ import annotations

import numpy as np

_EPS = float(np.finfo(np.float64).eps)


def _hermitian(h: np.ndarray) -> np.ndarray:
    h = np.asarray(h, dtype=complex)
    return 0.5 * (h + h.conj().T)


def _cutoff(vals: np.ndarray) -> float:
    return len(vals) * _EPS * float(np.max(np.abs(vals), initial=0.0))


def apply_kraus(kraus: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``sum_k K_k x K_k^dag`` for a ``(k, d_out, d_in)`` Kraus stack."""
    kraus = np.asarray(kraus, dtype=complex)
    return np.einsum("kij,jl,kml->im", kraus, x, kraus.conj(), optimize=True)


def max_tni_eigenvalue(kraus: np.ndarray) -> float:
    """Largest eigenvalue of ``sum_k K_k^dag K_k`` (at most 1 for a TNI map)."""
    kraus = np.asarray(kraus, dtype=complex)
    s = np.einsum("kij,kil->jl", kraus.conj(), kraus)
    return float(np.linalg.eigvalsh(_hermitian(s))[-1])


def trace_norm(h: np.ndarray) -> float:
    """Trace norm of a Hermitian matrix from its eigenvalues."""
    return float(np.sum(np.abs(np.linalg.eigvalsh(_hermitian(h)))))


def partial_trace(m: np.ndarray, dims, keep) -> np.ndarray:
    """Trace out every factor not in ``keep`` (big-endian factor order)."""
    dims = [int(d) for d in dims]
    n = len(dims)
    keep = sorted(int(k) for k in keep)
    letters = "abcdefghijklmnopqrstuvwxyz"
    rows = list(letters[:n])
    cols = [rows[i] if i not in keep else letters[n + i] for i in range(n)]
    out = "".join(rows[i] for i in keep) + "".join(cols[i] for i in keep)
    tensor = np.asarray(m, dtype=complex).reshape(dims + dims)
    reduced = np.einsum("".join(rows) + "".join(cols) + "->" + out, tensor)
    d_keep = int(np.prod([dims[k] for k in keep], initial=1))
    return reduced.reshape(d_keep, d_keep)


def entropy(rho: np.ndarray) -> float:
    """Von Neumann entropy on the support."""
    lam = np.linalg.eigvalsh(_hermitian(rho))
    lam = lam[lam > _cutoff(lam)]
    return float(-np.sum(lam * np.log(lam)))


def relative_entropy(rho: np.ndarray, sigma: np.ndarray) -> float:
    """``D(rho||sigma)`` in the Klein form ``sum_i l_i log l_i -
    sum_ij l_i |<a_i|b_j>|^2 log m_j`` (finite supports assumed)."""
    lam, a = np.linalg.eigh(_hermitian(rho))
    mu, b = np.linalg.eigh(_hermitian(sigma))
    pos_l = lam > _cutoff(lam)
    pos_m = mu > _cutoff(mu)
    overlap = np.abs(a[:, pos_l].conj().T @ b[:, pos_m]) ** 2
    term1 = float(np.sum(lam[pos_l] * np.log(lam[pos_l])))
    term2 = float(lam[pos_l] @ overlap @ np.log(mu[pos_m]))
    return term1 - term2


def sqrt_psd(h: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(_hermitian(h))
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def root_fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """``tr sqrt(sqrt(sigma) rho sqrt(sigma))``."""
    root = sqrt_psd(sigma)
    vals = np.linalg.eigvalsh(_hermitian(root @ rho @ root))
    return float(np.sum(np.sqrt(np.clip(vals, 0.0, None))))


def cmi(rho_abc: np.ndarray, dims) -> float:
    """``I(A:C|B) = H(AB) + H(BC) - H(ABC) - H(B)``."""
    return (
        entropy(partial_trace(rho_abc, dims, (0, 1)))
        + entropy(partial_trace(rho_abc, dims, (1, 2)))
        - entropy(rho_abc)
        - entropy(partial_trace(rho_abc, dims, (1,)))
    )


def conditional_entropy(rho_ab: np.ndarray, dims) -> float:
    """``H(A|B) = H(AB) - H(B)``."""
    return entropy(rho_ab) - entropy(partial_trace(rho_ab, dims, (1,)))


def concavity_gap(weights, states, dims) -> float:
    """``H(A|B)_avg - sum_x p_x H(A|B)_x``."""
    avg = sum(w * s for w, s in zip(weights, states))
    return conditional_entropy(avg, dims) - float(
        sum(w * conditional_entropy(s, dims) for w, s in zip(weights, states))
    )


def joint_convexity_gap(weights, rhos, sigmas) -> float:
    """``sum_x p_x D(rho_x||sigma_x) - D(rho_avg||sigma_avg)``."""
    rho_avg = sum(w * r for w, r in zip(weights, rhos))
    sigma_avg = sum(w * s for w, s in zip(weights, sigmas))
    return float(
        sum(w * relative_entropy(r, s) for w, r, s in zip(weights, rhos, sigmas))
    ) - relative_entropy(rho_avg, sigma_avg)


def kl(p: np.ndarray, q: np.ndarray) -> float:
    """Classical relative entropy of strictly positive distributions."""
    return float(np.sum(p * (np.log(p) - np.log(q))))


def classical_dpi(p: np.ndarray, q: np.ndarray, stochastic: np.ndarray):
    """Closed forms of both sides of the DPI remainder for commuting inputs.

    ``stochastic[y, x]`` is the probability of output ``y`` given input
    ``x``.  Returns ``(lhs, rhs)``: ``KL(p||q) - KL(Pp||Pq)`` and
    ``-2 log sum_x sqrt(p_x r_x)`` with ``r`` the Bayes inverse of ``P``
    with respect to ``q`` applied to ``Pp``.  All rotated Petz maps agree
    on diagonal inputs, so ``rhs`` is both the mixture and the strong bound.
    """
    pp = stochastic @ p
    pq = stochastic @ q
    bayes = (stochastic * q[None, :]).T / pq[None, :]  # bayes[x, y]
    r = bayes @ pp
    return kl(p, q) - kl(pp, pq), -2.0 * float(np.log(np.sum(np.sqrt(p * r))))
