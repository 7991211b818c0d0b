"""Petz, rotated and universal recovery maps, and the mixing densities.

Every map is the Petz map under phases.  A reference pair
(``_PetzFactory``) holds the Petz map's Kraus operators in the eigenbases of
``sigma`` and ``N(sigma)``, the Petz core ``P_k``, and the logs of the two
spectra, each formed once.  The rotated map ``R_t`` is ``P`` between the
phases ``sigma^{-it}`` and ``N(sigma)^{it}``, and the universal map, the
mixture ``int beta0(t) R_{t/2} dt`` with density ``beta0(t) = (pi/2) /
(cosh(pi t) + 1)``, integrates those phases to ``g(Delta / 2)`` in closed
form (``_PetzFactory.universal_kernel``): the checks apply it exactly, and
``universal_recovery`` returns its Kraus form, built from a thin factor of
its Choi matrix (``_PetzFactory.universal_kraus``).  Quadrature rules
discretize ``beta0`` where a logarithm sits inside the integral;
``convex_mixture`` of a ``rotated_petz_family`` gives a rule's mixture.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channels import Channel
from .linalg import _checked, _eigenspaces, _masked_log, _psd_eigensystem, _reconstruct

_TNI_TOL = 1e-9


# ---------------------------------------------------------------------------
# mixing densities
# ---------------------------------------------------------------------------

def beta0_density(t):
    """``(pi/2) / (cosh(pi t) + 1)``, the limiting mixture density."""
    t = np.asarray(t, dtype=float)
    return (np.pi / 2.0) / (np.cosh(np.pi * t) + 1.0)


def beta_theta_density(t, theta: float):
    """``sin(pi theta) / (2 theta (cosh(pi t) + cos(pi theta)))``.

    Converges pointwise to ``beta0_density`` as ``theta`` decreases to 0.
    """
    if theta == 0.0:
        return beta0_density(t)
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must lie in [0, 1), got {theta}")
    t = np.asarray(t, dtype=float)
    return np.sin(np.pi * theta) / (
        2.0 * theta * (np.cosh(np.pi * t) + np.cos(np.pi * theta))
    )


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and positive weights discretizing a probability density."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.shape != weights.shape or nodes.ndim != 1:
            raise ValueError("nodes and weights must be matching 1-d arrays")
        if not np.all(np.isfinite(nodes)) or np.any(np.diff(nodes) <= 0):
            raise ValueError("nodes must be finite and strictly increasing")
        if np.any(weights <= 0):
            raise ValueError("weights must be positive")
        _check_simplex(weights)

    def __len__(self) -> int:
        return len(self.nodes)

    def integrate(self, values) -> float:
        return float(np.dot(self.weights, np.asarray(values, dtype=float)))


def _window(n: int) -> float:
    # Balance the exp(-pi T) density tail against the node spacing.
    return 0.8 * np.sqrt(n - 1.0)


def beta_quadrature(n_nodes: int, theta: float = 0.0) -> QuadratureRule:
    """Quadrature rule for ``beta_theta`` (``theta=0`` gives ``beta0``).

    Equally spaced nodes on a window that grows like ``sqrt(n)``, with
    trapezoid weights proportional to the density and renormalized so the
    weights sum to one exactly.  The equal spacing keeps the rule accurate
    for the oscillatory integrands produced by rotated recovery maps.
    """
    if n_nodes < 3:
        raise ValueError(f"need at least 3 nodes, got {n_nodes}")
    half = _window(n_nodes)
    nodes = np.linspace(-half, half, n_nodes)
    weights = np.asarray(beta_theta_density(nodes, theta), dtype=float).copy()
    weights[0] *= 0.5
    weights[-1] *= 0.5
    weights /= weights.sum()
    return QuadratureRule(nodes, weights)


def beta0_quadrature(n_nodes: int) -> QuadratureRule:
    """Quadrature rule for the universal mixture density ``beta0``."""
    return beta_quadrature(n_nodes, theta=0.0)


# ---------------------------------------------------------------------------
# recovery maps
# ---------------------------------------------------------------------------

class RecoveryMap(Channel):
    """Completely positive, trace non-increasing reversal of a channel.

    A trace non-increasing ``Channel`` mapping the channel output space
    back to its input space, carrying the recovery metadata ``kind``,
    ``sigma``, ``channel``, ``t``, ``nodes``, ``weights`` and ``phases``.
    It is trace preserving on the support of ``channel(sigma)`` and
    annihilates the orthogonal complement of that support.  ``kind`` is
    one of ``"petz"``, ``"rotated"``, ``"phase-rotated"``, ``"mixture"`` or
    ``"universal"``; a mixture's Kraus stack holds each component's operators
    scaled by the square root of its weight, and the exact universal map has
    no nodes and no weights.

    ``max eig sum K^dag K`` may exceed 1 by ``_TNI_TOL``; a map built from a
    reference pair may exceed it by the pair's larger ``tni_budget``, kept
    as ``_atol``.
    """

    def __init__(
        self,
        kind: str,
        kraus,
        sigma: np.ndarray,
        channel: Channel,
        t: float | None = None,
        nodes=None,
        weights=None,
        phases=None,
        *,
        _atol: float = _TNI_TOL,
    ):
        super().__init__(kraus, mode="tni", atol=_atol)
        self._atol = _atol
        self.kind = kind
        self.sigma = np.asarray(sigma, dtype=complex)
        self.channel = channel
        self.t = t
        self.nodes = None if nodes is None else np.asarray(nodes, dtype=float)
        self.weights = None if weights is None else np.asarray(weights, dtype=float)
        self.phases = phases

    # an entry of its own, so that tracing can wrap it apart from Channel.apply
    apply = Channel.apply


def _g(h):
    """``g(h) = h / sinh h``, 1 at 0: the Fourier transform of ``beta0``."""
    return np.divide(h, np.sinh(h), out=np.ones_like(h), where=h != 0.0)


def _pivoted_cholesky(x, tol: float, max_rank: int):
    """Thin factor ``F``, ``(r, len(x))``, with ``F^T F`` equal within ``tol``
    to the PSD matrix ``G_ab = g(x_a - x_b)`` (``g`` is the Fourier transform
    of ``beta0 >= 0``), or ``None`` if that takes more than ``max_rank``
    columns.

    Greedy: each step pivots on the largest residual diagonal, forms that
    one column of ``G`` and stops once every residual diagonal is at or
    below ``tol``; ``G`` is never formed.
    """
    f, resid = np.empty((max_rank, len(x))), np.ones(len(x))
    for r in range(max_rank + 1):
        a = int(resid.argmax())
        if resid[a] <= tol:
            return f[:r]
        if r == max_rank:
            return None
        col = _g(x - x[a]) - f[:r, a] @ f[:r]
        col /= np.sqrt(resid[a])
        f[r] = col
        resid -= col * col
        resid[a] = 0.0


class _PetzFactory:
    """The reference pair of a check, formed once: ``sigma``, ``N(sigma)``,
    their clamped eigensystems ``s_sys`` and ``m_sys`` (``_psd_eigensystem``),
    the logs ``log_s`` and ``log_m`` of their spectra ``lam`` and ``mu``
    (``linalg._masked_log``, 0 on the kernels) and the Petz core ``b``: the
    Petz map's Kraus operators in the pair's eigenbases, ``P_k =
    diag(lam^{1/2}) V_sigma^dag K_k^dag V_N diag(mu^{-1/2})`` as ``(k, m, n)``,
    with both powers taken on the supports, 0 on the kernels.

    Every map is ``P`` under one function of the logs (``cores`` puts
    diagonals on either side): the rotated map ``R_t = U_{sigma,t} o R_0 o
    U_{N(sigma),-t}`` (``R_0`` the Petz map, ``U_{h,t}(x) = h^{-it} x h^{it}``)
    under the node phases of ``_phases``, ``phase_rotated_petz`` under
    eigenspace phases and the Renyi term under ``_powers``.  Maps are applied
    through one kernel, ``P``'s superoperator ``kernel``, formed at most once,
    by the first application; the map builders never form it.  ``recovered``
    puts each node's phases around it, and the exact universal map ``int
    beta0(t) R_{t/2} dt`` multiplies it by the closed-form
    ``universal_phases``, so it reads no rule; ``universal_kraus`` builds
    that map's Kraus form from ``P`` and a pivoted Cholesky factor of ``g``.

    ``tni_budget`` is the trace-non-increase tolerance of the pair's maps:
    ``N(sigma)^{-1/2}`` amplifies the rounding of the small eigenvalues of
    ``N(sigma)``, so it grows with their condition number.

    ``sigma`` is a complex matrix the caller has checked; ``channel.apply``
    checks its shape.
    """

    def __init__(self, sigma: np.ndarray, channel: Channel):
        self.sigma, self.channel = sigma, channel
        self.n_sigma = channel.apply(sigma)
        if float(np.trace(self.n_sigma).real) <= channel.dim_out * 1e-14:
            raise ValueError("channel output on sigma is numerically zero")
        self.s_sys = _psd_eigensystem(sigma)
        self.m_sys = _psd_eigensystem(self.n_sigma)
        (self.log_s, on_s), (self.log_m, on_m) = map(_masked_log, (self.s_sys[0], self.m_sys[0]))
        # P_k as (k, m, n): B_k = V_sigma^dag K_k^dag V_N between lam^{1/2} and mu^{-1/2}
        b = self.s_sys[1].conj().T @ channel.kraus.conj().swapaxes(1, 2) @ self.m_sys[1]
        root_s = np.where(on_s, np.exp(0.5 * self.log_s), 0.0)
        inv_root_m = np.where(on_m, np.exp(-0.5 * self.log_m), 0.0)
        self.b = root_s[:, None] * b * inv_root_m
        pos = self.m_sys[0][on_m]  # the largest first, the smallest last
        self.tni_budget = _TNI_TOL + len(on_m) * np.finfo(float).eps * float(pos[0] / pos[-1])

    @cached_property
    def kernel(self) -> np.ndarray:
        """The pair's one application kernel, the Petz map's superoperator
        ``T_{ijpq} = sum_k P_k[i,p] conj(P_k[j,q])`` on ``V_N^dag x V_N``, as an
        ``(m m, n n)`` array."""
        m, n = len(self.sigma), len(self.n_sigma)
        return np.einsum("kip,kjq->ijpq", self.b, self.b.conj()).reshape(m * m, n * n)

    def _powers(self, ps):
        """The real diagonals ``lam^{p - 1/2}`` and ``mu^{1/2 - p}`` at every
        ``p`` of the float array ``ps``, ``(T, m)`` and ``(T, n)``: ``cores``
        of them are ``diag(lam^p) B_k diag(mu^{-p})``.  1 on the kernels, where
        ``P`` is 0."""
        e = ps - 0.5
        return np.exp(np.multiply.outer(e, self.log_s)), np.exp(np.multiply.outer(-e, self.log_m))

    def _phases(self, ts):
        """The node phases ``lam^{-it}`` and ``mu^{it}`` at every ``t`` of the
        float array ``ts``, ``(T, m)`` and ``(T, n)``.  1 on the kernels, where
        ``P`` is 0."""
        return (np.exp(-1j * np.multiply.outer(ts, self.log_s)),
                np.exp(1j * np.multiply.outer(ts, self.log_m)))

    def cores(self, c, a) -> np.ndarray:
        """``diag(c_t) P_k diag(a_t)``, ``(T, k, m, n)``, from ``(T, m)`` and ``(T, n)``
        diagonal stacks ``c`` and ``a``; ``V_sigma cores V_N^dag`` are Kraus stacks."""
        return c[:, None, :, None] * self.b * a[:, None, None, :]

    def kraus_stack(self, ts, weights=None) -> np.ndarray:
        """Kraus operators of the rotated Petz maps at every ``t`` in ``ts``.

        A ``(T, k, d_in, d_out)`` stack of ``sigma^{1/2 - it} K^dag
        N(sigma)^{-1/2 + it}``, the ``cores`` of the node phases; with
        ``weights``, node ``t``'s operators are scaled by ``sqrt(w_t)`` in place.
        """
        cores = self.cores(*self._phases(np.asarray(ts, dtype=float)))
        out = self.s_sys[1] @ cores @ self.m_sys[1].conj().T
        if weights is not None:
            out *= np.sqrt(weights)[:, None, None, None]
        return out

    def _rotate_input(self, x) -> np.ndarray:
        """``V_N^dag x V_N`` of one ``(n, n)`` input or a stack, flattened to
        ``(..., n n)``."""
        vn = self.m_sys[1]
        return (vn.conj().T @ x @ vn).reshape(x.shape[:-2] + (vn.size,))

    def recovered(self, ts, x) -> np.ndarray:
        """``R_t(x)`` for every ``t`` in ``ts``, in the eigenbasis of ``sigma``.

        One ``(n, n)`` input ``x`` gives a ``(T, m, m)`` stack, an ``(S, n, n)``
        stack gives ``(S, T, m, m)``.  With ``*`` entrywise, ``(c_t, a_t) =
        (lam^{-it}, mu^{it})`` the node phases of ``_phases`` and ``T`` the Petz
        map's ``kernel``, that is ``(c_t c_t^dag) * T((a_t a_t^dag) * V_N^dag x
        V_N)``: one product with ``T`` over every node and input.
        """
        return self._recovered(ts, self._rotate_input(x))

    def _recovered(self, ts, z) -> np.ndarray:
        """``recovered`` on the rotated input ``z = _rotate_input(x)``."""
        c, a = self._phases(ts)
        a, c = a[:, :, None] * a.conj()[:, None, :], c[:, :, None] * c.conj()[:, None, :]
        z = a.reshape(len(a), z.shape[-1]) * z[..., None, :]
        return c * (z @ self.kernel.T).reshape(z.shape[:-1] + c.shape[1:])

    def universal_phases(self) -> np.ndarray:
        """The exact universal map's phases, the ``(m m, n n)`` array
        ``g(Delta_{ijpq} / 2)`` that multiplies the Petz map's ``kernel``.

        ``Delta_{ijpq} = log lam_i - log lam_j - log mu_p + log mu_q`` from the
        stored logs and ``g(h) = h / sinh h`` (``_g``), the Fourier transform
        of ``beta0``: ``int beta0(t) exp(-i t Delta / 2) dt`` is the rule's
        node sum of the phases of ``_phases`` at every ``t / 2``, in closed
        form.  Positive eigenvalues lie above the rank cutoff, so ``|Delta /
        2| < 40`` and ``sinh`` is finite; on the kernels, where ``kernel`` is
        0, the logs are 0.
        """
        ds, dm = (np.subtract.outer(logs, logs).ravel() for logs in (self.log_s, self.log_m))
        return _g(0.5 * np.subtract.outer(ds, dm))

    @cached_property
    def universal_kernel(self) -> np.ndarray:
        """The exact universal map's ``(m m, n n)`` superoperator on the
        rotated input, ``universal_phases() * kernel``."""
        return self.universal_phases() * self.kernel

    def _universal(self, z) -> np.ndarray:
        """The exact universal map on the rotated input ``z = _rotate_input(x)``,
        ``(..., m, m)`` in the eigenbasis of ``sigma``."""
        m = len(self.sigma)
        y = z @ self.universal_kernel.T
        return y.reshape(z.shape[:-1] + (m, m))

    def universal_apply(self, x) -> np.ndarray:
        """The exact universal map ``int beta0(t) R_{t/2} dt`` on one ``(n, n)``
        input ``x`` or a stack ``(..., n, n)``, as ``(..., m, m)`` in the
        standard basis.

        One ``(m m, n n)`` superoperator, ``universal_kernel``, acts on
        ``V_N^dag x V_N``: a quadrature rule's weighted node sum is folded
        into the closed-form phases, so no rule is read.
        """
        vs = self.s_sys[1]
        return vs @ self._universal(self._rotate_input(x)) @ vs.conj().T

    def universal_kraus(self) -> np.ndarray:
        """Kraus operators of the exact universal map in the eigenbases of
        the pair, ``(r, m, n)``, from a thin factor of its Choi matrix.

        On the ``(i p)`` index, with ``p_k = vec P_k`` and ``x_ip = (log lam_i
        - log mu_p) / 2``, the Choi matrix of ``universal_kernel`` is ``C = G *
        sum_k p_k p_k^dag``, with ``*`` entrywise and ``G_{(ip),(jq)} = g(x_ip -
        x_jq)``.  On the support of ``P``, of size ``s`` (``lam_i`` and ``mu_p``
        both positive), ``G = F^T F`` within ``m n eps``
        (``_pivoted_cholesky``), so ``C = W W^dag`` with ``W = [diag(p_k)
        F^T]_k``, ``(s, k r)``; the Kraus vectors are ``W v`` for the
        eigenpairs of the small ``W^dag W``.  When ``k r`` would reach ``s``,
        the factor is dropped and ``C`` itself is decomposed instead, ``sqrt(c)
        u`` for its eigenpairs.  Either way eigenvalues at or below the rank
        cutoff ``m n eps c_max`` of ``C`` are dropped, so there are at most
        ``m n`` operators, and neither ``kernel`` nor ``universal_phases`` is
        formed.
        """
        m, n = len(self.sigma), len(self.n_sigma)
        on = np.flatnonzero(np.outer(self.s_sys[0] > 0.0, self.m_sys[0] > 0.0))
        x = 0.5 * np.subtract.outer(self.log_s, self.log_m).ravel()[on]
        p = self.b.reshape(len(self.b), m * n)[:, on]
        f = _pivoted_cholesky(x, m * n * np.finfo(float).eps, (len(on) - 1) // len(p))
        if f is None:
            vals, u = _psd_eigensystem(_g(np.subtract.outer(x, x)) * (p.T @ p.conj()), dim=m * n)
            keep = vals > 0.0
            cols = np.sqrt(vals[keep]) * u[:, keep]
        else:
            w = (p[:, :, None] * f.T).swapaxes(0, 1).reshape(len(on), -1)
            vals, v = _psd_eigensystem(w.conj().T @ w, dim=m * n)
            cols = w @ v[:, vals > 0.0]
        vecs = np.zeros((m * n, cols.shape[1]), dtype=complex)
        vecs[on] = cols
        return vecs.T.reshape(-1, m, n)

    def recovery_map(self, kind: str, ops, **meta) -> RecoveryMap:
        """The ``RecoveryMap`` of the pair with the ``(k, d_in, d_out)`` Kraus
        stack ``ops``, checked against ``tni_budget``."""
        return RecoveryMap(kind, ops, self.sigma, self.channel, _atol=self.tni_budget, **meta)


def petz(sigma: np.ndarray, channel: Channel) -> RecoveryMap:
    """Petz recovery map of ``(sigma, channel)``.

    Kraus operators ``sigma^{1/2} K_i^dag N(sigma)^{-1/2}`` with the
    negative power taken on the support of ``N(sigma)``.  Perfectly
    recovers ``sigma`` from ``channel(sigma)``.
    """
    pair = _PetzFactory(_checked(sigma), channel)
    return pair.recovery_map("petz", pair.kraus_stack([0.0])[0], t=0.0)


def rotated_petz(sigma: np.ndarray, channel: Channel, t: float) -> RecoveryMap:
    """Rotated Petz map: the Petz map conjugated by the commuting unitaries
    ``sigma^{-it}`` and ``N(sigma)^{it}`` (support-restricted)."""
    return rotated_petz_family(sigma, channel, [t])[0]


def rotated_petz_family(sigma: np.ndarray, channel: Channel, ts):
    """Rotated Petz maps at each parameter in ``ts``, sharing one
    eigendecomposition of ``sigma`` and ``channel(sigma)``."""
    ts = np.asarray(ts, dtype=float)
    if ts.ndim != 1:
        raise ValueError(f"ts must be a 1-d array, got shape {ts.shape}")
    if not np.all(np.isfinite(ts)):
        raise ValueError(f"ts must be finite, got {ts}")
    pair = _PetzFactory(_checked(sigma), channel)
    return [
        pair.recovery_map("rotated", ops, t=float(t)) for t, ops in zip(ts, pair.kraus_stack(ts))
    ]


def _unread_rule(rule, name: str) -> None:
    """Warn that ``name``, which applies the exact universal map, was passed
    a quadrature ``rule``: it is not read, and the argument is deprecated."""
    if rule is not None:
        warnings.warn(f"{name}: the rule argument is deprecated and not read; "
                      "the universal map is applied exactly", DeprecationWarning, stacklevel=3)


def universal_recovery(sigma: np.ndarray, channel: Channel,
                       rule: QuadratureRule | None = None) -> RecoveryMap:
    """The exact universal recovery map ``int beta0(t) R_{t/2} dt`` of
    ``(sigma, channel)``, of kind ``"universal"``.

    Depends only on ``sigma`` and the channel.  Its Kraus operators are
    ``V_sigma K_r V_N^dag`` for the ``K_r`` of ``_PetzFactory.universal_kraus``:
    the Choi matrix ``C = W W^dag`` of ``universal_kernel`` is taken through a
    thin factor ``W``, from a pivoted Cholesky factor of the phases, and the
    eigenpairs of the small Gram matrix ``W^dag W`` (of ``C`` itself when the
    factor is not thinner).  Eigenvalues at or below the rank cutoff ``d_in
    d_out eps lambda_max`` of ``C`` are dropped, so there are at most ``d_in
    d_out``.  A rule's mixture is ``convex_mixture(rotated_petz_family(sigma,
    channel, rule.nodes / 2), rule.weights)``.

    ``rule`` is deprecated: a rule is not read, and passing one raises a
    ``DeprecationWarning``.
    """
    _unread_rule(rule, "universal_recovery")
    pair = _PetzFactory(_checked(sigma), channel)
    ops = pair.s_sys[1] @ pair.universal_kraus() @ pair.m_sys[1].conj().T
    return pair.recovery_map("universal", ops)


def _eigenspace_phases(vals, phases) -> np.ndarray:
    """The diagonal ``exp(i phi_k)`` on each eigenspace of the clamped
    spectrum ``vals``, from one finite phase per eigenspace."""
    spaces = _eigenspaces(vals)
    phases = np.asarray(phases, dtype=float)
    if len(phases) != len(spaces):
        raise ValueError(
            f"phase vector of length {len(phases)} does not match "
            f"{len(spaces)} eigenspaces"
        )
    if not np.all(np.isfinite(phases)):
        raise ValueError(f"phases must be finite, got {phases}")
    return np.repeat(np.exp(1j * phases), [len(idx) for idx in spaces])


def eigenspace_phase_unitary(h: np.ndarray, phases) -> np.ndarray:
    """Unitary ``sum_k exp(i phi_k) P_k`` over the eigenspaces of PSD ``h``.

    Eigenvalues are clustered with relative tolerance ``CLUSTER_TOL``; the
    kernel (everything below the rank cutoff) counts as one eigenspace.
    The phase vector length must match the number of eigenspaces.
    """
    vals, vecs = _psd_eigensystem(_checked(h))
    return _reconstruct(vecs, _eigenspace_phases(vals, phases))


def count_eigenspaces(h: np.ndarray) -> int:
    """Number of distinct eigenspaces of PSD ``h`` (kernel counts once)."""
    return len(_eigenspaces(_psd_eigensystem(_checked(h))[0]))


def phase_rotated_petz(sigma: np.ndarray, channel: Channel, phi, theta) -> RecoveryMap:
    """Petz map conjugated by eigenspace-phase unitaries of ``N(sigma)``
    (phases ``phi``, applied before) and of ``sigma`` (phases ``theta``,
    applied after).  Both unitaries commute with their operators by
    construction."""
    pair = _PetzFactory(_checked(sigma), channel)
    a = _eigenspace_phases(pair.m_sys[0], phi)
    c = _eigenspace_phases(pair.s_sys[0], theta)
    ops = pair.s_sys[1] @ pair.cores(c[None], a[None])[0] @ pair.m_sys[1].conj().T
    return pair.recovery_map("phase-rotated", ops, phases=(np.asarray(phi), np.asarray(theta)))


def _check_simplex(weights) -> np.ndarray:
    """``weights`` as a float array, checked to be a probability vector."""
    weights = np.asarray(weights, dtype=float)
    if not np.all(np.isfinite(weights)):
        raise ValueError(f"weights must be finite, got {weights}")
    if np.any(weights < 0) or abs(float(weights.sum()) - 1.0) > 1e-12:
        raise ValueError("weights must be nonnegative and sum to one")
    return weights


def convex_mixture(maps, weights) -> RecoveryMap:
    """Convex combination of recovery maps sharing the same spaces."""
    maps = list(maps)
    if not maps:
        raise ValueError("mixture needs at least one component")
    weights = _check_simplex(weights)
    if len(weights) != len(maps):
        raise ValueError("one weight per component required")
    dims = {(m.dim_in, m.dim_out) for m in maps}
    if len(dims) != 1:
        raise ValueError(f"components act between different spaces: {dims}")
    ops = np.concatenate([np.sqrt(w) * m.kraus for w, m in zip(weights, maps) if w > 0.0])
    nodes = None
    if all(m.kind in ("petz", "rotated") for m in maps):
        nodes = np.array([m.t for m in maps], dtype=float)
    return RecoveryMap("mixture", ops, maps[0].sigma, maps[0].channel, nodes=nodes,
                       weights=weights, _atol=max(m._atol for m in maps))


__all__ = [
    "QuadratureRule",
    "RecoveryMap",
    "beta0_density",
    "beta0_quadrature",
    "beta_quadrature",
    "beta_theta_density",
    "convex_mixture",
    "count_eigenspaces",
    "eigenspace_phase_unitary",
    "petz",
    "phase_rotated_petz",
    "rotated_petz",
    "rotated_petz_family",
    "universal_recovery",
]
