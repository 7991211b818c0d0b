"""Petz, rotated and universal recovery maps, and the mixing densities.

The universal map is a weighted mixture of rotated Petz maps; the mixing
density ``beta0(t) = (pi/2) / (cosh(pi t) + 1)`` is discretized by an
exactly normalized rule so that the mixture is itself a channel on the
support of the reference output state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import Channel
from .linalg import _checked, _eigenspaces, _psd_eigensystem, _reconstruct

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
        if abs(float(weights.sum()) - 1.0) > 1e-12:
            raise ValueError("weights must sum to one")

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
    one of ``"petz"``, ``"rotated"``, ``"phase-rotated"`` or ``"mixture"``;
    a mixture's Kraus stack holds each component's operators scaled by the
    square root of its weight.
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
    ):
        super().__init__(kraus, mode="tni", atol=_TNI_TOL)
        self.kind = kind
        self.sigma = np.asarray(sigma, dtype=complex)
        self.channel = channel
        self.t = t
        self.nodes = None if nodes is None else np.asarray(nodes, dtype=float)
        self.weights = None if weights is None else np.asarray(weights, dtype=float)
        self.phases = phases

    # an entry of its own, so that tracing can wrap it apart from Channel.apply
    apply = Channel.apply


class _PetzFactory:
    """The reference pair of a check: ``sigma``, ``N(sigma)`` and their
    clamped eigensystems ``s_sys`` and ``m_sys`` (``_psd_eigensystem``),
    formed and decomposed once.  Builds the rotated Petz maps' Kraus stack;
    ``recovered`` (every node's ``R_t(x)``) and ``universal_apply`` (the
    universal map's output) apply the maps without one, through ``R_t =
    U_{sigma,t} o P o U_{N(sigma),-t}`` (``P`` the Petz map, ``U_{h,t}(x) =
    h^{-it} x h^{it}``) and the node phases of ``_phases``.

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
        self.kraus_dg = channel.kraus.conj().swapaxes(1, 2)
        # B_k = V_sigma^dag K_k^dag V_N side by side, and the B_k^dag side by side
        b = self.s_sys[1].conj().T @ self.kraus_dg @ self.m_sys[1]
        self.b_row = np.concatenate(b, axis=1)
        self.b_dg_row = np.concatenate(b.conj().swapaxes(1, 2), axis=1)

    @staticmethod
    def _powers(vals, exponents) -> np.ndarray:
        """The ``(T, d)`` diagonals of ``h**z`` for every ``z`` in the eigenbasis
        of ``h`` (clamped spectrum ``vals``), 0 on the kernel."""
        pos = vals > 0.0
        logs = np.log(vals[pos])
        f = np.zeros((len(exponents), len(pos)), dtype=complex)
        f[:, pos] = np.exp(np.multiply.outer(exponents, logs))
        # a real exponent (t = 0) takes the real exp, which may differ in
        # the last bit from the complex one
        real = exponents.imag == 0.0
        f[np.ix_(real, pos)] = np.exp(np.multiply.outer(exponents.real[real], logs))
        return f

    def _phases(self, ts):
        """The node phases ``(a_t a_t^dag, c_t c_t^dag)`` at every ``t`` in
        ``ts``, ``(T, n, n)`` and ``(T, m, m)``, from the diagonals ``a_t =
        N(sigma)^{-1/2 + it}`` and ``c_t = sigma^{1/2 - it}``."""
        a = self._powers(self.m_sys[0], -0.5 + 1j * ts)
        c = self._powers(self.s_sys[0], 0.5 - 1j * ts)
        return a[:, :, None] * a.conj()[:, None, :], c[:, :, None] * c.conj()[:, None, :]

    def kraus_stack(self, ts, weights=None) -> np.ndarray:
        """Kraus operators of the rotated Petz maps at every ``t`` in ``ts``.

        A ``(T, k, d_in, d_out)`` stack of ``sigma^{1/2 - it} K^dag
        N(sigma)^{-1/2 + it}``; with ``weights``, node ``t``'s operators are
        scaled by ``sqrt(w_t)`` in place.
        """
        ts = np.asarray(ts, dtype=float)
        out = np.empty((len(ts),) + self.kraus_dg.shape, dtype=complex)
        # blocks of at most 2**14 Kraus entries keep the temporaries small
        size = max(1, 2**14 // self.kraus_dg.size)
        for start in range(0, len(ts), size):
            block = slice(start, start + size)
            left = _reconstruct(self.s_sys[1], self._powers(self.s_sys[0], 0.5 - 1j * ts[block]))
            right = _reconstruct(self.m_sys[1], self._powers(self.m_sys[0], -0.5 + 1j * ts[block]))
            np.matmul(left[:, None] @ self.kraus_dg, right[:, None], out=out[block])
            if weights is not None:
                out[block] *= np.sqrt(weights[block])[:, None, None, None]
        return out

    def recovered(self, ts, x) -> np.ndarray:
        """``R_t(x)`` for every ``t`` in ``ts``, in the eigenbasis of ``sigma``.

        One ``(n, n)`` input ``x`` gives a ``(T, m, m)`` stack, an ``(S, n, n)``
        stack gives ``(S, T, m, m)``.  With ``*`` entrywise and the node
        phases of ``_phases``, that is ``(c_t c_t^dag) * sum_k B_k ((a_t
        a_t^dag) * V_N^dag x V_N) B_k^dag``.
        """
        a, c = self._phases(ts)
        vn = self.m_sys[1]
        z = a * (vn.conj().T @ x @ vn)[..., None, :, :]
        # Z B_k^dag for every k, restacked as one (k n, m) column per node
        zb = (z @ self.b_dg_row).reshape(z.shape[:-1] + (-1, len(self.sigma))).swapaxes(-2, -3)
        y = self.b_row @ zb.reshape(z.shape[:-2] + (-1, len(self.sigma)))
        return c * y

    def universal_apply(self, rule: QuadratureRule, x) -> np.ndarray:
        """The universal map of ``rule`` on one ``(n, n)`` input ``x`` or a
        stack ``(..., n, n)``, as ``(..., m, m)`` in the standard basis.

        The weighted node sum is one ``(m m, n n)`` superoperator in the
        eigenbases of the pair, ``phases = sum_t w_t (c_t c_t^dag) (x) (a_t
        a_t^dag)`` over the nodes ``t/2`` times ``T_{ijpq} = sum_k B_k[i,p]
        conj(B_k[j,q])`` entrywise, acting on ``V_N^dag x V_N``.
        """
        a, c = self._phases(rule.nodes / 2.0)
        m, n = len(self.sigma), len(self.n_sigma)
        phases = (rule.weights[:, None] * c.reshape(len(c), -1)).T @ a.reshape(len(a), -1)
        b = self.b_row.reshape(m, -1, n)  # b[i, k, p] = B_k[i, p]
        kernel = np.einsum("ikp,jkq->ijpq", b, b.conj()).reshape(m * m, n * n)
        vn, vs = self.m_sys[1], self.s_sys[1]
        xs = (vn.conj().T @ x @ vn).reshape(x.shape[:-2] + (n * n,))
        return vs @ (xs @ (phases * kernel).T).reshape(x.shape[:-2] + (m, m)) @ vs.conj().T

    def mixture(self, stack: np.ndarray, nodes, weights) -> RecoveryMap:
        """The mixture map of the pair whose Kraus stack is the weighted
        ``(T, k, d_in, d_out)`` rotated-map stack ``stack``."""
        ops = stack.reshape(-1, self.channel.dim_in, self.channel.dim_out)
        return RecoveryMap("mixture", ops, self.sigma, self.channel, nodes=nodes, weights=weights)


def petz(sigma: np.ndarray, channel: Channel) -> RecoveryMap:
    """Petz recovery map of ``(sigma, channel)``.

    Kraus operators ``sigma^{1/2} K_i^dag N(sigma)^{-1/2}`` with the
    negative power taken on the support of ``N(sigma)``.  Perfectly
    recovers ``sigma`` from ``channel(sigma)``.
    """
    factory = _PetzFactory(_checked(sigma), channel)
    return RecoveryMap("petz", factory.kraus_stack([0.0])[0], sigma, channel, t=0.0)


def rotated_petz(sigma: np.ndarray, channel: Channel, t: float) -> RecoveryMap:
    """Rotated Petz map: the Petz map conjugated by the commuting unitaries
    ``sigma^{-it}`` and ``N(sigma)^{it}`` (support-restricted)."""
    return rotated_petz_family(sigma, channel, [t])[0]


def rotated_petz_family(sigma: np.ndarray, channel: Channel, ts):
    """Rotated Petz maps at each parameter in ``ts``, sharing one
    eigendecomposition of ``sigma`` and ``channel(sigma)``."""
    ts = np.asarray(ts, dtype=float)
    stack = _PetzFactory(_checked(sigma), channel).kraus_stack(ts)
    return [
        RecoveryMap("rotated", ops, sigma, channel, t=float(t)) for t, ops in zip(ts, stack)
    ]


def universal_recovery(sigma: np.ndarray, channel: Channel, rule: QuadratureRule) -> RecoveryMap:
    """Universal recovery map: the ``beta0``-weighted mixture of rotated
    Petz maps at half the node parameter.

    Depends only on ``sigma`` and the channel.  The one Kraus stack holds
    every node's operators scaled by the square root of its weight, node
    by node.
    """
    pair = _PetzFactory(_checked(sigma), channel)
    nodes = rule.nodes / 2.0
    return pair.mixture(pair.kraus_stack(nodes, rule.weights), nodes, rule.weights)


def _phase_unitary(system, phases) -> np.ndarray:
    """``eigenspace_phase_unitary`` from a clamped eigensystem."""
    vals, vecs = system
    spaces = _eigenspaces(vals)
    phases = np.asarray(phases, dtype=float)
    if len(phases) != len(spaces):
        raise ValueError(
            f"phase vector of length {len(phases)} does not match "
            f"{len(spaces)} eigenspaces"
        )
    return _reconstruct(vecs, np.repeat(np.exp(1j * phases), [len(idx) for idx in spaces]))


def eigenspace_phase_unitary(h: np.ndarray, phases) -> np.ndarray:
    """Unitary ``sum_k exp(i phi_k) P_k`` over the eigenspaces of PSD ``h``.

    Eigenvalues are clustered with relative tolerance ``CLUSTER_TOL``; the
    kernel (everything below the rank cutoff) counts as one eigenspace.
    The phase vector length must match the number of eigenspaces.
    """
    return _phase_unitary(_psd_eigensystem(_checked(h)), phases)


def count_eigenspaces(h: np.ndarray) -> int:
    """Number of distinct eigenspaces of PSD ``h`` (kernel counts once)."""
    return len(_eigenspaces(_psd_eigensystem(_checked(h))[0]))


def phase_rotated_petz(sigma: np.ndarray, channel: Channel, phi, theta) -> RecoveryMap:
    """Petz map conjugated by eigenspace-phase unitaries of ``N(sigma)``
    (phases ``phi``, applied before) and of ``sigma`` (phases ``theta``,
    applied after).  Both unitaries commute with their operators by
    construction."""
    factory = _PetzFactory(_checked(sigma), channel)
    u_out = _phase_unitary(factory.m_sys, phi)
    u_in = _phase_unitary(factory.s_sys, theta)
    ops = u_in @ factory.kraus_stack([0.0])[0] @ u_out
    return RecoveryMap(
        "phase-rotated", ops, factory.sigma, channel, phases=(np.asarray(phi), np.asarray(theta))
    )


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
    flat = []
    for w, m in zip(weights, maps):
        if w == 0.0:
            continue
        flat.extend(np.sqrt(w) * k for k in m.kraus)
    nodes = None
    if all(m.kind in ("petz", "rotated") for m in maps):
        nodes = np.array([m.t for m in maps], dtype=float)
    return RecoveryMap(
        "mixture",
        flat,
        maps[0].sigma,
        maps[0].channel,
        nodes=nodes,
        weights=weights,
    )


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
