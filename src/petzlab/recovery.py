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


def alpha_theta_density(t, theta: float):
    """``sin(pi theta) / (2 (1-theta) (cosh(pi t) - cos(pi theta)))``."""
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must lie in (0, 1), got {theta}")
    t = np.asarray(t, dtype=float)
    return np.sin(np.pi * theta) / (
        2.0 * (1.0 - theta) * (np.cosh(np.pi * t) - np.cos(np.pi * theta))
    )


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


def beta_densities(t, theta: float = 0.0):
    """``beta0(t)`` for ``theta == 0``, else the pair ``(alpha_theta, beta_theta)``."""
    if theta == 0.0:
        return beta0_density(t)
    return alpha_theta_density(t, theta), beta_theta_density(t, theta)


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
        components=None,
        phases=None,
    ):
        super().__init__(kraus, mode="tni", atol=_TNI_TOL)
        self.kind = kind
        self.sigma = np.asarray(sigma, dtype=complex)
        self.channel = channel
        self.t = t
        self.nodes = None if nodes is None else np.asarray(nodes, dtype=float)
        self.weights = None if weights is None else np.asarray(weights, dtype=float)
        self._components = None if components is None else tuple(components)
        self.phases = phases

    # an entry of its own, so that tracing can wrap it apart from Channel.apply
    apply = Channel.apply

    @property
    def components(self):
        """Weighted parts of a mixture, or ``None`` for a single map.

        A universal map stores no components: its rotated maps, one per
        node, are rebuilt from the Kraus stack on each access.
        """
        if self._components is not None or self.kind != "mixture" or self.nodes is None:
            return self._components
        per_node = self.kraus.reshape(len(self.nodes), -1, self.dim_out, self.dim_in)
        return tuple(
            RecoveryMap("rotated", ops / np.sqrt(w), self.sigma, self.channel, t=t)
            for t, w, ops in zip(self.nodes, self.weights, per_node)
        )

    def apply_components(self, x: np.ndarray) -> np.ndarray:
        """Apply a mixture through its weighted components (for cross-checks)."""
        components = self.components
        if components is None:
            return self.apply(x)
        return sum(w * comp.apply(x) for w, comp in zip(self.weights, components))

    def as_channel(self) -> Channel:
        """The map itself, which already is a trace non-increasing channel."""
        return self


class _PetzFactory:
    """Eigensystems of ``sigma`` and ``N(sigma)`` shared by every rotated
    Petz map of the pair; builds their Kraus stacks.

    ``sigma`` is a complex matrix the caller has checked.
    """

    def __init__(self, sigma: np.ndarray, channel: Channel):
        if sigma.shape != (channel.dim_in, channel.dim_in):
            raise ValueError(
                f"sigma of shape {sigma.shape} does not match channel input "
                f"dimension {channel.dim_in}"
            )
        self.n_sigma = channel.apply(sigma)
        if float(np.trace(self.n_sigma).real) <= channel.dim_out * 1e-14:
            raise ValueError("channel output on sigma is numerically zero")
        self.s_spec = self._log_spectrum(sigma)
        self.m_spec = self._log_spectrum(self.n_sigma)
        self.kraus_dg = channel.kraus.conj().swapaxes(1, 2)

    @staticmethod
    def _log_spectrum(h):
        # everything _powers needs that does not depend on the exponent
        vals, vecs = _psd_eigensystem(h)
        pos = vals > 0.0
        return pos, np.log(vals[pos]), vecs

    @staticmethod
    def _powers(spec, exponents) -> np.ndarray:
        """``h**z`` on the support of ``h`` for every ``z``: a ``(T, d, d)`` stack."""
        pos, logs, vecs = spec
        f = np.zeros((len(exponents), len(pos)), dtype=complex)
        f[:, pos] = np.exp(np.multiply.outer(exponents, logs))
        # a real exponent (t = 0) takes the real exp, which may differ in
        # the last bit from the complex one
        real = exponents.imag == 0.0
        f[np.ix_(real, pos)] = np.exp(np.multiply.outer(exponents.real[real], logs))
        return _reconstruct(vecs, f)

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
            left = self._powers(self.s_spec, 0.5 - 1j * ts[block])
            right = self._powers(self.m_spec, -0.5 + 1j * ts[block])
            np.matmul(left[:, None] @ self.kraus_dg, right[:, None], out=out[block])
            if weights is not None:
                out[block] *= np.sqrt(weights[block])[:, None, None, None]
        return out


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
    factory = _PetzFactory(_checked(sigma), channel)
    return RecoveryMap("rotated", factory.kraus_stack([t])[0], sigma, channel, t=t)


def rotated_petz_family(sigma: np.ndarray, channel: Channel, ts):
    """Rotated Petz maps at each parameter in ``ts``, sharing one
    eigendecomposition of ``sigma`` and ``channel(sigma)``."""
    ts = np.asarray(ts, dtype=float)
    stack = _PetzFactory(_checked(sigma), channel).kraus_stack(ts)
    return [
        RecoveryMap("rotated", ops, sigma, channel, t=float(t)) for t, ops in zip(ts, stack)
    ]


def _universal(sigma: np.ndarray, channel: Channel, rule: QuadratureRule) -> RecoveryMap:
    """``universal_recovery`` of a matrix the caller checked or built."""
    nodes = rule.nodes / 2.0
    stack = _PetzFactory(sigma, channel).kraus_stack(nodes, rule.weights)
    return RecoveryMap(
        "mixture",
        stack.reshape(-1, channel.dim_in, channel.dim_out),
        sigma,
        channel,
        nodes=nodes,
        weights=rule.weights,
    )


def universal_recovery(sigma: np.ndarray, channel: Channel, rule: QuadratureRule) -> RecoveryMap:
    """Universal recovery map: the ``beta0``-weighted mixture of rotated
    Petz maps at half the node parameter.

    Depends only on ``sigma`` and the channel.  The one Kraus stack holds
    every node's operators scaled by the square root of its weight, node
    by node; ``components`` rebuilds the per-node maps from it on demand.
    """
    return _universal(_checked(sigma), channel, rule)


def _phase_unitary(h: np.ndarray, phases) -> np.ndarray:
    """``eigenspace_phase_unitary`` of a matrix the caller checked or built."""
    vecs, spaces = _eigenspaces(h)
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
    return _phase_unitary(_checked(h), phases)


def count_eigenspaces(h: np.ndarray) -> int:
    """Number of distinct eigenspaces of PSD ``h`` (kernel counts once)."""
    return len(_eigenspaces(_checked(h))[1])


def phase_rotated_petz(sigma: np.ndarray, channel: Channel, phi, theta) -> RecoveryMap:
    """Petz map conjugated by eigenspace-phase unitaries of ``N(sigma)``
    (phases ``phi``, applied before) and of ``sigma`` (phases ``theta``,
    applied after).  Both unitaries commute with their operators by
    construction."""
    sigma = _checked(sigma)
    factory = _PetzFactory(sigma, channel)
    u_out = _phase_unitary(factory.n_sigma, phi)
    u_in = _phase_unitary(sigma, theta)
    ops = u_in @ factory.kraus_stack([0.0])[0] @ u_out
    return RecoveryMap(
        "phase-rotated", ops, sigma, channel, phases=(np.asarray(phi), np.asarray(theta))
    )


def convex_mixture(maps, weights) -> RecoveryMap:
    """Convex combination of recovery maps sharing the same spaces."""
    maps = list(maps)
    if not maps:
        raise ValueError("mixture needs at least one component")
    weights = np.asarray(weights, dtype=float)
    if len(weights) != len(maps):
        raise ValueError("one weight per component required")
    if np.any(weights < 0) or abs(float(weights.sum()) - 1.0) > 1e-12:
        raise ValueError("weights must be nonnegative and sum to one")
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
        components=maps,
    )


__all__ = [
    "QuadratureRule",
    "RecoveryMap",
    "alpha_theta_density",
    "beta0_density",
    "beta0_quadrature",
    "beta_densities",
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
