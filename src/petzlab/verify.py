"""Inequality harness: remainder-term bounds, sweeps and studies.

Every report carries the left and right side of its inequality together
with the slack (left minus right); the slack is nonnegative up to
floating-point tolerance whenever the underlying theorem applies.
"""

from __future__ import annotations

import functools
import math
import numbers
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .channels import (
    Channel,
    _integers,
    partial_trace_channel,
    random_channel,
    random_density,
)
from .entropy import (
    _fidelity_measurement,
    _measured_lb,
    _projectors,
    _relative_entropy,
    _renyi_delta,
    _root_fidelities,
    _von_neumann,
    binary_entropy,
    fidelity,  # noqa: F401  bench/selftest.py checks that tracing restores verify.fidelity
)
from .linalg import _checked, _eigh, _psd_eigensystem, dagger, partial_trace
from .recovery import (
    QuadratureRule,
    RecoveryMap,
    _PetzFactory,
    _check_simplex,
    _unread_rule,
    beta0_density,
    beta_quadrature,
)


def _neg2log(x: float) -> float:
    if x <= 0.0:
        return float(np.inf)
    return -2.0 * float(np.log(x))


def _neg2log_mean(weights, fids) -> float:
    """``-2 sum_t w_t log F_t``, or ``inf`` when some fidelity vanishes."""
    if np.all(fids > 0.0):
        return float(-2.0 * np.dot(weights, np.log(fids)))
    return float(np.inf)


def _slack(lhs: float, rhs: float) -> float:
    # an infinite left side passes trivially; never returns NaN
    if np.isinf(lhs) and lhs > 0:
        return float(np.inf)
    return lhs - rhs


_TOLERANCE = 1e-8  # the default verdict tolerance: a slack below -tolerance is a violation


def _check_tolerance(tol) -> None:
    """Refuse a verdict tolerance that is not finite and nonnegative
    (``slack < -nan`` is never true, so a NaN would pass every check)."""
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tolerance must be finite and nonnegative, got {tol}")


# ---------------------------------------------------------------------------
# data processing inequality
# ---------------------------------------------------------------------------

@dataclass
class DpiReport:
    """Both sides of the remainder-term data processing inequality.

    ``lhs`` is the relative entropy difference; ``rhs_mixture`` uses the
    fidelity with the exact universal map, ``rhs_strong`` averages the
    per-node log-fidelities of the rule (never smaller than ``rhs_mixture``
    up to rounding and the rule's error, by concavity).

    ``exploratory_relative_entropy``, ``D(rho || recovered_state)``, is
    deprecated: no proven bound uses it.  It is computed only when read,
    and each read raises one ``DeprecationWarning``.
    """

    lhs: float
    rhs_mixture: float
    rhs_strong: float
    slack_mixture: float
    slack_strong: float
    per_node_fidelities: np.ndarray
    recovered_state: np.ndarray
    support_violated: bool
    _rho: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def exploratory_relative_entropy(self) -> float:
        """Deprecated: ``D(rho || recovered_state)``, which no proven bound uses."""
        warnings.warn("DpiReport.exploratory_relative_entropy is deprecated: no proven "
                      "bound uses it", DeprecationWarning, stacklevel=2)
        return _relative_entropy(self._rho, _psd_eigensystem(self.recovered_state))


def dpi_remainder(
    rho: np.ndarray,
    sigma: np.ndarray,
    channel: Channel,
    rule: QuadratureRule,
) -> DpiReport:
    """Evaluate the universal-recovery remainder bound on one instance.

    ``rhs_mixture`` and ``recovered_state`` read the exact universal map, in
    closed form; ``rhs_strong`` and ``per_node_fidelities`` read the rotated
    Petz maps at the nodes of ``rule``.
    """
    rho = _checked(rho)
    pair = _PetzFactory(_checked(sigma), channel)
    d_in, gap, fids, universal = _dpi(rho, pair, rule.nodes / 2.0)
    lhs, rhs_mixture = float(gap), _neg2log(float(fids[-1]))
    rhs_strong = _neg2log_mean(rule.weights, fids[:-1])
    rec = pair.s_sys[1] @ universal @ dagger(pair.s_sys[1])
    return DpiReport(
        lhs=lhs,
        rhs_mixture=rhs_mixture,
        rhs_strong=rhs_strong,
        slack_mixture=_slack(lhs, rhs_mixture),
        slack_strong=_slack(lhs, rhs_strong),
        per_node_fidelities=fids[:-1],
        recovered_state=rec,
        support_violated=d_in == np.inf,
        _rho=rho,
    )


def _dpi(rho, pair: _PetzFactory, ts=()):
    """The remainder kernel of the DPI family: ``(D(rho || sigma), gap, fids,
    universal)`` for a checked state ``rho`` or an ``(S, d, d)`` stack and the
    reference pair ``pair``.

    ``gap`` is ``D(rho || sigma) - D(N(rho) || N(sigma))``, ``inf`` exactly where
    ``rho`` leaves the support of ``sigma``.  ``fids`` holds, along its last
    axis, the root fidelities of ``rho`` with ``R_t(N(rho))`` at every ``t`` of
    the node array ``ts``, which may be empty (the default), and then with
    the exact universal map's ``R(N(rho))``; ``universal`` is that state in
    the eigenbasis of ``sigma``.  With no nodes, no node phase is computed.
    """
    out = pair.channel.apply(rho)
    z = pair._rotate_input(out)
    universal = pair._universal(z)
    # the recovered states are in sigma's eigenbasis, and so is this root of
    # rho: one stacked fidelity call for every state and node
    recs = universal[..., None, :, :]
    if len(ts):
        recs = np.concatenate([pair._recovered(ts, z), recs], axis=-3)
    vals, vecs = _psd_eigensystem(rho)
    fids = _root_fidelities((vals[..., None, :], (dagger(pair.s_sys[1]) @ vecs)[..., None, :, :]),
                            recs)
    d_in = _relative_entropy(rho, pair.s_sys, vals)
    # the relative entropy is infinite exactly when the support check fails
    with np.errstate(invalid="ignore"):  # inf - inf off the support
        gap = np.where(d_in == np.inf, np.inf, d_in - _relative_entropy(out, pair.m_sys))
    return d_in, gap, fids, universal


@dataclass
class AlphaBoundResult:
    alpha: float
    lhs: float
    rhs: float
    slack: float


def alpha_bound_check(
    rho: np.ndarray,
    sigma: np.ndarray,
    channel: Channel,
    alphas,
    rule: QuadratureRule,
) -> list[AlphaBoundResult]:
    """Renyi-difference lower bounds at finite ``alpha``.

    For ``alpha`` in ``(1/2, 1)`` this compares the Renyi difference with
    the ``beta_theta``-averaged log-fidelity of rotated recovery at half
    the node parameter, ``theta = (1 - alpha)/alpha``; at ``alpha = 1/2``
    exactly, it checks the identity with the Petz-recovery fidelity.  The
    ``beta_theta`` rules use a denser grid than ``rule`` because that
    density has poles closer to the real axis.
    """
    rho = _checked(rho)
    pair = _PetzFactory(_checked(sigma), channel)
    alphas = [float(alpha) for alpha in alphas]
    if not all(0.5 <= alpha < 1.0 for alpha in alphas):
        raise ValueError(f"every alpha must lie in [1/2, 1), got {alphas}")
    out_rho = channel.apply(rho)
    vals, vecs = rho_sys = _psd_eigensystem(rho)
    # the recovered states are in sigma's eigenbasis, and so is this root of rho
    rotated = (vals, dagger(pair.s_sys[1]) @ vecs)

    def fidelities(ts):
        return _root_fidelities(rotated, pair.recovered(ts, out_rho))

    # each node is recovered once: t = 0 for alpha = 1/2, and one grid for the
    # rest, since the beta_theta rules of one size differ only in their weights
    theta_rules = {alpha: beta_quadrature(2 * len(rule) - 1, (1.0 - alpha) / alpha)
                   for alpha in alphas if alpha != 0.5}
    grid = fidelities(next(iter(theta_rules.values())).nodes / 2.0) if theta_rules else None
    petz_fid = fidelities(np.zeros(1)) if 0.5 in alphas else None
    results = []
    for alpha, lhs in zip(alphas, _renyi_delta(rho, rho_sys, out_rho, pair, alphas)):
        if alpha == 0.5:
            rhs = _neg2log_mean(np.ones(1), petz_fid)
        else:
            rhs = _neg2log_mean(theta_rules[alpha].weights, grid)
        results.append(AlphaBoundResult(alpha=alpha, lhs=lhs, rhs=rhs, slack=_slack(lhs, rhs)))
    return results


# ---------------------------------------------------------------------------
# entropy-inequality corollaries
# ---------------------------------------------------------------------------

# Largest total dimension D whose partial-trace channel is cached: a channel
# holds D**2 complex entries, 64 kB at D = 64, so the 32 kept shapes stay
# under 2 MB; a larger shape is built on each call.
_CACHED_TRACE_DIM = 64


def _trace_channel(dims: tuple, keep: tuple) -> Channel:
    """``partial_trace_channel`` of the integer tuples ``dims`` and ``keep``
    for the corollaries below; up to ``_CACHED_TRACE_DIM`` it is built and
    validated once per shape and shared, so its Kraus array is read-only."""
    if math.prod(dims) > _CACHED_TRACE_DIM:
        return partial_trace_channel(dims, keep)
    return _cached_trace_channel(dims, keep)


@functools.lru_cache(maxsize=32)
def _cached_trace_channel(dims: tuple, keep: tuple) -> Channel:
    channel = partial_trace_channel(dims, keep)
    channel.kraus.flags.writeable = False
    return channel


@dataclass
class SsaReport:
    cmi: float
    rhs: float
    slack: float
    recovered_fidelity: float
    recovered_state: np.ndarray


def ssa_remainder(rho_abc: np.ndarray, dims, rule: QuadratureRule | None = None) -> SsaReport:
    """Strong subadditivity with a recovery remainder.

    Rebuilds the C part of a tripartite state from its B part alone with
    the exact universal map of ``(rho_BC, tr_C)`` and compares ``I(A:C|B)``
    against ``-2 log F`` of the reconstruction.

    ``rule`` is deprecated: the map is exact, so a rule is not read, and
    passing one raises a ``DeprecationWarning``.
    """
    _unread_rule(rule, "ssa_remainder")
    da, db, dc = _integers(dims, "dims")
    rho_abc = np.asarray(rho_abc, dtype=complex)
    rho_ab = partial_trace(rho_abc, (da, db, dc), keep=(0, 1))
    rho_bc = partial_trace(rho_abc, (da, db, dc), keep=(1, 2))
    abc_sys = _psd_eigensystem(_checked(rho_abc))
    # the pair's eigensystems are those of rho_BC and rho_B = tr_C rho_BC
    pair = _PetzFactory(rho_bc, _trace_channel((db, dc), (0,)))
    cmi = (_von_neumann(_psd_eigensystem(rho_ab)[0]) + _von_neumann(pair.s_sys[0])
           - _von_neumann(abc_sys[0]) - _von_neumann(pair.m_sys[0]))

    # id_A (x) R acts on each B block (a, a') of rho_AB
    blocks = rho_ab.reshape(da, db, da, db).swapaxes(1, 2)
    rec = pair.universal_apply(blocks).swapaxes(1, 2).reshape(rho_abc.shape)
    f = float(_root_fidelities(abc_sys, rec[None])[0])
    rhs = _neg2log(f)
    return SsaReport(cmi=cmi, rhs=rhs, slack=_slack(cmi, rhs), recovered_fidelity=f,
                     recovered_state=rec)


@dataclass
class EnsembleReport:
    lhs: float
    rhs: float
    slack: float
    member_fidelities: np.ndarray
    support_flags: tuple = ()


def _members(states, dims=None) -> np.ndarray:
    """Checked ensemble members as one stack, each of dimension ``prod(dims)``."""
    states = [_checked(s) for s in states]
    dims = states[0].shape[:1] if dims is None else dims
    size = int(np.prod(dims))
    if any(s.shape != (size, size) for s in states):
        raise ValueError(f"dims {dims} do not match member shapes {[s.shape for s in states]}")
    return np.array(states)


def concavity_remainder(ensemble, dims, rule: QuadratureRule | None = None) -> EnsembleReport:
    """Concavity of the conditional entropy with a recovery remainder.

    ``ensemble`` is a sequence of ``(weight, rho_AB)`` pairs on the space
    with factor dimensions ``dims = (dA, dB)``.  Each member's A part is
    rebuilt from its B marginal with the exact universal map of the average
    state, ``(rho_bar_AB, tr_A)``.

    ``rule`` is deprecated: the map is exact, so a rule is not read, and
    passing one raises a ``DeprecationWarning``.
    """
    _unread_rule(rule, "concavity_remainder")
    da, db = _integers(dims, "dims")
    weights = _check_simplex([w for w, _ in ensemble])
    states = _members([s for _, s in ensemble], (da, db))
    # the pair's eigensystems are those of the average and its B marginal
    avg = np.tensordot(weights, states, axes=1)
    pair = _PetzFactory(avg, _trace_channel((da, db), (1,)))
    states_sys = _psd_eigensystem(states)
    marginals = partial_trace(states, (da, db), keep=(1,))
    cond = _von_neumann(states_sys[0]) - _von_neumann(_psd_eigensystem(marginals)[0])
    lhs = _von_neumann(pair.s_sys[0]) - _von_neumann(pair.m_sys[0]) - float(np.dot(weights, cond))

    fids = _root_fidelities(states_sys, pair.universal_apply(marginals))
    rhs = _neg2log(float(np.dot(weights, fids)))
    return EnsembleReport(lhs=lhs, rhs=rhs, slack=_slack(lhs, rhs), member_fidelities=fids)


def joint_convexity_remainder(ensemble, rule: QuadratureRule | None = None) -> EnsembleReport:
    """Joint convexity of the relative entropy with a recovery remainder.

    ``ensemble`` is a sequence of ``(weight, rho_x, sigma_x)`` triples on a
    common space.  The classical label is embedded as a block index, the
    exact universal map of ``(sigma_XA, tr_X)`` re-inflates the averaged
    state, and the remainder compares against the fidelity with the labeled
    state.  That map is block diagonal, so the fidelity is the weighted sum
    of the member fidelities ``F(rho_x, rec_x / w_x)``.

    ``rule`` is deprecated: the map is exact, so a rule is not read, and
    passing one raises a ``DeprecationWarning``.
    """
    _unread_rule(rule, "joint_convexity_remainder")
    weights = _check_simplex([w for w, _, _ in ensemble])
    rhos = _members([r for _, r, _ in ensemble])
    sigmas = _members([s for _, _, s in ensemble], rhos.shape[1:2])
    nx, dim = rhos.shape[:2]
    rho_sys, sigma_sys = _psd_eigensystem(rhos), _psd_eigensystem(sigmas)

    # a member's relative entropy is infinite exactly when its support check fails
    member_d = _relative_entropy(rhos, sigma_sys, rho_sys[0])
    flags = tuple((member_d == np.inf).tolist())
    sigma_xa = np.zeros((nx, dim, nx, dim), dtype=complex)
    sigma_xa[np.arange(nx), :, np.arange(nx)] = weights[:, None, None] * sigmas
    # the pair's N(sigma_XA) is the average of the sigma_x
    trace_x = _trace_channel((nx, dim), (1,))
    pair = _PetzFactory(sigma_xa.reshape(nx * dim, -1), trace_x)
    rho_avg = np.tensordot(weights, rhos, axes=1)
    # as in _dpi: infinite exactly when a member of positive weight leaves its
    # support, and a member of zero weight adds nothing (not 0 * inf = NaN)
    live = weights > 0.0
    if np.any(member_d[live] == np.inf):
        lhs = float(np.inf)
    else:
        lhs = float(np.dot(weights[live], member_d[live])) - _relative_entropy(rho_avg, pair.m_sys)

    rec = pair.universal_apply(rho_avg).reshape(nx, dim, nx, dim)
    member_fids = np.full(nx, np.nan)
    member_fids[live] = _root_fidelities(
        (rho_sys[0][live], rho_sys[1][live]),
        rec[np.arange(nx), :, np.arange(nx)][live] / weights[live, None, None],
    )
    rhs = _neg2log(float(np.dot(weights[live], member_fids[live])))
    return EnsembleReport(
        lhs=lhs,
        rhs=rhs,
        slack=_slack(lhs, rhs),
        member_fidelities=member_fids,
        support_flags=flags,
    )


# ---------------------------------------------------------------------------
# approximate quantum error correction
# ---------------------------------------------------------------------------

@dataclass
class QecReport:
    """Sampled forward and converse bounds for a codespace under noise."""

    dim_code: int
    sampled_max_gap: float
    min_recovered_fidelity: float
    forward_bound: float
    converse_bound: float
    forward_ok: bool
    converse_ok: bool
    gaps: np.ndarray
    fidelities: np.ndarray


def qec_analyze(
    projector: np.ndarray,
    channel: Channel,
    samples: int,
    *,
    seed=0,
    tol: float = _TOLERANCE,
) -> QecReport:
    """Approximate error correction diagnostics for a codespace.

    Samples codespace states (alternating full-rank and pure), records the
    distinguishability gap ``D(rho||Pi) - D(N(rho)||N(Pi))`` and the
    fidelity of the exact universal recovery, both from one call of the DPI
    remainder kernel on the sample stack (the fidelities taken in the
    eigenbasis of ``Pi``), and evaluates the forward
    bound ``F >= 1 - gap_max/2`` and the converse entropy-continuity bound,
    each judged with the finite, nonnegative tolerance ``tol``.
    """
    _check_tolerance(tol)
    if samples < 0:
        raise ValueError(f"samples must be nonnegative, got {samples}")
    pi = _checked(projector)
    idem = float(np.linalg.norm(pi @ pi - pi, 2))
    if idem > 1e-8:
        raise ValueError(f"input is not a projector: ||P^2 - P|| = {idem:.3e}")
    dim_code = int(round(float(np.trace(pi).real)))
    if dim_code < 1:
        raise ValueError("codespace is empty")
    pair = _PetzFactory(pi, channel)
    isometry = pair.s_sys[1][:, :dim_code]

    seeds = np.random.SeedSequence(seed).spawn(max(samples, 1))
    rhos = []
    for i in range(samples):
        if dim_code == 1:
            small = np.array([[1.0 + 0.0j]])
        elif i % 2 == 1:
            small = random_density(dim_code, seeds[i], ensemble="rank-k", rank=1)
        else:
            small = random_density(dim_code, seeds[i])
        rhos.append(isometry @ small @ dagger(isometry))
    rhos = np.reshape(rhos, (samples,) + pi.shape)
    _, gaps, fids, _ = _dpi(rhos, pair)
    fids = fids[:, -1]

    max_gap = float(np.max(gaps, initial=0.0))
    min_fid = float(np.min(fids, initial=1.0))
    forward_bound = 1.0 - max_gap / 2.0
    eps_conv = min(max(2.0 * (1.0 - min_fid), 0.0), 1.0)
    root = math.sqrt(eps_conv)
    converse_bound = root * math.log(dim_code) + binary_entropy(root)
    return QecReport(
        dim_code=dim_code,
        sampled_max_gap=max_gap,
        min_recovered_fidelity=min_fid,
        forward_bound=forward_bound,
        converse_bound=converse_bound,
        forward_ok=bool(min_fid >= forward_bound - tol),
        converse_ok=bool(max_gap <= converse_bound + tol),
        gaps=gaps,
        fidelities=fids,
    )


# ---------------------------------------------------------------------------
# finite-set recovery search
# ---------------------------------------------------------------------------

def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, len(v) + 1)
    cond = u - css / idx > 0
    rho_idx = int(np.nonzero(cond)[0][-1])
    theta = css[rho_idx] / (rho_idx + 1)
    return np.clip(v - theta, 0.0, None)


@dataclass
class SearchResult:
    recovery: RecoveryMap
    min_slack: float
    weights: np.ndarray
    t_grid: np.ndarray


def finite_set_recovery_search(
    states,
    sigma: np.ndarray,
    channel: Channel,
    t_grid,
    iterations: int = 60,
) -> SearchResult:
    """Best-effort search for a single map protecting a finite set of states.

    Maximizes, over convex mixtures of rotated Petz maps on ``t_grid``, the
    minimum over the states of the measured-entropy slack
    ``D(rho||sigma) - D(N(rho)||N(sigma)) - KL(p || q)`` where the outcome
    distributions come from the fidelity-achieving measurement of the pair
    ``(rho, recovered)``.  Deterministic projected supergradient ascent on
    the simplex; no optimality guarantee.

    Each of the ``iterations`` steps (a nonnegative integer) tries three
    step sizes ``eta, eta/4, eta/16`` from a forward-difference gradient
    and takes the first that improves the worst slack.  A step that fails
    divides ``eta`` by 4 and leaves the point, its gradient and the two
    smaller candidates as they were, so the next step evaluates only its
    new smallest candidate; the search stops once ``eta < 1e-4``.  A
    one-node ``t_grid`` is a single point, so the search returns its start.
    """
    if not isinstance(iterations, numbers.Integral) or iterations < 0:
        raise ValueError(f"iterations must be a nonnegative integer, got {iterations!r}")
    states = [_checked(s) for s in states]
    if not states:
        raise ValueError("need at least one state")
    sigma = _checked(sigma)
    if any(s.shape != sigma.shape for s in states):
        raise ValueError(f"every state must have the shape of sigma, {sigma.shape}")
    states = np.array(states)
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or not t_grid.size or not np.all(np.isfinite(t_grid)):
        raise ValueError(f"t_grid must be a non-empty 1-d array of finite values, got {t_grid}")
    pair = _PetzFactory(sigma, channel)
    d_in = _relative_entropy(states, pair.s_sys)
    outside = d_in == np.inf  # exactly when the support check fails
    if outside.any():
        raise ValueError(f"state {outside.argmax()} is not supported inside sigma")

    outs = channel.apply(states)
    gaps = d_in - _relative_entropy(outs, pair.m_sys)
    # recs[x, j] = R_j(N(state_x)) in sigma's eigenbasis, flattened; the
    # slacks are unitarily invariant, so the states are rotated there too
    recs = pair.recovered(t_grid, outs).reshape(len(states), len(t_grid), -1)
    rhos = dagger(pair.s_sys[1]) @ states @ pair.s_sys[1]
    all_states = np.arange(len(states))

    def slacks(weights: np.ndarray, x) -> np.ndarray:
        """``(P, X)`` slacks of the states indexed by ``x`` under the
        mixtures of a ``(P, T)`` weight stack, from one stacked kernel call."""
        # the library builds the mixtures and the projective POVMs, so none
        # is checked; each mixture is its own (1, T) @ (T, d*d) product, so
        # it rounds the same in any stack, where a 2-D product would not
        mix = np.matmul(weights[:, None, None, :], recs[x]).reshape(
            (len(weights), len(x)) + sigma.shape
        )
        povm = _projectors(_fidelity_measurement(rhos[x], mix))
        return gaps[x] - _measured_lb(rhos[x], mix, povm)

    def objective(weights: np.ndarray):
        """The worst-case slack of each row of a ``(P, T)`` weight stack,
        and the state that attains it."""
        rows = slacks(weights, all_states)
        worst = np.argmin(rows, axis=1)
        return rows[np.arange(len(rows)), worst], worst

    starts = []
    dens = beta0_density(t_grid)
    if float(dens.sum()) > 0:
        starts.append(dens / dens.sum())
    starts.append(np.full(len(t_grid), 1.0 / len(t_grid)))
    starts.extend(np.eye(len(t_grid)))  # pure grid nodes
    starts = np.array(starts)
    values, worst = objective(starts)
    # the first start within rounding of the best, so ties do not jump between starts
    b = int(np.argmax(values >= np.max(values) - 1e-14))
    # the loop moves only on a strict gain, so w is always the best point seen
    w, f_cur, active = starts[b], float(values[b]), int(worst[b])
    step = 0.5
    delta = 1e-4
    diagonal = np.diag_indices(len(t_grid))
    grad = None
    # one node leaves a single point on the simplex: nothing to search
    for _ in range(iterations if len(t_grid) > 1 else 0):
        if grad is None:
            probes = np.tile(w, (len(t_grid), 1))
            probes[diagonal] += delta
            probes /= probes.sum(axis=1, keepdims=True)
            grad = (slacks(probes, [active])[:, 0] - f_cur) / delta
            # the line-search candidates are evaluated together; the first
            # improving one is taken
            etas = (step, step / 4.0, step / 16.0)
        else:
            # a failed step left w, and so grad, as they were: its two smaller
            # candidates are this step's two larger ones, and did not improve
            etas = (step / 16.0,)
        cands = np.array([_project_simplex(w + eta * grad) for eta in etas])
        values, worst = objective(cands)
        better = np.flatnonzero(values > f_cur + 1e-14)
        if better.size:
            k = better[0]
            w, f_cur, active = cands[k], float(values[k]), int(worst[k])
            grad = None
        else:
            step /= 4.0
            if step < 1e-4:
                break

    # the mixture's Kraus stack: each node's operators scaled by sqrt(w)
    keep = w != 0.0
    ops = pair.kraus_stack(t_grid[keep]) * np.sqrt(w[keep])[:, None, None, None]
    mixture = pair.recovery_map("mixture", np.concatenate(ops), nodes=t_grid, weights=w)
    return SearchResult(recovery=mixture, min_slack=f_cur, weights=w, t_grid=t_grid)


# ---------------------------------------------------------------------------
# truncation convergence study
# ---------------------------------------------------------------------------

@dataclass
class TruncationReport:
    ks: tuple
    truncated_relative_entropies: np.ndarray
    entropy_differences: np.ndarray
    slacks: np.ndarray
    full_relative_entropy: float
    monotone_ok: bool
    final_delta: float


def truncation_convergence(
    rho: np.ndarray,
    sigma: np.ndarray,
    channel: Channel,
    k_list,
    *,
    reference: np.ndarray | None = None,
) -> TruncationReport:
    """Finite-rank compression study of a relative entropy pair.

    Both operators are compressed by one common projector family (the
    leading eigenspaces of ``reference``, by default ``sigma``); the
    compressed relative entropy never exceeds the full one and converges
    to it as the rank reaches the dimension.

    The compressed states are subnormalized, so the per-rank remainder
    slacks are convergence diagnostics: they approach the true slack as
    the rank grows but carry no sign guarantee at intermediate ranks.
    They read the exact universal map, and no per-node state is built.
    """
    rho = _checked(rho)
    dim = rho.shape[0]
    ks = _integers(k_list, "k_list")
    if not ks or any(k < 1 or k > dim for k in ks) or list(ks) != sorted(set(ks)):
        raise ValueError(f"k_list must be strictly increasing within [1, {dim}]")
    sigma = _checked(sigma)
    s_sys = _psd_eigensystem(sigma)
    vecs = s_sys[1] if reference is None else _eigh(_checked(reference))[1]

    d_full = _relative_entropy(rho, s_sys)
    d_trunc, gaps, slacks = [], [], []
    for k in ks:
        cols = vecs[:, :k]
        pi = cols @ dagger(cols)
        rho_k = pi @ rho @ pi
        pair = _PetzFactory(pi @ sigma @ pi, channel)
        d_k, gap, fids, _ = _dpi(rho_k, pair)
        d_trunc.append(d_k)
        gaps.append(float(gap))
        slacks.append(_slack(float(gap), _neg2log(float(fids[-1]))))
    d_trunc = np.array(d_trunc)
    return TruncationReport(
        ks=ks,
        truncated_relative_entropies=d_trunc,
        entropy_differences=np.array(gaps),
        slacks=np.array(slacks),
        full_relative_entropy=d_full,
        monotone_ok=bool(np.all(d_trunc <= d_full + 1e-9)),
        # 0, not NaN, when both are infinite (rho has mass outside sigma's support)
        final_delta=0.0 if d_trunc[-1] == d_full else float(abs(d_trunc[-1] - d_full)),
    )


# ---------------------------------------------------------------------------
# seeded sweep
# ---------------------------------------------------------------------------

MAX_CONDITION = 1e8  # sweeps redraw any reference state less well conditioned


@dataclass
class SweepConfig:
    """Configuration of a randomized verification sweep."""

    seed: int = 0
    count: int = 100
    dims: tuple = (2, 5)
    env_max: int = 4
    nodes: int = 129  # the DPI kind's rhs_strong rule, at least 3; the other kinds ignore it
    tolerance: float = _TOLERANCE  # finite and nonnegative
    kind: str = "dpi"  # a key of SWEEP_KINDS
    include_timings: bool = False

    def __post_init__(self):
        for name in ("seed", "count", "env_max", "nodes"):
            (value,) = _integers([getattr(self, name)], name)
            setattr(self, name, value)
        self.dims = _integers(self.dims, "dims")
        lo, hi = self.dims
        if self.count < 0 or lo < 1 or hi < lo or (self.kind == "dpi" and self.nodes < 3):
            raise ValueError("invalid sweep configuration")
        _check_tolerance(self.tolerance)
        if self.kind not in SWEEP_KINDS:
            raise ValueError(f"unknown sweep kind {self.kind!r}")


@dataclass
class SweepResult:
    config: SweepConfig
    rows: list
    summary: dict
    ok: bool


def _well_conditioned_density(dim: int, rng):
    """Full-rank random state below ``MAX_CONDITION``; counts regenerations."""
    for regen in range(1000):
        rho = random_density(dim, rng)
        vals = np.linalg.eigvalsh(rho)
        if vals[0] > 0.0 and vals[-1] / vals[0] <= MAX_CONDITION:
            return rho, regen
    raise RuntimeError(
        f"could not draw a dim-{dim} state with condition below {MAX_CONDITION}"
    )


def _random_dpi_instance(rng, dims, env_max: int):
    """Seeded ``(rho, sigma, channel, regenerations)`` for the DPI checks.

    ``rng`` is a seed or a generator; dimensions are drawn from the range
    ``dims = (lo, hi)`` and ``sigma`` is redrawn above ``MAX_CONDITION``.
    """
    rng = np.random.default_rng(rng)
    lo, hi = dims
    dim_in = int(rng.integers(lo, hi + 1))
    dim_out = int(rng.integers(lo, hi + 1))
    env_lo = max(1, -(-dim_in // dim_out))
    env = int(rng.integers(env_lo, max(env_lo, env_max) + 1))
    sigma, regen = _well_conditioned_density(dim_in, rng)
    rho = random_density(dim_in, rng)
    return rho, sigma, random_channel(dim_in, dim_out, env, rng), regen


def _small_factors(rng, dims, n: int) -> tuple:
    """``n`` tensor factor dimensions drawn from ``dims = (lo, hi)`` capped at 3."""
    lo, hi = dims
    return tuple(int(rng.integers(lo, max(lo, min(hi, 3)) + 1)) for _ in range(n))


def _dpi_row(rep: DpiReport, channel: Channel) -> dict:
    """The report columns of one DPI instance."""
    return dict(
        dim_in=channel.dim_in, dim_out=channel.dim_out, env_dim=channel.num_kraus,
        lhs=rep.lhs, rhs_strong=rep.rhs_strong, rhs_mixture=rep.rhs_mixture,
        slack_mixture=rep.slack_mixture, slack_strong=rep.slack_strong,
        slack=min(rep.slack_mixture, rep.slack_strong),
    )


def _ssa_row(rep: SsaReport, dims) -> dict:
    """The report columns of one strong subadditivity instance."""
    da, db, dc = dims
    return dict(dim_a=da, dim_b=db, dim_c=dc, lhs=rep.cmi, rhs=rep.rhs, slack=rep.slack)


def _ensemble_row(rep: EnsembleReport, **dims) -> dict:
    """The report columns of one concavity or joint convexity instance."""
    return dict(**dims, lhs=rep.lhs, rhs=rep.rhs, slack=rep.slack)


# Each sweep kind draws one instance from ``rng`` and checks it:
# ``(rng, config) -> (row, regenerations)``.  The DPI kind, the one that
# integrates over nodes, also takes the rule of ``config.nodes``.

def _sweep_dpi(rng, config: SweepConfig, rule: QuadratureRule):
    rho, sigma, chan, regen = _random_dpi_instance(rng, config.dims, config.env_max)
    return _dpi_row(dpi_remainder(rho, sigma, chan, rule), chan), regen


def _sweep_ssa(rng, config: SweepConfig):
    dims = _small_factors(rng, config.dims, 3)
    rho_abc = random_density(int(np.prod(dims)), rng)
    return _ssa_row(ssa_remainder(rho_abc, dims), dims), 0


def _sweep_concavity(rng, config: SweepConfig):
    da, db = _small_factors(rng, config.dims, 2)
    size = int(rng.integers(2, 4))
    w = rng.dirichlet(np.ones(size))
    members = [(w[x], random_density(da * db, rng)) for x in range(size)]
    rep = concavity_remainder(members, (da, db))
    return _ensemble_row(rep, dim_a=da, dim_b=db, size=size), 0


def _sweep_joint_convexity(rng, config: SweepConfig):
    lo, hi = config.dims
    dim = int(rng.integers(lo, hi + 1))
    size = int(rng.integers(2, 4))
    w = rng.dirichlet(np.ones(size))
    members = []
    regenerated = 0
    for x in range(size):
        s, regen = _well_conditioned_density(dim, rng)
        regenerated += regen
        members.append((w[x], random_density(dim, rng), s))
    rep = joint_convexity_remainder(members)
    return _ensemble_row(rep, dim=dim, size=size), regenerated


SWEEP_KINDS = {
    "dpi": _sweep_dpi,
    "ssa": _sweep_ssa,
    "concavity": _sweep_concavity,
    "joint-convexity": _sweep_joint_convexity,
}


def sweep(config: SweepConfig) -> SweepResult:
    """Run ``config.count`` seeded random instances of one inequality.

    All randomness descends from the root seed through per-instance
    spawned seed sequences, so reruns reproduce every row exactly.
    """
    check = SWEEP_KINDS[config.kind]
    if check is _sweep_dpi:
        check = functools.partial(_sweep_dpi, rule=beta_quadrature(config.nodes))
    children = np.random.SeedSequence(config.seed).spawn(max(config.count, 1))
    rows = []
    regenerated = 0
    for i in range(config.count):
        rng = np.random.default_rng(children[i])
        t0 = time.perf_counter()
        columns, regen = check(rng, config)
        regenerated += regen
        row = {"instance": i, "seed": config.seed, **columns}
        if config.include_timings:
            row["wall_time"] = time.perf_counter() - t0
        rows.append(row)

    from . import __version__

    slacks = np.array([r["slack"] for r in rows]) if rows else np.zeros(0)
    finite = slacks[np.isfinite(slacks)]
    summary = {
        "version": __version__,
        "kind": config.kind,
        "seed": config.seed,
        "count": config.count,
        "nodes": config.nodes,
        "tolerance": config.tolerance,
        "regenerated": regenerated,
        "min_slack": float(np.min(finite)) if finite.size else None,
        "mean_slack": float(np.mean(finite)) if finite.size else None,
        "violations": int(np.sum(slacks < -config.tolerance)),
    }
    ok = summary["violations"] == 0
    return SweepResult(config=config, rows=rows, summary=summary, ok=ok)


__all__ = [
    "AlphaBoundResult",
    "DpiReport",
    "EnsembleReport",
    "QecReport",
    "SWEEP_KINDS",
    "SearchResult",
    "SsaReport",
    "SweepConfig",
    "SweepResult",
    "TruncationReport",
    "alpha_bound_check",
    "concavity_remainder",
    "dpi_remainder",
    "finite_set_recovery_search",
    "joint_convexity_remainder",
    "qec_analyze",
    "ssa_remainder",
    "sweep",
    "truncation_convergence",
]
