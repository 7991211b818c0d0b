"""Inequality harness: remainder-term bounds, sweeps and studies.

Every report carries the left and right side of its inequality together
with the slack (left minus right); the slack is nonnegative up to
floating-point tolerance whenever the underlying theorem applies.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .channels import (
    Channel,
    partial_trace_channel,
    random_channel,
    random_density,
)
from .entropy import (
    _fidelity_measurement,
    _measured_lb,
    _relative_entropy,
    _renyi_delta,
    _root_fidelities,
    _von_neumann,
    binary_entropy,
    conditional_mutual_information,
    fidelity,  # noqa: F401  bench/selftest.py checks that tracing restores verify.fidelity
)
from .linalg import _checked, eig_hermitian, dagger, partial_trace
from .recovery import (
    QuadratureRule,
    RecoveryMap,
    _PetzFactory,
    _universal,
    beta0_density,
    beta_quadrature,
    convex_mixture,
    rotated_petz_family,
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


def _apply_each(kraus: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Every map of a ``(T, k, m, n)`` Kraus stack applied to ``x``.

    ``x`` is one ``(n, n)`` input, giving a ``(T, m, m)`` stack, or a
    ``(S, n, n)`` stack of inputs, giving ``(S, T, m, m)``.
    """
    x = x.reshape(x.shape[:-2] + (1, 1) + x.shape[-2:])
    return (kraus @ x @ kraus.conj().swapaxes(-1, -2)).sum(axis=-3)


def _slack(lhs: float, rhs: float) -> float:
    # an infinite left side passes trivially; never returns NaN
    if np.isinf(lhs) and lhs > 0:
        return float(np.inf)
    return lhs - rhs


# ---------------------------------------------------------------------------
# data processing inequality
# ---------------------------------------------------------------------------

@dataclass
class DpiReport:
    """Both sides of the remainder-term data processing inequality.

    ``lhs`` is the relative entropy difference; ``rhs_mixture`` uses the
    fidelity with the mixed universal map, ``rhs_strong`` averages the
    per-node log-fidelities (never smaller than ``rhs_mixture`` up to
    rounding, by concavity).  ``exploratory_relative_entropy`` is
    ``D(rho || recovered)``, reported as data only; no proven bound uses it.
    """

    lhs: float
    rhs_mixture: float
    rhs_strong: float
    slack_mixture: float
    slack_strong: float
    per_node_fidelities: np.ndarray
    recovered_state: np.ndarray
    exploratory_relative_entropy: float
    support_violated: bool


def dpi_remainder(
    rho: np.ndarray,
    sigma: np.ndarray,
    channel: Channel,
    rule: QuadratureRule,
) -> DpiReport:
    """Evaluate the universal-recovery remainder bound on one instance."""
    return _dpi(_checked(rho), _checked(sigma), channel, rule)[0]


def _dpi(rho, sigma, channel: Channel, rule: QuadratureRule):
    """``dpi_remainder`` on checked input, with ``D(rho || sigma)``."""
    factory = _PetzFactory(sigma, channel)
    out_rho = channel.apply(rho)

    # w_t R_t(N(rho)) for every node t, from the universal map's Kraus stack
    weighted = _apply_each(factory.kraus_stack(rule.nodes / 2.0, rule.weights), out_rho)
    mixture_rec = weighted.sum(axis=0)
    # the per-node fidelities and the mixture's, from one stacked call
    fids = _root_fidelities(
        rho, np.concatenate([weighted / rule.weights[:, None, None], mixture_rec[None]])
    )
    fids, mixture_fid = fids[:-1], float(fids[-1])
    rhs_strong = _neg2log_mean(rule.weights, fids)
    rhs_mixture = _neg2log(mixture_fid)

    # the relative entropy is infinite exactly when the support check fails
    d_in = _relative_entropy(rho, sigma)
    violated = d_in == np.inf
    if violated:
        lhs = float(np.inf)
    else:
        lhs = d_in - _relative_entropy(out_rho, factory.n_sigma)
    exploratory = _relative_entropy(rho, mixture_rec)
    return DpiReport(
        lhs=lhs,
        rhs_mixture=rhs_mixture,
        rhs_strong=rhs_strong,
        slack_mixture=_slack(lhs, rhs_mixture),
        slack_strong=_slack(lhs, rhs_strong),
        per_node_fidelities=fids,
        recovered_state=mixture_rec,
        exploratory_relative_entropy=exploratory,
        support_violated=violated,
    ), d_in


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
    sigma = _checked(sigma)
    factory = _PetzFactory(sigma, channel)
    out_rho = channel.apply(rho)
    results = []
    for alpha in alphas:
        alpha = float(alpha)
        lhs = _renyi_delta(rho, sigma, channel, alpha)
        if alpha == 0.5:
            ts, weights = np.zeros(1), np.ones(1)
        elif 0.5 < alpha < 1.0:
            theta_rule = beta_quadrature(2 * len(rule) - 1, (1.0 - alpha) / alpha)
            ts, weights = theta_rule.nodes / 2.0, theta_rule.weights
        else:
            raise ValueError(f"alpha must lie in [1/2, 1), got {alpha}")
        recs = _apply_each(factory.kraus_stack(ts), out_rho)
        rhs = _neg2log_mean(weights, _root_fidelities(rho, recs))
        results.append(AlphaBoundResult(alpha=alpha, lhs=lhs, rhs=rhs, slack=_slack(lhs, rhs)))
    return results


# ---------------------------------------------------------------------------
# entropy-inequality corollaries
# ---------------------------------------------------------------------------

@dataclass
class SsaReport:
    cmi: float
    rhs: float
    slack: float
    recovered_fidelity: float
    recovered_state: np.ndarray


def ssa_remainder(rho_abc: np.ndarray, dims, rule: QuadratureRule) -> SsaReport:
    """Strong subadditivity with a recovery remainder.

    Rebuilds the C part of a tripartite state from its B part alone with
    the universal map of ``(rho_BC, tr_C)`` and compares ``I(A:C|B)``
    against ``-2 log F`` of the reconstruction.
    """
    da, db, dc = (int(d) for d in dims)
    rho_abc = np.asarray(rho_abc, dtype=complex)
    rho_ab = partial_trace(rho_abc, (da, db, dc), keep=(0, 1))
    rho_bc = partial_trace(rho_abc, (da, db, dc), keep=(1, 2))
    cmi = conditional_mutual_information(rho_abc, (da, db, dc))  # checks rho_abc

    trace_c = partial_trace_channel((db, dc), keep=(0,))
    recovery = _universal(rho_bc, trace_c, rule)
    # id_A (x) R acts on each B block (a, a') of rho_AB
    blocks = rho_ab.reshape(da, db, da, db).swapaxes(1, 2)
    rec = recovery.apply(blocks).swapaxes(1, 2).reshape(da * db * dc, da * db * dc)
    f = float(_root_fidelities(rho_abc, rec[None])[0])
    rhs = _neg2log(f)
    return SsaReport(cmi=cmi, rhs=rhs, slack=_slack(cmi, rhs), recovered_fidelity=f,
                     recovered_state=rec)


def _check_simplex(weights, atol=1e-12):
    weights = np.asarray(weights, dtype=float)
    if np.any(weights < 0) or abs(float(weights.sum()) - 1.0) > atol:
        raise ValueError("ensemble weights must be nonnegative and sum to one")
    return weights


@dataclass
class EnsembleReport:
    lhs: float
    rhs: float
    slack: float
    member_fidelities: np.ndarray
    support_flags: tuple = ()


def concavity_remainder(ensemble, dims, rule: QuadratureRule) -> EnsembleReport:
    """Concavity of the conditional entropy with a recovery remainder.

    ``ensemble`` is a sequence of ``(weight, rho_AB)`` pairs on the space
    with factor dimensions ``dims = (dA, dB)``.  Each member's A part is
    rebuilt from its B marginal with the universal map of the average
    state, ``(rho_bar_AB, tr_A)``.
    """
    da, db = (int(d) for d in dims)
    weights = _check_simplex([w for w, _ in ensemble])
    states = [_checked(s) for _, s in ensemble]
    avg = np.tensordot(weights, np.array(states), axes=1)

    def cond_ent(rho_ab):
        return _von_neumann(rho_ab) - _von_neumann(partial_trace(rho_ab, (da, db), keep=(1,)))

    lhs = cond_ent(avg) - float(
        np.dot(weights, [cond_ent(s) for s in states])
    )

    trace_a = partial_trace_channel((da, db), keep=(1,))
    recovery = _universal(avg, trace_a, rule)
    fids = np.array(
        [
            _root_fidelities(s, recovery.apply(partial_trace(s, (da, db), keep=(1,)))[None])[0]
            for s in states
        ]
    )
    rhs = _neg2log(float(np.dot(weights, fids)))
    return EnsembleReport(lhs=lhs, rhs=rhs, slack=_slack(lhs, rhs), member_fidelities=fids)


def joint_convexity_remainder(ensemble, rule: QuadratureRule) -> EnsembleReport:
    """Joint convexity of the relative entropy with a recovery remainder.

    ``ensemble`` is a sequence of ``(weight, rho_x, sigma_x)`` triples on a
    common space.  The classical label is embedded as a block index, the
    universal map of ``(sigma_XA, tr_X)`` re-inflates the averaged state,
    and the remainder compares against the fidelity with the labeled state.
    """
    weights = _check_simplex([w for w, _, _ in ensemble])
    rhos = [_checked(r) for _, r, _ in ensemble]
    sigmas = [_checked(s) for _, _, s in ensemble]
    dim = rhos[0].shape[0]
    nx = len(ensemble)

    # a member's relative entropy is infinite exactly when its support check fails
    member_d = [_relative_entropy(r, s) for r, s in zip(rhos, sigmas)]
    flags = tuple(d == np.inf for d in member_d)
    rho_avg = np.tensordot(weights, np.array(rhos), axes=1)
    sigma_avg = np.tensordot(weights, np.array(sigmas), axes=1)

    lhs = float(np.dot(weights, member_d)) - _relative_entropy(rho_avg, sigma_avg)

    rho_xa = np.zeros((nx * dim, nx * dim), dtype=complex)
    sigma_xa = np.zeros_like(rho_xa)
    for x, (w, r, s) in enumerate(zip(weights, rhos, sigmas)):
        sl = slice(x * dim, (x + 1) * dim)
        rho_xa[sl, sl] = w * r
        sigma_xa[sl, sl] = w * s

    trace_x = partial_trace_channel((nx, dim), keep=(1,))
    recovery = _universal(sigma_xa, trace_x, rule)
    rec = recovery.apply(rho_avg)
    rhs = _neg2log(float(_root_fidelities(rho_xa, rec[None])[0]))

    member_fids = []
    for x, (w, r) in enumerate(zip(weights, rhos)):
        if w <= 0.0:
            member_fids.append(np.nan)
            continue
        block = rec[x * dim : (x + 1) * dim, x * dim : (x + 1) * dim] / w
        member_fids.append(float(_root_fidelities(r, block[None])[0]))
    return EnsembleReport(
        lhs=lhs,
        rhs=rhs,
        slack=_slack(lhs, rhs),
        member_fidelities=np.array(member_fids),
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
    rule: QuadratureRule,
    seed=0,
    tol: float = 1e-8,
) -> QecReport:
    """Approximate error correction diagnostics for a codespace.

    Samples codespace states (alternating full-rank and pure), records the
    distinguishability gap ``D(rho||Pi) - D(N(rho)||N(Pi))`` and the
    fidelity of the universal recovery, and evaluates the forward bound
    ``F >= 1 - gap_max/2`` and the converse entropy-continuity bound.
    """
    pi = np.asarray(projector, dtype=complex)
    idem = float(np.linalg.norm(pi @ pi - pi, 2))
    if idem > 1e-8:
        raise ValueError(f"input is not a projector: ||P^2 - P|| = {idem:.3e}")
    dim_code = int(round(float(np.trace(pi).real)))
    if dim_code < 1:
        raise ValueError("codespace is empty")
    dec = eig_hermitian(pi)
    isometry = dec.eigenvectors[:, :dim_code]

    recovery = _universal(pi, channel, rule)
    out_pi = channel.apply(pi)

    seeds = np.random.SeedSequence(seed).spawn(max(samples, 1))
    gaps = []
    fids = []
    for i in range(samples):
        if dim_code == 1:
            small = np.array([[1.0 + 0.0j]])
        elif i % 2 == 1:
            small = random_density(dim_code, seeds[i], ensemble="rank-k", rank=1)
        else:
            small = random_density(dim_code, seeds[i])
        rho = isometry @ small @ dagger(isometry)
        out_rho = channel.apply(rho)
        gaps.append(_relative_entropy(rho, pi) - _relative_entropy(out_rho, out_pi))
        fids.append(float(_root_fidelities(rho, recovery.apply(out_rho)[None])[0]))
    gaps = np.array(gaps) if gaps else np.zeros(0)
    fids = np.array(fids) if fids else np.ones(0)

    max_gap = float(np.max(gaps, initial=0.0))
    min_fid = float(np.min(fids, initial=1.0))
    forward_bound = 1.0 - max_gap / 2.0
    eps_conv = min(max(2.0 * (1.0 - min_fid), 0.0), 1.0)
    root = math.sqrt(eps_conv)
    converse_bound = root * math.log(dim_code) + binary_entropy(root) if dim_code > 1 else (
        binary_entropy(root)
    )
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
    """
    states = [_checked(s) for s in states]
    if not states:
        raise ValueError("need at least one state")
    sigma = _checked(sigma)
    d_in = [_relative_entropy(s, sigma) for s in states]
    for i, d in enumerate(d_in):
        # infinite exactly when the support check fails
        if d == np.inf:
            raise ValueError(f"state {i} is not supported inside sigma")
    t_grid = np.asarray(t_grid, dtype=float)

    family = rotated_petz_family(sigma, channel, t_grid)
    out_sigma = channel.apply(sigma)
    outs = channel.apply(np.array(states))
    gaps = np.array([d - _relative_entropy(out, out_sigma) for d, out in zip(d_in, outs)])
    # recs[x, j] = R_j(N(state_x)), from one contraction over the family's stack
    recs = _apply_each(np.array([m.kraus for m in family]), outs)

    def slack_of(x: int, w: np.ndarray) -> float:
        # the library builds rec and the projective POVM, so neither is checked
        rec = np.tensordot(w, recs[x], axes=1)
        povm = _fidelity_measurement(states[x], rec)
        return float(gaps[x] - _measured_lb(states[x], rec, povm))

    def objective(w: np.ndarray):
        slacks = np.array([slack_of(x, w) for x in range(len(states))])
        worst = int(np.argmin(slacks))
        return float(slacks[worst]), worst

    starts = []
    dens = beta0_density(t_grid)
    if float(dens.sum()) > 0:
        starts.append(dens / dens.sum())
    starts.append(np.full(len(t_grid), 1.0 / len(t_grid)))
    starts.extend(np.eye(len(t_grid)))  # pure grid nodes
    best_w, (best_f, _) = max(
        ((w, objective(w)) for w in starts), key=lambda p: p[1][0]
    )

    w = best_w.copy()
    f_cur, active = objective(w)
    step = 0.5
    delta = 1e-4
    for _ in range(iterations):
        grad = np.zeros(len(t_grid))
        for j in range(len(t_grid)):
            probe = w.copy()
            probe[j] += delta
            probe /= probe.sum()
            grad[j] = (slack_of(active, probe) - f_cur) / delta
        improved = False
        for eta in (step, step / 4.0, step / 16.0):
            cand = _project_simplex(w + eta * grad)
            f_cand, act_cand = objective(cand)
            if f_cand > f_cur + 1e-14:
                w, f_cur, active = cand, f_cand, act_cand
                improved = True
                break
        if not improved:
            step /= 4.0
            if step < 1e-4:
                break
        if f_cur > best_f:
            best_f, best_w = f_cur, w.copy()

    if f_cur > best_f:
        best_f, best_w = f_cur, w
    mixture = convex_mixture(family, best_w)
    return SearchResult(
        recovery=mixture, min_slack=best_f, weights=best_w, t_grid=t_grid
    )


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
    rule: QuadratureRule,
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
    """
    rho = np.asarray(rho, dtype=complex)
    dim = rho.shape[0]
    ks = tuple(int(k) for k in k_list)
    if not ks or any(k < 1 or k > dim for k in ks) or list(ks) != sorted(set(ks)):
        raise ValueError(f"k_list must be strictly increasing within [1, {dim}]")
    rho = _checked(rho)
    sigma = _checked(sigma)
    ref = sigma if reference is None else _checked(reference)
    dec = eig_hermitian(ref, herm_tol=np.inf)

    d_full = _relative_entropy(rho, sigma)
    d_trunc, gaps, slacks = [], [], []
    for k in ks:
        cols = dec.eigenvectors[:, :k]
        pi = cols @ dagger(cols)
        rho_k = pi @ rho @ pi
        sigma_k = pi @ sigma @ pi
        rep, d_k = _dpi(rho_k, sigma_k, channel, rule)
        d_trunc.append(d_k)
        gaps.append(rep.lhs)
        slacks.append(rep.slack_mixture)
    d_trunc = np.array(d_trunc)
    return TruncationReport(
        ks=ks,
        truncated_relative_entropies=d_trunc,
        entropy_differences=np.array(gaps),
        slacks=np.array(slacks),
        full_relative_entropy=d_full,
        monotone_ok=bool(np.all(d_trunc <= d_full + 1e-9)),
        final_delta=float(abs(d_trunc[-1] - d_full)),
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
    nodes: int = 129
    tolerance: float = 1e-8
    kind: str = "dpi"  # dpi | ssa | concavity | joint-convexity
    include_timings: bool = False

    def __post_init__(self):
        lo, hi = (int(d) for d in self.dims)
        if self.count < 0 or lo < 1 or hi < lo or self.nodes < 3:
            raise ValueError("invalid sweep configuration")
        if self.kind not in ("dpi", "ssa", "concavity", "joint-convexity"):
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


def sweep(config: SweepConfig) -> SweepResult:
    """Run ``config.count`` seeded random instances of one inequality.

    All randomness descends from the root seed through per-instance
    spawned seed sequences, so reruns reproduce every row exactly.
    """
    lo, hi = (int(d) for d in config.dims)
    children = np.random.SeedSequence(config.seed).spawn(max(config.count, 1))
    rule = beta_quadrature(config.nodes)
    rows = []
    regenerated = 0
    for i in range(config.count):
        rng = np.random.default_rng(children[i])
        t0 = time.perf_counter()
        row = {"instance": i, "seed": config.seed}
        if config.kind == "dpi":
            rho, sigma, chan, regen = _random_dpi_instance(rng, (lo, hi), config.env_max)
            regenerated += regen
            row.update(_dpi_row(dpi_remainder(rho, sigma, chan, rule), chan))
        elif config.kind == "ssa":
            hi_f = max(lo, min(hi, 3))
            dims = tuple(int(rng.integers(lo, hi_f + 1)) for _ in range(3))
            rho_abc = random_density(int(np.prod(dims)), rng)
            row.update(_ssa_row(ssa_remainder(rho_abc, dims, rule), dims))
        elif config.kind == "concavity":
            hi_f = max(lo, min(hi, 3))
            da = int(rng.integers(lo, hi_f + 1))
            db = int(rng.integers(lo, hi_f + 1))
            size = int(rng.integers(2, 4))
            w = rng.dirichlet(np.ones(size))
            members = [(w[x], random_density(da * db, rng)) for x in range(size)]
            rep = concavity_remainder(members, (da, db), rule)
            row.update(dim_a=da, dim_b=db, size=size, lhs=rep.lhs, rhs=rep.rhs,
                       slack=rep.slack)
        else:  # joint-convexity
            dim = int(rng.integers(lo, hi + 1))
            size = int(rng.integers(2, 4))
            w = rng.dirichlet(np.ones(size))
            members = []
            for x in range(size):
                s, regen = _well_conditioned_density(dim, rng)
                regenerated += regen
                members.append((w[x], random_density(dim, rng), s))
            rep = joint_convexity_remainder(members, rule)
            row.update(dim=dim, size=size, lhs=rep.lhs, rhs=rep.rhs, slack=rep.slack)
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
