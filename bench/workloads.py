"""Seeded workloads: inputs, the timed petzlab call of each operation, and
the checks run on its output outside the timed span.

A workload is a list of rounds.  Every round has the same make-up (the
same operation kinds at the same sizes, in the same order); only the
random matrices change from round to round.  A run executes whole rounds,
so its operation mix, and with it the median and tail latency, does not
depend on how many rounds fit into the run.  Round ``r`` of a workload is
drawn from ``default_rng([seed, salt, r])``, so a seed fixes every input.

Inputs are generated here with numpy; petzlab only receives them.  The
checks compare against :mod:`oracle`, which does not import petzlab.
"""

from __future__ import annotations

import io
import json
import os
from contextlib import redirect_stdout
from dataclasses import dataclass
from types import ModuleType
from typing import Any, Callable

import numpy as np

import oracle

NODES = 129  # beta0 quadrature nodes, as in the acceptance sweeps
MAX_CONDITION = 1e8  # sweep's cap on the condition number of sigma

# acceptance tolerances, one per property checked
SLACK_FLOOR = -1e-8
ALPHA_SLACK_FLOOR = -1e-7
CONCAVITY_TOL = 1e-9
ORACLE_TOL = 1e-9
CLASSICAL_TOL = 1e-10
PETZ_IDENTITY_TOL = 1e-8
SEARCH_RECOVERY_TOL = 1e-9
RECOVERY_TOL = 1e-8
TNI_TOL = 1e-9
APPLY_TOL = 1e-10
QEC_FIDELITY_TOL = 1e-8

# Every round has 15, 25 or 45 operations.  With N a multiple of 5 but
# not of 10, the p50 and p90 ranks of a run (0.5 N and 0.9 N per round)
# fall inside an operation class rather than on the border between two,
# where they would pick up the extremes of both.

# dpi-sweep: every (dim_in, dim_out) pair of the sweep's 2..5 range with the
# environment cycling through its range, the square pairs once more at
# another environment size, and one classical instance after every four
DPI_DIMS = [(a, b) for a in range(2, 6) for b in range(2, 6)]
DPI_QUANTUM = [(a, b, i + i // 4) for i, (a, b) in enumerate(DPI_DIMS)] + [
    (d, d, 2 * d - 3) for d in range(2, 6)
]  # (dim_in, dim_out, env step)
CLASSICAL_DIMS = [(2, 2), (3, 2), (4, 3), (5, 4), (3, 5)]  # 5 of 25 ops

# rotated-families: per instance, one alpha_bound_check per alpha and one
# finite-set search
ROTATED_DIMS = [(a, b) for a in range(2, 5) for b in range(2, 5)]
ALPHAS = (0.5, 0.6, 0.75, 0.9)
SEARCH_STATES = 2
SEARCH_GRID = np.linspace(-1.0, 1.0, 5)
SEARCH_ITERATIONS = 5

# corollary-sweep: interleaved (ssa, concavity, joint convexity) triples
SSA_DIMS = [(2, 2, 2), (2, 3, 2), (3, 2, 3), (2, 2, 3), (3, 3, 3)]
CONCAVITY_SIZES = [(2, 2, 2), (2, 3, 3), (3, 2, 2), (3, 3, 3), (2, 2, 3)]  # (dA, dB, members)
JOINT_SIZES = [(2, 2), (3, 3), (4, 2), (5, 3), (3, 2)]  # (dim, members)

# recovery-maps: map life cycles at dimension d, and `petzlab qec` calls
RECOVERY_ROUND = (
    "fault", 4, 8, "random-a", 16, 4, 8, 4, "bitflip3", 16, 4, "random-b", 8, 16, 8
)
RECOVERY_ENV = 2
RECOVERY_STATES = 3
QEC_SAMPLES = 4

# `petzlab qec` arguments (code, --seed, flags), the same for every seed and
# round.  Drawn at random, about one call in 500 raises in qec_analyze:
# `fidelity` rejects the rank-deficient recovered state of a pure code state
# when a rounding-level eigenvalue falls just below -d*eps*max.  That would
# make the failed share of a run depend on the seed.  "fault" is one such
# input; it raises in every round, so the fault is counted in `failed`
# (1 of 15 operations) until it is mended.
RANDOM_CODE = ["--dim", "4", "--code-dim", "2", "--env-max", "2"]
QEC_CALLS = {
    "fault": ("bitflip3", 1561593255, ["--p", "0.13182888647952362"]),
    "bitflip3": ("bitflip3", 1509, ["--p", "0.1"]),
    "random-a": ("random", 1509, RANDOM_CODE),
    "random-b": ("random", 7127, RANDOM_CODE),
}


@dataclass
class Context:
    """petzlab modules and shared set-up; functions are looked up on the
    modules at call time so that a tracer's wrappers are seen."""

    channels: ModuleType
    recovery: ModuleType
    verify: ModuleType
    serialize: ModuleType
    cli: ModuleType
    rule: Any
    scratch: str


@dataclass
class Op:
    kind: str
    inst: dict
    call: Callable[[Context, dict], Any]
    check: Callable[[dict, Any], list]

    def run(self, ctx: Context):
        return self.call(ctx, self.inst)


# ---------------------------------------------------------------------------
# input generation (numpy only)
# ---------------------------------------------------------------------------

def density(rng, d: int) -> np.ndarray:
    """Hilbert-Schmidt random state."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def capped_density(rng, d: int) -> np.ndarray:
    """Random state with condition number at most ``MAX_CONDITION``."""
    for _ in range(1000):
        rho = density(rng, d)
        vals = np.linalg.eigvalsh(rho)
        if vals[0] > 0 and vals[-1] <= MAX_CONDITION * vals[0]:
            return rho
    raise RuntimeError(f"no dim-{d} state below condition {MAX_CONDITION:g}")


def isometry_kraus(rng, din: int, dout: int, env: int) -> np.ndarray:
    """Kraus stack ``(env, dout, din)`` of a Haar-style Stinespring isometry."""
    g = rng.standard_normal((dout * env, din)) + 1j * rng.standard_normal((dout * env, din))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    return np.ascontiguousarray(q.reshape(dout, env, din).transpose(1, 0, 2))


def env_size(din: int, dout: int, env_max: int, step: int) -> int:
    """Environment size from the sweep's range ``[ceil(din/dout), env_max]``.

    The sweep draws it at random; here it cycles through the range with
    the instance's position ``step`` in its round, so that every round, and
    so every run, has the same sizes whatever the seed.
    """
    env_lo = max(1, -(-din // dout))
    return env_lo + step % (max(env_lo, env_max) - env_lo + 1)


def _probability(rng, d: int) -> np.ndarray:
    # Mixing in 10% of the uniform distribution keeps every entry >= 0.1/d.
    return 0.9 * rng.dirichlet(np.ones(d)) + 0.1 / d


def _channel_instance(ctx, rng, din, dout, env):
    kraus = isometry_kraus(rng, din, dout, env)
    return {"kraus": kraus, "chan": ctx.channels.Channel(list(kraus))}


# ---------------------------------------------------------------------------
# shared checks
# ---------------------------------------------------------------------------

def _check_slack(label, lhs, rhs, slack, floor, fails):
    if not slack >= floor:
        fails.append(f"{label}: slack {slack!r} below {floor:g}")
    if not abs(slack - (lhs - rhs)) <= 1e-12 * (1.0 + abs(lhs) + abs(rhs)):
        fails.append(f"{label}: slack {slack!r} is not lhs - rhs = {lhs - rhs!r}")


def _check_close(label, value, reference, tol, fails):
    if not abs(value - reference) <= tol:
        fails.append(f"{label}: {value!r} differs from oracle {reference!r} by more than {tol:g}")


# ---------------------------------------------------------------------------
# dpi-sweep
# ---------------------------------------------------------------------------

def _dpi_call(ctx, inst):
    return ctx.verify.dpi_remainder(inst["rho"], inst["sigma"], inst["chan"], ctx.rule)


def check_dpi(inst, rep) -> list:
    fails = []
    _check_slack("mixture", rep.lhs, rep.rhs_mixture, rep.slack_mixture, SLACK_FLOOR, fails)
    _check_slack("strong", rep.lhs, rep.rhs_strong, rep.slack_strong, SLACK_FLOOR, fails)
    if not rep.rhs_mixture <= rep.rhs_strong + CONCAVITY_TOL:
        fails.append(f"rhs_mixture {rep.rhs_mixture!r} above rhs_strong {rep.rhs_strong!r}")
    rho, sigma, kraus = inst["rho"], inst["sigma"], inst["kraus"]
    lhs = oracle.relative_entropy(rho, sigma) - oracle.relative_entropy(
        oracle.apply_kraus(kraus, rho), oracle.apply_kraus(kraus, sigma)
    )
    _check_close("lhs", rep.lhs, lhs, ORACLE_TOL, fails)
    fid = oracle.root_fidelity(rho, rep.recovered_state)
    _check_close("rhs_mixture", rep.rhs_mixture, -2.0 * np.log(fid), ORACLE_TOL, fails)
    if "stochastic" in inst:
        lhs_c, rhs_c = oracle.classical_dpi(inst["p"], inst["q"], inst["stochastic"])
        _check_close("classical lhs", rep.lhs, lhs_c, CLASSICAL_TOL, fails)
        _check_close("classical rhs_mixture", rep.rhs_mixture, rhs_c, CLASSICAL_TOL, fails)
        _check_close("classical rhs_strong", rep.rhs_strong, rhs_c, CLASSICAL_TOL, fails)
    return fails


def _quantum_dpi(ctx, rng, din, dout, step) -> Op:
    inst = _channel_instance(ctx, rng, din, dout, env_size(din, dout, 4, step))
    inst["sigma"] = capped_density(rng, din)
    inst["rho"] = density(rng, din)
    return Op(f"dpi-{din}x{dout}", inst, _dpi_call, check_dpi)


def _classical_dpi(ctx, rng, din, dout) -> Op:
    p, q = _probability(rng, din), _probability(rng, din)
    stochastic = np.stack([_probability(rng, dout) for _ in range(din)], axis=1)
    kraus = np.zeros((dout * din, dout, din), dtype=complex)
    for y in range(dout):
        for x in range(din):
            kraus[y * din + x, y, x] = np.sqrt(stochastic[y, x])
    inst = {
        "p": p, "q": q, "stochastic": stochastic, "kraus": kraus,
        "rho": np.diag(p).astype(complex), "sigma": np.diag(q).astype(complex),
        "chan": ctx.channels.Channel(list(kraus)),
    }
    return Op(f"dpi-classical-{din}x{dout}", inst, _dpi_call, check_dpi)


def dpi_round(ctx, rng) -> list:
    quantum = [_quantum_dpi(ctx, rng, a, b, step) for a, b, step in DPI_QUANTUM]
    classical = [_classical_dpi(ctx, rng, a, b) for a, b in CLASSICAL_DIMS]
    ops = []
    for i, op in enumerate(quantum):
        ops.append(op)
        if i % 4 == 3:
            ops.append(classical[i // 4])
    return ops


# ---------------------------------------------------------------------------
# rotated-families
# ---------------------------------------------------------------------------

def _alpha_call(ctx, inst):
    return ctx.verify.alpha_bound_check(
        inst["rho"], inst["sigma"], inst["chan"], [inst["alpha"]], ctx.rule
    )


def check_alpha(inst, results) -> list:
    fails = []
    if len(results) != 1 or results[0].alpha != inst["alpha"]:
        return [f"expected one result for alpha {inst['alpha']}, got {results!r}"]
    res = results[0]
    if inst["alpha"] == 0.5:
        if not abs(res.lhs - res.rhs) <= PETZ_IDENTITY_TOL:
            fails.append(f"alpha 1/2: |lhs - rhs| = {abs(res.lhs - res.rhs)!r} (Petz identity)")
        _check_slack("alpha 1/2", res.lhs, res.rhs, res.slack, -PETZ_IDENTITY_TOL, fails)
    else:
        _check_slack(f"alpha {res.alpha}", res.lhs, res.rhs, res.slack, ALPHA_SLACK_FLOOR, fails)
    return fails


def _search_call(ctx, inst):
    return ctx.verify.finite_set_recovery_search(
        inst["states"], inst["sigma"], inst["chan"], SEARCH_GRID,
        iterations=SEARCH_ITERATIONS,
    )


def check_search(inst, result) -> list:
    fails = []
    sigma, kraus = inst["sigma"], inst["kraus"]
    recovered = oracle.apply_kraus(result.recovery.kraus, oracle.apply_kraus(kraus, sigma))
    dist = 0.5 * oracle.trace_norm(recovered - sigma)
    if not dist <= SEARCH_RECOVERY_TOL:
        fails.append(f"search map misses sigma by trace distance {dist!r}")
    w = np.asarray(result.weights, dtype=float)
    if not (np.all(w >= 0.0) and abs(float(w.sum()) - 1.0) <= 1e-12):
        fails.append(f"search weights {w!r} are not on the simplex")
    gaps = [
        oracle.relative_entropy(s, sigma)
        - oracle.relative_entropy(oracle.apply_kraus(kraus, s), oracle.apply_kraus(kraus, sigma))
        for s in inst["states"]
    ]
    if not result.min_slack <= min(gaps) + ORACLE_TOL:
        fails.append(f"min_slack {result.min_slack!r} above smallest gap {min(gaps)!r}")
    return fails


def rotated_round(ctx, rng) -> list:
    ops = []
    for i, (din, dout) in enumerate(ROTATED_DIMS):
        base = _channel_instance(ctx, rng, din, dout, env_size(din, dout, 3, i + i // 3))
        base["sigma"] = capped_density(rng, din)
        base["rho"] = density(rng, din)
        for alpha in ALPHAS:
            ops.append(Op(f"alpha-{alpha}", dict(base, alpha=alpha), _alpha_call, check_alpha))
        states = [density(rng, din) for _ in range(SEARCH_STATES)]
        ops.append(Op("search", dict(base, states=states), _search_call, check_search))
    return ops


# ---------------------------------------------------------------------------
# corollary-sweep
# ---------------------------------------------------------------------------

def _ssa_call(ctx, inst):
    return ctx.verify.ssa_remainder(inst["rho"], inst["dims"], ctx.rule)


def check_ssa(inst, rep) -> list:
    fails = []
    _check_slack("ssa", rep.cmi, rep.rhs, rep.slack, SLACK_FLOOR, fails)
    _check_close("cmi", rep.cmi, oracle.cmi(inst["rho"], inst["dims"]), ORACLE_TOL, fails)
    fid = oracle.root_fidelity(inst["rho"], rep.recovered_state)
    _check_close("recovered fidelity", rep.recovered_fidelity, fid, ORACLE_TOL, fails)
    return fails


def _concavity_call(ctx, inst):
    members = list(zip(inst["weights"], inst["states"]))
    return ctx.verify.concavity_remainder(members, inst["dims"], ctx.rule)


def check_concavity(inst, rep) -> list:
    fails = []
    _check_slack("concavity", rep.lhs, rep.rhs, rep.slack, SLACK_FLOOR, fails)
    gap = oracle.concavity_gap(inst["weights"], inst["states"], inst["dims"])
    _check_close("conditional-entropy gap", rep.lhs, gap, ORACLE_TOL, fails)
    return fails


def _joint_call(ctx, inst):
    members = list(zip(inst["weights"], inst["rhos"], inst["sigmas"]))
    return ctx.verify.joint_convexity_remainder(members, ctx.rule)


def check_joint(inst, rep) -> list:
    fails = []
    _check_slack("joint convexity", rep.lhs, rep.rhs, rep.slack, SLACK_FLOOR, fails)
    gap = oracle.joint_convexity_gap(inst["weights"], inst["rhos"], inst["sigmas"])
    _check_close("joint-convexity gap", rep.lhs, gap, ORACLE_TOL, fails)
    return fails


def corollary_round(ctx, rng) -> list:
    ops = []
    for dims, (da, db, n_c), (dim, n_j) in zip(SSA_DIMS, CONCAVITY_SIZES, JOINT_SIZES):
        rho = density(rng, int(np.prod(dims)))
        ops.append(Op("ssa-%dx%dx%d" % dims, {"rho": rho, "dims": dims}, _ssa_call, check_ssa))
        inst = {
            "dims": (da, db),
            "weights": rng.dirichlet(np.ones(n_c)),
            "states": [density(rng, da * db) for _ in range(n_c)],
        }
        ops.append(Op("concavity", inst, _concavity_call, check_concavity))
        inst = {
            "weights": rng.dirichlet(np.ones(n_j)),
            "rhos": [density(rng, dim) for _ in range(n_j)],
            "sigmas": [capped_density(rng, dim) for _ in range(n_j)],
        }
        ops.append(Op("joint-convexity", inst, _joint_call, check_joint))
    return ops


# ---------------------------------------------------------------------------
# recovery-maps
# ---------------------------------------------------------------------------

def _life_call(ctx, inst):
    rec = ctx.recovery.universal_recovery(inst["sigma"], inst["chan"], ctx.rule)
    recovered = rec.apply(inst["chan"].apply(inst["sigma"]))
    outputs = [rec.apply(s) for s in inst["states"]]
    loaded = ctx.serialize.loads_recovery(ctx.serialize.dumps_recovery(rec))
    return {
        "kraus": rec.kraus,
        "recovered": recovered,
        "outputs": outputs,
        "loaded_kraus": loaded["kraus"],
    }


def check_life(inst, out) -> list:
    fails = []
    kraus = out["kraus"]
    miss = oracle.trace_norm(out["recovered"] - inst["sigma"])
    if not miss <= RECOVERY_TOL:
        fails.append(f"||R(N(sigma)) - sigma||_1 = {miss!r}")
    top = oracle.max_tni_eigenvalue(kraus)
    if not top <= 1.0 + TNI_TOL:
        fails.append(f"max eigenvalue of sum K^dag K is {top!r}")
    loaded = out["loaded_kraus"]
    if loaded.shape != kraus.shape or loaded.tobytes() != kraus.tobytes():
        fails.append("round-tripped Kraus operators are not bit-identical")
    for i, (state, got) in enumerate(zip(inst["states"], out["outputs"])):
        err = float(np.max(np.abs(got - oracle.apply_kraus(kraus, state))))
        if not err <= APPLY_TOL:
            fails.append(f"R(state {i}) differs from the Kraus sum by {err!r}")
    return fails


def _qec_call(ctx, inst):
    path = os.path.join(ctx.scratch, f"qec-{inst['code']}.txt")
    argv = ["qec", "--code", inst["code"], "--samples", str(QEC_SAMPLES),
            "--seed", str(inst["seed"]), "-o", path] + inst["flags"]
    with redirect_stdout(io.StringIO()):
        status = ctx.cli.main(argv)
    return {"status": status, "path": path}


def check_qec(inst, out) -> list:
    if out["status"] != 0:
        return [f"petzlab qec exited {out['status']}"]
    try:
        with open(out["path"]) as handle:
            table = [ln.split() for ln in handle.read().splitlines() if ln.strip()]
        with open(out["path"] + ".summary") as handle:
            summary = json.load(handle)["summary"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"qec report does not parse: {exc!r}"]
    fails = []
    if table[:2] != [["#", "petzlab", "report", "v1"], ["sample", "gap", "fidelity"]]:
        fails.append(f"qec table header {table[:2]!r}")
    rows = table[2:]
    if len(rows) != QEC_SAMPLES or any(len(r) != 3 for r in rows):
        fails.append(f"qec table has {len(rows)} rows, expected {QEC_SAMPLES}")
    if not (summary.get("forward_ok") is True and summary.get("converse_ok") is True):
        fails.append(f"qec bounds not ok: {summary!r}")
    if inst["code"] == "bitflip3" and not summary.get("min_fidelity", 0.0) >= 1.0 - QEC_FIDELITY_TOL:
        fails.append(f"bit-flip code min fidelity {summary.get('min_fidelity')!r}")
    return fails


def recovery_round(ctx, rng) -> list:
    ops = []
    for item in RECOVERY_ROUND:
        if item in QEC_CALLS:
            code, seed, flags = QEC_CALLS[item]
            inst = {"code": code, "seed": seed, "flags": flags}
            kind = "qec-fault-bitflip3" if item == "fault" else f"qec-{code}"
            ops.append(Op(kind, inst, _qec_call, check_qec))
        else:
            d = item
            inst = _channel_instance(ctx, rng, d, d, RECOVERY_ENV)
            inst["sigma"] = capped_density(rng, d)
            inst["states"] = [density(rng, d) for _ in range(RECOVERY_STATES)]
            ops.append(Op(f"map-life-{d}", inst, _life_call, check_life))
    return ops


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

ROUNDS = {
    "dpi-sweep": dpi_round,
    "rotated-families": rotated_round,
    "corollary-sweep": corollary_round,
    "recovery-maps": recovery_round,
}


def make_round(ctx: Context, workload: str, seed: int, index: int) -> list:
    """Operations of round ``index``; the same arguments give the same inputs."""
    salt = list(ROUNDS).index(workload)
    return ROUNDS[workload](ctx, np.random.default_rng([seed, salt, index]))
