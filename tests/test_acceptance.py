"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the status lines.
"""

import math
import time

import numpy as np

from conftest import random_dpi_instance
from petzlab.channels import (
    Channel,
    depolarizing_channel,
    ghz_state,
    identity_channel,
    random_channel,
    random_density,
    random_unitary,
    single_bit_flip_channel,
    three_qubit_bit_flip_code,
    unitary_channel,
)
from petzlab.entropy import (
    fidelity,
    relative_entropy,
    renyi_delta,
    trace_distance,
)
from petzlab.linalg import dagger, tensor_product
from petzlab.recovery import (
    beta0_density,
    beta0_quadrature,
    petz,
    rotated_petz_family,
    universal_recovery,
)
from petzlab.verify import (
    SweepConfig,
    alpha_bound_check,
    concavity_remainder,
    dpi_remainder,
    joint_convexity_remainder,
    qec_analyze,
    ssa_remainder,
    sweep,
)
from petzlab.cli import main as cli_main


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d}: {status} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_theorem1_sweep():
    t0 = time.perf_counter()
    result = sweep(
        SweepConfig(seed=20240601, count=500, dims=(2, 5), env_max=4, nodes=129)
    )
    elapsed = time.perf_counter() - t0
    min_mix = min(r["slack_mixture"] for r in result.rows)
    min_strong = min(r["slack_strong"] for r in result.rows)
    ok = min_mix >= -1e-8 and min_strong >= -1e-8 and elapsed < 120.0
    report(
        1,
        ok,
        f"500 instances: min slack_mixture {min_mix:.3e}, "
        f"min slack_strong {min_strong:.3e}, runtime {elapsed:.1f}s",
    )


def test_criterion_02_classical_oracle_instance():
    rho = np.diag([0.5, 0.5]).astype(complex)
    sigma = np.diag([0.25, 0.75]).astype(complex)
    rep = dpi_remainder(rho, sigma, depolarizing_channel(2, 1.0), beta0_quadrature(129))
    lhs_oracle = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
    rhs_oracle = -2.0 * math.log(math.sqrt(0.125) + math.sqrt(0.375))
    dist = trace_distance(rep.recovered_state, sigma)
    ok = (
        abs(rep.lhs - lhs_oracle) <= 1e-10
        and abs(rep.lhs - 0.143841) <= 5e-7
        and abs(rep.rhs_mixture - rhs_oracle) <= 1e-10
        and dist <= 1e-9
    )
    report(
        2,
        ok,
        f"lhs {rep.lhs:.6f} (oracle {lhs_oracle:.6f}), rhs {rep.rhs_mixture:.6f} "
        f"(oracle {rhs_oracle:.6f}), recovered-vs-sigma distance {dist:.2e}",
    )


def test_criterion_03_renyi_consistency():
    worst_half = 0.0
    worst_limit = 0.0
    for seed in range(100):
        rho, sigma, chan = random_dpi_instance(seed, dim_hi=4, env_max=3)
        lhs = renyi_delta(rho, sigma, chan, 0.5)
        rec = petz(sigma, chan).apply(chan.apply(rho))
        worst_half = max(worst_half, abs(lhs + 2.0 * math.log(fidelity(rho, rec))))
        limit = relative_entropy(rho, sigma) - relative_entropy(
            chan.apply(rho), chan.apply(sigma)
        )
        worst_limit = max(
            worst_limit, abs(renyi_delta(rho, sigma, chan, 0.999) - limit)
        )
    ok = worst_half <= 1e-8 and worst_limit <= 1e-2
    report(
        3,
        ok,
        f"100 instances: max |Delta_1/2 + 2 log F| = {worst_half:.2e}, "
        f"max |Delta_0.999 - entropy difference| = {worst_limit:.2e}",
    )


def test_criterion_04_alpha_bound_chain():
    rule = beta0_quadrature(129)
    worst = np.inf
    for seed in range(100):
        rho, sigma, chan = random_dpi_instance(seed, dim_hi=4, env_max=3)
        for res in alpha_bound_check(rho, sigma, chan, [0.6, 0.75, 0.9], rule):
            worst = min(worst, res.slack)
    ok = worst >= -1e-7
    report(4, ok, f"100 instances x alpha in (0.6, 0.75, 0.9): min slack {worst:.3e}")


def test_criterion_05_functoriality():
    gen = np.random.default_rng(20240605)
    worst_rec = 0.0
    worst_norm = 0.0
    worst_stab = 0.0
    for _ in range(50):
        din = int(gen.integers(2, 4))
        dout = int(gen.integers(2, 4))
        sigma = random_density(din, gen)
        env_lo = max(1, -(-din // dout))
        chan = random_channel(din, dout, int(gen.integers(env_lo, env_lo + 2)), gen)

        rec = universal_recovery(sigma, chan)
        err = float(
            np.sum(np.abs(np.linalg.eigvalsh(rec.apply(chan.apply(sigma)) - sigma)))
        )
        worst_rec = max(worst_rec, err)

        rec_id = universal_recovery(sigma, identity_channel(din))
        from petzlab.channels import choi_distance

        worst_norm = max(
            worst_norm,
            choi_distance(rec_id, identity_channel(din)),
        )

        tau = random_density(2, gen)
        big = universal_recovery(tensor_product(sigma, tau), chan.tensor(identity_channel(2)))
        lifted = Channel(
            [tensor_product(k, np.eye(2)) for k in rec.kraus], mode="tni"
        )
        worst_stab = max(worst_stab, choi_distance(big, lifted))
    ok = worst_rec <= 1e-8 and worst_norm <= 1e-8 and worst_stab <= 1e-8
    report(
        5,
        ok,
        f"50 instances: reconstruction {worst_rec:.2e}, normalization "
        f"{worst_norm:.2e}, stabilization {worst_stab:.2e} (all Choi/trace dist)",
    )


def test_criterion_06_petz_adjoint_identity():
    from petzlab.linalg import sqrtm_psd

    gen = np.random.default_rng(20240606)
    worst = 0.0
    for din, dout, rank in ((2, 2, None), (3, 2, 2), (4, 3, None), (4, 4, 3)):
        if rank is None:
            sigma = random_density(din, gen)
        else:
            sigma = random_density(din, gen, ensemble="rank-k", rank=rank)
        chan = random_channel(din, dout, 2, gen)
        rec = petz(sigma, chan)
        s_half = sqrtm_psd(sigma)
        m_half = sqrtm_psd(chan.apply(sigma))
        for i in range(dout):
            for j in range(dout):
                a1 = np.zeros((dout, dout), dtype=complex)
                a1[i, j] = 1.0
                left_inner = s_half @ chan.adjoint_apply(a1) @ s_half
                for k in range(din):
                    for l in range(din):
                        a2 = np.zeros((din, din), dtype=complex)
                        a2[k, l] = 1.0
                        lhs = np.trace(dagger(a2) @ left_inner)
                        rhs = np.trace(
                            dagger(rec.adjoint_apply(a2)) @ m_half @ a1 @ m_half
                        )
                        worst = max(worst, abs(lhs - rhs))
    ok = worst <= 1e-9
    report(6, ok, f"operator-basis residual over dims <= 4: {worst:.2e}")


def test_criterion_07_quadrature():
    sums_ok = all(
        abs(float(beta0_quadrature(n).weights.sum()) - 1.0) <= 1e-12
        for n in (3, 65, 129, 257)
    )
    rule = beta0_quadrature(129)
    t = np.linspace(-30.0, 30.0, 10**6)
    brute = float(np.trapezoid(t * t * beta0_density(t), t))
    moment_err = abs(rule.integrate(rule.nodes**2) - brute)

    slack_shift = 0.0
    for seed in (2, 5, 9):
        gen = np.random.default_rng(seed)
        sigma = random_density(3, gen)
        rho = random_density(3, gen)
        chan = random_channel(3, 2, 2, gen)
        r65 = dpi_remainder(rho, sigma, chan, beta0_quadrature(65))
        r129 = dpi_remainder(rho, sigma, chan, beta0_quadrature(129))
        slack_shift = max(slack_shift, abs(r65.slack_mixture - r129.slack_mixture))
    ok = sums_ok and moment_err <= 1e-8 and slack_shift <= 1e-8
    report(
        7,
        ok,
        f"weight sums exact: {sums_ok}, second-moment error {moment_err:.2e}, "
        f"65-vs-129-node slack shift {slack_shift:.2e}",
    )


def test_criterion_08_strong_subadditivity():
    gen = np.random.default_rng(20240608)
    prod = tensor_product(random_density(4, gen), random_density(2, gen))
    rep = ssa_remainder(prod, (2, 2, 2))
    markov_ok = abs(rep.recovered_fidelity - 1.0) <= 1e-8 and abs(rep.cmi) <= 1e-9

    ghz_rep = ssa_remainder(ghz_state(3), (2, 2, 2))
    ghz_ok = abs(ghz_rep.cmi - math.log(2.0)) <= 1e-9

    worst = np.inf
    for _ in range(200):
        rep = ssa_remainder(random_density(8, gen), (2, 2, 2))
        worst = min(worst, rep.slack)
    ok = markov_ok and ghz_ok and worst >= -1e-8
    report(
        8,
        ok,
        f"product F=1 ({markov_ok}), GHZ I=ln2 ({ghz_ok}), "
        f"200 random three-qubit states min slack {worst:.3e}",
    )


def test_criterion_09_concavity_and_joint_convexity():
    gen = np.random.default_rng(20240609)

    single_c = concavity_remainder([(1.0, random_density(4, gen))], (2, 2))
    rho1 = random_density(3, gen)
    sig1 = random_density(3, gen)
    single_j = joint_convexity_remainder([(1.0, rho1, sig1)])
    singleton_ok = (
        abs(single_c.lhs) <= 1e-10
        and abs(single_c.rhs) <= 1e-10
        and abs(single_j.lhs) <= 1e-10
        and abs(single_j.rhs) <= 1e-10
    )

    worst_c = np.inf
    worst_j = np.inf
    for _ in range(100):
        size = int(gen.integers(2, 4))
        w = gen.dirichlet(np.ones(size))
        members = [(w[x], random_density(4, gen)) for x in range(size)]
        worst_c = min(worst_c, concavity_remainder(members, (2, 2)).slack)

        w = gen.dirichlet(np.ones(size))
        triple = [
            (w[x], random_density(2, gen), random_density(2, gen))
            for x in range(size)
        ]
        worst_j = min(worst_j, joint_convexity_remainder(triple).slack)
    ok = singleton_ok and worst_c >= -1e-8 and worst_j >= -1e-8
    report(
        9,
        ok,
        f"singletons exact ({singleton_ok}), 100 ensembles each: concavity min "
        f"slack {worst_c:.3e}, joint convexity min slack {worst_j:.3e}",
    )


def test_criterion_10_qec():
    pi = three_qubit_bit_flip_code()

    uni = qec_analyze(pi, unitary_channel(random_unitary(8, 20240610)), 6, seed=1)
    unitary_ok = uni.sampled_max_gap <= 1e-8 and uni.min_recovered_fidelity >= 1 - 1e-8

    flip_chan = single_bit_flip_channel(0.1)
    kl_ok = True  # Knill-Laflamme conditions certify perfect correctability
    for a in flip_chan.kraus:
        for b in flip_chan.kraus:
            block = pi @ dagger(a) @ b @ pi
            coeff = np.trace(block) / np.trace(pi)
            kl_ok &= np.linalg.norm(block - coeff * pi, 2) <= 1e-10
    code_rep = qec_analyze(pi, flip_chan, 8, seed=2)
    code_ok = kl_ok and code_rep.min_recovered_fidelity >= 1.0 - 1e-8

    gen = np.random.default_rng(20240610)
    pairs_ok = True
    for _ in range(50):
        dim = int(gen.integers(3, 7))
        code_dim = int(gen.integers(2, min(dim, 4)))
        basis = np.linalg.eigh(random_density(dim, gen))[1]
        proj = basis[:, :code_dim] @ dagger(basis[:, :code_dim])
        chan = random_channel(dim, dim, int(gen.integers(1, 3)), gen)
        rep = qec_analyze(proj, chan, 6, seed=int(gen.integers(0, 2**31)))
        pairs_ok &= rep.forward_ok and rep.converse_ok
    ok = unitary_ok and code_ok and pairs_ok
    report(
        10,
        ok,
        f"unitary tight ({unitary_ok}), bit-flip code perfect ({code_ok}), "
        f"50 random code/channel pairs consistent ({pairs_ok})",
    )


def test_criterion_11_equality_case_recovery():
    rule = beta0_quadrature(129)
    gen = np.random.default_rng(20240611)
    worst = 0.0
    for _ in range(5):
        dim = int(gen.integers(2, 6))
        sigma = random_density(dim, gen)
        rho = random_density(dim, gen)
        chan = unitary_channel(random_unitary(dim, gen))
        out = chan.apply(rho)
        for rec in rotated_petz_family(sigma, chan, rule.nodes / 2.0):
            worst = max(worst, trace_distance(rec.apply(out), rho))
    ok = worst <= 1e-5
    report(11, ok, f"unitary-channel recovery at every node: max distance {worst:.2e}")


def test_criterion_12_determinism(tmp_path):
    args = ["sweep", "--seed", "424242", "--count", "25", "--dims", "2..4",
            "--nodes", "65"]
    assert cli_main(args + ["-o", str(tmp_path / "first.txt")]) == 0
    assert cli_main(args + ["-o", str(tmp_path / "second.txt")]) == 0
    same_table = (tmp_path / "first.txt").read_bytes() == (
        tmp_path / "second.txt"
    ).read_bytes()
    same_summary = (tmp_path / "first.txt.summary").read_bytes() == (
        tmp_path / "second.txt.summary"
    ).read_bytes()
    ok = same_table and same_summary
    report(12, ok, f"table bytes identical: {same_table}, summary identical: {same_summary}")
