import dataclasses
import math
import warnings

import numpy as np
import pytest

from conftest import random_dpi_instance
from petzlab import recovery, verify
from petzlab.channels import (
    Channel,
    depolarizing_channel,
    ghz_state,
    identity_channel,
    pure_state,
    random_channel,
    random_density,
    random_unitary,
    single_bit_flip_channel,
    three_qubit_bit_flip_code,
    unitary_channel,
)
from petzlab.entropy import (
    _fidelity_measurement,
    _measured_lb,
    _projectors,
    _relative_entropy,
    _root_fidelities,
    fidelity,
    relative_entropy,
    trace_distance,
)
from petzlab.linalg import _checked, _psd_eigensystem, dagger, tensor_product
from petzlab.recovery import (
    RecoveryMap,
    beta0_density,
    beta0_quadrature,
    rotated_petz_family,
    universal_recovery,
)
from petzlab.serialize import dumps_recovery
from petzlab.verify import (
    SweepConfig,
    alpha_bound_check,
    concavity_remainder,
    dpi_remainder,
    finite_set_recovery_search,
    joint_convexity_remainder,
    qec_analyze,
    ssa_remainder,
    sweep,
    truncation_convergence,
)

RULE65 = beta0_quadrature(65)
RULE129 = beta0_quadrature(129)

# classical oracle instance: rho maximally mixed, sigma biased, full depolarizing.
# closed forms: lhs = 0.5 ln 2 + 0.5 ln(2/3); recovery output = sigma;
# rhs = -2 ln(sqrt(1/8) + sqrt(3/8)).
CLASSICAL_RHO = np.diag([0.5, 0.5]).astype(complex)
CLASSICAL_SIGMA = np.diag([0.25, 0.75]).astype(complex)
CLASSICAL_LHS = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
CLASSICAL_RHS = -2.0 * math.log(math.sqrt(0.125) + math.sqrt(0.375))


class TestDpiRemainder:
    def test_classical_oracle(self):
        rep = dpi_remainder(
            CLASSICAL_RHO, CLASSICAL_SIGMA, depolarizing_channel(2, 1.0), RULE129
        )
        assert rep.lhs == pytest.approx(CLASSICAL_LHS, abs=1e-12)
        assert rep.lhs == pytest.approx(0.143841, abs=5e-7)
        assert rep.rhs_mixture == pytest.approx(CLASSICAL_RHS, abs=1e-10)
        assert rep.rhs_mixture == pytest.approx(0.0693365, abs=5e-8)
        assert rep.slack_mixture == pytest.approx(CLASSICAL_LHS - CLASSICAL_RHS, abs=1e-10)
        assert trace_distance(rep.recovered_state, CLASSICAL_SIGMA) <= 1e-9

    def test_identity_channel_zero_on_both_sides(self, rng):
        sigma = random_density(3, rng)
        rho = random_density(3, rng)
        rep = dpi_remainder(rho, sigma, identity_channel(3), RULE65)
        assert rep.lhs == pytest.approx(0.0, abs=1e-10)
        assert rep.rhs_mixture == pytest.approx(0.0, abs=1e-10)
        assert fidelity(rho, rep.recovered_state) == pytest.approx(1.0, abs=1e-10)

    def test_random_instances_nonnegative_slack(self):
        for seed in range(25):
            rho, sigma, chan = random_dpi_instance(seed, dim_hi=4)
            rep = dpi_remainder(rho, sigma, chan, RULE65)
            assert rep.slack_mixture >= -1e-8
            assert rep.slack_strong >= -1e-8

    def test_strong_dominates_mixture(self):
        for seed in range(10):
            rho, sigma, chan = random_dpi_instance(seed)
            rep = dpi_remainder(rho, sigma, chan, RULE65)
            assert rep.rhs_strong >= rep.rhs_mixture - 1e-9

    def test_support_violation_passes_trivially(self, rng):
        rho = pure_state([1, 0, 0])
        sigma = random_density(3, rng, ensemble="rank-k", rank=1)
        # force orthogonal support
        sigma = pure_state([0, 1, 0])
        rep = dpi_remainder(rho, sigma, depolarizing_channel(3, 0.5), RULE65)
        assert rep.support_violated
        assert rep.lhs == np.inf
        assert rep.slack_mixture == np.inf

    def test_equality_case_every_node(self, rng):
        sigma = random_density(4, rng)
        rho = random_density(4, rng)
        chan = unitary_channel(random_unitary(4, rng))
        out = chan.apply(rho)
        for rec in rotated_petz_family(sigma, chan, RULE65.nodes / 2.0):
            assert trace_distance(rec.apply(out), rho) <= 1e-5

    def test_universality_regression(self, rng):
        # identical serialized bytes no matter which state is recovered later
        sigma = random_density(3, rng)
        chan = random_channel(3, 2, 2, rng)
        rec = universal_recovery(sigma, chan)
        before = dumps_recovery(rec)
        rec.apply(random_density(2, rng))
        rec.apply(random_density(2, rng))
        assert dumps_recovery(rec) == before

    def test_rhs_strong_against_dense_trapezoid(self):
        # independent reference: brute-force trapezoid of the per-node
        # log-fidelity against the mixing density on a dense grid
        from petzlab.recovery import beta0_density, rotated_petz_family

        rho, sigma, chan = random_dpi_instance(3, dim_hi=3)
        rep = dpi_remainder(rho, sigma, chan, RULE129)
        t = np.linspace(-9.0, 9.0, 4001)
        out_rho = chan.apply(rho)
        fids = np.array(
            [
                fidelity(rho, m.apply(out_rho))
                for m in rotated_petz_family(sigma, chan, t / 2.0)
            ]
        )
        dens = beta0_density(t)
        reference = float(
            -2.0 * np.trapezoid(dens * np.log(fids), t) / np.trapezoid(dens, t)
        )
        assert rep.rhs_strong == pytest.approx(reference, abs=1e-8)

    def test_exploratory_entropy_reported(self):
        rep = dpi_remainder(
            CLASSICAL_RHO, CLASSICAL_SIGMA, depolarizing_channel(2, 1.0), RULE65
        )
        expected = relative_entropy(CLASSICAL_RHO, CLASSICAL_SIGMA)
        with pytest.deprecated_call():
            assert rep.exploratory_relative_entropy == pytest.approx(expected, abs=1e-9)

    def test_exploratory_entropy_is_computed_when_read(self, monkeypatch):
        rho, sigma, chan = random_dpi_instance(4)
        # the value the report used to carry: rho against the recovered state,
        # with the spectrum of rho the remainder took
        rep = dpi_remainder(rho, sigma, chan, RULE65)
        want = _relative_entropy(_checked(rho), _psd_eigensystem(rep.recovered_state),
                                 _psd_eigensystem(_checked(rho))[0])
        calls = []
        monkeypatch.setattr(verify, "_relative_entropy",
                            lambda *args: calls.append(args) or _relative_entropy(*args))
        rep = dpi_remainder(rho, sigma, chan, RULE65)
        assert len(calls) == 2  # D(rho||sigma) and D(N(rho)||N(sigma)) only
        assert "exploratory_relative_entropy" not in dataclasses.asdict(rep)
        for read in (1, 2):
            with pytest.warns(DeprecationWarning, match="exploratory_relative_entropy") as record:
                got = rep.exploratory_relative_entropy
            assert len(record) == 1 and record[0].filename == __file__
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
            assert len(calls) == 2 + read


class TestAlphaBound:
    def test_half_identity(self):
        for seed in range(5):
            rho, sigma, chan = random_dpi_instance(seed, dim_hi=3)
            res = alpha_bound_check(rho, sigma, chan, [0.5], RULE65)[0]
            assert abs(res.slack) <= 1e-8

    def test_interior_alphas_nonnegative(self):
        for seed in range(8):
            rho, sigma, chan = random_dpi_instance(seed, dim_hi=3)
            for res in alpha_bound_check(rho, sigma, chan, [0.6, 0.75, 0.9], RULE65):
                assert res.slack >= -1e-7

    def test_alpha_near_one_matches_strong_form(self):
        rho, sigma, chan = random_dpi_instance(4, dim_hi=3)
        rep = dpi_remainder(rho, sigma, chan, RULE129)
        res = alpha_bound_check(rho, sigma, chan, [0.999], RULE129)[0]
        assert res.lhs == pytest.approx(rep.lhs, abs=1e-2)
        assert res.rhs == pytest.approx(rep.rhs_strong, abs=1e-2)

    def test_alpha_out_of_range(self, rng):
        rho = random_density(2, rng)
        with pytest.raises(ValueError, match="alpha"):
            alpha_bound_check(rho, rho, identity_channel(2), [1.2], RULE65)


class TestSsa:
    def test_markov_product(self, rng):
        rho = tensor_product(random_density(4, rng), random_density(2, rng))
        rep = ssa_remainder(rho, (2, 2, 2))
        assert rep.cmi == pytest.approx(0.0, abs=1e-10)
        assert rep.recovered_fidelity == pytest.approx(1.0, abs=1e-8)

    def test_ghz(self):
        rep = ssa_remainder(ghz_state(3), (2, 2, 2))
        assert rep.cmi == pytest.approx(math.log(2.0), abs=1e-9)
        assert rep.slack >= -1e-8

    def test_random_three_qubit(self):
        gen = np.random.default_rng(13)
        for _ in range(10):
            rep = ssa_remainder(random_density(8, gen), (2, 2, 2))
            assert rep.slack >= -1e-8

    def test_dims_mismatch(self, rng):
        with pytest.raises(ValueError, match="dims"):
            ssa_remainder(random_density(6, rng), (2, 2, 2))

    def test_non_integer_dims_refused(self, rng):
        # (2, 2.5, 2) was read as (2, 2, 2)
        with pytest.raises(ValueError, match="dims must hold integers"):
            ssa_remainder(random_density(8, rng), (2, 2.5, 2))
        with pytest.raises(ValueError, match="dims must hold integers"):
            concavity_remainder([(1.0, random_density(4, rng))], (2.0, 2))


class TestConcavity:
    def test_singleton(self, rng):
        rho = random_density(4, rng)
        rep = concavity_remainder([(1.0, rho)], (2, 2))
        assert abs(rep.lhs) <= 1e-10
        assert abs(rep.rhs) <= 1e-10

    def test_identical_members(self, rng):
        rho = random_density(4, rng)
        rep = concavity_remainder([(0.3, rho), (0.7, rho)], (2, 2))
        assert abs(rep.lhs) <= 1e-10
        assert abs(rep.rhs) <= 1e-10

    def test_random_pair(self, rng):
        rep = concavity_remainder(
            [(0.3, random_density(4, rng)), (0.7, random_density(4, rng))],
            (2, 2),
        )
        assert rep.slack >= -1e-8
        assert rep.lhs >= -1e-10  # concavity itself

    def test_simplex_violation(self, rng):
        with pytest.raises(ValueError, match="sum to one"):
            concavity_remainder(
                [(0.6, random_density(4, rng)), (0.6, random_density(4, rng))],
                (2, 2),
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weight_rejected(self, rng, bad):
        members = [(bad, random_density(4, rng)), (1.0, random_density(4, rng))]
        with pytest.raises(ValueError, match="weights must be finite"):
            concavity_remainder(members, (2, 2))


class TestJointConvexity:
    def test_identical_members(self, rng):
        rho = random_density(3, rng)
        sigma = random_density(3, rng)
        rep = joint_convexity_remainder(
            [(0.5, rho, sigma), (0.5, rho, sigma)]
        )
        assert abs(rep.lhs) <= 1e-10
        assert abs(rep.rhs) <= 2e-8

    def test_classical_diagonal_oracle(self):
        gen = np.random.default_rng(7)
        nu = np.array([0.4, 0.6])
        ps = [gen.dirichlet(np.ones(3)) for _ in range(2)]
        qs = [gen.dirichlet(np.ones(3)) + 0.1 for _ in range(2)]
        qs = [q / q.sum() for q in qs]
        members = [
            (nu[x], np.diag(ps[x]).astype(complex), np.diag(qs[x]).astype(complex))
            for x in range(2)
        ]
        rep = joint_convexity_remainder(members)

        def kl(p, q):
            return float(np.sum(p * (np.log(p) - np.log(q))))

        p_avg = nu[0] * ps[0] + nu[1] * ps[1]
        q_avg = nu[0] * qs[0] + nu[1] * qs[1]
        oracle = nu[0] * kl(ps[0], qs[0]) + nu[1] * kl(ps[1], qs[1]) - kl(p_avg, q_avg)
        assert rep.lhs == pytest.approx(oracle, abs=1e-10)
        assert rep.slack >= -1e-8

    def test_random_qubit_ensemble(self, rng):
        members = [
            (w, random_density(2, rng), random_density(2, rng))
            for w in (0.2, 0.5, 0.3)
        ]
        rep = joint_convexity_remainder(members)
        assert rep.slack >= -1e-8
        assert len(rep.member_fidelities) == 3

    def test_support_violation_flagged(self, rng):
        good = (0.5, random_density(2, rng), random_density(2, rng))
        bad = (0.5, pure_state([1, 0]), pure_state([0, 1]))
        rep = joint_convexity_remainder([good, bad])
        assert rep.support_flags == (False, True)
        assert rep.lhs == np.inf

    def test_zero_weight_member_outside_support_adds_nothing(self, rng):
        # its relative entropy is inf, and its weight is 0: 0 * inf is NaN
        members = [(0.5, random_density(2, rng), random_density(2, rng)) for _ in range(2)]
        outside = (0.0, pure_state([0, 1]), pure_state([1, 0]))
        rep = joint_convexity_remainder(members + [outside])
        assert rep.support_flags == (False, False, True)
        assert rep.lhs == joint_convexity_remainder(members).lhs
        assert math.isfinite(rep.slack)

    @pytest.mark.parametrize("members", [
        [(1.0, pure_state([0, 1]), pure_state([1, 0]))],
        [(0.5, pure_state([0, 1]), pure_state([1, 0])),
         (0.5, pure_state([1, 0]), pure_state([1, 0]))],
    ], ids=["single-member", "average-outside-too"])
    def test_member_and_average_outside_support(self, members):
        # both terms are inf, and inf - inf is NaN, which would pass every
        # check, since slack < -tolerance is never true
        rep = joint_convexity_remainder(members)
        assert rep.support_flags[0]
        assert rep.lhs == np.inf and rep.slack == np.inf

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_weight_rejected(self, rng, bad):
        members = [(w, random_density(2, rng), random_density(2, rng)) for w in (bad, 1.0)]
        with pytest.raises(ValueError, match="weights must be finite"):
            joint_convexity_remainder(members)


def syndrome_decoder_for_bit_flip():
    """Explicit syndrome-measurement-and-correct channel (independent oracle)."""
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    eye = np.eye(2, dtype=complex)
    corrections = {
        (0, 0, 0): np.eye(8, dtype=complex),
        (1, 0, 0): tensor_product(x, eye, eye),
        (0, 1, 0): tensor_product(eye, x, eye),
        (0, 0, 1): tensor_product(eye, eye, x),
    }
    kraus = []
    for flips, corr in corrections.items():
        # projector onto span{X^flips |000>, X^flips |111>}
        kets = []
        for logical in ((0, 0, 0), (1, 1, 1)):
            bits = tuple(f ^ b for f, b in zip(flips, logical))
            idx = bits[0] * 4 + bits[1] * 2 + bits[2]
            v = np.zeros(8, dtype=complex)
            v[idx] = 1.0
            kets.append(v)
        proj = sum(np.outer(v, v.conj()) for v in kets)
        kraus.append(corr @ proj)
    return Channel(kraus)


class TestQec:
    def test_empty_codespace_refused(self):
        with pytest.raises(ValueError, match="codespace is empty"):
            qec_analyze(np.zeros((3, 3)), random_channel(3, 3, 2, 5), 4)

    def test_one_dimensional_code(self):
        # every sample is the one code state, which the universal map
        # recovers exactly: gap 0 and fidelity 1 up to rounding
        rep = qec_analyze(pure_state([0.0, 1.0, 0.0]), random_channel(3, 3, 2, 5), 4)
        assert rep.dim_code == 1
        np.testing.assert_allclose(rep.gaps, 0.0, rtol=0, atol=1e-15)
        np.testing.assert_allclose(rep.fidelities, 1.0, rtol=0, atol=1e-12)
        assert abs(rep.forward_bound - 1.0) <= 1e-15
        # log(dim_code) = 0, so the converse bound is the binary entropy alone
        assert 0.0 <= rep.converse_bound <= 1e-4
        assert rep.forward_ok and rep.converse_ok

    def test_unitary_channel_tight(self, rng):
        pi = three_qubit_bit_flip_code()
        chan = unitary_channel(random_unitary(8, rng))
        rep = qec_analyze(pi, chan, 6, seed=2)
        assert rep.sampled_max_gap <= 1e-8
        assert rep.min_recovered_fidelity >= 1.0 - 1e-8
        assert rep.forward_ok and rep.converse_ok

    def test_bit_flip_code_perfect(self):
        pi = three_qubit_bit_flip_code()
        chan = single_bit_flip_channel(0.1)
        # independent syndrome-decoding oracle certifies perfect correction
        decoder = syndrome_decoder_for_bit_flip()
        gen = np.random.default_rng(5)
        iso = np.zeros((8, 2), dtype=complex)
        iso[0, 0] = 1.0
        iso[7, 1] = 1.0
        for _ in range(5):
            small = random_density(2, gen)
            rho = iso @ small @ dagger(iso)
            rec = decoder.apply(chan.apply(rho))
            assert fidelity(rho, rec) >= 1.0 - 1e-10
        # Knill-Laflamme conditions hold for the Kraus set
        for a in chan.kraus:
            for b in chan.kraus:
                block = pi @ dagger(a) @ b @ pi
                coeff = np.trace(block) / np.trace(pi)
                assert np.linalg.norm(block - coeff * pi, 2) <= 1e-10
        rep = qec_analyze(pi, chan, 8, seed=3)
        assert rep.min_recovered_fidelity >= 1.0 - 1e-8
        assert rep.sampled_max_gap <= 1e-8

    def test_depolarizing_codespace_consistent(self):
        gen = np.random.default_rng(11)
        basis = np.linalg.eigh(random_density(4, gen))[1]
        pi = basis[:, :2] @ dagger(basis[:, :2])
        rep = qec_analyze(pi, depolarizing_channel(4, 0.2), 10, seed=4)
        assert rep.forward_ok
        assert rep.converse_ok
        assert rep.dim_code == 2

    def test_non_projector_rejected(self, rng):
        with pytest.raises(ValueError, match="projector"):
            qec_analyze(random_density(4, rng), depolarizing_channel(4, 0.1), 2)

    @pytest.mark.parametrize("projector, message", [
        (np.diag([1.0, np.nan]), "non-finite entries"),
        (np.ones((2, 3)), "expected a square matrix"),
    ])
    def test_malformed_projector_rejected_first(self, projector, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                qec_analyze(projector, single_bit_flip_channel(0.1), 2)

    def test_zero_samples(self):
        rep = qec_analyze(three_qubit_bit_flip_code(), single_bit_flip_channel(0.1), 0)
        assert rep.gaps.shape == rep.fidelities.shape == (0,)
        assert rep.forward_ok and rep.converse_ok

    def test_negative_samples_rejected(self):
        with pytest.raises(ValueError, match="samples"):
            qec_analyze(three_qubit_bit_flip_code(), single_bit_flip_channel(0.1), -3)

    @pytest.mark.parametrize("samples", [2.5, 2.0, np.float64(2)])
    def test_non_integer_samples_rejected(self, samples):
        # a float count once raised a bare TypeError
        args = three_qubit_bit_flip_code(), single_bit_flip_channel(0.1)
        with pytest.raises(ValueError, match="samples must hold integers"):
            qec_analyze(*args, samples)
        counted = qec_analyze(*args, np.int64(2))
        assert counted.gaps.tobytes() == qec_analyze(*args, 2).gaps.tobytes()

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0])
    def test_tolerance_must_be_finite_and_nonnegative(self, tol):
        with pytest.raises(ValueError, match="tolerance must be finite and nonnegative"):
            qec_analyze(three_qubit_bit_flip_code(), single_bit_flip_channel(0.1), 2, tol=tol)

    @pytest.mark.parametrize("code, value", [
        ("bitflip3", 0.2), ("bitflip3", 0.13182888647952362), ("random", 4), ("random", 9),
    ])
    def test_kernel_keeps_the_two_entropy_gaps(self, code, value, monkeypatch):
        # value is the bit-flip weight or the random code's seed
        if code == "bitflip3":
            pi, chan, seed = three_qubit_bit_flip_code(), single_bit_flip_channel(value), 3
        else:
            seed, gen = value, np.random.default_rng(value)
            cols = np.linalg.eigh(random_density(4, gen))[1][:, :2]
            pi, chan = cols @ dagger(cols), random_channel(4, 4, 2, gen)
        calls = []
        kernel = verify._dpi

        def recording(rhos, pair, ts=()):
            calls.append((rhos, pair, ts))
            return kernel(rhos, pair, ts)

        monkeypatch.setattr(verify, "_dpi", recording)
        rep = qec_analyze(pi, chan, 12, seed=seed)
        (rhos, pair, ts), = calls
        assert len(ts) == 0
        rho_sys = _psd_eigensystem(rhos)
        # the samples' gaps as two stacked entropies, and their fidelities in
        # the standard basis
        outs = chan.apply(rhos)
        gaps = (_relative_entropy(rhos, pair.s_sys, rho_sys[0])
                - _relative_entropy(outs, pair.m_sys, _psd_eigensystem(outs)[0]))
        assert rep.gaps.tobytes() == gaps.tobytes()
        fids = _root_fidelities(rho_sys, pair.universal_apply(outs))
        np.testing.assert_allclose(rep.fidelities, fids, rtol=0.0, atol=1e-14)


class TestFiniteSetSearch:
    def test_first_state_outside_sigma_named(self, rng):
        sigma = np.diag([0.6, 0.4, 0.0]).astype(complex)
        inside = np.diag([0.5, 0.5, 0.0]).astype(complex)
        states = [inside, random_density(3, rng), inside, random_density(3, rng)]
        with pytest.raises(ValueError, match="state 1 is not supported inside sigma"):
            finite_set_recovery_search(states, sigma, random_channel(3, 2, 2, rng), [0.0, 1.0])

    def test_singleton_matches_best_grid_map(self, rng):
        sigma = random_density(2, rng)
        chan = random_channel(2, 2, 2, rng)
        rho = random_density(2, rng)
        grid = np.linspace(-2.0, 2.0, 7)
        result = finite_set_recovery_search([rho], sigma, chan, grid, iterations=25)
        # corner evaluations: search must do at least as well as any pure node
        from petzlab.entropy import fidelity_measurement, measured_relative_entropy_lb
        from petzlab.recovery import rotated_petz_family

        gap = relative_entropy(rho, sigma) - relative_entropy(
            chan.apply(rho), chan.apply(sigma)
        )
        best_corner = -np.inf
        for m in rotated_petz_family(sigma, chan, grid):
            rec = m.apply(chan.apply(rho))
            povm = fidelity_measurement(rho, rec)
            best_corner = max(
                best_corner, gap - measured_relative_entropy_lb(rho, rec, povm)
            )
        assert result.min_slack >= best_corner - 1e-9

    def test_sigma_state_recovers_perfectly(self, rng):
        sigma = random_density(3, rng)
        chan = random_channel(3, 2, 2, rng)
        state = sigma / np.trace(sigma).real
        result = finite_set_recovery_search(
            [state, state], sigma, chan, np.linspace(-1, 1, 5), iterations=10
        )
        assert result.min_slack >= -1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_tied_grid_keeps_the_beta0_start(self, seed):
        # an isometric channel is reversed exactly by every rotated map, so
        # every start gives a zero slack up to rounding; the first start, the
        # beta0 density on the grid, is kept
        rng = np.random.default_rng(seed)
        sigma = random_density(3, rng)
        chan = random_channel(3, 4, 1, rng)
        states = [random_density(3, rng) for _ in range(2)]
        grid = np.linspace(-1.0, 1.0, 5)
        result = finite_set_recovery_search(states, sigma, chan, grid, iterations=10)
        dens = beta0_density(grid)
        np.testing.assert_array_equal(result.weights, dens / dens.sum())

    def test_commuting_classical_states(self):
        sigma = np.diag([0.3, 0.7]).astype(complex)
        states = [
            np.diag([0.5, 0.5]).astype(complex),
            np.diag([0.2, 0.8]).astype(complex),
        ]
        chan = depolarizing_channel(2, 0.6)
        result = finite_set_recovery_search(
            states, sigma, chan, np.linspace(-2, 2, 9), iterations=30
        )
        assert result.min_slack >= -1e-8
        # universal beta0 mixture already achieves a nonnegative fidelity-slack
        rep0 = dpi_remainder(states[0], sigma, chan, RULE65)
        rep1 = dpi_remainder(states[1], sigma, chan, RULE65)
        assert min(rep0.slack_mixture, rep1.slack_mixture) >= -1e-8

    def test_empty_rejected(self, rng):
        with pytest.raises(ValueError, match="at least one"):
            finite_set_recovery_search(
                [], random_density(2, rng), identity_channel(2), [0.0]
            )

    @pytest.mark.parametrize("grid", [[0.0, np.nan], [0.0, np.inf], [], [[0.0, 1.0]], 0.5])
    def test_bad_grid_rejected(self, rng, grid):
        sigma = random_density(2, rng)
        with pytest.raises(ValueError, match="t_grid"):
            finite_set_recovery_search([sigma], sigma, identity_channel(2), grid)

    def test_state_shape_mismatch_rejected(self, rng):
        sigma = random_density(2, rng)
        with pytest.raises(ValueError, match="state.*shape of sigma"):
            finite_set_recovery_search(
                [sigma, random_density(3, rng)], sigma, identity_channel(2), [0.0]
            )

    @pytest.mark.parametrize("seed", [6, 23])
    def test_rank_deficient_sigma_pure_states(self, seed):
        # rounding mass of the states off the support of sigma must not turn
        # a probe's slack into -inf and the simplex projection into NaN
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 6))
        sigma = random_density(d, rng, "rank-k", rank=max(1, d // 2))
        chan = random_channel(d, d, 2, rng)
        vals, vecs = np.linalg.eigh(sigma)
        cols = vecs[:, vals > 1e-12]
        proj = cols @ cols.conj().T
        states = []
        for _ in range(2):
            s = proj @ random_density(d, rng, "rank-k", rank=1) @ proj
            states.append(s / np.trace(s).real)
        result = finite_set_recovery_search(
            states, sigma, chan, np.linspace(-1.0, 1.0, 9), iterations=60
        )
        assert np.all(np.isfinite(result.weights)) and np.all(result.weights >= 0.0)
        assert abs(result.weights.sum() - 1.0) <= 1e-12
        assert np.isfinite(result.min_slack)


    @pytest.mark.parametrize("iterations", [-3, -1, 2.5, 3.0, "5", None])
    def test_bad_iterations_rejected(self, rng, iterations):
        sigma = random_density(2, rng)
        with pytest.raises(ValueError, match="iterations must be a nonnegative integer"):
            finite_set_recovery_search([sigma], sigma, identity_channel(2), [0.0, 1.0],
                                       iterations=iterations)

    @pytest.mark.parametrize("iterations", [0, np.int64(2)])
    def test_integer_iterations_accepted(self, rng, iterations):
        sigma = random_density(2, rng)
        result = finite_set_recovery_search([sigma], sigma, identity_channel(2), [0.0, 1.0],
                                            iterations=iterations)
        assert np.isfinite(result.min_slack)


def frozen_search(states, sigma, channel, t_grid, iterations):
    """The search loop as it stood before a failed step kept its gradient:
    every step re-evaluates the ``T`` gradient probes and three candidates.
    Returns the weights, the worst slack, the mixture's Kraus stack and each
    step's outcome (``True`` for a step that improved)."""
    states = np.array([_checked(s) for s in states])
    sigma = _checked(sigma)
    t_grid = np.asarray(t_grid, dtype=float)
    pair = recovery._PetzFactory(sigma, channel)
    outs = channel.apply(states)
    gaps = _relative_entropy(states, pair.s_sys) - _relative_entropy(outs, pair.m_sys)
    recs = pair.recovered(t_grid, outs).reshape(len(states), len(t_grid), -1)
    rhos = dagger(pair.s_sys[1]) @ states @ pair.s_sys[1]
    all_states = np.arange(len(states))

    def slacks(weights, x):
        mix = np.matmul(weights[:, None, None, :], recs[x]).reshape(
            (len(weights), len(x)) + sigma.shape)
        povm = _projectors(_fidelity_measurement(rhos[x], mix))
        return gaps[x] - _measured_lb(rhos[x], mix, povm)

    def objective(weights):
        rows = slacks(weights, all_states)
        worst = np.argmin(rows, axis=1)
        return rows[np.arange(len(rows)), worst], worst

    dens = beta0_density(t_grid)
    starts = [dens / dens.sum()] if float(dens.sum()) > 0 else []
    starts.append(np.full(len(t_grid), 1.0 / len(t_grid)))
    starts.extend(np.eye(len(t_grid)))
    starts = np.array(starts)
    values, worst = objective(starts)
    b = int(np.argmax(values >= np.max(values) - 1e-14))
    w, f_cur, active = starts[b], float(values[b]), int(worst[b])
    step, delta, outcomes = 0.5, 1e-4, []
    diagonal = np.diag_indices(len(t_grid))
    for _ in range(iterations):
        probes = np.tile(w, (len(t_grid), 1))
        probes[diagonal] += delta
        probes /= probes.sum(axis=1, keepdims=True)
        grad = (slacks(probes, [active])[:, 0] - f_cur) / delta
        etas = (step, step / 4.0, step / 16.0)
        cands = np.array([verify._project_simplex(w + eta * grad) for eta in etas])
        values, worst = objective(cands)
        better = np.flatnonzero(values > f_cur + 1e-14)
        outcomes.append(bool(better.size))
        if better.size:
            k = better[0]
            w, f_cur, active = cands[k], float(values[k]), int(worst[k])
        else:
            step /= 4.0
            if step < 1e-4:
                break
    keep = w != 0.0
    kraus = pair.kraus_stack(t_grid[keep]) * np.sqrt(w[keep])[:, None, None, None]
    kraus = kraus.reshape(-1, channel.dim_in, channel.dim_out)
    return w, f_cur, kraus, outcomes


def pure_states_in_support(seed):
    """A rank-deficient sigma and two pure states inside its support."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 6))
    sigma = random_density(d, rng, "rank-k", rank=max(1, d // 2))
    chan = random_channel(d, d, 2, rng)
    vals, vecs = np.linalg.eigh(sigma)
    cols = vecs[:, vals > 1e-12]
    proj = cols @ cols.conj().T
    states = []
    for _ in range(2):
        s = proj @ random_density(d, rng, "rank-k", rank=1) @ proj
        states.append(s / np.trace(s).real)
    return states, sigma, chan


def drawn_states(seed, count):
    """A seeded full-rank sigma, channel and ``count`` states."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 5))
    sigma = random_density(d, rng)
    chan = random_channel(d, int(rng.integers(2, 5)), 2, rng)
    return [random_density(d, rng) for _ in range(count)], sigma, chan


GRID5 = np.linspace(-1.0, 1.0, 5)
# (states, sigma, channel, grid, iterations, the step outcomes the case must show)
SEARCH_CASES = {
    "one state, improving": (*drawn_states(0, 1), GRID5, 10, "+"),
    "two states, mixed, breaks": (*drawn_states(1, 2), GRID5, 60, "+-b"),
    "three states, mixed, breaks": (*drawn_states(12, 3), GRID5, 60, "+-b"),
    # cut by the iteration count, where a step spent or saved would show
    "two states, mixed, cut": (*drawn_states(1, 2), GRID5, 12, "+-"),
    "three states, mixed, cut": (*drawn_states(12, 3), GRID5, 7, "+-"),
    "three states, improving": (*drawn_states(11, 3), np.linspace(-2.0, 2.0, 7), 12, "+"),
    "one state, never improving": (*drawn_states(6, 1), GRID5, 60, "-b"),
    "one-node grid": (*drawn_states(2, 2), np.array([0.3]), 60, "-b"),
    "pure states, never improving": (*pure_states_in_support(6), np.linspace(-1.0, 1.0, 9), 60,
                                     "-b"),
    "pure states, improving": (*pure_states_in_support(12), np.linspace(-1.0, 1.0, 9), 20, "+"),
}


class TestSearchReusesFailedSteps:
    """A step whose candidates all fail leaves the point and its gradient as
    they were; the next step evaluates only its one new candidate, and every
    result is the frozen loop's, bit for bit."""

    @pytest.mark.parametrize("name", list(SEARCH_CASES))
    def test_bit_identical_to_the_frozen_loop(self, name):
        states, sigma, chan, grid, iterations, shows = SEARCH_CASES[name]
        w, f_cur, kraus, outcomes = frozen_search(states, sigma, chan, grid, iterations)
        got = finite_set_recovery_search(states, sigma, chan, grid, iterations=iterations)
        assert got.weights.tobytes() == w.tobytes()
        assert np.float64(got.min_slack).tobytes() == np.float64(f_cur).tobytes()
        assert got.recovery.kraus.tobytes() == kraus.tobytes()
        # the case covers what it is named for
        assert ("+" in shows) <= any(outcomes)
        assert ("-" in shows) <= (not all(outcomes))
        assert ("b" in shows) <= (len(outcomes) < iterations)

    def test_cases_cover_both_outcomes_and_the_break(self):
        seen = set()
        for states, sigma, chan, grid, iterations, _ in SEARCH_CASES.values():
            outcomes = frozen_search(states, sigma, chan, grid, iterations)[3]
            seen.update(outcomes)
            if len(outcomes) < iterations:
                seen.add("break")
        assert seen == {True, False, "break"}

    @staticmethod
    def recorded_stacks(monkeypatch):
        """The ``(P, X)`` stack shape of every ``_fidelity_measurement`` call."""
        shapes = []

        def recording(rhos, mix):
            shapes.append(mix.shape[:2])
            return _fidelity_measurement(rhos, mix)

        monkeypatch.setattr(verify, "_fidelity_measurement", recording)
        return shapes

    def test_failed_first_step_counts(self, monkeypatch):
        states, sigma, chan, grid, _, _ = SEARCH_CASES["one state, never improving"]
        assert frozen_search(states, sigma, chan, grid, 60)[3] == [False] * 7
        shapes = self.recorded_stacks(monkeypatch)
        finite_set_recovery_search(states, sigma, chan, grid, iterations=60)
        # the starts (the beta0 density, the uniform point and the 5 nodes),
        # the 5 probes and 3 candidates of the first step, then one candidate
        # for each of the six failed steps before the step size falls below 1e-4
        assert shapes == [(7, 1), (5, 1), (3, 1)] + [(1, 1)] * 6

    def test_one_node_grid_evaluates_only_the_starts(self, monkeypatch):
        states, sigma, chan, grid, _, _ = SEARCH_CASES["one-node grid"]
        shapes = self.recorded_stacks(monkeypatch)
        finite_set_recovery_search(states, sigma, chan, grid, iterations=60)
        # the beta0 density, the uniform point and the node are one point
        assert shapes == [(3, 2)]

    @pytest.mark.parametrize("name", ["two states, mixed, breaks", "three states, mixed, breaks"])
    def test_stacks_follow_the_step_outcomes(self, monkeypatch, name):
        states, sigma, chan, grid, iterations, _ = SEARCH_CASES[name]
        outcomes = frozen_search(states, sigma, chan, grid, iterations)[3]
        shapes = self.recorded_stacks(monkeypatch)
        finite_set_recovery_search(states, sigma, chan, grid, iterations=iterations)
        x = len(states)
        want = [(len(grid) + 2, x)]
        for i, _ in enumerate(outcomes):
            if i and not outcomes[i - 1]:
                want.append((1, x))
            else:
                want += [(len(grid), 1), (3, x)]
        assert shapes == want
        frozen = 1 + 2 * len(outcomes)
        assert len(shapes) == frozen - sum(1 for o in outcomes[:-1] if not o)


class TestTruncation:
    def test_full_rank_k_equals_dim(self, rng):
        rho = random_density(4, rng)
        sigma = random_density(4, rng)
        chan = random_channel(4, 3, 2, rng)
        rep = truncation_convergence(rho, sigma, chan, [2, 4])
        assert rep.final_delta <= 1e-10
        assert rep.truncated_relative_entropies[-1] == pytest.approx(
            rep.full_relative_entropy, abs=1e-10
        )

    def test_rank_two_aligned_support(self, rng):
        basis = random_unitary(4, rng)
        cols = basis[:, :2]
        small_r = random_density(2, rng)
        small_s = random_density(2, rng)
        rho = cols @ small_r @ dagger(cols)
        sigma = cols @ small_s @ dagger(cols)
        chan = random_channel(4, 3, 2, rng)
        rep = truncation_convergence(rho, sigma, chan, [2, 4], reference=sigma)
        assert abs(rep.truncated_relative_entropies[0] - rep.full_relative_entropy) <= 1e-9

    def test_monotone_dim_twelve(self):
        gen = np.random.default_rng(19)
        rho = random_density(12, gen)
        sigma = random_density(12, gen)
        chan = random_channel(12, 4, 3, gen)
        rep = truncation_convergence(rho, sigma, chan, [4, 8, 12])
        d = rep.truncated_relative_entropies
        assert rep.monotone_ok
        assert d[0] <= d[1] + 1e-9 <= d[2] + 2e-9
        assert rep.final_delta <= 1e-6

    def test_k_out_of_range(self, rng):
        rho = random_density(3, rng)
        with pytest.raises(ValueError, match="k_list"):
            truncation_convergence(rho, rho, identity_channel(3), [1, 5])

    @pytest.mark.parametrize("k_list", [[1.5, 3], [1, 2.0], [np.float64(2.0)]])
    def test_non_integer_ranks_refused(self, rng, k_list):
        # [1.5, 3] was read as ranks (1, 3)
        rho = random_density(3, rng)
        with pytest.raises(ValueError, match="k_list must hold integers"):
            truncation_convergence(rho, rho, identity_channel(3), k_list)

    def test_integer_ranks_of_any_integer_type(self, rng):
        rho = random_density(3, rng)
        ks = (k for k in np.arange(1, 4))  # numpy integers, from a generator
        rep = truncation_convergence(rho, rho, identity_channel(3), ks)
        assert rep.ks == (1, 2, 3) and all(type(k) is int for k in rep.ks)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_rho_outside_sigma_support_has_no_nan(self, d):
        # both full entropies are infinite: their difference is 0, not NaN
        gen = np.random.default_rng(40 + d)
        rho = random_density(d, gen)
        sigma = random_density(d, gen, ensemble="rank-k", rank=max(1, d // 2))
        chan = random_channel(d, 3, 2, gen)
        rep = truncation_convergence(rho, sigma, chan, list(range(1, d + 1)))
        assert rep.full_relative_entropy == np.inf
        assert rep.truncated_relative_entropies[-1] == np.inf
        assert rep.final_delta == 0.0
        assert not np.any(np.isnan(rep.truncated_relative_entropies))


class TestSweep:
    def test_redraw_limit(self, monkeypatch):
        # no random state has condition number 1, so every draw is refused
        monkeypatch.setattr(verify, "MAX_CONDITION", 1.0)
        with pytest.raises(RuntimeError, match="could not draw a dim-.* state with condition"):
            sweep(SweepConfig(seed=1, count=1, nodes=33))

    def test_empty_sweep(self):
        result = sweep(SweepConfig(seed=1, count=0, nodes=33))
        assert result.ok
        assert result.rows == []

    def test_deterministic_rows(self):
        config = SweepConfig(seed=7, count=5, dims=(2, 3), nodes=33)
        a = sweep(config)
        b = sweep(config)
        assert a.rows == b.rows
        assert a.summary == b.summary

    def test_small_dpi_sweep_passes(self):
        result = sweep(SweepConfig(seed=3, count=20, dims=(2, 4), nodes=65))
        assert result.ok
        assert result.summary["min_slack"] >= -1e-8

    def test_other_kinds(self):
        for kind in ("ssa", "concavity", "joint-convexity"):
            result = sweep(
                SweepConfig(seed=5, count=3, dims=(2, 2), nodes=33, kind=kind)
            )
            assert result.ok, kind

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            SweepConfig(count=-1)
        with pytest.raises(ValueError):
            SweepConfig(kind="nope")
        # the DPI kind's rhs_strong rule needs three nodes
        with pytest.raises(ValueError, match="invalid sweep configuration"):
            SweepConfig(nodes=2)

    @pytest.mark.parametrize("dims", [(2.7, 3.2), (2, 3.0), (np.float64(2), 3)])
    def test_non_integer_dims_refused(self, dims):
        # (2.7, 3.2) was read as (2, 3)
        with pytest.raises(ValueError, match="dims must hold integers"):
            SweepConfig(dims=dims)
        assert SweepConfig(dims=np.array([2, 3])).dims == (2, 3)

    @pytest.mark.parametrize("field", ["count", "nodes", "seed", "env_max"])
    @pytest.mark.parametrize("value", [2.5, 3.0, np.float64(3), "3", None],
                             ids=["2.5", "3.0", "float64", "str", "None"])
    def test_non_integer_fields_refused(self, field, value):
        # env_max=2.5 ran a sweep; the others failed later with a bare TypeError
        with pytest.raises(ValueError, match=f"{field} must hold integers"):
            SweepConfig(**{field: value})
        config = SweepConfig(**{field: np.int64(3)})
        assert type(getattr(config, field)) is int and getattr(config, field) == 3

    @pytest.mark.parametrize("kind", ["ssa", "concavity", "joint-convexity"])
    def test_mixture_kinds_take_any_nodes(self, kind):
        # they never read nodes; the summary still records it
        got = sweep(SweepConfig(seed=5, count=2, dims=(2, 2), nodes=2, kind=kind))
        want = sweep(SweepConfig(seed=5, count=2, dims=(2, 2), kind=kind))
        assert got.rows == want.rows and got.summary["nodes"] == 2

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0])
    def test_tolerance_must_be_finite_and_nonnegative(self, tol):
        # slack < -nan is never true, so a NaN tolerance would pass every row
        with pytest.raises(ValueError, match="tolerance must be finite and nonnegative"):
            SweepConfig(count=3, tolerance=tol)

    def test_mixture_kinds_build_no_rule(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a mixture kind built a quadrature rule")

        monkeypatch.setattr(verify, "beta_quadrature", refuse)
        for kind in ("ssa", "concavity", "joint-convexity"):
            assert sweep(SweepConfig(seed=5, count=2, dims=(2, 2), nodes=33, kind=kind)).ok


def deprecated_rule_cases():
    """``(name, check, args, kwargs)`` of the three checks and the map builder
    that read no rule; a rule goes between ``args`` and ``kwargs``, as in a
    positional call."""
    gen = np.random.default_rng(41)
    sigma = random_density(4, gen)
    members = [(w, random_density(4, gen)) for w in (0.3, 0.7)]
    triples = [(w, random_density(3, gen), random_density(3, gen)) for w in (0.4, 0.6)]
    yield "ssa_remainder", ssa_remainder, (random_density(12, gen), (2, 3, 2)), {}
    yield "concavity_remainder", concavity_remainder, (members, (2, 2)), {}
    yield "joint_convexity_remainder", joint_convexity_remainder, (triples,), {}
    yield "universal_recovery", universal_recovery, (sigma, random_channel(4, 3, 2, gen)), {}


def assert_bit_identical(got, want):
    assert got.keys() == want.keys()
    for key in want:
        a, b = np.asarray(got[key]), np.asarray(want[key])
        assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes()), key


def fields(result):
    """A check's report fields, or a map's file text."""
    if isinstance(result, RecoveryMap):
        return {"text": dumps_recovery(result)}
    return dataclasses.asdict(result)


class TestRemovedRule:
    """``qec_analyze`` and ``truncation_convergence`` take no rule: one passed
    by name or by position is a ``TypeError`` at the call, never bound to
    ``seed`` or ``reference``."""

    @pytest.mark.parametrize("case", [
        (qec_analyze, (three_qubit_bit_flip_code(), single_bit_flip_channel(0.1), 6)),
        (truncation_convergence,
         (random_density(4, 41), random_density(4, 42), random_channel(4, 3, 2, 43), [1, 2, 4])),
    ], ids=lambda c: c[0].__name__)
    def test_rule_is_a_type_error(self, case):
        check, args = case
        with pytest.raises(TypeError, match="rule"):
            check(*args, rule=RULE65)
        with pytest.raises(TypeError, match="positional"):
            check(*args, RULE65)


class TestDeprecatedRule:
    """A rule passed to a function that applies or builds the exact universal
    map is not read: it warns once, at the caller, and changes no field."""

    @pytest.mark.parametrize("case", list(deprecated_rule_cases()), ids=lambda c: c[0])
    def test_rule_warns_once_and_changes_nothing(self, case):
        name, check, args, kwargs = case
        want = check(*args, **kwargs)
        with pytest.warns(DeprecationWarning, match=f"^{name}: the rule argument") as record:
            got = check(*args, RULE65, **kwargs)
        assert len(record) == 1
        assert record[0].filename == __file__
        assert_bit_identical(fields(got), fields(want))
        with pytest.warns(DeprecationWarning, match=f"^{name}: the rule argument"):
            check(*args, rule=RULE129, **kwargs)
