import math

import numpy as np
import pytest

from conftest import quadrature_map
from petzlab.channels import (
    Channel,
    channels_close,
    choi_distance,
    dephasing_channel,
    depolarizing_channel,
    identity_channel,
    maximally_mixed,
    random_channel,
    random_density,
    random_unitary,
    unitary_channel,
)
from petzlab import recovery
from petzlab.entropy import trace_distance
from petzlab.linalg import _checked, dagger, sqrtm_psd, support_projector, tensor_product
from petzlab.recovery import (
    QuadratureRule,
    RecoveryMap,
    beta0_density,
    beta0_quadrature,
    beta_quadrature,
    beta_theta_density,
    convex_mixture,
    count_eigenspaces,
    eigenspace_phase_unitary,
    petz,
    phase_rotated_petz,
    rotated_petz,
    universal_recovery,
)


def brute_beta0_integral(f, span=30.0, points=10**6):
    t = np.linspace(-span, span, points)
    return float(np.trapezoid(f(t) * beta0_density(t), t))


class TestDensities:
    def test_beta0_at_zero(self):
        assert beta0_density(0.0) == pytest.approx(math.pi / 4.0, abs=1e-15)

    def test_beta0_at_one(self):
        # scalar reference evaluated directly from cosh
        expected = (math.pi / 2.0) / (math.cosh(math.pi) + 1.0)
        assert beta0_density(1.0) == pytest.approx(expected, abs=1e-15)
        assert beta0_density(1.0) == pytest.approx(0.124746, abs=5e-7)

    def test_beta_theta_limit(self):
        assert beta_theta_density(0.7, 0.001) == pytest.approx(
            beta0_density(0.7), abs=1e-3
        )

    def test_densities_normalized(self):
        for theta in (0.0, 0.25, 0.6):
            total = brute_beta0_integral(lambda t: np.ones_like(t)) if theta == 0.0 else None
            if theta == 0.0:
                assert total == pytest.approx(1.0, abs=1e-10)
            else:
                t = np.linspace(-30, 30, 10**6)
                bt = float(np.trapezoid(beta_theta_density(t, theta), t))
                assert bt == pytest.approx(1.0, abs=1e-9)

    def test_theta_range(self):
        with pytest.raises(ValueError):
            beta_theta_density(0.0, 1.2)


class TestQuadrature:
    def test_weight_sum_exact(self):
        for n in (3, 5, 65, 129, 257):
            rule = beta0_quadrature(n)
            assert abs(float(rule.weights.sum()) - 1.0) <= 1e-12
            assert np.all(np.diff(rule.nodes) > 0)

    def test_first_moment_vanishes(self):
        rule = beta0_quadrature(65)
        assert abs(rule.integrate(rule.nodes)) <= 1e-10

    def test_second_moment_against_brute_force(self):
        rule = beta0_quadrature(129)
        reference = brute_beta0_integral(lambda t: t * t)
        assert abs(rule.integrate(rule.nodes**2) - reference) <= 1e-8

    def test_theta_rule_matches_brute_force(self):
        theta = 0.5
        rule = beta_quadrature(257, theta)
        t = np.linspace(-30, 30, 10**6)
        reference = float(np.trapezoid(np.cos(t) * beta_theta_density(t, theta), t))
        assert abs(rule.integrate(np.cos(rule.nodes)) - reference) <= 1e-9

    def test_too_few_nodes(self):
        with pytest.raises(ValueError, match="nodes"):
            beta0_quadrature(2)

    @pytest.mark.parametrize("nodes, weights, message", [
        ([0.0, 1.0], [1.0], "matching 1-d arrays"),
        ([[0.0, 1.0]], [[0.5, 0.5]], "matching 1-d arrays"),
        ([1.0, 0.0], [0.5, 0.5], "strictly increasing"),
        ([0.0, np.inf], [0.5, 0.5], "finite and strictly increasing"),
        ([0.0, 1.0], [1.5, -0.5], "positive"),
        ([0.0, 1.0], [0.5, 0.4], "sum to one"),
        ([-1.0, 1.0], [np.nan, np.nan], "finite"),
        ([0.0, 1.0], [0.5, np.nan], "finite"),
        ([0.0, 1.0], [np.inf, 0.5], "finite"),
        ([0.0, 1.0], [-np.inf, 0.5], "positive"),
    ])
    def test_rule_validation(self, nodes, weights, message):
        with pytest.raises(ValueError, match=message):
            QuadratureRule(nodes, weights)

    def test_rule_keeps_float_arrays(self):
        rule = QuadratureRule([-1, 0, 1], [0.25, 0.5, 0.25])
        assert rule.nodes.dtype == rule.weights.dtype == float
        assert len(rule) == 3
        assert rule.integrate(rule.nodes**2) == 0.5


class TestPetz:
    def test_identity_channel_full_rank(self, rng):
        sigma = random_density(3, rng)
        rec = petz(sigma, identity_channel(3))
        assert channels_close(rec, identity_channel(3), tol=1e-9)

    def test_full_depolarizing_closed_form(self, rng):
        sigma = random_density(3, rng)
        rec = petz(sigma, depolarizing_channel(3, 1.0))
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        np.testing.assert_allclose(rec.apply(x), np.trace(x) * sigma, atol=1e-10)

    def test_perfect_recovery_of_sigma(self, rng):
        sigma = random_density(4, rng)
        chan = random_channel(4, 3, 2, rng)
        rec = petz(sigma, chan)
        err = 2.0 * trace_distance(rec.apply(chan.apply(sigma)), sigma)
        assert err <= 1e-9

    def test_matches_direct_formula(self, rng):
        # sigma^{1/2} N^dag(N(sigma)^{-1/2} X N(sigma)^{-1/2}) sigma^{1/2}
        # assembled from the linalg primitives, no Kraus flattening
        from petzlab.linalg import power_on_support

        sigma = random_density(3, rng, ensemble="rank-k", rank=2)
        chan = random_channel(3, 2, 2, rng)
        rec = petz(sigma, chan)
        inv_root = power_on_support(chan.apply(sigma), -0.5)
        root = sqrtm_psd(sigma)
        x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        direct = root @ chan.adjoint_apply(inv_root @ x @ inv_root) @ root
        np.testing.assert_allclose(rec.apply(x), direct, atol=1e-11)

    def test_adjoint_identity_basis(self, rng):
        # weighted-inner-product characterization over full matrix unit bases
        din, dout = 3, 2
        for sigma in (
            random_density(din, rng),
            random_density(din, rng, ensemble="rank-k", rank=2),
        ):
            chan = random_channel(din, dout, 2, rng)
            rec = petz(sigma, chan)
            s_half = sqrtm_psd(sigma)
            m_half = sqrtm_psd(chan.apply(sigma))
            worst = 0.0
            for i in range(dout):
                for j in range(dout):
                    a1 = np.zeros((dout, dout), dtype=complex)
                    a1[i, j] = 1.0
                    for k in range(din):
                        for l in range(din):
                            a2 = np.zeros((din, din), dtype=complex)
                            a2[k, l] = 1.0
                            lhs = np.trace(
                                dagger(a2) @ s_half @ chan.adjoint_apply(a1) @ s_half
                            )
                            rhs = np.trace(
                                dagger(rec.adjoint_apply(a2)) @ m_half @ a1 @ m_half
                            )
                            worst = max(worst, abs(lhs - rhs))
            assert worst <= 1e-9

    def test_degenerate_output_rejected(self):
        sigma = np.diag([1.0, 0.0]).astype(complex)
        # valid trace non-increasing map that kills the support of sigma
        chan = Channel([np.array([[0.0, 1.0], [0.0, 0.0]])], mode="tni")
        with pytest.raises(ValueError, match="zero"):
            petz(sigma, chan)


class TestRotatedPetz:
    def test_t_zero_is_petz_bit_exact(self, rng):
        sigma = random_density(3, rng)
        chan = random_channel(3, 3, 2, rng)
        np.testing.assert_array_equal(
            rotated_petz(sigma, chan, 0.0).kraus, petz(sigma, chan).kraus
        )

    def test_classical_instance_rotation_free(self, rng):
        sigma = np.diag([0.2, 0.3, 0.5]).astype(complex)
        chan = dephasing_channel(3, 1.0)
        base = petz(sigma, chan)
        for t in (-1.5, 0.4, 2.0):
            rot = rotated_petz(sigma, chan, t)
            assert choi_distance(rot, base) <= 1e-10

    def test_recovers_sigma_any_t(self, rng):
        sigma = random_density(3, rng)
        chan = random_channel(3, 2, 2, rng)
        out = chan.apply(sigma)
        for t in (-2.0, 0.5, 3.0):
            rec = rotated_petz(sigma, chan, t)
            assert 2.0 * trace_distance(rec.apply(out), sigma) <= 1e-9

    def test_continuity_in_t(self, rng):
        sigma = random_density(3, rng)
        chan = random_channel(3, 3, 2, rng)
        base = rotated_petz(sigma, chan, 0.7)
        dists = []
        for delta in (0.2, 0.1, 0.05):
            moved = rotated_petz(sigma, chan, 0.7 + delta)
            dists.append(choi_distance(base, moved))
        # roughly linear shrinkage with delta
        assert dists[0] > dists[1] > dists[2] > 0
        assert dists[0] / dists[2] == pytest.approx(4.0, rel=0.35)


class TestUniversalRecovery:
    def test_is_one_channel(self, rng):
        sigma = random_density(3, rng)
        chan = random_channel(3, 2, 2, rng)
        rec = universal_recovery(sigma, chan)
        assert isinstance(rec, Channel)
        assert rec.mode == "tni"
        # a rule's map holds every node's operators
        assert quadrature_map(sigma, chan, beta0_quadrature(33)).kraus.shape == (33 * 2, 3, 2)
        # the tracer in bench/ wraps these two entries of the class itself
        assert {"__init__", "apply"} <= set(vars(RecoveryMap))

    def test_builds_one_map(self, rng, monkeypatch):
        calls = []
        init = RecoveryMap.__init__

        def counting_init(self, *args, **kwargs):
            calls.append(args[0])
            init(self, *args, **kwargs)

        monkeypatch.setattr(RecoveryMap, "__init__", counting_init)
        universal_recovery(random_density(3, rng), random_channel(3, 3, 2, rng))
        assert calls == ["universal"]

    def test_perfect_reconstruction(self, rng):
        sigma = random_density(4, rng)
        chan = random_channel(4, 3, 2, rng)
        rec = universal_recovery(sigma, chan)
        err = 2.0 * trace_distance(rec.apply(chan.apply(sigma)), sigma)
        assert err <= 1e-8

    def test_normalization(self, rng):
        sigma = random_density(3, rng)
        rec = universal_recovery(sigma, identity_channel(3))
        assert choi_distance(rec, identity_channel(3)) <= 1e-8

    def test_projects_outside_support(self, rng):
        sigma = random_density(3, rng, ensemble="rank-k", rank=2)
        rec = universal_recovery(sigma, identity_channel(3))
        pi = support_projector(sigma)
        x = random_density(3, rng)
        np.testing.assert_allclose(rec.apply(x), pi @ x @ pi, atol=1e-9)

    def test_stabilization(self, rng):
        sigma = random_density(3, rng)
        tau = random_density(2, rng)
        chan = random_channel(3, 2, 2, rng)
        big = universal_recovery(tensor_product(sigma, tau), chan.tensor(identity_channel(2)))
        small = universal_recovery(sigma, chan)
        lifted = Channel(
            [tensor_product(k, np.eye(2)) for k in small.kraus], mode="tni"
        )
        assert choi_distance(big, lifted) <= 1e-8

    def test_trace_preserving_on_support(self, rng):
        sigma = random_density(3, rng, ensemble="rank-k", rank=2)
        chan = random_channel(3, 2, 2, rng)
        rec = universal_recovery(sigma, chan)
        s = np.einsum("kij,kil->jl", rec.kraus.conj(), rec.kraus)
        np.testing.assert_allclose(
            s, support_projector(chan.apply(sigma)), atol=1e-9
        )

    def test_completely_positive(self, rng):
        sigma = random_density(2, rng)
        chan = random_channel(2, 2, 2, rng)
        rec = universal_recovery(sigma, chan)
        low = float(np.min(np.linalg.eigvalsh(rec.choi())))
        assert low >= -1e-9

    def test_per_node_fidelity_matches_boundary_norm(self, rng):
        # the trace norm of the assembled boundary product at parameter t
        # equals the fidelity of the rotated recovery at t/2
        from petzlab.entropy import fidelity
        from petzlab.linalg import fun_on_support, sqrtm_psd

        def power(h, z):
            return fun_on_support(h, lambda v: np.exp(z * np.log(v)))

        sigma = random_density(3, rng)
        rho = random_density(3, rng)
        chan = random_channel(3, 2, 2, rng)
        out_rho = chan.apply(rho)
        out_sigma = chan.apply(sigma)
        iso = chan.stinespring_isometry()
        env = chan.num_kraus
        for t in (-1.3, 0.0, 0.8):
            z = 0.5 * (1.0 + 1j * t)
            left = power(out_rho, z) @ power(out_sigma, -z)
            mat = (
                np.kron(left, np.eye(env))
                @ iso
                @ power(sigma, z)
                @ sqrtm_psd(rho)
            )
            norm1 = float(np.sum(np.linalg.svd(mat, compute_uv=False)))
            rec = rotated_petz(sigma, chan, t / 2.0).apply(out_rho)
            assert norm1 == pytest.approx(fidelity(rho, rec), abs=1e-10)

    def test_slack_stable_under_node_doubling(self):
        # verified through the dpi slack; fixed well-conditioned instances
        from petzlab.verify import dpi_remainder

        for seed in (2, 5):
            gen = np.random.default_rng(seed)
            sigma = random_density(3, gen)
            rho = random_density(3, gen)
            chan = random_channel(3, 2, 2, gen)
            r65 = dpi_remainder(rho, sigma, chan, beta0_quadrature(65))
            r129 = dpi_remainder(rho, sigma, chan, beta0_quadrature(129))
            r257 = dpi_remainder(rho, sigma, chan, beta0_quadrature(257))
            assert abs(r65.slack_mixture - r129.slack_mixture) <= 1e-8
            assert abs(r129.slack_mixture - r257.slack_mixture) <= 1e-8


class TestPhaseRotated:
    def test_zero_phases_equal_petz(self, rng):
        sigma = random_density(3, rng)
        chan = random_channel(3, 2, 2, rng)
        n_out = count_eigenspaces(chan.apply(sigma))
        n_in = count_eigenspaces(sigma)
        rec = phase_rotated_petz(sigma, chan, np.zeros(n_out), np.zeros(n_in))
        np.testing.assert_allclose(rec.kraus, petz(sigma, chan).kraus, atol=1e-13)

    def test_recovers_sigma(self, rng):
        sigma = random_density(3, rng)
        chan = random_channel(3, 2, 2, rng)
        n_out = count_eigenspaces(chan.apply(sigma))
        n_in = count_eigenspaces(sigma)
        rec = phase_rotated_petz(
            sigma, chan, rng.uniform(0, 2 * np.pi, n_out), rng.uniform(0, 2 * np.pi, n_in)
        )
        assert 2.0 * trace_distance(rec.apply(chan.apply(sigma)), sigma) <= 1e-9

    def test_maximally_mixed_sigma_phase_free(self, rng):
        sigma = maximally_mixed(3)
        u = random_unitary(3, rng)
        chan = unitary_channel(u)
        assert count_eigenspaces(chan.apply(sigma)) == 1
        base = phase_rotated_petz(sigma, chan, [0.0], [0.0])
        for phi in (0.3, 1.0, 4.0):
            other = phase_rotated_petz(sigma, chan, [phi], [2.0 * phi])
            assert choi_distance(base, other) <= 1e-12

    def test_phase_length_mismatch(self, rng):
        sigma = random_density(3, rng)
        chan = random_channel(3, 2, 2, rng)
        with pytest.raises(ValueError, match="eigenspaces"):
            phase_rotated_petz(sigma, chan, np.zeros(7), np.zeros(1))

    def test_unitary_commutes_with_operator(self, rng):
        h = random_density(4, rng)
        u = eigenspace_phase_unitary(h, rng.uniform(0, 2 * np.pi, 4))
        assert np.linalg.norm(u @ h - h @ u, 2) <= 1e-12
        np.testing.assert_allclose(dagger(u) @ u, np.eye(4), atol=1e-12)


class TestConvexMixture:
    def test_single_map(self, rng):
        sigma = random_density(3, rng)
        chan = random_channel(3, 2, 2, rng)
        base = petz(sigma, chan)
        mix = convex_mixture([base], [1.0])
        assert choi_distance(mix, base) <= 1e-12

    def test_self_mixture(self, rng):
        sigma = random_density(3, rng)
        chan = random_channel(3, 2, 2, rng)
        base = petz(sigma, chan)
        mix = convex_mixture([base, base], [0.5, 0.5])
        assert choi_distance(mix, base) <= 1e-12

    def test_two_rotations_recover_sigma(self, rng):
        sigma = random_density(3, rng)
        chan = random_channel(3, 2, 2, rng)
        mix = convex_mixture(
            [rotated_petz(sigma, chan, -1.0), rotated_petz(sigma, chan, 1.0)],
            [0.5, 0.5],
        )
        assert 2.0 * trace_distance(mix.apply(chan.apply(sigma)), sigma) <= 1e-9

    def test_weight_violation(self, rng):
        sigma = random_density(2, rng)
        chan = identity_channel(2)
        base = petz(sigma, chan)
        with pytest.raises(ValueError, match="weights"):
            convex_mixture([base, base], [0.7, 0.7])

    def test_needs_a_component(self):
        with pytest.raises(ValueError, match="at least one component"):
            convex_mixture([], [])

    def test_one_weight_per_component(self, rng):
        base = petz(random_density(2, rng), identity_channel(2))
        with pytest.raises(ValueError, match="one weight per component"):
            convex_mixture([base, base], [1.0])

    def test_components_share_spaces(self, rng):
        square = petz(random_density(2, rng), identity_channel(2))
        wide = petz(random_density(2, rng), random_channel(2, 3, 1, rng))
        with pytest.raises(ValueError, match="different spaces"):
            convex_mixture([square, wide], [0.5, 0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weight_rejected(self, rng, bad):
        base = petz(random_density(2, rng), identity_channel(2))
        with pytest.raises(ValueError, match="weights must be finite"):
            convex_mixture([base, base], [bad, 1.0])


def ill_conditioned_unitary_instance(dim, seed):
    """``sigma`` of condition 1e10 and a random unitary channel, so that
    ``N(sigma)`` has condition 1e10 too."""
    gen = np.random.default_rng(seed)
    u = random_unitary(dim, gen)
    vals = np.logspace(0.0, -10.0, dim)
    return (u * (vals / vals.sum())) @ u.conj().T, unitary_channel(random_unitary(dim, gen))


class TestTraceNonIncreaseBudget:
    """A map of the pair may exceed trace non-increase by the rounding that
    ``N(sigma)^{-1/2}`` amplifies, and by no more."""

    @pytest.mark.parametrize("dim", [3, 4, 5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_ill_conditioned_unitary_channel_builds(self, dim, seed):
        sigma, chan = ill_conditioned_unitary_instance(dim, seed)
        out = chan.apply(sigma)
        maps = [petz(sigma, chan), rotated_petz(sigma, chan, 0.7),
                universal_recovery(sigma, chan), quadrature_map(sigma, chan, beta0_quadrature(33))]
        maps.append(convex_mixture(maps[:2], [0.5, 0.5]))
        for rec in maps:
            assert trace_distance(rec.apply(out), sigma) <= 1e-12

    def test_budget_grows_with_the_condition_of_n_sigma(self, rng):
        well = recovery._PetzFactory(_checked(random_density(3, rng)), random_channel(3, 3, 2, rng))
        assert well.tni_budget < 2e-9
        sigma, chan = ill_conditioned_unitary_instance(4, 0)
        ill = recovery._PetzFactory(_checked(sigma), chan)
        assert ill.tni_budget == pytest.approx(4 * np.finfo(float).eps * 1e10, rel=1e-3)
        assert petz(sigma, chan)._atol == ill.tni_budget

    @pytest.mark.parametrize("ill", [False, True], ids=["well-conditioned", "condition-1e10"])
    def test_stack_above_the_budget_is_refused(self, rng, ill):
        if ill:
            sigma, chan = ill_conditioned_unitary_instance(4, 0)
        else:
            sigma, chan = random_density(3, rng), random_channel(3, 3, 2, rng)
        pair = recovery._PetzFactory(_checked(sigma), chan)
        ops = pair.kraus_stack([0.0])[0]
        pair.recovery_map("petz", ops, t=0.0)
        with pytest.raises(ValueError, match="trace non-increasing violated"):
            pair.recovery_map("petz", np.sqrt(1.0 + 3.0 * pair.tni_budget) * ops, t=0.0)

    def test_mixture_takes_the_largest_budget(self, rng):
        sigma, chan = ill_conditioned_unitary_instance(4, 0)
        ill = petz(sigma, chan)
        well = petz(random_density(4, rng), random_channel(4, 4, 2, rng))
        mix = convex_mixture([well, ill], [0.5, 0.5])
        assert mix._atol == ill._atol > well._atol
