import math

import numpy as np
import pytest

from petzlab.channels import (
    Channel,
    depolarizing_channel,
    ghz_state,
    maximally_mixed,
    pure_state,
    random_channel,
    random_density,
    random_unitary,
    tensor_product,
)
from petzlab.entropy import (
    binary_entropy,
    bits_to_nats,
    conditional_mutual_information,
    fannes_audenaert_bound,
    fidelity,
    fidelity_measurement,
    measured_relative_entropy_lb,
    measurement_distribution,
    nats_to_bits,
    relative_entropy,
    renyi_delta,
    trace_distance,
    validate_povm,
    von_neumann_entropy,
)
from petzlab.linalg import dagger, partial_trace
from petzlab.recovery import petz


class TestVonNeumann:
    def test_pure_state(self, rng):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert von_neumann_entropy(pure_state(v)) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_qubit(self):
        assert von_neumann_entropy(maximally_mixed(2)) == pytest.approx(
            math.log(2.0), abs=1e-12
        )

    def test_classical_oracle(self):
        # scalar formula -sum p ln p evaluated independently
        expected = -(0.25 * math.log(0.25) + 0.75 * math.log(0.75))
        got = von_neumann_entropy(np.diag([0.25, 0.75]).astype(complex))
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.562335, abs=5e-7)

    def test_unitary_invariance(self, rng):
        rho = random_density(4, rng)
        u = random_unitary(4, rng)
        assert von_neumann_entropy(u @ rho @ dagger(u)) == pytest.approx(
            von_neumann_entropy(rho), abs=1e-10
        )


class TestRelativeEntropy:
    def test_self_is_zero(self, rng):
        rho = random_density(3, rng)
        assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-10)

    def test_orthogonal_pure_states(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        b = np.diag([0.0, 1.0]).astype(complex)
        assert relative_entropy(a, b) == np.inf

    def test_classical_oracle(self):
        expected = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
        got = relative_entropy(
            np.diag([0.5, 0.5]).astype(complex), np.diag([0.25, 0.75]).astype(complex)
        )
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.143841, abs=5e-7)

    def test_nonnegative_for_states(self, rng):
        for _ in range(20):
            rho = random_density(3, rng)
            sigma = random_density(3, rng)
            assert relative_entropy(rho, sigma) >= -1e-10

    def test_data_processing_without_remainder(self):
        gen = np.random.default_rng(17)
        for _ in range(300):
            d = int(gen.integers(2, 5))
            rho = random_density(d, gen)
            sigma = random_density(d, gen)
            chan = random_channel(d, int(gen.integers(2, 5)), 2, gen)
            before = relative_entropy(rho, sigma)
            after = relative_entropy(chan.apply(rho), chan.apply(sigma))
            assert before >= after - 1e-9

    def test_never_nan(self, rng):
        rho = random_density(3, rng, ensemble="rank-k", rank=1)
        sigma = random_density(3, rng, ensemble="rank-k", rank=2)
        value = relative_entropy(rho, sigma)
        assert not math.isnan(value)


class TestFidelity:
    def test_self(self, rng):
        rho = random_density(4, rng)
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)

    def test_pure_overlap(self):
        zero = pure_state([1.0, 0.0])
        plus = pure_state([1.0, 1.0])
        assert fidelity(zero, plus) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)

    def test_classical_oracle(self):
        got = fidelity(
            np.diag([0.5, 0.5]).astype(complex), np.diag([0.25, 0.75]).astype(complex)
        )
        expected = math.sqrt(0.5 * 0.25) + math.sqrt(0.5 * 0.75)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.9659258, abs=5e-8)

    def test_symmetric(self, rng):
        a = random_density(3, rng)
        b = random_density(3, rng)
        assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-11)

    def test_fuchs_van_de_graaf(self):
        gen = np.random.default_rng(23)
        for _ in range(200):
            a = random_density(3, gen)
            b = random_density(3, gen)
            f = fidelity(a, b)
            t = trace_distance(a, b)
            assert 1.0 - f <= t + 1e-10
            assert t <= math.sqrt(max(0.0, 1.0 - f * f)) + 1e-10


class TestTraceDistance:
    def test_identical(self, rng):
        rho = random_density(3, rng)
        assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-13)

    def test_orthogonal(self):
        assert trace_distance(
            np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)
        ) == pytest.approx(1.0, abs=1e-13)

    def test_classical(self):
        got = trace_distance(
            np.diag([0.5, 0.5]).astype(complex), np.diag([0.25, 0.75]).astype(complex)
        )
        assert got == pytest.approx(0.25, abs=1e-13)


class TestConditionalMutualInformation:
    def test_product_factorization(self, rng):
        rho_ab = random_density(4, rng)
        rho_c = random_density(2, rng)
        cmi = conditional_mutual_information(tensor_product(rho_ab, rho_c), (2, 2, 2))
        assert cmi == pytest.approx(0.0, abs=1e-10)

    def test_ghz(self):
        cmi = conditional_mutual_information(ghz_state(3), (2, 2, 2))
        assert cmi == pytest.approx(math.log(2.0), abs=1e-12)

    def test_matches_marginal_bookkeeping(self, rng):
        rho = random_density(12, rng)
        dims = (2, 3, 2)
        h = {}
        for name, keep in (("ab", (0, 1)), ("bc", (1, 2)), ("b", (1,))):
            lam = np.linalg.eigvalsh(partial_trace(rho, dims, keep))
            lam = lam[lam > 1e-14]
            h[name] = float(-np.sum(lam * np.log(lam)))
        lam = np.linalg.eigvalsh(rho)
        lam = lam[lam > 1e-14]
        h["abc"] = float(-np.sum(lam * np.log(lam)))
        expected = h["ab"] + h["bc"] - h["abc"] - h["b"]
        got = conditional_mutual_information(rho, dims)
        assert got == pytest.approx(expected, abs=1e-10)

    def test_nonnegative(self, rng):
        for _ in range(25):
            rho = random_density(8, rng)
            assert conditional_mutual_information(rho, (2, 2, 2)) >= -1e-9


def _entropies_of(negative):
    """The entropy calls on a qubit state with eigenvalue ``negative``."""
    rho = np.diag([1.0 - negative, negative]).astype(complex)
    rho_abc = tensor_product(rho, maximally_mixed(2), maximally_mixed(2))
    return [
        lambda: von_neumann_entropy(rho),
        lambda: relative_entropy(rho, maximally_mixed(2)),
        lambda: conditional_mutual_information(rho_abc, (2, 2, 2)),
    ]


class TestPsdFloor:
    """The entropies hold input to the PSD rule that ``fidelity`` applies."""

    def test_negative_eigenvalue_raises(self):
        for call in _entropies_of(-0.2):
            with pytest.raises(ValueError, match="not positive semidefinite"):
                call()

    def test_rounding_negativity_is_clamped(self):
        for call in _entropies_of(-1e-17):
            assert math.isfinite(call())


class TestBinaryEntropyAndBounds:
    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert fannes_audenaert_bound(0.0, 5) == 0.0

    def test_half_qubit(self):
        expected = 0.5 * math.log(2.0) + math.log(2.0)
        got = fannes_audenaert_bound(0.5, 2)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(1.039721, abs=5e-7)

    def test_eps_one(self):
        assert fannes_audenaert_bound(1.0, 4) == pytest.approx(math.log(4.0), abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            fannes_audenaert_bound(1.5, 2)
        with pytest.raises(ValueError):
            fannes_audenaert_bound(0.5, 1)

    def test_unit_conversion(self):
        assert nats_to_bits(math.log(2.0)) == pytest.approx(1.0, abs=1e-12)
        assert bits_to_nats(nats_to_bits(0.7)) == pytest.approx(0.7, abs=1e-15)


def projective_povm(unitary):
    return [np.outer(unitary[:, j], unitary[:, j].conj()) for j in range(unitary.shape[1])]


class TestMeasuredRelativeEntropy:
    def test_povm_validation(self, rng):
        with pytest.raises(ValueError, match="identity"):
            validate_povm([np.eye(2) * 0.5], 2)
        u = random_unitary(3, rng)
        validate_povm(projective_povm(u), 3)

    def test_commuting_saturates(self):
        rho = np.diag([0.2, 0.8]).astype(complex)
        omega = np.diag([0.6, 0.4]).astype(complex)
        povm = projective_povm(np.eye(2))
        got = measured_relative_entropy_lb(rho, omega, povm)
        assert got == pytest.approx(relative_entropy(rho, omega), abs=1e-12)

    def test_trivial_povm(self, rng):
        rho = random_density(3, rng)
        omega = random_density(3, rng)
        assert measured_relative_entropy_lb(rho, omega, [np.eye(3)]) == pytest.approx(
            0.0, abs=1e-13
        )

    def test_never_exceeds_quantum(self):
        gen = np.random.default_rng(3)
        for _ in range(50):
            rho = random_density(3, gen)
            omega = random_density(3, gen)
            d = relative_entropy(rho, omega)
            for povm in (
                projective_povm(random_unitary(3, gen)),
                fidelity_measurement(rho, omega),
                [np.eye(3)],
            ):
                assert measured_relative_entropy_lb(rho, omega, povm) <= d + 1e-9

    def test_classical_support_violation(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        omega = np.diag([0.0, 1.0]).astype(complex)
        povm = projective_povm(np.eye(2))
        assert measured_relative_entropy_lb(rho, omega, povm) == np.inf


class TestFidelityMeasurement:
    def test_commuting_pair(self):
        rho = np.diag([0.3, 0.7]).astype(complex)
        omega = np.diag([0.5, 0.5]).astype(complex)
        povm = fidelity_measurement(rho, omega)
        p = measurement_distribution(rho, povm)
        q = measurement_distribution(omega, povm)
        assert np.sum(np.sqrt(p * q)) == pytest.approx(fidelity(rho, omega), abs=1e-10)

    def test_equal_states(self, rng):
        rho = random_density(3, rng)
        povm = fidelity_measurement(rho, rho)
        p = measurement_distribution(rho, povm)
        assert np.sum(np.sqrt(p * p)) == pytest.approx(1.0, abs=1e-10)

    def test_random_pairs_achieve_fidelity(self):
        gen = np.random.default_rng(29)
        for _ in range(40):
            rho = random_density(2, gen)
            omega = random_density(2, gen)
            povm = fidelity_measurement(rho, omega)
            p = measurement_distribution(rho, povm)
            q = measurement_distribution(omega, povm)
            assert abs(np.sum(np.sqrt(p * q)) - fidelity(rho, omega)) <= 1e-8

    def test_rank_deficient_omega(self, rng):
        omega = random_density(4, rng, ensemble="rank-k", rank=2)
        support = np.linalg.eigh(omega)[1][:, 2:]  # eigh ascending: last two span
        small = random_density(2, rng)
        rho = support @ small @ dagger(support)
        povm = fidelity_measurement(rho, omega)
        validate_povm(povm, 4)
        p = measurement_distribution(rho, povm)
        q = measurement_distribution(omega, povm)
        assert abs(np.sum(np.sqrt(p * q)) - fidelity(rho, omega)) <= 1e-8

    def test_certifies_fidelity_lower_bound(self):
        gen = np.random.default_rng(31)
        for _ in range(30):
            rho = random_density(3, gen)
            omega = random_density(3, gen)
            povm = fidelity_measurement(rho, omega)
            lb = measured_relative_entropy_lb(rho, omega, povm)
            assert lb >= -2.0 * math.log(fidelity(rho, omega)) - 1e-9


def classical_channel(t_matrix):
    """Stochastic matrix as a measure-and-prepare channel."""
    d_out, d_in = t_matrix.shape
    ops = []
    for j in range(d_out):
        for i in range(d_in):
            k = np.zeros((d_out, d_in), dtype=complex)
            k[j, i] = math.sqrt(t_matrix[j, i])
            ops.append(k)
    return Channel(ops)


def classical_renyi_delta(p_vec, q_vec, t_matrix, alpha):
    """Scalar oracle for the Renyi difference of a classical triple."""
    exp = (1.0 - alpha) / (2.0 * alpha)
    tp = t_matrix @ p_vec
    tq = t_matrix @ q_vec
    ratio = (tp / tq) ** (2.0 * exp)
    inner = q_vec ** (2.0 * exp) * p_vec * (t_matrix.T @ ratio)
    return float(np.log(np.sum(inner**alpha)) / (alpha - 1.0))


class TestRenyiDelta:
    def test_half_matches_petz_fidelity(self):
        gen = np.random.default_rng(41)
        for _ in range(10):
            rho = random_density(3, gen)
            sigma = random_density(3, gen)
            chan = random_channel(3, 2, 2, gen)
            lhs = renyi_delta(rho, sigma, chan, 0.5)
            rec = petz(sigma, chan).apply(chan.apply(rho))
            rhs = -2.0 * math.log(fidelity(rho, rec))
            assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_limit_alpha_to_one(self):
        gen = np.random.default_rng(43)
        rho = random_density(3, gen)
        sigma = random_density(3, gen)
        chan = random_channel(3, 3, 2, gen)
        limit = relative_entropy(rho, sigma) - relative_entropy(
            chan.apply(rho), chan.apply(sigma)
        )
        assert renyi_delta(rho, sigma, chan, 0.999) == pytest.approx(limit, abs=1e-2)

    def test_classical_scalar_oracle(self):
        gen = np.random.default_rng(47)
        p = gen.dirichlet(np.ones(3))
        q = gen.dirichlet(np.ones(3)) + 0.05
        q /= q.sum()
        t = gen.dirichlet(np.ones(2), size=3).T  # columns sum to one
        chan = classical_channel(t)
        for alpha in (0.6, 0.75, 0.9, 1.5):
            got = renyi_delta(
                np.diag(p).astype(complex), np.diag(q).astype(complex), chan, alpha
            )
            want = classical_renyi_delta(p, q, t, alpha)
            assert got == pytest.approx(want, abs=1e-9)

    def test_alpha_one_rejected(self, rng):
        rho = random_density(2, rng)
        with pytest.raises(ValueError, match="alpha"):
            renyi_delta(rho, rho, depolarizing_channel(2, 0.5), 1.0)

    def test_support_violation_is_inf(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        sigma = np.diag([0.0, 1.0]).astype(complex)
        assert renyi_delta(rho, sigma, depolarizing_channel(2, 0.5), 0.7) == np.inf

    def test_monotone_trend_toward_limit(self):
        for seed in (3, 11):
            gen = np.random.default_rng(seed)
            rho = random_density(3, gen)
            sigma = random_density(3, gen)
            chan = random_channel(3, 2, 2, gen)
            limit = relative_entropy(rho, sigma) - relative_entropy(
                chan.apply(rho), chan.apply(sigma)
            )
            gaps = [
                abs(renyi_delta(rho, sigma, chan, a) - limit)
                for a in (0.6, 0.8, 0.95, 0.999)
            ]
            assert all(a >= b - 1e-12 for a, b in zip(gaps, gaps[1:]))
