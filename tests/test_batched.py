"""The batched quadrature engine: one rotated-Kraus stack, one stacked fidelity."""

import numpy as np
import pytest

from conftest import random_dpi_instance
from petzlab import channels, entropy, linalg, recovery, verify
from petzlab.channels import (
    dephasing_channel,
    identity_channel,
    partial_trace_channel,
    random_channel,
    random_density,
)
from petzlab.entropy import _root_fidelities, fidelity
from petzlab.linalg import partial_trace
from petzlab.recovery import (
    RecoveryMap,
    beta0_quadrature,
    rotated_petz,
    rotated_petz_family,
    universal_recovery,
)
from petzlab.verify import (
    alpha_bound_check,
    dpi_remainder,
    finite_set_recovery_search,
    ssa_remainder,
    truncation_convergence,
)


def clipped_sqrt(h):
    w, v = np.linalg.eigh(0.5 * (h + h.conj().T))
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def reference_fidelity(rho, x):
    """``|| sqrt(rho) sqrt(x) ||_1`` from plain numpy calls, negativity clipped."""
    return float(np.linalg.svd(clipped_sqrt(rho) @ clipped_sqrt(x), compute_uv=False).sum())


def recovered_stack(rho, sigma, chan, ts):
    out = chan.apply(rho)
    return np.array([m.apply(out) for m in rotated_petz_family(sigma, chan, ts)])


def regimes():
    gen = np.random.default_rng(1509)
    ts = np.linspace(-3.0, 3.0, 9)
    # full rank
    rho, sigma, chan = random_dpi_instance(7)
    yield "full-rank", rho, recovered_stack(rho, sigma, chan, ts)
    # rank-deficient sigma, rho inside its support (a compressed pair)
    sigma = random_density(4, gen, ensemble="rank-k", rank=2)
    vals, vecs = np.linalg.eigh(sigma)
    cols = vecs[:, vals > 1e-12]
    rho = cols @ random_density(2, gen) @ cols.conj().T
    chan = random_channel(4, 3, 2, gen)
    yield "rank-deficient", rho, recovered_stack(rho, sigma, chan, ts)
    # pure rho
    rho = random_density(3, gen, ensemble="rank-k", rank=1)
    sigma = random_density(3, gen)
    yield "pure", rho, recovered_stack(rho, sigma, random_channel(3, 2, 2, gen), ts)
    # classical: diagonal states through a completely dephasing channel
    rho = np.diag(gen.dirichlet(np.ones(4))).astype(complex)
    sigma = np.diag(gen.dirichlet(np.ones(4))).astype(complex)
    yield "classical", rho, recovered_stack(rho, sigma, dephasing_channel(4, 1.0), ts)


class TestStackedFidelity:
    @pytest.mark.parametrize("case", list(regimes()), ids=lambda c: c[0])
    def test_matches_scalar_fidelity(self, case):
        _, rho, stack = case
        batched = _root_fidelities(rho, stack)
        scalar = np.array([fidelity(rho, x) for x in stack])
        reference = np.array([reference_fidelity(rho, x) for x in stack])
        np.testing.assert_allclose(batched, scalar, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(batched, reference, rtol=0.0, atol=1e-12)

    def test_member_with_relative_negativity_raises(self, rng):
        rho = random_density(3, rng)
        bad = np.diag([1.0, 0.5, -1e-6]).astype(complex)
        stack = np.array([random_density(3, rng), bad, random_density(3, rng)])
        with pytest.raises(ValueError, match="positive semidefinite"):
            _root_fidelities(rho, stack)

    def test_member_rounding_negativity_clamped(self, rng):
        rho = random_density(8, rng)
        rounding = np.diag([1.0, 0.5, 0, 0, 0, 0, 0, -2e-15]).astype(complex)
        f = _root_fidelities(rho, np.array([rounding]))[0]
        assert f == pytest.approx(reference_fidelity(rho, rounding), abs=1e-12)

    def test_non_hermitian_inputs_rejected(self, rng):
        rho = random_density(3, rng)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        with pytest.raises(ValueError, match="residual"):
            fidelity(g, rho)
        with pytest.raises(ValueError, match="residual"):
            fidelity(rho, g)
        with pytest.raises(ValueError, match="residual"):
            entropy.relative_entropy(g, rho)
        sigma = random_density(3, rng)
        with pytest.raises(ValueError, match="residual"):
            dpi_remainder(g, sigma, random_channel(3, 2, 2, rng), beta0_quadrature(9))


class TestKrausStack:
    def test_universal_map_is_the_stacked_rotated_maps(self):
        for seed in (3, 11, 29):
            _, sigma, chan = random_dpi_instance(seed)
            rule = beta0_quadrature(129)
            rec = universal_recovery(sigma, chan, rule)
            per_node = np.concatenate(
                [
                    np.sqrt(w) * rotated_petz(sigma, chan, t).kraus
                    for t, w in zip(rule.nodes / 2.0, rule.weights)
                ]
            )
            np.testing.assert_array_equal(rec.kraus, per_node)

    def test_family_matches_single_maps(self, rng):
        sigma = random_density(3, rng, ensemble="rank-k", rank=2)
        chan = random_channel(3, 4, 2, rng)
        ts = np.array([-1.5, 0.0, 0.25, 2.0])
        for t, m in zip(ts, rotated_petz_family(sigma, chan, ts)):
            np.testing.assert_array_equal(m.kraus, rotated_petz(sigma, chan, t).kraus)


def counting(monkeypatch, name, modules):
    calls = []
    original = getattr(modules[0], name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for module in modules:
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, wrapper)
    return calls


class TestWorkPerInstance:
    def test_dpi_remainder_decompositions(self, monkeypatch):
        rho, sigma, chan = random_dpi_instance(5)
        modules = (linalg, entropy, verify, channels, recovery)
        eigs = counting(monkeypatch, "eig_hermitian", modules)
        residuals = counting(monkeypatch, "hermiticity_residual", modules)
        dpi_remainder(rho, sigma, chan, beta0_quadrature(129))
        assert 0 < len(eigs) <= 20
        assert 0 < len(residuals) <= 4

    def test_finite_set_search_checks_each_input_once(self, monkeypatch):
        rho, sigma, chan = random_dpi_instance(3, dim_hi=4)
        states = [rho, random_density(sigma.shape[0], 17)]
        modules = (linalg, entropy, verify, channels, recovery)
        residuals = counting(monkeypatch, "hermiticity_residual", modules)
        finite_set_recovery_search(states, sigma, chan, np.linspace(-1.0, 1.0, 5), iterations=5)
        # each state and sigma, plus rotated_petz_family's own check of sigma
        assert len(residuals) <= len(states) + 2

    def test_finite_set_search_reuses_its_base_slack(self, monkeypatch):
        rho, sigma, chan = random_dpi_instance(3, dim_hi=4)
        states = [rho, random_density(sigma.shape[0], 5)]
        calls = counting(monkeypatch, "_fidelity_measurement", (verify,))
        finite_set_recovery_search(states, sigma, chan, np.linspace(-1.0, 1.0, 5), iterations=5)
        # one evaluation per probe and per candidate; re-evaluating the base
        # point for each gradient coordinate made 76
        assert 0 < len(calls) <= 51

    def test_truncation_study_takes_each_entropy_once(self, monkeypatch):
        rho, sigma, chan = random_dpi_instance(11, dim_lo=4, dim_hi=4)
        entropies = counting(monkeypatch, "_relative_entropy", (verify,))
        residuals = counting(monkeypatch, "hermiticity_residual",
                             (linalg, entropy, verify, channels, recovery))
        truncation_convergence(rho, sigma, chan, [1, 2, 3, 4], beta0_quadrature(33))
        # D(rho||sigma), then D(rho_k||sigma_k), D(N(rho_k)||N(sigma_k)) and
        # D(rho_k||recovered) per rank; only the caller's rho and sigma are checked
        assert len(entropies) <= 13
        assert len(residuals) <= 2

    def test_alpha_chain_builds_no_map_per_node(self, rng, monkeypatch):
        rho, sigma, chan = random_dpi_instance(8)
        inits = []
        init = RecoveryMap.__init__

        def counting_init(self, *args, **kwargs):
            inits.append(args[0])
            init(self, *args, **kwargs)

        monkeypatch.setattr(RecoveryMap, "__init__", counting_init)
        alphas = [0.5, 0.6, 0.75, 0.9]
        results = alpha_bound_check(rho, sigma, chan, alphas, beta0_quadrature(129))
        assert len(inits) <= len(alphas)
        assert all(r.slack >= -1e-7 for r in results)


class TestSsaReshape:
    def test_recovered_state_matches_lifted_channel(self, rng):
        rule = beta0_quadrature(33)
        for dims in ((2, 2, 2), (2, 3, 2), (3, 2, 3)):
            da, db, dc = dims
            rho = random_density(da * db * dc, rng)
            rep = ssa_remainder(rho, dims, rule)
            rho_ab = partial_trace(rho, dims, keep=(0, 1))
            rho_bc = partial_trace(rho, dims, keep=(1, 2))
            rec_map = universal_recovery(
                rho_bc, partial_trace_channel((db, dc), keep=(0,)), rule
            )
            lifted = identity_channel(da).tensor(rec_map).apply(rho_ab)
            np.testing.assert_allclose(rep.recovered_state, lifted, rtol=0.0, atol=1e-14)

    def test_apply_on_a_stack_of_inputs(self, rng):
        chan = random_channel(3, 2, 3, rng)
        xs = np.array([random_density(3, rng) for _ in range(4)]).reshape(2, 2, 3, 3)
        out = chan.apply(xs)
        assert out.shape == (2, 2, 2, 2)
        for i in range(2):
            for j in range(2):
                np.testing.assert_allclose(out[i, j], chan.apply(xs[i, j]), atol=1e-15)
