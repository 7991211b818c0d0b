"""The batched quadrature engine: the reference pair's one application kernel
(node phases around the Petz superoperator), one rotated-Kraus stack per built
map, one stacked fidelity."""

import warnings
from functools import cached_property

import numpy as np
import pytest

from conftest import quadrature_map, quadrature_stack_map, random_dpi_instance
from petzlab import channels, entropy, linalg, recovery, verify
from petzlab.channels import (
    Channel,
    choi_distance,
    dephasing_channel,
    identity_channel,
    partial_trace_channel,
    pure_state,
    random_channel,
    random_density,
    random_unitary,
    single_bit_flip_channel,
    three_qubit_bit_flip_code,
    unitary_channel,
)
from petzlab.entropy import (
    _root_fidelities,
    conditional_mutual_information,
    fidelity,
    relative_entropy,
    renyi_delta,
    support_violation,
    von_neumann_entropy,
)
from petzlab.linalg import (
    _checked,
    _on_support,
    _psd_eigensystem,
    dagger,
    imaginary_power,
    log_on_support,
    partial_trace,
    power_on_support,
    schatten_norm,
    support_projector,
)
from petzlab.recovery import (
    RecoveryMap,
    beta0_quadrature,
    convex_mixture,
    count_eigenspaces,
    eigenspace_phase_unitary,
    petz,
    phase_rotated_petz,
    rotated_petz,
    rotated_petz_family,
    universal_recovery,
)
from petzlab.serialize import dumps_recovery, loads_recovery
from petzlab.verify import (
    alpha_bound_check,
    concavity_remainder,
    dpi_remainder,
    finite_set_recovery_search,
    joint_convexity_remainder,
    qec_analyze,
    ssa_remainder,
    truncation_convergence,
)


def clipped_sqrt(h):
    w, v = np.linalg.eigh(0.5 * (h + h.conj().T))
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def reference_fidelity(rho, x):
    """``|| sqrt(rho) sqrt(x) ||_1`` from plain numpy calls, negativity clipped."""
    return float(np.linalg.svd(clipped_sqrt(rho) @ clipped_sqrt(x), compute_uv=False).sum())


def eigh_root_fidelities(rho_sys, stack):
    """The stacked fidelity through one batched ``eigh`` of the members and
    their clamped square roots: the route the Cholesky factors replace."""
    root = _on_support(*rho_sys, np.sqrt)
    roots = _on_support(*_psd_eigensystem(stack), np.sqrt)
    return np.linalg.svd(root @ roots, compute_uv=False).sum(axis=-1)


def cholesky_routes(monkeypatch):
    """Record, per ``_root_fidelities`` call, whether the Cholesky route was taken."""
    routes = []
    original = entropy._cholesky_fidelities

    def wrapper(*args):
        fids = original(*args)
        routes.append(fids is not None)
        return fids

    monkeypatch.setattr(entropy, "_cholesky_fidelities", wrapper)
    return routes


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
        batched = _root_fidelities(_psd_eigensystem(rho), stack)
        scalar = np.array([fidelity(rho, x) for x in stack])
        reference = np.array([reference_fidelity(rho, x) for x in stack])
        np.testing.assert_allclose(batched, scalar, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(batched, reference, rtol=0.0, atol=1e-12)
        eigh_route = eigh_root_fidelities(_psd_eigensystem(rho), stack)
        np.testing.assert_allclose(batched, eigh_route, rtol=0.0, atol=1e-12)

    def test_cholesky_route_on_exact_map_regimes(self, monkeypatch):
        # sigma against its recovered states, in every regime of the exact
        # map, the condition-1e10 unitary and isometric channels included
        routes = cholesky_routes(monkeypatch)
        ts = np.linspace(-3.0, 3.0, 9)
        for name, sigma, chan, x in exact_map_regimes():
            pair = recovery._PetzFactory(_checked(sigma), chan)
            stack = np.concatenate([pair.recovered(ts, x), pair.universal_apply(x)[None]])
            sigma_sys = _psd_eigensystem(sigma)
            np.testing.assert_allclose(_root_fidelities(sigma_sys, stack),
                                       eigh_root_fidelities(sigma_sys, stack),
                                       rtol=0.0, atol=1e-12, err_msg=name)
        # only the rank-deficient sigma's recovered states fall back
        assert sum(routes) == len(routes) - 1

    def test_cholesky_route_on_dpi_stacks(self, monkeypatch):
        stacks = []
        original = verify._root_fidelities

        def capture(rho_sys, stack):
            stacks.append((rho_sys, stack))
            return original(rho_sys, stack)

        monkeypatch.setattr(verify, "_root_fidelities", capture)
        rule = beta0_quadrature(33)
        for seed in range(200):
            dpi_remainder(*random_dpi_instance(seed), rule)
        routes = cholesky_routes(monkeypatch)
        for rho_sys, stack in stacks:
            np.testing.assert_allclose(_root_fidelities(rho_sys, stack),
                                       eigh_root_fidelities(rho_sys, stack), rtol=0.0, atol=1e-12)
        assert routes == [True] * 200

    @pytest.mark.parametrize("case", ["rank-d-1", "condition-1e12", "pure-rho", "zero-rho"])
    def test_fallback_is_the_eigh_route_bit_for_bit(self, monkeypatch, case):
        gen = np.random.default_rng(31)
        rho = random_density(4, gen)
        members = [random_density(4, gen), random_density(4, gen)]
        if case == "rank-d-1":
            members.append(rotated_unitarily([1.0, 0.5, 0.2, 0.0], gen))
        elif case == "condition-1e12":
            members.append(rotated_unitarily([1.0, 0.5, 0.2, 1e-12], gen))
        elif case == "pure-rho":
            rho = random_density(4, gen, ensemble="rank-k", rank=1)
            members.append(random_density(4, gen, ensemble="rank-k", rank=2))
        else:  # the Cholesky factors exist; rho's largest eigenvalue is 0
            rho = np.zeros((4, 4), dtype=complex)
            members.append(rotated_unitarily([1.0, 0.5, 0.2, 1e-12], gen))
        stack = np.array(members)
        routes = cholesky_routes(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _root_fidelities(_psd_eigensystem(rho), stack)
        np.testing.assert_array_equal(got, eigh_root_fidelities(_psd_eigensystem(rho), stack))
        assert routes == [False]

    @pytest.mark.parametrize("case", ["singular-values-only", "determinant-only", "one-of-each"])
    def test_one_bound_suffices(self, monkeypatch, case):
        gen = np.random.default_rng(47)
        # lambda_min / tr = 1e-3, det / tr^4 = 1e-9: a full-rank rho certifies it
        spread = rotated_unitarily([1.0, 1e-3, 1e-3, 1e-3], gen)
        # a pure rho has s_min = 0; this member's det / tr^4 is about 1e-3
        level = rotated_unitarily([1.0, 0.9, 0.8, 0.7], gen)
        full, pure = random_density(4, gen), random_density(4, gen, ensemble="rank-k", rank=1)
        rhos, stack = {"singular-values-only": ([full], [spread]),
                       "determinant-only": ([pure], [level]),
                       "one-of-each": ([full, pure], [spread, level])}[case]
        rho_sys = _psd_eigensystem(np.array(rhos))
        stack = np.array(stack)
        # each member is certified by exactly the bound its case names
        x = 0.5 * (stack + stack.conj().swapaxes(-1, -2))
        chol = np.linalg.cholesky(x)
        root = _on_support(*rho_sys, np.sqrt)
        s = np.linalg.svd(root @ chol, compute_uv=False)
        tr = np.trace(x, axis1=-2, axis2=-1).real
        by_svd = s[:, -1] ** 2 > entropy.CHOLESKY_FLOOR * tr * rho_sys[0][:, 0]
        diag = np.diagonal(chol, axis1=-2, axis2=-1).real
        by_det = np.prod(diag**2 / tr[:, None], axis=-1) > entropy.CHOLESKY_FLOOR
        assert list(by_svd) == [r is full for r in rhos]
        assert list(by_det) == [r is pure for r in rhos]
        routes = cholesky_routes(monkeypatch)
        got = _root_fidelities(rho_sys, stack)
        assert routes == [True]
        assert got.tobytes() == s.sum(axis=-1).tobytes()

    def test_member_with_relative_negativity_raises(self, rng):
        rho = random_density(3, rng)
        bad = np.diag([1.0, 0.5, -1e-6]).astype(complex)
        stack = np.array([random_density(3, rng), bad, random_density(3, rng)])
        with pytest.raises(ValueError, match="positive semidefinite"):
            _root_fidelities(_psd_eigensystem(rho), stack)

    def test_member_rounding_negativity_clamped(self, rng):
        rho = random_density(8, rng)
        rounding = np.diag([1.0, 0.5, 0, 0, 0, 0, 0, -2e-15]).astype(complex)
        f = _root_fidelities(_psd_eigensystem(rho), np.array([rounding]))[0]
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


class TestStackedMeasurement:
    """Every member of a ``(P, S, d, d)`` stack gets the bits of its own
    stack-of-one call, and the bound sums the positive outcomes alone."""

    @pytest.mark.parametrize("rank", ["full", "half", "pure"])
    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_stack_matches_members(self, d, rank):
        gen = np.random.default_rng(100 * d + len(rank))
        k = {"full": d, "half": max(1, d // 2), "pure": 1}[rank]
        rhos = np.array([random_density(d, gen, ensemble="rank-k", rank=k) for _ in range(3)])
        omegas = np.array([[random_density(d, gen) for _ in range(3)] for _ in range(4)])
        vecs = entropy._fidelity_measurement(rhos, omegas)
        lbs = entropy._measured_lb(rhos, omegas, entropy._projectors(vecs))
        assert vecs.shape == (4, 3, d, d) and lbs.shape == (4, 3)
        zeros = 0
        for i in range(4):
            for s in range(3):
                rho, omega = rhos[s], omegas[i, s]
                one = entropy._fidelity_measurement(rho[None], omega[None])
                povm = entropy._projectors(one)
                lb = entropy._measured_lb(rho[None], omega[None], povm)
                assert one[0].tobytes() == vecs[i, s].tobytes()
                assert lb[0].tobytes() == lbs[i, s].tobytes()
                p = entropy.measurement_distribution(rho, povm[0])
                q = entropy.measurement_distribution(omega, povm[0])
                m = p > 0.0
                zeros += int(np.sum(~m))
                assert lb[0] == np.sum(p[m] * (np.log(p[m]) - np.log(q[m])))
        if rank == "pure" and d == 8:
            # numpy would group a padded 8-term sum differently
            assert zeros > 0


def relative_entropy_regimes():
    gen = np.random.default_rng(4242)

    def inside(sigma, rank):
        vals, vecs = np.linalg.eigh(sigma)
        cols = vecs[:, vals > 1e-12]
        return cols @ random_density(cols.shape[1], gen, ensemble="rank-k", rank=rank) @ dagger(cols)

    sigma = random_density(4, gen, ensemble="rank-k", rank=2)
    zero = np.zeros((4, 4), dtype=complex)
    members = [inside(sigma, 2), inside(sigma, 1), random_density(4, gen), zero]
    yield "rank-deficient", np.array(members), sigma
    sigma = random_density(3, gen, ensemble="rank-k", rank=1)
    yield "pure", np.array([sigma, random_density(3, gen), np.zeros((3, 3), dtype=complex)]), sigma
    members = [random_density(8, gen, ensemble="rank-k", rank=k) for k in (8, 3, 1)]
    yield "full-rank", np.array(members), random_density(8, gen)
    refs = [random_density(5, gen, ensemble="rank-k", rank=k) for k in (5, 3, 1, 2)]
    members = [random_density(5, gen), inside(refs[1], 2), random_density(5, gen), inside(refs[3], 1)]
    yield "stacked-references", np.array(members), np.array(refs)


class TestStackedRelativeEntropy:
    """A stack of states against one reference, or against a paired stack of
    references, gets the bits of each member's own call."""

    @pytest.mark.parametrize("case", list(relative_entropy_regimes()), ids=lambda c: c[0])
    def test_stack_matches_members(self, case):
        _, rhos, refs = case
        ref_sys = _psd_eigensystem(refs)
        pairs = list(zip(*ref_sys)) if refs.ndim == 3 else [ref_sys] * len(rhos)
        stacked = entropy._relative_entropy(rhos, ref_sys)
        masses = entropy._outside_mass(rhos, ref_sys)
        singles = [entropy._relative_entropy(r, ref) for r, ref in zip(rhos, pairs)]
        single_masses = [entropy._outside_mass(r, ref) for r, ref in zip(rhos, pairs)]
        assert all(type(d) is float for d in singles + single_masses)
        assert stacked.shape == masses.shape == (len(rhos),)
        assert stacked.tobytes() == np.array(singles).tobytes()
        assert masses.tobytes() == np.array(single_masses).tobytes()
        with_vals = entropy._relative_entropy(rhos, ref_sys, _psd_eigensystem(rhos)[0])
        assert with_vals.tobytes() == stacked.tobytes()
        for r, ref, d in zip(rhos, refs if refs.ndim == 3 else [refs] * len(rhos), stacked):
            assert d == relative_entropy(r, ref)

    def test_outside_member_is_infinite_and_zero_trace_member_has_no_mass(self):
        _, rhos, sigma = next(relative_entropy_regimes())
        d = entropy._relative_entropy(rhos, _psd_eigensystem(sigma))
        mass = entropy._outside_mass(rhos, _psd_eigensystem(sigma))
        assert np.isfinite(d[:2]).all() and d[2] == np.inf
        assert mass[2] > linalg.SUPPORT_TOL and mass[3] == 0.0 and d[3] == 0.0

    @pytest.mark.parametrize("case", list(relative_entropy_regimes()), ids=lambda c: c[0])
    def test_forms_no_dense_matrix_function(self, case, monkeypatch):
        _, rhos, refs = case
        members = list(refs) if refs.ndim == 3 else [refs] * len(rhos)
        # the dense route, tr(rho log rho) - tr(rho log sigma) and the mass
        # tr((1 - P) rho) / tr rho off the support projector P
        traces = np.trace(rhos, axis1=-2, axis2=-1).real
        dense_mass = np.array([
            0.0 if t == 0.0 else max(0.0, np.trace(r - support_projector(ref) @ r).real / t)
            for r, ref, t in zip(rhos, members, traces)
        ])
        dense = np.array([-von_neumann_entropy(r) - np.trace(r @ log_on_support(ref)).real
                          for r, ref in zip(rhos, members)])
        dense[dense_mass > linalg.SUPPORT_TOL] = np.inf

        def refuse(*args, **kwargs):
            raise AssertionError("a relative entropy formed a dense matrix function")

        for module in (linalg, entropy, verify, recovery):
            if hasattr(module, "_reconstruct"):
                monkeypatch.setattr(module, "_reconstruct", refuse)
        ref_sys = _psd_eigensystem(refs)
        stacked = entropy._relative_entropy(rhos, ref_sys)
        masses = entropy._outside_mass(rhos, ref_sys)
        singles = [relative_entropy(r, ref) for r, ref in zip(rhos, members)]
        violations = [support_violation(r, ref) for r, ref in zip(rhos, members)]
        for got in (stacked, singles):
            np.testing.assert_allclose(got, dense, rtol=0.0, atol=1e-14)
        for got in (masses, violations):
            np.testing.assert_allclose(got, dense_mass, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("stacked_refs", [False, True])
    def test_empty_stack(self, rng, stacked_refs):
        refs = random_density(3, rng)
        empty = np.zeros((0, 3, 3), dtype=complex)
        ref_sys = _psd_eigensystem(empty if stacked_refs else refs)
        for out in (entropy._relative_entropy(empty, ref_sys), entropy._outside_mass(empty, ref_sys)):
            assert isinstance(out, np.ndarray) and out.shape == (0,)


class TestKrausStack:
    def test_universal_map_is_the_stacked_rotated_maps(self):
        for seed in (3, 11, 29):
            _, sigma, chan = random_dpi_instance(seed)
            rule = beta0_quadrature(129)
            rec = quadrature_map(sigma, chan, rule)
            per_node = np.concatenate(
                [
                    np.sqrt(w) * rotated_petz(sigma, chan, t).kraus
                    for t, w in zip(rule.nodes / 2.0, rule.weights)
                ]
            )
            np.testing.assert_array_equal(rec.kraus, per_node)
            # the pair's one stack, scaled by sqrt(w), is the same map, bit for bit
            pair = recovery._PetzFactory(_checked(sigma), chan)
            stack = pair.kraus_stack(rule.nodes / 2.0) * np.sqrt(rule.weights)[:, None, None, None]
            np.testing.assert_array_equal(rec.kraus, stack.reshape(rec.kraus.shape))
            np.testing.assert_array_equal(rec.kraus, quadrature_stack_map(sigma, chan, rule).kraus)

    def test_family_matches_single_maps(self, rng):
        sigma = random_density(3, rng, ensemble="rank-k", rank=2)
        chan = random_channel(3, 4, 2, rng)
        ts = np.array([-1.5, 0.0, 0.25, 2.0])
        for t, m in zip(ts, rotated_petz_family(sigma, chan, ts)):
            np.testing.assert_array_equal(m.kraus, rotated_petz(sigma, chan, t).kraus)


def rotated_unitarily(vals, gen):
    u = random_unitary(len(vals), gen)
    return (u * (np.asarray(vals) / np.sum(vals))) @ u.conj().T


def petz_regimes():
    """``(name, sigma, channel)`` pairs of the Petz-type operators."""
    gen = np.random.default_rng(1707)
    _, sigma, chan = random_dpi_instance(13)
    yield "full-rank", sigma, chan
    yield "rank-deficient-sigma", random_density(4, gen, ensemble="rank-k", rank=2), \
        random_channel(4, 3, 2, gen)
    # N(sigma) of rank 4 on a 5-dimensional output
    yield "rank-deficient-n-sigma", random_density(2, gen), random_channel(2, 5, 2, gen)
    yield "d_in-ne-d_out", random_density(5, gen), random_channel(5, 2, 3, gen)
    sigma = np.diag(gen.dirichlet(np.ones(4))).astype(complex)
    yield "classical", sigma, dephasing_channel(4, 1.0)
    yield "degenerate-sigma", rotated_unitarily([0.3, 0.3, 0.2, 0.2], gen), \
        random_channel(4, 3, 2, gen)
    yield "condition-1e10", rotated_unitarily(np.logspace(0.0, -10.0, 4), gen), \
        random_channel(4, 3, 2, gen)


def dense_rotated_kraus(sigma, chan, t):
    """``sigma^{1/2} sigma^{-it} K^dag N(sigma)^{it} N(sigma)^{-1/2}`` from the
    public support-restricted powers."""
    n_sigma = chan.apply(sigma)
    left = power_on_support(sigma, 0.5) @ imaginary_power(sigma, -t)
    right = imaginary_power(n_sigma, t) @ power_on_support(n_sigma, -0.5)
    return left @ chan.kraus.conj().swapaxes(1, 2) @ right


def dense_renyi_delta(rho, sigma, chan, alpha):
    """``renyi_delta`` with every power of ``rho``, ``sigma`` and their outputs dense."""
    p = (1.0 - alpha) / (2.0 * alpha)
    left = power_on_support(chan.apply(rho), p) @ power_on_support(chan.apply(sigma), -p)
    mat = left @ chan.kraus @ power_on_support(sigma, p) @ power_on_support(rho, 0.5)
    norm = schatten_norm(mat.reshape(-1, chan.dim_in), 2.0 * alpha)
    return 2.0 * alpha / (alpha - 1.0) * float(np.log(norm))


class TestEigenbasisCores:
    """Every Petz-type operator is ``B_k = V_sigma^dag K_k^dag V_N`` between two
    diagonals of the pair's eigenbases; none forms a dense power."""

    TS = (-3.0, -0.4, 0.0, 1.7)
    ALPHAS = (0.5, 0.6, 0.75, 0.9, 1.5)

    @pytest.mark.parametrize("case", list(petz_regimes()), ids=lambda c: c[0])
    def test_kraus_stacks_match_dense_formula(self, case):
        _, sigma, chan = case
        petz_kraus = dense_rotated_kraus(sigma, chan, 0.0)
        assert relative_error(petz(sigma, chan).kraus, petz_kraus) <= 1e-13
        for t, m in zip(self.TS, rotated_petz_family(sigma, chan, self.TS)):
            assert relative_error(m.kraus, dense_rotated_kraus(sigma, chan, t)) <= 1e-13
        rule = beta0_quadrature(129)
        want = np.concatenate([
            np.sqrt(w) * dense_rotated_kraus(sigma, chan, t)
            for t, w in zip(rule.nodes / 2.0, rule.weights)
        ])
        assert relative_error(quadrature_map(sigma, chan, rule).kraus, want) <= 1e-13
        gen = np.random.default_rng(5)
        n_sigma = chan.apply(sigma)
        phi = gen.uniform(0.0, 2.0 * np.pi, count_eigenspaces(n_sigma))
        theta = gen.uniform(0.0, 2.0 * np.pi, count_eigenspaces(sigma))
        want = (eigenspace_phase_unitary(sigma, theta) @ petz_kraus
                @ eigenspace_phase_unitary(n_sigma, phi))
        assert relative_error(phase_rotated_petz(sigma, chan, phi, theta).kraus, want) <= 1e-13

    @pytest.mark.parametrize("case", list(petz_regimes()), ids=lambda c: c[0])
    def test_renyi_term_matches_dense_formula(self, case):
        _, sigma, chan = case
        # a state inside the support of sigma
        proj = support_projector(sigma)
        inside = proj @ random_density(len(sigma), 9) @ proj
        rho = 0.5 * sigma + 0.5 * inside / np.trace(inside).real
        pair = recovery._PetzFactory(_checked(sigma), chan)
        rho = _checked(rho)
        got = entropy._renyi_delta(rho, _psd_eigensystem(rho), chan.apply(rho), pair, self.ALPHAS)
        for alpha, value in zip(self.ALPHAS, got):
            assert abs(value - dense_renyi_delta(rho, sigma, chan, alpha)) <= 1e-12

    def test_renyi_term_takes_one_power_per_alpha(self, monkeypatch):
        calls = counting(monkeypatch, "_power", [entropy])
        rho, sigma, chan = random_dpi_instance(21)
        pair = recovery._PetzFactory(_checked(sigma), chan)
        rho = _checked(rho)
        entropy._renyi_delta(rho, _psd_eigensystem(rho), chan.apply(rho), pair, self.ALPHAS)
        # rho^{1/2} once and N(rho)^p at every alpha
        assert len(calls) == 1 + len(self.ALPHAS)

    def test_map_builders_reconstruct_nothing(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a map builder formed a dense operator from a spectrum")

        monkeypatch.setattr(recovery, "_reconstruct", refuse)
        monkeypatch.setattr(linalg, "_reconstruct", refuse)
        _, sigma, chan = random_dpi_instance(13)
        n_out, n_in = count_eigenspaces(chan.apply(sigma)), count_eigenspaces(sigma)
        maps = [
            petz(sigma, chan),
            rotated_petz(sigma, chan, 0.7),
            *rotated_petz_family(sigma, chan, self.TS),
            universal_recovery(sigma, chan),
            phase_rotated_petz(sigma, chan, np.ones(n_out), np.ones(n_in)),
        ]
        mixture = convex_mixture(maps[:2], [0.5, 0.5])
        assert all(isinstance(m, RecoveryMap) for m in maps + [mixture])


def kernel_regimes():
    """``(name, sigma, channel, x)``: inputs ``x = N(rho)`` of the recovery."""
    gen = np.random.default_rng(2718)
    _, sigma, chan = random_dpi_instance(13)
    yield "full-rank", sigma, chan, chan.apply(random_density(sigma.shape[0], gen))
    # rank-deficient sigma, rho inside its support
    sigma = random_density(4, gen, ensemble="rank-k", rank=2)
    vals, vecs = np.linalg.eigh(sigma)
    cols = vecs[:, vals > 1e-12]
    chan = random_channel(4, 3, 2, gen)
    inside = cols @ random_density(2, gen) @ cols.conj().T
    yield "rank-deficient-sigma", sigma, chan, chan.apply(inside)
    # N(sigma) of rank 4 on a 5-dimensional output
    chan = random_channel(2, 5, 2, gen)
    yield "rank-deficient-n-sigma", random_density(2, gen), chan, chan.apply(random_density(2, gen))
    chan = random_channel(3, 3, 2, gen)
    pure = random_density(3, gen, ensemble="rank-k", rank=1)
    yield "pure-input", random_density(3, gen), chan, chan.apply(pure)
    # the equality case: an isometry is reversed exactly
    chan = random_channel(3, 4, 1, gen)
    yield "isometric", random_density(3, gen), chan, chan.apply(random_density(3, gen))
    sigma = np.diag(gen.dirichlet(np.ones(4))).astype(complex)
    rho = np.diag(gen.dirichlet(np.ones(4))).astype(complex)
    yield "classical", sigma, dephasing_channel(4, 1.0), dephasing_channel(4, 1.0).apply(rho)
    chan = random_channel(5, 2, 3, gen)
    yield "d_in-ne-d_out", random_density(5, gen), chan, chan.apply(random_density(5, gen))


def exact_map_regimes():
    """``kernel_regimes`` and the pairs where the universal map is hardest to
    evaluate: a classical stochastic channel on diagonal states, and a
    unitary and an isometric channel at condition 1e10."""
    yield from kernel_regimes()
    gen = np.random.default_rng(4242)
    p = gen.dirichlet(np.ones(4), size=3).T  # column-stochastic, 3 letters to 4
    eye_in, eye_out = np.eye(3), np.eye(4)
    chan = Channel([np.sqrt(p[y, x]) * np.outer(eye_out[y], eye_in[x])
                    for y in range(4) for x in range(3)])
    sigma = np.diag(gen.dirichlet(np.ones(3))).astype(complex)
    rho = np.diag(gen.dirichlet(np.ones(3))).astype(complex)
    yield "classical-diagonal", sigma, chan, chan.apply(rho)
    chan = unitary_channel(random_unitary(4, gen))
    sigma = rotated_unitarily(np.logspace(0.0, -10.0, 4), gen)
    yield "unitary-1e10", sigma, chan, chan.apply(random_density(4, gen))
    chan = random_channel(3, 5, 1, gen)
    sigma = rotated_unitarily(np.logspace(0.0, -10.0, 3), gen)
    yield "isometric-1e10", sigma, chan, chan.apply(random_density(3, gen))


def relative_error(got, want):
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


class TestPhaseSandwichKernel:
    """``_PetzFactory.recovered`` and ``_PetzFactory.universal_apply`` against
    the maps they replace on the quadrature and mixture paths."""

    TS = np.linspace(-4.0, 4.0, 17)

    @staticmethod
    def standard_basis(pair, stack):
        v = pair.s_sys[1]
        return v @ stack @ v.conj().T

    @pytest.mark.parametrize("case", list(kernel_regimes()), ids=lambda c: c[0])
    def test_every_node_is_the_rotated_map(self, case):
        _, sigma, chan, x = case
        pair = recovery._PetzFactory(_checked(sigma), chan)
        got = self.standard_basis(pair, pair.recovered(self.TS, x))
        assert got.shape == (len(self.TS), chan.dim_in, chan.dim_in)
        for t, state in zip(self.TS, got):
            assert relative_error(state, rotated_petz(sigma, chan, t).apply(x)) <= 1e-13

    @pytest.mark.parametrize("case", list(exact_map_regimes()), ids=lambda c: c[0])
    def test_weighted_sum_is_the_universal_map(self, case):
        _, sigma, chan, x = case
        rule = beta0_quadrature(65)
        pair = recovery._PetzFactory(_checked(sigma), chan)
        mixture = np.tensordot(rule.weights, pair.recovered(rule.nodes / 2.0, x), axes=1)
        want = quadrature_map(sigma, chan, rule).apply(x)
        assert relative_error(self.standard_basis(pair, mixture), want) <= 1e-13
        # the exact map, against a rule fine enough to reach rounding
        want = quadrature_stack_map(sigma, chan, beta0_quadrature(1025)).apply(x)
        assert relative_error(pair.universal_apply(x), want) <= 1e-13

    def test_isometric_channel_recovers_sigma_at_every_node(self):
        _, sigma, chan, _ = next(c for c in kernel_regimes() if c[0] == "isometric")
        pair = recovery._PetzFactory(_checked(sigma), chan)
        got = self.standard_basis(pair, pair.recovered(self.TS, chan.apply(sigma)))
        for state in got:
            assert relative_error(state, sigma) <= 1e-13

    @pytest.mark.parametrize("case", list(kernel_regimes()), ids=lambda c: c[0])
    def test_input_stack_matches_per_input_calls(self, case):
        _, sigma, chan, x = case
        gen = np.random.default_rng(31)
        xs = np.array([x] + [chan.apply(random_density(chan.dim_in, gen)) for _ in range(3)])
        pair = recovery._PetzFactory(_checked(sigma), chan)
        stacked = pair.recovered(self.TS, xs)
        assert stacked.shape == (4, len(self.TS), chan.dim_in, chan.dim_in)
        for member, one in zip(stacked, xs):
            np.testing.assert_allclose(member, pair.recovered(self.TS, one), rtol=0.0, atol=1e-15)
        universal = pair.universal_apply(xs)
        assert universal.shape == (4, chan.dim_in, chan.dim_in)
        for member, one in zip(universal, xs):
            np.testing.assert_allclose(member, pair.universal_apply(one), rtol=0.0, atol=1e-15)

    def test_quadrature_checks_build_no_kraus_stack(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a check built a rotated-Kraus stack or a recovery map")

        monkeypatch.setattr(recovery._PetzFactory, "kraus_stack", refuse)
        monkeypatch.setattr(RecoveryMap, "__init__", refuse)
        rho, sigma, chan = random_dpi_instance(21)
        rule = beta0_quadrature(129)
        assert dpi_remainder(rho, sigma, chan, rule).slack_mixture >= -1e-9
        results = alpha_bound_check(rho, sigma, chan, [0.5, 0.6, 0.75, 0.9], rule)
        assert len(results) == 4 and all(r.slack >= -1e-7 for r in results)
        # the mixture checks read the universal map's superoperator
        gen = np.random.default_rng(21)
        assert ssa_remainder(random_density(12, gen), (2, 3, 2)).slack >= -1e-9
        members = [(0.5, random_density(6, gen)), (0.5, random_density(6, gen))]
        assert concavity_remainder(members, (2, 3)).slack >= -1e-9
        members = [(w, random_density(3, gen), random_density(3, gen)) for w in (0.3, 0.7)]
        assert joint_convexity_remainder(members).slack >= -1e-9
        rep = qec_analyze(three_qubit_bit_flip_code(), single_bit_flip_channel(0.1), 4)
        assert rep.forward_ok and rep.converse_ok


def counting(monkeypatch, name, modules, single=False):
    """The calls of ``name`` through ``modules``; with ``single``, only those
    whose first argument is one matrix."""
    calls = []
    original = getattr(modules[0], name)

    def wrapper(*args, **kwargs):
        if not single or np.ndim(args[0]) == 2:
            calls.append(name)
        return original(*args, **kwargs)

    for module in modules:
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, wrapper)
    return calls


def hermiticity_checks(monkeypatch, modules):
    """The ``_checked`` calls through ``modules`` with a finite ``herm_tol``:
    the checks of caller inputs, each of which may take the exact residual."""
    calls = []
    original = linalg._checked

    def wrapper(h, herm_tol=linalg.HERM_TOL):
        if herm_tol < np.inf:
            calls.append(np.shape(h))
        return original(h, herm_tol)

    for module in modules:
        if getattr(module, "_checked", None) is original:
            monkeypatch.setattr(module, "_checked", wrapper)
    return calls


def patch_kernel(monkeypatch, form, name="kernel"):
    """Replace the pair's cached ``name`` (``kernel`` or ``universal_kernel``)
    by ``form(pair, original)``."""
    original = getattr(recovery._PetzFactory, name).func
    prop = cached_property(lambda pair: form(pair, original))
    prop.__set_name__(recovery._PetzFactory, name)
    monkeypatch.setattr(recovery._PetzFactory, name, prop)


def forming(monkeypatch, name):
    """The pairs whose cached ``name`` is formed, in order."""
    pairs = []

    def form(pair, original):
        pairs.append(pair)
        return original(pair)

    patch_kernel(monkeypatch, form, name)
    return pairs


def record_eigensystems(monkeypatch):
    """The shapes of the matrices ``recovery`` decomposes, in call order."""
    shapes = []
    original = recovery._psd_eigensystem

    def record(h, *args, **kwargs):
        shapes.append(h.shape)
        return original(h, *args, **kwargs)

    monkeypatch.setattr(recovery, "_psd_eigensystem", record)
    return shapes


class TestExactUniversalMap:
    """``universal_apply`` is the exact map ``int beta0(t) R_{t/2} dt``: the
    closed-form phases times the pair's kernel, ``universal_kernel``."""

    @staticmethod
    def superoperator(pair):
        """``universal_kernel`` as an ``(m, m, n, n)`` array."""
        m, n = len(pair.sigma), len(pair.n_sigma)
        return pair.universal_kernel.reshape(m, m, n, n)

    @pytest.mark.parametrize("case", list(exact_map_regimes()), ids=lambda c: c[0])
    def test_recovers_sigma(self, case):
        _, sigma, chan, _ = case
        pair = recovery._PetzFactory(_checked(sigma), chan)
        assert relative_error(pair.universal_apply(chan.apply(sigma)), sigma) <= 1e-13

    @pytest.mark.parametrize("case", list(exact_map_regimes()), ids=lambda c: c[0])
    def test_choi_matrix_is_psd(self, case):
        _, sigma, chan, _ = case
        pair = recovery._PetzFactory(_checked(sigma), chan)
        sup = self.superoperator(pair)
        m, n = sup.shape[1:3]
        # C_{(i p), (j q)} = S_{ij, pq}: the Choi matrix in the pair's eigenbases
        choi = sup.transpose(0, 2, 1, 3).reshape(m * n, m * n)
        atol = 1e-15 * np.abs(choi).max()
        np.testing.assert_allclose(choi, choi.conj().T, rtol=0.0, atol=atol)
        vals = np.linalg.eigvalsh(choi)
        assert vals[0] >= -1e-13 * vals[-1]

    @pytest.mark.parametrize("case", list(exact_map_regimes()), ids=lambda c: c[0])
    def test_trace_preserving_on_the_support(self, case):
        _, sigma, chan, _ = case
        pair = recovery._PetzFactory(_checked(sigma), chan)
        # the dual map on the identity is the projector onto supp N(sigma)
        dual = np.einsum("iipq->pq", self.superoperator(pair))
        mu = pair.m_sys[0]
        support = np.diag((mu > 0.0).astype(float))
        # N(sigma)^{-1/2} amplifies rounding by the condition number, as in
        # the Petz map's own trace-non-increase budget
        pos = mu[mu > 0.0]
        tol = 1e-13 + len(mu) * np.finfo(float).eps * pos[0] / pos[-1]
        assert np.abs(dual - support).max() <= tol

    def test_condition_1e12_raises_no_warning(self):
        gen = np.random.default_rng(1012)
        sigma = rotated_unitarily(np.logspace(0.0, -12.0, 4), gen)
        chan = random_channel(4, 3, 2, gen)
        x = chan.apply(random_density(4, gen))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pair = recovery._PetzFactory(_checked(sigma), chan)
            got = pair.universal_apply(x)
            back = pair.universal_apply(chan.apply(sigma))
        assert np.all(np.isfinite(got))
        assert relative_error(back, sigma) <= 1e-13

    @pytest.mark.parametrize("seed", [4, 9, 21])
    def test_dpi_mixture_reads_the_exact_map(self, seed):
        rho, sigma, chan = random_dpi_instance(seed)
        rep = dpi_remainder(rho, sigma, chan, beta0_quadrature(129))
        pair = recovery._PetzFactory(_checked(sigma), chan)
        want = pair.universal_apply(chan.apply(rho))
        np.testing.assert_allclose(rep.recovered_state, want, rtol=0.0, atol=1e-15)
        assert rep.rhs_mixture == pytest.approx(-2.0 * np.log(fidelity(rho, want)), abs=1e-12)


class TestUniversalRecoveryMap:
    """``universal_recovery`` returns the exact universal map as a Kraus map,
    from a thin factor of the Choi matrix of ``universal_kernel``."""

    REFERENCE = beta0_quadrature(1025)

    def assert_exact(self, sigma, chan, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rec = universal_recovery(sigma, chan)
        pair = recovery._PetzFactory(_checked(sigma), chan)
        assert relative_error(rec.apply(chan.apply(sigma)), sigma) <= 1e-13
        flat = rec.kraus.reshape(-1, chan.dim_out)
        assert np.linalg.eigvalsh(dagger(flat) @ flat)[-1] <= 1.0 + pair.tni_budget
        assert choi_distance(rec, quadrature_stack_map(sigma, chan, self.REFERENCE)) <= 1e-12
        assert relative_error(rec.apply(x), pair.universal_apply(x)) <= 1e-13
        assert len(rec.kraus) <= chan.dim_in * chan.dim_out

    @pytest.mark.parametrize("case", list(exact_map_regimes()), ids=lambda c: c[0])
    def test_exact_map_regimes(self, case):
        self.assert_exact(*case[1:])

    def test_sweep_draws(self):
        for seed in range(100):
            rho, sigma, chan = random_dpi_instance(seed)
            self.assert_exact(sigma, chan, chan.apply(rho))

    def test_file_has_no_nodes_and_round_trips(self):
        for name, sigma, chan, _ in exact_map_regimes():
            rec = universal_recovery(sigma, chan)
            assert (rec.kind, rec.nodes, rec.weights) == ("universal", None, None)
            text = dumps_recovery(rec)
            assert {"kind universal", "tnodes none", "weights none"} <= set(text.splitlines())
            head = loads_recovery(text)
            assert head["kraus"].tobytes() == rec.kraus.tobytes(), name
            assert head["kraus"].shape == rec.kraus.shape

    def test_forms_no_kernel_and_no_phase(self, monkeypatch):
        kernels = forming(monkeypatch, "kernel")
        closed = forming(monkeypatch, "universal_kernel")
        diagonals = counting(monkeypatch, "diagonals", (recovery._PetzFactory,))
        _, sigma, chan = random_dpi_instance(13)
        universal_recovery(sigma, chan)
        assert (len(kernels), len(diagonals), len(closed)) == (0, 0, 0)
        # a thin factor, k r < m n: the one eigh past sigma's and N(sigma)'s is
        # of the Gram matrix, k r by k r
        shapes = record_eigensystems(monkeypatch)
        gen = np.random.default_rng(2208)
        chan = random_channel(8, 8, 2, gen)
        rec = universal_recovery(random_density(8, gen), chan)
        assert shapes[:2] == [(8, 8), (8, 8)] and len(shapes) == 3
        kr = shapes[2][0]
        assert shapes[2] == (kr, kr) and kr % 2 == 0 and len(rec.kraus) <= kr < 64

    def test_isometric_and_unitary_channels_need_few_operators(self):
        counts = {name: len(universal_recovery(sigma, chan).kraus)
                  for name, sigma, chan, _ in exact_map_regimes()}
        assert counts["isometric"] == counts["isometric-1e10"] == 1
        assert counts["unitary-1e10"] <= 2


def dense_universal_kraus(pair):
    """The exact map's Kraus form in the pair's eigenbases from the eigenpairs
    of the whole ``(m n, m n)`` Choi matrix of ``universal_kernel``."""
    m, n = len(pair.sigma), len(pair.n_sigma)
    choi = pair.universal_kernel.reshape(m, m, n, n).swapaxes(1, 2).reshape(m * n, m * n)
    vals, vecs = _psd_eigensystem(choi)
    keep = vals > 0.0
    return (np.sqrt(vals[keep]) * vecs[:, keep]).T.reshape(-1, m, n)


def redundant_channel(gen):
    """A 3 -> 3 channel whose two Kraus operators are each repeated five
    times, so ``k = 10`` exceeds ``d_in d_out = 9``."""
    kraus = random_channel(3, 3, 2, gen).kraus
    return Channel(list(np.repeat(kraus, 5, axis=0) / np.sqrt(5.0)))


def factor_cases():
    """``(name, sigma, channel)`` for the factored build against the dense one."""
    for name, sigma, chan, _ in exact_map_regimes():
        yield name, sigma, chan
    gen = np.random.default_rng(1622)
    for d in (6, 8, 12, 16):
        for env in (1, 2, 3):
            yield f"random-{d}-env{env}", random_density(d, gen), random_channel(d, d, env, gen)
    yield "redundant", random_density(3, gen), redundant_channel(gen)


class TestFactoredUniversalKraus:
    """``universal_recovery`` through a thin factor of the Choi matrix gives
    the map of the dense eigendecomposition: the same Kraus count and the
    same Choi matrix within 1e-13 relative."""

    @staticmethod
    def assert_dense_parity(sigma, chan, label):
        pair = recovery._PetzFactory(_checked(sigma), chan)
        dense = pair.s_sys[1] @ dense_universal_kraus(pair) @ pair.m_sys[1].conj().T
        got = universal_recovery(sigma, chan).kraus
        assert len(got) == len(dense), label

        def choi(ops):
            vecs = ops.reshape(len(ops), -1)
            return vecs.T @ vecs.conj()

        want = choi(dense)
        assert np.linalg.norm(choi(got) - want) <= 1e-13 * np.linalg.norm(want), label

    @pytest.mark.parametrize("case", list(factor_cases()), ids=lambda c: c[0])
    def test_matches_the_dense_choi_eigensystem(self, case):
        self.assert_dense_parity(*case[1:], case[0])

    def test_sweep_draws(self):
        for seed in range(100):
            _, sigma, chan = random_dpi_instance(seed)
            self.assert_dense_parity(sigma, chan, seed)

    def test_redundant_kraus_list_decomposes_the_choi_matrix(self, monkeypatch):
        shapes = record_eigensystems(monkeypatch)
        gen = np.random.default_rng(1622)
        universal_recovery(random_density(3, gen), redundant_channel(gen))
        assert shapes == [(3, 3), (3, 3), (9, 9)]


class TestOneKernel:
    """``recovered`` and ``universal_apply`` read one superoperator per pair,
    formed by the first application; no map builder forms it."""

    def test_a_check_forms_the_kernel_once(self, monkeypatch):
        calls = []

        def form(pair, original):
            calls.append(pair)
            return original(pair)

        patch_kernel(monkeypatch, form)
        rho, sigma, chan = random_dpi_instance(8)
        alpha_bound_check(rho, sigma, chan, [0.5, 0.6, 0.75, 0.9], beta0_quadrature(129))
        assert len(calls) == 1
        states = [rho, random_density(sigma.shape[0], 17)]
        finite_set_recovery_search(states, sigma, chan, np.linspace(-1.0, 1.0, 5), iterations=5)
        assert len(calls) == 2 and calls[0] is not calls[1]

    def test_map_builders_form_no_kernel(self, monkeypatch):
        def refuse(pair, original):
            raise AssertionError("a map builder formed the superoperator")

        patch_kernel(monkeypatch, refuse)
        rho, sigma, chan = random_dpi_instance(13)
        n_out, n_in = count_eigenspaces(chan.apply(sigma)), count_eigenspaces(sigma)
        maps = [
            petz(sigma, chan),
            rotated_petz(sigma, chan, 0.7),
            *rotated_petz_family(sigma, chan, [-1.0, 0.0, 2.0]),
            quadrature_map(sigma, chan, beta0_quadrature(33)),
            phase_rotated_petz(sigma, chan, np.ones(n_out), np.ones(n_in)),
        ]
        assert all(isinstance(m, RecoveryMap) for m in maps)
        assert np.isfinite(renyi_delta(rho, sigma, chan, 0.75))

    def test_a_pair_takes_each_log_once(self, monkeypatch):
        rho, sigma, chan = random_dpi_instance(13)
        logs = counting(monkeypatch, "_masked_log", (recovery,))
        pair = recovery._PetzFactory(_checked(sigma), chan)
        # one log of each spectrum, taken with the Petz core
        assert len(logs) == 2
        for module in (recovery, entropy):
            monkeypatch.setattr(module, "_PetzFactory", lambda sigma, channel: pair)
        n_out, n_in = count_eigenspaces(pair.n_sigma), count_eigenspaces(sigma)
        out = chan.apply(rho)
        petz(sigma, chan)
        rotated_petz_family(sigma, chan, [-1.0, 0.0, 2.0])
        phase_rotated_petz(sigma, chan, np.ones(n_out), np.ones(n_in))
        universal_recovery(sigma, chan)
        pair.recovered(np.array([-0.5, 0.5]), out)
        pair.universal_apply(out)
        assert np.isfinite(renyi_delta(rho, sigma, chan, 0.75))
        # every map of the pair reads the stored logs
        assert len(logs) == 2

    def test_alpha_check_recovers_each_node_once(self, monkeypatch):
        rho, sigma, chan = random_dpi_instance(8)
        rule = beta0_quadrature(65)
        alphas = [0.5, 0.6, 0.75, 0.9]
        alone = [alpha_bound_check(rho, sigma, chan, [alpha], rule)[0] for alpha in alphas]
        calls = counting(monkeypatch, "recovered", (recovery._PetzFactory,))
        together = alpha_bound_check(rho, sigma, chan, alphas, rule)
        # the t = 0 node for alpha = 1/2, then one grid for every other alpha
        assert len(calls) <= 2
        for got, want in zip(together, alone):
            assert (got.alpha, got.lhs, got.rhs, got.slack) == (
                want.alpha, want.lhs, want.rhs, want.slack)


def kernel_stacks():
    """``(name, rhos, sigma, channel)`` stacks for the remainder kernel."""
    gen = np.random.default_rng(1919)
    for d, d_out, env in ((2, 2, 2), (3, 4, 2), (5, 3, 3)):
        sigma, chan = random_density(d, gen), random_channel(d, d_out, env, gen)
        yield f"full-rank-{d}", np.array([random_density(d, gen) for _ in range(4)]), sigma, chan
    sigma, chan = random_density(4, gen), random_channel(4, 4, 2, gen)
    pure = random_density(4, gen, ensemble="rank-k", rank=1)
    yield "pure-member", np.array([random_density(4, gen), pure, random_density(4, gen)]), sigma, chan
    # one member inside the support of a rank-2 sigma and one that leaves it;
    # a unitary channel keeps it outside, so both entropies of that one are inf
    sigma = random_density(4, gen, ensemble="rank-k", rank=2)
    proj = support_projector(sigma)
    inside = proj @ random_density(4, gen) @ proj
    members = [inside / np.trace(inside).real, random_density(4, gen)]
    yield "member-off-support", np.array(members), sigma, unitary_channel(random_unitary(4, gen))


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestRemainderKernel:
    """``verify._dpi`` on an ``(S, d, d)`` stack: each member's relative
    entropy and gap bit for bit as its own call, its fidelities and exact-map
    state to rounding (a stack's exact map is one matrix product, a member's
    a matrix-vector product)."""

    @pytest.mark.parametrize("nodes", [0, 9])
    @pytest.mark.parametrize("case", list(kernel_stacks()), ids=lambda c: c[0])
    def test_stack_matches_member_calls(self, case, nodes):
        _, rhos, sigma, chan = case
        pair = recovery._PetzFactory(_checked(sigma), chan)
        # no nodes: the default, an empty node array
        ts = (beta0_quadrature(nodes).nodes / 2.0,) if nodes else ()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d_in, gap, fids, universal = verify._dpi(rhos, pair, *ts)
        assert fids.shape == (len(rhos), nodes + 1) and universal.shape == rhos.shape
        for i, rho in enumerate(rhos):
            one = verify._dpi(rho, pair, *ts)
            assert same_bits(d_in[i], one[0]) and same_bits(gap[i], one[1])
            np.testing.assert_allclose(fids[i], one[2], rtol=0.0, atol=1e-14)
            np.testing.assert_allclose(universal[i], one[3], rtol=0.0, atol=1e-14)
        # the gap is infinite exactly where rho leaves the support of sigma
        assert np.array_equal(gap == np.inf, d_in == np.inf)


class TestWorkPerInstance:
    def test_dpi_remainder_decompositions(self, monkeypatch):
        rho, sigma, chan = random_dpi_instance(5)
        modules = (linalg, entropy, verify, channels, recovery)
        eigs = counting(monkeypatch, "_psd_eigensystem", modules, single=True)
        checks = hermiticity_checks(monkeypatch, modules)
        dpi_remainder(rho, sigma, chan, beta0_quadrature(129))
        # sigma and N(sigma) once each from the reference pair, rho once for
        # its fidelity root and both its entropies, and N(rho); the recovered
        # state only when the deprecated exploratory entropy is read
        assert 0 < len(eigs) <= 4
        assert 0 < len(checks) <= 4

    def test_alpha_chain_decompositions(self, monkeypatch):
        rho, sigma, chan = random_dpi_instance(8)
        eigs = counting(monkeypatch, "_psd_eigensystem", (linalg, entropy, verify, recovery),
                        single=True)
        alpha_bound_check(rho, sigma, chan, [0.5, 0.6, 0.75, 0.9], beta0_quadrature(129))
        # sigma, N(sigma), rho and N(rho) once for every alpha's Renyi term
        # and fidelity root
        assert 0 < len(eigs) <= 5

    def test_alpha_chain_applies_the_channel_twice(self, monkeypatch):
        rho, sigma, chan = random_dpi_instance(8)
        calls = counting(monkeypatch, "apply", (Channel,))
        alpha_bound_check(rho, sigma, chan, [0.5, 0.6, 0.75, 0.9], beta0_quadrature(65))
        # N(sigma) for the pair, then N(rho) for both the Renyi terms and the
        # recovered states
        assert len(calls) <= 2

    def test_finite_set_search_decompositions(self, monkeypatch):
        rho, sigma, chan = random_dpi_instance(3, dim_hi=4)
        states = [rho, random_density(sigma.shape[0], 17)]
        eigs = counting(monkeypatch, "_psd_eigensystem", (linalg, entropy, verify, recovery),
                        single=True)
        finite_set_recovery_search(states, sigma, chan, np.linspace(-1.0, 1.0, 5), iterations=5)
        # sigma and N(sigma) once, then each state and its output once
        assert 0 < len(eigs) <= 2 + 2 * len(states)

    def test_qec_decompositions(self, monkeypatch):
        modules = (linalg, entropy, verify, channels, recovery)
        eigs = counting(monkeypatch, "_psd_eigensystem", modules, single=True)
        checks = hermiticity_checks(monkeypatch, modules)
        samples = 20
        qec_analyze(three_qubit_bit_flip_code(), single_bit_flip_channel(0.1), samples)
        # the codespace projector and its output once; per sample the state
        # once (entropy and fidelity root) and its output once
        assert 0 < len(eigs) <= 2 + 2 * samples
        assert len(checks) == 1  # the caller's projector

    def test_fidelities_take_no_stacked_eigh(self, monkeypatch):
        shapes = []
        original = np.linalg.eigh

        def recording(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recording)
        rho, sigma, chan = random_dpi_instance(5)
        rule = beta0_quadrature(129)
        dpi_remainder(rho, sigma, chan, rule)
        alpha_bound_check(rho, sigma, chan, [0.6], rule)
        # the recovered states' fidelities come from their Cholesky factors;
        # every decomposition left is of one matrix
        assert shapes and all(len(shape) == 2 for shape in shapes)

    def test_qec_computes_the_phases_once(self, rng, monkeypatch):
        diagonals = counting(monkeypatch, "diagonals", (recovery._PetzFactory,))
        closed = forming(monkeypatch, "universal_kernel")
        qec_analyze(three_qubit_bit_flip_code(), single_bit_flip_channel(0.1), 20)
        # the exact map is applied to every sample's output in one call
        assert (len(diagonals), len(closed)) == (0, 1)
        ssa_remainder(random_density(12, rng), (2, 3, 2))
        concavity_remainder([(0.5, random_density(6, rng)), (0.5, random_density(6, rng))],
                            (2, 3))
        joint_convexity_remainder([(w, random_density(3, rng), random_density(3, rng))
                                   for w in (0.3, 0.7)])
        # no node phases, and one closed-form phase array per reference pair
        assert (len(diagonals), len(closed)) == (0, 4)

    def test_ssa_decompositions(self, rng, monkeypatch):
        rho = random_density(12, rng)
        eigs = counting(monkeypatch, "_psd_eigensystem", (linalg, entropy, verify, recovery))
        ssa_remainder(rho, (2, 3, 2))
        # rho_ABC (entropy and fidelity root), rho_AB, the reference pair
        # (rho_BC and rho_B, which serve their entropies too), the recovered state
        assert 0 < len(eigs) <= 5

    @pytest.mark.parametrize("members", [2, 5])
    def test_concavity_decompositions(self, rng, monkeypatch, members):
        ensemble = [(w, random_density(6, rng)) for w in rng.dirichlet(np.ones(members))]
        eigs = counting(monkeypatch, "_psd_eigensystem", (linalg, entropy, verify, recovery))
        concavity_remainder(ensemble, (2, 3))
        # the pair (the average and its marginal), then the members, their
        # marginals and their recovered states, each stack in one call
        assert 0 < len(eigs) <= 5

    @pytest.mark.parametrize("members", [2, 5])
    def test_joint_convexity_decompositions(self, rng, monkeypatch, members):
        ensemble = [(w, random_density(3, rng), random_density(3, rng))
                    for w in rng.dirichlet(np.ones(members))]
        eigs = counting(monkeypatch, "_psd_eigensystem", (linalg, entropy, verify, recovery))
        joint_convexity_remainder(ensemble)
        # the rho_x and the sigma_x stacks, the pair (sigma_XA and the average
        # sigma), the average rho, and the recovered blocks
        assert 0 < len(eigs) <= 6

    def test_qec_stacked_decompositions(self, monkeypatch):
        eigs = counting(monkeypatch, "_psd_eigensystem", (linalg, entropy, verify, recovery))
        qec_analyze(three_qubit_bit_flip_code(), single_bit_flip_channel(0.1), 20)
        # the pair, then the samples, their outputs and their recovered states,
        # each stack in one call
        assert 0 < len(eigs) <= 5

    def test_qec_takes_two_stacked_entropies(self, monkeypatch):
        calls = counting(monkeypatch, "_relative_entropy", (verify,))
        qec_analyze(three_qubit_bit_flip_code(), single_bit_flip_channel(0.1), 20)
        # the samples against sigma and their outputs against N(sigma)
        assert len(calls) == 2

    def test_finite_set_search_takes_two_stacked_entropies(self, monkeypatch):
        rho, sigma, chan = random_dpi_instance(3, dim_hi=4)
        states = [rho] + [random_density(sigma.shape[0], seed) for seed in (5, 17)]
        calls = counting(monkeypatch, "_relative_entropy", (verify,))
        finite_set_recovery_search(states, sigma, chan, np.linspace(-1.0, 1.0, 5), iterations=2)
        assert len(calls) == 2

    @pytest.mark.parametrize("members", [2, 5])
    def test_joint_convexity_takes_two_stacked_entropies(self, rng, monkeypatch, members):
        ensemble = [(w, random_density(3, rng), random_density(3, rng))
                    for w in rng.dirichlet(np.ones(members))]
        calls = counting(monkeypatch, "_relative_entropy", (verify,))
        joint_convexity_remainder(ensemble)
        # the members against their sigma_x, then the averages
        assert len(calls) == 2

    @pytest.mark.parametrize("kind", ["ssa", "concavity", "joint-convexity"])
    def test_corollaries_reuse_a_read_only_trace_channel(self, monkeypatch, kind):
        gen = np.random.default_rng(23)
        check = {
            "ssa": lambda: ssa_remainder(random_density(12, gen), (2, 3, 2)),
            "concavity": lambda: concavity_remainder(
                [(w, random_density(6, gen)) for w in (0.4, 0.6)], (3, 2)),
            "joint-convexity": lambda: joint_convexity_remainder(
                [(w, random_density(3, gen), random_density(3, gen)) for w in (0.4, 0.6)]),
        }[kind]
        channels_used = []
        factory = recovery._PetzFactory

        def recording(sigma, channel):
            channels_used.append(channel)
            return factory(sigma, channel)

        monkeypatch.setattr(verify, "_PetzFactory", recording)
        check()
        inits = []
        init = Channel.__init__

        def counting_init(self, *args, **kwargs):
            inits.append(type(self))
            init(self, *args, **kwargs)

        monkeypatch.setattr(Channel, "__init__", counting_init)
        check()
        # the second call of the shape builds and validates no channel
        assert inits == []
        first, second = channels_used
        assert second is first
        with pytest.raises(ValueError, match="read-only"):
            second.kraus[0, 0, 0] = 1.0

    def test_large_trace_channel_is_not_cached(self, monkeypatch):
        # a (2, 33) trace holds 66**2 complex entries; it is built on each call
        gen = np.random.default_rng(29)
        ensemble = [(w, random_density(33, gen), random_density(33, gen)) for w in (0.4, 0.6)]
        kept = verify._cached_trace_channel.cache_info().currsize
        channels_used = []
        factory = recovery._PetzFactory

        def recording(sigma, channel):
            channels_used.append(channel)
            return factory(sigma, channel)

        monkeypatch.setattr(verify, "_PetzFactory", recording)
        joint_convexity_remainder(ensemble)
        joint_convexity_remainder(ensemble)
        first, second = channels_used
        assert second is not first and first.kraus.shape == (2, 33, 66)
        assert second.kraus.flags.writeable
        assert verify._cached_trace_channel.cache_info().currsize == kept

    def test_partial_trace_channel_builds_no_tensor_product(self, monkeypatch):
        calls = counting(monkeypatch, "tensor_product", (linalg, channels))
        partial_trace_channel((2, 3, 2), keep=(1,))
        assert calls == []

    def test_finite_set_search_checks_each_input_once(self, monkeypatch):
        rho, sigma, chan = random_dpi_instance(3, dim_hi=4)
        states = [rho, random_density(sigma.shape[0], 17)]
        modules = (linalg, entropy, verify, channels, recovery)
        checks = hermiticity_checks(monkeypatch, modules)
        finite_set_recovery_search(states, sigma, chan, np.linspace(-1.0, 1.0, 5), iterations=5)
        # each state and sigma once; the family's Kraus stack is built unchecked
        assert len(checks) <= len(states) + 1

    def test_finite_set_search_reuses_its_base_slack(self, monkeypatch):
        rho, sigma, chan = random_dpi_instance(3, dim_hi=4)
        states = [rho, random_density(sigma.shape[0], 5)]
        calls = counting(monkeypatch, "_fidelity_measurement", (verify,))
        iterations = 5
        finite_set_recovery_search(
            states, sigma, chan, np.linspace(-1.0, 1.0, 5), iterations=iterations
        )
        # one stacked call for all starts, then one for the gradient probes
        # and one for the line-search candidates per iteration
        assert 0 < len(calls) <= 1 + 2 * iterations

    def test_truncation_study_takes_each_entropy_once(self, monkeypatch):
        rho, sigma, chan = random_dpi_instance(11, dim_lo=4, dim_hi=4)
        entropies = counting(monkeypatch, "_relative_entropy", (verify,))
        checks = hermiticity_checks(monkeypatch, (linalg, entropy, verify, channels, recovery))
        decompositions = counting(monkeypatch, "_psd_eigensystem", (verify,))
        ks = [1, 2, 3, 4]
        truncation_convergence(rho, sigma, chan, ks)
        # D(rho||sigma), then D(rho_k||sigma_k) and D(N(rho_k)||N(sigma_k)) per
        # rank; only the caller's rho and sigma are checked
        assert len(entropies) <= 1 + 2 * len(ks)
        assert len(checks) <= 2
        # sigma, then rho_k per rank: no recovered state is decomposed
        assert len(decompositions) == 1 + len(ks)

    def test_truncation_study_recovers_no_node(self, monkeypatch):
        rho, sigma, chan = random_dpi_instance(11, dim_lo=4, dim_hi=4)
        nodes = []
        recovered = recovery._PetzFactory._recovered

        def counting_recovered(pair, ts, z):
            nodes.append(len(ts))
            return recovered(pair, ts, z)

        monkeypatch.setattr(recovery._PetzFactory, "_recovered", counting_recovered)
        rep = truncation_convergence(rho, sigma, chan, [1, 2, 3, 4])
        # the slacks read the exact universal map; no per-node state is built
        assert sum(nodes) == 0
        assert np.all(np.isfinite(rep.slacks))

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


def reference_concavity(ensemble, dims):
    """``(lhs, rhs, member fidelities)`` of ``concavity_remainder`` from
    public per-member calls."""
    def cond(s):
        return von_neumann_entropy(s) - von_neumann_entropy(partial_trace(s, dims, keep=(1,)))

    avg = sum(w * s for w, s in ensemble)
    rec = universal_recovery(avg, partial_trace_channel(dims, keep=(1,)))
    fids = np.array([fidelity(s, rec.apply(partial_trace(s, dims, keep=(1,)))) for _, s in ensemble])
    lhs = cond(avg) - sum(w * cond(s) for w, s in ensemble)
    return lhs, -2.0 * np.log(sum(w * f for (w, _), f in zip(ensemble, fids))), fids


def block_diagonal(blocks):
    n, d = len(blocks), len(blocks[0])
    out = np.zeros((n * d, n * d), dtype=complex)
    for x, b in enumerate(blocks):
        out[x * d : (x + 1) * d, x * d : (x + 1) * d] = b
    return out


def reference_joint(ensemble):
    """``(lhs, rhs, member fidelities)`` of ``joint_convexity_remainder`` from
    public per-member calls, with ``rhs`` from ``F(rho_XA, rec)`` of the
    full labeled state."""
    weights, rhos, sigmas = zip(*ensemble)
    n, d = len(rhos), len(rhos[0])
    rho_avg = sum(w * r for w, r in zip(weights, rhos))
    sigma_avg = sum(w * s for w, s in zip(weights, sigmas))
    lhs = sum(w * relative_entropy(r, s) for w, r, s in ensemble if w > 0)
    lhs -= relative_entropy(rho_avg, sigma_avg)
    sigma_xa = block_diagonal([w * s for w, s in zip(weights, sigmas)])
    rec = universal_recovery(sigma_xa, partial_trace_channel((n, d), keep=(1,))).apply(rho_avg)
    rhs = -2.0 * np.log(fidelity(block_diagonal([w * r for w, r in zip(weights, rhos)]), rec))
    fids = np.array([
        fidelity(r, rec[x * d : (x + 1) * d, x * d : (x + 1) * d] / w) if w > 0 else np.nan
        for x, (w, r) in enumerate(zip(weights, rhos))
    ])
    return lhs, rhs, fids


def ensemble_regimes():
    gen = np.random.default_rng(2718)
    rank_deficient = random_density(6, gen, ensemble="rank-k", rank=2)
    pure = random_density(6, gen, ensemble="rank-k", rank=1)
    yield "rank-deficient", [(0.3, rank_deficient), (0.7, random_density(6, gen))]
    yield "pure", [(0.2, pure), (0.5, random_density(6, gen)), (0.3, random_density(6, gen))]
    diagonal = [np.diag(gen.dirichlet(np.ones(6))).astype(complex) for _ in range(3)]
    yield "classical", list(zip(gen.dirichlet(np.ones(3)), diagonal))


class TestMixtureParity:
    """The stacked mixture checks against public per-member calls; the
    checks and the reference both read the exact universal map."""

    @pytest.mark.parametrize("case", list(ensemble_regimes()), ids=lambda c: c[0])
    def test_concavity(self, case):
        rep = concavity_remainder(case[1], (2, 3))
        lhs, rhs, fids = reference_concavity(case[1], (2, 3))
        assert rep.lhs == pytest.approx(lhs, abs=1e-12)
        assert rep.rhs == pytest.approx(rhs, abs=1e-12)
        np.testing.assert_allclose(rep.member_fidelities, fids, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("case", list(ensemble_regimes()), ids=lambda c: c[0])
    def test_joint_convexity(self, case):
        gen = np.random.default_rng(len(case[0]))
        ensemble = [(w, s, random_density(6, gen)) for w, s in case[1]]
        if case[0] == "classical":
            ensemble = [(w, s, np.diag(gen.dirichlet(np.ones(6))).astype(complex))
                        for w, s in case[1]]
        rep = joint_convexity_remainder(ensemble)
        lhs, rhs, fids = reference_joint(ensemble)
        assert rep.lhs == pytest.approx(lhs, abs=1e-12)
        # the block sum of member fidelities against the full labeled state
        assert rep.rhs == pytest.approx(rhs, abs=1e-13)
        np.testing.assert_allclose(rep.member_fidelities, fids, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("rank", [1, 3, 12])
    def test_ssa(self, rank):
        gen = np.random.default_rng(rank)
        rho = random_density(12, gen, ensemble="rank-k", rank=rank)
        rep = ssa_remainder(rho, (2, 3, 2))
        assert rep.cmi == pytest.approx(conditional_mutual_information(rho, (2, 3, 2)), abs=1e-12)
        assert rep.recovered_fidelity == pytest.approx(fidelity(rho, rep.recovered_state),
                                                       abs=1e-12)

    def test_zero_weight_member(self, rng):
        states = [random_density(4, rng) for _ in range(3)]
        sigmas = [random_density(4, rng) for _ in range(3)]
        weights = [0.4, 0.0, 0.6]
        rep = concavity_remainder(list(zip(weights, states)), (2, 2))
        live = concavity_remainder([(0.4, states[0]), (0.6, states[2])], (2, 2))
        assert rep.rhs == pytest.approx(live.rhs, abs=1e-12)
        assert rep.lhs == pytest.approx(live.lhs, abs=1e-12)
        rep = joint_convexity_remainder(list(zip(weights, states, sigmas)))
        live = joint_convexity_remainder(
            [(0.4, states[0], sigmas[0]), (0.6, states[2], sigmas[2])]
        )
        assert np.isnan(rep.member_fidelities[1])
        assert rep.support_flags == (False, False, False)
        assert rep.rhs == pytest.approx(live.rhs, abs=1e-12)
        assert rep.lhs == pytest.approx(live.lhs, abs=1e-12)
        np.testing.assert_allclose(rep.member_fidelities[[0, 2]], live.member_fidelities,
                                   rtol=0.0, atol=1e-12)

    def test_joint_member_outside_sigma_support(self, rng):
        inside = (0.5, random_density(3, rng), random_density(3, rng))
        outside = (0.5, pure_state([1, 0, 0]), np.diag([0.0, 0.5, 0.5]).astype(complex))
        rep = joint_convexity_remainder([inside, outside])
        assert rep.support_flags == (False, True)
        assert rep.lhs == np.inf and rep.slack == np.inf
        _, rhs, fids = reference_joint([inside, outside])
        assert rep.rhs == pytest.approx(rhs, abs=1e-13)
        np.testing.assert_allclose(rep.member_fidelities, fids, rtol=0.0, atol=1e-12)

    def test_member_size_must_match_dims(self, rng):
        good, bad = random_density(6, rng), random_density(4, rng)
        for members in ([(0.5, good), (0.5, bad)], [(0.5, bad), (0.5, bad)]):
            with pytest.raises(ValueError, match=r"dims \(2, 3\) do not match"):
                concavity_remainder(members, (2, 3))
        with pytest.raises(ValueError, match="do not match"):
            joint_convexity_remainder([(0.5, good, good), (0.5, good, bad)])
        with pytest.raises(ValueError, match="dims .* do not match"):
            ssa_remainder(good, (2, 2, 2))

    def test_negative_member_eigenvalue_raises(self, rng):
        u = random_unitary(4, rng)
        bad = u @ np.diag([0.5 + 1e-6, 0.3, 0.2, -1e-6]).astype(complex) @ u.conj().T
        good = random_density(4, rng)
        with pytest.raises(ValueError, match="positive semidefinite"):
            concavity_remainder([(0.5, good), (0.5, bad)], (2, 2))
        with pytest.raises(ValueError, match="positive semidefinite"):
            joint_convexity_remainder([(0.5, good, good), (0.5, bad, good)])
        with pytest.raises(ValueError, match="positive semidefinite"):
            joint_convexity_remainder([(0.5, good, good), (0.5, good, bad)])
        with pytest.raises(ValueError, match="positive semidefinite"):
            ssa_remainder(np.kron(bad, random_density(2, rng)), (2, 2, 2))


class TestSsaReshape:
    def test_recovered_state_matches_lifted_channel(self, rng):
        for dims in ((2, 2, 2), (2, 3, 2), (3, 2, 3)):
            da, db, dc = dims
            rho = random_density(da * db * dc, rng)
            rep = ssa_remainder(rho, dims)
            rho_ab = partial_trace(rho, dims, keep=(0, 1))
            rho_bc = partial_trace(rho, dims, keep=(1, 2))
            # the check reads the exact map
            rec_map = universal_recovery(rho_bc, partial_trace_channel((db, dc), keep=(0,)))
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
        assert chan.apply(np.zeros((0, 3, 3))).shape == (0, 2, 2)
