import tracemalloc

import numpy as np
import pytest

from petzlab import channels
from petzlab.channels import (
    Channel,
    assert_positive,
    bit_flip_channel,
    channels_close,
    choi_distance,
    dephasing_channel,
    depolarizing_channel,
    identity_channel,
    maximally_mixed,
    partial_trace_channel,
    pure_state,
    random_channel,
    random_density,
    random_unitary,
    single_bit_flip_channel,
    three_qubit_bit_flip_code,
    truncate_project,
    unitary_channel,
)
from petzlab.linalg import dagger, partial_trace, tensor_product
from petzlab.recovery import beta0_quadrature, convex_mixture, rotated_petz_family


class TestChannelValidation:
    def test_needs_kraus(self):
        with pytest.raises(ValueError, match="at least one"):
            Channel([])

    def test_completeness_enforced(self):
        with pytest.raises(ValueError, match="completeness"):
            Channel([0.5 * np.eye(2)])

    def test_tni_accepts_subnormalized(self):
        chan = Channel([0.5 * np.eye(2)], mode="tni")
        assert chan.mode == "tni"

    def test_tni_rejects_expanding(self):
        with pytest.raises(ValueError, match="non-increasing"):
            Channel([2.0 * np.eye(2)], mode="tni")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "entry, mode",
        [(np.inf, "tp"), (np.nan, "tp"), (np.nan, "tni"), (complex(0.0, -np.inf), "tni")],
    )
    def test_non_finite_kraus_rejected(self, entry, mode):
        with pytest.raises(ValueError, match="non-finite"):
            Channel([[[entry]]], mode=mode)

    def test_dimension_mismatch_on_apply(self):
        chan = identity_channel(2)
        with pytest.raises(ValueError, match="dim_in"):
            chan.apply(np.eye(3))
        with pytest.raises(ValueError, match="dim_out"):
            random_channel(2, 3, 1, 0).adjoint_apply(np.eye(2))

    # Kraus sets with sum K^dag K = (1 + f * atol) * id
    TP_BASES = {
        "unitary": lambda: random_unitary(3, 1)[None],
        "two Kraus": lambda: random_channel(3, 2, 2, 4).kraus,
        "three Kraus": lambda: random_channel(4, 3, 3, 9).kraus,
        "partial trace": lambda: partial_trace_channel((2, 3), [0]).kraus,
    }

    @pytest.mark.parametrize("base", list(TP_BASES))
    @pytest.mark.parametrize("atol", [1e-10, 1e-6])
    @pytest.mark.parametrize("f", [3.0, -3.0])
    def test_tp_refuses_beyond_atol(self, base, atol, f):
        kraus = np.sqrt(1.0 + f * atol) * self.TP_BASES[base]()
        want = f"Kraus completeness violated: ||sum K^dag K - id|| = {3 * atol:.3e}"
        with pytest.raises(ValueError) as info:
            Channel(kraus, atol=atol)
        assert str(info.value) == want

    @pytest.mark.parametrize("base", list(TP_BASES))
    @pytest.mark.parametrize("atol", [1e-10, 1e-6])
    @pytest.mark.parametrize("f", [0.5, -0.5])
    def test_tp_accepts_within_atol(self, base, atol, f):
        kraus = np.sqrt(1.0 + f * atol) * self.TP_BASES[base]()
        assert Channel(kraus, atol=atol).mode == "tp"

    # a NaN atol would pass 3 * id as a channel; inf would pass any TP set
    # and refuse every TNI one
    @pytest.mark.parametrize("atol", [np.nan, np.inf, -np.inf, -1e-10])
    @pytest.mark.parametrize("kraus, mode", [
        ([3.0 * np.eye(2)], "tp"), ([3.0 * np.eye(2)], "tni"),
        ([np.eye(2)], "tp"), ([0.5 * np.eye(2)], "tni"),
    ])
    def test_atol_must_be_finite_and_nonnegative(self, kraus, mode, atol):
        with pytest.raises(ValueError, match="atol must be finite and nonnegative"):
            Channel(kraus, mode=mode, atol=atol)

    def test_zero_atol_accepted(self):
        assert Channel([np.eye(2)], atol=0.0).mode == "tp"

    @pytest.mark.parametrize("kraus", [[np.eye(2), np.eye(3)], np.eye(2)],
                             ids=["ragged", "2-d array"])
    def test_kraus_shape_refused(self, kraus):
        with pytest.raises(ValueError, match="share one 2-d shape"):
            Channel(kraus)

    def test_unknown_mode_refused(self):
        with pytest.raises(ValueError, match="mode must be 'tp' or 'tni', got 'cp'"):
            Channel([np.eye(2)], mode="cp")

    def test_tni_refuses_vanishing_map(self):
        with pytest.raises(ValueError, match="vanishes"):
            Channel([np.zeros((2, 2))], mode="tni")


class TestAssertPositive:
    def test_accepts_psd_and_rounding_negativity(self, rng):
        # -5e-11 lies inside the absolute slack DEFAULT_ATOL = 1e-10
        for mat in (random_density(3, rng), np.diag([1.0, 0.0, -5e-11])):
            out = assert_positive(mat)
            assert out.dtype == complex
            np.testing.assert_array_equal(out, mat)

    def test_slack_scales_with_the_largest_eigenvalue(self):
        assert_positive(np.diag([100.0, -5e-9]))
        with pytest.raises(ValueError, match="not PSD: minimum eigenvalue -5.000e-09"):
            assert_positive(np.diag([1.0, -5e-9]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            assert_positive(np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestApply:
    def test_identity(self, rng):
        rho = random_density(3, rng)
        np.testing.assert_allclose(identity_channel(3).apply(rho), rho, atol=1e-14)

    def test_full_depolarizing(self, rng):
        rho = random_density(4, rng)
        out = depolarizing_channel(4, 1.0).apply(rho)
        np.testing.assert_allclose(out, maximally_mixed(4), atol=1e-12)

    def test_trace_preserved(self, rng):
        chan = random_channel(3, 4, 2, rng)
        rho = random_density(3, rng)
        out = chan.apply(rho)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)

    def test_psd_preserved(self):
        gen = np.random.default_rng(77)
        for _ in range(200):
            chan = random_channel(3, 2, 2, gen)
            rho = random_density(3, gen)
            low = float(np.min(np.linalg.eigvalsh(chan.apply(rho))))
            assert low >= -1e-10


class TestAdjoint:
    def test_unital(self, rng):
        chan = random_channel(3, 3, 3, rng)
        np.testing.assert_allclose(chan.adjoint_apply(np.eye(3)), np.eye(3), atol=1e-12)

    def test_depolarizing_closed_form(self, rng):
        d = 3
        y = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        out = depolarizing_channel(d, 1.0).adjoint_apply(y)
        np.testing.assert_allclose(out, np.trace(y) / d * np.eye(d), atol=1e-12)

    def test_pairing_oracle(self, rng):
        chan = random_channel(3, 4, 2, rng)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        lhs = np.trace(dagger(a) @ chan.apply(b))
        rhs = np.trace(dagger(chan.adjoint_apply(a)) @ b)
        assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(lhs))

    @pytest.mark.parametrize("shape", [(5,), (2, 3)])
    def test_stack_matches_each_member(self, rng, shape):
        chan = random_channel(3, 4, 2, rng)
        ys = rng.standard_normal(shape + (4, 4)) + 1j * rng.standard_normal(shape + (4, 4))
        xs = rng.standard_normal(shape + (3, 3)) + 1j * rng.standard_normal(shape + (3, 3))
        out, images = chan.adjoint_apply(ys), chan.apply(xs)
        assert out.shape == shape + (3, 3)
        for i in np.ndindex(shape):
            assert out[i].tobytes() == chan.adjoint_apply(ys[i]).tobytes()
            # tr(A N(X)) = tr(N^dag(A) X) member by member
            lhs, rhs = np.trace(ys[i] @ images[i]), np.trace(out[i] @ xs[i])
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def rule_mixture(d, gen):
    """The 258-operator rule mixture of a random ``d``-dimensional pair."""
    sigma, chan = random_density(d, gen), random_channel(d, d, 2, gen)
    rule = beta0_quadrature(129)
    return convex_mixture(rotated_petz_family(sigma, chan, rule.nodes / 2.0), rule.weights)


class TestKrausSumChunks:
    """The Kraus sum's chunk size depends on the operator shape alone, and
    its run length is a constant, so a stack member of a rule mixture gets
    its own call's bits."""

    @pytest.mark.parametrize("d", [4, 8])
    @pytest.mark.parametrize("shape", [(5,), (2, 3), (channels._RUN + 3,), (3, 7)])
    def test_multi_chunk_stack_matches_each_member(self, shape, d):
        gen = np.random.default_rng(4)
        mix = rule_mixture(d, gen)
        # 258 operators: one chunk of 2**14 // 16 at d = 4, two of 2**14 // 64
        # at d = 8; a chunk size that shrank with the stack split both
        assert len(mix.kraus) == 258
        xs = np.array([random_density(d, gen) for _ in range(int(np.prod(shape)))])
        xs = xs.reshape(shape + (d, d))
        out, back = mix.apply(xs), mix.adjoint_apply(xs)
        for i in np.ndindex(shape):
            assert out[i].tobytes() == mix.apply(xs[i]).tobytes()
            assert back[i].tobytes() == mix.adjoint_apply(xs[i]).tobytes()

    def test_empty_stack(self):
        mix = rule_mixture(4, np.random.default_rng(4))
        for shape in [(0,), (2, 0)]:
            assert mix.apply(np.zeros(shape + (4, 4))).shape == shape + (4, 4)

    def test_long_stack_temporaries_are_bounded(self):
        gen = np.random.default_rng(4)
        mix = rule_mixture(4, gen)
        xs = np.array([random_density(4, gen) for _ in range(1000)])
        tracemalloc.start()
        try:
            out = mix.apply(xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the output is 256 kB; one pass over all 1000 members takes about
        # 130 MB of temporaries, runs of 16 about 2.4 MB
        assert out.shape == xs.shape
        assert peak < 8e6


class TestPureState:
    def test_normalizes(self):
        np.testing.assert_allclose(pure_state([3.0, 4.0j]),
                                   np.array([[9.0, -12.0j], [12.0j, 16.0]]) / 25.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("vec", [[0.0, 0.0], [np.nan, 1.0], [np.inf, 1.0],
                                     [1.0, complex(0.0, -np.inf)], []])
    def test_zero_or_non_finite_refused(self, vec):
        with pytest.raises(ValueError, match="norm must be positive and finite"):
            pure_state(vec)


class TestStinespring:
    def test_unitary_channel(self, rng):
        u = random_unitary(3, rng)
        iso = unitary_channel(u).stinespring_isometry()
        assert iso.shape == (3, 3)
        np.testing.assert_allclose(iso, u)

    def test_identity_channel(self):
        iso = identity_channel(2).stinespring_isometry()
        np.testing.assert_allclose(iso, np.eye(2))

    def test_amplitude_damping(self):
        gamma = 0.3
        k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]], dtype=complex)
        k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
        chan = Channel([k0, k1])
        iso = chan.stinespring_isometry()
        assert iso.shape == (4, 2)
        np.testing.assert_allclose(dagger(iso) @ iso, np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("shape", [(1, 3, 3), (2, 2, 3), (3, 4, 2), (5, 3, 3)])
    def test_matches_loop_built_isometry(self, rng, shape):
        env, dout, din = shape
        chan = random_channel(din, dout, env, rng)
        want = np.zeros((dout * env, din), dtype=complex)
        view = want.reshape(dout, env, din)
        for k in range(env):
            view[:, k, :] = chan.kraus[k]
        iso = chan.stinespring_isometry()
        assert iso.shape == want.shape and iso.tobytes() == want.tobytes()
        iso[...] = 0.0  # a copy: the channel's Kraus stack is untouched
        assert np.any(chan.kraus != 0.0)

    def test_traces_back_to_channel(self, rng):
        chan = random_channel(3, 2, 3, rng)
        iso = chan.stinespring_isometry()
        x = random_density(3, rng)
        big = iso @ x @ dagger(iso)
        out = partial_trace(big, (2, 3), keep=(0,))
        np.testing.assert_allclose(out, chan.apply(x), atol=1e-10)


class TestRandomDensity:
    def test_dim_one(self):
        np.testing.assert_allclose(random_density(1, 3), [[1.0]])

    def test_deterministic(self):
        a = random_density(4, 123)
        b = random_density(4, 123)
        np.testing.assert_array_equal(a, b)

    def test_mean_is_maximally_mixed(self):
        gen = np.random.default_rng(9)
        total = np.zeros((2, 2), dtype=complex)
        n = 10_000
        for _ in range(n):
            total += random_density(2, gen)
        assert np.abs(total / n - np.eye(2) / 2).max() <= 0.02

    def test_rank_k(self):
        rho = random_density(5, 8, ensemble="rank-k", rank=2)
        vals = np.sort(np.linalg.eigvalsh(rho))[::-1]
        assert vals[1] > 1e-8
        assert abs(vals[2]) < 1e-12

    def test_rank_too_large(self):
        with pytest.raises(ValueError, match="rank"):
            random_density(2, 0, ensemble="rank-k", rank=3)

    @pytest.mark.parametrize("dim, kwargs, message", [
        (0, {}, "dimension must be >= 1"),
        (2, {"ensemble": "rank-k"}, "needs the rank argument"),
        (2, {"ensemble": "bures"}, "unknown ensemble 'bures'"),
    ])
    def test_refusals(self, dim, kwargs, message):
        with pytest.raises(ValueError, match=message):
            random_density(dim, 0, **kwargs)


class TestRandomChannel:
    def test_env_one_square_is_unitary(self, rng):
        chan = random_channel(3, 3, 1, rng)
        k = chan.kraus[0]
        np.testing.assert_allclose(dagger(k) @ k, np.eye(3), atol=1e-10)

    def test_completeness(self, rng):
        chan = random_channel(4, 3, 4, rng)
        s = sum(dagger(k) @ k for k in chan.kraus)
        assert np.linalg.norm(s - np.eye(4), 2) <= 1e-10

    def test_deterministic(self):
        a = random_channel(2, 3, 2, 55)
        b = random_channel(2, 3, 2, 55)
        np.testing.assert_array_equal(a.kraus, b.kraus)

    def test_infeasible(self):
        with pytest.raises(ValueError, match="isometry"):
            random_channel(4, 2, 1, 0)


class TestNamedChannels:
    def test_depolarizing_zero_is_identity(self):
        assert channels_close(depolarizing_channel(3, 0.0), identity_channel(3))

    def test_depolarizing_blend(self, rng):
        lam = 0.4
        rho = random_density(3, rng)
        out = depolarizing_channel(3, lam).apply(rho)
        np.testing.assert_allclose(
            out, (1 - lam) * rho + lam * np.eye(3) / 3, atol=1e-12
        )

    @pytest.mark.parametrize("dims, keep", [
        ((3,), ()), ((3,), (0,)), ((2, 3), ()), ((2, 3), (0,)), ((3, 2), (1,)),
        ((2, 3, 2), (0, 2)), ((3, 1, 2), (1,)), ((2, 2, 3, 2), (1, 3)), ((4, 1, 3), (0, 1, 2)),
    ])
    def test_partial_trace_channel_matches_kron(self, dims, keep):
        discarded = [i for i in range(len(dims)) if i not in keep]
        ops = []
        for digits in np.ndindex(*[dims[i] for i in discarded]):
            chosen = dict(zip(discarded, digits))
            op = np.ones((1, 1), dtype=complex)
            for i, d in enumerate(dims):
                factor = np.eye(d, dtype=complex)
                op = np.kron(op, factor[chosen[i] : chosen[i] + 1] if i in chosen else factor)
            ops.append(op)
        kraus = partial_trace_channel(dims, keep).kraus
        assert kraus.dtype == complex and kraus.shape == np.shape(ops)
        assert kraus.tobytes() == np.array(ops).tobytes()

    def test_partial_trace_channel_dimension_guard(self):
        # 65 * 64 exceeds MAX_TENSOR_DIM; raised before any allocation
        with pytest.raises(ValueError, match="exceeds the configured maximum"):
            partial_trace_channel((65, 64), keep=(0,))

    @pytest.mark.parametrize("dims, keep, name", [
        ((2, 2.5), (0,), "dims"), ((2.0, 2), (0,), "dims"), ((np.float64(2), 3), (1,), "dims"),
        ((2, 3), (0.5,), "keep"), ((2, 3), (np.float64(1),), "keep"),
    ])
    def test_partial_trace_channel_non_integers_refused(self, dims, keep, name):
        # (2, 2.5) was read as (2, 2), the partial trace over a qubit
        with pytest.raises(ValueError, match=f"{name} must hold integers"):
            partial_trace_channel(dims, keep)
        integers = partial_trace_channel(np.array([2, 3]), [np.int64(1)])
        assert integers.kraus.tobytes() == partial_trace_channel((2, 3), (1,)).kraus.tobytes()

    @pytest.mark.parametrize("keep", [(2,), (-1,), (0, 3)])
    def test_partial_trace_channel_keep_out_of_range_refused(self, keep):
        with pytest.raises(ValueError, match=r"keep indices \[.*\] out of range for 2 factors"):
            partial_trace_channel((2, 2), keep)

    def test_partial_trace_channel_on_product(self, rng):
        a = random_density(2, rng)
        b = random_density(3, rng)
        chan = partial_trace_channel((2, 3), keep=(0,))
        np.testing.assert_allclose(chan.apply(tensor_product(a, b)), a, atol=1e-12)

    def test_bit_flip_full(self, rng):
        rho = random_density(2, rng)
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        np.testing.assert_allclose(
            bit_flip_channel(1.0).apply(rho), x @ rho @ x, atol=1e-14
        )

    def test_dephasing_kills_offdiagonal(self, rng):
        rho = random_density(2, rng)
        out = dephasing_channel(2, 1.0).apply(rho)
        np.testing.assert_allclose(out, np.diag(np.diag(rho)), atol=1e-14)

    def test_parameter_range(self):
        with pytest.raises(ValueError):
            depolarizing_channel(2, 1.5)
        with pytest.raises(ValueError):
            bit_flip_channel(-0.1)
        for lam in (-0.1, 1.5):
            with pytest.raises(ValueError, match="dephasing strength must lie in"):
                dephasing_channel(2, lam)

    def test_bit_flip_code_pieces(self):
        pi = three_qubit_bit_flip_code()
        assert np.trace(pi).real == pytest.approx(2.0)
        np.testing.assert_allclose(pi @ pi, pi, atol=1e-14)
        chan = single_bit_flip_channel(0.1)
        assert chan.num_kraus == 4


class TestChoi:
    def test_identity_choi_is_bell(self):
        choi = identity_channel(2).choi()
        v = np.zeros(4, dtype=complex)
        v[0] = v[3] = 1.0
        np.testing.assert_allclose(choi, np.outer(v, v.conj()), atol=1e-14)

    def test_kraus_mixing_invariance(self, rng):
        # rotating the Kraus list by a unitary leaves the channel unchanged
        chan = random_channel(3, 3, 2, rng)
        u = random_unitary(2, rng)
        mixed = Channel(
            [sum(u[i, j] * chan.kraus[j] for j in range(2)) for i in range(2)]
        )
        assert choi_distance(chan, mixed) <= 1e-12

    def test_different_spaces_refused(self):
        with pytest.raises(ValueError, match="different spaces"):
            choi_distance(identity_channel(2), random_channel(2, 3, 1, 0))

    def test_distinct_channels_differ(self):
        assert choi_distance(identity_channel(2), depolarizing_channel(2, 1.0)) > 0.1

    def test_choi_tp_marginal(self, rng):
        chan = random_channel(3, 4, 2, rng)
        marg = partial_trace(chan.choi(), (3, 4), keep=(0,))
        np.testing.assert_allclose(marg, np.eye(3), atol=1e-10)


class TestTruncateProject:
    def test_k_equals_dim(self, rng):
        rho = random_density(5, rng)
        np.testing.assert_allclose(truncate_project(rho, 5), rho, atol=1e-12)

    def test_rank_one_k_one(self, rng):
        rho = pure_state(rng.standard_normal(4) + 1j * rng.standard_normal(4))
        np.testing.assert_allclose(truncate_project(rho, 1), rho, atol=1e-12)

    def test_tail_oracle_monotone(self):
        rho = random_density(12, 31)
        vals = np.sort(np.linalg.eigvalsh(rho))[::-1]
        prev = np.inf
        for k in range(1, 13):
            trunc = truncate_project(rho, k)
            err = float(np.sum(np.abs(np.linalg.eigvalsh(rho - trunc))))
            tail = float(np.sum(vals[k:]))
            assert err == pytest.approx(tail, abs=1e-10)
            assert err <= prev + 1e-12
            prev = err

    def test_k_out_of_range(self, rng):
        with pytest.raises(ValueError, match="k must"):
            truncate_project(random_density(3, rng), 4)

    @pytest.mark.parametrize("k", [2.5, 2.0, np.float64(2)])
    def test_non_integer_k_refused(self, rng, k):
        # a float k once reached a slice and raised a bare TypeError
        rho = random_density(3, rng)
        with pytest.raises(ValueError, match="k must hold integers"):
            truncate_project(rho, k)
        np.testing.assert_array_equal(truncate_project(rho, np.int64(2)), truncate_project(rho, 2))
