import numpy as np
import pytest

from petzlab import linalg
from petzlab.linalg import (
    HERM_TOL,
    _checked,
    _eigh,
    _psd_eigensystem,
    dagger,
    eig_hermitian,
    hermiticity_residual,
    imaginary_power,
    log_on_support,
    partial_trace,
    power_on_support,
    schatten_norm,
    sqrtm_psd,
    support_projector,
    tensor_product,
)

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def random_hermitian(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (g + dagger(g))


def random_psd(dim, rng, rank=None):
    k = rank or dim
    g = rng.standard_normal((dim, k)) + 1j * rng.standard_normal((dim, k))
    return g @ dagger(g)


class TestEigHermitian:
    def test_diagonal(self):
        dec = eig_hermitian(np.diag([2.0, 1.0]).astype(complex))
        np.testing.assert_allclose(dec.eigenvalues, [2.0, 1.0])
        np.testing.assert_allclose(np.abs(dec.eigenvectors), np.eye(2), atol=1e-14)

    def test_pauli_x_spectrum(self):
        dec = eig_hermitian(PAULI_X)
        np.testing.assert_allclose(dec.eigenvalues, [1.0, -1.0], atol=1e-15)

    def test_reconstruction_residual(self, rng):
        h = random_hermitian(6, rng)
        dec = eig_hermitian(h)
        rebuilt = (dec.eigenvectors * dec.eigenvalues) @ dagger(dec.eigenvectors)
        assert np.linalg.norm(rebuilt - h, 2) <= 1e-12
        # eigenvectors orthonormal
        v = dec.eigenvectors
        np.testing.assert_allclose(dagger(v) @ v, np.eye(6), atol=1e-13)

    def test_descending_order(self, rng):
        dec = eig_hermitian(random_hermitian(5, rng))
        assert np.all(np.diff(dec.eigenvalues) <= 0)

    def test_non_hermitian_rejected(self, rng):
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        with pytest.raises(ValueError, match="residual"):
            eig_hermitian(g)

    @pytest.mark.parametrize("herm_tol", [np.nan, -1e-12, -np.inf])
    def test_nan_or_negative_tolerance_refused(self, herm_tol):
        # a NaN tolerance would skip the check: [[1, 5], [0, 1]] is not Hermitian
        for h in (np.array([[1.0, 5.0], [0.0, 1.0]]), np.eye(2)):
            with pytest.raises(ValueError, match="herm_tol must be nonnegative or inf"):
                eig_hermitian(h, herm_tol=herm_tol)

    def test_infinite_tolerance_skips_the_check(self):
        dec = eig_hermitian(np.array([[1.0, 5.0], [0.0, 1.0]]), herm_tol=np.inf)
        np.testing.assert_allclose(dec.eigenvalues, [3.5, -1.5])
        assert eig_hermitian(np.eye(2), herm_tol=0.0).eigenvalues.tolist() == [1.0, 1.0]


class TestEigh:
    def test_stack_gives_each_members_bits(self, rng):
        stack = np.array([random_hermitian(4, rng) for _ in range(3)])
        vals, vecs = _eigh(stack)
        assert vecs.flags.c_contiguous
        for h, v, u in zip(stack, vals, vecs):
            one = _eigh(h)
            assert one[1].flags.c_contiguous
            assert v.tobytes() == one[0].tobytes() and u.tobytes() == one[1].tobytes()
            assert np.all(np.diff(v) <= 0)

    def test_takes_the_hermitian_part(self, rng):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        for a, b in zip(_eigh(g), _eigh(0.5 * (g + dagger(g)))):
            assert a.tobytes() == b.tobytes()

    def test_dim_holds_on_stacks(self):
        # 5 eps lies above the cutoff 2 eps of a 2x2 spectrum, below 16 eps
        h = np.diag([1.0, 5.0 * np.finfo(float).eps]).astype(complex)
        vals, _ = _psd_eigensystem(h, dim=16)
        assert vals.tolist() == [1.0, 0.0]
        stacked, _ = _psd_eigensystem(np.array([h, h]), dim=16)
        assert stacked.tobytes() == np.array([vals, vals]).tobytes()
        assert _psd_eigensystem(np.array([h]))[0][0, 1] > 0.0


class TestHermiticityResidual:
    @staticmethod
    def svd_residual(h):
        scale = np.linalg.norm(h, 2)
        return 0.0 if scale == 0.0 else np.linalg.norm(h - dagger(h), 2) / scale

    @pytest.mark.parametrize("dim", [1, 2, 5, 12, 27])
    def test_matches_svd_formula(self, rng, dim):
        for log_eps in (-15, -11, -9, -4, 0):
            h = random_psd(dim, rng) + 10.0**log_eps * (
                rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
            want = self.svd_residual(h)
            assert abs(hermiticity_residual(h) - want) <= 1e-12 * want

    def test_hermitian_and_zero(self, rng):
        assert hermiticity_residual(random_hermitian(4, rng)) == 0.0
        assert hermiticity_residual(np.zeros((3, 3), dtype=complex)) == 0.0

    @pytest.mark.parametrize("scale", [1e-170, 1e170])
    def test_extreme_scales(self, rng, scale):
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        want = self.svd_residual(g)
        assert abs(hermiticity_residual(scale * g) - want) <= 1e-12 * want


def perturbed(dim, spectrum, ratio, rng, scale=1.0):
    """A matrix whose relative symmetry residual is ``ratio * HERM_TOL``.

    A Hermitian matrix of eigenvalues ``1, 1, ...`` (``flat``) or ``1, 1e-3,
    ...`` (``dominant``) in a random basis, plus ``i eps K``: ``K`` is a
    random rank-one projector for the flat spectrum, where the Frobenius
    bound on the residual is tight, and a random full-rank Hermitian matrix
    for the dominant one, where it is loose by at least ``sqrt(dim)``.
    """
    q = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))[0]
    vals = np.ones(dim) if spectrum == "flat" else np.r_[1.0, np.full(dim - 1, 1e-3)]
    if spectrum == "flat":
        k = q[:, :1] @ dagger(q[:, :1])
    else:
        k = random_hermitian(dim, rng)
    # h - h^dag = 2 i eps K, and ||h|| = 1 up to O(eps^2)
    eps = 0.5 * ratio * HERM_TOL / np.linalg.norm(k, 2)
    return scale * ((q * vals) @ dagger(q) + 1j * eps * k)


def residual_message(h, herm_tol=HERM_TOL):
    """The message with which the exact residual alone refuses ``h``, or None."""
    res = hermiticity_residual(h)
    if res > herm_tol:
        return (f"matrix is not Hermitian: relative symmetry residual {res:.3e} "
                f"exceeds {herm_tol:.1e}")
    return None


def checked_message(h, herm_tol=HERM_TOL):
    try:
        _checked(h, herm_tol)
    except ValueError as exc:
        return str(exc)
    return None


class TestCheckedBound:
    """``_checked`` accepts on the Frobenius bound when it lies below the
    tolerance and otherwise takes the exact residual, so its decisions and
    messages are the residual's."""

    @pytest.mark.parametrize("dim", [2, 5, 27])
    @pytest.mark.parametrize("spectrum", ["flat", "dominant"])
    @pytest.mark.parametrize("ratio", [0.5, 0.99, 1.01, 2.0])
    @pytest.mark.parametrize("scale", [1.0, 1e-170, 1e170])
    def test_decisions_match_the_residual(self, rng, monkeypatch, dim, spectrum, ratio, scale):
        h = perturbed(dim, spectrum, ratio, rng, scale)
        # the construction lands on the intended side of the tolerance
        assert abs(hermiticity_residual(h) / HERM_TOL - ratio) <= 1e-6
        want = residual_message(h)
        assert (want is None) == (ratio < 1.0)
        calls = []
        monkeypatch.setattr(linalg, "hermiticity_residual",
                            lambda m: calls.append(m) or hermiticity_residual(m))
        assert checked_message(h) == want
        # a tight bound settles an accepted matrix alone; a bound loose
        # enough to exceed the tolerance, and every refusal, take the residual
        if spectrum == "flat" and ratio < 1.0:
            assert calls == []
        elif ratio * np.sqrt(dim) > 1.0:
            assert len(calls) == 1

    @pytest.mark.parametrize("herm_tol", [0.0, 1e-300, 1e-165, -1.0])
    def test_tiny_and_negative_tolerances(self, rng, herm_tol):
        exact = random_hermitian(4, rng)
        assert np.array_equal(exact, dagger(exact))
        # an asymmetry whose squares flush to zero in the Frobenius norm
        flushed = np.eye(2, dtype=complex)
        flushed[0, 1] = 1e-170
        for h in (exact, flushed, perturbed(4, "dominant", 0.5, rng),
                  np.zeros((3, 3), dtype=complex)):
            assert checked_message(h, herm_tol) == residual_message(h, herm_tol)

    def test_hermitian_inputs_skip_the_residual(self, rng, monkeypatch):
        calls = []
        monkeypatch.setattr(linalg, "hermiticity_residual",
                            lambda m: calls.append(m) or hermiticity_residual(m))
        for dim in (1, 2, 5, 27):
            _checked(random_hermitian(dim, rng))
            _checked(random_psd(dim, rng, rank=1))
        assert calls == []


class TestMatrixFunctions:
    def test_diagonal_pseudo_sqrt(self):
        out = power_on_support(np.diag([4.0, 0.0]).astype(complex), 0.5)
        np.testing.assert_allclose(out, np.diag([2.0, 0.0]), atol=1e-14)

    def test_diagonal_pseudo_inverse_sqrt(self):
        out = power_on_support(np.diag([4.0, 0.0]).astype(complex), -0.5)
        np.testing.assert_allclose(out, np.diag([0.5, 0.0]), atol=1e-14)

    def test_imaginary_power_unitary_on_support(self, rng):
        h = random_psd(5, rng, rank=3)
        u = imaginary_power(h, 0.7)
        pi = support_projector(h)
        np.testing.assert_allclose(dagger(u) @ u, pi, atol=1e-10)

    def test_sqrt_squares_back(self, rng):
        for rank in (2, 4):
            h = random_psd(4, rng, rank=rank)
            r = sqrtm_psd(h)
            assert np.linalg.norm(r @ r - h, 2) <= 1e-10 * np.linalg.norm(h, 2)

    def test_imaginary_power_group_property(self, rng):
        h = random_psd(4, rng, rank=3)
        pi = support_projector(h)
        for t in (0.3, -1.2, 4.0):
            prod = imaginary_power(h, t) @ imaginary_power(h, -t)
            assert np.linalg.norm(prod - pi, 2) <= 1e-10

    def test_log_on_support(self):
        h = np.diag([np.e, 1.0, 0.0]).astype(complex)
        np.testing.assert_allclose(
            log_on_support(h), np.diag([1.0, 0.0, 0.0]), atol=1e-14
        )

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            power_on_support(np.diag([1.0, -0.5]).astype(complex), 0.5)

    def test_tiny_negative_clamped(self):
        h = np.diag([1.0, -1e-18]).astype(complex)
        out = power_on_support(h, 0.5)
        np.testing.assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-14)

    def test_rounding_negativity_above_rank_cutoff_clamped(self):
        # -2e-15 lies below the rank cutoff 8 * eps of this 8x8 matrix but is
        # rounding, as in the output of a CP map with many Kraus operators
        h = np.diag([1.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, -2e-15]).astype(complex)
        out = power_on_support(h, 0.5)
        np.testing.assert_allclose(out, np.diag(np.sqrt(np.clip(np.diag(h).real, 0, None))),
                                   atol=1e-14)

    def test_relative_negativity_rejected(self):
        for scale in (1.0, 1e-3, 1e3):
            h = scale * np.diag([1.0, 0.5, -1e-6]).astype(complex)
            with pytest.raises(ValueError, match="positive semidefinite"):
                power_on_support(h, 0.5)


class TestSchattenNorm:
    def test_trace_norm_diagonal(self):
        assert schatten_norm(np.diag([3.0, -4.0]), 1.0) == pytest.approx(7.0)

    def test_identity_frobenius(self):
        assert schatten_norm(np.eye(4), 2.0) == pytest.approx(2.0)

    def test_frobenius_identity_oracle(self, rng):
        m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        expected = np.sqrt(np.trace(dagger(m) @ m).real)
        assert abs(schatten_norm(m, 2.0) - expected) <= 1e-12

    def test_infinity_is_operator_norm(self, rng):
        m = rng.standard_normal((4, 4))
        assert schatten_norm(m, np.inf) == pytest.approx(np.linalg.norm(m, 2))

    def test_norm_ordering(self):
        gen = np.random.default_rng(5)
        for _ in range(100):
            m = gen.standard_normal((4, 4)) + 1j * gen.standard_normal((4, 4))
            n1 = schatten_norm(m, 1.0)
            n2 = schatten_norm(m, 2.0)
            ni = schatten_norm(m, np.inf)
            assert n1 >= n2 - 1e-12
            assert n2 >= ni - 1e-12

    def test_p_below_one_rejected(self):
        with pytest.raises(ValueError, match="p >= 1"):
            schatten_norm(np.eye(2), 0.5)


class TestTensorProduct:
    def test_identities(self):
        np.testing.assert_array_equal(
            tensor_product(np.eye(2), np.eye(3)), np.eye(6)
        )

    def test_diagonal(self):
        out = tensor_product(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
        np.testing.assert_allclose(np.diag(out), [3.0, 4.0, 6.0, 8.0])

    def test_mixed_product_oracle(self, rng):
        a, b, c, d = (
            rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            for _ in range(4)
        )
        lhs = tensor_product(a, b) @ tensor_product(c, d)
        rhs = tensor_product(a @ c, b @ d)
        assert np.linalg.norm(lhs - rhs, 2) <= 1e-12 * np.linalg.norm(rhs, 2)

    def test_overflow_guard(self):
        with pytest.raises(ValueError, match="maximum"):
            tensor_product(np.eye(100), np.eye(100))


def naive_partial_trace(m, dims, keep):
    """Index-summation oracle for the partial trace."""
    n = len(dims)
    keep = sorted(keep)
    traced = [i for i in range(n) if i not in keep]
    d_keep = int(np.prod([dims[k] for k in keep]))
    out = np.zeros((d_keep, d_keep), dtype=complex)
    for row in np.ndindex(*dims):
        for col in np.ndindex(*dims):
            if any(row[i] != col[i] for i in traced):
                continue
            r = int(np.ravel_multi_index([row[k] for k in keep],
                                         [dims[k] for k in keep]))
            c = int(np.ravel_multi_index([col[k] for k in keep],
                                         [dims[k] for k in keep]))
            out[r, c] += m[int(np.ravel_multi_index(row, dims)),
                           int(np.ravel_multi_index(col, dims))]
    return out


class TestPartialTrace:
    def test_product_state(self, rng):
        a = random_psd(2, rng)
        b = random_psd(3, rng)
        b = b / np.trace(b)
        out = partial_trace(tensor_product(a, b), (2, 3), keep=(0,))
        np.testing.assert_allclose(out, a, atol=1e-13)

    def test_bell_marginal(self):
        v = np.zeros(4, dtype=complex)
        v[0] = v[3] = 1.0 / np.sqrt(2.0)
        bell = np.outer(v, v.conj())
        out = partial_trace(bell, (2, 2), keep=(0,))
        np.testing.assert_allclose(out, np.eye(2) / 2.0, atol=1e-14)

    def test_against_naive_oracle(self, rng):
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        for keep in ((0,), (1,)):
            got = partial_trace(m, (2, 3), keep=keep)
            want = naive_partial_trace(m, (2, 3), keep)
            assert np.abs(got - want).max() <= 1e-13

    def test_trace_preserved(self, rng):
        m = random_psd(12, rng)
        out = partial_trace(m, (2, 3, 2), keep=(1,))
        assert np.trace(out) == pytest.approx(np.trace(m).real)

    def test_order_independent(self, rng):
        m = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        once = partial_trace(m, (2, 3, 2), keep=(1,))
        stepwise = partial_trace(
            partial_trace(m, (2, 3, 2), keep=(0, 1)), (2, 3), keep=(1,)
        )
        assert np.abs(once - stepwise).max() <= 1e-12

    def test_dims_mismatch(self):
        with pytest.raises(ValueError, match="dims"):
            partial_trace(np.eye(5), (2, 3), keep=(0,))
        with pytest.raises(ValueError, match="dims"):
            partial_trace(np.zeros((4, 5, 5)), (2, 3), keep=(0,))

    @pytest.mark.parametrize("keep", [(), (0,), (1,), (2,), (0, 2), (1, 2), (0, 1, 2)])
    def test_stack_matches_members(self, rng, keep):
        m = rng.standard_normal((2, 3, 12, 12)) + 1j * rng.standard_normal((2, 3, 12, 12))
        got = partial_trace(m, (2, 3, 2), keep=keep)
        d_keep = int(np.prod([(2, 3, 2)[k] for k in keep], initial=1))
        assert got.shape == (2, 3, d_keep, d_keep)
        for idx in np.ndindex(2, 3):
            np.testing.assert_array_equal(got[idx], partial_trace(m[idx], (2, 3, 2), keep=keep))

    def test_stacked_marginal_is_the_reshaped_trace(self, rng):
        m = rng.standard_normal((5, 6, 6)) + 1j * rng.standard_normal((5, 6, 6))
        want = np.trace(m.reshape(-1, 2, 3, 2, 3), axis1=1, axis2=3)
        np.testing.assert_array_equal(partial_trace(m, (2, 3), keep=(1,)), want)


class TestSupportProjector:
    def test_diagonal(self):
        np.testing.assert_allclose(
            support_projector(np.diag([1.0, 0.0]).astype(complex)),
            np.diag([1.0, 0.0]),
            atol=1e-14,
        )

    def test_full_rank(self, rng):
        h = random_psd(3, rng) + np.eye(3)
        np.testing.assert_allclose(support_projector(h), np.eye(3), atol=1e-12)

    def test_rank_two(self, rng):
        h = random_psd(4, rng, rank=2)
        pi = support_projector(h)
        assert np.trace(pi).real == pytest.approx(2.0, abs=1e-10)
        assert np.linalg.norm(pi @ pi - pi, 2) <= 1e-12
