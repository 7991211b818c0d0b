"""Properties of the support-restricted spectral kernel on rank-deficient
PSD inputs whose nonzero spectrum spreads over 1e-8..1."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from petzlab.entropy import _relative_entropy, _root_fidelities
from petzlab.linalg import (
    _on_support,
    _psd_eigensystem,
    imaginary_power,
    power_on_support,
    support_projector,
)

EPS = np.finfo(float).eps
# deterministic, no example database on disk, few examples: tier-1 stays fast
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=40)


@st.composite
def psd(draw, dim=None):
    """``U diag(lambda) U^dag`` with ``dim <= 6``, rank in ``1..dim`` and the
    nonzero eigenvalues log-uniform in ``[1e-8, 1]``."""
    d = dim if dim is not None else draw(st.integers(1, 6))
    rank = draw(st.integers(1, d))
    logs = draw(st.lists(st.floats(-8.0, 0.0), min_size=rank, max_size=rank))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    u, _ = np.linalg.qr(g)
    lam = np.zeros(d)
    lam[:rank] = 10.0 ** np.array(logs)
    h = (u * lam) @ u.conj().T
    return 0.5 * (h + h.conj().T)


@st.composite
def psd_stack(draw):
    d = draw(st.integers(1, 6))
    return np.array(draw(st.lists(psd(dim=d), min_size=1, max_size=4)))


def reference_sqrt(h):
    """Square root on the support from a plain ``eigh``, with the package's
    rank cutoff ``d * eps * max|lambda|`` and negativity clipped."""
    w, v = np.linalg.eigh(h)
    cut = len(w) * EPS * np.max(np.abs(w))
    return (v * np.where(w > cut, np.sqrt(np.clip(w, 0.0, None)), 0.0)) @ v.conj().T


def condition_on_support(h):
    w = np.linalg.eigvalsh(h)
    pos = w[w > len(w) * EPS * np.max(np.abs(w))]
    return pos.max() / pos.min()


@PROPERTY
@given(psd_stack())
def test_stack_matches_single_matrices_and_plain_eigh(stack):
    batched = _on_support(*_psd_eigensystem(stack), np.sqrt)
    for h, got in zip(stack, batched):
        single = _on_support(*_psd_eigensystem(h), np.sqrt)
        np.testing.assert_allclose(got, single, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(got, reference_sqrt(h), rtol=0.0, atol=1e-12)


@PROPERTY
@given(psd(), st.floats(0.1, 1.0))
def test_power_times_inverse_power_is_support_projector(h, p):
    # the product's rounding error grows like kappa**p, with kappa the
    # condition number on the support; allowed: 10 * d * eps * kappa**p
    d = h.shape[0]
    tol = 10.0 * d * EPS * condition_on_support(h) ** p
    prod = power_on_support(h, p) @ power_on_support(h, -p)
    assert np.linalg.norm(prod - support_projector(h), 2) <= tol


@PROPERTY
@given(psd(), st.floats(-5.0, 5.0))
def test_imaginary_power_unitary_on_support(h, t):
    u = imaginary_power(h, t)
    d = h.shape[0]
    assert np.linalg.norm(u.conj().T @ u - support_projector(h), 2) <= 10.0 * d * EPS


@PROPERTY
@given(psd(dim=4), st.lists(psd(dim=4), min_size=1, max_size=4))
def test_root_fidelities_match_trace_norm_of_root_product(rho, members):
    stack = np.array(members)
    got = _root_fidelities(_psd_eigensystem(rho), stack)
    root = reference_sqrt(rho)
    want = [np.linalg.svd(root @ reference_sqrt(x), compute_uv=False).sum() for x in stack]
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


@st.composite
def states_and_references(draw):
    """A stack of states and an equally long stack of references, one size."""
    d = draw(st.integers(1, 6))
    n = draw(st.integers(1, 4))
    states = draw(st.lists(psd(dim=d), min_size=n, max_size=n))
    refs = draw(st.lists(psd(dim=d), min_size=n, max_size=n))
    return np.array(states), np.array(refs)


@PROPERTY
@given(states_and_references())
def test_stacked_relative_entropy_matches_members(pair):
    states, refs = pair
    vals, vecs = ref_sys = _psd_eigensystem(refs)
    paired = _relative_entropy(states, ref_sys)
    against_first = _relative_entropy(states, (vals[0], vecs[0]))
    for i, rho in enumerate(states):
        assert paired[i].tobytes() == np.float64(_relative_entropy(rho, (vals[i], vecs[i]))).tobytes()
        assert against_first[i].tobytes() == np.float64(
            _relative_entropy(rho, (vals[0], vecs[0]))).tobytes()
