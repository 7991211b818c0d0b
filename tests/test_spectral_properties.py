"""Properties of the support-restricted spectral kernel on rank-deficient
PSD inputs whose nonzero spectrum spreads over 1e-8..1."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from petzlab.entropy import _relative_entropy, _root_fidelities
from petzlab.linalg import (
    _eigh,
    _on_support,
    _psd_eigensystem,
    imaginary_power,
    power_on_support,
    rank_cutoff,
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


def reference_psd_eigensystem(h, dim=None):
    """``_eigh``, then the clamp rule of ``rank_cutoff`` spelled out: every
    eigenvalue at or below the cutoff set to 0, and a refusal of one below
    ``-max(cutoff, 1e-12 max|lambda|)`` naming the first such spectrum."""
    vals, vecs = _eigh(h)
    cut = np.asarray(rank_cutoff(vals, dim=dim), dtype=float)[..., None]
    floor = np.maximum(cut, 1e-12 * np.max(np.abs(vals), axis=-1, keepdims=True))
    neg = vals < -floor
    if np.any(neg):
        row = int(np.argmax(neg.reshape(-1, neg.shape[-1]).any(axis=1)))
        worst = float(vals.reshape(-1, vals.shape[-1])[row].min())
        raise ValueError(
            f"matrix is not positive semidefinite: eigenvalue {worst:.3e} "
            f"below -{float(floor.reshape(-1)[row]):.3e}"
        )
    return np.where(vals <= cut, 0.0, vals), vecs


@st.composite
def clamp_member(draw, d):
    """A ``psd`` matrix of dimension ``d``, often with one eigenvalue pushed
    below 0: by rounding (``1e-17..1e-13`` times the largest, clamped) or
    by ``1e-9..1e-3`` times it (refused)."""
    h = draw(psd(dim=d))
    kind = draw(st.sampled_from(["psd", "psd", "rounding", "negative"]))
    if kind == "psd":
        return h
    scale = draw(st.floats(-17.0, -13.0) if kind == "rounding" else st.floats(-9.0, -3.0))
    w, v = np.linalg.eigh(h)
    w[0] = -(10.0**scale) * np.max(np.abs(w))
    h = (v * w) @ v.conj().T
    return 0.5 * (h + h.conj().T)


@st.composite
def clamp_inputs(draw):
    """One matrix, a ``(n,)`` stack or a ``(2, n)`` stack of ``clamp_member``s,
    and a ``dim`` of ``None`` or at least the matrix size."""
    d = draw(st.integers(1, 6))
    lead = draw(st.sampled_from([(), (1,), (3,), (2, 2)]))
    members = [draw(clamp_member(d)) for _ in range(int(np.prod(lead)))]
    h = np.array(members).reshape(lead + (d, d))
    return h, draw(st.one_of(st.none(), st.integers(d, 4 * d)))


@PROPERTY
@given(clamp_inputs())
def test_psd_eigensystem_is_the_clamp_rule_bit_for_bit(case):
    h, dim = case
    try:
        want = reference_psd_eigensystem(h, dim)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            _psd_eigensystem(h, dim)
        assert str(got.value) == str(exc)
        return
    vals, vecs = _psd_eigensystem(h, dim)
    assert vals.shape == want[0].shape and vals.tobytes() == want[0].tobytes()
    assert vecs.shape == want[1].shape and vecs.tobytes() == want[1].tobytes()


def test_psd_eigensystem_names_the_first_non_psd_member():
    gen = np.random.default_rng(12)
    u = np.linalg.qr(gen.standard_normal((3, 3)) + 1j * gen.standard_normal((3, 3)))[0]
    members = [(u * lam) @ u.conj().T for lam in
               ([1.0, 0.5, -2e-15], [1.0, 0.5, -1e-6], [1.0, 0.2, -1e-3])]
    stack = np.array(members)
    with pytest.raises(ValueError) as want:
        reference_psd_eigensystem(stack)
    with pytest.raises(ValueError, match="eigenvalue -1.000e-06 below") as got:
        _psd_eigensystem(stack)
    assert str(got.value) == str(want.value)
