"""Dense Hermitian linear algebra on small finite-dimensional spaces.

Everything here works on plain complex numpy arrays.  Operators that are
only positive semidefinite up to rounding are handled through a relative
rank cutoff: eigenvalues below ``dim * eps * lambda_max`` are treated as
exactly zero, so negative powers and logarithms are always taken on the
support only (pseudo-inverse convention).  This module holds the whole
numerical policy of the package: the one eigendecomposition (``_eigh``),
the rank cutoff (``rank_cutoff``), the PSD clamp of a spectrum at that
cutoff (``_psd_eigensystem``), the log of a spectrum on its support
(``_masked_log``) and the tolerances below.

Subsystem ordering is big-endian throughout: in ``kron(A, B)`` the first
factor carries the most significant index.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

# Hard ceiling for composite dimensions; everything is dense.
MAX_TENSOR_DIM = 4096
# Relative spectral-norm hermiticity residual allowed in caller input.
HERM_TOL = 1e-10
# Relative mass of a state outside a support that still counts as inside.
SUPPORT_TOL = 1e-10
# Neighbouring eigenvalues within this fraction of the largest share an
# eigenspace.
CLUSTER_TOL = 1e-8

_EPS = float(np.finfo(np.float64).eps)
_SQRT_TINY = float(np.sqrt(np.finfo(np.float64).tiny))


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return a.conj().T


def _integers(values, name: str) -> tuple:
    """``values`` as a tuple of ints, refusing any value that is not an
    integer (one that ``operator.index`` refuses, such as ``2.0``)."""
    values = tuple(values)
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise ValueError(f"{name} must hold integers, got {values!r}") from None


def rank_cutoff(eigenvalues: np.ndarray, *, dim: int | None = None):
    """Absolute cutoff ``d * eps * max(|lambda|)`` below which eigenvalues
    count as zero; a stack of spectra (eigenvalues along the last axis)
    gives one cutoff per spectrum.

    ``d`` is the number of eigenvalues, or ``dim`` when they are the spectrum
    of a Gram matrix ``W^dag W`` standing in for the ``dim``-dimensional
    ``W W^dag``, whose spectrum it shares off 0.
    """
    lam_max = np.max(np.abs(eigenvalues), axis=-1, initial=0.0)
    cut = (eigenvalues.shape[-1] if dim is None else dim) * _EPS * lam_max
    return float(cut) if np.ndim(cut) == 0 else cut


def _reconstruct(vecs: np.ndarray, fvals: np.ndarray) -> np.ndarray:
    """``V diag(f) V^dag`` from eigenvector columns ``vecs`` and the values
    ``fvals`` of ``f`` along the last axis.

    Either may carry leading stack axes, which broadcast: a ``(T, d)`` set
    of values on one eigenbasis, or a stack of eigensystems, gives a
    ``(T, d, d)`` stack.
    """
    return (vecs * fvals[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # unitary; column j pairs with eigenvalues[j]
    cutoff: float  # rank_cutoff of the eigenvalues


def hermiticity_residual(h: np.ndarray) -> float:
    """Relative spectral-norm deviation of ``h`` from its adjoint, from two
    Hermitian spectra: ``||h - h^dag||`` is the largest ``|lambda|`` of
    ``i (h - h^dag)``, ``||h||^2`` the top eigenvalue of ``h^dag h``, formed
    from ``h`` scaled to a largest entry of 1 so it cannot under- or overflow."""
    top = np.max(np.abs(h), initial=0.0)
    if top == 0.0:
        return 0.0
    g = h / top
    scale = top * np.sqrt(np.linalg.eigvalsh(dagger(g) @ g)[-1])
    skew = np.linalg.eigvalsh(1j * (h - dagger(h)))
    return float(max(-skew[0], skew[-1]) / scale)


def _within_frobenius_bound(h: np.ndarray, herm_tol: float) -> bool:
    """Whether ``sqrt(d) ||h - h^dag||_F / ||h||_F``, an upper bound on
    ``hermiticity_residual(h)`` (``||x|| <= ||x||_F <= sqrt(d) ||x||``), lies
    clearly below ``herm_tol``.

    Both norms are of arrays scaled to a largest entry of 1 (the skew part
    after the subtraction, so its relative rounding stays ``eps``).  The
    margin ``1e-6`` covers the rounding of the norms, and ``d sqrt(tiny)``
    the squares of skew entries that may flush to zero, so ``True`` implies
    a computed residual within ``herm_tol`` too.
    """
    top = np.abs(h).max(initial=0.0)
    if top == 0.0:
        return False
    d = h.shape[0]
    skew, g = (h - dagger(h)) / top, h / top
    skew_norm = math.sqrt(np.vdot(skew, skew).real)
    return bool(math.sqrt(d) * (skew_norm + d * _SQRT_TINY)
                <= (1.0 - 1e-6) * herm_tol * math.sqrt(np.vdot(g, g).real))


def _checked(h: np.ndarray, herm_tol: float = HERM_TOL) -> np.ndarray:
    """``h`` as a complex array, checked to be square, finite and Hermitian.

    Raises ``ValueError`` naming the symmetry residual when ``h`` is not
    Hermitian within ``herm_tol`` (relative spectral norm).  A matrix whose
    Frobenius bound on the residual (``_within_frobenius_bound``) is below
    ``herm_tol`` passes without it; any other matrix gets the exact residual
    and its two eigenvalue calls, so a matrix is accepted or refused, with
    the same message, exactly as by the residual alone.  Public functions
    run it once on each matrix their caller passes; ``herm_tol=inf`` skips
    both.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    if not np.isfinite(h).all():
        raise ValueError("matrix has non-finite entries")
    if herm_tol < np.inf and not _within_frobenius_bound(h, herm_tol):
        res = hermiticity_residual(h)
        if res > herm_tol:
            raise ValueError(
                f"matrix is not Hermitian: relative symmetry residual {res:.3e} "
                f"exceeds {herm_tol:.1e}"
            )
    return h


def _eigh(h: np.ndarray):
    """Eigenvalues (descending) and C-contiguous eigenvector columns of the
    Hermitian part of a matrix or of each member of a ``(..., d, d)`` stack.

    Every eigendecomposition with eigenvectors that the library computes
    goes through here, and a stack member gets the bits of its own call.
    Checks nothing: callers pass matrices they checked or built.
    """
    vals, vecs = np.linalg.eigh(0.5 * (h + h.conj().swapaxes(-1, -2)))
    return vals[..., ::-1], np.ascontiguousarray(vecs[..., ::-1])


def eig_hermitian(h: np.ndarray, *, herm_tol: float = HERM_TOL) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix: ``_checked``, then ``_eigh``.

    Raises ``ValueError`` naming the symmetry residual when the input is
    not Hermitian within ``herm_tol`` (relative spectral norm);
    ``herm_tol=np.inf`` skips the check for a matrix Hermitian by
    construction; a NaN or negative ``herm_tol`` is refused.
    """
    if not herm_tol >= 0.0:
        raise ValueError(f"herm_tol must be nonnegative or inf, got {herm_tol}")
    vals, vecs = _eigh(_checked(h, herm_tol))
    return SpectralDecomposition(vals, vecs, rank_cutoff(vals))


def _psd_eigensystem(h: np.ndarray, dim: int | None = None):
    """Eigenvalues (descending) and eigenvectors of a PSD matrix or a
    ``(..., d, d)`` stack: ``_eigh``, with each spectrum clamped.

    Eigenvalues at or below the ``rank_cutoff`` are set to 0.  Raises when
    one lies below ``-max(cutoff, 1e-12 * max|lambda|)``; negativity above
    that is rounding, which in a computed PSD operator such as a CP-map
    output can exceed the cutoff, and is clamped too.  The spectrum is
    descending, so its first and last eigenvalues give ``max|lambda|`` and
    the last alone decides the refusal.

    Checks nothing else: callers pass matrices they checked or built.  ``dim``
    is ``rank_cutoff``'s, for matrices that stand in for larger ones.
    """
    vals, vecs = _eigh(h)
    top = np.maximum(vals[..., :1], -vals[..., -1:])
    cut = (vals.shape[-1] if dim is None else dim) * _EPS * top
    floor = np.maximum(cut, 1e-12 * top)
    neg = vals[..., -1:] < -floor
    if neg.any():
        row = int(np.argmax(neg.reshape(-1)))
        worst, bound = (float(a.reshape(-1)[row]) for a in (vals[..., -1:], floor))
        raise ValueError(
            f"matrix is not positive semidefinite: eigenvalue {worst:.3e} below -{bound:.3e}"
        )
    return np.where(vals <= cut, 0.0, vals), vecs


def _masked_log(vals):
    """Natural log of a clamped spectrum (``_psd_eigensystem``; a stack of
    spectra along the last axis allowed), 0 on the kernel, and the support
    mask ``vals > 0``.  The one place a spectrum's log is taken on its
    support: powers, phases and entropies of a spectrum read it."""
    pos = vals > 0.0
    return np.log(np.where(pos, vals, 1.0)), pos


def _on_support(vals, vecs, f) -> np.ndarray:
    """``f`` on the positive part of a clamped eigensystem (one matrix or a
    stack), 0 on the kernel; ``f`` maps an array of positive eigenvalues
    to values."""
    pos = vals > 0.0
    fvals = np.zeros(vals.shape, dtype=complex)
    fvals[pos] = f(vals[pos])
    return _reconstruct(vecs, fvals)


def _power(vals, vecs, p: float) -> np.ndarray:
    """``h**p`` on the support of ``h`` from its clamped eigensystem.

    ``float_power`` rounds almost every element correctly, as a scalar
    power does; ``**`` on a float array may take a SIMD ``pow`` that is one
    ulp off on about 5% of inputs, and the finite-set search's
    finite-difference gradient amplifies such last-bit changes.
    """
    return _on_support(vals, vecs, lambda v: np.float_power(v, p))


def _eigenspaces(vals: np.ndarray):
    """Index arrays of the eigenspaces of a clamped spectrum (descending).

    Neighbouring eigenvalues share an eigenspace when they differ by at
    most ``CLUSTER_TOL`` times the largest; the kernel (everything below
    the rank cutoff) is one eigenspace.
    """
    scale = float(vals[0]) if vals[0] > 0 else 1.0
    breaks = np.flatnonzero(np.abs(np.diff(vals)) > CLUSTER_TOL * scale) + 1
    return np.split(np.arange(len(vals)), breaks)


def fun_on_support(h, f) -> np.ndarray:
    """Apply ``f`` to the spectrum of PSD ``h`` restricted to its support.

    ``f`` is evaluated once on the array of positive eigenvalues.
    Eigenvalues at or below the rank cutoff are mapped to zero regardless
    of ``f``, which realizes pseudo-inverses and support-restricted logs.
    """
    return _on_support(*_psd_eigensystem(_checked(h)), f)


def power_on_support(h, p: float) -> np.ndarray:
    """``h**p`` on the support of PSD ``h``; zero on the kernel.

    Negative ``p`` gives the pseudo-inverse power.
    """
    return _power(*_psd_eigensystem(_checked(h)), p)


def imaginary_power(h, t: float) -> np.ndarray:
    """``h**(i t)`` on the support of PSD ``h``; zero on the kernel.

    The result is unitary on the support.
    """
    return fun_on_support(h, lambda v: np.exp(1j * t * np.log(v)))


def log_on_support(h) -> np.ndarray:
    """Natural log of PSD ``h`` on its support; zero on the kernel."""
    return fun_on_support(h, np.log)


def sqrtm_psd(h) -> np.ndarray:
    """Principal square root of a PSD matrix."""
    return power_on_support(h, 0.5)


def support_projector(h) -> np.ndarray:
    """Orthogonal projector onto the support of PSD ``h``."""
    return fun_on_support(h, np.ones_like)


def schatten_norm(m: np.ndarray, p: float) -> float:
    """Schatten p-norm (l^p norm of the singular values); ``p=np.inf`` allowed."""
    m = np.asarray(m, dtype=complex)
    if not (p == np.inf or p >= 1.0):
        raise ValueError(f"Schatten norm requires p >= 1 or inf, got {p}")
    s = np.linalg.svd(m, compute_uv=False)
    if p == np.inf:
        return float(s[0]) if s.size else 0.0
    if p == 1.0:
        return float(np.sum(s))
    if p == 2.0:
        return float(np.sqrt(np.sum(s * s)))
    return float(np.sum(s**p) ** (1.0 / p))


def trace_norm_hermitian(m: np.ndarray) -> float:
    """Trace norm of a Hermitian matrix via its eigenvalues (faster than SVD)."""
    return float(np.sum(np.abs(np.linalg.eigvalsh(m))))


def tensor_product(*factors: np.ndarray) -> np.ndarray:
    """Kronecker product of the factors, first factor most significant.

    Guards against composite dimensions above ``MAX_TENSOR_DIM``.
    """
    if not factors:
        raise ValueError("tensor_product needs at least one factor")
    factors = [np.asarray(f, dtype=complex) for f in factors]
    rows = int(np.prod([f.shape[0] for f in factors]))
    cols = int(np.prod([f.shape[1] for f in factors]))
    if rows > MAX_TENSOR_DIM or cols > MAX_TENSOR_DIM:
        raise ValueError(
            f"tensor product dimension {rows}x{cols} exceeds the configured "
            f"maximum {MAX_TENSOR_DIM}"
        )
    out = factors[0]
    for f in factors[1:]:
        out = np.kron(out, f)
    return out


def _factor_split(dims, keep):
    """``dims`` and the sorted distinct ``keep`` as lists of ints, and the
    traced factors (those not kept) in order.

    Refuses a non-integer in either and a ``keep`` index that names no factor.
    """
    dims, keep = list(_integers(dims, "dims")), sorted(set(_integers(keep, "keep")))
    if any(k < 0 or k >= len(dims) for k in keep):
        raise ValueError(f"keep indices {keep} out of range for {len(dims)} factors")
    return dims, keep, [i for i in range(len(dims)) if i not in keep]


def partial_trace(m: np.ndarray, dims, keep) -> np.ndarray:
    """Trace out all tensor factors not listed in ``keep``.

    ``dims`` lists the factor dimensions in big-endian order and must
    multiply to the dimension of ``m``; ``keep`` is an iterable of factor
    indices to retain (output keeps their original order).  A ``(..., D,
    D)`` stack gives the stack of its members' partial traces.

    One transpose moves the kept factors ahead of the traced ones on both
    sides, and one trace sums the traced block's diagonal.
    """
    m = np.asarray(m, dtype=complex)
    dims, keep, traced = _factor_split(dims, keep)
    total, lead = math.prod(dims), m.shape[:-2]
    if m.ndim < 2 or m.shape[-2:] != (total, total):
        raise ValueError(f"dims {dims} do not match matrix shape {m.shape}")
    rows = [len(lead) + i for i in keep + traced]
    tensor = m.reshape(lead + tuple(dims + dims)).transpose(
        [*range(len(lead)), *rows, *(i + len(dims) for i in rows)])
    sizes = tuple(math.prod(dims[i] for i in part) for part in (keep, traced))
    return np.trace(tensor.reshape(lead + sizes * 2), axis1=-3, axis2=-1)


__all__ = [
    "CLUSTER_TOL",
    "HERM_TOL",
    "MAX_TENSOR_DIM",
    "SUPPORT_TOL",
    "SpectralDecomposition",
    "dagger",
    "eig_hermitian",
    "fun_on_support",
    "hermiticity_residual",
    "imaginary_power",
    "log_on_support",
    "partial_trace",
    "power_on_support",
    "rank_cutoff",
    "schatten_norm",
    "sqrtm_psd",
    "support_projector",
    "tensor_product",
    "trace_norm_hermitian",
]
