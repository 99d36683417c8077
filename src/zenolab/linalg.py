"""Dense complex linear algebra used throughout the package.

All matrices are plain ``numpy.ndarray`` with dtype complex128.  The
vectorization convention is column stacking, fixed so that

    vec(A @ X @ B) == (B.T kron A) @ vec(X)

holds exactly; everything that builds superoperators relies on it.

The product kernels (:func:`matrix_power` and the Taylor terms and
squarings of :func:`matrix_exp`) flush every real or imaginary part below
``FLOOR = sqrt(finfo(float64).tiny)`` (about 1.49e-154) to zero after each
product.  The Zeno and strong-damping limits drive most entries towards
zero like ``|eta|^n`` or ``exp(-gamma t)``; without the flush, repeated
squaring multiplies tiny operands inside the BLAS ``zgemm`` and the
resulting subnormal arithmetic stalls the CPU, making one product of a
576x576 power several times slower than a product of normal operands.
Any two parts kept by the flush multiply to a normal number.  One flush
changes the 1-norm of any column by at most ``sqrt(2) * D * FLOOR``
(about 1.2e-151 at D = 576), far below every tolerance in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, log2

import numpy as np

__all__ = [
    "SpectralData",
    "as_matrix",
    "matmul",
    "adjoint",
    "kron",
    "vectorize",
    "devectorize",
    "herm_eig",
    "singular_values",
    "trace_norm",
    "matrix_exp",
    "matrix_power",
]

FLOOR = float(np.sqrt(np.finfo(np.float64).tiny))


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-D complex128 array, rejecting non-finite entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix has non-finite entries")
    return m


def matmul(a, b) -> np.ndarray:
    """Matrix product with an explicit dimension check."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape} @ {b.shape}")
    return a @ b


def adjoint(a) -> np.ndarray:
    """Conjugate transpose."""
    return as_matrix(a).conj().T


def kron(a, b) -> np.ndarray:
    """Kronecker product."""
    return np.kron(as_matrix(a), as_matrix(b))


def vectorize(x) -> np.ndarray:
    """Column-stack a square matrix into a length d*d vector."""
    x = as_matrix(x)
    if x.shape[0] != x.shape[1]:
        raise ValueError(f"vectorize requires a square matrix, got {x.shape}")
    return x.reshape(-1, order="F")


def devectorize(v) -> np.ndarray:
    """Inverse of :func:`vectorize` (square output)."""
    v = np.asarray(v, dtype=np.complex128).reshape(-1)
    d = int(round(np.sqrt(v.size)))
    if d * d != v.size:
        raise ValueError(f"vector of length {v.size} is not a square matrix")
    return v.reshape((d, d), order="F")


@dataclass(frozen=True)
class SpectralData:
    """Eigen- or singular-value data, sorted descending.

    ``values`` are real; ``vectors`` (when present) holds the matching
    orthonormal eigenvectors as columns.
    """

    values: np.ndarray
    vectors: np.ndarray | None = None


def herm_eig(a, rel_tol: float = 1e-8) -> SpectralData:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Raises ValueError if ``a`` deviates from Hermitian by more than
    ``rel_tol`` relative Frobenius norm.
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError("herm_eig requires a square matrix")
    scale = np.linalg.norm(a)
    if np.linalg.norm(a - a.conj().T) > rel_tol * max(scale, 1e-300):
        raise ValueError("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh((a + a.conj().T) / 2)
    order = np.argsort(w)[::-1]
    return SpectralData(values=w[order], vectors=v[:, order])


def singular_values(a) -> np.ndarray:
    """Singular values, descending."""
    return np.linalg.svd(as_matrix(a), compute_uv=False)


def trace_norm(a) -> float:
    """Sum of singular values of a square matrix."""
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError("trace_norm requires a square matrix")
    return float(singular_values(a).sum())


def _flush_underflow(a: np.ndarray) -> np.ndarray:
    """Zero, in place, every real or imaginary part of magnitude below FLOOR.

    ``a`` must be a freshly computed, contiguous complex128 product; the
    array is returned for chaining.
    """
    v = a.view(np.float64)
    m = v < FLOOR
    m &= v > -FLOOR
    np.putmask(v, m, 0.0)
    return a


def matrix_power(a, n: int) -> np.ndarray:
    """``a**n`` for an integer n >= 1 by binary powering, flushing underflow.

    The multiplication schedule is numpy's ``matrix_power``, so on operands
    that never come near the floor the result is bit-identical to it.  Each
    product is passed through the underflow flush described in the module
    docstring; the flush touches only freshly allocated products, never
    ``a`` itself, and bounds the change of any column's 1-norm by
    ``sqrt(2) * D * FLOOR`` per product.  The result is always a new array,
    also for n = 1.
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError("matrix_power requires a square matrix")
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return a.copy()
    if n == 2:
        return _flush_underflow(a @ a)
    if n == 3:
        return _flush_underflow(_flush_underflow(a @ a) @ a)
    z = result = None
    while n > 0:
        z = a if z is None else _flush_underflow(z @ z)
        n, bit = divmod(n, 2)
        if bit:
            result = z if result is None else _flush_underflow(result @ z)
    return result


def matrix_exp(a, tol: float = 1e-12) -> np.ndarray:
    """Matrix exponential by scaling and squaring of the Taylor series.

    The input is scaled by 2**s so its 1-norm is at most 1/2, the series is
    summed until the running term falls below ``tol`` (tightened to absorb
    the s squarings), and the result is squared back up.  Every Taylor term
    and every squaring goes through the underflow flush described in the
    module docstring, which keeps stiff exponentials such as
    ``exp(t (gamma K + L))`` at large gamma out of subnormal arithmetic; each
    flush changes a column's 1-norm by at most ``sqrt(2) * D * FLOOR``, more
    than 130 orders of magnitude below the default ``tol``.
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError("matrix_exp requires a square matrix")
    if not tol > 0:
        raise ValueError("tol must be positive")
    d = a.shape[0]
    norm = np.linalg.norm(a, 1)
    s = 0 if norm <= 0.5 else int(ceil(log2(norm / 0.5)))
    scaled = a / (2.0**s) if s else a  # read only, so no copy when unscaled
    result = np.eye(d, dtype=np.complex128)
    term = np.eye(d, dtype=np.complex128)
    threshold = max(tol / (2.0 ** (s + 2)), 1e-300)
    for k in range(1, 60):
        term = term @ scaled
        term /= k
        _flush_underflow(term)
        result = result + term
        if np.linalg.norm(term, 1) <= threshold * np.linalg.norm(result, 1):
            break
    for _ in range(s):
        result = _flush_underflow(result @ result)
    return result
