"""Dense linear algebra used throughout the package.

Matrices are plain ``numpy.ndarray`` of complex128.
The vectorization convention is column stacking, fixed so that

    vec(A @ X @ B) == (B.T kron A) @ vec(X)

holds exactly; everything that builds superoperators relies on it.

:func:`matrix_exp` scales its input by ``2**-s`` to a 1-norm of at most
1/2, evaluates a Taylor polynomial of a degree fixed in advance by a bound
on the whole remainder with the Paterson-Stockmeyer scheme (block size 3:
``x^2``, ``x^3`` and Horner's rule in ``x^3``, 7 products at the default
tolerance instead of about 17 term by term), and squares ``s`` times.  The
number of squarings, which sets the rounding error (Higham, SIAM J. Matrix
Anal. Appl. 26, 2005), is the same as for term-by-term summation.
"""

from __future__ import annotations

from math import ceil, factorial, log2

import numpy as np

__all__ = [
    "as_matrix",
    "adjoint",
    "kron",
    "vectorize",
    "devectorize",
    "trace_norm",
    "matrix_exp",
]


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-D complex128 array, rejecting non-finite entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    return m


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


def trace_norm(a):
    """Sum of singular values of a square matrix (a float), or of each matrix of a ``(K, d, d)`` stack (an array).

    An exactly Hermitian matrix (``a == a^dag`` entry for entry, an
    ``O(d^2)`` test on the real and imaginary parts, with no conjugate copy)
    takes ``sum |eigvalsh(a)|``, the same norm for about 60% of the cost of
    the SVD that every other matrix takes.  A stack takes one ``eigvalsh``
    call for its Hermitian matrices and one SVD call for the rest, and each
    of its norms equals, bit for bit, that of its matrix alone.
    """
    x = np.asarray(a, dtype=np.complex128)
    if x.ndim not in (2, 3) or x.shape[-1] != x.shape[-2]:
        raise ValueError(f"trace_norm requires a square matrix or a stack of them, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("matrix has non-finite entries")
    stack = x.reshape(-1, *x.shape[-2:])
    # one matrix at a time, so that the test holds no stack-sized temporary
    hermitian = np.array(
        [np.array_equal(m.real, m.real.T) and np.array_equal(m.imag, -m.imag.T) for m in stack], dtype=bool
    )
    norms = np.empty(len(stack))
    # a stack of one kind is read in place; a mixed one is split by copies
    if hermitian.any():
        part = stack if hermitian.all() else stack[hermitian]
        norms[hermitian] = np.abs(np.linalg.eigvalsh(part)).sum(axis=1)
    if not hermitian.all():
        part = stack if not hermitian.any() else stack[~hermitian]
        norms[~hermitian] = np.linalg.svd(part, compute_uv=False).sum(axis=1)
    return float(norms[0]) if x.ndim == 2 else norms


def _taylor_degree(theta: float, threshold: float) -> int:
    """Least m with ``theta^(m+1)/(m+1)! / (1 - theta/(m+2)) <= threshold``.

    For ``theta <= 1/2`` the left side bounds the 1-norm of the whole Taylor
    remainder ``sum_{k>m} x^k/k!`` of any ``x`` with ``||x||_1 <= theta``.
    """
    m, term = 0, theta  # term = theta^(m+1) / (m+1)!
    while term / (1.0 - theta / (m + 2)) > threshold:
        m += 1
        term *= theta / (m + 1)
    return m


def matrix_exp(a, tol: float = 1e-12) -> np.ndarray:
    """Matrix exponential by scaling and squaring of a Taylor polynomial.

    Scaling: ``x = a / 2**s`` with the least ``s >= 0`` that makes
    ``theta = ||x||_1 <= 1/2``, and ``threshold = tol / 2**(s + 2)`` (at
    least 1e-300), so that the truncation error, grown by the ``s``
    squarings, stays within ``tol`` in exact arithmetic.  ``tol`` bounds
    that remainder only.  Rounding in the squarings of a stiff input can
    exceed it: entries of ``exp(t (gamma K + L))`` with a random Hamiltonian
    of norm 4 were off by 4.9e-10 against ``scipy.linalg.expm`` at
    ``gamma = 4096``, ``t = 5`` and ``d = 9`` and 12.

    Series: the Taylor polynomial of the least degree ``m`` whose remainder
    bound ``theta^(m+1)/(m+1)! / (1 - theta/(m+2))`` is at most
    ``threshold``, chosen before any product.  It is evaluated by the
    Paterson-Stockmeyer scheme with block size 3: ``x^2`` and ``x^3`` are
    formed once and Horner's rule runs in ``x^3`` over the blocks
    ``c_{3j} I + c_{3j+1} x + c_{3j+2} x^2`` (``c_k = 1/k!``; the top block
    is filled up to degree ``3r + 2``, which costs no product).  That takes
    ``2 + r`` products for ``r = m // 3``: 7 at the default ``tol`` and
    ``theta`` near 1/2, where summing term by term took about 17.  The
    blocks take their ``x`` term as ``(c_{3j+1} 2**-s) a``.

    Squaring: the polynomial is squared ``s`` times.
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError("matrix_exp requires a square matrix")
    if not tol > 0:
        raise ValueError("tol must be positive")
    norm = np.linalg.norm(a, 1)
    s = 0 if norm <= 0.5 else int(ceil(log2(norm / 0.5)))
    scale = 2.0**-s
    threshold = max(tol / (2.0 ** (s + 2)), 1e-300)
    r = _taylor_degree(norm * scale, threshold) // 3
    # block j as (c_{3j}, c_{3j+1} 2^-s, c_{3j+2}), its middle term applied to a
    blocks = [
        (1 / factorial(3 * j), scale / factorial(3 * j + 1), 1 / factorial(3 * j + 2))
        for j in range(r + 1)
    ]

    x = a * scale if s else a  # read only, so no copy when unscaled
    x2 = x @ x
    x3 = x2 @ x if r else None
    # Horner's rule in x^3 from the top block down; adding in place keeps one temporary
    acc = np.zeros_like(x2)
    for k, (c0, c1, c2) in enumerate(reversed(blocks)):
        if k:
            acc = acc @ x3
        acc += c2 * x2
        acc += c1 * a
        acc.reshape(-1)[:: acc.shape[0] + 1] += c0
    for _ in range(s):
        acc = acc @ acc
    return acc
