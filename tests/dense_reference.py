"""Dense references the tests hold the package's kernels to.

Each works on complex column-stacking ``d^2 x d^2`` matrices of any maps,
or walks a simplex term by term, so it is slow and general where the
package's run path is fast and specialised: the Zeno product by binary
powering and by iteration, the damped evolution by one dense exponential
(or scipy's sparse ``expm_multiply`` at large ``d``),
the identity and transpose maps, and the brute-force expansion term
``y_{n,k}``.
"""

from __future__ import annotations

import numpy as np

from zenolab.channels import Superoperator
from zenolab.fock import annihilation
from zenolab.linalg import as_matrix, devectorize, matrix_exp, vectorize
from zenolab.zeno import ZenoConfig


def zeno_product(cfg: ZenoConfig, n: int, x) -> np.ndarray:
    """(M exp(tL/n))^n applied to x, by binary exponentiation."""
    if n < 1:
        raise ValueError("n must be >= 1")
    step = cfg.m.matrix @ matrix_exp((cfg.t / n) * cfg.l.matrix)
    return devectorize(np.linalg.matrix_power(step, n) @ vectorize(x))


def zeno_product_iterated(cfg: ZenoConfig, n: int, x) -> np.ndarray:
    """Same product by n repeated applications; cross-check route."""
    if n < 1:
        raise ValueError("n must be >= 1")
    step = cfg.m.matrix @ matrix_exp((cfg.t / n) * cfg.l.matrix)
    v = vectorize(x)
    for _ in range(n):
        v = step @ v
    return devectorize(v)


def damped_evolution(k: Superoperator, l: Superoperator, t: float, gamma: float, x) -> np.ndarray:
    """exp(t (gamma K + L)) applied to x, by one dense exponential.

    The reference for any K and L of the matrix-free
    :func:`zenolab.channels.damped_action`, which the damping sweep runs.
    """
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    total = matrix_exp(t * (gamma * k.matrix + l.matrix))
    return devectorize(total @ vectorize(x))


def damped_evolution_sparse(h, t: float, gamma: float, x) -> np.ndarray:
    """exp(t (gamma K - i [H, .])) applied to x by scipy's ``expm_multiply`` on the sparse generator.

    The generator acts on the row-major ``vec`` of ``x``; it reaches the
    ``d`` (48 to 128) where the dense exponential of ``d^2 x d^2`` does not.
    """
    import scipy.sparse as sp
    from scipy.sparse.linalg import expm_multiply

    d = len(h)
    a, eye = sp.csr_matrix(annihilation(d)), sp.identity(d, format="csr")
    n = a.T @ a
    k = 2 * sp.kron(a, a) - sp.kron(n, eye) - sp.kron(eye, n)
    l = -1j * (sp.kron(sp.csr_matrix(h), eye) - sp.kron(eye, sp.csr_matrix(h.T)))
    return expm_multiply((t * (gamma * k + l)).tocsr(), np.asarray(x).reshape(-1)).reshape(d, d)


def identity_superoperator(dim: int) -> Superoperator:
    return Superoperator(matrix=np.eye(dim * dim, dtype=np.complex128))


def transpose_superoperator(dim: int) -> Superoperator:
    """x -> x^T; the canonical positive-but-not-CP map."""
    mat = np.zeros((dim * dim, dim * dim), dtype=np.complex128)
    for j in range(dim):
        for i in range(dim):
            unit = np.zeros((dim, dim), dtype=np.complex128)
            unit[i, j] = 1.0
            mat[:, j * dim + i] = vectorize(unit.T)
    return Superoperator(matrix=mat)


def expansion_term_enumerated(m, l_n, n: int, k: int, max_n: int = 25) -> np.ndarray:
    """Brute-force oracle for y_{n,k}: walk every simplex tuple explicitly.

    Sums M^{i_{k+1}} L M^{i_k} L ... L M^{i_1} / n^k over all tuples with
    nonnegative entries summing to at most n - k.  The walk visits C(n, k)
    tuples, so it is capped at ``max_n``; the polynomial route in
    :func:`zenolab.binomial.expansion_terms` is the production path.
    """
    m = as_matrix(m)
    l_n = as_matrix(l_n)
    if n > max_n:
        raise ValueError(f"enumeration oracle capped at n={max_n}, got {n}")
    if k > n or k < 0:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    powers = [np.eye(m.shape[0], dtype=np.complex128)]
    for _ in range(n):
        powers.append(powers[-1] @ m)
    if k == 0:
        return powers[n]
    total = np.zeros_like(m)

    def walk(depth: int, remaining: int, indices: tuple):
        nonlocal total
        if depth == k:
            trailing = remaining  # i_{k+1} = n - k - sum(i_1..i_k)
            product = powers[trailing]
            for idx in reversed(indices):
                product = product @ l_n @ powers[idx]
            total = total + product
            return
        for i in range(remaining + 1):
            walk(depth + 1, remaining - i, indices + (i,))

    walk(0, n - k, ())
    return total / n**k
