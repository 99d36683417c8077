"""Discrete-simplex counting and the generalized binomial product.

The product (M + L/n)^n expands into order-k terms y_{n,k}, each a
normalized sum over the discrete simplex of k-tuples with sum <= n - k.
Counting is exact (big integers); y_{n,k} is extracted as the degree-k
coefficient of (M + s L/n)^n by truncated polynomial arithmetic, never by
enumerating the simplex.  The counts keep brute-force enumeration oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

import numpy as np

from .linalg import as_matrix, trace_norm

__all__ = [
    "SimplexBoundCheck",
    "simplex_count",
    "simplex_count_enumerated",
    "simplex_ratio_bound_check",
    "restricted_count",
    "restricted_count_enumerated",
    "restricted_difference_bound_check",
    "expansion_terms",
    "expansion_terms_applied",
    "binomial_product",
    "workhorse_limit_check",
]


def simplex_count(n: int, k: int) -> int:
    """|{i in N_0^k : sum i_l <= n - k}|, exactly.

    Equals C(n, k) by stars and bars; the equality is pinned against the
    enumeration oracle in the test suite.  Returns 0 for k > n.
    """
    if n < 1 or k < 1:
        raise ValueError("simplex_count requires n >= 1 and k >= 1")
    return comb(n, k)


def simplex_count_enumerated(n: int, k: int) -> int:
    """Brute-force oracle: walk every tuple of the simplex and count."""
    if n < 1 or k < 1:
        raise ValueError("enumeration requires n >= 1 and k >= 1")
    budget = n - k
    if budget < 0:
        return 0

    def walk(depth: int, remaining: int) -> int:
        if depth == k:
            return 1
        return sum(walk(depth + 1, remaining - i) for i in range(remaining + 1))

    return walk(0, budget)


@dataclass(frozen=True)
class SimplexBoundCheck:
    ratio: float
    limit: float
    bound: float
    holds: bool


def simplex_ratio_bound_check(n: int, k: int) -> SimplexBoundCheck:
    """Check |count/n^k - 1/k!| <= 2^k / ((k-1)! n), exactly in rationals."""
    if n < k:
        raise ValueError(f"ratio bound requires n >= k, got n={n}, k={k}")
    ratio = Fraction(simplex_count(n, k), n**k)
    deviation = abs(ratio - Fraction(1, factorial(k)))
    bound = Fraction(2**k, factorial(k - 1) * n)
    return SimplexBoundCheck(
        ratio=float(ratio),
        limit=1.0 / factorial(k),
        bound=float(bound),
        holds=deviation <= bound,
    )


def restricted_count(n: int, k: int, lower_bounds) -> int:
    """|{i in N_0^k : i_l >= N_l, sum i_l <= n - k - N_{k+1}}|, exactly.

    ``lower_bounds`` must have length k + 1; the last entry reserves slack
    from the budget.  Closed form C(n - sum(N), k), zero when infeasible.
    """
    bounds = [int(b) for b in lower_bounds]
    if len(bounds) != k + 1:
        raise ValueError(f"lower_bounds must have length k+1={k + 1}, got {len(bounds)}")
    if any(b < 0 for b in bounds):
        raise ValueError("lower_bounds must be nonnegative")
    shifted = n - sum(bounds)
    if shifted < k:
        return 0
    return comb(shifted, k)


def restricted_count_enumerated(n: int, k: int, lower_bounds) -> int:
    bounds = [int(b) for b in lower_bounds]
    if len(bounds) != k + 1:
        raise ValueError(f"lower_bounds must have length k+1={k + 1}")
    budget = n - k - bounds[k]
    if budget < 0:
        return 0

    def walk(depth: int, remaining: int) -> int:
        if depth == k:
            return 1
        return sum(
            walk(depth + 1, remaining - i) for i in range(bounds[depth], remaining + 1)
        )

    return walk(0, budget)


def restricted_difference_bound_check(n: int, k: int, lower_bounds) -> SimplexBoundCheck:
    """Check (|simplex| - |restricted|)/n^k <= sum(N_l) / ((k-1)! n)."""
    if n < k:
        raise ValueError(f"difference bound requires n >= k, got n={n}, k={k}")
    diff = Fraction(simplex_count(n, k) - restricted_count(n, k, lower_bounds), n**k)
    bound = Fraction(sum(int(b) for b in lower_bounds), factorial(k - 1) * n)
    return SimplexBoundCheck(
        ratio=float(diff), limit=0.0, bound=float(bound), holds=diff <= bound
    )


def _expansion_coefficients(m, scaled, n: int, k_max: int, seed) -> list:
    """Coefficients of (M + s*scaled)^n applied to ``seed``, degrees 0..k_max."""
    coeffs = [seed] + [np.zeros_like(seed) for _ in range(k_max)]
    for _ in range(n):
        new = []
        for j in range(k_max + 1):
            term = m @ coeffs[j]
            if j > 0:
                term = term + scaled @ coeffs[j - 1]
            new.append(term)
        coeffs = new
    return coeffs


def _expansion_operands(m, l_n, n: int, k_max: int) -> tuple:
    """``(M, L_n)`` as matrices, once both are square of one shape and ``1 <= n``, ``k_max <= n``."""
    m = as_matrix(m)
    l_n = as_matrix(l_n)
    if m.shape != l_n.shape or m.shape[0] != m.shape[1]:
        raise ValueError("M and L_n must be square with equal shape")
    if n < 1:
        raise ValueError("n must be >= 1")
    if k_max > n:
        raise ValueError(f"k_max={k_max} exceeds n={n}")
    return m, l_n


def expansion_terms(m, l_n, n: int, k_max: int) -> list:
    """The order-k pieces y_{n,k} of (M + L_n/n)^n for k = 0..k_max.

    y_{n,0} = M^n and sum_k y_{n,k} with k_max = n reproduces the full
    product.  Cost is O(n * k_max) matrix products.
    """
    m, l_n = _expansion_operands(m, l_n, n, k_max)
    eye = np.eye(m.shape[0], dtype=np.complex128)
    return _expansion_coefficients(m, l_n / n, n, k_max, eye)


def expansion_terms_applied(m, l_n, n: int, k_max: int, vector) -> list:
    """y_{n,k} @ vector for k = 0..k_max, by vector-mode polynomial arithmetic."""
    m, l_n = _expansion_operands(m, l_n, n, k_max)
    v = np.asarray(vector, dtype=np.complex128).reshape(-1)
    return _expansion_coefficients(m, l_n / n, n, k_max, v)


def binomial_product(m, l_n, n: int) -> np.ndarray:
    """(M + L_n/n)^n by binary exponentiation."""
    m = as_matrix(m)
    l_n = as_matrix(l_n)
    if n < 1:
        raise ValueError("n must be >= 1")
    return np.linalg.matrix_power(m + l_n / n, n)


@dataclass(frozen=True)
class WorkhorseResult:
    records: tuple  # (n, trace-norm error) pairs
    decreasing: bool


def workhorse_limit_check(m, l, p, k: int, n_grid, x) -> WorkhorseResult:
    """Errors ||y_{n,k} x - (P L P)^k / k! x||_1 over an n-grid (constant L).

    k = 0 compares M^n x against P x, the plain mixing error.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got k={k}")
    m = as_matrix(m)
    l = as_matrix(l)
    p = as_matrix(p)
    x = np.asarray(x, dtype=np.complex128).reshape(-1)
    if k == 0:
        target = p @ x
    else:
        plp = p @ l @ p
        target = np.linalg.matrix_power(plp, k) @ x / factorial(k)
    records = []
    for n in n_grid:
        if n < k:
            raise ValueError(f"grid point n={n} below k={k}")
        coeff = expansion_terms_applied(m, l, int(n), k, x)[k]
        d = int(round(np.sqrt(x.size)))
        err = trace_norm((coeff - target).reshape((d, d), order="F"))
        records.append((int(n), err))
    decreasing = all(b < a for (_, a), (_, b) in zip(records, records[1:]))
    return WorkhorseResult(records=tuple(records), decreasing=decreasing)
