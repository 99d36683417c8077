"""Truncated single-mode Fock space: operators, states and distances.

The space is spanned by the number basis |0>, ..., |d-1>.  Coherent
vectors are truncated without renormalization; the missing weight is
carried explicitly as ``tail_mass`` so truncation error stays auditable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix

__all__ = [
    "CoherentVector",
    "number_operator",
    "annihilation",
    "coherent_vector",
    "vacuum_state",
    "particle_number",
    "trace_distance",
]


def _check_dim(dim: int) -> int:
    if int(dim) != dim or dim < 2:
        raise ValueError(f"Fock dimension must be an integer >= 2, got {dim}")
    return int(dim)


def number_operator(dim: int) -> np.ndarray:
    """diag(0, 1, ..., d-1)."""
    dim = _check_dim(dim)
    return np.diag(np.arange(dim, dtype=np.complex128))


def annihilation(dim: int) -> np.ndarray:
    """Lowering operator, a|n> = sqrt(n)|n-1>, truncated at d levels."""
    dim = _check_dim(dim)
    a = np.zeros((dim, dim), dtype=np.complex128)
    for n in range(1, dim):
        a[n - 1, n] = np.sqrt(n)
    return a


@dataclass(frozen=True)
class CoherentVector:
    """Truncated coherent state vector.

    ``coefficients[n] == exp(-|amplitude|^2 / 2) * amplitude**n / sqrt(n!)``
    for n < dim; ``tail_mass`` is the probability weight lost to truncation.
    """

    dim: int
    amplitude: complex
    coefficients: np.ndarray
    tail_mass: float

    def projector(self) -> np.ndarray:
        """The (sub-normalized) rank-1 operator |alpha><alpha|."""
        return np.outer(self.coefficients, self.coefficients.conj())


def coherent_vector(alpha: complex, dim: int) -> CoherentVector:
    """Truncated coherent vector; no renormalization is applied.

    Coefficients are generated by the stable recurrence
    c_0 = exp(-|alpha|^2/2), c_n = c_{n-1} * alpha / sqrt(n).
    """
    dim = _check_dim(dim)
    alpha = complex(alpha)
    coeff = np.zeros(dim, dtype=np.complex128)
    coeff[0] = np.exp(-abs(alpha) ** 2 / 2)
    for n in range(1, dim):
        coeff[n] = coeff[n - 1] * alpha / np.sqrt(n)
    # Tail summed as exp(-|a|^2) sum_{n>=d} |a|^{2n}/n! via the same
    # recurrence; the equivalent 1 - sum |c_n|^2 would lose tiny tails to
    # cancellation at the 1e-16 floor.  When the first term underflows, as
    # every |c_n|^2 does at small d past |a| near 27, the recurrence has
    # nothing to sum and the tail is 1 - sum |c_n|^2 after all.
    mag2 = abs(alpha) ** 2
    term = float(np.abs(coeff[dim - 1]) ** 2) * mag2 / dim
    tail = 0.0 if term else 1.0 - float(np.vdot(coeff, coeff).real)
    n = dim
    while term > 0.0:
        tail += term
        n += 1
        term *= mag2 / n
        if n > mag2 and term <= tail * 1e-18:
            break
    tail = min(max(tail, 0.0), 1.0)
    return CoherentVector(dim=dim, amplitude=alpha, coefficients=coeff, tail_mass=tail)


def vacuum_state(dim: int) -> np.ndarray:
    """|0><0| on the truncated space."""
    dim = _check_dim(dim)
    rho = np.zeros((dim, dim), dtype=np.complex128)
    rho[0, 0] = 1.0
    return rho


def particle_number(rho) -> float:
    """Average particle number sum_n n * Re(rho_nn)."""
    rho = as_matrix(rho)
    diag = np.real(np.diag(rho))
    return float(np.arange(rho.shape[0]) @ diag)


def trace_distance(rho, sigma) -> float:
    """Half the trace norm of rho - sigma, via Hermitian eigendecomposition."""
    rho = as_matrix(rho)
    sigma = as_matrix(sigma)
    if rho.shape != sigma.shape:
        raise ValueError(f"dimension mismatch: {rho.shape} vs {sigma.shape}")
    diff = rho - sigma
    diff = (diff + diff.conj().T) / 2
    return 0.5 * float(np.abs(np.linalg.eigvalsh(diff)).sum())
