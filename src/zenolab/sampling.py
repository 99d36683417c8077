"""Deterministic random states and operators.

Every random object is drawn from its own counter-based Philox stream keyed
by (seed, stream index), so results never depend on evaluation order and
every run reproduces the same output bit for bit.
"""

from __future__ import annotations

import numpy as np

from .channels import Superoperator
from .linalg import devectorize, kron, vectorize

__all__ = [
    "stream",
    "random_density_matrix",
    "random_hermitian",
    "random_operator",
    "random_unitary",
    "random_gapped_channel",
]


def stream(seed: int, index: int) -> np.random.Generator:
    """Generator for stream ``index`` of the experiment keyed by ``seed``."""
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(index)], dtype=np.uint64)
    return np.random.default_rng(np.random.Philox(key=key))


def _ginibre(dim: int, rng: np.random.Generator) -> np.ndarray:
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def random_density_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Ginibre-induced density matrix of full support."""
    g = _ginibre(dim, rng)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_hermitian(dim: int, rng: np.random.Generator, norm: float = 1.0) -> np.ndarray:
    g = _ginibre(dim, rng)
    h = (g + g.conj().T) / 2
    return h / np.linalg.norm(h, 2) * norm


def random_operator(dim: int, rng: np.random.Generator, norm: float = 1.0) -> np.ndarray:
    g = _ginibre(dim, rng)
    return g / np.linalg.norm(g, 2) * norm


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(_ginibre(dim, rng))
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def random_gapped_channel(sys_dim: int, rng: np.random.Generator, delta: float = 0.5):
    """Uniformly mixing channel with spectral gap exactly ``delta``.

    M(x) = delta * U x U^dag + (1 - delta) * Tr(x) * sigma for Haar U and a
    random full-rank sigma.  On the traceless subspace M acts as delta times
    a unitary conjugation, so ||M^n - P|| decays like delta^n with P the
    projection x -> Tr(x) rho_star onto the unique fixed state.

    Returns (m, p, rho_star) as superoperators plus the fixed state.
    """
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    u = random_unitary(sys_dim, rng)
    sigma = random_density_matrix(sys_dim, rng)
    d2 = sys_dim * sys_dim
    conj_u = kron(u.conj(), u)
    replace = np.outer(
        vectorize(sigma), vectorize(np.eye(sys_dim, dtype=np.complex128)).conj()
    )
    m_mat = delta * conj_u + (1 - delta) * replace
    # fixed state solves (I - delta * U . U^dag) rho = (1 - delta) sigma
    fixed_vec = np.linalg.solve(np.eye(d2) - delta * conj_u, (1 - delta) * vectorize(sigma))
    rho_star = devectorize(fixed_vec)
    p_mat = np.outer(fixed_vec, vectorize(np.eye(sys_dim, dtype=np.complex128)).conj())
    return Superoperator(matrix=m_mat), Superoperator(matrix=p_mat), rho_star
