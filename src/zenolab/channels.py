"""Quantum channels, superoperators and the bosonic attenuator.

Superoperators are (d*d, d*d) matrices acting on column-stacked operators,
so a Kraus map sum_i K_i x K_i^dag has matrix sum_i conj(K_i) kron K_i.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from math import comb, lgamma, log, log1p

import numpy as np

from .fock import annihilation, number_operator, particle_number, vacuum_state
from .linalg import adjoint, as_matrix, devectorize, kron, trace_norm, vectorize

__all__ = [
    "KrausChannel",
    "Superoperator",
    "Generator",
    "attenuator_kraus",
    "attenuator_deviation",
    "attenuator_check",
    "damped_action",
    "zeno_action",
    "to_superoperator",
    "apply",
    "choi_matrix",
    "is_completely_positive",
    "attenuator_generator",
    "vacuum_projection_superop",
    "attenuator_mixing_bound",
]

CHOI_MAX_DIM = 32


@dataclass(frozen=True)
class KrausChannel:
    """A trace-preserving completely positive map given by a finite Kraus list."""

    kraus_ops: tuple

    def __post_init__(self):
        if not self.kraus_ops:
            raise ValueError("Kraus list must be nonempty")
        ops = tuple(as_matrix(k) for k in self.kraus_ops)
        d = ops[0].shape[0]
        for k in ops:
            if k.shape != (d, d):
                raise ValueError("all Kraus operators must be square with equal dimension")
        object.__setattr__(self, "kraus_ops", ops)
        total = sum(adjoint(k) @ k for k in ops)
        if np.linalg.norm(total - np.eye(d)) > 1e-10:
            raise ValueError("Kraus operators are not trace preserving within 1e-10")

    @property
    def dim(self) -> int:
        return self.kraus_ops[0].shape[0]


@dataclass(frozen=True)
class Superoperator:
    """Matrix of a linear map on d x d operators (column-stacking convention)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = as_matrix(self.matrix)
        d = int(round(np.sqrt(m.shape[0])))
        if m.shape[0] != m.shape[1] or d * d != m.shape[0]:
            raise ValueError(f"superoperator matrix must be d^2 x d^2, got {m.shape}")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return int(round(np.sqrt(self.matrix.shape[0])))


def attenuator_kraus(eta: complex, dim: int) -> KrausChannel:
    """Photon-loss channel on the truncated space.

    K_l has entries sqrt(C(n+l, n) (1-|eta|^2)^l) eta^n at (n, n+l); with
    all l = 0..d-1 present the truncated list is exactly trace preserving.
    """
    eta = complex(eta)
    if abs(eta) > 1 + 1e-12:
        raise ValueError(f"attenuator requires |eta| <= 1, got |eta|={abs(eta)}")
    loss = max(1.0 - abs(eta) ** 2, 0.0)
    ops = []
    for l in range(dim):
        k = np.zeros((dim, dim), dtype=np.complex128)
        for n in range(dim - l):
            k[n, n + l] = np.sqrt(comb(n + l, n) * loss**l) * eta**n
        ops.append(k)
    return KrausChannel(kraus_ops=tuple(ops))


def _attenuator_weights(eta: complex, d: int) -> np.ndarray:
    """The ``(d, d)`` table ``w[m, l] = sqrt(C(m+l, m) (1-|eta|^2)^l) eta^m``.

    ``w[m, l]`` is the Kraus entry ``(m, m+l)`` of :func:`attenuator_kraus`.
    Row 0 is ``w_{0,l} = (1-|eta|^2)^(l/2)``; row ``m`` follows from row
    ``m-1`` by the ratio ``eta sqrt((m+l)/m)``.  Every partial product is
    itself a weight of modulus <= 1, so nothing overflows at any ``d``.
    """
    eta = complex(eta)
    if abs(eta) > 1 + 1e-12:
        raise ValueError(f"attenuator requires |eta| <= 1, got |eta|={abs(eta)}")
    keep = min(abs(eta) ** 2, 1.0)
    levels = np.arange(d)
    w = np.empty((d, d), dtype=np.complex128)
    w[0] = np.sqrt(1.0 - keep) ** levels
    w[1:] = eta * np.sqrt((levels[1:, None] + levels) / levels[1:, None])
    np.cumprod(w, axis=0, out=w)
    return w


# Levels per block of the attenuator plan: one gauge cannot flatten a
# diagonal block's factors, whose spread grows with the block.
_BLOCK = 128
# Mantissas in [0.5, 1) multiplied before renormalising: 0.5**512 is normal.
_RUN = 512
# The exponent of a zero, and the floor of ldexp exponents (zero at 2^-1100).
_ZERO = -(2**40)
_FLOOR_EXP = -1100


def _binary(mant, expo) -> tuple:
    """``(m, e)`` with ``m`` in [0.5, 1) and the value ``m 2^e``; a zero gets ``_ZERO``."""
    mant, extra = np.frexp(mant)
    expo = expo + extra
    expo[mant == 0] = _ZERO
    return mant, expo


def _binary_powers(base: float, count: int) -> tuple:
    """``base^k`` for ``k < count`` as in :func:`_binary`, each by one ``pow`` of the mantissa."""
    m, e = np.frexp(base)
    mant = np.empty(count)
    expo = int(e) * np.arange(count, dtype=np.int64)
    carry, shift = 1.0, 0
    for start in range(0, count, _RUN):
        stop = min(start + _RUN, count)
        mant[start:stop] = carry * m ** np.arange(stop - start, dtype=np.float64)
        expo[start:stop] += shift
        carry, lost = np.frexp(carry * m**_RUN)
        shift += int(lost)
    return _binary(mant, expo)


@lru_cache(maxsize=4)
def _binary_levels(d: int) -> tuple:
    """``j!`` and ``s_j = sqrt(j!)`` for ``j < d`` as in :func:`_binary`.

    The roots are padded to ``2 d`` entries, the mantissas with 1 and the
    exponents with ``_ZERO`` (for the in-scale) or ``-_ZERO`` (out-scale),
    which zero the entries past level ``d - 1``.
    """
    m, e = np.frexp(np.arange(1.0, d))
    mant = np.ones(d)
    expo = np.zeros(d, dtype=np.int64)
    np.cumsum(e, out=expo[1:])
    carry, shift = 1.0, 0
    for start in range(0, d - 1, _RUN):
        part = np.cumprod(m[start : start + _RUN]) * carry
        mant[start + 1 : start + 1 + len(part)] = part
        expo[start + 1 : start + 1 + len(part)] += shift
        carry, lost = np.frexp(part[-1])
        shift += int(lost)
    mf, ef = _binary(mant, expo)
    odd = ef & 1
    ms, es_in, es_out = np.ones(2 * d), np.full(2 * d, _ZERO), np.full(2 * d, -_ZERO)
    ms[:d], es_in[:d] = _binary(np.sqrt(np.ldexp(mf, odd)), (ef - odd) // 2)
    es_out[:d] = es_in[:d]
    tables = (mf, ef, ms, es_in, es_out)
    for table in tables:
        table.flags.writeable = False
    return tables


def _attenuator_plan(eta: complex, d: int) -> tuple:
    """The attenuator at ``eta`` on ``d`` levels as Toeplitz products on its charge diagonals.

    The weights factor as ``w_{m,l} conj(w_{n,l}) = a_m conj(a_n) s_{m+l}
    s_{n+l} c_l``, with ``a_m = eta^m / s_m``, ``s_j = sqrt(j!)`` and
    ``c_l = (1-|eta|^2)^l / l!``.  So on the diagonal ``q = m - n >= 0``,
    ``y_q[n] = a_{n+q} conj(a_n) sum_j C[n, j] s_{j+q} s_j x_{j+q, j}`` with
    the same real upper-triangular Toeplitz ``C[n, j] = c_{j-n}`` for every
    ``q``: one real GEMM maps the lower diagonals of every state.

    Every factor is a mantissa times an exact power of two, so scaling never
    rounds.  ``s_j`` overflows past ``j = 170``, so the levels are cut into
    blocks of ``_BLOCK``, and each (row block, column block) pair is a tile
    with its own ``C``.  A tile multiplies ``C[n, j]`` by ``2^{k (n - j)}``,
    the in-scale by ``2^{k j}`` and the out-scale by ``2^{-k n}``, and
    scales ``C`` and, per ``q``, the in-scale to a largest entry in
    [1/4, 1); the out-scale takes the constants back.  Off the diagonal the
    gauge ``k`` is the chord slope of the tile's ``log2 c_l``; on it, where
    ``j >= n`` cuts the tile to a triangle, minus the mean ``log2`` of the
    block's levels.  What underflows then costs at most ``_BLOCK 2^{e-1074}``
    of the largest entry of ``x``, for out-scales below ``2^e``:
    :func:`_tile_scales` raises past ``e = 1000``, and over ``|eta|^2`` from
    0 to 1 ``e`` was at most 92 for ``d <= 128`` and 289 at ``d = 2000``.

    Returns ``(tables, tiles)``.  A tile is ``(rows, cols, C, k, shift,
    scales)``; the diagonal tiles keep their scales, the others, ``None``,
    form them per call, so that the plan holds ``O(d^2)`` entries.
    """
    eta = complex(eta)
    if abs(eta) > 1 + 1e-12:
        raise ValueError(f"attenuator requires |eta| <= 1, got |eta|={abs(eta)}")
    keep = min(abs(eta) ** 2, 1.0)
    mf, ef, ms, es_in, es_out = _binary_levels(d)
    phase = np.full(d, eta / abs(eta) if eta else 1.0, dtype=np.complex128)
    phase[0] = 1.0
    # |eta| an ulp past 1 counts as 1: its powers would move the trace by k ulp at level k
    tables = (ms, es_in, es_out, *_binary_powers(min(abs(eta), 1.0), 3 * d), np.cumprod(phase))
    # c_l on the factorials of s_l, so that c_l s_l^2 is (1-|eta|^2)^l to a few ulp
    mc, ec = _binary_powers(1.0 - keep, d)
    mc, ec = _binary(mc / mf, ec - ef)
    tiles = []
    blocks = [slice(i, min(i + _BLOCK, d)) for i in range(0, d, _BLOCK)]
    for b, rows in enumerate(blocks):
        for cols in blocks[b:]:
            lag, width, height = cols.start - rows.start, cols.stop - cols.start, rows.stop - rows.start
            if not lag:
                top = rows.start + width
                gauge = round((lgamma(rows.start + 1) - lgamma(top)) / ((width - 1) * log(2))) if width > 1 else 0
            elif keep == 1.0:
                continue  # c_l = 0 for every l >= 1
            else:
                lo, hi = lag - height + 1, lag + width - 1
                rise = (hi - lo) * log1p(-keep) - lgamma(hi + 1) + lgamma(lo + 1)
                gauge = round(rise / ((hi - lo) * log(2)))
            l = lag + np.arange(width) - np.arange(height)[:, None]
            exponent = np.where(l >= 0, ec[np.maximum(l, 0)], _ZERO) - gauge * (l - lag)
            shift = int(exponent.max())
            toeplitz = np.ldexp(mc[np.maximum(l, 0)] * (l >= 0), np.maximum(exponent - shift, _FLOOR_EXP))
            scales = None if lag else _tile_scales(tables, rows, cols, gauge, shift)
            tiles.append((rows, cols, toeplitz, gauge, shift, scales))
    return tables, tiles


def _tile_scales(tables, rows: slice, cols: slice, gauge: int, shift: int) -> tuple:
    """The real in-scale ``(cols, d - cols.start)`` and complex out-scale ``(rows, d - cols.start)`` of a tile.

    In-scale ``s_{j+q} s_j 2^{k (j - j_0) - sigma_q}``, with ``sigma_q`` its
    largest exponent; out-scale ``|eta|^{q+2n} e^{i q arg eta} 2^{-k (n -
    n_0) + sigma_q + shift} / (s_{n+q} s_n)``; each zero past level ``d - 1``.
    """
    ms, es_in, es_out, mp, ep, phase = tables
    charges = np.arange(len(phase) - cols.start)
    j, n = np.arange(cols.start, cols.stop), np.arange(rows.start, rows.stop)
    top = j[:, None] + charges
    exponent = es_in[top] + (es_in[j] + gauge * (j - j[0]))[:, None]
    sigma = exponent.max(axis=0)
    exponent -= sigma
    scale_in = np.ldexp(ms[top] * ms[j, None], np.maximum(exponent, _FLOOR_EXP))
    top = n[:, None] + charges
    exponent = ep[top + n[:, None]] - es_out[top] - (es_out[n] + gauge * (n - n[0]))[:, None]
    exponent += sigma + shift
    if exponent.max() > 1000:
        raise ValueError(f"the attenuator plan at d = {len(phase)} leaves the float range")
    mant = mp[top + n[:, None]] / (ms[top] * ms[n, None])
    return scale_in, np.ldexp(mant, np.maximum(exponent, _FLOOR_EXP)) * phase[charges]


@lru_cache(maxsize=4)
def _charge_layout(d: int, s: int) -> tuple:
    """Flat indices from a ``(S, d, d)`` batch to its diagonals ``z[j, k, q] = x[k, j + q, j]`` and back, and ``sign(m - n)``."""
    index = np.int32 if s * d * d < 2**31 else np.int64
    levels = np.arange(d, dtype=index)
    states = np.arange(s, dtype=index)[:, None]
    top = levels[:, None] + levels
    gather = np.where(top < d, top * d + levels[:, None], 0)[:, None, :] + d * d * states
    scatter = np.minimum.outer(levels, levels) * (s * d) + np.abs(levels[:, None] - levels) + d * states[:, :, None]
    sign = np.sign(levels[:, None] - levels).astype(np.int8)
    for table in (gather, scatter, sign):
        table.flags.writeable = False
    return gather, scatter, sign


def _attenuator_apply(plan, x: np.ndarray, capacity: int = 0) -> np.ndarray:
    """``Phi_eta(x)`` for a Hermitian ``(S, d, d)`` batch by the tiles of ``plan``, reading lower triangles only.

    The lower diagonals are gathered into one ``(d, S d)`` array, scaled,
    multiplied by each tile's ``C`` through their ``float64`` view (one
    dgemm for ``d <= _BLOCK``), scaled and scattered; the upper triangle is
    the conjugate and the diagonal is real, so the image is exactly
    Hermitian.

    The gather and scatter indices of :func:`_charge_layout` are built for
    ``max(S, capacity)`` states and read as a prefix, so a caller whose batch
    shrinks passes its first size and never has them rebuilt.
    """
    tables, tiles = plan
    s, d = x.shape[:2]
    room = max(s, capacity)
    gather, scatter, sign = _charge_layout(d, room)
    z = np.take(x, gather[:, :s])
    # y overwrites z: a block's diagonal tile reads z there last and writes y first.
    # Below capacity y is the prefix of a buffer laid out for it, which the scatter indices read.
    held = z if s == room else np.empty((d, room, d), dtype=np.complex128)
    y = held[:, :s]
    for rows, cols, toeplitz, gauge, shift, scales in tiles:
        scale_in, scale_out = scales or _tile_scales(tables, rows, cols, gauge, shift)
        q = d - cols.start
        part = (z[cols, :, :q] * scale_in[:, None, :]).view(np.float64).reshape(len(scale_in), -1)
        if q == d:
            # the first block, whose rows hold s d contiguous entries: the product lands in place
            block = y[rows]
            np.matmul(toeplitz, part, out=block.view(np.float64).reshape(len(block), 2 * s * d))
            block *= scale_out[:, None, :]
            continue
        part = (toeplitz @ part).view(np.complex128).reshape(-1, s, q)
        if rows == cols:
            np.multiply(part, scale_out[:, None, :], out=y[rows, :, :q])
        else:
            part *= scale_out[:, None, :]
            y[rows, :, :q] += part
    del part
    out = np.take(held, scatter[:s])
    out.view(np.float64)[..., 1::2] *= sign
    return out


def attenuator_check(eta: complex, states, label: str = "M") -> None:
    """The checks of :meth:`zenolab.zeno.ZenoConfig.validate` for the attenuator at ``eta``, matrix-free.

    With ``P(x) = |0><0| Tr x``, ``P M = P`` is ``sum_l K_l^dag K_l = I``.
    Each ``K_l`` has at most one nonzero entry per column, so that sum is
    diagonal, with entry ``j`` the anti-diagonal sum ``sum_{m+l=j} |w_{m,l}|^2``
    of the weight table of :func:`_attenuator_weights`.  ``M P = P`` is
    ``|w_{0,0}|^2 = 1``, as only ``K_0`` reads the vacuum.  Both are held to
    the 1e-9 of the dense check, in the same Frobenius norms of the
    superoperators: ``||P M - P|| = ||sum_l K_l^dag K_l - I||_F`` and
    ``||M P - P|| = sqrt(d) | |w_{0,0}|^2 - 1 |``.  That is ``O(d^2)``.
    Trace-norm contractivity is spot-checked on the Hermitian
    ``(state_id, matrix)`` pairs ``states`` through the Toeplitz kernel of
    :func:`_attenuator_plan`, with the dense check's slack 1e-8.  A failed
    check raises ValueError naming ``label``.
    """
    x = _hermitian_batch([rho for _, rho in states], "attenuator_check")
    d = x.shape[1]
    w = _attenuator_weights(eta, d)
    levels = np.arange(d)
    kept = np.abs(w) ** 2
    sums = np.bincount(np.add.outer(levels, levels).ravel(), weights=kept.ravel())[:d]
    if np.linalg.norm(sums - 1.0) > 1e-9:
        j = int(np.argmax(np.abs(sums - 1.0)))
        raise ValueError(f"P {label} != P within 1e-9: the Kraus weights of level {j} sum to {sums[j]:.17g}")
    if np.sqrt(d) * abs(kept[0, 0] - 1.0) > 1e-9:
        raise ValueError(f"{label} P != P within 1e-9: the vacuum weight is {w[0, 0]}")
    images = _attenuator_apply(_attenuator_plan(eta, d), x)
    for (state_id, rho), image in zip(states, images):
        before, after = trace_norm(rho), trace_norm(image)
        if after > before + 1e-8:
            raise ValueError(
                f"{label} is not trace-norm contractive on state {state_id!r}: {after:.6e} > {before:.6e}"
            )


def _operator_batch(ops) -> np.ndarray:
    x = np.asarray(ops, dtype=np.complex128)
    if x.ndim != 3 or x.shape[1] != x.shape[2]:
        raise ValueError(f"expected a (S, d, d) batch of operators, got shape {x.shape}")
    return x


def _hermitian_batch(ops, caller: str) -> np.ndarray:
    """``ops`` as a ``(S, d, d)`` batch, each Hermitian to 1e-12 of the largest entry.

    The check runs one state at a time, so it holds no batch-sized temporary.
    """
    x = _operator_batch(ops)
    scale = 1e-12 * max((np.abs(op).max() for op in x), default=0.0)
    if any(np.abs(op - op.conj().T).max() > scale for op in x):
        raise ValueError(f"{caller} requires Hermitian operators")
    return x


@dataclass(frozen=True)
class Generator:
    """``L x = -i [H, x] + r (N x N - {N^2, x}/2)``, the perturbation of the Zeno and damping limits.

    ``H = hamiltonian`` (None for none) must be Hermitian by the rule of
    :func:`_hermitian_batch`; it is kept as :func:`as_matrix` coerces it,
    never symmetrised, so every kernel reads the same bits.  The dephasing
    rate ``r`` must be finite and ``>= 0``.
    """

    hamiltonian: np.ndarray | None = None
    dephasing_rate: float = 0.0

    def __post_init__(self):
        if self.hamiltonian is not None:
            h = as_matrix(self.hamiltonian)
            if h.shape[0] != h.shape[1]:
                raise ValueError(f"Hamiltonian must be square, got shape {h.shape}")
            _hermitian_batch(h[None], "Generator")
            object.__setattr__(self, "hamiltonian", h)
        if not 0 <= self.dephasing_rate < np.inf:  # NaN fails too
            raise ValueError(f"dephasing rate must be finite and >= 0, got {self.dephasing_rate}")

    def hamiltonian_on(self, d: int) -> np.ndarray:
        """``H``, or zero for none, checked to act on operators of dimension ``d``."""
        if self.hamiltonian is None:
            return np.zeros((d, d), dtype=np.complex128)
        if self.hamiltonian.shape != (d, d):
            raise ValueError(f"Hamiltonian of shape {self.hamiltonian.shape} does not act on operators of dimension {d}")
        return self.hamiltonian

    def superoperator(self, dim: int) -> Superoperator:
        """``L`` as a dense ``(dim^2, dim^2)`` matrix."""
        h, n_op = self.hamiltonian_on(dim), number_operator(dim)
        eye, n_sq = np.eye(dim, dtype=np.complex128), n_op @ n_op
        dephasing = kron(n_op.T, n_op) - 0.5 * (kron(eye, n_sq) + kron(n_sq.T, eye))
        return Superoperator(matrix=-1j * (kron(eye, h) - kron(h.T, eye)) + self.dephasing_rate * dephasing)


def attenuator_deviation(eta: complex, ops) -> np.ndarray:
    """``Phi_eta(x) - |0><0| Tr x`` for each Hermitian ``x`` of a ``(S, d, d)`` batch, matrix-free.

    The attenuator keeps the charge ``m - n`` of every entry:
    ``(Phi x)_{mn} = sum_l w_{m,l} conj(w_{n,l}) x_{m+l,n+l}``, where
    ``w_{m,l} = sqrt(C(m+l, m) (1-|eta|^2)^l) eta^m`` is the Kraus entry
    ``(m, m+l)`` of :func:`attenuator_kraus`.  :func:`_attenuator_plan`
    turns that into real Toeplitz products on the charge diagonals, one
    dgemm for ``d <= 128``: ``O(S d^3)`` time and ``O(S d^2)`` memory, where
    :func:`to_superoperator` needs ``O(d^5)`` time and ``16 d^4`` bytes.  The
    kernel reads the lower triangles only, so the batch must be Hermitian;
    that is checked once per call.  The vacuum entry
    ``sum_{l>=1} ((1-|eta|^2)^l - 1) x_ll`` is formed by ``expm1``/``log1p``,
    so a deviation far below 1 keeps its relative precision instead of
    rounding at ``1 - |eta|^2``.  The result is exactly Hermitian.
    """
    x = _hermitian_batch(ops, "attenuator_deviation")
    d = x.shape[1]
    out = _attenuator_apply(_attenuator_plan(eta, d), x)
    keep = min(abs(complex(eta)) ** 2, 1.0)
    levels = np.arange(d)
    if keep < 1.0:
        # (1-|eta|^2)^l - 1; log1p(0) = 0 covers eta = 0
        shrink = np.expm1(levels[1:] * np.log1p(-keep))
    else:
        shrink = np.full(d - 1, -1.0)
    out[:, 0, 0] = (np.diagonal(x, axis1=1, axis2=2)[:, 1:].real * shrink).sum(axis=1)
    return out


# Nodes of the Weideman-Trefethen parabola for exp (Trefethen, Weideman and
# Schmelzer, BIT 46, 2006).  Its rational approximant is within 1e-14 of
# e^z on the negative real axis and within 1e-13 on |Im z| <= 2 near 0, and
# its Taylor coefficients at 0 match those of e^z to 3.3e-14 (32 nodes:
# 1.7e-8, 40 nodes: 2.6e-11), which the nearly defective attenuator
# generator amplifies at small t gamma (see damped_action).
_CONTOUR_POINTS = 48
# Most imaginary spread 2 t ||H||_2 of the spectrum of one substep.
_SUBSTEP_SPREAD = 2.0
# Stopping rule of damped_action's solves at each node, the cap of its
# fixed-point iteration, and the most times it halves its substeps (a random
# H of norm 1 at gamma = 8 needed 6 at d = 128 and d = 192, 4 at d = 96).
_RESIDUAL = 1e-15
_RESIDUAL_FLOOR = 1e-13
_ITERATIONS = 40
_HALVINGS = 8


def _contour(points: int) -> tuple:
    """Upper-half nodes ``z_k`` and weights ``w_k = e^{z_k} z'_k / (i N)`` of the parabola."""
    theta = np.arange(1, points, 2) * np.pi / points
    z = points * (0.1309 - 0.1194 * theta**2 + 0.25j * theta)
    dz = points * (-0.2388 * theta + 0.25j)
    return z, np.exp(z) * dz / (1j * points)


def _settled(error, previous) -> np.ndarray:
    """Nodes whose weighted residual meets ``_RESIDUAL``, or stops falling at most ``_RESIDUAL_FLOOR`` (its rounding floor)."""
    return (error <= _RESIDUAL) | ((error > previous / 2) & (error <= _RESIDUAL_FLOOR))


def damping_substeps(gamma: float, t: float, norm: float) -> float:
    """How many equal substeps :func:`damped_action` splits ``t`` into for ``||H||_2 = norm`` (a float)."""
    return max(1.0 if t * gamma >= 1 else 3.0, float(np.ceil(2.0 * t * norm / _SUBSTEP_SPREAD)))


def damped_action(gamma: float, t: float, ops, generator: Generator = Generator()) -> np.ndarray:
    """``e^{A} x`` for each Hermitian ``x`` of a ``(S, d, d)`` batch, matrix-free.

    ``A Y = t gamma (2 a Y a^dag - N Y - Y N) - i t [H, Y]
    + t r (N Y N - {N^2, Y}/2)``: the attenuator generator
    (:func:`attenuator_generator`) at rate ``gamma`` plus ``t L`` for the
    :class:`Generator` ``L``, with its Hamiltonian ``H`` and dephasing rate
    ``r``, either or both.

    The exponential is the contour integral
    ``(1/2 pi i) int e^z (z - A)^{-1} x dz`` by the trapezoid rule on the
    parabola of :func:`_contour`, whose cost does not grow with ``||A||``.
    ``A`` preserves Hermiticity, so ``e^{A} x = sum_k (w_k Y_k + (w_k
    Y_k)^dag)`` over the 24 upper nodes, ``(z_k - A) Y_k = x``.

    Each solve splits ``A = T + B``, with ``t`` the substep's length.  ``T``,
    the attenuator generator, the dephasing and the diagonal of
    ``-i t [H, .]``, reads only ``Y_{mn}`` and ``Y_{m+1,n+1}``, so ``(z - T)
    Y = F`` is a back-substitution from the last row up, ``Y_{mn} = (F_{mn}
    + 2 t gamma sqrt((m+1)(n+1)) Y_{m+1,n+1}) / (z + t (gamma (m+n) +
    r (m-n)^2/2 + i (H_mm - H_nn)))``, vectorised over nodes and states.
    ``B = -i t [H_off, .]``, for the off-diagonal part of ``H``, is two dense
    products; a diagonal ``H`` leaves ``B = 0`` and one back-substitution.

    Otherwise ``Y <- (z - T)^{-1} (x + B Y)`` is iterated in four
    ``(node, m, state, n)`` buffers allocated once per call; its residual
    ``(z - A) Y_{j+1} - x = B (Y_j - Y_{j+1})`` comes from the two ``B Y`` it
    computes anyway.  The far nodes settle first: the nodes past the last
    unsettled one keep their solution, and only those before it iterate on.
    A node's residual is weighted by ``|w_k|`` and by
    ``max(1, ||(z_k - T)^{-1} x|| / ||x||)``, which tracks the size of its
    solution (up to 1e3 at the far nodes of a long jump chain) and with it
    how far the residual moves ``Y_k``.  A node is settled once that weighted
    residual, relative to each state's Frobenius norm, meets ``_RESIDUAL`` or
    stops falling at most ``_RESIDUAL_FLOOR`` (its rounding floor, 1e-14 to
    3e-14 at the heaviest nodes).  Each iteration costs ``O(S d^3)`` per node.

    The iteration does not settle when an unsettled node's weighted residual
    fails to halve, or when ``_ITERATIONS`` pass first: at the far nodes
    ``(z_k - T)^{-1} B`` can have a spectral radius above 1 (a dense ``H``
    at ``t gamma`` near 1 to 2 and ``d >= 48``).  That substep and every
    substep still pending are then run as twice as many of half the length;
    ``A`` does not depend on time, so they may run in any order, and the
    pending work is one length and a count.  Halving converges: ``||B||``
    falls as ``t``, and ``(z_k - T)^{-1}`` tends to ``1 / z_k``, so the
    iteration's spectral radius tends to 0.  Shorter substeps also suit the
    contour: for a random ``H`` of norm 1 at ``d = 64`` and ``t = gamma =
    1``, the contour sum over the unhalved substep is off by 2.6e-5 on
    ``|63><63|``, over the halved substeps by 4e-14.  The coefficients of the
    back-substitution are built once per length.  After ``_HALVINGS``
    halvings, ``2^_HALVINGS`` times the substeps and work, a substep that
    still does not settle raises ``ValueError``.

    ``t`` is first split into equal substeps (:func:`damping_substeps`):

    * ``ceil(2 t ||H||_2 / _SUBSTEP_SPREAD)`` of them, because the parabola
      is accurate near the negative real axis but not far from it near the
      origin, and ``-i t [H, .]`` spreads the spectrum up to ``2 t ||H||_2``
      along the imaginary axis.  That also keeps ``||B|| <= 4`` against
      ``|z_k| >= 6.3``, which is why the iteration mostly contracts;
    * at least 3 when ``t gamma < 1``.  There the nearly defective jump
      chains of the attenuator generator amplify the quadrature error of one
      step on highly excited states (at ``d = 64``, ``t gamma = 0.3``: 1.2e-8
      on ``|63><63|``), which the later substeps damp (3 substeps: 2e-13).

    A substep agrees with the dense exponential to about 1e-13 in trace
    norm; the error adds up over the substeps.
    """
    x = _hermitian_batch(ops, "damped_action")
    if gamma < 0 or t <= 0:
        raise ValueError("damped_action needs gamma >= 0 and t > 0")
    s, d = x.shape[:2]
    h, rate = generator.hamiltonian_on(d), generator.dephasing_rate
    steps = int(damping_substeps(gamma, t, np.linalg.norm(h, 2)))
    z, w = _contour(_CONTOUR_POINTS)
    levels, e = np.arange(d), np.diagonal(h)
    charge = levels[:, None] - levels
    root = np.sqrt(levels[1:])
    # the iterates, the right-hand side (also B Y's scratch), B Y now and one iteration back
    y, f, by, old = np.empty((4, len(z), d, s, d), dtype=np.complex128)

    def solve(f, inverse, jump, y):
        """``(z_k - T)^{-1} f`` into ``y`` at the nodes that ``inverse`` and ``jump`` hold: a back-substitution from the last row up."""
        np.multiply(f, inverse, out=y)
        for m in range(d - 2, -1, -1):
            y[:, m, :, :-1] += jump[:, m] * y[:, m + 1, :, 1:]
        return y

    def apply_b(y, out, scratch):
        """``B y`` into ``out``; ``scratch`` takes the right product."""
        np.matmul(off, y.reshape(len(y), d, -1), out=out.reshape(len(y), d, -1))
        return np.subtract(out, np.matmul(y.reshape(-1, d), off, out=scratch.reshape(-1, d)).reshape(y.shape), out=out)

    def norm(y):
        return np.sqrt(np.einsum("pmsn,pmsn->ps", y.view(np.float64), y.view(np.float64)))

    def substep(x):
        """The node solutions ``Y_k`` of one substep, in ``y``; None if the iteration does not settle."""
        v = x.transpose(1, 0, 2)
        solve(v, inverse, jump, y)
        if not off.any():
            return y
        norms = np.maximum(np.linalg.norm(x.reshape(s, -1), axis=1), np.finfo(float).tiny)
        weight = np.abs(w)[:, None] * np.maximum(1.0, norm(y) / norms)
        live, previous, fresh, last = len(z), np.full(len(z), np.inf), by, old
        for j in range(_ITERATIONS):
            if j:
                solve(np.add(v, last[:live], out=f[:live]), inverse[:live], jump[:live], y[:live])
            apply_b(y[:live], fresh[:live], f[:live])
            residual = np.subtract(last[:live], fresh[:live], out=last[:live]) if j else fresh[:live]
            error = (weight * norm(residual) / norms).max(axis=1)
            done = _settled(error, previous)
            if done.all():
                return y
            if (~done & (error > previous / 2)).any():
                return None
            live = 1 + np.flatnonzero(~done)[-1]
            weight, previous, fresh, last = weight[:live], error[:live], last, fresh
        return None

    tau, halvings = t / steps, 0
    while True:
        # the back-substitution's coefficients, laid out (node, m, 1, n) like the iterates
        diagonal = tau * (gamma * (levels[:, None] + levels) + 0.5 * rate * charge**2 + 1j * (e[:, None] - e))
        inverse = 1.0 / (z[:, None, None, None] + diagonal[:, None, :])
        jump = (2.0 * tau * gamma * np.outer(root, root))[:, None, :] * inverse[:, :-1, :, :-1]
        off = -1j * tau * (h - np.diag(e))
        while steps and (nodes := substep(x)) is not None:
            out = np.einsum("p,pmsn->smn", w, nodes)
            x = out + out.conj().transpose(0, 2, 1)
            steps -= 1
        if not steps:
            return x
        if halvings == _HALVINGS:
            raise ValueError(
                f"damped_action: the fixed-point iteration does not settle on a substep of length {tau:.6g}, "
                f"after {halvings} halvings"
            )
        del inverse, jump  # before the next length's are built
        tau, steps, halvings = tau / 2, 2 * steps, halvings + 1


# Stopping rule of zeno_action: the iteration stops once the steps still to
# come provably move the batch by at most _SETTLED in trace norm, or once a
# step's change, at most _ROUNDING, no longer falls (the rounding floor, 4e-16
# to 2e-15 for d = 10 to 64 on a full-rank random state).
_SETTLED = 1e-14
_ROUNDING = 1e-12


def zeno_action(ns, t: float, ops, channel, generator: Generator = Generator()) -> np.ndarray:
    """``(M e^{tL/n})^n x`` for each step count ``n`` of ``ns`` and each Hermitian ``x`` of a ``(S, d, d)`` batch, matrix-free.

    Returns a ``(K, S, d, d)`` stack for the ``K`` counts of ``ns``.  ``M``
    is the attenuator at ``eta = channel`` when ``channel`` is a number,
    applied by the Toeplitz products of :func:`_attenuator_plan` (the plan
    built once per call; each step is one real dgemm for ``d <= 128``), or
    the :class:`Superoperator` ``channel`` applied to the column-stacked
    batch.  ``L`` is the :class:`Generator` ``generator``: ``-i[H, .]`` or
    dephasing at rate ``r``, not both; ``e^{tL/n}`` is applied exactly, as
    the conjugation by ``V e^{-i Lambda t/n} V^dag`` from one ``eigh(H)``
    per call (made unitary to an ulp by one Newton-Schulz step per ``n``),
    or as the entrywise factor ``exp(-(t/n) r (m - n)^2 / 2)``.

    The step is iterated on the batch, ``y_k = (M e^{tL/n}) y_{k-1}``.
    ``M`` must be a channel, as every map that
    :mod:`zenolab.experiments` passes is, so the step contracts the trace
    norm, and each of the ``n - k`` steps after step ``k`` moves the batch
    by at most ``r_k = sqrt(d) max_x ||y_k - y_{k-1}||_F``.  The iteration
    stops at the first ``k`` with ``(n - k) r_k <= _SETTLED``, or with
    ``r_k <= _ROUNDING`` and ``r_k >= r_{k-1}``, where the change has
    reached the rounding floor; the second exit costs at most
    ``n _ROUNDING``, the budget the dense step already spends through
    ``matrix_exp(tol=1e-12)``.  A mixing ``M`` forgets its input
    geometrically, so the attenuator at ``|eta| = 1/2`` on the three states
    of the zeno-d24 benchmark (``d = 24``) takes all ``n`` steps for ``n =
    8, 16, 32`` and 53 to 71 steps for ``n = 64`` to 4096, at ``O(S d^3)``
    each; a non-mixing ``M`` (``|eta| = 1``) takes all ``n``.  Slow mixing
    (``|eta| >= 0.95``) at small ``d`` is the input where ``log2 n`` dense
    ``d^2 x d^2`` products would cost less.

    The counts of ``ns`` step together, which spreads numpy's per-call
    overhead over them: each step applies every unfinished count's
    ``e^{tL/n}`` to its own copy of the batch, by per-matrix products, and
    then ``M`` to all of them at once, one attenuator dgemm over their
    states.  Each count keeps its own ``k``, ``r_k`` and ``r_{k-1}`` and
    leaves the group at its own exit, so every image is the same, bit for
    bit, as from a call with that count alone.  The ten counts of the
    zeno-d24 grid take 71 steps together, over 30 states at first and 3 in
    the end, where they took 497 alone.  The result is Hermitian by
    construction.
    """
    x = _hermitian_batch(ops, "zeno_action")
    ns = [operator.index(n) for n in ns]
    if not ns or min(ns) < 1 or t <= 0:
        raise ValueError("zeno_action needs step counts n >= 1 and t > 0")
    rate = generator.dephasing_rate
    if generator.hamiltonian is not None and rate:
        raise ValueError("zeno_action takes a Hamiltonian or a dephasing rate, not both")
    s, d = x.shape[:2]
    # the per-count factors of e^{tL/n}, each (K, 1, d, d), compacted as counts finish
    if generator.hamiltonian is not None:
        lam, v = np.linalg.eigh(generator.hamiltonian_on(d))
        v_dag = v.conj().T
        # u^dag is stored, not a transposed view, which numpy's stacked products read slower
        u, u_dag = np.empty((2, len(ns), 1, d, d), dtype=np.complex128)
        for point, n in enumerate(ns):
            w = (v * np.exp(-1j * (t / n) * lam)) @ v_dag
            # one Newton-Schulz step takes ||u^dag u - I|| from a few ulp (the
            # eigenvectors' own) to one: each ulp of it moves the trace by about
            # an ulp at every step, the same way each time
            u[point, 0] = w @ (1.5 * np.eye(d) - 0.5 * (w.conj().T @ w))
            u_dag[point, 0] = u[point, 0].conj().T
        factors = [u, u_dag]

        def evolve(y, u, u_dag):
            return u @ y @ u_dag

    elif rate:
        charge = np.subtract.outer(np.arange(d), np.arange(d))
        factors = [np.exp(-0.5 * (t / np.array(ns))[:, None, None, None] * rate * charge**2)]

        def evolve(y, factor):
            return y * factor

    else:
        factors = []

        def evolve(y):
            return y

    if isinstance(channel, Superoperator):
        if channel.dim != d:
            raise ValueError(f"channel of dimension {channel.dim} does not act on operators of dimension {d}")
        m_t = channel.matrix.T

        def mix(y):
            # row i of a count's product is vec(M y_i) read row-major, that is M(y_i)^T; one
            # product per count, as a lone call makes (one state takes a gemv, more a gemm)
            return (y.swapaxes(2, 3).reshape(len(y), s, d * d) @ m_t).reshape(y.shape).swapaxes(2, 3)

    else:
        plan = _attenuator_plan(channel, d)

        def mix(y):
            return _attenuator_apply(plan, y.reshape(-1, d, d), len(ns) * s).reshape(y.shape)

    root_d = float(np.sqrt(d))
    out = np.empty((len(ns), s, d, d), dtype=np.complex128)
    live = list(range(len(ns)))  # the counts still stepping, by their place in ns
    previous = [np.inf] * len(ns)
    x = np.repeat(x[None], len(ns), axis=0)
    for k in range(1, max(ns) + 1):
        y = mix(evolve(x, *factors))
        changes = np.linalg.norm((y - x).reshape(len(live), s, -1), axis=2).max(axis=1).tolist()
        x = y
        done = []
        for point, change in zip(live, changes):
            n, change = ns[point], root_d * change
            done.append(k == n or (n - k) * change <= _SETTLED or previous[point] <= change <= _ROUNDING)
            previous[point] = change
        if any(done):
            out[[point for point, stop in zip(live, done) if stop]] = x[done]
            live = [point for point, stop in zip(live, done) if not stop]
            if not live:
                break
            keep = np.logical_not(done)
            x, factors = x[keep], [factor[keep] for factor in factors]
    return (out + out.conj().swapaxes(2, 3)) / 2


def to_superoperator(channel: KrausChannel) -> Superoperator:
    mat = sum(kron(k.conj(), k) for k in channel.kraus_ops)
    return Superoperator(matrix=mat)


def apply(op, x) -> np.ndarray:
    """Apply a KrausChannel or Superoperator to a matrix."""
    x = as_matrix(x)
    if isinstance(op, KrausChannel):
        if x.shape != (op.dim, op.dim):
            raise ValueError(f"dimension mismatch: channel dim {op.dim}, state {x.shape}")
        return sum(k @ x @ k.conj().T for k in op.kraus_ops)
    if isinstance(op, Superoperator):
        if x.shape != (op.dim, op.dim):
            raise ValueError(f"dimension mismatch: superoperator dim {op.dim}, state {x.shape}")
        return devectorize(op.matrix @ vectorize(x))
    raise TypeError(f"cannot apply object of type {type(op).__name__}")


def choi_matrix(op) -> np.ndarray:
    """Choi matrix sum_{ij} |i><j| kron Phi(|i><j|), for dim <= 32."""
    if isinstance(op, KrausChannel):
        d = op.dim
        if d > CHOI_MAX_DIM:
            raise ValueError(f"choi_matrix limited to dim <= {CHOI_MAX_DIM}, got {d}")
        return sum(
            np.outer(vectorize(k), vectorize(k).conj()) for k in op.kraus_ops
        )
    if isinstance(op, Superoperator):
        d = op.dim
        if d > CHOI_MAX_DIM:
            raise ValueError(f"choi_matrix limited to dim <= {CHOI_MAX_DIM}, got {d}")
        choi = np.zeros((d * d, d * d), dtype=np.complex128)
        for i in range(d):
            for j in range(d):
                unit = np.zeros((d, d), dtype=np.complex128)
                unit[i, j] = 1.0
                block = apply(op, unit)
                choi[i * d : (i + 1) * d, j * d : (j + 1) * d] = block
        return choi
    raise TypeError(f"cannot form Choi matrix of {type(op).__name__}")


def is_completely_positive(op, tol: float = 1e-10) -> bool:
    choi = choi_matrix(op)
    w = np.linalg.eigvalsh((choi + choi.conj().T) / 2)
    return bool(w.min() >= -tol)


def attenuator_generator(dim: int) -> Superoperator:
    """Superoperator of rho -> 2 a rho a^dag - N rho - rho N.

    Generates the attenuator semigroup: exp(t K) equals the eta = e^{-t}
    channel exactly on the truncated space, since the map only lowers the
    excitation number.
    """
    a = annihilation(dim)
    n_op = number_operator(dim)
    eye = np.eye(dim, dtype=np.complex128)
    mat = 2 * kron(a.conj(), a) - kron(eye, n_op) - kron(n_op.T, eye)
    return Superoperator(matrix=mat)


def vacuum_projection_superop(dim: int) -> Superoperator:
    """x -> Tr(x) |0><0| as a superoperator; idempotent."""
    vac = vectorize(vacuum_state(dim))
    tr_row = vectorize(np.eye(dim, dtype=np.complex128)).conj()
    return Superoperator(matrix=np.outer(vac, tr_row))


def attenuator_mixing_bound(eta: complex, n, rho) -> float:
    """4 |eta|^n Tr((N+1) rho)."""
    rho = as_matrix(rho)
    weight = particle_number(rho) + float(np.trace(rho).real)
    return 4.0 * abs(complex(eta)) ** n * weight
