"""Quantum channels, superoperators and the bosonic attenuator.

Superoperators are (d*d, d*d) matrices acting on column-stacked operators,
so a Kraus map sum_i K_i x K_i^dag has matrix sum_i conj(K_i) kron K_i.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .fock import annihilation, number_operator, particle_number, vacuum_state
from .linalg import adjoint, as_matrix, devectorize, kron, trace_norm, vectorize

__all__ = [
    "KrausChannel",
    "Superoperator",
    "HamiltonianCommutator",
    "Dephasing",
    "attenuator_kraus",
    "attenuator_deviation",
    "attenuator_check",
    "damped_action",
    "zeno_action",
    "to_superoperator",
    "apply",
    "identity_superoperator",
    "transpose_superoperator",
    "choi_matrix",
    "is_completely_positive",
    "attenuator_generator",
    "vacuum_projection_superop",
    "attenuator_mixing_bound",
]

CHOI_MAX_DIM = 32


@dataclass(frozen=True)
class KrausChannel:
    """A completely positive map given by a finite Kraus list."""

    kraus_ops: tuple
    trace_preserving: bool = True

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
        if self.trace_preserving:
            if np.linalg.norm(total - np.eye(d)) > 1e-10:
                raise ValueError("Kraus operators are not trace preserving within 1e-10")
        else:
            top = np.linalg.eigvalsh((total + total.conj().T) / 2).max()
            if top > 1.0 + 1e-10:
                raise ValueError("Kraus operators exceed the trace-non-increasing contract")

    @property
    def dim(self) -> int:
        return self.kraus_ops[0].shape[0]


@dataclass(frozen=True)
class Superoperator:
    """Matrix of a linear map on d x d operators (column-stacking convention)."""

    matrix: np.ndarray
    label: str = ""

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


def _attenuator_products(w: np.ndarray):
    """``w[:k, l] w[:k, l]^dag`` for ``l = 0..d-1`` and ``k = d - l``, one at a time."""
    d = w.shape[0]
    return (np.outer(w[: d - l, l], w[: d - l, l].conj()) for l in range(d))


def _attenuator_apply(products, x: np.ndarray) -> np.ndarray:
    """``Phi_eta(x)`` for a ``(S, d, d)`` batch from the ``d`` products of :func:`_attenuator_products`."""
    d = x.shape[1]
    out = np.zeros_like(x)
    for l, weight in enumerate(products):
        k = d - l
        out[:, :k, :k] += weight * x[:, l:, l:]
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
    Trace-norm contractivity is spot-checked on the ``(state_id, matrix)``
    pairs ``states`` through the kernel, with the dense check's slack 1e-8.
    A failed check raises ValueError naming ``label``.
    """
    x = _operator_batch([rho for _, rho in states])
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
    images = _attenuator_apply(_attenuator_products(w), x)
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
    x = _operator_batch(ops)
    if np.abs(x - x.conj().transpose(0, 2, 1)).max(initial=0.0) > 1e-12 * np.abs(x).max(initial=0.0):
        raise ValueError(f"{caller} requires Hermitian operators")
    return x


def _hamiltonian(hamiltonian, d: int) -> np.ndarray:
    h = as_matrix(hamiltonian)
    if h.shape != (d, d):
        raise ValueError(f"Hamiltonian of shape {h.shape} does not act on operators of dimension {d}")
    return h


def attenuator_deviation(eta: complex, ops) -> np.ndarray:
    """``Phi_eta(x) - |0><0| Tr x`` for each ``x`` of a ``(S, d, d)`` batch, matrix-free.

    The attenuator keeps the charge ``m - n`` of every entry:
    ``(Phi x)_{mn} = sum_l w_{m,l} conj(w_{n,l}) x_{m+l,n+l}``, where
    ``w_{m,l} = sqrt(C(m+l, m) (1-|eta|^2)^l) eta^m`` is the Kraus entry
    ``(m, m+l)`` of :func:`attenuator_kraus`.  That is ``d`` sliced
    outer-product updates, ``O(S d^3)`` time and ``O(S d^2)`` memory, where
    :func:`to_superoperator` needs ``O(d^5)`` time and ``16 d^4`` bytes.  The
    vacuum entry ``sum_{l>=1} ((1-|eta|^2)^l - 1) x_ll`` is formed by
    ``expm1``/``log1p``, so a deviation far below 1 keeps its relative
    precision instead of rounding at ``1 - |eta|^2``.
    """
    x = _operator_batch(ops)
    d = x.shape[1]
    out = _attenuator_apply(_attenuator_products(_attenuator_weights(eta, d)), x)
    keep = min(abs(complex(eta)) ** 2, 1.0)
    levels = np.arange(d)
    if keep < 1.0:
        # (1-|eta|^2)^l - 1; log1p(0) = 0 covers eta = 0
        shrink = np.expm1(levels[1:] * np.log1p(-keep))
    else:
        shrink = np.full(d - 1, -1.0)
    out[:, 0, 0] = (np.diagonal(x, axis1=1, axis2=2)[:, 1:] * shrink).sum(axis=1)
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
# fixed-point iteration, and that of its Krylov solves less _KRYLOV_LEVELS d.
_RESIDUAL = 1e-15
_RESIDUAL_FLOOR = 1e-13
_ITERATIONS = 40
_KRYLOV_LEVELS = 2


def _contour(points: int) -> tuple:
    """Upper-half nodes ``z_k`` and weights ``w_k = e^{z_k} z'_k / (i N)`` of the parabola."""
    theta = np.arange(1, points, 2) * np.pi / points
    z = points * (0.1309 - 0.1194 * theta**2 + 0.25j * theta)
    dz = points * (-0.2388 * theta + 0.25j)
    return z, np.exp(z) * dz / (1j * points)


def _settled(error, previous) -> np.ndarray:
    """Nodes whose weighted residual meets ``_RESIDUAL``, or stops falling at most ``_RESIDUAL_FLOOR`` (its rounding floor)."""
    return (error <= _RESIDUAL) | ((error > previous / 2) & (error <= _RESIDUAL_FLOOR))


def damping_arrays(d: int) -> float:
    """The most complex ``d x d`` arrays per state, plus one, that :func:`damped_action` holds.

    At the cap every node keeps its Krylov basis and its Hessenberg columns,
    ``cap + cap^2 / (2 d^2)`` arrays, and the triangular solves of settled
    nodes briefly take ``cap^2 / d^2`` more.  Runs to the cap at d = 8 to 32
    with 1 to 8 states peaked below ``cap + cap^2 / (2 d^2)`` (tracemalloc).
    """
    cap = _ITERATIONS + _KRYLOV_LEVELS * d
    return _CONTOUR_POINTS // 2 * (cap + 2 * cap**2 / d**2 + 12)


def damping_substeps(gamma: float, t: float, norm: float) -> float:
    """How many equal substeps :func:`damped_action` splits ``t`` into for ``||H||_2 = norm`` (a float)."""
    return max(1.0 if t * gamma >= 1 else 3.0, float(np.ceil(2.0 * t * norm / _SUBSTEP_SPREAD)))


def damped_action(gamma: float, t: float, ops, hamiltonian=None, dephasing_rate: float = 0.0) -> np.ndarray:
    """``e^{A} x`` for each Hermitian ``x`` of a ``(S, d, d)`` batch, matrix-free.

    ``A Y = t gamma (2 a Y a^dag - N Y - Y N) - i t [H, Y]
    + t r (N Y N - {N^2, Y}/2)``: the attenuator generator
    (:func:`attenuator_generator`) at rate ``gamma`` plus the generators of
    :class:`HamiltonianCommutator` (``H`` None for none) and
    :class:`Dephasing` at rate ``r = dephasing_rate``.

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

    Otherwise ``Y <- (z - T)^{-1} (x + B Y)`` is iterated; its residual
    ``(z - A) Y_{j+1} - x = B (Y_j - Y_{j+1})`` comes from the two ``B Y`` it
    computes anyway.  A node's residual is weighted by ``|w_k|`` and by
    ``max(1, ||(z_k - T)^{-1} x|| / ||x||)``, which tracks the size of its
    solution (up to 1e3 at the far nodes of a long jump chain) and with it
    how far the residual moves ``Y_k``.  A node is settled once that weighted
    residual, relative to each state's Frobenius norm, meets ``_RESIDUAL`` or
    stops falling at most ``_RESIDUAL_FLOOR`` (its rounding floor, 1e-14 to
    3e-14 at the heaviest nodes).  Once an unsettled node stops contracting,
    the iteration ends: at the far nodes ``(z_k - T)^{-1} B`` can have a
    spectral radius above 1 (a dense ``H`` at ``t gamma`` near 1 to 2 and
    ``d >= 48``).  GMRES, right-preconditioned by the back-substitution,
    then solves the unsettled nodes from scratch: its residual never grows,
    and it needs up to about ``2 d`` iterations at the far nodes where the
    iteration diverges (74 at d = 48, 102 at d = 64 and 169 at d = 96).
    Nodes leave its batch once half of them are settled; past
    ``_ITERATIONS + _KRYLOV_LEVELS d`` iterations it raises ``ValueError``.
    Each iteration costs ``O(S d^3)`` per node, and the bases hold at most
    :func:`damping_arrays` ``(d, d)`` arrays per state.

    ``t`` is split into equal substeps (:func:`damping_substeps`):

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
    if gamma < 0 or t <= 0 or dephasing_rate < 0:
        raise ValueError("damped_action needs gamma >= 0, t > 0 and dephasing_rate >= 0")
    s, d = x.shape[:2]
    h = np.zeros((d, d), dtype=np.complex128) if hamiltonian is None else _hamiltonian(hamiltonian, d)
    steps = int(damping_substeps(gamma, t, np.linalg.norm(h, 2)))
    tau = t / steps

    # the back-substitution's coefficients, laid out (m, node, 1, n) like the
    # iterates (m, node, state, n), so that row m of every Y_k is one slice
    z, w = _contour(_CONTOUR_POINTS)
    levels, e = np.arange(d), np.diagonal(h)
    charge = levels[:, None] - levels
    diagonal = tau * (gamma * (levels[:, None] + levels) + 0.5 * dephasing_rate * charge**2 + 1j * (e[:, None] - e))
    inverse = 1.0 / (z[:, None, None] + diagonal[:, None, None, :])
    root = np.sqrt(levels[1:])
    jump = (2.0 * tau * gamma * np.outer(root, root))[:, None, None, :] * inverse[:-1, :, :, :-1]
    off = -1j * tau * (h - np.diag(e))

    def solve(f, inverse, jump):
        """``(z_k - T)^{-1} f`` at the nodes that ``inverse`` and ``jump`` hold: a back-substitution from the last row up."""
        y = f * inverse
        for m in range(d - 2, -1, -1):
            y[m, :, :, :-1] += jump[m] * y[m + 1, :, :, 1:]
        return y

    def apply_b(y):
        return (off @ y.reshape(d, -1)).reshape(y.shape) - (y.reshape(-1, d) @ off).reshape(y.shape)

    def norm(y):
        return np.sqrt(np.einsum("mpsn,mpsn->ps", y.conj(), y).real)

    def substep(x):
        """The node solutions ``Y_k`` of one substep."""
        v = x.transpose(1, 0, 2)[:, None]
        if not off.any():
            return solve(v, inverse, jump)
        norms = np.maximum(np.linalg.norm(x.reshape(s, -1), axis=1), np.finfo(float).tiny)
        by, previous = 0.0, np.full(len(z), np.inf)
        for j in range(_ITERATIONS):
            y = solve(v + by, inverse, jump)
            if not j:
                # a node's error is about its residual times ||(z_k - T)^{-1} x||,
                # which reaches 1e3 ||x|| at the far nodes of a long jump chain
                weight = np.abs(w)[:, None] * np.maximum(1.0, norm(y) / norms)
            # the residual (z_k - A) Y_{j+1} - x is B (Y_j - Y_{j+1})
            by, residual = apply_b(y), by
            residual -= by
            error = (weight * norm(residual) / norms).max(axis=1)
            done = _settled(error, previous)
            if done.all():
                return y
            if (~done & (error > previous / 2)).any():
                break
            previous = error
        del by, residual
        y[:, ~done] = krylov(v, norms, weight[~done], np.flatnonzero(~done))
        return y

    def krylov(v, norms, weight, live):
        """The solutions at nodes ``live`` by GMRES on ``(z_k - A)(z_k - T)^{-1}``; settled nodes leave the batch."""
        out = np.empty((d, len(live), s, d), dtype=np.complex128)
        at = np.arange(len(live))
        inv, jmp = inverse[:, live], jump[:, live]
        # per live node and state: the basis, the Hessenberg columns, kept
        # triangular by Givens rotations, and the rotated right-hand side,
        # whose last entry is the residual norm
        basis = [np.broadcast_to(v / norms[:, None], (d, len(live), s, d))]
        g = [np.broadcast_to(norms.astype(np.complex128), (len(live), s))]
        columns, rotations = [], []
        previous, done = np.full(len(live), np.inf), np.zeros(len(live), dtype=bool)
        for j in range(_ITERATIONS + _KRYLOV_LEVELS * d):
            # Arnoldi on I - B (z_k - T)^{-1}, by modified Gram-Schmidt
            u = basis[j] - apply_b(solve(basis[j], inv, jmp))
            column = []
            for q in basis:
                column.append(np.einsum("mpsn,mpsn->ps", q.conj(), u))
                u -= column[-1][None, :, :, None] * q
            size = norm(u)
            basis.append(u / np.where(size > 0, size, 1.0)[None, :, :, None])
            for i, (c, r) in enumerate(rotations):
                column[i], column[i + 1] = c * column[i] + r * column[i + 1], c * column[i + 1] - r.conj() * column[i]
            top = np.abs(column[j])
            hyp = np.hypot(top, size)
            hyp[hyp == 0] = 1.0  # a zero state's column: its coefficients stay 0
            phase = np.where(top > 0, column[j] / np.where(top > 0, top, 1.0), 1.0)
            c, r = top / hyp, phase * size / hyp
            column[j] = phase * hyp
            rotations.append((c, r))
            g.append(-r.conj() * g[j])
            g[j] = c * g[j]
            columns.append(column)
            error = (weight * np.abs(g[-1]) / norms).max(axis=1)
            done |= _settled(error, previous)
            previous = error
            if 2 * done.sum() < len(done):
                continue
            # solve the triangular systems of the settled nodes, then drop them
            tri = np.zeros((done.sum(), s, j + 1, j + 1), dtype=np.complex128)
            for i, column in enumerate(columns):
                tri[..., : i + 1, i] = np.stack([part[done] for part in column[: i + 1]], axis=-1)
            coef = np.linalg.solve(tri, np.stack([part[done] for part in g[:-1]], axis=-1)[..., None])[..., 0]
            combined = sum(coef[None, :, :, i, None] * q[:, done] for i, q in enumerate(basis[:-1]))
            out[:, at[done]] = solve(combined, inv[:, done], jmp[:, done])
            if done.all():
                return out
            keep = ~done
            at, inv, jmp, weight, previous, done = at[keep], inv[:, keep], jmp[:, keep], weight[keep], previous[keep], done[keep]
            for i, q in enumerate(basis):
                basis[i] = q[:, keep]
            g = [part[keep] for part in g]
            columns = [[part[keep] for part in column] for column in columns]
            rotations = [(c[keep], r[keep]) for c, r in rotations]
        raise ValueError(
            f"damped_action: the Krylov solve missed its residual after {j + 1} iterations at "
            f"{len(at)} of {len(z)} nodes, weighted residual {previous.max():.3g}"
        )

    for _ in range(steps):
        out = np.einsum("p,mpsn->smn", w, substep(x))
        x = out + out.conj().transpose(0, 2, 1)
    return x


# Stopping rule of zeno_action: the iteration stops once the steps still to
# come provably move the batch by at most _SETTLED in trace norm, or once a
# step's change, at most _ROUNDING, no longer falls (the rounding floor, 4e-16
# to 2e-15 for d = 10 to 64 on a full-rank random state).
_SETTLED = 1e-14
_ROUNDING = 1e-12


def zeno_action(n: int, t: float, ops, channel, hamiltonian=None, dephasing_rate: float = 0.0) -> np.ndarray:
    """``(M e^{tL/n})^n x`` for each Hermitian ``x`` of a ``(S, d, d)`` batch, matrix-free.

    ``M`` is the attenuator at ``eta = channel`` when ``channel`` is a
    number, applied by the charge-diagonal Kraus sum of
    :func:`attenuator_deviation` (its weight table built once per call), or
    the :class:`Superoperator` ``channel`` applied to the column-stacked
    batch.  ``L = -i[H, .]`` for ``H = hamiltonian`` or dephasing at rate
    ``r = dephasing_rate`` (:class:`Dephasing`), not both; ``e^{tL/n}`` is
    applied exactly, as the conjugation by ``V e^{-i Lambda t/n} V^dag``
    from one ``eigh(H)`` per call (made unitary to an ulp by one
    Newton-Schulz step), or as the entrywise factor
    ``exp(-(t/n) r (m - n)^2 / 2)``.

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
    geometrically, so the attenuator at ``|eta| = 1/2`` at ``d = 24``
    takes all ``n`` steps for ``n = 8, 16, 32`` and 53 to 71 steps for
    ``n = 64`` to 4096, at ``O(S d^3)`` each; a non-mixing ``M``
    (``|eta| = 1``) takes all ``n``.  Slow mixing
    (``|eta| >= 0.95``) at small ``d`` is the input where ``log2 n`` dense
    ``d^2 x d^2`` products would cost less.  The result is Hermitian by
    construction.
    """
    x = _hermitian_batch(ops, "zeno_action")
    if n < 1 or t <= 0 or dephasing_rate < 0:
        raise ValueError("zeno_action needs n >= 1, t > 0 and dephasing_rate >= 0")
    if hamiltonian is not None and dephasing_rate:
        raise ValueError("zeno_action takes a Hamiltonian or a dephasing rate, not both")
    s, d = x.shape[:2]
    tau = t / n
    if hamiltonian is not None:
        lam, v = np.linalg.eigh(_hamiltonian(hamiltonian, d))
        u = (v * np.exp(-1j * tau * lam)) @ v.conj().T
        # one Newton-Schulz step takes ||u^dag u - I|| from a few ulp (the
        # eigenvectors' own) to one: each ulp of it moves the trace by about
        # an ulp at every step, the same way each time
        u = u @ (1.5 * np.eye(d) - 0.5 * (u.conj().T @ u))
        u_dag = u.conj().T

        def evolve(y):
            return u @ y @ u_dag

    elif dephasing_rate:
        charge = np.subtract.outer(np.arange(d), np.arange(d))
        factor = np.exp(-0.5 * tau * dephasing_rate * charge**2)

        def evolve(y):
            return y * factor

    else:

        def evolve(y):
            return y

    if isinstance(channel, Superoperator):
        if channel.dim != d:
            raise ValueError(f"channel of dimension {channel.dim} does not act on operators of dimension {d}")
        m_t = channel.matrix.T

        def mix(y):
            # row i of the product is vec(M y_i) read row-major, that is M(y_i)^T
            return (y.transpose(0, 2, 1).reshape(s, d * d) @ m_t).reshape(s, d, d).transpose(0, 2, 1)

    else:
        products = tuple(_attenuator_products(_attenuator_weights(channel, d)))

        def mix(y):
            return _attenuator_apply(products, y)

    root_d = float(np.sqrt(d))
    previous = np.inf
    for k in range(1, n + 1):
        y = mix(evolve(x))
        change = root_d * float(np.linalg.norm((y - x).reshape(s, -1), axis=1).max())
        x = y
        if (n - k) * change <= _SETTLED or previous <= change <= _ROUNDING:
            break
        previous = change
    return (x + x.conj().transpose(0, 2, 1)) / 2


def to_superoperator(channel: KrausChannel, label: str = "") -> Superoperator:
    mat = sum(kron(k.conj(), k) for k in channel.kraus_ops)
    return Superoperator(matrix=mat, label=label)


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


def identity_superoperator(dim: int) -> Superoperator:
    return Superoperator(matrix=np.eye(dim * dim, dtype=np.complex128), label="id")


def transpose_superoperator(dim: int) -> Superoperator:
    """x -> x^T; the canonical positive-but-not-CP map."""
    mat = np.zeros((dim * dim, dim * dim), dtype=np.complex128)
    for j in range(dim):
        for i in range(dim):
            unit = np.zeros((dim, dim), dtype=np.complex128)
            unit[i, j] = 1.0
            mat[:, j * dim + i] = vectorize(unit.T)
    return Superoperator(matrix=mat, label="transpose")


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
    return Superoperator(matrix=mat, label="attenuator-generator")


def vacuum_projection_superop(dim: int) -> Superoperator:
    """x -> Tr(x) |0><0| as a superoperator; idempotent."""
    vac = vectorize(vacuum_state(dim))
    tr_row = vectorize(np.eye(dim, dtype=np.complex128)).conj()
    return Superoperator(matrix=np.outer(vac, tr_row), label="vacuum-projection")


@dataclass(frozen=True)
class HamiltonianCommutator:
    """Generator L(rho) = -i [H, rho] for Hermitian H."""

    hamiltonian: np.ndarray

    def __post_init__(self):
        h = as_matrix(self.hamiltonian)
        if np.linalg.norm(h - h.conj().T) > 1e-10:
            raise ValueError("Hamiltonian must be Hermitian within 1e-10")
        object.__setattr__(self, "hamiltonian", h)

    def to_superoperator(self, dim: int) -> Superoperator:
        h = self.hamiltonian
        if h.shape[0] != dim:
            raise ValueError(f"Hamiltonian dimension {h.shape[0]} != {dim}")
        eye = np.eye(dim, dtype=np.complex128)
        mat = -1j * (kron(eye, h) - kron(h.T, eye))
        return Superoperator(matrix=mat, label="hamiltonian-commutator")


@dataclass(frozen=True)
class Dephasing:
    """Generator L(rho) = rate * (N rho N - (N^2 rho + rho N^2)/2)."""

    rate: float

    def __post_init__(self):
        if self.rate < 0:
            raise ValueError("dephasing rate must be nonnegative")

    def to_superoperator(self, dim: int) -> Superoperator:
        n_op = number_operator(dim)
        n_sq = n_op @ n_op
        eye = np.eye(dim, dtype=np.complex128)
        mat = self.rate * (
            kron(n_op.T, n_op) - 0.5 * (kron(eye, n_sq) + kron(n_sq.T, eye))
        )
        return Superoperator(matrix=mat, label="dephasing")


def attenuator_mixing_bound(eta: complex, n_or_gamma, rho, *, continuous: bool = False) -> float:
    """4 |eta|^n Tr((N+1) rho), or 4 e^{-gamma} Tr((N+1) rho) when continuous."""
    rho = as_matrix(rho)
    weight = particle_number(rho) + float(np.trace(rho).real)
    if continuous:
        return 4.0 * float(np.exp(-n_or_gamma)) * weight
    return 4.0 * abs(complex(eta)) ** n_or_gamma * weight
