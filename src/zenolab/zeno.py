"""Zeno products, damped evolutions, speed bounds and rate fitting.

The engine computes (M exp(tL/n))^n and exp(t(gamma K + L)) on the
superoperator level, compares them against the effective dynamics
exp(t PLP) P, and quantifies convergence rates by log-log least squares.

``zeno_product`` and ``damped_evolution`` use the complex column-stacking
matrices and accept any linear maps; they are the dense reference the tests
hold the sweeps to.  ``ZenoConfig.validate`` runs on the same matrices; of
the sweeps of :mod:`zenolab.experiments`, only the gapped zeno channel takes
its checks and its limit this way.  For the attenuator the same checks are
closed forms on its Kraus weights (:func:`zenolab.channels.attenuator_check`),
and the limit is ``|0><0| Tr x``, because every generator of a sweep
preserves the trace.  The sweeps apply their maps to the test states
matrix-free: ``(M exp(tL/n))^n`` by iterating the step
(:func:`zenolab.channels.zeno_action`) and ``exp(t(gamma K + L))`` by a
contour integral (:func:`zenolab.channels.damped_action`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import Superoperator, apply, positive_part_decomposition
from .fock import vacuum_state
from .linalg import (
    as_matrix,
    devectorize,
    matrix_exp,
    matrix_power,
    trace_norm,
    vectorize,
)

__all__ = [
    "ZenoConfig",
    "SpeedBound",
    "FitResult",
    "zeno_product",
    "zeno_product_iterated",
    "effective_dynamics",
    "damped_evolution",
    "chain_states",
    "constant_big_n",
    "theoretical_zeno_bound_ssup",
    "one_one_norm_probe",
    "attenuator_speed_bound",
    "fit_rate",
    "fit_log_envelope",
]

SSUP_L_MAX = 12


def _check_projection_compat(m_mat, p_mat, what: str):
    if np.linalg.norm(p_mat @ p_mat - p_mat) > 1e-9:
        raise ValueError("P is not idempotent within 1e-9")
    if np.linalg.norm(m_mat @ p_mat - p_mat) > 1e-9:
        raise ValueError(f"{what} P != P within 1e-9")
    if np.linalg.norm(p_mat @ m_mat - p_mat) > 1e-9:
        raise ValueError(f"P {what} != P within 1e-9")


def _check_contractive(mat, states, what: str, slack: float = 1e-8):
    for state_id, x in states:
        before = trace_norm(x)
        after = trace_norm(devectorize(mat @ vectorize(x)))
        if after > before + slack:
            raise ValueError(
                f"{what} is not trace-norm contractive on state {state_id!r}: "
                f"{after:.6e} > {before:.6e}"
            )


def _check_hermiticity_preserving(**maps) -> None:
    """Raise ValueError naming the first map with ``A(X)^dag != A(X^dag)``.

    With ``S`` the permutation ``vec(X) -> vec(X^T)``, a map preserves
    Hermiticity exactly when ``A = S conj(A) S``; the test allows a
    deviation of ``1e-12 max|A|`` for rounding.
    """
    for name, sup in maps.items():
        a, d = sup.matrix, sup.dim
        s = np.arange(d * d).reshape(d, d).T.reshape(-1)
        if np.abs(a - a[np.ix_(s, s)].conj()).max() > 1e-12 * np.abs(a).max():
            raise ValueError(f"{name}: map is not Hermiticity-preserving")


@dataclass(frozen=True)
class ZenoConfig:
    """Inputs for a Zeno sweep: contraction M, generator L, projection P."""

    m: Superoperator
    l: Superoperator
    p: Superoperator
    t: float
    n_grid: tuple
    test_states: tuple  # (state_id, matrix) pairs

    def __post_init__(self):
        if self.t <= 0:
            raise ValueError("t must be positive")
        grid = tuple(int(n) for n in self.n_grid)
        if not grid or any(n < 1 for n in grid) or sorted(grid) != list(grid):
            raise ValueError("n_grid must be ascending positive integers")
        object.__setattr__(self, "n_grid", grid)
        states = tuple((str(s), as_matrix(x)) for s, x in self.test_states)
        object.__setattr__(self, "test_states", states)

    def validate(self):
        """Hermiticity preservation, contractivity spot-checks and projection compatibility.

        Runs on the complex matrices: M, L and P must preserve Hermiticity, as
        every channel and generator does, or ValueError names the first that
        does not.  M must not grow the trace norm of any test state, which a
        CPTP map contracts on all operators, Hermitian or not; and P must be a
        projection with ``MP = PM = P``.
        """
        _check_hermiticity_preserving(M=self.m, L=self.l, P=self.p)
        _check_contractive(self.m.matrix, self.test_states, "M")
        _check_projection_compat(self.m.matrix, self.p.matrix, "M")


def zeno_product(cfg: ZenoConfig, n: int, x) -> np.ndarray:
    """(M exp(tL/n))^n applied to x, by binary exponentiation."""
    if n < 1:
        raise ValueError("n must be >= 1")
    step = cfg.m.matrix @ matrix_exp((cfg.t / n) * cfg.l.matrix)
    return devectorize(matrix_power(step, n) @ vectorize(x))


def zeno_product_iterated(cfg: ZenoConfig, n: int, x) -> np.ndarray:
    """Same product by n repeated applications; cross-check route."""
    if n < 1:
        raise ValueError("n must be >= 1")
    step = cfg.m.matrix @ matrix_exp((cfg.t / n) * cfg.l.matrix)
    v = vectorize(x)
    for _ in range(n):
        v = step @ v
    return devectorize(v)


def effective_dynamics(p: Superoperator, l: Superoperator, t: float) -> Superoperator:
    """exp(t P L P) P, the limit dynamics on the range of P."""
    pm = p.matrix
    return Superoperator(matrix=matrix_exp(t * (pm @ l.matrix @ pm)) @ pm, label="effective")


def damped_evolution(k: Superoperator, l: Superoperator, t: float, gamma: float, x) -> np.ndarray:
    """exp(t (gamma K + L)) applied to x, by one dense exponential.

    The dense reference for any K and L: the damping sweep of
    :mod:`zenolab.experiments` runs the matrix-free
    :func:`zenolab.channels.damped_action` instead, and the tests hold it
    to this.
    """
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    total = matrix_exp(t * (gamma * k.matrix + l.matrix))
    return devectorize(total @ vectorize(x))


def chain_states(l: Superoperator, p: Superoperator, t: float, x, length: int) -> list:
    """The matrices (t L P)^{l-1} x for l = 1..length."""
    states = [as_matrix(x)]
    step = t * (l.matrix @ p.matrix)
    v = vectorize(x)
    for _ in range(length - 1):
        v = step @ v
        states.append(devectorize(v))
    return states


def constant_big_n(n: int, delta: float, length: int) -> list:
    """The constant cutoff sequence N_l = floor(log n / log(1/delta))."""
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    value = max(1, int(np.floor(np.log(n) / np.log(1.0 / delta))))
    return [value] * length


@dataclass(frozen=True)
class SpeedBound:
    value: float
    argmax_l: int
    attained_inside_truncation: bool


def _lookup_decreasing(table, n: int) -> float:
    """Value of a grid-sup mixing table at the largest grid point <= n.

    The table is monotone nonincreasing, so this is a safe upper bound for
    s_n; queries below the grid clamp to the first entry.
    """
    best = table[0][1]
    for grid_n, value in table:
        if grid_n <= n:
            best = value
        else:
            break
    return best


def theoretical_zeno_bound_ssup(
    s_tables,
    l_norm: float,
    t: float,
    n: int,
    big_n,
    x_norm: float,
    l_max: int = SSUP_L_MAX,
) -> SpeedBound:
    """Evaluate sup_l ( ||tL||^{-l+1} s_{N_l}(chain_l) + N_l/n ||x|| ).

    ``s_tables[l-1]`` is the empirical mixing table for the chain state
    (tLP)^{l-1} x, as produced by ``mixing_speed_empirical``.  The supremum
    over l is truncated at ``l_max``; the report records whether the max was
    attained strictly inside the truncation.
    """
    big_n = [int(v) for v in big_n]
    l_max = min(l_max, len(big_n))
    if l_max > len(s_tables):
        raise ValueError(
            f"sup truncated at l_max={l_max} but only {len(s_tables)} chain tables supplied"
        )
    tl_norm = t * l_norm
    terms = []
    for l in range(1, l_max + 1):
        s_val = _lookup_decreasing(s_tables[l - 1], big_n[l - 1])
        if l == 1:
            weighted = s_val
        elif tl_norm > 0:
            weighted = tl_norm ** (-(l - 1)) * s_val
        elif s_val == 0:
            weighted = 0.0  # L = 0 kills every chain state past the first
        else:
            raise ValueError("||tL|| is zero but a chain state still mixes")
        terms.append(weighted + big_n[l - 1] / n * x_norm)
    argmax = int(np.argmax(terms)) + 1
    return SpeedBound(
        value=float(max(terms)),
        argmax_l=argmax,
        attained_inside_truncation=argmax < l_max,
    )


@dataclass(frozen=True)
class ProbeNorm:
    """Lower-bound estimate of the trace-norm -> trace-norm operator norm."""

    value: float
    probe_count: int


# Probes per batched application of L.  A chunk's arrays (the probes, their
# vec copy, the images) hold about 4 * 64 d^2 complex entries, under half of
# the d^4 of L itself at the default d = 24.
_PROBE_CHUNK = 64


def _probe_chunks(d: int, target: int, rng):
    """The probes of :func:`one_one_norm_probe` in order, as stacked chunks.

    First the d^2 matrix units ``E_ij`` (i major), then Hermitian pairs
    ``g + g^H`` and ``g g^H`` of complex Gaussian ``g`` until at least
    ``target`` probes are out; each chunk holds at most ``_PROBE_CHUNK``.
    """
    for start in range(0, d * d, _PROBE_CHUNK):
        flat = np.arange(start, min(start + _PROBE_CHUNK, d * d))
        units = np.zeros((flat.size, d, d), dtype=np.complex128)
        units[np.arange(flat.size), flat // d, flat % d] = 1.0
        yield units
    remaining = target - d * d
    while remaining > 0:
        chunk = []
        while remaining > 0 and len(chunk) < _PROBE_CHUNK:
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            chunk += [g + g.conj().T, g @ g.conj().T]
            remaining -= 2
        yield np.stack(chunk)


def one_one_norm_probe(l: Superoperator, extra_probes: int = 64, seed: int = 0) -> ProbeNorm:
    """max ||L(x)||_1 / ||x||_1 over matrix units plus random probes.

    Exact 1->1 superoperator norms are intractable in general; this reports
    a lower bound together with the number of probes used (always >= 200).
    L is applied to chunks of up to ``_PROBE_CHUNK`` probes by one product
    each, and the trace norms come from stacked singular values.
    """
    d = l.dim
    rng = np.random.default_rng(np.random.Philox(key=np.array([seed, 0x1111], dtype=np.uint64)))
    target = max(200, d * d + 2 * extra_probes)
    best, count = 0.0, 0
    for x in _probe_chunks(d, target, rng):
        count += len(x)
        # row i of vecs is vec(x_i); row i of vecs @ L^T is vec(L x_i), which
        # reshapes row-major to (L x_i)^T, of the same trace norm
        vecs = x.transpose(0, 2, 1).reshape(len(x), d * d)
        images = (vecs @ l.matrix.T).reshape(x.shape)
        denom = np.linalg.svd(x, compute_uv=False).sum(axis=1)
        keep = denom >= 1e-14
        if keep.any():
            num = np.linalg.svd(images[keep], compute_uv=False).sum(axis=1)
            best = max(best, float((num / denom[keep]).max()))
    return ProbeNorm(value=best, probe_count=count)


def attenuator_speed_bound(rho, l: Superoperator, t: float, n_or_gamma: float) -> float:
    """State-dependent factor of the attenuator rate bound, times log(m)/m.

    factor = sum_i ( Tr((N+1) rho_i) + Tr((N+1) L(vac)_i) ||rho||_1 / ||L|| )
    over the four PSD parts of rho and of L(|0><0|); the overall fitted
    constant is reported separately by the callers.
    """
    if n_or_gamma <= 1:
        raise ValueError("rate bound needs parameter > 1 (log must be positive)")
    rho = as_matrix(rho)
    d = rho.shape[0]
    n_diag = np.arange(d, dtype=float) + 1.0
    l_vac = apply(l, vacuum_state(d))
    l_norm = one_one_norm_probe(l).value
    rho_norm = trace_norm(rho)
    factor = 0.0
    for part in positive_part_decomposition(rho):
        factor += float(n_diag @ np.real(np.diag(part)))
    if l_norm > 1e-14:
        for part in positive_part_decomposition(l_vac):
            factor += float(n_diag @ np.real(np.diag(part))) * rho_norm / l_norm
    m = float(n_or_gamma)
    return float(np.log(m) / m * factor)


@dataclass(frozen=True)
class FitResult:
    exponent: float
    constant: float
    residual_rms: float


def fit_rate(records, model: str = "pure_power") -> FitResult:
    """Least-squares rate fit on log error vs log parameter.

    ``records`` are anything with ``.parameter`` and ``.error``, such as the
    :class:`zenolab.experiments.ReportRow` of one state.

    pure_power:  log e = log C - p log n
    power_log:   log e = log C + log log n - p log n
    """
    if model not in ("pure_power", "power_log"):
        raise ValueError(f"unknown model {model!r}")
    params = np.array([r.parameter for r in records], dtype=float)
    errors = np.array([r.error for r in records], dtype=float)
    if len(records) < 4:
        raise ValueError("rate fit needs at least 4 records")
    if np.any(errors <= 0):
        raise ValueError("rate fit needs strictly positive errors")
    if np.unique(params).size < 2:
        raise ValueError("rate fit needs a non-degenerate parameter grid")
    y = np.log(errors)
    if model == "power_log":
        if np.any(params <= 1):
            raise ValueError("power_log model needs parameters > 1")
        y = y - np.log(np.log(params))
    design = np.stack([np.ones_like(params), -np.log(params)], axis=1)
    sol, *_ = np.linalg.lstsq(design, y, rcond=None)
    log_c, p = sol
    resid = design @ sol - y
    return FitResult(
        exponent=float(p),
        constant=float(np.exp(log_c)),
        residual_rms=float(np.sqrt(np.mean(resid**2))),
    )


def fit_log_envelope(records) -> tuple:
    """Pin C so error = C log(n)/n at the first record; test domination.

    Returns (C, holds) where holds says every later record satisfies
    error <= C log(n)/n.
    """
    first = records[0]
    if first.parameter <= 1:
        raise ValueError("envelope needs first parameter > 1")
    c = first.error * first.parameter / np.log(first.parameter)
    holds = all(
        r.error <= c * np.log(r.parameter) / r.parameter + 1e-15 for r in records
    )
    return float(c), bool(holds)
