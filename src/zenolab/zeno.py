"""Zeno configurations, effective dynamics, speed bounds and rate fitting.

``ZenoConfig`` holds the dense column-stacking matrices of a Zeno instance
``(M exp(tL/n))^n`` and checks them in ``validate``.  A zeno sweep's ``M``
is a channel value whose ``limit`` checks it and returns ``exp(t PLP) P x``:
:class:`GappedChannel` by ``validate`` and :func:`effective_dynamics`,
:class:`zenolab.channels.Attenuator` by closed forms on its Kraus weights
and ``|0><0| Tr x``.  The sweeps apply their maps matrix-free:
``(M exp(tL/n))^n`` by iterating the channel's ``act``
(:func:`zenolab.channels.zeno_action`) and ``exp(t(gamma K + L))`` by a
contour integral (:func:`zenolab.channels.damped_action`), both reading
``L`` from one :class:`zenolab.channels.Generator`.  Convergence rates are
fitted by log-log least squares.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import Superoperator, _check_contractive, apply
from .linalg import as_matrix, matrix_exp

__all__ = [
    "ZenoConfig",
    "GappedChannel",
    "SpeedBound",
    "FitResult",
    "effective_dynamics",
    "constant_big_n",
    "theoretical_zeno_bound_ssup",
    "fit_rate",
    "fit_log_envelope",
]


def _check_projection_compat(m_mat, p_mat, what: str):
    if np.linalg.norm(p_mat @ p_mat - p_mat) > 1e-9:
        raise ValueError("P is not idempotent within 1e-9")
    if np.linalg.norm(m_mat @ p_mat - p_mat) > 1e-9:
        raise ValueError(f"{what} P != P within 1e-9")
    if np.linalg.norm(p_mat @ m_mat - p_mat) > 1e-9:
        raise ValueError(f"P {what} != P within 1e-9")


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
    """A dense Zeno instance: contraction M, generator L, projection P, time t and test states.

    ``n`` is an argument of whatever evaluates the product ``(M exp(tL/n))^n``.
    """

    m: Superoperator
    l: Superoperator
    p: Superoperator
    t: float
    test_states: tuple  # (state_id, matrix) pairs

    def __post_init__(self):
        if self.t <= 0:
            raise ValueError("t must be positive")
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
        _check_contractive(self.test_states, [apply(self.m, x) for _, x in self.test_states], "M")
        _check_projection_compat(self.m.matrix, self.p.matrix, "M")


@dataclass(frozen=True)
class GappedChannel(Superoperator):
    """A dense channel ``M`` with the projection ``p`` onto its fixed points, such as :func:`zenolab.sampling.random_gapped_channel` draws."""

    p: Superoperator

    def limit(self, states, generator, t: float) -> np.ndarray:
        """``exp(t PLP) P x`` for each ``(state_id, x)`` of ``states``, ``L`` from ``generator``, once :meth:`ZenoConfig.validate` passes.

        A failed check raises ValueError naming ``M``, ``L`` or ``P``.
        """
        cfg = ZenoConfig(m=self, l=generator.superoperator(self.dim), p=self.p, t=t, test_states=states)
        cfg.validate()
        eff = effective_dynamics(self.p, cfg.l, t)
        return np.stack([apply(eff, rho) for _, rho in states])


def effective_dynamics(p: Superoperator, l: Superoperator, t: float) -> Superoperator:
    """exp(t P L P) P, the limit dynamics on the range of P."""
    pm = p.matrix
    return Superoperator(matrix=matrix_exp(t * (pm @ l.matrix @ pm)) @ pm)


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


def theoretical_zeno_bound_ssup(s_values, l_norm: float, t: float, n: int, big_n, x_norm: float) -> SpeedBound:
    """Evaluate sup_l ( ||tL||^{-l+1} s_{N_l}(chain_l) + N_l/n ||x|| ) over the whole chain.

    ``s_values[l-1]`` is the exact mixing speed ``||(M^{N_l} - P) y||_1`` of
    the chain state ``y = (tLP)^{l-1} x`` at ``N_l = big_n[l-1]``;
    ``demos/speed_bounds.py`` evaluates the attenuator's.
    """
    big_n = [int(v) for v in big_n]
    if len(s_values) != len(big_n):
        raise ValueError(f"{len(s_values)} chain speeds for {len(big_n)} cutoffs N_l")
    tl_norm = t * l_norm
    terms = []
    for l, (s_val, cutoff) in enumerate(zip(s_values, big_n), start=1):
        if l == 1:
            weighted = s_val
        elif tl_norm > 0:
            weighted = tl_norm ** (-(l - 1)) * s_val
        elif s_val == 0:
            weighted = 0.0  # L = 0 kills every chain state past the first
        else:
            raise ValueError("||tL|| is zero but a chain state still mixes")
        terms.append(weighted + cutoff / n * x_norm)
    return SpeedBound(value=float(max(terms)), argmax_l=int(np.argmax(terms)) + 1)


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
