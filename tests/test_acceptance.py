"""End-to-end verification of the package's quantitative claims.

One test per numbered criterion; each prints a single PASS/FAIL line
(visible with ``pytest -s``).  Tolerances are pinned here and nowhere else.

Criterion 1 runs at its stated parameters (d=16, alpha up to 1.2), where the
truncation is not negligible: the tail of |1.2> beyond 16 levels is the
Poisson tail t = P(N >= 16) at mean 1.44, 4.22701e-12 in 50-digit arithmetic,
and the eta=0.9 trace distance is 4.12867e-7.  The test therefore asserts two
statements that are true of the truncated problem:

- ``tail_mass`` equals the independent Poisson tail gammainc(d, |alpha|^2);
- td(Phi_d(P X P), P Phi(X) P) <= sqrt(t(1-t)) + t/2 (plus 1e-8 rounding
  slack), with X = |alpha><alpha|, Phi(X) = |eta alpha><eta alpha| and P the
  projector on the first d levels.  Proof: loss leaves span{|0>..|d-1>}
  invariant, so the truncated Kraus list is the exact channel on P-supported
  input and Phi(PXP) - P Phi(X) P = -P Phi(PXQ + QXP + QXQ) P.  Phi and the
  compression by P contract the trace norm, so half of that difference is at
  most ||PXQ||_1 + ||QXQ||_1/2 = sqrt(t(1-t)) + t/2.

For alpha <= 0.5 the bound is 1e-8 to within 3e-12; at alpha=1.2 it is
2.066e-6.  The supplementary test after it holds every combination to 1e-8
at the default dimension 24, where every tail is below 1e-12.
"""

import time
from fractions import Fraction
from math import comb, factorial
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import gammainc

from zenolab.binomial import (
    binomial_product,
    expansion_terms,
    restricted_count,
    restricted_difference_bound_check,
    simplex_count,
    simplex_count_enumerated,
    simplex_ratio_bound_check,
)
from zenolab.channels import (
    Generator,
    Superoperator,
    apply,
    attenuator_generator,
    attenuator_kraus,
    attenuator_mixing_bound,
    to_superoperator,
    vacuum_projection_superop,
)
from zenolab.experiments import preset_config, run_experiment
from zenolab.fock import annihilation, coherent_vector, trace_distance, vacuum_state
from zenolab.linalg import devectorize, matrix_exp, trace_norm, vectorize
from zenolab.sampling import random_gapped_channel, random_operator, stream
from zenolab.zeno import (
    ZenoConfig,
    effective_dynamics,
    fit_rate,
)

from dense_reference import zeno_product

RNG = np.random.default_rng(20240808)


def _report(num: int, ok: bool, detail: str):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")


def fock_projector(level, dim):
    rho = np.zeros((dim, dim), dtype=complex)
    rho[level, level] = 1
    return rho


def quadrature_commutator(dim):
    a = annihilation(dim)
    return Generator(hamiltonian=(a + a.conj().T) / dim).superoperator(dim)


def rand_state(dim, support=None):
    s = dim if support is None else support
    g = RNG.normal(size=(s, s)) + 1j * RNG.normal(size=(s, s))
    block = g @ g.conj().T
    rho = np.zeros((dim, dim), dtype=complex)
    rho[:s, :s] = block / np.trace(block).real
    return rho


def test_criterion_01_attenuator_kraus_coherent_action():
    started = time.perf_counter()
    d = 16
    failures = []
    worst_ratio = 0.0
    for eta in (0.3, 0.5 + 0.2j, 0.9):
        ch = attenuator_kraus(eta, d)
        for alpha in (0.0, 0.5, 1.2):
            cv = coherent_vector(alpha, d)
            tail = gammainc(d, abs(alpha) ** 2)
            tol = 1e-8 + np.sqrt(tail * (1 - tail)) + tail / 2
            td = trace_distance(apply(ch, cv.projector()), coherent_vector(eta * alpha, d).projector())
            worst_ratio = max(worst_ratio, td / tol)
            if abs(cv.tail_mass - tail) > 1e-9 * tail or td > tol:
                failures.append(
                    f"eta={eta}, alpha={alpha}: td={td:.3e} (tol {tol:.3e}), "
                    f"tail={cv.tail_mass:.6e} (exact {tail:.6e})"
                )
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 1.0
    _report(1, ok, f"d=16 coherent action, worst td/(truncation bound)={worst_ratio:.3f}, {elapsed:.2f}s")
    assert elapsed < 1.0
    assert not failures, "; ".join(failures)


def test_criterion_01_supplement_default_dimension():
    # same check at the default experiment dimension, where every tail is
    # below 1e-12 and the truncation bound of criterion 1 is negligible, so
    # the coherent action holds to 1e-8 with no truncation allowance
    d = 24
    worst = 0.0
    for eta in (0.3, 0.5 + 0.2j, 0.9):
        ch = attenuator_kraus(eta, d)
        for alpha in (0.0, 0.5, 1.2):
            cv = coherent_vector(alpha, d)
            assert cv.tail_mass <= 1e-12
            td = trace_distance(apply(ch, cv.projector()), coherent_vector(eta * alpha, d).projector())
            worst = max(worst, td)
    _report(1, worst <= 1e-8, f"(supplement) d=24 coherent action, worst td={worst:.3e}")
    assert worst <= 1e-8


def test_criterion_02_semigroup_property():
    d = 12
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(20):
        eta1 = rng.random() * np.exp(2j * np.pi * rng.random())
        eta2 = rng.random() * np.exp(2j * np.pi * rng.random())
        s12 = to_superoperator(attenuator_kraus(eta1 * eta2, d)).matrix
        s1 = to_superoperator(attenuator_kraus(eta1, d)).matrix
        s2 = to_superoperator(attenuator_kraus(eta2, d)).matrix
        worst = max(worst, np.linalg.norm(s12 - s1 @ s2))
    _report(2, worst <= 1e-9, f"semigroup property on 20 random pairs, worst F-dev={worst:.3e}")
    assert worst <= 1e-9


def test_criterion_03_generator_consistency():
    d = 16
    k = attenuator_generator(d).matrix
    worst = 0.0
    for t in (0.1, 0.5, 2.0):
        dev = np.linalg.norm(matrix_exp(t * k) - to_superoperator(attenuator_kraus(np.exp(-t), d)).matrix)
        worst = max(worst, dev)
    _report(3, worst <= 1e-9, f"exp(tK) vs eta=e^-t channel, worst F-dev={worst:.3e}")
    assert worst <= 1e-9


def test_criterion_04_mixing_bound_zero_violations():
    d = 16
    p = vacuum_projection_superop(d).matrix
    states = [rand_state(d, support=int(RNG.integers(1, d)) + 1) for _ in range(50)]
    violations = 0
    checked = 0
    for eta in (0.4, 0.8):
        # Phi^n is the channel at eta^n (semigroup property, criterion 2);
        # forming the difference superoperator first keeps the tiny tail of
        # the sweep below the floating-point cancellation floor.
        diffs = {n: to_superoperator(attenuator_kraus(eta**n, d)).matrix - p for n in range(1, 65)}
        for rho in states:
            bound_scale = attenuator_mixing_bound(eta, 0, rho) / 4.0
            for n in range(1, 65):
                err = trace_norm(devectorize(diffs[n] @ vectorize(rho)))
                if err > 4.0 * eta**n * bound_scale:
                    violations += 1
                checked += 1
    _report(4, violations == 0, f"mixing bound, {checked} checks, {violations} violations")
    assert violations == 0


def test_criterion_05_cardinality_lemma():
    started = time.perf_counter()
    # exact equality against brute-force enumeration
    mismatches = sum(
        simplex_count(n, k) != simplex_count_enumerated(n, k)
        for k in range(1, 6)
        for n in range(1, 26)
    )
    # both cardinality bounds over the full range
    ratio_failures = 0
    diff_failures = 0
    for k in range(1, 9):
        for n in range(k, 1001):
            if not simplex_ratio_bound_check(n, k).holds:
                ratio_failures += 1
            for bounds in ([1] * (k + 1), [2] + [1] * k, list(range(1, k + 2))):
                if not restricted_difference_bound_check(n, k, bounds).holds:
                    diff_failures += 1
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and ratio_failures == 0 and diff_failures == 0 and elapsed < 30.0
    _report(
        5,
        ok,
        f"counting: {mismatches} enum mismatches, {ratio_failures}+{diff_failures} bound failures, {elapsed:.1f}s",
    )
    assert mismatches == 0
    assert ratio_failures == 0 and diff_failures == 0
    assert elapsed < 30.0


def test_criterion_06_expansion_identity():
    rng = np.random.default_rng(606)
    worst = 0.0
    for n in (1, 2, 3, 5, 9, 17, 33, 64):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m /= np.linalg.norm(m, 2)
        l = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        l /= np.linalg.norm(l, 2)
        total = sum(expansion_terms(m, l, n, n))
        worst = max(worst, np.linalg.norm(total - binomial_product(m, l, n)))
    _report(6, worst <= 1e-10, f"sum_k y_nk vs (M+L/n)^n, worst dev={worst:.3e}")
    assert worst <= 1e-10


def test_criterion_07_binomial_limit_gapped_contraction():
    m, p, _ = random_gapped_channel(2, stream(4242, 1), delta=0.5)
    l = random_operator(4, stream(4242, 2), norm=0.5)
    target = matrix_exp(p.matrix @ l @ p.matrix) @ p.matrix
    grid = [8 * 2**j for j in range(10)]  # 8 .. 4096
    errors = [np.linalg.norm(binomial_product(m.matrix, l, n) - target, 2) for n in grid]
    records = [SimpleNamespace(parameter=float(n), error=e) for n, e in zip(grid, errors)]
    fit = fit_rate(records, model="power_log")
    ok = errors[-1] <= 1e-2 and fit.exponent >= 0.9
    _report(7, ok, f"gapped binomial limit: err(4096)={errors[-1]:.3e}, fitted p={fit.exponent:.3f}")
    assert errors[-1] <= 1e-2
    assert fit.exponent >= 0.9


def test_criterion_08_zeno_rate_preset():
    started = time.perf_counter()
    rows = run_experiment(preset_config("attenuator-zeno"))
    elapsed = time.perf_counter() - started
    states = sorted({r.state_id for r in rows})
    ok = True
    details = []
    for state in states:
        mine = sorted((r for r in rows if r.state_id == state), key=lambda r: r.parameter)
        errs = [r.error for r in mine]
        decreasing = all(b < a for a, b in zip(errs, errs[1:]))
        dominated = all(r.error <= r.bound + 1e-15 for r in mine)
        p_fit = mine[0].fitted_p
        ok = ok and decreasing and dominated and p_fit >= 0.9
        details.append(f"{state}: p={p_fit:.3f} dec={decreasing} dom={dominated}")
    ok = ok and elapsed < 300.0
    _report(8, ok, f"zeno preset ({elapsed:.1f}s): " + "; ".join(details))
    assert ok


def test_criterion_09_damping_rate_preset():
    rows = run_experiment(preset_config("attenuator-damping"))
    states = sorted({r.state_id for r in rows})
    ok = True
    details = []
    for state in states:
        mine = sorted((r for r in rows if r.state_id == state), key=lambda r: r.parameter)
        dominated = all(r.error <= r.bound + 1e-15 for r in mine)
        p_fit = mine[0].fitted_p
        ok = ok and dominated and p_fit >= 0.9
        details.append(f"{state}: p={p_fit:.3f} dom={dominated}")
    # final state at gamma = 2048 sits on the effective vacuum dynamics
    d = 16
    k = attenuator_generator(d).matrix
    l = quadrature_commutator(d)
    total = matrix_exp(1.0 * (2048.0 * k + l.matrix))
    worst_td = 0.0
    for rho in (fock_projector(1, d), coherent_vector(0.8, d).projector()):
        out = devectorize(total @ vectorize(rho))
        scalar = np.exp(np.trace(apply(l, vacuum_state(d))))  # trace-preserving: = 1
        target = scalar * np.trace(rho) * vacuum_state(d)
        worst_td = max(worst_td, trace_distance(out, target.real.astype(complex)))
    ok = ok and worst_td <= 1e-3
    _report(9, ok, f"damping preset: {'; '.join(details)}; td(gamma=2048 vs vacuum limit)={worst_td:.2e}")
    assert ok


def test_criterion_10_trivial_collapses():
    d = 12
    m = to_superoperator(attenuator_kraus(0.5, d))
    p = vacuum_projection_superop(d)
    zero = Superoperator(matrix=np.zeros((d * d, d * d), dtype=complex))
    rho = fock_projector(1, d)

    # L = 0: Zeno error equals the mixing error, to 1e-12
    cfg0 = ZenoConfig(m=m, l=zero, p=p, t=1.0, test_states=())
    eff0 = effective_dynamics(p, zero, 1.0)
    dev_a = max(
        abs(
            trace_norm(zeno_product(cfg0, n, rho) - apply(eff0, rho))
            - trace_norm(devectorize(np.linalg.matrix_power(m.matrix, n) @ vectorize(rho)) - apply(p, rho))
        )
        for n in (1, 2, 4, 8, 16)
    )

    # M = I: the Zeno product collapses to exp(tL), to 1e-10
    ident = Superoperator(matrix=np.eye(d * d, dtype=complex))
    l = quadrature_commutator(d)
    cfg1 = ZenoConfig(m=ident, l=l, p=ident, t=1.0, test_states=())
    dev_b = max(
        np.linalg.norm(zeno_product(cfg1, n, rho) - devectorize(matrix_exp(l.matrix) @ vectorize(rho)))
        for n in (1, 5, 32)
    )

    # gamma = 0: the damped evolution collapses to exp(tL), to 1e-10
    k = attenuator_generator(d)
    dev_c = np.linalg.norm(matrix_exp(1.0 * (0.0 * k.matrix + l.matrix)) - matrix_exp(l.matrix))

    ok = dev_a <= 1e-12 and dev_b <= 1e-10 and dev_c <= 1e-10
    _report(10, ok, f"collapses: L=0 dev={dev_a:.2e}, M=I dev={dev_b:.2e}, gamma=0 dev={dev_c:.2e}")
    assert dev_a <= 1e-12
    assert dev_b <= 1e-10
    assert dev_c <= 1e-10
