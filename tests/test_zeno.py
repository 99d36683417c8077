from types import SimpleNamespace

import numpy as np
import pytest

from zenolab.channels import (
    Generator,
    Superoperator,
    apply,
    attenuator_deviation,
    attenuator_generator,
    attenuator_kraus,
    to_superoperator,
    vacuum_projection_superop,
)
from zenolab.experiments import generator_norm, parse_config_text
from zenolab.fock import annihilation, coherent_vector, vacuum_state
from zenolab.linalg import devectorize, matrix_exp, trace_norm, vectorize
from zenolab.sampling import random_gapped_channel, stream
from zenolab.zeno import (
    GappedChannel,
    ZenoConfig,
    constant_big_n,
    effective_dynamics,
    fit_log_envelope,
    fit_rate,
    theoretical_zeno_bound_ssup,
)

from dense_reference import damped_evolution, identity_superoperator, zeno_product, zeno_product_iterated

RNG = np.random.default_rng(90210)


def fock_projector(level, dim):
    rho = np.zeros((dim, dim), dtype=complex)
    rho[level, level] = 1
    return rho


def quadrature_hamiltonian(dim):
    a = annihilation(dim)
    return (a + a.conj().T) / dim


def quadrature_generator(dim):
    return Generator(hamiltonian=quadrature_hamiltonian(dim)).superoperator(dim)


def attenuator_zeno_config(dim=8, eta=0.5, t=1.0):
    m = to_superoperator(attenuator_kraus(eta, dim))
    p = vacuum_projection_superop(dim)
    l = quadrature_generator(dim)
    states = (("fock:1", fock_projector(1, dim)), ("coherent:0.6", coherent_vector(0.6, dim).projector()))
    return ZenoConfig(m=m, l=l, p=p, t=t, test_states=states)


# ---------------------------------------------------------------------------
# products and collapses


def test_zeno_product_without_perturbation_is_power():
    cfg = attenuator_zeno_config()
    d = cfg.m.dim
    zero = Superoperator(matrix=np.zeros((d * d, d * d), dtype=complex))
    cfg0 = ZenoConfig(m=cfg.m, l=zero, p=cfg.p, t=1.0, test_states=cfg.test_states)
    rho = fock_projector(1, d)
    out = zeno_product(cfg0, 6, rho)
    direct = devectorize(np.linalg.matrix_power(cfg.m.matrix, 6) @ vectorize(rho))
    assert np.linalg.norm(out - direct) <= 1e-12


def test_zeno_product_identity_mixing_collapses_to_semigroup():
    d = 6
    ident = identity_superoperator(d)
    l = quadrature_generator(d)
    cfg = ZenoConfig(m=ident, l=l, p=ident, t=0.7, test_states=())
    rho = fock_projector(2, d)
    out = zeno_product(cfg, 9, rho)
    direct = devectorize(matrix_exp(0.7 * l.matrix) @ vectorize(rho))
    assert np.linalg.norm(out - direct) <= 1e-10


def test_zeno_product_n1_definition():
    cfg = attenuator_zeno_config()
    rho = fock_projector(1, cfg.m.dim)
    out = zeno_product(cfg, 1, rho)
    step = apply(cfg.m, devectorize(matrix_exp(cfg.t * cfg.l.matrix) @ vectorize(rho)))
    assert np.linalg.norm(out - step) <= 1e-12


def test_zeno_product_two_routes_agree():
    cfg = attenuator_zeno_config()
    rho = coherent_vector(0.6, cfg.m.dim).projector()
    for n in (1, 7, 32):
        fast = zeno_product(cfg, n, rho)
        slow = zeno_product_iterated(cfg, n, rho)
        assert np.linalg.norm(fast - slow) <= 1e-10


# ---------------------------------------------------------------------------
# effective dynamics


def test_effective_dynamics_t_zero_is_projection():
    d = 5
    p = vacuum_projection_superop(d)
    l = quadrature_generator(d)
    eff = effective_dynamics(p, l, 0.0)
    # matrix_exp guards tol, not t; t=0 collapses to P itself
    assert np.linalg.norm(eff.matrix - p.matrix) <= 1e-12


def test_effective_dynamics_attenuator_closed_form():
    d = 6
    p = vacuum_projection_superop(d)
    g = RNG.normal(size=(d * d, d * d)) + 1j * RNG.normal(size=(d * d, d * d))
    l = Superoperator(matrix=g / np.linalg.norm(g, 2))
    t = 0.8
    eff = effective_dynamics(p, l, t)
    scalar = np.exp(t * np.trace(apply(l, vacuum_state(d))))
    for _ in range(4):
        x = RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d))
        expected = scalar * np.trace(x) * vacuum_state(d)
        assert np.linalg.norm(apply(eff, x) - expected) <= 1e-10


def test_effective_dynamics_identity_projection():
    d = 4
    ident = identity_superoperator(d)
    l = quadrature_generator(d)
    eff = effective_dynamics(ident, l, 0.9)
    assert np.linalg.norm(eff.matrix - matrix_exp(0.9 * l.matrix)) <= 1e-11


def test_effective_dynamics_lives_on_range_of_p():
    d = 5
    p = vacuum_projection_superop(d)
    l = quadrature_generator(d)
    eff = effective_dynamics(p, l, 1.0).matrix
    assert np.linalg.norm(eff @ p.matrix - eff) <= 1e-10
    assert np.linalg.norm(p.matrix @ eff - eff) <= 1e-10


# ---------------------------------------------------------------------------
# errors against the effective dynamics


def test_zeno_error_vanishes_for_pure_projection():
    d = 4
    p = vacuum_projection_superop(d)
    zero = Superoperator(matrix=np.zeros((d * d, d * d), dtype=complex))
    cfg = ZenoConfig(m=p, l=zero, p=p, t=1.0, test_states=())
    rho = fock_projector(1, d)
    error = trace_norm(zeno_product(cfg, 5, rho) - apply(effective_dynamics(p, zero, 1.0), rho))
    assert error <= 1e-13


def test_zeno_error_monotone_on_quadrature_instance():
    cfg = attenuator_zeno_config(dim=8)
    cfg.validate()
    eff = effective_dynamics(cfg.p, cfg.l, cfg.t)
    rho = fock_projector(1, 8)
    errs = [trace_norm(zeno_product(cfg, n, rho) - apply(eff, rho)) for n in (8, 16, 32, 64, 128)]
    assert all(b < a for a, b in zip(errs, errs[1:]))


def test_zeno_error_with_zero_l_equals_mixing_error():
    d = 8
    m = to_superoperator(attenuator_kraus(0.5, d))
    p = vacuum_projection_superop(d)
    zero = Superoperator(matrix=np.zeros((d * d, d * d), dtype=complex))
    rho = fock_projector(1, d)
    cfg = ZenoConfig(m=m, l=zero, p=p, t=1.0, test_states=())
    eff = effective_dynamics(p, zero, 1.0)
    for n in (1, 2, 4, 8):
        error = trace_norm(zeno_product(cfg, n, rho) - apply(eff, rho))
        mixing = trace_norm(devectorize(np.linalg.matrix_power(m.matrix, n) @ vectorize(rho)) - apply(p, rho))
        assert abs(error - mixing) <= 1e-12


# ---------------------------------------------------------------------------
# damping


def damping_maps(dim=8, with_l=True):
    """``(K, L, P)``: the attenuator generator, the quadrature commutator (or 0) and ``|0><0| Tr``."""
    l = quadrature_generator(dim) if with_l else Superoperator(
        matrix=np.zeros((dim * dim, dim * dim), dtype=complex)
    )
    return attenuator_generator(dim), l, vacuum_projection_superop(dim)


def test_damped_evolution_gamma_zero():
    k, l, _ = damping_maps()
    rho = fock_projector(1, 8)
    out = damped_evolution(k, l, 1.0, 0.0, rho)
    direct = devectorize(matrix_exp(l.matrix) @ vectorize(rho))
    assert np.linalg.norm(out - direct) <= 1e-11


def test_damped_evolution_pure_attenuator_closed_form():
    # t*gamma = 1 on the single-photon state: exp(-2)|1><1| + (1-exp(-2))|0><0|
    k, l, _ = damping_maps(with_l=False)
    rho = fock_projector(1, 8)
    out = damped_evolution(k, l, 1.0, 1.0, rho)
    expected = np.exp(-2.0) * fock_projector(1, 8) + (1 - np.exp(-2.0)) * fock_projector(0, 8)
    assert np.linalg.norm(out - expected) <= 1e-11


def test_damping_error_large_gamma_hits_vacuum_formula():
    d = 16
    k, l, p = damping_maps(dim=d, with_l=False)
    rho = fock_projector(1, d)
    error = trace_norm(damped_evolution(k, l, 1.0, 200.0, rho) - apply(effective_dynamics(p, l, 1.0), rho))
    assert error <= 1e-6


def test_damping_error_with_zero_l_equals_mixing_error():
    d = 8
    k, l, p = damping_maps(dim=d, with_l=False)
    rho = fock_projector(1, d)
    eff = effective_dynamics(p, l, 1.0)
    for gamma in (2.0, 5.0):
        error = trace_norm(damped_evolution(k, l, 1.0, gamma, rho) - apply(eff, rho))
        direct = trace_norm(
            devectorize(matrix_exp(gamma * k.matrix) @ vectorize(rho)) - apply(p, rho)
        )
        assert abs(error - direct) <= 1e-9


def test_damping_semigroup_consistency():
    k, l, _ = damping_maps()
    gamma = 3.0
    one = matrix_exp(gamma * k.matrix + l.matrix)
    t1, t2 = 0.35, 0.65
    split = matrix_exp(t1 * (gamma * k.matrix + l.matrix)) @ matrix_exp(
        t2 * (gamma * k.matrix + l.matrix)
    )
    assert np.linalg.norm(one - split) <= 1e-9


def test_config_validation_catches_bad_projection():
    d = 4
    m = to_superoperator(attenuator_kraus(0.5, d))
    bad_p = identity_superoperator(d)  # not the fixed-point projection of M
    cfg = ZenoConfig(m=m, l=bad_p, p=bad_p, t=1.0, test_states=())
    with pytest.raises(ValueError):
        cfg.validate()
    # a gapped channel's limit runs the same check: the vacuum projection is
    # idempotent, but the gapped M moves |0><0|
    gapped, _, _ = random_gapped_channel(3, stream(7, 1), 0.5)
    channel = GappedChannel(matrix=gapped.matrix, p=vacuum_projection_superop(3))
    with pytest.raises(ValueError, match="M P != P"):
        channel.limit([("vacuum", vacuum_state(3))], Generator(), 1.0)


def test_config_validation_catches_expansion():
    d = 4
    expanding = Superoperator(matrix=2.0 * np.eye(d * d, dtype=complex))
    p = vacuum_projection_superop(d)
    cfg = ZenoConfig(
        m=expanding, l=p, p=p, t=1.0,
        test_states=(("fock:1", fock_projector(1, d)),),
    )
    with pytest.raises(ValueError):
        cfg.validate()


# ---------------------------------------------------------------------------
# speed-bound machinery


def test_ssup_with_zero_tables_reduces_to_grid_term():
    bound = theoretical_zeno_bound_ssup([0.0, 0.0, 0.0], 1.0, 1.0, 64, [4, 4, 4], 1.0)
    assert bound.value == pytest.approx(4 / 64)
    assert bound.argmax_l == 1


def test_ssup_exponential_tables_give_log_over_n():
    delta, c = 0.5, 3.0
    ratios = []
    for n in (64, 512, 4096, 32768):
        big_n = constant_big_n(n, delta, 6)
        speeds = [c * delta**big for big in big_n]
        bound = theoretical_zeno_bound_ssup(speeds, 1.0, 1.0, n, big_n, 1.0)
        ratios.append(bound.value / (np.log(n) / n))
    assert max(ratios) <= 4.0  # O(log n / n) with a modest constant


def test_ssup_chain_length_guard():
    with pytest.raises(ValueError, match="1 chain speeds for 2 cutoffs N_l"):
        theoretical_zeno_bound_ssup([0.1], 1.0, 1.0, 8, [1, 1], 1.0)


def test_ssup_zero_generator():
    # L = 0: every chain state past the first vanishes and only the
    # first mixing speed plus the N/n term survive
    bound = theoretical_zeno_bound_ssup([0.125, 0.0, 0.0], 0.0, 1.0, 16, [4, 4, 4], 1.0)
    assert bound.value == pytest.approx(0.125 + 4 / 16)


def attenuator_chain(h, t, x, length):
    """The chain (tLP)^{l-1} x, l = 1..length, for L = -i[H, .] and P = |0><0| Tr.

    L preserves the trace, so PLP = 0 and the chain is
    [x, t Tr(x) L(|0><0|), 0, ...].
    """
    vac = vacuum_state(x.shape[0])
    return [x, t * np.trace(x) * -1j * (h @ vac - vac @ h)] + [np.zeros_like(x)] * (length - 2)


def attenuator_tables(eta, chain, grid):
    """Mixing tables [(N, ||(Phi_{eta^N} - P) y||_1)] of each chain state y, matrix-free."""
    columns = [[trace_norm(dev) for dev in attenuator_deviation(eta**n, chain)] for n in grid]
    return [list(zip(grid, values)) for values in zip(*columns)]


def test_attenuator_chain_states_collapse():
    # the closed-form chain is the dense (tLP)^{l-1} x, and every table entry
    # is the dense ||(M^N - P) y||_1, nonincreasing in N
    d, eta, t = 8, 0.5, 1.0
    h = quadrature_hamiltonian(d)
    l = Generator(hamiltonian=h).superoperator(d)
    p = vacuum_projection_superop(d)
    m = to_superoperator(attenuator_kraus(eta, d))
    x = coherent_vector(0.7, d).projector()
    chain = attenuator_chain(h, t, x, 4)
    step = t * (l.matrix @ p.matrix)
    v = vectorize(x)
    for state in chain:
        assert np.abs(state - devectorize(v)).max() <= 1e-15
        v = step @ v
    grid = list(range(1, 33))
    for state, table in zip(chain, attenuator_tables(eta, chain, grid)):
        for n, value in table:
            dense = devectorize(np.linalg.matrix_power(m.matrix, n) @ vectorize(state)) - apply(p, state)
            assert abs(value - trace_norm(dense)) <= 1e-15
        values = [value for _, value in table]
        assert all(b <= a for a, b in zip(values, values[1:]))


def test_constant_big_n_formula():
    assert constant_big_n(4096, 0.5, 3) == [12, 12, 12]
    assert constant_big_n(8, 0.5, 1) == [3]


def test_zeno_error_dominated_by_ssup_pipeline():
    """Full bound pipeline: the exact mixing speeds of the chain states and
    the exact ||L|| feed the s_sup evaluator, and the fitted-constant
    envelope dominates later Zeno errors on the attenuator instance."""
    d = 8
    eta = 0.5
    t = 1.0
    m = to_superoperator(attenuator_kraus(eta, d))
    p = vacuum_projection_superop(d)
    h = quadrature_hamiltonian(d)
    l = Generator(hamiltonian=h).superoperator(d)
    rho = fock_projector(1, d)
    cfg = ZenoConfig(m=m, l=l, p=p, t=t, test_states=())
    limit = apply(effective_dynamics(p, l, t), rho)

    l_max = 6
    chain = attenuator_chain(h, t, rho, l_max)
    # commutators are traceless, so the chain dies after the second state
    for state in chain[2:]:
        assert np.linalg.norm(state) <= 1e-14
    run = parse_config_text(
        f"[experiment]\nkind = zeno\ndimension = {d}\nt = {t}\n\n[channel]\neta_re = {eta}\n\n[states]\nspecs = fock:1\n"
    )
    l_norm = generator_norm(run)

    def core(n):
        big_n = constant_big_n(n, eta, l_max)
        speeds = [trace_norm(dev) for dev in attenuator_deviation(eta ** big_n[0], chain)]
        return theoretical_zeno_bound_ssup(speeds, l_norm, t, n, big_n, trace_norm(rho))

    grid = [8, 16, 32, 64, 128, 256]
    errors = [trace_norm(zeno_product(cfg, n, rho) - limit) for n in grid]
    bounds = [core(n) for n in grid]
    assert all(b.argmax_l <= 2 for b in bounds)
    # pin the theorem's constant at the first grid point, assert the rest
    c_fit = errors[0] / bounds[0].value
    for err, bound in zip(errors[1:], bounds[1:]):
        assert err <= c_fit * bound.value * (1 + 1e-12)
    # and the evaluated core itself decays like O(log n / n)
    ratios = [b.value / (np.log(n) / n) for n, b in zip(grid, bounds)]
    assert max(ratios) <= 6.0


# ---------------------------------------------------------------------------
# rate fitting


def _records(ns, errs):
    return [SimpleNamespace(parameter=float(n), error=float(e)) for n, e in zip(ns, errs)]


def test_fit_rate_pure_power():
    ns = [8, 16, 32, 64, 128, 256]
    fit = fit_rate(_records(ns, [3.0 / n for n in ns]), model="pure_power")
    assert fit.exponent == pytest.approx(1.0, abs=0.01)
    assert fit.constant == pytest.approx(3.0, rel=0.01)
    assert fit.residual_rms <= 1e-12


def test_fit_rate_power_log():
    ns = [8, 16, 32, 64, 128, 256]
    fit = fit_rate(_records(ns, [np.log(n) / n for n in ns]), model="power_log")
    assert fit.exponent == pytest.approx(1.0, abs=0.01)
    assert fit.constant == pytest.approx(1.0, rel=0.01)


def test_fit_rate_guards():
    ns = [8, 16, 32]
    with pytest.raises(ValueError):
        fit_rate(_records(ns, [1, 1, 1]))  # too few records
    with pytest.raises(ValueError):
        fit_rate(_records([8, 16, 32, 64], [1.0, 0.5, 0.0, 0.1]))  # nonpositive error
    with pytest.raises(ValueError):
        fit_rate(_records([8, 8, 8, 8], [1, 1, 1, 1]))  # degenerate grid
    with pytest.raises(ValueError):
        fit_rate(_records([8, 16, 32, 64], [1, 1, 1, 1]), model="cubic-spline")


def test_fit_log_envelope():
    ns = [8, 16, 32, 64]
    recs = _records(ns, [np.log(n) / n * 0.5 for n in ns])
    c, holds = fit_log_envelope(recs)
    assert holds
    assert c == pytest.approx(0.5, rel=1e-12)
    bad = _records(ns, [0.01, 0.5, 0.5, 0.5])
    _, holds_bad = fit_log_envelope(bad)
    assert not holds_bad
