import cmath
import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from zenolab import channels
from zenolab.channels import (
    Dephasing,
    HamiltonianCommutator,
    KrausChannel,
    Superoperator,
    apply,
    attenuator_deviation,
    attenuator_generator,
    attenuator_kraus,
    attenuator_mixing_bound,
    choi_matrix,
    damped_action,
    is_completely_positive,
    to_superoperator,
    transpose_superoperator,
    vacuum_projection_superop,
    zeno_action,
)
from zenolab.experiments import PRESETS, _generator_parts, build_states, parse_config_text
from zenolab.fock import annihilation, coherent_vector, number_operator, particle_number, trace_distance, vacuum_state
from zenolab.linalg import devectorize, matrix_exp, trace_norm, vectorize
from zenolab.sampling import random_hermitian
from zenolab.zeno import ZenoConfig, damped_evolution, effective_dynamics, zeno_product

RNG = np.random.default_rng(31337)


def rand_state(dim, support=None):
    s = dim if support is None else support
    g = RNG.normal(size=(s, s)) + 1j * RNG.normal(size=(s, s))
    rho = np.zeros((dim, dim), dtype=complex)
    block = g @ g.conj().T
    rho[:s, :s] = block / np.trace(block).real
    return rho


def fock_projector(level, dim):
    rho = np.zeros((dim, dim), dtype=complex)
    rho[level, level] = 1
    return rho


def random_kraus_channel(dim, rank):
    """Random CPTP map: isometry columns carved from a Haar unitary."""
    big, _ = np.linalg.qr(RNG.normal(size=(dim * rank, dim * rank)) + 1j * RNG.normal(size=(dim * rank, dim * rank)))
    iso = big[:, :dim]
    ops = tuple(iso[i * dim : (i + 1) * dim, :] for i in range(rank))
    return KrausChannel(kraus_ops=ops)


# ---------------------------------------------------------------------------
# attenuator Kraus operators


def test_attenuator_l0_kraus_is_eta_powers():
    d = 6
    eta = 0.4 + 0.3j
    k0 = attenuator_kraus(eta, d).kraus_ops[0]
    assert np.allclose(k0, np.diag([eta**n for n in range(d)]))


def test_attenuator_single_photon_action():
    d = 8
    eta = 0.6 + 0.2j
    out = apply(attenuator_kraus(eta, d), fock_projector(1, d))
    expected = abs(eta) ** 2 * fock_projector(1, d) + (1 - abs(eta) ** 2) * fock_projector(0, d)
    assert np.linalg.norm(out - expected) <= 1e-12


def test_attenuator_eta_zero_is_vacuum_replacement():
    d = 6
    rho = rand_state(d)
    out = apply(attenuator_kraus(0.0, d), rho)
    assert np.linalg.norm(out - np.trace(rho) * vacuum_state(d)) <= 1e-12


def test_attenuator_coherent_sweep():
    d = 24
    eta, alpha = 0.5, 0.8
    rho = coherent_vector(alpha, d).projector()
    out = apply(attenuator_kraus(eta, d), rho)
    target = coherent_vector(eta * alpha, d).projector()
    assert trace_distance(out, target) <= 1e-10


def test_attenuator_coherent_action_tail_budget():
    # trace distance bounded by 10 sqrt(tail) whenever the tail budget holds
    for d, alpha, eta in ((24, 1.2, 0.9), (24, 1.8, 0.7), (16, 0.8, 0.5)):
        cv = coherent_vector(alpha, d)
        assert cv.tail_mass <= 1e-12
        out = apply(attenuator_kraus(eta, d), cv.projector())
        target = coherent_vector(eta * alpha, d).projector()
        assert trace_distance(out, target) <= 10 * np.sqrt(cv.tail_mass)


def test_attenuator_rejects_large_eta():
    with pytest.raises(ValueError):
        attenuator_kraus(1.2, 4)


def test_attenuator_trace_preserving_exactly():
    for eta in (0.3, 0.9, 0.5 + 0.5j, 1.0):
        ch = attenuator_kraus(eta, 12)
        total = sum(k.conj().T @ k for k in ch.kraus_ops)
        assert np.linalg.norm(total - np.eye(12)) <= 1e-12


@settings(max_examples=80, deadline=None)
@given(
    d=st.integers(min_value=2, max_value=16),
    radius=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0)),
    angle=st.floats(min_value=-np.pi, max_value=np.pi),
    n=st.integers(min_value=1, max_value=64),
    level=st.one_of(st.none(), st.integers(min_value=0, max_value=15)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_attenuator_deviation_matches_dense_superoperator(d, radius, angle, n, level, seed):
    # the dense oracle: (Phi_{eta^n} - P) vec(rho) with Phi built from its Kraus list
    eta = radius * complex(np.cos(angle), np.sin(angle))
    if level is None:
        g = np.random.default_rng(seed).normal(size=(d, d, 2)) @ [1, 1j]
        rho = g @ g.conj().T / np.trace(g @ g.conj().T)
    else:
        rho = fock_projector(level % d, d)
    dense = to_superoperator(attenuator_kraus(eta**n, d)).matrix - vacuum_projection_superop(d).matrix
    expected = devectorize(dense @ vectorize(rho))
    with np.errstate(divide="raise", invalid="raise"):
        got = attenuator_deviation(eta**n, rho[None])
    assert got.shape == (1, d, d)
    assert np.abs(got[0] - expected).max() <= 1e-12


def test_attenuator_deviation_batch_and_contract():
    states = np.stack([rand_state(9), fock_projector(4, 9), rand_state(9, support=3)])
    batch = attenuator_deviation(0.6 - 0.2j, states)
    for rho, dev in zip(states, batch):
        assert np.array_equal(attenuator_deviation(0.6 - 0.2j, rho[None])[0], dev)
        assert abs(np.trace(dev)) <= 1e-15  # trace preserving, minus a trace-preserving limit
    with pytest.raises(ValueError):
        attenuator_deviation(1.2, states)
    with pytest.raises(ValueError):
        attenuator_deviation(0.5, states[0])  # a single matrix is not a batch


def unit_disc(radius, angle):
    return radius * complex(np.cos(angle), np.sin(angle))


radii = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0))
angles = st.floats(min_value=-np.pi, max_value=np.pi)


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(min_value=2, max_value=64),
    radius=radii,
    angle=angles,
    radius2=radii,
    angle2=angles,
    s=st.floats(min_value=0.01, max_value=10.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_attenuator_weights_closed_forms(d, radius, angle, radius2, angle2, s, seed):
    # what attenuator_check relies on: the Kraus operators K_l, entry (m, m+l)
    # = w[m, l], sum to K^dag K = I (so the anti-diagonal sums of |w|^2 are 1)
    # with w[0, 0] = 1; Phi_{eta1} Phi_{eta2} = Phi_{eta1 eta2}; and at d <= 10
    # exp(sK) is the attenuator at e^{-s}
    eta, eta2 = unit_disc(radius, angle), unit_disc(radius2, angle2)
    w = channels._attenuator_weights(eta, d)
    assert w[0, 0] == 1
    total = np.zeros((d, d), dtype=complex)
    for l in range(d):
        k = np.diag(w[: d - l, l], l)
        total += k.conj().T @ k
    assert np.abs(total - np.eye(d)).max() <= 1e-12
    states = damping_states(d, seed)
    channels.attenuator_check(eta, list(zip("abc", states)))
    twice = attenuator_after(eta, attenuator_after(eta2, states))
    for x, y in zip(twice, attenuator_after(eta * eta2, states)):
        assert trace_norm(x - y) <= 1e-12
    if d <= 10:
        exp_sk = matrix_exp(s * attenuator_generator(d).matrix)
        for x, y in zip(states, attenuator_after(np.exp(-s), states)):
            assert trace_norm(devectorize(exp_sk @ vectorize(x)) - y) <= 1e-12


def test_kraus_constructor_rejects_non_trace_preserving():
    with pytest.raises(ValueError):
        KrausChannel(kraus_ops=(np.eye(2) * 1.1,))
    # trace-non-increasing contract accepts a contraction
    KrausChannel(kraus_ops=(np.eye(2) * 0.9,), trace_preserving=False)


# ---------------------------------------------------------------------------
# superoperator form


def test_identity_channel_superop():
    ch = KrausChannel(kraus_ops=(np.eye(3),))
    assert np.allclose(to_superoperator(ch).matrix, np.eye(9))


def test_unitary_channel_superop():
    u, _ = np.linalg.qr(RNG.normal(size=(3, 3)) + 1j * RNG.normal(size=(3, 3)))
    ch = KrausChannel(kraus_ops=(u,))
    assert np.allclose(to_superoperator(ch).matrix, np.kron(u.conj(), u))


def test_superop_agrees_with_kraus_application():
    ch = random_kraus_channel(4, 3)
    sup = to_superoperator(ch)
    x = RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4))
    assert np.linalg.norm(apply(sup, x) - apply(ch, x)) <= 1e-12


def test_apply_preserves_trace():
    ch = random_kraus_channel(5, 2)
    rho = rand_state(5)
    assert abs(np.trace(apply(ch, rho)) - np.trace(rho)) <= 1e-10


def test_apply_dimension_mismatch():
    ch = attenuator_kraus(0.5, 4)
    with pytest.raises(ValueError):
        apply(ch, np.eye(5))


def test_contractivity_in_trace_norm():
    ch = random_kraus_channel(4, 4)
    for _ in range(5):
        x = RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4))
        assert trace_norm(apply(ch, x)) <= trace_norm(x) + 1e-10


# ---------------------------------------------------------------------------
# Choi matrix and complete positivity


def test_choi_identity_channel():
    d = 3
    choi = choi_matrix(KrausChannel(kraus_ops=(np.eye(d),)))
    w = np.linalg.eigvalsh(choi)
    assert sum(w > 1e-10) == 1  # rank one
    assert w.max() == pytest.approx(d)


def test_choi_attenuator_is_psd():
    choi = choi_matrix(attenuator_kraus(0.7, 6))
    assert np.linalg.eigvalsh((choi + choi.conj().T) / 2).min() >= -1e-10
    assert is_completely_positive(attenuator_kraus(0.7, 6))


def test_transpose_map_not_cp():
    t2 = transpose_superoperator(2)
    x = RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))
    assert np.allclose(apply(t2, x), x.T)
    assert np.linalg.eigvalsh(choi_matrix(t2)).min() < -1e-3
    assert not is_completely_positive(t2)


def test_choi_dimension_guard():
    with pytest.raises(ValueError):
        choi_matrix(attenuator_kraus(0.5, 40))


# ---------------------------------------------------------------------------
# generator and vacuum projection


def test_generator_kills_vacuum():
    k = attenuator_generator(5)
    assert np.linalg.norm(apply(k, vacuum_state(5))) <= 1e-14


def test_generator_single_photon():
    d = 5
    k = attenuator_generator(d)
    out = apply(k, fock_projector(1, d))
    assert np.linalg.norm(out - (2 * fock_projector(0, d) - 2 * fock_projector(1, d))) <= 1e-13


def test_generator_exponential_matches_kraus_superop():
    d = 16
    t = 0.5
    lhs = matrix_exp(t * attenuator_generator(d).matrix)
    rhs = to_superoperator(attenuator_kraus(np.exp(-t), d)).matrix
    assert np.linalg.norm(lhs - rhs) <= 1e-9


def test_attenuator_semigroup_property():
    d = 16
    for _ in range(20):
        e1 = RNG.random() * np.exp(2j * np.pi * RNG.random())
        e2 = RNG.random() * np.exp(2j * np.pi * RNG.random())
        s12 = to_superoperator(attenuator_kraus(e1 * e2, d)).matrix
        s1 = to_superoperator(attenuator_kraus(e1, d)).matrix
        s2 = to_superoperator(attenuator_kraus(e2, d)).matrix
        assert np.linalg.norm(s12 - s1 @ s2) <= 1e-9


def test_vacuum_projection_properties():
    d = 6
    p = vacuum_projection_superop(d)
    assert np.linalg.norm(p.matrix @ p.matrix - p.matrix) <= 1e-12
    assert np.linalg.norm(apply(p, vacuum_state(d)) - vacuum_state(d)) <= 1e-14
    traceless = np.diag([1.0, -1.0] + [0.0] * (d - 2)).astype(complex)
    assert np.linalg.norm(apply(p, traceless)) <= 1e-14


def test_projection_commutes_with_attenuator():
    d = 8
    p = vacuum_projection_superop(d).matrix
    s = to_superoperator(attenuator_kraus(0.6 + 0.1j, d)).matrix
    assert np.linalg.norm(p @ s - p) <= 1e-10
    assert np.linalg.norm(s @ p - p) <= 1e-10


def test_non_uniform_mixing_witness():
    # large coherent states keep ||Phi^n - P|| pinned at 2 for every n
    d = 64
    eta = 0.9
    p = vacuum_projection_superop(d)
    for n in (1, 2, 3):
        alpha = 3.0 / eta**n
        cv = coherent_vector(alpha, d)
        assert cv.tail_mass <= 1e-12
        rho = cv.projector()
        out = apply(attenuator_kraus(eta**n, d), rho)
        assert trace_norm(out - apply(p, rho)) >= 2 - 1e-3


# ---------------------------------------------------------------------------
# mixing bounds


def test_attenuator_mixing_bound_values():
    d = 6
    assert attenuator_mixing_bound(0.5, 2, vacuum_state(d)) == pytest.approx(4 * 0.25)
    assert attenuator_mixing_bound(0.5, 3, fock_projector(1, d)) == pytest.approx(1.0)
    rho = rand_state(d)
    gamma_val = attenuator_mixing_bound(0.0, 2.0, rho, continuous=True)
    assert gamma_val == pytest.approx(4 * np.exp(-2.0) * (particle_number(rho) + 1))


# ---------------------------------------------------------------------------
# generator specs


def test_hamiltonian_commutator_generator():
    d = 4
    g = RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d))
    h = (g + g.conj().T) / 2
    sup = HamiltonianCommutator(hamiltonian=h).to_superoperator(d)
    x = RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d))
    assert np.linalg.norm(apply(sup, x) - (-1j) * (h @ x - x @ h)) <= 1e-12


def test_hamiltonian_commutator_rejects_non_hermitian():
    with pytest.raises(ValueError):
        HamiltonianCommutator(hamiltonian=np.array([[0, 1], [0, 0]], dtype=complex))


def test_dephasing_generator_action():
    d = 5
    rate = 0.3
    sup = Dephasing(rate=rate).to_superoperator(d)
    x = RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d))
    n = np.diag(np.arange(d)).astype(complex)
    expected = rate * (n @ x @ n - 0.5 * (n @ n @ x + x @ n @ n))
    assert np.linalg.norm(apply(sup, x) - expected) <= 1e-12


def test_dephasing_rejects_negative_rate():
    with pytest.raises(ValueError):
        Dephasing(rate=-0.1)


def test_superoperator_shape_guard():
    with pytest.raises(ValueError):
        Superoperator(matrix=np.eye(5))


# ---------------------------------------------------------------------------
# the damped action exp(t (gamma K + L)) by the contour integral


def damping_states(d, seed):
    """The top Fock level (the longest jump chain), coherent:1.5 and a full-rank random state."""
    g = np.random.default_rng(seed).normal(size=(d, d, 2)) @ [1, 1j]
    random = g @ g.conj().T
    return np.stack([fock_projector(d - 1, d), coherent_vector(1.5, d).projector(), random / np.trace(random)])


def commuting_closed_form(states, gamma, t, factor):
    """``Phi_{e^{-gamma t}}(e^{tL} x)`` for an ``L`` that commutes with ``K``:
    ``e^{tL}`` multiplies entry ``(m, n)`` by ``factor[m, n]``."""
    x = states * factor
    out = attenuator_deviation(np.exp(-gamma * t), x)
    out[:, 0, 0] += np.trace(x, axis1=1, axis2=2)
    return out


@pytest.mark.parametrize("generator", ["number", "dephasing"])
@pytest.mark.parametrize("gamma, t", [(0.02, 2.5), (0.3, 1.0), (2048.0, 1.0)])
def test_damped_action_matches_commuting_closed_form_at_d64(generator, gamma, t):
    # K commutes with -i[s N, .] and with dephasing, so exp(t(gamma K + L)) is
    # the attenuator at e^{-gamma t} after exp(tL), which multiplies entry
    # (m, n) by e^{-i t s (m - n)} or e^{-t r (m - n)^2 / 2}.  No dense oracle
    # runs at d = 64.  t gamma = 0.3 is where one step of the quadrature is
    # worst on |63><63| (1.2e-8 off); the weak-damping substeps must fix it.
    d = 64
    states = damping_states(d, 64)
    charge = np.subtract.outer(np.arange(d), np.arange(d))
    if generator == "number":
        s = 0.05  # 2 t ||H||_2 = 6.3 t: several substeps
        got = damped_action(gamma, t, states, hamiltonian=s * number_operator(d))
        factor = np.exp(-1j * t * s * charge)
    else:
        r = 0.3
        got = damped_action(gamma, t, states, dephasing_rate=r)
        factor = np.exp(-t * r * charge**2 / 2)
    expected = commuting_closed_form(states, gamma, t, factor)
    for g, e in zip(got, expected):
        assert trace_norm(g - e) <= 1e-12


def generator_parts(kind, d, scale, seed):
    """``(H, dephasing rate, L)`` of one generator kind, ``L`` as a dense Superoperator."""
    if kind == "dephasing":
        return None, scale, Dephasing(rate=scale).to_superoperator(d)
    if kind == "none":
        return None, 0.0, Superoperator(matrix=np.zeros((d * d, d * d)))
    if kind == "quadrature":
        a = annihilation(d)
        h = scale * (a + a.conj().T)
    elif kind == "number":
        h = scale * number_operator(d)
    else:
        h = random_hermitian(d, np.random.default_rng(seed), norm=scale)
    return h, 0.0, HamiltonianCommutator(hamiltonian=h).to_superoperator(d)


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(min_value=2, max_value=12),
    kind=st.sampled_from(["quadrature", "number", "random", "dephasing", "none"]),
    log_gamma=st.floats(min_value=math.log(0.01), max_value=math.log(4096)),
    t=st.floats(min_value=0.1, max_value=5.0),
    # scipy's expm returns NaN for a generator with entries near the
    # underflow threshold (2.2e-308), so a scale is either 0 or at least 1e-6
    scale=st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=4.0)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_damped_action_matches_dense_oracle(d, kind, log_gamma, t, scale, seed):
    gamma = min(math.exp(log_gamma), 4096.0)
    h, rate, l = generator_parts(kind, d, scale, seed)
    k, p = attenuator_generator(d), vacuum_projection_superop(d)
    limit = effective_dynamics(p, l, t)
    states = damping_states(d, seed)
    got = damped_action(gamma, t, states, hamiltonian=h, dephasing_rate=rate)
    # each substep adds its own quadrature error, about 1e-13 at most
    spread = 0.0 if h is None else 2 * t * np.linalg.norm(h, 2)
    steps = max(1 if t * gamma >= 1 else 3, math.ceil(spread / channels._SUBSTEP_SPREAD))
    # entries against scipy: at gamma t ~ 1e4 the dense matrix_exp itself
    # drifts by up to 5e-10 entrywise, while its error column stays within
    # about 1e-13 of scipy's
    exact = scipy.linalg.expm(t * (gamma * k.matrix + l.matrix))
    for x, y in zip(states, got):
        lim = apply(limit, x)
        dense = damped_evolution(k, l, t, gamma, x)
        assert abs(trace_norm(y - lim) - trace_norm(dense - lim)) <= 1e-12 * steps
        assert np.abs(y - devectorize(exact @ vectorize(x))).max() <= 1e-10


def test_contour_points_are_pinned(monkeypatch):
    # exp(0.3 K) at d = 48 against the exact attenuator at e^{-0.3}: the
    # attenuator generator's jump chains are close to defective and amplify
    # the quadrature's error in the Taylor coefficients of e^z, most on
    # |47><47|.  48 nodes keep the trace-norm error near 5e-14; 40 nodes
    # miss 1e-12 by about ten times, substeps and all.
    d = 48
    states = damping_states(d, 48)
    expected = commuting_closed_form(states, 0.3, 1.0, 1.0)

    def worst():
        return max(trace_norm(g - e) for g, e in zip(damped_action(0.3, 1.0, states), expected))

    assert channels._CONTOUR_POINTS == 48
    assert worst() <= 1e-12
    monkeypatch.setattr(channels, "_CONTOUR_POINTS", 40)
    assert worst() > 1e-12


def test_damped_action_contract():
    states = damping_states(6, 1)
    batch = damped_action(4.0, 0.5, states, hamiltonian=0.2 * number_operator(6), dephasing_rate=0.1)
    assert batch.shape == states.shape
    for x, y in zip(states, batch):
        assert np.array_equal(y, y.conj().T)  # Hermitian by construction
        assert abs(np.trace(y) - np.trace(x)) <= 1e-13  # trace preserving
        alone = damped_action(4.0, 0.5, x[None], 0.2 * number_operator(6), 0.1)[0]
        assert np.abs(alone - y).max() <= 1e-14  # the batch changes only the summation order
    with pytest.raises(ValueError):
        damped_action(4.0, 0.5, states[0])  # a single matrix is not a batch
    with pytest.raises(ValueError):
        damped_action(4.0, 0.5, states + 1j * np.eye(6))  # not Hermitian
    with pytest.raises(ValueError):
        damped_action(-1.0, 0.5, states)
    with pytest.raises(ValueError):
        damped_action(4.0, 0.5, states, hamiltonian=np.eye(5))


@pytest.mark.parametrize("kind", ["quadrature", "random"])
@pytest.mark.parametrize("d, gamma, t", [(4, 0.3, 2.0), (8, 2.0, 1.0), (12, 64.0, 0.5)])
def test_damped_action_krylov_solve_matches_dense_oracle(monkeypatch, kind, d, gamma, t):
    # one fixed-point iteration, then GMRES at every node: the Krylov path
    # alone must reproduce the dense exponential, and map a zero state to 0
    monkeypatch.setattr(channels, "_ITERATIONS", 1)
    monkeypatch.setattr(channels, "_KRYLOV_LEVELS", 20)
    h, _, l = generator_parts(kind, d, 2.0, d)
    states = np.concatenate([damping_states(d, d), np.zeros((1, d, d))])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = damped_action(gamma, t, states, hamiltonian=h)
    steps = channels.damping_substeps(gamma, t, np.linalg.norm(h, 2))
    exact = scipy.linalg.expm(t * (gamma * attenuator_generator(d).matrix + l.matrix))
    for x, y in zip(states, got):
        assert trace_norm(y - devectorize(exact @ vectorize(x))) <= 1e-12 * steps


def counted_attenuator_steps(monkeypatch) -> list:
    """Patch the attenuator application that zeno_action looks up; one entry per step."""
    calls = []
    apply_once = channels._attenuator_apply

    def counted(products, x):
        calls.append(len(x))
        return apply_once(products, x)

    monkeypatch.setattr(channels, "_attenuator_apply", counted)
    return calls


def assert_matches_dense_zeno(got, states, cfg, n):
    """Each image against zeno.zeno_product, and its trace against the input's.

    The exact product preserves the trace.  The dense power loses up to about
    n 2e-16 of it by rounding (8.7e-13 at d = 7, n = 3819, where the kernel is
    within 6e-14 of a long-double iteration), so that defect is charged to
    the reference.  The kernel's own trace loss, a few ulp per step taken,
    stayed below 7e-14 over 750 random cases of the range below.
    """
    for x, y in zip(states, got):
        dense = zeno_product(cfg, n, x)
        assert trace_norm(y - dense) <= 1e-12 + abs(np.trace(dense - x))
        assert abs(np.trace(y - x)) <= 2e-13


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(min_value=2, max_value=10),
    radius=st.floats(min_value=0.0, max_value=0.9),
    angle=st.floats(min_value=-np.pi, max_value=np.pi),
    kind=st.sampled_from(["quadrature", "number", "random", "dephasing", "none"]),
    scale=st.floats(min_value=0.0, max_value=1.0),
    t=st.floats(min_value=0.1, max_value=3.0),
    n=st.integers(min_value=1, max_value=4096),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_zeno_action_matches_dense_reference(d, radius, angle, kind, scale, t, n, seed):
    eta = radius * complex(np.cos(angle), np.sin(angle))
    h, rate, l = generator_parts(kind, d, scale, seed)
    m = to_superoperator(attenuator_kraus(eta, d))
    cfg = ZenoConfig(m=m, l=l, p=vacuum_projection_superop(d), t=t, n_grid=(n,), test_states=())
    states = damping_states(d, seed)
    assert_matches_dense_zeno(zeno_action(n, t, states, eta, hamiltonian=h, dephasing_rate=rate), states, cfg, n)


def test_zeno_action_takes_every_step_when_m_is_not_mixing(monkeypatch):
    # at eta = 1j the attenuator is the unitary phase e^{i pi N / 2}: it passes
    # validate(), but the iterate never settles, so no step may be skipped
    d = 6
    a = annihilation(d)
    h = 0.3 * (a + a.conj().T)
    states = damping_states(d, 6)
    cfg = ZenoConfig(
        m=to_superoperator(attenuator_kraus(1j, d)),
        l=HamiltonianCommutator(hamiltonian=h).to_superoperator(d),
        p=vacuum_projection_superop(d),
        t=1.0,
        n_grid=(8,),
        test_states=tuple(zip("abc", states)),
    )
    cfg.validate()
    calls = counted_attenuator_steps(monkeypatch)
    for n in (8, 64, 512):
        calls.clear()
        got = zeno_action(n, 1.0, states, 1j, hamiltonian=h)
        assert len(calls) == n
        assert_matches_dense_zeno(got, states, cfg, n)


def test_zeno_action_settles_on_the_d24_benchmark_within_100_steps(monkeypatch):
    # the attenuator-zeno preset at d = 24 plus a full-rank random state: at
    # eta = 1/2 the step forgets its input geometrically, so at n = 4096 it
    # stops moving the states after tens of steps (71 here)
    text = (
        PRESETS["attenuator-zeno"][1]
        .replace("dimension = 16", "dimension = 24")
        .replace("specs = fock:1, coherent:0.8", "specs = fock:1, coherent:0.8, random:0")
    )
    cfg = parse_config_text(text)
    h, rate = _generator_parts(cfg, cfg.dimension)
    states = np.stack([rho for _, rho in build_states(cfg, cfg.dimension)])
    calls = counted_attenuator_steps(monkeypatch)
    zeno_action(4096, cfg.t, states, cfg.eta, hamiltonian=h, dephasing_rate=rate)
    assert 0 < len(calls) <= 100


def attenuator_after(eta, x):
    """``Phi_eta(x)`` for a batch, from :func:`attenuator_deviation`."""
    out = attenuator_deviation(eta, x)
    out[:, 0, 0] += np.trace(x, axis1=1, axis2=2)
    return out


def test_zeno_action_matches_phase_covariant_closed_form_at_d64():
    # the attenuator commutes with -i[s N, .], so (M e^{tL/n})^n is the
    # attenuator at eta^n after e^{tL}, which multiplies entry (m, n) by
    # e^{-i t s (m - n)}.  No dense oracle runs at d = 64.
    d, eta, s, t = 64, 0.45 + 0.2j, 0.05, 1.0
    states = damping_states(d, 64)
    rotated = states * np.exp(-1j * t * s * np.subtract.outer(np.arange(d), np.arange(d)))
    for n in 8 * 2 ** np.arange(10):
        got = zeno_action(int(n), t, states, eta, hamiltonian=s * number_operator(d))
        expected = attenuator_after(cmath.rect(abs(eta) ** n, n * cmath.phase(eta)), rotated)
        for g, e in zip(got, expected):
            assert trace_norm(g - e) <= 1e-12


def test_zeno_action_contract():
    d = 5
    states = damping_states(d, 2)
    a = annihilation(d)
    h = 0.2 * (a + a.conj().T)
    batch = zeno_action(16, 0.5, states, 0.6, hamiltonian=h)
    assert batch.shape == states.shape
    for x, y in zip(states, batch):
        assert np.array_equal(y, y.conj().T)  # Hermitian by construction
        alone = zeno_action(16, 0.5, x[None], 0.6, hamiltonian=h)[0]
        # the batch may stop later than a state alone, never before its bound
        assert trace_norm(alone - y) <= 1e-13
    # the superoperator of the same channel gives the same images
    m = to_superoperator(attenuator_kraus(0.6, d))
    assert np.abs(zeno_action(16, 0.5, states, m, hamiltonian=h) - batch).max() <= 1e-14
    for bad in (
        lambda: zeno_action(16, 0.5, states[0], 0.6),  # a single matrix is not a batch
        lambda: zeno_action(16, 0.5, states + 1j * np.eye(d), 0.6),  # not Hermitian
        lambda: zeno_action(0, 0.5, states, 0.6),
        lambda: zeno_action(16, 0.0, states, 0.6),
        lambda: zeno_action(16, 0.5, states, 1.2),
        lambda: zeno_action(16, 0.5, states, 0.6, hamiltonian=np.eye(d + 1)),
        lambda: zeno_action(16, 0.5, states, 0.6, hamiltonian=h, dephasing_rate=0.1),
        lambda: zeno_action(16, 0.5, states, to_superoperator(attenuator_kraus(0.6, d + 1))),
    ):
        with pytest.raises(ValueError):
            bad()
