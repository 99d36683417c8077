import cmath
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zenolab import channels
from zenolab.channels import (
    Generator,
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
    vacuum_projection_superop,
    zeno_action,
)
from zenolab.experiments import PRESETS, _generator, build_states, parse_config_text
from zenolab.fock import annihilation, coherent_vector, number_operator, trace_distance, vacuum_state
from zenolab.linalg import devectorize, matrix_exp, trace_norm, vectorize
from zenolab.sampling import random_density_matrix, random_gapped_channel, random_hermitian, stream
from zenolab.zeno import ZenoConfig, effective_dynamics

from dense_reference import damped_evolution, damped_evolution_sparse, transpose_superoperator, zeno_product

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


def attenuator_loop(eta, x):
    """``Phi_eta(x)`` by ``d`` sliced outer-product updates of the Kraus weights, the reference of the Toeplitz kernel.

    It runs in long double, weights included (the recurrence of
    ``channels._attenuator_weights``), so that its own rounding, about ``d``
    ulp of double at ``|eta| = 1``, does not count against the kernel.  Like
    the kernel, it takes ``|eta|`` and ``1 - |eta|^2`` in double.
    """
    d = x.shape[1]
    radius = abs(complex(eta))
    eta = np.clongdouble(eta) / abs(np.clongdouble(eta)) * np.longdouble(radius) if radius else np.clongdouble(0)
    levels = np.arange(d, dtype=np.longdouble)
    w = np.empty((d, d), dtype=np.clongdouble)
    w[0] = np.sqrt(np.longdouble(1.0 - min(radius**2, 1.0))) ** levels
    w[1:] = eta * np.sqrt((levels[1:, None] + levels) / levels[1:, None])
    np.cumprod(w, axis=0, out=w)
    out = np.zeros(x.shape, dtype=np.clongdouble)
    for l in range(d):
        k = d - l
        out[:, :k, :k] += np.outer(w[:k, l], w[:k, l].conj()) * x[:, l:, l:]
    return out


def attenuator_kernel(eta, x):
    return channels._attenuator_apply(channels._attenuator_plan(eta, x.shape[1]), x)


def hermitian_batch(d, seed):
    """A Fock projector, a full-rank density matrix and a Hermitian matrix of both signs."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(2, d, d, 2)) @ [1, 1j]
    rho = g[0] @ g[0].conj().T
    return np.stack([fock_projector(int(rng.integers(d)), d), rho / np.trace(rho).real, g[1] + g[1].conj().T])


def assert_matches_loop(eta, x, tol):
    got = attenuator_kernel(eta, x)
    assert np.isfinite(got).all()
    for y, expected, xi in zip(got, attenuator_loop(eta, x), x):
        assert np.abs(y - expected).max() <= tol * trace_norm(xi)


@settings(max_examples=80, deadline=None)
@given(
    d=st.integers(min_value=2, max_value=40),
    radius=radii,
    angle=angles,
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_attenuator_kernel_matches_the_slice_loop(d, radius, angle, seed):
    # to 1e-15 of each input's trace norm, entry by entry
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        assert_matches_loop(unit_disc(radius, angle), hermitian_batch(d, seed), 1e-15)


@pytest.mark.parametrize("d, eta", [(128, 0.5), (200, 0.1), (200, 0.5), (200, 0.95), (200, 0.6 + 0.3j)])
def test_attenuator_kernel_past_the_factorial_range(d, eta):
    # s_j = sqrt(j!) overflows past j = 170, so d = 200 takes two blocks of
    # levels and three tiles.  At d = 128, eta = 0.5, flushing c_l below
    # sqrt(tiny) ~ 1.5e-154 would move entry (29, 29) by 2.8e-5: c_98 ~
    # 6e-167 meets s s ~ 1e213.  Measured: at most 9.4e-16 of the trace norm
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        assert_matches_loop(eta, hermitian_batch(d, 7), 2e-15)


@pytest.mark.parametrize("eta", [0.0, 0.99995])
def test_attenuator_plan_keeps_its_scales_in_range_at_d2000(eta):
    # one block of 2000 levels would take out-scales past 2^1000 (2^901 at
    # d = 1500); in blocks of 128 they stay below 2^290, so what underflows
    # costs at most 128 2^-784 of an entry
    tables, tiles = channels._attenuator_plan(eta, 2000)
    for rows, cols, toeplitz, gauge, shift, scales in tiles:
        scale_in, scale_out = scales or channels._tile_scales(tables, rows, cols, gauge, shift)
        assert np.abs(toeplitz).max() < 1 and np.abs(scale_in).max() < 1
        assert np.abs(scale_out).max() < 2.0**300


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(min_value=2, max_value=150),
    radius=radii,
    angle=angles,
    radius2=radii,
    angle2=angles,
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
# |eta mu| rounds an ulp above 1 here; the kernel takes it as 1 and keeps the trace
@example(d=141, radius=1.0, angle=2.920121116515129, radius2=1.0, angle2=2.920121116515129, seed=0)
def test_attenuator_kernel_keeps_the_semigroup_law_the_trace_and_hermiticity(d, radius, angle, radius2, angle2, seed):
    # Phi_eta Phi_mu = Phi_{eta mu} and Tr Phi(x) = Tr x, across the one-block
    # and two-block plans; the image is Hermitian entry for entry.  eta mu is
    # rounded, and an ulp of |eta mu| moves Phi_{eta mu}(|k><k|) by 4k ulp in
    # trace norm (5.8e-14 at |eta| = |mu| = 1, k = 140), hence the d term
    eta, mu = unit_disc(radius, angle), unit_disc(radius2, angle2)
    x = hermitian_batch(d, seed)
    once = attenuator_kernel(eta * mu, x)
    twice = attenuator_kernel(eta, attenuator_kernel(mu, x))
    for a, b, xi in zip(twice, once, x):
        size = trace_norm(xi)
        assert trace_norm(a - b) <= (2e-14 + 2e-15 * d) * size
        assert abs(np.trace(b) - np.trace(xi)) <= 5e-14 * size
        assert np.array_equal(a, a.conj().T) and np.array_equal(b, b.conj().T)


@settings(max_examples=60, deadline=None)
@given(d=st.integers(min_value=1, max_value=10), radius=radii, angle=angles)
def test_attenuator_kernel_is_completely_positive(d, radius, angle):
    # the Choi matrix sum_ij |i><j| (x) Phi(|i><j|), with Phi(|i><j|) taken
    # from the kernel's images of the Hermitian E_ij + E_ji and i(E_ij - E_ji)
    eta = unit_disc(radius, angle)
    unit = np.eye(d * d, dtype=np.complex128).reshape(d * d, d, d)
    images = attenuator_kernel(eta, np.concatenate([unit + unit.transpose(0, 2, 1), 1j * (unit - unit.transpose(0, 2, 1))]))
    phi = ((images[: d * d] - 1j * images[d * d :]) / 2).reshape(d, d, d, d)
    choi = phi.transpose(0, 2, 1, 3).reshape(d * d, d * d)
    assert np.linalg.eigvalsh(choi).min() >= -1e-12


def test_attenuator_deviation_requires_a_hermitian_batch():
    # the kernel reads the lower triangles only, so a non-Hermitian input
    # is refused once per call rather than mapped wrongly
    x = hermitian_batch(6, 3)
    x[1, 0, 5] += 1e-6
    with pytest.raises(ValueError, match="Hermitian"):
        attenuator_deviation(0.5, x)


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


# ---------------------------------------------------------------------------
# generator specs


def test_hamiltonian_commutator_generator():
    d = 4
    g = RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d))
    h = (g + g.conj().T) / 2
    sup = Generator(hamiltonian=h).superoperator(d)
    x = RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d))
    assert np.linalg.norm(apply(sup, x) - (-1j) * (h @ x - x @ h)) <= 1e-12


def test_dephasing_generator_action():
    d = 5
    rate = 0.3
    sup = Generator(dephasing_rate=rate).superoperator(d)
    x = RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d))
    n = np.diag(np.arange(d)).astype(complex)
    expected = rate * (n @ x @ n - 0.5 * (n @ n @ x + x @ n @ n))
    assert np.linalg.norm(apply(sup, x) - expected) <= 1e-12


def test_generator_superoperator_action():
    # -i[H, x] + r (N x N - {N^2, x}/2) with both terms at once
    d = 5
    rate = 0.3
    g = RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d))
    h = (g + g.conj().T) / 2
    x = RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d))
    n = np.diag(np.arange(d)).astype(complex)
    sup = Generator(hamiltonian=h, dephasing_rate=rate).superoperator(d)
    expected = rate * (n @ x @ n - 0.5 * (n @ n @ x + x @ n @ n)) - 1j * (h @ x - x @ h)
    assert np.linalg.norm(apply(sup, x) - expected) <= 1e-12


@pytest.mark.parametrize(
    "hamiltonian, rate",
    [
        # eigh reads only the lower triangle, so zeno_action would run this H as H = 0
        (np.array([[0, 1], [0, 0]], dtype=complex), 0.0),
        (np.zeros((2, 3)), 0.0),
        (None, -0.1),
        # NaN passes a `rate < 0` guard and turns every image into NaN
        (None, float("nan")),
    ],
    ids=["upper-only", "non-square", "negative-rate", "nan-rate"],
)
def test_generator_rejects_invalid_inputs(hamiltonian, rate):
    with pytest.raises(ValueError):
        Generator(hamiltonian=hamiltonian, dephasing_rate=rate)


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
        got = damped_action(gamma, t, states, Generator(hamiltonian=s * number_operator(d)))
        factor = np.exp(-1j * t * s * charge)
    else:
        r = 0.3
        got = damped_action(gamma, t, states, Generator(dephasing_rate=r))
        factor = np.exp(-t * r * charge**2 / 2)
    expected = commuting_closed_form(states, gamma, t, factor)
    for g, e in zip(got, expected):
        assert trace_norm(g - e) <= 1e-12


def generator_parts(kind, d, scale, seed):
    """``(Generator, L)`` of one generator kind, ``L`` as a dense Superoperator.

    ``quadrature+dephasing`` is the quadrature ``H`` plus dephasing at the
    same ``scale``, which only the damping kernel takes.
    """
    h, rate = None, 0.0
    if kind.endswith("dephasing"):
        rate = scale
    if kind.startswith("quadrature"):
        a = annihilation(d)
        h = scale * (a + a.conj().T)
    elif kind == "number":
        h = scale * number_operator(d)
    elif kind == "random":
        h = random_hermitian(d, np.random.default_rng(seed), norm=scale)
    generator = Generator(hamiltonian=h, dephasing_rate=rate)
    return generator, generator.superoperator(d)


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(min_value=2, max_value=12),
    kind=st.sampled_from(["quadrature", "number", "random", "dephasing", "quadrature+dephasing", "none"]),
    log_gamma=st.floats(min_value=math.log(0.01), max_value=math.log(4096)),
    t=st.floats(min_value=0.1, max_value=5.0),
    # scipy's expm returns NaN for a generator with entries near the
    # underflow threshold (2.2e-308), so a scale is either 0 or at least 1e-6
    scale=st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=4.0)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_damped_action_matches_dense_oracle(d, kind, log_gamma, t, scale, seed):
    gamma = min(math.exp(log_gamma), 4096.0)
    generator, l = generator_parts(kind, d, scale, seed)
    k, p = attenuator_generator(d), vacuum_projection_superop(d)
    limit = effective_dynamics(p, l, t)
    states = damping_states(d, seed)
    got = damped_action(gamma, t, states, generator)
    # each substep adds its own quadrature error, about 1e-13 at most
    spread = 2 * t * np.linalg.norm(generator.hamiltonian_on(d), 2)
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
    generator = Generator(hamiltonian=0.2 * number_operator(6), dephasing_rate=0.1)
    batch = damped_action(4.0, 0.5, states, generator)
    assert batch.shape == states.shape
    for x, y in zip(states, batch):
        assert np.array_equal(y, y.conj().T)  # Hermitian by construction
        assert abs(np.trace(y) - np.trace(x)) <= 1e-13  # trace preserving
        alone = damped_action(4.0, 0.5, x[None], generator)[0]
        assert np.abs(alone - y).max() <= 1e-14  # the batch changes only the summation order
    with pytest.raises(ValueError):
        damped_action(4.0, 0.5, states[0])  # a single matrix is not a batch
    with pytest.raises(ValueError):
        damped_action(4.0, 0.5, states + 1j * np.eye(6))  # not Hermitian
    with pytest.raises(ValueError):
        damped_action(-1.0, 0.5, states)
    with pytest.raises(ValueError):
        damped_action(4.0, 0.5, states, Generator(hamiltonian=np.eye(5)))


settled_as_shipped = channels._settled


@pytest.mark.parametrize("kind", ["quadrature", "random"])
@pytest.mark.parametrize("d, gamma, t", [(4, 0.3, 2.0), (8, 2.0, 1.0), (12, 64.0, 0.5)])
def test_damped_action_halved_substeps_match_dense_oracle(monkeypatch, kind, d, gamma, t):
    # the first substep is made not to settle, so it and every substep after
    # it run as two of half the length: the halved substeps alone must
    # reproduce the dense exponential, and map a zero state to 0.  Each
    # attempt at a substep starts with no previous residual
    attempts = []

    def settled(error, previous):
        if np.isinf(previous).all():
            attempts.append(len(error))
        if len(attempts) == 1:
            return np.zeros(len(error), dtype=bool)
        return settled_as_shipped(error, previous)

    monkeypatch.setattr(channels, "_settled", settled)
    generator, l = generator_parts(kind, d, 2.0, d)
    states = np.concatenate([damping_states(d, d), np.zeros((1, d, d))])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = damped_action(gamma, t, states, generator)
    steps = channels.damping_substeps(gamma, t, np.linalg.norm(generator.hamiltonian, 2))
    assert len(attempts) == 1 + 2 * steps
    exact = scipy.linalg.expm(t * (gamma * attenuator_generator(d).matrix + l.matrix))
    for x, y in zip(states, got):
        assert trace_norm(y - devectorize(exact @ vectorize(x))) <= 1e-12 * 2 * steps


def test_damped_action_with_a_dense_hamiltonian_at_d64_matches_expm_multiply():
    # a random H of norm 1 at d = 64 and gamma = t = 1: the iteration stops
    # contracting at the far nodes and the substeps are halved.  Over the
    # unhalved substep the 48-node contour sum is off by 2.6e-5 on |63><63|
    d = 64
    h = random_hermitian(d, stream(11, 2), norm=1.0)
    top = np.zeros((d, d), dtype=np.complex128)
    top[-1, -1] = 1.0
    states = np.stack([random_density_matrix(d, stream(11, 1000)), top])
    got = damped_action(1.0, 1.0, states, Generator(hamiltonian=h))
    for x, y in zip(states, got):
        assert trace_norm(y - damped_evolution_sparse(h, 1.0, 1.0, x)) <= 1e-12


def damped_action_all_nodes(gamma, t, x, h, rate):
    """``damped_action`` by the fixed-point loop it replaced, the reference of its node buffers.

    Every node iterates, laid out ``(m, node, state, n)``, until all of them
    have settled, and every iteration allocates its arrays afresh.  It never
    halves a substep and fails where one would be halved.
    """
    s, d = x.shape[:2]
    h = np.zeros((d, d), dtype=np.complex128) if h is None else np.asarray(h, dtype=np.complex128)
    steps = int(channels.damping_substeps(gamma, t, np.linalg.norm(h, 2)))
    tau = t / steps
    z, w = channels._contour(channels._CONTOUR_POINTS)
    levels, e = np.arange(d), np.diagonal(h)
    charge = levels[:, None] - levels
    diagonal = tau * (gamma * (levels[:, None] + levels) + 0.5 * rate * charge**2 + 1j * (e[:, None] - e))
    inverse = 1.0 / (z[:, None, None] + diagonal[:, None, None, :])
    root = np.sqrt(levels[1:])
    jump = (2.0 * tau * gamma * np.outer(root, root))[:, None, None, :] * inverse[:-1, :, :, :-1]
    off = -1j * tau * (h - np.diag(e))

    def solve(f):
        y = f * inverse
        for m in range(d - 2, -1, -1):
            y[m, :, :, :-1] += jump[m] * y[m + 1, :, :, 1:]
        return y

    def apply_b(y):
        return (off @ y.reshape(d, -1)).reshape(y.shape) - (y.reshape(-1, d) @ off).reshape(y.shape)

    def norm(y):
        return np.sqrt(np.einsum("mpsn,mpsn->ps", y.conj(), y).real)

    def substep(x):
        v = x.transpose(1, 0, 2)[:, None]
        if not off.any():
            return solve(v)
        norms = np.maximum(np.linalg.norm(x.reshape(s, -1), axis=1), np.finfo(float).tiny)
        by, previous = 0.0, np.full(len(z), np.inf)
        for j in range(channels._ITERATIONS):
            y = solve(v + by)
            if not j:
                weight = np.abs(w)[:, None] * np.maximum(1.0, norm(y) / norms)
            by, residual = apply_b(y), by
            residual -= by
            error = (weight * norm(residual) / norms).max(axis=1)
            done = settled_as_shipped(error, previous)
            if done.all():
                return y
            assert not (~done & (error > previous / 2)).any(), "the reference does not halve substeps"
            previous = error
        raise AssertionError("the reference does not halve substeps")

    for _ in range(steps):
        out = np.einsum("p,mpsn->smn", w, substep(x))
        x = out + out.conj().transpose(0, 2, 1)
    return x


def assert_matches_all_nodes(gamma, t, states, generator):
    # per state, in trace norm, to 1e-14 of the reference's own norm per
    # substep.  A node that leaves the batch keeps the solution on which it
    # settled, while the reference iterates it on: measured at most 1.9e-14
    # at 3 substeps (random H, gamma = 0.3), where both are 3e-14 to 5e-14
    # from scipy's expm
    h, rate = generator.hamiltonian, generator.dephasing_rate
    steps = channels.damping_substeps(gamma, t, 0.0 if h is None else np.linalg.norm(h, 2))
    got = damped_action(gamma, t, states, generator)
    for g, e in zip(got, damped_action_all_nodes(gamma, t, states, h, rate)):
        assert trace_norm(g - e) <= 1e-14 * steps * trace_norm(e)


@pytest.mark.parametrize("gamma", [0.3, 2.0, 32.0, 2048.0])
@pytest.mark.parametrize("d", [4, 8, 16, 24])
@pytest.mark.parametrize("kind, scale", [("quadrature", None), ("quadrature", 0.25), ("random", 1.0), ("dephasing", 0.3)])
def test_damped_action_matches_the_all_nodes_loop(kind, scale, d, gamma):
    # the node-leading buffers and the shrinking batch against the loop that
    # iterated every node to the end; quadrature at 1/d is the shipped H
    generator, _ = generator_parts(kind, d, 1.0 / d if scale is None else scale, d)
    assert_matches_all_nodes(gamma, 1.0, damping_states(d, d), generator)


def test_damped_action_iterates_a_settled_node_inside_the_batch(monkeypatch):
    # the far nodes settle first, so the batch shrinks from the end.  A node
    # made to settle at the first iteration while later nodes have not stays
    # in the batch and iterates on; had it kept its first iterate, it would be
    # off by far more than 1e-14
    d, gamma, middle = 16, 2.0, 10
    generator, _ = generator_parts("random", d, 1.0, 5)
    states = damping_states(d, 5)
    sizes, forced = [], []

    def settled(error, previous):
        done = settled_as_shipped(error, previous)
        sizes.append(len(error))
        if len(sizes) == 1:
            forced.append((done[middle], done[middle + 1 :].all()))
            done[middle] = True
        return done

    monkeypatch.setattr(channels, "_settled", settled)
    assert_matches_all_nodes(gamma, 1.0, states, generator)
    assert forced == [(False, False)]  # a later node was unsettled when the middle one was made to settle
    assert sizes[0] == len(channels._contour(channels._CONTOUR_POINTS)[0])
    assert all(a >= b for a, b in zip(sizes, sizes[1:])) and sizes[-1] < sizes[0]


@pytest.mark.parametrize("gamma", [8.0, 2048.0])
def test_damped_action_holds_at_most_six_batch_arrays(gamma):
    # the damping-d24 workload's call: 24 nodes x 3 states x 24^2 complex is
    # one batch array; the iteration allocates none, and its four buffers,
    # the coefficients and the result stay within six of them
    d = 24
    a = annihilation(d)
    states = damping_states(d, 24)
    batch = 24 * len(states) * d * d * 16
    tracemalloc.start()
    try:
        damped_action(gamma, 1.0, states, Generator(hamiltonian=(a + a.conj().T) / d))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 6 * batch


def counted_attenuator_steps(monkeypatch) -> list:
    """Patch the attenuator application that zeno_action looks up; one entry per step, its batch size."""
    calls = []
    apply_once = channels._attenuator_apply

    def counted(plan, x, capacity=0):
        calls.append(len(x))
        return apply_once(plan, x, capacity)

    monkeypatch.setattr(channels, "_attenuator_apply", counted)
    return calls


def assert_matches_dense_zeno(got, states, cfg, n):
    """Each image against dense_reference.zeno_product, and its trace against the input's.

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
    generator, l = generator_parts(kind, d, scale, seed)
    m = to_superoperator(attenuator_kraus(eta, d))
    cfg = ZenoConfig(m=m, l=l, p=vacuum_projection_superop(d), t=t, test_states=())
    states = damping_states(d, seed)
    assert_matches_dense_zeno(zeno_action([n], t, states, eta, generator)[0], states, cfg, n)


def steps_per_count(batch_sizes, states):
    """The step counts of a group's counts, in increasing order, from the batch size of each of its steps."""
    live = [size // states for size in batch_sizes]
    return sorted(sum(size > j for size in live) for j in range(max(live, default=0)))


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(min_value=2, max_value=8),
    kind=st.sampled_from(["quadrature", "number", "random", "dephasing", "none"]),
    channel=st.sampled_from(["real", "complex", "one", "gapped"]),
    scale=st.floats(min_value=0.0, max_value=1.0),
    t=st.floats(min_value=0.1, max_value=3.0),
    ns=st.lists(st.integers(min_value=1, max_value=300), min_size=1, max_size=6, unique=True),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_grouped_zeno_action_equals_a_call_per_count(d, kind, channel, scale, t, ns, seed):
    # stepping counts together must not change one bit of any image, nor the
    # step at which any count stops: at eta = 1j, which does not mix but
    # turns the phases of the states, every count takes all its n steps
    generator, _ = generator_parts(kind, d, scale, seed)
    m = {"real": 0.3 + 0.6 * scale, "complex": 0.4 + 0.3j, "one": 1j}.get(channel)
    if m is None:
        m, _, _ = random_gapped_channel(d, stream(seed, 1), 0.5)
    states = damping_states(d, seed)
    with pytest.MonkeyPatch.context() as patch:
        calls = counted_attenuator_steps(patch)
        grouped = zeno_action(ns, t, states, m, generator)
        taken = steps_per_count(calls, len(states))
        alone = []
        for n, images in zip(ns, grouped):
            calls.clear()
            assert np.array_equal(zeno_action([n], t, states, m, generator)[0], images), n
            alone.append(len(calls))
    if channel != "gapped":
        assert taken == sorted(alone)
    if channel == "one":
        assert alone == ns


def test_zeno_action_takes_every_step_when_m_is_not_mixing(monkeypatch):
    # at eta = 1j the attenuator is the unitary phase e^{i pi N / 2}: it passes
    # validate(), but the iterate never settles, so no step may be skipped
    d = 6
    a = annihilation(d)
    generator = Generator(hamiltonian=0.3 * (a + a.conj().T))
    states = damping_states(d, 6)
    cfg = ZenoConfig(
        m=to_superoperator(attenuator_kraus(1j, d)),
        l=generator.superoperator(d),
        p=vacuum_projection_superop(d),
        t=1.0,
        test_states=tuple(zip("abc", states)),
    )
    cfg.validate()
    calls = counted_attenuator_steps(monkeypatch)
    ns = (8, 64, 512)
    got = zeno_action(ns, 1.0, states, 1j, generator)
    # one step over the whole group per step of its longest count: each count
    # stays in the batch, 3 states each, until its own n-th step
    assert calls == [9] * 8 + [6] * (64 - 8) + [3] * (512 - 64)
    for n, images in zip(ns, got):
        assert_matches_dense_zeno(images, states, cfg, n)


def test_zeno_action_settles_on_the_d24_benchmark_within_100_steps(monkeypatch):
    # the attenuator-zeno preset at d = 24 plus a full-rank random state, its
    # whole grid in one call as the sweep makes it: at eta = 1/2 the step
    # forgets its input geometrically, so every count from n = 64 up stops
    # moving the states after tens of steps (71 at most here), and the
    # group's batch of 10 x 3 states shrinks as each count stops
    text = (
        PRESETS["attenuator-zeno"][1]
        .replace("dimension = 16", "dimension = 24")
        .replace("specs = fock:1, coherent:0.8", "specs = fock:1, coherent:0.8, random:0")
    )
    cfg = parse_config_text(text)
    states = np.stack([rho for _, rho in build_states(cfg, cfg.dimension)])
    calls = counted_attenuator_steps(monkeypatch)
    channels._charge_layout.cache_clear()
    zeno_action(cfg.grid(), cfg.t, states, cfg.eta, _generator(cfg, cfg.dimension))
    assert 0 < len(calls) <= 100
    # the kernel's gather and scatter indices are built once, for the whole group, however it shrinks
    assert channels._charge_layout.cache_info().misses == 1
    assert calls[0] == 3 * cfg.grid_count and calls == sorted(calls, reverse=True)
    # n = 8, 16 and 32 take all their steps; no larger count stops before the 32nd
    assert calls[7] == 30 and calls[8] == 27 and calls[16] == 24 and calls[32] == 21


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
    ns = 8 * 2 ** np.arange(10)
    grouped = zeno_action(ns, t, states, eta, Generator(hamiltonian=s * number_operator(d)))
    for n, got in zip(ns, grouped):
        expected = attenuator_after(cmath.rect(abs(eta) ** n, n * cmath.phase(eta)), rotated)
        for g, e in zip(got, expected):
            assert trace_norm(g - e) <= 1e-12


def test_zeno_action_contract():
    d = 5
    states = damping_states(d, 2)
    a = annihilation(d)
    h = 0.2 * (a + a.conj().T)
    generator = Generator(hamiltonian=h)
    (batch,) = zeno_action([16], 0.5, states, 0.6, generator)
    assert batch.shape == states.shape
    for x, y in zip(states, batch):
        assert np.array_equal(y, y.conj().T)  # Hermitian by construction
        alone = zeno_action([16], 0.5, x[None], 0.6, generator)[0, 0]
        # the batch may stop later than a state alone, never before its bound
        assert trace_norm(alone - y) <= 1e-13
    # the superoperator of the same channel gives the same images
    m = to_superoperator(attenuator_kraus(0.6, d))
    assert np.abs(zeno_action([16], 0.5, states, m, generator)[0] - batch).max() <= 1e-14
    for bad in (
        lambda: zeno_action([16], 0.5, states[0], 0.6),  # a single matrix is not a batch
        lambda: zeno_action([16], 0.5, states + 1j * np.eye(d), 0.6),  # not Hermitian
        lambda: zeno_action([0], 0.5, states, 0.6),
        lambda: zeno_action([16, 0], 0.5, states, 0.6),
        lambda: zeno_action([], 0.5, states, 0.6),
        lambda: zeno_action([16], 0.0, states, 0.6),
        lambda: zeno_action([16], 0.5, states, 1.2),
        lambda: zeno_action([16], 0.5, states, 0.6, Generator(hamiltonian=np.eye(d + 1))),
        lambda: zeno_action([16], 0.5, states, 0.6, Generator(hamiltonian=h, dephasing_rate=0.1)),
        lambda: zeno_action([16], 0.5, states, to_superoperator(attenuator_kraus(0.6, d + 1))),
    ):
        with pytest.raises(ValueError):
            bad()
