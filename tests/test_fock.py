import math

import numpy as np
import pytest

from zenolab.fock import (
    annihilation,
    coherent_vector,
    number_operator,
    particle_number,
    trace_distance,
    vacuum_state,
)

RNG = np.random.default_rng(7)


def random_state(dim):
    g = RNG.normal(size=(dim, dim)) + 1j * RNG.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def test_number_operator_small():
    assert np.allclose(number_operator(2), np.diag([0.0, 1.0]))
    assert np.allclose(number_operator(4), np.diag([0.0, 1.0, 2.0, 3.0]))


def test_number_kills_vacuum():
    n = number_operator(5)
    e0 = np.zeros(5)
    e0[0] = 1
    assert np.allclose(n @ e0, 0)


def test_dimension_must_be_at_least_two():
    with pytest.raises(ValueError):
        number_operator(1)


def test_annihilation_lowers():
    a = annihilation(4)
    e1 = np.zeros(4)
    e1[1] = 1
    e0 = np.zeros(4)
    e0[0] = 1
    assert np.allclose(a @ e1, e0)
    assert np.allclose(a @ e0, 0)


def test_annihilation_number_identity():
    # a^dag a equals the number operator exactly on the truncated space; in
    # particular the top diagonal entry is d-1.
    d = 7
    a = annihilation(d)
    assert np.allclose(a.conj().T @ a, number_operator(d))
    assert (a.conj().T @ a)[d - 1, d - 1].real == pytest.approx(d - 1)


def test_coherent_alpha_zero_is_vacuum():
    cv = coherent_vector(0.0, 6)
    expected = np.zeros(6)
    expected[0] = 1
    assert np.allclose(cv.coefficients, expected)
    assert cv.tail_mass == 0.0


def test_coherent_coefficients_match_closed_form():
    alpha = 0.7 - 0.3j
    cv = coherent_vector(alpha, 18)
    for n in range(18):
        exact = np.exp(-abs(alpha) ** 2 / 2) * alpha**n / math.sqrt(math.factorial(n))
        assert abs(cv.coefficients[n] - exact) <= 1e-14 * max(abs(exact), 1e-30)


def test_coherent_vacuum_overlap():
    alpha = 1.0
    cv = coherent_vector(alpha, 30)
    assert cv.tail_mass <= 1e-14
    assert abs(cv.coefficients[0]) ** 2 == pytest.approx(np.exp(-abs(alpha) ** 2), abs=1e-12)


def test_coherent_overlap_formula():
    # <alpha|beta> = exp(-(|a|^2 + |b|^2 - 2 conj(a) b) / 2), summing the series
    alpha, beta = 0.9 + 0.2j, -0.4 + 0.6j
    d = 40
    ca = coherent_vector(alpha, d)
    cb = coherent_vector(beta, d)
    overlap = np.vdot(ca.coefficients, cb.coefficients)
    expected = np.exp(-(abs(alpha) ** 2 + abs(beta) ** 2 - 2 * np.conj(alpha) * beta) / 2)
    assert abs(overlap - expected) <= 1e-12


def test_tail_mass_monotone_in_dimension():
    alpha = 1.4
    tails = [coherent_vector(alpha, d).tail_mass for d in range(4, 40, 3)]
    assert all(b <= a for a, b in zip(tails, tails[1:]))


def test_tail_mass_ratio_bound():
    # tail <= exp(-|a|^2) |a|^(2d) / d! * 1 / (1 - |a|^2/d) for d > |a|^2
    for alpha in (0.8, 1.3, 2.0):
        for d in (8, 16, 24):
            if d <= abs(alpha) ** 2:
                continue
            tail = coherent_vector(alpha, d).tail_mass
            a2 = abs(alpha) ** 2
            bound = np.exp(-a2) * a2**d / math.factorial(d) / (1 - a2 / d)
            assert tail <= bound + 1e-18


@pytest.mark.parametrize("alpha, d", [(30, 8), (35, 64), (40, 64), (40, 2000)])
def test_tail_mass_of_underflowed_coefficients(alpha, d):
    # every |c_n|^2 underflows, so the vector holds no mass: all of it is tail
    cv = coherent_vector(alpha, d)
    assert np.vdot(cv.coefficients, cv.coefficients).real == 0.0
    assert cv.tail_mass == 1.0


def test_vacuum_state():
    assert np.allclose(vacuum_state(2), np.array([[1, 0], [0, 0]]))
    assert particle_number(vacuum_state(8)) == 0.0
    assert trace_distance(vacuum_state(4), vacuum_state(4)) == 0.0


def test_particle_number_examples():
    d = 30
    one = np.zeros((d, d), dtype=complex)
    one[1, 1] = 1
    assert particle_number(one) == pytest.approx(1.0)
    rho = coherent_vector(1.0, d).projector()
    assert particle_number(rho) == pytest.approx(1.0, abs=1e-10)


def test_particle_number_matches_trace_form():
    d = 9
    rho = random_state(d)
    via_trace = np.trace(number_operator(d) @ rho).real
    assert particle_number(rho) == pytest.approx(via_trace, abs=1e-12)
    assert particle_number(rho) >= 0


def test_trace_distance_extremes():
    rho = random_state(5)
    assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-14)
    e0 = np.zeros((3, 3), dtype=complex)
    e0[0, 0] = 1
    e1 = np.zeros((3, 3), dtype=complex)
    e1[1, 1] = 1
    assert trace_distance(e0, e1) == pytest.approx(1.0)


def test_trace_distance_pure_state_formula():
    d = 6
    for _ in range(10):
        psi = RNG.normal(size=d) + 1j * RNG.normal(size=d)
        psi /= np.linalg.norm(psi)
        phi = RNG.normal(size=d) + 1j * RNG.normal(size=d)
        phi /= np.linalg.norm(phi)
        td = trace_distance(np.outer(psi, psi.conj()), np.outer(phi, phi.conj()))
        expected = np.sqrt(1 - abs(np.vdot(psi, phi)) ** 2)
        assert td == pytest.approx(expected, abs=1e-10)


def test_trace_distance_triangle_inequality():
    for _ in range(10):
        a, b, c = random_state(6), random_state(6), random_state(6)
        assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-10


def test_trace_distance_dimension_mismatch():
    with pytest.raises(ValueError):
        trace_distance(random_state(3), random_state(4))
