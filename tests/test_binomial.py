import math

import numpy as np
import pytest

from zenolab.binomial import (
    binomial_product,
    expansion_terms,
    expansion_terms_applied,
    restricted_count,
    restricted_count_enumerated,
    restricted_difference_bound_check,
    simplex_count,
    simplex_count_enumerated,
    simplex_ratio_bound_check,
    workhorse_limit_check,
)
from zenolab.channels import attenuator_kraus, to_superoperator, vacuum_projection_superop
from zenolab.fock import annihilation, coherent_vector
from zenolab.linalg import matrix_exp, vectorize

from dense_reference import expansion_term_enumerated

RNG = np.random.default_rng(555)


def rand_complex(n):
    return RNG.normal(size=(n, n)) + 1j * RNG.normal(size=(n, n))


# ---------------------------------------------------------------------------
# exact counting


def test_simplex_count_small():
    assert simplex_count(5, 2) == 10
    assert simplex_count_enumerated(5, 2) == 10


def test_simplex_count_edges():
    assert simplex_count(4, 4) == 1  # only the zero tuple
    assert simplex_count(3, 5) == 0  # empty constraint set
    with pytest.raises(ValueError):
        simplex_count(0, 1)


def test_simplex_count_matches_enumeration():
    for k in range(1, 5):
        for n in range(1, 16):
            assert simplex_count(n, k) == simplex_count_enumerated(n, k)


def test_ratio_bound_k1_exact():
    check = simplex_ratio_bound_check(10, 1)
    assert check.ratio == pytest.approx(1.0)
    assert check.limit == pytest.approx(1.0)
    assert check.holds


def test_ratio_bound_n100_k3():
    check = simplex_ratio_bound_check(100, 3)
    assert check.ratio == pytest.approx(0.1617)
    assert abs(check.ratio - 1 / 6) == pytest.approx(0.0049666, abs=1e-6)
    assert check.bound == pytest.approx(8 / 200)
    assert check.holds


def test_ratio_bound_requires_n_ge_k():
    with pytest.raises(ValueError):
        simplex_ratio_bound_check(3, 4)


def test_restricted_count_zero_vector_reduces():
    for n, k in ((7, 2), (12, 3)):
        assert restricted_count(n, k, [0] * (k + 1)) == simplex_count(n, k)


def test_restricted_count_k1_interval():
    for n in range(1, 12):
        for n1 in range(4):
            for n2 in range(4):
                expected = max(0, n - n1 - n2)
                assert restricted_count(n, 1, [n1, n2]) == expected


def test_restricted_count_matches_enumeration():
    for _ in range(40):
        k = int(RNG.integers(1, 5))
        n = int(RNG.integers(1, 26))
        bounds = [int(b) for b in RNG.integers(0, 6, size=k + 1)]
        assert restricted_count(n, k, bounds) == restricted_count_enumerated(n, k, bounds)


def test_restricted_count_length_guard():
    with pytest.raises(ValueError):
        restricted_count(5, 2, [1, 1])


def test_restricted_difference_bound():
    for _ in range(30):
        k = int(RNG.integers(1, 5))
        n = int(RNG.integers(k, 61))
        bounds = [int(b) for b in RNG.integers(0, 6, size=k + 1)]
        check = restricted_difference_bound_check(n, k, bounds)
        assert check.holds


# ---------------------------------------------------------------------------
# expansion terms


def test_expansion_zeroth_term_is_power():
    m, l = rand_complex(3), rand_complex(3)
    terms = expansion_terms(m, l, 6, 2)
    assert np.allclose(terms[0], np.linalg.matrix_power(m, 6))


def test_expansion_first_term_unrolled():
    m, l = rand_complex(3), rand_complex(3)
    n = 9
    terms = expansion_terms(m, l, n, 1)
    unrolled = sum(
        np.linalg.matrix_power(m, n - 1 - i) @ l @ np.linalg.matrix_power(m, i)
        for i in range(n)
    ) / n
    assert np.linalg.norm(terms[1] - unrolled) <= 1e-12 * np.linalg.norm(unrolled)


def test_expansion_identity_m_gives_binomial_coefficients():
    l = rand_complex(3)
    n = 12
    terms = expansion_terms(np.eye(3, dtype=complex), l, n, 4)
    for k in range(5):
        expected = math.comb(n, k) / n**k * np.linalg.matrix_power(l, k)
        assert np.linalg.norm(terms[k] - expected) <= 1e-12 * max(np.linalg.norm(expected), 1.0)


def test_expansion_partial_sums_reproduce_product():
    for n in (1, 2, 5, 17, 64):
        m = rand_complex(4)
        m /= np.linalg.norm(m, 2)
        l = rand_complex(4)
        l /= np.linalg.norm(l, 2)
        total = sum(expansion_terms(m, l, n, n))
        direct = binomial_product(m, l, n)
        assert np.linalg.norm(total - direct) <= 1e-10


def test_expansion_k_max_guard():
    with pytest.raises(ValueError):
        expansion_terms(np.eye(2, dtype=complex), np.eye(2, dtype=complex), 3, 4)


@pytest.mark.parametrize(
    "expand",
    [expansion_terms, lambda m, l, n, k: expansion_terms_applied(m, l, n, k, np.ones(m.shape[0]))],
    ids=["terms", "applied"],
)
def test_expansion_checks_its_operands(expand):
    # one check for both: a power below one, and M and L_n of different shapes
    eye2, eye3 = np.eye(2, dtype=complex), np.eye(3, dtype=complex)
    with pytest.raises(ValueError, match="^n must be >= 1$"):
        expand(eye2, eye2, 0, 0)
    with pytest.raises(ValueError, match="^M and L_n must be square with equal shape$"):
        expand(eye2, eye3, 4, 1)


def test_expansion_terms_match_enumeration_oracle():
    # dual route: polynomial extraction against the explicit simplex walk
    m = rand_complex(3)
    m /= np.linalg.norm(m, 2)
    l = rand_complex(3)
    l /= np.linalg.norm(l, 2)
    for n in (5, 9, 12):
        terms = expansion_terms(m, l, n, 3)
        for k in range(4):
            oracle = expansion_term_enumerated(m, l, n, k)
            assert np.linalg.norm(terms[k] - oracle) <= 1e-12


def test_expansion_enumeration_guards():
    eye = np.eye(2, dtype=complex)
    with pytest.raises(ValueError):
        expansion_term_enumerated(eye, eye, 30, 2)  # above the oracle cap
    with pytest.raises(ValueError):
        expansion_term_enumerated(eye, eye, 4, 5)


def test_expansion_applied_matches_matrix_mode():
    m, l = rand_complex(4), rand_complex(4)
    v = RNG.normal(size=4) + 1j * RNG.normal(size=4)
    mats = expansion_terms(m, l, 8, 3)
    vecs = expansion_terms_applied(m, l, 8, 3, v)
    for k in range(4):
        scale = max(1.0, np.linalg.norm(mats[k] @ v))
        assert np.linalg.norm(mats[k] @ v - vecs[k]) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# binomial product limits


def test_binomial_product_zero_perturbation():
    m = rand_complex(3)
    assert np.allclose(binomial_product(m, np.zeros((3, 3)), 5), np.linalg.matrix_power(m, 5))


def test_binomial_product_exponential_limit():
    l = rand_complex(4)
    l /= np.linalg.norm(l, 2)
    product = binomial_product(np.eye(4, dtype=complex), l, 4096)
    assert np.linalg.norm(product - matrix_exp(l), 2) <= 1e-3


def test_binomial_product_projection_limit():
    # M = diag projection on C^2: the limit is exp(L_00) on the fixed line
    p = np.diag([1.0, 0.0]).astype(complex)
    l = rand_complex(2)
    closed = np.array([[np.exp(l[0, 0]), 0.0], [0.0, 0.0]])
    product = binomial_product(p, l, 2**14)
    assert np.linalg.norm(product - closed, 2) <= 1e-2
    errs = [np.linalg.norm(binomial_product(p, l, n) - closed, 2) for n in (64, 4096)]
    assert errs[1] < errs[0]


@pytest.mark.parametrize("n", [0, -1])
def test_binomial_product_rejects_a_power_below_one(n):
    # numpy's matrix_power would return I at n = 0 and invert at n < 0
    eye = np.eye(2, dtype=complex)
    with pytest.raises(ValueError, match="^n must be >= 1$"):
        binomial_product(eye, eye, n)


# ---------------------------------------------------------------------------
# workhorse limit


def test_workhorse_rejects_a_negative_order():
    # numpy's matrix_power would invert P L P, here singular, at k = -1
    eye = np.eye(4, dtype=complex)
    with pytest.raises(ValueError, match="^k must be >= 0, got k=-1$"):
        workhorse_limit_check(eye, eye, np.zeros((4, 4)), -1, [4], np.ones(4))


def test_workhorse_projection_with_null_plp():
    # P kills the perturbation: y_{n,1} x -> 0
    p = np.kron(np.diag([1.0, 0.0]), np.eye(2)).astype(complex)
    l = np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2)).astype(complex)
    assert np.linalg.norm(p @ l @ p) <= 1e-14
    x = RNG.normal(size=4) + 1j * RNG.normal(size=4)
    result = workhorse_limit_check(p, l, p, 1, [4, 16, 64, 256], x)
    # y_{n,1} = (PL + LP)/n here, so the errors decay like 1/n toward 0
    assert result.decreasing
    first = result.records[0][1]
    final_n, final_err = result.records[-1]
    assert final_n == 256
    assert final_err <= first / 32


def test_workhorse_order_zero_is_mixing_error():
    d = 6
    m = to_superoperator(attenuator_kraus(0.5, d)).matrix
    p = vacuum_projection_superop(d).matrix
    rho = np.zeros((d, d), dtype=complex)
    rho[1, 1] = 1
    x = vectorize(rho)
    result = workhorse_limit_check(m, np.zeros_like(m), p, 0, [2, 4], x)
    for n, err in result.records:
        from zenolab.linalg import devectorize, trace_norm

        direct = trace_norm(devectorize(np.linalg.matrix_power(m, n) @ x - p @ x))
        assert err == pytest.approx(direct, abs=1e-12)


def test_workhorse_attenuator_second_order():
    d = 8
    a = annihilation(d)
    h = (a + a.conj().T) / d
    eye = np.eye(d, dtype=complex)
    l = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    m = to_superoperator(attenuator_kraus(0.5, d)).matrix
    p = vacuum_projection_superop(d).matrix
    x = vectorize(coherent_vector(0.6, d).projector())
    result = workhorse_limit_check(m, l, p, 2, [16, 32, 64, 128, 256, 512], x)
    assert result.decreasing
    first = result.records[0][1]
    last = result.records[-1][1]
    assert last <= 1e-2 * first
