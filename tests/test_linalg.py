import math
import tracemalloc
from math import ceil, log2

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from zenolab.channels import (
    Generator,
    Superoperator,
    attenuator_generator,
    attenuator_kraus,
    to_superoperator,
    vacuum_projection_superop,
)
from zenolab import linalg
from zenolab.fock import annihilation, coherent_vector
from zenolab.linalg import (
    _taylor_degree,
    adjoint,
    as_matrix,
    devectorize,
    kron,
    matrix_exp,
    trace_norm,
    vectorize,
)
from zenolab.sampling import random_operator, stream
from zenolab.zeno import ZenoConfig, _check_hermiticity_preserving

from dense_reference import zeno_product, zeno_product_iterated

RNG = np.random.default_rng(20240801)


def rand_complex(rows, cols=None):
    cols = rows if cols is None else cols
    return RNG.normal(size=(rows, cols)) + 1j * RNG.normal(size=(rows, cols))


def test_as_matrix_rejects_non_finite():
    for bad in (np.nan, np.inf, complex(0, -np.inf)):
        m = np.eye(2, dtype=complex)
        m[0, 1] = bad
        for check in (as_matrix, vectorize, trace_norm):
            with pytest.raises(ValueError, match="non-finite"):
                check(m)


def test_adjoint_conjugates():
    assert np.allclose(adjoint(np.array([[1j]])), np.array([[-1j]]))


def test_adjoint_hermitian_fixed_point():
    g = rand_complex(4)
    h = g + g.conj().T
    assert np.allclose(adjoint(h), h)


def test_adjoint_involution():
    a = rand_complex(5)
    assert np.allclose(adjoint(adjoint(a)), a)


def test_kron_identities():
    assert np.allclose(kron(np.eye(2), np.eye(2)), np.eye(4))
    assert np.allclose(kron(np.diag([1.0, 2.0]), np.eye(2)), np.diag([1.0, 1.0, 2.0, 2.0]))


def test_kron_mixed_product():
    a, b, c, d = rand_complex(2), rand_complex(3), rand_complex(2), rand_complex(3)
    assert np.allclose(kron(a, b) @ kron(c, d), kron(a @ c, b @ d))


def test_vectorize_column_stacking():
    assert np.allclose(vectorize(np.eye(2)), np.array([1, 0, 0, 1]))


def test_vectorize_identity_for_sandwich():
    # vec(A X B) == (B^T kron A) vec(X); the single source of truth for the
    # column-stacking convention.
    a, x, b = rand_complex(3), rand_complex(3), rand_complex(3)
    lhs = vectorize(a @ x @ b)
    rhs = kron(b.T, a) @ vectorize(x)
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(lhs)


def test_vectorize_round_trip():
    x = rand_complex(4)
    assert np.allclose(devectorize(vectorize(x)), x)


def test_vectorize_rejects_non_square():
    with pytest.raises(ValueError):
        vectorize(rand_complex(2, 3))
    with pytest.raises(ValueError):
        devectorize(np.arange(6, dtype=complex))


def test_trace_norm_diagonal():
    assert trace_norm(np.diag([1.0, -1.0])) == pytest.approx(2.0)


def test_trace_norm_rank_one():
    psi = rand_complex(5, 1)[:, 0]
    psi /= np.linalg.norm(psi)
    phi = rand_complex(5, 1)[:, 0]
    phi /= np.linalg.norm(phi)
    assert trace_norm(np.outer(psi, phi.conj())) == pytest.approx(1.0, abs=1e-12)


def test_trace_distance_zero_vs_plus():
    # pure-state trace distance sqrt(1 - |<0|+>|^2) = sqrt(0.5)
    zero = np.array([[1, 0], [0, 0]], dtype=complex)
    plus = np.full((2, 2), 0.5, dtype=complex)
    assert 0.5 * trace_norm(zero - plus) == pytest.approx(np.sqrt(0.5), abs=1e-12)


def test_trace_norm_takes_eigenvalues_of_an_exactly_hermitian_matrix(monkeypatch):
    # an exactly Hermitian input takes sum |eigvalsh|, the same norm as the
    # SVD; one ulp off Hermitian, the SVD it keeps
    g = rand_complex(24)
    a = g + g.conj().T
    singular = np.linalg.svd(a, compute_uv=False).sum()
    svd = np.linalg.svd

    def refuse(*args, **kwargs):
        raise AssertionError("an exactly Hermitian matrix took the SVD")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    assert abs(trace_norm(a) - singular) <= 1e-14 * singular
    a[0, 1] = np.nextafter(a[0, 1].real, np.inf) + 1j * a[0, 1].imag
    with pytest.raises(AssertionError, match="took the SVD"):
        trace_norm(a)
    monkeypatch.setattr(np.linalg, "svd", svd)
    assert abs(trace_norm(a) - singular) <= 1e-14 * singular


def matrix_trace_norm(m) -> float:
    """One matrix's trace norm as a lone call takes it: sum |eigvalsh| if exactly Hermitian, else the SVD."""
    if np.array_equal(m, m.conj().T):
        return float(np.abs(np.linalg.eigvalsh(m)).sum())
    return float(np.linalg.svd(m, compute_uv=False).sum())


@pytest.mark.parametrize("kinds", ["hhhh", "nnn", "hnhnnh", "n", "h"])
@pytest.mark.parametrize("d", [1, 3, 24])
def test_trace_norm_of_a_stack_equals_each_matrix_bit_for_bit(kinds, d):
    # a stack takes one eigvalsh call for its Hermitian matrices and one SVD
    # call for the rest; neither may move a norm by an ulp, and a lone matrix
    # still gives a float
    mats = []
    for kind in kinds:
        g = rand_complex(d)
        mats.append(g + g.conj().T if kind == "h" else g)
    stack = np.stack(mats)
    norms = trace_norm(stack)
    assert isinstance(norms, np.ndarray) and norms.shape == (len(kinds),)
    for m, norm in zip(stack, norms):
        alone = trace_norm(m)
        assert type(alone) is float
        assert alone == norm == matrix_trace_norm(m)
    for bad in (np.zeros((2, 3, 4)), np.zeros((2, 2, 2, 2)), np.zeros(3)):
        with pytest.raises(ValueError):
            trace_norm(bad)


def test_trace_norm_hermitian_test_reads_the_imaginary_parts(monkeypatch):
    # a complex symmetric matrix has a symmetric real part and is not
    # Hermitian: eigvalsh of its lower triangle would give 2, not 2 sqrt(2)
    assert trace_norm(np.array([[1, 1j], [1j, 1]])) == pytest.approx(2 * np.sqrt(2), abs=1e-14)
    g = rand_complex(8)
    a = g + g.conj().T

    def refuse(*args, **kwargs):
        raise AssertionError("took the SVD")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    a[3, 3] = complex(a[3, 3].real, -0.0)  # a negative zero is still Hermitian
    trace_norm(a)
    a[2, 5] = complex(a[2, 5].real, np.nextafter(a[2, 5].imag, np.inf))
    with pytest.raises(AssertionError, match="took the SVD"):
        trace_norm(a)


def test_trace_norm_unitary_invariance():
    a = rand_complex(8)
    u, _ = np.linalg.qr(rand_complex(8))
    v, _ = np.linalg.qr(rand_complex(8))
    base = trace_norm(a)
    assert abs(trace_norm(u @ a @ v) - base) <= 1e-9 * base


def test_matrix_exp_zero():
    assert np.allclose(matrix_exp(np.zeros((3, 3))), np.eye(3))


def test_matrix_exp_diagonal():
    out = matrix_exp(np.diag([1.0 + 0j, -2.0]))
    assert np.allclose(out, np.diag([np.e, np.exp(-2.0)]))


def test_matrix_exp_nilpotent():
    out = matrix_exp(np.array([[0, 1], [0, 0]], dtype=complex))
    assert np.allclose(out, np.array([[1, 1], [0, 1]]))


def test_matrix_exp_inverse_consistency():
    for dim in (4, 16, 64):
        a = rand_complex(dim)
        a *= 5.0 / np.linalg.norm(a)
        prod = matrix_exp(a) @ matrix_exp(-a)
        assert np.linalg.norm(prod - np.eye(dim)) <= 1e-9


def test_matrix_exp_matches_scipy():
    for scale in (0.1, 2.0, 40.0):
        a = rand_complex(6)
        a *= scale / np.linalg.norm(a, 2)
        ours = matrix_exp(a)
        ref = scipy.linalg.expm(a)
        assert np.linalg.norm(ours - ref) <= 1e-10 * max(1.0, np.linalg.norm(ref))


def test_matrix_exp_rejects_bad_tol():
    with pytest.raises(ValueError):
        matrix_exp(np.eye(2), tol=0.0)


def test_matrix_exp_rejects_a_non_square_matrix():
    with pytest.raises(ValueError, match="^matrix_exp requires a square matrix$"):
        matrix_exp(np.ones((2, 3)))


# ---------------------------------------------------------------------------
# the dense Zeno reference and a stiff exponential


def test_zeno_product_matches_the_iterated_product_on_an_attenuator_step():
    # binary powering of the d=12 attenuator Zeno step to n=4096 agrees with
    # the step applied 4096 times
    d, n = 12, 4096
    m = to_superoperator(attenuator_kraus(0.5, d))
    a = annihilation(d)
    l = Generator(hamiltonian=(a + a.conj().T) / d).superoperator(d)
    rho = coherent_vector(0.6, d).projector()
    cfg = ZenoConfig(
        m=m, l=l, p=vacuum_projection_superop(d), t=1.0, test_states=(("coherent:0.6", rho),)
    )
    assert trace_norm(zeno_product(cfg, n, rho) - zeno_product_iterated(cfg, n, rho)) <= 1e-12


def test_matrix_exp_matches_scipy_on_a_stiff_damping_generator():
    # exp(2048 K + L) at d=12 (18 squarings), the stiff exponential of a
    # strong-damping step
    d = 12
    a = annihilation(d)
    l = Generator(hamiltonian=(a + a.conj().T) / d).superoperator(d)
    stiff = 2048.0 * attenuator_generator(d).matrix + l.matrix
    ref = scipy.linalg.expm(stiff)
    assert np.linalg.norm(matrix_exp(stiff) - ref) <= 1e-10 * np.linalg.norm(ref)


# ---------------------------------------------------------------------------
# accuracy and memory of the Paterson-Stockmeyer exponential


def _expm_longdouble(a):
    """Scaling and squaring of the term-by-term Taylor series in np.clongdouble."""
    a = np.asarray(a, dtype=np.clongdouble)
    norm = float(np.abs(a).sum(axis=0).max())
    s = 0 if norm <= 0.5 else int(ceil(log2(norm / 0.5)))
    x = a / np.longdouble(2) ** s
    result = np.eye(a.shape[0], dtype=np.clongdouble)
    term = result.copy()
    for k in range(1, 40):
        term = term @ x / k
        result = result + term
        if np.abs(term).sum(axis=0).max() < 1e-24:
            break
    for _ in range(s):
        result = result @ result
    return result


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps > 1e-18, reason="np.longdouble is no wider than float64 here"
)
def test_matrix_exp_matches_extended_precision_reference_on_stiff_generators():
    # exp(gamma K + L) at d=12 as a complex matrix, the form the damping
    # oracle exponentiates; the float64 kernel is off by 1.7e-12
    # (gamma=2048, 18 squarings) and 7.1e-13 (gamma=128)
    d = 12
    a = annihilation(d)
    l = Generator(hamiltonian=(a + a.conj().T) / d).superoperator(d).matrix
    k = attenuator_generator(d).matrix
    for gamma in (2048.0, 128.0):
        stiff = gamma * k + l
        err = np.abs(matrix_exp(stiff) - _expm_longdouble(stiff)).max()
        assert err <= 1e-11, (gamma, float(err))


def test_matrix_exp_tolerance_holds_against_scipy():
    # an entrywise positive matrix keeps ||x^k|| near ||x||^k, so the
    # Taylor remainder is close to its bound and tol=1e-6 visibly truncates
    a = RNG.random(size=(30, 30))
    a *= 3.0 / np.linalg.norm(a, 1)
    ref = scipy.linalg.expm(a)
    for tol, ours in ((1e-6, matrix_exp(a, tol=1e-6)), (1e-12, matrix_exp(a))):
        assert np.linalg.norm(ours - ref, 1) <= tol * np.linalg.norm(ref, 1), tol


def test_matrix_exp_holds_at_most_four_work_arrays():
    # x^2, x^3 and two Horner/squaring buffers
    d = 576
    rng = np.random.default_rng(3)
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    tracemalloc.start()
    try:
        matrix_exp(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * 16 * d * d, peak / 2**20


@pytest.mark.parametrize("tol", [1e-12, 1e-6])
@pytest.mark.parametrize("s", [0, 3, 12])
def test_matrix_exp_tightens_the_taylor_threshold_for_each_squaring(monkeypatch, s, tol):
    # each of the s squarings can double the polynomial's error, so the
    # degree is chosen for tol / 2^(s+2); the accuracy tests above also pass
    # with a threshold of plain tol, so the budget is pinned here
    seen = []

    def recording(theta, threshold):
        seen.append((theta, threshold))
        return _taylor_degree(theta, threshold)

    monkeypatch.setattr(linalg, "_taylor_degree", recording)
    a = RNG.normal(size=(6, 6))
    a -= a.T  # exp(a) is orthogonal, so no squaring overflows
    a *= 0.375 * 2.0**s / np.linalg.norm(a, 1)  # scales to theta = 0.375 in s squarings
    matrix_exp(a, tol=tol)
    [(theta, threshold)] = seen
    assert theta == pytest.approx(0.375)
    assert threshold == tol / 2.0 ** (s + 2)


@pytest.mark.parametrize(
    "theta, threshold",
    [(0.5, 1e-12 / 4), (0.5, 1e-12 / 2**14), (0.375, 1e-6 / 32), (0.01, 1e-20), (0.5, 1e-3)],
)
def test_taylor_degree_is_least_whose_summed_remainder_meets_threshold(theta, threshold):
    def remainder(m):  # sum_{k > m} theta^k / k!, summed term by term
        return math.fsum(theta**k / math.factorial(k) for k in range(m + 1, m + 60))

    m = _taylor_degree(theta, threshold)
    assert remainder(m) <= threshold
    # one degree less misses by more than the slack of the a-priori bound
    assert remainder(m - 1) > threshold * (1 - theta / (m + 1))


# ---------------------------------------------------------------------------
# Hermiticity-preserving maps


def test_hermiticity_check_rejects_maps_that_do_not_preserve_hermiticity():
    # the check runs on S conj(A) S, S the permutation vec(X) -> vec(X^T),
    # and names the first map that fails
    d = 4
    ok = vacuum_projection_superop(d)
    skew = Superoperator(matrix=random_operator(d * d, stream(8, 0)))
    with pytest.raises(ValueError, match="^L: map is not Hermiticity-preserving$"):
        _check_hermiticity_preserving(M=ok, L=skew, P=skew)


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(min_value=2, max_value=8),
    radius=st.floats(min_value=0.0, max_value=1.0),
    angle=st.floats(min_value=-np.pi, max_value=np.pi),
)
def test_attenuator_maps_preserve_hermiticity(d, radius, angle):
    # the attenuator at any eta in the closed unit disc and its generator map
    # Hermitian operators to Hermitian ones, and the check accepts them; a
    # random operator does not, and the check rejects it
    eta = radius * complex(np.cos(angle), np.sin(angle))
    for a in (to_superoperator(attenuator_kraus(eta, d)), attenuator_generator(d)):
        _check_hermiticity_preserving(M=a)
    with pytest.raises(ValueError, match="M: map is not Hermiticity-preserving"):
        _check_hermiticity_preserving(M=Superoperator(matrix=random_operator(d * d, stream(d, 1))))
