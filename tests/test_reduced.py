import numpy as np
import pytest

from feastlib import ReducedSolverError, generalized_eig, spd_factor

from conftest import random_hermitian, random_spd, random_symmetric


def test_spd_factor_identity():
    lower, fail = spd_factor(np.eye(3))
    assert fail is None
    assert np.allclose(lower, np.eye(3), atol=0)


def test_spd_factor_negative_pivot_index():
    lower, fail = spd_factor(np.diag([1.0, -1.0]))
    assert lower is None
    assert fail == 2
    _, fail = spd_factor(np.diag([-1.0, 2.0]))
    assert fail == 1


def test_spd_factor_gram_reconstruction(rng):
    g = rng.normal(size=(10, 10))
    b = g.T @ g + 1e-6 * np.eye(10)
    lower, fail = spd_factor(b)
    assert fail is None
    assert np.abs(lower @ lower.T - b).max() <= 1e-12 * np.abs(b).max()


def test_spd_factor_hermitian(rng):
    b = random_spd(6, rng, complex_=True)
    lower, fail = spd_factor(b)
    assert fail is None
    assert np.abs(lower @ lower.conj().T - b).max() <= 1e-12 * np.abs(b).max()


def test_generalized_diag_case():
    eps, phi = generalized_eig(np.diag([1.0, 3.0]), np.eye(2))
    assert np.allclose(eps, [1.0, 3.0], atol=1e-14)
    assert np.allclose(np.abs(phi), np.eye(2), atol=1e-14)


def test_generalized_two_by_two_exact():
    aq = np.array([[2.0, -1.0], [-1.0, 2.0]])
    eps, phi = generalized_eig(aq, np.eye(2))
    assert np.allclose(eps, [1.0, 3.0], atol=1e-13)
    s = np.sqrt(2.0) / 2.0
    # columns up to sign
    assert np.allclose(np.abs(phi[:, 0]), [s, s], atol=1e-13)
    assert np.allclose(np.abs(phi[:, 1]), [s, s], atol=1e-13)
    assert abs(phi[0, 0] * phi[1, 0] - s * s) <= 1e-13      # same signs
    assert abs(phi[0, 1] * phi[1, 1] + s * s) <= 1e-13      # opposite signs


def _check_pair(aq, bq, eps, phi, tol=1e-10):
    scale = max(np.abs(aq).max(), 1.0)
    assert np.abs(aq @ phi - bq @ phi @ np.diag(eps)).max() <= tol * scale
    gram = phi.conj().T @ bq @ phi
    assert np.abs(gram - np.eye(len(eps))).max() <= 1e-10
    assert np.all(np.diff(eps) >= -1e-14)


def test_generalized_random_residual_oracle(rng):
    for _ in range(5):
        aq = random_symmetric(8, rng)
        g = rng.normal(size=(8, 8))
        bq = g.T @ g + np.eye(8)
        eps, phi = generalized_eig(aq, bq)
        _check_pair(aq, bq, eps, phi)


def test_generalized_hermitian_random(rng):
    for _ in range(5):
        aq = random_hermitian(7, rng)
        bq = random_spd(7, rng, complex_=True)
        eps, phi = generalized_eig(aq, bq)
        _check_pair(aq, bq, eps, phi)
        # independent oracle for the eigenvalues
        lower = np.linalg.cholesky(bq)
        c = np.linalg.solve(lower, np.linalg.solve(lower, aq).conj().T).conj().T
        ref = np.linalg.eigvalsh(0.5 * (c + c.conj().T))
        assert np.abs(eps - ref).max() <= 1e-10 * max(1.0, np.abs(ref).max())


def test_reduction_round_trip(rng):
    # generalized eigenvalues equal standard eigenvalues of L^-1 A L^-T
    aq = random_symmetric(9, rng)
    bq = random_spd(9, rng)
    eps, _ = generalized_eig(aq, bq)
    lower = np.linalg.cholesky(bq)
    c = np.linalg.solve(lower, np.linalg.solve(lower, aq).T).T
    ref = np.linalg.eigvalsh(0.5 * (c + c.T))
    assert np.abs(eps - ref).max() <= 1e-10 * max(1.0, np.abs(ref).max())


def test_count_preserved(rng):
    for n in (1, 2, 3, 5, 12, 30):
        aq = random_symmetric(n, rng)
        bq = random_spd(n, rng)
        eps, phi = generalized_eig(aq, bq)
        assert eps.shape == (n,)
        assert phi.shape == (n, n)


def test_scalar_short_circuit():
    eps, phi = generalized_eig(np.array([[6.0]]), np.array([[2.0]]))
    assert eps[0] == pytest.approx(3.0, abs=0)
    assert phi[0, 0] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-15)


def test_clustered_eigenvalues(rng):
    # four-fold eigenvalue with weak coupling
    d = np.diag([1.0, 1.0, 1.0, 1.0, 5.0, 9.0])
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    aq = q.T @ d @ q
    aq = 0.5 * (aq + aq.T)
    eps, phi = generalized_eig(aq, np.eye(6))
    assert np.allclose(np.sort(eps), np.diag(d), atol=1e-10)
    _check_pair(aq, np.eye(6), eps, phi)


def test_non_positive_b_raises():
    with pytest.raises(ReducedSolverError):
        generalized_eig(np.eye(2), np.diag([1.0, -1.0]))
    for b00 in (0.0, -2.0):
        with pytest.raises(ReducedSolverError, match="1x1"):
            generalized_eig(np.array([[6.0]]), np.array([[b00]]))


def test_non_finite_input_raises():
    aq = np.eye(3)
    aq[1, 1] = np.nan
    with pytest.raises(ReducedSolverError):
        generalized_eig(aq, np.eye(3))


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        generalized_eig(np.eye(3), np.eye(2))
    with pytest.raises(ValueError, match="square"):
        spd_factor(np.ones((2, 3)))
