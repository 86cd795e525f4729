"""The reduced eigensolver's eigenvectors (inverse iteration on the
tridiagonal, reorthogonalized within clusters) and its power-of-two scaling,
checked against the np.linalg.eigh oracle."""

import numpy as np
import pytest

import feastlib as fl
from feastlib import CsrMatrix, ReducedSolverError, generalized_eig, reduced, spd_factor
from feastlib.reduced import standard_eig

from conftest import random_hermitian, random_spd, random_symmetric

TOL = 1e-12


def _oracle(a, b):
    lower = np.linalg.cholesky(b)
    c = np.linalg.solve(lower, np.linalg.solve(lower, a).conj().T).conj().T
    return np.linalg.eigvalsh(0.5 * (c + c.conj().T))


def _check(a, b, lam, phi):
    """Eigenvalues within TOL*||A|| of the oracle; normwise residual and
    B-orthonormality at most TOL."""
    n = a.shape[0]
    norm_a, norm_b = np.linalg.norm(a, 2), np.linalg.norm(b, 2)
    assert lam.shape == (n,) and phi.shape == (n, n)
    assert np.all(np.diff(lam) >= 0)
    assert np.abs(lam - _oracle(a, b)).max() <= TOL * norm_a
    res = np.linalg.norm(a @ phi - b @ phi * lam, axis=0)
    assert np.all(res <= TOL * (norm_a + np.abs(lam) * norm_b) * np.linalg.norm(phi, axis=0))
    assert np.abs(phi.conj().T @ b @ phi - np.eye(n)).max() <= TOL


def _rotated(diagonal, rng):
    q, _ = np.linalg.qr(rng.normal(size=(len(diagonal), len(diagonal))))
    a = q @ np.diag(diagonal) @ q.T
    return 0.5 * (a + a.T)


@pytest.mark.parametrize("k", [2, 4, 8])
def test_exact_multiplicities(k, rng):
    n = 120
    values = np.repeat(np.linspace(-3.0, 4.0, n // k), k)
    for a in (_rotated(values, rng), np.diag(values)):
        lam, phi = generalized_eig(a, np.eye(n))
        _check(a, np.eye(n), lam, phi)
        assert np.abs(lam - values).max() <= TOL * 4.0
    # The replicated pencil of acceptance criterion 5: exact copies, T splits.
    base = random_symmetric(n // k, rng)
    a = np.kron(np.eye(k), base)
    b = np.kron(np.eye(k), random_spd(n // k, rng))
    lam, phi = generalized_eig(a, b)
    _check(a, b, lam, phi)


def test_tridiagonal_that_splits(rng):
    n = 12
    d = rng.normal(size=n)
    e = np.abs(rng.normal(size=n - 1))
    e[[2, 3, 7]] = 0.0
    a = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    lam, phi = standard_eig(a)
    _check(a, np.eye(n), lam, phi)
    # A diagonal matrix splits everywhere; with repeated entries the split
    # blocks share eigenvalues.
    a = np.diag([2.0, 1.0, 2.0, 3.0, 1.0, 2.0])
    lam, phi = standard_eig(a)
    _check(a, np.eye(6), lam, phi)
    assert np.array_equal(lam, [1.0, 1.0, 2.0, 2.0, 2.0, 3.0])


def test_tight_clusters_stay_orthogonal(rng):
    # Three clusters of about 40 eigenvalues each, 1e-9 apart inside a
    # cluster: one solve leaves each cluster's columns nearly parallel.
    n = 120
    d = rng.integers(0, 3, size=n).astype(float)
    e = np.where(rng.random(n - 1) < 0.3, 0.0, 1e-9 * rng.random(n - 1))
    a = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    lam, phi = standard_eig(a)
    _check(a, np.eye(n), lam, phi)


def test_graded_diagonals(rng):
    n = 20
    d = 10.0 ** -np.arange(n, dtype=float)
    off = 0.3 * np.sqrt(d[:-1] * d[1:])
    a = np.diag(d) + np.diag(off, 1) + np.diag(off, -1)
    for dense in (a, a[::-1, ::-1].copy()):
        lam, phi = generalized_eig(dense, np.eye(n))
        _check(dense, np.eye(n), lam, phi)
    # A graded B: the standard form is graded the other way.
    b = np.diag(10.0 ** -np.linspace(0.0, 3.0, n))
    a = random_symmetric(n, rng)
    lam, phi = generalized_eig(a, b)
    _check(a, b, lam, phi)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_small_orders(n, rng):
    for _ in range(3):
        for a, b in ((random_symmetric(n, rng), random_spd(n, rng)),
                     (random_hermitian(n, rng), random_spd(n, rng, complex_=True))):
            lam, phi = generalized_eig(a, b)
            _check(a, b, lam, phi)
    a = np.full((n, n), 1.0)
    lam, phi = generalized_eig(a, np.eye(n))
    _check(a, np.eye(n), lam, phi)
    lam, phi = generalized_eig(np.zeros((n, n)), np.eye(n))
    _check(np.zeros((n, n)), np.eye(n), lam, phi)


def test_empty_pencil():
    lam, phi = generalized_eig(np.zeros((0, 0)), np.zeros((0, 0)))
    assert lam.shape == (0,) and phi.shape == (0, 0)


@pytest.mark.parametrize("n", [4, 10, 30, 60, 120])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_random_pencils_against_eigh(n, kind, rng):
    hermitian = kind == "complex"
    a = random_hermitian(n, rng) if hermitian else random_symmetric(n, rng)
    b = random_spd(n, rng, complex_=hermitian)
    lam, phi = generalized_eig(a, b)
    _check(a, b, lam, phi)
    lam, phi = standard_eig(a)
    _check(a, np.eye(n), lam, phi)


def test_same_input_gives_bitwise_equal_output(rng):
    state = np.random.get_state()
    a, b = random_hermitian(30, rng), random_spd(30, rng, complex_=True)
    first = generalized_eig(a, b)
    second = generalized_eig(a, b)
    assert first[0].tobytes() == second[0].tobytes()
    assert first[1].tobytes() == second[1].tobytes()
    # The start vectors come from a private generator.
    assert all(np.array_equal(x, y) for x, y in zip(state, np.random.get_state()))


def test_given_cholesky_factor_is_used(rng):
    a, b = random_symmetric(12, rng), random_spd(12, rng)
    lower, fail = spd_factor(b)
    assert fail is None
    given = generalized_eig(a, b, lower=lower)
    own = generalized_eig(a, b)
    assert given[0].tobytes() == own[0].tobytes()
    assert given[1].tobytes() == own[1].tobytes()
    with pytest.raises(TypeError):
        generalized_eig(a, b, lower)


def test_unconverged_inverse_iteration_raises(monkeypatch, rng):
    # With no solves the vectors stay random, and the residual check must
    # refuse them rather than return them.
    monkeypatch.setattr(reduced, "_INV_MAX_SOLVES", 0)
    with pytest.raises(ReducedSolverError, match="residual"):
        generalized_eig(random_symmetric(8, rng), np.eye(8))
    a = np.diag(np.arange(1.0, 13.0)) - 0.1 * (np.eye(12, k=1) + np.eye(12, k=-1))
    result = fl.feast_sy(a, 0.5, 5.5, 8)
    assert result.info == -3


SCALES = [-1000, -660, 660, 1000]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k", SCALES)
def test_generalized_eig_is_scale_safe(k, rng):
    a, b = random_hermitian(10, rng), random_spd(10, rng, complex_=True)
    lam, phi = generalized_eig(a, b)
    s = 2.0 ** k
    lam_a, phi_a = generalized_eig(s * a, b)
    assert np.abs(lam_a / s - lam).max() <= 1e-14 * np.abs(lam).max()
    assert np.abs(phi_a - phi).max() <= 1e-13 * np.abs(phi).max()
    lam_b, phi_b = generalized_eig(a, s * b)
    assert np.abs(lam_b * s - lam).max() <= 1e-14 * np.abs(lam).max()
    assert np.abs(phi_b * np.sqrt(s) - phi).max() <= 1e-13 * np.abs(phi).max()


def _tridiagonal_problem():
    n = 12
    a = np.diag(np.arange(1.0, n + 1)) - 0.1 * (np.eye(n, k=1) + np.eye(n, k=-1))
    ev = np.linalg.eigvalsh(a)
    return a, ev[(ev >= 0.5) & (ev <= 5.5)]


def _lower_band(a, kl):
    n = a.shape[0]
    band = np.zeros((kl + 1, n), dtype=a.dtype)
    for j in range(kl + 1):
        band[j, :n - j] = np.diagonal(a, -j)
    return band


DRIVERS = {
    "feast_sy": lambda a, lo, hi: fl.feast_sy(a, lo, hi, 8),
    "feast_he": lambda a, lo, hi: fl.feast_he(a.astype(complex), lo, hi, 8),
    "feast_hb": lambda a, lo, hi: fl.feast_hb(_lower_band(a.astype(complex), 1), 1, lo, hi, 8, uplo="L"),
    "feast_scsr": lambda a, lo, hi: fl.feast_scsr(CsrMatrix.from_dense(a), lo, hi, 8),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k", SCALES)
@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_drivers_are_scale_safe(driver, k):
    a, expected = _tridiagonal_problem()
    s = 2.0 ** k
    result = DRIVERS[driver](s * a, 0.5 * s, 5.5 * s)
    assert result.info == 0
    assert result.m == len(expected) == 5
    got = np.sort(result.e[:result.m]) / s
    assert np.abs(got - expected).max() <= 1e-13 * expected.max()
