import numpy as np
import pytest

from feastlib import feast_hb, feast_sb, feast_sy
from feastlib.banded import (
    band_lu_factor,
    band_lu_solve,
    band_matvec,
    expand_band,
)

from conftest import gap_interval


def _dense_from_full_band(fb):
    n = fb.shape[1]
    kl = (fb.shape[0] - 1) // 2
    a = np.zeros((n, n), dtype=fb.dtype)
    for s in range(-kl, kl + 1):
        for j in range(max(0, -s), min(n, n - s)):
            a[j + s, j] = fb[kl + s, j]
    return a


def _random_band(n, kl, rng, complex_=False):
    a = rng.normal(size=(n, n))
    if complex_:
        a = a + 1j * rng.normal(size=(n, n))
    a = (a + a.conj().T) / 2
    mask = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= kl
    return np.where(mask, a, 0)


def _to_band_storage(a, kl, uplo):
    """Pack a dense banded matrix into the driver's band layout."""
    n = a.shape[0]
    if uplo == "F":
        ab = np.zeros((2 * kl + 1, n), dtype=a.dtype)
        for s in range(-kl, kl + 1):
            for j in range(max(0, -s), min(n, n - s)):
                ab[kl + s, j] = a[j + s, j]
    elif uplo == "L":
        ab = np.zeros((kl + 1, n), dtype=a.dtype)
        for d in range(kl + 1):
            for j in range(n - d):
                ab[d, j] = a[j + d, j]
    else:
        ab = np.zeros((kl + 1, n), dtype=a.dtype)
        for d in range(kl + 1):
            for j in range(d, n):
                ab[kl - d, j] = a[j - d, j]
    return ab


def test_band_storage_layout_from_reference_pattern():
    # Tridiagonal 4x4 with entries a_ij = a_ji: layout rows are
    # {*, a12, a23, a34 / a11, a22, a33, a44 / a21, a32, a43, *}.
    vals = {(0, 0): 1.0, (1, 1): 2.0, (2, 2): 3.0, (3, 3): 4.0,
            (0, 1): 5.0, (1, 2): 6.0, (2, 3): 7.0}
    a = np.zeros((4, 4))
    for (i, j), v in vals.items():
        a[i, j] = v
        a[j, i] = v
    ab = _to_band_storage(a, 1, "F")
    assert np.array_equal(ab[0], [0.0, 5.0, 6.0, 7.0])
    assert np.array_equal(ab[1], [1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(ab[2], [5.0, 6.0, 7.0, 0.0])
    fb = expand_band(ab, 1, "F", hermitian=False)
    assert np.array_equal(_dense_from_full_band(fb), a)


@pytest.mark.parametrize("uplo", ["F", "L", "U"])
def test_expand_band_into_a_wider_band(rng, uplo):
    a = _random_band(7, 2, rng, complex_=True)
    fb = expand_band(_to_band_storage(a, 2, uplo), 2, uplo, True)
    wide = expand_band(_to_band_storage(a, 2, uplo), 2, uplo, True, width=4)
    assert wide.shape == (9, 7)
    assert np.array_equal(wide[2:7], fb)
    assert not wide[:2].any() and not wide[7:].any()
    assert np.array_equal(_dense_from_full_band(wide), a)


def test_banded_spectrum_matches_dense_expansion(rng):
    a = 2 * np.eye(4) - np.eye(4, k=1) - np.eye(4, k=-1)
    ab = _to_band_storage(a, 1, "F")
    ev = np.linalg.eigvalsh(a)
    rb = feast_sb(ab, 1, -1.0, 5.0, 4)
    rd = feast_sy(a, -1.0, 5.0, 4)
    assert rb.info == rd.info == 0
    assert rb.m == rd.m == 4
    assert np.abs(rb.e - rd.e).max() <= 1e-12
    assert np.abs(np.sort(rb.e) - ev).max() <= 1e-12


def test_helloworld_banded():
    hello = np.array([[2.0, -1.0], [-1.0, 2.0]])
    ab = _to_band_storage(hello, 1, "F")
    r = feast_sb(ab, 1, -5.0, 5.0, 2)
    assert r.info == 0
    assert r.m == 2
    assert np.allclose(r.e[:2], [1.0, 3.0], atol=1e-12)


def test_diagonal_band():
    ab = np.array([[1.0, 2.0, 3.0]])
    r = feast_sb(ab, 0, 1.5, 3.5, 2)
    # every working column ended up inside, so the solver cannot rule out
    # further eigenvalues and warns that m0 is too small
    assert r.info == 3
    assert r.m == 2
    assert np.allclose(r.e[:2], [2.0, 3.0], atol=1e-13)


def test_hermitian_tridiagonal_spectrum():
    # offdiagonal i, diagonal 2: spectrum {2-sqrt2, 2, 2+sqrt2}
    a = 2 * np.eye(3, dtype=complex) + 1j * np.eye(3, k=1) - 1j * np.eye(3, k=-1)
    ab = _to_band_storage(a, 1, "F")
    r = feast_hb(ab, 1, 0.0, 4.0, 3)
    assert r.info == 0
    assert r.m == 3
    ref = [2.0 - np.sqrt(2.0), 2.0, 2.0 + np.sqrt(2.0)]
    assert np.abs(r.e - ref).max() <= 1e-12


@pytest.mark.parametrize("uplo", ["F", "L", "U"])
def test_banded_vs_dense_random(rng, uplo):
    a = _random_band(12, 2, rng, complex_=True)
    ev = np.linalg.eigvalsh(a)
    emin, emax = gap_interval(ev, 3, 8)
    ab = _to_band_storage(a, 2, uplo)
    rb = feast_hb(ab, 2, emin, emax, 8, uplo=uplo)
    from feastlib import feast_he

    rd = feast_he(a, emin, emax, 8)
    assert rb.info == rd.info == 0
    assert rb.m == rd.m == 6
    assert np.abs(rb.e - rd.e).max() <= 1e-10


def test_generalized_mixed_bandwidths(rng):
    import scipy.linalg as sla

    n = 20
    a = _random_band(n, 2, rng)
    b = np.eye(n) * 4 + np.eye(n, k=1) + np.eye(n, k=-1)
    ev = sla.eigh(a, b, eigvals_only=True)
    emin, emax = gap_interval(ev, 5, 11)
    rb = feast_sb(_to_band_storage(a, 2, "F"), 2, emin, emax, 10,
                  b=_to_band_storage(b, 1, "F"), klb=1)
    rd = feast_sy(a, emin, emax, 10, b=b)
    assert rb.info == rd.info == 0
    assert rb.m == rd.m == 7
    assert np.abs(rb.e - rd.e).max() <= 1e-10


@pytest.mark.parametrize("uplo", ["F", "L", "U"])
def test_poisoned_unused_slots_never_read(rng, uplo):
    a = _random_band(10, 2, rng)
    ev = np.linalg.eigvalsh(a)
    emin, emax = gap_interval(ev, 2, 6)
    ab = _to_band_storage(a, 2, uplo)
    # poison the out-of-pattern corner slots
    if uplo == "F":
        for d in range(1, 3):
            ab[2 - d, :d] = np.nan
            ab[2 + d, -d:] = np.nan
    elif uplo == "L":
        for d in range(1, 3):
            ab[d, -d:] = np.nan
    else:
        for d in range(1, 3):
            ab[2 - d, :d] = np.nan
    r = feast_sb(ab, 2, emin, emax, 7, uplo=uplo)
    assert r.info == 0
    assert np.all(np.isfinite(r.e)) and np.all(np.isfinite(r.x))


def test_band_lu_direct_and_adjoint(rng):
    for n, kl in ((6, 1), (12, 3), (9, 0)):
        a = _random_band(n, kl, rng, complex_=True) + 3j * np.eye(n)
        fb = _to_band_storage(a, kl, "F")
        factor = band_lu_factor(expand_band(fb, kl, "F", True), kl)
        b = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
        x = band_lu_solve(factor, b)
        assert np.abs(a @ x - b).max() <= 1e-10 * max(1.0, np.abs(a).max())
        xa = band_lu_solve(factor, b, adjoint=True)
        assert np.abs(a.conj().T @ xa - b).max() <= 1e-10 * max(1.0, np.abs(a).max())


def test_band_matvec_matches_dense(rng):
    a = _random_band(11, 3, rng)
    fb = expand_band(_to_band_storage(a, 3, "F"), 3, "F", False)
    x = rng.normal(size=(11, 4))
    assert np.abs(band_matvec(fb, x) - a @ x).max() <= 1e-13


def test_banded_argument_errors():
    ab = np.zeros((3, 4))
    assert feast_sb(ab, 1, 0.0, 1.0, 2, uplo="X").info == -101
    assert feast_sb(ab, -1, 0.0, 1.0, 2).info == -103
    assert feast_sb(np.zeros((2, 4)), 1, 0.0, 1.0, 2).info == -105  # needs 3 rows
    assert feast_sb(ab, 1, 0.0, 1.0, 2, b=np.zeros((3, 4)), klb=None).info == -106
    assert feast_sb(ab, 1, 0.0, 1.0, 2, b=np.zeros((2, 4)), klb=1).info == -108
