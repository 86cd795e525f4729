import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla

from feastlib import SingularMatrixError, SolverOptions, feast_hb, feast_sb, feast_sy
from feastlib.banded import (
    KB,
    _band_lu_batch,
    _BandedOps,
    _factor_width,
    band_lu_factor,
    band_lu_solve,
    band_matvec,
    expand_band,
)
from feastlib.quadrature import build_contour, gauss_legendre

from conftest import gap_interval


def _dense_from_full_band(fb):
    n = fb.shape[1]
    kl = (fb.shape[0] - 1) // 2
    a = np.zeros((n, n), dtype=fb.dtype)
    for s in range(-kl, kl + 1):
        j = np.arange(max(0, -s), min(n, n - s))
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


def test_bandwidth_must_be_an_integer():
    ab = np.zeros((3, 4))
    b = np.eye(4)[:1].repeat(3, axis=0)
    for driver, dtype in ((feast_sb, float), (feast_hb, complex)):
        a = ab.astype(dtype)
        for kla in (1.0, None, "1"):
            assert driver(a, kla, 0.0, 1.0, 2).info == -103
        for klb in (1.0, None, "1"):
            assert driver(a, 1, 0.0, 1.0, 2, b=b.astype(dtype), klb=klb).info == -106
        # numpy integers are bandwidths too.
        assert driver(a, np.int64(1), 0.0, 1.0, 2).info == driver(a, 1, 0.0, 1.0, 2).info != -103


# --- shift-batched band LU ------------------------------------------------------


def _column_band_lu_factor(fb, kl):
    """The one-shift, column-by-column band LU the batch replaced: row
    kv + i - j of the (3*kl+1, n) result holds A[i, j], kv = 2*kl."""
    n = fb.shape[1]
    kv = 2 * kl
    ab = np.zeros((3 * kl + 1, n), dtype=np.result_type(fb.dtype, np.complex64))
    ab[kl:, :] = fb
    ipiv = np.arange(n)
    ju = 0
    for j in range(n):
        km = min(kl, n - 1 - j)
        jp = int(np.argmax(np.abs(ab[kv:kv + km + 1, j])))
        if ab[kv + jp, j] == 0:
            raise SingularMatrixError(f"zero pivot at band column {j}")
        ipiv[j] = j + jp
        ju = max(ju, min(j + kl + jp, n - 1))
        if jp != 0:
            cols = np.arange(j, ju + 1)
            hi, lo = kv + jp + j - cols, kv + j - cols
            ab[hi, cols], ab[lo, cols] = ab[lo, cols], ab[hi, cols]
        if km > 0:
            ab[kv + 1:kv + 1 + km, j] /= ab[kv, j]
            for c in range(j + 1, ju + 1):
                ujc = ab[kv + j - c, c]
                if ujc != 0:
                    ab[kv + j - c + 1:kv + j - c + 1 + km, c] -= ab[kv + 1:kv + 1 + km, j] * ujc
    return ab, ipiv


def _column_band_lu_solve(ab, ipiv, kl, b, adjoint):
    """Solve with a _column_band_lu_factor result, reading U to 2*kl."""
    n = ab.shape[1]
    kv = 2 * kl
    x = np.array(b, dtype=ab.dtype)
    if not adjoint:
        for j in range(n - 1):
            x[[j, ipiv[j]]] = x[[ipiv[j], j]]
            km = min(kl, n - 1 - j)
            x[j + 1:j + 1 + km] -= ab[kv + 1:kv + 1 + km, j][:, np.newaxis] * x[j]
        for j in range(n - 1, -1, -1):
            x[j] /= ab[kv, j]
            lm = min(kv, j)
            x[j - lm:j] -= ab[kv - lm:kv, j][:, np.newaxis] * x[j]
    else:
        for j in range(n):
            lm = min(kv, j)
            x[j] -= ab[kv - lm:kv, j].conj() @ x[j - lm:j]
            x[j] /= ab[kv, j].conjugate()
        for j in range(n - 2, -1, -1):
            km = min(kl, n - 1 - j)
            x[j] -= ab[kv + 1:kv + 1 + km, j].conj() @ x[j + 1:j + 1 + km]
            x[[j, ipiv[j]]] = x[[ipiv[j], j]]
    return x


def _dominant_band(n, kl, rng, complex_):
    """Hermitian band matrix with diagonal 10 and off-diagonal row sums
    below 1: a shift z pivots only when z comes close to 10."""
    a = _random_band(n, kl, rng, complex_)
    np.fill_diagonal(a, 0)
    a *= 0.9 / max(np.abs(a).sum(axis=1).max(), 1e-300)
    np.fill_diagonal(a, 10.0)
    return expand_band(_to_band_storage(a, kl, "F"), kl, "F", complex_)


def _shifted(ops, z, k):
    """z*B - A of ``ops`` in expand_band layout at bandwidth k, in the
    arithmetic of _BandedOps._factor."""
    kl = (ops.a.shape[0] - 1) // 2
    fb = np.zeros((2 * k + 1, ops.a.shape[1]), dtype=complex)
    shifted = fb[k - kl:k + kl + 1]
    shifted -= ops.a
    if ops.b is None:
        shifted[kl] += z
    else:
        shifted += z * ops.b
    return fb


def _diagonal_blocks(ab):
    """Per panel of KB columns (the last one n % KB wide) of the (3*K+1, n)
    band ``ab``: the band coordinates of its diagonal block, packed as LU
    stores it (entry (t, u) in band row 2*K + t - u, column k0 + u), and the
    unit-lower L and the upper U held there."""
    k = (ab.shape[0] - 1) // 3
    n = ab.shape[1]
    for k0 in range(0, n, KB):
        t, u = np.indices((min(KB, n - k0),) * 2)
        at = 2 * k + t - u, k0 + u
        yield at, np.tril(ab[at], -1) + np.eye(len(t)), np.triu(ab[at])


def _check_batch_against_reference(ops, shifts, rng):
    """The batch's LU (_band_lu_batch) is bitwise the column reference at
    the factor's bandwidth K, up to the sign of exact zeros.  Inverting the
    diagonal blocks (_invert_blocks) leaves every other entry of the band as
    it was, and each stored block times the reference block is I.  The
    solves match the row-loop reference.  Returns the LU and its pivots."""
    kl = (ops.a.shape[0] - 1) // 2
    n = ops.a.shape[1]
    k = _factor_width(kl, n)
    batch = ops._factor(shifts)
    ab, ipiv, _ = batch
    assert ab.shape == (3 * k + 1, len(shifts), n)
    shifted = [_shifted(ops, z, k) for z in shifts]
    lu = np.zeros_like(ab)
    lu[k:] = np.stack(shifted, axis=1)
    lu, lu_ipiv = _band_lu_batch(lu, kl)
    rhs = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
    for s in range(len(shifts)):
        want_ab, want_ipiv = _column_band_lu_factor(shifted[s], k)
        # Equal values, bitwise apart from the sign of exact zeros.
        assert np.array_equal(lu[:, s], want_ab)
        assert np.array_equal(lu_ipiv[s], want_ipiv) and np.array_equal(ipiv[s], want_ipiv)
        outside = np.ones(want_ab.shape, dtype=bool)
        for (at, want_l, want_u), (_, inv_l, inv_u) in zip(_diagonal_blocks(want_ab),
                                                           _diagonal_blocks(ab[:, s])):
            outside[at] = False
            eye = np.eye(len(want_l))
            assert np.abs(inv_l @ want_l - eye).max() <= 1e-12
            assert np.abs(inv_u @ want_u - eye).max() <= 1e-12
        assert np.array_equal(ab[:, s][outside], want_ab[outside])
        for adjoint in (False, True):
            want = _column_band_lu_solve(want_ab, want_ipiv, k, rhs, adjoint)
            got = band_lu_solve((batch, s), rhs, adjoint)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    return lu, ipiv


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("g", [1, 2, 3, 8])
def test_batched_band_lu_matches_column_reference(rng, complex_, g):
    n, kl = 40, 3
    fa = _random_band(n, kl, rng, complex_)
    fb = _random_band(n, 1, rng) + 4 * np.eye(n)
    shifts = [complex(z) for z in build_contour(gauss_legendre(8), -1.0, 1.0).z[:g]]
    for b in (None, expand_band(_to_band_storage(fb, 1, "F"), 1, "F", False, kl)):
        ops = _BandedOps(expand_band(_to_band_storage(fa, kl, "F"), kl, "F", complex_),
                         b, np.complex128, shifts)
        _, ipiv = _check_batch_against_reference(ops, shifts, rng)
        assert (ipiv != np.arange(n)).any()  # random bands pivot


def test_one_pivoting_shift_in_a_batch(rng):
    n, kl = 30, 2
    ops = _BandedOps(_dominant_band(n, kl, rng, True), None, np.complex128, ())
    shifts = [0.5j, 10.0 + 1e-3j, 2.0 + 0.5j]
    lu, ipiv = _check_batch_against_reference(ops, shifts, rng)
    moved = ipiv != np.arange(n)
    assert moved[1].any() and not moved[0].any() and not moved[2].any()
    # Only the pivoting shift fills rows above the band of A's kl and widens
    # U; the LU's bandwidth K pads that band with zero rows.
    above = 2 * _factor_width(kl, n) - kl
    assert lu[:above, 1].any() and not lu[:above, 0].any() and not lu[:above, 2].any()
    assert (ipiv[1] - np.arange(n)).max() > 0


def test_zero_pivot_in_a_batch_names_shift_and_column(rng):
    n, kl = 12, 2
    fa = _dominant_band(n, kl, rng, False)
    fa[:, 4] = 0
    fa[kl, 4] = 3.0  # column 4 of z - A is zero at z = 3 only
    ops = _BandedOps(fa, None, np.complex128, [1j, 3.0, 2j])  # one batch
    with pytest.raises(SingularMatrixError, match=r"band column 4 \(shift 1\)"):
        ops.factorize(1j)
    ops._factor([1j, 2j])  # the other shifts factorize


def test_singular_pencil_returns_minus_two():
    # A = diag(2, 0, 2, 2), B = diag(1, 0, 1, 1): column 1 of z*B - A is zero
    # at every shift.
    a = np.zeros((3, 4))
    a[1] = [2.0, 0.0, 2.0, 2.0]
    b = np.array([[1.0, 0.0, 1.0, 1.0]])
    assert feast_sb(a, 1, 0.0, 5.0, 3, b=b, klb=0).info == -2
    assert feast_hb(a.astype(complex), 1, 0.0, 5.0, 3, b=b.astype(complex), klb=0).info == -2


def test_generalized_banded_parallel_contour_is_bitwise(rng):
    n, kl = 40, 3
    fa = _random_band(n, kl, rng, True)
    fb = 0.5 * _random_band(n, 1, rng, True) + 4 * np.eye(n)
    for driver, a, b in ((feast_hb, fa, fb), (feast_sb, fa.real, fb.real)):
        emin, emax = gap_interval(sla.eigh(a, b, eigvals_only=True), 10, 20)
        ab, bb = _to_band_storage(a, kl, "L"), _to_band_storage(b, 1, "L")
        runs = [driver(ab, kl, emin, emax, 16, uplo="L", b=bb, klb=1,
                       options=SolverOptions(parallel_contour=w)) for w in (1, 2)]
        assert runs[0].info == 0
        for name in ("e", "x", "res"):
            assert getattr(runs[0], name).tobytes() == getattr(runs[1], name).tobytes()


def _wide_band_ops(n=900, kl=31):
    """Ops of a 2-D Laplacian-like pencil at the band-herm-gen benchmark's
    size (n=900, kl=31), with the 8 contour shifts of [0, 1]."""
    fa = np.zeros((2 * kl + 1, n), dtype=complex)
    fa[kl] = 4.0
    fa[kl - 1, 1:] = fa[kl + 1, :-1] = -1.0
    fa[0, kl:] = fa[-1, :-kl] = -1.0
    fb = np.zeros_like(fa)
    fb[kl] = 1.0
    shifts = build_contour(gauss_legendre(8), 0.0, 1.0).z
    return _BandedOps(fa, fb, np.complex128, shifts), [complex(z) for z in shifts]


def test_factorize_shares_one_batch():
    """Every shift's handle points into the one batch of all 8 shifts,
    factorized by the first request."""
    ops, shifts = _wide_band_ops()
    handles = [ops.factorize(z) for z in shifts]
    assert ops._batch[0].shape[1] == len(shifts)
    for i, (batch, s) in enumerate(handles):
        assert batch is ops._batch and s == i


def test_each_shift_solves_as_its_one_shift_factor(rng):
    """The diagonal-block inverses are made for all 8 shifts of the batch at
    once (one of them pivots, in 3 panels), yet each shift solves bitwise as
    its one-shift factor does, direct and adjoint, and agrees with a dense
    solve."""
    ops, shifts = _wide_band_ops()
    batch = ops._factor(shifts)
    assert sum(len(moved) for moved in batch[2]) == 3
    kl = (ops.a.shape[0] - 1) // 2
    rhs = rng.normal(size=(ops.a.shape[1], 30)) + 1j * rng.normal(size=(ops.a.shape[1], 30))
    for s, z in enumerate(shifts):
        shifted = _shifted(ops, z, kl)
        alone = band_lu_factor(shifted, kl)
        dense = _dense_from_full_band(shifted)
        for adjoint in (False, True):
            got = band_lu_solve((batch, s), rhs, adjoint)
            assert got.tobytes() == band_lu_solve(alone, rhs, adjoint).tobytes()
            want = np.linalg.solve(dense.conj().T if adjoint else dense, rhs)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


# --- panel-blocked band solves ---------------------------------------------------


def _check_solves(fb, kl, rng):
    """band_lu_solve against the row-loop reference (_column_band_lu_solve),
    direct and adjoint, for one right-hand side and for a block of 5.  The
    blocked solve sums in another order, so the tolerance is set by the
    precision: 1e-12 relative in complex128, 1e-5 in complex64."""
    rtol = 1e-12 if fb.dtype == np.complex128 else 1e-5
    n = fb.shape[1]
    factor = band_lu_factor(fb, kl)
    want_ab, want_ipiv = _column_band_lu_factor(fb, kl)
    for shape in ((n,), (n, 5)):
        b = (rng.normal(size=shape) + 1j * rng.normal(size=shape)).astype(fb.dtype)
        for adjoint in (False, True):
            want = _column_band_lu_solve(want_ab, want_ipiv, kl, b.reshape(n, -1), adjoint)
            got = band_lu_solve(factor, b, adjoint)
            assert got.shape == b.shape and got.dtype == fb.dtype
            assert np.abs(got.reshape(n, -1) - want).max() <= rtol * np.abs(want).max()
    return factor


@pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
@pytest.mark.parametrize("n, kl", [(5, 2), (2 * KB + 5, 3), (40, 0), (20, 19), (3 * KB, 31),
                                   (2 * KB + 9, 1), (3 * KB + 2, 7)],
                         ids=["n<kb", "n%kb!=0", "kl=0", "kl=n-1", "kl>kb", "kl=1", "kl=7"])
def test_blocked_solve_matches_row_loops(rng, dtype, n, kl):
    a = _random_band(n, kl, rng, True) + np.eye(n)
    fb = expand_band(_to_band_storage(a, kl, "F"), kl, "F", True).astype(dtype)
    factor = _check_solves(fb, kl, rng)
    (_, ipiv, moved), _ = factor
    # Random bands pivot in most panels, which then solve with the window
    # transforms kept at factor time.
    assert sorted(moved[0]) == sorted({j - j % KB for j in np.flatnonzero(ipiv[0] != np.arange(n))})
    assert kl == 0 or moved[0]


def test_blocked_solve_with_pivots_inside_and_on_panel_boundaries(rng):
    n, kl = 4 * KB + 3, 4
    fb = _dominant_band(n, kl, rng, True)
    # A zero diagonal forces an interchange: inside a panel, in the last
    # column of a panel (with a row of the next panel) and in the first.
    inside, last, first = KB + 5, 2 * KB - 1, 3 * KB
    fb[kl, [inside, last, first]] = 0
    (_, ipiv, moved), _ = _check_solves(fb, kl, rng)
    pivoted = np.flatnonzero(ipiv[0] != np.arange(n))
    assert {inside, last, first} <= set(pivoted)
    assert ipiv[0, last] >= 2 * KB
    assert sorted(moved[0]) == [KB, 3 * KB]


def test_blocked_solve_at_a_shift_near_an_eigenvalue(rng):
    n, kl = 60, 5
    a = _random_band(n, kl, rng, True)
    lam = np.linalg.eigvalsh(a)[30]
    fb = -expand_band(_to_band_storage(a, kl, "F"), kl, "F", True)
    fb[kl] += lam + 1e-6 * (1 + 1j)  # condition number about 1e7
    assert np.linalg.cond(_dense_from_full_band(fb)) > 1e6
    _check_solves(fb, kl, rng)


def test_band_factor_and_solve_memory():
    """At n=900, kl=31 and 8 shifts (the band-herm-gen sizes), the factors
    keep per shift what one shift's slice of the (3*kl+1, g, n) band array
    and its pivot row take, plus at most 1% for the window transforms of
    the panels that interchange rows (one shift here, 3 panels); blocks
    stored for every panel would double it.  One solve of m0=30 columns
    allocates less than one shift's band bytes at its peak."""
    ops, shifts = _wide_band_ops()
    n, kl = 900, 31
    band = (3 * kl + 1) * n * 16
    rhs = np.ones((n, 30), dtype=complex)
    tracemalloc.start()
    try:
        ops.factorize(shifts[0])
        kept = tracemalloc.get_traced_memory()[0]
        peaks = []
        for adjoint in (False, True):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            band_lu_solve(ops.factorize(shifts[-1]), rhs, adjoint)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
    assert sum(len(moved) for moved in ops._batch[2]) == 3
    assert kept / len(shifts) <= 1.01 * (band + n * 8)
    assert max(peaks) < band
