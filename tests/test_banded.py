import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg as sla

from feastlib import (
    CsrMatrix,
    SingularMatrixError,
    SolverOptions,
    csr_matvec,
    feast_hb,
    feast_hcsr,
    feast_sb,
    feast_scsr,
    feast_sy,
)
from feastlib.banded import band_csr
from feastlib.quadrature import build_contour, gauss_legendre
from feastlib.sparse import SUPERNODE, _SparseFactor, _SparseOps

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
    assert np.array_equal(band_csr(ab, 1, "F").to_dense(), a)


@pytest.mark.parametrize("uplo", ["F", "L", "U"])
def test_band_csr_holds_the_nonzero_entries(rng, uplo):
    a = _random_band(7, 2, rng, complex_=True)
    a[3, 2] = a[2, 3] = 0
    a[5, 5] = np.nan
    csr = band_csr(_to_band_storage(a, 2, uplo), 2, uplo)
    assert csr.uplo == "F" and csr.nnz == np.count_nonzero(a)
    assert np.array_equal(csr.to_dense(), a, equal_nan=True)


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
    # and two rows past the ones the layout needs
    ab = np.vstack([ab, np.full((2, 10), np.nan)])
    r = feast_sb(ab, 2, emin, emax, 7, uplo=uplo)
    assert r.info == 0
    assert np.all(np.isfinite(r.e)) and np.all(np.isfinite(r.x))


@pytest.mark.parametrize("uplo", ["F", "L", "U"])
def test_unused_slots_are_not_cast(uplo):
    """A single-precision pencil given a double B: values beyond float32's
    range in B's slots outside the matrix and in a row past the layout's
    are not cast to float32, so they raise no overflow warning."""
    a = _to_band_storage(np.array([[2, -1], [-1, 2]], dtype=np.float32), 1, uplo)
    b = _to_band_storage(np.eye(2), 1, uplo)
    if uplo != "L":
        b[0, 0] = 1e300
    if uplo != "U":
        b[-1, 1] = 1e300
    b = np.vstack([b, np.full((1, 2), 1e300)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = feast_sb(a, 1, -5.0, 5.0, 2, uplo=uplo, b=b, klb=1)
    assert r.info == 0 and np.allclose(r.e, [1.0, 3.0])


def _band_ops(fa, shifts, fb=None, hermitian=True):
    """The band drivers' ops on full bands (uplo='F' band storage): the
    multifrontal LU of z*B - A on the CSR of their nonzero entries."""
    fa, fb = (None if f is None else band_csr(f, (len(f) - 1) // 2, "F") for f in (fa, fb))
    return _SparseOps(fa, fb, shifts, hermitian)


def _check_solves(fa, z, rng, rtol):
    """Direct and adjoint solves of z*I - A (A the full band ``fa``) for one
    right-hand side and for a block of 5, against np.linalg.solve in
    complex128: within ``rtol`` relative, in the result type of fa and z."""
    n = fa.shape[1]
    ops = _band_ops(fa, [z])
    dtype = ops.pattern.a_data.dtype
    shifted = z * np.eye(n) - _dense_from_full_band(fa).astype(complex)
    for m in (1, 5):
        b = (rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))).astype(dtype)
        for solve, mat in ((ops.solve, shifted), (ops.solve_adjoint, shifted.conj().T)):
            got = solve(ops.factorize(z), b)
            want = np.linalg.solve(mat, b)
            assert got.shape == b.shape and got.dtype == dtype
            assert np.abs(got - want).max() <= rtol * np.abs(want).max()


def test_band_lu_direct_and_adjoint(rng):
    for n, kl in ((6, 1), (12, 3), (9, 0)):
        fa = _to_band_storage(_random_band(n, kl, rng, True), kl, "F")
        _check_solves(fa, 0.5 + 1j, rng, 1e-12)


def test_band_matvec_matches_dense(rng):
    """The band drivers multiply by the CSR of the band's nonzero entries."""
    a = _random_band(11, 3, rng)
    csr = band_csr(_to_band_storage(a, 3, "F"), 3, "F")
    x = rng.normal(size=(11, 4))
    assert np.abs(csr_matvec(csr, x) - a @ x).max() <= 1e-13


@pytest.mark.parametrize("uplo", ["F", "L"])
@pytest.mark.parametrize("hermitian", [False, True], ids=["feast_sb", "feast_hb"])
def test_band_and_csr_drivers_agree_bitwise(rng, hermitian, uplo):
    """feast_sb/feast_hb and feast_scsr/feast_hcsr on one generalized
    pencil, each matrix given in its own storage holding the same nonzero
    entries: equal e, x and res, bit for bit."""
    n, kla, klb = 60, 4, 1
    a = _random_band(n, kla, rng, hermitian)
    a[10, 12] = a[12, 10] = 0
    b = 0.5 * _random_band(n, klb, rng, hermitian) + 4 * np.eye(n)
    emin, emax = gap_interval(sla.eigh(a, b, eigvals_only=True), 20, 31)
    band, csr = (feast_hb, feast_hcsr) if hermitian else (feast_sb, feast_scsr)
    got = band(_to_band_storage(a, kla, uplo), kla, emin, emax, 18, uplo=uplo,
               b=_to_band_storage(b, klb, uplo), klb=klb)
    want = csr(CsrMatrix.from_dense(a, uplo), emin, emax, 18, b=CsrMatrix.from_dense(b, uplo))
    assert got.info == want.info == 0 and got.m == want.m == 12
    for name in ("e", "x", "res"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


def test_banded_argument_errors():
    ab = np.zeros((3, 4))
    assert feast_sb(ab, 1, 0.0, 1.0, 2, uplo="X").info == -101
    assert feast_sb(ab, -1, 0.0, 1.0, 2).info == -103
    assert feast_sb(np.zeros((2, 4)), 1, 0.0, 1.0, 2).info == -105  # needs 3 rows
    assert feast_sb(ab, 1, 0.0, 1.0, 2, b=np.zeros((3, 4)), klb=None).info == -106
    assert feast_sb(ab, 1, 0.0, 1.0, 2, b=np.zeros((2, 4)), klb=1).info == -108
    # A ragged nested list has no shape; numpy's ValueError once escaped.
    # A's code comes after the bandwidth check, which an A with no shape
    # (n = 0) passes only with kla=0.
    ragged = [[2.0, 2.0], [-1.0]]
    for driver in (feast_sb, feast_hb):
        assert driver(ragged, 0, -5.0, 5.0, 2, uplo="L").info == -105
        assert driver([[2.0, 2.0]], 0, -5.0, 5.0, 2, uplo="L", b=ragged, klb=1).info == -108
        assert driver([[2.0, 2.0]], 0, -5.0, 5.0, 2, uplo="L", b=[[1.0, 1.0]], klb=0).info == 0


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
    # A bool is an Integral too, but not a bandwidth: False once read as
    # kla=0 with an all-zero band (eigenvalues [0, 0] with info 0), and True
    # raised an uncaught ValueError.
    for flag in (False, True):
        assert feast_sb([[2.0, 2.0]], flag, -5.0, 5.0, 2, uplo="L").info == -103
        assert feast_sb(ab, 1, 0.0, 1.0, 2, b=b, klb=flag).info == -106
    r = feast_sb([[2.0, 2.0]], 0, -5.0, 5.0, 2, uplo="L")
    assert r.info == 0 and r.e[:r.m].tolist() == [2.0, 2.0]


# --- band pencils on the multifrontal LU ------------------------------------------


def _dominant_band(n, kl, rng, complex_):
    """Hermitian band matrix with diagonal 10 and off-diagonal row sums
    below 1, in uplo='F' band storage."""
    a = _random_band(n, kl, rng, complex_)
    np.fill_diagonal(a, 0)
    a *= 0.9 / max(np.abs(a).sum(axis=1).max(), 1e-300)
    np.fill_diagonal(a, 10.0)
    return _to_band_storage(a, kl, "F")


def _check_batch(ops, shifts, rng):
    """Each shift of the batch solves, direct and adjoint, bitwise as its
    one-shift factor does, and within 1e-12 relative of np.linalg.solve."""
    n = ops.pattern.n
    rhs = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
    handles = [ops.factorize(z) for z in shifts]
    for handle, z in zip(handles, shifts):
        shifted = ops.pattern.shifted_data(z)
        alone = _SparseFactor(ops.symbolic, shifted, symmetric=not ops.hermitian)
        dense = np.zeros((n, n), dtype=complex)
        dense[ops.pattern.rows, ops.pattern.cols] = shifted
        for solve, adjoint in ((ops.solve, False), (ops.solve_adjoint, True)):
            got = solve(handle, rhs)
            assert got.tobytes() == alone.solve(rhs, adjoint).tobytes()
            want = np.linalg.solve(dense.conj().T if adjoint else dense, rhs)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("g", [1, 2, 3, 8])
def test_batched_band_lu_matches_column_reference(rng, complex_, g):
    """A batch of g contour shifts of a random band pencil, standard and
    generalized, against each shift's one-shift factor and a dense solve."""
    n, kl = 40, 3
    fa = _random_band(n, kl, rng, complex_)
    fb = _random_band(n, 1, rng) + 4 * np.eye(n)
    shifts = [complex(z) for z in build_contour(gauss_legendre(8), -1.0, 1.0).z[:g]]
    for b in (None, _to_band_storage(fb, 1, "F")):
        ops = _band_ops(_to_band_storage(fa, kl, "F"), shifts, b, hermitian=complex_)
        _check_batch(ops, shifts, rng)


def test_one_pivoting_shift_in_a_batch(rng):
    """A shift next to A's cluster of eigenvalues at 10, where the shifted
    matrix has no dominant diagonal, beside two shifts far from it."""
    n, kl = 30, 2
    shifts = [0.5j, 10.0 + 1e-3j, 2.0 + 0.5j]
    _check_batch(_band_ops(_dominant_band(n, kl, rng, True), shifts), shifts, rng)


def test_zero_pivot_in_a_batch_names_shift_and_column(rng):
    n, kl = 12, 2
    fa = _dominant_band(n, kl, rng, False)
    fa[:, 4] = 0
    fa[kl, 4] = 3.0  # column 4 of z - A is zero at z = 3 only
    ops = _band_ops(fa, [1j, 3.0, 2j])  # one batch
    sym = ops.symbolic
    first = sym.start[np.searchsorted(sym.start, sym.iperm[4], side="right") - 1]
    with pytest.raises(SingularMatrixError, match=rf"sparse column {first} \(shift 1\)"):
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
    shifts = [complex(z) for z in build_contour(gauss_legendre(8), 0.0, 1.0).z]
    return _band_ops(fa, shifts, fb), shifts


def test_factorize_shares_one_batch():
    """Every shift's handle points into the one batch of all 8 shifts,
    factorized by the first request."""
    ops, shifts = _wide_band_ops()
    handles = [ops.factorize(z) for z in shifts]
    assert ops._batch.ne == len(shifts)
    for i, (batch, s) in enumerate(handles):
        assert batch is ops._batch and s == i


def test_each_shift_solves_as_its_one_shift_factor(rng):
    """Each of the 8 shifts of the batch solves bitwise as its one-shift
    factor does, direct and adjoint (each from the held sweep of its group
    of 4 shifts), and agrees with a dense solve."""
    ops, shifts = _wide_band_ops()
    n = ops.pattern.n
    rhs = rng.normal(size=(n, 30)) + 1j * rng.normal(size=(n, 30))
    _check_batch(ops, shifts, rng)
    for z in shifts[:2]:
        alone = _SparseFactor(ops.symbolic, ops.pattern.shifted_data(z))
        for solve, adjoint in ((ops.solve, False), (ops.solve_adjoint, True)):
            assert solve(ops.factorize(z), rhs).tobytes() == alone.solve(rhs, adjoint).tobytes()


# --- solves of awkward band systems ------------------------------------------------


@pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
@pytest.mark.parametrize("n, kl", [(5, 2), (2 * SUPERNODE + 5, 3), (40, 0), (20, 19),
                                   (3 * SUPERNODE, 31), (2 * SUPERNODE + 9, 1),
                                   (3 * SUPERNODE + 2, 7)],
                         ids=["n<kb", "n%kb!=0", "kl=0", "kl=n-1", "kl>kb", "kl=1", "kl=7"])
def test_blocked_solve_matches_row_loops(rng, dtype, n, kl):
    """Band shapes around kb = SUPERNODE, the width of the natural-order
    chain's supernodes: the solves of z*I - A in the band's precision
    match a dense solve, 1e-12 relative in complex128 and 1e-5 in
    complex64."""
    a = _random_band(n, kl, rng, True)
    fa = _to_band_storage(a, kl, "F").astype(dtype)
    _check_solves(fa, 0.5 + 1j, rng, 1e-12 if dtype == np.complex128 else 1e-5)


def test_blocked_solve_with_pivots_inside_and_on_panel_boundaries(rng):
    """Zero diagonal entries of z*I - A: the first pivot of all, exactly
    zero (only pivoting inside its pivot block solves it), one inside a
    supernode, one in its last column and one in the first column of the
    next."""
    n, kl, z = 4 * SUPERNODE + 3, 4, 2.0 + 1.0j
    fa = _dominant_band(n, kl, rng, True)
    sym = _band_ops(fa, [z]).symbolic
    start = sym.start
    assert len(start) > 4 and start[2] - start[1] > 6
    zeros = sym.perm[[0, start[1] + 5, start[2] - 1, start[3]]]
    fa[kl, zeros] = z
    _check_solves(fa, z, rng, 1e-12)


def test_blocked_solve_at_a_shift_near_an_eigenvalue(rng):
    """z within 1e-6 of an eigenvalue (condition number about 1e7): the
    backward error stays at rounding level, and the solution is within the
    condition number times it of a dense solve."""
    n, kl = 60, 5
    a = _random_band(n, kl, rng, True)
    z = np.linalg.eigvalsh(a)[30] + 1e-6 * (1 + 1j)
    shifted = z * np.eye(n) - a
    cond = np.linalg.cond(shifted)
    assert cond > 1e6
    ops = _band_ops(_to_band_storage(a, kl, "F"), [z])
    rhs = rng.normal(size=(n, 5)) + 1j * rng.normal(size=(n, 5))
    for solve, mat in ((ops.solve, shifted), (ops.solve_adjoint, shifted.conj().T)):
        got = solve(ops.factorize(z), rhs)
        eps = np.finfo(float).eps
        assert np.abs(mat @ got - rhs).max() <= 100 * eps * np.abs(mat).max() * np.abs(got).max()
        want = np.linalg.solve(mat, rhs)
        assert np.abs(got - want).max() <= 100 * eps * cond * np.abs(want).max()


def test_band_factor_and_solve_memory():
    """At the band-herm-gen sizes (n=900, kl=31, 8 shifts, 30 right-hand
    sides) the factors keep less than the band LU's (3*kl+1, 8, n) array
    did.  The Hermitian ops sweep 4 shifts at a time each way.  A direct
    solve holds the sweep of its shift's group, half the all-shift sweep.
    An adjoint solve of the other group, with the same key, allocates at
    its peak its own group's sweep (another half), the solution it returns
    (an eighth) and the products of one supernode's rows (a 64th is
    ample), and holds its sweep.  Both held sweeps together hold the
    all-shift sweep's 8 shift-slices and no copy of the right-hand side:
    as much as the all-shift direct sweep alone held."""
    ops, shifts = _wide_band_ops()
    n, kl = 900, 31
    sweep = len(shifts) * n * 30 * 16
    rhs = np.ones((n, 30), dtype=complex)
    tracemalloc.start()
    try:
        ops.factorize(shifts[0])
        kept = tracemalloc.get_traced_memory()[0]
        ops.solve(ops.factorize(shifts[0]), rhs, key=0)
        held = ops._held[False]
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        x = ops.solve_adjoint(ops.factorize(shifts[-1]), rhs, key=0)
        adjoint_peak = tracemalloc.get_traced_memory()[1] - before
        both = tracemalloc.get_traced_memory()[0] - kept - x.nbytes
    finally:
        tracemalloc.stop()
    assert kept <= (3 * kl + 1) * len(shifts) * n * 16
    assert held is not None and ops._held[False] is held
    adjoint = ops._held[True]
    assert held[2].nbytes == adjoint[2].nbytes == sweep / 2 and adjoint[0] == held[0] == 0
    assert adjoint_peak < sweep / 2 + sweep / 8 + sweep / 64
    assert both < sweep + sweep / 64
