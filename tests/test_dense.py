import tracemalloc

import numpy as np
import pytest

from feastlib import SingularMatrixError, SolverOptions, feast_he, feast_sy, feastinit
from feastlib.dense import (
    LEAF,
    NB,
    _DenseFactor,
    _DenseOps,
    expand_uplo,
)
from feastlib.quadrature import build_contour, gauss_legendre

from conftest import gap_interval, random_hermitian, random_symmetric

HELLO = np.array([[2.0, -1.0], [-1.0, 2.0]])


def _factor(a):
    """The one-shift _DenseFactor of a copy of ``a``."""
    return _DenseFactor(np.array(a)[np.newaxis])


def test_lu_solve_random_complex(rng):
    for n in (1, 2, 5, 20):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        b = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
        x = _factor(a).solve(b)
        assert np.abs(a @ x - b).max() <= 1e-10 * max(1.0, np.abs(a).max())


def _unblocked_lu_factor(a):
    """Reference: the column-by-column LU with one rank-1 update per step."""
    lu = np.array(a, copy=True)
    n = lu.shape[0]
    piv = np.arange(n)
    for k in range(n):
        p = k + int(np.argmax(np.abs(lu[k:, k])))
        if lu[p, k] == 0:
            raise SingularMatrixError(f"zero pivot at column {k}")
        piv[k] = p
        if p != k:
            lu[[k, p], :] = lu[[p, k], :]
        if k + 1 < n:
            lu[k + 1:, k] /= lu[k, k]
            lu[k + 1:, k + 1:] -= np.outer(lu[k + 1:, k], lu[k, k + 1:])
    return lu, piv


def _row_order(piv):
    """Rows of A in the order of PA: the interchanges of piv applied in turn."""
    order = list(range(len(piv)))
    for k, p in enumerate(piv.tolist()):
        order[k], order[p] = order[p], order[k]
    return np.array(order)


def _assert_block_form(factor, lu):
    """For each NB-column block of PA = LU, with L and U from ``lu``:
    inv = (L11 U11)^-1 on the diagonal, li = L21 L11^-1 below and
    ui = U11^-1 U12 to the right, each within 1e-12."""
    n = len(lu)
    lower, upper = np.tril(lu, -1) + np.eye(n), np.triu(lu)
    for k, r, (inv, li, ui) in zip(factor.columns, factor.rows, factor.blocks):
        l11, u11 = lower[k, k], upper[k, k]
        want = (np.linalg.inv(l11 @ u11), lower[r, k] @ np.linalg.inv(l11),
                np.linalg.inv(u11) @ upper[k, r])
        for got, w in zip((inv, li, ui), want):
            assert got.shape == (1,) + w.shape
            assert np.abs(got[0] - w).max(initial=0) <= 1e-12 * np.abs(w).max(initial=1)


BLOCK_EDGE_SIZES = (1, NB - 1, NB, NB + 1, 2 * NB + 3)


@pytest.mark.parametrize("n", BLOCK_EDGE_SIZES)
@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_blocked_lu_matches_unblocked_reference(rng, n, complex_):
    a = rng.normal(size=(n, n))
    if complex_:
        a = a + 1j * rng.normal(size=(n, n))
    factor = _factor(a)
    ref_lu, ref_piv = _unblocked_lu_factor(a)
    assert np.array_equal(factor.orders[False][0][:, 0], _row_order(ref_piv))
    assert np.array_equal(factor.orders[True][1][:, 0], np.argsort(_row_order(ref_piv)))
    _assert_block_form(factor, ref_lu)

    b = rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4))
    for adjoint, op in ((False, a), (True, a.conj().T)):
        x = factor.solve(b, adjoint=adjoint)
        scale = np.abs(op).max() * np.abs(x).max() * n
        assert np.abs(op @ x - b).max() <= 1e-12 * scale
        x0 = factor.solve(b[:, 0], adjoint=adjoint)
        assert x0.shape == (n,)
        assert np.abs(x0 - x[:, 0]).max() <= 1e-12 * np.abs(x).max()


@pytest.mark.parametrize("column", [0, NB - 1, NB + 1, 2 * NB + 2])
def test_blocked_lu_zero_column_names_the_reference_column(rng, column):
    n = 2 * NB + 3
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    a[:, column] = 0
    with pytest.raises(SingularMatrixError) as ref:
        _unblocked_lu_factor(a)
    with pytest.raises(SingularMatrixError) as blocked:
        _factor(a)
    assert str(blocked.value) == str(ref.value) == f"zero pivot at column {column}"


@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.complex64, np.complex128])
def test_lu_factor_keeps_inexact_dtype(dtype):
    factor = _factor(HELLO.astype(dtype))
    assert factor.lu.dtype == factor.dtype == dtype
    x = factor.solve(np.ones(2, dtype=dtype))
    assert x.dtype == dtype
    assert np.abs(x - 1).max() <= 2 * np.finfo(dtype).eps


def _pivoting_stack(rng, n, g, complex_):
    """g diagonally dominant n x n matrices, which factorize without row
    interchanges, except that matrix s has a zero diagonal entry at column
    cols[s] (different columns for different s), where it must pivot."""
    cols = [(5 * s + 2) % max(n - 1, 1) for s in range(g)]
    mats = rng.normal(size=(g, n, n)) + 4 * n * np.eye(n)
    if complex_:
        mats = mats + 1j * rng.normal(size=(g, n, n))
    if n > 1:
        for s, c in enumerate(cols):
            mats[s, c, c] = 0
    return mats, cols


@pytest.mark.parametrize("n", (1, LEAF, LEAF + 1, NB, NB + 1, 2 * NB + 3))
@pytest.mark.parametrize("g", (1, 3, 8))
@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_stacked_lu_is_bitwise_the_one_shift_lu(rng, n, g, complex_):
    mats, cols = _pivoting_stack(rng, n, g, complex_)
    factor = _DenseFactor(mats.copy())
    for s in range(g):
        one = _factor(mats[s])
        assert factor.lu[s].tobytes() == one.lu.tobytes()
        for adjoint in (False, True):
            for got, want in zip(factor.orders[adjoint], one.orders[adjoint]):
                assert np.array_equal(got[:, s], want[:, 0])
        if n > 1:
            # The first interchange is at the zeroed diagonal entry.
            order = factor.orders[False][0][:, s]
            assert np.flatnonzero(order != np.arange(n))[0] == cols[s]


@pytest.mark.parametrize("column", [0, LEAF, NB - 1, NB + 1, 2 * NB + 2])
def test_stacked_lu_zero_pivot_in_second_shift_names_its_column(rng, column):
    n = 2 * NB + 3
    mats = rng.normal(size=(3, n, n)) + 1j * rng.normal(size=(3, n, n))
    mats[1, :, column] = 0
    with pytest.raises(SingularMatrixError) as err:
        _DenseFactor(mats)
    assert str(err.value) == f"zero pivot at column {column} (shift 1)"


@pytest.mark.parametrize("adjoint", [False, True], ids=["direct", "adjoint"])
def test_stacked_sweep_matches_one_shift_solves(rng, adjoint):
    """Each shift's block form and solve from the (n, shifts, m) sweep of
    all shifts are bitwise its one-shift factor's, and a sweep of one shift
    is bitwise its slice of the sweep of all."""
    n, g = 2 * NB + 3, 4
    mats, _ = _pivoting_stack(rng, n, g, complex_=True)
    factor = _DenseFactor(mats.copy())
    b = rng.normal(size=(n, 5)) + 1j * rng.normal(size=(n, 5))
    y = factor.sweep(b, adjoint)
    assert y.shape == (n, g, 5)
    for s in range(g):
        one = _factor(mats[s])
        assert one.lu.tobytes() == factor.lu[s].tobytes()
        assert factor.sweep(b, adjoint, s).tobytes() == y[:, s:s + 1].tobytes()
        x = factor.pick(y, s, adjoint)
        assert np.array_equal(x, one.solve(b, adjoint))
        assert np.array_equal(x, factor.pick(factor.sweep(b, adjoint, s), s, adjoint))
        op = mats[s].conj().T if adjoint else mats[s]
        assert np.abs(op @ x - b).max() <= 1e-12 * np.abs(op).max() * np.abs(x).max() * n


@pytest.mark.parametrize("n", BLOCK_EDGE_SIZES)
def test_block_form_holds_the_block_inverses(rng, n):
    """The blocks' inverses against the unblocked reference's L and U, and
    the blocks cover all n columns, the last reaching no later rows."""
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    factor = _factor(a)
    _assert_block_form(factor, _unblocked_lu_factor(a)[0])
    assert factor.columns[-1].stop == n and factor.blocks[-1][1].shape[1] == 0


def test_held_sweep_serves_equal_right_hand_sides_and_is_dropped(rng, monkeypatch):
    """Direct requests are served from one held sweep of all shifts; each
    adjoint request sweeps its own shift and holds nothing."""
    n = 20
    a = random_symmetric(n, rng)
    shifts = build_contour(gauss_legendre(8), -1.0, 1.0).z
    ops = _DenseOps(a, None, np.dtype(np.complex128), shifts)
    rhs1 = rng.normal(size=(n, 3)) + 0j
    rhs2 = rng.normal(size=(n, 3)) + 0j
    expected = {(i, k, adjoint): _factor(shifts[i] * np.eye(n) - a).solve(rhs, adjoint)
                for i in range(len(shifts)) for k, rhs in enumerate((rhs1, rhs2))
                for adjoint in (False, True)}
    sweeps = []
    sweep = _DenseFactor.sweep

    def counted(self, b, adjoint=False, shift=None):
        sweeps.append((adjoint, shift))
        return sweep(self, b, adjoint, shift)

    monkeypatch.setattr(_DenseFactor, "sweep", counted)
    factors = [ops.factorize(z) for z in shifts]
    assert all(f[0] is factors[0][0] for f in factors)

    def check(x, i, k, adjoint=False):
        want = expected[i, k, adjoint]
        assert np.abs(x - want).max() <= 1e-12 * np.abs(want).max()

    for i, k, count in ((0, 0, 1), (1, 0, 1), (2, 1, 2), (3, 0, 3)):
        check(ops.solve(factors[i], (rhs1, rhs2)[k]), i, k)
        assert len(sweeps) == count
    held = ops._held
    for i in (0, 5, 5):
        check(ops.solve_adjoint(factors[i], rhs1), i, 0, adjoint=True)
        assert ops._held is held
    assert sweeps == [(False, None)] * 3 + [(True, 0), (True, 5), (True, 5)]
    # The sweep of rhs1 has served shift 3; seven more requests use it up.
    for i in (4, 5, 6, 7, 0, 1, 2):
        assert ops._held is held
        check(ops.solve(factors[i], rhs1), i, 0)
    assert len(sweeps) == 6
    assert ops._held is None


def test_stacked_factor_temporaries_stay_within_two_block_columns(rng):
    # Beyond the stack itself, the factorization holds at most one panel,
    # copied out transposed (one (g, n, NB) block column), and the product
    # temporaries of the panel's halves or of one trailing block column.
    n, g = 400, 8
    a = random_symmetric(n, rng)
    shifts = build_contour(gauss_legendre(g), -1.0, 1.0).z
    ops = _DenseOps(a, None, np.dtype(np.complex128), shifts)
    tracemalloc.start()
    try:
        factor = ops._factor(list(shifts))
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    stack = factor.lu.nbytes
    block_column = g * n * NB * np.dtype(np.complex128).itemsize
    assert stack == g * n * n * 16
    assert peak - stack < 2 * block_column
    assert current - stack < 0.1 * block_column


def _backward_error(op, x, rhs):
    """Largest normwise backward error, |op x - rhs| / (|op| |x| + |rhs|)
    in the infinity norm, over the columns of x."""
    r = np.abs(op @ x - rhs).max(axis=0)
    scale = np.abs(op).sum(axis=1).max() * np.abs(x).max(axis=0) + np.abs(rhs).max(axis=0)
    return (r / scale).max()


def test_sweeps_keep_the_backward_error_of_partial_pivoting():
    """Guards the partial pivoting across whole columns.  A block LU that
    pivots only inside its NB-column pivot blocks (the multifrontal LU's
    elimination) halves the factor time, but its sweeps' worst backward
    error on this pencil is 2.1e-13 (3.2e-13 with two BLAS threads),
    against 8.3e-16 here.  Seed 17 is among the worst of seeds 0-29 for
    direct solves with such a block LU (1e-15 to 1.5e-13; 4e-16 to 1.8e-15
    with partial pivoting)."""
    import scipy.linalg as sla

    n = 2 * NB + 3
    rng = np.random.default_rng(17)
    g = rng.normal(size=(n, n))
    a = g + g.T
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    b = (q * np.logspace(0, 3, n)) @ q.T
    b = (b + b.T) / 2
    # A 16-point contour around 5 eigenvalues in the middle of the spectrum.
    ev = sla.eigh(a, b, eigvals_only=True)
    lo = n // 2 - 2
    shifts = build_contour(gauss_legendre(16), (ev[lo - 1] + ev[lo]) / 2,
                           (ev[lo + 4] + ev[lo + 5]) / 2).z
    rhs = rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4))
    factor = _DenseOps(a, b, np.dtype(np.complex128), shifts)._factor(list(shifts))
    worst = 0.0
    for adjoint in (False, True):
        y = factor.sweep(rhs, adjoint)
        for s, z in enumerate(shifts):
            op = (z * b - a).conj().T if adjoint else z * b - a
            worst = max(worst, _backward_error(op, factor.pick(y, s, adjoint), rhs))
    assert worst <= 1e-14


def test_adjoint_solve_matches_fresh_adjoint_factorization(rng):
    # Random z, A, B: solving (zB-A)^H x = y from the direct factorization
    # agrees with factorizing the adjoint matrix explicitly.
    for n in (3, 8, 20):
        a = random_symmetric(n, rng)
        g = rng.normal(size=(n, n))
        b = g @ g.T + n * np.eye(n)
        z = complex(rng.normal(), abs(rng.normal()) + 0.5)
        shifted = z * b - a
        y = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
        x1 = _factor(shifted).solve(y, adjoint=True)
        x2 = _factor(shifted.conj().T).solve(y)
        assert np.abs(x1 - x2).max() <= 1e-10 * np.abs(x2).max()


def test_expand_uplo_reads_only_stored_triangle():
    a = np.array([[2.0, np.nan], [-1.0, 2.0]])
    full = expand_uplo(a, "L", hermitian=False)
    assert np.array_equal(full, HELLO)
    a = np.array([[2.0, -1.0], [np.nan, 2.0]])
    full = expand_uplo(a, "U", hermitian=False)
    assert np.array_equal(full, HELLO)


def test_expand_uplo_hermitian_conjugates():
    a = np.array([[2.0, 0.0], [1j, 2.0]])
    full = expand_uplo(a, "L", hermitian=True)
    assert full[0, 1] == -1j


def test_helloworld_report_values():
    fpm = feastinit()
    r = feast_sy(HELLO, -5.0, 5.0, 2, fpm=fpm)
    assert r.info == 0
    assert r.m == 2
    assert np.allclose(r.e[:2], [1.0, 3.0], atol=1e-12)
    assert r.loop <= 2
    assert r.epsout <= 1e-14
    assert max(r.res[:2]) <= 1e-14
    s = np.sqrt(2.0) / 2.0
    assert np.allclose(np.abs(r.x[:, 0]), [s, s], atol=1e-12)
    assert np.allclose(np.abs(r.x[:, 1]), [s, s], atol=1e-12)
    assert r.x[0, 0] * r.x[1, 0] > 0       # first eigenvector: equal signs
    assert r.x[0, 1] * r.x[1, 1] < 0       # second: opposite signs


@pytest.mark.parametrize("uplo", ["L", "U"])
def test_helloworld_triangular_storage(uplo):
    full = feast_sy(HELLO, -5.0, 5.0, 2)
    tri = feast_sy(HELLO, -5.0, 5.0, 2, uplo=uplo)
    assert tri.info == 0
    assert np.abs(tri.e - full.e).max() <= 1e-12
    assert np.abs(np.abs(tri.x) - np.abs(full.x)).max() <= 1e-12


def test_identity_multiplicity():
    r = feast_sy(np.eye(4), 0.0, 2.0, 4)
    assert r.info == 0
    assert r.m == 4
    assert np.allclose(r.e, 1.0, atol=1e-13)


def test_uplo_invariance_random(rng):
    a = random_symmetric(20, rng)
    ev = np.linalg.eigvalsh(a)
    emin, emax = gap_interval(ev, 5, 12)
    results = [feast_sy(a, emin, emax, 12, uplo=u) for u in ("F", "L", "U")]
    for r in results:
        assert r.info == 0
    for r in results[1:]:
        assert np.abs(r.e - results[0].e).max() <= 1e-12


def test_hermitian_unit_interval():
    a = np.array([[2.0, 1j], [-1j, 2.0]])
    r = feast_he(a, 0.5, 1.5, 2)
    assert r.info == 0
    assert r.m == 1
    assert r.e[0] == pytest.approx(1.0, abs=1e-12)
    # eigenvector residual against the matrix itself
    v = r.x[:, 0]
    assert np.abs(a @ v - r.e[0] * v).max() <= 1e-12


def test_hermitian_diagonal():
    r = feast_he(np.diag([1.0, 3.0]).astype(complex), -5.0, 5.0, 2)
    assert r.info == 0
    assert r.m == 2
    assert np.allclose(r.e[:2], [1.0, 3.0], atol=1e-12)


def test_hermitian_generalized_scaled_identity():
    a = np.diag([2.0, 6.0]).astype(complex)
    b = 2.0 * np.eye(2, dtype=complex)
    r = feast_he(a, 0.0, 5.0, 2, b=b)
    assert r.info == 0
    assert r.m == 2
    assert np.allclose(r.e[:2], [1.0, 3.0], atol=1e-12)


def test_hermitian_random_against_oracle(rng):
    import scipy.linalg as sla

    a = random_hermitian(18, rng)
    g = rng.normal(size=(18, 18)) + 1j * rng.normal(size=(18, 18))
    b = g @ g.conj().T + 18 * np.eye(18)
    ev = sla.eigh(a, b, eigvals_only=True)
    emin, emax = gap_interval(ev, 4, 10)
    r = feast_he(a, emin, emax, 11, b=b)
    assert r.info == 0
    assert r.m == 7
    assert np.abs(r.e[:7] - ev[4:11]).max() <= 1e-10


def test_singular_shift_reports_solver_error():
    # With an indefinite B, a symmetric pencil can have a complex eigenvalue:
    # z*B - A is exactly singular at z = x + iy for A = [[x, y], [y, -x]],
    # B = diag(1, -1).  Put it on the first contour point.  (A non-symmetric
    # A with uplo='F' now returns -103 before any solve.)
    contour = build_contour(gauss_legendre(8), -5.0, 5.0)
    z = contour.z[0]
    a = np.array([[z.real, z.imag], [z.imag, -z.real]])
    r = feast_sy(a, -5.0, 5.0, 2, b=np.diag([1.0, -1.0]))
    assert r.info == -2


def test_argument_errors():
    assert feast_sy(HELLO, -5.0, 5.0, 2, uplo="Q").info == -101
    assert feast_sy(np.zeros((2, 3)), -5.0, 5.0, 2).info == -104
    assert feast_sy(HELLO, -5.0, 5.0, 2, b=np.eye(3)).info == -106
    # A ragged nested list has no shape; numpy's ValueError once escaped.
    ragged = [[2.0], [-1.0, 2.0]]
    for driver in (feast_sy, feast_he):
        assert driver(ragged, -5.0, 5.0, 2).info == -104
        assert driver(HELLO, -5.0, 5.0, 2, b=ragged).info == -106
        assert driver(HELLO.tolist(), -5.0, 5.0, 2, b=np.eye(2).tolist()).info == 0


def test_scalar_matrix_returns_shape_code():
    assert feast_sy(np.float64(1.0), -5.0, 5.0, 1).info == -104
    assert feast_he(np.complex128(1.0), -5.0, 5.0, 1).info == -104
    assert feast_sy(1.0, -5.0, 5.0, 1).info == -104


def test_parallel_contour_bitwise_identical(rng):
    a = random_symmetric(24, rng)
    ev = np.linalg.eigvalsh(a)
    emin, emax = gap_interval(ev, 6, 14)
    r1 = feast_sy(a, emin, emax, 14, options=SolverOptions(parallel_contour=1))
    r8 = feast_sy(a, emin, emax, 14, options=SolverOptions(parallel_contour=8))
    assert r1.info == r8.info == 0
    assert r1.e.tobytes() == r8.e.tobytes()
    assert r1.x.tobytes() == r8.x.tobytes()
    assert r1.res.tobytes() == r8.res.tobytes()


def test_single_precision_instantiation():
    r = feast_sy(HELLO.astype(np.float32), -5.0, 5.0, 2)
    assert r.info == 0
    assert r.e.dtype == np.float32
    assert np.allclose(r.e[:2], [1.0, 3.0], atol=1e-5)


def test_warm_start_via_driver(rng):
    a = random_symmetric(16, rng)
    ev = np.linalg.eigvalsh(a)
    emin, emax = gap_interval(ev, 4, 9)
    cold = feast_sy(a, emin, emax, 9)
    fpm = feastinit()
    fpm.set_slot(5, 1)
    warm = feast_sy(a, emin, emax, 9, fpm=fpm, x0=cold.x)
    assert warm.info == 0
    assert warm.loop <= 1
    assert feast_sy(a, emin, emax, 9, fpm=fpm).info == 105  # x0 missing
