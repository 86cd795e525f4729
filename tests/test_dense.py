import tracemalloc
import warnings

import numpy as np
import pytest

from feastlib import SingularMatrixError, SolverOptions, dense, feast_he, feast_sy, feastinit
from feastlib.dense import PANEL, _count, _DenseFactor, _DenseOps, expand_uplo
from feastlib.quadrature import build_contour, gauss_legendre

from conftest import gap_interval, random_hermitian, random_spd, random_symmetric

HELLO = np.array([[2.0, -1.0], [-1.0, 2.0]])


def _one_shift(a, b, z):
    """The dense backend's factor of the one shift ``z``: the LDLᵀ of
    s (z I - T) on the reduction of (A, B)."""
    return _DenseOps(a, b, [z], hermitian=True)._factor([z])


def _solve(factor, rhs, adjoint=False):
    """A one-shift factor's solution for ``rhs``, in the reduced basis."""
    return factor.pick(factor.sweep(rhs, adjoint), 0)


def _reduced(a, b, shifts):
    """The dense backend's ops on (A, B) and its factor of ``shifts``."""
    ops = _DenseOps(a, b, shifts, hermitian=True)
    return ops, ops._factor(list(shifts))


def _solves(ops, factor, rhs, adjoint=False):
    """Each shift's solution of (z B - A) y = rhs, or of its adjoint,
    composed of the reduction's maps and the reduced sweep:
    W (s (z I - T))⁻¹ Wᴴ rhs."""
    y = factor.sweep(ops.to_reduced(rhs), adjoint)
    return [ops.from_reduced(factor.pick(y, s)) for s in range(factor.ne)]


def _pencil(rng, n, kind):
    """(A, B) of a random pencil: real or complex, B None (standard) or
    positive definite (generalized)."""
    complex_ = kind.startswith("complex")
    a = random_hermitian(n, rng) if complex_ else random_symmetric(n, rng)
    b = random_spd(n, rng, complex_) if kind.endswith("generalized") else None
    return a, b


PENCILS = ["real-standard", "real-generalized", "complex-standard", "complex-generalized"]
# Panel edges of the reduction: one column (no reflector), two (one
# trivial reflector), one past a panel, and four panels.
PANEL_EDGE_SIZES = (1, 2, PANEL + 1, 3 * PANEL + 3)


def test_lu_solve_random_complex(rng):
    """The one-shift factor, the LDLᵀ of z I - T, between the maps Wᴴ and
    W solves (z I - A) x = b for a random Hermitian A and a complex
    shift."""
    z = 0.3 + 0.7j
    for n in (1, 2, 5, 20):
        a = random_hermitian(n, rng)
        b = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
        x, = _solves(*_reduced(a, None, [z]), b)
        op = z * np.eye(n) - a
        assert np.abs(op @ x - b).max() <= 1e-10 * max(1.0, np.abs(op).max())


@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.complex64, np.complex128])
def test_lu_factor_keeps_inexact_dtype(dtype):
    """The maps W and Wᴴ keep the operand's type, the pivots and solutions
    are complex in its precision, and the solve is accurate to that
    precision."""
    z = 1.5 + 0.5j
    ops, factor = _reduced(HELLO.astype(dtype), None, [z])
    ones = np.ones((2, 1), dtype=dtype)
    assert ops.to_reduced(ones).dtype == ops.from_reduced(ones).dtype == dtype
    assert factor.dinv.dtype == np.result_type(dtype, np.complex64)
    x, = _solves(ops, factor, np.ones((2, 1), dtype=np.result_type(dtype, np.complex64)))
    assert x.dtype == np.result_type(dtype, np.complex64)
    residual = (z * np.eye(2) - HELLO) @ x - 1
    assert np.abs(residual).max() <= 8 * np.finfo(dtype).eps


@pytest.mark.parametrize("n", (1, 2, 8, 9, PANEL + 1, 48, 49, 3 * PANEL + 3))
@pytest.mark.parametrize("g", (1, 3, 8))
@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_stacked_lu_is_bitwise_the_one_shift_lu(rng, n, g, complex_):
    """For a standard and a generalized pencil, the factor of g shifts
    holds, for each shift, bitwise the reciprocal pivots and the
    multipliers of its one-shift factor (the LDLᵀ of z I - T), on a
    reduction bitwise the one-shift ops' T, and (z B - A) W (z I - T)⁻¹ Wᴴ
    is the identity.  The sizes take in the reduction's panel edges
    (PANEL + 1, 3 PANEL + 3) and sizes between."""
    shifts = [complex(z) for z in build_contour(gauss_legendre(8), -1.0, 1.0).z[:g]]
    for problem in ("standard", "generalized"):
        a, b = _pencil(rng, n, f"{'complex' if complex_ else 'real'}-{problem}")
        ops, factor = _reduced(a, b, shifts)
        assert (factor.ne, factor.n) == (g, n)
        for s, z in enumerate(shifts):
            alone = _DenseOps(a, b, [z], hermitian=True)
            one = alone._factor([z])
            assert (alone._d.tobytes(), alone._e.tobytes()) == (ops._d.tobytes(), ops._e.tobytes())
            assert one.dinv[:, 0].tobytes() == factor.dinv[:, s].tobytes()
            assert one.l[:, 0].tobytes() == factor.l[:, s].tobytes()
        op = shifts[-1] * (np.eye(n) if b is None else b) - a
        inverse, = _solves(*_reduced(a, b, shifts[-1:]), np.eye(n, dtype=complex))
        assert np.abs(op @ inverse - np.eye(n)).max() <= 1e-12 * np.abs(op).sum(axis=1).max() * (
            np.abs(inverse).max())


@pytest.mark.parametrize("column", (0, 8, 47, 49, 98))
def test_stacked_lu_zero_pivot_in_second_shift_names_its_column(rng, column):
    """z I - T with e[column - 1] = 0 has a zero pivot at ``column`` for
    the real shift z = d[column]: its reciprocal is not finite, which
    raises SingularMatrixError naming the column and, in a stack, the
    shift, with no floating-point warning."""
    n = 99
    d, e = rng.normal(size=n), rng.normal(size=n - 1)
    if column:
        e[column - 1] = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularMatrixError) as err:
            _DenseFactor(d, e, 1, [1j, d[column], 2 + 1j])
        assert str(err.value) == f"zero or non-finite pivot at column {column} (shift 1)"
        with pytest.raises(SingularMatrixError) as err:
            _DenseFactor(d, e, 1, [d[column]])
        assert str(err.value) == f"zero or non-finite pivot at column {column}"


def test_b_that_is_not_definite(rng):
    """A negative definite B is reduced as the pencil (-A, -B), s = -1,
    and the composed solves are those of (z B - A); an indefinite B raises
    SingularMatrixError."""
    n = 12
    a, b = random_symmetric(n, rng), random_spd(n, rng)
    shifts = [1 + 1j, -2 + 0.5j]
    rhs = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
    ops, factor = _reduced(a, -b, shifts)
    assert ops._sign == -1
    for adjoint in (False, True):
        for z, x in zip(shifts, _solves(ops, factor, rhs, adjoint)):
            op = z * -b - a
            want = np.linalg.solve(op.conj().T if adjoint else op, rhs)
            assert np.abs(x - want).max() <= 1e-12 * np.abs(want).max()
    indefinite = np.diag(np.r_[np.ones(n - 1), -1.0])
    with pytest.raises(SingularMatrixError, match="B is not definite"):
        _DenseOps(a, indefinite, shifts, hermitian=True)._factor(shifts)


@pytest.mark.parametrize("adjoint", [False, True], ids=["direct", "adjoint"])
def test_stacked_sweep_matches_one_shift_solves(rng, adjoint):
    """Each shift's solution from the (n, shifts, m) sweep of all shifts is
    bitwise its one-shift factor's, and a sweep of one shift is bitwise its
    slice of the sweep of all; mapped back by W, it solves (z B - A)."""
    n, g = 3 * PANEL + 3, 4
    a, b = _pencil(rng, n, "complex-generalized")
    shifts = [complex(z) for z in build_contour(gauss_legendre(8), -1.0, 1.0).z[:g]]
    ops, factor = _reduced(a, b, shifts)
    rhs = rng.normal(size=(n, 5)) + 1j * rng.normal(size=(n, 5))
    reduced = ops.to_reduced(rhs)
    y = factor.sweep(reduced, adjoint)
    assert y.shape == (n, g, 5)
    for s, z in enumerate(shifts):
        own = factor.sweep(reduced, adjoint, slice(s, s + 1))
        assert own.tobytes() == y[:, s:s + 1].tobytes()
        x = factor.pick(y, s)
        assert x.tobytes() == _solve(_one_shift(a, b, z), reduced, adjoint).tobytes()
        assert np.array_equal(x, factor.pick(own, s, first=s))
        x = ops.from_reduced(x)
        op = (z * b - a).conj().T if adjoint else z * b - a
        assert np.abs(op @ x - rhs).max() <= 1e-12 * np.abs(op).max() * np.abs(x).max() * n


def test_held_sweep_serves_equal_right_hand_sides_and_is_dropped(rng, monkeypatch):
    """Each direction holds the sweep of one group of shifts: all 8 for
    the ops of a real symmetric driver, 4 for a Hermitian one's.  A request
    of a shift of that group with the same key, which promises an equal
    right-hand side, is served from it; any other sweeps the request's
    group, and so does a request without a key.  A held sweep is dropped
    once it has served as many requests as its group has shifts.  Only the
    key is held, no copy of the right-hand side."""
    n = 20
    a = random_symmetric(n, rng)
    shifts = build_contour(gauss_legendre(8), -1.0, 1.0).z
    rhs1 = rng.normal(size=(n, 3)) + 0j
    rhs2 = rng.normal(size=(n, 3)) + 0j
    expected = {(i, k, adjoint): _solve(_one_shift(a, None, shifts[i]), rhs, adjoint)
                for i in range(len(shifts)) for k, rhs in enumerate((rhs1, rhs2))
                for adjoint in (False, True)}
    sweeps = []
    sweep = _DenseFactor.sweep

    def counted(self, b, adjoint=False, shifts=slice(None)):
        sweeps.append((adjoint, tuple(range(self.ne)[shifts])))
        return sweep(self, b, adjoint, shifts)

    def check(x, i, k, adjoint=False):
        want = expected[i, k, adjoint]
        assert np.abs(x - want).max() <= 1e-12 * np.abs(want).max()

    monkeypatch.setattr(_DenseFactor, "sweep", counted)
    for hermitian, group in ((False, 8), (True, 4)):
        ops = _DenseOps(a, None, shifts, hermitian)
        factors = [ops.factorize(z) for z in shifts]
        assert all(f[0] is factors[0][0] for f in factors)
        sweeps.clear()
        # Key k names right-hand side k.
        for i, k, count in ((0, 0, 1), (1, 0, 1), (2, 1, 2), (3, 0, 3)):
            check(ops.solve(factors[i], (rhs1, rhs2)[k], key=k), i, k)
            assert len(sweeps) == count
        assert sweeps == [(False, tuple(range(group)))] * 3
        held = ops._held[False]
        assert held[0] == 0 and held[1] == 0 and len(held) == 4
        # The sweep of rhs1 has served shift 3; group - 1 more requests of
        # its group use it up.  The key alone decides: these pass rhs2.
        for i in range(group - 1):
            assert ops._held[False] is held
            check(ops.solve(factors[i], rhs2, key=0), i, 0)
        assert len(sweeps) == 3 and ops._held[False] is None
        # Each direction sweeps the group of the last shift on its own; the
        # other group is swept anew, for the Hermitian ops.
        last = tuple(range(8 - group, 8))
        check(ops.solve_adjoint(factors[7], rhs1, key=0), 7, 0, adjoint=True)
        held = ops._held[True]
        check(ops.solve(factors[7], rhs1, key=0), 7, 0)
        assert sweeps[3:] == [(True, last), (False, last)] and ops._held[True] is held
        check(ops.solve_adjoint(factors[0], rhs1, key=0), 0, 0, adjoint=True)
        assert sweeps[5:] == ([(True, tuple(range(group)))] if hermitian else [])
        # Both directions hold a sweep of key 0, and no right-hand side.
        assert ops._held[False][0] == ops._held[True][0] == 0
        # A request without a key sweeps, even for an equal right-hand side.
        count = len(sweeps)
        check(ops.solve(factors[7], rhs1), 7, 0)
        assert sweeps[count:] == [(False, last)]


def test_factor_holds_one_matrix_beside_its_pivots(rng):
    """The reduction and the factor of 8 shifts hold at most one n x n
    matrix, real for a real pencil (the reflectors, about half of one),
    beside O(n) values per shift; no W is formed.  The reduction's copy of
    A, its temporaries and its reflectors peak at under three n x n
    matrices."""
    n, g = 400, 8
    a = random_symmetric(n, rng)
    shifts = build_contour(gauss_legendre(g), -1.0, 1.0).z
    ops = _DenseOps(a, None, shifts, hermitian=False)
    tracemalloc.start()
    try:
        factor = ops._factor(list(shifts))
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    matrix = n * n * 8
    assert factor.dinv.shape == (n, g)
    assert all(vt.dtype == t.dtype == a.dtype for _, vt, t in ops._panels)
    assert current < matrix + 4 * n * g * 16
    assert peak < 3 * matrix


def _laplacian(p):
    """The 2-D 5-point Laplacian on a p x p grid (the dense benchmark's
    matrix at p=20) and its eigenvalues, ascending."""
    t = 2 * np.eye(p) - np.eye(p, k=1) - np.eye(p, k=-1)
    one = 2 - 2 * np.cos(np.arange(1, p + 1) * np.pi / (p + 1))
    return np.kron(t, np.eye(p)) + np.kron(np.eye(p), t), np.sort((one[:, None] + one).ravel())


def _first_gap(evals, wanted=20):
    """(emin, emax): emax at the middle of the first gap after the
    ``wanted``-th eigenvalue, emin that half gap below the smallest."""
    k = wanted - 1
    while evals[k + 1] - evals[k] <= 1e-9 * abs(evals[-1]):
        k += 1
    half = (evals[k + 1] - evals[k]) / 2
    return evals[0] - half, evals[k] + half


def _backward_errors(a, b, shifts, ops, factor, rhs):
    """Normwise backward error η = ‖r - op y‖₁ / ((|z| ‖B‖₁ + ‖A‖₁) ‖y‖₁ +
    ‖r‖₁), the largest over the columns, of each shift's solution y of
    op y = r, for op = z B - A and its adjoint (Rigal & Gaches, J. ACM
    14(3), 1967), composed of the reduction's maps and the reduced
    sweep."""
    eye = np.eye(len(a)) if b is None else b
    norm_a, norm_b = (np.abs(m).sum(axis=0).max() for m in (a, eye))
    errors = []
    for adjoint in (False, True):
        for z, x in zip(shifts, _solves(ops, factor, rhs, adjoint)):
            op = z * eye - a
            r = rhs - (op.conj().T if adjoint else op) @ x
            scale = (abs(z) * norm_b + norm_a) * np.abs(x).sum(axis=0) + np.abs(rhs).sum(axis=0)
            errors.append((np.abs(r).sum(axis=0) / scale).max())
    return np.array(errors)


def _backward_error_case(case, rng):
    """(A, B, shifts) of one backward-error pencil."""
    if case == "laplacian":
        a, evals = _laplacian(20)
        return a, None, build_contour(gauss_legendre(8), *_first_gap(evals)).z
    if case == "narrow":
        # Eigenvalues -100..100; an interval of width 0.04 about the middle
        # one puts shifts within 1e-3 ‖A‖ of the real axis.
        n = 160
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        a = (q * np.linspace(-100, 100, n)) @ q.T
        a = (a + a.T) / 2
        shifts = build_contour(gauss_legendre(8), -0.02, 0.02).z
        assert shifts.imag.min() / np.abs(a).sum(axis=0).max() <= 1e-3
        return a, None, shifts
    a = random_hermitian(150, rng)
    b = random_spd(150, rng, complex_=True) if case == "hermitian-generalized" else None
    return a, b, build_contour(gauss_legendre(8), -1.0, 1.0).z


@pytest.mark.parametrize("case", ["laplacian", "narrow", "hermitian-standard",
                                  "hermitian-generalized"])
def test_every_shift_solves_with_a_small_backward_error(rng, case):
    """η <= 1e-14 for every shift in each direction: the dense benchmark's
    Laplacian over its interval, a narrow interval inside a wide spectrum,
    and Hermitian standard and generalized pencils."""
    a, b, shifts = _backward_error_case(case, rng)
    ops, factor = _reduced(a, b, shifts)
    rhs = rng.normal(size=(len(a), 4)) + 1j * rng.normal(size=(len(a), 4))
    assert _backward_errors(a, b, shifts, ops, factor, rhs).max() <= 1e-14


def test_a_reflector_left_out_of_the_back_map_shows_in_res(monkeypatch):
    """A mutant reduction whose kept block reflectors leave out the second
    reflector of the first panel (T keeps it) maps the Ritz vectors back
    wrongly.  The eigenvalues, which come from T alone, still pass the
    benchmark's closed-form gate (info 0, the count, 1e-10 relative) on the
    dense benchmark's Laplacian; the returned res shows the fault."""
    a, evals = _laplacian(20)
    emin, emax = _first_gap(evals)
    want = evals[(evals > emin) & (evals < emax)]
    block_reflector = dense._block_reflector

    def mutant(vt, tau):
        if vt.shape[1] == len(a) - 1:
            tau = tau.copy()
            tau[1] = 0
        return block_reflector(vt, tau)

    monkeypatch.setattr(dense, "_block_reflector", mutant)
    for driver in (feast_sy, feast_he):
        r = driver(a, emin, emax, 30)
        assert (r.info, r.m) == (0, len(want))
        assert (np.abs(r.e[:r.m] - want) / want).max() <= 1e-10
        assert r.res[:r.m].min() >= 1e-6


def _band_pencil(n, seed, complex_):
    """A dense Hermitian (real symmetric) band matrix, bandwidth 8, with
    diagonal ±32 and standard normal band entries: its spectrum has no
    eigenvalue in [-5, 5]."""
    rng = np.random.default_rng(seed)
    a = np.diag(32.0 * rng.choice([-1.0, 1.0], n)).astype(complex if complex_ else float)
    for k in range(1, 9):
        band = rng.normal(size=n - k)
        if complex_:
            band = band + 1j * rng.normal(size=n - k)
        a += np.diag(band, -k) + np.diag(band.conj(), k)
    return a


@pytest.mark.parametrize("driver", [feast_sy, feast_he], ids=["SY", "HE"])
def test_empty_interval_returns_info_1(driver):
    """The Sturm count of T finds no eigenvalue in [-5, 5], and the solve
    ends with info 1 and m=0 before any contour pass.  The kernel's own
    test returned 1-4 spurious pairs with info 2 on 17 (feast_he) and 20
    (feast_sy) of these 20 pencils: its spurious-pair filter compares each
    residual with the median of the in-interval ones, which are all
    spurious here."""
    for n in (100, 200):
        for seed in range(10):
            a = _band_pencil(n, seed, driver is feast_he)
            evals = np.linalg.eigvalsh(a)
            assert not ((evals >= -5) & (evals <= 5)).any()
            r = driver(a, -5.0, 5.0, 20)
            assert (r.info, r.m, r.loop) == (1, 0, 0)


@pytest.mark.parametrize("driver", [feast_sy, feast_he], ids=["SY", "HE"])
@pytest.mark.parametrize("emin,emax", [(2.0, 3.0), (1.0, 2.0)], ids=["at-emin", "at-emax"])
def test_eigenvalue_at_an_end_of_the_interval_is_found(driver, emin, emax):
    """An eigenvalue exactly at emin or at emax is counted (the count
    widens the interval by a few ε ‖T‖₁), so the solve runs and finds it.
    The 1 x 1 problem keeps the Ritz value exact, so that the kernel, too,
    puts it inside."""
    r = driver(np.array([[2.0]]), emin, emax, 1)
    assert (r.info, r.m) == (0, 1) and r.e[0] == 2.0


def test_count_takes_in_eigenvalues_at_the_ends():
    """The Sturm count of T = diag(1..5), of tridiag(1, 2, 1)
    (eigenvalues 1 and 3; 2 ± √2 and 2 for order 3) and of T = 0 on
    intervals whose ends fall on eigenvalues, in double and single
    precision."""
    d, e = np.arange(1.0, 6.0), np.zeros(4)
    for dtype in (np.float64, np.float32):
        cases = [(d, e, 2.0, 4.0, 3), (d, e, 2.0, 2.5, 1), (d, e, 1.5, 2.0, 1),
                 (d, e, 2.5, 2.9, 0), (d, e, 5.5, 1e300, 0), (d, e, -1e300, 0.5, 0),
                 (np.full(2, 2.0), np.ones(1), 1.0, 1.0 + 1e-3, 1),
                 (np.full(2, 2.0), np.ones(1), 3.0 - 1e-3, 3.0, 1),
                 (np.full(3, 2.0), np.ones(2), 1.0, 2.0, 1),
                 (np.zeros(3), np.zeros(2), 0.0, 1.0, 3), (np.zeros(3), np.zeros(2), 0.5, 1.0, 0)]
        for dd, ee, lo, hi, want in cases:
            assert _count(dd.astype(dtype), ee.astype(dtype), lo, hi) == want


@pytest.mark.parametrize("driver", [feast_sy, feast_he], ids=["SY", "HE"])
def test_zero_matrix_is_mapped_back(driver):
    """A = 0 reduces to T = 0, which the count takes whole: the solve runs,
    and its Ritz vectors are mapped back to B-orthonormal ones."""
    b = np.diag([2.0, 3.0, 4.0, 5.0])
    r = driver(np.zeros((4, 4)), -1.0, 1.0, 4, b=b)
    assert (r.info, r.m) == (0, 4) and not r.e.any()
    assert np.abs(r.x.conj().T @ b @ r.x - np.eye(4)).max() <= 1e-12


@pytest.mark.parametrize("driver", [feast_sy, feast_he], ids=["SY", "HE"])
@pytest.mark.parametrize("problem", ["standard", "generalized"])
@pytest.mark.parametrize("uplo", ["F", "L", "U"])
def test_result_is_the_original_pencils(rng, driver, problem, uplo):
    """The Ritz vectors mapped back by W are B-orthonormal to 1e-12, and
    each res the kernel filled equals ‖A x - λ B x‖₁ / ‖max(|emin|, |emax|)
    B x‖₁ on the original pencil to 1e-12 relative, give or take 1e-14 for
    a residual at the rounding level (the products' rounding may differ
    with the arrays' memory layout: up to 1.3e-16 seen).  (The generalized
    feast_he pencil of this seed stalls at info 2 with one spurious pair
    held in the interval, as it did before the reduction; the mapping
    holds all the same.)"""
    n = 30
    complex_ = driver is feast_he
    a, b = _pencil(rng, n, f"{'complex' if complex_ else 'real'}-{problem}")
    if b is not None:
        # Exactly Hermitian, so that each uplo gives the driver this B.
        b = (b + b.conj().T) / 2
    evals = np.linalg.eigvals(np.linalg.solve(np.eye(n) if b is None else b, a)).real
    emin, emax = gap_interval(evals, 8, 15)
    stored = {"F": lambda m: m, "L": np.tril, "U": np.triu}[uplo]
    r = driver(stored(a), emin, emax, 12, uplo=uplo, b=None if b is None else stored(b))
    assert r.info in (0, 2) and r.m == 8
    x = r.x[:, :r.m0]
    bx = x if b is None else b @ x
    assert np.abs(x.conj().T @ bx - np.eye(r.m0)).max() <= 1e-12
    filled = r.res[:r.m0] != -1
    x, bx = x[:, filled], bx[:, filled]
    want = (np.abs(a @ x - r.e[:r.m0][filled] * bx).sum(axis=0)
            / np.abs(max(abs(emin), abs(emax)) * bx).sum(axis=0))
    assert (np.abs(r.res[:r.m0][filled] - want) <= 1e-12 * want + 1e-14).all()


def test_hermitian_generalized_warm_start_takes_few_loops(rng):
    """Acceptance criterion 9 through feast_he: the pencil D (A, B) Dᴴ with
    unit phases D, perturbed, restarted from the unperturbed pencil's
    eigenvectors (fpm(5)=1, mapped into the reduced basis by W⁻¹), takes
    at most 2 loops and at least one fewer than a cold start."""
    n, m = 200, 8
    a = 2 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    b = (4 * np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1)) / 6
    d = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    a, b = (d[:, None] * x * d.conj() for x in (a, b))
    evals = np.linalg.eigvals(np.linalg.solve(b, a)).real
    evals.sort()
    emin, emax = evals[0] - 0.1, 0.5 * (evals[m - 1] + evals[m])
    fpm = feastinit()
    fpm.set_slot(6, 1)
    fpm.set_slot(3, 10)
    cold_ref = feast_he(a, emin, emax, 10, b=b, fpm=fpm)
    g = np.diag(rng.normal(size=n)) + np.diag(rng.normal(size=n - 1), 1)
    a2 = a + 1e-3 * d[:, None] * (g + g.T) * d.conj()
    cold = feast_he(a2, emin, emax, 10, b=b, fpm=fpm)
    fpm.set_slot(5, 1)
    warm = feast_he(a2, emin, emax, 10, b=b, fpm=fpm, x0=cold_ref.x)
    assert cold_ref.info == cold.info == warm.info == 0 and warm.m == cold.m == m
    assert warm.loop <= min(cold.loop - 1, 2)


def _fem_pencil(p):
    """A = K (x) M + M (x) K and B = M (x) M of the 1-D linear-FEM pair
    (K, M) on p interior nodes (the band-herm-gen benchmark's pencil, in
    dense storage and without phases), and its eigenvalues, the sums of
    two of (6/h^2) (1 - cos t) / (2 + cos t), t = k pi / (p + 1)."""
    h = 1.0 / (p + 1)
    k = (2 * np.eye(p) - np.eye(p, k=1) - np.eye(p, k=-1)) / h
    m = (4 * np.eye(p) + np.eye(p, k=1) + np.eye(p, k=-1)) * h / 6
    t = np.arange(1, p + 1) * np.pi / (p + 1)
    one = 6 / h**2 * (1 - np.cos(t)) / (2 + np.cos(t))
    return np.kron(k, m) + np.kron(m, k), np.kron(m, m), np.sort((one[:, None] + one).ravel())


@pytest.mark.parametrize("driver", [feast_sy, feast_he], ids=["SY", "HE"])
def test_generalized_fem_pencil_matches_the_closed_form(rng, driver):
    """The 12 x 12 grid's FEM pencil through the Cholesky path: its 20
    smallest eigenvalues (ties kept together) to 1e-10, through feast_sy
    and, scaled D X Dᴴ by unit phases D, through feast_he."""
    a, b, evals = _fem_pencil(12)
    emin, emax = _first_gap(evals)
    want = evals[(evals > emin) & (evals < emax)]
    if driver is feast_he:
        d = np.exp(1j * rng.uniform(0, 2 * np.pi, len(a)))
        a, b = (d[:, None] * x * d.conj() for x in (a, b))
    r = driver(a, emin, emax, 30, b=b)
    assert (r.info, r.m) == (0, len(want))
    assert (np.abs(r.e[:r.m] - want) / want).max() <= 1e-10


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

    n = 99
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
    ops = _DenseOps(a, b, shifts, hermitian=False)
    factor = ops._factor(list(shifts))
    worst = 0.0
    for adjoint in (False, True):
        for z, x in zip(shifts, _solves(ops, factor, rhs, adjoint)):
            op = (z * b - a).conj().T if adjoint else z * b - a
            worst = max(worst, _backward_error(op, x, rhs))
    assert worst <= 1e-14


def test_adjoint_solve_matches_fresh_adjoint_factorization(rng):
    # Random z, A, B: solving (zB-A)^H x = y from the direct factorization
    # agrees with factorizing the adjoint matrix, conj(z) B - A, explicitly.
    for n in (3, 8, 20):
        a = random_symmetric(n, rng)
        g = rng.normal(size=(n, n))
        b = g @ g.T + n * np.eye(n)
        z = complex(rng.normal(), abs(rng.normal()) + 0.5)
        y = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
        x1, = _solves(*_reduced(a, b, [z]), y, adjoint=True)
        x2, = _solves(*_reduced(a, b, [z.conjugate()]), y)
        assert np.abs(x1 - x2).max() <= 1e-10 * np.abs(x2).max()


def test_expand_uplo_reads_only_stored_triangle():
    a = np.array([[2.0, np.nan], [-1.0, 2.0]])
    full = expand_uplo(a, "L")
    assert np.array_equal(full, HELLO)
    a = np.array([[2.0, -1.0], [np.nan, 2.0]])
    full = expand_uplo(a, "U")
    assert np.array_equal(full, HELLO)


def test_expand_uplo_hermitian_conjugates():
    a = np.array([[2.0, 0.0], [1j, 2.0]])
    full = expand_uplo(a, "L")
    assert full[0, 1] == -1j


@pytest.mark.parametrize("driver", [feast_sy, feast_he], ids=["SY", "HE"])
@pytest.mark.parametrize("uplo,triangle", [("L", np.tril), ("U", np.triu)], ids=["L", "U"])
def test_bool_triangles_solve_as_the_full_matrix(driver, uplo, triangle):
    """A bool triangle once raised TypeError (numpy boolean subtract)."""
    a = np.array([[1, 1, 0], [1, 1, 1], [0, 1, 1]], dtype=bool)
    b = np.eye(3, dtype=bool)
    full = driver(a, -1.0, 3.0, 3, b=b)
    got = driver(triangle(a), -1.0, 3.0, 3, b=triangle(b), uplo=uplo)
    assert full.info == got.info == 0 and full.m == 3
    for name in ("e", "x", "res"):
        assert getattr(got, name).tobytes() == getattr(full, name).tobytes()
    assert (got.loop, got.m) == (full.loop, full.m)


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
