"""The driver skeleton shared by the six predefined drivers: routine names,
non-finite operand codes, and the kernel-owned contour."""

import threading
import warnings

import numpy as np
import pytest

from feastlib import (
    CsrMatrix,
    HermitianRci,
    RciTask,
    SolverOptions,
    SymmetricRci,
    feast_hb,
    feast_hcsr,
    feast_he,
    feast_sb,
    feast_scsr,
    feast_sy,
    FeastParams,
    feastinit,
    info_description,
)
from feastlib._driver import run_rci
from feastlib.dense import _DenseOps

HELLO = np.array([[2.0, -1.0], [-1.0, 2.0]])


def _call(driver, a, b=None, m0=2, **kwargs):
    """Run one of the six drivers on full 2x2 matrices ``a`` and ``b``."""
    if driver in (feast_sy, feast_he):
        return driver(a, -5.0, 5.0, m0, b=b, **kwargs)
    if driver in (feast_sb, feast_hb):
        band = lambda m: np.array([[0, m[0, 1]], [m[0, 0], m[1, 1]], [m[1, 0], 0]], dtype=m.dtype)
        extra = {} if b is None else {"b": band(b), "klb": 1}
        return driver(band(a), 1, -5.0, 5.0, m0, **extra, **kwargs)
    csr = CsrMatrix.from_dense
    return driver(csr(a), -5.0, 5.0, m0, b=None if b is None else csr(b), **kwargs)


# Driver, its name stem, the real/complex input type, and the info codes
# for a non-finite A and B (the FEAST argument positions of A and B).
DRIVERS = [
    (feast_sy, "SY", np.float64, -103, -105),
    (feast_he, "HE", np.complex128, -103, -105),
    (feast_sb, "SB", np.float64, -104, -107),
    (feast_hb, "HB", np.complex128, -104, -107),
    (feast_scsr, "SCSR", np.float64, -103, -106),
    (feast_hcsr, "HCSR", np.complex128, -103, -106),
]
DRIVER_IDS = [d[1] for d in DRIVERS]


@pytest.mark.parametrize("driver,stem,dtype,code_a,code_b", DRIVERS, ids=DRIVER_IDS)
@pytest.mark.parametrize("single", [False, True], ids=["double", "single"])
@pytest.mark.parametrize("generalized", [False, True], ids=["EV", "GV"])
def test_routine_name_in_header(capsys, driver, stem, dtype, code_a, code_b, single,
                                generalized):
    if single:
        dtype = np.complex64 if dtype == np.complex128 else np.float32
    fpm = feastinit()
    fpm.set_slot(1, 1)
    b = 2.0 * np.eye(2, dtype=dtype) if generalized else None
    result = _call(driver, HELLO.astype(dtype), b, fpm=fpm)
    assert result.info == 0
    if dtype in (np.float32, np.float64):
        letter = "S" if single else "D"
    else:
        letter = "C" if single else "Z"
    routine = f"Routine {letter}FEAST_{stem}{'GV' if generalized else 'EV'}"
    assert routine in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("driver,stem,dtype,code_a,code_b", DRIVERS, ids=DRIVER_IDS)
@pytest.mark.parametrize("operand", ["A", "B"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_nonfinite_operand_returns_argument_code(driver, stem, dtype, code_a, code_b,
                                                 operand, bad):
    a = HELLO.astype(dtype)
    b = np.eye(2, dtype=dtype)
    (a if operand == "A" else b)[1, 0] = (a if operand == "A" else b)[0, 1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = _call(driver, a, b)
    assert result.info == (code_a if operand == "A" else code_b)
    assert result.m == 0 and result.loop == 0


def test_nonfinite_entry_outside_referenced_triangle_is_ignored():
    a = HELLO.copy()
    a[0, 1] = np.nan  # upper triangle, never read for uplo='L'
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = feast_sy(a, -5.0, 5.0, 2, uplo="L")
    assert result.info == 0
    assert np.allclose(result.e[:2], [1.0, 3.0])


def test_argument_codes_take_precedence_over_nonfinite_values():
    a = HELLO.copy()
    a[0, 0] = np.nan
    assert feast_sy(a, -5.0, 5.0, 2, uplo="X").info == -101
    # The kernel's own checks run before the operands are read.
    assert feast_sy(a, -5.0, 5.0, 3).info == 201


@pytest.mark.parametrize("driver,stem,dtype,code_a,code_b", DRIVERS, ids=DRIVER_IDS)
@pytest.mark.parametrize("workers", [1, 2])
def test_singular_pencil_returns_minus_two(driver, stem, dtype, code_a, code_b, workers):
    """Column 1 of z*B - A is zero at every shift, so the factorization
    fails: with either worker count, in the calling thread."""
    a = np.diag([2.0, 0.0]).astype(dtype)
    b = np.diag([1.0, 0.0]).astype(dtype)
    assert _call(driver, a, b, options=SolverOptions(parallel_contour=workers)).info == -2


@pytest.mark.parametrize("driver,stem,dtype,code_a,code_b", DRIVERS, ids=DRIVER_IDS)
def test_pencil_at_subnormal_scale_returns_minus_two(driver, stem, dtype, code_a, code_b):
    """A = diag(1..5) 1e-310 on [0.5, 5.5] 1e-310: the shifted pivots are
    subnormal, and dividing by them overflows.  The dense LU once let the
    overflow warn (an error under -W error) and ended in info -3; every
    driver returns -2 without a warning, as the CSR and band ones did."""
    d = np.arange(1.0, 6.0).astype(dtype) * 1e-310
    emin, emax = 0.5e-310, 5.5e-310
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if driver in (feast_sy, feast_he):
            result = driver(np.diag(d), emin, emax, 5)
        elif driver in (feast_sb, feast_hb):
            result = driver(d[np.newaxis], 0, emin, emax, 5)
        else:
            result = driver(CsrMatrix.from_dense(np.diag(d)), emin, emax, 5)
    assert result.info == -2


def _single_precision_call(entry, emin, emax):
    """info of one entry point on tridiag(-1, 2, -1) of order 6 in single
    precision (uplo='L' band storage for the band drivers), M0=6."""
    a = (2 * np.eye(6) - np.eye(6, k=1) - np.eye(6, k=-1)).astype(np.float32)
    if entry in ("SRCI", "HRCI"):
        kernel = (SymmetricRci if entry == "SRCI" else HermitianRci)(
            6, 6, emin, emax, dtype=np.float32)
        assert kernel.step() == RciTask.DONE
        return kernel.info
    driver = {d[1]: d[0] for d in DRIVERS}[entry]
    if entry in ("HE", "HB", "HCSR"):
        a = a.astype(np.complex64)
    if entry in ("SB", "HB"):
        band = np.array([np.diagonal(a), np.r_[np.diagonal(a, -1), 0]])
        return driver(band, 1, emin, emax, 6, uplo="L").info
    if entry in ("SCSR", "HCSR"):
        a = CsrMatrix.from_dense(a)
    return driver(a, emin, emax, 6).info


@pytest.mark.parametrize("emin,emax", [(-1e39, 4.5), (-1e300, 1e300), (-3e38, 3e38)],
                         ids=["emin", "both", "width"])
@pytest.mark.parametrize("entry", DRIVER_IDS + ["SRCI", "HRCI"])
def test_interval_beyond_single_precision_is_info_200(entry, emin, emax):
    """An interval that float64 holds but float32 does not (a bound, both,
    or only the width Emax - Emin) is checked in the working precision: a
    single-precision solve returns 200 before any task, with no warning.
    The drivers once cast the contour shifts to complex64, printed 5-16
    overflow warnings (an error under -W error) and returned -2."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _single_precision_call(entry, emin, emax) == 200
        assert SymmetricRci(6, 6, emin, emax).info == 0


@pytest.mark.parametrize("field,value", [
    ("iter_tol", 0.0), ("iter_tol", -1.0), ("iter_tol", np.nan), ("iter_tol", np.inf),
    ("parallel_contour", 0), ("parallel_contour", -3),
    ("parallel_contour", 2.5), ("parallel_contour", "2"), ("parallel_contour", None),
    ("iter_tol", "x"), ("iter_tol", None),
    ("seed", "a"), ("seed", None), ("seed", 1.5),
    ("seed", True), ("seed", False), ("parallel_contour", True), ("iter_tol", True)])
def test_bad_solver_options_are_rejected(field, value):
    """iter_tol=-1 once ran BiCGStab to its iteration cap, overflowing, and
    returned -2; parallel_contour=-3 ran serially; seed=True,
    parallel_contour=True and iter_tol=True read as 1."""
    with pytest.raises(ValueError, match=field):
        SolverOptions(**{field: value})


@pytest.mark.parametrize("workers", [1, 2])
def test_factorized_shifts_are_the_kernel_contour(monkeypatch, workers):
    import feastlib.dense

    original = feastlib.dense.run_rci
    seen = []
    contour = []

    def recording(kernel, ops):
        factorize = ops.factorize
        ops.factorize = lambda z: seen.append(z) or factorize(z)
        contour.extend(complex(z) for z in kernel.contour.z)
        return original(kernel, ops)

    monkeypatch.setattr(feastlib.dense, "run_rci", recording)
    result = feast_sy(HELLO, -5.0, 5.0, 2, options=SolverOptions(parallel_contour=workers))
    assert result.info == 0
    assert len(contour) == feastinit().slot(2)
    assert sorted(seen, key=abs) == sorted(contour, key=abs)
    assert set(seen) == set(contour)


def test_numpy_integer_options_are_accepted():
    options = SolverOptions(seed=np.int64(7), parallel_contour=np.int32(2),
                            iter_tol=np.float32(1e-4))
    assert feast_sy(HELLO, -5.0, 5.0, 2, options=options).info == 0


@pytest.mark.parametrize("driver,stem,dtype,code_a,code_b", DRIVERS, ids=DRIVER_IDS)
@pytest.mark.parametrize("options", [{"seed": 1}, {}, 1, "x"], ids=["dict", "empty", "int", "str"])
def test_options_that_are_not_solver_options_are_named(driver, stem, dtype, code_a, code_b,
                                                       options):
    """A dict, 1 or "x" once raised AttributeError ('seed'), and {} was read
    as the defaults."""
    with pytest.raises(ValueError, match="options must be a SolverOptions or None"):
        _call(driver, HELLO.astype(dtype), options=options)


@pytest.mark.parametrize("driver", [feast_sy, feast_hb, feast_scsr], ids=["SY", "HB", "SCSR"])
def test_parallel_contour_factorizes_in_the_calling_thread(monkeypatch, driver):
    """parallel_contour=8 once ran the batches' factorizations on a pool of
    8 threads, and split the dense stack into one batch per worker."""
    import feastlib.banded
    import feastlib.dense
    import feastlib.sparse

    module = {feast_sy: feastlib.dense, feast_hb: feastlib.banded,
              feast_scsr: feastlib.sparse}[driver]
    original = module.run_rci
    threads = []
    batches = []

    def recording(kernel, ops):
        factor = ops._factor

        def recorded(shifts):
            threads.append(threading.get_ident())
            batches.append(len(shifts))
            return factor(shifts)

        ops._factor = recorded
        return original(kernel, ops)

    monkeypatch.setattr(module, "run_rci", recording)
    a = HELLO.astype(np.complex128 if driver is feast_hb else np.float64)
    result = _call(driver, a, options=SolverOptions(parallel_contour=8))
    assert result.info == 0
    assert threads and set(threads) == {threading.get_ident()}
    assert batches == [feastinit().slot(2)]


@pytest.mark.parametrize("driver,stem,dtype,code_a,code_b", DRIVERS, ids=DRIVER_IDS)
@pytest.mark.parametrize("generalized", [False, True], ids=["EV", "GV"])
def test_one_factor_call_of_all_contour_shifts_per_solve(monkeypatch, driver, stem, dtype,
                                                         code_a, code_b, generalized):
    """Every backend factorizes the whole contour in one batch, once per
    solve, however many refinement loops the solve takes."""
    import feastlib.banded
    import feastlib.dense
    import feastlib.sparse

    module = {"SY": feastlib.dense, "HE": feastlib.dense, "SB": feastlib.banded,
              "HB": feastlib.banded}.get(stem, feastlib.sparse)
    original = module.run_rci
    calls = []
    contour = []

    def recording(kernel, ops):
        factor = ops._factor
        ops._factor = lambda shifts: calls.append(list(shifts)) or factor(shifts)
        contour.extend(complex(z) for z in kernel.contour.z)
        return original(kernel, ops)

    monkeypatch.setattr(module, "run_rci", recording)
    a = HELLO.astype(dtype)
    result = _call(driver, a, b=np.eye(2, dtype=dtype) if generalized else None)
    assert result.info == 0 and result.loop >= 1
    assert len(contour) == feastinit().slot(2)
    assert calls == [contour]


@pytest.mark.parametrize("driver,stem,dtype,code_a,code_b", DRIVERS, ids=DRIVER_IDS)
def test_memory_error_of_a_backend_factor_returns_minus_one(monkeypatch, driver, stem, dtype,
                                                            code_a, code_b):
    import feastlib.banded
    import feastlib.dense
    import feastlib.sparse

    module = {"SY": feastlib.dense, "HE": feastlib.dense, "SB": feastlib.banded,
              "HB": feastlib.banded}.get(stem, feastlib.sparse)
    original = module.run_rci

    def refuse(shifts):
        raise MemoryError

    def refusing(kernel, ops):
        ops._factor = refuse
        return original(kernel, ops)

    monkeypatch.setattr(module, "run_rci", refusing)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _call(driver, HELLO.astype(dtype)).info == -1


COMPLEX_HELLO = np.array([[2.0, -1.0 + 1.0j], [-1.0 - 1.0j, 2.0]])


@pytest.mark.parametrize("driver,stem,dtype,code_a,code_b", DRIVERS, ids=DRIVER_IDS)
@pytest.mark.parametrize("operand", ["A", "B"])
def test_complex_operand_of_real_driver_returns_argument_code(driver, stem, dtype, code_a,
                                                              code_b, operand):
    a = COMPLEX_HELLO if operand == "A" else HELLO.astype(dtype)
    b = np.eye(2, dtype=complex) if operand == "B" else np.eye(2, dtype=dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = _call(driver, a, b)
    if dtype == np.complex128:
        # The Hermitian drivers take complex operands as they are.
        assert result.info == 0
        expected = [2.0 - np.sqrt(2.0), 2.0 + np.sqrt(2.0)] if operand == "A" else [1.0, 3.0]
        assert np.allclose(result.e[:2], expected)
    else:
        assert result.info == (code_a if operand == "A" else code_b)
        assert result.m == 0 and result.loop == 0


def _call_probe(driver, a, b=None, uplo="F", **kwargs):
    """Run a driver on the n=40 probe: full matrices ``a``/``b`` of
    bandwidth 5, interval [0.5, 10.5], m0=20; ``kwargs`` go to the driver."""
    n, kl = a.shape[0], 5

    def band(m):
        if uplo != "F":
            m = np.tril(m) if uplo == "L" else np.triu(m)
        ab = np.zeros((2 * kl + 1, n), dtype=m.dtype)
        for d in range(-kl, kl + 1):
            j = np.arange(max(0, -d), min(n, n - d))
            ab[kl + d, j] = m[j + d, j]
        return ab if uplo == "F" else ab[kl:] if uplo == "L" else ab[:kl + 1]

    if driver in (feast_sy, feast_he):
        return driver(a, 0.5, 10.5, 20, b=b, uplo=uplo, **kwargs)
    if driver in (feast_sb, feast_hb):
        extra = {} if b is None else {"b": band(b), "klb": kl}
        return driver(band(a), kl, 0.5, 10.5, 20, uplo=uplo, **extra, **kwargs)
    csr = lambda m: CsrMatrix.from_dense(m, uplo)
    return driver(csr(a), 0.5, 10.5, 20, b=None if b is None else csr(b), **kwargs)


@pytest.mark.parametrize("driver,stem,dtype,code_a,code_b", DRIVERS, ids=DRIVER_IDS)
@pytest.mark.parametrize("operand", ["A", "B"])
def test_nonsymmetric_full_operand_returns_argument_code(driver, stem, dtype, code_a,
                                                         code_b, operand):
    # A = diag(1..40) plus one entry above the diagonal has 10 eigenvalues
    # in [0.5, 10.5]; solved as its symmetric part it gave info=0 and m=8.
    a = np.diag(np.arange(1.0, 41.0)).astype(dtype)
    b = np.eye(40, dtype=dtype)
    (a if operand == "A" else b)[0, 5] = 3.0 if operand == "A" else 0.5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = _call_probe(driver, a, b)
        assert result.info == (code_a if operand == "A" else code_b)
        assert result.m == 0 and result.loop == 0
        assert "not symmetric/Hermitian" in info_description(result.info)
        # Given as one triangle, the same array is a symmetric matrix.
        for uplo in ("L", "U"):
            assert _call_probe(driver, a, b, uplo).info == 0


@pytest.mark.parametrize("driver,stem,dtype,code_a,code_b",
                         [d for d in DRIVERS if d[2] == np.complex128], ids=["HE", "HB", "HCSR"])
@pytest.mark.parametrize("flaw", ["complex symmetric", "complex diagonal"])
def test_non_hermitian_full_operand_returns_argument_code(driver, stem, dtype, code_a,
                                                          code_b, flaw):
    a = np.diag(np.arange(1.0, 41.0)).astype(complex)
    if flaw == "complex symmetric":
        a[0, 5] = a[5, 0] = 1j
    else:
        a[3, 3] += 1j
    assert _call_probe(driver, a).info == code_a


@pytest.mark.parametrize("driver,stem,dtype,code_a,code_b", DRIVERS, ids=DRIVER_IDS)
@pytest.mark.parametrize("single", [False, True], ids=["double", "single"])
def test_symmetry_tolerance_is_four_epsilons_of_the_largest_entry(driver, stem, dtype, code_a,
                                                                  code_b, single):
    if single:
        dtype = np.complex64 if dtype == np.complex128 else np.float32
    eps = np.finfo(dtype).eps
    for gap, info in ((3.0, 0), (6.0, code_a)):
        a = np.diag(np.arange(1.0, 41.0)).astype(dtype)  # max |A| = 40
        a[0, 5] = 1.0
        a[5, 0] = 1.0 + gap * eps * 40.0
        assert _call_probe(driver, a).info == info


WARM_DRIVERS = [d for d in DRIVERS if d[1] in ("SY", "HB", "SCSR")]


@pytest.mark.parametrize("driver,stem,dtype,code_a,code_b", DRIVERS, ids=DRIVER_IDS)
@pytest.mark.parametrize("x0", [
    np.ones((3, 2)),                      # N+1 rows
    np.ones((2, 1)),                      # fewer than M0 columns
    np.ones(2),                           # not 2-D
    np.ones((1, 2, 2)),                   # not 2-D
    np.full((2, 2), np.nan),
    np.array([[1.0, 0.0], [0.0, np.inf]]),
    np.array([["a", "b"], ["c", "d"]]),   # not numbers
    None,                                 # missing
    np.array([[1.0, 0.0], [1.0, 0.0]]),   # an all-zero column
    np.array([[1.0, 2.0], [0.5, 1.0]]),   # column 2 = 2 x column 1
    np.array([[1.0, 1e-300], [1.0, -1e-300]]),
    np.array([[1e300, 1.0], [-1e300, 1.0]]),
], ids=["rows", "columns", "1d", "3d", "nan", "inf", "strings", "missing", "zero-column",
        "dependent", "tiny-column", "huge-column"])
def test_invalid_x0_returns_fpm5_code(driver, stem, dtype, code_a, code_b, x0):
    fpm = feastinit()
    fpm.set_slot(5, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = _call(driver, HELLO.astype(dtype), fpm=fpm, x0=x0)
    assert result.info == 105
    assert result.m == 0 and result.loop == 0


@pytest.mark.parametrize("driver,stem,dtype,code_a,code_b", DRIVERS, ids=DRIVER_IDS)
def test_x0_must_have_full_rank_at_any_scale(driver, stem, dtype, code_a, code_b):
    # Each rank-deficient block once shrank M0 in the Cholesky of the
    # projected B and ended in info 2 with eigenvalues missing, or
    # overflowed to -3.  A full-rank block is scaled to entries below 1,
    # so that one near the overflow threshold solves too.
    a = (np.diag(np.arange(1.0, 41.0)) - 0.1 * (np.eye(40, k=1) + np.eye(40, k=-1))).astype(dtype)
    fpm = feastinit()
    fpm.set_slot(5, 1)
    x0 = np.random.default_rng(0).normal(size=(40, 20)).astype(dtype)
    dependent, tiny, huge = x0.copy(), x0.copy(), x0.copy()
    dependent[:, 3] = 2 * dependent[:, 2]
    tiny[:, 3] *= 1e-300
    huge[:, 3] *= 1e300
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (dependent, tiny, huge):
            result = _call_probe(driver, a, fpm=fpm, x0=bad)
            assert result.info == 105 and result.m == 0 and result.loop == 0
        cold = _call_probe(driver, a)
        for start in (x0, 1e-300 * x0, 1e307 * x0, cold.x):
            result = _call_probe(driver, a, fpm=fpm, x0=start)
            assert result.info == 0 and result.m == 10
            assert np.allclose(result.e[:10], cold.e[:10], rtol=1e-13, atol=0)


@pytest.mark.parametrize("driver,stem,dtype,code_a,code_b", WARM_DRIVERS,
                         ids=[d[1] for d in WARM_DRIVERS])
def test_x0_columns_past_m0_are_ignored(driver, stem, dtype, code_a, code_b):
    fpm = feastinit()
    fpm.set_slot(5, 1)
    x0 = np.array([[1.0, 1.0, np.nan], [1.0, -1.0, np.nan]])
    # An integer-valued float M0 once raised TypeError slicing x0.
    for m0 in (2, 2.0, np.float64(2.0)):
        result = _call(driver, HELLO.astype(dtype), m0=m0, fpm=fpm, x0=x0)
        assert result.info == 0 and result.m0 == 2
        assert np.allclose(result.e[:2], [1.0, 3.0])


def test_complex_x0_of_real_driver_returns_fpm5_code():
    fpm = feastinit()
    fpm.set_slot(5, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = feast_sy(HELLO, -5.0, 5.0, 2, fpm=fpm, x0=np.eye(2) * (1 + 1j))
    assert result.info == 105


# Drivers whose operands are arrays, so that their entries can be strings.
ARRAY_DRIVERS = [d for d in DRIVERS if d[0] in (feast_sy, feast_he, feast_sb, feast_hb)]


@pytest.mark.parametrize("driver,stem,dtype,code_a,code_b", ARRAY_DRIVERS,
                         ids=[d[1] for d in ARRAY_DRIVERS])
@pytest.mark.parametrize("operand", ["A", "B"])
@pytest.mark.parametrize("kind", [str, bytes, object], ids=["str", "bytes", "object"])
def test_non_numeric_operand_returns_argument_code(driver, stem, dtype, code_a, code_b,
                                                   operand, kind):
    a = HELLO.astype(dtype)
    b = np.eye(2, dtype=dtype)
    if operand == "A":
        a = a.astype(kind)
    else:
        b = b.astype(kind)
    result = _call(driver, a, b)
    assert result.info == (code_a if operand == "A" else code_b)
    assert result.m == 0 and result.loop == 0


def _call_scalars(driver, emin, emax, m0):
    """Run a driver, or start an RCI kernel, on HELLO with the given scalars."""
    if driver in (SymmetricRci, HermitianRci):
        return driver(2, m0, emin, emax)
    if driver in (feast_sy, feast_he):
        return driver(HELLO.astype(complex if driver is feast_he else float), emin, emax, m0)
    if driver in (feast_sb, feast_hb):
        band = np.array([[0, -1.0], [2.0, 2.0], [-1.0, 0]])
        return driver(band.astype(complex if driver is feast_hb else float), 1, emin, emax, m0)
    csr = CsrMatrix.from_dense(HELLO.astype(complex if driver is feast_hcsr else float))
    return driver(csr, emin, emax, m0)


SCALAR_CALLERS = [d[0] for d in DRIVERS] + [SymmetricRci, HermitianRci]


@pytest.mark.parametrize("driver", SCALAR_CALLERS,
                         ids=DRIVER_IDS + ["SymmetricRci", "HermitianRci"])
@pytest.mark.parametrize("emin,emax,m0,code", [
    (None, 5.0, 2, 200), ("a", 5.0, 2, 200), (1j, 5.0, 2, 200),
    (-5.0, np.complex128(5.0), 2, 200), (-5.0, "5", 2, 200),
    (-5.0, 5.0, None, 201), (-5.0, 5.0, "x", 201), (-5.0, 5.0, 1.5, 201),
    (-5.0, 5.0, np.float64(0.5), 201), (-5.0, 5.0, 2j, 201),
    (-5.0, 5.0, True, 201), (-5.0, 5.0, np.True_, 201),
    (-5.0, 5.0, 2.0, 0), (-5.0, 5.0, np.int64(2), 0), (-5.0, 5.0, np.float32(2.0), 0),
    (np.float32(-5.0), np.int32(5), 2, 0), (np.array(-5.0), 5, 2, 0),
], ids=lambda v: repr(v))
def test_bad_scalar_argument_returns_code(driver, emin, emax, m0, code):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = _call_scalars(driver, emin, emax, m0)
    assert result.info == code
    if code:
        assert "not" in info_description(code)


def _call_fpm(driver, fpm):
    """Solve HELLO with a driver, or with an RCI kernel on the dense ops,
    given ``fpm``."""
    if driver in (SymmetricRci, HermitianRci):
        kernel = driver(2, 2, -5.0, 5.0, fpm)
        return run_rci(kernel, _DenseOps(HELLO.astype(kernel.x.dtype), None, kernel.contour.z,
                                         driver is HermitianRci))
    return _call(driver, HELLO.astype(next(d[2] for d in DRIVERS if d[0] is driver)), fpm=fpm)


@pytest.mark.parametrize("driver", SCALAR_CALLERS,
                         ids=DRIVER_IDS + ["SymmetricRci", "HermitianRci"])
def test_fpm_of_64_integers_is_read_as_feast_params(driver):
    """A list or array of 64 integers once raised AttributeError ('slot')."""
    fpm = feastinit()
    fpm.set_slot(2, 4)
    fpm.set_slot(3, 10)
    slots = [fpm.slot(i) for i in range(1, 65)]
    want = _call_fpm(driver, FeastParams(slots))
    assert want.info == 0
    for given in (slots, np.array(slots), np.array(slots, dtype=np.int32)):
        got = _call_fpm(driver, given)
        for name in ("e", "x", "res"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        assert (got.info, got.loop, got.m) == (want.info, want.loop, want.m)


@pytest.mark.parametrize("driver", SCALAR_CALLERS,
                         ids=DRIVER_IDS + ["SymmetricRci", "HermitianRci"])
@pytest.mark.parametrize("fpm", [[0] * 63, [0.0] * 64, [True] * 64, np.zeros((8, 8), int),
                                 "x" * 64, {2: 8}, [[0] * 64, [0]], 8],
                         ids=["63", "floats", "bools", "8x8", "str", "dict", "ragged", "int"])
def test_fpm_that_is_not_64_integers_is_named(driver, fpm):
    with pytest.raises(ValueError, match="fpm must be a FeastParams or a sequence of 64 integers"):
        _call_fpm(driver, fpm)


@pytest.mark.parametrize("driver,stem,dtype,code_a,code_b", DRIVERS[:4], ids=DRIVER_IDS[:4])
@pytest.mark.parametrize("uplo", [1, 5, 1.0, b"L"], ids=["1", "5", "1.0", "bytes"])
def test_non_string_uplo_returns_argument_code(driver, stem, dtype, code_a, code_b, uplo):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _call(driver, HELLO.astype(dtype), uplo=uplo).info == -101


# Two eigenvalues, 1 and 2, in [0.5, 2.5], and 38 far outside it.
GAPPED = np.diag(np.r_[1.0, 2.0, np.arange(1000.0, 1038.0)])
# Two eigenvalues near 1 and 2 in [0.5, 2.5], in single precision.
TRIDIAG32 = (np.diag([1.0, 2.0, 3.0, 4.0]) + np.diag([0.1] * 3, 1)
             + np.diag([0.1] * 3, -1)).astype(np.float32)


@pytest.mark.parametrize("driver", [feast_sy, lambda a, *args: feast_scsr(CsrMatrix.from_dense(a), *args)],
                         ids=["SY", "SCSR"])
@pytest.mark.parametrize("a,m0,info", [
    (GAPPED, 2, 3), (GAPPED, 3, 0), (GAPPED, 10, 0), (TRIDIAG32, 2, 3), (TRIDIAG32, 3, 0),
], ids=["gapped-2", "gapped-3", "gapped-10", "tridiag32-2", "tridiag32-3"])
def test_too_small_only_when_the_given_m0_is_full(driver, a, m0, info):
    # An M0 larger than the count leaves a rank-deficient filtered block, so
    # the subspace shrinks to 2 columns; that shows that no eigenvalue is
    # missing.  Only M0 = 2 cannot rule one out.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = driver(a, 0.5, 2.5, m0)
    assert result.info == info
    assert result.m == 2
