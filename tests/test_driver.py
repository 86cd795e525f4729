"""The driver skeleton shared by the six predefined drivers: routine names,
non-finite operand codes, and the kernel-owned contour."""

import warnings

import numpy as np
import pytest

from feastlib import (
    CsrMatrix,
    HermitianRci,
    SolverOptions,
    SymmetricRci,
    feast_hb,
    feast_hcsr,
    feast_he,
    feast_sb,
    feast_scsr,
    feast_sy,
    feastinit,
    info_description,
)

HELLO = np.array([[2.0, -1.0], [-1.0, 2.0]])


def _call(driver, a, b=None, **kwargs):
    """Run one of the six drivers on full 2x2 matrices ``a`` and ``b``."""
    if driver in (feast_sy, feast_he):
        return driver(a, -5.0, 5.0, 2, b=b, **kwargs)
    if driver in (feast_sb, feast_hb):
        band = lambda m: np.array([[0, m[0, 1]], [m[0, 0], m[1, 1]], [m[1, 0], 0]], dtype=m.dtype)
        extra = {} if b is None else {"b": band(b), "klb": 1}
        return driver(band(a), 1, -5.0, 5.0, 2, **extra, **kwargs)
    csr = CsrMatrix.from_dense
    return driver(csr(a), -5.0, 5.0, 2, b=None if b is None else csr(b), **kwargs)


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
    fails: with two workers, inside a pool thread."""
    a = np.diag([2.0, 0.0]).astype(dtype)
    b = np.diag([1.0, 0.0]).astype(dtype)
    assert _call(driver, a, b, options=SolverOptions(parallel_contour=workers)).info == -2


@pytest.mark.parametrize("field,value", [
    ("iter_tol", 0.0), ("iter_tol", -1.0), ("iter_tol", np.nan), ("iter_tol", np.inf),
    ("parallel_contour", 0), ("parallel_contour", -3)])
def test_bad_solver_options_are_rejected(field, value):
    """iter_tol=-1 once ran BiCGStab to its iteration cap, overflowing, and
    returned -2; parallel_contour=-3 ran serially."""
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


def _call_probe(driver, a, b=None, uplo="F"):
    """Run a driver on the n=40 probe: full matrices ``a``/``b`` of
    bandwidth 5, interval [0.5, 10.5], m0=20."""
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
        return driver(a, 0.5, 10.5, 20, b=b, uplo=uplo)
    if driver in (feast_sb, feast_hb):
        extra = {} if b is None else {"b": band(b), "klb": kl}
        return driver(band(a), kl, 0.5, 10.5, 20, uplo=uplo, **extra)
    csr = lambda m: CsrMatrix.from_dense(m, uplo)
    return driver(csr(a), 0.5, 10.5, 20, b=None if b is None else csr(b))


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


@pytest.mark.parametrize("driver,stem,dtype,code_a,code_b", WARM_DRIVERS,
                         ids=[d[1] for d in WARM_DRIVERS])
@pytest.mark.parametrize("x0", [
    np.ones((3, 2)),                      # N+1 rows
    np.ones((2, 1)),                      # fewer than M0 columns
    np.ones(2),                           # not 2-D
    np.ones((1, 2, 2)),                   # not 2-D
    np.full((2, 2), np.nan),
    np.array([[1.0, 0.0], [0.0, np.inf]]),
    np.array([["a", "b"], ["c", "d"]]),   # not numbers
], ids=["rows", "columns", "1d", "3d", "nan", "inf", "strings"])
def test_invalid_x0_returns_fpm5_code(driver, stem, dtype, code_a, code_b, x0):
    fpm = feastinit()
    fpm.set_slot(5, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = _call(driver, HELLO.astype(dtype), fpm=fpm, x0=x0)
    assert result.info == 105
    assert result.m == 0 and result.loop == 0


@pytest.mark.parametrize("driver,stem,dtype,code_a,code_b", WARM_DRIVERS,
                         ids=[d[1] for d in WARM_DRIVERS])
def test_x0_columns_past_m0_are_ignored(driver, stem, dtype, code_a, code_b):
    fpm = feastinit()
    fpm.set_slot(5, 1)
    x0 = np.array([[1.0, 1.0, np.nan], [1.0, -1.0, np.nan]])
    result = _call(driver, HELLO.astype(dtype), fpm=fpm, x0=x0)
    assert result.info == 0
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
