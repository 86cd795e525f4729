import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from feastlib import (
    CsrMatrix,
    FeastParams,
    RciTask,
    SymmetricRci,
    check_problem,
    feast_hb,
    feast_scsr,
    feast_sy,
    feastinit,
    validate_params,
)
from feastlib.params import info_classification, info_description


def test_defaults():
    fpm = feastinit()
    assert fpm.slot(1) == 0
    assert fpm.slot(2) == 8
    assert fpm.slot(3) == 12
    assert fpm.slot(4) == 20
    assert fpm.slot(5) == 0
    assert fpm.slot(6) == 0
    assert fpm.slot(7) == 5
    assert fpm.slot(14) == 0
    for i in range(1, 65):
        if i not in (1, 2, 3, 4, 5, 6, 7, 14):
            assert fpm.slot(i) == 0


def test_zero_indexed_accessor_matches_slots():
    fpm = feastinit()
    for i in range(1, 65):
        assert fpm[i - 1] == fpm.slot(i)
    fpm[1] = 16
    assert fpm.slot(2) == 16


def test_defaults_validate_clean():
    assert validate_params(feastinit()) == 0


def test_validate_rejects_bad_contour_count():
    fpm = feastinit()
    fpm.set_slot(2, 7)
    assert validate_params(fpm) == 102


def test_validate_rejects_bad_print_flag():
    fpm = feastinit()
    fpm.set_slot(1, 5)
    assert validate_params(fpm) == 101


def test_validate_smallest_slot_wins():
    fpm = feastinit()
    fpm.set_slot(2, 7)
    fpm.set_slot(6, 9)
    assert validate_params(fpm) == 102


def test_validate_is_pure():
    fpm = feastinit()
    fpm.set_slot(5, 3)
    snapshot = fpm.copy()
    assert validate_params(fpm) == 105
    assert validate_params(fpm) == 105
    assert fpm == snapshot


def test_tolerance_exponents_only_bounded_below():
    # Values above the caps are clamped at the point of use, never rejected.
    fpm = feastinit()
    fpm.set_slot(3, 99)
    assert validate_params(fpm) == 0
    fpm.set_slot(3, 0)
    assert validate_params(fpm) == 103
    fpm = feastinit()
    fpm.set_slot(7, 99)
    assert validate_params(fpm) == 0
    fpm.set_slot(7, -1)
    assert validate_params(fpm) == 107


def test_slot9_and_reserved_slots_ignored():
    fpm = feastinit()
    fpm.set_slot(9, 12345)
    fpm.set_slot(30, -7)
    fpm.set_slot(63, 99)
    assert validate_params(fpm) == 0


_BAD_VALUES = {1: 5, 2: 7, 3: 0, 4: -1, 5: 2, 6: -3, 7: 0, 14: 9}


@given(st.sampled_from(sorted(_BAD_VALUES)))
def test_single_violation_reports_its_slot(slot):
    fpm = feastinit()
    fpm.set_slot(slot, _BAD_VALUES[slot])
    assert validate_params(fpm) == 100 + slot


def test_check_problem_examples():
    assert check_problem(2, 2, -5.0, 5.0) == 0
    assert check_problem(2, 2, 5.0, -5.0) == 200
    assert check_problem(0, 1, 0.0, 1.0) == 202


def test_check_problem_precedence():
    # 202 before 201 before 200
    assert check_problem(0, 5, 5.0, -5.0) == 202
    assert check_problem(3, 5, 5.0, -5.0) == 201
    assert check_problem(3, 0, 5.0, -5.0) == 201
    assert check_problem(3, 2, 1.0, 1.0) == 200


@pytest.mark.parametrize("emin, emax", [
    (np.nan, 5.0), (-5.0, np.nan), (-5.0, np.inf), (-np.inf, 5.0), (-np.inf, np.inf),
    (-1e308, 1e308),  # finite bounds whose width Emax - Emin overflows
])
def test_non_finite_interval_is_info_200(emin, emax):
    hello = np.array([[2.0, -1.0], [-1.0, 2.0]])
    hello_band = np.array([[2.0, 2.0], [-1.0, 0.0]], dtype=complex)  # uplo='L'
    assert check_problem(2, 2, emin, emax) == 200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rci = SymmetricRci(2, 2, emin, emax)
        assert rci.step() == RciTask.DONE
        infos = [
            rci.result.info,
            feast_sy(hello, emin, emax, 2).info,
            feast_scsr(CsrMatrix.from_dense(hello), emin, emax, 2).info,
            feast_hb(hello_band, 1, emin, emax, 2, uplo="L").info,
        ]
    assert infos == [200, 200, 200, 200]


def test_params_bad_constructor():
    with pytest.raises(ValueError):
        FeastParams([0] * 63)
    with pytest.raises(IndexError):
        feastinit().slot(0)
    with pytest.raises(IndexError):
        feastinit().slot(65)
    for i in (0, 65):
        with pytest.raises(IndexError, match="out of range"):
            feastinit().set_slot(i, 1)


def test_slot_values_must_be_integers():
    """set_slot(2, 8.7) once stored 8, which feast_sy then solved with, and
    fpm[1] = "12" stored 12.  Numpy integers are stored as ints."""
    fpm = feastinit()
    for value in (8.7, 8.0, np.float64(4.9), "12", True, np.True_, None):
        with pytest.raises(ValueError, match=r"fpm\(2\) must be an integer"):
            fpm.set_slot(2, value)
        with pytest.raises(ValueError, match=r"fpm\[1\] must be an integer"):
            fpm[1] = value
        with pytest.raises(ValueError, match=r"fpm\(3\) must be an integer"):
            FeastParams([0, 8, value] + [0] * 61)
    assert fpm == feastinit()
    fpm = FeastParams(np.arange(64, dtype=np.int32))
    fpm.set_slot(2, np.int64(16))
    fpm[2] = np.uint8(10)
    assert [type(v) for v in (fpm.slot(1), fpm.slot(2), fpm.slot(3))] == [int, int, int]
    assert (fpm.slot(1), fpm.slot(2), fpm.slot(3), fpm.slot(64)) == (0, 16, 10, 63)


def test_info_classification_table():
    assert info_classification(0) == "success"
    for w in (1, 2, 3, 4):
        assert info_classification(w) == "warning"
    for e in (200, 201, 202, 105, -1, -2, -3, -105):
        assert info_classification(e) == "error"


def test_info_description_mentions_key_phrases():
    assert "Emin>=Emax" in info_description(200)
    assert "Emax-Emin not finite" in info_description(200)
    assert "N<=0" in info_description(202)
    assert "M0" in info_description(201)
    assert "fpm(3)" in info_description(103)
    assert "argument" in info_description(-104)
    assert info_description(7) == "Unknown return code 7"
