import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from feastlib.io import ParseError, parse_config, parse_coordinate
from feastlib.sparse import CsrMatrix

HELLO_TEXT = """2 2 4
1 1 2.0
1 2 -1.0
2 1 -1.0
2 2 2.0
"""

CONFIG_TEXT = """s      ! kind of problem
d      ! precision
F      ! storage
-5.0e0 ! lower bound of the interval
5.0e0  ! upper bound of the interval
20     ! working subspace size
!!!!FEASTPARAM (1,64) in Fortran; [0,63] in C
1   ! print runtime report
8   ! contour points
12  ! tolerance exponent
20  ! loop budget
1   ! convergence criterion kind
"""


def test_parse_helloworld_matrix():
    csr = parse_coordinate(HELLO_TEXT)
    assert isinstance(csr, CsrMatrix) and csr.uplo == "F"
    assert csr.n == 2 and csr.nnz == 4
    assert csr.ia.tolist() == [1, 3, 5]
    assert csr.ja.tolist() == [1, 2, 1, 2]
    assert csr.values.dtype == np.float64
    assert csr.values.tolist() == [2.0, -1.0, -1.0, 2.0]
    assert np.array_equal(csr.to_dense(), [[2.0, -1.0], [-1.0, 2.0]])


@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.complex64, np.complex128])
def test_values_take_the_requested_dtype(dtype):
    """Values are cast to ``dtype``; a complex one reads ``i j re im``."""
    imag = np.dtype(dtype).kind == "c"
    text = "2 2 3\n" + "".join(f"{i} {j} {v}{' 0.5' if imag else ''}\n"
                                for i, j, v in [(1, 1, 2.0), (2, 1, -1.0), (2, 2, 0.1)])
    csr = parse_coordinate(text, dtype, "L")
    assert csr.uplo == "L" and csr.values.dtype == dtype
    expected = np.array([2.0, -1.0, 0.1]) + (0.5j if imag else 0)
    assert np.array_equal(csr.values, expected.astype(dtype))


def test_parse_single_entry():
    csr = parse_coordinate("1 1 1\n1 1 5.0\n")
    assert csr.n == 1 and csr.nnz == 1
    assert csr.values[0] == 5.0


def test_reference_tridiagonal_offsets():
    lines = ["4 4 10"]
    vals = {(1, 1): 1.0, (2, 2): 2.0, (3, 3): 3.0, (4, 4): 4.0,
            (1, 2): -1.0, (2, 3): -2.0, (3, 4): -3.0}
    for (i, j), v in sorted(vals.items()):
        lines.append(f"{i} {j} {v}")
        if i != j:
            lines.append(f"{j} {i} {v}")
    csr = parse_coordinate("\n".join(lines))
    assert csr.ia.tolist() == [1, 3, 6, 9, 11]
    assert csr.ja.tolist() == [1, 2, 1, 2, 3, 2, 3, 4, 3, 4]


def test_lower_triangle_conversion():
    text = "4 4 7\n1 1 1\n2 1 5\n2 2 2\n3 2 6\n3 3 3\n4 3 7\n4 4 4\n"
    csr = parse_coordinate(text, np.float64, "L")
    assert csr.ia.tolist() == [1, 2, 4, 6, 8]
    assert csr.ja.tolist() == [1, 1, 2, 2, 3, 3, 4]


def test_duplicates_preserved_then_summed():
    csr = parse_coordinate("1 1 2\n1 1 1.0\n1 1 1.0\n")
    assert csr.nnz == 1
    assert csr.values[0] == 2.0
    # Summed in the requested precision, after the cast.
    single = parse_coordinate("1 1 2\n1 1 0.1\n1 1 0.2\n", np.float32)
    assert single.values.dtype == np.float32
    assert single.values[0] == np.float32(0.1) + np.float32(0.2)


def test_complex_coordinate_entries():
    csr = parse_coordinate("2 2 2\n1 1 2.0 0.0\n1 2 0.0 1.0\n", np.complex128)
    assert csr.values.tolist() == [2.0, 1j]
    with pytest.raises(ParseError):
        parse_coordinate("1 1 1\n1 1 2.0 0.0\n")  # real file with 4 fields


def test_malformed_line_reports_number():
    with pytest.raises(ParseError) as err:
        parse_coordinate("2 2 2\n1 1 2.0\n1 oops 3.0\n")
    assert err.value.line == 3
    assert "line 3" in str(err.value)


def test_index_out_of_range():
    with pytest.raises(ParseError) as err:
        parse_coordinate("2 2 1\n3 1 1.0\n")
    assert "outside" in str(err.value)


def test_truncated_file():
    with pytest.raises(ParseError) as err:
        parse_coordinate("2 2 3\n1 1 1.0\n")
    assert "truncated" in str(err.value)


def test_extra_entries_rejected():
    with pytest.raises(ParseError):
        parse_coordinate("1 1 1\n1 1 1.0\n1 1 2.0\n")


def test_rectangular_header_rejected():
    with pytest.raises(ParseError):
        parse_coordinate("2 3 1\n1 1 1.0\n")


@pytest.mark.parametrize("text,message", [
    ("", "empty coordinate file"),
    ("! only a comment\n", "empty coordinate file"),
    ("2 2\n1 1 1.0\n", "header must be"),
    ("2 2 1 5\n1 1 1.0\n", "header must be"),
    ("0 0 0\n", "invalid sizes"),
    ("-1 -1 0\n", "invalid sizes"),
    ("2 2 -1\n", "invalid sizes"),
])
def test_malformed_coordinate_header(text, message):
    with pytest.raises(ParseError, match=message):
        parse_coordinate(text)


def test_triangle_violation_rejected():
    with pytest.raises(ParseError, match="uplo='L' entry above the diagonal"):
        parse_coordinate("2 2 1\n1 2 1.0\n", np.float64, "L")
    with pytest.raises(ParseError, match="uplo='U' entry below the diagonal"):
        parse_coordinate("2 2 1\n2 1 1.0\n", np.float64, "U")


def test_parse_full_config():
    cfg = parse_config(CONFIG_TEXT)
    assert cfg.problem == "s"
    assert cfg.precision == "d"
    assert cfg.uplo == "F"
    assert cfg.emin == -5.0 and cfg.emax == 5.0
    assert cfg.m0 == 20
    assert cfg.fpm.slot(1) == 1
    assert cfg.fpm.slot(2) == 8
    assert cfg.fpm.slot(3) == 12
    assert cfg.fpm.slot(4) == 20
    assert cfg.fpm.slot(6) == 1


def test_parse_minimal_config_keeps_defaults():
    cfg = parse_config("g\nd\nL\n0.0\n1.0\n8\n")
    assert cfg.problem == "g"
    assert cfg.uplo == "L"
    assert (cfg.emin, cfg.emax, cfg.m0) == (0.0, 1.0, 8)
    assert cfg.fpm.slot(1) == 0
    assert cfg.fpm.slot(2) == 8
    assert cfg.fpm.slot(6) == 0


def test_contour_point_override():
    text = CONFIG_TEXT.replace("8   ! contour points", "16  ! contour points")
    assert parse_config(text).fpm.slot(2) == 16


def test_tolerance_line_targets_precision_matching_slot():
    text = CONFIG_TEXT.replace("12  ! tolerance exponent", "9   ! tolerance exponent")
    single = parse_config(text.replace("d      ! precision", "s      ! precision"))
    assert single.fpm.slot(7) == 9
    assert single.fpm.slot(3) == 12   # double-precision slot keeps its default
    double = parse_config(text)
    assert double.fpm.slot(3) == 9
    assert double.fpm.slot(7) == 5    # single-precision slot keeps its default


def test_fortran_style_exponents():
    cfg = parse_config("s\nd\nF\n-5.0d0\n5.0D0\n4\n")
    assert cfg.emin == -5.0 and cfg.emax == 5.0


def test_config_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_config("x\nd\nF\n0.0\n1.0\n4\n")
    assert err.value.line == 1
    with pytest.raises(ParseError) as err:
        parse_config("s\nd\nF\nnotanumber\n1.0\n4\n")
    assert err.value.line == 4
    with pytest.raises(ParseError):
        parse_config("s\nd\nF\n0.0\n1.0\n")  # too short
    with pytest.raises(ParseError, match="precision") as err:
        parse_config("s\nq\nF\n0.0\n1.0\n4\n")
    assert err.value.line == 2
    with pytest.raises(ParseError, match="UPLO") as err:
        parse_config("s\nd\nX\n0.0\n1.0\n4\n")
    assert err.value.line == 3
    # Five override lines at most: a sixth is rejected with its line number.
    with pytest.raises(ParseError, match="too many") as err:
        parse_config(CONFIG_TEXT + "0   ! one override too many\n")
    assert err.value.line == 13


@settings(max_examples=20, deadline=None)
@given(st.randoms(use_true_random=False))
def test_csr_conversion_permutation_invariant(r):
    triplets = [(1, 1, 1.0), (2, 1, 2.0), (2, 2, 3.0), (3, 3, 4.0), (1, 3, 5.0),
                (3, 1, 5.0), (2, 2, 1.5)]
    order = list(range(len(triplets)))
    r.shuffle(order)
    shuffled = [triplets[i] for i in order]

    def build(tr):
        return parse_coordinate(f"3 3 {len(tr)}\n" + "".join(f"{i} {j} {v}\n" for i, j, v in tr))

    a, b = build(triplets), build(shuffled)
    assert a.ia.tolist() == b.ia.tolist()
    assert a.ja.tolist() == b.ja.tolist()
    assert np.allclose(a.values, b.values, atol=0)
