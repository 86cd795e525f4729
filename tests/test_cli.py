import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import feastlib
from feastlib.cli import main, run_driver

HELLO_IN = """s      ! problem kind
d      ! precision
F      ! storage
-5.0e0 ! Emin
5.0e0  ! Emax
2      ! M0
!!!!FEASTPARAM overrides
1      ! print runtime report
8      ! contour points
12     ! tolerance exponent
20     ! loop budget
0      ! criterion kind
"""

HELLO_A = """2 2 4
1 1 2.0
1 2 -1.0
2 1 -1.0
2 2 2.0
"""


@pytest.fixture
def hello_prefix(tmp_path):
    (tmp_path / "hello.in").write_text(HELLO_IN)
    (tmp_path / "hello.A").write_text(HELLO_A)
    return str(tmp_path / "hello")


_NUMBER = r"-?\d\.\d{15}e[+-]\d{2}"


def _eigenvalues(out):
    """Eigenvalues of the report, by 1-based index.  Each line must read
    ``i value residual`` with 16 significant digits."""
    block = out.split("Eigenvalues/Residuals\n")[1].split("Time (s)")[0]
    values = {}
    for line in block.splitlines():
        assert re.fullmatch(rf"\d+ {_NUMBER} {_NUMBER}", line), line
        i, value, _ = line.split()
        values[int(i)] = float(value)
    return values


def _assert_eigenvalue(out, index, exact):
    """The printed eigenvalue ``index`` is within 4 ulps of ``exact``: a
    correct solve may round differently in its last digits."""
    value = _eigenvalues(out)[index]
    assert abs(value - exact) <= 4 * np.spacing(exact), (index, value, exact)


def _strip_time(text):
    return "\n".join(l for l in text.splitlines() if not l.startswith("Time (s)"))


def test_helloworld_run(hello_prefix, capsys):
    assert run_driver(hello_prefix) == 0
    out = capsys.readouterr().out
    assert "mode found/subspace 2 2" in out
    _assert_eigenvalue(out, 1, 1.0)
    _assert_eigenvalue(out, 2, 3.0)
    assert "==>FEAST has successfully converged" in out
    # loop-0 line reports a unit trace error
    loop0 = [l for l in out.splitlines() if l.startswith("0 ")]
    assert loop0 and "1.000000000000000e+00" in loop0[0]


def test_interval_error_exit_code(tmp_path, capsys):
    (tmp_path / "bad.in").write_text(HELLO_IN.replace("-5.0e0", "7.0e0"))
    (tmp_path / "bad.A").write_text(HELLO_A)
    assert run_driver(str(tmp_path / "bad")) == 1
    err = capsys.readouterr().err
    assert "Emin>=Emax" in err


def test_missing_files_exit_two(tmp_path, capsys):
    assert run_driver(str(tmp_path / "nothing")) == 2
    assert "nothing.in" in capsys.readouterr().err
    (tmp_path / "only.in").write_text(HELLO_IN)
    assert run_driver(str(tmp_path / "only")) == 2
    assert "only.A" in capsys.readouterr().err


def test_missing_b_for_generalized(tmp_path, capsys):
    (tmp_path / "gen.in").write_text(HELLO_IN.replace("s      ! problem kind",
                                                      "g      ! problem kind"))
    (tmp_path / "gen.A").write_text(HELLO_A)
    assert run_driver(str(tmp_path / "gen")) == 2
    assert "gen.B" in capsys.readouterr().err


def test_parse_error_exit_two(tmp_path, capsys):
    (tmp_path / "bad.in").write_text(HELLO_IN)
    (tmp_path / "bad.A").write_text("2 2 1\n1 zz 1.0\n")
    assert run_driver(str(tmp_path / "bad")) == 2
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("nnz", ["1000000000000", "100000000000000000000"])
def test_nnz_header_past_the_file_exits_two(tmp_path, capsys, nnz):
    """A header NNZ larger than the file's entry lines is a truncated file,
    found before NNZ entries are allocated (which ran out of memory, or
    past numpy's largest array, with a traceback and exit 1)."""
    (tmp_path / "big.in").write_text(HELLO_IN)
    (tmp_path / "big.A").write_text(HELLO_A.replace("2 2 4", f"2 2 {nnz}"))
    assert run_driver(str(tmp_path / "big")) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and f"file truncated: expected NNZ={nnz}" in captured.err


@pytest.mark.parametrize("uplo,entry", [("L", "1 2 -1.0"), ("U", "2 1 -1.0")])
def test_entry_outside_the_triangle_exits_two(tmp_path, capsys, uplo, entry):
    """An entry outside the .in file's UPLO triangle makes the file
    malformed: exit 2 with an error line, no report."""
    (tmp_path / "t.in").write_text(HELLO_IN.replace("F      ! storage", f"{uplo}      ! storage"))
    (tmp_path / "t.A").write_text(f"2 2 3\n1 1 2.0\n{entry}\n2 2 2.0\n")
    assert run_driver(str(tmp_path / "t")) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "the diagonal" in captured.err


def test_seed_determinism(hello_prefix, capsys):
    assert main([hello_prefix, "--seed", "42", "--parallel-contour", "8"]) == 0
    first = _strip_time(capsys.readouterr().out)
    assert main([hello_prefix, "--seed", "42", "--parallel-contour", "8"]) == 0
    second = _strip_time(capsys.readouterr().out)
    assert first == second


@pytest.mark.parametrize("flag,value", [
    ("--iter-tol", "-1"), ("--iter-tol", "nan"), ("--parallel-contour", "0")])
def test_bad_solver_option_exits_two(hello_prefix, capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main([hello_prefix, flag, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and flag[2:].replace("-", "_") in captured.err


@pytest.mark.parametrize("fmt", ["dense", "banded", "sparse"])
def test_format_selection(hello_prefix, capsys, fmt):
    assert main([hello_prefix, "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert "mode found/subspace 2 2" in out
    _assert_eigenvalue(out, 1, 1.0)


def test_generalized_problem(tmp_path, capsys):
    (tmp_path / "gen.in").write_text(
        "g\nd\nF\n0.0\n5.0\n2\n!!!!FEASTPARAM\n0\n8\n12\n20\n0\n")
    (tmp_path / "gen.A").write_text("2 2 2\n1 1 2.0\n2 2 6.0\n")
    (tmp_path / "gen.B").write_text("2 2 2\n1 1 2.0\n2 2 2.0\n")
    assert run_driver(str(tmp_path / "gen")) == 0
    out = capsys.readouterr().out
    assert "mode found/subspace 2 2" in out
    _assert_eigenvalue(out, 1, 1.0)
    _assert_eigenvalue(out, 2, 3.0)


def test_generalized_problem_in_every_format(tmp_path, capsys):
    """The banded format converts B to band storage as well; all three
    formats find the same six eigenvalues of tridiag(-0.1; 1..12; -0.1)
    against B = 2I."""
    n = 12
    (tmp_path / "tri.in").write_text(
        "g\nd\nL\n0.4\n3.05\n10\n!!!!FEASTPARAM\n0\n8\n12\n20\n0\n")
    entries = [f"{i} {i} {i}.0" for i in range(1, n + 1)]
    entries += [f"{i + 1} {i} -0.1" for i in range(1, n)]
    (tmp_path / "tri.A").write_text(f"{n} {n} {len(entries)}\n" + "\n".join(entries) + "\n")
    (tmp_path / "tri.B").write_text(
        f"{n} {n} {n}\n" + "".join(f"{i} {i} 2.0\n" for i in range(1, n + 1)))
    a = np.diag(np.arange(1.0, n + 1)) - 0.1 * (np.eye(n, k=1) + np.eye(n, k=-1))
    exact = np.linalg.eigvalsh(a / 2.0)
    exact = exact[(exact >= 0.4) & (exact <= 3.05)]
    assert len(exact) == 6
    for fmt in ("banded", "sparse", "dense"):
        assert main([str(tmp_path / "tri"), "--format", fmt]) == 0
        out = capsys.readouterr().out
        assert "mode found/subspace 6 10" in out
        values = _eigenvalues(out)
        assert np.abs([values[i + 1] for i in range(6)] - exact).max() <= 1e-14


def test_complex_hermitian_problem(tmp_path, capsys):
    (tmp_path / "herm.in").write_text(
        "s\nz\nF\n0.0\n4.0\n3\n!!!!FEASTPARAM\n0\n8\n12\n20\n0\n")
    # tridiagonal with +i off-diagonal: spectrum {2-sqrt2, 2, 2+sqrt2}
    (tmp_path / "herm.A").write_text(
        "3 3 7\n"
        "1 1 2.0 0.0\n1 2 0.0 1.0\n"
        "2 1 0.0 -1.0\n2 2 2.0 0.0\n2 3 0.0 1.0\n"
        "3 2 0.0 -1.0\n3 3 2.0 0.0\n")
    assert run_driver(str(tmp_path / "herm")) == 0
    out = capsys.readouterr().out
    assert "mode found/subspace 3 3" in out
    _assert_eigenvalue(out, 2, 2.0)


def test_lower_triangle_input(tmp_path, capsys):
    (tmp_path / "lo.in").write_text(
        "s\nd\nL\n-5.0\n5.0\n2\n!!!!FEASTPARAM\n0\n8\n12\n20\n0\n")
    (tmp_path / "lo.A").write_text("2 2 3\n1 1 2.0\n2 1 -1.0\n2 2 2.0\n")
    assert run_driver(str(tmp_path / "lo")) == 0
    out = capsys.readouterr().out
    _assert_eigenvalue(out, 1, 1.0)


def test_iterative_solver_flag(hello_prefix, capsys):
    assert main([hello_prefix, "--solver", "iterative", "--iter-tol", "1e-8"]) == 0
    out = capsys.readouterr().out
    assert "mode found/subspace 2 2" in out


def test_single_precision_problem(tmp_path, capsys):
    (tmp_path / "sp.in").write_text(
        "s\ns\nF\n-5.0\n5.0\n2\n!!!!FEASTPARAM\n0\n8\n5\n20\n0\n")
    (tmp_path / "sp.A").write_text(HELLO_A)
    assert run_driver(str(tmp_path / "sp")) == 0
    out = capsys.readouterr().out
    assert "mode found/subspace 2 2" in out
    values = [float(l.split()[1]) for l in out.splitlines()
              if l and l.split()[0] in ("1", "2") and "e" in l.split()[1]]
    assert np.allclose(sorted(values), [1.0, 3.0], atol=1e-4)


def test_warning_still_exits_zero(tmp_path, capsys):
    # interval holding no spectrum: warning 1, exit code 0
    (tmp_path / "w.in").write_text("s\nd\nF\n10.0\n20.0\n2\n")
    (tmp_path / "w.A").write_text(HELLO_A)
    assert run_driver(str(tmp_path / "w")) == 0
    captured = capsys.readouterr()
    assert "warning 1" in captured.err
    assert "mode found/subspace 0 2" in captured.out


@pytest.mark.parametrize("entries", ["1 1 1e300\n2 2 2.0\n", "1 1 3e38\n1 1 3e38\n2 2 2.0\n"],
                         ids=["entry", "sum of duplicates"])
def test_entry_beyond_single_precision_exits_one_under_warnings_as_errors(tmp_path, entries):
    """An A entry, or a sum of duplicate entries, beyond float32's range in
    a single-precision problem is infinite once cast: the module form run
    with ``-W error`` reports -103 and exits 1, with no warning and no
    traceback."""
    (tmp_path / "big.in").write_text("s\ns\nF\n-5.0\n5.0\n2\n")
    (tmp_path / "big.A").write_text(f"2 2 {entries.count(chr(10))}\n{entries}")
    src = str(Path(feastlib.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-W", "error", "-m", "feastlib.cli",
                           str(tmp_path / "big")], capture_output=True, text=True, env=env)
    assert done.returncode == 1
    assert "FEAST error -103" in done.stdout + done.stderr
    assert "Traceback" not in done.stderr and "Warning" not in done.stderr
