"""Parsers for the utility-driver file formats.

Two formats are involved:

* coordinate matrix files (``<name>.A`` / ``<name>.B``): a header line
  ``N N NNZ`` followed by NNZ lines of ``i j value`` (real precisions) or
  ``i j re im`` (complex precisions), 1-based indices;
* the ``<name>.in`` configuration file: fixed-order single-value lines with
  ``!``-to-end-of-line comments: problem kind (s/g), precision (s/d/c/z),
  UPLO, Emin, Emax, M0, then an optional banner line and up to five solver
  parameter overrides (print flag, contour points, tolerance exponent,
  loop budget, convergence criterion kind).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._driver import UPLOS
from .params import FeastParams, feastinit
from .sparse import CsrMatrix


class ParseError(ValueError):
    """Malformed input file; carries the offending 1-based line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass
class DriverConfig:
    """Parsed ``.in`` file."""

    problem: str = "s"          # 's'tandard or 'g'eneralized
    precision: str = "d"        # s, d, c, z
    uplo: str = "F"
    emin: float = 0.0
    emax: float = 0.0
    m0: int = 0
    fpm: FeastParams = field(default_factory=feastinit)

    @property
    def is_complex(self) -> bool:
        return self.precision in ("c", "z")

    @property
    def is_single(self) -> bool:
        return self.precision in ("s", "c")


def _tokens(text):
    """Yield (line_number, token_list) with comments stripped, blanks skipped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("!", 1)[0].strip()
        if body:
            yield lineno, body.split()


def _parse_float(tok, lineno):
    # Accept Fortran-style d/D exponents.
    try:
        return float(tok.lower().replace("d", "e"))
    except ValueError:
        raise ParseError(f"expected a real number, got {tok!r}", lineno) from None


def _parse_int(tok, lineno):
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"expected an integer, got {tok!r}", lineno) from None


def parse_coordinate(text: str, dtype=np.float64, uplo="F") -> CsrMatrix:
    """Parse a coordinate-format matrix file into a CsrMatrix of ``dtype``
    holding the ``uplo`` triangle ('F' for the full matrix).

    Entries are ``i j re im`` for a complex ``dtype``.  Duplicates are
    summed after the cast to ``dtype``; an entry outside the ``uplo``
    triangle is a ParseError, and so is a header NNZ larger than the
    file's count of entry lines, found before NNZ entries are allocated.
    """
    complex_values = np.dtype(dtype).kind == "c"
    lines = _tokens(text)
    try:
        lineno, header = next(lines)
    except StopIteration:
        raise ParseError("empty coordinate file") from None
    if len(header) != 3:
        raise ParseError(f"header must be 'N N NNZ', got {' '.join(header)!r}", lineno)
    n1 = _parse_int(header[0], lineno)
    n2 = _parse_int(header[1], lineno)
    nnz = _parse_int(header[2], lineno)
    if n1 != n2:
        raise ParseError(f"matrix must be square: {n1} != {n2}", lineno)
    if n1 <= 0 or nnz < 0:
        raise ParseError(f"invalid sizes N={n1} NNZ={nnz}", lineno)
    found = sum(1 for _ in _tokens(text)) - 1
    if nnz > found:
        raise ParseError(f"file truncated: expected NNZ={nnz} entries, found {found}")
    n = n1
    want = 4 if complex_values else 3
    rows = np.empty(nnz, dtype=np.int64)
    cols = np.empty(nnz, dtype=np.int64)
    values = np.empty(nnz, dtype=np.complex128 if complex_values else np.float64)
    count = 0
    for lineno, toks in lines:
        if count >= nnz:
            raise ParseError(f"more than NNZ={nnz} entries", lineno)
        if len(toks) != want:
            raise ParseError(
                f"expected {want} fields (i j {'re im' if complex_values else 'value'}), "
                f"got {len(toks)}", lineno)
        i = _parse_int(toks[0], lineno)
        j = _parse_int(toks[1], lineno)
        if not (1 <= i <= n and 1 <= j <= n):
            raise ParseError(f"index ({i},{j}) outside 1..{n}", lineno)
        rows[count] = i
        cols[count] = j
        if complex_values:
            values[count] = complex(_parse_float(toks[2], lineno),
                                    _parse_float(toks[3], lineno))
        else:
            values[count] = _parse_float(toks[2], lineno)
        count += 1
    try:
        # A value, or a sum of duplicates, beyond the range of ``dtype`` is
        # infinite, which the drivers report as a non-finite entry (-103
        # for A, -106 for B), without numpy's overflow warning.
        with np.errstate(over="ignore"):
            return CsrMatrix.from_coo(n, rows, cols, values.astype(dtype), uplo)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


_PROBLEMS = ("s", "g")
_PRECISIONS = ("s", "d", "c", "z")


def parse_config(text: str) -> DriverConfig:
    """Parse a ``.in`` driver configuration.

    Lines are fixed-order; a value is the token before any '!' comment;
    lines consisting only of a comment (like the parameter banner) are
    skipped.  Trailing override lines may be omitted, keeping defaults.
    """
    cfg = DriverConfig()
    entries = list(_tokens(text))
    if len(entries) < 6:
        raise ParseError(f"configuration needs at least 6 value lines, found {len(entries)}")

    def bad(msg, lineno):
        raise ParseError(msg, lineno)

    lineno, toks = entries[0]
    cfg.problem = toks[0].lower()
    if cfg.problem not in _PROBLEMS:
        bad(f"problem kind must be one of {_PROBLEMS}, got {toks[0]!r}", lineno)
    lineno, toks = entries[1]
    cfg.precision = toks[0].lower()
    if cfg.precision not in _PRECISIONS:
        bad(f"precision must be one of {_PRECISIONS}, got {toks[0]!r}", lineno)
    lineno, toks = entries[2]
    cfg.uplo = toks[0].upper()
    if cfg.uplo not in UPLOS:
        bad(f"UPLO must be one of {UPLOS}, got {toks[0]!r}", lineno)
    lineno, toks = entries[3]
    cfg.emin = _parse_float(toks[0], lineno)
    lineno, toks = entries[4]
    cfg.emax = _parse_float(toks[0], lineno)
    lineno, toks = entries[5]
    cfg.m0 = _parse_int(toks[0], lineno)

    # Optional overrides, fixed order: print flag, contour points, tolerance
    # exponent (slot 3 for d/z, slot 7 for s/c), loop budget, criterion kind.
    overrides = entries[6:]
    tol_slot = 7 if cfg.is_single else 3
    slots = (1, 2, tol_slot, 4, 6)
    if len(overrides) > len(slots):
        lineno, _ = overrides[len(slots)]
        bad(f"too many parameter override lines (at most {len(slots)})", lineno)
    for (lineno, toks), slot in zip(overrides, slots):
        cfg.fpm.set_slot(slot, _parse_int(toks[0], lineno))
    return cfg
