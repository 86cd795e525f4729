"""Solver parameter vector, defaults, validation, and info return codes.

The solver is controlled by a 64-slot integer vector.  Slots use 1-based
indexing in the reference notation ``fpm(i)``; the zero-indexed item access
``fpm[j]`` maps to slot ``j + 1`` (C convention).
"""

from __future__ import annotations

import numbers

import numpy as np

# Contour point counts for which quadrature rules are supported.
ALLOWED_CONTOUR_POINTS = (3, 4, 5, 6, 8, 10, 12, 16, 20, 24, 32, 40, 48)

# Caps applied when reading tolerance exponents; values above are clamped,
# never rejected (tolerances tighter than machine epsilon are meaningless).
MAX_TOL_EXP_DOUBLE = 16
MAX_TOL_EXP_SINGLE = 8

# A matrix given in full storage may differ from its (conjugate) transpose
# by this many machine epsilons of its largest entry, the rounding of a
# symmetric product; a larger difference is an argument error, not a
# problem to solve as its symmetric part.
SYMMETRY_ULPS = 4

_DEFAULTS = {1: 0, 2: 8, 3: 12, 4: 20, 5: 0, 6: 0, 7: 5, 14: 0}


def _is_integer(value):
    """Whether ``value`` is a Python or numpy integer: not a float, None, a
    string or a bool (True would read as 1)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _slot_value(value, name):
    """``value`` as an int; ValueError naming ``name`` unless _is_integer."""
    if not _is_integer(value):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    return int(value)


class FeastParams:
    """The 64-slot integer control vector.  Every value given, to the
    constructor, ``set_slot`` or item assignment, must be a Python or numpy
    integer (not a float, a string or a bool), else ValueError names it.

    Slots 24 and 25 are kernel-owned while a reverse-communication solve is
    in flight (first column and column count of a pending multiply); user
    writes to them are overwritten by the kernel.
    """

    __slots__ = ("_slots",)

    def __init__(self, values=None):
        if values is None:
            self._slots = [0] * 64
        else:
            values = list(values)
            if len(values) != 64:
                raise ValueError(f"expected 64 slots, got {len(values)}")
            self._slots = [_slot_value(v, f"fpm({i})") for i, v in enumerate(values, start=1)]

    def slot(self, i: int) -> int:
        """1-indexed access: slot(i) == fpm(i)."""
        if not 1 <= i <= 64:
            raise IndexError(f"slot index {i} out of range 1..64")
        return self._slots[i - 1]

    def set_slot(self, i: int, value: int) -> None:
        if not 1 <= i <= 64:
            raise IndexError(f"slot index {i} out of range 1..64")
        self._slots[i - 1] = _slot_value(value, f"fpm({i})")

    # C convention: fpm[i-1] == fpm(i)
    def __getitem__(self, j: int) -> int:
        return self._slots[j]

    def __setitem__(self, j: int, value: int) -> None:
        self._slots[j] = _slot_value(value, f"fpm[{j}]")

    def __len__(self) -> int:
        return 64

    def copy(self) -> "FeastParams":
        return FeastParams(self._slots)

    def __eq__(self, other) -> bool:
        return isinstance(other, FeastParams) and self._slots == other._slots

    def __repr__(self) -> str:
        shown = {i: v for i, v in enumerate(self._slots, start=1) if v != 0}
        return f"FeastParams({shown})"

    def nondefault_slots(self):
        """(slot, value) pairs differing from the feastinit defaults."""
        out = []
        for i, v in enumerate(self._slots, start=1):
            if v != _DEFAULTS.get(i, 0):
                out.append((i, v))
        return out


def feastinit() -> FeastParams:
    """Return the parameter vector initialized to its documented defaults."""
    fpm = FeastParams()
    for i, v in _DEFAULTS.items():
        fpm.set_slot(i, v)
    return fpm


def validate_params(fpm: FeastParams) -> int:
    """Check the constrained slots; return 0 or ``100 + i`` for the smallest
    violating slot index ``i``.

    Slots 3 and 7 are only bounded from below here; values above the caps
    are clamped at the point of use.  Slot 9 is accepted unconditionally and
    slots 30-63 are never interpreted.
    """
    checks = (
        (1, lambda v: v in (0, 1)),
        (2, lambda v: v in ALLOWED_CONTOUR_POINTS),
        (3, lambda v: v >= 1),
        (4, lambda v: v >= 0),
        (5, lambda v: v in (0, 1)),
        (6, lambda v: v in (0, 1)),
        (7, lambda v: v >= 1),
        (14, lambda v: v in (0, 1)),
    )
    for i, ok in checks:
        if not ok(fpm.slot(i)):
            return 100 + i
    return 0


def check_problem(n: int, m0: int, emin: float, emax: float, dtype=np.float64) -> int:
    """Validate problem size, subspace size and search interval.

    Precedence: 202 (bad N), then 201 (bad M0), then 200 (Emin >= Emax, or
    Emin, Emax or the width Emax - Emin NaN or infinite in the working
    precision ``dtype``: float32 cannot hold Emin=-1e39, which float64 can).
    The kernels pass an N or M0 that is not an integer value (a bool
    included) as 0 and an Emin or Emax that is not a real number as NaN, so
    these return 202, 201 and 200 too.
    """
    if n <= 0:
        return 202
    if m0 > n or m0 <= 0:
        return 201
    with np.errstate(over="ignore"):
        bounds = np.array([emin, emax, float(emax) - float(emin)]).astype(dtype)
    if not np.isfinite(bounds).all() or emin >= emax:
        return 200
    return 0


def info_classification(info: int) -> str:
    """Classify a return code as 'success', 'warning' or 'error'."""
    if info == 0:
        return "success"
    if info in (1, 2, 3, 4):
        return "warning"
    return "error"


def info_description(info: int) -> str:
    """Human-readable meaning of a return code."""
    fixed = {
        202: "Problem with size of the system N (N<=0)",
        201: "Problem with size of subspace M0 (M0>N or M0<=0, or not an integer)",
        200: "Problem with Emin,Emax (Emin>=Emax, not finite real numbers, "
             "or Emax-Emin not finite, in the working precision)",
        4: "Only the subspace has been returned using fpm(14)=1",
        3: "Size of the subspace M0 is too small (M0<=M)",
        2: "No Convergence (#iteration loops>fpm(4))",
        1: "No Eigenvalue found in the search interval",
        0: "Successful exit",
        -1: "Internal error for allocation memory",
        -2: "Internal error of the inner system solver",
        -3: "Internal error of the reduced eigenvalue solver "
            "(possible cause: matrix B may not be positive definite)",
    }
    if info in fixed:
        return fixed[info]
    if 100 < info < 200:
        return f"Problem with {info - 100}-th value of the input FEAST parameter (fpm({info - 100}))"
    if -200 < info < -100:
        return (f"Problem with the {-info - 100}-th argument of the FEAST interface (for a "
                "matrix: its shape, a NaN or infinite entry, entries that are not "
                "numbers, a complex matrix given to a real driver, a CSR driver's operand "
                "that is not a CsrMatrix, or in full storage, uplo='F', a matrix that is not "
                f"symmetric/Hermitian to within {SYMMETRY_ULPS} machine epsilons of its "
                "largest entry)")
    return f"Unknown return code {info}"
