"""Driver skeleton shared by the dense, banded and CSR drivers.

A predefined driver is ``setup`` (kernel, argument checks, full-storage
operands), a backend ops object (an ``_Ops`` subclass: factorize / solve /
solve_adjoint / multiply_a / multiply_b) and ``run_rci``, which pumps the
reverse-communication kernel to completion against it, caching each
shift's factorization.  A batch of factors is a ``_BlockFactor`` (the
multifrontal LU of the CSR and band drivers) or a ``dense._DenseFactor``.
The ops object factorizes the contour shifts on their first request, in
the calling thread, whatever ``SolverOptions.parallel_contour`` says (it
has no effect; see there): an ops object serves one ``run_rci`` in one
thread, as a kernel does.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .kernel import DEFAULT_SEED, HermitianRci, RciTask, SymmetricRci
from .params import SYMMETRY_ULPS, _is_integer

UPLOS = ("F", "L", "U")


def upper_uplo(uplo):
    """``uplo`` in upper case, 'F' for None or ''; None, which is not in
    UPLOS, for anything that is not a string."""
    if uplo is None or isinstance(uplo, str):
        return (uplo or "F").upper()
    return None


def as_operand(m):
    """``np.asarray(m)``; a ragged nested sequence, which numpy cannot make
    an array of, gives an empty 1-D array, which fails every shape check."""
    try:
        return np.asarray(m)
    except ValueError:
        return np.empty(0)


class SingularMatrixError(Exception):
    """Exactly singular pivot or inner-solver breakdown (maps to info -2)."""


@dataclass
class SolverOptions:
    """Driver-level knobs shared by all backends.

    seed: integer (not a bool) of the deterministic start-vector stream.
    parallel_contour: an integer (not a bool) of at least 1, with no
        effect: every backend factorizes all shifts as one batch in the
        calling thread.  Contour workers lost on every backend they were
        tried on (a batch's shifts share one factorization and sweep, and
        the numpy loops hold the GIL; 2 cores, one BLAS thread: dense
        0.24 s with one worker against 0.27 s with two).
    solver: 'direct' or 'iterative' (CSR drivers only; the band drivers
        always use the direct solver).
    iter_tol: relative residual target (a finite real > 0, not a bool) of
        the iterative inner solver.
    Other values raise ValueError naming the field.
    """

    seed: int = DEFAULT_SEED
    parallel_contour: int = 1
    solver: str = "direct"
    iter_tol: float = 1.0e-3

    def __post_init__(self):
        if self.solver not in ("direct", "iterative"):
            raise ValueError(f"solver must be 'direct' or 'iterative', not {self.solver!r}")
        if not (isinstance(self.iter_tol, numbers.Real) and not isinstance(self.iter_tol, bool)
                and np.isfinite(self.iter_tol) and self.iter_tol > 0):
            raise ValueError(f"iter_tol must be a finite positive real, not {self.iter_tol!r}")
        if not _is_integer(self.seed):
            raise ValueError(f"seed must be an integer, not {self.seed!r}")
        if not (_is_integer(self.parallel_contour) and self.parallel_contour >= 1):
            raise ValueError(
                f"parallel_contour must be an integer of at least 1, not {self.parallel_contour!r}")


def setup(family, hermitian, dtypes, n, emin, emax, m0, fpm, options, x0, *,
          checks, operands, finite, asymmetry):
    """Kernel of one driver call, its options, and its operands A and B.

    ``dtypes`` holds the element types of the A and B given (None for no B).
    The kernel is named ``{S,D,C,Z}FEAST_<family>{EV,GV}``, single precision
    for a float32/complex64 A.  ``checks`` holds the driver's (info code,
    failing condition callable) pairs in order; the first that fails aborts
    the kernel.  Once these and the kernel's own checks pass, an operand
    whose entries are not numbers, or a complex operand of a real symmetric
    driver, aborts with its code in ``finite``;
    then ``operands(scalar type)`` gives the full-storage (A, B), B None for
    a standard problem, and a NaN or infinite entry aborts with the code in
    ``finite``.  So does an operand given in full storage (uplo='F') that is
    not symmetric (Hermitian for a Hermitian driver): ``asymmetry(i, op)``
    gives the largest |M[j, k] - M[k, j]| (M[k, j] conjugated for a
    Hermitian driver) of operand i, 0 for one given as a triangle, and it
    may not exceed SYMMETRY_ULPS machine epsilons of the kernel's precision
    times max |M|.  With fpm(5)=1, an ``x0`` that is None or not an
    N x (>= M0) array of the kernel's kind (real or complex) whose first M0
    columns are finite and of numerical rank M0 (``_unit_scaled``, then
    ``np.linalg.matrix_rank``), aborts with 105; the scaled block is the
    start block.  The operands are (None, None) when the kernel is done.
    """
    if options is None:
        options = SolverOptions()
    elif not isinstance(options, SolverOptions):
        raise ValueError(f"options must be a SolverOptions or None, not {options!r}")
    single = np.dtype(dtypes[0]) in (np.dtype(np.float32), np.dtype(np.complex64))
    precision = ("C" if single else "Z") if hermitian else ("S" if single else "D")
    kernel = (HermitianRci if hermitian else SymmetricRci)(
        n, m0, emin, emax, fpm, seed=options.seed,
        dtype=np.float32 if single else np.float64,
        routine_name=f"{precision}FEAST_{family}{'GV' if dtypes[1] is not None else 'EV'}")
    for code, failed in checks:
        if failed():
            kernel.abort(code)
            return kernel, options, (None, None)
    if kernel.done:
        return kernel, options, (None, None)
    for code, dtype in zip(finite, dtypes):
        # A non-numeric operand (strings, objects) has no values to cast; a
        # complex one cast for a real driver would lose its imaginary part,
        # and solve another problem.
        kind = None if dtype is None else np.dtype(dtype).kind
        if kind is not None and (kind not in "biufc" or kind == "c" and not hermitian):
            kernel.abort(code)
            return kernel, options, (None, None)
    full = operands(kernel.x.dtype)
    for i, (code, op) in enumerate(zip(finite, full)):
        if op is None:
            continue
        # A CsrMatrix operand is checked by its stored values.
        values = getattr(op, "values", op)
        if not np.isfinite(values).all():
            kernel.abort(code)
            return kernel, options, (None, None)
        skew = asymmetry(i, op)
        if skew and skew > SYMMETRY_ULPS * np.finfo(kernel.x.dtype).eps * np.abs(values).max():
            kernel.abort(code)
            return kernel, options, (None, None)
    if kernel.fpm.slot(5) == 1:
        x0, m0 = np.asarray(x0), kernel.m0
        start = None
        if (x0.ndim == 2 and x0.shape[0] == n and x0.shape[1] >= m0
                and np.can_cast(x0.dtype, kernel.x.dtype, "same_kind")
                and np.isfinite(x0[:, :m0]).all()):
            start = _unit_scaled(x0[:, :m0], kernel.x.dtype)
        # A rank-deficient block would end the Cholesky shrink at its first
        # dependent column, and the solve would miss eigenvalues.
        if start is None or np.linalg.matrix_rank(start) < m0:
            kernel.abort(105)
            return kernel, options, (None, None)
        kernel.x[:, :] = start
    return kernel, options, full


def _unit_scaled(block, dtype):
    """The finite ``block`` in precision ``dtype``, scaled by the power of
    two that brings its largest real or imaginary part into [0.5, 1).  The
    scaling is exact (bar entries that underflow), the subspace it spans is
    the same, and neither the cast nor the kernel's products on it
    overflow."""
    block = np.array(block, dtype=np.complex128 if np.iscomplexobj(block) else np.float64)
    parts = block.view(np.float64)
    np.ldexp(parts, -np.frexp(np.abs(parts).max())[1], out=parts)
    return block.astype(dtype)


class _BlockFactor:
    """Block LU of a batch of ``ne`` shifted n x n matrices, the form of the
    multifrontal LU (``sparse._SparseFactor``).  A subclass sets ``n``,
    ``ne``, ``dtype`` and, for each shift's matrix F in its factor's row
    order, the blocks:
    block j holds the columns ``columns[j]`` (a slice) and reaches the later
    rows ``rows[j]`` (a slice or an index array), and ``blocks[j]`` is
    (inv, li, ui) = (F11⁻¹, F21 inv, inv F12), stacks of shape (ne, ·, ·),
    for its pivot block F11 once the blocks before it are eliminated.
    ``orders[adjoint]`` is (into, out), (n, ne) index arrays: the rows of
    a right-hand side gathered into F's order, and the rows of a sweep's
    output that give the solution.
    """

    def sweep(self, b: np.ndarray, adjoint: bool = False,
              shifts: slice = slice(None)) -> np.ndarray:
        """Solve the system of every shift in the slice ``shifts`` (all by
        default), or with ``adjoint`` its conjugate transpose, for the
        (n, m) block ``b``.

        Returns y of shape (n, len(shifts), m), in F's row order, for
        ``pick``; the sweep of a slice is bitwise that slice of the sweep of
        all.  Forward, li y[cols] is taken from y[rows]; back, y[cols] =
        inv y[cols] - ui y[rows]; each product runs on the (shifts, ·, m)
        ``swapaxes(0, 1)`` view, so y[rows] moves whole rows of every shift.
        The adjoint is conj(F^T \\ conj(b)): the same over (invᵀ, uiᵀ, liᵀ),
        transposed views.
        """
        blocks = [tuple(m[shifts] for m in block) for block in self.blocks]
        into = self.orders[adjoint][0][:, shifts]
        dtype = np.result_type(self.dtype, b.dtype)
        y = np.empty(into.shape + b.shape[1:], dtype=dtype)
        # A gather straight into y: no temporary of y's size.
        np.take(b.astype(dtype, copy=False), into, axis=0, out=y, mode="clip")
        if adjoint:
            np.conjugate(y, out=y)
            blocks = [(inv.swapaxes(1, 2), ui.swapaxes(1, 2), li.swapaxes(1, 2))
                      for inv, li, ui in blocks]
        for cols, rows, (_, li, _) in zip(self.columns, self.rows, blocks):
            if li.shape[1]:
                y[rows] -= (li @ y[cols].swapaxes(0, 1)).swapaxes(0, 1)
        for cols, rows, (inv, _, ui) in zip(self.columns[::-1], self.rows[::-1], blocks[::-1]):
            c = inv @ y[cols].swapaxes(0, 1)
            y[cols] = (c - ui @ y[rows].swapaxes(0, 1) if ui.shape[2] else c).swapaxes(0, 1)
        return np.conjugate(y, out=y) if adjoint else y

    def pick(self, y: np.ndarray, shift: int, adjoint: bool = False,
             first: int = 0) -> np.ndarray:
        """Shift ``shift``'s (n, m) solution, in the original row order,
        from the output of ``sweep`` in that direction over the slice of
        shifts that begins at ``first``."""
        return y[self.orders[adjoint][1][:, shift], shift - first]

    def solve(self, b: np.ndarray, adjoint: bool = False) -> np.ndarray:
        """Solve with a one-shift factor; ``b`` is (n,) or (n, m)."""
        if self.ne != 1:
            raise ValueError("solve needs a one-shift factor; use sweep and pick")
        single = b.ndim == 1
        out = self.pick(self.sweep(b[:, np.newaxis] if single else b, adjoint), 0, adjoint)
        return out[:, 0] if single else out


class _Ops:
    """Backend protocol of ``run_rci``.  A backend keeps the full-storage
    operands as ``a`` and ``b`` (None: B is the identity) and adds
    ``_factor(shifts)``, one batch of factors of z*B - A for a list of
    contour shifts, and ``_multiply(matrix, x)``.  ``hermitian`` marks the
    ops of a Hermitian driver, whose kernel asks for an adjoint solve after
    each direct one.

    The first ``factorize`` factorizes all ``shifts`` in one ``_factor``
    call, in the calling thread; it returns the shift's (batch, i).  One ops
    object serves one ``run_rci`` in one thread and is not shared between
    threads.

    A direct batch (a ``_BlockFactor`` or a ``dense._DenseFactor``, each
    with ``ne``, ``sweep`` and ``pick``) is swept in groups of g
    consecutive shifts: all ne of them for a real symmetric driver, which
    asks for no adjoint solves, and ceil(ne/2) for a Hermitian one.  Each
    direction holds the sweep of its last group and right-hand side.  A
    request of a shift in that group with an equal right-hand side is
    served from it; any other runs the sweep of the shift's group.  A held
    sweep is dropped once it has served as many requests as its group has
    shifts.  So a Hermitian contour pass runs two sweeps each way, and the
    two held sweeps hold at most ne + 1 shift-slices together (holding an
    all-shift sweep each way raised band-herm-gen's peak RSS from 59.3 to
    63.0 MB).
    Iterative batches override ``_solve`` and solve a shift at a time (a
    block BiCGStab ran every column until the slowest converged: 30 s, not
    22 s).
    """

    def __init__(self, a, b, shifts, hermitian):
        self.a = a
        self.b = b
        self._shifts = [complex(z) for z in shifts]
        self.hermitian = hermitian
        self._batch = None
        # Per direction: [right-hand side, group's first shift, its sweep,
        # requests served], or None.
        self._held = {False: None, True: None}

    def factorize(self, z):
        if self._batch is None:
            self._batch = self._factor(self._shifts)
        return self._batch, self._shifts.index(z)

    def _solve(self, factor, rhs, adjoint):
        batch, shift = factor
        group = -(-batch.ne // 2) if self.hermitian else batch.ne
        first = shift - shift % group
        held, other = self._held[adjoint], self._held[not adjoint]
        if held is None or held[1] != first or not np.array_equal(held[0], rhs):
            # Drop the old buffer before the sweep allocates the new one.
            held = self._held[adjoint] = None
            # The two directions share one copy of an equal right-hand side.
            same = other is not None and np.array_equal(other[0], rhs)
            y = batch.sweep(rhs, adjoint, slice(first, first + group))
            held = self._held[adjoint] = [other[0] if same else rhs.copy(), first, y, 0]
        held[3] += 1
        if held[3] == held[2].shape[1]:
            self._held[adjoint] = None
        return batch.pick(held[2], shift, adjoint, first)

    def solve(self, factor, rhs):
        return self._solve(factor, rhs, False)

    def solve_adjoint(self, factor, rhs):
        return self._solve(factor, rhs, True)

    def multiply_a(self, x):
        return self._multiply(self.a, x)

    def multiply_b(self, x):
        if self.b is None:
            return x.copy()
        return self._multiply(self.b, x)


def run_rci(kernel, ops):
    """Drive a kernel to completion against a backend ops object.  Adjoint
    solves use the direct factor, so FACTORIZE_ADJOINT needs no action."""
    factors = {}
    current = None
    try:
        task = kernel.step()
        while task != RciTask.DONE:
            if task == RciTask.FACTORIZE:
                z = complex(kernel.ze)
                if z not in factors:
                    factors[z] = ops.factorize(z)
                current = factors[z]
            elif task == RciTask.SOLVE:
                m0 = kernel.m0
                kernel.work2[:, :m0] = ops.solve(current, kernel.work2[:, :m0])
            elif task == RciTask.SOLVE_ADJOINT:
                m0 = kernel.m0
                kernel.work2[:, :m0] = ops.solve_adjoint(current, kernel.work2[:, :m0])
            elif task == RciTask.MULTIPLY_A:
                s = kernel.multiply_columns
                kernel.work1[:, s] = ops.multiply_a(kernel.x[:, s])
            elif task == RciTask.MULTIPLY_B:
                s = kernel.multiply_columns
                kernel.work1[:, s] = ops.multiply_b(kernel.x[:, s])
            task = kernel.step()
    except (SingularMatrixError, ArithmeticError):
        kernel.abort(-2)
    except MemoryError:
        kernel.abort(-1)
    return kernel.result
