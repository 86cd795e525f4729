"""Driver skeleton shared by the dense, banded and CSR drivers.

A predefined driver is ``setup`` (kernel, argument checks, full-storage
operands), a backend ops object (an ``_Ops`` subclass: factorize / solve /
solve_adjoint / multiply_a / multiply_b) and ``run_rci``, which pumps the
reverse-communication kernel to completion against it, caching each
shift's factorization.  The ops object factorizes the contour shifts on
their first request, on a pool of ``parallel_contour`` threads when that is
more than one; because every factor, every solve and the accumulation
order are unchanged, results are bit-identical whatever the worker count.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .kernel import DEFAULT_SEED, HermitianRci, RciTask, SymmetricRci
from .params import SYMMETRY_ULPS

UPLOS = ("F", "L", "U")


class SingularMatrixError(Exception):
    """Exactly singular pivot or inner-solver breakdown (maps to info -2)."""


@dataclass
class SolverOptions:
    """Driver-level knobs shared by all backends.

    seed: deterministic start-vector stream.
    parallel_contour: threads (at least 1) that factorize the contour
        shifts' batches concurrently (see ``_Ops``; the README gives
        measured times).  Workers and BLAS threads share the cores, so use
        one BLAS thread with more than one worker.
    solver: 'direct' or 'iterative' (sparse backend only).
    iter_tol: relative residual target (> 0) of the iterative inner solver.
    Other values raise ValueError.
    """

    seed: int = DEFAULT_SEED
    parallel_contour: int = 1
    solver: str = "direct"
    iter_tol: float = 1.0e-3

    def __post_init__(self):
        if self.solver not in ("direct", "iterative"):
            raise ValueError(f"solver must be 'direct' or 'iterative', not {self.solver!r}")
        if not (np.isfinite(self.iter_tol) and self.iter_tol > 0):
            raise ValueError(f"iter_tol must be finite and positive, not {self.iter_tol!r}")
        if self.parallel_contour < 1:
            raise ValueError(f"parallel_contour must be at least 1, not {self.parallel_contour!r}")


def setup(family, hermitian, dtypes, n, emin, emax, m0, fpm, options, x0, *,
          checks, operands, finite, asymmetry):
    """Kernel of one driver call, its options, and its operands A and B.

    ``dtypes`` holds the element types of the A and B given (None for no B).
    The kernel is named ``{S,D,C,Z}FEAST_<family>{EV,GV}``, single precision
    for a float32/complex64 A.  ``checks`` holds the driver's (info code,
    failing condition callable) pairs in order; the first that fails aborts
    the kernel.  Once these and the kernel's own checks pass, a complex
    operand of a real symmetric driver aborts with its code in ``finite``;
    then ``operands(scalar type)`` gives the full-storage (A, B), B None for
    a standard problem, and a NaN or infinite entry aborts with the code in
    ``finite``.  So does an operand given in full storage (uplo='F') that is
    not symmetric (Hermitian for a Hermitian driver): ``asymmetry(i, op)``
    gives the largest |M[j, k] - M[k, j]| (M[k, j] conjugated for a
    Hermitian driver) of operand i, 0 for one given as a triangle, and it
    may not exceed SYMMETRY_ULPS machine epsilons of the kernel's precision
    times max |M|.  With fpm(5)=1, an ``x0`` that is not an N x (>= M0) array
    of the kernel's kind (real or complex), finite in its first M0 columns,
    aborts with 105.  The operands are (None, None) when the kernel is done.
    """
    options = options or SolverOptions()
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
    if not hermitian:
        # Casting would drop the imaginary part, and solve another problem.
        for code, dtype in zip(finite, dtypes):
            if dtype is not None and np.issubdtype(dtype, np.complexfloating):
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
        if x0 is None:
            raise ValueError("fpm(5)=1 requires an initial subspace x0")
        x0 = np.asarray(x0)
        if (x0.ndim != 2 or x0.shape[0] != n or x0.shape[1] < m0
                or not np.can_cast(x0.dtype, kernel.x.dtype, "same_kind")
                or not np.isfinite(x0[:, :m0]).all()):
            kernel.abort(105)
            return kernel, options, (None, None)
        kernel.x[:, :] = x0[:, :m0]
    return kernel, options, full


class _Ops:
    """Backend protocol of ``run_rci``.  A backend keeps the full-storage
    operands as ``a`` and ``b`` (None: B is the identity) and adds
    ``_factor(shifts)``, one batch of factors of z*B - A for a list of
    contour shifts, ``_solve((batch, i), rhs, adjoint)`` and
    ``_multiply(matrix, x)``.

    The first ``factorize`` factorizes all ``shifts`` under a lock
    (concurrent callers wait for it), ``_batch_size()`` shifts per
    ``_factor`` call: in the calling thread with one worker, on a pool of
    ``workers`` threads otherwise.  It returns the shift's (batch, i).
    """

    def __init__(self, a, b, cdtype=None, shifts=(), workers=1):
        self.a = a
        self.b = b
        self.cdtype = cdtype
        self.workers = workers
        self._shifts = [complex(z) for z in shifts]
        self._batches = None
        self._lock = threading.Lock()

    def _batch_size(self):
        return len(self._shifts)

    def factorize(self, z):
        g = self._batch_size()
        with self._lock:
            if self._batches is None:
                groups = [self._shifts[i:i + g] for i in range(0, len(self._shifts), g)]
                if self.workers > 1:
                    with ThreadPoolExecutor(max_workers=self.workers) as pool:
                        self._batches = list(pool.map(self._factor, groups))
                else:
                    self._batches = [self._factor(group) for group in groups]
        i = self._shifts.index(z)
        return self._batches[i // g], i % g

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
