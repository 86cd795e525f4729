"""Reverse-communication eigensolver engine.

The kernel owns the iteration state machine for the symmetric and Hermitian
variants: it hands back task codes (factorize / solve / multiply) and the
caller supplies the linear algebra, which keeps the engine independent of
matrix storage.  The caller writes ``work1`` only on MULTIPLY tasks and
``work2`` only on SOLVE tasks: between them ``work1`` holds the start block
that each solve copies into ``work2``, and after a contour pass ``work2``
holds A x while ``work1`` takes B x for the projection.  Typical caller loop::

    rci = SymmetricRci(n, m0, emin, emax, fpm)
    task = rci.step()
    while task != RciTask.DONE:
        if task == RciTask.FACTORIZE:
            factor = my_factorize(rci.ze)             # of (ze*B - A)
        elif task == RciTask.SOLVE:
            rci.work2[:, :rci.m0] = my_solve(factor, rci.work2[:, :rci.m0])
        elif task == RciTask.MULTIPLY_A:
            s = rci.multiply_columns
            rci.work1[:, s] = a_matrix @ rci.x[:, s]
        elif task == RciTask.MULTIPLY_B:
            s = rci.multiply_columns
            rci.work1[:, s] = b_matrix @ rci.x[:, s]  # or a copy if B == I
        task = rci.step()
    result = rci.result
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .params import (
    MAX_TOL_EXP_DOUBLE,
    MAX_TOL_EXP_SINGLE,
    FeastParams,
    _is_integer,
    check_problem,
    feastinit,
    info_classification,
    validate_params,
)
from .quadrature import build_contour, gauss_legendre
from .reduced import ReducedSolverError, generalized_eig, spd_factor

DEFAULT_SEED = 42

# --- deterministic random stream (SplitMix64, counter-based) ---------------
# The random start block draws from it.

_SM_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_SM_MIX2 = np.uint64(0x94D049BB133111EB)


def random_uniform(seed: int, offset: int, count: int) -> np.ndarray:
    """Deterministic uniform samples in [-1, 1).

    Counter-based SplitMix64: sample i depends only on (seed, offset + i),
    so identical arguments always reproduce identical samples regardless of
    platform or thread count.
    """
    idx = np.arange(offset + 1, offset + count + 1, dtype=np.uint64)
    z = np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + idx * _SM_GAMMA
    z = (z ^ (z >> np.uint64(30))) * _SM_MIX1
    z = (z ^ (z >> np.uint64(27))) * _SM_MIX2
    z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) * 2.0 ** -52 - 1.0


class RciTask(enum.IntEnum):
    """Task codes handed to the caller between kernel steps."""

    INIT = -1
    DONE = 0
    FACTORIZE = 10            # factorize (ze*B - A)
    SOLVE = 11                # solve (ze*B - A) y = work2, result in work2
    FACTORIZE_ADJOINT = 20    # factorize (ze*B - A)^H (Hermitian kernel only)
    SOLVE_ADJOINT = 21        # solve (ze*B - A)^H y = work2, result in work2
    MULTIPLY_A = 30           # work1[:, cols] = A @ x[:, cols]
    MULTIPLY_B = 40           # work1[:, cols] = B @ x[:, cols]


@dataclass
class EigenResult:
    """Final output of a solve.

    The first ``m`` entries of ``e`` are the eigenvalues inside the search
    interval, ascending, with eigenvectors in the matching columns of ``x``
    and residuals in ``res``.  Entries ``m+1 .. m0`` hold out-of-interval
    Ritz pairs followed by any spurious pairs (flagged with ``res == -1``).
    """

    e: np.ndarray
    x: np.ndarray
    m: int
    res: np.ndarray
    epsout: float
    loop: int
    info: int
    m0: int

    @property
    def classification(self) -> str:
        return info_classification(self.info)


# --- small pure helpers used by the engine ---------------------------------


def accumulate_subspace(q, work2, weight, radius, theta, hermitian=False) -> None:
    """Add one quadrature point's contribution to the accumulated subspace.

    symmetric:  q -= (w/2) * Re{ r * exp(i theta) * work2 }
    hermitian:  q -= (w/4) * r * exp(i theta) * work2, called with +theta
                for the direct solve and -theta for the adjoint solve.
    """
    if q.shape != work2.shape:
        raise ValueError(f"shape mismatch: {q.shape} vs {work2.shape}")
    if hermitian:
        q -= (weight / 4.0) * radius * np.exp(1j * theta) * work2
    else:
        q -= (weight / 2.0) * (radius * np.exp(1j * theta) * work2).real


def trace_error(trace_cur: float, trace_prev: float, emin: float, emax: float) -> float:
    """Relative trace change |t_k - t_{k-1}| / max(|emin|, |emax|)."""
    return abs(trace_cur - trace_prev) / max(abs(emin), abs(emax))


def residual(ax, bx, lam, scale):
    """Relative residuals ||A x - lam B x||_1 / ||scale * B x||_1 per column.

    ``ax`` and ``bx`` hold A x and B x (x itself for B = I) for the columns
    x, ``lam`` their eigenvalues, ``scale`` is max(|emin|, |emax|).  A zero
    denominator yields +inf, which marks the pair as spurious.
    """
    num = np.abs(ax - lam[np.newaxis, :] * bx).sum(axis=0)
    den = np.abs(scale * bx).sum(axis=0)
    out = np.full(lam.shape, np.inf)
    good = den > 0.0
    out[good] = num[good] / den[good]
    return out


def filter_sort_flag(evalues, x, res, emin, emax, tol) -> int:
    """Flag spurious pairs and reorder eigenpairs in place: in-interval
    pairs first (ascending by eigenvalue), then out-of-interval pairs in
    their existing order, then spurious pairs (res set to -1) last.  Returns
    the in-interval count m.  A pair is spurious if its res is negative or
    not finite, or if it lies in the interval with a res above 1e4 * tol
    and 100 times the median of the finite, non-negative in-interval res.
    """
    m0 = evalues.shape[0]
    spurious = (res < 0) | ~np.isfinite(res)
    inside = (evalues >= emin) & (evalues <= emax)
    if (inside & ~spurious).any():
        median = float(np.median(res[inside & ~spurious]))
        spurious |= inside & (res > max(100.0 * median, tol * 1.0e4))
    idx_in = np.nonzero(inside & ~spurious)[0]
    idx_in = idx_in[np.argsort(evalues[idx_in], kind="stable")]
    order = np.concatenate([idx_in, np.nonzero(~inside & ~spurious)[0], np.nonzero(spurious)[0]])
    evalues[:] = evalues[order]
    x[:, :m0] = x[:, order]
    res[:] = res[order]
    res[m0 - int(spurious.sum()):] = -1.0
    return len(idx_in)


# --- the engine -------------------------------------------------------------

# The closing message of the fpm(1)=1 report for each non-error exit.
_CLOSING = {
    0: "==>FEAST has successfully converged (to desired tolerance)",
    1: "==>WARNING: no eigenvalue has been found in the search interval",
    2: "==>WARNING: no convergence within the refinement loop budget",
    3: "==>WARNING: subspace size M0 is too small (M0<=M)",
    4: "==>Subspace returned after one contour (fpm(14)=1)",
}


def _real(value) -> float:
    """float(value) for a real number (a Python or numpy integer or float,
    or a 0-d array of one); NaN, which check_problem rejects with 200, for
    anything else, such as None, a string or a complex number."""
    if isinstance(value, (str, bytes)) or np.iscomplexobj(value):
        return float("nan")
    try:
        return float(value)
    except (TypeError, ValueError):
        return float("nan")


def _integer(value) -> int:
    """int(value) for an integer-valued real number; 0, which check_problem
    rejects (202 for N, 201 for M0), for anything else, such as 20.5, None,
    a string or a bool (True would read as 1)."""
    if isinstance(value, (bool, np.bool_)):
        return 0
    if isinstance(value, numbers.Integral):
        return int(value)
    real = _real(value)
    return int(real) if real.is_integer() else 0


def _params(fpm) -> FeastParams:
    """``fpm`` as the kernel's FeastParams: itself, feastinit() for None, or
    FeastParams(fpm) for a sequence or 1-D array of 64 integers; ValueError
    naming fpm for anything else."""
    if fpm is None:
        return feastinit()
    if isinstance(fpm, FeastParams):
        return fpm
    try:
        slots = np.asarray(fpm)
    except ValueError:  # ragged
        slots = np.empty(0)
    if slots.shape != (64,) or slots.dtype.kind not in "iu":
        raise ValueError("fpm must be a FeastParams or a sequence of 64 integers")
    return FeastParams(slots)


class _RciKernel:
    """Shared machinery of the symmetric/Hermitian reverse-communication
    engines.  One instance drives one solve; instances are independent and
    may be moved between threads but not shared.  ``contour`` holds the
    solve's quadrature contour, None when the input checks failed.

    During a contour pass ``x`` holds the partial filtered sum, and after
    it the Ritz vectors.  On an error code ``x`` and ``e`` have no meaning;
    a rejected N, M0 or fpm, or a failed allocation (info -1), leaves
    every array with zero columns (and rows, for an N past numpy's limit).
    N and M0 are read alike (``_integer``).  ``seed`` must be an integer and
    ``block_size``, the column count of each MULTIPLY task (all M0 columns
    for None), None or an integer of at least 1, neither a bool, else
    ValueError names it."""

    hermitian = False

    def __init__(self, n, m0, emin, emax, fpm=None, *, seed=DEFAULT_SEED,
                 block_size=None, dtype=None, routine_name=None):
        if not _is_integer(seed):
            raise ValueError(f"seed must be an integer, not {seed!r}")
        if not (block_size is None or _is_integer(block_size) and block_size >= 1):
            raise ValueError(f"block_size must be None or an integer of at least 1, "
                             f"not {block_size!r}")
        self.n = _integer(n)
        self.m0 = _integer(m0)
        self.emin = _real(emin)
        self.emax = _real(emax)
        self.fpm = _params(fpm)
        self.seed = int(seed)
        self.block_size = block_size
        self.ze = 0j
        self.task = RciTask.INIT
        self.epsout = 1.0
        self.loop = 0
        self.m = 0
        self._done = False
        self._gen = None
        self.contour = None

        # ``dtype`` only selects the precision: float32 or complex64 means
        # single, anything else (and None) double.
        self._single = dtype is not None and np.dtype(dtype) in (
            np.dtype(np.float32), np.dtype(np.complex64))
        self._rdtype = np.dtype(np.float32 if self._single else np.float64)
        self._cdtype = np.dtype(np.complex64 if self._single else np.complex128)
        self.routine_name = routine_name or self._default_routine_name()

        self.info = (check_problem(self.n, self.m0, self.emin, self.emax, self._rdtype)
                     or validate_params(self.fpm))
        if self.info == 0:
            try:
                self._allocate(self.n, self.m0)
            except (MemoryError, ValueError):  # ValueError: too large to address
                self.info = -1
        if self.info != 0:
            self._done = True
            self._allocate(self.n if self.n <= np.iinfo(np.intp).max else 0, 0)
            return
        self.contour = build_contour(gauss_legendre(self.fpm.slot(2)), self.emin, self.emax)
        self._gen = self._run()

    def _allocate(self, n, m0):
        """The n x m0 blocks and the m0 eigenvalues and residuals."""
        work_dtype = self._cdtype if self.hermitian else self._rdtype
        shape = (max(n, 0), m0)
        self.work1 = np.zeros(shape, dtype=work_dtype)
        self.work2 = np.zeros(shape, dtype=self._cdtype)
        self.x = np.zeros(shape, dtype=work_dtype)
        self.e = np.zeros(m0, dtype=self._rdtype)
        self.res = np.zeros(m0, dtype=self._rdtype)

    def _default_routine_name(self):
        if self.hermitian:
            return "CFEAST_HRCI" if self._single else "ZFEAST_HRCI"
        return "SFEAST_SRCI" if self._single else "DFEAST_SRCI"

    # -- caller-facing surface ----------------------------------------------

    def step(self) -> RciTask:
        """Advance the state machine; returns the next task for the caller."""
        if self._done:
            self.task = RciTask.DONE
            return self.task
        try:
            self.task = next(self._gen)
        except StopIteration:
            self._done = True
            self.task = RciTask.DONE
            if self.fpm.slot(1) == 1:
                self._print_closing()
        return self.task

    @property
    def multiply_columns(self) -> slice:
        """Zero-based column slice described by fpm slots 24/25."""
        first = self.fpm.slot(24) - 1
        return slice(first, first + self.fpm.slot(25))

    @property
    def done(self) -> bool:
        return self._done

    def abort(self, info: int) -> None:
        """Terminate the solve from the caller side (inner-solver failure)."""
        self.info = int(info)
        self._done = True
        self._gen = None
        self.task = RciTask.DONE

    @property
    def result(self) -> EigenResult:
        return EigenResult(
            e=self.e.copy(), x=self.x.copy(), m=self.m, res=self.res.copy(),
            epsout=float(self.epsout), loop=self.loop, info=self.info,
            m0=self.m0,
        )

    # -- engine internals -----------------------------------------------------

    def _tolerance(self):
        if self._single:
            return 10.0 ** -min(self.fpm.slot(7), MAX_TOL_EXP_SINGLE)
        return 10.0 ** -min(self.fpm.slot(3), MAX_TOL_EXP_DOUBLE)

    def _fill_random_start(self):
        """Draw the first start block into work1, column-major from the seed."""
        nm = self.n * self.m0
        raw = random_uniform(self.seed, 0, 2 * nm if self.hermitian else nm)
        vals = raw[:nm] + 1j * raw[nm:] if self.hermitian else raw
        self.work1[:, :] = vals.reshape((self.n, self.m0), order="F")

    def _multiply_blocks(self, task):
        m0 = self.m0
        blk = self.block_size or m0
        start = 0
        while start < m0:
            cols = min(blk, m0 - start)
            self.fpm.set_slot(24, start + 1)
            self.fpm.set_slot(25, cols)
            yield task
            start += cols

    def _run(self):
        fpm = self.fpm
        emin, emax = self.emin, self.emax
        tol = self._tolerance()
        max_loop = fpm.slot(4)
        contour = self.contour
        scale = max(abs(emin), abs(emax))
        verbose = fpm.slot(1) == 1
        if verbose:
            self._print_header()

        if fpm.slot(5) != 1:
            self._fill_random_start()
        # The Hermitian sum takes the adjoint solve at the conjugate angle.
        solves = ((RciTask.SOLVE, 1), (RciTask.SOLVE_ADJOINT, -1))[:2 if self.hermitian else 1]

        trace_prev = None
        self.loop = 0
        while True:
            m0 = self.m0
            if self.loop or fpm.slot(5) == 1:
                # The next start block is B times the Ritz vectors (or x0);
                # it stays in work1 until the projection's MULTIPLY_A.
                yield from self._multiply_blocks(RciTask.MULTIPLY_B)
            self.x[:, :m0] = 0
            for e in range(len(contour)):
                self.ze = complex(contour.z[e])
                yield RciTask.FACTORIZE
                if self.hermitian and not self.adjoint_capable:
                    yield RciTask.FACTORIZE_ADJOINT
                for task, sign in solves:
                    self.work2[:, :m0] = self.work1[:, :m0]
                    yield task
                    accumulate_subspace(self.x[:, :m0], self.work2[:, :m0], contour.weights[e],
                                        contour.radius, sign * contour.theta[e], self.hermitian)

            if fpm.slot(14) == 1:
                self.epsout = 1.0
                self.info = 4
                return

            # Projected matrices of the filtered subspace that x holds,
            # scaled by a power of two (exactly) to a largest entry in
            # [0.5, 1): with B scaled by s its entries are near 1/s, whose
            # projections overflow or underflow once |log2 s| passes ~500.
            # A subnormal largest entry is scaled by at most 2^-minexp,
            # which the precision can hold.
            top = math.frexp(float(np.abs(self.x[:, :m0]).max()))[1]
            self.x[:, :m0] *= 2.0 ** -max(top, np.finfo(self.x.dtype).minexp)
            yield from self._multiply_blocks(RciTask.MULTIPLY_A)
            # A Q waits in work2 (a real view of it for the symmetric kernel),
            # which no SOLVE writes before the next contour pass.
            aprod = self.work2.view(self.x.dtype)[:, :m0]
            aprod[:] = self.work1[:, :m0]
            yield from self._multiply_blocks(RciTask.MULTIPLY_B)
            qh = self.x[:, :m0].conj().T
            aq = np.asarray(qh @ aprod, dtype=np.complex128 if self.hermitian else np.float64)
            bq = np.asarray(qh @ self.work1[:, :m0], dtype=aq.dtype)
            aq = 0.5 * (aq + aq.conj().T)
            bq = 0.5 * (bq + bq.conj().T)

            try:
                # Shrink the subspace while the projected B fails its
                # Cholesky; the reduced eigensolve reuses the factor that
                # succeeds.
                lower, fail = spd_factor(bq[:m0, :m0])
                while fail is not None:
                    if fail == 1:
                        raise ReducedSolverError("projected B not positive definite")
                    m0 = fail - 1
                    lower, fail = spd_factor(bq[:m0, :m0])
                if m0 < self.m0:
                    self.x[:, m0:] = 0
                    self.e[m0:] = 0
                    self.res[m0:] = 0
                    self.m0 = m0
                lam, phi = generalized_eig(aq[:m0, :m0], bq[:m0, :m0], lower=lower)
            except ReducedSolverError:
                self.info = -3
                return

            self.e[:m0] = lam
            self.x[:, :m0] = (self.x[:, :m0] @ phi).astype(self.x.dtype, copy=False)
            ax = aprod[:, :m0] @ phi
            bx = self.work1[:, :m0] @ phi
            res = residual(ax, bx, lam, scale)
            self.res[:m0] = res
            inside = (lam >= emin) & (lam <= emax)
            m = int(inside.sum())
            trace_cur = float(lam[inside].sum())
            if trace_prev is None:
                self.epsout = 1.0
            else:
                self.epsout = trace_error(trace_cur, trace_prev, emin, emax)
            max_res = float(res[inside].max()) if m else 0.0
            if verbose:
                print(f"{self.loop:<8d}{m:<7d}{trace_cur:.15e}  "
                      f"{self.epsout:.15e}  {max_res:.15e}")

            converged = (self.epsout < tol) if fpm.slot(6) == 0 else (max_res < tol)
            if m == 0 or converged or self.loop >= max_loop:
                # Every column of the M0 given holds an eigenvalue of the
                # interval: one may be missing.  (After a shrink the block was
                # rank-deficient, which shows that none is.)
                saturated = m == self.x.shape[1] < self.n
                self.info = 1 if m == 0 else 3 if saturated else 0 if converged else 2
                self.m = filter_sort_flag(self.e[:m0], self.x[:, :m0], self.res[:m0],
                                          emin, emax, tol)
                return
            trace_prev = trace_cur
            self.loop += 1

    # -- runtime report -------------------------------------------------------

    def _print_header(self):
        print("***********************************************")
        print("*********** FEAST- BEGIN **********************")
        print("***********************************************")
        print(f"Routine {self.routine_name}")
        print("List of input parameters fpm(1:64)-- if different from default")
        for i, v in self.fpm.nondefault_slots():
            if i in (24, 25):
                continue
            print(f"   fpm({i})={v}")
        print(f"Search interval [{self.emin:.15e}; {self.emax:.15e}]")
        print(f"Size subspace {self.m0:3d}")
        print("#Loop | #Eig |     Trace           |    Error-Trace       |   Max-Residual")

    def _print_closing(self):
        """The message for a warning or success code, then the trailer."""
        if self.info in _CLOSING:
            print(_CLOSING[self.info])
        print("***********************************************")
        print("*********** FEAST- END*************************")
        print("***********************************************")


class SymmetricRci(_RciKernel):
    """Reverse-communication engine for real symmetric pencils (A symmetric,
    B symmetric positive definite)."""

    hermitian = False


class HermitianRci(_RciKernel):
    """Reverse-communication engine for complex Hermitian pencils.

    ``adjoint_capable=True`` promises the caller can answer SOLVE_ADJOINT
    from the factorization built for FACTORIZE; when False, the kernel emits
    FACTORIZE_ADJOINT ahead of each adjoint solve.
    """

    hermitian = True

    def __init__(self, n, m0, emin, emax, fpm=None, *, adjoint_capable=True, **kwargs):
        self.adjoint_capable = bool(adjoint_capable)
        super().__init__(n, m0, emin, emax, fpm, **kwargs)
