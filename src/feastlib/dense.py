"""Full-storage drivers: UPLO-aware dense matrices, and feast_sy/he, which
run the kernel on the tridiagonal reduction of the pencil.

A blocked Householder reduction gives A = Q T Qᴴ for a standard problem,
and s B = L Lᴴ, L⁻¹ (s A) L⁻ᴴ = Q T Qᴴ for a generalized one (s = ±1, see
``_DenseOps``), with T real symmetric tridiagonal for both drivers.  With
W = Q (W = L⁻ᴴ Q), times unit phases, Wᴴ A W = s T and Wᴴ B W = s I.  So
B⁻¹A = W T W⁻¹, the FEAST filter of B⁻¹A is W times that of T times W⁻¹,
and the Rayleigh-Ritz matrices of X = W X̃ are those of X̃ on (s T, s I):
the kernel runs on the reduced pencil (s T, s I) from the start block
mapped into its basis, and gives the original pencil's iterates in exact
arithmetic (Tang & Polizzi, SIAM J. Matrix Anal. Appl. 35(2), 2014).  Each
shift then costs one O(n) pivot-free LDLᵀ of s (z I - T) (``_DenseFactor``),
a solve is a substitution, and an A multiply a tridiagonal product.  W is
never formed: it is applied as the reduction's block reflectors (and
L⁻¹), once to the start block and once to the returned Ritz vectors.
"""

from __future__ import annotations

import math

import numpy as np

from ._driver import (UPLOS, SingularMatrixError, _Ops, as_operand, run_rci, setup,
                      upper_uplo)
from .kernel import residual


def asymmetry(a: np.ndarray) -> float:
    """Largest |a[j, k] - a[k, j]| (a[k, j] conjugated when complex)."""
    return float(np.abs(a - a.conj().T).max(initial=0))


def expand_uplo(a: np.ndarray, uplo: str) -> np.ndarray:
    """Materialize the full symmetric/Hermitian matrix from its stored part.

    For uplo='F' the array is used as given; for 'L'/'U' only the stored
    triangle is referenced, and reflected conjugated when complex.
    """
    uplo = uplo.upper()
    if uplo == "F":
        return np.asarray(a)
    if uplo == "L":
        return np.tril(a) + np.tril(a, -1).conj().T
    return np.triu(a) + np.triu(a, 1).conj().T


# Columns per panel of the reduction.  A panel's reflectors reach the
# trailing matrix in one rank-2*PANEL matrix product, and a block of
# vectors in two.
PANEL = 32

# Widening of the interval that the Sturm count counts in, in units of
# ε ‖T‖₁ (ε of the working precision): the computed count is exact for a T
# within a few ε ‖T‖₁ of the given one, so it can read 0 only when no
# eigenvalue lies within rounding of the interval.
COUNT_ULPS = 16


def _reflector(x):
    """(v, tau, beta) with v[0] = 1 and tau real, such that the reflector
    I - tau v vᴴ maps x to beta e1; (None, 0, x[0]) when x[1:] is zero.
    x is scaled by max|x| first, so that its norm neither overflows nor
    underflows (np.linalg.norm overflowed at 2^600)."""
    tail = np.abs(x[1:]).max(initial=0)
    if not tail:
        return None, 0.0, x[0]
    s = max(tail, abs(x[0]))
    y = x / s
    norm = np.sqrt(np.vdot(y, y).real)
    head = abs(y[0])
    phase = y[0] / head if head else 1.0
    v = y / (y[0] + phase * norm)
    v[0] = 1
    return v, 1.0 + head / norm, -phase * norm * s


def _block_reflector(vt, tau):
    """The upper triangle T with H_0 ... H_(w-1) = I - V T Vᴴ, V = vt.T, for
    the reflectors H_i = I - tau[i] v_i v_iᴴ of vt's rows (LAPACK's xLARFT,
    forward and columnwise)."""
    gram = vt.conj() @ vt.T
    t = np.zeros_like(gram)
    for i, ti in enumerate(tau):
        t[i, i] = ti
        t[:i, i] = -ti * (t[:i, :i] @ gram[:i, i])
    return t


def _tridiagonalize(a):
    """(d, e, panels, phase): the Hermitian ``a`` (full storage, used as
    work space) is Q T Qᴴ, with T real symmetric tridiagonal, d its
    diagonal and e its off-diagonal.  Q is kept as Q = P_0 P_1 ... diag(phase)
    with one block reflector P = I - V t Vᴴ, V = vt.T, per panel, acting on
    the rows ``first`` on, for each (first, vt, t) of ``panels``.

    Blocked Householder reduction (LAPACK's xSYTRD/xHETRD, lower): a
    panel's columns are brought up to date from its earlier reflectors'
    (v, w) pairs as they are reached, and the trailing matrix once per
    panel, a -= V Wᴴ + W Vᴴ (Golub & Van Loan, Matrix Computations,
    §8.3).  The reflectors leave complex off-diagonal entries for a
    complex ``a``; the unit phases on Q's columns make them real and
    non-negative.
    """
    n = len(a)
    d = np.empty(n, dtype=a.real.dtype)
    e = np.zeros(max(n - 1, 0), dtype=a.dtype)
    panels = []
    for j0 in range(0, n - 1, PANEL):
        j1 = min(j0 + PANEL, n - 1)
        # Row i holds reflector j0 + i over rows j0 + 1 on, and its w.
        vt = np.zeros((j1 - j0, n - j0 - 1), dtype=a.dtype)
        wt = np.zeros_like(vt)
        tau = np.zeros(j1 - j0, dtype=d.dtype)
        for i, k in enumerate(range(j0, j1)):
            column = a[k, k:].conj()
            if i:
                column -= (vt[:i, i - 1:].T @ wt[:i, i - 1].conj()
                           + wt[:i, i - 1:].T @ vt[:i, i - 1].conj())
            d[k] = column[0].real
            v, tau[i], e[k] = _reflector(column[1:])
            if tau[i]:
                # p = tau (A v) for the matrix as this panel has left it.
                p = a[k + 1:, k + 1:] @ v
                if i:
                    vh = v.conj()
                    p -= (vt[:i, i:].T @ np.conj(wt[:i, i:] @ vh)
                          + wt[:i, i:].T @ np.conj(vt[:i, i:] @ vh))
                p *= tau[i]
                p -= (tau[i] / 2 * np.vdot(v, p)) * v
                vt[i, i:] = v
                wt[i, i:] = p
        c = j1 - j0 - 1
        a[j1:, j1:] -= np.concatenate((vt, wt))[:, c:].T @ np.concatenate((wt, vt))[:, c:].conj()
        panels.append((j0 + 1, vt, _block_reflector(vt, tau)))
    d[n - 1] = a[n - 1, n - 1].real
    modulus = np.abs(e)
    phase = np.ones(n, dtype=a.dtype)
    phase[1:] = np.cumprod(np.divide(e, modulus, out=np.ones_like(e), where=modulus > 0))
    return d, modulus, panels, phase


def _reflect(panels, x, adjoint=False):
    """Q x, or Qᴴ x with ``adjoint``, without the phases, for the
    ``panels`` of ``_tridiagonalize``; overwrites the (n, m) block x."""
    for first, vt, t in panels if adjoint else reversed(panels):
        rows = x[first:]
        rows -= vt.T @ ((t.conj().T if adjoint else t) @ (vt.conj() @ rows))
    return x


def _count(d, e, emin, emax):
    """The number of eigenvalues of the real symmetric tridiagonal T
    (diagonal d, off-diagonal e) in [emin, emax] widened by COUNT_ULPS ε
    ‖T‖₁ at each end, ε of d's precision (exactly, for T = 0).

    Sturm count: by Sylvester's law of inertia, the pivots of the LDLᵀ of
    T - σI that are negative number T's eigenvalues below σ.  It runs on T
    scaled by a power of two to a largest entry in [0.5, 1), with each σ
    clipped to ±4 (past ‖T‖₁ <= 3), and takes a pivot under the smallest
    normal number for minus that number (LAPACK's xSTEBZ), so that no step
    overflows or divides by zero.
    """
    top = max(np.abs(d).max(), e.max(initial=0))
    if not top:
        return len(d) if emin <= 0 <= emax else 0
    eps = np.finfo(d.dtype).eps
    k = math.frexp(top)[1]
    d, e = (np.ldexp(v.astype(np.float64), -k) for v in (d, e))
    norm = (np.abs(d) + np.r_[0, e] + np.r_[e, 0]).max()
    with np.errstate(over="ignore"):
        ends = np.clip(np.ldexp([emin, emax], -k), -4, 4)
    lo, hi = (ends + COUNT_ULPS * eps * norm * np.array([-1, 1])).tolist()
    tiny = float(np.finfo(np.float64).tiny)
    pairs = list(zip(d.tolist(), [0.0] + (e * e).tolist()))

    def below(sigma):
        count, pivot = 0, 1.0
        for di, square in pairs:
            pivot = di - sigma - square / pivot
            if abs(pivot) < tiny:
                pivot = -tiny
            count += pivot < 0
        return count

    return below(hi) - below(lo)


class _DenseFactor:
    """(s (z I - T))⁻¹ for every shift z, with s = ±1 (see ``_DenseOps``).
    Each shift's complex symmetric tridiagonal s (z I - T) is kept as its
    pivot-free LDLᵀ: reciprocal pivots ``dinv``, (n, ne), and multipliers
    ``l``, (n - 1, ne).  |Im d_i| >= Im z > 0, so no pivot vanishes in exact
    arithmetic.  A reciprocal pivot or multiplier that is not finite (an
    overflow, as pivots at the underflow threshold give, or a NaN) raises
    SingularMatrixError, naming the first such pivot's column and the
    shift, with no floating-point warning.  An adjoint solve, of
    s (conj(z) I - T), takes the conjugated LDLᵀ.
    """

    def __init__(self, d, e, sign, shifts):
        self.n, self.ne = len(d), len(shifts)
        with np.errstate(all="ignore"):
            z = np.asarray(shifts, dtype=np.result_type(d, np.complex64))
            diagonal = sign * (z - d[:, np.newaxis])
            off = -sign * e
            self.dinv = np.empty_like(diagonal)
            self.l = np.empty_like(diagonal[1:])
            pivot = diagonal[0]
            for i in range(self.n - 1):
                self.dinv[i] = 1 / pivot
                self.l[i] = off[i] * self.dinv[i]
                pivot = diagonal[i + 1] - off[i] * self.l[i]
            self.dinv[-1] = 1 / pivot
        ok = np.isfinite(self.dinv).all(axis=0) & np.isfinite(self.l).all(axis=0)
        if not ok.all():
            shift = int(np.argmin(ok))
            bad = ~np.isfinite(self.dinv[:, shift])
            bad[:-1] |= ~np.isfinite(self.l[:, shift])
            raise SingularMatrixError(f"zero or non-finite pivot at column {np.argmax(bad)}" + (
                f" (shift {shift})" if self.ne > 1 else ""))

    def sweep(self, b: np.ndarray, adjoint: bool = False,
              shifts: slice = slice(None)) -> np.ndarray:
        """Solve the system of every shift in the slice ``shifts`` (all by
        default), or with ``adjoint`` its conjugate transpose, for the
        (n, m) block ``b``; returns y of shape (n, len(shifts), m), for
        ``pick``.

        The substitutions run along n, each step elementwise over (shifts,
        columns).  So each shift's solution is bitwise the one its
        one-shift factor gives, and the sweep of a slice bitwise that slice
        of the sweep of all.
        """
        l, dinv = self.l[:, shifts], self.dinv[:, shifts]
        if adjoint:
            l, dinv = l.conj(), dinv.conj()
        y = np.empty((self.n,) + dinv.shape[1:] + b.shape[1:],
                     dtype=np.result_type(dinv, b))
        y[...] = b[:, np.newaxis]
        for i in range(1, self.n):
            y[i] -= l[i - 1, :, np.newaxis] * y[i - 1]
        y *= dinv[:, :, np.newaxis]
        for i in range(self.n - 2, -1, -1):
            y[i] -= l[i, :, np.newaxis] * y[i + 1]
        return y

    def pick(self, y: np.ndarray, shift: int, first: int = 0,
             out: np.ndarray | None = None) -> np.ndarray:
        """Shift ``shift``'s (n, m) solution from the output of ``sweep``
        over the slice of shifts that begins at ``first``, copied into
        ``out`` when given, else into a new array: a view would keep the
        whole sweep alive after ``_Ops`` drops it."""
        return np.take(y, shift - first, axis=1, out=out, mode="clip")


def _definite_cholesky(b):
    """(s, L) with s B = L Lᴴ: s = 1 for a positive definite B, -1 for a
    negative definite one; SingularMatrixError for any other B."""
    for sign in (1, -1):
        try:
            return sign, np.linalg.cholesky(sign * b)
        except np.linalg.LinAlgError:
            pass
    raise SingularMatrixError("B is not definite")


class _DenseOps(_Ops):
    """Dense backend: the kernel runs on the reduced pencil (s T, s I) (see
    the module docstring).  A negative definite B is reduced as the pencil
    (-A, -B), s = -1, and the kernel's Cholesky of the projected s I then
    fails with -3, as that of the projected B did before the reduction.

    ``_start`` reduces the pencil, once per solve, and maps the start
    block; ``_factor`` factorizes s (z I - T) for every shift; A and B
    multiplies are s T x and s x; ``restore`` maps the result back to the
    original pencil.  ``count`` is the Sturm count of T in the interval
    (None until ``_start``).  ``to_reduced`` and ``from_reduced`` apply Wᴴ
    and W; with them, (z B - A)⁻¹ r = W (s (z I - T))⁻¹ Wᴴ r for the
    factor's solves.
    """

    count = _d = None

    def _reduce(self):
        """Reduce the pencil: s, T = (d, e), L⁻¹ (None for B = I), and Q's
        panels and phases.  SingularMatrixError for a B that is not
        definite, or a T or L⁻¹ that is not finite."""
        with np.errstate(all="ignore"):
            if self.b is None:
                self._sign, self._inverse, a = 1, None, self.a.copy()
            else:
                self._sign, lower = _definite_cholesky(self.b)
                self._inverse = inverse = np.linalg.inv(lower)
                a = inverse @ (self._sign * self.a) @ inverse.conj().T
                a = (a + a.conj().T) / 2
            d, e, self._panels, self._phase = _tridiagonalize(a)
        if not all(np.isfinite(m).all() for m in (d, e, self._inverse) if m is not None):
            raise SingularMatrixError("non-finite entry of the reduction")
        self._d, self._e = d, e

    def to_reduced(self, y):
        """Wᴴ y = diag(conj(phase)) Qᴴ L⁻¹ y for an (n, m) block y."""
        y = y if self._inverse is None else self._inverse @ y
        y = np.array(y, dtype=np.result_type(y, self._phase))
        return _reflect(self._panels, y, adjoint=True) * self._phase.conj()[:, np.newaxis]

    def from_reduced(self, x):
        """W x = L⁻ᴴ Q diag(phase) x for an (n, m) block x."""
        x = _reflect(self._panels, x * self._phase[:, np.newaxis])
        return x if self._inverse is None else self._inverse.conj().T @ x

    def _start(self, kernel):
        """Reduce the pencil and count T's eigenvalues in the interval.  A
        count of 0 ends the solve with info 1 before any contour pass;
        otherwise the start block goes into the reduced basis: the random
        block in ``work1`` by Wᴴ, or x0 in ``x`` (fpm(5)=1) by
        W⁻¹ = s Wᴴ B."""
        self._reduce()
        self._scale = max(abs(kernel.emin), abs(kernel.emax))
        self.count = _count(self._d, self._e, kernel.emin, kernel.emax)
        if self.count == 0:
            kernel.abort(1)
        elif kernel.fpm.slot(5) == 1:
            x0 = kernel.x if self.b is None else self.b @ kernel.x
            kernel.x[:, :] = self._sign * self.to_reduced(x0)
        else:
            kernel.work1[:, :] = self.to_reduced(kernel.work1)

    def _factor(self, shifts):
        # Ops used without a kernel (no _start) reduce here.
        if self._d is None:
            self._reduce()
        return _DenseFactor(self._d, self._e, self._sign, shifts)

    def multiply_a(self, x):
        y = self._d[:, np.newaxis] * x
        y[:-1] += self._e[:, np.newaxis] * x[1:]
        y[1:] += self._e[:, np.newaxis] * x[:-1]
        return y if self._sign == 1 else -y

    def multiply_b(self, x):
        return self._sign * x

    def restore(self, result):
        """The kernel's ``result`` on (s T, s I) made the original
        pencil's, in place: the m0 returned columns of x mapped back by W,
        and res recomputed, ‖A x - λ B x‖₁ / ‖max(|emin|, |emax|) B x‖₁, for
        each entry the kernel filled.  Entries flagged -1 keep their flag,
        and res keeps its zeros under fpm(14)=1 (info 4).  An error code,
        or the count's info 1, leaves the result as it is."""
        if not self.count or result.info < 0:
            return result
        m0 = result.m0
        result.x[:, :m0] = self.from_reduced(result.x[:, :m0])
        filled = (result.res[:m0] != -1) & (result.info != 4)
        if filled.any():
            x = result.x[:, :m0][:, filled]
            bx = x if self.b is None else self.b @ x
            result.res[:m0][filled] = residual(self.a @ x, bx, result.e[:m0][filled],
                                               self._scale)
        return result


def _dense_driver(a, b, emin, emax, m0, uplo, fpm, options, x0, hermitian):
    uplo = upper_uplo(uplo)
    a = as_operand(a)
    b = None if b is None else as_operand(b)
    kernel, options, (a_full, b_full) = setup(
        "HE" if hermitian else "SY", hermitian, (a.dtype, None if b is None else b.dtype),
        a.shape[0] if a.ndim == 2 else 0, emin, emax, m0, fpm, options, x0,
        checks=((-101, lambda: uplo not in UPLOS),
                (-104, lambda: a.ndim != 2 or a.shape[0] != a.shape[1]),
                (-106, lambda: b is not None and b.shape != a.shape)),
        operands=lambda dtype: [None if m is None else
                                expand_uplo(m, uplo).astype(dtype, copy=False)
                                for m in (a, b)],
        finite=(-103, -105),
        asymmetry=lambda i, m: asymmetry(m) if uplo == "F" else 0.0)
    if kernel.done:
        return kernel.result
    ops = _DenseOps(a_full, b_full, kernel.contour.z, hermitian)
    return ops.restore(run_rci(kernel, ops))


def feast_sy(a, emin, emax, m0, *, uplo="F", b=None, fpm=None, options=None, x0=None):
    """Solve the real symmetric problem A x = lambda x (or A x = lambda B x
    when ``b`` is given, with B symmetric positive definite) on [emin, emax].

    ``a``/``b`` are full-storage arrays whose referenced triangle is selected
    by ``uplo``; ``m0`` is the working subspace size.  Returns EigenResult.
    The iteration runs on one real tridiagonal reduction of the pencil
    (see ``_DenseOps``); an interval that holds no eigenvalue returns 1
    with m=0 before any contour pass, a B that is not definite -2, a
    negative definite one -3.
    """
    return _dense_driver(a, b, emin, emax, m0, uplo, fpm, options, x0, hermitian=False)


def feast_he(a, emin, emax, m0, *, uplo="F", b=None, fpm=None, options=None, x0=None):
    """Hermitian analogue of feast_sy for complex matrices.

    The reduction makes T real here too, so an adjoint solve takes the
    conjugated LDLᵀ of z I - T, and the kernel never asks for a separate
    adjoint factorization.
    """
    return _dense_driver(a, b, emin, emax, m0, uplo, fpm, options, x0, hermitian=True)
