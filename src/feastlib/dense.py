"""Full-storage drivers: UPLO-aware dense matrices, feast_sy/he, and the
shifted systems of all contour shifts from one reduction per solve.

A blocked Householder reduction gives A = Q T Qᴴ for a standard problem,
and B = L Lᴴ, L⁻¹ A L⁻ᴴ = Q T Qᴴ for a generalized one, with T real
symmetric tridiagonal for both drivers.  With W = Q (W = L⁻ᴴ Q),
(z B - A)⁻¹ = W (z I - T)⁻¹ Wᴴ for every shift z, and each shift costs one
O(n) pivot-free LDLᵀ of z I - T (``_DenseFactor``): the classic many-shift
method (Laub, IEEE Trans. Autom. Control 26(2), 1981), in place of one
O(n³) LU per shift."""

from __future__ import annotations

import numpy as np

from ._driver import (UPLOS, SingularMatrixError, _Ops, as_operand, run_rci, setup,
                      upper_uplo)


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
# trailing matrix in one rank-2*PANEL matrix product, and W in two.
PANEL = 32


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
    """(d, e, q): the Hermitian ``a`` (full storage) is q T qᴴ, with T
    real symmetric tridiagonal, d its diagonal and e its off-diagonal; q
    overwrites ``a``.

    Blocked Householder reduction (LAPACK's xSYTRD/xHETRD, lower): a
    panel's columns are brought up to date from its earlier reflectors'
    (v, w) pairs as they are reached, and the trailing matrix once per
    panel, a -= V Wᴴ + W Vᴴ (Golub & Van Loan, Matrix Computations,
    §8.3).  q = H_0 ... H_(n-2) is accumulated backward, one block
    reflector per panel, on the rows and columns the panel reaches.  The
    reflectors leave complex off-diagonal entries for a complex ``a``;
    scaling q's columns by unit phases makes them real and non-negative.
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
        panels.append((j0, vt, tau))
    d[n - 1] = a[n - 1, n - 1].real
    q = a
    q[...] = 0
    np.fill_diagonal(q, 1)
    for j0, vt, tau in reversed(panels):
        block = q[j0 + 1:, j0 + 1:]
        block -= vt.T @ (_block_reflector(vt, tau) @ (vt.conj() @ block))
    modulus = np.abs(e)
    phase = np.ones(n, dtype=a.dtype)
    phase[1:] = np.cumprod(np.divide(e, modulus, out=np.ones_like(e), where=modulus > 0))
    q *= phase
    return d, modulus, q


def _product(w, x):
    """w @ x; a real ``w`` takes a complex ``x``'s real and imaginary
    parts side by side, in one real product."""
    if np.iscomplexobj(w) or not np.iscomplexobj(x):
        return w @ x
    return (w @ x.view(x.real.dtype)).view(x.dtype)


class _DenseFactor:
    """(z B - A)⁻¹ = W (s (z I - T))⁻¹ Wᴴ for every shift z, with s = ±1
    (see ``_DenseOps``).  Each shift's complex symmetric tridiagonal
    s (z I - T) is kept as its pivot-free LDLᵀ: reciprocal pivots ``dinv``,
    (n, ne), and multipliers ``l``, (n - 1, ne).  |Im d_i| >= Im z > 0, so
    no pivot vanishes in exact arithmetic.  A W, T, reciprocal pivot or
    multiplier that is not finite (an overflow, as pivots at the underflow
    threshold give, or a NaN) raises SingularMatrixError, naming the first
    such pivot's column and the shift, with no floating-point warning.  An adjoint solve, of conj(z) B - A,
    takes the conjugated LDLᵀ and the same W.
    """

    def __init__(self, w, d, e, sign, shifts):
        self.w = w
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
        if not (np.isfinite(w).all() and np.isfinite(d).all() and np.isfinite(e).all()):
            raise SingularMatrixError("non-finite entry of the reduction")
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

        One product by Wᴴ serves all shifts; the substitutions run along
        n, each step elementwise over (shifts, columns); then one product
        by W per shift.  So each shift's solution is bitwise the one its
        one-shift factor gives, and the sweep of a slice bitwise that slice
        of the sweep of all.
        """
        l, dinv = self.l[:, shifts], self.dinv[:, shifts]
        if adjoint:
            l, dinv = l.conj(), dinv.conj()
        c = np.conj(_product(self.w.T, np.conj(b)))
        y = np.empty((self.n,) + dinv.shape[1:] + b.shape[1:],
                     dtype=np.result_type(dinv, b))
        y[...] = c[:, np.newaxis]
        for i in range(1, self.n):
            y[i] -= l[i - 1, :, np.newaxis] * y[i - 1]
        y *= dinv[:, :, np.newaxis]
        for i in range(self.n - 2, -1, -1):
            y[i] -= l[i, :, np.newaxis] * y[i + 1]
        return _product(self.w, y.swapaxes(0, 1)).swapaxes(0, 1)

    def pick(self, y: np.ndarray, shift: int, adjoint: bool = False,
             first: int = 0) -> np.ndarray:
        """Shift ``shift``'s (n, m) solution from the output of ``sweep``
        over the slice of shifts that begins at ``first``: a new array, as
        a view would keep the whole sweep alive after ``_Ops`` drops it."""
        return y[:, shift - first].copy()


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
    """Dense backend: ``_factor`` reduces the pencil once for all shifts
    (see the module docstring); solves as in ``_Ops``.  A negative definite
    B is reduced as the pencil (-A, -B), with s = -1 negating the
    solutions."""

    def _factor(self, shifts):
        with np.errstate(all="ignore"):
            if self.b is None:
                sign, a = 1, self.a.copy()
            else:
                sign, lower = _definite_cholesky(self.b)
                inverse = np.linalg.inv(lower)
                a = inverse @ (sign * self.a) @ inverse.conj().T
                a = (a + a.conj().T) / 2
            d, e, w = _tridiagonalize(a)
            if self.b is not None:
                w = inverse.conj().T @ w
        return _DenseFactor(w, d, e, sign, shifts)

    _multiply = staticmethod(np.matmul)


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
    return run_rci(kernel, _DenseOps(a_full, b_full, kernel.contour.z, hermitian))


def feast_sy(a, emin, emax, m0, *, uplo="F", b=None, fpm=None, options=None, x0=None):
    """Solve the real symmetric problem A x = lambda x (or A x = lambda B x
    when ``b`` is given, with B symmetric positive definite) on [emin, emax].

    ``a``/``b`` are full-storage arrays whose referenced triangle is selected
    by ``uplo``; ``m0`` is the working subspace size.  Returns EigenResult.
    The shifted systems are solved from one real tridiagonal reduction of
    the pencil (see ``_DenseOps``); a B that is not definite returns -2, a
    negative definite one -3.
    """
    return _dense_driver(a, b, emin, emax, m0, uplo, fpm, options, x0, hermitian=False)


def feast_he(a, emin, emax, m0, *, uplo="F", b=None, fpm=None, options=None, x0=None):
    """Hermitian analogue of feast_sy for complex matrices.

    The reduction makes T real here too, so an adjoint solve takes the
    conjugated LDLᵀ of z I - T and the same W, and the kernel never asks
    for a separate adjoint factorization.
    """
    return _dense_driver(a, b, emin, emax, m0, uplo, fpm, options, x0, hermitian=True)
