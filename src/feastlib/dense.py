"""Full-storage drivers: UPLO-aware dense matrices, complex LU with partial
pivoting for the shifted systems, and the feast_sy / feast_he entry points."""

from __future__ import annotations

import numpy as np

from ._driver import UPLOS, SingularMatrixError, _Ops, run_rci, setup


def expand_uplo(a: np.ndarray, uplo: str, hermitian: bool) -> np.ndarray:
    """Materialize the full symmetric/Hermitian matrix from its stored part.

    For uplo='F' the array is used as given; for 'L'/'U' only the stored
    triangle is referenced.
    """
    uplo = uplo.upper()
    if uplo == "F":
        return np.asarray(a)
    tri = np.tril(a) if uplo == "L" else np.triu(a)
    off = tri - np.diag(np.diag(tri))
    reflect = off.conj().T if hermitian else off.T
    return tri + reflect


def lu_factor(a: np.ndarray):
    """LU factorization with partial pivoting, PA = LU.

    Returns (lu, piv) with the unit-lower factor below the diagonal of lu,
    U on and above, and piv[k] the row swapped with k at step k.  Raises
    SingularMatrixError on an exactly singular pivot.
    """
    lu = np.array(a, copy=True)
    n = lu.shape[0]
    piv = np.arange(n)
    for k in range(n):
        p = k + int(np.argmax(np.abs(lu[k:, k])))
        if lu[p, k] == 0:
            raise SingularMatrixError(f"zero pivot at column {k}")
        piv[k] = p
        if p != k:
            lu[[k, p], :] = lu[[p, k], :]
        if k + 1 < n:
            lu[k + 1:, k] /= lu[k, k]
            lu[k + 1:, k + 1:] -= np.outer(lu[k + 1:, k], lu[k, k + 1:])
    return lu, piv


def lu_solve(factor, b: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """Solve A x = b, or A^H x = b, from one lu_factor result."""
    lu, piv = factor
    n = lu.shape[0]
    x = np.array(b, copy=True)
    if x.ndim == 1:
        x = x[:, np.newaxis]
        squeeze = True
    else:
        squeeze = False
    if not adjoint:
        # Multiplier rows were swapped during factorization, so all row
        # interchanges apply up front (then plain triangular solves).
        for k in range(n):
            if piv[k] != k:
                x[[k, piv[k]]] = x[[piv[k], k]]
        for k in range(n - 1):
            x[k + 1:] -= np.outer(lu[k + 1:, k], x[k])
        for k in range(n - 1, -1, -1):
            x[k] /= lu[k, k]
            if k:
                x[:k] -= np.outer(lu[:k, k], x[k])
    else:
        # A^H = U^H L^H P: forward through U^H, back through L^H, then undo
        # the row interchanges in reverse order.
        for k in range(n):
            if k:
                x[k] -= lu[:k, k].conj() @ x[:k]
            x[k] /= lu[k, k].conjugate()
        for k in range(n - 1, -1, -1):
            if k + 1 < n:
                x[k] -= lu[k + 1:, k].conj() @ x[k + 1:]
        for k in range(n - 1, -1, -1):
            if piv[k] != k:
                x[[k, piv[k]]] = x[[piv[k], k]]
    return x[:, 0] if squeeze else x


class _DenseOps(_Ops):
    def factorize(self, z):
        if self.b is None:
            shifted = z * np.eye(self.a.shape[0], dtype=self.cdtype) - self.a
        else:
            shifted = z * self.b.astype(self.cdtype) - self.a
        return lu_factor(shifted)

    def _solve(self, factor, rhs, adjoint):
        return lu_solve(factor, rhs, adjoint)

    _multiply = staticmethod(np.matmul)


def _dense_driver(a, b, emin, emax, m0, uplo, fpm, options, x0, hermitian):
    uplo = (uplo or "F").upper()
    a = np.asarray(a)
    b = None if b is None else np.asarray(b)
    kernel, options, (a_full, b_full) = setup(
        "HE" if hermitian else "SY", hermitian, a.dtype, a.shape[0], b is not None,
        emin, emax, m0, fpm, options, x0,
        checks=((-101, lambda: uplo not in UPLOS),
                (-104, lambda: a.ndim != 2 or a.shape[0] != a.shape[1]),
                (-106, lambda: b is not None and b.shape != a.shape)),
        operands=lambda dtype: [None if m is None else
                                expand_uplo(m, uplo, hermitian).astype(dtype, copy=False)
                                for m in (a, b)],
        finite=(-103, -105))
    if kernel.done:
        return kernel.result
    return run_rci(kernel, _DenseOps(a_full, b_full, kernel._cdtype), options)


def feast_sy(a, emin, emax, m0, *, uplo="F", b=None, fpm=None, options=None, x0=None):
    """Solve the real symmetric problem A x = lambda x (or A x = lambda B x
    when ``b`` is given, with B symmetric positive definite) on [emin, emax].

    ``a``/``b`` are full-storage arrays whose referenced triangle is selected
    by ``uplo``; ``m0`` is the working subspace size.  Returns EigenResult.
    """
    return _dense_driver(a, b, emin, emax, m0, uplo, fpm, options, x0, hermitian=False)


def feast_he(a, emin, emax, m0, *, uplo="F", b=None, fpm=None, options=None, x0=None):
    """Hermitian analogue of feast_sy for complex matrices.

    Adjoint linear solves are served from the direct LU factorization
    (U^H L^H with conjugated pivot application), so the kernel never asks
    for a separate adjoint factorization.
    """
    return _dense_driver(a, b, emin, emax, m0, uplo, fpm, options, x0, hermitian=True)
