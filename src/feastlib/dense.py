"""Full-storage drivers: UPLO-aware dense matrices, complex LU with partial
pivoting for the shifted systems, and the feast_sy / feast_he entry points."""

from __future__ import annotations

import numpy as np

from ._driver import UPLOS, SingularMatrixError, _Ops, run_rci, setup


def asymmetry(a: np.ndarray, hermitian: bool) -> float:
    """Largest |a[j, k] - a[k, j]| (a[k, j] conjugated when hermitian)."""
    return float(np.abs(a - (a.conj().T if hermitian else a.T)).max(initial=0))


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


# Columns per panel of the blocked LU and rows per diagonal block of the
# triangular solves.  Work inside a panel is one numpy call per column; the
# rest is one matrix product per panel, which runs in BLAS.
NB = 48


def _blocks(n, start=0):
    """[k0, k1) ranges of NB indices (the last may be shorter) from start to n."""
    return [(k0, min(k0 + NB, n)) for k0 in range(start, n, NB)]


def _row_order(piv):
    """Rows of A in the order of PA: the interchanges of piv applied in turn."""
    order = list(range(len(piv)))
    for k, p in enumerate(piv.tolist()):
        order[k], order[p] = order[p], order[k]
    return order


def lu_factor(a: np.ndarray):
    """LU factorization with partial pivoting, PA = LU.

    Returns (lu, piv) with the unit-lower factor below the diagonal of lu,
    U on and above, and piv[k] the row swapped with k at step k.  Raises
    SingularMatrixError on an exactly singular pivot.

    Right-looking and blocked: each panel of NB columns is factorized a
    column at a time (partial pivoting, full-row interchanges), its block
    row of U follows by substitution with the panel's unit-lower block, and
    the trailing matrix takes the panel's update as matrix products.
    """
    lu = np.array(a, copy=True)
    n = lu.shape[0]
    piv = np.arange(n)
    for k0, k1 in _blocks(n):
        for k in range(k0, k1):
            p = k + int(np.argmax(np.abs(lu[k:, k])))
            if lu[p, k] == 0:
                raise SingularMatrixError(f"zero pivot at column {k}")
            piv[k] = p
            if p != k:
                lu[[k, p], :] = lu[[p, k], :]
            if k + 1 < n:
                lu[k + 1:, k] /= lu[k, k]
                lu[k + 1:, k + 1:k1] -= np.outer(lu[k + 1:, k], lu[k, k + 1:k1])
        for k in range(k0 + 1, k1):
            lu[k, k1:] -= lu[k, k0:k] @ lu[k0:k, k1:]
        # Trailing update a block column at a time: the temporary stays one
        # panel wide instead of the whole trailing matrix.
        for j0, j1 in _blocks(n, k1):
            lu[k1:, j0:j1] -= lu[k1:, k0:k1] @ lu[k0:k1, j0:j1]
    return lu, piv


def lu_solve(factor, b: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """Solve A x = b, or A^H x = b, from one lu_factor result.

    Blocked like lu_factor: row-by-row substitution inside each NB-row
    diagonal block, one matrix product for the rest of the block column.
    """
    lu, piv = factor
    b = np.asarray(b)
    x = b[:, np.newaxis] if b.ndim == 1 else b
    blocks = _blocks(lu.shape[0])
    order = _row_order(piv)
    if not adjoint:
        # Multiplier rows were swapped during factorization, so all row
        # interchanges apply up front (then plain triangular solves).
        x = x[order]
        for k0, k1 in blocks:
            for k in range(k0 + 1, k1):
                x[k] -= lu[k, k0:k] @ x[k0:k]
            x[k1:] -= lu[k1:, k0:k1] @ x[k0:k1]
        for k0, k1 in reversed(blocks):
            for k in range(k1 - 1, k0 - 1, -1):
                x[k] -= lu[k, k + 1:k1] @ x[k + 1:k1]
                x[k] /= lu[k, k]
            x[:k0] -= lu[:k0, k0:k1] @ x[k0:k1]
    else:
        # A^H = U^H L^H P: forward through U^H, back through L^H, then
        # apply P^T.  conj(M)^T y is computed as conj(M^T conj(y)), so only
        # block-sized operands are conjugated, never a copy of lu.
        x = x.copy()
        for k0, k1 in blocks:
            for k in range(k0, k1):
                x[k] -= lu[k0:k, k].conj() @ x[k0:k]
                x[k] /= lu[k, k].conjugate()
            x[k1:] -= (lu[k0:k1, k1:].T @ x[k0:k1].conj()).conj()
        for k0, k1 in reversed(blocks):
            for k in range(k1 - 2, k0 - 1, -1):
                x[k] -= lu[k + 1:k1, k].conj() @ x[k + 1:k1]
            x[:k0] -= (lu[k0:k1, :k0].T @ x[k0:k1].conj()).conj()
        x = x[np.argsort(order)]
    return x[:, 0] if b.ndim == 1 else x


class _DenseOps(_Ops):
    """A batch is one shift's LU, so that workers factorize shifts concurrently."""

    def _batch_size(self):
        return 1

    def _factor(self, shifts):
        (z,) = shifts
        if self.b is None:
            return lu_factor(z * np.eye(self.a.shape[0], dtype=self.cdtype) - self.a)
        return lu_factor(z * self.b.astype(self.cdtype) - self.a)

    def _solve(self, factor, rhs, adjoint):
        return lu_solve(factor[0], rhs, adjoint)

    _multiply = staticmethod(np.matmul)


def _dense_driver(a, b, emin, emax, m0, uplo, fpm, options, x0, hermitian):
    uplo = (uplo or "F").upper()
    a = np.asarray(a)
    b = None if b is None else np.asarray(b)
    kernel, options, (a_full, b_full) = setup(
        "HE" if hermitian else "SY", hermitian, (a.dtype, None if b is None else b.dtype),
        a.shape[0] if a.ndim == 2 else 0, emin, emax, m0, fpm, options, x0,
        checks=((-101, lambda: uplo not in UPLOS),
                (-104, lambda: a.ndim != 2 or a.shape[0] != a.shape[1]),
                (-106, lambda: b is not None and b.shape != a.shape)),
        operands=lambda dtype: [None if m is None else
                                expand_uplo(m, uplo, hermitian).astype(dtype, copy=False)
                                for m in (a, b)],
        finite=(-103, -105),
        asymmetry=lambda i, m: asymmetry(m, hermitian) if uplo == "F" else 0.0)
    if kernel.done:
        return kernel.result
    return run_rci(kernel, _DenseOps(a_full, b_full, kernel._cdtype, kernel.contour.z,
                                     options.parallel_contour))


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
