"""Full-storage drivers: UPLO-aware dense matrices, a left-looking complex LU
with partial pivoting of the shifted systems, written as it goes in the
multifrontal LU's block form (``_driver._BlockFactor``), and feast_sy/he."""

from __future__ import annotations

import numpy as np

from ._driver import (UPLOS, SingularMatrixError, _BlockFactor, _Ops, as_operand, run_rci,
                      setup, upper_uplo)


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


# Columns per panel of the blocked LU and per block of its block form.  Each
# panel is split in halves down to leaves of at most LEAF columns; work
# inside a leaf is one numpy call per column for all shifts, the rest is
# matrix products, which run in BLAS.
NB = 48
LEAF = 8


def _blocks(n, start=0):
    """[k0, k1) ranges of NB indices (the last may be shorter) from start to n."""
    return [(k0, min(k0 + NB, n)) for k0 in range(start, n, NB)]


def _unit_upper_inverse(v):
    """Inverse of the unit-upper triangle of each matrix of the stack v, a
    row at a time from the bottom."""
    w = v.shape[-1]
    y = np.zeros_like(v)
    y[:, range(w), range(w)] = 1
    for r in range(w - 2, -1, -1):
        y[:, r:r + 1, r + 1:] = -(v[:, r:r + 1, r + 1:] @ y[:, r + 1:, r + 1:])
    return y


def _check(ok, what):
    """Raise SingularMatrixError for ``what`` unless every shift is ``ok``."""
    if not ok.all():
        raise SingularMatrixError(what + (f" (shift {np.argmin(ok)})" if len(ok) > 1 else ""))


def _factor_panel(pt, piv, c0, c1, k0):
    """Factorize columns c0:c1 of the panel held transposed in ``pt``,
    (shifts, w, r) with pt[s, c, i] = A_s[k0 + i, k0 + c], from row c0 down;
    its columns left of c0 are factorized and their updates applied.  Column
    c's pivot row goes to piv[:, c].

    Halves recursively: the left half is factorized, the right half's U12
    is the left's L11 inverse times A12 and its A22 takes their product,
    then the right half is factorized.  A leaf of at most LEAF columns is
    factorized a column at a time, each step one call for all shifts.
    """
    if c1 - c0 > LEAF:
        h = (c0 + c1) // 2
        _factor_panel(pt, piv, c0, h, k0)
        pt[:, h:c1, c0:h] = pt[:, h:c1, c0:h] @ _unit_upper_inverse(pt[:, c0:h, c0:h])
        pt[:, h:c1, h:] -= pt[:, h:c1, c0:h] @ pt[:, c0:h, h:]
        _factor_panel(pt, piv, h, c1, k0)
        return
    shifts = np.arange(len(pt))
    for c in range(c0, c1):
        p = c + np.argmax(np.abs(pt[:, c, c:]), axis=1)
        pivot = pt[shifts, c, p]
        _check(pivot != 0, f"zero pivot at column {k0 + c}")
        piv[:, c] = k0 + p
        column = pt[shifts, :, p]
        pt[shifts, :, p] = pt[:, :, c]
        pt[:, :, c] = column
        pt[:, c, c + 1:] /= pivot[:, np.newaxis]
        pt[:, c + 1:c1, c + 1:] -= pt[:, c + 1:c1, c, np.newaxis] * pt[:, c, np.newaxis, c + 1:]


class _DenseFactor(_BlockFactor):
    """LU with partial pivoting of each matrix of the stack ``lu``, PA = LU,
    left in place in the multifrontal LU's block form: per NB-column block,
    (inv, li, ui) = (U11⁻¹ L11⁻¹, L21 L11⁻¹, U11⁻¹ U12), each block reaching
    all later rows.  F is PA, so a direct solve gathers the right-hand side
    in the pivot order, and an adjoint one, A^H = (PA)^H P, puts the
    solution's rows back from it.

    One left-looking (Crout) pass over NB-column panels.  Each block's row
    is kept as A' = L11 U12 until the end, so that li A' = L21 U12: one
    product, li A' over the blocks to its left, brings a panel's columns
    up to date as they are copied out transposed (contiguous rows) for
    _factor_panel, and one more, once they are copied back, its row.  Its
    row interchanges, composed into one permutation of the rows that
    move, go to the row order and, NB columns at a time, to the columns
    outside it.  li and inv then fill the panel's columns; U11⁻¹ is the
    unit-upper inverse of U11 with its rows scaled by the diagonal, its
    columns scaled back.  A last product per block makes ui = inv A'.
    Beside the panel's copy, no temporary is larger than one block column.
    Every operation is elementwise along the shift axis or a stacked
    matrix product, one product per shift, so each shift's factor is
    bitwise the one it gets alone.  Raises SingularMatrixError, with no
    floating-point warning, on an exactly singular pivot or a non-finite
    factor entry (an overflow or NaN), naming its column or rows and shift.
    """

    def __init__(self, lu):
        self.lu = lu
        self.ne, self.n = lu.shape[:2]
        self.dtype = lu.dtype
        shifts = np.arange(self.ne)[:, np.newaxis]
        # Each shift's row order, in int32: enough for any n whose n x n
        # stack fits in memory, and half the size of intp.
        order = np.tile(np.arange(self.n, dtype=np.int32), (self.ne, 1))
        with np.errstate(all="ignore"):
            for k0, k1 in _blocks(self.n):
                k, w = slice(k0, k1), k1 - k0
                # The panel, transposed: its columns less li A', one product.
                panel = lu[:, :k0, k].transpose(0, 2, 1) @ lu[:, k0:, :k0].transpose(0, 2, 1)
                np.subtract(lu[:, k0:, k].transpose(0, 2, 1), panel, out=panel)
                # Column k's pivot row goes to pairs[:, k - k0] = (k, piv[k]).
                pairs = np.tile(np.arange(k0, k1)[:, np.newaxis], (self.ne, 1, 2))
                _factor_panel(panel, pairs[:, :, 1], 0, w, k0)
                lu[:, k0:, k] = panel.transpose(0, 2, 1)
                # L11⁻¹, the inverse of the unit-upper triangle of the panel's L11ᵀ.
                l_inv = _unit_upper_inverse(panel[:, :, :w]).swapaxes(1, 2)
                del panel
                # Interchanging rows k and piv[k] in turn moves row source[r]
                # to row r.  rows: the rows that move, then rows that stay,
                # as many for each shift; then source[:, i] moves to rows[:, i].
                source = np.tile(np.arange(self.n), (self.ne, 1))
                for pair in pairs.swapaxes(0, 1):
                    source[shifts, pair] = source[shifts, pair[:, ::-1]]
                moves = source != np.arange(self.n)
                rows = np.argsort(~moves, axis=1, kind="stable")[:, :moves.sum(axis=1).max()]
                source = source[shifts, rows]
                order[shifts, rows] = order[shifts, source]
                for j0, j1 in _blocks(k0) + _blocks(self.n, k1):
                    lu[shifts, rows, j0:j1] = lu[shifts, source, j0:j1]
                lu[:, k1:, k] = lu[:, k1:, k] @ l_inv
                d = lu[:, k, k].diagonal(axis1=1, axis2=2)[:, :, np.newaxis]
                lu[:, k, k] = _unit_upper_inverse(lu[:, k, k] / d) / d.swapaxes(1, 2) @ l_inv
                if k0:
                    lu[:, k, k1:] -= lu[:, k, :k0] @ lu[:, :k0, k1:]
            for k0, k1 in _blocks(self.n):
                lu[:, k0:k1, k1:] = lu[:, k0:k1, k0:k1] @ lu[:, k0:k1, k1:]
                _check(np.isfinite(lu[:, k0:k1]).all(axis=(1, 2)),
                       f"non-finite factor entry in rows {k0}:{k1}")
        self.columns = [slice(k0, k1) for k0, k1 in _blocks(self.n)]
        self.rows = [slice(k.stop, None) for k in self.columns]
        self.blocks = [(lu[:, k, k], lu[:, r, k], lu[:, k, r])
                       for k, r in zip(self.columns, self.rows)]
        order = order.T
        same = np.broadcast_to(np.arange(self.n)[:, np.newaxis], order.shape)
        self.orders = {False: (order, same), True: (same, np.argsort(order, axis=0))}


class _DenseOps(_Ops):
    """The one batch is the stack of all shifted matrices z B - A, written
    straight into one (shifts, n, n) array and factorized in place into
    block form (``_DenseFactor``); solves as in ``_Ops``."""

    def _factor(self, shifts):
        n = self.a.shape[0]
        lu = np.empty((len(shifts), n, n), dtype=np.result_type(self.a, np.complex64))
        z = np.array(shifts, dtype=lu.dtype)
        if self.b is None:
            np.negative(self.a, out=lu)
            lu.reshape(len(shifts), n * n)[:, ::n + 1] += z[:, np.newaxis]
        else:
            np.multiply(z[:, np.newaxis, np.newaxis], self.b, out=lu)
            lu -= self.a
        return _DenseFactor(lu)

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
    """
    return _dense_driver(a, b, emin, emax, m0, uplo, fpm, options, x0, hermitian=False)


def feast_he(a, emin, emax, m0, *, uplo="F", b=None, fpm=None, options=None, x0=None):
    """Hermitian analogue of feast_sy for complex matrices.

    Adjoint linear solves are served from the direct LU factorization
    (U^H L^H with conjugated pivot application), so the kernel never asks
    for a separate adjoint factorization.
    """
    return _dense_driver(a, b, emin, emax, m0, uplo, fpm, options, x0, hermitian=True)
