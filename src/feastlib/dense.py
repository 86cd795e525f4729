"""Full-storage drivers: UPLO-aware dense matrices, complex LU with partial
pivoting for the shifted systems, in the multifrontal LU's block form
(``_driver._BlockFactor``), and the feast_sy / feast_he entry points."""

from __future__ import annotations

import numpy as np

from ._driver import (UPLOS, SingularMatrixError, _BlockFactor, _Ops, as_operand, run_rci,
                      setup, upper_uplo)


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
        if not pivot.all():
            s = int(np.argmin(pivot != 0))
            raise SingularMatrixError(f"zero pivot at column {k0 + c}"
                                      + (f" (shift {s})" if len(pt) > 1 else ""))
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

    One right-looking pass.  Each panel of NB columns is copied out
    transposed, so that its columns are contiguous rows, factorized there by
    _factor_panel and copied back, its row interchanges applied to whole
    rows and to the row order.  Then, a block column at a time,
    U12 = L11⁻¹ A12 in place and the trailing update A22 -= L21 U12; then,
    a block at a time, ui and li, and inv.  U11⁻¹ is the unit-upper inverse
    of U11 with its rows scaled by the diagonal, its columns scaled back.
    It is made after the trailing update, so that only L11⁻¹ is held beside
    that update's temporaries: holding both raised the dense benchmark's
    peak RSS by about 1 MB.  No temporary is larger than one block column.
    Every operation is elementwise along the shift axis or a stacked matrix
    product, one product per shift, so each shift's factor is bitwise the
    one it gets alone.  Raises SingularMatrixError on an exactly singular
    pivot, naming its column (and its shift, in a stack of more than one).
    """

    def __init__(self, lu):
        self.lu = lu
        self.ne, self.n = lu.shape[:2]
        self.dtype = lu.dtype
        shifts = np.arange(self.ne)[:, np.newaxis]
        # Each shift's row order, in int32: enough for any n whose n x n
        # stack fits in memory, and half the size of intp.
        order = np.tile(np.arange(self.n, dtype=np.int32), (self.ne, 1))
        for k0, k1 in _blocks(self.n):
            k = slice(k0, k1)
            panel = lu[:, k0:, k].transpose(0, 2, 1).copy()
            # Column k's pivot row goes to pairs[:, k - k0] = (k, piv[k]).
            pairs = np.empty((self.ne, k1 - k0, 2), dtype=np.intp)
            pairs[:, :, 0] = np.arange(k0, k1)
            _factor_panel(panel, pairs[:, :, 1], 0, k1 - k0, k0)
            # L11⁻¹, the inverse of the unit-upper triangle of the panel's L11ᵀ.
            l_inv = _unit_upper_inverse(panel[:, :, :k1 - k0]).swapaxes(1, 2)
            # Interchange rows k and piv[k] in turn; the panel's columns are
            # overwritten below.
            for pair in pairs.swapaxes(0, 1):
                lu[shifts, pair] = lu[shifts, pair[:, ::-1]]
                order[shifts, pair] = order[shifts, pair[:, ::-1]]
            lu[:, k0:, k] = panel.transpose(0, 2, 1)
            del panel
            for j0, j1 in _blocks(self.n, k1):
                lu[:, k, j0:j1] = l_inv @ lu[:, k, j0:j1]
                lu[:, k1:, j0:j1] -= lu[:, k1:, k] @ lu[:, k, j0:j1]
            d = lu[:, k, k].diagonal(axis1=1, axis2=2)[:, :, np.newaxis]
            u_inv = _unit_upper_inverse(lu[:, k, k] / d) / d.swapaxes(1, 2)
            for j0, j1 in _blocks(self.n, k1):
                lu[:, k, j0:j1] = u_inv @ lu[:, k, j0:j1]
                lu[:, j0:j1, k] = lu[:, j0:j1, k] @ l_inv
            lu[:, k, k] = u_inv @ l_inv
            # Held through the next panel's factorization, they raise the
            # factor's peak.
            del l_inv, u_inv, d
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
        lu = np.empty((len(shifts), n, n), dtype=self.cdtype)
        z = np.array(shifts, dtype=self.cdtype)
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
                                expand_uplo(m, uplo, hermitian).astype(dtype, copy=False)
                                for m in (a, b)],
        finite=(-103, -105),
        asymmetry=lambda i, m: asymmetry(m, hermitian) if uplo == "F" else 0.0)
    if kernel.done:
        return kernel.result
    return run_rci(kernel, _DenseOps(a_full, b_full, kernel._cdtype, kernel.contour.z))


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
