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
# triangular solves.  Each panel is split in halves down to leaves of at
# most LEAF columns; work inside a leaf is one numpy call per column for all
# shifts, the rest is matrix products, which run in BLAS.
NB = 48
LEAF = 8


def _blocks(n, start=0):
    """[k0, k1) ranges of NB indices (the last may be shorter) from start to n."""
    return [(k0, min(k0 + NB, n)) for k0 in range(start, n, NB)]


def _row_order(piv):
    """Rows of A in the order of PA: the interchanges of piv applied in turn."""
    order = list(range(len(piv)))
    for k, p in enumerate(piv.tolist()):
        order[k], order[p] = order[p], order[k]
    return order


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


def _factor_stack(lu):
    """LU with partial pivoting of each matrix of the stack lu, PA = LU, in
    place: L below each diagonal, U on and above.  Returns piv, of shape
    (shifts, n): piv[s, k] is the row swapped with k at step k.

    Right-looking and blocked.  Each panel of NB columns is copied out
    transposed, so that its columns are contiguous rows, factorized there by
    _factor_panel and copied back, its row interchanges applied to whole
    rows.  Its block row of U is then the panel's L11 inverse times A12, and
    the trailing matrix takes the panel's update, a block column at a time,
    so that no temporary is larger than one block column.  Every operation is
    elementwise along the shift axis or a stacked matrix product, one
    product per shift, so each shift's factor is bitwise the one it gets
    alone.  Raises SingularMatrixError on an exactly singular pivot, naming
    its column (and its shift, in a stack of more than one).
    """
    n = lu.shape[1]
    shifts = np.arange(len(lu))[:, np.newaxis]
    piv = np.empty((len(lu), n), dtype=np.intp)
    for k0, k1 in _blocks(n):
        panel = lu[:, k0:, k0:k1].transpose(0, 2, 1).copy()
        _factor_panel(panel, piv[:, k0:k1], 0, k1 - k0, k0)
        # L11^-1, the inverse of the unit-upper triangle of the panel's L11^T.
        x = _unit_upper_inverse(panel[:, :, :k1 - k0]).swapaxes(1, 2)
        # Interchange rows k and piv[k] in turn; the panel's columns are
        # overwritten below.
        pairs = np.stack(np.broadcast_arrays(np.arange(k0, k1), piv[:, k0:k1]), axis=2)
        for pair in pairs.swapaxes(0, 1):
            lu[shifts, pair] = lu[shifts, pair[:, ::-1]]
        lu[:, k0:, k0:k1] = panel.transpose(0, 2, 1)
        del panel
        for j0, j1 in _blocks(n, k1):
            lu[:, k0:k1, j0:j1] = x @ lu[:, k0:k1, j0:j1]
            lu[:, k1:, j0:j1] -= lu[:, k1:, k0:k1] @ lu[:, k0:k1, j0:j1]
    return piv


def _substitute(m, x, lower, unit):
    """x <- T^-1 x in place for the lower (or upper) triangle T of each
    matrix of the stack m, with a unit diagonal when ``unit``: a row at a
    time inside each NB-row diagonal block, one stacked product for the rest
    of its block column."""
    blocks = _blocks(m.shape[1])
    for k0, k1 in blocks if lower else reversed(blocks):
        for k in range(k0, k1) if lower else range(k1 - 1, k0 - 1, -1):
            done = slice(k0, k) if lower else slice(k + 1, k1)
            x[:, k:k + 1] -= m[:, k:k + 1, done] @ x[:, done]
            if not unit:
                x[:, k] /= m[:, k, k, np.newaxis]
        rest = slice(k1, None) if lower else slice(None, k0)
        x[:, rest] -= m[:, rest, k0:k1] @ x[:, k0:k1]


class _DenseFactor:
    """LU factors of a stack of matrices, as _factor_stack leaves them:
    ``lu`` (shifts, n, n) and the pivots."""

    def __init__(self, lu, piv):
        self.lu = lu
        self.ne = len(piv)
        self.order = np.array([_row_order(p) for p in piv])

    def sweep(self, b, adjoint=False):
        """Solve every shift's system, or with ``adjoint`` its conjugate
        transpose, for the (n, m) block ``b``; returns y of shape
        (shifts, n, m), y[s] shift s's solution.

        Direct: each shift's rows of b are gathered in its pivot order, then
        forward through L and back through U.  The adjoint solve is
        conj(A^T \\ conj(b)) with A^T = P^T U^T L^T: forward through U^T and
        back through L^T, the transposed views of the factors, then each
        shift's rows scattered back to their places.
        """
        dtype = np.result_type(self.lu.dtype, b.dtype)
        if not adjoint:
            x = b[self.order].astype(dtype, copy=False)
            _substitute(self.lu, x, lower=True, unit=True)
            _substitute(self.lu, x, lower=False, unit=False)
            return x
        x = np.empty((self.ne,) + b.shape, dtype=dtype)
        x[:] = b.conj()
        lu_t = self.lu.swapaxes(1, 2)
        _substitute(lu_t, x, lower=True, unit=False)
        _substitute(lu_t, x, lower=False, unit=True)
        y = np.empty_like(x)
        y[np.arange(self.ne)[:, np.newaxis], self.order] = np.conjugate(x, out=x)
        return y

    @staticmethod
    def pick(y, shift):
        """Shift ``shift``'s (n, m) solution from the output of ``sweep``."""
        return y[shift]


def lu_factor(a: np.ndarray):
    """LU factorization with partial pivoting, PA = LU.

    Returns (lu, piv) with the unit-lower factor below the diagonal of lu,
    U on and above, and piv[k] the row swapped with k at step k.  Raises
    SingularMatrixError on an exactly singular pivot.  A one-matrix stack
    of _factor_stack.
    """
    lu = np.array(a, copy=True)[np.newaxis]
    piv = _factor_stack(lu)
    return lu[0], piv[0]


def lu_solve(factor, b: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """Solve A x = b, or A^H x = b, from one lu_factor result; ``b`` is
    (n,) or (n, m).  One shift's _DenseFactor.sweep."""
    lu, piv = factor
    b = np.asarray(b)
    x = _DenseFactor(np.asarray(lu)[np.newaxis], piv[np.newaxis]).sweep(
        b[:, np.newaxis] if b.ndim == 1 else b, adjoint)[0]
    return x[:, 0] if b.ndim == 1 else x


class _DenseOps(_Ops):
    """A batch is a stack of ceil(shifts / workers) shifted matrices z B - A,
    written straight into one (g, n, n) array and factorized by
    _factor_stack, so that each worker factorizes one batch.  Solves are
    served from one sweep of the batch (see ``_Ops``)."""

    def _batch_size(self):
        return -(-len(self._shifts) // self.workers)

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
        return _DenseFactor(lu, _factor_stack(lu))

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
