"""Banded drivers: LAPACK-style band storage and the feast_sb / feast_hb
entry points.  A band is checked in band storage, then turned into a
CsrMatrix of its nonzero entries and solved on the CSR drivers' multifrontal
LU and multiplies (``sparse._SparseOps``)."""

from __future__ import annotations

import numpy as np

from ._driver import UPLOS, as_operand, run_rci, setup, upper_uplo
from .params import _is_integer
from .sparse import CsrMatrix, _full_csr, _SparseOps, csr_asymmetry


def band_required_rows(kl: int, uplo: str) -> int:
    """Minimum leading dimension of the band storage for a given uplo."""
    return 2 * kl + 1 if uplo.upper() == "F" else kl + 1


def band_csr(ab: np.ndarray, kl: int, uplo: str) -> CsrMatrix:
    """The uplo='F' CsrMatrix of the nonzero entries (a NaN counts as
    nonzero) of band storage ``ab``, whose first band_required_rows rows
    hold entry A[j+s, j] at [top+s, j], top 0 for uplo='L' and kl
    otherwise.  The stored triangle is read into a CsrMatrix of that uplo
    and expanded by ``CsrMatrix.expand_full``; the rows past those and the
    slots that fall outside the matrix are left out."""
    top = 0 if uplo.upper() == "L" else kl
    band = ab[:band_required_rows(kl, uplo)]
    n = band.shape[1]
    # Row indices of the nonzero slots only: an array of them for every
    # slot raised band-herm-gen's peak RSS by 0.35 MB.
    diagonal, cols = np.nonzero(band != 0)
    rows = cols + diagonal - top
    inside = (rows >= 0) & (rows < n)
    return CsrMatrix.from_coo(n, rows[inside] + 1, cols[inside] + 1,
                              band[diagonal, cols][inside], uplo).expand_full()


def _banded_driver(a, kla, b, klb, emin, emax, m0, uplo, fpm, options, x0, hermitian):
    uplo = upper_uplo(uplo)
    a = as_operand(a)
    b = None if b is None else as_operand(b)
    n = a.shape[1] if a.ndim == 2 else 0

    def bandwidth_ok(k):
        # Not a float or None; nor a bool, which would index rows as a mask.
        return _is_integer(k) and 0 <= k < max(n, 1)

    def operands(dtype):
        return [None if m is None else _full_csr(band_csr(m, k, uplo), dtype)
                for m, k in ((a, kla), (b, klb))]

    kernel, options, (a_full, b_full) = setup(
        "HB" if hermitian else "SB", hermitian, (a.dtype, None if b is None else b.dtype), n,
        emin, emax, m0, fpm, options, x0,
        checks=((-101, lambda: uplo not in UPLOS),
                (-103, lambda: not bandwidth_ok(kla)),
                (-105, lambda: a.ndim != 2 or a.shape[0] < band_required_rows(kla, uplo)),
                (-106, lambda: b is not None and not bandwidth_ok(klb)),
                (-108, lambda: b is not None and (b.ndim != 2 or b.shape[1] != n
                                                  or b.shape[0] < band_required_rows(klb, uplo)))),
        operands=operands, finite=(-104, -107),
        asymmetry=lambda i, m: csr_asymmetry(m) if uplo == "F" else 0.0)
    if kernel.done:
        return kernel.result
    return run_rci(kernel, _SparseOps(a_full, b_full, kernel.contour.z, hermitian))


def feast_sb(a, kla, emin, emax, m0, *, uplo="F", b=None, klb=None,
             fpm=None, options=None, x0=None):
    """Real symmetric banded driver.

    ``a`` is band storage with ``kla`` sub/superdiagonals: 2*kla+1 rows for
    uplo='F' with the diagonal in row kla, or kla+1 rows holding the stored
    triangle for 'L'/'U'.  A generalized problem passes ``b``/``klb`` (the
    bandwidths may differ; the shifted matrices are factorized on the
    union of their patterns).
    """
    return _banded_driver(a, kla, b, klb, emin, emax, m0, uplo, fpm, options,
                          x0, hermitian=False)


def feast_hb(a, kla, emin, emax, m0, *, uplo="F", b=None, klb=None,
             fpm=None, options=None, x0=None):
    """Complex Hermitian banded driver; adjoint solves reuse the direct
    factorization (the adjoint of a shifted matrix is the conjugate shift)."""
    return _banded_driver(a, kla, b, klb, emin, emax, m0, uplo, fpm, options,
                          x0, hermitian=True)
