"""Banded drivers: LAPACK-style band storage and the feast_sb / feast_hb
entry points.  A band is checked in band storage, then turned into a
CsrMatrix of its nonzero entries and solved on the CSR drivers' multifrontal
LU and multiplies (``sparse._SparseOps``)."""

from __future__ import annotations

import numbers

import numpy as np

from ._driver import UPLOS, as_operand, run_rci, setup, upper_uplo
from .sparse import CsrMatrix, _SparseOps, csr_asymmetry


def band_required_rows(kl: int, uplo: str) -> int:
    """Minimum leading dimension of the band storage for a given uplo."""
    return 2 * kl + 1 if uplo.upper() == "F" else kl + 1


def expand_band(ab: np.ndarray, kl: int, uplo: str, hermitian: bool) -> np.ndarray:
    """Normalize band storage to the full-band layout: a (2*kl+1, n) array
    whose row kl+s holds the s-th subdiagonal (s<0: superdiagonal), i.e.
    entry A[j+s, j] sits at [kl+s, j].  Unused slots are zero and never
    read.
    """
    ab = np.asarray(ab)
    n = ab.shape[1]
    uplo = uplo.upper()
    fb = np.zeros((2 * kl + 1, n), dtype=ab.dtype)
    fb[kl, :] = ab[0 if uplo == "L" else kl, :]
    for d in range(1, kl + 1):
        if uplo == "F":
            sup, sub = ab[kl - d, d:n], ab[kl + d, : n - d]
        elif uplo == "L":
            sub = ab[d, : n - d]
            sup = sub.conj() if hermitian else sub
        else:
            sup = ab[kl - d, d:n]
            sub = sup.conj() if hermitian else sup
        fb[kl - d, d:n] = sup
        fb[kl + d, : n - d] = sub
    return fb


def band_csr(fb: np.ndarray) -> CsrMatrix:
    """The uplo='F' CsrMatrix of the nonzero entries of a full-band matrix in
    expand_band layout, whose unused slots are zero; a NaN counts as
    nonzero."""
    offset, cols = np.nonzero(fb)
    rows = cols + offset - (fb.shape[0] - 1) // 2
    return CsrMatrix.from_coo(fb.shape[1], rows + 1, cols + 1, fb[offset, cols])


def _banded_driver(a, kla, b, klb, emin, emax, m0, uplo, fpm, options, x0, hermitian):
    uplo = upper_uplo(uplo)
    a = as_operand(a)
    b = None if b is None else as_operand(b)
    n = a.shape[1] if a.ndim == 2 else 0

    def bandwidth_ok(k):
        # numbers.Integral covers Python and numpy integers, not None or
        # floats; a bool, which it also covers, would index rows as a mask.
        return isinstance(k, numbers.Integral) and not isinstance(k, bool) and 0 <= k < max(n, 1)

    def operands(dtype):
        return [None if m is None else
                band_csr(expand_band(m, k, uplo, hermitian).astype(dtype, copy=False))
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
        asymmetry=lambda i, m: csr_asymmetry(m, hermitian) if uplo == "F" else 0.0)
    if kernel.done:
        return kernel.result
    return run_rci(kernel, _SparseOps(a_full, b_full, kernel.contour.z, symmetric=not hermitian))


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
