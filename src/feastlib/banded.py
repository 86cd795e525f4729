"""Banded drivers: LAPACK-style band storage, band LU with partial pivoting
(kl extra fill rows), band multiplies, and the feast_sb / feast_hb entry
points."""

from __future__ import annotations

import numpy as np

from ._driver import UPLOS, SingularMatrixError, _Ops, run_rci, setup


def band_required_rows(kl: int, uplo: str) -> int:
    """Minimum leading dimension of the band storage for a given uplo."""
    return 2 * kl + 1 if uplo.upper() == "F" else kl + 1


def expand_band(ab: np.ndarray, kl: int, uplo: str, hermitian: bool,
                width: int | None = None) -> np.ndarray:
    """Normalize band storage to the full-band layout: a (2*w+1, n) array
    whose row w+s holds the s-th subdiagonal (s<0: superdiagonal), i.e.
    entry A[j+s, j] sits at [w+s, j], where the bandwidth w is ``width``
    (at least kl; default kl).  Unused slots are zero and never read.
    """
    ab = np.asarray(ab)
    n = ab.shape[1]
    uplo = uplo.upper()
    w = kl if width is None else width
    fb = np.zeros((2 * w + 1, n), dtype=ab.dtype)
    fb[w, :] = ab[0 if uplo == "L" else kl, :]
    for d in range(1, kl + 1):
        if uplo == "F":
            sup, sub = ab[kl - d, d:n], ab[kl + d, : n - d]
        elif uplo == "L":
            sub = ab[d, : n - d]
            sup = sub.conj() if hermitian else sub
        else:
            sup = ab[kl - d, d:n]
            sub = sup.conj() if hermitian else sup
        fb[w - d, d:n] = sup
        fb[w + d, : n - d] = sub
    return fb


def band_matvec(fb: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Multiply a full-band matrix (expand_band layout) by a block."""
    n = fb.shape[1]
    kl = (fb.shape[0] - 1) // 2
    y = np.zeros((n,) + x.shape[1:], dtype=np.result_type(fb.dtype, x.dtype))
    for s in range(-kl, kl + 1):
        j0 = max(0, -s)
        j1 = min(n, n - s)
        if j1 <= j0:
            continue
        diag = fb[kl + s, j0:j1]
        if x.ndim == 1:
            y[j0 + s:j1 + s] += diag * x[j0:j1]
        else:
            y[j0 + s:j1 + s] += diag[:, np.newaxis] * x[j0:j1]
    return y


def band_lu_factor(fb: np.ndarray, kl: int):
    """LU with partial pivoting of a band matrix in expand_band layout.

    Pivoting fills up to kl extra superdiagonals; the working array carries
    2*kl superdiagonal rows in total.  Returns (ab, ipiv, kl).
    """
    n = fb.shape[1]
    ku = kl
    kv = kl + ku
    ab = np.zeros((2 * kl + ku + 1, n), dtype=np.result_type(fb.dtype, np.complex64))
    ab[kl:, :] = fb
    ipiv = np.arange(n)
    ju = 0
    for j in range(n):
        km = min(kl, n - 1 - j)
        jp = int(np.argmax(np.abs(ab[kv:kv + km + 1, j])))
        piv_val = ab[kv + jp, j]
        if piv_val == 0:
            raise SingularMatrixError(f"zero pivot at band column {j}")
        ipiv[j] = j + jp
        ju = max(ju, min(j + ku + jp, n - 1))
        if jp != 0:
            cols = np.arange(j, ju + 1)
            hi = kv + jp + j - cols
            lo = kv + j - cols
            tmp = ab[hi, cols].copy()
            ab[hi, cols] = ab[lo, cols]
            ab[lo, cols] = tmp
        if km > 0:
            ab[kv + 1:kv + 1 + km, j] /= ab[kv, j]
            lcol = ab[kv + 1:kv + 1 + km, j]
            for c in range(j + 1, ju + 1):
                ujc = ab[kv + j - c, c]
                if ujc != 0:
                    ab[kv + j - c + 1:kv + j - c + 1 + km, c] -= lcol * ujc
    return ab, ipiv, kl


def band_lu_solve(factor, b: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """Solve A x = b (or A^H x = b) from a band_lu_factor result."""
    ab, ipiv, kl = factor
    n = ab.shape[1]
    kv = 2 * kl
    x = np.array(b, copy=True)
    if x.ndim == 1:
        x = x[:, np.newaxis]
        squeeze = True
    else:
        squeeze = False
    if not adjoint:
        if kl > 0:
            for j in range(n - 1):
                p = ipiv[j]
                if p != j:
                    x[[j, p]] = x[[p, j]]
                km = min(kl, n - 1 - j)
                if km:
                    x[j + 1:j + 1 + km] -= ab[kv + 1:kv + 1 + km, j][:, np.newaxis] * x[j]
        for j in range(n - 1, -1, -1):
            x[j] /= ab[kv, j]
            lm = min(kv, j)
            if lm:
                x[j - lm:j] -= ab[kv - lm:kv, j][:, np.newaxis] * x[j]
    else:
        # (LU)^H: forward through U^H, then L^H with interchanges in reverse.
        for j in range(n):
            lm = min(kv, j)
            if lm:
                x[j] -= ab[kv - lm:kv, j].conj() @ x[j - lm:j]
            x[j] /= ab[kv, j].conjugate()
        if kl > 0:
            for j in range(n - 2, -1, -1):
                km = min(kl, n - 1 - j)
                if km:
                    x[j] -= ab[kv + 1:kv + 1 + km, j].conj() @ x[j + 1:j + 1 + km]
                p = ipiv[j]
                if p != j:
                    x[[j, p]] = x[[p, j]]
    return x[:, 0] if squeeze else x


class _BandedOps(_Ops):
    """Ops on full-band A and B (expand_band layout) of one bandwidth."""

    def factorize(self, z):
        kl = (self.a.shape[0] - 1) // 2
        shifted = np.zeros(self.a.shape, dtype=self.cdtype)
        shifted -= self.a
        if self.b is None:
            shifted[kl, :] += z
        else:
            shifted += z * self.b
        return band_lu_factor(shifted, kl)

    def _solve(self, factor, rhs, adjoint):
        return band_lu_solve(factor, rhs, adjoint)

    _multiply = staticmethod(band_matvec)


def _banded_driver(a, kla, b, klb, emin, emax, m0, uplo, fpm, options, x0, hermitian):
    uplo = (uplo or "F").upper()
    a = np.asarray(a)
    b = None if b is None else np.asarray(b)
    n = a.shape[1] if a.ndim == 2 else 0

    def operands(dtype):
        # Both operands share the wider bandwidth, as the shifted matrix does.
        kl = max(kla, klb if b is not None else 0)
        return [None if m is None else
                expand_band(m, k, uplo, hermitian, kl).astype(dtype, copy=False)
                for m, k in ((a, kla), (b, klb))]

    kernel, options, (fa, fb) = setup(
        "HB" if hermitian else "SB", hermitian, (a.dtype, None if b is None else b.dtype), n,
        emin, emax, m0, fpm, options, x0,
        checks=((-101, lambda: uplo not in UPLOS),
                (-103, lambda: not 0 <= kla <= max(n - 1, 0)),
                (-105, lambda: a.ndim != 2 or a.shape[0] < band_required_rows(kla, uplo)),
                (-106, lambda: b is not None and (klb is None or not 0 <= klb <= max(n - 1, 0))),
                (-108, lambda: b is not None and (b.ndim != 2 or b.shape[1] != n
                                                  or b.shape[0] < band_required_rows(klb, uplo)))),
        operands=operands, finite=(-104, -107))
    if kernel.done:
        return kernel.result
    return run_rci(kernel, _BandedOps(fa, fb, kernel._cdtype), options)


def feast_sb(a, kla, emin, emax, m0, *, uplo="F", b=None, klb=None,
             fpm=None, options=None, x0=None):
    """Real symmetric banded driver.

    ``a`` is band storage with ``kla`` sub/superdiagonals: 2*kla+1 rows for
    uplo='F' with the diagonal in row kla, or kla+1 rows holding the stored
    triangle for 'L'/'U'.  A generalized problem passes ``b``/``klb`` (the
    bandwidths may differ; the shifted matrix uses the wider one).
    """
    return _banded_driver(a, kla, b, klb, emin, emax, m0, uplo, fpm, options,
                          x0, hermitian=False)


def feast_hb(a, kla, emin, emax, m0, *, uplo="F", b=None, klb=None,
             fpm=None, options=None, x0=None):
    """Complex Hermitian banded driver; adjoint solves reuse the direct band
    factorization."""
    return _banded_driver(a, kla, b, klb, emin, emax, m0, uplo, fpm, options,
                          x0, hermitian=True)
