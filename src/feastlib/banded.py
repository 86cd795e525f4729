"""Banded drivers: LAPACK-style band storage, shift-batched band LU with
partial pivoting (kl extra fill rows), band multiplies, and the feast_sb /
feast_hb entry points."""

from __future__ import annotations

import numbers

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


# numpy advises huge pages (madvise MADV_HUGEPAGE) for an array of this many
# bytes or more; the pivot-fill rows of such a batch become resident even
# where no shift pivots, while in a smaller array they are never touched.
HUGE_PAGE_BYTES = 1 << 22


def _band_lu_batch(ab: np.ndarray, kl: int) -> np.ndarray:
    """LU with partial pivoting, in place, of the g band matrices of the
    (3*kl+1, g, n) array ``ab``: shift s holds its matrix in expand_band
    layout in ``ab[kl:, s]`` and zeros in the kl pivot-fill rows above.
    Returns the (g, n) pivot rows.

    Pivots are chosen per shift and the rare row interchanges done per
    shift; the rank-1 update of each column is one operation over every
    shift.  Each shift's arithmetic is that of the one-shift LU, so its
    factor is bitwise the one it gets alone, up to the sign of exact zeros
    (a zero multiplier is not skipped).
    """
    _, g, n = ab.shape
    kv = 2 * kl
    step = ab.itemsize
    every = np.arange(g)
    ipiv = np.tile(np.arange(n), (g, 1))
    ju = np.zeros(g, dtype=np.intp)  # per shift: last column U's rows reach so far
    for j in range(n):
        km = min(kl, n - 1 - j)
        col = ab[kv:kv + km + 1, :, j]
        jp = np.argmax(np.abs(col), axis=0)
        zero = col[jp, every] == 0
        if zero.any():
            raise SingularMatrixError(
                f"zero pivot at band column {j} (shift {int(np.argmax(zero))})")
        ipiv[:, j] += jp
        np.maximum(ju, np.minimum(j + kl + jp, n - 1), out=ju)
        for s in np.flatnonzero(jp):
            cols = np.arange(j, ju[s] + 1)
            hi = kv + jp[s] + j - cols
            lo = kv + j - cols
            ab[hi, s, cols], ab[lo, s, cols] = ab[lo, s, cols], ab[hi, s, cols]
        if km > 0:
            col[1:] /= col[0]
            # window[t, u, s] = A_s[j + t, j + 1 + u] for u < max(ju) - j:
            # row t = 0 is U's row j, rows 1..km take the rank-1 update.
            window = np.ndarray((km + 1, int(ju.max()) - j, g), ab.dtype, ab,
                                ((kv - 1) * g * n + j + 1) * step,
                                (g * n * step, (1 - g * n) * step, n * step))
            window[1:] -= col[1:, np.newaxis] * window[0]
    return ipiv


def band_lu_factor(fb: np.ndarray, kl: int):
    """LU with partial pivoting of a band matrix in expand_band layout.

    The factor is a one-shift batch: the handle ``((ab, ipiv, kl), 0)``
    that band_lu_solve takes.  Pivoting fills up to kl extra
    superdiagonals, kept in kl rows above the band.
    """
    n = fb.shape[1]
    ab = np.zeros((3 * kl + 1, 1, n), dtype=np.result_type(fb.dtype, np.complex64))
    ab[kl:, 0] = fb
    return (ab, _band_lu_batch(ab, kl), kl), 0


def band_lu_solve(factor, b: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """Solve A x = b (or A^H x = b) for shift s of a factored batch; the
    factor is the handle ``((ab, ipiv, kl), s)``.

    U is read only to the bandwidth its pivots produced, ku = kl plus the
    largest pivot offset: without pivoting its upper kl rows are zeros.
    """
    (ab, ipiv, kl), s = factor
    _, g, n = ab.shape
    kv = 2 * kl
    piv = ipiv[s]
    ku = kl + int((piv - np.arange(n)).max())
    band = ab[:, s]
    step = ab.itemsize
    # urow[j, t] = U[j, j + t]; entries past column n - 1 are never read.
    urow = np.ndarray((n, ku + 1), ab.dtype, ab, (kv * g * n + s * n) * step,
                      (step, (1 - g * n) * step))
    x = np.array(b, copy=True)
    if x.ndim == 1:
        x = x[:, np.newaxis]
        squeeze = True
    else:
        squeeze = False
    if not adjoint:
        if kl > 0:
            for j in range(n - 1):
                p = piv[j]
                if p != j:
                    x[[j, p]] = x[[p, j]]
                km = min(kl, n - 1 - j)
                x[j + 1:j + 1 + km] -= band[kv + 1:kv + 1 + km, j][:, np.newaxis] * x[j]
        for j in range(n - 1, -1, -1):
            k = min(ku, n - 1 - j)
            if k:
                x[j] -= urow[j, 1:1 + k] @ x[j + 1:j + 1 + k]
            x[j] /= urow[j, 0]
    else:
        # (LU)^H: forward through U^H, then L^H with interchanges in reverse.
        for j in range(n):
            lm = min(ku, j)
            if lm:
                x[j] -= band[kv - lm:kv, j].conj() @ x[j - lm:j]
            x[j] /= band[kv, j].conjugate()
        if kl > 0:
            for j in range(n - 2, -1, -1):
                km = min(kl, n - 1 - j)
                x[j] -= band[kv + 1:kv + 1 + km, j].conj() @ x[j + 1:j + 1 + km]
                p = piv[j]
                if p != j:
                    x[[j, p]] = x[[p, j]]
    return x[:, 0] if squeeze else x


class _BandedOps(_Ops):
    """Ops on full-band A and B (expand_band layout) of one bandwidth.

    The contour shifts are factorized in batches of as many shifts as keep
    one batch array under HUGE_PAGE_BYTES (at least one).
    """

    def _batch_size(self):
        kl = (self.a.shape[0] - 1) // 2
        per_shift = (3 * kl + 1) * self.a.shape[1] * np.dtype(self.cdtype).itemsize
        return max(1, (HUGE_PAGE_BYTES - 1) // per_shift)

    def _factor(self, shifts):
        rows, n = self.a.shape
        kl = (rows - 1) // 2
        ab = np.zeros((3 * kl + 1, len(shifts), n), dtype=self.cdtype)
        for s, z in enumerate(shifts):
            shifted = ab[kl:, s]
            shifted -= self.a
            if self.b is None:
                shifted[kl] += z
            else:
                shifted += z * self.b
        return ab, _band_lu_batch(ab, kl), kl

    _solve = staticmethod(band_lu_solve)
    _multiply = staticmethod(band_matvec)


def _banded_driver(a, kla, b, klb, emin, emax, m0, uplo, fpm, options, x0, hermitian):
    uplo = (uplo or "F").upper()
    a = np.asarray(a)
    b = None if b is None else np.asarray(b)
    n = a.shape[1] if a.ndim == 2 else 0

    def bandwidth_ok(k):
        # numbers.Integral covers Python and numpy integers, not None or floats.
        return isinstance(k, numbers.Integral) and 0 <= k <= max(n - 1, 0)

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
                (-103, lambda: not bandwidth_ok(kla)),
                (-105, lambda: a.ndim != 2 or a.shape[0] < band_required_rows(kla, uplo)),
                (-106, lambda: b is not None and not bandwidth_ok(klb)),
                (-108, lambda: b is not None and (b.ndim != 2 or b.shape[1] != n
                                                  or b.shape[0] < band_required_rows(klb, uplo)))),
        operands=operands, finite=(-104, -107))
    if kernel.done:
        return kernel.result
    return run_rci(kernel, _BandedOps(fa, fb, kernel._cdtype, kernel.contour.z), options)


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
