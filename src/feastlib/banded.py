"""Banded drivers: LAPACK-style band storage, shift-batched band LU with
partial pivoting (kl extra fill rows), band multiplies, and the feast_sb /
feast_hb entry points."""

from __future__ import annotations

import numbers

import numpy as np

from ._driver import UPLOS, SingularMatrixError, _Ops, run_rci, setup, upper_uplo


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


def band_asymmetry(fb: np.ndarray, hermitian: bool) -> float:
    """Largest |A[j + d, j] - A[j, j + d]| (A[j, j + d] conjugated when
    hermitian) of a full-band matrix in expand_band layout: each
    subdiagonal row against its superdiagonal row."""
    w = (fb.shape[0] - 1) // 2
    n = fb.shape[1]
    worst = 0.0
    for d in range(w + 1):
        sub, sup = fb[w + d, :n - d], fb[w - d, d:]
        worst = max(worst, float(np.abs(sub - (sup.conj() if hermitian else sup)).max(initial=0)))
    return worst


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


def _band_lu_batch(ab: np.ndarray, kl: int):
    """LU with partial pivoting, in place, of the g band matrices of
    bandwidth kl in the (3*K+1, g, n) array ``ab``, K >= kl: shift s holds
    its matrix in expand_band layout of width K in ``ab[K:, s]`` and zeros
    in the K pivot-fill rows above.  Elimination reaches kl rows down and
    the fill kl columns further right, so rows beyond the band stay zero.
    Returns ``(ab, ipiv)`` with the (g, n) pivot rows; _invert_blocks then
    makes the batch a solve reads.

    Pivots are chosen per shift and the rare row interchanges done per
    shift; the rank-1 update of each column is one operation over every
    shift.  Each shift's arithmetic is that of the one-shift LU, so its
    factor is bitwise the one it gets alone, up to the sign of exact zeros
    (a zero multiplier is not skipped).
    """
    rows, g, n = ab.shape
    kv = 2 * ((rows - 1) // 3)
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
    return ab, ipiv


# Columns per panel of the blocked band solves, and panels per group: a
# group's blocks are copied into one zeroed buffer, then each panel costs
# two matrix products.  On the band-herm-gen problem (n=900, kl=31, 30
# right-hand sides, one BLAS thread, 2-core x86-64 VM), with each solve
# still inverting the diagonal blocks, a direct plus an adjoint solve took
# 9.2 ms at KB=16 (12 and 24: 9.6 and 10.2 ms; 8 and 32: 12.6 and 10.3 ms),
# against 35 ms for per-row loops.  Groups of 32 panels took 8.8 ms, but
# their buffers (385 kB at kl=31) raised the peak RSS of the benchmark by
# about 0.1 MB; those of 16 panels did not.  With the inverses made once
# per factorization (_invert_blocks) the pair takes about 3.3 ms.
KB = 16
GROUP = 16


def _factor_width(kl: int, n: int) -> int:
    """Bandwidth of the band LU of an order-n matrix of bandwidth kl: at
    least KB - 1 (or n - 1), so that the inverse of each unit-lower
    diagonal block of L fits in the multiplier rows, except at kl = 0,
    where U's diagonal blocks are diagonal and L is the identity."""
    return max(kl, min(KB - 1, n - 1)) if kl else 0


def _groups(n):
    """(j0, j1, w): columns [j0, j1) in panels of w columns each, GROUP full
    panels at a time; the last n % KB columns form a group of one panel."""
    full = n - n % KB
    groups = [(j0, min(j0 + GROUP * KB, full), KB) for j0 in range(0, full, GROUP * KB)]
    return groups + [(full, n, n - full)] if full < n else groups


def _lower_blocks(ab, s, j0, j1, w):
    """Multipliers of the panels of w columns in [j0, j1) of shift s, in
    dense (panels, w + kl, w) blocks: block q holds rows [k0, k0 + w + kl)
    of L's columns [k0, k0 + w), k0 = j0 + q*w, as the factor stores them
    (each column before the later interchanges), zeros elsewhere.  Rows
    past n - 1 are zeros of the band."""
    kl = (ab.shape[0] - 1) // 3
    c = (j1 - j0) // w
    blocks = np.zeros((c, w + kl, w), ab.dtype)
    step = ab.itemsize
    # skew[q, d, t] = blocks[q, t + 1 + d, t], which band row 2*kl + 1 + d holds.
    skew = np.ndarray((c, kl, w), ab.dtype, blocks, w * step,
                      (blocks.strides[0], w * step, (w + 1) * step))
    skew[...] = ab[2 * kl + 1:, s, j0:j1].reshape(kl, c, w).transpose(1, 0, 2)
    return blocks


def _upper_blocks(ab, s, j0, j1, w, ku):
    """U of the panels of w rows in [j0, j1) of shift s, to bandwidth ku, in
    dense (panels, w, w + ku) blocks: block q holds columns [k0, k0 + w + ku)
    of U's rows [k0, k0 + w), k0 = j0 + q*w.  Columns past n - 1 hold other
    entries of the batch, which the solve never uses."""
    _, g, n = ab.shape
    kv = 2 * ((ab.shape[0] - 1) // 3)
    c = (j1 - j0) // w
    blocks = np.zeros((c, w, w + ku), ab.dtype)
    step = ab.itemsize
    # U[k0 + t, k0 + t + e] sits in band row kv - e, column k0 + t + e.
    band = np.ndarray((c, w, ku + 1), ab.dtype, ab, (kv * g * n + s * n + j0) * step,
                      (w * step, step, (1 - g * n) * step))
    np.ndarray((c, w, ku + 1), ab.dtype, blocks, 0,
               (blocks.strides[0], (w + ku + 1) * step, step))[...] = band
    return blocks


def _moved_panels(ab, ipiv):
    """Per shift, {k0: (perm, lt)} for each panel [k0, k0 + KB) with a row
    interchange.  The factor keeps each multiplier column as it was before
    the later interchanges, so such a panel's forward step is not one block
    product.  As a dense panel LU has it, the step is the window's rows in
    the order ``perm`` followed by elimination with the unit-lower block
    ``lt`` (rows [k0, min(n, k0 + KB + kl)), multipliers below the
    diagonal, the later interchanges applied); _invert_blocks then inverts
    its diagonal block."""
    kl = (ab.shape[0] - 1) // 3
    n = ab.shape[2]
    moved = []
    for s, piv in enumerate(ipiv):
        panels = {}
        for k0 in {j - j % KB for j in np.flatnonzero(piv != np.arange(n)).tolist()}:
            k1 = min(k0 + KB, n)
            lt = _lower_blocks(ab, s, k0, k1, k1 - k0)[0, :min(n, k1 + kl) - k0]
            perm = np.arange(len(lt))
            for t in np.flatnonzero(piv[k0:k1] != np.arange(k0, k1)):
                p = piv[k0 + t] - k0
                perm[[t, p]] = perm[[p, t]]
                lt[[t, p], :t] = lt[[p, t], :t]
            panels[k0] = perm, lt
        moved.append(panels)
    return moved


def _invert_unit_lower(m):
    """Invert in place the unit-lower (..., w, w) blocks ``m``, zeros above
    the diagonal: ones are put on the diagonal, then row t of the inverse is
    -m[t, :t] times the rows above it, already inverted."""
    w = m.shape[-1]
    m[..., range(w), range(w)] = 1
    for t in range(1, w):
        m[..., t, :t] = -(m[..., t:t + 1, :t] @ m[..., :t, :t])[..., 0, :]


def _invert_upper(m):
    """Invert in place the upper-triangular (..., w, w) blocks ``m``, zeros
    below the diagonal: D (I + N) becomes (I + N)^-1 D^-1, the rows of
    (I + N)^-1 built from the last up."""
    scale = 1 / np.diagonal(m, 0, -2, -1)
    m *= scale[..., :, np.newaxis]
    for t in reversed(range(m.shape[-1] - 1)):
        m[..., t, t + 1:] = -(m[..., t:t + 1, t + 1:] @ m[..., t + 1:, t + 1:])[..., 0, :]
    m *= scale[..., np.newaxis, :]


def _invert_blocks(ab, ipiv):
    """Invert in place the diagonal blocks of L and U of every shift of the
    batch ``(ab, ipiv)`` from _band_lu_batch, and return the batch
    ``(ab, ipiv, moved)`` that band_lu_solve reads (_moved_panels, each
    ``lt``'s diagonal block inverted too).

    A panel's diagonal block, packed as LU stores it, is a strided view of
    the band: entry (t, u) of the block at column k0 sits in band row
    2*kl + t - u, column k0 + u.  The inverses go back in the same places,
    inv(L11) below the diagonal and inv(U11) on and above it, which needs
    bandwidth w - 1 (_factor_width).  One stacked product per row step
    serves all shifts and full panels; no block's arithmetic depends on
    another's, so each shift is bitwise the one it gets alone.
    """
    rows, g, n = ab.shape
    kl = (rows - 1) // 3
    moved = _moved_panels(ab, ipiv)
    lts = [lt for panels in moved for _, lt in panels.values()]
    for w in {lt.shape[1] for lt in lts}:
        same = [lt[:w] for lt in lts if lt.shape[1] == w]
        blocks = np.stack(same)
        _invert_unit_lower(blocks)
        for lt, block in zip(same, blocks):
            lt[...] = block
    if kl == 0:
        ab[0] = 1 / ab[0]
        return ab, ipiv, moved
    step = ab.itemsize
    full = n - n % KB
    for j0, j1, w in ((0, full, KB), (full, n, n - full)):
        if j1 == j0:
            continue
        packed = np.ndarray((g, (j1 - j0) // w, w, w), ab.dtype, ab,
                            (2 * kl * g * n + j0) * step,
                            (n * step, w * step, g * n * step, (1 - g * n) * step))
        below = np.tri(w, k=-1, dtype=bool)
        for part, invert in ((below, _invert_unit_lower), (~below, _invert_upper)):
            blocks = np.zeros(packed.shape, ab.dtype)
            np.copyto(blocks, packed, where=part)
            invert(blocks)
            np.copyto(packed, blocks, where=part)
            del blocks  # before the next buffer is made
    return ab, ipiv, moved


def band_lu_factor(fb: np.ndarray, kl: int):
    """LU with partial pivoting of a band matrix in expand_band layout.

    The factor is a one-shift batch: the handle ``((ab, ipiv, moved), 0)``
    that band_lu_solve takes.  ``ab`` holds the factor in LAPACK's band
    layout at bandwidth K = _factor_width(kl, n): U with up to K extra
    superdiagonals of pivoting fill in the K rows above the band, and below
    the diagonal each column's multipliers, except that each diagonal block
    of L and of U holds its inverse (_invert_blocks); ``moved`` holds the
    window transforms of the panels that interchange rows (see
    band_lu_solve).  For 0 < kl < KB - 1 the rows beyond kl on either side
    are zero outside the diagonal blocks.
    """
    n = fb.shape[1]
    k = _factor_width(kl, n)
    ab = np.zeros((3 * k + 1, 1, n), dtype=np.result_type(fb.dtype, np.complex64))
    ab[2 * k - kl:2 * k + kl + 1, 0] = fb
    return _invert_blocks(*_band_lu_batch(ab, kl)), 0


def band_lu_solve(factor, b: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """Solve A x = b (or A^H x = b) for shift s of a factored batch; the
    factor is the handle ``((ab, ipiv, moved), s)``.

    Blocked in panels of KB columns (the last one n % KB wide).  The
    forward step of a panel multiplies its KB window rows by the inverse
    of the unit-lower diagonal block of L, then subtracts the L21 block
    (the next kl rows) times them; the back step subtracts the U12 block
    (the next ku columns) times the rows below, then multiplies by the
    inverse of U's diagonal block.  The adjoint solve is conj(A^T \\ conj(b)):
    the same two steps over transposed views of the U blocks, then of the L
    blocks, with x conjugated in place before and after.  The factorization
    has inverted the diagonal blocks in the band (_invert_blocks), so a solve
    only copies the blocks from the band into zeroed buffers, GROUP panels at
    a time.  The buffers are the zero padding: a block entry outside the band
    reads as zero, so the band array needs no padding rows, and the factor
    keeps no blocks.  A panel with a row interchange uses its window
    transform from factor time (_moved_panels) in place of its L blocks.

    U is read only to the bandwidth its pivots produced, ku = kl plus the
    largest pivot offset: without pivoting its upper kl rows are zeros
    outside the inverted diagonal blocks.
    """
    (ab, ipiv, moved), s = factor
    kl = (ab.shape[0] - 1) // 3
    n = ab.shape[2]
    moved = moved[s]
    ku = kl + int((ipiv[s] - np.arange(n)).max())
    b = np.asarray(b)
    x = np.array(b, dtype=np.result_type(ab.dtype, b.dtype))
    if x.ndim == 1:
        x = x[:, np.newaxis]
    groups = _groups(n)

    def lower(j0, j1, w):
        """The group's (panels, w + kl, w) L blocks, a moved panel's from
        its ``lt``, with ones on the diagonal."""
        blocks = _lower_blocks(ab, s, j0, j1, w)
        for q, k0 in enumerate(range(j0, j1, w)):
            if k0 in moved:
                lt = moved[k0][1]
                blocks[q, :len(lt)] = lt
        blocks.reshape(len(blocks), -1)[:, :w * (w + 1):w + 1] = 1
        return blocks

    # Lower- and upper-triangular sweeps over (panels, w + reach, w) and
    # (panels, w, w + reach) blocks, one call per group, so that a group's
    # buffer is freed before the next one is gathered.  Panel q of the group
    # holds rows [k0, k1); r counts the rows of its off-diagonal block inside
    # the matrix.  A moved panel's row order (``perms``) is applied before
    # its forward step on L and undone after its back step on L^T.
    def forward(blocks, j0, j1, w, reach, perms):
        for k0 in range(j0, j1, w):
            q, k1, r = (k0 - j0) // w, k0 + w, min(reach, n - k0 - w)
            if k0 in perms:
                perm = perms[k0][0]
                x[k0:k0 + len(perm)] = x[k0 + perm]
            x[k0:k1] = blocks[q, :w] @ x[k0:k1]
            x[k1:k1 + r] -= blocks[q, w:w + r] @ x[k0:k1]

    def back(blocks, j0, j1, w, reach, perms):
        for k0 in reversed(range(j0, j1, w)):
            q, k1, r = (k0 - j0) // w, k0 + w, min(reach, n - k0 - w)
            x[k0:k1] -= blocks[q, :, w:w + r] @ x[k1:k1 + r]
            x[k0:k1] = blocks[q, :, :w] @ x[k0:k1]
            if k0 in perms:
                perm = perms[k0][0]
                x[k0 + perm] = x[k0:k0 + len(perm)].copy()

    if not adjoint:
        for group in groups if kl else ():
            forward(lower(*group), *group, kl, moved)
        for group in reversed(groups):
            back(_upper_blocks(ab, s, *group, ku), *group, ku, {})
    else:
        np.conjugate(x, out=x)
        for group in groups:
            forward(_upper_blocks(ab, s, *group, ku).transpose(0, 2, 1), *group, ku, {})
        for group in reversed(groups) if kl else ():
            back(lower(*group).transpose(0, 2, 1), *group, kl, moved)
        np.conjugate(x, out=x)
    return x[:, 0] if b.ndim == 1 else x


class _BandedOps(_Ops):
    """Ops on full-band A and B (expand_band layout) of one bandwidth kl.

    All contour shifts are factorized as one batch, a (3*K+1, shifts, n)
    band array at bandwidth K = _factor_width(kl, n) (_band_lu_batch), whose
    diagonal blocks are then inverted for all shifts at once
    (_invert_blocks), and each shift is solved on its own (band_lu_solve).
    A and B keep bandwidth kl, so their multiplies read no padding rows.
    """

    def _factor(self, shifts):
        rows, n = self.a.shape
        kl = (rows - 1) // 2
        k = _factor_width(kl, n)
        ab = np.zeros((3 * k + 1, len(shifts), n), dtype=self.cdtype)
        for s, z in enumerate(shifts):
            shifted = ab[2 * k - kl:2 * k + kl + 1, s]
            shifted -= self.a
            if self.b is None:
                shifted[kl] += z
            else:
                shifted += z * self.b
        return _invert_blocks(*_band_lu_batch(ab, kl))

    _solve = staticmethod(band_lu_solve)
    _multiply = staticmethod(band_matvec)


def _banded_driver(a, kla, b, klb, emin, emax, m0, uplo, fpm, options, x0, hermitian):
    uplo = upper_uplo(uplo)
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
        operands=operands, finite=(-104, -107),
        asymmetry=lambda i, m: band_asymmetry(m, hermitian) if uplo == "F" else 0.0)
    if kernel.done:
        return kernel.result
    return run_rci(kernel, _BandedOps(fa, fb, kernel._cdtype, kernel.contour.z))


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
