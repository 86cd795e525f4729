"""CSR drivers: UPLO-aware compressed sparse row storage, an internal
complex sparse direct solver, a diagonal-preconditioned BiCGStab
alternative, and feast_scsr / feast_hcsr.

The direct solver orders the union pattern of A and B by minimum degree and
runs one symbolic analysis on it.  The numeric LU then factorizes all
contour shifts in one batch, and each triangular sweep solves every shift's
system for the common right-hand side at once.  Each Python-level step thus
does the work of all shifts, and every shift gets bitwise the factor and
solution it would get alone.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from ._driver import UPLOS, SingularMatrixError, _Ops, run_rci, setup


@dataclass
class CsrMatrix:
    """Compressed sparse row matrix with 1-based index arrays.

    ``ia`` holds n+1 row offsets with ia[0] == 1; ``ja`` holds 1-based column
    indices, strictly increasing within each row.  ``uplo`` marks whether the
    stored entries are the full matrix or only its lower/upper triangle of a
    symmetric/Hermitian matrix.
    """

    n: int
    ia: np.ndarray
    ja: np.ndarray
    values: np.ndarray
    uplo: str = "F"

    def __post_init__(self):
        self.ia = np.asarray(self.ia, dtype=np.int64)
        self.ja = np.asarray(self.ja, dtype=np.int64)
        self.values = np.asarray(self.values)
        self.uplo = self.uplo.upper()
        n, ia, ja = self.n, self.ia, self.ja
        if self.uplo not in UPLOS:
            raise ValueError(f"invalid uplo {self.uplo!r}")
        if ia.shape != (n + 1,) or ia[0] != 1:
            raise ValueError("ia must have n+1 entries starting at 1")
        if np.any(np.diff(ia) < 0):
            raise ValueError("ia must be non-decreasing")
        nnz = int(ia[-1]) - 1
        if ja.shape != (nnz,) or self.values.shape != (nnz,):
            raise ValueError("ja/values length must equal ia[n]-1")
        if nnz and (ja.min() < 1 or ja.max() > n):
            raise ValueError("column index out of range")
        rows = np.repeat(np.arange(n), np.diff(ia))
        inrow = rows[1:] == rows[:-1]
        if np.any(inrow & (np.diff(ja) <= 0)):
            raise ValueError("column indices must be strictly increasing per row")
        if self.uplo == "L" and np.any(ja - 1 > rows):
            raise ValueError("uplo='L' entry above the diagonal")
        if self.uplo == "U" and np.any(ja - 1 < rows):
            raise ValueError("uplo='U' entry below the diagonal")

    @property
    def nnz(self) -> int:
        return int(self.ia[-1]) - 1

    @classmethod
    def from_coo(cls, n, rows, cols, values, uplo="F") -> "CsrMatrix":
        """Build from 1-based coordinate triplets; duplicates are summed."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        values = np.asarray(values)
        uplo = uplo.upper()
        if len(rows) and (rows.min() < 1 or rows.max() > n or cols.min() < 1 or cols.max() > n):
            raise ValueError("coordinate index out of range 1..n")
        if uplo == "L" and np.any(cols > rows):
            raise ValueError("uplo='L' triplet above the diagonal")
        if uplo == "U" and np.any(cols < rows):
            raise ValueError("uplo='U' triplet below the diagonal")
        keys = (rows - 1) * np.int64(n) + (cols - 1)
        uniq, inverse = np.unique(keys, return_inverse=True)
        data = np.zeros(len(uniq), dtype=values.dtype)
        np.add.at(data, inverse, values)
        urows = uniq // n
        ucols = uniq % n
        counts = np.zeros(n + 1, dtype=np.int64)
        counts[0] = 1
        np.add.at(counts, urows + 1, 1)
        return cls(n, np.cumsum(counts), ucols + 1, data, uplo)

    @classmethod
    def from_dense(cls, a, uplo="F", tol=0.0) -> "CsrMatrix":
        a = np.asarray(a)
        n = a.shape[0]
        # Written so that a NaN entry is kept, not dropped as zero.
        mask = ~(np.abs(a) <= tol)
        if uplo.upper() == "L":
            mask &= np.tril(np.ones_like(mask))
        elif uplo.upper() == "U":
            mask &= np.triu(np.ones_like(mask))
        rows, cols = np.nonzero(mask)
        return cls.from_coo(n, rows + 1, cols + 1, a[rows, cols], uplo)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return csr_matvec(self, x)

    def expand_full(self) -> "CsrMatrix":
        """Return the uplo='F' matrix this storage represents."""
        if self.uplo == "F":
            return self
        rows = np.repeat(np.arange(self.n), np.diff(self.ia)) + 1
        cols = self.ja
        off = rows != cols
        refl = self.values[off].conj() if np.iscomplexobj(self.values) else self.values[off]
        all_rows = np.concatenate([rows, cols[off]])
        all_cols = np.concatenate([cols, rows[off]])
        all_vals = np.concatenate([self.values, refl])
        return CsrMatrix.from_coo(self.n, all_rows, all_cols, all_vals, "F")

    def to_dense(self) -> np.ndarray:
        full = self.expand_full()
        out = np.zeros((self.n, self.n), dtype=full.values.dtype)
        rows = np.repeat(np.arange(self.n), np.diff(full.ia))
        out[rows, full.ja - 1] = full.values
        return out

    def to_banded(self):
        """Full-storage band array (uplo='F' layout) and its bandwidth."""
        full = self.expand_full()
        rows = np.repeat(np.arange(self.n), np.diff(full.ia))
        cols = full.ja - 1
        kl = int(np.abs(rows - cols).max()) if full.nnz else 0
        ab = np.zeros((2 * kl + 1, self.n), dtype=full.values.dtype)
        ab[kl + rows - cols, cols] = full.values
        return ab, kl


def csr_matvec(m: CsrMatrix, x: np.ndarray) -> np.ndarray:
    """Multiply by a CSR matrix, expanding uplo='L'/'U' storage first
    (off-diagonal entries also applied transposed, conjugated when complex).
    """
    full = m.expand_full()
    return _csr_block_matvec(full.ia - 1, full.ja - 1, full.values, np.asarray(x))


def _csr_block_matvec(indptr, indices, data, x):
    """Row-sorted CSR block multiply (0-based arrays, full pattern)."""
    n = len(indptr) - 1
    single = x.ndim == 1
    xb = x[:, np.newaxis] if single else x
    y = np.zeros((n, xb.shape[1]), dtype=np.result_type(data.dtype, x.dtype))
    if len(indices):
        contrib = data[:, np.newaxis] * xb[indices]
        nonempty = np.flatnonzero(np.diff(indptr) > 0)
        y[nonempty] = np.add.reduceat(contrib, indptr[nonempty], axis=0)
    return y[:, 0] if single else y


# --- internal sparse direct solver ------------------------------------------


def _minimum_degree_order(n, adj):
    """Greedy minimum-degree elimination order on a symmetric graph.

    ``adj`` is a list of vertex sets (no self loops); it is consumed.
    """
    heap = [(len(adj[v]), v) for v in range(n)]
    heapq.heapify(heap)
    eliminated = np.zeros(n, dtype=bool)
    perm = np.empty(n, dtype=np.int64)
    pos = 0
    while heap:
        d, v = heapq.heappop(heap)
        if eliminated[v] or d != len(adj[v]):
            continue
        eliminated[v] = True
        perm[pos] = v
        pos += 1
        nbrs = adj[v]
        for u in nbrs:
            s = adj[u]
            s.discard(v)
            s |= nbrs
            s.discard(u)
            s.discard(v)
            heapq.heappush(heap, (len(s), u))
        adj[v] = set()
    return perm


class _SparseSymbolic:
    """Pattern analysis of a symmetric-pattern matrix: fill-reducing order,
    L/U fill structure, and scatter maps from the stored data array into
    permuted columns.  Shared read-only across all shifts."""

    def __init__(self, n, indptr, indices):
        self.n = n
        adj = [set() for _ in range(n)]
        rows = np.repeat(np.arange(n), np.diff(indptr))
        for r, c in zip(rows.tolist(), indices.tolist()):
            if r != c:
                adj[r].add(c)
        self.perm = _minimum_degree_order(n, adj)
        self.iperm = np.empty(n, dtype=np.int64)
        self.iperm[self.perm] = np.arange(n)

        # Scatter maps for permuted column j.  The row pattern of perm[j]
        # lists that column's row indices (pattern symmetry), but the values
        # live at the transposed entries, so map each entry to its partner's
        # data position.
        keys = rows * np.int64(n) + indices
        tpos = np.searchsorted(keys, indices * np.int64(n) + rows)
        self.col_rows = []
        self.col_src = []
        for j in range(n):
            oj = int(self.perm[j])
            lo, hi = int(indptr[oj]), int(indptr[oj + 1])
            newrows = self.iperm[indices[lo:hi]]
            order = np.argsort(newrows)
            self.col_rows.append(newrows[order])
            self.col_src.append(tpos[lo:hi][order])

        # Symbolic fill: column patterns of L propagate to the parent column
        # (first below-diagonal nonzero).
        sets = [set(int(i) for i in self.col_rows[j] if i > j) for j in range(n)]
        self.lrows = []
        for j in range(n):
            s = sets[j]
            self.lrows.append(np.array(sorted(s), dtype=np.int64))
            if s:
                parent = min(s)
                sets[parent] |= s - {parent}
            sets[j] = None
        urows = [[] for _ in range(n)]
        for k in range(n):
            for i in self.lrows[k].tolist():
                urows[i].append(k)
        self.urows = [np.array(u, dtype=np.int64) for u in urows]


class _SparseFactor:
    """Numeric LU of shifted matrices on a shared symbolic analysis.

    ``data`` is one shifted data vector of shape (nnz,) or a stack of shape
    (ne, nnz), one row per shift.  Each elimination step carries every shift
    at once: the work vector, the L and U values and the diagonal have a
    trailing shift axis of length ne.  The arithmetic is elementwise along
    that axis, so each shift's factor is bitwise the one it gets alone.
    """

    def __init__(self, symbolic: _SparseSymbolic, data: np.ndarray):
        self.sym = symbolic
        n = symbolic.n
        src = np.ascontiguousarray(np.atleast_2d(data).T)  # (nnz, ne)
        self.ne = src.shape[1]
        w = np.zeros((n, self.ne), dtype=src.dtype)
        diag = np.empty((n, self.ne), dtype=src.dtype)
        lvals = []
        uvals = []
        lrows, urows = symbolic.lrows, symbolic.urows
        for j in range(n):
            w[symbolic.col_rows[j]] = src[symbolic.col_src[j]]
            # Left-looking: row k of w is final once its own update is
            # applied, so U's column is read off after the loop.  A zero
            # multiplier is not skipped; it subtracts exact zeros.
            for k in urows[j].tolist():
                w[lrows[k]] -= w[k] * lvals[k]
            d = w[j]
            bad = (d == 0) | ~np.isfinite(d)
            if bad.any():
                raise SingularMatrixError(
                    f"zero pivot at sparse column {j} (shift {int(np.argmax(bad))})")
            diag[j] = d
            lvals.append(w[lrows[j]] / d)
            uvals.append(w[urows[j]])
            w[symbolic.col_rows[j]] = 0
            w[lrows[j]] = 0
            w[urows[j]] = 0
            w[j] = 0
        self.diag = diag
        self.lvals = lvals
        self.uvals = uvals

    def sweep(self, b: np.ndarray, adjoint: bool = False) -> np.ndarray:
        """Solve every shift's system, or with ``adjoint`` its conjugate
        transpose, for the (n, m) block ``b``.

        Returns y of shape (n, ne, m) in permuted row order; ``pick`` reads
        one shift's solution out of it.
        """
        sym = self.sym
        n = sym.n
        dtype = np.result_type(self.diag.dtype, b.dtype)
        lrows, urows = sym.lrows, sym.urows
        lvals, uvals = self.lvals, self.uvals
        if not adjoint:
            y = np.empty((n, self.ne, b.shape[1]), dtype=dtype)
            y[:] = b[sym.perm][:, np.newaxis]
            for j in range(n):
                if lrows[j].size:
                    y[lrows[j]] -= lvals[j][:, :, np.newaxis] * y[j]
            diag = self.diag[:, :, np.newaxis]
            for j in range(n - 1, -1, -1):
                y[j] /= diag[j]
                if urows[j].size:
                    y[urows[j]] -= uvals[j][:, :, np.newaxis] * y[j]
            return y
        # Row j of each shift is a vector-matrix product.  Stored shift-major,
        # each shift's operands are contiguous, as for one shift, so the
        # stacked product (ne, 1, k) @ (ne, k, m) rounds as it does alone.
        y = np.empty((self.ne, n, b.shape[1]), dtype=dtype)
        y[:] = b[sym.perm]
        diag = self.diag.conj()[:, :, np.newaxis]
        for j in range(n):
            if urows[j].size:
                u = np.conjugate(uvals[j].T, order="C")[:, np.newaxis]
                y[:, j] -= (u @ y[:, urows[j]])[:, 0]
            y[:, j] /= diag[j]
        for j in range(n - 1, -1, -1):
            if lrows[j].size:
                lv = np.conjugate(lvals[j].T, order="C")[:, np.newaxis]
                y[:, j] -= (lv @ y[:, lrows[j]])[:, 0]
        return y.transpose(1, 0, 2)

    def pick(self, y: np.ndarray, shift: int) -> np.ndarray:
        """Shift ``shift``'s (n, m) solution, in original row order, from
        the output of ``sweep``."""
        return y[self.sym.iperm, shift]

    def solve(self, b: np.ndarray, adjoint: bool = False) -> np.ndarray:
        """Solve with a one-shift factor; ``b`` is (n,) or (n, m)."""
        if self.ne != 1:
            raise ValueError("solve needs a one-shift factor; use sweep and pick")
        single = b.ndim == 1
        out = self.pick(self.sweep(b[:, np.newaxis] if single else b, adjoint), 0)
        return out[:, 0] if single else out


# --- shifted-system assembly -------------------------------------------------


class _ShiftedPattern:
    """Union sparsity pattern of the expanded A and B with aligned data
    vectors, so each shifted matrix is a single vectorized combination
    z * b_data - a_data."""

    def __init__(self, a_full: CsrMatrix, b_full: CsrMatrix | None):
        n = a_full.n
        ra = np.repeat(np.arange(n), np.diff(a_full.ia))
        ka = ra * np.int64(n) + (a_full.ja - 1)
        if b_full is None:
            kb = np.arange(n, dtype=np.int64) * np.int64(n) + np.arange(n)
            vb = np.ones(n, dtype=a_full.values.dtype)
        else:
            rb = np.repeat(np.arange(n), np.diff(b_full.ia))
            kb = rb * np.int64(n) + (b_full.ja - 1)
            vb = b_full.values
        keys = np.concatenate([ka, kb])
        uniq, inverse = np.unique(keys, return_inverse=True)
        self.n = n
        self.rows = (uniq // n).astype(np.int64)
        self.cols = (uniq % n).astype(np.int64)
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.add.at(self.indptr, self.rows + 1, 1)
        self.indptr = np.cumsum(self.indptr)
        self.indices = self.cols
        cdtype = np.result_type(a_full.values.dtype, vb.dtype, np.complex64)
        self.a_data = np.zeros(len(uniq), dtype=cdtype)
        self.b_data = np.zeros(len(uniq), dtype=cdtype)
        self.a_data[inverse[: len(ka)]] = a_full.values
        self.b_data[inverse[len(ka):]] = vb

    def shifted_data(self, z: complex) -> np.ndarray:
        return z * self.b_data - self.a_data


# --- iterative inner solver ---------------------------------------------------


def _bicgstab(matvec, diag, b, tol, maxiter):
    """Diagonal-preconditioned BiCGStab for one right-hand side."""
    x = np.zeros_like(b)
    r = b.copy()
    bnorm = np.linalg.norm(b)
    if bnorm == 0:
        return x
    rhat = r.copy()
    rho = alpha = omega = 1.0 + 0j
    v = np.zeros_like(b)
    p = np.zeros_like(b)
    for _ in range(maxiter):
        rho1 = np.vdot(rhat, r)
        if rho1 == 0:
            raise SingularMatrixError("BiCGStab breakdown (rho = 0)")
        beta = (rho1 / rho) * (alpha / omega)
        p = r + beta * (p - omega * v)
        phat = p / diag
        v = matvec(phat)
        denom = np.vdot(rhat, v)
        if denom == 0:
            raise SingularMatrixError("BiCGStab breakdown (rhat.v = 0)")
        alpha = rho1 / denom
        s = r - alpha * v
        if np.linalg.norm(s) <= tol * bnorm:
            return x + alpha * phat
        shat = s / diag
        t = matvec(shat)
        tt = np.vdot(t, t)
        if tt == 0:
            raise SingularMatrixError("BiCGStab breakdown (t = 0)")
        omega = np.vdot(t, s) / tt
        x = x + alpha * phat + omega * shat
        r = s - omega * t
        if np.linalg.norm(r) <= tol * bnorm:
            return x
        rho = rho1
    raise SingularMatrixError(f"BiCGStab did not reach tol={tol} in {maxiter} iterations")


class _IterativeFactor:
    def __init__(self, pattern: _ShiftedPattern, z: complex, tol: float):
        self.pattern = pattern
        self.tol = tol
        # (z*B - A)^H equals conj(z)*B - A for Hermitian/symmetric A, B.
        self.systems = {adjoint: self._system(pattern.shifted_data(shift))
                        for adjoint, shift in ((False, z), (True, complex(z).conjugate()))}

    def _system(self, data):
        """Shifted data and its diagonal preconditioner (zeros read as 1)."""
        p = self.pattern
        on_diag = p.rows == p.cols
        diag = np.zeros(p.n, dtype=data.dtype)
        diag[p.rows[on_diag]] = data[on_diag]
        diag[diag == 0] = 1.0
        return data, diag

    def solve(self, rhs, adjoint=False):
        p = self.pattern
        data, diag = self.systems[adjoint]
        maxiter = max(8 * p.n, 200)
        out = np.empty_like(rhs)
        for k in range(rhs.shape[1]):
            out[:, k] = _bicgstab(
                lambda v: _csr_block_matvec(p.indptr, p.indices, data, v),
                diag, rhs[:, k].astype(data.dtype), self.tol, maxiter)
        return out


# --- driver glue ---------------------------------------------------------------


class _SparseOps(_Ops):
    """Backend ops of the CSR drivers.

    With the direct solver, all contour ``shifts`` are factorized in one
    batch (see ``_Ops``).  Per solve direction, the batched solution of the
    last right-hand side is kept with that right-hand side: a request with
    an equal one is served from it, any other runs a new batched sweep.
    The solution is dropped after as many requests as there are shifts, so
    that it is not held through the rest of the refinement loop.
    """

    def __init__(self, a_full, b_full, solver, iter_tol, shifts):
        super().__init__(a_full, b_full, shifts=shifts)
        self.pattern = _ShiftedPattern(a_full, b_full)
        self.solver = solver
        self.iter_tol = iter_tol
        self.symbolic = None
        if solver == "direct":
            self.symbolic = _SparseSymbolic(
                self.pattern.n, self.pattern.indptr, self.pattern.indices)
        # adjoint flag -> [factor, right-hand side, sweep output, requests served]
        self._solutions = {False: None, True: None}

    def _factor(self, shifts):
        return _SparseFactor(
            self.symbolic, np.stack([self.pattern.shifted_data(z) for z in shifts]))

    def factorize(self, z):
        if self.solver != "direct":
            return _IterativeFactor(self.pattern, z, self.iter_tol)
        return super().factorize(z)

    def _solve(self, factor, rhs, adjoint):
        if self.solver != "direct":
            return factor.solve(rhs, adjoint=adjoint)
        batch, shift = factor
        with self._lock:
            held = self._solutions[adjoint]
            if held is None or held[0] is not batch or not np.array_equal(held[1], rhs):
                # Drop the old buffer before the sweep allocates the new one.
                held = self._solutions[adjoint] = None
                y = batch.sweep(rhs, adjoint)
                held = self._solutions[adjoint] = [batch, rhs.copy(), y, 0]
            held[3] += 1
            if held[3] == batch.ne:
                self._solutions[adjoint] = None
            return batch.pick(held[2], shift)

    _multiply = staticmethod(csr_matvec)


def _full_csr(m: CsrMatrix, dtype) -> CsrMatrix:
    """uplo='F' form of ``m`` with values of type ``dtype``."""
    full = m.expand_full()
    if full.values.dtype == dtype:
        return full
    return CsrMatrix(full.n, full.ia, full.ja, full.values.astype(dtype), "F")


def csr_asymmetry(m: CsrMatrix, hermitian: bool) -> float:
    """Largest |M[i, j] - M[j, i]| (M[j, i] conjugated when hermitian) of a
    CSR matrix, an absent entry counting as zero: each stored entry is
    looked up at its mirror position among the sorted row-major keys."""
    if m.nnz == 0:
        return 0.0
    rows = np.repeat(np.arange(m.n, dtype=np.int64), np.diff(m.ia))
    cols = m.ja - 1
    keys = rows * m.n + cols
    mirror = cols * m.n + rows
    at = np.minimum(np.searchsorted(keys, mirror), m.nnz - 1)
    partner = np.where(keys[at] == mirror, m.values[at], 0)
    return float(np.abs(m.values - (partner.conj() if hermitian else partner)).max())


def _sparse_driver(a, b, emin, emax, m0, fpm, options, x0, hermitian):
    if not isinstance(a, CsrMatrix):
        raise TypeError("a must be a CsrMatrix")
    if b is not None and not isinstance(b, CsrMatrix):
        raise TypeError("b must be a CsrMatrix")
    kernel, options, (a_full, b_full) = setup(
        "HCSR" if hermitian else "SCSR", hermitian,
        (a.values.dtype, None if b is None else b.values.dtype), a.n,
        emin, emax, m0, fpm, options, x0,
        checks=((-106, lambda: b is not None and b.n != a.n),),
        operands=lambda dtype: [None if m is None else _full_csr(m, dtype) for m in (a, b)],
        finite=(-103, -106),
        asymmetry=lambda i, m: csr_asymmetry(m, hermitian) if (a, b)[i].uplo == "F" else 0.0)
    if kernel.done:
        return kernel.result
    ops = _SparseOps(a_full, b_full, options.solver, options.iter_tol, kernel.contour.z)
    return run_rci(kernel, ops, options)


def feast_scsr(a, emin, emax, m0, *, b=None, fpm=None, options=None, x0=None):
    """Real symmetric CSR driver.

    ``a`` (and ``b`` for generalized problems) are CsrMatrix values; their
    sparsity patterns may differ; the shifted systems are factorized on the
    union pattern.  ``options.solver`` selects the internal direct LU or the
    diagonal-preconditioned BiCGStab inner solver.
    """
    return _sparse_driver(a, b, emin, emax, m0, fpm, options, x0, hermitian=False)


def feast_hcsr(a, emin, emax, m0, *, b=None, fpm=None, options=None, x0=None):
    """Complex Hermitian CSR driver; adjoint solves are served from the same
    factorization (the adjoint of a shifted matrix is the conjugate shift)."""
    return _sparse_driver(a, b, emin, emax, m0, fpm, options, x0, hermitian=True)
