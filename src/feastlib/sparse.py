"""CSR drivers: UPLO-aware compressed sparse row storage, an internal
complex sparse direct solver, a diagonal-preconditioned BiCGStab
alternative, and feast_scsr / feast_hcsr.  The direct solver also serves
the band drivers (``banded``), on the CSR of a band's nonzero entries.

The direct solver orders the union pattern of A and B by nested dissection
and runs one symbolic analysis on it.  The separators and leaves of the
dissection form its assembly tree.  Small nodes are merged into their
parents while the merged node has at most SUPERNODE columns (relaxed
supernodes); each resulting supernode's columns are factorized together as
one dense front (multifrontal LU): one Python-level step does the work of
a block of columns, with matrix products.  The merging stores explicit
zeros (42,258 entries of L on a 40 x 40 grid, against 28,339 unmerged) in
exchange for far fewer fronts (128 against 356), because a front's cost
there is mostly numpy call overhead.  Minimum degree, which nested
dissection replaced, gives less fill (21,504 entries) but supernodes of
about one column, so its factorization took one Python-level update per
entry of L.  Where the natural order makes less fill, as on a full band
(34,794 entries against 62,207 at n=900, kl=31), the one analysis switches
to a chain of SUPERNODE-column supernodes before it builds positions.  Each
supernode's pivot block is inverted by LAPACK, with partial pivoting
inside the block (none across blocks: the order is fixed by the symbolic
analysis), and the factor keeps the inverse with F21 inv and inv F12, so
that a sweep takes one matrix product per supernode forward and two back.
The factor keeps this block form (``_driver._BlockFactor``), whose one
sweep solves the systems of a slice of consecutive shifts for a common
right-hand side at once: all shifts for a real symmetric driver, half of
them at a time, each way, for a Hermitian one (see ``_driver._Ops``).
The numeric LU factorizes all contour shifts in one batch, and every
shift gets bitwise the factor and solution it would get alone.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from ._driver import UPLOS, SingularMatrixError, _BlockFactor, _Ops, run_rci, setup, upper_uplo


def _checked_uplo(uplo):
    """``uplo`` in upper case, 'F' for None or ''; ValueError outside UPLOS."""
    if upper_uplo(uplo) not in UPLOS:
        raise ValueError(f"invalid uplo {uplo!r}")
    return upper_uplo(uplo)


def _integers(name, values):
    """``values`` as an int64 array; ValueError naming ``name`` unless every
    entry is an integer (an integer-valued float included)."""
    values = np.asarray(values)
    kind = values.dtype.kind
    if not (kind in "iu" or kind == "f" and (np.abs(values) < 2.0**63).all()
            and (values == np.round(values)).all()):
        raise ValueError(f"{name} must hold integers")
    return values.astype(np.int64)


def _size(n):
    """``n`` as an int; ValueError unless it is a non-negative integer."""
    size = _integers("n", n)
    if size.ndim or size < 0:
        raise ValueError("n must be a non-negative integer")
    return int(size)


@dataclass
class CsrMatrix:
    """Compressed sparse row matrix with 1-based index arrays.

    ``ia`` holds n+1 row offsets with ia[0] == 1; ``ja`` holds 1-based column
    indices, strictly increasing within each row.  ``uplo`` marks whether the
    stored entries are the full matrix or only its lower/upper triangle of a
    symmetric/Hermitian matrix.  ``n`` and the index arrays must hold
    integers (integer-valued floats are accepted), else ValueError names
    the one that does not.
    """

    n: int
    ia: np.ndarray
    ja: np.ndarray
    values: np.ndarray
    uplo: str = "F"

    def __post_init__(self):
        self.n = _size(self.n)
        self.ia = _integers("ia", self.ia)
        self.ja = _integers("ja", self.ja)
        self.values = np.asarray(self.values)
        self.uplo = _checked_uplo(self.uplo)
        n, ia, ja = self.n, self.ia, self.ja
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

    @functools.cached_property
    def _classes(self):
        """Padded row classes of the stored pattern, for csr_matvec."""
        return _row_classes(self.ia - 1, self.ja - 1)

    @classmethod
    def from_coo(cls, n, rows, cols, values, uplo="F") -> "CsrMatrix":
        """Build from 1-based coordinate triplets; duplicates are summed.
        ``rows``, ``cols`` and ``values`` must be 1-D and of one length."""
        n = _size(n)
        rows = _integers("rows", rows)
        cols = _integers("cols", cols)
        values = np.asarray(values)
        if not (values.ndim == 1 and rows.shape == cols.shape == values.shape):
            raise ValueError("rows, cols and values must be 1-D and of one length, not of shapes "
                             f"{rows.shape}, {cols.shape} and {values.shape}")
        uplo = _checked_uplo(uplo)
        if len(rows) and (rows.min() < 1 or rows.max() > n or cols.min() < 1 or cols.max() > n):
            raise ValueError("coordinate index out of range 1..n")
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
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"a must be a square 2-D array, not of shape {a.shape}")
        uplo = _checked_uplo(uplo)
        n = a.shape[0]
        # Written so that a NaN entry is kept, not dropped as zero.
        mask = ~(np.abs(a) <= tol)
        if uplo == "L":
            mask &= np.tril(np.ones_like(mask))
        elif uplo == "U":
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
    return _csr_block_matvec(full.n, full._classes, full.values, np.asarray(x))


def _row_classes(indptr, indices):
    """The non-empty rows of a CSR pattern (0-based arrays) grouped by
    length, lengths in (2^(c-1), 2^c] forming class c, as (rows, positions,
    columns) triples: each class's data positions and column indices padded
    to its longest row, the padding pointing one past the last entry and
    one past the last column.  So the padded arrays hold fewer than twice
    nnz entries whatever the row lengths."""
    lengths = np.diff(indptr)
    rows = np.flatnonzero(lengths)
    classes = np.ceil(np.log2(lengths[rows])).astype(np.int64)
    padded_cols = np.append(indices, len(indptr) - 1)
    out = []
    for c in np.unique(classes):
        r = rows[classes == c]
        step = np.arange(lengths[r].max())
        at = np.where(step < lengths[r][:, np.newaxis],
                      indptr[r][:, np.newaxis] + step, len(indices))
        out.append((r, at, padded_cols[at]))
    return out


def _csr_block_matvec(n, classes, data, x):
    """Block multiply by the n x n CSR matrix with row classes ``classes``
    (see ``_row_classes``, full pattern) and entries ``data``.

    Each class is stacked products of its padded data rows (r, 1, w) with
    the gathered rows of x (r, w, m), max(1, n // w) rows at a time so that
    no gathered block is larger than x; the padding multiplies a zero by an
    appended zero row of x.
    """
    single = x.ndim == 1
    xb = x[:, np.newaxis] if single else x
    dtype = np.result_type(data.dtype, x.dtype)
    y = np.zeros((n, xb.shape[1]), dtype=dtype)
    if classes:
        padded_x = np.concatenate([xb, np.zeros((1, xb.shape[1]), dtype=xb.dtype)])
        padded_data = np.append(data, 0).astype(dtype, copy=False)
        for rows, at, cols in classes:
            step = max(1, n // at.shape[1])
            for c in range(0, len(rows), step):
                part = slice(c, c + step)
                y[rows[part]] = (padded_data[at[part]][:, np.newaxis] @ padded_x[cols[part]])[:, 0]
    return y[:, 0] if single else y


# --- internal sparse direct solver ------------------------------------------

# A part of at most this many vertices is not dissected further: it becomes
# one node of the assembly tree.
LEAF = 8

# Relaxed supernodes: a node of the assembly tree is merged into its
# parent's supernode while the merged supernode has at most this many
# columns.  On the 40 x 40 grid with 8 shifts and one BLAS thread (medians
# of 15 interleaved rounds in one process), no merging leaves 356
# supernodes, an 8-shift factor of 4.2 MB made in 34 ms, and sweeps of 8.0
# ms (1 column) and 30 ms (30 columns); 12 leaves 189 supernodes, 5.4 MB,
# 32 ms, 5.3 and 20 ms; 16 leaves 128, 6.8 MB, 24 ms, 3.7 and 20 ms; 24
# leaves 92, 8.1 MB, 32 ms, 3.1 and 16 ms.  At 16 the csr-direct
# benchmark's solve takes 23% less time and its peak RSS is 4.9% higher,
# the larger factor held while a sweep's output exists.
SUPERNODE = 16


def _nested_dissection(n, adj):
    """Nested-dissection order of a graph from breadth-first level
    structures, and its assembly tree.

    ``adj`` lists each vertex's neighbours (symmetric, no self loops).  Each
    connected part is searched from a pseudo-peripheral vertex (a vertex of
    least degree in the last level of a first search), its middle level is
    the separator, ordered after the rest, and each connected component of
    the rest is dissected in turn.  A part of at most LEAF vertices, or one
    with fewer than 3 levels, is a leaf.  Returns the tree's vertex sets,
    children before parents (a postorder), and each one's parent (-1 for a
    root: one per connected component of the graph).
    """
    part_of = [0] * n   # id of the part a vertex is in; -1 once in a separator
    seen = [0] * n      # id of the last search that reached a vertex
    ids = itertools.count(1)

    def levels(start, part):
        tag = next(ids)
        seen[start] = tag
        out = [[start]]
        while True:
            nxt = []
            for v in out[-1]:
                for w in adj[v]:
                    if part_of[w] == part and seen[w] != tag:
                        seen[w] = tag
                        nxt.append(w)
            if not nxt:
                return out
            out.append(nxt)

    def components(vertices):
        """The connected components of ``vertices``, each as a new part id
        and its level structure from its first vertex."""
        part = next(ids)
        for v in vertices:
            part_of[v] = part
        comps = []
        for v in vertices:
            if part_of[v] == part:
                lv = levels(v, part)
                new = next(ids)
                for level in lv:
                    for w in level:
                        part_of[w] = new
                comps.append((new, lv))
        return comps

    nodes, parents = [], []
    work = [(part, lv, -1) for part, lv in components(range(n))]
    while work:
        part, lv, parent = work.pop()
        node = len(nodes)
        parents.append(parent)
        big = sum(map(len, lv)) > LEAF
        if big:
            lv = levels(min(lv[-1], key=lambda v: len(adj[v])), part)
        if not big or len(lv) < 3:
            nodes.append([v for level in lv for v in level])
            continue
        sep = lv[len(lv) // 2]
        for v in sep:
            part_of[v] = -1
        nodes.append(sep)
        rest = [v for level in lv for v in level if part_of[v] == part]
        work.extend((p, sub, node) for p, sub in components(rest))
    # Nodes were made in a depth-first preorder, each after its parent, so
    # the reverse order is a postorder.
    last = len(nodes) - 1
    return nodes[::-1], [-1 if p < 0 else last - p for p in parents[::-1]]


def _amalgamate(nodes, parent):
    """Relaxed supernodes of an assembly tree given in postorder, as
    ``_nested_dissection`` returns it.

    Walking the tree in postorder, each node's group is merged into its
    parent's group while the merged group has at most SUPERNODE vertices;
    a node wider than that stays on its own.  Each group is a connected
    subtree, named by its top node.  Returns the groups' vertex lists, the
    vertices in their old postorder, ordered by top node (again a
    postorder), and each group's parent.
    """
    size = [len(node) for node in nodes]
    top = list(range(len(nodes)))
    for s, p in enumerate(parent):
        # A node's own group is complete here: its children came before it.
        if p >= 0 and size[s] + size[p] <= SUPERNODE:
            size[p] += size[s]
            top[s] = p
    for s in reversed(range(len(nodes))):
        top[s] = top[top[s]]
    groups = {}
    for s, node in enumerate(nodes):
        groups.setdefault(top[s], []).extend(node)
    tops = sorted(groups)
    index = {t: g for g, t in enumerate(tops)}
    return [groups[t] for t in tops], [-1 if parent[t] < 0 else index[top[parent[t]]] for t in tops]


class _SparseSymbolic:
    """Pattern analysis shared read-only by every shift.  The graph is built
    once and ordered by nested dissection in relaxed supernodes or, where
    ``_chain_nnz_l`` counts fewer entries of L (a full band), by the chain
    ``_amalgamate`` makes of the natural-order path; then positions, once.

    Supernode s is the contiguous range ``columns[s]`` of permuted columns
    (``start[s]:start[s + 1]``): a connected subtree of the assembly tree
    (``_amalgamate``), in postorder.  Its front
    holds those columns and ``rows[s]``, the later rows its columns reach:
    their later neighbours and the rows of its children's fronts past it.
    The front is factorized dense, so the factor's pattern is contained in
    the fronts'.  ``source`` orders the data vector by supernode, entry
    (i, j) going to the front of min(i, j), and ``scatter[s]`` gives the
    flat front positions of the entries in
    ``source[bounds[s]:bounds[s + 1]]``; ``extend[s]`` gives the positions
    of ``rows[s]`` in the parent's front.
    """

    def __init__(self, n, indptr, indices):
        self.n = n
        er = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        ec = np.asarray(indices, dtype=np.int64)
        # The graph has an edge both ways for each off-diagonal entry.
        off = er != ec
        keys = np.unique(np.concatenate([er[off] * n + ec[off], ec[off] * n + er[off]]))
        ar, ac = np.divmod(keys, max(n, 1))
        ptr = np.searchsorted(ar, np.arange(n + 1)).tolist()
        nbrs = ac.tolist()
        fronts = self._order(ar, ac, *_amalgamate(*_nested_dissection(
            n, [nbrs[ptr[v]:ptr[v + 1]] for v in range(n)])))
        if _chain_nnz_l(n, er, ec) < self.nnz_l:
            fronts = self._order(ar, ac, *_amalgamate([[v] for v in range(n)],
                                                      list(range(1, n)) + [-1]))

        pi, pj = self.iperm[er], self.iperm[ec]
        owner = np.repeat(np.arange(len(fronts)), np.diff(self.start))[np.minimum(pi, pj)]
        self.source = np.argsort(owner, kind="stable")
        self.bounds = np.searchsorted(owner[self.source], np.arange(len(fronts) + 1))
        self.scatter, self.extend = [], []
        for s, front in enumerate(fronts):
            e = self.source[self.bounds[s]:self.bounds[s + 1]]
            self.scatter.append(np.searchsorted(front, pi[e]) * len(front)
                                + np.searchsorted(front, pj[e]))
            p = self.parent[s]
            self.extend.append(None if p < 0 else np.searchsorted(fronts[p], self.rows[s]))

    def _order(self, ar, ac, nodes, parent):
        """Take the supernodes ``nodes``, a postorder, and ``parent``; returns their fronts."""
        self.parent = parent
        self.perm = np.array([v for node in nodes for v in node], dtype=np.int64)
        self.iperm = np.empty(self.n, dtype=np.int64)
        self.iperm[self.perm] = np.arange(self.n)
        self.start = np.concatenate([[0], np.cumsum([len(node) for node in nodes], dtype=np.int64)])
        ends = self.start.tolist()
        self.columns = [slice(c0, c1) for c0, c1 in zip(ends[:-1], ends[1:])]
        self.children = [[] for _ in nodes]
        for s, p in enumerate(parent):
            if p >= 0:
                self.children[p].append(s)

        # Permuted adjacency sorted by row: each supernode's neighbours are
        # one slice of it.
        pa, pc = self.iperm[ar], self.iperm[ac]
        order = np.argsort(pa, kind="stable")
        pc = pc[order]
        pptr = np.searchsorted(pa[order], self.start)
        self.rows = []
        fronts = []
        for s, cols in enumerate(self.columns):
            reach = np.concatenate([pc[pptr[s]:pptr[s + 1]]]
                                   + [self.rows[c] for c in self.children[s]])
            self.rows.append(np.unique(reach[reach >= cols.stop]))
            fronts.append(np.concatenate([np.arange(cols.start, cols.stop), self.rows[s]]))
        return fronts

    @property
    def nnz_l(self):
        """Entries of L held by the supernodes, diagonal included."""
        k = np.diff(self.start)
        return int(np.sum(k * (k + 1) // 2 + k * np.array([r.size for r in self.rows])))


def _chain_nnz_l(n, rows, cols):
    """``nnz_l`` of the chain analysis of the pattern (rows, cols), in
    O(nnz) without running it: in natural order, row i of L reaches back to
    low(i), i's lowest neighbour, so i is a front row of the SUPERNODE-wide
    supernodes low(i) // SUPERNODE to i // SUPERNODE - 1."""
    low = np.arange(n)
    np.minimum.at(low, rows, cols)
    np.minimum.at(low, cols, rows)
    k = np.diff(np.append(np.arange(0, n, SUPERNODE), n))
    rows_held = np.arange(n) // SUPERNODE - low // SUPERNODE
    return int(np.sum(k * (k + 1) // 2) + SUPERNODE * np.sum(rows_held))


def _pivot_inverse(block, col):
    """Inverse of each (k, k) pivot block of the (ne, k, k) ``block``, whose
    first column is sparse column ``col``.

    One ``np.linalg.inv`` call inverts the whole stack: LAPACK's LU with
    partial pivoting inside each block (xGESV), run block by block, so each
    shift's inverse is bitwise the one it gets alone.  A block that LAPACK
    finds exactly singular, or whose inverse is not finite (a NaN or an
    overflow), raises SingularMatrixError naming ``col`` and the shift's
    place in the batch; only this error path inverts the shifts one at a
    time, to find the first bad one.
    """
    inv = _finite_inverse(block)
    if inv is None:
        shift = next(e for e, one in enumerate(block) if _finite_inverse(one) is None)
        raise SingularMatrixError(f"singular pivot block at sparse column {col} (shift {shift})")
    return inv


def _finite_inverse(m):
    """``np.linalg.inv(m)``, or None if LAPACK finds a matrix of ``m``
    exactly singular or the inverse is not finite."""
    try:
        inv = np.linalg.inv(m)
    except np.linalg.LinAlgError:
        return None
    return inv if np.isfinite(inv).all() else None


class _SparseFactor(_BlockFactor):
    """Multifrontal LU of shifted matrices on a shared symbolic analysis.

    ``data`` is one shifted data vector of shape (nnz,) or a stack of shape
    (ne, nnz), one row per shift.  Each supernode's front F, of shape
    (ne, f, f), is assembled from the data and the updates of its
    children.  Its k×k pivot block F11 is inverted with partial pivoting
    inside the block (``_pivot_inverse``); the supernode keeps
    ``(inv, li, ui)`` = (F11⁻¹, F21 inv, inv F12) and passes
    F22 - li F12 to its parent.  With ``symmetric`` (a complex symmetric
    pencil z B - A, A and B real symmetric) ``ui`` is the transposed view
    of ``li`` (invᵀ F12, the same to rounding), which takes no memory.
    Every operation is elementwise along the shift axis, a stacked matrix
    product or a stacked LAPACK inverse, one per shift, so each shift's
    factor is bitwise the one it gets alone.  Its blocks are the
    supernodes, so a solve gathers by ``perm`` and puts back by ``iperm``.
    """

    def __init__(self, symbolic: _SparseSymbolic, data: np.ndarray, symmetric=False):
        data = np.atleast_2d(data)
        self.n, self.ne = symbolic.n, data.shape[0]
        self.dtype = data.dtype
        self.columns, self.rows = symbolic.columns, symbolic.rows
        orders = tuple(np.broadcast_to(p[:, np.newaxis], (self.n, self.ne))
                       for p in (symbolic.perm, symbolic.iperm))
        self.orders = {False: orders, True: orders}
        source, bounds = symbolic.source, symbolic.bounds
        self.blocks = []
        updates = {}
        for s, (cols, rows) in enumerate(zip(symbolic.columns, symbolic.rows)):
            k = cols.stop - cols.start
            f = k + rows.size
            front = np.zeros((self.ne, f, f), dtype=data.dtype)
            owned = source[bounds[s]:bounds[s + 1]]
            front.reshape(self.ne, f * f)[:, symbolic.scatter[s]] = data[:, owned]
            for c in symbolic.children[s]:
                if c in updates:
                    at = symbolic.extend[c]
                    front[:, at[:, np.newaxis], at] += updates.pop(c)
            inv = _pivot_inverse(front[:, :k, :k], cols.start)
            li = front[:, k:, :k] @ inv
            ui = li.swapaxes(1, 2) if symmetric else inv @ front[:, :k, k:]
            if rows.size:
                updates[s] = front[:, k:, k:] - li @ front[:, :k, k:]
            self.blocks.append((inv, li, ui))

    @property
    def nbytes(self):
        """Bytes held by the factor's ``inv``, ``li`` and ``ui`` blocks; a
        ``ui`` that is a transposed view of ``li`` counts once."""
        return sum(inv.nbytes + li.nbytes + (0 if ui.base is li else ui.nbytes)
                   for inv, li, ui in self.blocks)


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


def _bicgstab(matvec, diag, b, tol):
    """Diagonal-preconditioned BiCGStab for one right-hand side.  A breakdown
    or an unreachable ``tol`` raises FloatingPointError, which gives info -2."""
    maxiter = max(8 * len(b), 200)
    x = np.zeros_like(b)
    r = b.copy()
    bnorm = np.linalg.norm(b)
    if bnorm == 0:
        return x
    rhat = r.copy()
    rho = alpha = omega = 1.0 + 0j
    v = np.zeros_like(b)
    p = np.zeros_like(b)
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        for _ in range(maxiter):
            rho1 = np.vdot(rhat, r)
            beta = (rho1 / rho) * (alpha / omega)
            p = r + beta * (p - omega * v)
            phat = p / diag
            v = matvec(phat)
            alpha = rho1 / np.vdot(rhat, v)
            s = r - alpha * v
            if np.linalg.norm(s) <= tol * bnorm:
                return x + alpha * phat
            shat = s / diag
            t = matvec(shat)
            omega = np.vdot(t, s) / np.vdot(t, t)
            x = x + alpha * phat + omega * shat
            r = s - omega * t
            if np.linalg.norm(r) <= tol * bnorm:
                return x
            rho = rho1
    raise SingularMatrixError(f"BiCGStab did not reach tol={tol} in {maxiter} iterations")


# --- driver glue ---------------------------------------------------------------


class _SparseOps(_Ops):
    """Backend ops of the CSR and band drivers with the direct solver.

    All contour ``shifts`` are factorized in one batch, on one symbolic
    analysis in the order that holds fewer entries of L, and solves
    are served from held group sweeps (see ``_Ops``).  The shifted matrices
    of a driver that is not ``hermitian`` (feast_scsr, feast_sb) are
    complex symmetric, so their factors keep each ``ui`` block as a
    transposed view of ``li`` (see ``_SparseFactor``).
    """

    def __init__(self, a_full, b_full, shifts, hermitian):
        super().__init__(a_full, b_full, shifts, hermitian)
        p = self.pattern = _ShiftedPattern(a_full, b_full)
        self.symbolic = _SparseSymbolic(p.n, p.indptr, p.indices)

    def _factor(self, shifts):
        p = self.pattern
        # Each shift's z * b_data - a_data, written in place.
        data = np.empty((len(shifts), len(p.a_data)), dtype=p.a_data.dtype)
        for row, z in zip(data, shifts):
            np.subtract(np.multiply(z, p.b_data, out=row), p.a_data, out=row)
        return _SparseFactor(self.symbolic, data, not self.hermitian)

    _multiply = staticmethod(csr_matvec)


class _IterativeOps(_Ops):
    """Backend ops of the CSR drivers with the BiCGStab inner solver.  The
    batch holds each shift z's data and diagonal preconditioner for z and,
    for adjoint solves, conj(z): (z*B - A)^H = conj(z)*B - A here."""

    def __init__(self, a_full, b_full, shifts, hermitian, tol):
        super().__init__(a_full, b_full, shifts, hermitian)
        self.pattern = _ShiftedPattern(a_full, b_full)
        self.classes = _row_classes(self.pattern.indptr, self.pattern.indices)
        self.tol = tol

    def _factor(self, shifts):
        return [{False: self._system(z), True: self._system(z.conjugate())} for z in shifts]

    def _system(self, z):
        """Data of z*B - A and its diagonal preconditioner (zeros read as 1)."""
        p = self.pattern
        data = p.shifted_data(z)
        on_diag = p.rows == p.cols
        diag = np.zeros(p.n, dtype=data.dtype)
        diag[p.rows[on_diag]] = data[on_diag]
        diag[diag == 0] = 1.0
        return data, diag

    def _solve(self, factor, rhs, adjoint):
        batch, shift = factor
        data, diag = batch[shift][adjoint]
        matvec = functools.partial(_csr_block_matvec, self.pattern.n, self.classes, data)
        out = np.empty_like(rhs)
        for k in range(rhs.shape[1]):
            out[:, k] = _bicgstab(matvec, diag, rhs[:, k].astype(data.dtype), self.tol)
        return out

    _multiply = staticmethod(csr_matvec)


def _full_csr(m: CsrMatrix, dtype) -> CsrMatrix:
    """uplo='F' form of ``m`` with values of type ``dtype``."""
    full = m.expand_full()
    if full.values.dtype == dtype:
        return full
    return CsrMatrix(full.n, full.ia, full.ja, full.values.astype(dtype), "F")


def csr_asymmetry(m: CsrMatrix) -> float:
    """Largest |M[i, j] - M[j, i]| (M[j, i] conjugated when complex) of a
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
    return float(np.abs(m.values - partner.conj()).max())


def _sparse_driver(a, b, emin, emax, m0, fpm, options, x0, hermitian):
    csr_a = isinstance(a, CsrMatrix)
    csr_b = isinstance(b, CsrMatrix)
    kernel, options, (a_full, b_full) = setup(
        "HCSR" if hermitian else "SCSR", hermitian,
        (a.values.dtype if csr_a else np.float64,
         None if b is None else b.values.dtype if csr_b else np.float64),
        a.n if csr_a else 0, emin, emax, m0, fpm, options, x0,
        checks=((-103, lambda: not csr_a),
                (-106, lambda: b is not None and (not csr_b or b.n != a.n))),
        operands=lambda dtype: [None if m is None else _full_csr(m, dtype) for m in (a, b)],
        finite=(-103, -106),
        asymmetry=lambda i, m: csr_asymmetry(m) if (a, b)[i].uplo == "F" else 0.0)
    if kernel.done:
        return kernel.result
    if options.solver == "iterative":
        ops = _IterativeOps(a_full, b_full, kernel.contour.z, hermitian, options.iter_tol)
    else:
        ops = _SparseOps(a_full, b_full, kernel.contour.z, hermitian)
    return run_rci(kernel, ops)


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
