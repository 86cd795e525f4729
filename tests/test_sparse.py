import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from feastlib import (
    CsrMatrix,
    SolverOptions,
    csr_matvec,
    feast_hb,
    feast_hcsr,
    feast_scsr,
    feast_sy,
    feastinit,
    info_description,
)
from feastlib._driver import SingularMatrixError
from feastlib.banded import band_csr
from feastlib.dense import PANEL, _DenseOps
from feastlib.params import ALLOWED_CONTOUR_POINTS
from feastlib.quadrature import build_contour, gauss_legendre
from feastlib import sparse
from feastlib.sparse import (
    LEAF,
    SUPERNODE,
    _chain_nnz_l,
    _nested_dissection,
    _row_classes,
    _ShiftedPattern,
    _SparseFactor,
    _SparseOps,
    _SparseSymbolic,
)

from conftest import gap_interval, random_hermitian, random_symmetric

# 4x4 tridiagonal reference pattern in full and lower-triangle CSR form.
_FULL_IA = [1, 3, 6, 9, 11]
_FULL_JA = [1, 2, 1, 2, 3, 2, 3, 4, 3, 4]
_LOWER_IA = [1, 2, 4, 6, 8]
_LOWER_JA = [1, 1, 2, 2, 3, 3, 4]


def _reference_dense():
    a = np.zeros((4, 4))
    vals = {(1, 1): 1.0, (2, 2): 2.0, (3, 3): 3.0, (4, 4): 4.0,
            (1, 2): -1.0, (2, 3): -2.0, (3, 4): -3.0}
    for (i, j), v in vals.items():
        a[i - 1, j - 1] = v
        a[j - 1, i - 1] = v
    return a


def _reference_csr(uplo="F"):
    a = _reference_dense()
    return CsrMatrix.from_dense(a, uplo)


def test_reference_pattern_offsets():
    full = _reference_csr("F")
    assert full.ia.tolist() == _FULL_IA
    assert full.ja.tolist() == _FULL_JA
    lower = _reference_csr("L")
    assert lower.ia.tolist() == _LOWER_IA
    assert lower.ja.tolist() == _LOWER_JA


def test_matvec_first_unit_vector():
    full = _reference_csr("F")
    e1 = np.zeros(4)
    e1[0] = 1.0
    assert np.array_equal(csr_matvec(full, e1), _reference_dense()[:, 0])


def test_matvec_lower_storage_matches_full(rng):
    x = rng.normal(size=4)
    y_full = csr_matvec(_reference_csr("F"), x)
    y_lower = csr_matvec(_reference_csr("L"), x)
    y_upper = csr_matvec(_reference_csr("U"), x)
    assert np.abs(y_lower - y_full).max() <= 1e-14
    assert np.abs(y_upper - y_full).max() <= 1e-14


def test_matvec_identity():
    ident = CsrMatrix.from_dense(np.eye(3))
    x = np.arange(3.0)
    assert np.array_equal(csr_matvec(ident, x), x)


def test_matvec_hermitian_conjugates(rng):
    a = np.array([[2.0, 1j], [-1j, 3.0]])
    lower = CsrMatrix.from_dense(np.tril(a), "L")
    x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    assert np.abs(csr_matvec(lower, x) - a @ x).max() <= 1e-14


def test_expand_idempotent_between_triangles():
    lo = _reference_csr("L").expand_full()
    up = _reference_csr("U").expand_full()
    assert lo.ia.tolist() == up.ia.tolist()
    assert lo.ja.tolist() == up.ja.tolist()
    assert np.array_equal(lo.values, up.values)


def test_csr_validation_errors():
    with pytest.raises(ValueError):
        CsrMatrix(2, [1, 2, 3], [1, 3], [1.0, 1.0])   # column out of range
    with pytest.raises(ValueError):
        CsrMatrix(2, [2, 3, 4], [1, 1], [1.0, 1.0])   # ia must start at 1
    with pytest.raises(ValueError):
        CsrMatrix(2, [1, 3, 3], [2, 1], [1.0, 1.0])   # unsorted columns
    with pytest.raises(ValueError):
        CsrMatrix(2, [1, 3, 4], [1, 2, 1], [1.0, 1.0, 1.0], "L")  # above diag
    with pytest.raises(ValueError, match="below the diagonal"):
        CsrMatrix(2, [1, 2, 4], [1, 1, 2], [1.0, 1.0, 1.0], "U")
    for uplo in ("X", 1, 5, b"L"):
        with pytest.raises(ValueError, match="invalid uplo"):
            CsrMatrix(2, [1, 2, 3], [1, 2], [1.0, 1.0], uplo)
        with pytest.raises(ValueError, match="invalid uplo"):
            CsrMatrix.from_coo(2, [1, 2], [1, 2], [1.0, 1.0], uplo)
        with pytest.raises(ValueError, match="invalid uplo"):
            CsrMatrix.from_dense(np.eye(2), uplo)
    # None reads as 'F', as in the constructor.
    assert CsrMatrix.from_coo(2, [1, 2], [1, 2], [1.0, 1.0], None).uplo == "F"
    assert CsrMatrix.from_dense(np.eye(2), None).uplo == "F"
    with pytest.raises(ValueError, match="non-decreasing"):
        CsrMatrix(2, [1, 3, 2], [1, 2], [1.0, 1.0])
    with pytest.raises(ValueError, match="length"):
        CsrMatrix(2, [1, 2, 3], [1, 2, 2], [1.0, 1.0])
    with pytest.raises(ValueError, match="length"):
        CsrMatrix(2, [1, 2, 3], [1, 2], [1.0])
    for rows, cols in (([0], [1]), ([3], [1]), ([1], [0]), ([1], [3])):
        with pytest.raises(ValueError, match="out of range"):
            CsrMatrix.from_coo(2, rows, cols, [1.0])
    with pytest.raises(ValueError, match="below the diagonal"):
        CsrMatrix.from_coo(2, [1, 2], [1, 1], [1.0, 1.0], "U")


BAD_INDICES = ([1.5, 2], [1, np.nan], [1, np.inf], [1, 1e300], [1, 2 + 0j], [True, True],
               ["1", "2"], [1, None])


@pytest.mark.parametrize("bad", BAD_INDICES, ids=repr)
def test_non_integer_index_arrays_are_named(bad):
    """A non-integer index was once truncated: ja = [1.5, 2] read as column
    1, and feast_scsr solved that other matrix with info 0."""
    with pytest.raises(ValueError, match="ja must hold integers"):
        CsrMatrix(2, [1, 2, 3], bad, [1.0, 1.0])
    with pytest.raises(ValueError, match="ia must hold integers"):
        CsrMatrix(1, bad, [1], [1.0])
    with pytest.raises(ValueError, match="rows must hold integers"):
        CsrMatrix.from_coo(2, bad, [1, 2], [1.0, 1.0])
    with pytest.raises(ValueError, match="cols must hold integers"):
        CsrMatrix.from_coo(2, [1, 2], bad, [1.0, 1.0])


@pytest.mark.parametrize("n", [-1, -3, 2.5, np.nan, True, "2", None], ids=repr)
def test_bad_size_is_named(n):
    """CsrMatrix(-1, [], [], []) once raised IndexError."""
    with pytest.raises(ValueError, match="n must"):
        CsrMatrix(n, [], [], [])
    with pytest.raises(ValueError, match="n must"):
        CsrMatrix.from_coo(n, [], [], [])


def test_integer_valued_float_indices_are_accepted():
    m = CsrMatrix(np.float64(2), [1.0, 2.0, 3.0], np.array([1.0, 2.0], np.float32), [1.0, 1.0])
    assert (m.n, m.ia.tolist(), m.ja.tolist()) == (2, [1, 2, 3], [1, 2])
    assert type(m.n) is int and m.ia.dtype == m.ja.dtype == np.int64
    m = CsrMatrix.from_coo(2.0, [2.0, 1.0], [1.0, 2.0], [3.0, 4.0])
    assert m.to_dense().tolist() == [[0.0, 4.0], [3.0, 0.0]]
    for n in (0, np.int32(0)):
        assert CsrMatrix(n, [1], [], []).nnz == 0
        assert CsrMatrix.from_coo(n, [], [], []).nnz == 0


@pytest.mark.parametrize("rows,cols,values", [
    ([1, 2], [1, 2], [5.0]), ([1, 2], [1], [1.0, 1.0]), ([1], [1, 2], [1.0]),
    ([1, 2], [1, 2], [[1.0, 1.0]]), ([1], [1], 5.0),
], ids=["values", "cols", "rows", "2-D values", "0-D values"])
def test_mismatched_triplets_are_named(rows, cols, values):
    """from_coo(2, [1, 2], [1, 2], [5.]) once put 5 on both diagonal
    entries, and feast_scsr solved that matrix with info 0."""
    with pytest.raises(ValueError, match="rows, cols and values must be 1-D and of one length"):
        CsrMatrix.from_coo(2, rows, cols, values)


@pytest.mark.parametrize("a", [np.ones((3, 2)), np.ones((2, 3)), np.array(1.0), np.ones(3),
                               np.ones((2, 2, 2))],
                         ids=["3x2", "2x3", "0-D", "1-D", "3-D"])
def test_from_dense_of_a_non_square_array_is_named(a):
    """A 3 x 2 array was once read as a 3 x 3 matrix with a zero third
    column; a 0-D array raised IndexError."""
    with pytest.raises(ValueError, match="a must be a square 2-D array"):
        CsrMatrix.from_dense(a)


def test_from_coo_sums_duplicates():
    m = CsrMatrix.from_coo(2, [1, 1, 2], [1, 1, 2], [1.0, 1.0, 5.0])
    assert m.nnz == 2
    assert m.values.tolist() == [2.0, 5.0]



def test_from_dense_keeps_nonfinite_entries():
    a = np.array([[2.0, np.nan, 0.0], [np.nan, np.inf, 1e-3], [0.0, 1e-3, 1.0]])
    m = CsrMatrix.from_dense(a, tol=1e-2)
    assert m.ja.tolist() == [1, 2, 1, 2, 3]
    assert np.array_equal(m.to_dense(), np.where(np.abs(a) <= 1e-2, 0.0, a), equal_nan=True)
    lower = CsrMatrix.from_dense(a, "L")
    assert lower.nnz == 5
    assert np.isnan(lower.values[1])

@settings(max_examples=25, deadline=None)
@given(st.randoms(use_true_random=False))
def test_from_coo_permutation_invariant(r):
    rows = [1, 2, 2, 3, 3, 1]
    cols = [1, 1, 2, 2, 3, 3]
    vals = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    order = list(range(6))
    r.shuffle(order)
    base = CsrMatrix.from_coo(3, rows, cols, vals)
    shuf = CsrMatrix.from_coo(3, [rows[i] for i in order], [cols[i] for i in order],
                              [vals[i] for i in order])
    assert base.ia.tolist() == shuf.ia.tolist()
    assert base.ja.tolist() == shuf.ja.tolist()
    assert np.array_equal(base.values, shuf.values)


def test_sparse_lu_solves_match_dense(rng):
    n = 40
    a = random_symmetric(n, rng)
    mask = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= 3
    a = np.where(mask, a, 0)
    acsr = CsrMatrix.from_dense(a)
    pattern = _ShiftedPattern(acsr, None)
    sym = _SparseSymbolic(pattern.n, pattern.indptr, pattern.indices)
    z = 0.7 + 1.3j
    factor = _SparseFactor(sym, pattern.shifted_data(z))
    rhs = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
    x = factor.solve(rhs)
    shifted = z * np.eye(n) - a
    assert np.abs(shifted @ x - rhs).max() <= 1e-10
    xa = factor.solve(rhs, adjoint=True)
    assert np.abs(shifted.conj().T @ xa - rhs).max() <= 1e-10


def _banded_csr(n, rng, hermitian, width=3):
    a = random_hermitian(n, rng) if hermitian else random_symmetric(n, rng)
    mask = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= width
    return CsrMatrix.from_dense(np.where(mask, a, 0))


def _shifted_dense(pattern, data):
    out = np.zeros((pattern.n, pattern.n), dtype=data.dtype)
    out[pattern.rows, pattern.cols] = data
    return out


@pytest.mark.parametrize("hermitian", [False, True])
def test_batched_factor_matches_one_shift_factors(rng, hermitian):
    n = 40
    pattern = _ShiftedPattern(_banded_csr(n, rng, hermitian), None)
    sym = _SparseSymbolic(pattern.n, pattern.indptr, pattern.indices)
    shifts = build_contour(gauss_legendre(4), -1.0, 2.0).z
    stack = np.stack([pattern.shifted_data(complex(z)) for z in shifts])
    # feast_scsr's pencil is complex symmetric, feast_hcsr's is not.
    symmetric = not hermitian
    batch = _SparseFactor(sym, stack, symmetric)
    rhs = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
    y = batch.sweep(rhs)
    y_adj = batch.sweep(rhs, adjoint=True)
    with pytest.raises(ValueError, match="one-shift factor"):
        batch.solve(rhs)
    for e in range(len(shifts)):
        one = _SparseFactor(sym, stack[e], symmetric)
        for got, want in zip(batch.blocks, one.blocks):
            assert all(g[e].tobytes() == w[0].tobytes() for g, w in zip(got, want))
        assert batch.pick(y, e).tobytes() == one.solve(rhs).tobytes()
        x_adj = np.linalg.solve(_shifted_dense(pattern, stack[e]).conj().T, rhs)
        assert np.abs(batch.pick(y_adj, e) - x_adj).max() <= 1e-12 * np.abs(x_adj).max()
        assert np.abs(one.solve(rhs, adjoint=True) - x_adj).max() <= 1e-12 * np.abs(x_adj).max()


def test_batched_factor_raises_on_one_singular_shift(rng):
    n = 20
    pattern = _ShiftedPattern(_banded_csr(n, rng, hermitian=False), None)
    sym = _SparseSymbolic(pattern.n, pattern.indptr, pattern.indices)
    shifts = build_contour(gauss_legendre(4), -1.0, 2.0).z
    stack = np.stack([pattern.shifted_data(complex(z)) for z in shifts])
    # A zero diagonal entry in the first pivot block: the block is not
    # singular, and pivoting inside it solves the system.
    first = int(sym.perm[0])
    in_column = pattern.cols == first
    zeroed = stack.copy()
    zeroed[2, np.flatnonzero(in_column & (pattern.rows == first))] = 0
    batch = _SparseFactor(sym, zeroed)
    rhs = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
    y = batch.sweep(rhs)
    for e in range(len(shifts)):
        want = np.linalg.solve(_shifted_dense(pattern, zeroed[e]), rhs)
        assert np.abs(batch.pick(y, e) - want).max() <= 1e-12 * np.abs(want).max()
    # A zero column makes the first pivot block exactly singular.
    singular = stack.copy()
    singular[2, in_column] = 0
    with pytest.raises(SingularMatrixError, match=r"sparse column 0 \(shift 2\)"):
        _SparseFactor(sym, singular)
    _SparseFactor(sym, np.delete(singular, 2, axis=0))
    poisoned = stack.copy()
    poisoned[1, np.flatnonzero(in_column & (pattern.rows == first))] = np.nan
    with pytest.raises(SingularMatrixError, match=r"sparse column 0 \(shift 1\)"):
        _SparseFactor(sym, poisoned)


def _grid(p, rng):
    """Random values on the 5-point pattern of a p x p grid."""
    n = p * p
    a = np.zeros((n, n))
    idx = np.arange(n).reshape(p, p)
    for u, v in ((idx[:, :-1], idx[:, 1:]), (idx[:-1], idx[1:])):
        a[u.ravel(), v.ravel()] = rng.normal(size=u.size)
    return a + a.T + np.diag(rng.normal(size=n))


def _patterns(rng):
    """Symmetric test matrices (dense arrays) of awkward shapes."""
    out = {"n=1": np.array([[2.0]]),
           "diagonal": np.diag(rng.normal(size=12)),
           "grid": _grid(9, rng)}
    # Two grids and three isolated vertices, interleaved.
    blocks = np.zeros((53, 53))
    blocks[:25, :25] = _grid(5, rng)
    blocks[25:50, 25:50] = _grid(5, rng)
    blocks[50:, 50:] = np.diag(rng.normal(size=3))
    order = rng.permutation(53)
    out["disconnected"] = blocks[np.ix_(order, order)]
    arrow = np.diag(rng.normal(size=40))
    arrow[0, 1:] = arrow[1:, 0] = rng.normal(size=39)
    out["arrow"] = arrow
    irregular = np.where(rng.random((70, 70)) < rng.random(70)[:, np.newaxis] * 0.12,
                         rng.normal(size=(70, 70)), 0.0)
    out["irregular"] = np.triu(irregular, 1) + np.triu(irregular, 1).T + np.diag(rng.normal(size=70))
    # A hub joined to 60 vertices: one separator with 60 one-vertex
    # children.  Drawn from no generator, so the cases above and the
    # callers' later draws stay as they were.
    star = np.diag(np.linspace(-2.0, 2.0, 61))
    star[0, 1:] = star[1:, 0] = np.linspace(0.5, 1.5, 60)
    out["star"] = star
    return out


def _adjacency(a):
    """Each vertex's neighbours in the pattern of ``a``, as
    ``_SparseSymbolic`` gives them to ``_nested_dissection``."""
    return [[w for w in np.flatnonzero(row).tolist() if w != v] for v, row in enumerate(a)]


def _lu_no_pivoting(m):
    lu = m.copy()
    for j in range(len(m) - 1):
        lu[j + 1:, j] /= lu[j, j]
        lu[j + 1:, j + 1:] -= np.outer(lu[j + 1:, j], lu[j, j + 1:])
    return lu


@pytest.mark.parametrize("name", ["n=1", "diagonal", "grid", "disconnected", "arrow", "irregular",
                                  "star"])
def test_order_and_structure_hold_the_dense_lu(rng, name):
    a = _patterns(rng)[name]
    n = len(a)
    pattern = _ShiftedPattern(CsrMatrix.from_dense(a), None)
    sym = _SparseSymbolic(pattern.n, pattern.indptr, pattern.indices)
    assert np.array_equal(np.sort(sym.perm), np.arange(n))
    assert np.array_equal(sym.perm[sym.iperm], np.arange(n))
    assert sym.start[0] == 0 and sym.start[-1] == n and np.all(np.diff(sym.start) > 0)
    held = np.zeros((n, n), dtype=bool)
    for s, rows in enumerate(sym.rows):
        c0, c1 = sym.start[s], sym.start[s + 1]
        front = np.concatenate([np.arange(c0, c1), rows])
        assert np.all(rows >= c1)
        held[front, c0:c1] = held[c0:c1, front] = True
        # Children's fronts extend-add into their parent's.
        for c in sym.children[s]:
            assert set(sym.rows[c].tolist()) <= set(front.tolist())
    perm = sym.perm
    lu = _lu_no_pivoting((0.3 + 1.1j) * np.eye(n) - a[np.ix_(perm, perm)])
    assert not np.any((lu != 0) & ~held)
    assert sym.nnz_l >= np.count_nonzero(np.tril(lu))


@pytest.mark.parametrize("name", ["n=1", "diagonal", "grid", "disconnected", "arrow", "irregular"])
@pytest.mark.parametrize("symmetric", [True, False])
def test_factor_solves_awkward_patterns_like_dense(rng, name, symmetric):
    a = _patterns(rng)[name]
    n = len(a)
    if not symmetric:
        a = a + 1j * (np.triu(a, 1) - np.triu(a, 1).T)  # Hermitian
    pattern = _ShiftedPattern(CsrMatrix.from_dense(a), None)
    sym = _SparseSymbolic(pattern.n, pattern.indptr, pattern.indices)
    shifts = [0.3 + 1.1j, -0.7 + 0.4j]
    batch = _SparseFactor(sym, np.stack([pattern.shifted_data(z) for z in shifts]), symmetric)
    rhs = rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4))
    y, y_adj = batch.sweep(rhs), batch.sweep(rhs, adjoint=True)
    for e, z in enumerate(shifts):
        shifted = z * np.eye(n) - a
        for got, mat in ((batch.pick(y, e), shifted),
                         (batch.pick(y_adj, e), shifted.conj().T)):
            want = np.linalg.solve(mat, rhs)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    one = _SparseFactor(sym, pattern.shifted_data(shifts[0]), symmetric)
    assert one.solve(rhs).tobytes() == batch.pick(y, 0).tobytes()


def test_dissection_splits_parts_larger_than_a_leaf(rng, monkeypatch):
    # The dissection's own tree, before relaxed supernodes merge its nodes.
    a = _grid(20, rng)
    nodes, parent = _nested_dissection(len(a), _adjacency(a))
    sizes = np.array([len(node) for node in nodes])
    assert all(sizes[s] <= LEAF for s in range(len(nodes)) if s not in parent)
    assert sizes.max() <= 2 * 20 and len(nodes) > 400 // LEAF
    assert parent[-1] == -1 and parent.count(-1) == 1
    # With no merging the supernodes are those nodes: 5,568 entries of L in
    # 89 supernodes; the natural order's band holds about 20 * 400.  (The
    # chain's count, which would divide by a zero SUPERNODE, is forced past
    # the dissection's.)
    monkeypatch.setattr(sparse, "SUPERNODE", 0)
    monkeypatch.setattr(sparse, "_chain_nnz_l", lambda n, rows, cols: float("inf"))
    pattern = _ShiftedPattern(CsrMatrix.from_dense(a), None)
    sym = _SparseSymbolic(pattern.n, pattern.indptr, pattern.indices)
    assert sym.perm.tolist() == [v for node in nodes for v in node]
    assert sym.parent == parent
    assert sym.nnz_l <= 6000


@pytest.mark.parametrize("name", ["grid 20 x 20", "n=1", "diagonal", "grid", "disconnected", "arrow",
                                  "irregular", "star"])
def test_relaxed_supernodes_are_subtrees_of_the_dissection(rng, name):
    a = _grid(20, rng) if name == "grid 20 x 20" else _patterns(rng)[name]
    n = len(a)
    nodes, parent = _nested_dissection(n, _adjacency(a))
    pattern = _ShiftedPattern(CsrMatrix.from_dense(a), None)
    sym = _SparseSymbolic(pattern.n, pattern.indptr, pattern.indices)
    assert np.array_equal(np.sort(sym.perm), np.arange(n))
    node_of = np.empty(n, dtype=np.int64)
    for t, node in enumerate(nodes):
        node_of[node] = t
    supernode_of, tops = {}, []
    for s, cols in enumerate(sym.columns):
        members = sorted(set(node_of[sym.perm[cols]].tolist()))
        # Whole nodes, their vertices in the dissection's postorder.
        assert sym.perm[cols].tolist() == [v for t in members for v in nodes[t]]
        # A connected subtree: exactly one member's parent is outside it.
        outside = [t for t in members if parent[t] not in members]
        assert len(outside) == 1
        tops.append(outside[0])
        supernode_of.update(dict.fromkeys(members, s))
        if len(members) > 1:
            assert cols.stop - cols.start <= SUPERNODE
    # Ordered by top node; a supernode's parent holds its top's parent.
    assert tops == sorted(tops)
    assert sym.parent == [supernode_of.get(parent[t], -1) for t in tops]
    if name == "grid 20 x 20":
        # 89 supernodes holding 5,568 entries of L before merging.
        assert len(sym.columns) == 34 and sym.nnz_l == 8765


def _stencil_csr(p, offsets, rng):
    """Random symmetric values on a p x p grid, each vertex (i, j) joined to
    (i + di, j + dj) for the (di, dj) in ``offsets``, in natural order."""
    idx = np.arange(p * p).reshape(p, p)
    rows, cols, values = [idx.ravel()], [idx.ravel()], [rng.normal(size=p * p)]
    for di, dj in offsets:
        u = idx[max(0, -di):p - max(0, di), max(0, -dj):p - max(0, dj)].ravel()
        v = idx[max(0, di):p + min(0, di), max(0, dj):p + min(0, dj)].ravel()
        w = rng.normal(size=u.size)
        rows += [u, v]
        cols += [v, u]
        values += [w, w]
    return CsrMatrix.from_coo(p * p, np.concatenate(rows) + 1, np.concatenate(cols) + 1,
                              np.concatenate(values))


def _order_cases(rng):
    """The 40 x 40 grid's 5-point pattern, band-herm-gen's 9-point FEM
    pattern (p = 30, n = 900, kl = 31) and a fully populated band (n = 900,
    kl = 31), each with the nnz(L) of its natural-order chain."""
    return {"grid 40 x 40": (_stencil_csr(40, [(0, 1), (1, 0)], rng), 75968),
            "fem 30 x 30": (_stencil_csr(30, [(0, 1), (1, -1), (1, 0), (1, 1)], rng), 34538),
            "full band": (_banded_csr(900, rng, hermitian=False, width=31), 34794)}


@pytest.mark.parametrize("name", ["n=1", "diagonal", "grid", "disconnected", "arrow", "irregular",
                                  "star", "grid 40 x 40", "fem 30 x 30", "full band"])
def test_chain_count_is_the_chain_analysis_nnz_l(rng, monkeypatch, name):
    if name in ("grid 40 x 40", "fem 30 x 30", "full band"):
        csr, want = _order_cases(rng)[name]
    else:
        csr, want = CsrMatrix.from_dense(_patterns(rng)[name]), None
    pattern = _ShiftedPattern(csr, None)
    # A count below any analysis's forces the chain.
    monkeypatch.setattr(sparse, "_chain_nnz_l", lambda n, rows, cols: -1)
    chain = _SparseSymbolic(pattern.n, pattern.indptr, pattern.indices)
    assert chain.perm.tolist() == list(range(pattern.n))
    assert np.all(np.diff(chain.start)[:-1] == SUPERNODE)
    assert chain.parent == list(range(1, len(chain.columns))) + [-1]
    assert _chain_nnz_l(pattern.n, pattern.rows, pattern.cols) == chain.nnz_l
    assert want is None or chain.nnz_l == want
    # The chain's factor solves as a dense solve does.
    z = 0.3 + 1.1j
    dense = z * np.eye(pattern.n) - csr.to_dense()
    rhs = rng.normal(size=(pattern.n, 2)) + 1j * rng.normal(size=(pattern.n, 2))
    want_x = np.linalg.solve(dense, rhs)
    got = _SparseFactor(chain, pattern.shifted_data(z)).solve(rhs)
    assert np.abs(got - want_x).max() <= 1e-11 * np.abs(want_x).max()


@pytest.mark.parametrize("name, chain", [("grid 40 x 40", False), ("fem 30 x 30", False),
                                         ("full band", True)])
def test_sparse_ops_take_the_order_with_less_fill(rng, monkeypatch, name, chain):
    csr, _ = _order_cases(rng)[name]
    ops = _SparseOps(csr, None, [1j], hermitian=False)
    p = ops.pattern
    # A count above any analysis's forces the dissection.
    with monkeypatch.context() as m:
        m.setattr(sparse, "_chain_nnz_l", lambda n, rows, cols: float("inf"))
        dissection = _SparseSymbolic(p.n, p.indptr, p.indices)
    natural = _chain_nnz_l(p.n, p.rows, p.cols)
    assert (natural < dissection.nnz_l) == chain
    assert ops.symbolic.nnz_l == min(natural, dissection.nnz_l)
    assert (ops.symbolic.perm.tolist() == list(range(p.n))) == chain


def test_sparse_ops_build_one_analysis(rng, monkeypatch):
    """On the full band, where the chain wins, ``_SparseOps`` constructs
    one ``_SparseSymbolic``, whose arrays are those of the forced chain's."""
    csr, _ = _order_cases(rng)["full band"]
    built = []

    class Counted(_SparseSymbolic):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    with monkeypatch.context() as m:
        m.setattr(sparse, "_SparseSymbolic", Counted)
        got = _SparseOps(csr, None, [1j], hermitian=False).symbolic
    assert len(built) == 1
    monkeypatch.setattr(sparse, "_chain_nnz_l", lambda n, rows, cols: -1)
    want = _SparseSymbolic(*built[0])
    assert got.parent == want.parent and got.columns == want.columns
    for name in ("perm", "iperm", "start", "source", "bounds"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    for name in ("rows", "scatter", "extend"):
        assert all(g is w is None or np.array_equal(g, w)
                   for g, w in zip(getattr(got, name), getattr(want, name), strict=True)), name


# --- reference analysis ----------------------------------------------------
# The nested dissection and the position loop of the analysis as they were
# written before their searches were shared: each part searched in full
# twice and relabelled in a separate loop, and three searches per supernode.
# The analysis must give exactly their arrays.


def _reference_dissection(n, adj):
    part_of = [0] * n
    seen = [0] * n
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
    last = len(nodes) - 1
    return nodes[::-1], [-1 if p < 0 else last - p for p in parents[::-1]]


def _reference_positions(sym, indptr, indices):
    """(scatter, extend) of the analysis ``sym`` of the pattern, one
    supernode at a time."""
    er = np.repeat(np.arange(sym.n), np.diff(indptr))
    pi, pj = sym.iperm[er], sym.iperm[np.asarray(indices)]
    fronts = [np.concatenate([np.arange(c.start, c.stop), r]) for c, r in zip(sym.columns, sym.rows)]
    scatter, extend = [], []
    for s, front in enumerate(fronts):
        e = sym.source[sym.bounds[s]:sym.bounds[s + 1]]
        scatter.append(np.searchsorted(front, pi[e]) * len(front) + np.searchsorted(front, pj[e]))
        p = sym.parent[s]
        extend.append(None if p < 0 else np.searchsorted(fronts[p], sym.rows[s]))
    return scatter, extend


def _graph(pattern):
    """Each vertex's neighbours, as ``_SparseSymbolic`` gives them to
    ``_nested_dissection``: ascending, no self loop."""
    n, off = pattern.n, pattern.rows != pattern.cols
    keys = np.unique(np.concatenate([pattern.rows[off] * n + pattern.cols[off],
                                     pattern.cols[off] * n + pattern.rows[off]]))
    ar, ac = np.divmod(keys, n)
    ptr = np.searchsorted(ar, np.arange(n + 1))
    return [ac[ptr[v]:ptr[v + 1]].tolist() for v in range(n)]


def _assert_reference_analysis(csr, monkeypatch):
    pattern = _ShiftedPattern(csr, None)
    n, adj = pattern.n, _graph(pattern)
    tree = _nested_dissection(n, adj)
    assert tree == _reference_dissection(n, adj)
    got = _SparseSymbolic(n, pattern.indptr, pattern.indices)
    with monkeypatch.context() as m:
        m.setattr(sparse, "_nested_dissection", _reference_dissection)
        want = _SparseSymbolic(n, pattern.indptr, pattern.indices)
    assert got.parent == want.parent and np.array_equal(got.perm, want.perm)
    scatter, extend = _reference_positions(want, pattern.indptr, pattern.indices)
    for name, ref in (("rows", want.rows), ("scatter", scatter), ("extend", extend)):
        assert all(g is w is None or g.shape == w.shape and np.array_equal(g, w)
                   for g, w in zip(getattr(got, name), ref, strict=True)), name
    return got, tree


@pytest.mark.parametrize("name", ["grid 40 x 40", "fem 30 x 30", "full band"])
def test_analysis_matches_the_reference_on_the_benchmark_patterns(rng, monkeypatch, name):
    """csr-direct's 5-point grid, band-herm-gen's 9-point FEM pattern, and
    a full band, where the chain wins."""
    sym, _ = _assert_reference_analysis(_order_cases(rng)[name][0], monkeypatch)
    assert (sym.perm.tolist() == list(range(sym.n))) == (name == "full band")


@pytest.mark.parametrize("p", range(7, 61))
def test_analysis_matches_the_reference_on_grids(rng, monkeypatch, p):
    _assert_reference_analysis(_stencil_csr(p, [(0, 1), (1, 0)], rng), monkeypatch)


@pytest.mark.parametrize("seed", range(6))
def test_analysis_matches_the_reference_on_random_patterns(monkeypatch, seed):
    """Random sparse graphs in a few blocks, with isolated vertices, in a
    random order: several components of uneven sizes."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 80, size=4).tolist() + [1] * 5
    rows, cols = [np.arange(sum(sizes))], [np.arange(sum(sizes))]
    first = 0
    for size in sizes:
        u, v = rng.integers(first, first + size, size=(2, int(size * rng.uniform(0.5, 3))))
        rows += [u, v]
        cols += [v, u]
        first += size
    order = rng.permutation(first)
    r, c = order[np.concatenate(rows)], order[np.concatenate(cols)]
    csr = CsrMatrix.from_coo(first, r + 1, c + 1, np.ones(len(r)))
    _, (_, parents) = _assert_reference_analysis(csr, monkeypatch)
    assert parents.count(-1) >= 5


@pytest.mark.parametrize("name", ["path", "star"])
def test_analysis_matches_the_reference_on_a_path_and_a_star(rng, monkeypatch, name):
    if name == "path":
        csr = _banded_csr(200, rng, hermitian=False, width=1)
    else:
        csr = CsrMatrix.from_dense(_patterns(rng)["star"])
    _assert_reference_analysis(csr, monkeypatch)


def test_adjoint_sweep_of_one_shift_is_its_slice_of_all(rng):
    """A sweep of a slice of shifts, one shift or a group, is bitwise that
    slice of the sweep of all, in each direction.  The Hermitian ops hold
    one group sweep of 4 of the 8 shifts each way: each adjoint request is
    served from the sweep of its group, bitwise the pick of the all-shift
    sweep, and the direct requests between do not touch it.  The same for
    the multifrontal factor and the dense one (four PANEL-column panels of
    its reduction)."""
    n = 3 * PANEL + 3
    a = _banded_csr(n, rng, hermitian=True)
    b = CsrMatrix.from_dense(np.eye(n) * 2 + np.eye(n, k=1) * 0.3 + np.eye(n, k=-1) * 0.3)
    shifts = [complex(z) for z in build_contour(gauss_legendre(8), -1.0, 1.0).z]
    rhs = rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4))
    for ops in (_SparseOps(a.expand_full(), b, shifts, hermitian=True),
                _DenseOps(a.to_dense(), b.to_dense(), shifts, hermitian=True)):
        handles = [ops.factorize(z) for z in shifts]
        batch = ops._batch
        # The dense ops solve the reduced pencil: its right-hand side is
        # Wᴴ rhs, and W maps its solutions back.
        reduced = isinstance(ops, _DenseOps)
        r = ops.to_reduced(rhs) if reduced else rhs
        every = {adjoint: batch.sweep(r, adjoint) for adjoint in (False, True)}
        for adjoint, y in every.items():
            for part in (slice(3, 4), slice(0, 4), slice(4, 8)):
                assert batch.sweep(r, adjoint, part).tobytes() == y[:, part].tobytes()
        for e, handle in enumerate(handles):
            x = ops.solve_adjoint(handle, r, key=0)
            assert x.tobytes() == batch.pick(every[True], e).tobytes()
            if reduced:
                x = ops.from_reduced(x)
            want = np.linalg.solve((shifts[e] * b.to_dense() - a.to_dense()).conj().T, rhs)
            assert np.abs(x - want).max() <= 1e-12 * np.abs(want).max()
            held = ops._held[True]
            if e % 4 == 3:
                assert held is None
            else:
                assert held[1] == e - e % 4 and held[2].shape == (n, 4, 4)
            ops.solve(handle, r, key=0)
            assert ops._held[True] is held


@pytest.mark.parametrize("ne", [3, 4, 5, 8])
@pytest.mark.parametrize("driver", ["feast_he", "feast_hb", "feast_hcsr"])
def test_group_sweeps_serve_each_shift_bitwise(rng, monkeypatch, driver, ne):
    """The ops of each Hermitian driver, over a contour of ``ne`` points
    (odd ``ne`` gives a short last group), in the kernel's order: a direct
    and an adjoint solve at each shift, then a direct right-hand side that
    changes inside the first group, and an adjoint request of the last
    shift before the first group is used up; each right-hand side has its
    key.  Every solution is bitwise the one-shift factor's; each direction
    sweeps each group once a pass, and anew for the changed key or the
    other group; and after every request the held sweeps hold at most
    ceil(ne/2) shift-slices each way and no copy of a right-hand side, as
    tracemalloc sees."""
    assert ne in ALLOWED_CONTOUR_POINTS
    n, m, kl, group = 3 * PANEL + 3, 16, 3, -(-ne // 2)
    dense = _banded_csr(n, rng, hermitian=True, width=kl if driver == "feast_hb" else 20
                        ).to_dense()
    shifts = [complex(z) for z in build_contour(gauss_legendre(ne), -1.0, 1.0).z]
    if driver == "feast_he":
        ops = _DenseOps(dense, None, shifts, hermitian=True)
        alone = [_DenseOps(dense, None, [z], hermitian=True)._factor([z]) for z in shifts]
    else:
        if driver == "feast_hb":
            # Full band storage: entry A[j+s, j] at [kl+s, j].
            ab = np.zeros((2 * kl + 1, n), dtype=complex)
            for s in range(-kl, kl + 1):
                ab[kl + s, max(0, -s):n - max(0, s)] = np.diagonal(dense, -s)
            full = band_csr(ab, kl, "F")
        else:
            full = CsrMatrix.from_dense(dense)
        ops = _SparseOps(full, None, shifts, hermitian=True)
        alone = [_SparseFactor(ops.symbolic, ops.pattern.shifted_data(z)) for z in shifts]
    r0, r1 = (rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m)) for _ in range(2))
    want = {(e, k, adjoint): alone[e].pick(alone[e].sweep(rhs, adjoint), 0)
            for e in range(ne) for k, rhs in enumerate((r0, r1)) for adjoint in (False, True)}
    handles = [ops.factorize(z) for z in shifts]
    sweeps = []
    # The multifrontal batch is a _BlockFactor, the dense one a _DenseFactor.
    batch_class = type(ops._batch)
    sweep = batch_class.sweep

    def counted(self, b, adjoint=False, shifts=slice(None)):
        sweeps.append((adjoint, tuple(range(self.ne)[shifts])))
        return sweep(self, b, adjoint, shifts)

    monkeypatch.setattr(batch_class, "sweep", counted)
    requests = [(e, 0, adjoint) for e in range(ne) for adjoint in (False, True)]
    requests += [(0, 0, False), (1, 1, False), (1, 1, True), (ne - 1, 1, True)]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for e, k, adjoint in requests:
            x = (ops.solve_adjoint if adjoint else ops.solve)(handles[e], (r0, r1)[k], key=k)
            assert x.tobytes() == want[e, k, adjoint].tobytes()
            held = [h for h in ops._held.values() if h is not None]
            widths = [h[2].shape[1] for h in held]
            assert max(widths, default=0) <= group and sum(widths) <= ne + 1
            # Beyond x: the held sweeps and under a third of a slice (8 KB)
            # of Python objects, the sweep records above among them.
            extra = tracemalloc.get_traced_memory()[0] - base - x.nbytes
            assert extra <= sum(widths) * n * m * 16 + 8192
            del x
    finally:
        tracemalloc.stop()
    groups = [tuple(range(first, min(first + group, ne))) for first in range(0, ne, group)]
    first = groups[0]
    assert sweeps == [(adjoint, g) for g in groups for adjoint in (False, True)] + [
        (False, first), (False, first), (True, first), (True, groups[-1])]


@pytest.mark.parametrize("symmetric", [True, False])
def test_factor_nbytes_counts_each_block_once(rng, symmetric):
    a = _grid(12, rng)
    if not symmetric:
        a = a + 1j * (np.triu(a, 1) - np.triu(a, 1).T)  # Hermitian
    pattern = _ShiftedPattern(CsrMatrix.from_dense(a), None)
    sym = _SparseSymbolic(pattern.n, pattern.indptr, pattern.indices)
    shifts = build_contour(gauss_legendre(4), -1.0, 2.0).z
    factor = _SparseFactor(sym, np.stack([pattern.shifted_data(complex(z)) for z in shifts]),
                           symmetric)
    k = np.diff(sym.start)
    r = np.array([rows.size for rows in sym.rows])
    # inv and li; a Hermitian pencil's ui is a block of its own.
    entries = np.sum(k * k + k * r) + (0 if symmetric else np.sum(k * r))
    assert factor.nbytes == len(shifts) * entries * np.dtype(np.complex128).itemsize


def test_transpose_view_only_for_feast_scsr(rng, monkeypatch):
    made = []

    class Recorded(_SparseFactor):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(sparse, "_SparseFactor", Recorded)
    real = _banded_csr(30, rng, hermitian=False)
    r = feast_scsr(real, -1.0, 1.0, 16)
    assert r.info == 0 and made
    for factor in made:
        assert all(np.shares_memory(lower, upper) for _, lower, upper in factor.blocks if lower.size)
    made.clear()
    r = feast_hcsr(_banded_csr(30, rng, hermitian=True), -1.0, 1.0, 16)
    assert r.info == 0 and made
    for factor in made:
        assert not any(np.shares_memory(lower, upper) for _, lower, upper in factor.blocks)


@pytest.mark.parametrize("driver", [feast_scsr, feast_hcsr])
def test_operands_that_are_not_csr_return_argument_codes(rng, driver):
    good = _banded_csr(10, rng, hermitian=driver is feast_hcsr)
    for bad in (good.to_dense(), None, [[1.0]], "a"):
        assert driver(bad, -1.0, 1.0, 4).info == -103
        assert driver(good, -1.0, 1.0, 4, b=bad).info == (-106 if bad is not None else 0)
    assert "CsrMatrix" in info_description(-103)


def _with_empty_rows(rng):
    a = rng.normal(size=(30, 30)) * (rng.random((30, 30)) < 0.2)
    a[[3, 4, 17, 29]] = 0
    return a


@pytest.mark.parametrize("cplx", [False, True])
def test_block_matvec_matches_dense(rng, cplx):
    a = _with_empty_rows(rng)
    if cplx:
        a = a + 1j * a * rng.normal(size=a.shape)
    csr = CsrMatrix.from_dense(a)
    for shape in ((30,), (30, 1), (30, 7)):
        x = rng.normal(size=shape) + (1j * rng.normal(size=shape) if cplx else 0)
        y = csr_matvec(csr, x)
        assert y.shape == shape
        assert np.abs(y - a @ x).max() <= 1e-14 * (np.abs(a) @ np.abs(x)).max()
        assert not np.any(y[[3, 4, 17, 29]])
    herm = a + a.conj().T
    x = rng.normal(size=(30, 5)) + 1j * rng.normal(size=(30, 5))
    for uplo in "LU":
        y = csr_matvec(CsrMatrix.from_dense(herm, uplo), x)
        assert np.abs(y - herm @ x).max() <= 1e-14 * (np.abs(herm) @ np.abs(x)).max()


def test_block_matvec_padding_stays_within_twice_nnz(rng):
    n = 300
    arrow = np.eye(n)
    arrow[7, :] = arrow[:, 7] = rng.normal(size=n)
    csr = CsrMatrix.from_dense(arrow)
    classes = _row_classes(csr.ia - 1, csr.ja - 1)
    assert sum(at.size for _, at, _ in classes) < 2 * csr.nnz
    x = rng.normal(size=(n, 3))
    assert np.abs(csr_matvec(csr, x) - arrow @ x).max() <= 1e-14 * (np.abs(arrow) @ np.abs(x)).max()


def test_block_matvec_temporaries_stay_within_the_block(rng):
    """Dense rows are gathered in chunks of at most n // w rows, so that no
    gathered block is larger than x: with 40 dense rows of 400, the
    multiply allocates y, the padded x and one gathered block, each the
    size of x, besides the padded entries, where one gather of the class
    took 40 times x."""
    n, m = 400, 30
    a = np.eye(n, dtype=complex)
    a[:40] = rng.normal(size=(40, n)) + 1j * rng.normal(size=(40, n))
    csr = CsrMatrix.from_dense(a)
    x = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
    csr_matvec(csr, x)  # the row classes are cached on first use
    tracemalloc.start()
    try:
        got = csr_matvec(csr, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.abs(got - a @ x).max() <= 1e-13 * (np.abs(a) @ np.abs(x)).max()
    assert peak < 4 * x.nbytes + csr.values.nbytes


def test_sparse_ops_serve_each_shift_its_own_rhs(rng):
    n = 30
    a = _banded_csr(n, rng, hermitian=True)
    shifts = build_contour(gauss_legendre(8), -1.0, 1.0).z
    ops = _SparseOps(a.expand_full(), None, shifts, hermitian=True)
    # The first factorizations must build one shared batch.
    handles = [ops.factorize(complex(z)) for z in shifts]
    assert all(h[0] is handles[0][0] for h in handles)
    assert [h[1] for h in handles] == list(range(len(shifts)))

    r0 = rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4))
    r1 = rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4))
    for method, adjoint in ((ops.solve, False), (ops.solve_adjoint, True)):
        # Shift 1 gets another RHS between two requests of shift 0.
        for e, rhs in ((0, r0), (1, r1), (0, r0), (1, r0)):
            got = method(handles[e], rhs)
            one = _SparseFactor(ops.symbolic, ops.pattern.shifted_data(complex(shifts[e])))
            want = one.solve(rhs, adjoint=adjoint)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
            if not adjoint:
                assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("driver", ["feast_scsr", "feast_hcsr", "feast_hb"])
def test_a_solve_sweeps_each_group_once_a_pass(monkeypatch, driver):
    """``run_rci`` keys each solve by the kernel's pass, so a contour pass
    of 8 shifts sweeps all shifts once for a real symmetric driver, and
    each half of them once each way for a Hermitian one: 3 and 12 sweeps
    for a solve of 3 passes (2 refinement loops).  Each solution is
    written into ``work2``: ``out`` is the right-hand side's block."""
    p = 12
    t = 2 * np.eye(p) - np.eye(p, k=1) - np.eye(p, k=-1)
    a = np.kron(t, np.eye(p)) + np.kron(np.eye(p), t)
    emin, emax = gap_interval(np.linalg.eigvalsh(a), 0, 9)
    sweeps, outs = [], []
    sweep, pick = _SparseFactor.sweep, _SparseFactor.pick

    def counted(self, b, adjoint=False, shifts=slice(None)):
        sweeps.append((adjoint, tuple(range(self.ne)[shifts])))
        return sweep(self, b, adjoint, shifts)

    def picked(self, y, shift, first=0, out=None):
        outs.append(out)
        return pick(self, y, shift, first, out)

    monkeypatch.setattr(_SparseFactor, "sweep", counted)
    monkeypatch.setattr(_SparseFactor, "pick", picked)
    if driver == "feast_hb":
        ab = np.array([np.append(np.diagonal(a, -s), np.zeros(s)) for s in range(p + 1)])
        result = feast_hb(ab.astype(complex), p, emin, emax, 16, uplo="L")
    else:
        call = feast_scsr if driver == "feast_scsr" else feast_hcsr
        result = call(CsrMatrix.from_dense(a if call is feast_scsr else a + 0j), emin, emax, 16)
    assert result.info == 0 and result.m == 10 and result.loop == 2
    groups = [tuple(range(8))] if driver == "feast_scsr" else [(0, 1, 2, 3), (4, 5, 6, 7)]
    directions = (False,) if driver == "feast_scsr" else (False, True)
    assert sweeps == [(adjoint, g) for g in groups for adjoint in directions] * 3
    assert len(outs) == 8 * len(directions) * 3
    assert all(out is not None and out.shape == (p * p, 16) for out in outs)


def test_helloworld_csr():
    hello = CsrMatrix.from_dense(np.array([[2.0, -1.0], [-1.0, 2.0]]))
    assert hello.nnz == 4
    r = feast_scsr(hello, -5.0, 5.0, 2)
    assert r.info == 0
    assert r.m == 2
    assert np.allclose(r.e[:2], [1.0, 3.0], atol=1e-12)


def test_laplacian_pencil_matches_dense_backend():
    n = 50
    a = 2 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    b = (4 * np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1)) / 6
    import scipy.linalg as sla

    ev = sla.eigh(a, b, eigvals_only=True)
    emin, emax = gap_interval(ev, 0, 4)
    rs = feast_scsr(CsrMatrix.from_dense(a), emin, emax, 8, b=CsrMatrix.from_dense(b))
    rd = feast_sy(a, emin, emax, 8, b=b)
    assert rs.info == rd.info == 0
    assert rs.m == rd.m == 5
    assert np.abs(rs.e[:5] - rd.e[:5]).max() <= 1e-10


@pytest.mark.parametrize("n", [30, 120])
def test_csr_equals_dense_backend_random(rng, n):
    a = random_symmetric(n, rng)
    mask = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= 6
    a = np.where(mask, a, 0)
    ev = np.linalg.eigvalsh(a)
    emin, emax = gap_interval(ev, n // 4, n // 2)
    m0 = (n // 2 - n // 4 + 1) + 6
    rs = feast_scsr(CsrMatrix.from_dense(a), emin, emax, m0)
    rd = feast_sy(a, emin, emax, m0)
    assert rs.info == rd.info == 0
    assert rs.m == rd.m
    assert np.abs(rs.e[:rs.m] - rd.e[:rd.m]).max() <= 1e-10


def test_system_shaped_generalized_problem(rng):
    # Synthetic stand-in with the documented shape: N=1671, NNZ=11435 and
    # the same sparsity pattern for A and B.
    n, target_nnz = 1671, 11435
    kl = 3
    rows, cols = [], []
    for d in range(kl + 1):
        r = np.arange(n - d)
        rows.append(r + d)
        cols.append(r)
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    # full-pattern count of a kl=3 band is 11685; drop 125 outermost pairs
    full_count = n + 2 * (3 * n - 6)
    drop = (full_count - target_nnz) // 2
    outer = np.flatnonzero(rows - cols == kl)[:drop]
    keep = np.ones(len(rows), dtype=bool)
    keep[outer] = False
    rows, cols = rows[keep], cols[keep]
    off = rows != cols
    avals = rng.normal(size=len(rows))
    bvals = 0.1 * rng.normal(size=len(rows))
    bvals[~off] = 4.0 + rng.random(n)  # diagonally dominant SPD
    a = CsrMatrix.from_coo(n, np.concatenate([rows, cols[off]]) + 1,
                           np.concatenate([cols, rows[off]]) + 1,
                           np.concatenate([avals, avals[off]]))
    b = CsrMatrix.from_coo(n, np.concatenate([rows, cols[off]]) + 1,
                           np.concatenate([cols, rows[off]]) + 1,
                           np.concatenate([bvals, bvals[off]]))
    assert a.nnz == target_nnz
    assert b.nnz == target_nnz
    true_count = int(np.sum(np.abs(np.linalg.eigvalsh(a.to_dense())) <= 0.3))
    # comfortable subspace: clean convergence on the standard problem
    r = feast_scsr(a, -0.3, 0.3, true_count + 20)
    assert r.info == 0
    assert r.m == true_count
    # saturated subspace: every column lands inside, warning 3
    fpm = feastinit()
    fpm.set_slot(4, 2)
    r_small = feast_scsr(a, -0.3, 0.3, max(1, true_count - 5), fpm=fpm)
    assert r_small.info == 3
    assert r_small.m == r_small.m0
    # generalized variant with the same pattern completes as well
    r2 = feast_scsr(a, -0.3, 0.3, 60, b=b)
    assert r2.info in (0, 3)


def test_iterative_solver_matches_direct(rng):
    n = 60
    a = random_symmetric(n, rng)
    mask = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= 2
    a = np.where(mask, a, 0) + 4 * np.eye(n)
    ev = np.linalg.eigvalsh(a)
    emin, emax = gap_interval(ev, 10, 20)
    acsr = CsrMatrix.from_dense(a)
    direct = feast_scsr(acsr, emin, emax, 16)
    from feastlib import feastinit

    fpm = feastinit()
    fpm.set_slot(3, 6)
    fpm.set_slot(4, 50)
    iterative = feast_scsr(acsr, emin, emax, 16, fpm=fpm,
                           options=SolverOptions(solver="iterative", iter_tol=1e-3))
    assert iterative.info in (0, 2)
    assert direct.info == 0
    assert iterative.m == direct.m
    scale = max(abs(emin), abs(emax))
    assert np.abs(iterative.e[:direct.m] - direct.e[:direct.m]).max() <= 1e-4 * scale


def _tridiagonal_csr(n=12):
    """diag(1..n) with -0.1 next to the diagonal, lower triangle."""
    rows = list(range(1, n + 1)) + list(range(2, n + 1))
    cols = list(range(1, n + 1)) + list(range(1, n))
    vals = list(np.arange(1.0, n + 1)) + [-0.1] * (n - 1)
    return CsrMatrix.from_coo(n, rows, cols, vals, "L")


def test_unreachable_iter_tol_returns_minus_two():
    """An iter_tol that BiCGStab cannot reach ends in an overflow or a
    breakdown, which returns -2 and escapes as no warning (it once issued
    hundreds of RuntimeWarnings)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = feast_scsr(_tridiagonal_csr(), 0.5, 5.5, 8,
                            options=SolverOptions(solver="iterative", iter_tol=1e-300))
    assert result.info == -2


def test_hermitian_iterative_solver_matches_direct(rng):
    n = 30
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    a = (a + a.conj().T) / 2
    mask = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= 2
    a = np.where(mask, a, 0) + 6 * np.eye(n)
    ev = np.linalg.eigvalsh(a)
    emin, emax = gap_interval(ev, 10, 14)
    acsr = CsrMatrix.from_dense(a)
    direct = feast_hcsr(acsr, emin, emax, 10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        iterative = feast_hcsr(acsr, emin, emax, 10,
                               options=SolverOptions(solver="iterative", iter_tol=1e-10))
    assert (direct.info, iterative.info) == (0, 0)
    assert iterative.m == direct.m == 5
    scale = max(abs(emin), abs(emax))
    assert np.abs(iterative.e[:5] - direct.e[:5]).max() <= 1e-10 * scale


def test_real_values_through_feast_hcsr():
    """A real-valued CsrMatrix is cast to complex for the Hermitian driver
    and gives the eigenpairs of the same matrix stored as complex."""
    real = _tridiagonal_csr()
    cplx = CsrMatrix(real.n, real.ia, real.ja, real.values.astype(np.complex128), "L")
    r_real = feast_hcsr(real, 0.5, 5.5, 8)
    r_cplx = feast_hcsr(cplx, 0.5, 5.5, 8)
    assert (r_real.info, r_real.m) == (0, 5)
    assert r_real.x.dtype == np.complex128
    assert r_real.e.tobytes() == r_cplx.e.tobytes()
    assert r_real.x.tobytes() == r_cplx.x.tobytes()


@pytest.mark.parametrize("solver", ["Direct", "bogus", "", None])
def test_unknown_inner_solver_is_rejected(solver):
    """Any solver name but 'direct' once ran BiCGStab: on diag(1..40) with
    -0.1 off the diagonal, [0.5, 10.5] and m0=20, 'Direct' gave info=0 with
    m=7 where the direct solver finds 10."""
    with pytest.raises(ValueError, match="solver"):
        SolverOptions(solver=solver)


def test_hermitian_csr_adjoint_served_from_same_factorization(rng):
    n = 16
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    a = (a + a.conj().T) / 2
    mask = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= 2
    a = np.where(mask, a, 0)
    ev = np.linalg.eigvalsh(a)
    emin, emax = gap_interval(ev, 4, 9)
    r = feast_hcsr(CsrMatrix.from_dense(a), emin, emax, 9)
    assert r.info == 0
    assert r.m == 6
    assert np.abs(r.e[:6] - ev[4:10]).max() <= 1e-10


def test_hermitian_generalized_csr(rng):
    import scipy.linalg as sla

    n = 14
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    a = (a + a.conj().T) / 2
    mask = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= 2
    a = np.where(mask, a, 0)
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    b = g @ g.conj().T + n * np.eye(n)
    b = np.where(mask, b, 0)  # keep it banded; still diagonally dominant SPD
    ev = sla.eigh(a, b, eigvals_only=True)
    emin, emax = gap_interval(ev, 3, 8)
    r = feast_hcsr(CsrMatrix.from_dense(a), emin, emax, 9, b=CsrMatrix.from_dense(b))
    assert r.info == 0
    assert r.m == 6
    assert np.abs(r.e[:6] - ev[3:9]).max() <= 1e-10


def test_parallel_contour_identical_results(rng):
    n = 80
    a = random_symmetric(n, rng)
    mask = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= 4
    a = np.where(mask, a, 0)
    ev = np.linalg.eigvalsh(a)
    emin, emax = gap_interval(ev, 20, 35)
    acsr = CsrMatrix.from_dense(a)
    r1 = feast_scsr(acsr, emin, emax, 24, options=SolverOptions(parallel_contour=1))
    r8 = feast_scsr(acsr, emin, emax, 24, options=SolverOptions(parallel_contour=8))
    assert r1.e.tobytes() == r8.e.tobytes()
    assert r1.x.tobytes() == r8.x.tobytes()


def test_parallel_contour_identical_results_hermitian_generalized(rng):
    n = 40
    a = _banded_csr(n, rng, hermitian=True, width=2)
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    mask = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= 2
    b = CsrMatrix.from_dense(np.where(mask, g @ g.conj().T + n * np.eye(n), 0))
    import scipy.linalg as sla

    ev = sla.eigh(a.to_dense(), b.to_dense(), eigvals_only=True)
    emin, emax = gap_interval(ev, 8, 17)
    r1 = feast_hcsr(a, emin, emax, 16, b=b, options=SolverOptions(parallel_contour=1))
    r2 = feast_hcsr(a, emin, emax, 16, b=b, options=SolverOptions(parallel_contour=2))
    assert r1.info == 0
    assert r1.m == 10
    assert r1.e.tobytes() == r2.e.tobytes()
    assert r1.x.tobytes() == r2.x.tobytes()


def test_different_patterns_for_a_and_b(rng):
    import scipy.linalg as sla

    n = 24
    a = np.where(np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= 2,
                 random_symmetric(n, rng), 0)
    b = 3 * np.eye(n)  # diagonal pattern, different from A's
    ev = sla.eigh(a, b, eigvals_only=True)
    emin, emax = gap_interval(ev, 6, 12)
    r = feast_scsr(CsrMatrix.from_dense(a), emin, emax, 10, b=CsrMatrix.from_dense(b))
    assert r.info == 0
    assert r.m == 7
    assert np.abs(r.e[:7] - ev[6:13]).max() <= 1e-10


def test_to_dense_and_to_banded_round_trip(rng):
    a = _reference_dense()
    csr = CsrMatrix.from_dense(a, "L")
    assert np.array_equal(csr.to_dense(), a)
    ab, kl = csr.to_banded()
    assert kl == 1
    from feastlib.banded import band_csr

    assert np.array_equal(band_csr(ab, kl, "F").to_dense(), a)


@pytest.mark.parametrize("driver", [feast_scsr, feast_hcsr])
@pytest.mark.parametrize("generalized", [False, True], ids=["EV", "GV"])
@pytest.mark.parametrize("uplo", ["F", "L"])
def test_single_precision_on_a_grid_with_many_supernodes(rng, driver, generalized, uplo):
    # n=144: the pivot blocks are inverted in single precision (LAPACK's
    # cgesv), over more than n / SUPERNODE supernodes (15 of them).
    hermitian = driver is feast_hcsr
    a = _grid(12, rng)
    if hermitian:
        a = np.triu(a + 1j * np.where(a != 0, rng.normal(size=a.shape), 0), 1)
        a = a + a.conj().T + np.diag(rng.normal(size=len(a)))
    b = None
    if generalized:
        g = _grid(12, rng)
        b = np.eye(len(a)) + 0.5 * g / np.abs(g).sum(axis=1).max()
    linv = np.eye(len(a)) if b is None else np.linalg.inv(np.linalg.cholesky(b))
    want = np.linalg.eigh(linv @ a @ linv.conj().T)[0]
    emin, emax = gap_interval(want, 60, 71)
    dtype = np.complex64 if hermitian else np.float32
    csr = lambda m: CsrMatrix.from_dense(m.astype(dtype), uplo)
    pattern = _ShiftedPattern(csr(a).expand_full(), None)
    assert len(_SparseSymbolic(pattern.n, pattern.indptr, pattern.indices).columns) > 144 // SUPERNODE
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = driver(csr(a), emin, emax, 18, b=None if b is None else csr(b))
    assert r.m == 12 and r.e.dtype == np.float32 and r.x.dtype == dtype
    assert np.abs(r.e[:12] - want[60:72]).max() <= 1e-4 * max(abs(emin), abs(emax))
    assert r.info == 0
