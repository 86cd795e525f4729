"""Dense eigensolver for the small projected problem A_Q @ phi = eps * B_Q @ phi.

Route:

1. Scale A_Q and B_Q by powers of two, which is exact, so that their largest
   entries lie near one.  Results are scaled back at the end, so the pencil
   may sit anywhere in the floating-point range.
2. Cholesky reduction of the pencil to standard form C = L^-1 A_Q L^-H.
3. Householder tridiagonalization C = Q T Q^H, with Q accumulated (after
   scaling C too, since the reflector norms are formed without scaling).
4. The eigenvalues of T by implicit-shift QL with Wilkinson shifts, run on
   Python floats without eigenvectors.
5. The eigenvectors of T by inverse iteration, one LU with partial pivoting
   of T - lambda_j I per eigenvalue (LAPACK's xLAGTF/xLAGTS), each
   elimination and substitution step one numpy operation over all
   eigenvalues.  Columns whose eigenvalues are closer than 1e-3 ||T||_1 form
   a cluster and are orthogonalized against the earlier columns of their
   cluster after each solve, the rule of LAPACK's xSTEIN.  A pair whose
   residual stays above _RESIDUAL_MULTIPLE * n * eps * ||T||_1 raises
   ReducedSolverError, so a wrong vector is never returned.
6. Back-transformation phi = L^-H Q X by one product with Q and one
   triangular solve, and the eigenvalues as the Rayleigh quotients of phi.

Everything here is O(m0^3) dense work on matrices no larger than the working
subspace.
"""

from __future__ import annotations

import math

import numpy as np


class ReducedSolverError(Exception):
    """Iteration failure in the reduced eigensolver (maps to info -3)."""


_EPS = float(np.finfo(np.float64).eps)
# QL sweeps allowed per eigenvalue; exceeding them is a failure.
_QL_MAX_SWEEPS = 30
# Inverse iteration (xSTEIN's constants): at most _INV_MAX_SOLVES solves, and
# each column goes on for _INV_EXTRA solves after its first one whose
# solution is large enough to show the shift is an eigenvalue.
_INV_MAX_SOLVES = 5
_INV_EXTRA = 2
# Consecutive eigenvalues closer than this times ||T||_1 share a cluster.
_CLUSTER_GAP = 1e-3
# A tridiagonal eigenpair is accepted when ||T x - lambda x||_2 is at most
# this times n * eps * ||T||_1.
_RESIDUAL_MULTIPLE = 10.0
# Fixed seed of the inverse-iteration start vectors, so that same-input
# calls are bitwise equal.
_START_SEED = 20120101


# --- deterministic random stream (SplitMix64, counter-based) ---------------
# The kernel's random start block and the inverse-iteration start vectors
# both draw from it; it lives here because the kernel imports this module.

_SM_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_SM_MIX2 = np.uint64(0x94D049BB133111EB)


def random_uniform(seed: int, offset: int, count: int) -> np.ndarray:
    """Deterministic uniform samples in [-1, 1).

    Counter-based SplitMix64: sample i depends only on (seed, offset + i),
    so identical arguments always reproduce identical samples regardless of
    platform or thread count.
    """
    idx = np.arange(offset + 1, offset + count + 1, dtype=np.uint64)
    z = np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + idx * _SM_GAMMA
    z = (z ^ (z >> np.uint64(30))) * _SM_MIX1
    z = (z ^ (z >> np.uint64(27))) * _SM_MIX2
    z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) * 2.0 ** -52 - 1.0


def _pow2_exponent(m: np.ndarray) -> int:
    """k such that 2**k * max|m| lies in [1/2, 1), limited so that 2.0**k is a
    normal float; 0 for a zero matrix."""
    peak = float(np.abs(m).max()) if m.size else 0.0
    if peak == 0.0:
        return 0
    return min(max(-math.frexp(peak)[1], -1022), 1022)


def spd_factor(b: np.ndarray):
    """Cholesky factor of a symmetric/Hermitian positive-definite matrix.

    Returns ``(L, None)`` on success with ``L @ L.conj().T == b``, or
    ``(None, j)`` with the 1-based index of the first non-positive pivot.
    """
    b = np.asarray(b)
    n = b.shape[0]
    if b.shape != (n, n):
        raise ValueError(f"expected square matrix, got {b.shape}")
    lower = np.zeros_like(b)
    for j in range(n):
        d = (b[j, j] - lower[j, :j] @ lower[j, :j].conj()).real
        if not d > 0.0 or not np.isfinite(d):
            return None, j + 1
        lower[j, j] = np.sqrt(d)
        if j + 1 < n:
            lower[j + 1:, j] = (b[j + 1:, j] - lower[j + 1:, :j] @ lower[j, :j].conj()) / lower[j, j]
    return lower, None


def _solve_lower(lower: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve lower @ x = rhs (forward substitution, block RHS)."""
    x = np.array(rhs, copy=True)
    n = lower.shape[0]
    for i in range(n):
        if i:
            x[i] -= lower[i, :i] @ x[:i]
        x[i] /= lower[i, i]
    return x


def _solve_lower_adjoint(lower: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve lower^H @ x = rhs (back substitution, block RHS)."""
    x = np.array(rhs, copy=True)
    n = lower.shape[0]
    for i in range(n - 1, -1, -1):
        if i + 1 < n:
            x[i] -= lower[i + 1:, i].conj() @ x[i + 1:]
        x[i] /= lower[i, i].conjugate()
    return x


def _tridiagonalize(a: np.ndarray):
    """Householder reduction of a Hermitian matrix to real tridiagonal form.

    Returns (d, e, q) with d the diagonal, e the n-1 subdiagonal entries
    (real, nonnegative) and q the accumulated transformation, so that
    a == q @ T @ q^H.  The column norms are formed without scaling, so the
    entries of a should be of order one.
    """
    a = np.array(a, copy=True)
    n = a.shape[0]
    q = np.eye(n, dtype=a.dtype)
    sub = np.zeros(max(n - 1, 0), dtype=a.dtype)
    for k in range(n - 2):
        x = a[k + 1:, k]
        xnorm = math.sqrt((x.conj() @ x).real)
        if xnorm == 0.0:
            continue
        x0abs = abs(x[0])
        alpha = -(x[0] / x0abs) * xnorm if x0abs != 0 else -xnorm
        sub[k] = alpha
        # H = I - v v^H with v = sqrt(2) (x - alpha e_1) / ||x - alpha e_1||.
        h = 1.0 / math.sqrt(xnorm * (xnorm + x0abs))
        v = x * h
        v[0] -= alpha * h
        vc = v.conj()
        # Two-sided update of the trailing block: with p = A v - (v^H A v / 2) v,
        # H A H = A - p v^H - v p^H.
        trail = a[k + 1:, k + 1:]
        p = trail @ v
        p -= (0.5 * (vc @ p).real) * v
        t = p[:, None] * vc
        trail -= t
        trail -= t.conj().T
        qk = q[:, k + 1:]
        qk -= (qk @ v)[:, None] * vc
    if n > 1:
        sub[n - 2] = a[n - 1, n - 2]
    d = a.diagonal().real.astype(np.float64)
    e = np.abs(sub).astype(np.float64)
    if n > 1:
        # Fold the subdiagonal phases (signs, for real a) into q so that the
        # subdiagonal is real and nonnegative.
        nonzero = e != 0
        phase = np.ones(n, dtype=a.dtype)
        phase[1:] = np.cumprod(np.where(nonzero, sub / np.where(nonzero, e, 1.0), 1.0))
        q *= phase
    return d, e, q


def _ql_eigenvalues(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Eigenvalues, ascending, of the real symmetric tridiagonal matrix with
    diagonal d and subdiagonal e, by implicit-shift QL sweeps with Wilkinson
    shifts on Python floats."""
    d = d.tolist()
    n = len(d)
    ee = e.tolist() + [0.0]
    hypot, eps = math.hypot, _EPS
    for l in range(n):
        sweeps = 0
        while True:
            m = l
            while m < n - 1:
                if abs(ee[m]) <= eps * (abs(d[m]) + abs(d[m + 1])):
                    break
                m += 1
            if m == l:
                break
            sweeps += 1
            if sweeps > _QL_MAX_SWEEPS:
                raise ReducedSolverError(
                    f"tridiagonal QL failed to converge for eigenvalue {l}"
                )
            # Wilkinson shift from the leading 2x2.
            g = (d[l + 1] - d[l]) / (2.0 * ee[l])
            r = hypot(g, 1.0)
            g = d[m] - d[l] + ee[l] / (g + (r if g >= 0 else -r))
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, l - 1, -1):
                f = s * ee[i]
                b = c * ee[i]
                r = hypot(f, g)
                ee[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= p
                    ee[m] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            else:
                d[l] -= p
                ee[l] = g
                ee[m] = 0.0
    return np.sort(np.array(d, dtype=np.float64))


def _shifted_lu(d: np.ndarray, e: np.ndarray, lam: np.ndarray, tol: float):
    """LU factors with partial pivoting of T - lam[j] I for every j at once
    (n >= 2).

    Returns lists (u1, u2, u3, mult, swap) with one entry per elimination
    step, each over all shifts: ``swap`` says whether rows i and i+1 were
    interchanged, ``mult`` is the multiplier, and U has diagonal ``u1`` and
    superdiagonals ``u2``, ``u3`` (as LAPACK's xLAGTF).  Pivots smaller than
    tol in magnitude are replaced by +-tol, as xLAGTS does for a shift that
    is an eigenvalue.
    """
    n = d.shape[0]
    shifted = d[:, None] - lam
    offdiag = e[:, None] + np.zeros_like(lam)
    u1, u2, mult, swap = [], [], [], []
    a = shifted[0]
    b = offdiag[0]
    for i in range(n - 1):
        c = offdiag[i]
        nxt = shifted[i + 1]
        if e[i] == 0.0:
            # T splits here: nothing to eliminate.
            s, l, piv, up, a = np.zeros(lam.shape, dtype=bool), 0.0, a, b, nxt
        else:
            s = np.abs(a) < c
            piv = np.where(s, c, a)
            l = np.where(s, a, c) / piv
            up = np.where(s, nxt, b)
            a = np.where(s, b, nxt) - l * up
        if i + 2 < n:
            b = np.where(s, -l * offdiag[i + 1], offdiag[i + 1])
        u1.append(piv)
        u2.append(up)
        mult.append(l)
        swap.append(s)
    u1.append(a)
    pivots = np.array(u1)
    small = np.abs(pivots) < tol
    pivots[small] = np.copysign(tol, pivots[small])
    # A swap at step i moves e[i+1] into the second superdiagonal of U.
    u3 = np.zeros((n, lam.shape[0]))
    if n > 2:
        u3[:n - 2] = swap[:n - 2] * offdiag[1:]
    return list(pivots), u2, list(u3), mult, swap


def _shifted_solve(lu, y: np.ndarray) -> None:
    """Solve (T - lam[j] I) x_j = y_j in place for the columns of y."""
    u1, u2, u3, mult, swap = lu
    n = y.shape[0]
    cur = y[0]
    for i in range(n - 1):
        nxt = y[i + 1]
        s = swap[i]
        top = np.where(s, nxt, cur)
        cur = np.where(s, cur, nxt) - mult[i] * top
        y[i] = top
    x1 = cur / u1[n - 1]
    y[n - 1] = x1
    x2 = 0.0
    for i in range(n - 2, -1, -1):
        x = (y[i] - u2[i] * x1 - u3[i] * x2) / u1[i]
        y[i] = x
        x1, x2 = x, x1


def _orthogonalize_clusters(x: np.ndarray, first: np.ndarray, rank: np.ndarray) -> None:
    """Modified Gram-Schmidt in place: each column is orthogonalized against
    the earlier columns of its cluster, which starts at column first[j];
    rank[j] = j - first[j].  One step per place in the cluster, each over
    all clusters at once."""
    for r in range(int(rank.max())):
        later = rank > r
        basis = x[:, first[later] + r]
        basis = basis / np.linalg.norm(basis, axis=0)
        x[:, later] -= basis * (basis * x[:, later]).sum(axis=0)


def _tridiagonal_vectors(d: np.ndarray, e: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Orthonormal eigenvectors of the tridiagonal (d, e) for its ascending
    eigenvalues lam, by inverse iteration on all columns at once.

    Follows LAPACK's xSTEIN: each right-hand side is scaled so that a large
    solution shows convergence, and each column of a cluster is
    orthogonalized against the earlier columns of its cluster after every
    solve.  Here all columns advance together, so the earlier columns are the
    current iterates rather than converged vectors.
    """
    n, k = d.shape[0], lam.shape[0]
    rows = np.abs(d)
    rows[:-1] += e
    rows[1:] += e
    tnorm = float(rows.max()) or 1.0
    lu = _shifted_lu(d, e, lam, _EPS * tnorm)
    # Cluster of each column: its first column and its place in the cluster.
    first = np.arange(k)
    for j in range(1, k):
        if lam[j] - lam[j - 1] <= _CLUSTER_GAP * tnorm:
            first[j] = first[j - 1]
    rank = np.arange(k) - first
    # Distinct deterministic start vectors, so that the columns of an exact
    # multiple eigenvalue span its eigenspace.
    x = random_uniform(_START_SEED, 0, n * k).reshape(n, k)
    rhs_size = n * tnorm * np.maximum(_EPS, np.abs(lu[0][-1]))
    large = math.sqrt(0.1 / n)
    checks = np.zeros(k, dtype=int)
    for _ in range(_INV_MAX_SOLVES):
        x *= rhs_size / np.abs(x).sum(axis=0)
        _shifted_solve(lu, x)
        _orthogonalize_clusters(x, first, rank)
        checks += np.abs(x).max(axis=0) >= large
        if checks.min() > _INV_EXTRA:
            break
    # A solve leaves the columns of a tight cluster nearly parallel, and one
    # Gram-Schmidt pass then loses orthogonality in proportion; a second pass
    # restores it.
    _orthogonalize_clusters(x, first, rank)
    x /= np.linalg.norm(x, axis=0)
    # Sign convention of xSTEIN: the largest entry of each vector is positive.
    x *= np.where(x[np.abs(x).argmax(axis=0), np.arange(k)] < 0.0, -1.0, 1.0)
    tx = d[:, None] * x
    tx[:-1] += e[:, None] * x[1:]
    tx[1:] += e[:, None] * x[:-1]
    residual = np.linalg.norm(tx - x * lam, axis=0)
    bad = ~(residual <= _RESIDUAL_MULTIPLE * n * _EPS * tnorm)
    if bad.any():
        j = int(np.argmax(bad))
        raise ReducedSolverError(
            f"inverse iteration left residual {residual[j]:.3e} for eigenvalue {j}"
        )
    return x


def standard_eig(a: np.ndarray):
    """All eigenvalues (ascending) and orthonormal eigenvectors of a
    symmetric/Hermitian matrix."""
    a = np.asarray(a)
    n = a.shape[0]
    if n <= 1:
        return a.diagonal().real.astype(np.float64), np.eye(n, dtype=a.dtype)
    scale = _pow2_exponent(a)
    d, e, q = _tridiagonalize(a * 2.0 ** scale)
    lam = _ql_eigenvalues(d, e)
    x = _tridiagonal_vectors(d, e, lam)
    return np.ldexp(lam, -scale), q @ x


def generalized_eig(aq: np.ndarray, bq: np.ndarray, *, lower: np.ndarray | None = None):
    """Solve aq @ phi = eps * bq @ phi for an SPD/HPD bq.

    Returns all eigenvalues in ascending order and bq-orthonormal
    eigenvectors (phi^H @ bq @ phi == I).  ``lower``, if given, is the
    Cholesky factor of bq that ``spd_factor(bq)`` returns, which is then not
    computed again.  Raises ReducedSolverError if the factorization or the
    tridiagonal iteration breaks down.
    """
    aq = np.asarray(aq)
    bq = np.asarray(bq)
    n = aq.shape[0]
    if aq.shape != bq.shape or aq.shape != (n, n):
        raise ValueError(f"shape mismatch: {aq.shape} vs {bq.shape}")
    if not (np.all(np.isfinite(aq)) and np.all(np.isfinite(bq))):
        raise ReducedSolverError("non-finite entries in the reduced matrices")
    if n == 1:
        b00 = bq[0, 0].real
        if b00 <= 0:
            raise ReducedSolverError("1x1 reduced B is not positive")
        eps = np.array([aq[0, 0].real / b00])
        phi = np.full((1, 1), 1.0 / np.sqrt(b00), dtype=aq.dtype)
        return eps, phi
    # Scale A by 2**sa and B by 2**(2 sb), both exact: the eigenvalues scale
    # by 2**(sa - 2 sb), the eigenvectors by 2**-sb and L by 2**sb.
    sa = _pow2_exponent(aq)
    sb = _pow2_exponent(bq) // 2
    aq = aq * 2.0 ** sa
    bq = bq * 2.0 ** (2 * sb)
    if lower is None:
        lower, fail = spd_factor(bq)
        if fail is not None:
            raise ReducedSolverError(f"reduced B not positive definite at pivot {fail}")
    else:
        lower = lower * 2.0 ** sb
    # Standard form C = L^-1 A L^-H, then eigenvectors phi = L^-H y.
    c = _solve_lower(lower, aq)
    c = _solve_lower(lower, c.conj().T).conj().T
    c = 0.5 * (c + c.conj().T)
    _, y = standard_eig(c)
    phi = _solve_lower_adjoint(lower, y)
    # The eigenvalues returned are the Rayleigh quotients of these vectors in
    # the pencil itself.  They miss the rounding of the reduction and of the
    # Householder steps, which the QL values of C carry (a few n eps ||C||).
    eps = ((phi.conj() * (aq @ phi)).sum(axis=0).real
           / (phi.conj() * (bq @ phi)).sum(axis=0).real)
    order = np.argsort(eps, kind="stable")
    return np.ldexp(eps[order], 2 * sb - sa), phi[:, order] * 2.0 ** sb
