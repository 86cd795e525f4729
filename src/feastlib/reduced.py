"""Dense eigensolver for the small projected problem A_Q @ phi = eps * B_Q @ phi.

Route:

1. Scale A_Q and B_Q by powers of two, which is exact, so that their largest
   entries lie near one.  Results are scaled back at the end, so the pencil
   may sit anywhere in the floating-point range.
2. Cholesky reduction of the pencil to standard form C = L^-1 A_Q L^-H.
3. The eigenvectors y of C from LAPACK (``np.linalg.eigh``).
4. Back-transformation phi = L^-H y, and the eigenvalues as the Rayleigh
   quotients of phi.

Everything here is O(m0^3) dense work on matrices no larger than the working
subspace.
"""

from __future__ import annotations

import math

import numpy as np


class ReducedSolverError(Exception):
    """Breakdown of the reduced eigensolver (maps to info -3)."""


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


def generalized_eig(aq: np.ndarray, bq: np.ndarray, *, lower: np.ndarray | None = None):
    """Solve aq @ phi = eps * bq @ phi for an SPD/HPD bq.

    Returns all eigenvalues in ascending order and bq-orthonormal
    eigenvectors (phi^H @ bq @ phi == I).  ``lower``, if given, is the
    Cholesky factor of bq that ``spd_factor(bq)`` returns, which is then not
    computed again.  Raises ReducedSolverError if the factorization or LAPACK's
    eigensolve breaks down.
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
    try:
        c = np.linalg.solve(lower, aq)
        c = np.linalg.solve(lower, c.conj().T).conj().T
        _, y = np.linalg.eigh(0.5 * (c + c.conj().T))
        phi = np.linalg.solve(lower.conj().T, y)
    except np.linalg.LinAlgError as exc:
        raise ReducedSolverError(f"reduced eigensolve failed: {exc}") from exc
    # The eigenvalues returned are the Rayleigh quotients of these vectors in
    # the pencil itself.  They miss the rounding of the reduction, which the
    # eigenvalues of C carry (a few n eps ||C||).
    eps = ((phi.conj() * (aq @ phi)).sum(axis=0).real
           / (phi.conj() * (bq @ phi)).sum(axis=0).real)
    order = np.argsort(eps, kind="stable")
    return np.ldexp(eps[order], 2 * sb - sa), phi[:, order] * 2.0 ** sb
