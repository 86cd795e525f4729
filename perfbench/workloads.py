"""Benchmark workloads: inputs built straight from closed forms, the
closed-form spectra they are checked against, and the correctness gate.

Every workload uses m0=30 and the fpm defaults (8 contour points, trace
tolerance 1e-12, 20 refinement loops, ``parallel_contour=1``).  Emin sits
just below the smallest eigenvalue and Emax at the midpoint of the first
spectral gap after the 20th eigenvalue, counted with multiplicity.

No generator builds a dense intermediate: CSR triplets and band rows are
written entry by entry from the stencils, so the sparse and banded inputs
stay O(n) at any grid size.  Only the dense workload, whose input *is* a
full array, allocates n*n values.

Only public names of feastlib are used, and it is imported lazily so that a
worker process can start its set-up clock before the import.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

M0 = 30
WANTED = 20
# Relative eigenvalue error above which a solve counts as failed.  The
# direct backends reach about 2e-14 on these inputs; the iterative inner
# solver at its default tolerance stops near 1e-7.
EIG_RTOL = 1.0e-10


@dataclass(frozen=True)
class Workload:
    name: str
    driver: str   # public feastlib driver called: feast_scsr, feast_hb, feast_sy
    p: int        # grid side; n = p * p
    solver: str = "direct"

    @property
    def backend(self) -> str:
        """The feastlib module the driver's linear algebra lives in."""
        return BACKENDS[self.driver]


BACKENDS = {"feast_scsr": "sparse", "feast_hb": "banded", "feast_sy": "dense"}


# Each workload is named after the backend module it loads.  The grids are
# sized so that one solve takes about 1-1.5 s on one core: a run then holds
# a dozen or more solves, enough for a steady median on a host whose speed
# drifts by 10-20% within a minute.
WORKLOADS = {
    # ROADMAP's main target.  Loads sparse: minimum-degree ordering and the
    # symbolic analysis (the only workload that runs them), 8 numeric LUs
    # and 24 triangular solves, which split the solve time about evenly.
    # Bypasses the banded and dense backends and all adjoint solves (real
    # symmetric problem, identity B).  n=1600.
    "csr-direct": Workload("csr-direct", "feast_scsr", 40),
    # Loads banded: band LU with pivoting at kl=31, an adjoint solve for
    # every direct solve (HermitianRci) and non-trivial B multiplies.  The
    # same contour loop as csr-direct is far more solve-heavy here.
    # Bypasses symbolic analysis and the sparse and dense code.  n=900.
    "band-herm-gen": Workload("band-herm-gen", "feast_hb", 30),
    # Loads dense: the full LU dominates the solve time and its 8 cached
    # factors (8 * n^2 * 16 B = 20 MB) dominate the memory feastlib adds.
    # The control for sparse and banded changes; bypasses both.  n=400.
    "dense": Workload("dense", "feast_sy", 20),
    # Loads sparse with solver='iterative': diagonal-preconditioned
    # BiCGStab at the default iter_tol.  The only workload that measures
    # it, and the control for csr-direct because it has no symbolic
    # analysis.  At the default iter_tol it cannot reach the 1e-12 trace
    # tolerance (info=2 after 20 loops): that is a counted failure, so it
    # is runnable by name and in report.py but not listed in
    # BENCHMARK.json, whose workloads must not fail.  n=900.
    "csr-iterative": Workload("csr-iterative", "feast_scsr", 30, solver="iterative"),
}


# --- closed-form spectra ----------------------------------------------------


def laplacian_1d_eigs(p: int) -> np.ndarray:
    """Eigenvalues of tridiag(-1, 2, -1) of size p, ascending."""
    theta = np.arange(1, p + 1) * np.pi / (p + 1)
    return 2.0 - 2.0 * np.cos(theta)


def fem_1d_eigs(p: int) -> np.ndarray:
    """Generalized eigenvalues of the 1-D linear-FEM pair (K, M) on p
    interior nodes: (6/h^2) (1 - cos t) / (2 + cos t), t = k pi / (p+1)."""
    h = 1.0 / (p + 1)
    theta = np.arange(1, p + 1) * np.pi / (p + 1)
    return (6.0 / h**2) * (1.0 - np.cos(theta)) / (2.0 + np.cos(theta))


def spectrum(workload: Workload) -> np.ndarray:
    """All n eigenvalues, ascending, with multiplicity: lambda_i + lambda_j."""
    one = fem_1d_eigs(workload.p) if workload.driver == "feast_hb" else laplacian_1d_eigs(workload.p)
    return np.sort((one[:, np.newaxis] + one[np.newaxis, :]).ravel())


def interval(evals: np.ndarray, wanted: int = WANTED):
    """(emin, emax, count): Emax at the midpoint of the first gap after the
    ``wanted``-th eigenvalue, Emin that half-gap below the smallest one.
    Eigenvalues equal to a relative 1e-9 are one multiple eigenvalue."""
    k = wanted - 1
    tol = 1.0e-9 * abs(evals[-1])
    while evals[k + 1] - evals[k] <= tol:
        k += 1
    half_gap = 0.5 * (evals[k + 1] - evals[k])
    return float(evals[0] - half_gap), float(evals[k] + half_gap), k + 1


# --- input generators -------------------------------------------------------


def laplacian_triplets(p: int, lower: bool):
    """0-based (rows, cols, values) of the 2-D 5-point Laplacian
    T (x) I + I (x) T, node (i, j) -> i * p + j; ``lower`` keeps r >= c."""
    n = p * p
    idx = np.arange(n)
    i, j = idx // p, idx % p
    rows = [idx]
    cols = [idx]
    vals = [np.full(n, 4.0)]
    for has_nbr, step in ((j > 0, 1), (i > 0, p)):
        r = idx[has_nbr]
        rows.append(r)
        cols.append(r - step)
        vals.append(np.full(r.size, -1.0))
        if not lower:
            rows.append(r - step)
            cols.append(r)
            vals.append(np.full(r.size, -1.0))
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


def laplacian_csr(p: int, uplo: str = "L"):
    import feastlib

    rows, cols, vals = laplacian_triplets(p, lower=uplo == "L")
    return feastlib.CsrMatrix.from_coo(p * p, rows + 1, cols + 1, vals, uplo)


def laplacian_dense(p: int) -> np.ndarray:
    n = p * p
    rows, cols, vals = laplacian_triplets(p, lower=False)
    a = np.zeros((n, n))
    a[rows, cols] = vals
    return a


def hermitian_phases(n: int, seed: int) -> np.ndarray:
    phi = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, n)
    return np.exp(1j * phi)


def fem_band_lower(p: int, seed: int):
    """LAPACK lower band storage (kl+1 rows, kl = p+1) of
    A = D (K (x) M + M (x) K) D^H and B = D (M (x) M) D^H with
    D = diag(exp(i phi)), phases drawn from ``seed``; ab[d, c] = X[c+d, c]."""
    n = p * p
    kl = p + 1
    h = 1.0 / (p + 1)
    k1 = {0: 2.0 / h, 1: -1.0 / h}        # K[i, i-d]
    m1 = {0: 4.0 * h / 6.0, 1: h / 6.0}   # M[i, i-d]
    d = hermitian_phases(n, seed)
    a = np.zeros((kl + 1, n), dtype=np.complex128)
    b = np.zeros((kl + 1, n), dtype=np.complex128)
    idx = np.arange(n)
    i, j = idx // p, idx % p
    # Couplings from column c = (i, j) to row (i + di, j + dj) with offset
    # di * p + dj >= 0 (lower triangle).
    for di, dj in ((0, 0), (0, 1), (1, -1), (1, 0), (1, 1)):
        ok = (i + di < p) & (j + dj >= 0) & (j + dj < p)
        c = idx[ok]
        off = di * p + dj
        ki, mi = k1[abs(di)], m1[abs(di)]
        kj, mj = k1[abs(dj)], m1[abs(dj)]
        phase = d[c + off] * d[c].conj()
        a[off, c] = (ki * mj + mi * kj) * phase
        b[off, c] = (mi * mj) * phase
    return a, b, kl


# --- driver calls ---------------------------------------------------------------


class Problem:
    """Driver inputs of one workload at one seed, and a zero-argument call
    that runs the public driver on them."""

    def __init__(self, workload: Workload, seed: int, p: int | None = None):
        import feastlib

        self.workload = workload
        self.seed = seed
        self.p = workload.p if p is None else p
        self.kl = None
        self.evals = spectrum(replace(workload, p=self.p))
        self.emin, self.emax, self.count = interval(self.evals)
        self.expected = self.evals[:self.count]
        self.options = feastlib.SolverOptions(seed=seed, solver=workload.solver)
        if workload.driver == "feast_scsr":
            self.a = laplacian_csr(self.p, "L")
            self.call = lambda: feastlib.feast_scsr(
                self.a, self.emin, self.emax, M0, options=self.options)
        elif workload.driver == "feast_hb":
            self.a, self.b, self.kl = fem_band_lower(self.p, seed)
            self.call = lambda: feastlib.feast_hb(
                self.a, self.kl, self.emin, self.emax, M0, uplo="L",
                b=self.b, klb=self.kl, options=self.options)
        elif workload.driver == "feast_sy":
            self.a = laplacian_dense(self.p)
            self.call = lambda: feastlib.feast_sy(
                self.a, self.emin, self.emax, M0, uplo="F", options=self.options)
        else:
            raise ValueError(f"unknown driver {workload.driver!r}")

    @property
    def n(self) -> int:
        return self.p * self.p


def gate(result, expected: np.ndarray, rtol: float = EIG_RTOL) -> list[str]:
    """Reasons a solve failed; empty when it passed."""
    reasons = []
    if result.info != 0:
        reasons.append(f"info={result.info}")
    if result.m != len(expected):
        reasons.append(f"m={result.m}, closed form {len(expected)}")
    else:
        err = np.abs(np.sort(result.e[:result.m]) - expected) / np.abs(expected)
        worst = float(err.max()) if err.size else 0.0
        if not worst <= rtol:
            reasons.append(f"eigenvalue relative error {worst:.1e} > {rtol:.0e}")
    return reasons
