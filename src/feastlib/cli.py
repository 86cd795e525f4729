"""Batch driver: load ``<prefix>.in`` / ``<prefix>.A`` (and ``<prefix>.B``
for generalized problems), run the matching solver, print the report.

Exit codes: 0 when the solver finishes with a success or warning code,
1 on a solver error code, 2 on missing or malformed input files or an
option value that ``SolverOptions`` rejects.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from ._driver import SolverOptions
from .banded import feast_hb, feast_sb
from .dense import feast_he, feast_sy
from .io import ParseError, parse_config, parse_coordinate
from .params import info_classification, info_description
from .sparse import feast_hcsr, feast_scsr


_DTYPES = dict(s=np.float32, d=np.float64, c=np.complex64, z=np.complex128)


def _load(prefix: str):
    cfg_path = Path(prefix + ".in")
    a_path = Path(prefix + ".A")
    if not cfg_path.exists():
        raise FileNotFoundError(cfg_path)
    if not a_path.exists():
        raise FileNotFoundError(a_path)
    cfg = parse_config(cfg_path.read_text())
    dtype = _DTYPES[cfg.precision]
    a_csr = parse_coordinate(a_path.read_text(), dtype, cfg.uplo)
    b_csr = None
    if cfg.problem == "g":
        b_path = Path(prefix + ".B")
        if not b_path.exists():
            raise FileNotFoundError(b_path)
        b_csr = parse_coordinate(b_path.read_text(), dtype, cfg.uplo)
    return cfg, a_csr, b_csr


def _solve(cfg, a_csr, b_csr, fmt, options):
    common = dict(fpm=cfg.fpm, options=options)
    if fmt == "sparse":
        fn = feast_hcsr if cfg.is_complex else feast_scsr
        return fn(a_csr, cfg.emin, cfg.emax, cfg.m0, b=b_csr, **common)
    if fmt == "dense":
        fn = feast_he if cfg.is_complex else feast_sy
        b_mat = None if b_csr is None else b_csr.to_dense()
        return fn(a_csr.to_dense(), cfg.emin, cfg.emax, cfg.m0, b=b_mat, **common)
    fn = feast_hb if cfg.is_complex else feast_sb
    ab, kla = a_csr.to_banded()
    kwargs = dict(common)
    if b_csr is not None:
        bb, klb = b_csr.to_banded()
        kwargs.update(b=bb, klb=klb)
    return fn(ab, kla, cfg.emin, cfg.emax, cfg.m0, **kwargs)


def _print_summary(result, cfg, elapsed):
    print(f"FEAST OUTPUT INFO {result.info}")
    print("*************************************************")
    print("************** REPORT ***************************")
    print("*************************************************")
    print(f"# Search interval [Emin,Emax] {cfg.emin:.15e} {cfg.emax:.15e}")
    print(f"# mode found/subspace {result.m} {result.m0}")
    print(f"# iterations {result.loop}")
    trace = float(np.sum(result.e[: result.m]))
    print(f"TRACE {trace:.15e}")
    print(f"Relative error on the Trace {result.epsout:.15e}")
    print("Eigenvalues/Residuals")
    for i in range(result.m):
        print(f"{i + 1} {result.e[i]:.15e} {result.res[i]:.15e}")
    print(f"Time (s) {elapsed:.3f}")


def run_driver(prefix: str, *, options: SolverOptions | None = None,
               fmt: str = "sparse") -> int:
    """Run one batch solve with ``options`` (None: defaults); returns the exit code."""
    try:
        cfg, a_csr, b_csr = _load(prefix)
    except FileNotFoundError as exc:
        print(f"error: input file not found: {exc.args[0]}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    result = _solve(cfg, a_csr, b_csr, fmt, options)
    elapsed = time.perf_counter() - start
    kind = info_classification(result.info)
    if kind == "error":
        print(f"FEAST error {result.info}: {info_description(result.info)}",
              file=sys.stderr)
        return 1
    if kind == "warning":
        print(f"warning {result.info}: {info_description(result.info)}",
              file=sys.stderr)
    _print_summary(result, cfg, elapsed)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="feast-driver",
        description="Solve the eigenproblem described by <prefix>.in, "
                    "<prefix>.A and optionally <prefix>.B.")
    parser.add_argument("prefix", help="path prefix of the .in/.A/.B files")
    parser.add_argument("--seed", type=int, default=SolverOptions.seed,
                        help="seed of the deterministic start-vector stream")
    parser.add_argument("--parallel-contour", type=int, default=SolverOptions.parallel_contour,
                        metavar="K",
                        help="accepted and validated but has no effect: contour workers "
                             "were slower on every backend, so the shifts are factorized "
                             "in one thread")
    parser.add_argument("--solver", choices=("direct", "iterative"), default=SolverOptions.solver,
                        help="inner linear solver (sparse format only)")
    parser.add_argument("--iter-tol", type=float, default=SolverOptions.iter_tol,
                        help="relative residual of the iterative inner solver")
    parser.add_argument("--format", choices=("dense", "banded", "sparse"),
                        default="sparse", dest="fmt",
                        help="backend used for the solve")
    args = parser.parse_args(argv)
    try:
        options = SolverOptions(seed=args.seed, parallel_contour=args.parallel_contour,
                                solver=args.solver, iter_tol=args.iter_tol)
    except ValueError as exc:
        parser.error(str(exc))
    return run_driver(args.prefix, options=options, fmt=args.fmt)


if __name__ == "__main__":
    sys.exit(main())
