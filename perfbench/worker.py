"""One measuring process of the benchmark; started by run.py, one at a time.

The set-up clock starts here, before numpy and feastlib are imported, and
stops when the first driver call returns.  The process then repeats the
same call on the same inputs, at least once, and starts no further repeat
that would end past its time budget:

* ``--mode plain``: each repeat is a solve_s sample.
* ``--mode trace``: repeats alternate untraced and traced calls, so the
  per-layer metrics and the tracing overhead come from one process.

Around every timed call the process also times a fixed reference kernel
that does not touch feastlib (see ``Reference``), so that run.py can
express each time at a fixed host speed.

Prints one JSON object as its last line.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

import feastlib  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class Reference:
    """Fixed work, independent of feastlib and of the workload: an
    interpreted loop and a complex LAPACK LU solve (one BLAS thread), the
    two kinds of work feastlib's solves are made of.  On a shared VM the
    speed can change by up to a factor of two for seconds at a time; the
    kernel, timed just before and after each driver call, slows with it."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((400, 400)) + 1j * rng.standard_normal((400, 400))
        self.b = rng.standard_normal((400, 8)) + 0j

    def seconds(self) -> float:
        t = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i
        np.linalg.solve(self.a, self.b)
        return time.perf_counter() - t


def digest(result) -> str:
    return hashlib.sha256(result.e.tobytes()).hexdigest()


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "feastlib": os.path.dirname(feastlib.__file__),
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--budget", type=float, required=True,
                    help="seconds from process start after which no repeat ends")
    ap.add_argument("--mode", choices=("plain", "trace"), default="plain")
    ap.add_argument("--spans", help="where the trace mode writes its spans")
    args = ap.parse_args()

    work = workloads.WORKLOADS[args.workload]
    problem = workloads.Problem(work, args.seed)
    first = problem.call()
    setup_s = time.perf_counter() - T0
    # Peak memory through the first result, so that it does not depend on
    # how many repeats fit in the budget.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    # The reference needs numpy, which the set-up clock covers, so for the
    # set-up it is timed only afterwards.
    reference = Reference()
    setup_ref_s = (reference.seconds() + reference.seconds()) / 2

    failures = []
    loops = []
    digests = set()

    def check(result):
        reasons = workloads.gate(result, problem.expected)
        if reasons:
            failures.append("; ".join(reasons))
        loops.append(result.loop)
        digests.add(digest(result))

    check(first)
    walls = {"plain": [], "trace": []}
    refs = {"plain": [], "trace": []}
    layers = []
    tracer = tracing.Tracer()
    last = setup_s
    end = T0 + args.budget
    # The trace mode alternates untraced and traced repeats and makes at
    # least one of each.
    while not walls[args.mode] or time.perf_counter() + last <= end:
        traced = args.mode == "trace" and len(walls["plain"]) > len(walls["trace"])
        kind = "trace" if traced else "plain"
        start = time.perf_counter()
        before = reference.seconds()
        t = time.perf_counter()
        if traced:
            result, spans = tracer.solve(problem.call, work.backend)
        else:
            result = problem.call()
        walls[kind].append(time.perf_counter() - t)
        refs[kind].append((before + reference.seconds()) / 2)
        last = time.perf_counter() - start
        if traced:
            layers.append(tracing.layer_metrics(spans, work.backend, problem.n, problem.kl))
        check(result)

    out = {
        "setup_s": setup_s,
        "setup_ref_s": setup_ref_s,
        "solve_times": walls["plain"],
        "solve_refs": refs["plain"],
        "traced_times": walls["trace"],
        "traced_refs": refs["trace"],
        "loops": loops,
        "failures": failures,
        "attempted": len(loops),
        "digests": sorted(digests),
        "peak_rss_mb": peak_rss_mb,
        "env": environment(),
    }
    if args.mode == "trace":
        names = sorted({k for m in layers for k in m})
        out["layers"] = {k: statistics.median(m[k] for m in layers if k in m) for k in names}
        out["absent_hooks"] = sorted(tracer.absent)
        if args.spans:
            tracer.dump(args.spans, {"workload": work.name, "seed": args.seed,
                                     "n": problem.n, **out["env"]})
    print(json.dumps(out))


if __name__ == "__main__":
    main()
