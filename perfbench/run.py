"""End-to-end and per-layer benchmark of feastlib's public drivers.

    python3 perfbench/run.py --workload csr-direct --seed 1 --seconds 40 --trace 0

Run from the repository root; feastlib is imported from ``src/``.  One run
measures one workload (see workloads.py) for ``--seconds`` seconds from a
closed loop of driver calls in one worker process at a time, with the BLAS
pinned to one thread.

``--trace 0`` starts WORKERS fresh workers one after another, each with an
equal share of the run (fewer if the run's time is spent first).  Each
reports ``setup_s`` (from before ``import feastlib`` to the return of its
first driver call) and then repeats the same call; every repeat is a
``solve_s`` sample.  The metrics are medians over workers and repeats.
``--trace 1`` starts one worker that alternates untraced and traced
repeats and reports the per-layer metrics of tracing.py: those
BENCHMARK.json declares on the result line, the workload-specific rest
(adjoint solves, factorization rate) in the lines before it and in the
record.

Times are reported at a fixed host speed: each wall time is multiplied by
REFERENCE_S over the time a fixed reference kernel (worker.Reference)
took next to it.  On a shared 2-core x86-64 VM the speed changed by up
to a factor of two for seconds at a time, which put 0.15-0.37 between the
quartiles of ten raw run medians; the reference kernel slows with it and
the scaled times spread about a third as much.  The raw wall medians are
printed and recorded beside them (``wall.*``).  Per-layer span times are
raw wall seconds.

Every solve goes through the correctness gate of workloads.py, and all
solves of a run must return bitwise-identical eigenvalues.  Human-readable
lines come first; the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  The full record, with the
machine, library versions and git commit, is written to
``.perfbench/result-<workload>-seed<seed>-trace<t>.json``.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

# Two cores: one worker at a time, one BLAS thread (multi-threaded BLAS made
# solve times both slower and less steady).
BLAS_THREADS = "1"
# Fresh processes per untraced run.  Each gives one setup_s sample
# (setup_s is their median) and spends the rest of its equal share of
# the run on solve_s repeats.
WORKERS = 5
# Seconds the reference kernel takes at the host speed times are scaled
# to: about its median on a 2-core x86-64 VM with OpenBLAS 0.3.31.
REFERENCE_S = 0.015
HARD_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_gflops"):
        return "GFLOP/s"
    if name.endswith(("factor_reuse", "_ratio")):
        return "ratio"
    return "count"


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def declared_per_layer():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in bench["per_layer"]}


def run_worker(workload, seed, budget, mode, started):
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")])))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--budget", f"{budget:.3f}", "--mode", mode]
    if mode == "trace":
        cmd += ["--spans", str(OUT / f"spans-{workload}-seed{seed}.json")]
    timeout = HARD_LIMIT_S - (time.perf_counter() - started)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the {HARD_LIMIT_S:.0f} s limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def measure(workload, seed, seconds, trace):
    """Run one workload; returns the full record of the run."""
    if not (SRC / "feastlib" / "__init__.py").is_file():
        raise BenchError(f"feastlib sources not found under {SRC}")
    OUT.mkdir(exist_ok=True)
    started = time.perf_counter()
    if trace:
        workers = [run_worker(workload, seed, seconds, "trace", started)]
    else:
        # A worker makes at least one repeat, so a workload whose set-up and
        # one repeat outlast a share (csr-iterative) ends the run early.
        workers = []
        while len(workers) < WORKERS and (not workers or time.perf_counter() < started + seconds):
            workers.append(run_worker(workload, seed, seconds / WORKERS, "plain", started))

    def scaled(walls, refs):
        return [t * REFERENCE_S / r for t, r in zip(walls, refs)]

    solves = [t for w in workers for t in scaled(w["solve_times"], w["solve_refs"])]
    failures = [f for w in workers for f in w["failures"]]
    digests = {d for w in workers for d in w["digests"]}
    samples = {"solve_s": len(solves)}
    extra = {"wall.solve_s": statistics.median(t for w in workers for t in w["solve_times"]),
             "wall.reference_s": statistics.median(r for w in workers for r in w["solve_refs"])}
    if trace:
        w = workers[0]
        declared = declared_per_layer()
        metrics = {k: v for k, v in w["layers"].items() if k in declared}
        extra.update((k, v) for k, v in w["layers"].items() if k not in declared)
        traced = scaled(w["traced_times"], w["traced_refs"])
        metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(solves)
        samples["traced_solve_s"] = len(traced)
    else:
        metrics = {
            "solve_s": statistics.median(solves),
            "setup_s": statistics.median(scaled([w["setup_s"] for w in workers],
                                                [w["setup_ref_s"] for w in workers])),
            "peak_rss_mb": statistics.median(w["peak_rss_mb"] for w in workers),
            "refine_loops": statistics.median(l for w in workers for l in w["loops"]),
        }
        extra["wall.setup_s"] = statistics.median(w["setup_s"] for w in workers)
        samples["setup_s"] = len(workers)
    problems = list(dict.fromkeys(failures))
    if len(digests) != 1:
        problems.append(f"eigenvalues differ between solves of one seed ({len(digests)} variants)")
    record = {
        "workload": workload,
        "backend": WORKLOADS[workload].backend,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": not problems,
        "attempted": sum(w["attempted"] for w in workers),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(metrics.items())},
        "extra_metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(extra.items())},
        "samples": samples,
        "problems": problems,
        "absent_hooks": workers[0].get("absent_hooks", []),
        "workers": [{k: w[k] for k in ("setup_s", "setup_ref_s", "solve_times", "solve_refs",
                                       "traced_times", "traced_refs", "peak_rss_mb")}
                    for w in workers],
        "env": {**workers[0]["env"], "git_commit": git_commit(), "seed": seed},
        "wall_s": time.perf_counter() - started,
    }
    if trace:
        # Raw wall seconds, like the span times it is shown beside.
        record["traced_wall_s"] = statistics.median(workers[0]["traced_times"])
    return record


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    print(f"{args.workload} seed={args.seed} trace={args.trace} samples={record['samples']}")
    print("env " + json.dumps(record["env"]))
    for name, m in {**record["metrics"], **record["extra_metrics"]}.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    for line in record["problems"] + [f"absent hook: {h}" for h in record["absent_hooks"]]:
        print(f"  ! {line}")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
