"""Print, for every workload, the end-to-end metrics of an untraced run and
the ROADMAP "Baseline" columns of a traced run.

    python3 perfbench/report.py [--seed 1] [--seconds 40]

Each workload costs two runs of ``--seconds``; every worker makes at least
one repeat, so csr-iterative (about 14 s a solve) takes longer whatever
``--seconds`` says.  Full records go to ``.perfbench/`` as with run.py.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402

import run  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    args = ap.parse_args()

    rows = []
    for name in run.WORKLOADS:
        try:
            plain = run.measure(name, args.seed, args.seconds, trace=False)
            traced = run.measure(name, args.seed, args.seconds, trace=True)
        except run.BenchError as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 2
        for record in (plain, traced):
            path = run.OUT / f"result-{name}-seed{args.seed}-trace{record['trace']}.json"
            path.write_text(json.dumps(record, indent=1))
        rows.append((name, plain, traced))

    print("env " + json.dumps(rows[0][1]["env"]))
    print(f"seed {args.seed}, {args.seconds:g} s per run\n")
    print(f"{'workload':14s} {'solve_s [s]':>16s} {'setup_s [s]':>14s} {'peak_rss_mb [MB]':>17s} "
          f"{'fail_ratio [failed/attempted]':>30s} {'refine_loops [count]':>21s}")
    for name, plain, _ in rows:
        m = {k: v["value"] for k, v in plain["metrics"].items()}
        n = plain["samples"]
        ratio = f"{plain['failed'] / plain['attempted']:.2f} ({plain['failed']}/{plain['attempted']})"
        print(f"{name:14s} {m['solve_s']:7.3f} (n={n['solve_s']:2d}) "
              f"{m['setup_s']:7.3f} (n={n['setup_s']}) {m['peak_rss_mb']:17.1f} "
              f"{ratio:>30s} {m['refine_loops']:21g}")
        for problem in plain["problems"][:3]:
            print(f"{'':14s} ! {problem}")

    print("\nROADMAP Baseline columns from the traced run, wall seconds per solve "
          "(median over traced solves)")
    print(f"{'workload':14s} {'backend':8s} {'total':>8s} {'factorize':>20s} {'solves':>22s} "
          f"{'reduced eig':>12s} {'trace overhead':>15s}")
    for name, _, traced in rows:
        m = {k: v["value"] for group in ("metrics", "extra_metrics")
             for k, v in traced[group].items()}
        solves = m.get("backend.solve_s", 0.0) + m.get("backend.solve_adj_s", 0.0)
        calls = m.get("backend.solve_calls", 0) + m.get("backend.solve_adj_calls", 0)
        print(f"{name:14s} {traced['backend']:8s} {traced['traced_wall_s']:8.3f} "
              f"{m.get('backend.factor_s', float('nan')):8.3f} "
              f"({m.get('backend.factor_calls', 0):3g} shifts) "
              f"{solves:8.3f} ({calls:4g} solves) {m.get('reduced.eig_s', float('nan')):12.3f} "
              f"{m['trace.overhead_ratio']:14.3f}x")
        for hook in traced["absent_hooks"]:
            print(f"{'':14s} ! absent hook: {hook}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
