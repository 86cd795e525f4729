"""Self-tests of the benchmark itself, at grid side p=8 (n=64).

    python3 perfbench/selftest.py            # or: python3 -m pytest perfbench/selftest.py

Run from the repository root.  The file name keeps the repository's test
suite from collecting it.
"""

import dataclasses
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
sys.dont_write_bytecode = True

import numpy as np  # noqa: E402

import feastlib  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

P = 8


def dense_from_lower_band(ab: np.ndarray) -> np.ndarray:
    """Full Hermitian matrix from lower band storage (small p only)."""
    kl, n = ab.shape[0] - 1, ab.shape[1]
    out = np.zeros((n, n), dtype=ab.dtype)
    for off in range(kl + 1):
        c = np.arange(n - off)
        out[c + off, c] = ab[off, :n - off]
        if off:
            out[c, c + off] = ab[off, :n - off].conj()
    return out


def problems(seed=1):
    return {name: workloads.Problem(w, seed, p=P) for name, w in workloads.WORKLOADS.items()}


def test_closed_form_spectra_match_eigvalsh():
    for name, pr in problems().items():
        if pr.workload.driver == "feast_hb":
            a = dense_from_lower_band(pr.a)
            lower = np.linalg.cholesky(dense_from_lower_band(pr.b))
            inv = np.linalg.inv(lower)
            dense = inv @ a @ inv.conj().T
        elif pr.workload.driver == "feast_scsr":
            dense = pr.a.to_dense()
        else:
            dense = pr.a
        ref = np.linalg.eigvalsh(dense)
        err = np.abs(ref - pr.evals).max() / np.abs(pr.evals).max()
        assert err < 1e-12, (name, err)
        assert pr.count >= workloads.WANTED and pr.emin < pr.evals[0]
        assert pr.evals[pr.count - 1] < pr.emax < pr.evals[pr.count]


def test_gate_flags_each_failure():
    pr = problems()["csr-direct"]
    good = pr.call()
    assert workloads.gate(good, pr.expected) == []
    e = good.e.copy()
    e[0] *= 1.0 + 1e-8
    assert "relative error" in workloads.gate(dataclasses.replace(good, e=e), pr.expected)[0]
    assert workloads.gate(dataclasses.replace(good, m=good.m - 1), pr.expected)[0].startswith("m=")
    assert workloads.gate(dataclasses.replace(good, info=2), pr.expected) == ["info=2"]


def test_direct_workloads_pass_and_iterative_fails():
    for name, pr in problems().items():
        reasons = workloads.gate(pr.call(), pr.expected)
        if pr.workload.solver == "iterative":
            assert "info=2" in reasons
        else:
            assert reasons == [], (name, reasons)


def test_traced_solve_is_bitwise_identical():
    for name, pr in problems().items():
        tracer = tracing.Tracer()
        plain = pr.call()
        traced, spans = tracer.solve(pr.call, pr.workload.backend)
        assert plain.e.tobytes() == traced.e.tobytes(), name
        assert not tracer.absent, (name, tracer.absent)
        m = tracing.layer_metrics(spans, pr.workload.backend, pr.n, pr.kl)
        assert m["backend.factor_calls"] == 8, (name, m)
        assert m["reduced.eig_calls"] == traced.loop + 1
        assert m["driver.factor_reuse"] == 1.0 / (traced.loop + 1)
        if pr.workload.driver == "feast_hb":
            assert m["backend.solve_adj_calls"] == m["backend.solve_calls"]
        else:
            assert "backend.solve_adj_calls" not in m and "backend.solve_adj_s" not in m
        assert len({s.solve for s in spans}) == 1


def test_same_seed_repeats_bitwise():
    first, again, other = problems(7), problems(7), problems(8)
    for name in first:
        a, b = first[name], again[name]
        assert a.call().e.tobytes() == b.call().e.tobytes(), name
    band = first["band-herm-gen"]
    assert band.a.tobytes() == again["band-herm-gen"].a.tobytes()
    assert band.a.tobytes() != other["band-herm-gen"].a.tobytes()
    assert workloads.gate(other["band-herm-gen"].call(), band.expected) == []


def test_missing_hook_point_leaves_layer_absent():
    pr = problems()["csr-direct"]
    tracer = tracing.Tracer()
    result, spans = tracer.solve(pr.call, "no_such_backend")
    assert workloads.gate(result, pr.expected) == []
    assert tracer.absent == {"feastlib.no_such_backend"}
    m = tracing.layer_metrics(spans, "no_such_backend", pr.n)
    assert set(m) == {"reduced.eig_s", "reduced.eig_calls", "reduced.chol_s", "reduced.chol_calls"}


def test_benchmark_json_names_every_metric():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    assert all(run.unit_of(name) == unit for name, unit in declared.items())
    listed = {w["name"] for w in bench["workloads"]}
    assert listed <= set(workloads.WORKLOADS)
    per_layer = run.declared_per_layer() - {"trace.overhead_ratio"}
    for name in listed:
        pr = problems()[name]
        _, spans = tracing.Tracer().solve(pr.call, pr.workload.backend)
        m = tracing.layer_metrics(spans, pr.workload.backend, pr.n, pr.kl)
        # Every listed workload reports every declared per-layer metric,
        # and none of them is 0.
        assert per_layer <= set(m), (name, per_layer - set(m))
        assert all(m[k] > 0 for k in per_layer), (name, {k: m[k] for k in per_layer if m[k] <= 0})


if __name__ == "__main__":
    tests = [(k, v) for k, v in sorted(globals().items()) if k.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok  {name}")
    print(f"{len(tests)} passed ({feastlib.__file__})")
