"""Outside-in tracing of one feastlib solve.

Hooks are installed from the benchmark's side, around the calls into each
layer, and removed after the traced solve:

* ``run_rci`` as looked up by the backend module (``feastlib.<b>``); the
  wrapper times the ops object's five task methods and ``step()`` on the
  kernel instance;
* ``generalized_eig`` and ``spd_factor`` as looked up by ``feastlib.kernel``.

Spans (name, start, end, parent, attributes) of one solve share its id and
are kept in memory; ``Tracer.dump`` writes them out.  A hook point that no
longer exists is skipped and the metrics that depend on it are left out, so
tracing never breaks a solve.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

# ops method -> (metric label, position of the block argument whose columns
# are counted, or None).
OPS_METHODS = {
    "factorize": ("factor", None),
    "solve": ("solve", 1),
    "solve_adjoint": ("solve_adj", None),
    "multiply_a": ("mul_a", 0),
    "multiply_b": ("mul_b", 0),
}
# Operations behind a factorization, as computed from the matrix shape
# (complex arithmetic, 8 real flops per multiply-add).
FACTOR_FLOPS = {
    # Dense LU of an n x n matrix: n^3 / 3 multiply-adds.
    "dense": lambda n, kl: 8.0 * n**3 / 3.0,
    # Band LU with kl sub- and kl super-diagonals, pivoting fill to 2*kl
    # super-diagonals: each of n columns updates kl rows x 2*kl columns.
    "banded": lambda n, kl: 8.0 * n * kl * 2 * kl,
}


@dataclass
class Span:
    solve: int
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.absent: set[str] = set()
        self._stack: list[Span] = []
        self._solve = -1

    @contextmanager
    def span(self, name, **attrs):
        parent = self._stack[-1].id if self._stack else None
        s = Span(self._solve, len(self.spans), parent, name, time.perf_counter(), attrs=attrs)
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name, cols_arg=None):
        def traced(*args, **kwargs):
            attrs = {}
            if cols_arg is not None and len(args) > cols_arg:
                shape = getattr(args[cols_arg], "shape", ())
                attrs["cols"] = int(shape[1]) if len(shape) == 2 else 1
            with self.span(name, **attrs):
                return fn(*args, **kwargs)
        return traced

    def wrap_step(self, step):
        def traced():
            with self.span("kernel.step") as s:
                task = step()
                s.attrs["task"] = getattr(task, "name", str(task))
                return task
        return traced

    def solve(self, call, backend):
        """Run one traced driver call; returns its result and its spans."""
        self._solve += 1
        first = len(self.spans)
        with installed(self, backend), self.span("solve", backend=backend):
            result = call()
        return result, self.spans[first:]

    def dump(self, path, meta):
        with open(path, "w") as f:
            json.dump({"meta": meta, "absent_hooks": sorted(self.absent),
                       "spans": [asdict(s) for s in self.spans]}, f)


@contextmanager
def installed(tracer, backend):
    """Patch the hook points for one solve and restore them afterwards."""
    import feastlib.kernel

    patches = []

    def patch(owner, attr, make):
        original = getattr(owner, attr, None)
        if original is None:
            tracer.absent.add(f"{owner.__name__}.{attr}")
            return
        patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    module = _backend_module(backend)
    if module is None:
        tracer.absent.add(f"feastlib.{backend}")
    else:
        patch(module, "run_rci", lambda run: _traced_run_rci(tracer, run, backend))
    patch(feastlib.kernel, "generalized_eig", lambda f: tracer.wrap(f, "reduced.eig"))
    patch(feastlib.kernel, "spd_factor", lambda f: tracer.wrap(f, "reduced.chol"))
    try:
        yield
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def _backend_module(backend):
    import importlib

    try:
        return importlib.import_module(f"feastlib.{backend}")
    except ImportError:
        return None


def _traced_run_rci(tracer, run_rci, backend):
    def wrap_method(obj, method, make):
        fn = getattr(obj, method, None)
        try:
            if not callable(fn):
                raise AttributeError(method)
            setattr(obj, method, make(fn))
        except AttributeError:
            tracer.absent.add(f"{type(obj).__name__}.{method}")

    def traced(kernel, ops, *args, **kwargs):
        with tracer.span("driver.run_rci"):
            for method, (label, cols_arg) in OPS_METHODS.items():
                wrap_method(ops, method,
                            lambda fn: tracer.wrap(fn, f"{backend}.{label}", cols_arg))
            wrap_method(kernel, "step", tracer.wrap_step)
            return run_rci(kernel, ops, *args, **kwargs)
    return traced


# --- per-layer metrics ---------------------------------------------------------


def layer_metrics(spans, backend, n, kl=None):
    """Per-layer metrics of one traced solve, from its spans.  The backend
    module's metrics are named ``backend.*`` whichever module it is, so
    that every workload reports the same names.  Metrics whose spans were
    never recorded are left out."""
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def total(name):
        return sum(s.seconds for s in by_name.get(name, ()))

    out = {}
    solve = by_name["solve"][0]
    run = by_name.get("driver.run_rci")
    ops_s = 0.0
    if run:
        out["backend.prepare_s"] = run[0].start - solve.start
        for label, cols_arg in OPS_METHODS.values():
            calls = by_name.get(f"{backend}.{label}", [])
            if not calls:
                continue
            out[f"backend.{label}_calls"] = len(calls)
            out[f"backend.{label}_s"] = total(f"{backend}.{label}")
            ops_s += out[f"backend.{label}_s"]
            if cols_arg is not None:
                out[f"backend.{label}_cols"] = sum(s.attrs["cols"] for s in calls)
        flops = FACTOR_FLOPS.get(backend)
        if flops is not None and "backend.factor_s" in out:
            out["backend.factor_gflops"] = (
                out["backend.factor_calls"] * flops(n, kl) / out["backend.factor_s"] / 1e9)
    steps = by_name.get("kernel.step")
    reduced = total("reduced.eig") + total("reduced.chol")
    if steps:
        out["kernel.steps"] = len(steps)
        if "reduced.eig" in by_name or "reduced.chol" in by_name:
            out["kernel.self_s"] = total("kernel.step") - reduced
        if run:
            out["driver.loop_s"] = run[0].seconds - ops_s - total("kernel.step")
            tasks = sum(1 for s in steps if s.attrs.get("task") == "FACTORIZE")
            if tasks and "backend.factor_calls" in out:
                out["driver.factor_reuse"] = out["backend.factor_calls"] / tasks
    for name, label in (("reduced.eig", "eig"), ("reduced.chol", "chol")):
        if name in by_name:
            out[f"reduced.{label}_s"] = total(name)
            out[f"reduced.{label}_calls"] = len(by_name[name])
    return out
