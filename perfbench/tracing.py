"""Traced runs: spans around the public entry points of each shellfem module.

The wrappers are installed from outside the package, so the program itself is
unchanged.  Several modules bind names with `from .x import name`; each such
binding is wrapped where it is looked up (for example `driver.calibrate_penalty`
and `cli.write_vtk`), and every binding of one function shares one wrapper.

A span records its name, start, end, parent span and job id.  Spans are kept
in memory and written out once, at the end of the process.  A span's self time
is its duration minus the durations of its child spans; the per-layer metric
`<span name>_s` is the summed self time of all spans of that name.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from pathlib import Path

import numpy as np

JOB_SPAN = "job"          # one per CLI job; its self time is unattributed
CHECK_SPAN = "bench.check"
SOLVE_SPAN = "solve.factor_solve"
CALIBRATE_SPAN = "assembly.calibrate"

BENCHMARK_FILE = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
# Per-layer metrics that run.py derives from several repetitions.
RUN_METRICS = ("trace.wall_s", "trace.overhead_s", "trace.covered_share")


def metric_units(section: str) -> dict:
    """Name -> unit of each metric of a BENCHMARK.json section
    (`end_to_end` or `per_layer`), the one list of the metric names."""
    spec = json.loads(BENCHMARK_FILE.read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def _n_points(points) -> int:
    return int(np.asarray(points).size // 2)


class Tracer:
    def __init__(self):
        self.spans = []        # (name, start, end, parent index, job id)
        self.stack = []        # indices of the open spans
        self.counts = Counter()
        self.residual_max = 0.0
        self.job = None
        self._wrappers = {}    # id(original function) -> wrapper
        # Metric names this tracer yields: one per span name and counter,
        # registered when the wrappers are installed.
        self.names = {"solve.residual_max", "trace.unattributed_s",
                      f"{CHECK_SPAN}_s"}

    # ------------------------------------------------------------------ spans

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.job])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self.stack)

    def _wrapper(self, fn, name, before, after):
        key = id(fn)
        if key not in self._wrappers:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                state = before(args) if before else None
                idx = self.open(name)
                try:
                    result = fn(*args, **kwargs)
                except BaseException as exc:
                    self.close(idx)
                    if after:
                        after(args, None, state, exc)
                    raise
                self.close(idx)
                if after:
                    after(args, result, state, None)
                return result
            self._wrappers[key] = wrapper
        return self._wrappers[key]

    def wrap(self, owners, attr: str, name: str, before=None, after=None):
        """Replace `attr` on each owner (module or class) by one shared
        span-recording wrapper of the same original function."""
        for owner in owners:
            fn = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            setattr(owner, attr, self._wrapper(fn, name, before, after))
        self.names.add(f"{name}_s")

    def counter(self, name: str):
        """A function that adds its argument (default 1) to count `name`."""
        self.names.add(name)

        def add(n=1):
            self.counts[name] += n
        return add

    def count_calls(self, owner, attr: str, counter: str):
        fn = getattr(owner, attr)
        add = self.counter(counter)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            add()
            return fn(*args, **kwargs)
        setattr(owner, attr, wrapper)

    # --------------------------------------------------------------- results

    def self_times(self) -> dict:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter()
        for (name, start, end, _, _), c in zip(self.spans, child):
            out[name] += end - start - c
        return out

    def metrics(self, names) -> dict:
        """The value of each per-layer metric in `names`, which must be the
        names this tracer yields; a layer the run never reached reads 0."""
        if set(names) != self.names:
            raise ValueError(
                "per-layer names disagree with the tracer: missing from the "
                f"tracer {sorted(set(names) - self.names)}, missing from the "
                f"list {sorted(self.names - set(names))}")
        own = {f"{n}_s": t for n, t in self.self_times().items()}
        own["trace.unattributed_s"] = own.get(f"{JOB_SPAN}_s", 0.0)
        own["solve.residual_max"] = self.residual_max
        return {n: own.get(n, self.counts.get(n, 0)) for n in names}

    def write(self, path: Path):
        keys = ("name", "start", "end", "parent", "job")
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]))


def install(tracer: Tracer):
    """Wrap the public entry points of every shellfem module."""
    from shellfem import (assembly, cli, driver, expr, fe_space, geometry,
                          manufactured, mesh, norms, regime, solve)
    count = tracer.counter

    tracer.count_calls(expr, "evaluate", "expr.evaluate_calls")
    eval_calls = count("geometry.evaluate_calls")
    eval_points = count("geometry.points")
    for cls in (geometry.SymbolicChart, geometry.ExpressionChart):
        tracer.wrap([cls], "evaluate", "geometry.evaluate",
                    before=lambda a: (eval_calls(),
                                      eval_points(_n_points(a[1]))))
    tracer.wrap([cli], "make_chart", "geometry.chart_build")
    load_calls = count("manufactured.load_calls")
    load_points = count("manufactured.load_points")
    tracer.wrap([manufactured.ManufacturedSolution], "volume_loads",
                "manufactured.loads",
                before=lambda a: (load_calls(), load_points(_n_points(a[1]))))
    tracer.wrap([mesh, driver], "refine_uniform", "mesh.refine")
    tracer.wrap([mesh, cli, regime], "mesh_condition_report", "mesh.condition")
    tracer.wrap([mesh, cli], "load_mesh", "mesh.load")

    layouts = count("fe_space.layouts_built")
    primal_dofs = count("fe_space.primal_dofs")

    def layout_done(args, result, state, exc):
        if exc is None:
            layouts()
            primal_dofs(result.n_primal)
    tracer.wrap([fe_space, driver], "build_dof_layout", "fe_space.layout",
                after=layout_done)

    tracer.wrap([assembly, driver], "calibrate_penalty", CALIBRATE_SPAN)

    forms_builds = count("assembly.forms_builds")
    forms_nnz = count("assembly.forms_nnz")

    def forms_done(args, result, was_built, exc):
        if exc is None and not was_built:
            forms_builds()
            forms_nnz(sum(m.nnz for m in result.values()))
    FA = assembly.FormAssembler
    tracer.wrap([FA], "forms", "assembly.forms",
                before=lambda a: a[0]._forms is not None, after=forms_done)
    tracer.wrap([FA], "load_vector", "assembly.load")
    probes = count("assembly.calibrate_probes")
    tracer.wrap([FA], "a_theta", "assembly.a_theta",
                before=lambda a: tracer.inside(CALIBRATE_SPAN) and probes())

    def solve_before(args):
        return tracer.inside(SOLVE_SPAN)      # nested: counted by the outer

    solves = count("solve.calls")
    failures = count("solve.failures")
    unknowns = count("solve.unknowns")

    def solve_done(args, result, nested, exc):
        if nested:
            return
        solves()
        if exc is not None:
            failures()
            return
        aux = 0 if result.aux is None else len(result.aux)
        unknowns(len(result.primal) + aux)
        tracer.residual_max = max(tracer.residual_max,
                                  float(result.meta.get("residual", 0.0)))
    for fname in ("solve_mixed", "solve_dg", "realize_via_theta"):
        tracer.wrap([solve, driver], fname, SOLVE_SPAN,
                    before=solve_before, after=solve_done)

    NE = norms.NormEngine
    grams_builds = count("norms.grams_builds")
    tracer.wrap([NE], "grams", "norms.grams",
                before=lambda a: a[0]._grams is None and grams_builds())
    tracer.wrap([NE], "error_norms", "norms.error")
    tracer.wrap([NE], "discrete_norms", "norms.eval")
    tracer.wrap([NE], "quad_norm", "norms.eval")
    tracer.wrap([regime, cli], "detect_regime", "regime.detect")

    vtk_bytes = count("cli.vtk_bytes")

    def vtk_done(args, result, state, exc):
        if exc is None:
            vtk_bytes(Path(args[0]).stat().st_size)
    tracer.wrap([cli], "write_vtk", "cli.vtk", after=vtk_done)
    eval_pts = count("cli.point_eval_points")
    for attr in ("values", "grads"):
        tracer.wrap([cli.DiscreteField], attr, "cli.point_eval",
                    before=lambda a: eval_pts(_n_points(a[1])))
