"""The bench tracer (`perfbench/tracing.py`) binds package names from
outside: module functions, class methods and attributes of their results.
Traced `shellfem solve` jobs on a 2x2 mesh must run, and every per-layer
metric that BENCHMARK.json lists must read from their trace: the first job
with a given penalty constant, the second calibrating its own."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
from pathlib import Path
root, work = Path(sys.argv[1]), Path(sys.argv[2])
sys.path[:0] = [str(root / "perfbench"), str(root / "src")]
import tracing
from workloads import Job, config_text, permuted_mesh_text
tracer = tracing.Tracer()
tracing.install(tracer)
from shellfem import cli
sections = {"chart": {"kind": "cylinder", "radius": "1.0"},
            "material": {"epsilon": "1e-3"}, "loads": {"p3": "1"},
            "study": {"method": "mixed"}}
names = [n for n in tracing.metric_units("per_layer")
         if n not in tracing.RUN_METRICS]
results = []
for name, extra in (("solve.cyl2", {"assembly": {"penalty_c": "20"}}),
                    ("solve.cyl2-calibrated", {})):
    job = Job(name, "solve", 2, ("D", "F", "F", "F"), {**sections, **extra})
    d = work / name
    d.mkdir()
    (d / "mesh.txt").write_text(permuted_mesh_text(job, 0))
    (d / "config.ini").write_text(config_text(job, str(d / "mesh.txt")))
    code = cli.main(["solve", str(d / "config.ini"), "--out", str(d / "out")])
    # the tracer's figures add up over the jobs run so far
    results.append({"code": code, "metrics": tracer.metrics(names)})
(work / "result.json").write_text(json.dumps(results))
"""


def test_traced_solve_reads_every_per_layer_metric(tmp_path):
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(ROOT),
                           str(tmp_path)], capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    fixed, calibrated = json.loads((tmp_path / "result.json").read_text())
    assert fixed["code"] == 0
    metrics = fixed["metrics"]
    assert metrics["fe_space.layouts_built"] == 1
    assert metrics["assembly.forms_builds"] == 1
    assert metrics["solve.calls"] >= 1
    assert metrics["assembly.calibrate_probes"] == 0
    assert calibrated["code"] == 0
    metrics = calibrated["metrics"]
    assert metrics["assembly.calibrate_probes"] >= 1
    assert metrics["assembly.calibrate_s"] > 0
