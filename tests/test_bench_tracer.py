"""The bench tracer (`perfbench/tracing.py`) binds package names from
outside: module functions, class methods and attributes of their results.
A traced `shellfem solve` job on a 2x2 mesh must run, and every per-layer
metric that BENCHMARK.json lists must read from its trace."""

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
job = Job("solve.cyl2", "solve", 2, ("D", "F", "F", "F"),
          {"chart": {"kind": "cylinder", "radius": "1.0"},
           "material": {"epsilon": "1e-3"}, "loads": {"p3": "1"},
           "assembly": {"penalty_c": "20"}, "study": {"method": "mixed"}})
(work / "mesh.txt").write_text(permuted_mesh_text(job, 0))
(work / "config.ini").write_text(config_text(job, str(work / "mesh.txt")))
code = cli.main(["solve", str(work / "config.ini"), "--out",
                 str(work / "out")])
names = [n for n in tracing.metric_units("per_layer")
         if n not in tracing.RUN_METRICS]
(work / "result.json").write_text(json.dumps(
    {"code": code, "metrics": tracer.metrics(names)}))
"""


def test_traced_solve_reads_every_per_layer_metric(tmp_path):
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(ROOT),
                           str(tmp_path)], capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["code"] == 0
    metrics = result["metrics"]
    assert metrics["fe_space.layouts_built"] == 1
    assert metrics["assembly.forms_builds"] == 1
    assert metrics["solve.calls"] >= 1
