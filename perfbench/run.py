"""Benchmark of shellfem CLI studies.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The seed fixes the generated inputs
(mesh numbering, see workloads.py).  Each repetition of the workload runs in a
fresh Python process (worker.py), which imports shellfem from `src/` and runs
the workload's jobs back to back through `shellfem.cli.main`: a closed loop
with one client.  Repetitions continue while the next one is expected to end
nearer to `--seconds` than stopping now would, so a run measures about
`--seconds` whatever the length of one repetition.

With `--trace 0` the result holds the end-to-end metrics (medians over the
repetitions; times are scaled to the reference CPU speed of speed.py, and the
raw times are printed beside them); with `--trace 1` it holds the per-layer metrics of tracing.py,
from traced repetitions alternated with untraced ones, whose difference is
the tracing overhead.  The last line of standard output is one JSON object.
Generated inputs and job outputs go to `.perfbench_work/` in the checkout.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

from tracing import metric_units  # noqa: E402
from workloads import WORKLOADS, write_inputs  # noqa: E402

SETUP_PROBES = 3          # import-only processes per run, besides the reps
RUN_LIMIT_S = 170.0       # a run must end well within 180 s
# The README regime example exits 4 today (ROADMAP open item 1); it counts
# as failed but leaves the run correct.
KNOWN_FAILURE = ("regime.readme", 4)
RAW_WALL = "raw wall_s"   # report.py reads the line that starts with this


def worker_env() -> dict:
    """One BLAS and OpenMP thread, so that all of a repetition's work runs on
    the one CPU whose speed speed.py's probe measures (each vCPU's speed
    drifts on its own)."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Runner:
    def __init__(self, t_begin: float):
        self.t_begin = t_begin
        self.env = worker_env()
        self.count = 0

    def worker(self, jobs=(), traced=False) -> dict:
        """Run worker.py once and return its figures; raise on failure."""
        self.count += 1
        result = WORK / f"rep{self.count}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), str(ROOT), str(WORK),
               str(result), "--jobs", ",".join(jobs)]
        if traced:
            cmd.append("--trace")
        left = RUN_LIMIT_S - (time.perf_counter() - self.t_begin)
        # A session of its own, so that a timeout also ends the probe the
        # worker starts.
        proc = subprocess.Popen(cmd, env=self.env, stdout=sys.stderr,
                                start_new_session=True)
        try:
            code = proc.wait(timeout=max(left, 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        if code != 0:
            raise RuntimeError(f"worker exited with {code}")
        return json.loads(result.read_text())


def tail_percentile(samples: list):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 11:
        return None
    p = 100.0 * (1.0 - 10.0 / n)
    return p, statistics.quantiles(samples, n=1000,
                                   method="inclusive")[round(10 * p) - 1]


def measure(runner: Runner, jobs: list, seconds: float, traced: bool):
    """Repetitions until the next one would end further past `seconds` than
    stopping now falls short of it; with `traced`, untraced and traced
    repetitions alternate, one of each at least."""
    reps = []
    t0 = time.perf_counter()
    while True:
        trace_this = traced and len(reps) % 2 == 1
        r = runner.worker(jobs, trace_this)
        r["traced"] = trace_this
        reps.append(r)
        elapsed = time.perf_counter() - t0
        per_rep = elapsed / len(reps)
        since_begin = time.perf_counter() - runner.t_begin
        if traced and len(reps) < 2:
            continue
        if (elapsed + per_rep / 2 > seconds
                or since_begin + 1.5 * per_rep > RUN_LIMIT_S):
            return reps


def summarize(workload: str, reps: list, probes: list, traced: bool) -> dict:
    jobs = [j for r in reps for j in r["jobs"]]
    failed = [j for j in jobs if j["problem"] is not None]
    # Any failure, by a wrong output, a non-zero exit or a crash, makes the
    # run incorrect, except the one known defect.
    wrong = [j for j in failed if (j["job"], j["exit"]) != KNOWN_FAILURE]
    for j in failed:
        print(f"# {workload}: job {j['job']} failed: {j['problem']}")
    plain = [r for r in reps if not r["traced"]]
    walls = [r["wall_s"] for r in plain]
    if not traced:
        imports = probes + reps
        metrics = {
            "wall_ref_s": statistics.median(r["wall_ref_s"] for r in plain),
            "setup_s": statistics.median(r["setup_ref_s"] for r in imports),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        for key in ("wall_ref_s", "wall_s"):
            samples = [r[key] for r in plain]
            tail = tail_percentile(samples)
            tail_text = (f"p{tail[0]:g} {tail[1]:.4f} s" if tail else
                         "no tail percentile (needs >= 11 samples)")
            print(f"# {workload}: {key} samples "
                  f"{', '.join(f'{w:.3f}' for w in samples)}; {tail_text}")
        print(f"# {workload}: {RAW_WALL} {statistics.median(walls):.6g} s; "
              "raw setup_s "
              f"{statistics.median(r['setup_s'] for r in imports):.6g} s; "
              "median probe loop "
              f"{1e3 * statistics.median(r['loop_s'] for r in imports):.4g} "
              "ms")
    else:
        metrics = layer_metrics(reps)
    print(f"# {workload}: fail_ratio = {len(failed) / len(jobs):.4g} "
          f"({len(failed)} failed of {len(jobs)} jobs)")
    units = metric_units("per_layer" if traced else "end_to_end")
    if metrics.keys() != units.keys():
        raise ValueError(f"metrics {sorted(metrics)} differ from "
                         f"BENCHMARK.json's {sorted(units)}")
    for name, value in metrics.items():
        print(f"# {workload}: {name} = {value:.6g} {units[name]}")
    return {"correct": not wrong, "attempted": len(jobs),
            "failed": len(failed),
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}


def layer_metrics(reps: list) -> dict:
    """Per-layer metrics: medians over the traced repetitions; the overhead
    compares reference-speed wall times, which the host's drift leaves
    comparable between repetitions."""
    traced = [r for r in reps if r["traced"]]
    out = {name: statistics.median(r["layers"][name] for r in traced)
           for name in traced[0]["layers"]}

    def ref_wall(was_traced):
        return statistics.median(r["wall_ref_s"] for r in reps
                                 if r["traced"] == was_traced)

    derived = {
        "trace.wall_s": statistics.median(r["wall_s"] for r in traced),
        "trace.overhead_s": ref_wall(True) - ref_wall(False),
        "trace.covered_share": statistics.median(
            1.0 - r["layers"]["trace.unattributed_s"] / r["wall_s"]
            for r in traced),
    }
    out.update(derived)
    return out


def main() -> int:
    t_begin = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "shellfem" / "cli.py").is_file():
        print(f"error: no shellfem sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    # Bytecode caches are written before anything is timed.
    compileall.compile_dir(ROOT / "src" / "shellfem", quiet=2)
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    jobs = write_inputs(args.workload, args.seed, WORK)
    runner = Runner(t_begin)
    try:
        probes = [runner.worker() for _ in range(SETUP_PROBES)]
        reps = measure(runner, jobs, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = summarize(args.workload, reps, probes, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
