"""One repetition of a workload, in a fresh Python process.

    python3 perfbench/worker.py ROOT WORK RESULT [--jobs a,b] [--trace]

Imports `shellfem` from ROOT/src (timed: set-up), runs the jobs back to back
through `shellfem.cli.main` with inputs from WORK (timed: wall), checks each
job's outputs, and writes the figures to the JSON file RESULT.  Without
`--jobs` it only times the import.  Each time is given raw and scaled to the
reference CPU speed of speed.py, whose probe runs throughout on the same CPU.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import speed


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("root")
    ap.add_argument("work")
    ap.add_argument("result")
    ap.add_argument("--jobs", default="")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    root, work = Path(args.root), Path(args.work)
    sys.path.insert(0, str(root / "src"))

    result_file = Path(args.result)
    sampler = speed.Sampler(result_file.with_suffix(".speed.json"))
    sampler.start()
    try:
        t0 = time.perf_counter()
        import shellfem.cli as cli
        t1 = time.perf_counter()
        if not Path(cli.__file__).resolve().is_relative_to(root.resolve()):
            print(f"shellfem imported from {cli.__file__}, not {root}",
                  file=sys.stderr)
            return 2
        result = {"setup_s": t1 - t0}
        names = [n for n in args.jobs.split(",") if n]
        if names:
            result.update(run_jobs(
                cli, names, work, result_file.with_suffix(".spans.json"),
                args.trace))
    finally:
        sampler.stop()
    result["setup_ref_s"] = sampler.scaled(t0, t1)
    if names:
        result["wall_ref_s"] = sampler.scaled(*result.pop("span"))
    result["loop_s"] = sampler.median_loop_s()
    Path(args.result).write_text(json.dumps(result))
    return 0


def run_jobs(cli, names: list, work: Path, spans: Path, traced: bool) -> dict:
    import checks
    from workloads import JOBS
    expected = checks.load_expected()
    tracer = None
    if traced:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    os.chdir(work)
    for name in names:
        shutil.rmtree(Path(name) / "out", ignore_errors=True)
    jobs = []
    t_start = time.perf_counter()
    for name in names:
        job = JOBS[name]
        out = Path(name) / "out"
        if tracer:
            tracer.job = name
            span = tracer.open(tracing.JOB_SPAN)
        try:
            code = cli.main([job.study, f"{name}/config.ini", "--out",
                             str(out)])
        except Exception as exc:      # a crash fails the job, not the run
            traceback.print_exc()
            code = repr(exc)
        if tracer:
            check_span = tracer.open(tracing.CHECK_SPAN)
        problem = f"exit code {code}" if code != 0 else None
        if problem is None:
            try:
                problem = checks.check_job(job, out, expected)
            except (OSError, KeyError, ValueError, StopIteration) as exc:
                problem = f"unreadable output: {exc!r}"
        if tracer:
            tracer.close(check_span)
            tracer.close(span)
        jobs.append({"job": name, "exit": code, "problem": problem})
    t_end = time.perf_counter()
    res = {"wall_s": t_end - t_start, "span": (t_start, t_end), "jobs": jobs,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           / 1024.0}
    if tracer:
        tracer.write(spans)
        res["layers"] = tracer.metrics(
            [n for n in tracing.metric_units("per_layer")
             if n not in tracing.RUN_METRICS])
    return res


if __name__ == "__main__":
    sys.exit(main())
