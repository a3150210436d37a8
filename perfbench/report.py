"""Run every workload once and print its end-to-end metrics as a table.

    python3 perfbench/report.py

Each workload runs through run.py exactly as a single benchmark run would, at
seed 0 for BENCHMARK.json's run_seconds; the table lists every end-to-end
metric (wall_ref_s, setup_s, peak_rss_mb), the raw wall_s and fail_ratio by
name, with their units.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import RAW_WALL  # noqa: E402
from tracing import BENCHMARK_FILE  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    seconds = json.loads(BENCHMARK_FILE.read_text())["run_seconds"]
    rows = []
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", "0", "--seconds", str(seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"{workload}: run.py exited with {proc.returncode}",
                  file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        res = json.loads(lines[-1])
        m = {k: (v["value"], v["unit"]) for k, v in res["metrics"].items()}
        raw = next(line for line in lines
                   if line.startswith(f"# {workload}: {RAW_WALL} "))
        m["wall_s"] = (float(raw.split()[4]), "s")
        m["fail_ratio"] = (res["failed"] / res["attempted"], "1")
        rows.append((workload, res["correct"], m))
    names = list(rows[0][2])
    print(f"{'workload':<14}" + "".join(
        f"{n + ' [' + rows[0][2][n][1] + ']':>20}" for n in names)
        + f"{'correct':>9}")
    for workload, correct, m in rows:
        print(f"{workload:<14}" + "".join(f"{m[n][0]:>20.4f}" for n in names)
              + f"{str(correct):>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
