"""Record the seed-0 outputs that checks.py compares every run against.

    python3 perfbench/record.py

Runs every job once at seed 0 and writes perfbench/expected.json.  A job that
fails is left out; checks.py then holds its output to the acceptance
criterion instead (bending-dominated for the README regime example).
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
from shellfem import cli  # noqa: E402
from workloads import JOBS, WORKLOADS, write_inputs  # noqa: E402


def main() -> int:
    work = ROOT / ".perfbench_work" / "record"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    for workload in WORKLOADS:
        write_inputs(workload, 0, work)
    os.chdir(work)
    expected = {}
    for name, job in JOBS.items():
        out = Path(name) / "out"
        code = cli.main([job.study, f"{name}/config.ini", "--out", str(out)])
        print(f"{name}: exit {code}")
        if code == 0:
            expected[name] = checks.read_outputs(job, out)
    checks.EXPECTED_FILE.write_text(json.dumps(expected, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
