"""Output checks: each job's files against the values recorded at seed 0.

The seed only renumbers the mesh, so every seed must reproduce the seed-0
values up to rounding; `RTOL` leaves a wide margin over the rounding a
permuted sparse factorization causes (relative changes near 1e-9 here).
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

RTOL = 1e-6
EXPECTED_FILE = Path(__file__).with_name("expected.json")
BENDING = "bending-dominated"

# Files whose values are recorded, per study.
RECORDED = {
    "regime": ("regime.csv",),
    "converge": ("convergence.csv", "meshcond.csv"),
    "solve": ("norms.csv", "meshcond.csv"),
}


def load_expected() -> dict:
    return json.loads(EXPECTED_FILE.read_text())


def read_outputs(job, out: Path) -> dict:
    """The rows of each recorded CSV file the job wrote."""
    outputs = {}
    for name in RECORDED[job.study]:
        with open(out / name, newline="") as fh:
            outputs[name] = list(csv.DictReader(fh))
    return outputs


def _same(got: str, want: str) -> bool:
    try:
        g, w = float(got), float(want)
    except ValueError:
        return got == want
    return math.isclose(g, w, rel_tol=RTOL, abs_tol=0.0)


def _compare(name: str, got: list, want: list):
    if len(got) != len(want):
        return f"{name}: {len(got)} rows, expected {len(want)}"
    for k, (g, w) in enumerate(zip(got, want)):
        if g.keys() != w.keys():
            return f"{name} row {k}: columns {list(g)}, expected {list(w)}"
        for col in w:
            if not _same(g[col], w[col]):
                return f"{name} row {k} {col}: {g[col]} != {w[col]}"
    return None


def _falling_errors(rows: list):
    by_method = {}
    for r in rows:
        by_method.setdefault(r["method"], []).append(float(r["err_H"]))
    for method, errs in by_method.items():
        if any(b >= a for a, b in zip(errs, errs[1:])):
            return f"convergence.csv: err_H of {method} does not fall: {errs}"
    return None


def _vtk_points(path: Path, n_triangles: int):
    lines = path.read_text().splitlines()
    head = next((i for i, ln in enumerate(lines) if ln.startswith("POINTS ")),
                None)
    if head is None:
        return f"{path.name}: no POINTS section"
    declared = int(lines[head].split()[1])
    rows = 0
    for ln in lines[head + 1:]:
        if ln.startswith("CELLS "):
            break
        rows += 1
    if declared != 3 * n_triangles or rows != declared:
        return (f"{path.name}: {declared} points declared, {rows} listed, "
                f"expected {3 * n_triangles}")
    return None


def check_job(job, out: Path, expected: dict):
    """None when the job's outputs are right, else the first problem found."""
    if job.study == "regime":
        with open(out / "regime.csv", newline="") as fh:
            verdict = next(csv.DictReader(fh))["verdict"]
        if job.name not in expected:          # no recorded run: criterion 07a
            return None if verdict == BENDING else \
                f"verdict {verdict!r}, expected {BENDING!r}"
    outputs = read_outputs(job, out)
    for name, rows in outputs.items():
        problem = _compare(name, rows, expected[job.name][name])
        if problem:
            return problem
    if job.study == "converge":
        return _falling_errors(outputs["convergence.csv"])
    if job.study == "solve":
        return _vtk_points(out / "fields.vtk", 2 * job.n * job.n)
    return None
