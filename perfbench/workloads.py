"""Workload and job definitions, and the seeded inputs each job receives.

A job is one `shellfem` CLI study on generated config and mesh text.  The
seed permutes the vertex and element numbering of every mesh; seed 0 keeps
the numbering of `generate_rect_mesh`, so each job at seed 0 is the study
exactly as its config describes it.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Fields of the README `[manufactured]` example.
README_FIELDS = {
    "theta1": "sin(pi * x1) * sin(pi * x2)",
    "theta2": "x1 * (1 - x1) * x2 * (1 - x2)",
    "u1": "sin(pi * x1) * x2 * (1 - x2)",
    "u2": "x1 * (1 - x1) * sin(pi * x2)",
    "w": "sin(pi * x1) * sin(pi * x2)",
}


@dataclass(frozen=True)
class Job:
    name: str
    study: str              # solve | converge | regime
    n: int                  # n x n cells on the unit square
    tags: tuple             # left, right, bottom, top
    sections: dict          # config sections other than [mesh]


CYLINDER = {"kind": "cylinder", "radius": "1.0"}
UNIT_LOAD = {"p3": "1"}

JOBS = {
    # The README Python API example as written.
    "regime.readme": Job(
        "regime.readme", "regime", 8, ("D", "F", "F", "F"),
        {"chart": CYLINDER, "material": {"epsilon": "1e-3"},
         "loads": UNIT_LOAD}),
    # The regime-detection baseline of ROADMAP.md.
    "regime.cyl12": Job(
        "regime.cyl12", "regime", 12, ("D", "D", "F", "F"),
        {"chart": CYLINDER, "material": {"epsilon": "1e-2"},
         "loads": UNIT_LOAD}),
    # Manufactured convergence on a finite-difference (expression) chart.
    "converge.bump-mms": Job(
        "converge.bump-mms", "converge", 2, ("D", "D", "D", "D"),
        {"chart": {"kind": "expression", "x": "x1", "y": "x2",
                   "z": "0.25 * sin(pi * x1) * sin(pi * x2)"},
         "material": {"epsilon": "0.1"},
         "manufactured": README_FIELDS,
         "study": {"method": "both", "levels": "3"}}),
    # Self-convergence of the mixed method on a free-edge cylinder.
    "converge.cyl-self": Job(
        "converge.cyl-self", "converge", 4, ("D", "F", "F", "F"),
        {"chart": CYLINDER, "material": {"epsilon": "1e-2"},
         "loads": UNIT_LOAD, "assembly": {"penalty_c": "20"},
         "study": {"method": "mixed", "levels": "2"}}),
    # The 32x32 baseline cylinder of ROADMAP.md, mixed method only.
    "solve.cyl32": Job(
        "solve.cyl32", "solve", 32, ("D", "F", "F", "F"),
        {"chart": CYLINDER, "material": {"epsilon": "1e-3"},
         "loads": UNIT_LOAD, "assembly": {"penalty_c": "20"},
         "study": {"method": "mixed"}}),
}

WORKLOADS = {
    "regime": ("regime.readme", "regime.cyl12"),
    "converge-mms": ("converge.bump-mms", "converge.cyl-self"),
    "solve-large": ("solve.cyl32",),
}


def rect_mesh(n: int, tags: tuple):
    """Vertices, CCW triangles and tagged boundary edges of the unit square
    split into n x n cells, each cut along its SW-NE diagonal; the same
    numbering as `shellfem.mesh.generate_rect_mesh`."""
    xs = np.linspace(0.0, 1.0, n + 1)
    verts = np.array([(x, y) for y in xs for x in xs])

    def vid(i, j):
        return j * (n + 1) + i

    tris = []
    for j in range(n):
        for i in range(n):
            a, b, c, d = vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)
            tris += [(a, b, c), (a, c, d)]
    left, right, bottom, top = tags
    edges = []
    for k in range(n):
        edges += [(vid(0, k), vid(0, k + 1), left),
                  (vid(n, k), vid(n, k + 1), right),
                  (vid(k, 0), vid(k + 1, 0), bottom),
                  (vid(k, n), vid(k + 1, n), top)]
    return verts, np.array(tris), edges


def permuted_mesh_text(job: Job, seed: int) -> str:
    """The job's mesh in the `naghdi-mesh 1` format, with vertex and element
    numbering permuted by the seed (identity at seed 0).  Each triangle keeps
    its local vertex order, so orientation and local edges are unchanged."""
    verts, tris, edges = rect_mesh(job.n, job.tags)
    if seed == 0:
        new_id = np.arange(len(verts))
        order = np.arange(len(tris))
    else:
        rng = np.random.default_rng([seed, zlib.crc32(job.name.encode())])
        new_id = rng.permutation(len(verts))
        order = rng.permutation(len(tris))
    out_verts = np.empty_like(verts)
    out_verts[new_id] = verts
    lines = ["naghdi-mesh 1", f"vertices {len(verts)}"]
    lines += [f"{float(x)!r} {float(y)!r}" for x, y in out_verts]
    lines.append(f"triangles {len(tris)}")
    lines += ["{} {} {}".format(*new_id[tris[t]]) for t in order]
    lines.append(f"boundary {len(edges)}")
    lines += [f"{new_id[p]} {new_id[q]} {tag}" for p, q, tag in edges]
    return "\n".join(lines) + "\n"


def config_text(job: Job, mesh_file: str) -> str:
    sections = {"mesh": {"file": mesh_file}, **job.sections}
    lines = []
    for name, keys in sections.items():
        lines.append(f"[{name}]")
        lines += [f"{k} = {v}" for k, v in keys.items()]
    return "\n".join(lines) + "\n"


def write_inputs(workload: str, seed: int, work: Path) -> list:
    """Write each job's mesh and config under `work/<job>/`; paths in the
    configs are relative to `work`.  Returns the job names in run order."""
    names = WORKLOADS[workload]
    for name in names:
        job = JOBS[name]
        d = work / name
        d.mkdir(parents=True, exist_ok=True)
        (d / "mesh.txt").write_text(permuted_mesh_text(job, seed))
        (d / "config.ini").write_text(config_text(job, f"{name}/mesh.txt"))
    return list(names)
