"""Batch front end: line-oriented config parsing, study drivers (solve,
convergence, locking, regime detection), and CSV/VTK emission.

Config grammar (documented in the README): `[section]` headers, `key = value`
lines, `#` comments.  Exit codes: 2 configuration error, 3 mesh/geometry
error, 4 solver error.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import expr as exprmod
from .assembly import AssemblyConfig, LoadSpec, Material
from .driver import ShellProblem
from .fe_space import FIELDS
from .geometry import POINT_BUDGET, GeometryError, batched, make_chart
from .manufactured import ManufacturedSolution
from .mesh import (MeshError, generate_rect_mesh, load_mesh,
                   mesh_condition_report)
from .regime import detect_regime
from .solve import SolverError


class ConfigError(ValueError):
    pass


# --------------------------------------------------------------- config parsing

LOAD_KEYS = ("p1", "p2", "p3", "c1", "c2", "r1", "r2", "q1", "q2", "q3")
# The keys of each section; anything else is rejected, so that a typo cannot
# silently run with a default value.
SCHEMA = {
    "chart": {"kind", "radius", "coeff", "domain", "x", "y", "z"},
    "mesh": {"file", "rect", "nx", "ny", "tags", "grading_ratio",
             "grading_toward"},
    "material": {"lambda", "mu", "kappa", "epsilon"},
    "loads": set(LOAD_KEYS),
    "manufactured": set(FIELDS),
    "assembly": {"penalty_c", "quad_degree", "edge_points"},
    "study": {"method", "levels", "epsilons"},
}


def parse_config(text: str) -> dict:
    """Parse `[section]` / `key = value` text into nested dicts, rejecting
    sections and keys outside SCHEMA and keys given twice in a section."""
    sections, lines = {}, {}
    current = None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]") or len(line) < 3:
                raise ConfigError(f"line {ln}: malformed section header {raw!r}")
            current = line[1:-1].strip().lower()
            if current not in SCHEMA:
                raise ConfigError(f"line {ln}: unknown section [{current}]")
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected 'key = value', got {raw!r}")
        if current is None:
            raise ConfigError(f"line {ln}: key outside any [section]")
        key, value = line.split("=", 1)
        key = key.strip().lower()
        if not key:
            raise ConfigError(f"line {ln}: empty key")
        if key not in SCHEMA[current]:
            raise ConfigError(f"line {ln}: unknown key {key!r} in [{current}]")
        if (current, key) in lines:
            raise ConfigError(f"line {ln}: key {key!r} in [{current}] already "
                              f"given on line {lines[current, key]}")
        lines[current, key] = ln
        sections[current][key] = value.strip()
    return sections


def _get(sec, key, default=None, cast=float):
    if key not in sec:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        return cast(sec[key])
    except ValueError:
        raise ConfigError(f"key {key!r}: {sec[key]!r} is not "
                          + ("a number" if cast is float else "an integer"))


def _get_floats(sec, key, default=None):
    if key not in sec:
        return default
    try:
        return tuple(float(p) for p in sec[key].split(","))
    except ValueError:
        raise ConfigError(f"key {key!r}: expected comma-separated numbers")


def _bounded(key, value, low, strict):
    """`value`, a number or a tuple of them, each checked to be > low if
    `strict`, else >= low."""
    for v in np.atleast_1d(value):
        if not (v > low if strict else v >= low):
            raise ConfigError(f"key {key!r} must be {'>' if strict else '>='}"
                              f" {low}, got {v:g}")
    return value


@dataclass
class ProblemSpec:
    chart: object
    mesh: object
    material: Material
    epsilon: float
    loads: LoadSpec
    manufactured_fields: dict = None
    method: str = "both"
    config: AssemblyConfig = field(default_factory=AssemblyConfig)
    levels: int = 3
    epsilons: tuple = (1e-2, 1e-3, 1e-4)
    penalty_user: float = None


def _build_chart(sec):
    kind = sec.get("kind")
    if kind is None:
        raise ConfigError("[chart] needs kind = plate|cylinder|sphere|hypar|"
                          "expression")
    domain = _get_floats(sec, "domain")
    if domain is not None:
        if len(domain) != 4:
            raise ConfigError("[chart] domain needs 4 numbers")
        domain = ((domain[0], domain[1]), (domain[2], domain[3]))
    kwargs = {"domain": domain}
    if "radius" in sec:
        kwargs["radius"] = _bounded("radius", _get(sec, "radius"), 0,
                                    True)
    if "coeff" in sec:
        kwargs["coeff"] = _get(sec, "coeff")
    if kind == "expression":
        try:
            kwargs["components"] = [sec["x"], sec["y"], sec["z"]]
        except KeyError as exc:
            raise ConfigError(f"[chart] expression kind needs {exc} = ...")
    try:
        return make_chart(kind, **kwargs)
    except GeometryError as exc:
        raise ConfigError(f"[chart]: {exc}")


def _build_mesh(sec):
    if "file" in sec:
        extra = sorted(sec.keys() - {"file"})
        if extra:
            raise ConfigError(f"[mesh] key {extra[0]!r} cannot be combined "
                              "with file")
        try:
            return load_mesh(Path(sec["file"]).read_text())
        except OSError as exc:
            raise ConfigError(f"[mesh] file: {exc}")
    rect = _get_floats(sec, "rect")
    if rect is None or len(rect) != 4:
        raise ConfigError("[mesh] needs file = path or rect = a,b,c,d")
    nx = _get(sec, "nx", 4, int)
    ny = _get(sec, "ny", 4, int)
    tags = tuple(t.strip().upper() for t in sec.get("tags", "D,D,D,D").split(","))
    if len(tags) != 4:
        raise ConfigError("[mesh] tags needs 4 entries (left,right,bottom,top)")
    grading = None
    if "grading_toward" in sec and "grading_ratio" not in sec:
        raise ConfigError("[mesh] key 'grading_toward' needs grading_ratio")
    if "grading_ratio" in sec:
        grading = {"ratio": _get(sec, "grading_ratio"),
                   "toward": sec.get("grading_toward", "left")}
    return generate_rect_mesh(rect, nx, ny, tags=tags, grading=grading)


def _load_fn(sec, key):
    if key not in sec:
        return None
    ast = exprmod.parse(sec[key])

    def fn(pts, _ast=ast):
        pts = np.asarray(pts, dtype=float)
        out = exprmod.evaluate(_ast, pts[..., 0], pts[..., 1])
        return np.broadcast_to(out, pts.shape[:-1]).astype(float)
    return fn


def build_spec(sections: dict) -> ProblemSpec:
    chart = _build_chart(sections.get("chart", {}))
    mesh = _build_mesh(sections.get("mesh", {}))
    mat_sec = sections.get("material", {})
    material = Material(
        lam=_bounded("lambda", _get(mat_sec, "lambda", 1.0), 0, False),
        mu=_bounded("mu", _get(mat_sec, "mu", 1.0), 0, True),
        kappa=_bounded("kappa", _get(mat_sec, "kappa", 5.0 / 6.0), 0,
                       True))
    epsilon = _bounded("epsilon", _get(mat_sec, "epsilon", 0.1), 0, True)
    load_sec = sections.get("loads", {})
    try:
        loads = LoadSpec(**{k: _load_fn(load_sec, k) for k in LOAD_KEYS})
    except exprmod.ExprError as exc:
        raise ConfigError(f"[loads]: {exc}")
    manufactured = None
    if "manufactured" in sections:
        msec = sections["manufactured"]
        missing = [n for n in FIELDS if n not in msec]
        if missing:
            raise ConfigError(f"[manufactured] missing fields: {missing}")
        try:
            manufactured = {n: exprmod.parse(msec[n]) for n in FIELDS}
        except exprmod.ExprError as exc:
            raise ConfigError(f"[manufactured]: {exc}")
    asm_sec = sections.get("assembly", {})
    penalty_user = (_bounded("penalty_c", _get(asm_sec, "penalty_c"),
                             0, True) if "penalty_c" in asm_sec else None)
    config = AssemblyConfig(
        quad_tri_degree=_bounded(
            "quad_degree", _get(asm_sec, "quad_degree", 8, int), 1, False),
        quad_edge_points=_bounded(
            "edge_points", _get(asm_sec, "edge_points", 5, int), 1, False))
    study_sec = sections.get("study", {})
    method = study_sec.get("method", "both").lower()
    if method not in ("mixed", "dg", "both"):
        raise ConfigError(f"[study] method must be mixed|dg|both, got {method!r}")
    return ProblemSpec(
        chart=chart, mesh=mesh, material=material, epsilon=epsilon,
        loads=loads, manufactured_fields=manufactured, method=method,
        config=config,
        levels=_bounded("levels", _get(study_sec, "levels", 3, int), 1, False),
        epsilons=_bounded("epsilons", _get_floats(
            study_sec, "epsilons", (1e-2, 1e-3, 1e-4)), 0, True),
        penalty_user=penalty_user)


def _methods(spec: ProblemSpec):
    return ("mixed", "dg") if spec.method == "both" else (spec.method,)


def _make_problem(spec: ProblemSpec) -> ShellProblem:
    """The study's problem on the base mesh; it calibrates the penalty on
    first use unless the config gives one, and every thickness and
    refinement of the study shares that constant."""
    return ShellProblem(chart=spec.chart, mesh=spec.mesh,
                        material=spec.material, epsilon=spec.epsilon,
                        loads=spec.loads, config=spec.config,
                        penalty_C=spec.penalty_user)


def _manufactured_for(spec: ProblemSpec, method: str,
                      epsilon: float) -> ManufacturedSolution:
    total = epsilon ** -2 + (1.0 if method == "mixed" else 0.0)
    return ManufacturedSolution(spec.manufactured_fields, spec.chart,
                                spec.material, theta_total=total)


# ----------------------------------------------------------------- field eval

def _ranges(first, count):
    """The index ranges first[i], ..., first[i] + count[i] - 1, joined."""
    return (np.repeat(first - np.cumsum(count) + count, count)
            + np.arange(count.sum()))


def _bin_grid(coords):
    """A uniform grid of about one bin per triangle over the triangles
    coords (nt, 3, 2): the bin of points (n, 2), where each bin's list
    starts, and the lists.  A bin lists in ascending order every triangle
    whose bounding box, padded by 1e-6 of the mesh's extent, meets it."""
    lo, hi = coords.min(axis=(0, 1)), coords.max(axis=(0, 1))
    nb, pad = int(np.ceil(np.sqrt(len(coords)))), 1e-6 * (hi - lo).max()

    def ij(pts):
        return np.clip(((pts - lo) * (nb / (hi - lo))).astype(int), 0, nb - 1)
    first = ij(coords.min(axis=1) - pad)
    span = ij(coords.max(axis=1) + pad) - first + 1
    tri = np.repeat(np.arange(len(coords)), span.prod(axis=1))
    k = _ranges(np.zeros(len(coords), dtype=int), span.prod(axis=1))
    b = (first[tri] + np.stack(np.divmod(k, span[tri, 1]), -1)) @ [nb, 1]
    order = np.argsort(b, kind="stable")        # triangles stay ascending
    return (lambda pts: ij(pts) @ [nb, 1],
            np.searchsorted(b[order], np.arange(nb * nb + 1)), tri[order])


class DiscreteField:
    """Evaluate one discrete solution at arbitrary parameter points (used as
    the reference in self-convergence mode), located through a bin grid over
    the mesh.  Values and gradients come from one pass over a point batch:
    `grads` on the batch `values` just saw (or the reverse) reuses it."""

    def __init__(self, problem: ShellProblem, primal: np.ndarray):
        self.asm = problem.assembler()
        self.primal = primal
        self._last = None          # (points, (values, grads)) of the last batch
        self._grid = _bin_grid(self.asm._elem_data().coords)

    def _locate(self, pts):
        """Owner triangle of each point: the lowest-index triangle of its bin
        that contains it to a barycentric tolerance of 1e-10, over at most
        POINT_BUDGET (point, triangle) pairs at a time."""
        e, (bin_of, start, tris) = self.asm._elem_data(), self._grid
        b = bin_of(pts)
        n = start[b + 1] - start[b]
        step = max(1, POINT_BUDGET - n.max(initial=0))
        owner = np.full(len(pts), len(e.Jinv))
        for s in np.split(np.arange(len(pts)), np.searchsorted(
                np.cumsum(n) - n, np.arange(step, n.sum(), step))):
            q, t = np.repeat(s, n[s]), tris[_ranges(start[b[s]], n[s])]
            lam12 = np.einsum("kij,kj->ki", e.Jinv[t], pts[q] - e.coords[t, 2])
            lam3 = 1.0 - lam12.sum(axis=-1)
            inside = (lam12 >= -1e-10).all(axis=-1) & (lam3 >= -1e-10)
            np.minimum.at(owner, q[inside], t[inside])
        if (owner == len(e.Jinv)).any():
            raise MeshError("reference-solution evaluation point outside mesh")
        return owner

    def _eval(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if self._last is not None and np.array_equal(self._last[0], pts):
            return self._last[1]
        owner = self._locate(pts)
        vals, grads = self.asm.field_values(self.primal, owner, pts[:, None])
        self._last = (pts.copy(), (vals[:, 0], grads[:, 0]))
        return self._last[1]

    def values(self, pts):
        return self._eval(pts)[0]

    def grads(self, pts):
        return self._eval(pts)[1]


# ------------------------------------------------------------------- emission

def write_csv(path: Path, rows: list, fieldnames: list):
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=fieldnames)
        w.writeheader()
        for row in rows:
            w.writerow(row)


def write_vtk(path: Path, problem: ShellProblem, primal: np.ndarray):
    """Legacy ASCII unstructured grid; per-corner point duplication so the
    discontinuous fields are represented faithfully."""
    mesh = problem.mesh
    asm = problem.assembler()
    corners = mesh.vertices[mesh.triangles]                      # (nt,3,2)
    pts3d = batched(problem.chart.position, corners).reshape(-1, 3)
    nt = mesh.n_triangles
    data = asm.field_values(primal, np.arange(nt), corners)[0].reshape(-1, 5)
    lines = ["# vtk DataFile Version 3.0", "shell midsurface fields", "ASCII",
             "DATASET UNSTRUCTURED_GRID", f"POINTS {3 * nt} double"]
    for p in pts3d:
        lines.append(f"{p[0]:.9e} {p[1]:.9e} {p[2]:.9e}")
    lines.append(f"CELLS {nt} {4 * nt}")
    for t in range(nt):
        lines.append(f"3 {3 * t} {3 * t + 1} {3 * t + 2}")
    lines.append(f"CELL_TYPES {nt}")
    lines.extend(["5"] * nt)
    lines.append(f"POINT_DATA {3 * nt}")
    for name, arr in zip(FIELDS, data.T):
        lines.append(f"SCALARS {name} double 1")
        lines.append("LOOKUP_TABLE default")
        lines.extend(f"{v:.9e}" for v in arr)
    path.write_text("\n".join(lines) + "\n")


def write_meshcond(path: Path, spec: ProblemSpec, meshes):
    """`meshcond.csv`: the size and the geometry resolution of each mesh."""
    rows = []
    for level, mesh in enumerate(meshes):
        rep = mesh_condition_report(mesh, spec.chart, spec.epsilon)
        rows.append({"level": level, "n_triangles": mesh.n_triangles,
                     "h": max(mesh.h_tau), **rep})
    write_csv(path, rows, ["level", "n_triangles", "h", "mixed_error_factor",
                           "geometry_resolution", "geometry_resolved"])


# -------------------------------------------------------------------- studies

def run_solve(spec: ProblemSpec, out: Path):
    problem = _make_problem(spec)
    rows = []
    for method in _methods(spec):
        loads = None
        if spec.manufactured_fields is not None:
            loads = _manufactured_for(spec, method, spec.epsilon).load_spec()
        sol = problem.solve(method, loads=loads)
        rep = problem.norm_engine().discrete_norms(sol.primal, aux=sol.aux,
                                                   epsilon=spec.epsilon)
        row = {"method": method, "epsilon": spec.epsilon,
               "rho_norm": rep.rho_norm, "gamma_norm": rep.gamma_norm,
               "tau_norm": rep.tau_norm, "a_norm": rep.a_norm,
               "H_h_norm": rep.H_h_norm, "V_h_norm": rep.V_h_norm,
               "energy_bending": rep.energies["bending"],
               "energy_membrane": rep.energies["membrane"],
               "energy_shear": rep.energies["shear"]}
        rows.append(row)
        write_vtk(out / (f"fields.vtk" if len(_methods(spec)) == 1
                         else f"fields_{method}.vtk"),
                  problem, sol.primal)
    write_csv(out / "norms.csv", rows, list(rows[0].keys()))
    write_meshcond(out / "meshcond.csv", spec, [spec.mesh])


def _convergence_errors(spec, method, problems, exact_H):
    """Per-level H_h errors for one method; returns rows without orders."""
    manufactured = spec.manufactured_fields is not None
    if manufactured:
        mfd = _manufactured_for(spec, method, spec.epsilon)

    def solve_level(level, problem):
        if manufactured:
            sol = problem.solve(method, loads=mfd.load_spec())
            eng = problem.norm_engine()
            err = eng.error_norms(sol.primal, mfd)
            if level not in exact_H:   # for every method: no theta_total
                zero = np.zeros_like(sol.primal)
                exact_H[level] = eng.error_norms(zero, mfd)["H_h"]
            return problem, sol, err["H_h"], err["H_h"] / exact_H[level]
        sol = problem.solve(method)
        return problem, sol, None, None

    solved = [solve_level(*lp) for lp in enumerate(problems)]

    rows = []
    for level, (problem, sol, err, rel) in enumerate(solved):
        if not manufactured and level + 1 < len(solved):
            fine_problem, fine_sol = solved[level + 1][0], solved[level + 1][1]
            ref = DiscreteField(fine_problem, fine_sol.primal)
            eng = problem.norm_engine()
            err = eng.error_norms(sol.primal, ref)["H_h"]
            rel = err / max(eng.quad_norm("H", sol.primal), 1e-300)
        if err is None:
            continue
        layout = problem.assembler().layout
        rows.append({"method": method, "level": level,
                     "h": max(problem.mesh.h_tau),
                     "n_dofs": (layout.n_block1 if method == "dg"
                                else layout.n_primal),
                     "err_H": err, "rel_err_H": rel,
                     "mode": ("manufactured" if manufactured
                              else "self-convergence")})
    for k in range(1, len(rows)):
        r0, r1 = rows[k - 1], rows[k]
        r1["order"] = float(np.log(r0["err_H"] / r1["err_H"])
                            / np.log(r0["h"] / r1["h"]))
    if rows:
        rows[0]["order"] = ""
    return rows


def run_convergence(spec: ProblemSpec, out: Path):
    problems = [_make_problem(spec)]
    extra = 0 if spec.manufactured_fields is not None else 1
    for _ in range(spec.levels - 1 + extra):
        problems.append(problems[-1].refined())
    rows, exact_H = [], {}
    for method in _methods(spec):
        rows.extend(_convergence_errors(spec, method,
                                        problems[:spec.levels + extra],
                                        exact_H))
    write_csv(out / "convergence.csv", rows,
              ["method", "level", "h", "n_dofs", "err_H", "rel_err_H",
               "order", "mode"])
    write_meshcond(out / "meshcond.csv", spec,
                   [p.mesh for p in problems[:spec.levels]])


def run_locking(spec: ProblemSpec, out: Path):
    """Every thickness and both methods reuse the problem's one assembly;
    only manufactured loads, which depend on the method and epsilon, are
    integrated anew."""
    problem = _make_problem(spec)
    manufactured = spec.manufactured_fields is not None

    def run_one(eps, method):
        eng = problem.norm_engine()
        if manufactured:
            mfd = _manufactured_for(spec, method, eps)
            sol = problem.solve(method, epsilon=eps, loads=mfd.load_spec())
            err = eng.error_norms(sol.primal, mfd)
            ref = eng.error_norms(np.zeros_like(sol.primal), mfd)
            rel = np.sqrt((err["rho"] ** 2 + err["gamma"] ** 2
                           + err["tau"] ** 2)
                          / (ref["rho"] ** 2 + ref["gamma"] ** 2
                             + ref["tau"] ** 2))
        else:
            sol = problem.solve(method, epsilon=eps)
            rel = ""
        rep = eng.discrete_norms(sol.primal, aux=sol.aux, epsilon=eps)
        return {"epsilon": eps, "method": method, "H_h_norm": rep.H_h_norm,
                "a_norm": rep.a_norm, "rel_energy_err": rel}

    rows = [run_one(eps, method) for eps in spec.epsilons
            for method in _methods(spec)]
    write_csv(out / "locking.csv", rows,
              ["epsilon", "method", "H_h_norm", "a_norm", "rel_energy_err"])


def run_regime(spec: ProblemSpec, out: Path):
    report = detect_regime(_make_problem(spec))
    (out / "regime.txt").write_text(report.to_text() + "\n")
    row = report.to_csv_row()
    write_csv(out / "regime.csv", [row], list(row.keys()))
    return report


STUDIES = {"solve": run_solve, "converge": run_convergence,
           "locking": run_locking, "regime": run_regime}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="shellfem",
        description="Shell finite-element studies from a config file")
    parser.add_argument("study", choices=sorted(STUDIES))
    parser.add_argument("config", help="path to the config file")
    parser.add_argument("--out", default=".")
    args = parser.parse_args(argv)
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        spec = build_spec(parse_config(text))
        STUDIES[args.study](spec, out)
    except (ConfigError, exprmod.ExprError, exprmod.EvalDomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (MeshError, GeometryError) as exc:
        print(f"mesh/geometry error: {exc}", file=sys.stderr)
        return 3
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
