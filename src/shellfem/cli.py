"""Batch front end: line-oriented config parsing, study drivers (solve,
convergence, locking, regime detection), and CSV/VTK emission.

Config grammar (documented in the README): `[section]` headers, `key = value`
lines, `#` comments.  Exit codes: 2 configuration error, 3 mesh/geometry
error, 4 solver error.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import expr as exprmod
from .assembly import AssemblyConfig, LoadSpec, Material
from .driver import ShellProblem
from .fe_space import FIELDS
from .geometry import POINT_BUDGET, GeometryError, batched, make_chart
from .manufactured import ManufacturedSolution
from .mesh import (TAGS, MeshError, generate_rect_mesh, load_mesh,
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
# The [chart] keys each kind reads besides kind and domain.
CHART_KEYS = {"plate": set(), "cylinder": {"radius"}, "sphere": {"radius"},
              "hypar": {"coeff"}, "expression": {"x", "y", "z"}}


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
    """The finite number (a float, or an int if `cast` is int) at `key`, or
    `default` where `sec` has no `key`."""
    if key not in sec:
        return default
    try:
        value = cast(sec[key])
    except ValueError:
        value = np.nan
    if not np.isfinite(value):
        raise ConfigError(f"key {key!r} must be "
                          + ("a finite number" if cast is float
                             else "an integer") + f", got {sec[key]!r}")
    return value


def _get_floats(sec, key, default=None):
    """The comma-separated finite numbers at `key`, as a tuple."""
    if key not in sec:
        return default
    return tuple(_get({key: p.strip()}, key) for p in sec[key].split(","))


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
    """A study's problem on the base mesh, which calibrates the penalty on
    first use unless the config gives one (every thickness and refinement of
    the study shares that constant), and what the studies add to it."""
    problem: ShellProblem
    manufactured_fields: dict = None
    methods: tuple = ("mixed", "dg")
    levels: int = 3
    epsilons: tuple = (1e-2, 1e-3, 1e-4)


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
    if kind in CHART_KEYS:
        extra = sorted(sec.keys() - {"kind", "domain"} - CHART_KEYS[kind])
        if extra:
            raise ConfigError(f"[chart] key {extra[0]!r} is not read by "
                              f"kind = {kind}")
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
    nx = _bounded("nx", _get(sec, "nx", 4, int), 1, False)
    ny = _bounded("ny", _get(sec, "ny", 4, int), 1, False)
    tags = tuple(t.strip().upper() for t in sec.get("tags", "D,D,D,D").split(","))
    if len(tags) != 4:
        raise ConfigError("[mesh] tags needs 4 entries (left,right,bottom,top)")
    for t in tags:
        if t not in TAGS:
            raise ConfigError(f"key 'tags' must be {'|'.join(TAGS)} each, "
                              f"got {t!r}")
    grading = None
    if "grading_toward" in sec and "grading_ratio" not in sec:
        raise ConfigError("[mesh] key 'grading_toward' needs grading_ratio")
    if "grading_ratio" in sec:
        ratio = _get(sec, "grading_ratio")
        if not 0 < ratio <= 1:
            raise ConfigError("key 'grading_ratio' must be in (0, 1], got "
                              f"{ratio:g}")
        toward = sec.get("grading_toward", "left")
        sides = ("left", "right", "bottom", "top")
        if toward not in sides:
            raise ConfigError(f"key 'grading_toward' must be {'|'.join(sides)}"
                              f", got {toward!r}")
        grading = {"ratio": ratio, "toward": toward}
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
    config = AssemblyConfig(
        penalty_C=(_bounded("penalty_c", _get(asm_sec, "penalty_c"), 0, True)
                   if "penalty_c" in asm_sec else None),
        quad_tri_degree=_bounded(
            "quad_degree", _get(asm_sec, "quad_degree", 8, int), 1, False),
        quad_edge_points=_bounded(
            "edge_points", _get(asm_sec, "edge_points", 5, int), 1, False))
    study_sec = sections.get("study", {})
    method = study_sec.get("method", "both").lower()
    if method not in ("mixed", "dg", "both"):
        raise ConfigError(f"[study] method must be mixed|dg|both, got {method!r}")
    return ProblemSpec(
        problem=ShellProblem(chart=chart, mesh=mesh, material=material,
                             epsilon=epsilon, loads=loads, config=config),
        manufactured_fields=manufactured,
        methods=("mixed", "dg") if method == "both" else (method,),
        levels=_bounded("levels", _get(study_sec, "levels", 3, int), 1, False),
        epsilons=_bounded("epsilons", _get_floats(
            study_sec, "epsilons", (1e-2, 1e-3, 1e-4)), 0, True))


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


def _lines(fmt, rows) -> str:
    """The rows (n, k) of numbers, one line of `fmt` each, formatted in one
    pass ('%.9e' gives the digits of f"{v:.9e}")."""
    rows = np.asarray(rows)
    return "\n".join([fmt] * len(rows)) % tuple(rows.ravel().tolist())


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
             "DATASET UNSTRUCTURED_GRID", f"POINTS {3 * nt} double",
             _lines("%.9e %.9e %.9e", pts3d), f"CELLS {nt} {4 * nt}",
             _lines("3 %d %d %d", np.arange(3 * nt).reshape(nt, 3)),
             f"CELL_TYPES {nt}", "\n".join(["5"] * nt),
             f"POINT_DATA {3 * nt}"]
    for name, arr in zip(FIELDS, data.T):
        lines += [f"SCALARS {name} double 1", "LOOKUP_TABLE default",
                  _lines("%.9e", arr[:, None])]
    path.write_text("\n".join(lines) + "\n")


def write_meshcond(path: Path, problem: ShellProblem, meshes):
    """`meshcond.csv`: the size and the geometry resolution of each mesh."""
    rows = []
    for level, mesh in enumerate(meshes):
        rep = mesh_condition_report(mesh, problem.chart, problem.epsilon)
        rows.append({"level": level, "n_triangles": mesh.n_triangles,
                     "h": max(mesh.h_tau), **rep})
    write_csv(path, rows, ["level", "n_triangles", "h", "mixed_error_factor",
                           "geometry_resolution", "geometry_resolved"])


# -------------------------------------------------------------------- studies

def _ratio(num, den):
    """num / den as a CSV cell: empty where den is zero."""
    return float(num / den) if den else ""


def _solve(spec: ProblemSpec, problem: ShellProblem, method: str,
           epsilon: float, measure: bool = False, own: bool = False,
           last: bool = False):
    """The solution u_h of `problem` by `method` at thickness `epsilon`,
    under the problem's loads or, if the study has a manufactured solution
    u, under u's loads for that pair.  With `measure` and u, also its errors:
    err_H = |u_h - u|_H, rel_err_H = err_H / |u|_H and rel_energy_err, the
    same ratio of the strain norms (rho, gamma, tau together), the norms of
    u_h - u and of u from one error pass on the stack [u_h, 0]; with `own`
    as well, u_h's own H_h_norm and a_norm, from the same pass on the stack
    [u_h, 0, u_h] with u subtracted from the first two.  `last` is passed
    to `ShellProblem.solve`."""
    if spec.manufactured_fields is None:
        return problem.solve(method, epsilon=epsilon, last=last), None
    mfd = ManufacturedSolution(
        spec.manufactured_fields, problem.chart, problem.material,
        theta_total=epsilon ** -2 + (1.0 if method == "mixed" else 0.0))
    sol = problem.solve(method, epsilon=epsilon, loads=mfd.load_spec(),
                        last=last)
    if not measure:
        return sol, None
    stack = [sol.primal, np.zeros_like(sol.primal)] + [sol.primal] * own
    n = problem.norm_engine().error_norms(np.stack(stack), mfd,
                                          scale=[1.0, 1.0, 0.0][:len(stack)])
    strain = np.sqrt(n["rho"] ** 2 + n["gamma"] ** 2 + n["tau"] ** 2)
    errs = {"err_H": float(n["H_h"][0]), "rel_err_H": _ratio(*n["H_h"][:2]),
            "rel_energy_err": _ratio(*strain[:2])}
    if own:
        errs.update(H_h_norm=float(n["H_h"][2]), a_norm=float(n["a"][2]))
    return sol, errs


def run_solve(spec: ProblemSpec, out: Path):
    """One solve per method.  The last one is factored with only its system
    in memory (`ShellProblem.solve`'s `last`); its norms and VTK pass
    rebuild the quadrature data they read."""
    problem, rows = spec.problem, []
    for method in spec.methods:
        sol = _solve(spec, problem, method, problem.epsilon,
                     last=method == spec.methods[-1])[0]
        rep = problem.norm_engine().discrete_norms(sol.primal, aux=sol.aux,
                                                   epsilon=problem.epsilon)
        rows.append({"method": method, "epsilon": problem.epsilon,
                     "rho_norm": rep.rho_norm, "gamma_norm": rep.gamma_norm,
                     "tau_norm": rep.tau_norm, "a_norm": rep.a_norm,
                     "H_h_norm": rep.H_h_norm, "V_h_norm": rep.V_h_norm,
                     "energy_bending": rep.energies["bending"],
                     "energy_membrane": rep.energies["membrane"],
                     "energy_shear": rep.energies["shear"]})
        write_vtk(out / ("fields.vtk" if len(spec.methods) == 1
                         else f"fields_{method}.vtk"), problem, sol.primal)
    write_csv(out / "norms.csv", rows, list(rows[0].keys()))
    write_meshcond(out / "meshcond.csv", problem, [problem.mesh])


def run_convergence(spec: ProblemSpec, out: Path):
    """H_h errors over `levels` uniform refinements, against the
    manufactured solution or, without one, against the next level's
    solution (self-convergence, which solves one level more)."""
    manufactured = spec.manufactured_fields is not None
    problems = [spec.problem]
    for _ in range(spec.levels - manufactured):
        problems.append(problems[-1].refined())
    rows = []
    for method in spec.methods:
        solved = [_solve(spec, p, method, p.epsilon, measure=True)
                  for p in problems]
        for level, problem in enumerate(problems[:spec.levels]):
            sol, errs = solved[level]
            if errs is None:
                eng = problem.norm_engine()
                err = eng.error_norms(sol.primal, DiscreteField(
                    problems[level + 1], solved[level + 1][0].primal))["H_h"]
                errs = {"err_H": err, "rel_err_H": _ratio(
                    err, eng.quad_norm("H", sol.primal))}
            layout, h = problem.assembler().layout, max(problem.mesh.h_tau)
            q = _ratio(rows[-1]["err_H"], errs["err_H"]) if level else ""
            rows.append({"method": method, "level": level, "h": h,
                         "n_dofs": (layout.n_block1 if method == "dg"
                                    else layout.n_primal),
                         "err_H": errs["err_H"],
                         "rel_err_H": errs["rel_err_H"],
                         "order": (float(np.log(q) / np.log(rows[-1]["h"] / h))
                                   if q else ""),
                         "mode": ("manufactured" if manufactured
                                  else "self-convergence")})
    write_csv(out / "convergence.csv", rows,
              ["method", "level", "h", "n_dofs", "err_H", "rel_err_H",
               "order", "mode"])
    write_meshcond(out / "meshcond.csv", spec.problem,
                   [p.mesh for p in problems[:spec.levels]])


def run_locking(spec: ProblemSpec, out: Path):
    """Every thickness and both methods reuse the problem's one assembly;
    only manufactured loads, which depend on the method and epsilon, are
    integrated anew.  Each solve makes one norm pass: with a manufactured
    solution, its errors and its own norms together; without one, its own
    H_h and a norms."""
    problem, rows = spec.problem, []
    for eps in spec.epsilons:
        for method in spec.methods:
            sol, errs = _solve(spec, problem, method, eps, measure=True,
                               own=True)
            if errs is None:
                n = problem.norm_engine().error_norms(sol.primal)
                errs = {"H_h_norm": n["H_h"], "a_norm": n["a"],
                        "rel_energy_err": ""}
            rows.append({"epsilon": eps, "method": method,
                         **{k: errs[k] for k in ("H_h_norm", "a_norm",
                                                 "rel_energy_err")}})
    write_csv(out / "locking.csv", rows,
              ["epsilon", "method", "H_h_norm", "a_norm", "rel_energy_err"])


def run_regime(spec: ProblemSpec, out: Path):
    report = detect_regime(spec.problem)
    (out / "regime.txt").write_text(report.to_text() + "\n")
    row = report.to_csv_row()
    write_csv(out / "regime.csv", [row], list(row.keys()))
    return report


STUDIES = {"solve": run_solve, "converge": run_convergence,
           "locking": run_locking, "regime": run_regime}


def _hold_freed_blocks():
    """glibc maps every block above its mmap threshold (128 KiB at start)
    afresh and unmaps it when freed, so the assembly slices and the frontal
    matrices, a few MB each, fault their pages in one by one each time.
    glibc raises the threshold only once it frees a larger mapped block,
    which nothing here does early; the CLI fixes it where that rule puts it
    after a 16 MiB block (M_MMAP_THRESHOLD = -3, M_TRIM_THRESHOLD = -1 in
    malloc.h).  The solves hand the heap back before they factor."""
    libc = ctypes.CDLL(None) if os.name == "posix" else None
    if hasattr(libc, "mallopt"):
        libc.mallopt(-3, 16 << 20)
        libc.mallopt(-1, 32 << 20)


def main(argv=None) -> int:
    _hold_freed_blocks()
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
