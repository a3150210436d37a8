import csv
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from shellfem import assembly, cli, solve
from shellfem.assembly import FormAssembler
from shellfem.cli import (ConfigError, STUDIES, build_spec, main,
                          parse_config)
from shellfem.fe_space import FIELDS, build_dof_layout
from shellfem.geometry import make_chart
from shellfem.manufactured import ManufacturedSolution
from shellfem.mesh import generate_rect_mesh, refine_uniform, save_mesh
from shellfem.norms import NormEngine
from shellfem.regime import VERDICT_BENDING

GOOD = """
# clamped cylindrical panel
[chart]
kind = cylinder
radius = 1.0

[mesh]
rect = 0, 1, 0, 1
nx = 2
ny = 2
tags = D, D, D, D

[material]
lambda = 1.0
mu = 1.0
epsilon = 0.1

[loads]
p3 = sin(pi * x1) * x2

[study]
method = both
levels = 2
"""

# fields vanish on the whole boundary so they satisfy the clamped condition
MANUFACTURED = GOOD + """
[manufactured]
theta1 = sin(pi * x1) * sin(pi * x2)
theta2 = x1 * (1 - x1) * x2 * (1 - x2)
u1 = sin(pi * x1) * x2 * (1 - x2)
u2 = x1 * (1 - x1) * sin(pi * x2)
w = sin(pi * x1) * sin(pi * x2)
"""


def test_parse_config_sections_and_comments():
    cfg = parse_config(GOOD)
    assert cfg["chart"]["kind"] == "cylinder"
    assert cfg["mesh"]["rect"] == "0, 1, 0, 1"
    assert cfg["material"]["epsilon"] == "0.1"
    assert cfg["study"]["method"] == "both"


@pytest.mark.parametrize("text,fragment", [
    ("[chart\nkind = plate", "line 1"),
    ("kind = plate", "outside any"),
    ("[chart]\nno equals sign here", "key = value"),
    ("[chart]\n= plate", "empty key"),
    ("[chart]\nkind = plate\n\n[material]\nepsilson = 0.1",
     "line 5: unknown key 'epsilson' in [material]"),
    ("[assembly]\ntheta_param = 1.0", "line 2: unknown key 'theta_param'"),
    ("[chart]\nkind = plate\n[solver]\ntol = 1", "line 3: unknown section"),
    ("[material]\nepsilon = 1e-2\nepsilon = 5",
     "line 3: key 'epsilon' in [material] already given on line 2"),
])
def test_parse_config_errors_carry_line_info(text, fragment):
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert fragment in str(exc.value)


def test_build_spec_validation_errors():
    with pytest.raises(ConfigError):
        build_spec(parse_config("[mesh]\nrect = 0,1,0,1"))  # no chart kind
    bad = GOOD.replace("epsilon = 0.1", "epsilon = -1")
    with pytest.raises(ConfigError):
        build_spec(parse_config(bad))
    bad = GOOD.replace("method = both", "method = fancy")
    with pytest.raises(ConfigError):
        build_spec(parse_config(bad))
    bad = GOOD.replace("nx = 2", "nx = two")
    with pytest.raises(ConfigError):
        build_spec(parse_config(bad))


def write(tmp_path, text, name="case.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


@pytest.mark.parametrize("text", [
    "[chart]\nkind = nosuchchart",
    GOOD.replace("p3 = sin(pi * x1) * x2", "p3 = log(x1 - 2)"),
    GOOD.replace("kind = cylinder\nradius = 1.0",
                 "kind = expression\nx = x1\ny = x2\nz = sqrt(x1 - 2)"),
], ids=["unknown-chart", "non-finite-load", "non-finite-chart"])
def test_exit_code_config_error(tmp_path, capsys, text):
    cfg = write(tmp_path, text)
    assert main(["solve", cfg, "--out", str(tmp_path)]) == 2
    assert "config error:" in capsys.readouterr().err
    assert main(["solve", str(tmp_path / "missing.cfg")]) == 2


@pytest.mark.parametrize("text,message", [
    (GOOD.replace("radius = 1.0", "radius = 1.0\ndomain = 0, 1, 0"),
     "[chart] domain needs 4 numbers"),
    (GOOD.replace("kind = cylinder\nradius = 1.0",
                  "kind = expression\nx = x1\ny = x2"),
     "[chart] expression kind needs 'z' = ..."),
    (GOOD.replace("kind = cylinder", "kind = plate\ncoeff = 2\nx = x1"),
     "[chart] key 'coeff' is not read by kind = plate"),
    (GOOD.replace("radius = 1.0", "radius = 1.0\ncoeff = 2"),
     "[chart] key 'coeff' is not read by kind = cylinder"),
    (GOOD.replace("kind = cylinder\nradius = 1.0",
                  "kind = hypar\ncoeff = 0.5\nradius = 1.0"),
     "[chart] key 'radius' is not read by kind = hypar"),
    (GOOD.replace("kind = cylinder\nradius = 1.0",
                  "kind = expression\nx = x1\ny = x2\nz = 0\nradius = 2"),
     "[chart] key 'radius' is not read by kind = expression"),
    (GOOD.replace("rect = 0, 1, 0, 1\nnx = 2\nny = 2\ntags = D, D, D, D",
                  "file = no-such-dir/case.mesh"), "[mesh] file: "),
    (GOOD.replace("rect = 0, 1, 0, 1\n", ""),
     "[mesh] needs file = path or rect = a,b,c,d"),
    (GOOD.replace("tags = D, D, D, D", "tags = D, D, D"),
     "[mesh] tags needs 4 entries (left,right,bottom,top)"),
    (GOOD.replace("tags = D, D, D, D", "tags = D, D, D, X"),
     "key 'tags' must be D|S|F each, got 'X'"),
    (GOOD.replace("ny = 2", "ny = 2\ngrading_ratio = 0.5\n"
                  "grading_toward = middle"),
     "key 'grading_toward' must be left|right|bottom|top, got 'middle'"),
    (GOOD.replace("p3 = sin(pi * x1) * x2", "p3 = sin(pi * x1"),
     "[loads]: expected ')'"),
    (GOOD.replace("p3 = sin(pi * x1) * x2", "p3 = 2 +"),
     "[loads]: unexpected end of expression"),
    (MANUFACTURED.replace("w = sin(pi * x1) * sin(pi * x2)", "w = x3"),
     "[manufactured]: unknown identifier 'x3'"),
    (MANUFACTURED.replace("w = sin(pi * x1) * sin(pi * x2)", ""),
     "[manufactured] missing fields: ['w']"),
], ids=["domain", "expression-without-z", "plate-reads-no-key",
        "cylinder-reads-no-coeff", "hypar-reads-no-radius",
        "expression-reads-no-radius", "unreadable-mesh-file",
        "no-mesh", "tags", "unknown-tag", "grading-side", "loads-expression",
        "loads-expression-cut-short", "manufactured-expression",
        "manufactured-field"])
def test_exit_code_spec_error(tmp_path, capsys, text, message):
    cfg = write(tmp_path, text)
    assert main(["solve", cfg, "--out", str(tmp_path / "out")]) == 2
    assert f"config error: {message}" in capsys.readouterr().err


def test_exit_code_mesh_error(tmp_path, capsys):
    mesh_file = tmp_path / "broken.mesh"
    mesh_file.write_text("this is not a mesh\n")
    cfg = write(tmp_path, GOOD.replace(
        "rect = 0, 1, 0, 1", f"file = {mesh_file}").replace(
        "nx = 2\nny = 2\ntags = D, D, D, D", ""))
    assert main(["solve", cfg, "--out", str(tmp_path)]) == 3
    assert "mesh" in capsys.readouterr().err


def file_mesh_config(tmp_path, mesh_text, extra=""):
    """GOOD with its [mesh] section replaced by `file =` (and `extra`)."""
    mesh_file = tmp_path / "case.mesh"
    mesh_file.write_text(mesh_text)
    return write(tmp_path, GOOD.replace(
        "rect = 0, 1, 0, 1\nnx = 2\nny = 2\ntags = D, D, D, D",
        f"file = {mesh_file}{extra}"))


def test_exit_code_boundary_edge_listed_twice(tmp_path, capsys):
    lines = save_mesh(generate_rect_mesh((0, 1, 0, 1), 2, 2)).splitlines()
    at = lines.index("boundary 8")
    i, j, _ = lines[at + 1].split()
    lines[at] = "boundary 9"
    lines.append(f"{j} {i} F")
    cfg = file_mesh_config(tmp_path, "\n".join(lines) + "\n")
    assert main(["solve", cfg, "--out", str(tmp_path / "out")]) == 3
    assert (f"line {len(lines)}: boundary edge ({i}, {j}) already listed on "
            f"line {at + 2}") in capsys.readouterr().err


def test_exit_code_element_with_three_free_edges(tmp_path, capsys):
    """A one-triangle mesh with all three edges free is refused by the DOF
    layout (`fe_space.SpaceError`): a mesh error, exit 3, not a traceback."""
    cfg = file_mesh_config(tmp_path, "naghdi-mesh 1\nvertices 3\n0 0\n1 0\n"
                           "0 1\ntriangles 1\n0 1 2\nboundary 3\n0 1 F\n"
                           "1 2 F\n0 2 F\n")
    assert main(["solve", cfg, "--out", str(tmp_path / "out")]) == 3
    assert ("mesh/geometry error: element with 3 free edges is unsupported"
            in capsys.readouterr().err)


@pytest.mark.parametrize("line", [
    "rect = 0, 1, 0, 1", "nx = 2", "ny = 3", "tags = D, F, F, F",
    "grading_ratio = 0.5", "grading_toward = left"])
def test_exit_code_mesh_keys_beside_file(tmp_path, capsys, line):
    text = save_mesh(generate_rect_mesh((0, 1, 0, 1), 2, 2))
    cfg = file_mesh_config(tmp_path, text, "\n" + line)
    assert main(["solve", cfg, "--out", str(tmp_path / "out")]) == 2
    key = line.split()[0]
    assert (f"[mesh] key {key!r} cannot be combined with file"
            in capsys.readouterr().err)


def test_exit_code_grading_side_without_ratio(tmp_path, capsys):
    cfg = write(tmp_path, GOOD.replace("nx = 2", "nx = 2\ngrading_toward = top"))
    assert main(["solve", cfg, "--out", str(tmp_path / "out")]) == 2
    assert ("[mesh] key 'grading_toward' needs grading_ratio"
            in capsys.readouterr().err)


def test_solve_study_artifacts(tmp_path):
    cfg = write(tmp_path, GOOD)
    out = tmp_path / "out"
    assert main(["solve", cfg, "--out", str(out)]) == 0
    norms = (out / "norms.csv").read_text().strip().splitlines()
    assert norms[0].startswith("method,epsilon")
    assert len(norms) == 3  # header + mixed + dg
    for row in norms[1:]:
        for cell in row.split(",")[1:]:
            if cell:
                assert np.isfinite(float(cell))
    assert (out / "meshcond.csv").exists()
    for method in ("mixed", "dg"):
        vtk = (out / f"fields_{method}.vtk").read_text().splitlines()
        npts = int([l for l in vtk if l.startswith("POINTS")][0].split()[1])
        ncells = int([l for l in vtk if l.startswith("CELLS")][0].split()[1])
        assert npts == 3 * ncells
        assert sum(1 for l in vtk if l.startswith("SCALARS")) == 5


def test_solve_on_an_expression_chart_writes_its_surface(tmp_path):
    cfg = write(tmp_path, GOOD.replace(
        "kind = cylinder\nradius = 1.0",
        "kind = expression\nx = x1\ny = x2\nz = x1 * x2 + 0.5 * x1^2"
    ).replace("method = both", "method = mixed"))
    out = tmp_path / "out"
    assert main(["solve", cfg, "--out", str(out)]) == 0
    vtk = (out / "fields.vtk").read_text().splitlines()
    at = next(i for i, l in enumerate(vtk) if l.startswith("POINTS"))
    n = int(vtk[at].split()[1])
    got = np.array([l.split() for l in vtk[at + 1:at + 1 + n]], dtype=float)
    mesh = generate_rect_mesh((0, 1, 0, 1), 2, 2)
    x1, x2 = mesh.vertices[mesh.triangles].reshape(-1, 2).T
    want = np.stack([x1, x2, x1 * x2 + 0.5 * x1 ** 2], axis=1)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-9


def test_solve_zero_loads_zero_fields(tmp_path):
    cfg = write(tmp_path, GOOD.replace("p3 = sin(pi * x1) * x2", ""))
    out = tmp_path / "out"
    assert main(["solve", cfg, "--out", str(out)]) == 0
    rows = (out / "norms.csv").read_text().strip().splitlines()[1:]
    for row in rows:
        cells = row.split(",")
        assert float(cells[2]) == 0.0  # rho_norm
        assert float(cells[6]) == 0.0  # H_h_norm


def test_convergence_study_manufactured(tmp_path):
    cfg = write(tmp_path, MANUFACTURED)
    out = tmp_path / "out"
    assert main(["converge", cfg, "--out", str(out)]) == 0
    lines = (out / "convergence.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, l.split(","))) for l in lines[1:]]
    assert {r["method"] for r in rows} == {"mixed", "dg"}
    for method in ("mixed", "dg"):
        errs = [float(r["err_H"]) for r in rows if r["method"] == method]
        assert len(errs) == 2
        assert errs[1] < errs[0]  # error decreases under refinement
        assert all(r["mode"] == "manufactured" for r in rows)


def test_convergence_reports_each_methods_unknowns(tmp_path):
    """On a mesh with free edges the one-field method solves 15 unknowns per
    triangle and the mixed method the enriched primal count."""
    text = GOOD.replace("tags = D, D, D, D", "tags = D, F, F, F")
    out = tmp_path / "out"
    assert main(["converge", write(tmp_path, text), "--out", str(out)]) == 0
    lines = (out / "convergence.csv").read_text().strip().splitlines()
    rows = [dict(zip(lines[0].split(","), l.split(","))) for l in lines[1:]]
    mesh = build_spec(parse_config(text)).problem.mesh
    chart = make_chart("cylinder", radius=1.0)
    for level in (0, 1):
        n_primal = build_dof_layout(mesh, chart).n_primal
        assert n_primal > 15 * mesh.n_triangles
        want = {"dg": 15 * mesh.n_triangles, "mixed": n_primal}
        got = {r["method"]: int(r["n_dofs"]) for r in rows
               if int(r["level"]) == level}
        assert got == want
        mesh = refine_uniform(mesh)


def test_convergence_order_is_taken_from_its_own_rows(tmp_path):
    """Each row's order is log(err_H ratio) / log(h ratio) against the
    previous level of its method; the first level has none."""
    for text in (MANUFACTURED, GOOD.replace("method = both", "method = mixed")):
        out = tmp_path / "out"
        assert main(["converge", write(tmp_path, text), "--out",
                     str(out)]) == 0
        rows = read_rows(out / "convergence.csv")
        orders = 0
        for prev, row in zip(rows, rows[1:]):
            if row["method"] != prev["method"]:
                assert row["order"] == ""
                continue
            want = (np.log(float(prev["err_H"]) / float(row["err_H"]))
                    / np.log(float(prev["h"]) / float(row["h"])))
            assert float(row["order"]) == pytest.approx(want, rel=1e-12)
            orders += 1
        assert rows[0]["order"] == "" and orders == len(rows) - len(
            {r["method"] for r in rows})


def test_locking_study(tmp_path):
    cfg = write(tmp_path, GOOD.replace("method = both", "method = mixed")
                + "epsilons = 0.01, 0.001\n")
    out = tmp_path / "out"
    assert main(["locking", cfg, "--out", str(out)]) == 0
    lines = (out / "locking.csv").read_text().strip().splitlines()
    assert len(lines) == 3  # header + 2 epsilons x 1 method
    assert lines[0] == "epsilon,method,H_h_norm,a_norm,rel_energy_err"


def test_regime_study(tmp_path):
    cfg = write(tmp_path, GOOD.replace("tags = D, D, D, D",
                                       "tags = D, F, F, F"))
    out = tmp_path / "out"
    assert main(["regime", cfg, "--out", str(out)]) == 0
    text = (out / "regime.txt").read_text()
    assert "verdict:" in text
    assert (out / "regime.csv").exists()


def test_regime_study_refuses_a_manufactured_solution(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["regime", write(tmp_path, MANUFACTURED), "--out",
                 str(out)]) == 2
    assert ("config error: [manufactured] is not read by the regime study"
            in capsys.readouterr().err)
    assert not (out / "regime.txt").exists()


def test_csv_output_deterministic(tmp_path):
    cfg = write(tmp_path, GOOD)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["solve", cfg, "--out", str(out1)]) == 0
    assert main(["solve", cfg, "--out", str(out2)]) == 0
    assert (out1 / "norms.csv").read_bytes() == (out2 / "norms.csv").read_bytes()
    assert (out1 / "fields_mixed.vtk").read_bytes() == \
        (out2 / "fields_mixed.vtk").read_bytes()


def test_study_registry():
    assert set(STUDIES) == {"solve", "converge", "locking", "regime"}


def test_exit_code_unknown_key(tmp_path, capsys):
    cfg = write(tmp_path, GOOD.replace("epsilon = 0.1", "epsilson = 0.1"))
    assert main(["solve", cfg, "--out", str(tmp_path)]) == 2
    assert "line 16: unknown key 'epsilson'" in capsys.readouterr().err


@pytest.mark.parametrize("study,section,key,value", [
    ("locking", "study", "epsilons", "1e-2, 0"),
    ("converge", "study", "levels", "0"),
    ("solve", "assembly", "quad_degree", "-3"),
    ("solve", "assembly", "edge_points", "0"),
    ("solve", "assembly", "penalty_c", "-20"),
    ("solve", "material", "epsilon", "inf"),
    ("solve", "material", "mu", "inf"),
    ("solve", "material", "kappa", "1e400"),
    ("solve", "assembly", "penalty_c", "inf"),
    ("solve", "chart", "coeff", "inf"),
    ("locking", "study", "epsilons", "1e-2, inf"),
    ("solve", "mesh", "nx", "0"),
    ("solve", "mesh", "ny", "-3"),
    ("solve", "mesh", "grading_ratio", "2"),
])
def test_exit_code_value_out_of_range(tmp_path, capsys, study, section, key,
                                      value):
    # the key once, in its own section: a key given twice is its own error
    text = re.sub(rf"^{key} = .*\n", "", GOOD, flags=re.M)
    cfg = write(tmp_path, text + f"\n[{section}]\n{key} = {value}\n")
    assert main([study, cfg, "--out", str(tmp_path / "out")]) == 2
    assert f"key {key!r} must be" in capsys.readouterr().err


@pytest.mark.parametrize("old,new", [
    ("mu = 1.0", "mu = 0"),
    ("lambda = 1.0", "lambda = -1"),
    ("mu = 1.0", "mu = 1.0\nkappa = -1"),
    ("kind = cylinder\nradius = 1.0", "kind = cylinder\nradius = -1.5"),
    ("kind = cylinder\nradius = 1.0", "kind = sphere\nradius = 0"),
])
def test_exit_code_physical_value_out_of_range(tmp_path, capsys, old, new):
    cfg = write(tmp_path, GOOD.replace(old, new))
    assert main(["solve", cfg, "--out", str(tmp_path / "out")]) == 2
    key = new.split()[-3]
    assert f"key {key!r} must be" in capsys.readouterr().err


def cli_import_loads(module: str) -> bool:
    """Whether importing shellfem.cli in a fresh interpreter imports
    `module`."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
         f"import shellfem.cli; print({module!r} in sys.modules)", src],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip() == "True"


def test_cli_import_leaves_sympy_out():
    assert not cli_import_loads("sympy")


def test_cli_import_leaves_scipy_special_out():
    # importing scipy.special after shellfem.cli adds 2.3-2.4 MB of resident
    # memory (Python 3.11, scipy 1.17)
    assert not cli_import_loads("scipy.special")


def test_exit_code_calibration_failure(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(assembly, "positive_definite",
                        lambda K, tree: False)
    cfg = write(tmp_path, GOOD)
    assert main(["regime", cfg, "--out", str(tmp_path)]) == 4
    assert "penalty calibration failed" in capsys.readouterr().err


def test_programming_errors_are_not_solver_errors(tmp_path, monkeypatch):
    def broken(problem):
        raise RuntimeError("a bug, not a solver failure")
    monkeypatch.setattr(cli, "detect_regime", broken)
    with pytest.raises(RuntimeError, match="a bug"):
        main(["regime", write(tmp_path, GOOD), "--out", str(tmp_path)])


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_config_block_builds():
    """The README config block is valid as written, and so is each optional
    `# key = value` line in it once uncommented."""
    block = re.search(r"```ini\n(.*?)```", README.read_text(), re.S).group(1)
    build_spec(parse_config(block))
    lines = block.splitlines()
    optional = [i for i, line in enumerate(lines)
                if re.match(r"#\s*\w+\s*=", line)]
    assert len(optional) >= 5
    for i in optional:
        variant = lines.copy()
        variant[i] = lines[i].lstrip("# ")
        build_spec(parse_config("\n".join(variant)))


def test_readme_python_example_runs_as_written(capsys):
    """The README Python API example (8x8 cylinder, tags D,F,F,F,
    eps = 1e-3) solves both methods and is bending-dominated (criterion
    07a)."""
    block = re.search(r"```python\n(.*?)```", README.read_text(),
                      re.S).group(1)
    scope = {}
    exec(block, scope)
    assert scope["verdict"].verdict == VERDICT_BENDING
    assert scope["best"] is scope["sols"]["mixed_eps"]
    assert capsys.readouterr().out


def test_readme_mesh_example_runs_as_written(capsys):
    """The README example that builds a Mesh from arrays."""
    block = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)[1]
    scope = {}
    exec(block, scope)
    assert scope["square"].interior.pairs.tolist() == [[0, 3]]
    assert scope["fine"].n_triangles == 8
    assert capsys.readouterr().out


# The README Python API example as a config file.
README_REGIME = """
[chart]
kind = cylinder
radius = 1.0

[mesh]
rect = 0, 1, 0, 1
nx = 8
ny = 8
tags = D, F, F, F

[material]
epsilon = 0.001

[loads]
p3 = 1
"""


def test_readme_regime_study_exits_zero(tmp_path):
    out = tmp_path / "out"
    assert main(["regime", write(tmp_path, README_REGIME), "--out",
                 str(out)]) == 0
    assert f"verdict: {VERDICT_BENDING}" in (out / "regime.txt").read_text()


@pytest.mark.parametrize("manufactured", [False, True])
def test_locking_builds_forms_once(tmp_path, form_builds, manufactured):
    text = (MANUFACTURED if manufactured else GOOD) \
        + "\n[study]\nepsilons = 0.1, 0.01, 0.001\n"
    out = tmp_path / "out"
    assert main(["locking", write(tmp_path, text), "--out", str(out)]) == 0
    assert len((out / "locking.csv").read_text().strip().splitlines()) == 7
    assert form_builds == ["mixed"]


# a 10x10 cylinder with free edges, penalty calibrated, both methods
LARGER = GOOD.replace("nx = 2\nny = 2", "nx = 10\nny = 10").replace(
    "tags = D, D, D, D", "tags = D, F, F, F")


def test_solve_study_factors_its_last_system_alone(tmp_path, monkeypatch,
                                                   form_builds):
    """The `solve` study with both methods factors the mixed system while
    its assembler still holds the forms and the element and edge data,
    which the one-field solve after it reads, and the last system once it
    holds none of them; nothing is assembled twice."""
    made, held = [], []
    init, factor = FormAssembler.__init__, solve.factor

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    def recording_factor(K, tree):
        held.append([(a._forms is not None, a._elem is not None,
                      a._edges is not None) for a in made])
        return factor(K, tree)
    monkeypatch.setattr(FormAssembler, "__init__", recording_init)
    monkeypatch.setattr(solve, "factor", recording_factor)
    out = tmp_path / "out"
    assert main(["solve", write(tmp_path, LARGER), "--out", str(out)]) == 0
    assert held == [[(True, True, True)], [(False, False, False)]]
    assert form_builds == ["mixed"]


@pytest.mark.parametrize("method,files", [
    ("mixed", ("norms.csv", "fields.vtk")),
    ("both", ("norms.csv", "fields_mixed.vtk", "fields_dg.vtk"))])
def test_solve_outputs_do_not_depend_on_the_release(tmp_path, monkeypatch,
                                                    method, files):
    """The norms and the VTK pass that rebuild the quadrature data after the
    last solve released it write the same bytes as with the data kept."""
    cfg = write(tmp_path, LARGER.replace("method = both",
                                         f"method = {method}"))
    released, release = [], FormAssembler.release

    def recording_release(self):
        released.append(self)
        release(self)
    monkeypatch.setattr(FormAssembler, "release", recording_release)
    assert main(["solve", cfg, "--out", str(tmp_path / "released")]) == 0
    assert len(released) == 1
    monkeypatch.setattr(FormAssembler, "release", lambda self: None)
    assert main(["solve", cfg, "--out", str(tmp_path / "kept")]) == 0
    for name in files:
        assert ((tmp_path / "released" / name).read_bytes()
                == (tmp_path / "kept" / name).read_bytes()), name


@pytest.mark.parametrize("study,text,problems", [
    ("regime", LARGER, 1), ("converge", GOOD, 3),
    ("converge", MANUFACTURED, 2)],
    ids=["regime", "converge-self", "converge-manufactured"])
def test_studies_that_solve_again_keep_their_forms(tmp_path, monkeypatch,
                                                   form_builds, study, text,
                                                   problems):
    """A regime or a converge study, whose norms and error passes follow
    every solve, releases nothing and builds the forms of each of its
    problems once (self-convergence solves one level more)."""
    released = []
    monkeypatch.setattr(FormAssembler, "release", released.append)
    out = tmp_path / "out"
    assert main([study, write(tmp_path, text), "--out", str(out)]) == 0
    assert released == []
    assert form_builds == ["mixed"] * problems


def test_studies_build_no_gram_matrix(tmp_path, gram_builds):
    """Every norm a study reports is evaluated pointwise."""
    for study, text in (("solve", GOOD), ("regime", GOOD),
                        ("locking", GOOD), ("converge", GOOD),
                        ("converge", MANUFACTURED)):
        out = tmp_path / f"{study}-{len(text)}"
        assert main([study, write(tmp_path, text), "--out", str(out)]) == 0
    assert gram_builds == []


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# a plate whose manufactured solution, and so its every solution, is zero
ZERO_PLATE = GOOD.replace("kind = cylinder\nradius = 1.0", "kind = plate") \
    + "\n[manufactured]\n" + "".join(f"{n} = 0\n" for n in FIELDS)


@pytest.mark.parametrize("study,text,empty", [
    ("converge", GOOD.replace("tags = D, D, D, D", "tags = D, F, F, F")
     .replace("p3 = sin(pi * x1) * x2", ""), ("rel_err_H", "order")),
    ("converge", ZERO_PLATE, ("rel_err_H", "order")),
    ("locking", ZERO_PLATE, ("rel_energy_err",)),
], ids=["converge-no-loads", "converge-zero-manufactured",
        "locking-zero-manufactured"])
def test_zero_denominators_give_empty_cells(tmp_path, study, text, empty):
    """A relative error or an order whose denominator is zero is written as
    an empty cell."""
    out = tmp_path / "out"
    assert main([study, write(tmp_path, text), "--out", str(out)]) == 0
    name = "convergence.csv" if study == "converge" else "locking.csv"
    rows = read_rows(out / name)
    assert len(rows) == (4 if study == "converge" else 6)
    for row in rows:
        assert all(row[col] == "" for col in empty), row
        assert float(row.get("err_H", 0.0)) == 0.0


@pytest.mark.parametrize("study,passes", [("locking", 6), ("converge", 4)])
def test_manufactured_studies_make_one_norm_pass_per_solve(
        tmp_path, monkeypatch, study, passes):
    """A solve's errors and its exact solution's norms come from one stacked
    pass: 6 locking solves, whose own norms come from the same pass, and 2
    levels of 2 converge solves."""
    calls = []
    pieces = NormEngine._pieces

    def counting(self, *args, **kwargs):
        calls.append(study)
        return pieces(self, *args, **kwargs)
    monkeypatch.setattr(NormEngine, "_pieces", counting)
    text = MANUFACTURED + "\n[study]\nepsilons = 0.1, 0.01, 0.001\n"
    assert main([study, write(tmp_path, text), "--out", str(tmp_path)]) == 0
    assert len(calls) == passes


def test_relative_errors_equal_the_per_vector_formula(tmp_path):
    """rel_err_H and rel_energy_err equal the ratios of one error pass on the
    solution and one on the zero vector, and the locking study's H_h_norm
    and a_norm the solution's own seminorms."""
    text = MANUFACTURED + "\n[study]\nepsilons = 0.1, 0.001\n"
    for study in ("converge", "locking"):
        assert main([study, write(tmp_path, text), "--out",
                     str(tmp_path)]) == 0
    spec = build_spec(parse_config(text))
    problems = [spec.problem, spec.problem.refined()]

    def per_vector(problem, method, eps):
        mfd = ManufacturedSolution(
            spec.manufactured_fields, problem.chart, problem.material,
            theta_total=eps ** -2 + (1.0 if method == "mixed" else 0.0))
        sol = problem.solve(method, epsilon=eps, loads=mfd.load_spec())
        eng = problem.norm_engine()
        return (eng.error_norms(sol.primal, mfd),
                eng.error_norms(np.zeros_like(sol.primal), mfd),
                {k: eng.quad_norm(k, sol.primal) for k in ("H", "a")})

    def strain2(n):
        return n["rho"] ** 2 + n["gamma"] ** 2 + n["tau"] ** 2
    rows = read_rows(tmp_path / "convergence.csv")
    assert len(rows) == 4
    for row in rows:
        err, ref, _ = per_vector(problems[int(row["level"])],
                                 row["method"], spec.problem.epsilon)
        np.testing.assert_allclose(float(row["rel_err_H"]),
                                   err["H_h"] / ref["H_h"], rtol=1e-12)
    rows = read_rows(tmp_path / "locking.csv")
    assert len(rows) == 4
    for row in rows:
        err, ref, own = per_vector(spec.problem, row["method"],
                                   float(row["epsilon"]))
        np.testing.assert_allclose(float(row["rel_energy_err"]),
                                   np.sqrt(strain2(err) / strain2(ref)),
                                   rtol=1e-12)
        np.testing.assert_allclose(float(row["H_h_norm"]), own["H"],
                                   rtol=1e-12)
        np.testing.assert_allclose(float(row["a_norm"]), own["a"],
                                   rtol=1e-12)
