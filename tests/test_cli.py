import re
from pathlib import Path

import numpy as np
import pytest

from shellfem import assembly, cli
from shellfem.cli import (ConfigError, STUDIES, build_spec, main,
                          parse_config)
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


def test_exit_code_config_error(tmp_path, capsys):
    cfg = write(tmp_path, "[chart]\nkind = nosuchchart")
    assert main(["solve", cfg, "--out", str(tmp_path)]) == 2
    assert "error" in capsys.readouterr().err
    assert main(["solve", str(tmp_path / "missing.cfg")]) == 2


def test_exit_code_mesh_error(tmp_path, capsys):
    mesh_file = tmp_path / "broken.mesh"
    mesh_file.write_text("this is not a mesh\n")
    cfg = write(tmp_path, GOOD.replace(
        "rect = 0, 1, 0, 1", f"file = {mesh_file}").replace(
        "nx = 2\nny = 2\ntags = D, D, D, D", ""))
    assert main(["solve", cfg, "--out", str(tmp_path)]) == 3
    assert "mesh" in capsys.readouterr().err


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


def test_locking_study(tmp_path):
    cfg = write(tmp_path, GOOD + "\n[study]\nmethod = mixed\nlevels = 2\n"
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


def test_exit_code_calibration_failure(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(assembly, "_positive_definite", lambda K: False)
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
def test_locking_builds_forms_once_per_method(tmp_path, form_builds,
                                              manufactured):
    text = (MANUFACTURED if manufactured else GOOD) \
        + "\n[study]\nepsilons = 0.1, 0.01, 0.001\n"
    out = tmp_path / "out"
    assert main(["locking", write(tmp_path, text), "--out", str(out)]) == 0
    assert len((out / "locking.csv").read_text().strip().splitlines()) == 7
    assert sorted(form_builds) == ["dg", "mixed"]
