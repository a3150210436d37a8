import numpy as np
import pytest

from shellfem.assembly import AssemblyConfig, FormAssembler, LoadSpec, Material
from shellfem.fe_space import build_dof_layout
from shellfem.geometry import make_chart
from shellfem.manufactured import ManufacturedSolution
from shellfem.mesh import generate_rect_mesh
from shellfem.norms import NormEngine

from oracles import (consistency_residual, dual_H_norm, fields_dict,
                     korn_ratio, plain_layout, reference_forms,
                     reference_grams, reference_project_primal,
                     weak_Vbar_norm)


def make_engine(chart_kind="cylinder", tags=("D", "D", "D", "D"), nx=2, ny=2):
    chart = make_chart(chart_kind)
    mesh = generate_rect_mesh((0.0, 1.0, 0.0, 1.0), nx, ny, tags=tags)
    layout = build_dof_layout(mesh, chart)
    asm = FormAssembler(mesh, chart, layout, Material(),
                        AssemblyConfig(penalty_C=20.0))
    return NormEngine(asm)


def test_strain_norms_pythagorean():
    eng = make_engine()
    rng = np.random.default_rng(0)
    v = rng.standard_normal(eng.asm.layout.n_primal)
    rep = eng.discrete_norms(v, epsilon=0.1)
    assert rep.a_norm == pytest.approx(
        np.sqrt(rep.rho_norm ** 2 + rep.gamma_norm ** 2 + rep.tau_norm ** 2))
    a2 = eng.quad_norm("a", v) ** 2
    assert a2 == pytest.approx(rep.a_norm ** 2, rel=1e-12)


def test_norms_homogeneous_and_triangle_inequality():
    eng = make_engine()
    rng = np.random.default_rng(1)
    n = eng.asm.layout.n_primal
    x, y = rng.standard_normal(n), rng.standard_normal(n)
    for key in ("rho", "gamma", "tau", "a", "H"):
        nx_ = eng.quad_norm(key, x)
        assert eng.quad_norm(key, -2.5 * x) == pytest.approx(2.5 * nx_)
        assert (eng.quad_norm(key, x + y)
                <= nx_ + eng.quad_norm(key, y) + 1e-12)


def test_energy_components_consistent():
    eng = make_engine()
    rng = np.random.default_rng(2)
    v = rng.standard_normal(eng.asm.layout.n_primal)
    eps = 0.05
    rep = eng.discrete_norms(v, epsilon=eps)
    en = rep.energies
    assert en["total_scaled"] == pytest.approx(
        eps ** 2 * en["bending"] + en["membrane"] + en["shear"])
    assert en["total"] == pytest.approx(
        en["bending"] + eps ** -2 * (en["membrane"] + en["shear"]))
    assert en["bending"] >= 0 and en["membrane"] >= 0 and en["shear"] >= 0


@pytest.mark.parametrize("kind, n, tags", [
    ("cylinder", 6, ("D", "F", "S", "F")),
    ("hypar", 5, ("F", "F", "D", "F")),          # 15-, 21- and 27-DOF elements
    ("hypar", 6, ("D", "F", "D", "F"))],
    ids=["cylinder-DFSF", "hypar-5x5-enriched", "hypar-6x6-DFDF"])
def test_pointwise_energies_equal_the_reference_forms(kind, n, tags):
    """The energies of `discrete_norms`, all three from its pointwise pass,
    equal u^T F u with the oracle's element-by-element forms
    F = R + C R_pen, G + C G_pen and T + C T_pen, to 1e-12 relative."""
    eng = make_engine(kind, tags, n, n)
    if kind == "hypar" and tags[0] == "F":
        assert set(eng.layout.nf) == {3, 5, 7}
    f, C = reference_forms(eng.asm), eng.asm.penalty()
    v = np.random.default_rng(4).standard_normal(eng.layout.n_primal)
    got = eng.discrete_norms(v, epsilon=0.1).energies
    for name, key in (("bending", "R"), ("membrane", "G"), ("shear", "T")):
        want = v @ (f[key] + C * f[key + "_pen"]) @ v
        assert abs(got[name] - want) <= 1e-12 * abs(want), name


def test_membrane_energy_of_a_pure_plate_deflection_is_not_negative():
    """A continuous deflection w of the plate, zero on its clamped edges,
    with every other field zero, has no membrane strain, no membrane flux
    and no jump: its membrane energy is zero up to rounding, never below."""
    eng = make_engine("plate", nx=6, ny=6)
    mesh, layout = eng.asm.mesh, eng.asm.layout
    assert set(layout.nf) == {3}
    x1, x2 = mesh.vertices[mesh.triangles].T              # (3, nt) each
    v = np.zeros(layout.n_primal)
    v[layout.dofs[:, 12:15]] = (x1 * (1 - x1) * x2 * (1 - x2)).T
    en = eng.discrete_norms(v, epsilon=0.1).energies
    assert en["shear"] > 0
    assert 0 <= en["membrane"] <= 1e-14 * en["shear"]


def test_norms_build_no_forms():
    eng = make_engine()
    v = np.random.default_rng(5).standard_normal(eng.layout.n_primal)
    eng.discrete_norms(v, epsilon=0.1)
    assert eng.asm._forms is None


def test_error_norms_vanish_on_represented_fields():
    # degree-1 fields lie in every local space, so projection is exact and
    # the measured error is at rounding level
    eng = make_engine("cylinder")
    mfd = ManufacturedSolution(
        {"theta1": "0.2 + x1", "theta2": "x2 - 0.3 * x1",
         "u1": "1 - x2", "u2": "0.4 * x1 + x2", "w": "x1 + 2 * x2"},
        eng.asm.chart, eng.asm.material, theta_total=1.0)
    xi = reference_project_primal(fields_dict(mfd), eng.asm.mesh,
                                  eng.asm.chart, eng.asm.layout)
    errs = eng.error_norms(xi, mfd)
    for key, val in errs.items():
        assert val < 1e-10, (key, val)


def test_error_norms_detect_discrepancy():
    eng = make_engine("plate")
    mfd = ManufacturedSolution(
        {"theta1": "sin(x1)", "theta2": "x2^2", "u1": "cos(x2)",
         "u2": "x1 * x2", "w": "exp(x1) - 1"},
        eng.asm.chart, eng.asm.material, theta_total=1.0)
    zero = np.zeros(eng.asm.layout.n_primal)
    errs = eng.error_norms(zero, mfd)
    assert errs["H_h"] > 0.1


def test_dual_norm_duality():
    # r = Q_H x gives ||r||_dual = ||x||_H; also homogeneity
    eng = make_engine()
    rng = np.random.default_rng(3)
    x = rng.standard_normal(eng.asm.layout.n_primal)
    QH = reference_grams(eng)["H"]
    r = QH @ x
    assert dual_H_norm(eng, r) == pytest.approx(eng.quad_norm("H", x),
                                                rel=1e-9)
    assert dual_H_norm(eng, 4.0 * r) == pytest.approx(
        4.0 * dual_H_norm(eng, r), rel=1e-9)
    assert dual_H_norm(eng, np.zeros_like(r)) == 0.0


def test_korn_ratio_bounds_samples():
    eng = make_engine(nx=2, ny=2)
    ext = korn_ratio(eng)
    assert 0 < ext["min_ratio"] <= ext["max_ratio"] < np.inf
    smp = korn_ratio(eng, n_samples=20)
    assert ext["min_ratio"] <= smp["min_ratio"] + 1e-12
    assert smp["max_ratio"] <= ext["max_ratio"] + 1e-12


def test_weak_aux_norm_positive():
    eng = make_engine()
    rng = np.random.default_rng(4)
    m = rng.standard_normal(eng.asm.layout.n_block3)
    val = weak_Vbar_norm(eng, m)
    assert val > 0
    assert weak_Vbar_norm(eng, 2.0 * m) == pytest.approx(2.0 * val, rel=1e-9)


@pytest.mark.parametrize("method", ["mixed", "dg"])
def test_consistency_residual_degree_one_plate(method):
    chart = make_chart("plate")
    mesh = generate_rect_mesh((0.0, 1.0, 0.0, 1.0), 2, 2,
                              tags=("F", "F", "F", "F"))
    layout = (build_dof_layout(mesh, chart) if method == "mixed"
              else plain_layout(mesh))
    asm = FormAssembler(mesh, chart, layout, Material(),
                        AssemblyConfig(penalty_C=10.0))
    mfd = ManufacturedSolution(
        {"theta1": "0.3 - x2", "theta2": "x1 + 0.1 * x2",
         "u1": "x1 - x2", "u2": "0.5 + x2", "w": "2 * x1 + x2"},
        chart, asm.material,
        theta_total=(1.0 if method == "mixed" else 0.0) + 1.0 / 0.1 ** 2)
    res = consistency_residual(mfd, asm, method, epsilon=0.1)
    assert res < 1e-9


@pytest.mark.parametrize("chart_kind, tags, local_sizes", [
    ("cylinder", ("D", "S", "F", "F"), 2),
    ("hypar", ("F", "F", "D", "F"), 3),     # corners with two free edges
    ("plate", ("D", "D", "S", "S"), 1),
], ids=["cylinder-DSFF", "hypar-free", "plate-DDSS"])
def test_stacked_norms_equal_per_vector_norms(chart_kind, tags, local_sizes):
    """One quad_norm call on a stack (k, n) gives each vector's seminorm,
    edge parts included, on meshes with and without enriched elements; one
    error_norms call gives each vector's error norms against an exact
    field."""
    eng = make_engine(chart_kind, tags, nx=3, ny=3)
    assert len(np.unique(eng.asm.layout.nf)) == local_sizes
    X = np.random.default_rng(5).standard_normal((4, eng.layout.n_primal))
    X[2] = 0.0
    for key in ("rho", "gamma", "tau", "a", "H"):
        got = eng.quad_norm(key, X)
        assert got.shape == (4,) and got[2] == 0.0
        want = [eng.quad_norm(key, x) for x in X]
        assert all(type(v) is float for v in want)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
    mfd = ManufacturedSolution(
        {"theta1": "sin(x1)", "theta2": "x2^2", "u1": "cos(x2)",
         "u2": "x1 * x2", "w": "exp(x1) - 1"},
        eng.asm.chart, eng.asm.material, theta_total=1.0)
    got = eng.error_norms(X, mfd)
    want = [eng.error_norms(x, mfd) for x in X]
    assert got.keys() == want[0].keys()
    for key in got:
        assert got[key].shape == (4,) and got[key][2] > 0.0
        assert all(type(w[key]) is float for w in want)
        np.testing.assert_allclose(got[key], [w[key] for w in want],
                                   rtol=1e-13, atol=0)
