import numpy as np
import pytest
import scipy.sparse as sps

from shellfem.assembly import AssemblyConfig, FormAssembler, LoadSpec, Material
from shellfem.fe_space import build_dof_layout
from shellfem.geometry import make_chart
from shellfem.mesh import generate_rect_mesh
from shellfem.solve import (ShellSolution, SolverError, realize_via_theta,
                            solve_dg, solve_mixed)


def setup(enrichment, tags=("D", "D", "D", "D")):
    chart = make_chart("cylinder", radius=2.0)
    mesh = generate_rect_mesh((0.0, 1.0, 0.0, 1.0), 2, 2, tags=tags)
    layout = build_dof_layout(mesh, chart, enrichment=enrichment)
    config = AssemblyConfig(penalty_C=20.0)
    asm = FormAssembler(mesh, chart, layout, Material(), config)
    f = asm.load_vector(LoadSpec(p3=lambda p: np.cos(p[:, 0]) + p[:, 1]))
    return asm, f


def test_mixed_matches_dense_oracle():
    asm, f = setup(enrichment=True)
    eps = 0.1
    A = asm.a_theta(1.0)
    B = asm.b_matrix()
    C = asm.c_matrix()
    sol = solve_mixed(A, B, C, f, eps)
    K = sps.bmat([[A, B.T], [B, -eps ** 2 * C]]).toarray()
    ref = np.linalg.solve(K, np.concatenate([f, np.zeros(C.shape[0])]))
    n = A.shape[0]
    assert np.allclose(sol.primal, ref[:n], rtol=1e-9, atol=1e-12)
    assert np.allclose(sol.aux, ref[n:], rtol=1e-9, atol=1e-12)


def test_dg_matches_dense_oracle():
    asm, f = setup(enrichment=False)
    eps = 0.05
    fm = asm.forms()
    Cp = asm.config.penalty_C
    R = fm["R"] + Cp * fm["R_pen"]
    G = fm["G"] + Cp * fm["G_pen"]
    T = fm["T"] + Cp * fm["T_pen"]
    sol = solve_dg(R, G, T, f, eps)
    K = (R + eps ** -2 * (G + T)).toarray()
    ref = np.linalg.solve(K, f)
    assert np.allclose(sol.primal, ref, rtol=1e-8, atol=1e-12)


def test_dg_scalings_agree():
    asm, f = setup(enrichment=False)
    fm = asm.forms()
    Cp = asm.config.penalty_C
    R = fm["R"] + Cp * fm["R_pen"]
    G = fm["G"] + Cp * fm["G_pen"]
    T = fm["T"] + Cp * fm["T_pen"]
    a = solve_dg(R, G, T, f, 1e-2, scaling="original")
    b = solve_dg(R, G, T, f, 1e-2, scaling="scaled")
    scale = np.abs(a.primal).max()
    assert np.abs(a.primal - b.primal).max() < 1e-8 * scale
    auto = solve_dg(R, G, T, f, 1e-2, scaling="auto")
    assert auto.meta["scaling"] == "scaled"
    assert solve_dg(R, G, T, f, 0.5).meta["scaling"] == "original"


def test_solution_linearity():
    asm, f = setup(enrichment=True)
    eps = 0.1
    A, B, C = asm.a_theta(1.0), asm.b_matrix(), asm.c_matrix()
    s1 = solve_mixed(A, B, C, f, eps)
    s2 = solve_mixed(A, B, C, 3.0 * f, eps)
    assert np.allclose(s2.primal, 3.0 * s1.primal, rtol=1e-9,
                       atol=1e-12 * np.abs(s1.primal).max())
    assert np.allclose(s2.aux, 3.0 * s1.aux, rtol=1e-9,
                       atol=1e-12 * max(np.abs(s1.aux).max(), 1))


def test_zero_rhs_gives_zero_solution():
    asm, f = setup(enrichment=True)
    z = np.zeros_like(f)
    sol = solve_mixed(asm.a_theta(1.0), asm.b_matrix(), asm.c_matrix(), z, 0.1)
    assert np.all(sol.primal == 0)
    assert np.all(sol.aux == 0)
    fm = asm.forms()
    sol = solve_dg(fm["R"], fm["G"], fm["T"], z, 0.1)
    assert np.all(sol.primal == 0)


def test_via_theta_mixed_matches_standalone():
    asm, f = setup(enrichment=True)
    eps = 0.1
    direct = solve_mixed(asm.a_theta(1.0), asm.b_matrix(), asm.c_matrix(),
                         f, eps)
    via = realize_via_theta(asm, "mixed", eps, f)
    assert np.array_equal(direct.primal, via.primal)
    assert np.array_equal(direct.aux, via.aux)


def test_via_theta_dg_matches_standalone():
    asm, f = setup(enrichment=False)
    eps = 0.1
    fm = asm.forms()
    Cp = asm.config.penalty_C
    R = fm["R"] + Cp * fm["R_pen"]
    G = fm["G"] + Cp * fm["G_pen"]
    T = fm["T"] + Cp * fm["T_pen"]
    direct = solve_dg(R, G, T, f, eps, scaling="original")
    via = realize_via_theta(asm, "dg", eps, f)
    scale = np.abs(direct.primal).max()
    assert np.abs(direct.primal - via.primal).max() < 1e-10 * scale


def test_residual_guard_raises():
    # a singular system violates the relative-residual guard
    n = 10
    K = sps.eye(n, format="lil")
    K[0, 0] = 0.0  # exactly singular row
    b = np.ones(n)
    with pytest.raises((SolverError, RuntimeError)):
        from shellfem.solve import _direct_solve
        _direct_solve(K.tocsc(), b)


def test_solution_dataclass_meta():
    sol = ShellSolution(primal=np.zeros(3))
    assert sol.aux is None
    assert sol.meta == {}
