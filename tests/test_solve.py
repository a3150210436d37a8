from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from shellfem.assembly import AssemblyConfig, FormAssembler, LoadSpec, Material
from shellfem.driver import ShellProblem
from shellfem.fe_space import build_dof_layout
from shellfem.geometry import make_chart
from shellfem.mesh import generate_rect_mesh
from shellfem.norms import NormEngine
from shellfem.solve import (BACKWARD_ERROR_MULTIPLE, ShellSolution,
                            SolverError, inf_one_norms, ordered,
                            realize_via_theta, solve_dg, solve_mixed)

from oracles import penalized_forms, plain_layout


def setup(tags=("D", "D", "D", "D")):
    chart = make_chart("cylinder", radius=2.0)
    mesh = generate_rect_mesh((0.0, 1.0, 0.0, 1.0), 2, 2, tags=tags)
    layout = build_dof_layout(mesh, chart)
    config = AssemblyConfig(penalty_C=20.0)
    asm = FormAssembler(mesh, chart, layout, Material(), config)
    f = asm.load_vector(LoadSpec(p3=lambda p: np.cos(p[:, 0]) + p[:, 1]))
    return asm, f


def test_mixed_matches_dense_oracle():
    asm, f = setup()
    eps = 0.1
    A = asm.a_theta(1.0)
    B = asm.b_matrix()
    C = asm.c_matrix()
    sol = solve_mixed(A, B, C, f, eps, asm.dof_order())
    K = sps.bmat([[A, B.T], [B, -eps ** 2 * C]]).toarray()
    ref = np.linalg.solve(K, np.concatenate([f, np.zeros(C.shape[0])]))
    n = A.shape[0]
    assert np.allclose(sol.primal, ref[:n], rtol=1e-9, atol=1e-12)
    assert np.allclose(sol.aux, ref[n:], rtol=1e-9, atol=1e-12)


def test_dg_matches_dense_oracle():
    asm, f = setup()
    eps = 0.05
    fm = asm.forms()
    Cp = asm.config.penalty_C
    R = fm["R"] + Cp * fm["R_pen"]
    G = fm["G"] + Cp * fm["G_pen"]
    T = fm["T"] + Cp * fm["T_pen"]
    sol = solve_dg(R, G, T, f, eps, asm.dof_order(len(f)))
    K = (R + eps ** -2 * (G + T)).toarray()
    ref = np.linalg.solve(K, f)
    assert np.allclose(sol.primal, ref, rtol=1e-8, atol=1e-12)


def test_solution_linearity():
    asm, f = setup()
    eps = 0.1
    A, B, C = asm.a_theta(1.0), asm.b_matrix(), asm.c_matrix()
    s1 = solve_mixed(A, B, C, f, eps, asm.dof_order())
    s2 = solve_mixed(A, B, C, 3.0 * f, eps, asm.dof_order())
    assert np.allclose(s2.primal, 3.0 * s1.primal, rtol=1e-9,
                       atol=1e-12 * np.abs(s1.primal).max())
    assert np.allclose(s2.aux, 3.0 * s1.aux, rtol=1e-9,
                       atol=1e-12 * max(np.abs(s1.aux).max(), 1))


def test_zero_rhs_gives_zero_solution():
    asm, f = setup()
    z = np.zeros_like(f)
    sol = solve_mixed(asm.a_theta(1.0), asm.b_matrix(), asm.c_matrix(), z, 0.1,
                      asm.dof_order())
    assert np.all(sol.primal == 0)
    assert np.all(sol.aux == 0)
    fm = asm.forms()
    sol = solve_dg(fm["R"], fm["G"], fm["T"], z, 0.1,
                   asm.dof_order(len(z)))
    assert np.all(sol.primal == 0)


def test_via_theta_mixed_matches_standalone():
    asm, f = setup()
    eps = 0.1
    direct = solve_mixed(asm.a_theta(1.0), asm.b_matrix(), asm.c_matrix(),
                         f, eps, asm.dof_order())
    via = realize_via_theta(asm, "mixed", eps, f)
    assert np.array_equal(direct.primal, via.primal)
    assert np.array_equal(direct.aux, via.aux)


def test_via_theta_dg_matches_standalone():
    asm, f = setup()
    eps = 0.1
    fm = asm.forms()
    Cp = asm.config.penalty_C
    R = fm["R"] + Cp * fm["R_pen"]
    G = fm["G"] + Cp * fm["G_pen"]
    T = fm["T"] + Cp * fm["T_pen"]
    direct = solve_dg(R, G, T, f, eps, asm.dof_order(len(f)))
    via = realize_via_theta(asm, "dg", eps, f)
    scale = np.abs(direct.primal).max()
    assert np.abs(direct.primal - via.primal).max() < 1e-10 * scale


def test_residual_guard_raises():
    # an exactly singular system fails in the solve core's factorization
    n = 10
    K = sps.eye(n, format="lil")
    K[0, 0] = 0.0  # exactly singular row
    zero = sps.csr_matrix((n, n))
    with pytest.raises(SolverError, match="factorization failed"):
        solve_dg(K.tocsr(), zero, zero, np.ones(n), 1.0, np.arange(n))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_non_finite_solution_fails_the_backward_error_bound():
    n = 4
    zero = sps.csr_matrix((n, n))
    b = np.ones(n)
    b[1] = np.inf
    with pytest.raises(SolverError, match="backward error nan exceeds"):
        solve_dg(sps.identity(n, format="csr"), zero, zero, b, 1.0,
                 np.arange(n))


def reduced_oracle(problem):
    """An assembler on the plain P1 layout of `problem`'s mesh with its
    penalty constant: the penalized system assembled on its own."""
    return FormAssembler(problem.mesh, problem.chart,
                         plain_layout(problem.mesh),
                         problem.material,
                         replace(problem.config, penalty_C=problem.calibrate()))


def oracle_solve(oracle, loads, epsilon):
    return solve_dg(*penalized_forms(oracle), oracle.load_vector(loads),
                    epsilon, oracle.dof_order(oracle.layout.n_primal))


@pytest.mark.parametrize("tags", [("D", "F", "F", "F"), ("S", "F", "D", "F")],
                         ids=["DFFF", "SFDF"])
def test_penalized_solve_is_the_leading_block(tags):
    """The problem's penalized solve on the enriched assembly is the
    reduced-layout solve, zero-padded on the enrichment DOFs, and its norms
    are the reduced engine's."""
    mesh = generate_rect_mesh((0, 1, 0, 1), 4, 4, tags=tags)
    loads = LoadSpec(p3=lambda p: np.cos(p[:, 0]) + p[:, 1],
                     c1=lambda p: p[:, 0] * p[:, 1], q3=lambda p: p[:, 0])
    problem = ShellProblem(chart=make_chart("cylinder"), mesh=mesh,
                           epsilon=1e-2, loads=loads)
    sol = problem.solve("dg")
    oracle = reduced_oracle(problem)
    want = oracle_solve(oracle, loads, problem.epsilon).primal
    layout = problem.assembler().layout
    n1 = layout.n_block1
    assert layout.n_block2 > 0 and len(sol.primal) == layout.n_primal
    assert np.all(sol.primal[n1:] == 0.0)
    assert np.abs(sol.primal[:n1] - want).max() <= 1e-10 * np.abs(want).max()

    def close(a, b):
        assert abs(a - b) <= 1e-10 * abs(b)
    eng, ref = problem.norm_engine(), NormEngine(oracle)
    close(eng.quad_norm("H", sol.primal), ref.quad_norm("H", want))
    got = eng.discrete_norms(sol.primal, sol.aux, epsilon=problem.epsilon)
    exp = ref.discrete_norms(want, epsilon=problem.epsilon)
    assert got.V_h_norm is None and exp.V_h_norm is None
    for key in ("rho_norm", "gamma_norm", "tau_norm", "a_norm", "H_h_norm"):
        close(getattr(got, key), getattr(exp, key))
    for key, value in exp.energies.items():
        close(got.energies[key], value)


@pytest.fixture(scope="module")
def readme_problem():
    """The README example: 8x8 cylinder, tags D,F,F,F, eps = 1e-3."""
    chart = make_chart("cylinder", radius=1.0)
    mesh = generate_rect_mesh((0, 1, 0, 1), 8, 8, tags=("D", "F", "F", "F"))
    return ShellProblem(chart=chart, mesh=mesh, epsilon=1e-3,
                        loads=LoadSpec(p3=lambda p: np.ones(len(p))))


@pytest.fixture(scope="module")
def readme_oracle(readme_problem):
    return reduced_oracle(readme_problem)


def bound(n):
    return BACKWARD_ERROR_MULTIPLE * n * np.finfo(float).eps


@pytest.mark.parametrize("epsilon", [1e-2, 1e-3, 5e-4, 1e-4])
def test_penalized_readme_solves_are_accepted(readme_problem, readme_oracle,
                                              epsilon):
    """The problem's penalized solve and `solve_dg` on the reduced layout
    solve the README system at every thickness, with a backward error below
    the bound and the same solution."""
    direct = oracle_solve(readme_oracle, readme_problem.loads, epsilon)
    via = readme_problem.solve("dg", epsilon=epsilon)
    n = len(direct.primal)
    for sol in (direct, via):
        assert sol.meta["backward_error"] <= bound(n)
    scale = np.abs(direct.primal).max()
    assert np.abs(direct.primal - via.primal[:n]).max() < 1e-8 * scale


def test_residual_above_old_guard_is_accepted_on_backward_error(
        readme_problem):
    """The README dg system at eps = 1e-3 is ill-conditioned: its relative
    residual exceeds 1e-10, yet x is backward stable and accepted."""
    sol = readme_problem.solve("dg", epsilon=1e-3)
    assert sol.meta["residual"] > 1e-10
    assert sol.meta["backward_error"] < bound(len(sol.primal))
    assert sol.meta["backward_error"] < 1e-15


@pytest.mark.parametrize("method", ["mixed", "dg"])
def test_meta_reports_the_solve(readme_problem, method):
    sol = readme_problem.solve(method)
    layout = readme_problem.assembler().layout
    n = layout.n_block1 if method == "dg" else layout.n_total
    for key in ("residual", "backward_error", "lu_fill", "cond_est"):
        assert np.isfinite(sol.meta[key]), key
    assert sol.meta["backward_error"] <= bound(n)
    assert sol.meta["lu_fill"] >= n
    # the README system is ill-conditioned, and its condition estimate shows
    assert sol.meta["cond_est"] > 1e6


def test_solution_dataclass_meta():
    sol = ShellSolution(primal=np.zeros(3))
    assert sol.aux is None
    assert sol.meta == {}


def test_one_pass_matrix_norms_equal_scipy_norms():
    """||K||_inf and ||K||_1 from the stored entries of the ordered mixed
    and penalized systems and of 2x2 matrices, one with an empty column."""
    asm, f = setup(tags=("D", "F", "F", "F"))
    eps, n1 = 0.1, asm.layout.n_block1
    A, B, C = asm.a_theta(1.0), asm.b_matrix(), asm.c_matrix()
    systems = [
        ordered(sps.bmat([[A, B.T], [B, -eps ** 2 * C]]), asm.dof_order()),
        ordered(asm.a_theta(eps ** -2).tocsr()[:n1, :n1], asm.dof_order(n1)),
        sps.csc_matrix([[2.0, -1.0], [-3.0, 0.5]]),
        sps.csc_matrix([[1.0, 0.0], [-2.0, 0.0]])]
    for K in systems:
        k_inf, k_one = inf_one_norms(K)
        assert k_inf == pytest.approx(spla.norm(K, np.inf), rel=1e-15, abs=0)
        assert k_one == pytest.approx(spla.norm(K, 1), rel=1e-15, abs=0)
    assert inf_one_norms(systems[-1]) == (2.0, 3.0)
