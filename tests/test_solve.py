import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from shellfem import driver, solve
from shellfem.assembly import (AssemblyConfig, FormAssembler, LoadSpec,
                               Material)
from shellfem.driver import ShellProblem
from shellfem.fe_space import build_dof_layout
from shellfem.geometry import make_chart
from shellfem.mesh import generate_rect_mesh
from shellfem.norms import NormEngine
from shellfem.ordering import Tree
from shellfem.regime import detect_regime
from shellfem.solve import (BACKWARD_ERROR_MULTIPLE, ShellSolution,
                            SolverError, factor, inf_norm, ordered,
                            realize_via_theta, solve_dg, solve_mixed)

from oracles import one_front, penalized_forms, plain_layout


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
    sol = solve_mixed(A, B, C, f, eps, asm.factor_tree())
    K = sps.bmat([[A, B.T], [B, -eps ** 2 * C]]).toarray()
    ref = np.linalg.solve(K, np.concatenate([f, np.zeros(C.shape[0])]))
    n = A.shape[0]
    assert np.allclose(sol.primal, ref[:n], rtol=1e-9, atol=1e-12)
    assert np.allclose(sol.aux, ref[n:], rtol=1e-9, atol=1e-12)


def test_dg_matches_dense_oracle():
    asm, f = setup()
    eps = 0.05
    R, GT = penalized_forms(asm)
    sol = solve_dg(R, GT, f, eps, asm.factor_tree(len(f)))
    K = (R + eps ** -2 * GT).toarray()
    ref = np.linalg.solve(K, f)
    assert np.allclose(sol.primal, ref, rtol=1e-8, atol=1e-12)


def test_solution_linearity():
    asm, f = setup()
    eps = 0.1
    A, B, C = asm.a_theta(1.0), asm.b_matrix(), asm.c_matrix()
    s1 = solve_mixed(A, B, C, f, eps, asm.factor_tree())
    s2 = solve_mixed(A, B, C, 3.0 * f, eps, asm.factor_tree())
    assert np.allclose(s2.primal, 3.0 * s1.primal, rtol=1e-9,
                       atol=1e-12 * np.abs(s1.primal).max())
    assert np.allclose(s2.aux, 3.0 * s1.aux, rtol=1e-9,
                       atol=1e-12 * max(np.abs(s1.aux).max(), 1))


def test_zero_rhs_gives_zero_solution():
    asm, f = setup()
    z = np.zeros_like(f)
    sol = solve_mixed(asm.a_theta(1.0), asm.b_matrix(), asm.c_matrix(), z, 0.1,
                      asm.factor_tree())
    assert np.all(sol.primal == 0)
    assert np.all(sol.aux == 0)
    fm = asm.forms()
    sol = solve_dg(fm["R"], fm["GT"], z, 0.1, asm.factor_tree(len(z)))
    assert np.all(sol.primal == 0)


def test_via_theta_mixed_matches_standalone():
    asm, f = setup()
    eps = 0.1
    direct = solve_mixed(asm.a_theta(1.0), asm.b_matrix(), asm.c_matrix(),
                         f, eps, asm.factor_tree())
    via = realize_via_theta(asm, "mixed", eps, f)
    assert np.array_equal(direct.primal, via.primal)
    assert np.array_equal(direct.aux, via.aux)


def test_via_theta_dg_matches_standalone():
    asm, f = setup()
    eps = 0.1
    direct = solve_dg(*penalized_forms(asm), f, eps,
                      asm.factor_tree(len(f)))
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
        solve_dg(K.tocsr(), zero, np.ones(n), 1.0, one_front(np.arange(n)))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_non_finite_solution_fails_the_backward_error_bound():
    n = 4
    zero = sps.csr_matrix((n, n))
    b = np.ones(n)
    b[1] = np.inf
    with pytest.raises(SolverError, match="backward error nan exceeds"):
        solve_dg(sps.identity(n, format="csr"), zero, b, 1.0,
                 one_front(np.arange(n)))


def test_backward_error_above_the_bound_is_refused(monkeypatch):
    """A factor whose solve adds a fixed vector d gives x* + d at every
    refinement step, so the backward error stays between the acceptance
    bound, 10 n u, and 1e3 times it: the solve is refused."""
    n = 50
    K = sps.diags([-np.ones(n - 1), 4.0 * np.ones(n), -np.ones(n - 1)],
                  [-1, 0, 1], format="csc")
    b = np.linspace(1.0, 2.0, n)
    x = np.linalg.solve(K.toarray(), b)
    accept = 10 * n * np.finfo(float).eps
    # ||K d|| = 30 accept (||K|| ||x|| + ||b||) to first order in d
    d = np.ones(n)
    d *= (30 * accept * (inf_norm(K) * np.abs(x).max() + np.abs(b).max())
          / np.abs(K @ d).max())
    berr = np.abs(K @ d).max() / (inf_norm(K) * np.abs(x + d).max()
                                  + np.abs(b).max())
    assert accept < berr < 1e3 * accept

    def perturbed(K, tree):
        lu = factor(K, tree)
        return SimpleNamespace(solve=lambda r: lu.solve(r) + d, nnz=lu.nnz)
    monkeypatch.setattr(solve, "factor", perturbed)
    with pytest.raises(SolverError, match="backward error"):
        solve_dg(K, sps.csc_matrix((n, n)), b, 1.0, one_front(np.arange(n)))


def test_refinement_keeps_a_step_that_helped(monkeypatch):
    """A factor whose first solve is off by d, within the acceptance bound,
    and whose later solves add 100 d, beyond it: refinement drops the step
    that raised the backward error and accepts the first solution."""
    n = 50
    K = sps.diags([-np.ones(n - 1), 4.0 * np.ones(n), -np.ones(n - 1)],
                  [-1, 0, 1], format="csc")
    b = np.linspace(1.0, 2.0, n)
    x = np.linalg.solve(K.toarray(), b)
    accept = 10 * n * np.finfo(float).eps
    # ||K d|| = accept / 10 (||K|| ||x|| + ||b||) to first order in d
    d = np.ones(n)
    d *= (accept / 10 * (inf_norm(K) * np.abs(x).max() + np.abs(b).max())
          / np.abs(K @ d).max())
    calls = []

    def drifting(K, tree):
        lu = factor(K, tree)

        def solve_once(r):
            if np.ndim(r) > 1:            # cond_est's estimator
                return lu.solve(r)
            calls.append(r)
            return lu.solve(r) + (d if len(calls) == 1 else 100 * d)
        return SimpleNamespace(solve=solve_once, nnz=lu.nnz)
    monkeypatch.setattr(solve, "factor", drifting)
    sol = solve_dg(K, sps.csc_matrix((n, n)), b, 1.0, one_front(np.arange(n)))
    assert len(calls) == 2
    assert np.abs(sol.primal - x).max() <= 2 * np.abs(d).max()
    assert np.finfo(float).eps < sol.meta["backward_error"] <= accept


def reduced_oracle(problem):
    """An assembler on the plain P1 layout of `problem`'s mesh with its
    penalty constant: the penalized system assembled on its own."""
    return FormAssembler(problem.mesh, problem.chart,
                         plain_layout(problem.mesh),
                         problem.material,
                         replace(problem.config, penalty_C=problem.calibrate()))


def oracle_solve(oracle, loads, epsilon):
    return solve_dg(*penalized_forms(oracle), oracle.load_vector(loads),
                    epsilon, oracle.factor_tree(oracle.layout.n_primal))


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


def test_refinement_takes_the_backward_error_to_u(monkeypatch):
    """A quasidefinite saddle point whose primal block is tiny (1e-4 I) has
    a signed factor with a growth near 1e4: its first solve has a backward
    error above u, and refinement brings it to at most u."""
    m = 10
    rng = np.random.default_rng(0)
    A, B, C = 1e-4 * np.eye(m), rng.standard_normal((m, m)), np.eye(m)
    f = rng.standard_normal(m)
    tree = Tree(np.arange(2 * m), np.array([0, 2 * m]), np.array([m]),
                np.array([-1]), [np.empty(0, dtype=int)])
    first = []

    def recording(K, tree):
        lu = factor(K, tree)

        def solve_once(r):
            x = lu.solve(r)
            if not first:
                first.append(np.abs(r - K @ x).max()
                             / (inf_norm(K) * np.abs(x).max()
                                + np.abs(r).max()))
            return x
        return SimpleNamespace(solve=solve_once, nnz=lu.nnz)
    monkeypatch.setattr(solve, "factor", recording)
    sol = solve_mixed(*(sps.csr_matrix(M) for M in (A, B, C)), f, 1e-3, tree)
    u = np.finfo(float).eps
    assert first[0] > u
    assert sol.meta["backward_error"] <= u


def test_mesh_free_matrix_is_one_front(monkeypatch):
    """A symmetric indefinite matrix without a mesh, given as the tree of
    one front in a random order, is factored as that front (by
    Bunch-Kaufman: its diagonal is zero, so it is not quasidefinite) and
    solved as the dense solver does."""
    n = 40
    rng = np.random.default_rng(2)
    M = rng.standard_normal((n, n))
    K = M + M.T
    np.fill_diagonal(K, 0.0)
    b = rng.standard_normal(n)
    order = rng.permutation(n)
    kinds = _kinds_of_fronts(monkeypatch)
    sol = solve_dg(sps.csr_matrix(K), sps.csr_matrix((n, n)), b, 1.0,
                   one_front(order))
    want = np.linalg.solve(K, b)
    assert kinds == [["bk"]]
    assert sol.meta["lu_fill"] == n * n
    assert np.abs(sol.primal - want).max() <= 1e-12 * np.abs(want).max()


def _kinds_of_fronts(monkeypatch):
    """The kinds of the fronts of every factor made, a list per factor."""
    kinds, made = [], solve.factor

    def recording(K, tree):
        lu = made(K, tree)
        kinds.append([f[3] for f in lu.fronts])
        return lu
    monkeypatch.setattr(solve, "factor", recording)
    return kinds


def test_calibrated_systems_factor_on_signed_fronts_only(readme_problem,
                                                        monkeypatch):
    """A calibrated penalty makes A(1) positive definite, so every pivot
    block of a mixed or penalized system is quasidefinite and no front
    falls back to Bunch-Kaufman: the README 8x8 D,F,F,F system, mixed and
    penalized, and the three systems a detection on the 12x12 D,D,F,F
    cylinder solves factor on signed fronts only."""
    mesh = generate_rect_mesh((0, 1, 0, 1), 12, 12, tags=("D", "D", "F", "F"))
    cylinder = ShellProblem(chart=make_chart("cylinder"), mesh=mesh,
                            epsilon=1e-2,
                            loads=LoadSpec(p3=lambda p: np.ones(len(p))))
    kinds = _kinds_of_fronts(monkeypatch)
    for method in ("mixed", "dg"):
        readme_problem.solve(method)
    detect_regime(cylinder)
    assert len(kinds) == 5
    assert all(set(k) == {"signed"} for k in kinds), kinds


def test_indefinite_primal_block_is_solved_on_indefinite_fronts(monkeypatch):
    """With penalty_C = 10 on the 8x8 D,F,F,F cylinder, A(1) is indefinite
    (the probe says so): some pivot blocks are not quasidefinite, the
    factor takes them by Bunch-Kaufman, and the mixed and penalized
    systems are still solved within the backward-error bound."""
    mesh = generate_rect_mesh((0, 1, 0, 1), 8, 8, tags=("D", "F", "F", "F"))
    problem = ShellProblem(chart=make_chart("cylinder"), mesh=mesh,
                           epsilon=1e-3,
                           loads=LoadSpec(p3=lambda p: np.ones(len(p))),
                           config=AssemblyConfig(penalty_C=10.0))
    asm = problem.assembler()
    layout = asm.layout
    assert not solve.positive_definite(asm.a_theta(1.0),
                                       asm.factor_tree(layout.n_primal))
    kinds = _kinds_of_fronts(monkeypatch)
    for method, n in (("mixed", layout.n_total), ("dg", layout.n_block1)):
        sol = problem.solve(method)
        assert "bk" in kinds[-1], method
        assert sol.meta["backward_error"] <= bound(n), method


def test_badly_scaled_indefinite_system_is_solved(monkeypatch):
    """On the 16x16 D,F,F,F cylinder graded 0.3 toward the left, with
    penalty_C = 20, the penalized matrix is indefinite and its diagonal
    spans 1 to 1e18.  LU with row interchanges in its unscaled pivot
    blocks stays at a backward error near 1e-6; by Bunch-Kaufman on pivot
    blocks scaled to a unit diagonal it is solved within the bound."""
    mesh = generate_rect_mesh((0, 1, 0, 1), 16, 16, tags=("D", "F", "F", "F"),
                              grading={"ratio": 0.3, "toward": "left"})
    problem = ShellProblem(chart=make_chart("cylinder"), mesh=mesh,
                           epsilon=1e-3,
                           loads=LoadSpec(p3=lambda p: np.ones(len(p))),
                           config=AssemblyConfig(penalty_C=20.0))
    kinds = _kinds_of_fronts(monkeypatch)
    sol = problem.solve("dg")
    assert "bk" in kinds[-1]
    assert sol.meta["backward_error"] <= bound(len(sol.primal))


def test_solution_dataclass_meta():
    sol = ShellSolution(primal=np.zeros(3))
    assert sol.aux is None
    assert sol.meta == {}


def test_one_pass_matrix_norms_equal_scipy_norms():
    """||K||_inf from the stored entries of the ordered mixed and penalized
    systems and of 2x2 matrices, one with an empty column; on the two
    systems, which are symmetric to rounding, it is ||K||_1 too."""
    asm, f = setup(tags=("D", "F", "F", "F"))
    eps, n1 = 0.1, asm.layout.n_block1
    A, B, C = asm.a_theta(1.0), asm.b_matrix(), asm.c_matrix()
    systems = [
        ordered(sps.bmat([[A, B.T], [B, -eps ** 2 * C]]), asm.factor_tree().order),
        ordered(asm.a_theta(eps ** -2).tocsr()[:n1, :n1], asm.factor_tree(n1).order),
        sps.csc_matrix([[2.0, -1.0], [-3.0, 0.5]]),
        sps.csc_matrix([[1.0, 0.0], [-2.0, 0.0]])]
    for K in systems:
        assert inf_norm(K) == pytest.approx(spla.norm(K, np.inf), rel=1e-15,
                                            abs=0)
    for K in systems[:2]:
        assert inf_norm(K) == pytest.approx(spla.norm(K, 1), rel=1e-12, abs=0)
    assert inf_norm(systems[-1]) == 2.0


@pytest.mark.parametrize("method", ["mixed", "dg"])
def test_solve_figures_agree_with_the_transposed_definitions(
        readme_problem, method, monkeypatch):
    """`cond_est` takes ||K||_1 as ||K||_inf, since every system solved is
    symmetric to rounding.  On the README mixed and penalized systems it
    and `backward_error` agree to 1e-12 relative with ||K||_1 from the
    column sums and ||K||_inf from scipy.  The factor is symmetric, so its
    solve is its own adjoint here as in the package."""
    seen = []

    def spy(K, tree):
        seen.append((K, factor(K, tree)))
        return seen[-1][1]
    asm = readme_problem.assembler()
    monkeypatch.setattr(solve, "factor", spy)
    sol = readme_problem.solve(method)
    (K, lu), = seen
    f, n1 = readme_problem.rhs(), asm.layout.n_block1
    if method == "mixed":
        x = np.concatenate([sol.primal, sol.aux])
        b = np.concatenate([f, np.zeros(len(sol.aux))])
        order = asm.factor_tree().order
    else:
        x, b, order = sol.primal[:n1], f[:n1], asm.factor_tree(n1).order
    x, b = x[order], b[order]
    inv = spla.LinearOperator(K.shape, lu.solve, dtype=float,
                              rmatvec=lu.solve)
    cond = spla.onenormest(inv, t=1) * spla.norm(K, 1)
    berr = np.abs(b - K @ x).max() / (spla.norm(K, np.inf) * np.abs(x).max()
                                      + np.abs(b).max())
    assert sol.meta["cond_est"] == pytest.approx(cond, rel=1e-12, abs=0)
    assert sol.meta["backward_error"] == pytest.approx(berr, rel=1e-12, abs=0)


def test_given_penalty_constant_is_used(monkeypatch):
    """The config's constant is the one every solve and refinement uses;
    nothing is calibrated."""
    def no_calibration(asm):
        raise AssertionError("calibrated despite a given constant")
    monkeypatch.setattr(driver, "calibrate_penalty", no_calibration)
    mesh = generate_rect_mesh((0, 1, 0, 1), 2, 2, tags=("D", "F", "F", "F"))
    problem = ShellProblem(chart=make_chart("cylinder"), mesh=mesh,
                           loads=LoadSpec(p3=lambda p: np.ones(len(p))),
                           config=AssemblyConfig(penalty_C=50.0))
    for p in (problem, problem.refined()):
        assert p.solve("mixed").meta["penalty_C"] == 50.0
        assert p.assembler().config.penalty_C == 50.0


@pytest.mark.parametrize("mode", ["mixed", "dg"])
@pytest.mark.parametrize("last", [False, True])
def test_only_the_ordered_system_is_under_the_factor(monkeypatch, mode,
                                                     last):
    """`realize_via_theta` hands K straight to the solve core, so the
    unordered K is freed before the LU is made; with `last` the assembler
    holds no form and no quadrature data by then, nor while the saddle
    point is stacked, and the solution is the same bitwise."""
    asm, f = setup(tags=("D", "F", "S", "F"))
    want = realize_via_theta(asm, mode, 0.1, loads_rhs=f)
    given, seen, stacked = [], [], []
    order, lu, saddle = solve.ordered, solve.factor, solve._saddle_point

    def recording_saddle_point(*args):
        stacked.append(asm._forms is None)
        return saddle(*args)

    def recording_ordered(K, o):
        given.append(weakref.ref(K))
        return order(K, o)

    def recording_factor(K, tree):
        seen.append((given[-1]() is None, asm._forms is None,
                     asm._elem is None, asm._edges is None))
        return lu(K, tree)
    monkeypatch.setattr(solve, "ordered", recording_ordered)
    monkeypatch.setattr(solve, "factor", recording_factor)
    monkeypatch.setattr(solve, "_saddle_point", recording_saddle_point)
    got = realize_via_theta(asm, mode, 0.1, loads_rhs=f, last=last)
    assert seen == [(True, last, last, last)]
    assert stacked == ([last] if mode == "mixed" else [])
    assert np.array_equal(got.primal, want.primal)
    if mode == "mixed":
        assert np.array_equal(got.aux, want.aux)
