"""Mesh-wide batched evaluation of charts, loads and exact fields, the
grouped quadrature kernel of forms and of Q_H, and the pointwise norms,
checked against the per-element and per-edge reference loops of
`oracles`."""

from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from shellfem import assembly, strain
from shellfem.assembly import AssemblyConfig, FormAssembler, LoadSpec, Material
from shellfem.cli import DiscreteField
from shellfem.driver import ShellProblem
from shellfem.fe_space import build_dof_layout
from shellfem.geometry import make_chart
from shellfem.manufactured import ManufacturedSolution
from shellfem.mesh import (Mesh, MeshError, generate_rect_mesh,
                           mesh_condition_report, refine_uniform)
from shellfem.norms import NormEngine

from oracles import (containing, edge_normal, free_local_edges,
                     geometry_seminorms, reference_element_dofs,
                     reference_error_norms, plain_layout,
                     reference_grams, reference_load_vector,
                     reference_local_basis, summed_reference_forms)

FIELDS = {"theta1": "sin(pi * x1) * sin(pi * x2)",
          "theta2": "x1 * (1 - x1) * x2 * (1 - x2)",
          "u1": "sin(pi * x1) * x2 * (1 - x2)",
          "u2": "x1 * (1 - x1) * sin(pi * x2)",
          "w": "sin(pi * x1) * sin(pi * x2)"}
FREE_AND_SOFT = ("D", "F", "S", "F")


def bump_chart():
    return make_chart("expression", components=(
        "x1", "x2", "0.25 * sin(pi * x1) * sin(pi * x2)"))


def make_asm(chart, n=4, tags=("D", "D", "D", "D")):
    mesh = generate_rect_mesh((0.0, 1.0, 0.0, 1.0), n, n, tags=tags)
    layout = build_dof_layout(mesh, chart)
    return FormAssembler(mesh, chart, layout, Material(),
                         AssemblyConfig(penalty_C=20.0))


def manufactured(chart):
    return ManufacturedSolution(FIELDS, chart, Material(), theta_total=101.0)


def assert_close(got, want):
    """Agreement to a relative tolerance of 1e-12 of the largest entry."""
    got, want = np.asarray(got), np.asarray(want)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


# ------------------------------------------------------------------ loads


@pytest.mark.parametrize("tags", [("D", "D", "D", "D"), FREE_AND_SOFT],
                         ids=["clamped", "free-and-soft-fluxes"])
def test_manufactured_load_vector_matches_reference_loop(tags):
    chart = bump_chart()
    asm = make_asm(chart, 4, tags)
    loads = manufactured(chart).load_spec()
    assert_close(asm.load_vector(loads), reference_load_vector(asm, loads))


@pytest.mark.parametrize("densities", [False, True])
def test_plain_load_spec_assembles_the_same_vector(densities):
    asm = make_asm(make_chart("cylinder"), 3, FREE_AND_SOFT)
    shapes = []

    def ones(pts):
        shapes.append(pts.shape)
        return np.ones(len(pts))
    extra = {}
    if densities:
        extra = {"r1": lambda p: p[:, 0], "r2": lambda p: 1 - p[:, 1],
                 "q2": lambda p: p[:, 0] * p[:, 1], "q3": ones}
    loads = LoadSpec(p3=ones, **extra)
    got = asm.load_vector(loads)
    # p3 sees all element quadrature points as one (n, 2) array
    nq = len(asm._elem_data().wq)
    assert shapes[0] == (asm.mesh.n_triangles * nq, 2)
    assert len(shapes) == 1 + densities
    assert_close(got, reference_load_vector(asm, loads))


def test_manufactured_load_vector_evaluates_loads_once(monkeypatch):
    calls = []
    volume_loads = ManufacturedSolution.volume_loads

    def counting(self, pts, geom=None):
        calls.append(len(pts))
        return volume_loads(self, pts, geom)
    monkeypatch.setattr(ManufacturedSolution, "volume_loads", counting)
    chart = bump_chart()
    asm = make_asm(chart, 4)
    asm.load_vector(manufactured(chart).load_spec())
    assert calls == [asm.mesh.n_triangles * len(asm._elem_data().wq)]


@pytest.mark.parametrize("tags", [("D", "D", "D", "D"), FREE_AND_SOFT],
                         ids=["clamped", "free-and-soft-fluxes"])
def test_manufactured_loads_evaluate_no_geometry_of_their_own(
        tags, chart_evaluations):
    """The provider gets the geometry the assembler holds at the volume and
    S/F edge points, and makes the derivative fields at the volume points
    alone."""
    chart = bump_chart()
    asm = make_asm(chart, 4, tags)
    asm._elem_data(), asm._edge_data()
    chart_evaluations.clear()
    asm.load_vector(manufactured(chart).load_spec())
    assert chart_evaluations == [
        ("derivatives", asm.mesh.n_triangles * len(asm._elem_data().wq))]


# ------------------------------------------------------------------ norms


def test_error_norms_manufactured_exact_matches_reference_loop():
    chart = bump_chart()
    eng = NormEngine(make_asm(chart, 4, FREE_AND_SOFT))
    primal = np.random.default_rng(0).standard_normal(eng.layout.n_primal)
    exact = manufactured(chart)
    got = eng.error_norms(primal, exact)
    want = reference_error_norms(eng, primal, exact)
    for key in want:
        assert_close(got[key], want[key])


def test_error_norms_discrete_field_exact_matches_reference_loop():
    mesh = generate_rect_mesh((0.0, 1.0, 0.0, 1.0), 2, 2,
                              tags=("D", "F", "F", "F"))
    coarse = ShellProblem(chart=make_chart("cylinder"), mesh=mesh,
                          epsilon=1e-2, config=AssemblyConfig(penalty_C=20.0),
                          loads=LoadSpec(p3=lambda p: np.ones(len(p))))
    fine = coarse.refined()
    ref = fine.solve("mixed").primal
    primal = coarse.solve("mixed").primal
    eng = coarse.norm_engine()
    got = eng.error_norms(primal, DiscreteField(fine, ref))
    want = reference_error_norms(eng, primal,
                                 DiscreteField(fine, ref))
    for key in want:
        assert_close(got[key], want[key])


def test_discrete_field_batch_matches_point_by_point():
    mesh = generate_rect_mesh((0.0, 1.0, 0.0, 1.0), 2, 2)
    problem = ShellProblem(chart=make_chart("plate"), mesh=mesh,
                           config=AssemblyConfig(penalty_C=20.0),
                           loads=LoadSpec(p3=lambda p: np.ones(len(p))))
    field = DiscreteField(problem, problem.solve("dg").primal)
    pts = np.random.default_rng(1).uniform(0.0, 1.0, (30, 2))
    vals, grads = field.values(pts), field.grads(pts)
    for k, p in enumerate(pts):
        one = DiscreteField(problem, field.primal)
        assert_close(vals[k], one.values(p)[0])
        assert_close(grads[k], one.grads(p)[0])


@pytest.mark.parametrize("n,grading", [
    (3, None), (8, None), (6, {"ratio": 0.3, "toward": "left"})],
    ids=["3x4", "8x9", "graded"])
def test_locate_returns_the_brute_force_owners(n, grading):
    rng = np.random.default_rng(n)
    base = generate_rect_mesh((0.0, 2.0, -1.0, 0.5), n, n + 1,
                              tags=("D", "F", "F", "F"), grading=grading)
    mesh = Mesh(base.vertices.copy(),
                base.triangles[rng.permutation(base.n_triangles)].copy(),
                base.boundary.pairs, base.boundary.tag)
    problem = ShellProblem(chart=make_chart("plate"), mesh=mesh,
                           config=AssemblyConfig(penalty_C=20.0))
    field = DiscreteField(problem, np.zeros(
        problem.assembler().layout.n_primal))
    corners = mesh.vertices[mesh.triangles]
    pts = np.concatenate([                  # vertices, edge points, inside
        mesh.vertices,
        (0.5 * (corners + np.roll(corners, 1, axis=1))).reshape(-1, 2),
        (0.25 * corners + 0.75 * np.roll(corners, 1, axis=1)).reshape(-1, 2),
        rng.uniform((0.0, -1.0), (2.0, 0.5), (200, 2))])
    inside = containing(field.asm, pts)
    assert inside.any(axis=0).all()
    assert (inside.sum(axis=0) > 1).sum() > n * n    # on shared edges
    # the lowest-index containing triangle, as brute force finds it
    assert np.array_equal(field._locate(pts), inside.argmax(axis=0))
    for outside in ([2.0 + 1e-6, 0.0], [1.0, -1.5]):
        with pytest.raises(MeshError):
            field._locate(np.array([[1.0, 0.0], outside]))


def test_locate_finds_the_owners_of_the_self_convergence_points():
    """The points self-convergence evaluates its reference at: a coarse
    level's volume and S/D boundary-edge quadrature points, located in the
    refined mesh, on a permuted cylinder mesh."""
    rng = np.random.default_rng(5)
    base = generate_rect_mesh((0.0, 1.0, 0.0, 1.0), 4, 4,
                              tags=("D", "S", "F", "S"))
    mesh = Mesh(base.vertices.copy(),
                base.triangles[rng.permutation(base.n_triangles)].copy(),
                base.boundary.pairs, base.boundary.tag)
    coarse = ShellProblem(chart=make_chart("cylinder"), mesh=mesh,
                          config=AssemblyConfig(penalty_C=20.0))
    fine = coarse.refined()
    field = DiscreteField(fine, np.zeros(fine.assembler().layout.n_primal))
    asm = coarse.assembler()
    bd = asm._edge_data()[1]
    pts = np.concatenate([asm._elem_data().qpts.reshape(-1, 2),
                          bd.pts[mesh.boundary.tag != "F"].reshape(-1, 2)])
    inside = containing(field.asm, pts)
    assert inside.any(axis=0).all()
    assert np.array_equal(field._locate(pts), inside.argmax(axis=0))
    assert field._locate(np.empty((0, 2))).shape == (0,)


ORACLE_MESHES = pytest.mark.parametrize("chart,tags,plain,sizes", [
    (make_chart("cylinder"), ("D", "F", "F", "F"), False, {15, 21, 27}),
    (make_chart("cylinder"), ("D", "S", "F", "S"), False, {15, 21}),
    (bump_chart(), ("D", "D", "D", "D"), False, {15}),
    (make_chart("cylinder"), FREE_AND_SOFT, True, {15})],
    ids=["cylinder-DFFF", "cylinder-DSFS", "bump-clamped", "dg"])


def oracle_engine(chart, tags, plain, sizes):
    mesh = generate_rect_mesh((0.0, 1.0, 0.0, 1.0), 4, 4, tags=tags)
    layout = plain_layout(mesh) if plain else build_dof_layout(mesh, chart)
    asm = FormAssembler(mesh, chart, layout, Material(),
                        AssemblyConfig(penalty_C=20.0))
    assert set(6 + 3 * layout.nf) == sizes
    return NormEngine(asm)


@ORACLE_MESHES
def test_grouped_forms_and_grams_match_reference_loops(chart, tags, plain,
                                                       sizes):
    eng = oracle_engine(chart, tags, plain, sizes)
    got, want = eng.asm.forms(), summed_reference_forms(eng.asm)
    assert set(got) == set(want) == {"R", "R_pen", "GT", "GT_pen", "B", "C"}
    for key in want:
        assert got[key].shape == want[key].shape
        if want[key].nnz:
            assert_close(got[key].toarray(), want[key].toarray())
        else:
            assert got[key].nnz == 0
    assert_close(eng.grams().toarray(),
                 reference_grams(eng)["H"].toarray())


@ORACLE_MESHES
def test_pointwise_norms_match_reference_grams(chart, tags, plain, sizes):
    """Every seminorm of `quad_norm`, edge parts included, and V_h equal
    sqrt(v^T Q v) with the Gram matrices of the reference loops."""
    eng = oracle_engine(chart, tags, plain, sizes)
    grams = reference_grams(eng)
    rng = np.random.default_rng(5)
    v = rng.standard_normal(eng.layout.n_primal)
    for key in ("rho", "gamma", "tau", "a", "H"):
        assert_close(eng.quad_norm(key, v), np.sqrt(v @ grams[key] @ v))
    aux = rng.standard_normal(eng.layout.n_block3)
    report = eng.discrete_norms(v, aux, epsilon=0.1)
    assert_close(report.H_h_norm, np.sqrt(v @ grams["H"] @ v))
    assert_close(report.V_h_norm, np.sqrt(aux @ grams["V"] @ aux))


# ------------------------------------------------------- mesh and layout


@pytest.mark.parametrize("chart", [bump_chart(), make_chart("hypar")],
                         ids=["bump", "hypar"])
def test_mesh_condition_report_matches_per_triangle_seminorms(chart):
    mesh = generate_rect_mesh((0.0, 1.0, 0.0, 1.0), 3, 4)
    worst = worst_sum = 0.0
    for t in range(mesh.n_triangles):
        semi = geometry_seminorms(chart, mesh.vertices[mesh.triangles[t]])
        h2 = mesh.h_tau[t] ** 2
        worst = max(worst, h2 * (semi["christoffel"] + semi["b_cov"]
                                 + semi["b_mix"]))
        worst_sum = max(worst_sum, h2 * (semi["christoffel_sum_dirs"]
                                         + semi["b_cov_sum_dirs"]
                                         + semi["b_mix_sum_dirs"]))
    for eps in (1e-3, worst_sum, 10.0):
        rep = mesh_condition_report(mesh, chart, eps)
        assert_close(rep["mixed_error_factor"], 1.0 + worst / eps)
        assert_close(rep["geometry_resolution"], worst_sum)
        assert rep["geometry_resolved"] == (
            rep["geometry_resolution"] <= eps)


def assert_layout_matches_reference(mesh, chart):
    """The basis coefficients of every element of the enriched layout, built
    per free-edge group, agree with the element built alone; returns the
    free-edge groups of the mesh."""
    layout = build_dof_layout(mesh, chart)
    coords = mesh.vertices[mesh.triangles]
    groups = set()
    for t in range(mesh.n_triangles):
        one = reference_local_basis(coords[t], chart, free_local_edges(mesh, t))
        groups.add(one.free_edges)
        assert layout.nf[t] == len(one.coeffs)
        assert_close(layout.coeffs[t, :layout.nf[t]], one.coeffs)
        assert not layout.coeffs[t, layout.nf[t]:].any()
    return groups


def every_group_mesh():
    """A free triangle refined twice: its elements hold all seven free-edge
    groups, (), (0,), (1,), (2,), (0, 1), (0, 2) and (1, 2)."""
    return refine_uniform(refine_uniform(Mesh(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([[0, 1, 2]]),
        [(0, 1), (1, 2), (0, 2)], ["F"] * 3)))


@pytest.mark.parametrize("chart", [bump_chart(), make_chart("cylinder")],
                         ids=["bump", "cylinder"])
def test_layout_bases_match_per_element_construction(chart):
    mesh = generate_rect_mesh((0.0, 1.0, 0.0, 1.0), 3, 3,
                              tags=("D", "F", "F", "F"))
    groups = assert_layout_matches_reference(mesh, chart)
    assert {len(g) for g in groups} == {0, 1, 2}
    groups = assert_layout_matches_reference(every_group_mesh(), chart)
    assert groups == {(), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2)}


def test_layout_asks_for_sqrt_a_once_per_free_edge_group(chart_evaluations):
    chart = make_chart("cylinder")
    calls = []
    for n in (4, 8):
        mesh = generate_rect_mesh((0.0, 1.0, 0.0, 1.0), n, n,
                                  tags=("D", "F", "F", "F"))
        chart_evaluations.clear()
        build_dof_layout(mesh, chart)
        assert all(name == "evaluate" for name, _ in chart_evaluations)
        enriched = {free_local_edges(mesh, t)
                    for t in range(mesh.n_triangles)} - {()}
        assert len(chart_evaluations) == len(enriched)
        calls.append(len(chart_evaluations))
    assert calls[0] == calls[1]


def test_plain_p1_layouts_make_no_chart_call(chart_evaluations):
    """Plain P1 elements take the barycentric basis, which needs no
    geometry: a layout without free edges asks the chart for nothing."""
    chart = make_chart("cylinder")
    mesh = generate_rect_mesh((0.0, 1.0, 0.0, 1.0), 4, 4,
                              tags=("D", "D", "D", "D"))
    assert (build_dof_layout(mesh, chart).nf == 3).all()
    assert chart_evaluations == []


DFFF_3X3 = generate_rect_mesh((0.0, 1.0, 0.0, 1.0), 3, 3,
                              tags=("D", "F", "F", "F"))
LAYOUT_MESHES = pytest.mark.parametrize("chart,mesh,plain", [
    (make_chart("cylinder"), every_group_mesh(), False),
    (bump_chart(), DFFF_3X3, False),
    (make_chart("cylinder"), DFFF_3X3, False),
    (make_chart("cylinder"), DFFF_3X3, True)],
    ids=["every-group", "bump-DFFF", "cylinder-DFFF", "plain-P1"])


@LAYOUT_MESHES
def test_layout_dofs_follow_the_numbering_formula(chart, mesh, plain):
    layout = plain_layout(mesh) if plain else build_dof_layout(mesh, chart)
    for t in range(mesh.n_triangles):
        free = () if plain else free_local_edges(mesh, t)
        assert layout.nf[t] == 3 + 2 * len(free)
        n = 6 + 3 * layout.nf[t]
        assert np.array_equal(layout.dofs[t, :n],
                              reference_element_dofs(layout, t))
        assert (layout.dofs[t, n:] == -1).all()
    assert layout.dofs.shape == (mesh.n_triangles, 6 + 3 * layout.nf.max())
    # every primal DOF belongs to exactly one element
    assert np.array_equal(np.sort(layout.dofs[layout.dofs >= 0]),
                          np.arange(layout.n_primal))


@pytest.mark.parametrize("mesh", [every_group_mesh(), DFFF_3X3],
                         ids=["every-group", "DFFF"])
def test_edge_normals_match_per_edge_formula(mesh):
    chart = make_chart("cylinder")
    asm = FormAssembler(mesh, chart, plain_layout(mesh),
                        Material(), AssemblyConfig())
    interior, boundary = asm._edge_data()
    for d, pairs, owners in (
            (interior, mesh.interior.pairs, mesh.interior.left),
            (boundary, mesh.boundary.pairs, mesh.boundary.triangle)):
        assert d.nbar.shape == (len(pairs), 2)
        assert_close(d.nbar, [edge_normal(mesh, p, t)
                              for p, t in zip(pairs, owners)])


@pytest.mark.parametrize("method,tags", [
    ("mixed", "DSFS"), ("dg", "DSFS"), ("mixed", "DFFF"), ("dg", "DFFF")],
    ids=["mixed", "dg", "mixed-DFFF", "dg-DFFF"])
def test_solve_chart_evaluations_do_not_grow_with_mesh(chart_evaluations,
                                                       method, tags):
    chart = make_chart("cylinder")
    counts = []
    for n in (4, 8):
        mesh = generate_rect_mesh((0.0, 1.0, 0.0, 1.0), n, n, tags=tuple(tags))
        problem = ShellProblem(chart=chart, mesh=mesh, epsilon=1e-2,
                               loads=LoadSpec(p3=lambda p: np.ones(len(p))))
        chart_evaluations.clear()
        problem.solve(method)
        counts.append(len(chart_evaluations))
    assert counts[0] == counts[1]


def test_kernel_einsum_calls_do_not_grow_with_mesh(monkeypatch):
    """forms, grams, loads and error norms contract group by group, so the
    number of einsum calls, of basis traces and of strain operators built is
    the same on a mesh with four times as many elements, once no group is
    cut into slices (a slice budget above every group's size)."""
    monkeypatch.setattr(assembly, "SLICE_BUDGET", 1 << 62)
    calls = []

    def counting(owner, name):
        fn = getattr(owner, name)

        def count(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, count)
    counting(np, "einsum")
    counting(FormAssembler, "_traces")
    counting(strain, "operator")
    exact = SimpleNamespace(values=lambda p: np.zeros((len(p), 5)),
                            grads=lambda p: np.zeros((len(p), 5, 2)))
    counts = []
    for n in (4, 8):
        asm = make_asm(make_chart("cylinder"), n, ("D", "F", "F", "F"))
        eng = NormEngine(asm)
        primal = np.ones(asm.layout.n_primal)
        calls.clear()
        asm.forms()
        eng.grams()
        asm.load_vector(LoadSpec(p3=lambda p: np.ones(len(p)),
                                 q3=lambda p: np.ones(len(p))))
        eng.error_norms(primal, exact)
        counts.append(Counter(calls))
    assert counts[0]["_traces"] > 0 and counts[0]["operator"] > 0
    assert counts[0] == counts[1]


def test_point_budget_slices_give_the_same_results(monkeypatch):
    """Everything evaluated in slices of a few points agrees with one slice:
    chart geometry, loads and fluxes, exact fields and point location."""
    def run():
        chart = bump_chart()
        asm = make_asm(chart, 2, FREE_AND_SOFT)
        mms = manufactured(chart)
        eng = NormEngine(asm)
        primal = np.random.default_rng(2).standard_normal(
            asm.layout.n_primal)
        fine = ShellProblem(chart=chart, mesh=asm.mesh,
                            config=AssemblyConfig(penalty_C=20.0))
        field = DiscreteField(fine, np.random.default_rng(3).standard_normal(
            fine.assembler().layout.n_primal))
        return [asm.load_vector(mms.load_spec()), asm.layout.coeffs,
                asm.forms()["GT"].toarray(),
                *eng.error_norms(primal, mms).values(),
                *eng.error_norms(primal, field).values(),
                mesh_condition_report(asm.mesh, chart, 1e-2)[
                    "geometry_resolution"]]

    whole = run()
    calls = []
    volume_loads = ManufacturedSolution.volume_loads

    def counting(self, pts, geom=None):
        calls.append(len(pts))
        return volume_loads(self, pts, geom)
    monkeypatch.setattr(ManufacturedSolution, "volume_loads", counting)
    monkeypatch.setattr("shellfem.geometry.POINT_BUDGET", 40)
    monkeypatch.setattr("shellfem.cli.POINT_BUDGET", 40)
    sliced = run()
    for got, want in zip(sliced, whole, strict=True):
        assert_close(got, want)
    # 8 elements of 25 points in slices of 40: one load evaluation per slice
    assert calls == [40] * 5
