"""Mesh-wide batched evaluation of charts, loads and exact fields, checked
against per-element and per-edge reference loops written out here."""

import numpy as np
import pytest

from shellfem.assembly import AssemblyConfig, FormAssembler, LoadSpec, Material
from shellfem.cli import DiscreteField
from shellfem.driver import ShellProblem
from shellfem.fe_space import build_dof_layout, build_local_basis
from shellfem.geometry import geometry_seminorms, make_chart
from shellfem.manufactured import ManufacturedSolution
from shellfem.mesh import edge_normal, generate_rect_mesh, mesh_condition_report
from shellfem.norms import NormEngine
from shellfem.quadrature import interval_rule

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
    layout = build_dof_layout(mesh, chart, enrichment=True)
    return FormAssembler(mesh, chart, layout, Material(),
                         AssemblyConfig(penalty_C=20.0))


def manufactured(chart):
    return ManufacturedSolution(FIELDS, chart, Material(), theta_total=101.0)


def assert_close(got, want):
    """Agreement to a relative tolerance of 1e-12 of the largest entry."""
    got, want = np.asarray(got), np.asarray(want)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _at(f, pts):
    return np.zeros(len(pts)) if f is None else f(pts)


def reference_load_vector(asm, loads):
    """Every load on one element's or one edge's points at a time, with the
    edge geometry evaluated edge by edge."""
    layout, mesh = asm.layout, asm.mesh
    rhs = np.zeros(layout.n_primal)
    e = asm._elem_data()
    vol = (loads.c1, loads.c2, loads.p1, loads.p2, loads.p3)
    for t in range(mesh.n_triangles):
        wfac = e.areas[t] * e.wq * e.geom.sqrt_a[t]
        th, _, u, _, w, _ = asm._element_strains(t).fields
        fv = [wfac * _at(f, e.qpts[t]) for f in vol]
        rhs[layout.element_dofs(t)] += (
            fv[0] @ th[:, :, 0] + fv[1] @ th[:, :, 1] + fv[2] @ u[:, :, 0]
            + fv[3] @ u[:, :, 1] + fv[4] @ w)
    te, we = interval_rule(asm.config.quad_edge_points)
    for k, edge in enumerate(mesh.boundary_edges):
        if edge.tag == "D":
            continue
        t = edge.triangle
        p, q = mesh.vertices[list(edge.vertices)]
        pts = np.outer(1 - te, p) + np.outer(te, q)
        geom = asm.chart.evaluate(pts)
        nbar = edge_normal(mesh, edge.vertices, t)
        h = mesh.h_e_boundary[k]
        th, _, u, _, w, _ = asm._field_arrays(t, *asm._trace_at(t, pts))
        if loads.flux_provider is not None:
            m, nmem, tsh = loads.flux_provider.boundary_fluxes(pts)
            wsa = h * we * geom.sqrt_a
            loc = np.einsum("q,qa,qia->i", wsa, m @ nbar, th)
            if edge.tag == "F":
                qf = (nmem - np.einsum("qga,qab->qgb", geom.b_mix, m)) @ nbar
                loc += np.einsum("q,qg,qig->i", wsa, qf, u)
                loc += (wsa * (tsh @ nbar)) @ w
        else:
            tang = (q - p) / h
            warc = h * we * np.sqrt(np.einsum("qab,a,b->q", geom.a_cov,
                                              tang, tang))
            loc = ((warc * _at(loads.r1, pts)) @ th[:, :, 0]
                   + (warc * _at(loads.r2, pts)) @ th[:, :, 1])
            if edge.tag == "F":
                loc += ((warc * _at(loads.q1, pts)) @ u[:, :, 0]
                        + (warc * _at(loads.q2, pts)) @ u[:, :, 1]
                        + (warc * _at(loads.q3, pts)) @ w)
        rhs[layout.element_dofs(t)] += loc
    return rhs


def reference_error_norms(eng, primal, exact):
    """`exact` asked for values and gradients one element or one edge at a
    time."""
    asm, layout = eng.asm, eng.layout
    e = asm._elem_data()
    H2 = rho2 = gam2 = tau2 = 0.0
    from shellfem import strain
    for t in range(asm.mesh.n_triangles):
        th, thg, u, ug, wv, wg = asm._element_strains(t).fields
        x = primal[layout.element_dofs(t)]
        ev, eg = exact.values(e.qpts[t]), exact.grads(e.qpts[t])
        dth = np.einsum("qka,k->qa", th, x) - ev[:, 0:2]
        dthg = np.einsum("qkab,k->qab", thg, x) - eg[:, 0:2]
        du = np.einsum("qka,k->qa", u, x) - ev[:, 2:4]
        dug = np.einsum("qkab,k->qab", ug, x) - eg[:, 2:4]
        dw = wv @ x - ev[:, 4]
        dwg = np.einsum("qka,k->qa", wg, x) - eg[:, 4]
        w = e.areas[t] * e.wq
        H2 += w @ (np.sum(dth ** 2 + du ** 2, axis=-1)
                   + np.sum(dthg ** 2 + dug ** 2, axis=(-2, -1))
                   + dw ** 2 + np.sum(dwg ** 2, axis=-1))
        r, gm, ta = strain.strains(dth, dthg, du, dug, dw, dwg, e.geom[t])
        rho2 += w @ np.sum(r ** 2, axis=(-2, -1))
        gam2 += w @ np.sum(gm ** 2, axis=(-2, -1))
        tau2 += w @ np.sum(ta ** 2, axis=-1)
    interior, boundary = asm._edge_data()
    for ed in interior:
        sL = asm._side_arrays(ed.edge.left, ed.pts, ed.geom)
        sR = asm._side_arrays(ed.edge.right, ed.pts, ed.geom)
        xL = primal[layout.element_dofs(ed.edge.left)]
        xR = primal[layout.element_dofs(ed.edge.right)]
        jth = np.einsum("qka,k->qa", sL.th, xL) - np.einsum("qka,k->qa",
                                                             sR.th, xR)
        ju = np.einsum("qka,k->qa", sL.u, xL) - np.einsum("qka,k->qa",
                                                           sR.u, xR)
        jw = sL.w @ xL - sR.w @ xR
        H2 += ed.we @ (np.sum(jth ** 2 + ju ** 2, axis=-1) + jw ** 2)
    for ed in boundary:
        if ed.edge.tag == "F":
            continue
        s = asm._side_arrays(ed.edge.triangle, ed.pts, ed.geom)
        x = primal[layout.element_dofs(ed.edge.triangle)]
        ev = exact.values(ed.pts)
        du = np.einsum("qka,k->qa", s.u, x) - ev[:, 2:4]
        dw = s.w @ x - ev[:, 4]
        H2 += ed.we @ (np.sum(du ** 2, axis=-1) + dw ** 2)
        if ed.edge.tag == "D":
            dth = np.einsum("qka,k->qa", s.th, x) - ev[:, 0:2]
            H2 += ed.we @ np.sum(dth ** 2, axis=-1)
    return {"H_h": np.sqrt(H2), "rho": np.sqrt(rho2),
            "gamma": np.sqrt(gam2), "tau": np.sqrt(tau2)}


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

    def counting(self, pts):
        calls.append(len(pts))
        return volume_loads(self, pts)
    monkeypatch.setattr(ManufacturedSolution, "volume_loads", counting)
    chart = bump_chart()
    asm = make_asm(chart, 4)
    asm.load_vector(manufactured(chart).load_spec())
    assert calls == [asm.mesh.n_triangles * len(asm._elem_data().wq)]


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
                          epsilon=1e-2, penalty_C=20.0,
                          loads=LoadSpec(p3=lambda p: np.ones(len(p))))
    fine = coarse.refined()
    ref = fine.solve("mixed").primal
    primal = coarse.solve("mixed").primal
    eng = coarse.norm_engine("mixed")
    got = eng.error_norms(primal, DiscreteField(fine, "mixed", ref))
    want = reference_error_norms(eng, primal,
                                 DiscreteField(fine, "mixed", ref))
    for key in want:
        assert_close(got[key], want[key])


def test_discrete_field_batch_matches_point_by_point():
    mesh = generate_rect_mesh((0.0, 1.0, 0.0, 1.0), 2, 2)
    problem = ShellProblem(chart=make_chart("plate"), mesh=mesh,
                           penalty_C=20.0,
                           loads=LoadSpec(p3=lambda p: np.ones(len(p))))
    field = DiscreteField(problem, "dg", problem.solve("dg").primal)
    pts = np.random.default_rng(1).uniform(0.0, 1.0, (30, 2))
    vals, grads = field.values(pts), field.grads(pts)
    for k, p in enumerate(pts):
        one = DiscreteField(problem, "dg", field.primal)
        assert_close(vals[k], one.values(p)[0])
        assert_close(grads[k], one.grads(p)[0])


# ------------------------------------------------------- mesh and layout


@pytest.mark.parametrize("chart", [bump_chart(), make_chart("hypar")],
                         ids=["bump", "hypar"])
def test_mesh_condition_report_matches_per_triangle_seminorms(chart):
    mesh = generate_rect_mesh((0.0, 1.0, 0.0, 1.0), 3, 4)
    worst = worst_sum = 0.0
    for t in range(mesh.n_triangles):
        semi = geometry_seminorms(chart, mesh.triangle_coords(t), order=1)
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


@pytest.mark.parametrize("chart", [bump_chart(), make_chart("cylinder")],
                         ids=["bump", "cylinder"])
def test_layout_bases_match_per_element_construction(chart):
    mesh = generate_rect_mesh((0.0, 1.0, 0.0, 1.0), 3, 3,
                              tags=("D", "F", "F", "F"))
    layout = build_dof_layout(mesh, chart, enrichment=True)
    kinds = set()
    for t, lb in enumerate(layout.bases):
        one = build_local_basis(mesh.triangle_coords(t), chart,
                                mesh.free_local_edges(t))
        kinds.add(one.kind)
        assert lb.kind == one.kind
        for name in ("coeffs", "vol_pts", "vol_w", "moment_matrix"):
            assert_close(getattr(lb, name), getattr(one, name))
        for got, want in zip(lb.edge_data, one.edge_data, strict=True):
            for a, b in zip(got, want):
                assert_close(a, b)
    assert kinds == {"P1", "Pe", "Pv"}


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
        fine = ShellProblem(chart=chart, mesh=asm.mesh, penalty_C=20.0)
        field = DiscreteField(fine, "dg",
                              np.random.default_rng(3).standard_normal(
                                  fine.assembler("dg").layout.n_primal))
        return [asm.load_vector(mms.load_spec()),
                asm.layout.bases[0].vol_w, asm.layout.bases[3].moment_matrix,
                asm.forms()["G"].toarray(),
                *eng.error_norms(primal, mms).values(),
                *eng.error_norms(primal, field).values(),
                mesh_condition_report(asm.mesh, chart, 1e-2)[
                    "geometry_resolution"]]

    whole = run()
    calls = []
    volume_loads = ManufacturedSolution.volume_loads

    def counting(self, pts):
        calls.append(len(pts))
        return volume_loads(self, pts)
    monkeypatch.setattr(ManufacturedSolution, "volume_loads", counting)
    monkeypatch.setattr("shellfem.geometry.POINT_BUDGET", 40)
    monkeypatch.setattr("shellfem.cli.POINT_BUDGET", 40)
    sliced = run()
    for got, want in zip(sliced, whole, strict=True):
        assert_close(got, want)
    # 8 elements of 25 points in slices of 40: one load evaluation per slice
    assert calls == [40] * 5
