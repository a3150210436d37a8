"""Mesh-wide batched evaluation of charts, loads and exact fields, and the
grouped quadrature kernel of forms and Gram matrices, checked against
per-element and per-edge reference loops written out here.  The loops take
their basis traces from the kernel on one-element batches."""

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sps

from shellfem import strain
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


def local_fields(asm, t, pts=None):
    """Field arrays (th, thg, u, ug, w, wg), each (q, nl, ...), of element t
    alone at its volume quadrature points or at points pts (q, 2)."""
    _, (c, cg) = asm._local(np.array([t]), None if pts is None else pts[None])
    c, cg = np.moveaxis(c[0], 0, 1), np.moveaxis(cg[0], 0, 1)
    return (c[..., 0:2], cg[..., 0:2, :], c[..., 2:4], cg[..., 2:4, :],
            c[..., 4], cg[..., 4, :])


def element_strains(asm, t):
    """Fields and strains of element t at its volume quadrature points."""
    fields = local_fields(asm, t)
    rho, gam, tau = strain.strains(*fields, asm._elem_data().geom[t, :, None])
    return SimpleNamespace(rho=rho, gamma=gam, tau=tau, fields=fields)


def edge_list(asm):
    """One namespace per interior and per boundary edge, from the stacked
    edge data."""
    return [[SimpleNamespace(left=d.left[k], right=d.right[k], tag=d.tag[k],
                             pts=d.pts[k], geom=d.geom[k],
                             elastic=d.elastic[k], h=d.h[k], nbar=d.nbar[k],
                             verts=d.verts[k], te=d.te, we=d.we)
             for k in range(len(d.left))] for d in asm._edge_data()]


def side_arrays(asm, t, ed):
    """Traces and per-DOF strains of element t on edge ed."""
    th, thg, u, ug, w, wg = local_fields(asm, t, ed.pts)
    rho, gam, tau = strain.strains(th, thg, u, ug, w, wg, ed.geom[:, None])
    return SimpleNamespace(th=th, u=u, w=w, rho=rho, gamma=gam, tau=tau)


def reference_load_vector(asm, loads):
    """Every load on one element's or one edge's points at a time, with the
    edge geometry evaluated edge by edge."""
    layout, mesh = asm.layout, asm.mesh
    rhs = np.zeros(layout.n_primal)
    e = asm._elem_data()
    vol = (loads.c1, loads.c2, loads.p1, loads.p2, loads.p3)
    for t in range(mesh.n_triangles):
        wfac = e.areas[t] * e.wq * e.geom.sqrt_a[t]
        th, _, u, _, w, _ = local_fields(asm, t)
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
        th, _, u, _, w, _ = local_fields(asm, t, pts)
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
    for t in range(asm.mesh.n_triangles):
        th, thg, u, ug, wv, wg = local_fields(asm, t)
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
    interior, boundary = edge_list(asm)
    for ed in interior:
        sL = side_arrays(asm, ed.left, ed)
        sR = side_arrays(asm, ed.right, ed)
        xL = primal[layout.element_dofs(ed.left)]
        xR = primal[layout.element_dofs(ed.right)]
        jth = np.einsum("qka,k->qa", sL.th, xL) - np.einsum("qka,k->qa",
                                                             sR.th, xR)
        ju = np.einsum("qka,k->qa", sL.u, xL) - np.einsum("qka,k->qa",
                                                           sR.u, xR)
        jw = sL.w @ xL - sR.w @ xR
        H2 += ed.we @ (np.sum(jth ** 2 + ju ** 2, axis=-1) + jw ** 2)
    for ed in boundary:
        if ed.tag == "F":
            continue
        s = side_arrays(asm, ed.left, ed)
        x = primal[layout.element_dofs(ed.left)]
        ev = exact.values(ed.pts)
        du = np.einsum("qka,k->qa", s.u, x) - ev[:, 2:4]
        dw = s.w @ x - ev[:, 4]
        H2 += ed.we @ (np.sum(du ** 2, axis=-1) + dw ** 2)
        if ed.tag == "D":
            dth = np.einsum("qka,k->qa", s.th, x) - ev[:, 0:2]
            H2 += ed.we @ np.sum(dth ** 2, axis=-1)
    return {"H_h": np.sqrt(H2), "rho": np.sqrt(rho2),
            "gamma": np.sqrt(gam2), "tau": np.sqrt(tau2)}


def aux_tensors(pv):
    """Membrane- and shear-stress basis tensors (q, 5 nv, 2, 2) and
    (q, 5 nv, 2) of the auxiliary components from P1 vertex values pv."""
    nq, nv = pv.shape
    Mten = np.zeros((nq, 5 * nv, 2, 2))
    xiv = np.zeros((nq, 5 * nv, 2))
    for vi in range(nv):
        Mten[:, 5 * vi + 0, 0, 0] = pv[:, vi]
        Mten[:, 5 * vi + 1, 1, 1] = pv[:, vi]
        Mten[:, 5 * vi + 2, 0, 1] = pv[:, vi]
        Mten[:, 5 * vi + 2, 1, 0] = pv[:, vi]
        xiv[:, 5 * vi + 3, 0] = pv[:, vi]
        xiv[:, 5 * vi + 4, 1] = pv[:, vi]
    return Mten, xiv


def aux_dofs(vertex_ids):
    return np.array([5 * v + c for v in vertex_ids for c in range(5)])


def _coo(acc, key, shape):
    r, c, v = acc[key]
    if not r:
        return sps.csr_matrix(shape)
    return sps.coo_matrix((np.concatenate(v),
                           (np.concatenate(r), np.concatenate(c))),
                          shape=shape).tocsr()


def _sides(asm, ed):
    """DOFs, signed traces (jumps) and strains (averaged on interior edges)
    of an edge, with the edge's flags as in the forms."""
    layout = asm.layout
    if ed.right < 0:
        s = side_arrays(asm, ed.left, ed)
        return (layout.element_dofs(ed.left), s.th, s.u, s.w,
                s.rho, s.gamma, s.tau)
    sL, sR = side_arrays(asm, ed.left, ed), side_arrays(asm, ed.right, ed)
    dofs = np.concatenate([layout.element_dofs(ed.left),
                           layout.element_dofs(ed.right)])
    sign = np.concatenate([np.ones(layout.n_local(ed.left)),
                           -np.ones(layout.n_local(ed.right))])
    cat = [np.concatenate([getattr(sL, k), getattr(sR, k)], axis=1)
           for k in ("th", "u", "w", "rho", "gamma", "tau")]
    return (dofs, cat[0] * sign[None, :, None], cat[1] * sign[None, :, None],
            cat[2] * sign[None, :], 0.5 * cat[3], 0.5 * cat[4], 0.5 * cat[5])


def reference_forms(asm):
    """The forms element by element and edge by edge, each local matrix
    scattered as COO triplets."""
    layout, mesh = asm.layout, asm.mesh
    mu, kappa = asm.material.mu, asm.material.kappa
    n, n3 = layout.n_primal, layout.n_block3
    acc = {key: ([], [], []) for key in
           ("R", "Rp", "G", "Gp", "T", "Tp", "B", "C")}

    def add(key, rows, cols, vals):
        r, c, v = acc[key]
        r.append(np.broadcast_to(rows, vals.shape).ravel())
        c.append(np.broadcast_to(cols, vals.shape).ravel())
        v.append(vals.ravel())

    e = asm._elem_data()
    for t in range(mesh.n_triangles):
        st = element_strains(asm, t)
        wfac = e.areas[t] * e.wq * e.geom.sqrt_a[t]
        A = e.elastic.elastic[t]
        dofs = layout.element_dofs(t)
        rc = dofs[:, None], dofs[None, :]
        arho = np.einsum("qabcd,qkcd->qkab", A, st.rho)
        add("R", *rc, (1.0 / 3.0) * np.einsum("q,qkab,qlab->kl", wfac, arho,
                                               st.rho))
        agam = np.einsum("qabcd,qkcd->qkab", A, st.gamma)
        add("G", *rc, np.einsum("q,qkab,qlab->kl", wfac, agam, st.gamma))
        add("T", *rc, kappa * mu * np.einsum("q,qab,qka,qlb->kl", wfac,
                                             e.geom.a_con[t], st.tau, st.tau))
        if layout.with_aux:
            Mten, xiv = aux_tensors(e.bary)
            adofs = aux_dofs(mesh.triangles[t])
            add("B", adofs[:, None], dofs[None, :],
                np.einsum("q,qmab,qkab->mk", wfac, Mten, st.gamma)
                + np.einsum("q,qma,qka->mk", wfac, xiv, st.tau))
            add("C", adofs[:, None], adofs[None, :],
                np.einsum("q,qabcd,qmcd,qnab->mn", wfac,
                          e.elastic.compliance[t], Mten, Mten)
                + (1.0 / (kappa * mu))
                * np.einsum("q,qab,qmb,qna->mn", wfac, e.geom.a_cov[t],
                            xiv, xiv))

    for ed in [ed for edges in edge_list(asm) for ed in edges]:
        if ed.tag == "F":
            continue
        dofs, jth, ju, jw, rho, gam, tau = _sides(asm, ed)
        theta = ed.tag != "S"
        g, A, nbar = ed.geom, ed.elastic, ed.nbar
        wsa = ed.h * ed.we * g.sqrt_a
        rc = dofs[:, None], dofs[None, :]
        arho = np.einsum("qabcd,qkcd,b->qka", A, rho, nbar)
        if theta:
            X = np.einsum("q,qja,qia->ij", wsa, arho, jth)
            add("R", *rc, -(1.0 / 3.0) * (X + X.T))
        bju = np.einsum("qda,qid->qia", g.b_mix, ju)
        X = np.einsum("q,qja,qia->ij", wsa, arho, bju)
        add("R", *rc, (1.0 / 3.0) * (X + X.T))
        agam = np.einsum("qdbag,qkag,b->qkd", A, gam, nbar)
        X = np.einsum("q,qjd,qid->ij", wsa, agam, ju)
        add("G", *rc, -(X + X.T))
        atau = kappa * mu * np.einsum("qab,qkb,a->qk", g.a_con, tau, nbar)
        X = np.einsum("q,qj,qi->ij", wsa, atau, jw)
        add("T", *rc, -(X + X.T))
        if theta:
            add("Rp", *rc, np.einsum("q,qia,qja->ij", ed.we, jth, jth))
        add("Gp", *rc, np.einsum("q,qia,qja->ij", ed.we, ju, ju))
        P = np.einsum("q,qi,qj->ij", ed.we, jw, jw)
        add("Gp", *rc, P)
        add("Tp", *rc, P)
        if layout.with_aux:
            Mten, xiv = aux_tensors(np.stack([1 - ed.te, ed.te], axis=1))
            add("B", aux_dofs(ed.verts)[:, None], dofs[None, :],
                -(np.einsum("q,qmab,qia,b->mi", wsa, Mten, ju, nbar)
                  + np.einsum("q,qma,qi,a->mi", wsa, xiv, jw, nbar)))

    return {"R": _coo(acc, "R", (n, n)), "R_pen": _coo(acc, "Rp", (n, n)),
            "G": _coo(acc, "G", (n, n)), "G_pen": _coo(acc, "Gp", (n, n)),
            "T": _coo(acc, "T", (n, n)), "T_pen": _coo(acc, "Tp", (n, n)),
            "B": _coo(acc, "B", (n3, n)), "C": _coo(acc, "C", (n3, n3))}


def reference_grams(eng):
    """The Gram matrices element by element and edge by edge."""
    asm, layout = eng.asm, eng.layout
    n, n3 = layout.n_primal, layout.n_block3
    acc = {k: ([], [], []) for k in ("rho", "gamma", "tau", "H", "V")}

    def add(key, dofs, vals):
        r, c, v = acc[key]
        r.append(np.broadcast_to(dofs[:, None], vals.shape).ravel())
        c.append(np.broadcast_to(dofs[None, :], vals.shape).ravel())
        v.append(vals.ravel())

    e = asm._elem_data()
    for t in range(asm.mesh.n_triangles):
        st = element_strains(asm, t)
        w = e.areas[t] * e.wq
        dofs = layout.element_dofs(t)
        add("rho", dofs, np.einsum("q,qkab,qlab->kl", w, st.rho, st.rho))
        add("gamma", dofs, np.einsum("q,qkab,qlab->kl", w, st.gamma,
                                     st.gamma))
        add("tau", dofs, np.einsum("q,qka,qla->kl", w, st.tau, st.tau))
        th, thg, u, ug, wv, wg = st.fields
        add("H", dofs, np.einsum("q,qka,qla->kl", w, th, th)
            + np.einsum("q,qkab,qlab->kl", w, thg, thg)
            + np.einsum("q,qka,qla->kl", w, u, u)
            + np.einsum("q,qkab,qlab->kl", w, ug, ug)
            + np.einsum("q,qk,ql->kl", w, wv, wv)
            + np.einsum("q,qka,qla->kl", w, wg, wg))
        if layout.with_aux:
            Mten, xiv = aux_tensors(e.bary)
            add("V", aux_dofs(asm.mesh.triangles[t]),
                np.einsum("q,qmab,qnab->mn", w, Mten, Mten)
                + np.einsum("q,qma,qna->mn", w, xiv, xiv))

    for ed in [ed for edges in edge_list(asm) for ed in edges]:
        if ed.tag == "F":
            continue
        dofs, jth, ju, jw = _sides(asm, ed)[:4]
        if ed.tag != "S":
            P = np.einsum("q,qia,qja->ij", ed.we, jth, jth)
            add("rho", dofs, P)
            add("H", dofs, P)
        P = np.einsum("q,qia,qja->ij", ed.we, ju, ju)
        add("gamma", dofs, P)
        add("H", dofs, P)
        P = np.einsum("q,qi,qj->ij", ed.we, jw, jw)
        add("tau", dofs, P)
        add("H", dofs, P)

    grams = {k: _coo(acc, k, (n, n)) for k in ("rho", "gamma", "tau", "H")}
    grams["a"] = grams["rho"] + grams["gamma"] + grams["tau"]
    if layout.with_aux:
        grams["V"] = _coo(acc, "V", (n3, n3))
    return grams


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


@pytest.mark.parametrize("chart,tags,enrichment,sizes", [
    (make_chart("cylinder"), ("D", "F", "F", "F"), True, {15, 21, 27}),
    (make_chart("cylinder"), ("D", "S", "F", "S"), True, {15, 21}),
    (bump_chart(), ("D", "D", "D", "D"), True, {15}),
    (make_chart("cylinder"), FREE_AND_SOFT, False, {15})],
    ids=["cylinder-DFFF", "cylinder-DSFS", "bump-clamped", "dg"])
def test_grouped_forms_and_grams_match_reference_loops(chart, tags,
                                                       enrichment, sizes):
    mesh = generate_rect_mesh((0.0, 1.0, 0.0, 1.0), 4, 4, tags=tags)
    layout = build_dof_layout(mesh, chart, enrichment=enrichment)
    asm = FormAssembler(mesh, chart, layout, Material(),
                        AssemblyConfig(penalty_C=20.0))
    assert {layout.n_local(t) for t in range(mesh.n_triangles)} == sizes
    eng = NormEngine(asm)
    for got, want in ((asm.forms(), reference_forms(asm)),
                      (eng.grams(), reference_grams(eng))):
        assert got.keys() == want.keys()
        for key in want:
            assert got[key].shape == want[key].shape
            if want[key].nnz:
                assert_close(got[key].toarray(), want[key].toarray())
            else:
                assert got[key].nnz == 0


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


def test_kernel_einsum_calls_do_not_grow_with_mesh(monkeypatch):
    """forms, grams, loads and error norms contract group by group, so the
    number of einsum calls is the same on a mesh with four times as many
    elements."""
    calls = []
    einsum = np.einsum

    def counting(*args, **kwargs):
        calls.append(args[0])
        return einsum(*args, **kwargs)
    monkeypatch.setattr(np, "einsum", counting)
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
        counts.append(len(calls))
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
