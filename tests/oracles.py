"""Reference oracles: the local bases, the L2 projection, forms, Gram
matrices, loads and error norms as per-element and per-edge loops, and
diagnostics built on them that the package itself does not need (the
surface Green-identity probe, per-triangle geometry seminorms, the
penalized forms rho_h, gamma_h and tau_h, the Korn-type norm-equivalence
probe, the dual H_h norm, the weak stress norm, the exact stress
interpolant, consistency residuals, finite-difference manufactured
loads, the reference sparse LU), and the built-in charts' coefficient
fields derived with sympy.
The loops build their own dense per-DOF field arrays from each element's
basis coefficients and take their strains from the closed-form formulas
below, so they share no basis-trace or strain code with the package's
kernel.  The one exception is the reference edge kernel, which pins the
package's kernel bitwise: it runs on the package's traces and strain
operator but pushes every row through the operator.  The reference local basis takes sqrt(a) from the chart's full
`evaluate` and solves for one element and one bubble at a time; the
reference element DOFs follow from the numbering formula, and the load
vector takes its edge normals edge by edge from its own formula."""

from types import SimpleNamespace

import numpy as np
import scipy.linalg
import scipy.sparse as sps
import scipy.sparse.linalg as spla
import sympy as sp

from shellfem import expr as exprmod
from shellfem import strain
from shellfem.assembly import _aux_basis, _gram
from shellfem.fe_space import (_EDGE_VERTS, FIELDS, LAM, ONE, DofLayout,
                               SpaceError, _edge_lam12, build_dof_layout,
                               eval_monos, grad_monos, poly_mul)
from shellfem.geometry import GeometryDerivatives, GeometryEval, eval_elastic
from shellfem.norms import NormEngine
from shellfem.mesh import Mesh, _triangle_samples
from shellfem.ordering import Tree
from shellfem.quadrature import (interval_rule, triangle_rule,
                                 triangle_rule_dense)


def _at(f, pts):
    return np.zeros(len(pts)) if f is None else f(pts)


# ----------------------------------------------- closed-form strain formulas
#
# Field arrays carry arbitrary leading batch axes, and the geometry arrays
# broadcast against them:
#     theta: (..., 2)      grad_theta: (..., 2, 2) with [a, b] = d_b theta_a
#     u:     (..., 2)      grad_u:     (..., 2, 2)
#     w:     (...)         grad_w:     (..., 2)


def covariant_derivative(vec, grad_vec, christoffel):
    """v_{a|b} = d_b v_a - Gamma^g_{ab} v_g ; christoffel[g,a,b]."""
    return grad_vec - sum(christoffel[..., g, :, :] * vec[..., g, None, None]
                          for g in (0, 1))


def bending_strain(theta, grad_theta, u, grad_u, w, geom):
    """rho_ab = sym(theta_{a|b}) - sym(b^g_a u_{g|b}) + c_ab w."""
    tcd = covariant_derivative(theta, grad_theta, geom.christoffel)
    ucd = covariant_derivative(u, grad_u, geom.christoffel)
    bu = sum(geom.b_mix[..., g, :, None] * ucd[..., g, None, :]
             for g in (0, 1))
    return (0.5 * (tcd + np.swapaxes(tcd, -1, -2))
            - 0.5 * (bu + np.swapaxes(bu, -1, -2))
            + geom.c_cov * w[..., None, None])


def membrane_strain(u, grad_u, w, geom):
    """gamma_ab = sym(u_{a|b}) - b_ab w."""
    ucd = covariant_derivative(u, grad_u, geom.christoffel)
    return (0.5 * (ucd + np.swapaxes(ucd, -1, -2))
            - geom.b_cov * w[..., None, None])


def shear_strain(theta, u, grad_w, geom):
    """tau_a = d_a w + b^g_a u_g + theta_a."""
    return (grad_w + sum(geom.b_mix[..., g, :] * u[..., g, None]
                         for g in (0, 1)) + theta)


def strains(theta, grad_theta, u, grad_u, w, grad_w, geom):
    return (bending_strain(theta, grad_theta, u, grad_u, w, geom),
            membrane_strain(u, grad_u, w, geom),
            shear_strain(theta, u, grad_w, geom))


# ------------------------------------------------------------- local bases


def _moment_rows(basis_coeffs, vol_lam, vol_w, edge_data):
    """Moment matrix: volume moments against P1 then (1, t) per free edge."""
    nf = len(basis_coeffs)
    vals = eval_monos(vol_lam) @ basis_coeffs.T           # (nq, nf)
    lamv = eval_monos(vol_lam) @ LAM.T                    # (nq, 3)
    rows = [vol_w @ (lamv[:, q, None] * vals) for q in range(3)]
    for (_, w, t, lam12) in edge_data:
        evals = eval_monos(lam12) @ basis_coeffs.T
        rows.append(w @ evals)
        rows.append(w @ (t[:, None] * evals))
    assert len(rows) == nf
    return np.array(rows)


def reference_local_basis(tri_coords, chart, free_edges=()):
    """The local displacement basis of one element, built alone, with sqrt(a)
    from the chart's full `evaluate` and one bubble solve at a time: its kind
    (P1, Pe or Pv), coefficients (nf, 10), free edges, volume points,
    weights (area and sqrt(a) included) and barycentric (l1, l2), the
    (points, weights, t, lam12) of each free edge, and the moment matrix."""
    tri_coords = np.asarray(tri_coords, dtype=float)
    free_edges = tuple(sorted(free_edges))
    if len(free_edges) > 2:
        raise SpaceError("element with 3 free edges is unsupported")
    d1 = tri_coords[1] - tri_coords[0]
    d2 = tri_coords[2] - tri_coords[0]
    area = 0.5 * abs(d1[0] * d2[1] - d1[1] * d2[0])
    bary, w = triangle_rule_dense()
    t_e, w_e = interval_rule(8)
    pts = np.concatenate(
        [bary @ tri_coords]
        + [np.outer(1.0 - t_e, tri_coords[_EDGE_VERTS[k][0]])
           + np.outer(t_e, tri_coords[_EDGE_VERTS[k][1]]) for k in free_edges])
    sqrt_a = chart.evaluate(pts).sqrt_a
    nq = len(w)
    vol_lam = bary[:, :2]
    vol_pts = pts[:nq]
    vol_w = area * w * sqrt_a[:nq]

    edge_data = []
    for i, k in enumerate(free_edges):
        s, e = _EDGE_VERTS[k]
        length = np.linalg.norm(tri_coords[e] - tri_coords[s])
        on_edge = slice(nq + 8 * i, nq + 8 * (i + 1))
        edge_data.append((pts[on_edge], length * w_e * sqrt_a[on_edge], t_e,
                          _edge_lam12(k, t_e)))

    def p1_orthogonal(bubble, shift):
        """Solve for p in P1 with integral (bubble*p + shift) q = 0, q in P1."""
        lamv = eval_monos(vol_lam) @ LAM.T
        bub = eval_monos(vol_lam) @ bubble
        sh = eval_monos(vol_lam) @ shift
        M = np.einsum("q,qi,qj->ij", vol_w * bub, lamv, lamv)
        rhs = -np.einsum("q,qi->i", vol_w * sh, lamv)
        c = np.linalg.solve(M, rhs)
        return poly_mul(bubble, c @ LAM) + shift

    if not free_edges:
        kind, extra = "P1", []
    elif len(free_edges) == 1:
        kind = "Pe"
        k = free_edges[0]
        lam_k = LAM[k]
        other = LAM[(k + 1) % 3]
        extra = [p1_orthogonal(lam_k, ONE), p1_orthogonal(lam_k, other)]
    else:
        kind = "Pv"
        i, j = free_edges
        # paper convention: the two free edges carry the linear/quadratic tails
        li, lj = LAM[i], LAM[j]
        bubble = poly_mul(li, lj)
        tails = [lj, poly_mul(lj, lj), li, poly_mul(li, li)]
        extra = [p1_orthogonal(bubble, s) for s in tails]

    coeffs = np.vstack([LAM] + [np.asarray(c)[None, :] for c in extra]) \
        if extra else LAM.copy()
    M = _moment_rows(coeffs, vol_lam, vol_w, edge_data)
    if M.shape[0] != M.shape[1]:
        raise SpaceError("moment system is not square")
    if np.linalg.cond(M) > 1e10:
        raise SpaceError("local moment matrix is ill conditioned")
    return SimpleNamespace(kind=kind, coeffs=coeffs, free_edges=free_edges,
                           vol_pts=vol_pts, vol_w=vol_w, vol_lam=vol_lam,
                           edge_data=edge_data, moment_matrix=M)


def layout_basis(tri_coords, chart, free_edges=()):
    """The package's local basis coefficients (nf, 10) of a counterclockwise
    triangle whose local edges `free_edges` are free: the one element of
    the enriched layout of that triangle alone."""
    mesh = Mesh(np.asarray(tri_coords, dtype=float), np.array([[0, 1, 2]]),
                [_EDGE_VERTS[k] for k in range(3)],
                ["F" if k in free_edges else "D" for k in range(3)])
    layout = build_dof_layout(mesh, chart)
    return layout.coeffs[0, :layout.nf[0]]


def reference_element_dofs(layout, t):
    """Global DOFs of element t in local order theta1(3), theta2(3), u1, u2,
    w (nf each), from the numbering alone: block 1 holds DOF 15 t + 3 f + i
    of P1 function i of field f, and block 2 the nf - 3 extra functions of
    each element in element order, field-major within the element."""
    nf = layout.nf
    extra = int(nf[t]) - 3
    start = 15 * len(nf) + 3 * int((nf[:t] - 3).sum())
    dofs = []
    for f in range(5):
        dofs += [15 * t + 3 * f + i for i in range(3)]
        if f >= 2:
            dofs += [start + extra * (f - 2) + i for i in range(extra)]
    return np.array(dofs)


class PlainLayout(DofLayout):
    """The plain P1 layout: no element enriched, whatever its edges."""


def plain_layout(mesh):
    """The plain P1 primal layout of `mesh`, numbered by
    `reference_element_dofs`, with the stress block of the package's
    layout: the reference space of the penalized method."""
    nt = mesh.n_triangles
    layout = PlainLayout(mesh, np.tile(LAM, (nt, 1, 1)), np.full(nt, 3), None)
    layout.dofs = np.array([reference_element_dofs(layout, t)
                            for t in range(nt)])
    return layout


def reference_project_primal(fields, mesh, chart, layout):
    """Element-wise weighted-L2 projection of the smooth fields (callables
    of points, by name) onto the primal space of `layout`, one element and
    one field at a time on the reference local bases.  Rotations project
    onto P1; displacements onto the element's local space, with edge-moment
    matching on free edges."""
    out = np.zeros(layout.n_primal)
    for t in range(mesh.n_triangles):
        lb = reference_local_basis(
            mesh.vertices[mesh.triangles[t]], chart,
            free_local_edges(mesh, t) if layout.nf[t] > 3 else ())
        dofs = reference_element_dofs(layout, t)
        nf = len(lb.coeffs)
        lamv = eval_monos(lb.vol_lam) @ LAM.T
        for f, name in enumerate(FIELDS):
            fn = fields[name]
            fvals = fn(lb.vol_pts)
            start = 3 * f if f < 2 else 6 + nf * (f - 2)
            if f < 2 or lb.kind == "P1":
                M = np.einsum("q,qi,qj->ij", lb.vol_w, lamv, lamv)
                rhs = np.einsum("q,qi->i", lb.vol_w * fvals, lamv)
                out[dofs[start:start + 3]] = np.linalg.solve(M, rhs)
                continue
            rhs = list(np.einsum("q,qi->i", lb.vol_w * fvals, lamv))
            for (pts, w, te, _lam12) in lb.edge_data:
                fe = fn(pts)
                rhs.append(w @ fe)
                rhs.append(w @ (te * fe))
            out[dofs[start:start + nf]] = np.linalg.solve(lb.moment_matrix,
                                                          np.array(rhs))
    return out


# ------------------------------------------------------ mesh edge discovery


def reference_edge_table(vertices, triangles, boundary_pairs, boundary_tags):
    """The edge table of a valid mesh from a dict of the triangle sides:
    interior pairs, left, right and lengths; boundary pairs, triangle, local
    edge, tag and lengths, each sorted by vertex pair."""
    owners = {}
    for t, (i, j, k) in enumerate(triangles):
        for loc, (p, q) in enumerate(((j, k), (k, i), (i, j))):
            owners.setdefault((min(p, q), max(p, q)), []).append((t, loc))
    tag_of = {tuple(sorted(pair)): tag
              for pair, tag in zip(boundary_pairs, boundary_tags)}
    inner, outer = [], []
    for key, sides in sorted(owners.items()):
        length = np.linalg.norm(vertices[key[0]] - vertices[key[1]])
        if len(sides) == 2:
            (t1, _), (t2, _) = sorted(sides)
            inner.append((key, t1, t2, length))
        else:
            (t, loc), = sides
            outer.append((key, t, loc, tag_of[key], length))
    cols = [np.array(c) for c in zip(*inner)] + [np.array(c)
                                                 for c in zip(*outer)]
    names = ("interior_pairs", "left", "right", "interior_h",
             "boundary_pairs", "triangle", "local", "tag", "boundary_h")
    return dict(zip(names, cols))


def reference_refine(mesh):
    """Vertices, triangles, boundary pairs and tags of the uniform
    refinement, numbering each edge midpoint when a triangle first meets
    it."""
    v = mesh.vertices
    mid_index = {}
    new_verts = list(map(tuple, v))

    def midpoint(p, q):
        key = (min(p, q), max(p, q))
        if key not in mid_index:
            mid_index[key] = len(new_verts)
            new_verts.append(tuple(0.5 * (v[p] + v[q])))
        return mid_index[key]

    tris = []
    for i, j, k in mesh.triangles:
        a, b, c = midpoint(j, k), midpoint(k, i), midpoint(i, j)
        tris.extend([(i, c, b), (c, j, a), (b, a, k), (a, b, c)])
    pairs, tags = [], []
    for (p, q), tag in zip(mesh.boundary.pairs, mesh.boundary.tag):
        m = mid_index[(p, q)]
        pairs += [(p, m), (m, q)]
        tags += [tag, tag]
    return np.array(new_verts), np.array(tris), pairs, tags


def free_local_edges(mesh, t):
    """The sorted local edges of triangle t tagged F."""
    bd = mesh.boundary
    return tuple(sorted(int(loc) for tri, loc, tag in
                        zip(bd.triangle, bd.local, bd.tag)
                        if tri == t and tag == "F"))


# ------------------------------------------------------ per-DOF field arrays


def field_arrays(vals, grads):
    """Values (E, nl, q, 5) and gradients (E, nl, q, 5, 2) of theta1, theta2,
    u1, u2, w for every local DOF, from the displacement-basis values vals
    (E, nf, q) and physical gradients grads (E, nf, q, 2).  Local DOF order:
    theta1(3), theta2(3), u1(nf), u2(nf), w(nf); rotations are P1, the first
    three basis functions."""
    E, nf, nq = vals.shape
    c = np.zeros((E, 6 + 3 * nf, nq, 5))
    cg = np.zeros(c.shape + (2,))
    for comp, start in enumerate((0, 3, 6, 6 + nf, 6 + 2 * nf)):
        n = 3 if comp < 2 else nf
        c[:, start:start + n, :, comp] = vals[:, :n]
        cg[:, start:start + n, :, comp] = grads[:, :n]
    return c, cg


def local_fields(asm, t, pts=None):
    """Field arrays (th, thg, u, ug, w, wg), each (q, nl, ...), of element t
    alone at its volume quadrature points or at points pts (q, 2), from the
    element's vertices and basis coefficients."""
    coords = asm.mesh.vertices[asm.mesh.triangles[t]]
    Jinv = np.linalg.inv(np.stack([coords[0] - coords[2],
                                   coords[1] - coords[2]], axis=-1))
    if pts is None:
        lam12 = triangle_rule(asm.config.quad_tri_degree)[0][:, :2]
    else:
        lam12 = (pts - coords[2]) @ Jinv.T
    cf = asm.layout.coeffs[t, :asm.layout.nf[t]]                # (nf, 10)
    vals = cf @ eval_monos(lam12).T                             # (nf, q)
    grads = np.einsum("fm,qmi,ij->fqj", cf, grad_monos(lam12), Jinv)
    c, cg = field_arrays(vals[None], grads[None])
    c, cg = np.moveaxis(c[0], 0, 1), np.moveaxis(cg[0], 0, 1)
    return (c[..., 0:2], cg[..., 0:2, :], c[..., 2:4], cg[..., 2:4, :],
            c[..., 4], cg[..., 4, :])


def element_strains(asm, t):
    """Fields and strains of element t at its volume quadrature points."""
    fields = local_fields(asm, t)
    rho, gam, tau = strains(*fields, asm._elem_data().geom[t, :, None])
    return SimpleNamespace(rho=rho, gamma=gam, tau=tau, fields=fields)


def edge_tags(asm, d):
    """The tag of each edge of d, the interior or the boundary edge data of
    `asm._edge_data()`: "" inside, the mesh's boundary tags on the
    boundary, whose edges the data keeps in the mesh's order."""
    if d is asm._edge_data()[0]:
        return np.full(len(d.left), "")
    return asm.mesh.boundary.tag


def edge_list(asm):
    """One namespace per interior and per boundary edge, from the stacked
    edge data, with its tag and the elastic tensors at its points."""
    m = asm.material
    return [[SimpleNamespace(left=d.left[k], right=d.right[k],
                             tag=edge_tags(asm, d)[k],
                             pts=d.pts[k], geom=d.geom[k],
                             elastic=eval_elastic(d.geom[k], m.lam, m.mu,
                                                  m.kappa).elastic,
                             h=d.h[k], nbar=d.nbar[k],
                             verts=d.verts[k], te=d.te, we=d.we)
             for k in range(len(d.left))] for d in asm._edge_data()]


def side_arrays(asm, t, ed):
    """Traces and per-DOF strains of element t on edge ed."""
    th, thg, u, ug, w, wg = local_fields(asm, t, ed.pts)
    rho, gam, tau = strains(th, thg, u, ug, w, wg, ed.geom[:, None])
    return SimpleNamespace(th=th, u=u, w=w, rho=rho, gamma=gam, tau=tau)


def edge_normal(mesh, vertex_pair, owner_tri):
    """Outward unit normal (in the parameter plane) of one straight edge,
    pointing out of the owner triangle."""
    p, q = mesh.vertices[list(vertex_pair)]
    t = q - p
    n = np.array([t[1], -t[0]]) / np.linalg.norm(t)
    centroid = mesh.vertices[mesh.triangles[owner_tri]].mean(axis=0)
    if np.dot(n, p - centroid) < 0:
        n = -n
    return n


def containing(asm, pts):
    """(nt, n): whether each triangle contains each point to a barycentric
    tolerance of 1e-10, tested by brute force."""
    e = asm._elem_data()
    lam12 = (np.einsum("tij,qj->tqi", e.Jinv, pts)
             - np.einsum("tij,tj->ti", e.Jinv, e.coords[:, 2])[:, None])
    lam3 = 1.0 - lam12.sum(axis=-1)
    return (lam12 >= -1e-10).all(axis=-1) & (lam3 >= -1e-10)


def reference_load_vector(asm, loads):
    """Every load on one element's or one edge's points at a time, with the
    edge geometry evaluated edge by edge.  A provider is called with no
    geometry (geom=None), so it evaluates the chart itself."""
    layout, mesh = asm.layout, asm.mesh
    rhs = np.zeros(layout.n_primal)
    e = asm._elem_data()
    names = ("c1", "c2", "p1", "p2", "p3")
    for t in range(mesh.n_triangles):
        wfac = e.areas[t] * e.wq * e.geom.sqrt_a[t]
        th, _, u, _, w, _ = local_fields(asm, t)
        if loads.provider is not None:
            got = loads.provider.volume_loads(e.qpts[t], None)
            fv = [wfac * got[k] for k in names]
        else:
            fv = [wfac * _at(getattr(loads, k), e.qpts[t]) for k in names]
        rhs[reference_element_dofs(layout, t)] += (
            fv[0] @ th[:, :, 0] + fv[1] @ th[:, :, 1] + fv[2] @ u[:, :, 0]
            + fv[3] @ u[:, :, 1] + fv[4] @ w)
    te, we = interval_rule(asm.config.quad_edge_points)
    bd = mesh.boundary
    for pair, t, tag, h in zip(bd.pairs, bd.triangle, bd.tag, bd.h):
        if tag == "D":
            continue
        p, q = mesh.vertices[pair]
        pts = np.outer(1 - te, p) + np.outer(te, q)
        geom = asm.chart.evaluate(pts)
        nbar = edge_normal(mesh, pair, t)
        th, _, u, _, w, _ = local_fields(asm, t, pts)
        if loads.provider is not None:
            m, nmem, tsh = loads.provider.boundary_fluxes(pts, None)
            wsa = h * we * geom.sqrt_a
            loc = np.einsum("q,qa,qia->i", wsa, m @ nbar, th)
            if tag == "F":
                qf = (nmem - np.einsum("qga,qab->qgb", geom.b_mix, m)) @ nbar
                loc += np.einsum("q,qg,qig->i", wsa, qf, u)
                loc += (wsa * (tsh @ nbar)) @ w
        else:
            tang = (q - p) / h
            warc = h * we * np.sqrt(np.einsum("qab,a,b->q", geom.a_cov,
                                              tang, tang))
            loc = ((warc * _at(loads.r1, pts)) @ th[:, :, 0]
                   + (warc * _at(loads.r2, pts)) @ th[:, :, 1])
            if tag == "F":
                loc += ((warc * _at(loads.q1, pts)) @ u[:, :, 0]
                        + (warc * _at(loads.q2, pts)) @ u[:, :, 1]
                        + (warc * _at(loads.q3, pts)) @ w)
        rhs[reference_element_dofs(layout, t)] += loc
    return rhs


def reference_error_norms(eng, primal, exact):
    """`exact` asked for values and gradients one element or one edge at a
    time."""
    asm, layout = eng.asm, eng.layout
    e = asm._elem_data()
    H2 = rho2 = gam2 = tau2 = 0.0
    for t in range(asm.mesh.n_triangles):
        th, thg, u, ug, wv, wg = local_fields(asm, t)
        x = primal[reference_element_dofs(layout, t)]
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
        r, gm, ta = strains(dth, dthg, du, dug, dw, dwg, e.geom[t])
        rho2 += w @ np.sum(r ** 2, axis=(-2, -1))
        gam2 += w @ np.sum(gm ** 2, axis=(-2, -1))
        tau2 += w @ np.sum(ta ** 2, axis=-1)
    interior, boundary = edge_list(asm)
    for ed in interior:
        sL = side_arrays(asm, ed.left, ed)
        sR = side_arrays(asm, ed.right, ed)
        xL = primal[reference_element_dofs(layout, ed.left)]
        xR = primal[reference_element_dofs(layout, ed.right)]
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
        x = primal[reference_element_dofs(layout, ed.left)]
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
        return (reference_element_dofs(layout, ed.left), s.th, s.u, s.w,
                s.rho, s.gamma, s.tau)
    sL, sR = side_arrays(asm, ed.left, ed), side_arrays(asm, ed.right, ed)
    left, right = (reference_element_dofs(layout, t)
                   for t in (ed.left, ed.right))
    dofs = np.concatenate([left, right])
    sign = np.concatenate([np.ones(len(left)), -np.ones(len(right))])
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
    el = eval_elastic(e.geom, asm.material.lam, mu, kappa)
    for t in range(mesh.n_triangles):
        st = element_strains(asm, t)
        wfac = e.areas[t] * e.wq * e.geom.sqrt_a[t]
        A = el.elastic[t]
        dofs = reference_element_dofs(layout, t)
        rc = dofs[:, None], dofs[None, :]
        arho = np.einsum("qabcd,qkcd->qkab", A, st.rho)
        add("R", *rc, (1.0 / 3.0) * np.einsum("q,qkab,qlab->kl", wfac, arho,
                                               st.rho))
        agam = np.einsum("qabcd,qkcd->qkab", A, st.gamma)
        add("G", *rc, np.einsum("q,qkab,qlab->kl", wfac, agam, st.gamma))
        add("T", *rc, kappa * mu * np.einsum("q,qab,qka,qlb->kl", wfac,
                                             e.geom.a_con[t], st.tau, st.tau))
        Mten, xiv = aux_tensors(e.bary)
        adofs = aux_dofs(mesh.triangles[t])
        add("B", adofs[:, None], dofs[None, :],
            np.einsum("q,qmab,qkab->mk", wfac, Mten, st.gamma)
            + np.einsum("q,qma,qka->mk", wfac, xiv, st.tau))
        add("C", adofs[:, None], adofs[None, :],
            np.einsum("q,qabcd,qmcd,qnab->mn", wfac,
                      el.compliance[t], Mten, Mten)
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
        Mten, xiv = aux_tensors(np.stack([1 - ed.te, ed.te], axis=1))
        add("B", aux_dofs(ed.verts)[:, None], dofs[None, :],
            -(np.einsum("q,qmab,qia,b->mi", wsa, Mten, ju, nbar)
              + np.einsum("q,qma,qi,a->mi", wsa, xiv, jw, nbar)))

    return {"R": _coo(acc, "R", (n, n)), "R_pen": _coo(acc, "Rp", (n, n)),
            "G": _coo(acc, "G", (n, n)), "G_pen": _coo(acc, "Gp", (n, n)),
            "T": _coo(acc, "T", (n, n)), "T_pen": _coo(acc, "Tp", (n, n)),
            "B": _coo(acc, "B", (n3, n)), "C": _coo(acc, "C", (n3, n3))}


def summed_reference_forms(asm):
    """The reference forms as the package stores them: R and R_pen, the
    membrane and shear forms summed, GT = G + T, and their penalty parts
    summed, GT_pen = G_pen + T_pen, then B and C."""
    f = reference_forms(asm)
    return {"R": f["R"], "R_pen": f["R_pen"], "GT": f["G"] + f["T"],
            "GT_pen": f["G_pen"] + f["T_pen"], "B": f["B"], "C": f["C"]}


def reference_csr_sums(shape, blocks, pieces):
    """Sparse matrices of shape `shape` on one CSR structure, the union of
    the dense blocks rows x cols of the index arrays (E, m) and (E, l) in
    `blocks`: for each key of the dict `pieces`, the sum of its values
    (E, m, l) on block b, [(b, values), ...], all kept until the end.  One
    sort of the blocks' entries gives the structure and, through its
    inverse, the slot of every entry; each matrix is one concatenation of
    its values and one bincount, which adds a slot's terms in piece order.
    A key without values gets float zeros (bincount alone would give
    integers for an empty input, weights or not)."""
    keys = np.concatenate([(r[:, :, None] * shape[1] + c[:, None, :]).ravel()
                           for r, c in blocks])
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.diff(keys, prepend=-1) != 0
    keys = keys[first]
    index = np.int32 if max(shape + (len(keys),)) < 2 ** 31 else np.int64
    slot = np.empty(len(order), dtype=index)
    slot[order] = np.cumsum(first, dtype=index) - 1
    rows, cols = np.divmod(keys, max(1, shape[1]))
    indices = cols.astype(index)
    indptr = np.searchsorted(rows, np.arange(shape[0] + 1)).astype(index)
    start = np.cumsum([0] + [r.size * c.shape[1] for r, c in blocks])
    out = {}
    for key, at in pieces.items():
        data = np.bincount(
            np.concatenate([slot[start[b]:start[b + 1]] for b, _ in at]
                           + [np.zeros(0, dtype=index)]),
            np.concatenate([v.ravel() for _, v in at] + [np.zeros(0)]),
            minlength=len(keys)).astype(float, copy=False)
        out[key] = sps.csr_matrix((data, indices, indptr), shape=shape)
    return out


class BincountSums:
    """Stand-in for the package's streamed `assembly._Sums` with its
    interface: it spells out each block's rows, those of its owners in the
    owner table one owner after another, keeps the values of every block
    and sums each matrix at the end by `reference_csr_sums`."""

    def __init__(self, shape, table, blocks, names):
        self.shape = shape
        self.blocks = [(np.concatenate([table[o][:, table[o[0]] >= 0]
                                        for o in owners.T], axis=1), cols)
                       for owners, cols in blocks]
        self.pieces = {name: [] for name in names}

    def add(self, name, b, values, sel=None):
        """As `_Sums.add`: values on the local rows and columns sel of the
        square block b are spelled out on the whole block, zero elsewhere."""
        if sel is not None:
            cols = self.blocks[b][1]
            full = np.zeros((len(cols),) + (cols.shape[1],) * 2)
            full[:, sel[:, None], sel] = values
            values = full
        self.pieces[name].append((b, values))

    def matrices(self):
        return reference_csr_sums(self.shape, self.blocks, self.pieces)


# The edge kernel that pushes all 18 rows of jumps and fluxes through the
# per-point operator, with every local order a copy and every penalty a
# Gram of whole blocks: each entry of the package's kernel is one of its
# products, the rest exact zeros, so the two agree bitwise.

def reference_local_order(y):
    """`assembly._local_order`, always as a copy."""
    lead = y.shape[:-2]
    return np.concatenate([y[..., :2, :3].reshape(lead + (6,)),
                           y[..., 2:, :].reshape(lead + (-1,))], axis=-1)


def reference_apply(L, phi):
    """`assembly._apply` through `reference_local_order`."""
    r = L.shape[-2]
    y = L.reshape(L.shape[:-2] + (5 * r, 3)) @ phi
    return reference_local_order(y.reshape(y.shape[:-2] + (r, 5, -1)))


def reference_edge_operator(geom, A, nbar, theta):
    """Per-point operator (E, q, 18, 15) on edges with normals nbar (E, 2):
    rows 0-4 the values of the five fields, 5-6 b^d_a u_d - theta_a
    (theta_a only if `theta`), 7-12 u_1 n_1, u_1 n_2, u_2 n_1, u_2 n_2,
    w n_1, w n_2, then 13-14 (A rho)^{ab} n_b, 15-16 (A gamma)^{ab} n_b and
    17 a^{ab} tau_b n_a."""
    L = strain.operator(geom)
    An = sum(A[..., :, b, :, :] * nbar[:, b, None, None, None, None]
             for b in (0, 1)).reshape(L.shape[:-2] + (2, 4))
    op = np.zeros(L.shape[:-2] + (13, 15))
    op[..., :5, ::3] = np.eye(5)
    op[..., 5:7, :6:3] = -np.eye(2) if theta else 0.0
    op[..., 5:7, 6:12:3] = np.swapaxes(geom.b_mix, -1, -2)
    for i, c in enumerate((2, 3, 4)):
        op[..., 7 + 2 * i:9 + 2 * i, 3 * c] = nbar[:, None]
    return np.concatenate([op, An @ L[..., 0:4, :], An @ L[..., 4:8, :],
                           nbar[:, None, None] @ geom.a_con @ L[..., 8:10, :]],
                          axis=-2)


def reference_edge_values(asm, d, k, owners):
    """`FormAssembler._edge_values` as rows 0-12 and 13-17 of
    `reference_edge_operator` applied to every local DOF of the edge
    slice k."""
    g = d.geom[k]
    m = asm.material
    op = reference_edge_operator(
        g, eval_elastic(g, m.lam, m.mu, m.kappa).elastic, d.nbar[k],
        edge_tags(asm, d)[k[0]] != "S")
    y = [reference_apply(op, asm._traces(t, d.pts[k])[1]) for t in owners]
    return (np.concatenate([sign * yi[:, :, :13] for sign, yi in
                            zip((1.0, -1.0), y)], axis=-1),
            np.concatenate([yi[:, :, 13:] for yi in y], axis=-1) / len(y))


def reference_edge_forms(asm, square, coupling, b, d, k, owners):
    """`FormAssembler._edge_forms` with each penalty a Gram of the whole
    block, on `reference_edge_values`."""
    jump, flux = reference_edge_values(asm, d, k, owners)
    wsa = d.h[k, None] * d.we * d.geom.sqrt_a[k]
    flux[:, :, 4] *= asm.material.kappa * asm.material.mu
    for key, fac, x, y in (
            ("R", 1.0 / 3.0, jump[:, :, 5:7], flux[:, :, 0:2]),
            ("GT", -1.0, jump[:, :, 2:5], flux[:, :, 2:5])):
        X = _gram(wsa, x, y)
        square.add(key, b, fac * (X + np.swapaxes(X, 1, 2)))
    if edge_tags(asm, d)[k[0]] != "S":
        square.add("R_pen", b, _gram(d.we, jump[:, :, 0:2], jump[:, :, 0:2]))
    juw = jump[:, :, 2:5]
    square.add("GT_pen", b, _gram(d.we, juw * [[1.0], [1.0], [2.0]], juw))
    Se = _aux_basis(np.stack([1 - d.te, d.te], axis=1))[None]
    coupling.add("B", b, -_gram(wsa, Se, jump[:, :, 7:13]))


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
        dofs = reference_element_dofs(layout, t)
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
    grams["V"] = _coo(acc, "V", (n3, n3))
    return grams


# -------------------------------------------------- diagnostics on the oracles


def one_front(order):
    """The assembly tree of one front over the unknowns in `order`, all of
    them primal: a matrix without a mesh factored as one dense block."""
    order = np.asarray(order)
    return Tree(order, np.array([0, len(order)]), np.array([len(order)]),
                np.array([-1]), [np.empty(0, dtype=np.int64)])


def korn_ratio(eng, n_samples: int = 0) -> dict:
    """Extreme generalized Rayleigh quotients of the strain-energy norm
    against the broken H1 norm, from the reference Gram matrices; with
    n_samples, the extremes over that many random vectors instead."""
    g = reference_grams(eng)
    Qa, QH = g["a"].toarray(), g["H"].toarray()
    if n_samples:
        rng = np.random.default_rng(0)
        ratios = []
        for _ in range(n_samples):
            v = rng.standard_normal(len(Qa))
            ratios.append((v @ Qa @ v) / (v @ QH @ v))
        return {"min_ratio": float(min(ratios)),
                "max_ratio": float(max(ratios))}
    vals = scipy.linalg.eigh(Qa, QH, eigvals_only=True)
    return {"min_ratio": float(vals[0]), "max_ratio": float(vals[-1])}


def dual_H_norm(eng, r) -> float:
    """sup_x r.x / ||x||_H = sqrt(r^T Q_H^{-1} r), with Q_H = eng.grams()."""
    return float(np.sqrt(max(r @ spla.spsolve(eng.grams().tocsc(), r), 0.0)))


def weak_Vbar_norm(eng, aux_vec) -> float:
    """Dual H_h norm of the functional x -> aux_vec . B x."""
    return dual_H_norm(eng, aux_vec @ eng.asm.b_matrix())


def consistency_residual(manufactured, assembler, method: str,
                         epsilon: float) -> float:
    """Dual-norm residual of the discrete equations at the interpolant of an
    exact smooth solution whose loads are manufactured consistently."""
    if method not in ("mixed", "dg"):
        raise ValueError(f"unknown method {method!r}")
    xi = reference_project_primal(fields_dict(manufactured), assembler.mesh,
                                  assembler.chart, assembler.layout)
    r = assembler.load_vector(manufactured.load_spec())
    if method == "dg":      # rho + eps^-2 (gamma + tau)
        r = assembler.a_theta(epsilon ** -2) @ xi - r
    else:
        mi = aux_interpolant(manufactured, assembler.layout, epsilon ** -2)
        r = assembler.a_theta(1.0) @ xi + assembler.b_matrix().T @ mi - r
    return dual_H_norm(NormEngine(assembler), r)


def manufactured_hessians(sol, pts):
    """(..., 5, 2, 2) with [..., f, i, j] = d_j d_i field_f of the
    manufactured solution `sol` at parameter points."""
    return sol._partials(pts, 2)


def fields_dict(sol):
    """The exact fields of the manufactured solution `sol` as callables of
    parameter points, by name."""
    def field(f):
        return lambda pts: sol.values(pts)[..., f]
    return {name: field(f) for f, name in enumerate(FIELDS)}


def aux_interpolant(sol, layout, multiplier: float) -> np.ndarray:
    """Continuous-P1 vertex interpolant of the auxiliary stresses
    (M^{11}, M^{22}, M^{12}, xi^1, xi^2) of the manufactured solution `sol`,
    scaled by `multiplier` relative to the unit-coefficient membrane/shear
    stresses."""
    mesh = layout.mesh
    pts = mesh.vertices
    geom = sol.chart.evaluate(pts)
    mat = sol.material
    el = eval_elastic(geom, mat.lam, mat.mu, mat.kappa).elastic
    _, gam, tau = sol.strains_at(pts, geom)
    nm = multiplier * np.einsum("...abcd,...cd->...ab", el, gam)
    xi = (multiplier * mat.kappa * mat.mu
          * np.einsum("...ab,...b->...a", geom.a_con, tau))
    out = np.zeros(layout.n_block3)
    base = 5 * np.arange(mesh.n_vertices)
    out[base + 0] = nm[:, 0, 0]
    out[base + 1] = nm[:, 1, 1]
    out[base + 2] = nm[:, 0, 1]
    out[base + 3] = xi[:, 0]
    out[base + 4] = xi[:, 1]
    return out


def penalized_forms(asm):
    """rho_h and gamma_h + tau_h: the consistency forms R and GT of
    `asm.forms()` plus `asm.config.penalty_C` times their penalty parts, on
    the primal pattern that they share."""
    f, C = asm.forms(), asm.config.penalty_C
    return [sps.csr_matrix((f[k].data + C * f[k + "_pen"].data,
                            f[k].indices, f[k].indptr), shape=f[k].shape)
            for k in ("R", "GT")]


def reference_factor(K):
    """The reference sparse LU of a symmetric K already in its fill-reducing
    order: SuperLU in symmetric mode, that order kept, diagonal pivots (the
    package's factor before its multifrontal one)."""
    return spla.splu(sps.csc_matrix(K), permc_spec="NATURAL",
                     diag_pivot_thresh=0.0, options={"SymmetricMode": True})


def reference_solve(K, b, steps=2):
    """x with K x = b from `reference_factor`, refined `steps` times."""
    lu = reference_factor(K)
    x = lu.solve(b)
    for _ in range(steps):
        x = x + lu.solve(b - K @ x)
    return x, lu


def green_identity_check(tri_coords, chart, f_exprs) -> float:
    """Surface Green identity probe: | int_tri f^a|_a - int_bnd f^a nbar_a sqrt(a) |
    for a vector field given by two expression ASTs (or strings), with the
    default rules of the assembly (degree 8, 5 points an edge)."""
    tri_coords = np.asarray(tri_coords, dtype=float)
    fs = [exprmod.parse(c) if isinstance(c, str) else c for c in f_exprs]
    dfs = [[exprmod.differentiate(f, v) for v in ("x1", "x2")] for f in fs]
    bary, wq = triangle_rule(8)
    d1 = tri_coords[1] - tri_coords[0]
    d2 = tri_coords[2] - tri_coords[0]
    area = 0.5 * abs(d1[0] * d2[1] - d1[1] * d2[0])
    pts = bary @ tri_coords
    g = chart.evaluate(pts)
    x1, x2 = pts[:, 0], pts[:, 1]
    fvals = np.stack([exprmod.evaluate(f, x1, x2) for f in fs], axis=-1)
    # covariant divergence f^a|_a = d_a f^a + Gamma^a_{al} f^l
    trace_gamma = np.einsum("qaal->ql", g.christoffel)
    divf = (exprmod.evaluate(dfs[0][0], x1, x2)
            + exprmod.evaluate(dfs[1][1], x1, x2)
            + np.einsum("ql,ql->q", trace_gamma, fvals))
    volume = area * np.sum(wq * g.sqrt_a * divf)
    te, we = interval_rule(5)
    boundary = 0.0
    for k in range(3):
        p, q = tri_coords[(k + 1) % 3], tri_coords[(k + 2) % 3]
        epts = np.outer(1 - te, p) + np.outer(te, q)
        h = np.linalg.norm(q - p)
        tangent = (q - p) / h
        nbar = np.array([tangent[1], -tangent[0]])
        centroid = tri_coords.mean(axis=0)
        if np.dot(nbar, p - centroid) < 0:
            nbar = -nbar
        ge = chart.evaluate(epts)
        fe = np.stack([exprmod.evaluate(f, epts[:, 0], epts[:, 1])
                       for f in fs], axis=-1)
        boundary += h * np.sum(we * ge.sqrt_a * np.einsum("qa,a->q", fe, nbar))
    return abs(volume - boundary)


def geometry_seminorms(chart, tri_vertices, n_samples: int = 3) -> dict:
    """Sampled first-order L^inf seminorms of Gamma, b_cov and b_mix on one
    triangle, on the barycentric lattice of n_samples points per edge (3:
    the vertices and edge midpoints, as `mesh.geometry_resolution` samples).
    Per family, the sum over components of the max over the points and the
    two directions, and (`<family>_sum_dirs`) the sum over components and
    directions of the max over the points."""
    pts = _triangle_samples(np.asarray(tri_vertices, dtype=float), n_samples)
    g = chart.derivatives(pts)
    out = {}
    for key, arr in (("christoffel", g.d_christoffel), ("b_cov", g.d_b_cov),
                     ("b_mix", g.d_b_mix)):
        per_dir = {}                    # (component, direction) -> max
        for p in range(len(pts)):
            for idx in np.ndindex(arr.shape[1:]):
                per_dir[idx] = max(per_dir.get(idx, 0.0), abs(arr[(p,) + idx]))
        comps = {idx[:-1] for idx in per_dir}
        out[key] = float(sum(max(per_dir[c + (0,)], per_dir[c + (1,)])
                             for c in comps))
        out[key + "_sum_dirs"] = float(sum(per_dir.values()))
    return out


def stress_partials(sol, pts, h=1e-5):
    """Central differences d_d (m, nmem, t) of a manufactured solution's
    stresses, with step h."""
    dm = np.empty(pts.shape[:-1] + (2, 2, 2))
    dn = np.empty_like(dm)
    dt = np.empty(pts.shape[:-1] + (2, 2))
    for d in range(2):
        step = np.zeros(2)
        step[d] = h
        mp, np_, tp = sol.stresses(pts + step)
        mm, nm_, tm = sol.stresses(pts - step)
        dm[..., d] = (mp - mm) / (2 * h)
        dn[..., d] = (np_ - nm_) / (2 * h)
        dt[..., d] = (tp - tm) / (2 * h)
    return dm, dn, dt


def volume_loads_fd(sol, pts):
    """`ManufacturedSolution.volume_loads` with the stress divergences taken
    by finite differences of the stresses."""
    pts = np.asarray(pts, dtype=float)
    geom = sol.chart.evaluate(pts)
    m, nmem, t = sol.stresses(pts, geom)
    dm, dn, dt = stress_partials(sol, pts)
    G = geom.christoffel

    def div2(s, ds):
        # s^{ab}|_b = d_b s^{ab} + G^a_{bl} s^{lb} + G^b_{bl} s^{al}
        return (np.einsum("...abb->...a", ds)
                + np.einsum("...abl,...lb->...a", G, s)
                + np.einsum("...bbl,...al->...a", G, s))

    div_m = div2(m, dm)
    bmv = np.einsum("...ga,...ab->...gb", geom.b_mix, m)
    dbmv = (np.einsum("...gad,...ab->...gbd",
                      sol.chart.derivatives(pts).d_b_mix, m)
            + np.einsum("...ga,...abd->...gbd", geom.b_mix, dm))
    div_bm = div2(bmv, dbmv)
    div_n = div2(nmem, dn)
    div_t = (np.einsum("...aa->...", dt)
             + np.einsum("...aal,...l->...", G, t))
    couple = -div_m + t
    force = (div_bm - div_n
             + np.einsum("...a,...ga->...g", t, geom.b_mix))
    p3 = (np.einsum("...ab,...ab->...", m, geom.c_cov)
          - np.einsum("...ab,...ab->...", nmem, geom.b_cov)
          - div_t)
    return {"c1": couple[..., 0], "c2": couple[..., 1],
            "p1": force[..., 0], "p2": force[..., 1], "p3": p3}


# ------------------------------------------------ sympy chart-geometry oracle

_X1, _X2 = sp.symbols("x1 x2", real=True)


def sympy_chart_position(kind, radius=1.0, coeff=1.0):
    """The position vector of the built-in chart `kind` in sympy, with its
    parameters as exact rationals."""
    R = sp.nsimplify(radius, rational=True)
    c = sp.nsimplify(coeff, rational=True)
    return {"plate": [_X1, _X2, 0],
            "cylinder": [R * sp.cos(_X1 / R), R * sp.sin(_X1 / R), _X2],
            "sphere": [R * sp.sin(_X1) * sp.cos(_X2),
                       R * sp.sin(_X1) * sp.sin(_X2), R * sp.cos(_X1)],
            "hypar": [_X1, _X2, c * _X1 * _X2]}[kind]


def sympy_chart_geometry(phi):
    """Every GeometryEval and GeometryDerivatives field of the surface with
    sympy position vector `phi`, derived by exact symbolic differentiation
    and simplification and lambdified: a function of points (..., 2) that
    returns them by name."""
    phi = sp.Matrix(phi)
    a1, a2 = phi.diff(_X1), phi.diff(_X2)
    frame = [a1, a2]
    a_cov = sp.Matrix(2, 2, lambda i, j: frame[i].dot(frame[j]))
    a_con = a_cov.inv().applyfunc(sp.simplify)
    cross = a1.cross(a2)
    sqrt_a = sp.sqrt(sp.simplify(a_cov.det()))
    a3 = cross / sp.sqrt(cross.dot(cross))
    da = [[frame[a].diff(x) for x in (_X1, _X2)] for a in range(2)]
    b_cov = sp.Matrix(2, 2, lambda a, b: sp.simplify(a3.dot(da[a][b])))
    con_frame = [a_con[c, 0] * a1 + a_con[c, 1] * a2 for c in range(2)]
    gammas = [sp.simplify(con_frame[c].dot(da[a][b])) for c in range(2)
              for a in range(2) for b in range(2)]
    b_mix = sp.simplify(a_con * b_cov)
    c_cov = sp.Matrix(2, 2, lambda a, b: sp.simplify(
        sum(b_mix[g, a] * b_cov[g, b] for g in range(2))))
    # (tail shape, row-major components) of each field, in field order
    blocks = [((2, 2), [*a_cov]), ((2, 2), [*a_con]), ((), [sqrt_a]),
              ((2, 2), [*b_cov]), ((2, 2), [*b_mix]), ((2, 2), [*c_cov]),
              ((2, 2, 2), gammas)]
    blocks += [(tail + (2,), [sp.diff(f, x) for f in comps
                              for x in (_X1, _X2)])
               for tail, comps in (blocks[3], blocks[4], blocks[6])]
    names = [*GeometryEval.__dataclass_fields__,
             *GeometryDerivatives.__dataclass_fields__]
    fns = [(name, tail, sp.lambdify((_X1, _X2), comps, modules="numpy"))
           for name, (tail, comps) in zip(names, blocks)]

    def evaluate(points):
        points = np.asarray(points, dtype=float)
        shape = points.shape[:-1]
        return {name: np.stack([np.broadcast_to(v, shape).astype(float)
                                for v in fn(points[..., 0], points[..., 1])],
                               axis=-1).reshape(shape + tail)
                for name, tail, fn in fns}
    return evaluate
