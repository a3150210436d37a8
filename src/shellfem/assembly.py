"""Global assembly of the shell bilinear forms and load functionals.

The assembler precomputes geometry and basis data at all element and edge
quadrature points, then builds each global sparse matrix in one pass over
elements plus one pass over edges.  Penalty contributions are kept in
separate matrices so the penalty constant can be recalibrated without
reassembling anything.

All square matrices are over the primal DOFs (blocks 1+2 of the layout);
the stress coupling block has shape (n_block3, n_primal).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sps

from . import strain
from .fe_space import LAM, eval_monos, grad_monos
from .geometry import batched, eval_elastic
from .mesh import edge_normal
from .quadrature import interval_rule, triangle_rule
from .solve import SolverError, factor


class CalibrationError(SolverError):
    """No penalty constant within the doublings made A(1) positive definite."""


@dataclass
class Material:
    lam: float = 1.0
    mu: float = 1.0
    kappa: float = 5.0 / 6.0


@dataclass
class AssemblyConfig:
    penalty_C: float = 100.0
    quad_tri_degree: int = 8
    quad_edge_points: int = 5


@dataclass
class LoadSpec:
    """Right-hand-side description.

    Volume loads p1,p2,p3 (forces) and c1,c2 (couples) are callables of
    parameter points (n,2) -> (n,).  Boundary loads are either arc-length
    densities r1,r2 (moments on S and F) and q1,q2,q3 (forces on F), or a
    flux provider whose boundary_fluxes(points) returns the stress tensors
    (m (n,2,2), nmem (n,2,2), t (n,2)) to be contracted with the edge normal.
    Each callable is called once per mesh, on all its quadrature points
    (volume or S/F edge) as one (n,2) array; beyond geometry.POINT_BUDGET
    points, once per slice of at most that many.
    """
    p1: object = None
    p2: object = None
    p3: object = None
    c1: object = None
    c2: object = None
    r1: object = None
    r2: object = None
    q1: object = None
    q2: object = None
    q3: object = None
    flux_provider: object = None


def _load_values(fns, pts):
    """The load callables `fns` (None reads zero) at all points pts (..., 2):
    an array (len(fns),) + pts.shape[:-1]."""
    def at(p):
        return np.stack([np.zeros(len(p)) if f is None else f(p) for f in fns],
                        axis=1)
    return batched(at, pts.reshape(-1, 2)).T.reshape((len(fns),)
                                                    + pts.shape[:-1])


def _components(th, u, w):
    """theta1, theta2, u1, u2, w of each local DOF: (q, nl, 5), from the
    field arrays (th, u, w) = fields[::2] of `_field_arrays`."""
    return np.concatenate([th, u, w[..., None]], axis=-1)


def field_values(fields, x):
    """Values (q, 5) and gradients (q, 5, 2) of theta1, theta2, u1, u2, w
    from the field arrays of `_field_arrays` and local DOF values x."""
    th, thg, u, ug, w, wg = fields
    grads = np.concatenate([thg, ug, wg[..., None, :]], axis=-2)
    return (np.einsum("qkc,k->qc", _components(th, u, w), x),
            np.einsum("qkcd,k->qcd", grads, x))


class FormAssembler:
    def __init__(self, mesh, chart, layout, material: Material,
                 config: AssemblyConfig):
        self.mesh = mesh
        self.chart = chart
        self.layout = layout
        self.material = material
        self.config = config
        self._elem = None
        self._edges = None
        self._forms = None
        self._strain_cache = {}

    # ------------------------------------------------------------ element data

    def _elem_data(self):
        if self._elem is not None:
            return self._elem
        mesh, chart = self.mesh, self.chart
        bary, wq = triangle_rule(self.config.quad_tri_degree)
        nt = mesh.n_triangles
        coords = mesh.vertices[mesh.triangles]                      # (nt,3,2)
        v0, v1, v2 = coords[:, 0], coords[:, 1], coords[:, 2]
        d1, d2 = v1 - v0, v2 - v0
        areas = 0.5 * np.abs(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
        J = np.stack([v0 - v2, v1 - v2], axis=-1)                   # (nt,2,2)
        Jinv = np.linalg.inv(J)
        qpts = np.einsum("qi,tix->tqx", bary, coords)               # (nt,nq,2)
        geom = batched(chart.evaluate, qpts)
        elastic = eval_elastic(geom, self.material.lam, self.material.mu,
                               self.material.kappa)
        monos = eval_monos(bary[:, :2])                              # (nq,10)
        gmonos = grad_monos(bary[:, :2])                             # (nq,10,2)
        vals, grads = [], []
        for t in range(nt):
            cf = self.layout.bases[t].coeffs                         # (nf,10)
            vals.append(monos @ cf.T)                                # (nq,nf)
            gb = np.einsum("qmd,fm->qfd", gmonos, cf)
            grads.append(np.einsum("qfd,di->qfi", gb, Jinv[t]))
        self._elem = SimpleNamespace(bary=bary, wq=wq, coords=coords,
                                     areas=areas, Jinv=Jinv, qpts=qpts,
                                     geom=geom, elastic=elastic,
                                     vals=vals, grads=grads)
        return self._elem

    def _field_arrays(self, t, vals, grads):
        """Per-DOF field arrays on element t at points where the displacement
        basis has values `vals` (nq,nf) and physical grads `grads` (nq,nf,2).
        Local DOF order: theta1(3), theta2(3), u1(nf), u2(nf), w(nf)."""
        nq, nf = vals.shape
        nl = 6 + 3 * nf
        p1v, p1g = vals[:, :3], grads[:, :3]
        th = np.zeros((nq, nl, 2))
        thg = np.zeros((nq, nl, 2, 2))
        u = np.zeros((nq, nl, 2))
        ug = np.zeros((nq, nl, 2, 2))
        w = np.zeros((nq, nl))
        wg = np.zeros((nq, nl, 2))
        th[:, 0:3, 0] = p1v
        th[:, 3:6, 1] = p1v
        thg[:, 0:3, 0, :] = p1g
        thg[:, 3:6, 1, :] = p1g
        s1, s2, s3 = slice(6, 6 + nf), slice(6 + nf, 6 + 2 * nf), \
            slice(6 + 2 * nf, 6 + 3 * nf)
        u[:, s1, 0] = vals
        u[:, s2, 1] = vals
        ug[:, s1, 0, :] = grads
        ug[:, s2, 1, :] = grads
        w[:, s3] = vals
        wg[:, s3, :] = grads
        return th, thg, u, ug, w, wg

    def _element_strains(self, t):
        """Strain arrays per local DOF at the volume quadrature points."""
        if t in self._strain_cache:
            return self._strain_cache[t]
        e = self._elem_data()
        fields = self._field_arrays(t, e.vals[t], e.grads[t])
        g = e.geom[t, :, None]
        th, thg, u, ug, w, wg = fields
        rho, gam, tau = strain.strains(th, thg, u, ug, w, wg, g)
        out = SimpleNamespace(rho=rho, gamma=gam, tau=tau, fields=fields)
        self._strain_cache[t] = out
        return out

    # --------------------------------------------------------------- edge data

    def _trace_at(self, t, pts):
        """Displacement-basis traces and physical gradients on element t at
        arbitrary parameter points (from either side of an edge)."""
        e = self._elem_data()
        v2 = e.coords[t, 2]
        lam12 = (pts - v2) @ e.Jinv[t].T
        cf = self.layout.bases[t].coeffs
        vals = eval_monos(lam12) @ cf.T
        gb = np.einsum("qmd,fm->qfd", grad_monos(lam12), cf)
        grads = np.einsum("qfd,di->qfi", gb, e.Jinv[t])
        return vals, grads

    def _edge_data(self):
        if self._edges is not None:
            return self._edges
        mesh, mat = self.mesh, self.material
        te, we = interval_rule(self.config.quad_edge_points)

        def sweep(edges, h, owner):
            """Per-edge data, the geometry of all edges evaluated at once."""
            ends = mesh.vertices[np.array([e.vertices for e in edges],
                                          dtype=int).reshape(-1, 2)]
            pts = (ends[:, None, 0] * (1 - te)[:, None]
                   + ends[:, None, 1] * te[:, None])          # (ne,nq,2)
            geom = batched(self.chart.evaluate, pts)
            elastic = eval_elastic(geom, mat.lam, mat.mu, mat.kappa).elastic
            tang = ends[:, 1] - ends[:, 0]
            tang /= np.linalg.norm(tang, axis=1)[:, None]
            arc = np.sqrt(np.einsum("eqab,ea,eb->eq", geom.a_cov, tang, tang))
            return [SimpleNamespace(edge=e, pts=pts[k], te=te, we=we, h=h[k],
                                    geom=geom[k], elastic=elastic[k],
                                    arc=arc[k],
                                    nbar=edge_normal(mesh, e.vertices, owner(e)))
                    for k, e in enumerate(edges)]

        interior = sweep(mesh.interior_edges, mesh.h_e_interior,
                         lambda e: e.left)
        boundary = sweep(mesh.boundary_edges, mesh.h_e_boundary,
                         lambda e: e.triangle)
        self._edges = (interior, boundary)
        return self._edges

    def _side_arrays(self, t, pts, geom):
        """Traces, per-DOF strains on one side of an edge."""
        vals, grads = self._trace_at(t, pts)
        fields = self._field_arrays(t, vals, grads)
        g = geom[:, None]
        th, thg, u, ug, w, wg = fields
        rho, gam, tau = strain.strains(th, thg, u, ug, w, wg, g)
        return SimpleNamespace(th=th, u=u, w=w, rho=rho, gamma=gam, tau=tau)

    # ----------------------------------------------------------- global forms

    def forms(self):
        """Assemble all global matrices once: consistency parts and penalty
        parts of rho/gamma/tau, the stress coupling block, and the stress
        mass block."""
        if self._forms is not None:
            return self._forms
        layout = self.layout
        mesh = self.mesh
        mu, kappa = self.material.mu, self.material.kappa
        n = layout.n_primal
        n3 = layout.n_block3
        acc = {key: ([], [], []) for key in
               ("R", "Rp", "G", "Gp", "T", "Tp", "B")}

        def add(key, rows, cols, vals):
            r, c, v = acc[key]
            r.append(np.broadcast_to(rows, vals.shape).ravel())
            c.append(np.broadcast_to(cols, vals.shape).ravel())
            v.append(vals.ravel())

        e = self._elem_data()
        c_rows, c_cols, c_vals = [], [], []
        for t in range(mesh.n_triangles):
            st = self._element_strains(t)
            wfac = e.areas[t] * e.wq * e.geom.sqrt_a[t]
            A = e.elastic.elastic[t]
            dofs = layout.element_dofs(t)
            arho = np.einsum("qabcd,qkcd->qkab", A, st.rho)
            Rloc = (1.0 / 3.0) * np.einsum("q,qkab,qlab->kl", wfac, arho, st.rho)
            agam = np.einsum("qabcd,qkcd->qkab", A, st.gamma)
            Gloc = np.einsum("q,qkab,qlab->kl", wfac, agam, st.gamma)
            Tloc = kappa * mu * np.einsum("q,qab,qka,qlb->kl", wfac,
                                          e.geom.a_con[t], st.tau, st.tau)
            rc = dofs[:, None], dofs[None, :]
            add("R", *rc, vals=Rloc)
            add("G", *rc, vals=Gloc)
            add("T", *rc, vals=Tloc)
            if layout.with_aux:
                pv = e.bary                                       # (nq,3) P1
                Mten, xiv = _aux_tensors(pv)
                Bloc = (np.einsum("q,qmab,qkab->mk", wfac, Mten, st.gamma)
                        + np.einsum("q,qma,qka->mk", wfac, xiv, st.tau))
                adofs = _aux_dofs(mesh.triangles[t])
                add("B", adofs[:, None], dofs[None, :], Bloc)
                comp = e.elastic.compliance[t]
                Cloc = (np.einsum("q,qabcd,qmcd,qnab->mn", wfac, comp, Mten, Mten)
                        + (1.0 / (kappa * mu))
                        * np.einsum("q,qab,qmb,qna->mn", wfac, e.geom.a_cov[t],
                                    xiv, xiv))
                c_rows.append(np.broadcast_to(adofs[:, None], Cloc.shape).ravel())
                c_cols.append(np.broadcast_to(adofs[None, :], Cloc.shape).ravel())
                c_vals.append(Cloc.ravel())

        interior, boundary = self._edge_data()
        for ed in interior:
            L, R = ed.edge.left, ed.edge.right
            sL = self._side_arrays(L, ed.pts, ed.geom)
            sR = self._side_arrays(R, ed.pts, ed.geom)
            dofs = np.concatenate([layout.element_dofs(L),
                                   layout.element_dofs(R)])
            sign = np.concatenate([np.ones(layout.n_local(L)),
                                   -np.ones(layout.n_local(R))])
            th = np.concatenate([sL.th, sR.th], axis=1)
            u = np.concatenate([sL.u, sR.u], axis=1)
            w = np.concatenate([sL.w, sR.w], axis=1)
            rho = 0.5 * np.concatenate([sL.rho, sR.rho], axis=1)
            gam = 0.5 * np.concatenate([sL.gamma, sR.gamma], axis=1)
            tau = 0.5 * np.concatenate([sL.tau, sR.tau], axis=1)
            jth = th * sign[None, :, None]
            ju = u * sign[None, :, None]
            jw = w * sign[None, :]
            self._edge_terms(acc, add, ed, dofs, rho, gam, tau, jth, ju, jw,
                             rho_theta=True, rho_bu=True, gam_on=True,
                             tau_on=True, pen_theta=True, pen_u=True,
                             pen_w=True, aux=layout.with_aux)
        for ed in boundary:
            tag = ed.edge.tag
            if tag == "F":
                continue
            t = ed.edge.triangle
            s = self._side_arrays(t, ed.pts, ed.geom)
            dofs = layout.element_dofs(t)
            self._edge_terms(acc, add, ed, dofs, s.rho, s.gamma, s.tau,
                             s.th, s.u, s.w,
                             rho_theta=(tag == "D"), rho_bu=True,
                             gam_on=True, tau_on=True,
                             pen_theta=(tag == "D"), pen_u=True, pen_w=True,
                             aux=layout.with_aux)

        def build(key, shape):
            r, c, v = acc[key]
            if not r:
                return sps.csr_matrix(shape)
            m = sps.coo_matrix(
                (np.concatenate(v), (np.concatenate(r), np.concatenate(c))),
                shape=shape).tocsr()
            m.sum_duplicates()
            return m

        forms = {
            "R": build("R", (n, n)), "R_pen": build("Rp", (n, n)),
            "G": build("G", (n, n)), "G_pen": build("Gp", (n, n)),
            "T": build("T", (n, n)), "T_pen": build("Tp", (n, n)),
            "B": build("B", (n3, n)),
        }
        if layout.with_aux:
            forms["C"] = sps.coo_matrix(
                (np.concatenate(c_vals),
                 (np.concatenate(c_rows), np.concatenate(c_cols))),
                shape=(n3, n3)).tocsr()
        else:
            forms["C"] = sps.csr_matrix((n3, n3))
        self._forms = forms
        return forms

    def _edge_terms(self, acc, add, ed, dofs, rho, gam, tau, jth, ju, jw,
                    rho_theta, rho_bu, gam_on, tau_on, pen_theta, pen_u,
                    pen_w, aux):
        """Consistency and penalty contributions of one edge.

        rho/gam/tau carry the average factor already (interior edges) or the
        one-sided values (boundary); jth/ju/jw are signed traces (jumps)."""
        g = ed.geom
        mu, kappa = self.material.mu, self.material.kappa
        wsa = ed.h * ed.we * g.sqrt_a                     # consistency weight
        wpen = ed.we                                      # penalty: h cancels
        A = ed.elastic
        nbar = ed.nbar
        rc = dofs[:, None], dofs[None, :]
        if rho_theta or rho_bu:
            arho = np.einsum("qabcd,qkcd,b->qka", A, rho, nbar)
        if rho_theta:
            X = np.einsum("q,qja,qia->ij", wsa, arho, jth)
            add("R", *rc, vals=-(1.0 / 3.0) * (X + X.T))
        if rho_bu:
            bju = np.einsum("qda,qid->qia", g.b_mix, ju)
            X = np.einsum("q,qja,qia->ij", wsa, arho, bju)
            add("R", *rc, vals=(1.0 / 3.0) * (X + X.T))
        if gam_on:
            agam = np.einsum("qdbag,qkag,b->qkd", A, gam, nbar)
            X = np.einsum("q,qjd,qid->ij", wsa, agam, ju)
            add("G", *rc, vals=-(X + X.T))
        if tau_on:
            atau = kappa * mu * np.einsum("qab,qkb,a->qk", g.a_con, tau, nbar)
            X = np.einsum("q,qj,qi->ij", wsa, atau, jw)
            add("T", *rc, vals=-(X + X.T))
        if pen_theta:
            P = np.einsum("q,qia,qja->ij", wpen, jth, jth)
            add("Rp", *rc, vals=P)
        if pen_u:
            P = np.einsum("q,qia,qja->ij", wpen, ju, ju)
            add("Gp", *rc, vals=P)
        if pen_w:
            P = np.einsum("q,qi,qj->ij", wpen, jw, jw)
            add("Gp", *rc, vals=P)
            add("Tp", *rc, vals=P)
        if aux:
            # stress coupling: -(M^{ab}[v_a]n_b + xi^a [z]n_a), M,xi continuous
            p, q = ed.edge.vertices
            pv = np.stack([1 - ed.te, ed.te], axis=1)    # P1 trace at (p, q)
            Mten, xiv = _aux_tensors(pv)
            verts = np.array([p, q])
            adofs = _aux_dofs(verts)
            Bloc = -(np.einsum("q,qmab,qia,b->mi", wsa, Mten, ju, nbar)
                     + np.einsum("q,qma,qi,a->mi", wsa, xiv, jw, nbar))
            add("B", adofs[:, None], dofs[None, :], Bloc)

    # ------------------------------------------------------------- public API

    def rho_matrix(self):
        f = self.forms()
        return f["R"] + self.config.penalty_C * f["R_pen"]

    def gamma_matrix(self):
        f = self.forms()
        return f["G"] + self.config.penalty_C * f["G_pen"]

    def tau_matrix(self):
        f = self.forms()
        return f["T"] + self.config.penalty_C * f["T_pen"]

    def a_theta(self, theta_param):
        """A(theta) = rho_h + theta*(gamma_h + tau_h)."""
        return (self.rho_matrix()
                + theta_param * (self.gamma_matrix() + self.tau_matrix()))

    def b_matrix(self):
        return self.forms()["B"]

    def c_matrix(self):
        return self.forms()["C"]

    def load_vector(self, loads: LoadSpec) -> np.ndarray:
        """Each load is evaluated once, on all volume or all S/F-edge
        quadrature points; the element and edge loops only contract."""
        layout = self.layout
        rhs = np.zeros(layout.n_primal)
        e = self._elem_data()
        vol = (loads.c1, loads.c2, loads.p1, loads.p2, loads.p3)
        if any(f is not None for f in vol):
            fv = (e.areas[:, None] * e.wq * e.geom.sqrt_a
                  * _load_values(vol, e.qpts))               # (5,nt,nq)
            for t in range(self.mesh.n_triangles):
                comps = _components(*self._element_strains(t).fields[::2])
                rhs[layout.element_dofs(t)] += np.einsum("cq,qic->i",
                                                         fv[:, t], comps)
        loaded = [ed for ed in self._edge_data()[1] if ed.edge.tag != "D"]
        if not loaded:
            return rhs
        pts = np.array([ed.pts for ed in loaded])                # (ne,nq,2)
        if loads.flux_provider is None:       # densities per arc length
            dens = _load_values((loads.r1, loads.r2, loads.q1, loads.q2,
                                 loads.q3), pts)                 # (5,ne,nq)
            weight = np.array([ed.arc for ed in loaded])
        else:   # r^a = m^ab n_b, q^g = (n^gb - b^g_a m^ab) n_b, q3 = t^a n_a
            m, nmem, tsh = (f.reshape(pts.shape[:2] + f.shape[1:]) for f in
                            batched(loads.flux_provider.boundary_fluxes,
                                    pts.reshape(-1, 2)))
            nbar = np.array([ed.nbar for ed in loaded])
            bm = np.einsum("eqga,eqab->eqgb",
                           np.array([ed.geom.b_mix for ed in loaded]), m)
            dens = np.concatenate([np.einsum("eqab,eb->aeq", m, nbar),
                                   np.einsum("eqgb,eb->geq", nmem - bm, nbar),
                                   np.einsum("eqa,ea->eq", tsh, nbar)[None]])
            weight = np.array([ed.geom.sqrt_a for ed in loaded])
        # forces act on F edges only
        dens[2:, np.array([ed.edge.tag == "S" for ed in loaded])] = 0.0
        for k, ed in enumerate(loaded):
            t = ed.edge.triangle
            comps = _components(*self._field_arrays(
                t, *self._trace_at(t, ed.pts))[::2])
            rhs[layout.element_dofs(t)] += np.einsum(
                "cq,qic->i", ed.h * ed.we * weight[k] * dens[:, k], comps)
        return rhs


def _aux_tensors(pv):
    """Membrane-stress and shear-stress basis tensors for the 5 auxiliary
    components per vertex; pv is (nq, nv) of P1 vertex values.  Local DOF
    5*vi + c is component c (M11, M22, M12, xi1, xi2) of vertex vi."""
    nq, nv = pv.shape
    nm = 5 * nv
    Mten = np.zeros((nq, nm, 2, 2))
    xiv = np.zeros((nq, nm, 2))
    for vi in range(nv):
        Mten[:, 5 * vi + 0, 0, 0] = pv[:, vi]
        Mten[:, 5 * vi + 1, 1, 1] = pv[:, vi]
        Mten[:, 5 * vi + 2, 0, 1] = pv[:, vi]
        Mten[:, 5 * vi + 2, 1, 0] = pv[:, vi]
        xiv[:, 5 * vi + 3, 0] = pv[:, vi]
        xiv[:, 5 * vi + 4, 1] = pv[:, vi]
    return Mten, xiv


def _aux_dofs(vertex_ids):
    """Block-local stress DOF indices (relative to the stress block)."""
    return np.array([5 * v + c for v in vertex_ids for c in range(5)])


def green_identity_check(tri_coords, chart, f_exprs,
                         quad_tri_degree: int = 8,
                         quad_edge_points: int = 5) -> float:
    """Surface Green identity probe: | int_tri f^a|_a - int_bnd f^a nbar_a sqrt(a) |
    for a vector field given by two expression ASTs (or strings)."""
    from . import expr as exprmod
    tri_coords = np.asarray(tri_coords, dtype=float)
    fs = [exprmod.parse(c) if isinstance(c, str) else c for c in f_exprs]
    dfs = [[exprmod.differentiate(f, v) for v in ("x1", "x2")] for f in fs]
    bary, wq = triangle_rule(quad_tri_degree)
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
    te, we = interval_rule(quad_edge_points)
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


def _positive_definite(K) -> bool:
    """Positive-definiteness of the symmetric matrix K, probed on
    K + 1e-12 tr(K)/n I, by Sylvester's law of inertia: K = L D L^T is PD iff
    every pivot in D is positive.  SuperLU in symmetric mode with diagonal
    pivoting yields U = D L^T while it keeps the diagonal pivots; it leaves
    the diagonal (or finds the factor singular) only at an exactly zero
    pivot, a singular leading minor, so K is then not PD."""
    n = K.shape[0]
    K = K + (1e-12 * K.diagonal().sum() / n) * sps.identity(n, format="csr")
    try:
        lu = factor(K)
    except RuntimeError:                 # exactly singular
        return False
    return bool(np.array_equal(lu.perm_r, lu.perm_c)
                and np.all(lu.U.diagonal() > 0))


def calibrate_assembler(asm: FormAssembler, max_doublings: int = 10) -> float:
    """Default penalty constant for the forms of `asm`: scale with the
    geometry magnitude, then double until A(1) is positive definite.  Each
    probe only rescales the penalty blocks of the assembled forms; `asm`'s
    config keeps the constant returned."""
    e = asm.chart.evaluate(asm.mesh.vertices)
    bsup = float(np.abs(e.b_cov).max() + np.abs(e.b_mix).max()) / 2.0
    gsup = float(np.abs(e.christoffel).max())
    C = 10.0 * asm.material.mu * (1.0 + bsup ** 2 + gsup ** 2)
    for _ in range(max_doublings + 1):
        asm.config = replace(asm.config, penalty_C=C)
        if _positive_definite(asm.a_theta(1.0)):
            return C
        C *= 2.0
    raise CalibrationError("penalty calibration failed: matrix not positive "
                           "definite after doubling the penalty constant")


def calibrate_penalty(mesh, chart, layout, material: Material,
                      config: AssemblyConfig, max_doublings: int = 10) -> float:
    """`calibrate_assembler` on a new assembler over `layout`."""
    return calibrate_assembler(
        FormAssembler(mesh, chart, layout, material, config), max_doublings)
