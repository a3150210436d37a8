"""Global assembly of the shell bilinear forms and load functionals.

The assembler precomputes geometry and basis data at all element and edge
quadrature points once.  Every sweep then runs one batched kernel over
groups: elements grouped by local size (15, 21 or 27 DOFs), interior edges
by the local sizes of their two sides, boundary edges by local size and tag,
and arbitrary points by the local size of their element.  Each group is cut
into slices of at most geometry.POINT_BUDGET points, on which basis traces,
field arrays and strains carry a leading element axis and each local matrix
is one batched matmul.  The primal matrices share one CSR pattern (element
blocks and interior-edge pair blocks); each is one bincount of its local
entries into that pattern.  Penalty contributions are kept in separate
matrices so the penalty constant can be recalibrated without reassembling
anything.

All square matrices are over the primal DOFs (blocks 1+2 of the layout);
the stress coupling block has shape (n_block3, n_primal).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sps

from . import geometry, strain
from .fe_space import N_MONO, eval_monos, grad_monos
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


def _groups(keys, npts):
    """Row indices of the integer array `keys` (N, m) grouped by equal rows,
    each group cut into slices of at most POINT_BUDGET points at `npts`
    points a row."""
    if not len(keys):
        return
    step = max(1, geometry.POINT_BUDGET // npts)
    _, inv = np.unique(keys, axis=0, return_inverse=True)
    inv = inv.ravel()
    for g in range(inv.max() + 1):
        rows = np.flatnonzero(inv == g)
        for i in range(0, len(rows), step):
            yield rows[i:i + step]


def _gram(w, x, y):
    """(E, k, l) sums over points q and trailing components of
    w[e, q] x[e, k, q, ...] y[e, l, q, ...]; w may be (q,), and x or y may
    have a leading axis of length 1."""
    wx = x * np.reshape(w, np.shape(w)[:-1] + (1, -1) + (1,) * (x.ndim - 3))
    wx = wx.reshape(wx.shape[:2] + (-1,))
    return wx @ np.swapaxes(y.reshape(y.shape[:2] + (-1,)), 1, 2)


def _field_arrays(vals, grads):
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


class _Pattern:
    """CSR pattern of a union of dense blocks, rows x cols for each pair of
    index arrays (E, m) and (E, l) in `blocks`.  Local block values are
    summed into it with one bincount per matrix."""

    def __init__(self, shape, blocks):
        self.shape = shape
        # sorted unique keys (np.unique hashes, which is far slower here)
        keys = np.sort(np.concatenate([self._keys(r, c).ravel()
                                       for r, c in blocks]
                                      + [np.zeros(0, dtype=int)]))
        self.keys = keys[np.diff(keys, prepend=-1) != 0]

    def _keys(self, rows, cols):
        return rows[:, :, None] * self.shape[1] + cols[:, None, :]

    def slots(self, rows, cols):
        """Data slot of every entry of the blocks rows x cols."""
        return np.searchsorted(self.keys, self._keys(rows, cols))

    def data(self, pieces):
        """Sum of the local values of pieces [(slots, values), ...]."""
        if not pieces:
            return np.zeros(len(self.keys))
        return np.bincount(np.concatenate([s.ravel() for s, _ in pieces]),
                           np.concatenate([v.ravel() for _, v in pieces]),
                           minlength=len(self.keys))

    def csr(self, data):
        rows, cols = np.divmod(self.keys, max(1, self.shape[1]))
        indptr = np.searchsorted(rows, np.arange(self.shape[0] + 1))
        return sps.csr_matrix((data, cols, indptr), shape=self.shape)


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
        self._patterns = None
        self._forms = None

    # ------------------------------------------------------------ element data

    def _elem_data(self):
        if self._elem is not None:
            return self._elem
        mesh, chart, layout = self.mesh, self.chart, self.layout
        bary, wq = triangle_rule(self.config.quad_tri_degree)
        nt = mesh.n_triangles
        coords = mesh.vertices[mesh.triangles]                      # (nt,3,2)
        v0, v1, v2 = coords[:, 0], coords[:, 1], coords[:, 2]
        d1, d2 = v1 - v0, v2 - v0
        areas = 0.5 * np.abs(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
        J = np.stack([v0 - v2, v1 - v2], axis=-1)                   # (nt,2,2)
        qpts = np.einsum("qi,tix->tqx", bary, coords)               # (nt,nq,2)
        geom = batched(chart.evaluate, qpts)
        elastic = eval_elastic(geom, self.material.lam, self.material.mu,
                               self.material.kappa)
        # basis coefficients and DOFs, padded to the largest local size
        nf = np.array([lb.n_funcs for lb in layout.bases])
        coeffs = np.zeros((nt, nf.max(), N_MONO))
        dofs = np.full((nt, 6 + 3 * nf.max()), -1)
        for t, lb in enumerate(layout.bases):
            coeffs[t, :nf[t]] = lb.coeffs
            dofs[t, :6 + 3 * nf[t]] = layout.element_dofs(t)
        aux = (5 * mesh.triangles[..., None] + np.arange(5)).reshape(nt, 15)
        self._elem = SimpleNamespace(bary=bary, wq=wq, coords=coords,
                                     areas=areas, Jinv=np.linalg.inv(J),
                                     qpts=qpts, geom=geom, elastic=elastic,
                                     nf=nf, coeffs=coeffs, dofs=dofs, aux=aux)
        return self._elem

    def _dofs(self, t):
        """DOFs (E, nl) of the elements t (E,), all of one local size."""
        e = self._elem_data()
        return e.dofs[t, :6 + 3 * e.nf[t[0]]]

    def _local(self, t, pts=None):
        """DOFs (E, nl) and the field arrays (c, cg) of `_field_arrays` of
        the elements t (E,), all of one local size, at the volume quadrature
        points or at parameter points pts (E, q, 2)."""
        e = self._elem_data()
        if pts is None:
            lam12 = np.broadcast_to(e.bary[:, :2], (len(t), len(e.wq), 2))
        else:
            lam12 = np.einsum("eij,eqj->eqi", e.Jinv[t],
                              pts - e.coords[t, None, 2])
        cf = e.coeffs[t, :e.nf[t[0]]]                               # (E,nf,10)
        vals = cf @ np.swapaxes(eval_monos(lam12), 1, 2)            # (E,nf,q)
        gmonos = np.moveaxis(grad_monos(lam12), 2, 1)               # (E,10,q,2)
        grads = ((cf @ gmonos.reshape(len(t), N_MONO, -1))
                 .reshape(vals.shape + (2,)) @ e.Jinv[t, None])
        return self._dofs(t), _field_arrays(vals, grads)

    def _point_batches(self, owners, pts=None):
        """(s, dofs, (c, cg)) per slice s of `owners` whose elements share a
        local size: `_local` at pts[s], or at the volume points."""
        e = self._elem_data()
        nq = len(e.wq) if pts is None else pts.shape[1]
        for s in _groups(e.nf[owners, None], nq):
            yield (s,) + self._local(owners[s], None if pts is None
                                     else pts[s])

    def _element_batches(self):
        """(t, dofs, (c, cg), (rho, gamma, tau)) per slice t of elements of
        one local size, at the volume quadrature points."""
        geom = self._elem_data().geom
        for t, dofs, f in self._point_batches(np.arange(self.mesh.n_triangles)):
            yield t, dofs, f, strain.field_strains(*f, geom[t, None])

    def field_values(self, primal, owners, pts=None):
        """Values (E, q, 5) and gradients (E, q, 5, 2) of theta1, theta2, u1,
        u2, w of the primal vector on the elements owners (E,) at parameter
        points pts (E, q, 2), or at the volume quadrature points."""
        nq = len(self._elem_data().wq) if pts is None else pts.shape[1]
        vals = np.empty((len(owners), nq, 5))
        grads = np.empty((len(owners), nq, 5, 2))
        for s, dofs, (c, cg) in self._point_batches(owners, pts):
            vals[s] = np.einsum("ekqc,ek->eqc", c, primal[dofs])
            grads[s] = np.einsum("ekqcd,ek->eqcd", cg, primal[dofs])
        return vals, grads

    # --------------------------------------------------------------- edge data

    def _edge_data(self):
        """Stacked data of the interior and of the boundary edges: points,
        geometry and elastic tensors, h, normals pointing out of `left`, the
        owners `left` and `right` (-1 on the boundary) and tags ("" inside)."""
        if self._edges is not None:
            return self._edges
        mesh, mat = self.mesh, self.material
        te, we = interval_rule(self.config.quad_edge_points)

        def sweep(edges, h, left, right, tag):
            """The geometry of all edges evaluated at once."""
            verts = np.array([e.vertices for e in edges],
                             dtype=int).reshape(-1, 2)
            ends = mesh.vertices[verts]
            pts = (ends[:, None, 0] * (1 - te)[:, None]
                   + ends[:, None, 1] * te[:, None])          # (ne,nq,2)
            geom = batched(self.chart.evaluate, pts)
            tang = ends[:, 1] - ends[:, 0]
            tang /= np.linalg.norm(tang, axis=1)[:, None]
            left = np.array(left, dtype=int)
            return SimpleNamespace(
                pts=pts, geom=geom, te=te, we=we, h=h, verts=verts, left=left,
                right=np.array(right, dtype=int), tag=np.array(tag, dtype=str),
                elastic=eval_elastic(geom, mat.lam, mat.mu, mat.kappa).elastic,
                arc=np.sqrt(np.einsum("eqab,ea,eb->eq", geom.a_cov, tang, tang)),
                nbar=np.array([edge_normal(mesh, v, t) for v, t in
                               zip(verts, left)]).reshape(-1, 2))

        inner, outer = mesh.interior_edges, mesh.boundary_edges
        self._edges = (
            sweep(inner, mesh.h_e_interior, [e.left for e in inner],
                  [e.right for e in inner], [""] * len(inner)),
            sweep(outer, mesh.h_e_boundary, [e.triangle for e in outer],
                  [-1] * len(outer), [e.tag for e in outer]))
        return self._edges

    def _edge_batches(self, d):
        """Per slice k of the edges of `d` not tagged F that share the local
        sizes of their sides and their tag: (k, dofs, jumps, strains).  The
        jumps are the values (E, nl, q, 5) of left minus right (one-sided on
        the boundary), the strains (rho, gamma, tau) the mean of the sides."""
        e = self._elem_data()
        keys = np.stack([e.nf[d.left], np.where(d.right < 0, -1, e.nf[d.right]),
                         np.unique(d.tag, return_inverse=True)[1]], axis=1)
        rows = np.flatnonzero(d.tag != "F")
        for k in (rows[s] for s in _groups(keys[rows], len(d.we))):
            owners = [d.left[k]] + ([d.right[k]] if d.right[k[0]] >= 0 else [])
            sides = [self._local(t, d.pts[k]) for t in owners]
            strains = [strain.field_strains(*f, d.geom[k, None])
                       for _, f in sides]
            yield (k, np.concatenate([dofs for dofs, _ in sides], axis=1),
                   np.concatenate([sign * c for sign, (_, (c, _)) in
                                   zip((1.0, -1.0), sides)], axis=1),
                   [np.concatenate(x, axis=1) / len(sides)
                    for x in zip(*strains)])

    def _pattern(self):
        """CSR patterns of the primal matrices (element blocks and
        interior-edge pair blocks), of B and of C (element blocks)."""
        if self._patterns is None:
            e = self._elem_data()
            d = self._edge_data()[0]
            n, n3 = self.layout.n_primal, self.layout.n_block3
            groups = list(_groups(e.nf[:, None], 1))
            blocks = [(self._dofs(t),) * 2 for t in groups]
            for k in _groups(np.stack([e.nf[d.left], e.nf[d.right]], 1), 1):
                pair = np.concatenate([self._dofs(d.left[k]),
                                       self._dofs(d.right[k])], axis=1)
                blocks.append((pair, pair))
            aux = self.layout.with_aux
            self._patterns = (
                _Pattern((n, n), blocks),
                _Pattern((n3, n), [(e.aux[t], self._dofs(t)) for t in groups]
                         if aux else []),
                _Pattern((n3, n3), [(e.aux, e.aux)] if aux else []))
        return self._patterns

    # ----------------------------------------------------------- global forms

    def forms(self):
        """Assemble all global matrices once: consistency parts and penalty
        parts of rho/gamma/tau, the stress coupling block, and the stress
        mass block."""
        if self._forms is not None:
            return self._forms
        mu, kappa = self.material.mu, self.material.kappa
        aux = self.layout.with_aux
        primal, coupling, stress = self._pattern()
        pieces = {key: [] for key in
                  ("R", "R_pen", "G", "G_pen", "T", "T_pen", "B", "C")}
        e = self._elem_data()
        S = _aux_basis(e.bary)[None]                        # (1,15,nq,6)
        M, xi = S[..., :4].reshape(S.shape[:3] + (2, 2)), S[..., 4:]
        for t, dofs, _, (rho, gam, tau) in self._element_batches():
            wfac = e.areas[t, None] * e.wq * e.geom.sqrt_a[t]
            A = e.elastic.elastic[t]
            slots = primal.slots(dofs, dofs)
            arho = np.einsum("eqabcd,ekqcd->ekqab", A, rho)
            agam = np.einsum("eqabcd,ekqcd->ekqab", A, gam)
            atau = np.einsum("eqab,ekqa->ekqb", e.geom.a_con[t], tau)
            pieces["R"].append((slots, _gram(wfac, arho, rho) / 3.0))
            pieces["G"].append((slots, _gram(wfac, agam, gam)))
            pieces["T"].append((slots, kappa * mu * _gram(wfac, atau, tau)))
            if aux:
                gt = np.concatenate([gam.reshape(tau.shape[:3] + (4,)), tau],
                                    axis=-1)
                pieces["B"].append((coupling.slots(e.aux[t], dofs),
                                    _gram(wfac, S, gt)))
                cM = np.einsum("eqabcd,mqcd->emqab", e.elastic.compliance[t],
                               M[0])
                axi = np.einsum("eqab,mqb->emqa", e.geom.a_cov[t], xi[0])
                pieces["C"].append((stress.slots(e.aux[t], e.aux[t]),
                                    _gram(wfac, cM, M)
                                    + _gram(wfac, axi, xi) / (kappa * mu)))

        for d in self._edge_data():
            Se = _aux_basis(np.stack([1 - d.te, d.te], axis=1))[None]
            for k, dofs, jump, (rho, gam, tau) in self._edge_batches(d):
                jth, ju, jw = jump[..., :2], jump[..., 2:4], jump[..., 4]
                g, A, nbar = d.geom[k], d.elastic[k], d.nbar[k]
                wsa = d.h[k, None] * d.we * g.sqrt_a    # consistency weight
                theta = d.tag[k[0]] != "S"              # rotations: not on S
                slots = primal.slots(dofs, dofs)
                arho = np.einsum("eqabcd,ekqcd,eb->ekqa", A, rho, nbar)
                bju = np.einsum("eqda,ekqd->ekqa", g.b_mix, ju)
                agam = np.einsum("eqdbag,ekqag,eb->ekqd", A, gam, nbar)
                atau = np.einsum("eqab,ekqb,ea->ekq", g.a_con, tau, nbar)
                for key, fac, x, y in (
                        ("R", 1.0 / 3.0, bju - jth if theta else bju, arho),
                        ("G", -1.0, ju, agam), ("T", -kappa * mu, jw, atau)):
                    X = _gram(wsa, x, y)
                    pieces[key].append((slots, fac * (X + np.swapaxes(X, 1, 2))))
                # penalties: the h_e^{-1} weight cancels against h
                if theta:
                    pieces["R_pen"].append((slots, _gram(d.we, jth, jth)))
                pen_w = _gram(d.we, jw, jw)
                pieces["G_pen"].append((slots, _gram(d.we, ju, ju) + pen_w))
                pieces["T_pen"].append((slots, pen_w))
                if aux:
                    # stress coupling -(M^{ab}[v_a]n_b + xi^a [z]n_a): the
                    # products [u_a]n_b, [w]n_a match the components of Se
                    un = jump[..., 2:, None] * nbar[:, None, None, None]
                    rows = (5 * d.verts[k, :, None]
                            + np.arange(5)).reshape(len(k), 10)
                    pieces["B"].append((coupling.slots(rows, dofs),
                                        -_gram(wsa, Se, un)))

        forms = {key: primal.csr(primal.data(pieces.pop(key))) for key in
                 ("R", "R_pen", "G", "G_pen", "T", "T_pen")}
        forms["B"] = coupling.csr(coupling.data(pieces["B"]))
        forms["C"] = stress.csr(stress.data(pieces["C"]))
        self._forms = forms
        return forms

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

    def _scatter(self, owners, pts, f):
        """Primal vector of the integrals of f (E, q, 5), already weighted,
        against theta1, theta2, u1, u2, w of every local DOF of owners (E,)
        at points pts (E, q, 2) (or the volume points)."""
        out = np.zeros(self.layout.n_primal)
        for s, dofs, (c, _) in self._point_batches(owners, pts):
            loc = np.einsum("ekqc,eqc->ek", c, f[s])
            out += np.bincount(dofs.ravel(), loc.ravel(), minlength=len(out))
        return out

    def load_vector(self, loads: LoadSpec) -> np.ndarray:
        """Each load is evaluated once, on all volume or all S/F-edge
        quadrature points; the grouped kernel only contracts."""
        rhs = np.zeros(self.layout.n_primal)
        e = self._elem_data()
        vol = (loads.c1, loads.c2, loads.p1, loads.p2, loads.p3)
        if any(f is not None for f in vol):
            fv = (e.areas[:, None] * e.wq * e.geom.sqrt_a
                  * _load_values(vol, e.qpts))               # (5,nt,nq)
            rhs += self._scatter(np.arange(self.mesh.n_triangles), None,
                                 np.moveaxis(fv, 0, -1))
        d = self._edge_data()[1]
        loaded = np.flatnonzero(d.tag != "D")
        if not len(loaded):
            return rhs
        pts = d.pts[loaded]                                      # (ne,nq,2)
        if loads.flux_provider is None:       # densities per arc length
            dens = _load_values((loads.r1, loads.r2, loads.q1, loads.q2,
                                 loads.q3), pts)                 # (5,ne,nq)
            weight = d.arc[loaded]
        else:   # r^a = m^ab n_b, q^g = (n^gb - b^g_a m^ab) n_b, q3 = t^a n_a
            m, nmem, tsh = (f.reshape(pts.shape[:2] + f.shape[1:]) for f in
                            batched(loads.flux_provider.boundary_fluxes,
                                    pts.reshape(-1, 2)))
            nbar, g = d.nbar[loaded], d.geom[loaded]
            bm = np.einsum("eqga,eqab->eqgb", g.b_mix, m)
            dens = np.concatenate([np.einsum("eqab,eb->aeq", m, nbar),
                                   np.einsum("eqgb,eb->geq", nmem - bm, nbar),
                                   np.einsum("eqa,ea->eq", tsh, nbar)[None]])
            weight = g.sqrt_a
        # forces act on F edges only
        dens[2:, d.tag[loaded] == "S"] = 0.0
        f = d.h[loaded, None] * d.we * weight * dens
        return rhs + self._scatter(d.left[loaded], pts, np.moveaxis(f, 0, -1))


def _aux_basis(pv):
    """Membrane- and shear-stress basis values of the 5 auxiliary components
    per vertex, (5 nv, q, 6) with value components M^11, M^12, M^21, M^22,
    xi^1, xi^2, from P1 vertex values pv (q, nv).  Local DOF 5*vi + c is
    component c (M11, M22, M12, xi1, xi2) of vertex vi."""
    nq, nv = pv.shape
    S = np.zeros((nv, 5, nq, 6))
    for c, comps in enumerate(((0,), (3,), (1, 2), (4,), (5,))):
        for j in comps:
            S[:, c, :, j] = pv.T
    return S.reshape(5 * nv, nq, 6)


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
