"""Global assembly of the shell bilinear forms and load functionals.

The assembler precomputes geometry and basis data at all element and edge
quadrature points once.  Every sweep then runs one batched kernel over
groups: elements grouped by local size (15, 21 or 27 DOFs), interior edges
by the local sizes of their two sides, boundary edges by local size and tag,
and arbitrary points by the local size of their element.  Each group is cut
into slices of at most geometry.POINT_BUDGET points, on which the basis is
traced once (value and physical partials of each function).  What a form
integrates, the strains of strain.py or on edges their jumps and fluxes, is
a per-point operator on the 15 values and partials of the five fields,
built from the geometry alone; applied to the traces it gives that quantity
for every local DOF ("B-matrix" assembly), and each local matrix is one
batched matmul.  `forms` records the DOFs of each slice once as a dense
block; one sort of the entries of all blocks gives the CSR structure that
the primal matrices share and the slot of every local entry, and each
matrix is one bincount of its local entries (`_csr_sums`).  Penalty
contributions are kept in separate matrices so the penalty constant can be
recalibrated without reassembling anything.  The same traces evaluate
fields at points (`field_values`), which is all the norms of norms.py need;
its one Gram matrix, Q_H, is summed the same way on the element blocks.

All square matrices are over the primal DOFs (blocks 1+2 of the layout);
the stress coupling block has shape (n_block3, n_primal).
"""

from __future__ import annotations

import ctypes
import os
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sps

from . import geometry, strain
from .fe_space import N_MONO, eval_monos, grad_monos
from .geometry import batched, eval_elastic
from .mesh import edge_normal
from .ordering import nested_dissection
from .quadrature import interval_rule, triangle_rule
from .solve import SolverError, factor, ordered

# glibc keeps the heap pages that the forms' temporaries freed resident;
# `forms` hands them back once it is built, which keeps them out of the
# later peaks, the factor's above all
_LIBC = ctypes.CDLL(None) if os.name == "posix" else None


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

    Callables of parameter points (n,2) -> (n,) give volume loads p1,p2,p3
    (forces) and c1,c2 (couples) and arc-length densities r1,r2 (moments on
    S and F) and q1,q2,q3 (forces on F).  Or a provider gives all loads from
    points and their geometry: volume_loads(points, geom) a dict of the five
    volume loads, boundary_fluxes(points, geom) the stress tensors m (n,2,2),
    nmem (n,2,2), t (n,2) to be contracted with the edge normal.  Each is
    called once per mesh, on all its quadrature points (volume or S/F edge);
    beyond geometry.POINT_BUDGET points, once per slice of at most that many.
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
    provider: object = None


def _load_values(loads, names, pts, geom):
    """The loads `names` (None reads zero) at all points pts (..., 2) with
    their geometry geom: an array (len(names),) + pts.shape[:-1]."""
    def at(p, g):
        got = loads.provider.volume_loads(p, g) if loads.provider else {
            k: getattr(loads, k)(p) for k in names if getattr(loads, k)}
        return np.stack([got.get(k, np.zeros(len(p))) for k in names], axis=1)
    return batched(at, pts.reshape(-1, 2), geom.reshape(-1)).T.reshape(
        (len(names),) + pts.shape[:-1])


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
    """(E, k, l) sums over points q and components of
    w[e, q] x[e, q, ..., k] y[e, q, ..., l]; w may be (q,), and x or y may
    have a leading axis of length 1."""
    wx = x * np.reshape(w, np.shape(w) + (1,) * (x.ndim - 2))
    wx = wx.reshape(wx.shape[:1] + (-1, wx.shape[-1]))
    return np.swapaxes(wx, 1, 2) @ y.reshape(y.shape[:1] + (-1, y.shape[-1]))


def _local_order(y):
    """Per-component values (..., 5, nf) of theta1, theta2, u1, u2, w in
    local DOF order (..., nl): theta1(3), theta2(3), u1(nf), u2(nf), w(nf);
    rotations are P1, the first three basis functions."""
    lead = y.shape[:-2]
    return np.concatenate([y[..., :2, :3].reshape(lead + (6,)),
                           y[..., 2:, :].reshape(lead + (-1,))], axis=-1)


def _apply(L, phi):
    """The per-point operator L (..., r, 15) on the value and partials of
    the five fields (column 3c + d), applied to every local DOF of the
    traces phi (..., 3, nf): (..., r, nl)."""
    r = L.shape[-2]
    y = L.reshape(L.shape[:-2] + (5 * r, 3)) @ phi
    return _local_order(y.reshape(y.shape[:-2] + (r, 5, -1)))


def _edge_operator(geom, A, nbar, theta):
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


def _csr_sums(shape, blocks, pieces):
    """Sparse matrices of shape `shape` on one CSR structure, the union of
    the dense blocks rows x cols of the index arrays (E, m) and (E, l) in
    `blocks`: for each key of the dict `pieces`, the sum of its values
    (E, m, l) on block b, [(b, values), ...], popped as it is summed.  One
    sort of the blocks' entries gives the structure and, through its
    inverse, the slot of every entry; each matrix is one bincount, which
    adds a slot's terms in piece order.  Every matrix shares the structure's
    arrays and stores an entry even where its terms cancel."""
    keys = np.concatenate([(r[:, :, None] * shape[1] + c[:, None, :]).ravel()
                           for r, c in blocks])
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.diff(keys, prepend=-1) != 0
    keys = keys[first]
    index = np.int32 if max(shape + (len(keys),)) < 2 ** 31 else np.int64
    slot = np.empty(len(order), dtype=index)
    slot[order] = np.cumsum(first, dtype=index) - 1
    del order, first
    rows, cols = np.divmod(keys, max(1, shape[1]))
    indices = cols.astype(index)
    indptr = np.searchsorted(rows, np.arange(shape[0] + 1)).astype(index)
    start = np.cumsum([0] + [r.size * c.shape[1] for r, c in blocks])
    out = {}
    for key in list(pieces):
        at = pieces.pop(key)
        data = np.bincount(
            np.concatenate([slot[start[b]:start[b + 1]] for b, _ in at]
                           + [np.zeros(0, dtype=index)]),
            np.concatenate([v.ravel() for _, v in at] + [np.zeros(0)]),
            minlength=len(keys))
        out[key] = sps.csr_matrix((data, indices, indptr), shape=shape)
    return out


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
        self._order = None

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
        aux = (5 * mesh.triangles[..., None] + np.arange(5)).reshape(nt, 15)
        self._elem = SimpleNamespace(bary=bary, wq=wq, coords=coords,
                                     areas=areas, Jinv=np.linalg.inv(J),
                                     qpts=qpts, geom=geom, elastic=elastic,
                                     nf=layout.nf, coeffs=layout.coeffs,
                                     dofs=layout.dofs, aux=aux)
        return self._elem

    def _dofs(self, t):
        """DOFs (E, nl) of the elements t (E,), all of one local size."""
        e = self._elem_data()
        return e.dofs[t, :6 + 3 * e.nf[t[0]]]

    def _traces(self, t, pts=None):
        """DOFs (E, nl) and basis traces phi (E, q, 3, nf) of the elements
        t (E,), all of one local size: the value and the two physical
        partials of each displacement basis function, at the volume
        quadrature points or at parameter points pts (E, q, 2)."""
        e = self._elem_data()
        if pts is None:
            lam12 = np.broadcast_to(e.bary[:, :2], (len(t), len(e.wq), 2))
        else:
            lam12 = np.einsum("eij,eqj->eqi", e.Jinv[t],
                              pts - e.coords[t, None, 2])
        jet = np.concatenate([eval_monos(lam12)[..., None, :], np.swapaxes(
            grad_monos(lam12) @ e.Jinv[t, None], -1, -2)], axis=-2)
        cf = e.coeffs[t, :e.nf[t[0]]]                            # (E,nf,10)
        phi = jet.reshape(len(t), -1, N_MONO) @ np.swapaxes(cf, 1, 2)
        return self._dofs(t), phi.reshape(jet.shape[:-1] + (-1,))

    def _point_batches(self, owners, pts=None):
        """(s, dofs, phi) per slice s of `owners` whose elements share a
        local size: `_traces` at pts[s], or at the volume points."""
        e = self._elem_data()
        nq = len(e.wq) if pts is None else pts.shape[1]
        for s in _groups(e.nf[owners, None], nq):
            yield (s,) + self._traces(owners[s], None if pts is None
                                      else pts[s])

    def field_values(self, primal, owners, pts=None):
        """Values (E, q, 5) and gradients (E, q, 5, 2) of theta1, theta2, u1,
        u2, w of the primal vector on the elements owners (E,) at parameter
        points pts (E, q, 2), or at the volume quadrature points; for a stack
        (k, n), with a leading axis k, all from one trace of each slice."""
        nq = len(self._elem_data().wq) if pts is None else pts.shape[1]
        X = np.reshape(primal, (-1, np.shape(primal)[-1]))
        jet = np.empty((len(X), len(owners), nq, 3, 5))
        for s, dofs, phi in self._point_batches(owners, pts):
            c = np.zeros((len(X), len(s), 5, phi.shape[-1]))  # rotations P1
            c[:, :, :2, :3] = X[:, dofs[:, :6]].reshape(len(X), len(s), 2, 3)
            c[:, :, 2:] = X[:, dofs[:, 6:]].reshape(len(X), len(s), 3, -1)
            c = c.transpose(1, 3, 0, 2).reshape(len(s), c.shape[-1], -1)
            jet[:, s] = np.moveaxis((phi.reshape(len(s), -1, c.shape[1]) @ c)
                                    .reshape(len(s), nq, 3, len(X), 5), 3, 0)
        jet = jet.reshape(np.shape(primal)[:-1] + jet.shape[1:])
        return jet[..., 0, :], np.swapaxes(jet[..., 1:, :], -1, -2)

    # --------------------------------------------------------------- edge data

    def _edge_data(self):
        """Stacked data of the interior and of the boundary edges: points,
        geometry and elastic tensors, h, normals pointing out of `left`, the
        owners `left` and `right` (-1 on the boundary) and tags ("" inside)."""
        if self._edges is not None:
            return self._edges
        mesh, mat = self.mesh, self.material
        te, we = interval_rule(self.config.quad_edge_points)

        def sweep(verts, h, left, right, tag):
            """The geometry of all edges evaluated at once."""
            ends = mesh.vertices[verts]
            pts = (ends[:, None, 0] * (1 - te)[:, None]
                   + ends[:, None, 1] * te[:, None])          # (ne,nq,2)
            geom = batched(self.chart.evaluate, pts)
            tang = ends[:, 1] - ends[:, 0]
            tang /= np.linalg.norm(tang, axis=1)[:, None]
            return SimpleNamespace(
                pts=pts, geom=geom, te=te, we=we, h=h, verts=verts, left=left,
                right=right, tag=tag,
                elastic=eval_elastic(geom, mat.lam, mat.mu, mat.kappa).elastic,
                arc=np.sqrt(np.einsum("eqab,ea,eb->eq", geom.a_cov, tang, tang)),
                nbar=edge_normal(mesh, verts, left))

        inner, outer = mesh.interior, mesh.boundary
        self._edges = (
            sweep(inner.pairs, inner.h, inner.left, inner.right,
                  np.full(len(inner.left), "")),
            sweep(outer.pairs, outer.h, outer.triangle,
                  np.full(len(outer.triangle), -1), outer.tag))
        return self._edges

    def _edge_batches(self, d):
        """Per slice k of the edges of `d` not tagged F that share the local
        sizes of their sides and their tag: (k, dofs, jumps, fluxes), rows
        0-12 and 13-17 of `_edge_operator` applied to every local DOF.  The
        jumps (E, q, 13, nl) are left minus right (one-sided on the
        boundary), the fluxes (E, q, 5, nl) the mean of the sides."""
        e = self._elem_data()
        keys = np.stack([e.nf[d.left], np.where(d.right < 0, -1, e.nf[d.right]),
                         np.unique(d.tag, return_inverse=True)[1]], axis=1)
        rows = np.flatnonzero(d.tag != "F")
        for k in (rows[s] for s in _groups(keys[rows], len(d.we))):
            op = _edge_operator(d.geom[k], d.elastic[k], d.nbar[k],
                                d.tag[k[0]] != "S")
            owners = [d.left[k]] + ([d.right[k]] if d.right[k[0]] >= 0 else [])
            sides = [self._traces(t, d.pts[k]) for t in owners]
            y = [_apply(op, phi) for _, phi in sides]
            yield (k, np.concatenate([dofs for dofs, _ in sides], axis=1),
                   np.concatenate([sign * yi[:, :, :13] for sign, yi in
                                   zip((1.0, -1.0), y)], axis=-1),
                   np.concatenate([yi[:, :, 13:] for yi in y], axis=-1)
                   / len(y))

    # ----------------------------------------------------------- global forms

    def forms(self):
        """Assemble all global matrices once: consistency parts and penalty
        parts of rho/gamma/tau, the stress coupling block, and the stress
        mass block."""
        if self._forms is not None:
            return self._forms
        mu, kappa = self.material.mu, self.material.kappa
        # the dense blocks (rows, cols) of the primal matrices and of B, and
        # each matrix's values on them, [(block, values), ...]
        square, coupling = [], []
        pieces = {key: [] for key in
                  ("R", "R_pen", "G", "G_pen", "T", "T_pen")}
        coupled = []
        e = self._elem_data()
        S = _aux_basis(e.bary)[None]                        # (1,nq,6,15)
        for t, dofs, phi in self._point_batches(
                np.arange(self.mesh.n_triangles)):
            B = _apply(strain.operator(e.geom[t]), phi)     # (E,nq,10,nl)
            rho, gam, tau = B[:, :, 0:4], B[:, :, 4:8], B[:, :, 8:10]
            wfac = e.areas[t, None] * e.wq * e.geom.sqrt_a[t]
            A = e.elastic.elastic[t].reshape(len(t), -1, 4, 4)
            b = len(square)
            square.append((dofs, dofs))
            pieces["R"].append((b, _gram(wfac, A @ rho, rho) / 3.0))
            pieces["G"].append((b, _gram(wfac, A @ gam, gam)))
            pieces["T"].append((b, kappa * mu * _gram(
                wfac, e.geom.a_con[t] @ tau, tau)))
            coupled.append((len(coupling), _gram(wfac, S, B[:, :, 4:10])))
            coupling.append((e.aux[t], dofs))

        for d in self._edge_data():
            Se = _aux_basis(np.stack([1 - d.te, d.te], axis=1))[None]
            for k, dofs, jump, flux in self._edge_batches(d):
                wsa = d.h[k, None] * d.we * d.geom.sqrt_a[k]  # consistency
                b = len(square)
                square.append((dofs, dofs))
                jth, ju, jw = jump[:, :, 0:2], jump[:, :, 2:4], jump[:, :, 4:5]
                for key, fac, x, y in (
                        ("R", 1.0 / 3.0, jump[:, :, 5:7], flux[:, :, 0:2]),
                        ("G", -1.0, ju, flux[:, :, 2:4]),
                        ("T", -kappa * mu, jw, flux[:, :, 4:5])):
                    X = _gram(wsa, x, y)
                    pieces[key].append((b, fac * (X + np.swapaxes(X, 1, 2))))
                # penalties: the h_e^{-1} weight cancels against h; rotations
                # not on S edges
                if d.tag[k[0]] != "S":
                    pieces["R_pen"].append((b, _gram(d.we, jth, jth)))
                pen_w = _gram(d.we, jw, jw)
                pieces["G_pen"].append((b, _gram(d.we, ju, ju) + pen_w))
                pieces["T_pen"].append((b, pen_w))
                # -(M^{ab}[v_a]n_b + xi^a [z]n_a), as in Se
                rows = (5 * d.verts[k, :, None]
                        + np.arange(5)).reshape(len(k), 10)
                coupled.append((len(coupling),
                                -_gram(wsa, Se, jump[:, :, 7:13])))
                coupling.append((rows, dofs))

        n, n3 = self.layout.n_primal, self.layout.n_block3
        forms = _csr_sums((n, n), square, pieces)
        forms.update(_csr_sums((n3, n), coupling, {"B": coupled}))
        forms.update(_csr_sums((n3, n3), [(e.aux, e.aux)],
                               {"C": [(0, self._stress_mass())]}))
        self._forms = forms
        if hasattr(_LIBC, "malloc_trim"):
            _LIBC.malloc_trim(0)
        return forms

    def _stress_mass(self):
        """Local stress mass blocks (nt, 3, 5, 3, 5): sum_q w (pv pv^T) (x) K
        with the P1 vertex values pv and K the compliance on M11, M22, M12
        and a_ab / (kappa mu) on xi1, xi2.  Only w and K depend on the
        element, so the point sum is one (nt, 25, q) @ (q, 9) product."""
        e = self._elem_data()
        nt, nq = e.qpts.shape[:2]
        M = np.array([[1, 0, 0], [0, 0, 1], [0, 0, 1], [0, 1, 0]])
        K = np.zeros((nt, nq, 5, 5))
        K[..., :3, :3] = M.T @ e.elastic.compliance.reshape(nt, nq, 4, 4) @ M
        K[..., 3:, 3:] = e.geom.a_cov / (self.material.kappa * self.material.mu)
        wK = (e.areas[:, None] * e.wq * e.geom.sqrt_a)[..., None, None] * K
        P = (e.bary[:, :, None] * e.bary[:, None, :]).reshape(nq, 9)
        return (np.swapaxes(wK.reshape(nt, nq, 25), 1, 2) @ P).reshape(
            nt, 5, 5, 3, 3).transpose(0, 3, 1, 4, 2)

    # ------------------------------------------------------------- public API

    def dof_order(self, n: int = None) -> np.ndarray:
        """The fill-reducing order of the layout's unknowns, computed once
        from the mesh (ordering.py), restricted to the leading n of them
        (all by default): every system solved here is a leading block."""
        if self._order is None:
            self._order = nested_dissection(self.mesh, self.layout)
        o = self._order
        return o if n is None else o[o < n]

    def _penalized(self, key):
        """Data of the form `key` plus the penalty constant times its
        penalty part, on the CSR structure that all six share."""
        f = self.forms()
        return f[key].data + self.config.penalty_C * f[key + "_pen"].data

    def a_theta(self, theta_param):
        """A(theta) = rho_h + theta*(gamma_h + tau_h), summed entry by entry
        on the forms' structure: an entry that cancels stays stored, so the
        structure of every system does not depend on rounding."""
        R = self.forms()["R"]
        return sps.csr_matrix((self._penalized("R") + theta_param * (
            self._penalized("G") + self._penalized("T")), R.indices, R.indptr),
            shape=R.shape)

    def b_matrix(self):
        return self.forms()["B"]

    def c_matrix(self):
        return self.forms()["C"]

    def _scatter(self, owners, pts, f):
        """Primal vector of the integrals of f (E, q, 5), already weighted,
        against theta1, theta2, u1, u2, w of every local DOF of owners (E,)
        at points pts (E, q, 2) (or the volume points)."""
        out = np.zeros(self.layout.n_primal)
        for s, dofs, phi in self._point_batches(owners, pts):
            loc = _local_order(np.swapaxes(f[s], 1, 2) @ phi[:, :, 0])
            out += np.bincount(dofs.ravel(), loc.ravel(), minlength=len(out))
        return out

    def load_vector(self, loads: LoadSpec) -> np.ndarray:
        """Each load is evaluated once, on all volume or all S/F-edge
        quadrature points; the grouped kernel only contracts."""
        rhs = np.zeros(self.layout.n_primal)
        e = self._elem_data()
        vol = ("c1", "c2", "p1", "p2", "p3")
        if loads.provider or any(getattr(loads, k) is not None for k in vol):
            fv = (e.areas[:, None] * e.wq * e.geom.sqrt_a
                  * _load_values(loads, vol, e.qpts, e.geom))  # (5,nt,nq)
            rhs += self._scatter(np.arange(self.mesh.n_triangles), None,
                                 np.moveaxis(fv, 0, -1))
        d = self._edge_data()[1]
        loaded = np.flatnonzero(d.tag != "D")
        if not len(loaded):
            return rhs
        pts, g = d.pts[loaded], d.geom[loaded]                   # (ne,nq,2)
        if loads.provider is None:            # densities per arc length
            dens = _load_values(loads, ("r1", "r2", "q1", "q2", "q3"), pts,
                                g)                               # (5,ne,nq)
            weight = d.arc[loaded]
        else:   # r^a = m^ab n_b, q^g = (n^gb - b^g_a m^ab) n_b, q3 = t^a n_a
            m, nmem, tsh = (f.reshape(pts.shape[:2] + f.shape[1:]) for f in
                            batched(loads.provider.boundary_fluxes,
                                    pts.reshape(-1, 2), g.reshape(-1)))
            nbar = d.nbar[loaded]
            bm = g.b_mix @ m
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
    per vertex, (q, 6, 5 nv) with value components M^11, M^12, M^21, M^22,
    xi^1, xi^2, from P1 vertex values pv (q, nv).  Local DOF 5*vi + c is
    component c (M11, M22, M12, xi1, xi2) of vertex vi."""
    nq, nv = pv.shape
    S = np.zeros((nq, 6, nv, 5))
    for c, comps in enumerate(((0,), (3,), (1, 2), (4,), (5,))):
        for j in comps:
            S[:, j, :, c] = pv
    return S.reshape(nq, 6, 5 * nv)


def _positive_definite(K, order) -> bool:
    """Positive-definiteness of the symmetric matrix K, probed on
    K + 1e-12 tr(K)/n I factored in `order`, by Sylvester's law of inertia:
    K = L D L^T is PD iff every pivot in D is positive.  SuperLU in
    symmetric mode with diagonal pivoting yields U = D L^T while it keeps
    the diagonal pivots; it leaves the diagonal (or finds the factor
    singular) only at an exactly zero pivot, a singular leading minor, so K
    is then not PD.  The shift goes onto the stored diagonal of the ordered
    copy, so the probe factors K's pattern; an unstored diagonal stays 0."""
    shift = 1e-12 * K.diagonal().sum() / K.shape[0]
    K = ordered(K, order)
    K.data[K.indices == np.repeat(np.arange(K.shape[1]),
                                  np.diff(K.indptr))] += shift
    try:
        lu = factor(K)
    except RuntimeError:                 # exactly singular
        return False
    return bool(np.array_equal(lu.perm_r, lu.perm_c)
                and np.all(lu.U.diagonal() > 0))


def calibrate_penalty(asm: FormAssembler, max_doublings: int = 10) -> float:
    """Default penalty constant for the forms of `asm`: scale with the
    geometry magnitude, then double until A(1) is positive definite.  Each
    probe only rescales the penalty blocks of the assembled forms; `asm`'s
    config keeps the constant returned."""
    e = asm.chart.evaluate(asm.mesh.vertices)
    bsup = float(np.abs(e.b_cov).max() + np.abs(e.b_mix).max()) / 2.0
    gsup = float(np.abs(e.christoffel).max())
    C = 10.0 * asm.material.mu * (1.0 + bsup ** 2 + gsup ** 2)
    order = asm.dof_order(asm.layout.n_primal)
    for _ in range(max_doublings + 1):
        asm.config = replace(asm.config, penalty_C=C)
        if _positive_definite(asm.a_theta(1.0), order):
            return C
        C *= 2.0
    raise CalibrationError("penalty calibration failed: matrix not positive "
                           "definite after doubling the penalty constant")

