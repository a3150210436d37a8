"""Global assembly of the shell bilinear forms and load functionals.

The assembler precomputes geometry and basis data at all element and edge
quadrature points once, until `release` drops them with the forms before
a study's last factor; a later read rebuilds them.  Every sweep then runs
one batched kernel over groups: elements grouped by local size (15, 21 or
27 DOFs), interior edges by the local sizes of their two sides, boundary
edges by local size and the fields they join (`fe_space.JOINS`), and
arbitrary points by the local size of their element.  Each group is cut
into slices of at most SLICE_BUDGET (point, local DOF) pairs, on which the
basis is traced once (value and physical partials of each function); the
cap is on what a slice materialises, so a slice of 54-DOF edge blocks
holds fewer points than one of 15-DOF elements.  What a form integrates,
the strains of strain.py or on edges their normal fluxes, is a per-point
operator on the 15 values and partials of the five fields, built from the
geometry alone; applied to the traces it gives that quantity for every
local DOF ("B-matrix" assembly), and each local matrix is one batched
matmul.  The edge jumps read the basis values alone, so each field's
block of them is one scaled copy of the values, and the penalties, which
are Gram matrices of the jumps of some fields, are summed on those
fields' columns only.  On P1 elements the component-major order of an
operator's result is already the local DOF order, so it is not copied.
The structure comes first: `forms` lists the slices and the DOFs
of each, a dense block, before it computes any value.  Each row has one
owner whose rows share one column list, an element for the (discontinuous)
primal DOFs and a vertex for its 5 stress DOFs, so one sort of the
(owner, column) pairs of all blocks gives the CSR structure that the
primal matrices share (`_Sums`); a block's slots are made when its values
are added.  Each slice's values are scattered into the matrices' data
arrays as they are made, and freed, so no more than one slice of values
is held at a time.  The elastic tensors too are made per slice, once at
each point: an element slice reads the tensor for R and GT and its
inverse, the compliance, for the stress mass C, so every local matrix, C's
too, is one `_gram` on a slice.  The primal forms are the four that the
solves read: R, the bending form, and GT, the membrane and shear forms
summed, each with its penalty part (R_pen, GT_pen) in a matrix of its own,
so the penalty constant can be recalibrated without reassembling
anything.  The same traces evaluate fields at points (`field_values`),
which with `_normal_flux` is all the norms and energies of norms.py
need; its one Gram matrix, Q_H, is summed the same way on the same blocks.

All square matrices are over the primal DOFs (blocks 1+2 of the layout);
the stress coupling block has shape (n_block3, n_primal).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sps

from . import strain
from .fe_space import JOINS, N_MONO, eval_monos, grad_monos
from .geometry import batched, eval_elastic
from .mesh import edge_normal
from .ordering import nested_dissection
from .quadrature import interval_rule, triangle_rule
from .solve import SolverError, positive_definite

# (point, local DOF) pairs in one slice of the grouped kernel, which bounds
# what a slice materialises: an edge slice's 13 rows of jumps take 6.8 MB
# at this budget and its 5 rows of fluxes 2.6 MB
SLICE_BUDGET = 1 << 16


class CalibrationError(SolverError):
    """No penalty constant within the doublings made A(1) positive definite."""


@dataclass
class Material:
    lam: float = 1.0
    mu: float = 1.0
    kappa: float = 5.0 / 6.0


@dataclass
class AssemblyConfig:
    penalty_C: float = None       # None: calibrated on first use
    quad_tri_degree: int = 8
    quad_edge_points: int = 5


@dataclass
class LoadSpec:
    """Right-hand-side description.

    Callables of parameter points (n,2) -> (n,) give volume loads p1,p2,p3
    (forces) and c1,c2 (couples) and arc-length densities r1,r2 (moments)
    and q1,q2,q3 (forces) on the boundary; each density acts on its field,
    theta1, theta2, u1, u2 or w, on the edges that leave that field free
    (`fe_space.JOINS`).  Or a provider gives all loads from points and their
    geometry: volume_loads(points, geom) a dict of the five volume loads,
    boundary_fluxes(points, geom) the stress tensors m (n,2,2), nmem
    (n,2,2), t (n,2) to be contracted with the edge normal.  Each is called
    once per mesh, on all its quadrature points (volume, or of the boundary
    edges that leave some field free); beyond geometry.POINT_BUDGET points,
    once per slice of at most that many.
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


def _groups(keys, npts, nl):
    """Row indices of the integer array `keys` (N, m) grouped by equal rows,
    each group cut into slices of at most SLICE_BUDGET (point, local DOF)
    pairs at `npts` points a row and nl (N,) local DOFs, equal in a group."""
    if not len(keys):
        return
    _, inv = np.unique(keys, axis=0, return_inverse=True)
    inv = inv.ravel()
    for g in range(inv.max() + 1):
        rows = np.flatnonzero(inv == g)
        step = max(1, SLICE_BUDGET // (npts * nl[rows[0]]))
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
    rotations are P1, the first three basis functions.  On P1 elements
    (nf = 3) that is the component-major order, so a view when y is one."""
    lead = y.shape[:-2]
    if y.shape[-1] == 3:
        return y.reshape(lead + (15,))
    return np.concatenate([y[..., :2, :3].reshape(lead + (6,)),
                           y[..., 2:, :].reshape(lead + (-1,))], axis=-1)


def _field_columns(nf):
    """The local DOF columns of theta1, theta2, u1, u2 and w on an element
    of nf displacement functions."""
    return [slice(0, 3), slice(3, 6)] + [slice(6 + i * nf, 6 + (i + 1) * nf)
                                         for i in range(3)]


def _apply(L, phi):
    """The per-point operator L (..., r, 15) on the value and partials of
    the five fields (column 3c + d), applied to every local DOF of the
    traces phi (..., 3, nf): (..., r, nl)."""
    r = L.shape[-2]
    y = L.reshape(L.shape[:-2] + (5 * r, 3)) @ phi
    return _local_order(y.reshape(y.shape[:-2] + (r, 5, -1)))


def _consistency_jump(b_mix, jump):
    """b^d_a [u_d] - [theta_a] (..., 2) of the jumps (..., 5) of the five
    fields, at points of b_mix (..., 2, 2)."""
    return np.einsum("...da,...d->...a", b_mix, jump[..., 2:4]) - jump[..., :2]


def _normal_flux(geom, A, nbar, s):
    """The normal fluxes (..., E, q, 5, m) on edges with normals nbar (E, 2)
    and elastic tensors A (E, q, 2, 2, 2, 2) of the strain rows s
    (..., E, q, 10, m) of strain.py, be they the strain operator's (m = 15)
    or a field's strains (m = 1): (A rho)^{ab} n_b, (A gamma)^{ab} n_b and
    a^{ab} tau_b n_a."""
    An = sum(A[..., :, b, :, :] * nbar[:, b, None, None, None, None]
             for b in (0, 1)).reshape(A.shape[:-4] + (2, 4))
    return np.concatenate([An @ s[..., 0:4, :], An @ s[..., 4:8, :],
                           nbar[:, None, None] @ geom.a_con @ s[..., 8:10, :]],
                          axis=-2)


class _Sums:
    """Sparse matrices `names` of shape `shape` on one CSR structure, known
    before any value is.  Every row has one owner: row o of `table` lists
    the rows of owner o, padded with -1.  Each of the dense `blocks`, a
    pair of index arrays (E, k) and (E, l), has for its rows those of its k
    owners, one owner after another, and for its columns the l given ones,
    so all the rows of an owner share one column list, the union of the
    columns of its blocks.  One sort of the (owner, column) pairs of all
    blocks gives every owner's list and its place in it; the rows' lengths
    give indptr, and one gather of the lists gives indices.  A block's
    slots, the start of the row plus the place of the column in its
    owner's list, are made on its first `add` and dropped at the next
    block's, and `add` scatters the values of a block into them as they
    are made, into all of them or into those of the rows and columns it
    selects.  A slot's terms add up in call order, the order in which one
    bincount of all of them at the end would add them, so the sums do not
    depend on how the values were sliced.  Every matrix shares the
    structure's arrays and stores an entry even where its terms cancel."""

    def __init__(self, shape, table, blocks, names):
        self.shape, self.table, self.blocks = shape, table, blocks
        self.start = np.cumsum([0] + [o.size * c.shape[1] for o, c in blocks])
        keys = np.empty(self.start[-1], dtype=np.int64)
        for (o, c), a, b in zip(blocks, self.start, self.start[1:]):
            keys[a:b] = (o[:, :, None] * shape[1] + c[:, None, :]).ravel()
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        first = np.ones(len(keys), dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        rank = np.cumsum(first) - 1
        owner, cols = np.divmod(keys[first], max(1, shape[1]))
        begin = np.searchsorted(owner, np.arange(len(table) + 1))
        of_row = np.full(shape[0], len(table))
        mine = table >= 0
        of_row[table[mine]] = np.nonzero(mine)[0]
        length = np.append(np.diff(begin), 0)[of_row]
        nnz = int(length.sum())
        index = np.int32 if max(shape + (nnz,)) < 2 ** 31 else np.int64
        self.pos = np.empty(len(order), dtype=index)
        self.pos[order] = rank - begin[owner][rank]
        del keys, order, first, rank, owner
        self.indptr = np.zeros(shape[0] + 1, dtype=index)
        np.cumsum(length, out=self.indptr[1:])
        at = np.repeat((begin[of_row] - self.indptr[:-1]).astype(index),
                       length)
        at += np.arange(nnz, dtype=index)
        self.indices = cols.astype(index)[at]
        del at, cols                          # before the values' arrays
        self.data = {name: np.zeros(len(self.indices)) for name in names}
        self._block = self._slots = None

    def _slot(self, b):
        """The slots (E, m, l) of block b's entries."""
        if self._block != b:
            self._slots = None
            o, c = self.blocks[b]
            pos = self.pos[self.start[b]:self.start[b + 1]].reshape(
                o.shape + c.shape[1:])
            parts = []
            for j in range(o.shape[1]):
                rows = self.table[o[:, j]]
                rows = rows[:, rows[0] >= 0]
                parts.append(self.indptr[rows][:, :, None] + pos[:, j, None])
            self._slots, self._block = np.concatenate(parts, axis=1), b
        return self._slots

    def add(self, name, b, values, sel=None):
        """Add the values (E, m, l) on block b to the matrix `name`, or on
        its local rows and columns sel only, of a block whose rows are its
        columns: the terms left out are exact zeros."""
        slots = self._slot(b)
        if sel is not None:
            slots = slots[:, sel[:, None], sel]
        np.add.at(self.data[name], slots.ravel(), values.ravel())

    def matrices(self):
        return {name: sps.csr_matrix((data, self.indices, self.indptr),
                                     shape=self.shape)
                for name, data in self.data.items()}


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
        self._dissection = None
        self._trees = {}

    # ------------------------------------------------------------ element data

    def _elem_data(self):
        if self._elem is not None:
            return self._elem
        mesh, chart, layout = self.mesh, self.chart, self.layout
        bary, wq = triangle_rule(self.config.quad_tri_degree)
        nt = mesh.n_triangles
        coords = mesh.vertices[mesh.triangles]                      # (nt,3,2)
        J = np.stack([coords[:, 0] - coords[:, 2],
                      coords[:, 1] - coords[:, 2]], axis=-1)        # (nt,2,2)
        qpts = np.einsum("qi,tix->tqx", bary, coords)               # (nt,nq,2)
        geom = batched(chart.evaluate, qpts)
        aux = layout.stress_dofs[mesh.triangles].reshape(nt, 15)
        self._elem = SimpleNamespace(bary=bary, wq=wq, coords=coords,
                                     areas=mesh.areas, Jinv=np.linalg.inv(J),
                                     qpts=qpts, geom=geom,
                                     nf=layout.nf, coeffs=layout.coeffs,
                                     dofs=layout.dofs, aux=aux)
        return self._elem

    def _elastic(self, geom, compliance=False):
        """The elastic tensor at the points of `geom`, and the compliance if
        `compliance`, made for each slice that reads them and not kept."""
        m = self.material
        return eval_elastic(geom, m.lam, m.mu, m.kappa, compliance)

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

    def _slices(self, owners, npts):
        """The slices s of `owners` whose elements share a local size, at
        npts points an element (`_groups`)."""
        e = self._elem_data()
        return _groups(e.nf[owners, None], npts, 6 + 3 * e.nf[owners])

    def _point_batches(self, owners, pts=None):
        """(s, dofs, phi) per slice s of `owners` whose elements share a
        local size: `_traces` at pts[s], or at the volume points."""
        nq = len(self._elem_data().wq) if pts is None else pts.shape[1]
        for s in self._slices(owners, nq):
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
        geometry, h, normals pointing out of `left`, the owners `left` and
        `right` (-1 on the boundary) and the rows `joins` (ne, 5) of JOINS
        of their tags ("" inside)."""
        if self._edges is not None:
            return self._edges
        mesh = self.mesh
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
                right=right,
                joins=np.array([JOINS[t] for t in tag], bool).reshape(-1, 5),
                arc=np.sqrt(np.einsum("eqab,ea,eb->eq", geom.a_cov, tang, tang)),
                nbar=edge_normal(mesh, verts, left))

        inner, outer = mesh.interior, mesh.boundary
        self._edges = (
            sweep(inner.pairs, inner.h, inner.left, inner.right,
                  np.full(len(inner.left), "")),
            sweep(outer.pairs, outer.h, outer.triangle,
                  np.full(len(outer.triangle), -1), outer.tag))
        return self._edges

    def _edge_slices(self, d):
        """Slices k of the edges of `d` that join some field and share the
        local sizes of their sides and the fields they leave free, each with
        its owners: the left elements, then the right ones off the boundary."""
        e = self._elem_data()
        inner = d.right >= 0
        keys = np.column_stack([e.nf[d.left],
                                np.where(inner, e.nf[d.right], -1), ~d.joins])
        nl = 6 + 3 * e.nf[d.left] + np.where(inner, 6 + 3 * e.nf[d.right], 0)
        rows = np.flatnonzero(d.joins.any(axis=1))
        for k in (rows[s] for s in _groups(keys[rows], len(d.we), nl[rows])):
            yield k, [d.left[k]] + ([d.right[k]] if inner[k[0]] else [])

    def _edge_values(self, d, k, owners):
        """The jumps (E, q, 13, nl) and the fluxes (E, q, 5, nl) of every
        local DOF of the edge slice k.  Jumps, left minus right (one-sided
        on the boundary): rows 0-4 the values of the five fields, 5-6
        b^d_a u_d - theta_a, 7-12 u_1 n_1, u_1 n_2, u_2 n_1, u_2 n_2, w n_1,
        w n_2; a field that the edge does not join is zero in rows 0-4, from
        which rows 5-12 are made (`_consistency_jump`, the normal).  They
        read the basis values alone, so each field's block is one scaled
        copy of them.  Fluxes, the mean of the sides: the strain operator's
        `_normal_flux` applied to the traces."""
        g = d.geom[k]
        op = _normal_flux(g, self._elastic(g).elastic, d.nbar[k],
                          strain.operator(g))
        phis = [self._traces(t, d.pts[k])[1] for t in owners]
        jump = np.zeros(g.sqrt_a.shape + (13, sum(6 + 3 * phi.shape[-1]
                                                  for phi in phis)))
        at = 0
        for sign, phi in zip((1.0, -1.0), phis):
            v = sign * phi[:, :, 0]                              # (E, q, nf)
            cols = [slice(at + c.start, at + c.stop)
                    for c in _field_columns(phi.shape[-1])]
            for c in np.flatnonzero(d.joins[k[0]]):
                jump[:, :, c, cols[c]] = v[..., :cols[c].stop - cols[c].start]
            at = cols[-1].stop
        jump[:, :, 5:7] = np.swapaxes(_consistency_jump(
            g.b_mix[:, :, None], np.swapaxes(jump[:, :, :5], 2, 3)), 2, 3)
        n = d.nbar[k, None, None, :, None]
        jump[:, :, 7:13] = (jump[:, :, 2:5, None] * n).reshape(
            jump.shape[:2] + (6, -1))
        return jump, np.concatenate([_apply(op, phi) for phi in phis],
                                    axis=-1) / len(phis)

    # ----------------------------------------------------------- global forms

    def _form_blocks(self):
        """The slices of the primal forms, the element slices t and the edge
        slices (d, k, owners), and the dense block of each: the elements
        that own its rows, (E, 1) or (E, 2), and its columns, the DOFs of
        those elements."""
        e = self._elem_data()
        elems = list(self._slices(np.arange(self.mesh.n_triangles),
                                  len(e.wq)))
        edges = [(d, k, owners) for d in self._edge_data()
                 for k, owners in self._edge_slices(d)]
        blocks = [(t[:, None], self._dofs(t)) for t in elems] + [
            (np.stack(ts, axis=1),
             np.concatenate([self._dofs(t) for t in ts], axis=1))
            for _, _, ts in edges]
        return elems, edges, blocks

    def forms(self):
        """Assemble all global matrices once: the bending form R, the
        membrane and shear forms summed, GT, each with its penalty part
        (R_pen, GT_pen), the stress coupling block B and the stress mass
        block C.  The slices and their DOFs come first, so the structure of
        every matrix is known before any value; each slice's values are
        then summed into it as they are made, in a call of their own, so a
        slice's arrays are freed before the next slice is made."""
        if self._forms is not None:
            return self._forms
        e = self._elem_data()
        elems, edges, blocks = self._form_blocks()
        tris = self.mesh.triangles
        n, n3 = self.layout.n_primal, self.layout.n_block3
        # the vertices of each block own its stress rows
        verts = [tris[t] for t in elems] + [d.verts[k] for d, k, _ in edges]
        rows = self.layout.stress_dofs
        stress = _Sums((n3, n3), rows, [(tris[t], e.aux[t]) for t in elems],
                       ("C",))
        coupling = _Sums((n3, n), rows,
                         [(v, c) for v, (_, c) in zip(verts, blocks)], ("B",))
        square = _Sums((n, n), e.dofs, blocks, ("R", "R_pen", "GT", "GT_pen"))
        for b, t in enumerate(elems):
            self._element_forms(square, coupling, stress, b, t)
        for b, (d, k, owners) in enumerate(edges, len(elems)):
            self._edge_forms(square, coupling, b, d, k, owners)
        self._forms = {**square.matrices(), **coupling.matrices(),
                       **stress.matrices()}
        return self._forms

    def release(self):
        """Drop the forms and the element and edge quadrature data, once the
        last system that reads the forms is built.  What reads the data
        later rebuilds it, bitwise the same (`_elem_data`, `_edge_data`);
        a later `forms()` would assemble anew."""
        self._forms = self._elem = self._edges = None

    def _element_forms(self, square, coupling, stress, b, t):
        """Add the volume terms of the element slice t, block b of the
        forms, to the primal forms, the stress coupling and the stress mass
        C, whose per-point matrix K is the compliance on M^11, M^12, M^21,
        M^22 and a_ab / (kappa mu) on xi^1, xi^2."""
        e = self._elem_data()
        g = e.geom[t]
        B = _apply(strain.operator(g), self._traces(t)[1])  # (E,nq,10,nl)
        rho, gam, tau = B[:, :, 0:4], B[:, :, 4:8], B[:, :, 8:10]
        wfac = e.areas[t, None] * e.wq * g.sqrt_a
        km = self.material.kappa * self.material.mu
        tensors = self._elastic(g, compliance=True)
        A = tensors.elastic.reshape(len(t), -1, 4, 4)
        square.add("R", b, _gram(wfac, A @ rho, rho) / 3.0)
        square.add("GT", b, _gram(wfac, A @ gam, gam)
                   + km * _gram(wfac, g.a_con @ tau, tau))
        S = _aux_basis(e.bary)[None]
        coupling.add("B", b, _gram(wfac, S, B[:, :, 4:10]))
        K = np.zeros(wfac.shape + (6, 6))
        K[..., :4, :4] = tensors.compliance.reshape(wfac.shape + (4, 4))
        K[..., 4:, 4:] = g.a_cov / km
        stress.add("C", b, _gram(wfac, K @ S, S))

    def _edge_forms(self, square, coupling, b, d, k, owners):
        """Add the terms of the edge slice k of `d`, block b of the forms,
        to the primal forms (consistency and penalties, on the jumps of the
        fields the edges join) and the stress coupling."""
        jump, flux = self._edge_values(d, k, owners)
        wsa = d.h[k, None] * d.we * d.geom.sqrt_a[k]          # consistency
        flux[:, :, 4] *= self.material.kappa * self.material.mu
        # R: the rotation fluxes; GT: the membrane and shear fluxes, against
        # the u and w jumps in one product
        for key, fac, x, y in (
                ("R", 1.0 / 3.0, jump[:, :, 5:7], flux[:, :, 0:2]),
                ("GT", -1.0, jump[:, :, 2:5], flux[:, :, 2:5])):
            X = _gram(wsa, x, y)
            square.add(key, b, fac * (X + np.swapaxes(X, 1, 2)))
        # penalties on the jumps of the fields the edge joins, each summed on
        # those fields' columns, where its jumps live: the h_e^{-1} weight
        # cancels against h; GT_pen is the membrane penalty on the u1, u2 and
        # w jumps plus the shear penalty on the w jumps, so w's counts twice
        nfs = [self._elem_data().nf[t[0]] for t in owners]
        starts = np.cumsum([0] + [6 + 3 * nf for nf in nfs])
        weight = np.array([1.0, 1.0, 1.0, 1.0, 2.0])[:, None]
        for key, fields in (("R_pen", (0, 1)), ("GT_pen", (2, 3, 4))):
            f = [c for c in fields if d.joins[k[0], c]]
            if f:
                sel = np.concatenate([a + np.r_[tuple(_field_columns(nf)[c]
                                                      for c in f)]
                                      for a, nf in zip(starts, nfs)])
                x = jump[:, :, f][..., sel]
                square.add(key, b, _gram(d.we, weight[f] * x, x), sel)
        # -(M^{ab}[v_a]n_b + xi^a [z]n_a), as in Se
        Se = _aux_basis(np.stack([1 - d.te, d.te], axis=1))[None]
        coupling.add("B", b, -_gram(wsa, Se, jump[:, :, 7:13]))

    # ------------------------------------------------------------- public API

    def factor_tree(self, n: int = None):
        """The assembly tree of the layout's leading n unknowns (all by
        default; every system solved here is a leading block), made once
        per n from the mesh's one nested dissection (ordering.py)."""
        n = self.layout.n_total if n is None else n
        if n not in self._trees:
            if self._dissection is None:
                self._dissection = nested_dissection(self.mesh, self.layout)
            self._trees[n] = self._dissection.tree(n)
        return self._trees[n]

    def penalty(self) -> float:
        """The penalty constant: the config's, or calibrated on first use
        (`calibrate_penalty`, which sets the config's) if it gives none."""
        if self.config.penalty_C is None:
            calibrate_penalty(self)
        return self.config.penalty_C

    def _penalized(self, key):
        """Data of the form `key` (R or GT) plus the penalty constant times
        its penalty part, on the CSR structure that all four share."""
        f = self.forms()
        out = self.penalty() * f[key + "_pen"].data
        out += f[key].data
        return out

    def a_theta(self, theta_param):
        """A(theta) = rho_h + theta*(gamma_h + tau_h), summed entry by entry
        on the forms' structure in one output array and one scratch array:
        an entry that cancels stays stored, so the structure of every
        system does not depend on rounding."""
        R = self.forms()["R"]
        data = self._penalized("GT")
        data *= theta_param
        data += self._penalized("R")
        return sps.csr_matrix((data, R.indices, R.indptr), shape=R.shape)

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
        """Each load is evaluated once, on all volume quadrature points or
        on all those of the boundary edges that leave some field free; the
        grouped kernel only contracts."""
        rhs = np.zeros(self.layout.n_primal)
        e = self._elem_data()
        vol = ("c1", "c2", "p1", "p2", "p3")
        if loads.provider or any(getattr(loads, k) is not None for k in vol):
            fv = (e.areas[:, None] * e.wq * e.geom.sqrt_a
                  * _load_values(loads, vol, e.qpts, e.geom))  # (5,nt,nq)
            rhs += self._scatter(np.arange(self.mesh.n_triangles), None,
                                 np.moveaxis(fv, 0, -1))
        d = self._edge_data()[1]
        loaded = np.flatnonzero(~d.joins.all(axis=1))
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
        dens[d.joins[loaded].T] = 0.0         # none where its field is joined
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


def calibrate_penalty(asm: FormAssembler, max_doublings: int = 10) -> float:
    """Default penalty constant for the forms of `asm`: scale with the
    geometry magnitude, then double until A(1) is positive definite.  Each
    probe only rescales the penalty blocks of the assembled forms; `asm`'s
    config keeps the constant returned, or its own if none is accepted."""
    given = asm.config
    e = asm.chart.evaluate(asm.mesh.vertices)
    bsup = float(np.abs(e.b_cov).max() + np.abs(e.b_mix).max()) / 2.0
    gsup = float(np.abs(e.christoffel).max())
    C = 10.0 * asm.material.mu * (1.0 + bsup ** 2 + gsup ** 2)
    tree = asm.factor_tree(asm.layout.n_primal)
    for _ in range(max_doublings + 1):
        asm.config = replace(asm.config, penalty_C=C)
        if positive_definite(asm.a_theta(1.0), tree):
            return C
        C *= 2.0
    asm.config = given
    raise CalibrationError("penalty calibration failed: matrix not positive "
                           "definite after doubling the penalty constant")

