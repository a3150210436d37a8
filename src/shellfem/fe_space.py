"""Discrete spaces: discontinuous P1 primal fields with edge/vertex bubble
enrichment on free-boundary elements, continuous P1 auxiliary stress fields,
the global DOF ordering, and weighted local projections.

Local polynomials are stored as coefficient vectors over barycentric
monomials l1^i * l2^j of total degree <= 3 (l3 = 1 - l1 - l2 substituted).
Local edge k is the edge opposite local vertex k.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import batched
from .quadrature import interval_rule, triangle_rule_dense

MONO_EXPS = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
             (3, 0), (2, 1), (1, 2), (0, 3)]
_MONO_INDEX = {e: i for i, e in enumerate(MONO_EXPS)}
N_MONO = len(MONO_EXPS)

# barycentric coordinates as coefficient vectors
LAM = np.zeros((3, N_MONO))
LAM[0, _MONO_INDEX[(1, 0)]] = 1.0
LAM[1, _MONO_INDEX[(0, 1)]] = 1.0
LAM[2, _MONO_INDEX[(0, 0)]] = 1.0
LAM[2, _MONO_INDEX[(1, 0)]] = -1.0
LAM[2, _MONO_INDEX[(0, 1)]] = -1.0

ONE = np.zeros(N_MONO)
ONE[_MONO_INDEX[(0, 0)]] = 1.0

FIELDS = ("theta1", "theta2", "u1", "u2", "w")


class SpaceError(ValueError):
    pass


def poly_mul(c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    out = np.zeros(N_MONO)
    for i, (a1, b1) in enumerate(MONO_EXPS):
        if c1[i] == 0.0:
            continue
        for j, (a2, b2) in enumerate(MONO_EXPS):
            if c2[j] == 0.0:
                continue
            key = (a1 + a2, b1 + b2)
            if key not in _MONO_INDEX:
                raise SpaceError("polynomial product exceeds degree 3")
            out[_MONO_INDEX[key]] += c1[i] * c2[j]
    return out


def eval_monos(lam12: np.ndarray) -> np.ndarray:
    """Monomial values at barycentric points; lam12 is (..., 2) = (l1, l2)."""
    l1, l2 = lam12[..., 0], lam12[..., 1]
    cols = [l1 ** a * l2 ** b for (a, b) in MONO_EXPS]
    return np.stack(cols, axis=-1)


def grad_monos(lam12: np.ndarray) -> np.ndarray:
    """d(mono)/d(l1, l2) at barycentric points; shape (..., N_MONO, 2)."""
    l1, l2 = lam12[..., 0], lam12[..., 1]
    out = np.zeros(lam12.shape[:-1] + (N_MONO, 2))
    for i, (a, b) in enumerate(MONO_EXPS):
        if a > 0:
            out[..., i, 0] = a * l1 ** (a - 1) * l2 ** b
        if b > 0:
            out[..., i, 1] = b * l2 ** (b - 1) * l1 ** a
    return out


_EDGE_VERTS = ((1, 2), (2, 0), (0, 1))  # local edge k is opposite vertex k


@dataclass
class LocalBasis:
    kind: str                      # P1 | Pe | Pv
    coeffs: np.ndarray             # (nf, N_MONO)
    free_edges: tuple = ()
    # moment data for projection / unisolvence (physical, sqrt(a)-weighted)
    vol_pts: np.ndarray = None     # (nq, 2) parameter coords
    vol_w: np.ndarray = None       # includes area * sqrt(a)
    vol_lam: np.ndarray = None     # (nq, 2) barycentric
    edge_data: list = field(default_factory=list)  # (pts, w, t, lam12) per free edge
    moment_matrix: np.ndarray = None

    @property
    def n_funcs(self):
        return len(self.coeffs)


def _edge_lam12(k: int, t: np.ndarray) -> np.ndarray:
    """Barycentric (l1, l2) along local edge k parameterized by t in [0,1]."""
    s, e = _EDGE_VERTS[k]
    lam = np.zeros((len(t), 3))
    lam[:, s] = 1.0 - t
    lam[:, e] = t
    return lam[:, :2]


def _local_bases(coords, chart, free_edges: tuple) -> list:
    """The local displacement bases of the elements with vertices `coords`
    (E, 3, 2) that share the sorted tuple `free_edges` of local edges on the
    free boundary, built together from one sqrt(a) evaluation.

    The added bubble functions are orthogonal to P1 in the sqrt(a)-weighted
    L2 product over the (curved) element.
    """
    if len(free_edges) > 2:
        raise SpaceError("element with 3 free edges is unsupported")
    bary, w = triangle_rule_dense()
    t_e, w_e = interval_rule(8)
    nq, ne = len(w), len(free_edges)
    ends = [_EDGE_VERTS[k] for k in free_edges]
    # the dense-rule points, then the 8 Gauss points of each free edge in turn
    pts = np.concatenate([bary @ coords] + [
        (1.0 - t_e)[:, None] * coords[:, s, None]
        + t_e[:, None] * coords[:, e, None] for s, e in ends], axis=1)
    d1, d2 = coords[:, 1] - coords[:, 0], coords[:, 2] - coords[:, 0]
    area = 0.5 * np.abs(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    weights = np.concatenate([area[:, None] * w] + [
        np.linalg.norm(coords[:, e] - coords[:, s], axis=-1)[:, None] * w_e
        for s, e in ends], axis=1) * batched(chart.sqrt_a, pts)
    edge_lam = [_edge_lam12(k, t_e) for k in free_edges]
    monos = eval_monos(np.concatenate([bary[:, :2]] + edge_lam))  # (P, 10)
    lamv = monos[:nq] @ LAM.T                                     # (nq, 3)

    def p1_orthogonal(bubble, shift):
        """bubble * p + shift, with p in P1 such that the product with every
        q in P1 integrates to 0 on each element; (E, N_MONO)."""
        bw = weights[:, :nq] * (monos[:nq] @ bubble)
        M = (lamv.T * bw[:, None]) @ lamv                         # (E, 3, 3)
        rhs = -(weights[:, :nq] * (monos[:nq] @ shift)) @ lamv
        c = np.linalg.solve(M, rhs[..., None])[..., 0]
        return c @ np.array([poly_mul(bubble, lam) for lam in LAM]) + shift

    tails = []
    if ne == 1:
        k = free_edges[0]
        bubble, tails = LAM[k], [ONE, LAM[(k + 1) % 3]]
    elif ne == 2:
        # paper convention: the two free edges carry the linear/quadratic tails
        li, lj = LAM[free_edges[0]], LAM[free_edges[1]]
        bubble = poly_mul(li, lj)
        tails = [lj, poly_mul(lj, lj), li, poly_mul(li, li)]
    coeffs = np.concatenate([np.broadcast_to(LAM, (len(coords), 3, N_MONO))]
                            + [p1_orthogonal(bubble, s)[:, None]
                               for s in tails], axis=1)       # (E, nf, 10)
    # moments: volume against P1, then against (1, t) on each free edge
    on_edge = [slice(nq + 8 * i, nq + 8 * (i + 1)) for i in range(ne)]
    tests = np.zeros((len(monos), 3 + 2 * ne))
    tests[:nq, :3] = lamv
    for i, on in enumerate(on_edge):
        tests[on, 3 + 2 * i:5 + 2 * i] = np.stack([np.ones_like(t_e), t_e], 1)
    vals = monos @ np.swapaxes(coeffs, 1, 2)                     # (E, P, nf)
    moments = (tests.T * weights[:, None]) @ vals
    if np.any(np.linalg.cond(moments) > 1e10):
        raise SpaceError("local moment matrix is ill conditioned")
    return [LocalBasis(("P1", "Pe", "Pv")[ne], coeffs[j], free_edges,
                       pts[j, :nq], weights[j, :nq], bary[:, :2],
                       [(pts[j, on], weights[j, on], t_e, lam)
                        for on, lam in zip(on_edge, edge_lam)], moments[j])
            for j in range(len(coords))]


def build_local_basis(tri_coords, chart, free_edges=()) -> LocalBasis:
    """The local displacement basis of one element; see `_local_bases`."""
    return _local_bases(np.asarray(tri_coords, dtype=float)[None], chart,
                        tuple(sorted(free_edges)))[0]


@dataclass
class DofLayout:
    """Global DOF ordering: block1 = plain P1 primal DOFs (15 per element,
    field-major theta1,theta2,u1,u2,w with 3 vertex values each), block2 =
    enrichment DOFs for (u1,u2,w) on free-boundary elements, block3 =
    continuous P1 auxiliary DOFs (M11,M22,M12,xi1,xi2 per vertex)."""

    mesh: object
    with_aux: bool                 # enriched, with block3
    bases: list                    # per-element LocalBasis for displacements
    n_block1: int
    n_block2: int
    n_block3: int
    extra_counts: np.ndarray       # per-element enrichment functions per field
    extra_offsets: np.ndarray

    @property
    def n_primal(self):
        return self.n_block1 + self.n_block2

    @property
    def n_total(self):
        return self.n_primal + self.n_block3

    def field_dofs(self, t: int, f: int) -> np.ndarray:
        """Global DOFs of field f on element t, local basis order."""
        base = 15 * t + 3 * f
        p1 = np.arange(base, base + 3)
        if f < 2:
            return p1
        ne = self.extra_counts[t]
        if ne == 0:
            return p1
        d = f - 2
        start = self.n_block1 + self.extra_offsets[t] + ne * d
        return np.concatenate([p1, np.arange(start, start + ne)])

    def element_dofs(self, t: int) -> np.ndarray:
        return np.concatenate([self.field_dofs(t, f) for f in range(5)])

    def n_local(self, t: int) -> int:
        return 15 + 3 * self.extra_counts[t]


def build_dof_layout(mesh, chart, enrichment: bool) -> DofLayout:
    """The enriched layout with its auxiliary block, or (`enrichment`
    False) the plain P1 primal layout without one."""
    nt = mesh.n_triangles
    free = [mesh.free_local_edges(t) if enrichment else () for t in range(nt)]
    coords = mesh.vertices[mesh.triangles]
    bases = [None] * nt
    for group in sorted(set(free)):
        t = [i for i, fe in enumerate(free) if fe == group]
        for i, lb in zip(t, _local_bases(coords[t], chart, group)):
            bases[i] = lb
    extra_counts = np.array([lb.n_funcs - 3 for lb in bases], dtype=int)
    extra_offsets = np.zeros(nt, dtype=int)
    np.cumsum(3 * extra_counts[:-1], out=extra_offsets[1:])
    n_block1 = 15 * nt
    n_block2 = int(3 * extra_counts.sum())
    n_block3 = 5 * mesh.n_vertices if enrichment else 0
    return DofLayout(mesh, enrichment, bases, n_block1, n_block2,
                     n_block3, extra_counts, extra_offsets)


def project_primal(fields: dict, mesh, chart, layout: DofLayout) -> np.ndarray:
    """Element-wise weighted-L2 projection of smooth fields onto the primal
    space.  Rotations always project onto P1; displacements use the element's
    local space with edge-moment matching on free edges."""
    out = np.zeros(layout.n_primal)
    for t in range(mesh.n_triangles):
        lb = layout.bases[t]
        lamv = eval_monos(lb.vol_lam) @ LAM.T
        for f, name in enumerate(FIELDS):
            fn = fields[name]
            fvals = fn(lb.vol_pts)
            if f < 2 or lb.kind == "P1":
                M = np.einsum("q,qi,qj->ij", lb.vol_w, lamv, lamv)
                rhs = np.einsum("q,qi->i", lb.vol_w * fvals, lamv)
                coeffs = np.linalg.solve(M, rhs)
                out[layout.field_dofs(t, f)[:3]] = coeffs
                continue
            rhs = list(np.einsum("q,qi->i", lb.vol_w * fvals, lamv))
            for (pts, w, te, _lam12) in lb.edge_data:
                fe = fn(pts)
                rhs.append(w @ fe)
                rhs.append(w @ (te * fe))
            coeffs = np.linalg.solve(lb.moment_matrix, np.array(rhs))
            out[layout.field_dofs(t, f)] = coeffs
    return out
