"""Discrete spaces: discontinuous P1 primal fields with edge/vertex bubble
enrichment on free-boundary elements, continuous P1 auxiliary stress fields,
and the global DOF ordering.

Local polynomials are stored as coefficient vectors over barycentric
monomials l1^i * l2^j of total degree <= 3 (l3 = 1 - l1 - l2 substituted).
Local edge k is the edge opposite local vertex k.

There is one DOF layout, the enriched one with its stress block; both
methods read it, the penalized one through its leading P1 block.  It is
three arrays over the elements: the displacement basis coefficients, the
number of basis functions and the global DOFs of each element (see
`DofLayout`).  Plain P1 elements take the barycentric coordinates LAM,
which need no geometry.  Elements with free edges are built per free-edge
group (the three single edges and the three pairs), each group from one
chart evaluation, of which it reads sqrt(a).
"""

from __future__ import annotations

from dataclasses import dataclass

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
# the fields whose jumps the edges of each tag join, "" the interior ones;
# a boundary load acts on each field that its edge leaves free: the moments
# r1, r2 on theta1, theta2 and the forces q1, q2, q3 on u1, u2, w
JOINS = {"": (1,) * 5, "D": (1,) * 5, "S": (0, 0, 1, 1, 1), "F": (0,) * 5}


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


def _edge_lam12(k: int, t: np.ndarray) -> np.ndarray:
    """Barycentric (l1, l2) along local edge k parameterized by t in [0,1]."""
    s, e = _EDGE_VERTS[k]
    lam = np.zeros((len(t), 3))
    lam[:, s] = 1.0 - t
    lam[:, e] = t
    return lam[:, :2]


def _local_bases(coords, area, chart, free_edges: tuple):
    """The local displacement bases of the elements with vertices `coords`
    (E, 3, 2) and areas `area` (E,) that share the sorted tuple `free_edges`
    of local edges on the free boundary, built together from one chart
    evaluation.

    The added bubble functions are orthogonal to P1 in the sqrt(a)-weighted
    L2 product over the (curved) element.  Returns the coefficients
    (E, nf, N_MONO).  The moment matrix of each element, of its tests (P1
    on the volume, then (1, t) on each free edge) against its basis, must
    be well conditioned.
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
    weights = np.concatenate([area[:, None] * w] + [
        np.linalg.norm(coords[:, e] - coords[:, s], axis=-1)[:, None] * w_e
        for s, e in ends], axis=1) * batched(chart.evaluate, pts).sqrt_a
    monos = eval_monos(np.concatenate([bary[:, :2]] + [
        _edge_lam12(k, t_e) for k in free_edges]))              # (P, 10)
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
    tests = np.zeros((len(monos), 3 + 2 * ne))
    tests[:nq, :3] = lamv
    for i in range(ne):
        tests[nq + 8 * i:nq + 8 * (i + 1), 3 + 2 * i:5 + 2 * i] = np.stack(
            [np.ones_like(t_e), t_e], 1)
    moments = (np.swapaxes(weights[..., None] * tests, 1, 2)
               @ (monos @ np.swapaxes(coeffs, 1, 2)))
    if np.any(np.linalg.cond(moments) > 1e10):
        raise SpaceError("local moment matrix is ill conditioned")
    return coeffs


def _free_edge_groups(mesh):
    """(free_edges, elements) of each group of elements that share their
    sorted tuple of free local edges, those that join no field."""
    free = np.zeros((mesh.n_triangles, 3), dtype=bool)
    bd = mesh.boundary
    on = ~np.array([any(JOINS[t]) for t in bd.tag], dtype=bool)
    free[bd.triangle[on], bd.local[on]] = True
    rows, group = np.unique(free, axis=0, return_inverse=True)
    for g, row in enumerate(rows):
        yield tuple(np.flatnonzero(row).tolist()), np.flatnonzero(group == g)


@dataclass
class DofLayout:
    """Global DOF ordering: block1 = plain P1 primal DOFs (15 per element,
    field-major theta1,theta2,u1,u2,w with 3 vertex values each), block2 =
    enrichment DOFs for (u1,u2,w) on free-boundary elements, in element
    order and field-major within an element, block3 = continuous P1
    auxiliary DOFs (M11,M22,M12,xi1,xi2 per vertex).

    Element t has the displacement basis coeffs[t, :nf[t]] and the DOFs
    dofs[t, :6 + 3 nf[t]], in local order theta1(3), theta2(3), u1, u2, w
    (nf[t] each); rotations use the first three (P1) functions."""

    mesh: object
    coeffs: np.ndarray             # (nt, nf_max, N_MONO), zero-padded
    nf: np.ndarray                 # (nt,) basis functions, 3 on P1 elements
    dofs: np.ndarray               # (nt, 6 + 3 nf_max), padded with -1

    @property
    def n_block1(self):
        return 15 * len(self.nf)

    @property
    def n_block2(self):
        return int(3 * (self.nf - 3).sum())

    @property
    def n_block3(self):
        return 5 * self.mesh.n_vertices

    @property
    def stress_dofs(self):
        """The 5 stress DOFs (nv, 5) of each vertex, M11, M22, M12, xi1,
        xi2, in vertex order, numbered from the start of block 3."""
        return np.arange(self.n_block3).reshape(-1, 5)

    @property
    def n_primal(self):
        return self.n_block1 + self.n_block2

    @property
    def n_total(self):
        return self.n_primal + self.n_block3


def build_dof_layout(mesh, chart) -> DofLayout:
    """The enriched layout with its auxiliary block.  Plain P1 elements take
    LAM; only the free-edge groups ask the chart for sqrt(a)."""
    nt = mesh.n_triangles
    coords = mesh.vertices[mesh.triangles]
    groups = [(g, t) for g, t in _free_edge_groups(mesh) if g]
    nf = np.full(nt, 3)
    coeffs = np.zeros((nt, 3 + 2 * max((len(g) for g, _ in groups),
                                       default=0), N_MONO))
    coeffs[:, :3] = LAM
    for group, t in groups:
        nf[t] = 3 + 2 * len(group)
        coeffs[t, :nf[t[0]]] = _local_bases(coords[t], mesh.areas[t], chart,
                                               group)
    # function j of field f on element e: DOF 15 e + 3 f + j for the P1
    # functions, then the element's block-2 offset + (nf - 3) (f - 2) + j - 3
    extra = nf - 3
    offset = 15 * nt + np.cumsum(3 * extra) - 3 * extra
    e, f = np.arange(nt)[:, None, None], np.arange(5)[:, None]
    j = np.arange(nf.max())
    local = np.where(j < 3, 15 * e + 3 * f + j,
                     offset[e] + extra[e] * (f - 2) + j - 3)
    dofs = np.full((nt, 6 + 3 * nf.max()), -1)
    dofs[np.arange(dofs.shape[1]) < 6 + 3 * nf[:, None]] = local[
        j < np.where(f < 2, 3, nf[e])]
    return DofLayout(mesh, coeffs, nf, dofs)

