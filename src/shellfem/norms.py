"""Discrete norms, energies and error norms.

All Sobolev pieces are plain (unweighted) integrals over the parameter
domain; edge pieces carry h_e^{-1} weights, which cancel against the edge
length of plain ds, on the interior edges and the S/D boundary edges
(rotation jumps on D edges only).  Every norm value comes from one pointwise
pass: the discrete field, minus an exact field for errors, is evaluated at
the volume and edge quadrature points by the assembler's grouped kernel and
its squares are integrated.  The same pass gives the shear energy u^T T u,
with the rules and weights of the forms, so the membrane energy is the
stored GT's minus it.  The only Gram matrix is Q_H, the Gram matrix of the
H_h norm.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import strain
from .assembly import (FormAssembler, _aux_basis, _field_columns, _gram,
                       _Sums)
from .geometry import batched


@dataclass
class NormReport:
    rho_norm: float
    gamma_norm: float
    tau_norm: float
    a_norm: float
    H_h_norm: float
    V_h_norm: float = None
    energies: dict = field(default_factory=dict)


# the squared pieces of each seminorm of `quad_norm`
_SEMINORMS = {"rho": ("rho", "jump_theta"), "gamma": ("gamma", "jump_u"),
              "tau": ("tau", "jump_w"),
              "a": ("rho", "gamma", "tau", "jump_theta", "jump_u", "jump_w"),
              "H": ("H", "jump_theta", "jump_u", "jump_w")}


def _root(pieces, keys):
    r = np.sqrt(sum(pieces[k] for k in keys))
    return float(r) if np.ndim(r) == 0 else r


def _jet(phi):
    """The values and partials (E, q, 15, nl) of the five fields for every
    local DOF of the traces phi (E, q, 3, nf): row 3c + d holds partial d
    (the value at d = 0) of field c, on that field's columns."""
    jet = np.zeros(phi.shape[:2] + (15, 6 + 3 * phi.shape[-1]))
    for c, col in enumerate(_field_columns(phi.shape[-1])):
        jet[:, :, 3 * c:3 * c + 3, col] = phi[..., :col.stop - col.start]
    return jet


def _edge_flux(sides, d, rows=slice(None)):
    """h sqrt(a) a^{ab} tau_b n_a (..., E, q) on the edges `rows` of the
    edge data d, of the mean of the fields of `sides`, each (values,
    gradients) from `FormAssembler.field_values` at the edges' points."""
    g = d.geom[rows]
    tau = sum(strain.field_strains(*f, g)[2] for f in sides) / len(sides)
    return d.h[rows, None] * g.sqrt_a * np.einsum(
        "...eqb,eqab,ea->...eq", tau, g.a_con, d.nbar[rows])


class NormEngine:
    """Discrete (semi)norms and error norms over one assembler/layout."""

    def __init__(self, assembler: FormAssembler):
        self.asm = assembler
        self.layout = assembler.layout
        self._grams = None

    def _pieces(self, primal, exact=None, aux=None, strains=True,
                scale=None, shear=False) -> dict:
        """Squared pieces of the norms of the discrete field `primal` minus
        `exact` (zero if None): the volume parts "H", "rho", "gamma", "tau"
        (the strain parts only if `strains`) and, of the auxiliary field
        `aux`, "V"; the edge-jump parts "jump_theta", "jump_u", "jump_w".
        With `shear` (and `strains`, and no `exact`), also "shear", the shear
        energy u^T T u without its penalty, with the forms' rules: kappa mu
        times the sum over elements of the integral of
        sqrt(a) a^{ab} tau_a tau_b minus twice the sum over the S/D and
        interior edges of the integral of h sqrt(a) [w] {a^{ab} tau_b n_a}.
        `exact` provides values(pts)->(n,5) and grads(pts)->(n,5,2), called
        on all element quadrature points, then values on all S/D
        boundary-edge points.  A stack primal (k, n) gives pieces (k,), of
        each of its vectors minus `exact`, or minus scale[i] times `exact`
        for vector i if `scale` (k,) is given."""
        asm = self.asm
        e = asm._elem_data()
        w = e.areas[:, None] * e.wq                     # plain area element

        def integral(x):
            """Integral of the squares of x (k..., nt, nq, ...)."""
            x = x.reshape(np.shape(primal)[:-1] + w.shape + (-1,))
            return np.sum(w * np.sum(x ** 2, axis=-1), axis=(-2, -1))
        v, g = asm.field_values(primal, np.arange(asm.mesh.n_triangles))
        if exact is not None:
            lead = np.shape(primal)[:-1]
            s = np.reshape(np.ones(lead) if scale is None else scale,
                           lead + (1, 1, 1))
            ev, eg = batched(lambda p: (exact.values(p), exact.grads(p)),
                             e.qpts.reshape(-1, 2))
            v = v - s * ev.reshape(v.shape[-3:])
            g = g - s[..., None] * eg.reshape(g.shape[-4:])
        out = {"H": integral(v) + integral(g)}
        if strains:
            r, gm, ta = strain.field_strains(v, g, e.geom)
            out.update(rho=integral(r), gamma=integral(gm), tau=integral(ta))
        if shear:
            out["shear"] = np.sum(w * e.geom.sqrt_a * np.einsum(
                "...a,...ab,...b->...", ta, e.geom.a_con, ta), axis=(-2, -1))
        if aux is not None:                             # with one primal
            S = _aux_basis(e.bary)                      # (nq,6,15)
            out["V"] = integral(aux[e.aux] @ S.reshape(-1, S.shape[-1]).T)
        # edge jumps: exact fields are continuous, so jumps of the difference
        # equal jumps of the discrete field; boundary traces subtract exact
        interior, boundary = asm._edge_data()
        fixed = np.flatnonzero(boundary.tag != "F")
        pts = boundary.pts[fixed]
        left, right, d = (asm.field_values(primal, owners, at) for owners, at
                          in ((interior.left, interior.pts),
                              (interior.right, interior.pts),
                              (boundary.left[fixed], pts)))
        if shear:       # before the rotations on S edges are zeroed
            flux = np.concatenate([_edge_flux((left, right), interior),
                                   _edge_flux((d,), boundary, fixed)], axis=-2)
        d = d[0]
        if exact is not None:
            d -= s * batched(exact.values, pts.reshape(-1, 2)).reshape(
                d.shape[-3:])
        d[..., boundary.tag[fixed] == "S", :, :2] = 0.0  # rotations only on D
        jump = np.concatenate([left[0] - right[0], d], axis=-3)
        j2 = np.einsum("q,...eqc->...c", interior.we, jump ** 2)  # one rule
        out.update(jump_theta=j2[..., :2].sum(-1), jump_u=j2[..., 2:4].sum(-1),
                   jump_w=j2[..., 4])
        if shear:
            edges = np.sum(interior.we * jump[..., 4] * flux, axis=(-2, -1))
            mat = asm.material
            out["shear"] = mat.kappa * mat.mu * (out["shear"] - 2 * edges)
        return out

    def grams(self):
        """Q_H, the Gram matrix of the H_h norm, summed on the forms' blocks
        and structure: on each element block its volume part, on each edge
        block its jumps of u and w, and of the rotations off S edges.  Like
        the forms, it stores an entry even where its terms cancel."""
        if self._grams is None:
            asm = self.asm
            e, n = asm._elem_data(), self.layout.n_primal
            elems, edges, blocks = asm._form_blocks()
            Q = _Sums((n, n), e.dofs, blocks, ("Q",))
            for b, t in enumerate(elems):
                jet = _jet(asm._traces(t)[1])
                Q.add("Q", b, _gram(e.areas[t, None] * e.wq, jet, jet))
            for b, (d, k, owners) in enumerate(edges, len(elems)):
                jump = asm._edge_values(d, k, owners)[0]
                j = jump[:, :, 2 if d.tag[k[0]] == "S" else 0:5]
                Q.add("Q", b, _gram(d.we, j, j))
            self._grams = Q.matrices()["Q"]
        return self._grams

    # ------------------------------------------------------------- norm values

    def quad_norm(self, key: str, vec: np.ndarray):
        """The seminorm `key` (rho, gamma, tau, a or H) of `vec`, edge parts
        included; of a stack (k, n), the k values from one pass."""
        return _root(self._pieces(vec, strains=key != "H"), _SEMINORMS[key])

    def discrete_norms(self, primal: np.ndarray, aux: np.ndarray = None, *,
                       epsilon: float) -> NormReport:
        """Norms of the discrete field `primal` (and of `aux`, V_h) and its
        energies: bending u^T (R + C R_pen) u, shear u^T (T + C T_pen) u from
        the pointwise pass (T_pen's part is C times its "jump_w"), and
        membrane, u^T (GT + C GT_pen) u minus the shear."""
        p = self._pieces(primal, aux=aux, shear=True)
        rho, gam, tau, a, H = (_root(p, _SEMINORMS[k])
                               for k in ("rho", "gamma", "tau", "a", "H"))
        V = float(np.sqrt(p["V"])) if "V" in p else None
        f, C = self.asm.forms(), self.asm.penalty()
        eb, egt = (float(primal @ (f[k] @ primal
                                   + C * (f[k + "_pen"] @ primal)))
                   for k in ("R", "GT"))
        es = float(p["shear"] + C * p["jump_w"])
        em = egt - es
        energies = {
            "bending": eb, "membrane": em, "shear": es,
            "total_scaled": epsilon ** 2 * eb + em + es,
            "total": eb + epsilon ** -2 * (em + es),
        }
        return NormReport(rho, gam, tau, a, H, V_h_norm=V, energies=energies)

    def error_norms(self, primal: np.ndarray, exact=None,
                    scale=None) -> dict:
        """H_h norm and a norm (edge jumps included) and volume strain norms
        of the discrete field minus `exact` (of the field itself if None),
        or minus scale[i] times `exact` for vector i of a stack (k, n) (see
        `_pieces`); of a stack, the k values of each from one pass."""
        p = self._pieces(primal, exact, scale=scale)
        return {"H_h": _root(p, _SEMINORMS["H"]),
                "a": _root(p, _SEMINORMS["a"]),
                **{k: _root(p, (k,)) for k in ("rho", "gamma", "tau")}}

