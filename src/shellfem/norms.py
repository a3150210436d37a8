"""Discrete norms, energies and error norms.

All Sobolev pieces are plain (unweighted) integrals over the parameter
domain; edge pieces carry h_e^{-1} weights, which cancel against the edge
length of plain ds, on the jumps of the fields each edge joins
(`fe_space.JOINS`).  Every norm value comes from one pointwise
pass: the discrete field, minus an exact field for errors, is evaluated at
the volume and edge quadrature points by the assembler's grouped kernel and
its squares are integrated.  The same pass gives the bending, membrane and
shear energies from the strains, edge fluxes and jumps, with the rules and
weights of the forms, and reads no assembled form.  The only Gram matrix is
Q_H, the Gram matrix of the H_h norm.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import strain
from .assembly import (FormAssembler, _apply, _aux_basis, _consistency_jump,
                       _gram, _normal_flux, _Sums)
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


def _edge_flux(asm, sides, d, rows=slice(None)):
    """h sqrt(a) times the normal fluxes (..., E, q, 5) (`_normal_flux`) on
    the edges `rows` of d of the mean of the fields (values, grads) `sides`:
    of the strain rows of their sum, over their number."""
    g = d.geom[rows]
    v, gr = (sum(x) for x in zip(*sides))
    flux = _normal_flux(g, asm._elastic(g).elastic, d.nbar[rows],
                        strain.field_rows(v, gr, g)[..., None])[..., 0]
    return (d.h[rows, None] * g.sqrt_a / len(sides))[..., None] * flux


class NormEngine:
    """Discrete (semi)norms and error norms over one assembler/layout."""

    def __init__(self, assembler: FormAssembler):
        self.asm = assembler
        self.layout = assembler.layout
        self._grams = None

    def _pieces(self, primal, exact=None, aux=None, strains=True,
                scale=None, energies=False) -> dict:
        """Squared pieces of the norms of the discrete field `primal` minus
        `exact` (zero if None): the volume parts "H", "rho", "gamma", "tau"
        (the strain parts only if `strains`) and, of the auxiliary field
        `aux`, "V"; the edge-jump parts "jump_theta", "jump_u", "jump_w".
        With `energies` (and `strains`, and no `exact`), also "bending",
        "membrane" and "shear", u^T F u for F = R, G and T without penalty,
        by the forms' rules: sqrt(a) rho:A rho / 3, gamma:A gamma and
        kappa mu a^{ab} tau_a tau_b on the elements; h sqrt(a) times
        (2/3) (b^d_a [u_d] - [theta_a]) {(A rho) n}_a, -2 [u_a] {(A gamma) n}_a
        and -2 kappa mu [w] {a^{ab} tau_b n_a} on the edges that join some
        field, a boundary edge's traces masked to the fields it joins.
        `exact` provides values(pts)->(n,5) and grads(pts)->(n,5,2), called
        on all element quadrature points, then values on the points of all
        boundary edges that join some field.  A stack primal (k, n) gives
        pieces (k,), of each of its vectors minus `exact`, or minus scale[i]
        times `exact` for vector i if `scale` (k,) is given."""
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
        if aux is not None:                             # with one primal
            S = _aux_basis(e.bary)                      # (nq,6,15)
            out["V"] = integral(aux[e.aux] @ S.reshape(-1, S.shape[-1]).T)
        # edge jumps: exact fields are continuous, so jumps of the difference
        # equal jumps of the discrete field; boundary traces subtract exact
        interior, boundary = asm._edge_data()
        fixed = np.flatnonzero(boundary.joins.any(axis=1))
        pts = boundary.pts[fixed]
        left, right, d = (asm.field_values(primal, owners, at) for owners, at
                          in ((interior.left, interior.pts),
                              (interior.right, interior.pts),
                              (boundary.left[fixed], pts)))
        if energies:    # before the boundary traces are masked
            flux = np.concatenate([_edge_flux(asm, (left, right), interior),
                                   _edge_flux(asm, (d,), boundary, fixed)], -3)
        d = d[0]
        if exact is not None:
            d -= s * batched(exact.values, pts.reshape(-1, 2)).reshape(
                d.shape[-3:])
        d = np.where(boundary.joins[fixed, None], d, 0.0)  # the joined fields
        jump = np.concatenate([left[0] - right[0], d], axis=-3)
        j2 = np.einsum("q,...eqc->...c", interior.we, jump ** 2)  # one rule
        out.update(jump_theta=j2[..., :2].sum(-1), jump_u=j2[..., 2:4].sum(-1),
                   jump_w=j2[..., 4])
        if energies:    # the forms' volume and edge consistency terms
            bm = np.concatenate([interior.geom.b_mix,
                                 boundary.geom.b_mix[fixed]])
            x = np.concatenate([_consistency_jump(bm, jump), jump[..., 2:]],
                               -1)
            ec = np.einsum("q,...eqc,...eqc->...c", interior.we, x, flux)
            wa, A = w * e.geom.sqrt_a, asm._elastic(e.geom).elastic
            km = asm.material.kappa * asm.material.mu
            vol = "tq,...tqab,tqabcd,...tqcd->..."
            out["bending"] = (np.einsum(vol, wa, r, A, r)
                              + 2 * ec[..., :2].sum(-1)) / 3
            out["membrane"] = (np.einsum(vol, wa, gm, A, gm)
                               - 2 * ec[..., 2:4].sum(-1))
            out["shear"] = km * (np.einsum(
                "tq,...tqa,tqab,...tqb->...", wa, ta, e.geom.a_con, ta)
                - 2 * ec[..., 4])
        return out

    def grams(self):
        """Q_H, the Gram matrix of the H_h norm, summed on the forms' blocks
        and structure: on each element block its volume part, on each edge
        block the jumps of the fields the edges join.  Like the forms, it
        stores an entry even where its terms cancel."""
        if self._grams is None:
            asm = self.asm
            e, n = asm._elem_data(), self.layout.n_primal
            elems, edges, blocks = asm._form_blocks()
            Q = _Sums((n, n), e.dofs, blocks, ("Q",))
            for b, t in enumerate(elems):
                jet = _apply(np.eye(15), asm._traces(t)[1])
                Q.add("Q", b, _gram(e.areas[t, None] * e.wq, jet, jet))
            for b, (d, k, owners) in enumerate(edges, len(elems)):
                jump = asm._edge_values(d, k, owners)[0]
                j = jump[:, :, np.flatnonzero(d.joins[k[0]])]
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
        energies u^T (F + C F_pen) u, F = R, G, T, from `_pieces`: F_pen's
        part is C times "jump_theta", "jump_u" + "jump_w" and "jump_w"."""
        p = self._pieces(primal, aux=aux, energies=True)
        rho, gam, tau, a, H = (_root(p, _SEMINORMS[k])
                               for k in ("rho", "gamma", "tau", "a", "H"))
        V = float(np.sqrt(p["V"])) if "V" in p else None
        C = self.asm.penalty()
        eb = float(p["bending"] + C * p["jump_theta"])
        em = float(p["membrane"] + C * (p["jump_u"] + p["jump_w"]))
        es = float(p["shear"] + C * p["jump_w"])
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

