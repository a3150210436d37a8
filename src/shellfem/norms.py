"""Discrete norms and error norms.

All Sobolev pieces are plain (unweighted) integrals over the parameter
domain; edge pieces carry h_e^{-1} weights, which cancel against the edge
length of plain ds, on the interior edges and the S/D boundary edges
(rotation jumps on D edges only).  Every norm value comes from one pointwise
pass: the discrete field, minus an exact field for errors, is evaluated at
the volume and edge quadrature points by the assembler's grouped kernel and
its squares are integrated.  The only Gram matrix is Q_H, the Gram matrix
of the H_h norm.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import strain
from .assembly import FormAssembler, _apply, _aux_basis, _csr_sums, _gram
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


def _root(pieces, key):
    r = np.sqrt(sum(pieces[k] for k in _SEMINORMS[key]))
    return float(r) if np.ndim(r) == 0 else r


class NormEngine:
    """Discrete (semi)norms and error norms over one assembler/layout."""

    def __init__(self, assembler: FormAssembler):
        self.asm = assembler
        self.layout = assembler.layout
        self._grams = None

    def _pieces(self, primal, exact=None, aux=None, strains=True) -> dict:
        """Squared pieces of the norms of the discrete field `primal` minus
        `exact` (zero if None): the volume parts "H", "rho", "gamma", "tau"
        (the strain parts only if `strains`) and, of the auxiliary field
        `aux`, "V"; the edge-jump parts "jump_theta", "jump_u", "jump_w".
        `exact` provides values(pts)->(n,5) and grads(pts)->(n,5,2), called
        on all element quadrature points, then values on all S/D
        boundary-edge points.  A stack primal (k, n) gives pieces (k,)."""
        asm = self.asm
        e = asm._elem_data()
        w = e.areas[:, None] * e.wq                     # plain area element

        def integral(x):
            """Integral of the squares of x (k..., nt, nq, ...)."""
            x = x.reshape(np.shape(primal)[:-1] + w.shape + (-1,))
            return np.sum(w * np.sum(x ** 2, axis=-1), axis=(-2, -1))
        v, g = asm.field_values(primal, np.arange(asm.mesh.n_triangles))
        if exact is not None:
            ev, eg = batched(lambda p: (exact.values(p), exact.grads(p)),
                             e.qpts.reshape(-1, 2))
            v, g = v - ev.reshape(v.shape), g - eg.reshape(g.shape)
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
        fixed = np.flatnonzero(boundary.tag != "F")
        pts = boundary.pts[fixed]
        d = asm.field_values(primal, boundary.left[fixed], pts)[0]
        if exact is not None:
            d -= batched(exact.values, pts.reshape(-1, 2)).reshape(d.shape)
        d[..., boundary.tag[fixed] == "S", :, :2] = 0.0  # rotations only on D
        jump = np.concatenate(
            [asm.field_values(primal, interior.left, interior.pts)[0]
             - asm.field_values(primal, interior.right, interior.pts)[0], d],
            axis=-3)
        j2 = np.einsum("q,...eqc->...c", interior.we, jump ** 2)  # one rule
        out.update(jump_theta=j2[..., :2].sum(-1), jump_u=j2[..., 2:4].sum(-1),
                   jump_w=j2[..., 4])
        return out

    def grams(self):
        """Q_H, the Gram matrix of the H_h norm: its volume part summed on
        the element blocks as the forms are, plus its edge part, the forms'
        rotation and displacement jump penalties R_pen + G_pen.  The sum
        keeps only the nonzero entries, so Q_H does not store the forms'
        structure: it has no entries between fields on the elements."""
        if self._grams is None:
            asm = self.asm
            e, n = asm._elem_data(), self.layout.n_primal
            blocks, vol = [], []
            for t, dofs, phi in asm._point_batches(
                    np.arange(asm.mesh.n_triangles)):
                jet = _apply(np.eye(15), phi)   # all values and partials
                vol.append((len(blocks),
                            _gram(e.areas[t, None] * e.wq, jet, jet)))
                blocks.append((dofs, dofs))
            f = asm.forms()
            self._grams = _csr_sums((n, n), blocks, {"Q": vol})["Q"] \
                + f["R_pen"] + f["G_pen"]
        return self._grams

    # ------------------------------------------------------------- norm values

    def quad_norm(self, key: str, vec: np.ndarray):
        """The seminorm `key` (rho, gamma, tau, a or H) of `vec`, edge parts
        included; of a stack (k, n), the k values from one pass."""
        return _root(self._pieces(vec, strains=key != "H"), key)

    def discrete_norms(self, primal: np.ndarray, aux: np.ndarray = None, *,
                       epsilon: float) -> NormReport:
        p = self._pieces(primal, aux=aux)
        rho, gam, tau, a, H = (_root(p, k)
                               for k in ("rho", "gamma", "tau", "a", "H"))
        V = float(np.sqrt(p["V"])) if "V" in p else None
        f, C = self.asm.forms(), self.asm.config.penalty_C
        eb, em, es = (float(primal @ (f[k] @ primal
                                      + C * (f[k + "_pen"] @ primal)))
                      for k in ("R", "G", "T"))
        energies = {
            "bending": eb, "membrane": em, "shear": es,
            "total_scaled": epsilon ** 2 * eb + em + es,
            "total": eb + epsilon ** -2 * (em + es),
        }
        return NormReport(rho, gam, tau, a, H, V_h_norm=V, energies=energies)

    def error_norms(self, primal: np.ndarray, exact) -> dict:
        """H_h norm (edge jumps included) and volume strain norms of the
        discrete field minus `exact` (see `_pieces`)."""
        p = self._pieces(primal, exact)
        return {"H_h": _root(p, "H"),
                "rho": float(np.sqrt(p["rho"])),
                "gamma": float(np.sqrt(p["gamma"])),
                "tau": float(np.sqrt(p["tau"]))}

