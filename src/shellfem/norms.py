"""Discrete norms, Korn-equivalence diagnostics, the weak stress norm, and
form-level consistency residuals.

All Sobolev pieces are plain (unweighted) integrals over the parameter
domain; edge pieces carry h_e^{-1} weights on the edge sets spelled out per
seminorm.  Gram matrices are assembled once per layout and reused.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from .assembly import FormAssembler, _components, field_values
from .geometry import batched


@dataclass
class NormReport:
    rho_norm: float
    gamma_norm: float
    tau_norm: float
    a_norm: float
    H_h_norm: float
    V_h_norm: float = None
    weak_V_norm: float = None
    energies: dict = field(default_factory=dict)


class NormEngine:
    """Gram matrices of the discrete (semi)norms over one assembler/layout."""

    def __init__(self, assembler: FormAssembler):
        self.asm = assembler
        self.layout = assembler.layout
        self._grams = None
        self._qh_lu = None

    def grams(self):
        if self._grams is not None:
            return self._grams
        asm = self.asm
        layout = self.layout
        n = layout.n_primal
        acc = {k: ([], [], []) for k in ("rho", "gamma", "tau", "H")}

        def add(key, dofs, vals):
            r, c, v = acc[key]
            r.append(np.broadcast_to(dofs[:, None], vals.shape).ravel())
            c.append(np.broadcast_to(dofs[None, :], vals.shape).ravel())
            v.append(vals.ravel())

        e = asm._elem_data()
        vrows, vcols, vvals = [], [], []
        for t in range(asm.mesh.n_triangles):
            st = asm._element_strains(t)
            w = e.areas[t] * e.wq                       # plain area element
            dofs = layout.element_dofs(t)
            add("rho", dofs, np.einsum("q,qkab,qlab->kl", w, st.rho, st.rho))
            add("gamma", dofs, np.einsum("q,qkab,qlab->kl", w, st.gamma,
                                         st.gamma))
            add("tau", dofs, np.einsum("q,qka,qla->kl", w, st.tau, st.tau))
            th, thg, u, ug, wv, wg = st.fields
            H = (np.einsum("q,qka,qla->kl", w, th, th)
                 + np.einsum("q,qkab,qlab->kl", w, thg, thg)
                 + np.einsum("q,qka,qla->kl", w, u, u)
                 + np.einsum("q,qkab,qlab->kl", w, ug, ug)
                 + np.einsum("q,qk,ql->kl", w, wv, wv)
                 + np.einsum("q,qka,qla->kl", w, wg, wg))
            add("H", dofs, H)
            if layout.with_aux:
                from .assembly import _aux_tensors, _aux_dofs
                Mten, xiv = _aux_tensors(e.bary)
                loc = (np.einsum("q,qmab,qnab->mn", w, Mten, Mten)
                       + np.einsum("q,qma,qna->mn", w, xiv, xiv))
                adofs = _aux_dofs(asm.mesh.triangles[t])
                vrows.append(np.broadcast_to(adofs[:, None], loc.shape).ravel())
                vcols.append(np.broadcast_to(adofs[None, :], loc.shape).ravel())
                vvals.append(loc.ravel())

        interior, boundary = asm._edge_data()
        for ed in interior:
            L, R = ed.edge.left, ed.edge.right
            sL = asm._side_arrays(L, ed.pts, ed.geom)
            sR = asm._side_arrays(R, ed.pts, ed.geom)
            dofs = np.concatenate([layout.element_dofs(L),
                                   layout.element_dofs(R)])
            sign = np.concatenate([np.ones(layout.n_local(L)),
                                   -np.ones(layout.n_local(R))])
            jth = np.concatenate([sL.th, sR.th], axis=1) * sign[None, :, None]
            ju = np.concatenate([sL.u, sR.u], axis=1) * sign[None, :, None]
            jw = np.concatenate([sL.w, sR.w], axis=1) * sign[None, :]
            self._edge_grams(add, ed.we, dofs, jth, ju, jw,
                             with_theta=True, with_u=True, with_w=True)
        for ed in boundary:
            tag = ed.edge.tag
            if tag == "F":
                continue
            t = ed.edge.triangle
            s = asm._side_arrays(t, ed.pts, ed.geom)
            dofs = layout.element_dofs(t)
            self._edge_grams(add, ed.we, dofs, s.th, s.u, s.w,
                             with_theta=(tag == "D"), with_u=True, with_w=True)

        def build(key):
            r, c, v = acc[key]
            m = sps.coo_matrix(
                (np.concatenate(v), (np.concatenate(r), np.concatenate(c))),
                shape=(n, n)).tocsr()
            m.sum_duplicates()
            return m

        grams = {k: build(k) for k in ("rho", "gamma", "tau", "H")}
        grams["a"] = grams["rho"] + grams["gamma"] + grams["tau"]
        if layout.with_aux:
            grams["V"] = sps.coo_matrix(
                (np.concatenate(vvals),
                 (np.concatenate(vrows), np.concatenate(vcols))),
                shape=(layout.n_block3, layout.n_block3)).tocsr()
        self._grams = grams
        return grams

    def _edge_grams(self, add, we, dofs, jth, ju, jw, with_theta, with_u,
                    with_w):
        # h_e^{-1} weight cancels against the edge length of plain ds
        if with_theta:
            P = np.einsum("q,qia,qja->ij", we, jth, jth)
            add("rho", dofs, P)
            add("H", dofs, P)
        if with_u:
            P = np.einsum("q,qia,qja->ij", we, ju, ju)
            add("gamma", dofs, P)
            add("H", dofs, P)
        if with_w:
            P = np.einsum("q,qi,qj->ij", we, jw, jw)
            add("tau", dofs, P)
            add("H", dofs, P)

    # ------------------------------------------------------------- norm values

    def quad_norm(self, key: str, vec: np.ndarray) -> float:
        Q = self.grams()[key]
        return float(np.sqrt(max(vec @ (Q @ vec), 0.0)))

    def discrete_norms(self, primal: np.ndarray, aux: np.ndarray = None, *,
                       epsilon: float) -> NormReport:
        g = self.grams()
        rho = self.quad_norm("rho", primal)
        gam = self.quad_norm("gamma", primal)
        tau = self.quad_norm("tau", primal)
        a = float(np.sqrt(rho ** 2 + gam ** 2 + tau ** 2))
        H = self.quad_norm("H", primal)
        V = None
        if aux is not None and "V" in g:
            V = float(np.sqrt(max(aux @ (g["V"] @ aux), 0.0)))
        eb = float(primal @ (self.asm.rho_matrix() @ primal))
        em = float(primal @ (self.asm.gamma_matrix() @ primal))
        es = float(primal @ (self.asm.tau_matrix() @ primal))
        energies = {
            "bending": eb, "membrane": em, "shear": es,
            "total_scaled": epsilon ** 2 * eb + em + es,
            "total": eb + epsilon ** -2 * (em + es),
        }
        return NormReport(rho, gam, tau, a, H, V_h_norm=V, energies=energies)

    def korn_ratio(self, n_samples: int = 0) -> dict:
        """Extreme generalized Rayleigh quotients of the strain-energy norm
        against the broken H1 norm."""
        g = self.grams()
        Qa = g["a"].toarray()
        QH = g["H"].toarray()
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

    def _qh_solve(self, r: np.ndarray) -> np.ndarray:
        if self._qh_lu is None:
            self._qh_lu = spla.splu(self.grams()["H"].tocsc())
        return self._qh_lu.solve(r)

    def dual_H_norm(self, r: np.ndarray) -> float:
        """sup_x r.x / ||x||_H = sqrt(r^T Q_H^{-1} r)."""
        return float(np.sqrt(max(r @ self._qh_solve(r), 0.0)))

    def weak_Vbar_norm(self, aux_vec: np.ndarray) -> float:
        B = self.asm.b_matrix()
        r = aux_vec @ B
        return self.dual_H_norm(r)

    def error_norms(self, primal: np.ndarray, exact) -> dict:
        """H_h and strain norms of (discrete field - exact field); `exact`
        provides values(pts)->(n,5) and grads(pts)->(n,5,2), called on all
        element quadrature points, then values on all non-free boundary-edge
        points."""
        asm = self.asm
        layout = self.layout
        e = asm._elem_data()
        nt, nq = e.qpts.shape[:2]
        ev, eg = batched(lambda p: (exact.values(p), exact.grads(p)),
                         e.qpts.reshape(-1, 2))
        ev, eg = ev.reshape(nt, nq, 5), eg.reshape(nt, nq, 5, 2)
        H2 = 0.0
        rho2 = gam2 = tau2 = 0.0
        from . import strain as strain_mod
        for t in range(asm.mesh.n_triangles):
            v, g = field_values(asm._element_strains(t).fields,
                                primal[layout.element_dofs(t)])
            dv, dg = v - ev[t], g - eg[t]
            w = e.areas[t] * e.wq
            H2 += float(w @ (np.sum(dv ** 2, axis=-1)
                             + np.sum(dg ** 2, axis=(-2, -1))))
            r, gm, ta = strain_mod.strains(dv[:, 0:2], dg[:, 0:2], dv[:, 2:4],
                                           dg[:, 2:4], dv[:, 4], dg[:, 4],
                                           e.geom[t])
            rho2 += float(w @ np.sum(r ** 2, axis=(-2, -1)))
            gam2 += float(w @ np.sum(gm ** 2, axis=(-2, -1)))
            tau2 += float(w @ np.sum(ta ** 2, axis=-1))
        # edge jumps: exact fields are continuous, so jumps of the difference
        # equal jumps of the discrete field; boundary traces subtract exact
        interior, boundary = asm._edge_data()
        def trace(t, ed):
            s = asm._side_arrays(t, ed.pts, ed.geom)
            return np.einsum("qkc,k->qc", _components(s.th, s.u, s.w),
                             primal[layout.element_dofs(t)])

        for ed in interior:
            jump = trace(ed.edge.left, ed) - trace(ed.edge.right, ed)
            H2 += float(ed.we @ np.sum(jump ** 2, axis=-1))
        fixed = [ed for ed in boundary if ed.edge.tag != "F"]
        bpts = np.array([ed.pts for ed in fixed]).reshape(-1, 2)
        bv = batched(exact.values, bpts).reshape(
            len(fixed), asm.config.quad_edge_points, 5)
        for ed, edge_v in zip(fixed, bv):
            d = trace(ed.edge.triangle, ed) - edge_v
            first = 0 if ed.edge.tag == "D" else 2      # rotations only on D
            H2 += float(ed.we @ np.sum(d[:, first:] ** 2, axis=-1))
        return {"H_h": float(np.sqrt(H2)), "rho": float(np.sqrt(rho2)),
                "gamma": float(np.sqrt(gam2)), "tau": float(np.sqrt(tau2))}


def consistency_residual(manufactured, assembler: FormAssembler, method: str,
                         epsilon: float) -> float:
    """Dual-norm residual of the discrete equations at the interpolant of an
    exact smooth solution whose loads are manufactured consistently."""
    from .fe_space import project_primal
    layout = assembler.layout
    engine = NormEngine(assembler)
    xi = project_primal(manufactured.fields_dict(), assembler.mesh,
                        assembler.chart, layout)
    f = assembler.load_vector(manufactured.load_spec())
    if method == "dg":
        K = (assembler.rho_matrix()
             + epsilon ** -2 * (assembler.gamma_matrix()
                                + assembler.tau_matrix()))
        r = K @ xi - f
        return engine.dual_H_norm(r)
    if method == "mixed":
        mi = manufactured.aux_interpolant(layout, epsilon ** -2)
        A = assembler.a_theta(1.0)
        B = assembler.b_matrix()
        r = A @ xi + B.T @ mi - f
        return engine.dual_H_norm(r)
    raise ValueError(f"unknown method {method!r}")
