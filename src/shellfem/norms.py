"""Discrete norms, Korn-equivalence diagnostics, the weak stress norm, and
form-level consistency residuals.

All Sobolev pieces are plain (unweighted) integrals over the parameter
domain; edge pieces carry h_e^{-1} weights on the edge sets spelled out per
seminorm.  Gram matrices are assembled once per layout and reused, by the
assembler's grouped kernel into its primal CSR pattern (see assembly.py);
error norms evaluate the discrete field with the same kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import strain
from .assembly import FormAssembler, _aux_basis, _gram
from .geometry import batched
from .solve import factor


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
        """Gram matrices of the seminorms, from the assembler's grouped
        kernel, on its primal pattern (and, with aux, its stress pattern)."""
        if self._grams is not None:
            return self._grams
        asm = self.asm
        primal, _, stress = asm._pattern()
        pieces = {k: [] for k in ("rho", "gamma", "tau", "H", "V")}
        e = asm._elem_data()
        S = _aux_basis(e.bary)[None]
        for t, dofs, (c, cg), strains in asm._element_batches():
            w = e.areas[t, None] * e.wq                 # plain area element
            slots = primal.slots(dofs, dofs)
            for key, x in zip(("rho", "gamma", "tau"), strains):
                pieces[key].append((slots, _gram(w, x, x)))
            pieces["H"].append((slots, _gram(w, c, c) + _gram(w, cg, cg)))
            if self.layout.with_aux:
                pieces["V"].append((stress.slots(e.aux[t], e.aux[t]),
                                    _gram(w, S, S)))
        # h_e^{-1} weight cancels against the edge length of plain ds
        for d in asm._edge_data():
            for k, dofs, jump, _ in asm._edge_batches(d):
                slots = primal.slots(dofs, dofs)
                if d.tag[k[0]] == "S":                   # rotations: not on S
                    jump = jump * [0.0, 0.0, 1.0, 1.0, 1.0]
                P = [_gram(d.we, j, j) for j in
                     (jump[..., :2], jump[..., 2:4], jump[..., 4])]
                for key, p in zip(("rho", "gamma", "tau"), P):
                    pieces[key].append((slots, p))
                pieces["H"].append((slots, P[0] + P[1] + P[2]))

        data = {k: primal.data(pieces[k]) for k in ("rho", "gamma", "tau", "H")}
        grams = {k: primal.csr(v) for k, v in data.items()}
        grams["a"] = primal.csr(data["rho"] + data["gamma"] + data["tau"])
        if self.layout.with_aux:
            grams["V"] = stress.csr(stress.data(pieces["V"]))
        self._grams = grams
        return grams

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
            self._qh_lu = factor(self.grams()["H"])
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
        e = asm._elem_data()
        ev, eg = batched(lambda p: (exact.values(p), exact.grads(p)),
                         e.qpts.reshape(-1, 2))
        v, g = asm.field_values(primal, np.arange(asm.mesh.n_triangles))
        dv, dg = v - ev.reshape(v.shape), g - eg.reshape(g.shape)
        w = e.areas[:, None] * e.wq
        r, gm, ta = strain.field_strains(dv, dg, e.geom)
        H2 = np.sum(w * (np.sum(dv ** 2, axis=-1)
                         + np.sum(dg ** 2, axis=(-2, -1))))
        rho2 = np.sum(w * np.sum(r ** 2, axis=(-2, -1)))
        gam2 = np.sum(w * np.sum(gm ** 2, axis=(-2, -1)))
        tau2 = np.sum(w * np.sum(ta ** 2, axis=-1))
        # edge jumps: exact fields are continuous, so jumps of the difference
        # equal jumps of the discrete field; boundary traces subtract exact
        interior, boundary = asm._edge_data()
        jump = (asm.field_values(primal, interior.left, interior.pts)[0]
                - asm.field_values(primal, interior.right, interior.pts)[0])
        H2 += np.sum(interior.we * np.sum(jump ** 2, axis=-1))
        fixed = np.flatnonzero(boundary.tag != "F")
        pts = boundary.pts[fixed]
        d = (asm.field_values(primal, boundary.left[fixed], pts)[0]
             - batched(exact.values, pts.reshape(-1, 2)).reshape(
                 pts.shape[:2] + (5,)))
        d[boundary.tag[fixed] == "S", :, :2] = 0.0      # rotations only on D
        H2 += np.sum(boundary.we * np.sum(d ** 2, axis=-1))
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
