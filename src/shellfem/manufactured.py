"""Manufactured exact solutions and the loads that reproduce them.

Given five smooth fields (theta1, theta2, u1, u2, w) as expressions, this
module evaluates the exact strains and stress resultants

    m^{ab} = (1/3) a^{abcd} rho_cd,
    n^{ab} = theta_total * a^{abcd} gamma_cd,
    t^a    = theta_total * kappa mu a^{ab} tau_b,

and derives volume loads (forces and couples) and boundary fluxes from the
covariant divergence formulas, so that the exact fields solve the continuous
model whose energy multiplies the membrane/shear part by theta_total.

All derivatives are exact: the fields' partials up to second order are one
exact jet (`expr.jet`), and stress divergences use covariant derivatives of
the strains (the metric contraction commutes with covariant
differentiation).  The strains' partials are the strain rule itself
(`strain.field_rows`) on the fields' partials and on the geometry stepped
by the chart's derivative fields of the curvature tensor and Christoffel
symbols (`Chart.derivatives`); no partial is written out by hand.  As the
load provider of `LoadSpec`, the solution is handed the geometry the
assembler holds at its quadrature points, and `volume_loads` makes the
derivative fields, the elastic tensor, the field partials and the strains
once each.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import expr as exprmod
from . import strain
from .assembly import LoadSpec
from .fe_space import FIELDS
from .geometry import eval_elastic


class ManufacturedSolution:
    def __init__(self, field_exprs: dict, chart, material, theta_total: float):
        self.chart = chart
        self.material = material
        self.theta_total = float(theta_total)
        self._jet = exprmod.jet([field_exprs[n] for n in FIELDS], 2)

    # ------------------------------------------------------------- evaluation

    def _partials(self, pts, order):
        """The fields' partials of one order at pts (..., 2), as
        (..., 5, 2, .., 2): the field axis, then one axis per index."""
        d = exprmod.partials(self._jet, np.asarray(pts, dtype=float), order)
        return np.moveaxis(d, range(order + 1), range(-order - 1, 0))

    def values(self, pts):
        return self._partials(pts, 0)

    def grads(self, pts):
        return self._partials(pts, 1)

    def strains_at(self, pts, geom=None):
        if geom is None:
            geom = self.chart.evaluate(pts)
        return strain.field_strains(self.values(pts), self.grads(pts), geom)

    def _elastic(self, geom):
        mat = self.material
        return eval_elastic(geom, mat.lam, mat.mu, mat.kappa,
                            compliance=False).elastic

    def _stresses(self, geom, el, strains):
        """Stress resultants (m, nmem, t) from the elastic tensor `el` and
        the strains (rho, gamma, tau) at the points of `geom`."""
        rho, gam, tau = strains
        m = (1.0 / 3.0) * np.einsum("...abcd,...cd->...ab", el, rho)
        nmem = self.theta_total * np.einsum("...abcd,...cd->...ab", el, gam)
        t = (self.theta_total * self.material.kappa * self.material.mu
             * np.einsum("...ab,...b->...a", geom.a_con, tau))
        return m, nmem, t

    def stresses(self, pts, geom=None):
        """Stress resultants (m, nmem, t) at parameter points."""
        if geom is None:
            geom = self.chart.evaluate(pts)
        return self._stresses(geom, self._elastic(geom),
                              self.strains_at(pts, geom))

    boundary_fluxes = stresses      # the load provider protocol of LoadSpec

    # ------------------------------------------------------------ volume loads

    @staticmethod
    def _strain_covariant_partials(geom, dgeom, v, g, hh, strains):
        """Exact covariant derivatives rho_{ab|c}, gamma_{ab|c}, tau_{a|c}
        (last axis is the differentiation index) of the fields with values
        v, gradients g, Hessians hh and strains (rho, gamma, tau), at points
        of geometry `geom` and its derivatives `dgeom`.  d_c of the strain
        rows is the rows of the fields' partials plus half the difference
        of the rows on the geometry stepped by +-d_c: the rows are at most
        quadratic in the geometry, so the central difference is exact."""
        def step(s):                       # c on a first axis
            b, bm, G = (getattr(geom, f) + s * np.moveaxis(
                getattr(dgeom, "d_" + f), -1, 0)
                for f in ("b_cov", "b_mix", "christoffel"))
            return replace(geom, b_cov=b, b_mix=bm, christoffel=G,
                           c_cov=np.einsum("...ga,...gb->...ab", bm, b))
        rows = strain.field_rows
        d = np.moveaxis(rows(np.moveaxis(g, -1, 0), np.moveaxis(hh, -1, 0),
                             geom)
                        + 0.5 * (rows(v, g, step(1.0))
                                 - rows(v, g, step(-1.0))), 0, -1)
        G = geom.christoffel
        drho, dgam = (d[..., r:r + 4, :].reshape(d.shape[:-2] + (2, 2, 2))
                      - np.einsum("...lac,...lb->...abc", G, x)
                      - np.einsum("...lbc,...al->...abc", G, x)
                      for r, x in ((0, strains[0]), (4, strains[1])))
        return drho, dgam, (d[..., 8:10, :]
                            - np.einsum("...lac,...l->...ac", G, strains[2]))

    def volume_loads(self, pts, geom=None):
        """Couples c^a and forces p^1,p^2,p^3 at parameter points (exact),
        whose geometry is `geom` (evaluated if None)."""
        geom = self.chart.evaluate(pts) if geom is None else geom
        dgeom = self.chart.derivatives(pts)
        mat, el = self.material, self._elastic(geom)
        v, g, hh = (self._partials(pts, k) for k in range(3))
        strains = strain.field_strains(v, g, geom)
        m, nmem, t = self._stresses(geom, el, strains)
        drho_cov, dgam_cov, dtau_cov = self._strain_covariant_partials(
            geom, dgeom, v, g, hh, strains)
        # metric contractions commute with covariant differentiation
        div_m = (1.0 / 3.0) * np.einsum("...abcd,...cdb->...a", el, drho_cov)
        div_n = self.theta_total * np.einsum("...abcd,...cdb->...a", el,
                                             dgam_cov)
        div_t = (self.theta_total * mat.kappa * mat.mu
                 * np.einsum("...ab,...ba->...", geom.a_con, dtau_cov))
        G = geom.christoffel
        bm = geom.b_mix
        # b^g_{a|b} = d_b b^g_a + G^g_{bl} b^l_a - G^l_{ab} b^g_l
        dbm_cov = (dgeom.d_b_mix
                   + np.einsum("...gbl,...la->...gab", G, bm)
                   - np.einsum("...lab,...gl->...gab", G, bm))
        div_bm = (np.einsum("...gab,...ab->...g", dbm_cov, m)
                  + np.einsum("...ga,...a->...g", bm, div_m))
        couple = -div_m + t
        force = div_bm - div_n + np.einsum("...a,...ga->...g", t, bm)
        p3 = (np.einsum("...ab,...ab->...", m, geom.c_cov)
              - np.einsum("...ab,...ab->...", nmem, geom.b_cov)
              - div_t)
        return {"c1": couple[..., 0], "c2": couple[..., 1],
                "p1": force[..., 0], "p2": force[..., 1], "p3": p3}

    def load_spec(self) -> LoadSpec:
        """Loads with this solution as their provider: `load_vector` hands
        it the geometry it holds at the volume points and at the points of
        the boundary edges that leave some field free."""
        return LoadSpec(provider=self)
