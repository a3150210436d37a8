"""Asymptotic-regime detection: solve with both discretizations at two
thickness values, Richardson-combine the thinner pair, and classify the shell
as bending-dominated or not from the norm magnitudes."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .driver import ShellProblem
from .mesh import geometry_resolution, mesh_condition_report
from .solve import ShellSolution


@dataclass
class RegimeReport:
    norm_mixed_eps: float
    norm_mixed_half_eps: float
    norm_extrap: float
    norm_dg: float
    ratios: dict
    verdict: str
    thresholds: dict
    epsilon: float = None
    mesh_condition: dict = field(default_factory=dict)

    def to_text(self) -> str:
        lines = [
            "regime detection report",
            f"  epsilon                 : {self.epsilon:.6g}",
            f"  |u_h|_H  (mixed, eps)   : {self.norm_mixed_eps:.6e}",
            f"  |u_h|_H  (mixed, eps/2) : {self.norm_mixed_half_eps:.6e}",
            f"  |u_h|_H  (extrapolated) : {self.norm_extrap:.6e}",
            f"  |u_h|_H  (one-field)    : {self.norm_dg:.6e}",
        ]
        for k, v in self.ratios.items():
            lines.append(f"  ratio {k:<18}: {v:.6e}")
        for k, v in self.thresholds.items():
            lines.append(f"  threshold {k:<14}: {v}")
        for k, v in self.mesh_condition.items():
            lines.append(f"  mesh condition {k}: {v}")
        lines.append(f"  verdict: {self.verdict}")
        return "\n".join(lines)

    def to_csv_row(self) -> dict:
        row = {"norm_mixed_eps": self.norm_mixed_eps,
               "norm_mixed_half_eps": self.norm_mixed_half_eps,
               "norm_extrap": self.norm_extrap,
               "norm_dg": self.norm_dg,
               "verdict": self.verdict}
        row.update({f"ratio_{k}": v for k, v in self.ratios.items()})
        return row


VERDICT_BENDING = "bending-dominated"
VERDICT_NON_BENDING = "non-bending (membrane/shear or intermediate)"
VERDICT_INCONCLUSIVE = "inconclusive"


def detect_regime(problem: ShellProblem, thresholds: dict = None,
                  keep_solutions: dict = None) -> RegimeReport:
    """Classify the asymptotic regime of `problem` at its thickness epsilon.

    Runs the mixed method at eps and eps/2 and the one-field method at eps,
    forms the Richardson combination (4 u^{eps/2} - u^{eps}) / 3 on the shared
    coefficient vector, and applies the magnitude-based decision rule."""
    th = {"T_big": 10.0, "T_zero": 0.1, "stabilize_rel": 0.05}
    if thresholds:
        th.update(thresholds)
    eps = problem.epsilon

    sol_eps = problem.solve("mixed", epsilon=eps)
    sol_half = problem.solve("mixed", epsilon=eps / 2)
    sol_dg = problem.solve("dg", epsilon=eps)
    extrap = (4.0 * sol_half.primal - sol_eps.primal) / 3.0

    n_eps, n_half, n_ext, n_dg = map(float, problem.norm_engine().quad_norm(
        "H", np.stack([sol_eps.primal, sol_half.primal, extrap,
                       sol_dg.primal])))

    ratios = {
        "dg_over_mixed": n_dg / n_eps if n_eps else np.inf,
        "mixed_over_dg": n_eps / n_dg if n_dg else np.inf,
        "extrap_over_eps": n_ext / n_eps if n_eps else np.inf,
        "half_over_eps": n_half / n_eps if n_eps else np.inf,
    }

    if n_dg > 0 and n_eps / n_dg >= th["T_big"]:
        verdict = VERDICT_BENDING
    elif (n_eps >= n_half >= n_ext and n_ext <= th["T_zero"] * n_eps):
        verdict = VERDICT_NON_BENDING
    elif (abs(n_ext - n_half) <= th["stabilize_rel"] * n_half
          and n_ext > th["T_zero"] * n_eps):
        verdict = VERDICT_BENDING
    else:
        verdict = VERDICT_INCONCLUSIVE

    cond = {}
    resolution = geometry_resolution(problem.mesh, problem.chart)
    for label, e in (("eps", eps), ("half_eps", eps / 2)):
        rep = mesh_condition_report(problem.mesh, problem.chart, e, resolution)
        cond[label] = rep
        if not rep.get("geometry_resolved", True):
            cond[f"{label}_warning"] = "mesh condition violated"

    report = RegimeReport(
        norm_mixed_eps=n_eps, norm_mixed_half_eps=n_half, norm_extrap=n_ext,
        norm_dg=n_dg, ratios=ratios, verdict=verdict, thresholds=th,
        epsilon=eps, mesh_condition=cond)
    if keep_solutions is not None:
        keep_solutions.update({"mixed_eps": sol_eps, "mixed_half": sol_half,
                               "dg": sol_dg, "extrap": extrap})
    return report


def recommend_solution(report: RegimeReport, solutions: dict) -> ShellSolution:
    """Pick the discretization the verdict endorses."""
    if report.verdict == VERDICT_BENDING:
        return solutions["mixed_eps"]
    if report.verdict == VERDICT_NON_BENDING:
        return solutions["dg"]
    raise ValueError("inconclusive regime verdict: refine the mesh or adjust "
                     "the detection thresholds before choosing a method")
