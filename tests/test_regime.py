import numpy as np
import pytest

from shellfem import assembly, solve
from shellfem.assembly import FormAssembler, LoadSpec
from shellfem.driver import ShellProblem
from shellfem.geometry import make_chart
from shellfem.mesh import generate_rect_mesh, mesh_condition_report
from shellfem.regime import (VERDICT_BENDING, VERDICT_INCONCLUSIVE,
                             VERDICT_NON_BENDING, RegimeReport, detect_regime,
                             recommend_solution)


def cylinder_problem(epsilon=1e-2, scale=1.0, nx=3, ny=3,
                     tags=("D", "D", "D", "D")):
    chart = make_chart("cylinder", radius=1.0)
    mesh = generate_rect_mesh((0.0, 1.0, 0.0, 1.0), nx, ny, tags=tags)
    loads = LoadSpec(p3=lambda p: scale * np.sin(np.pi * p[:, 0])
                     * np.sin(np.pi * p[:, 1]))
    return ShellProblem(chart=chart, mesh=mesh, epsilon=epsilon, loads=loads)


def test_extrapolation_identity():
    # if u^{eps/2} == u^{eps}, the Richardson combination equals both
    prob = cylinder_problem()
    sols = {}
    rep = detect_regime(prob, keep_solutions=sols)
    a = sols["mixed_eps"].primal
    synthetic = (4.0 * a - a) / 3.0
    assert np.abs(synthetic - a).max() < 1e-14 * max(np.abs(a).max(), 1)
    # and the actual combination satisfies the defining identity exactly
    b = sols["mixed_half"].primal
    assert np.allclose(sols["extrap"], (4.0 * b - a) / 3.0, atol=0, rtol=0)
    assert rep.norm_extrap > 0


def test_partially_clamped_cylinder_is_bending_dominated():
    sols = {}
    rep = detect_regime(cylinder_problem(epsilon=1e-2,
                                         tags=("D", "F", "F", "F")),
                        keep_solutions=sols)
    assert rep.verdict == VERDICT_BENDING
    assert rep.ratios["mixed_over_dg"] >= rep.thresholds["T_big"]
    chosen = recommend_solution(rep, sols)
    assert chosen is sols["mixed_eps"]


def test_verdict_invariant_under_load_scaling():
    r1 = detect_regime(cylinder_problem(scale=1.0))
    r2 = detect_regime(cylinder_problem(scale=1e4))
    assert r1.verdict == r2.verdict
    for k in r1.ratios:
        assert r1.ratios[k] == pytest.approx(r2.ratios[k], rel=1e-6)
    assert r2.norm_mixed_eps == pytest.approx(1e4 * r1.norm_mixed_eps,
                                              rel=1e-6)


def test_recommendations_by_verdict():
    base = dict(norm_mixed_eps=1.0, norm_mixed_half_eps=1.0, norm_extrap=1.0,
                norm_dg=1.0, ratios={}, thresholds={})
    sols = {"mixed_eps": "A", "dg": "B"}
    rep = RegimeReport(verdict=VERDICT_BENDING, **base)
    assert recommend_solution(rep, sols) == "A"
    rep = RegimeReport(verdict=VERDICT_NON_BENDING, **base)
    assert recommend_solution(rep, sols) == "B"
    rep = RegimeReport(verdict=VERDICT_INCONCLUSIVE, **base)
    with pytest.raises(ValueError):
        recommend_solution(rep, sols)


def test_report_render_and_csv():
    rep = detect_regime(cylinder_problem())
    text = rep.to_text()
    assert "verdict" in text and rep.verdict in text
    row = rep.to_csv_row()
    assert row["verdict"] == rep.verdict
    assert row["norm_dg"] == rep.norm_dg
    assert "eps" in rep.mesh_condition and "half_eps" in rep.mesh_condition


def test_custom_thresholds_can_force_inconclusive():
    rep = detect_regime(cylinder_problem(),
                        thresholds={"T_big": 1e9, "T_zero": 1e-12,
                                    "stabilize_rel": 1e-12})
    assert rep.verdict == VERDICT_INCONCLUSIVE


def test_forms_built_once(form_builds):
    prob = cylinder_problem(epsilon=1e-2, tags=("D", "F", "F", "F"))
    detect_regime(prob)
    # calibration, both thicknesses of the mixed method, the one-field method
    # and the norms share one assembly on the enriched layout
    assert form_builds == ["mixed"]


def test_mesh_condition_sweeps_the_chart_once(chart_evaluations):
    prob = cylinder_problem(tags=("D", "F", "F", "F"))
    rep = detect_regime(prob)
    # one evaluation at the 6 samples of every triangle serves both eps
    assert chart_evaluations.count(
        ("evaluate", 6 * prob.mesh.n_triangles)) == 1
    want = {}
    for label, eps in (("eps", prob.epsilon), ("half_eps", prob.epsilon / 2)):
        want[label] = mesh_condition_report(prob.mesh, prob.chart, eps)
        if not want[label]["geometry_resolved"]:
            want[f"{label}_warning"] = "mesh condition violated"
    assert rep.mesh_condition == want


def test_norms_trace_each_point_set_once(monkeypatch):
    """The four H norms of a detection are one pass: each point set's
    basis traces are built once for all four fields."""
    prob = cylinder_problem(tags=("D", "F", "F", "F"))
    prob.solve("mixed")            # calibration, forms and loads trace too
    calls = []
    traces = FormAssembler._traces

    def counting(self, *args, **kwargs):
        calls.append(len(args[0]))
        return traces(self, *args, **kwargs)
    monkeypatch.setattr(FormAssembler, "_traces", counting)
    prob.norm_engine().quad_norm("H", prob.rhs())
    one_pass = list(calls)
    calls.clear()
    detect_regime(prob)
    assert one_pass and calls == one_pass


def test_calibrated_detection_factors_three_systems(monkeypatch):
    """Mixed at eps and eps/2 and penalized at eps: a detection on a
    calibrated problem factors these three systems and nothing else."""
    prob = cylinder_problem(tags=("D", "F", "F", "F"))
    prob.calibrate()
    shapes, factor = [], solve.factor

    def counting(K):
        shapes.append(K.shape)
        return factor(K)
    for owner in (solve, assembly):
        monkeypatch.setattr(owner, "factor", counting)
    detect_regime(prob)
    layout = prob.assembler().layout
    n = layout.n_primal + layout.n_block3
    assert shapes == [(n, n), (n, n), (layout.n_block1, layout.n_block1)]
