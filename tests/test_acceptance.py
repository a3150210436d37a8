"""End-to-end acceptance checks.  Each test covers one numbered criterion and
prints a single pass/fail line (visible with `pytest -s` or on failure)."""

import numpy as np
import pytest

from shellfem.assembly import (AssemblyConfig, FormAssembler, LoadSpec,
                               Material, calibrate_penalty)
from shellfem.cli import DiscreteField
from shellfem.driver import ShellProblem
from shellfem.expr import (Bin, Call, Const, Num, Unary, Var, evaluate, parse,
                           to_string)
from shellfem.fe_space import build_dof_layout, eval_monos
from shellfem.geometry import ExpressionChart, eval_elastic, make_chart
from shellfem.manufactured import ManufacturedSolution
from shellfem.mesh import (Mesh, generate_rect_mesh, mesh_condition_report,
                           refine_uniform)
from shellfem.norms import NormEngine
from shellfem.regime import (VERDICT_BENDING, VERDICT_NON_BENDING,
                             detect_regime)
from shellfem.solve import realize_via_theta, solve_dg, solve_mixed

from oracles import (consistency_residual, green_identity_check, korn_ratio,
                     layout_basis, penalized_forms, plain_layout,
                     reference_local_basis)


def _report(num, name, ok, detail=""):
    line = f"[acceptance] criterion {num:02d} {name}: " \
           f"{'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


SMOOTH_FIELDS = {
    "theta1": "sin(pi * x1) * sin(pi * x2)",
    "theta2": "x1 * (1 - x1) * x2 * (1 - x2)",
    "u1": "sin(pi * x1) * x2 * (1 - x2)",
    "u2": "x1 * (1 - x1) * sin(pi * x2)",
    "w": "sin(pi * x1) * sin(pi * x2)",
}

CHART_EXPRS = {
    "plate": ("x1", "x2", "0"),
    "cylinder": ("cos(x1)", "sin(x1)", "x2"),
    "sphere": ("sin(x1)*cos(x2)", "sin(x1)*sin(x2)", "cos(x1)"),
}


def test_criterion_01_geometry_exactness():
    rng = np.random.default_rng(1)
    ok = True
    detail = []
    for kind, exprs in CHART_EXPRS.items():
        sym = make_chart(kind)
        fd = ExpressionChart(kind + "-fd", exprs)
        pts = rng.uniform(0.3, 1.2, (60, 2))
        gs, gf = sym.evaluate(pts), fd.evaluate(pts)
        db = np.abs(gs.b_cov - gf.b_cov).max()
        dG = np.abs(gs.christoffel - gf.christoffel).max()
        ok &= db < 1e-6 and dG < 1e-6
        detail.append(f"{kind}: |db|={db:.1e} |dG|={dG:.1e}")
    # constitutive round trip at 1000 random points
    worst = 0.0
    for kind in CHART_EXPRS:
        chart = make_chart(kind)
        pts = rng.uniform(0.3, 1.2, (1000, 2))
        t = eval_elastic(chart.evaluate(pts), lam=1.3, mu=0.7)
        s = rng.standard_normal((1000, 2, 2))
        s = 0.5 * (s + np.swapaxes(s, -1, -2))
        through = np.einsum("...abgd,...gdmn,...mn->...ab",
                            t.compliance, t.elastic, s)
        worst = max(worst, np.abs(through - s).max())
    ok &= worst < 1e-10
    _report(1, "geometry exactness", ok,
            "; ".join(detail) + f"; const. round trip {worst:.1e}")


def test_criterion_02_surface_divergence_identity():
    tri = [(0.1, 0.2), (0.9, 0.3), (0.4, 0.8)]
    cubic = ("x1^3 - 2 * x1 * x2^2", "x2^3 + x1^2 * x2")
    r_plate = green_identity_check(tri, make_chart("plate"), cubic)
    r_cyl = green_identity_check(tri, make_chart("cylinder"), cubic)
    sph_tri = [(0.6, 0.2), (1.2, 0.3), (0.8, 0.9)]
    r_sph = green_identity_check(sph_tri, make_chart("sphere"), cubic)
    ok = r_plate < 1e-12 and r_cyl < 1e-12 and r_sph < 1e-8
    _report(2, "surface divergence identity", ok,
            f"plate {r_plate:.1e}, cylinder {r_cyl:.1e}, sphere {r_sph:.1e}")


def _random_ccw_triangle(rng, lo, hi, min_area=0.02):
    while True:
        t = rng.uniform(lo, hi, (3, 2))
        d1, d2 = t[1] - t[0], t[2] - t[0]
        a2 = d1[0] * d2[1] - d1[1] * d2[0]
        if abs(a2) < 2 * min_area:
            continue
        return t if a2 > 0 else t[[0, 2, 1]]


def test_criterion_03_enrichment_correctness():
    rng = np.random.default_rng(7)
    worst_orth = 0.0
    worst_trace = 0.0
    for kind in ("plate", "cylinder", "sphere"):
        chart = make_chart(kind)
        lo, hi = (0.3, 1.2) if kind == "sphere" else (0.1, 0.9)
        for _ in range(100):
            tri = _random_ccw_triangle(rng, lo, hi)
            k = int(rng.integers(0, 3))
            coeffs = layout_basis(tri, chart, (k,))
            quad = reference_local_basis(tri, chart, free_edges=(k,))
            vals = eval_monos(quad.vol_lam) @ coeffs.T
            gram = np.einsum("q,qi,qj->ij", quad.vol_w, vals[:, :3],
                             vals[:, 3:])
            worst_orth = max(worst_orth, np.abs(gram).max())
            (_, _, te, lam12) = quad.edge_data[0]
            ev = eval_monos(lam12) @ coeffs.T
            worst_trace = max(worst_trace, np.abs(ev[:, 3] - 1.0).max())
            coef = np.polyfit(te, ev[:, 4], 1)
            worst_trace = max(worst_trace,
                              np.abs(np.polyval(coef, te) - ev[:, 4]).max())
    ok = worst_orth < 1e-10 and worst_trace < 1e-12
    _report(3, "displacement-space enrichment", ok,
            f"orthogonality {worst_orth:.1e}, edge traces {worst_trace:.1e}")


def test_criterion_04_consistency():
    # (a) flat chart, degree-1 fields: residual at rounding level for both
    # methods and several penalty constants
    chart = make_chart("plate")
    mesh = generate_rect_mesh((0.0, 1.0, 0.0, 1.0), 2, 2,
                              tags=("F", "F", "F", "F"))
    eps = 0.1
    fields = {"theta1": "0.3 - x2", "theta2": "x1 + 0.1 * x2",
              "u1": "x1 - x2", "u2": "0.5 + x2", "w": "2 * x1 + x2"}
    worst = 0.0
    lay_mixed = build_dof_layout(mesh, chart)
    cal = calibrate_penalty(FormAssembler(mesh, chart, lay_mixed, Material(),
                                          AssemblyConfig()))
    for method in ("mixed", "dg"):
        layout = lay_mixed if method == "mixed" else plain_layout(mesh)
        total = eps ** -2 + (1.0 if method == "mixed" else 0.0)
        mfd = ManufacturedSolution(fields, chart, Material(), total)
        for C in (1.0, 10.0, cal):
            asm = FormAssembler(mesh, chart, layout, Material(),
                                AssemblyConfig(penalty_C=C))
            worst = max(worst, consistency_residual(mfd, asm, method, eps))
    ok_a = worst < 1e-10

    # (b) curved chart, smooth fields: residual decays with the mesh size
    chart = make_chart("cylinder")
    eps = 1.0
    orders = {}
    for method in ("mixed", "dg"):
        total = eps ** -2 + (1.0 if method == "mixed" else 0.0)
        mfd = ManufacturedSolution(SMOOTH_FIELDS, chart, Material(), total)
        res, hs = [], []
        mesh = generate_rect_mesh((0.0, 1.0, 0.0, 1.0), 2, 2,
                                  tags=("F", "F", "F", "F"))
        for _ in range(3):
            layout = (build_dof_layout(mesh, chart) if method == "mixed"
                      else plain_layout(mesh))
            asm = FormAssembler(mesh, chart, layout, Material(),
                                AssemblyConfig(penalty_C=20.0))
            res.append(consistency_residual(mfd, asm, method, eps))
            hs.append(max(mesh.h_tau))
            mesh = refine_uniform(mesh)
        orders[method] = np.log(res[0] / res[-1]) / np.log(hs[0] / hs[-1])
    ok_b = all(o >= 0.9 for o in orders.values())
    _report(4, "consistency of both discretizations", ok_a and ok_b,
            f"degree-1 residual {worst:.1e}; decay orders "
            + ", ".join(f"{m}={o:.2f}" for m, o in orders.items()))


def test_criterion_05_convergence_rates():
    chart = make_chart("cylinder")
    eps = 0.1
    mesh0 = generate_rect_mesh((0.0, 1.0, 0.0, 1.0), 4, 4,
                               tags=("D", "D", "D", "D"))
    meshes = [mesh0]
    for _ in range(2):
        meshes.append(refine_uniform(meshes[-1]))
    cond_ok = all(mesh_condition_report(m, chart, eps)["geometry_resolved"]
                  for m in meshes)

    lay0 = build_dof_layout(mesh0, chart)
    cal = calibrate_penalty(FormAssembler(mesh0, chart, lay0, Material(),
                                          AssemblyConfig()))
    orders = {}
    for method in ("mixed", "dg"):
        total = eps ** -2 + (1.0 if method == "mixed" else 0.0)
        mfd = ManufacturedSolution(SMOOTH_FIELDS, chart, Material(), total)
        errs, hs = [], []
        for mesh in meshes:
            prob = ShellProblem(chart=chart, mesh=mesh, epsilon=eps,
                                loads=mfd.load_spec(),
                                config=AssemblyConfig(penalty_C=cal))
            sol = prob.solve(method)
            eng = prob.norm_engine()
            err = eng.error_norms(sol.primal, mfd)
            ref = eng.error_norms(np.zeros_like(sol.primal), mfd)
            if method == "dg":
                # thickness-weighted energy-equivalent strain norm
                num = np.sqrt(eps ** 2 * err["rho"] ** 2 + err["gamma"] ** 2
                              + err["tau"] ** 2)
                den = np.sqrt(eps ** 2 * ref["rho"] ** 2 + ref["gamma"] ** 2
                              + ref["tau"] ** 2)
            else:
                num, den = err["H_h"], ref["H_h"]
            errs.append(num / den)
            hs.append(max(mesh.h_tau))
        orders[method] = np.log(errs[0] / errs[-1]) / np.log(hs[0] / hs[-1])
    ok = cond_ok and all(o >= 0.9 for o in orders.values())
    _report(5, "convergence rates on the clamped cylinder", ok,
            f"mesh condition ok={cond_ok}; orders "
            + ", ".join(f"{m}={o:.2f}" for m, o in orders.items()))


def test_criterion_06_locking_contrast():
    chart = make_chart("cylinder")
    mesh = generate_rect_mesh((0.0, 1.0, 0.0, 1.0), 3, 3,
                              tags=("D", "F", "F", "F"))
    loads = LoadSpec(p3=lambda p: np.ones(len(p)))
    norms = {"mixed": [], "dg": []}
    for eps in (1e-2, 1e-3, 1e-4):
        prob = ShellProblem(chart=chart, mesh=mesh, epsilon=eps, loads=loads)
        for method in ("mixed", "dg"):
            sol = prob.solve(method)
            norms[method].append(
                prob.norm_engine().quad_norm("H", sol.primal))
    mx = norms["mixed"]
    var = (max(mx) - min(mx)) / max(mx)
    ratio = norms["dg"][-1] / mx[-1]
    ok = var < 0.30 and ratio <= 0.5
    _report(6, "locking contrast across thicknesses", ok,
            f"mixed-norm variation {100 * var:.1f}%, "
            f"one-field/mixed at thinnest {ratio:.3f}")


def test_criterion_07_regime_detection():
    # (a) partially clamped cylinder under transverse load -> bending
    chart = make_chart("cylinder")
    mesh = generate_rect_mesh((0.0, 1.0, 0.0, 1.0), 3, 3,
                              tags=("D", "F", "F", "F"))
    prob = ShellProblem(chart=chart, mesh=mesh, epsilon=1e-2,
                        loads=LoadSpec(p3=lambda p: np.ones(len(p))))
    rep_a = detect_regime(prob)

    # (b) fully clamped spherical cap -> non-bending
    chart = make_chart("sphere")
    mesh = generate_rect_mesh((np.pi / 4, np.pi / 2, 0.0, np.pi / 4), 6, 6,
                              tags=("D", "D", "D", "D"))
    prob = ShellProblem(chart=chart, mesh=mesh, epsilon=1e-3,
                        loads=LoadSpec(p3=lambda p: np.ones(len(p))))
    rep_b = detect_regime(prob)

    # (c) identical-thickness inputs: the Richardson combination is exact
    rng = np.random.default_rng(0)
    a = rng.standard_normal(500)
    synth = (4.0 * a - a) / 3.0
    ident = np.abs(synth - a).max() / np.abs(a).max()

    ok = (rep_a.verdict == VERDICT_BENDING
          and rep_b.verdict == VERDICT_NON_BENDING
          and ident < 1e-14)
    _report(7, "regime detection", ok,
            f"cylinder: {rep_a.verdict}; sphere: {rep_b.verdict}; "
            f"extrapolation identity {ident:.1e}")


def test_criterion_08_strain_energy_norm_equivalence():
    chart = make_chart("plate")
    mesh = generate_rect_mesh((0.0, 1.0, 0.0, 1.0), 2, 2,
                              tags=("D", "D", "D", "D"))
    mins, maxs = [], []
    for _ in range(3):
        asm = FormAssembler(mesh, chart, plain_layout(mesh), Material(),
                            AssemblyConfig(penalty_C=20.0))
        ext = korn_ratio(NormEngine(asm))
        mins.append(ext["min_ratio"])
        maxs.append(ext["max_ratio"])
        mesh = refine_uniform(mesh)
    ok = (max(mins) / min(mins) < 2.0 and max(maxs) / min(maxs) < 2.0
          and min(mins) > 0)
    _report(8, "strain-to-H1 norm equivalence under refinement", ok,
            f"min ratios {['%.3e' % v for v in mins]}, "
            f"max ratios {['%.3e' % v for v in maxs]}")


def _permuted_mesh(mesh, rng):
    perm = rng.permutation(mesh.n_triangles)
    return Mesh(mesh.vertices.copy(), mesh.triangles[perm].copy(),
                mesh.boundary.pairs, mesh.boundary.tag)


def test_criterion_09_cross_path_equality():
    chart = make_chart("cylinder")
    mesh = generate_rect_mesh((0.0, 1.0, 0.0, 1.0), 3, 3,
                              tags=("D", "F", "F", "F"))
    eps = 0.1
    loads = LoadSpec(p3=lambda p: np.sin(np.pi * p[:, 0]) * p[:, 1],
                     c1=lambda p: p[:, 0] * p[:, 1])

    # mixed: the two construction paths are the same code path -> bitwise
    lay_m = build_dof_layout(mesh, chart)
    asm_m = FormAssembler(mesh, chart, lay_m, Material(),
                          AssemblyConfig(penalty_C=20.0))
    f_m = asm_m.load_vector(loads)
    direct = solve_mixed(asm_m.a_theta(1.0), asm_m.b_matrix(),
                         asm_m.c_matrix(), f_m, eps, asm_m.factor_tree())
    via = realize_via_theta(asm_m, "mixed", eps, f_m)
    bitwise = (np.array_equal(direct.primal, via.primal)
               and np.array_equal(direct.aux, via.aux))

    # one-field: parameterized assembly vs standalone penalized system
    lay_d = plain_layout(mesh)
    asm_d = FormAssembler(mesh, chart, lay_d, Material(),
                          AssemblyConfig(penalty_C=20.0))
    f_d = asm_d.load_vector(loads)
    dg_direct = solve_dg(*penalized_forms(asm_d), f_d, eps,
                         asm_d.factor_tree(lay_d.n_primal))
    dg_via = realize_via_theta(asm_d, "dg", eps, f_d)
    dg_diff = (np.abs(dg_direct.primal - dg_via.primal).max()
               / np.abs(dg_direct.primal).max())

    # element-numbering invariance: same fields from a permuted mesh
    rng = np.random.default_rng(3)
    pmesh = _permuted_mesh(mesh, rng)
    sample = rng.uniform(0.05, 0.95, (50, 2))
    perm_diff = 0.0
    for method in ("mixed", "dg"):
        p1 = ShellProblem(chart=chart, mesh=mesh, epsilon=eps, loads=loads,
                          config=AssemblyConfig(penalty_C=20.0))
        p2 = ShellProblem(chart=chart, mesh=pmesh, epsilon=eps, loads=loads,
                          config=AssemblyConfig(penalty_C=20.0))
        s1 = p1.solve(method)
        s2 = p2.solve(method)
        v1 = DiscreteField(p1, s1.primal).values(sample)
        v2 = DiscreteField(p2, s2.primal).values(sample)
        perm_diff = max(perm_diff,
                        np.abs(v1 - v2).max() / np.abs(v1).max())

    ok = bitwise and dg_diff < 1e-10 and perm_diff < 1e-10
    _report(9, "cross-path and renumbering equality", ok,
            f"mixed bitwise={bitwise}, one-field rel diff {dg_diff:.1e}, "
            f"renumbering rel diff {perm_diff:.1e}")


_FUNCS = ("sin", "cos", "tan", "exp", "log", "sqrt", "abs")


def _random_ast(rng, depth=0):
    r = rng.random()
    if depth > 5 or r < 0.25:
        choice = rng.integers(0, 4)
        if choice == 0:
            return Num(float(np.round(rng.uniform(0, 10), 3)))
        if choice == 1:
            return Var("x1")
        if choice == 2:
            return Var("x2")
        return Const("pi" if rng.random() < 0.5 else "e")
    if r < 0.35:
        return Unary(_random_ast(rng, depth + 1))
    if r < 0.5:
        return Call(_FUNCS[rng.integers(0, len(_FUNCS))],
                    _random_ast(rng, depth + 1))
    op = "+-*/^"[rng.integers(0, 5)]
    return Bin(op, _random_ast(rng, depth + 1), _random_ast(rng, depth + 1))


def test_criterion_10_expression_parser():
    rng = np.random.default_rng(99)
    failures = sum(1 for _ in range(1000)
                   if parse(to_string(ast := _random_ast(rng))) != ast)
    cases = [("2^3^2", 512.0), ("-2^2", -4.0), ("6/3/2", 1.0),
             ("1-2-3", -4.0), ("2+3*4", 14.0), ("(2+3)*4", 20.0),
             ("2--3", 5.0)]
    prec_ok = all(evaluate(parse(t), 0.0, 0.0) == pytest.approx(v)
                  for t, v in cases)
    ok = failures == 0 and prec_ok
    _report(10, "expression parser round trip and precedence", ok,
            f"fuzz failures {failures}/1000, precedence ok={prec_ok}")
