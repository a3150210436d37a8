"""The studies of STUDIES.md, on their smaller meshes, with the bounds that
STUDIES.md writes next to the figures they come from."""

import numpy as np

from shellfem.driver import ShellProblem
from shellfem.geometry import make_chart
from shellfem.manufactured import ManufacturedSolution
from shellfem.mesh import generate_rect_mesh

# An inextensional (pure bending) displacement of the cylinder R = 1 with
# its left edge clamped: gamma and tau vanish, so the loads do not depend on
# the thickness.
INEXTENSIONAL = {"u1": "x2 * x1^3", "u2": "-x1^4 / 4", "w": "-3 * x2 * x1^2",
                 "theta1": "x2 * (x1^3 + 6 * x1)", "theta2": "3 * x1^2"}


def test_mixed_method_is_thickness_robust_on_a_bending_dominated_cylinder():
    chart = make_chart("cylinder", radius=1.0)
    problems = [ShellProblem(chart=chart, mesh=generate_rect_mesh(
        (0.0, 1.0, 0.0, 1.0), 4, 4, tags=("D", "F", "F", "F")))]
    for _ in range(2):                          # 8x8 and 16x16
        problems.append(problems[-1].refined())
    err, rel = {}, {}
    for eps in (1e-1, 1e-4):
        for method in ("mixed", "dg"):
            total = eps ** -2 + (1.0 if method == "mixed" else 0.0)
            mfd = ManufacturedSolution(INEXTENSIONAL, chart,
                                       problems[0].material, total)
            for level, problem in enumerate(problems):
                sol = problem.solve(method, epsilon=eps,
                                    loads=mfd.load_spec())
                eng = problem.norm_engine()
                e = eng.error_norms(sol.primal, mfd)["H_h"]
                ref = eng.error_norms(np.zeros_like(sol.primal), mfd)["H_h"]
                err[eps, method, level] = e
                rel[eps, method, level] = e / ref
    h = [max(p.mesh.h_tau) for p in problems]
    for eps in (1e-1, 1e-4):
        orders = [np.log(err[eps, "mixed", k - 1] / err[eps, "mixed", k])
                  / np.log(h[k - 1] / h[k]) for k in (1, 2)]
        assert min(orders) >= 0.95, (eps, orders)
    for level in range(3):
        spread = abs(rel[1e-1, "mixed", level] / rel[1e-4, "mixed", level]
                     - 1.0)
        assert spread <= 0.01, (level, spread)
        assert rel[1e-4, "dg", level] > 0.99, (level, rel[1e-4, "dg", level])
