import numpy as np
import pytest

from shellfem import manufactured, strain
from shellfem.assembly import Material
from shellfem.fe_space import build_dof_layout
from shellfem.geometry import make_chart
from shellfem.manufactured import FIELDS, ManufacturedSolution
from shellfem.mesh import generate_rect_mesh

from oracles import aux_interpolant, manufactured_hessians, volume_loads_fd

TRIG = {"theta1": "sin(pi * x1) * x2", "theta2": "cos(x2) * x1",
        "u1": "x1^2 * (1 - x2)", "u2": "sin(x1 + x2)",
        "w": "x1 * x2 * (1 - x1)"}


def make_sol(chart_kind, exprs=TRIG, theta_total=1.0, **kw):
    chart = make_chart(chart_kind, **kw)
    return ManufacturedSolution(exprs, chart, Material(), theta_total)


@pytest.mark.parametrize("kind,lo,hi", [("plate", 0.0, 1.0),
                                        ("cylinder", 0.0, 1.0),
                                        ("sphere", 0.5, 1.3),
                                        ("hypar", 0.0, 1.0)])
def test_analytic_loads_match_finite_differences(kind, lo, hi):
    sol = make_sol(kind, theta_total=4.0,
                   **({"coeff": 0.8} if kind == "hypar" else {}))
    rng = np.random.default_rng(0)
    pts = rng.uniform(lo, hi, (40, 2))
    exact = sol.volume_loads(pts)
    fd = volume_loads_fd(sol, pts)
    for key in exact:
        scale = max(np.abs(exact[key]).max(), 1.0)
        assert np.abs(exact[key] - fd[key]).max() < 1e-6 * scale, key


def test_plate_transverse_only_special_case():
    # flat chart, theta = u = 0: the only stress is the shear t = k*mu*grad w,
    # so c^a = t^a and p3 = -k*mu*laplacian(w)
    exprs = {"theta1": "0", "theta2": "0", "u1": "0", "u2": "0",
             "w": "sin(x1) * cos(2 * x2)"}
    sol = make_sol("plate", exprs, theta_total=1.0)
    kmu = sol.material.kappa * sol.material.mu
    rng = np.random.default_rng(1)
    pts = rng.uniform(0, 1, (30, 2))
    loads = sol.volume_loads(pts)
    x1, x2 = pts[:, 0], pts[:, 1]
    w = np.sin(x1) * np.cos(2 * x2)
    gw = np.stack([np.cos(x1) * np.cos(2 * x2),
                   -2 * np.sin(x1) * np.sin(2 * x2)], axis=-1)
    lap = -5.0 * w
    assert np.allclose(loads["c1"], kmu * gw[:, 0], atol=1e-12)
    assert np.allclose(loads["c2"], kmu * gw[:, 1], atol=1e-12)
    assert np.allclose(loads["p3"], -kmu * lap, atol=1e-12)
    assert np.allclose(loads["p1"], 0, atol=1e-12)
    assert np.allclose(loads["p2"], 0, atol=1e-12)


def test_plate_membrane_special_case():
    # flat chart, only in-plane displacement: p^g = -n^{gb}_{,b}, no couples
    exprs = {"theta1": "0", "theta2": "0", "u1": "x1^2", "u2": "x1 * x2",
             "w": "0"}
    th = 2.5
    sol = make_sol("plate", exprs, theta_total=th)
    lam, mu = sol.material.lam, sol.material.mu
    # plane-stress-reduced Lame coefficient
    lam_s = 2 * lam * mu / (lam + 2 * mu)
    rng = np.random.default_rng(2)
    pts = rng.uniform(0, 1, (20, 2))
    loads = sol.volume_loads(pts)
    # gamma = [[2 x1, x2/2], [x2/2, x1]]
    # n^{11} = th*(lam_s*(3 x1) + 2 mu*(2 x1)); n^{12} = th*2 mu*(x2/2)
    # n^{22} = th*(lam_s*(3 x1) + 2 mu*x1)
    # p1 = -(d1 n11 + d2 n12) ; p2 = -(d1 n12 + d2 n22) = -(0 + 0)
    p1 = -th * (3 * lam_s + 4 * mu + mu)
    assert np.allclose(loads["p1"], p1, atol=1e-10)
    assert np.allclose(loads["p2"], 0, atol=1e-10)
    assert np.allclose(loads["c1"], 0, atol=1e-10)
    assert np.allclose(loads["c2"], 0, atol=1e-10)
    assert np.allclose(loads["p3"], 0, atol=1e-10)


def test_values_grads_hessians_consistent():
    sol = make_sol("cylinder")
    pts = np.random.default_rng(3).uniform(0.1, 0.9, (10, 2))
    v = sol.values(pts)
    assert v.shape == (10, 5)
    g = sol.grads(pts)
    h = manufactured_hessians(sol, pts)
    step = 1e-6
    for d in range(2):
        dpts = pts.copy()
        dpts[:, d] += step
        fd = (sol.values(dpts) - sol.values(pts - (dpts - pts))) / (2 * step)
        assert np.abs(g[..., d] - fd).max() < 1e-8
        fdg = (sol.grads(dpts) - sol.grads(pts - (dpts - pts))) / (2 * step)
        assert np.abs(h[..., :, d] - fdg).max() < 1e-6


def test_boundary_fluxes_protocol():
    sol = make_sol("sphere")
    pts = np.random.default_rng(4).uniform(0.5, 1.2, (7, 2))
    m, nmem, t = sol.boundary_fluxes(pts)
    m2, n2, t2 = sol.stresses(pts)
    assert np.array_equal(m, m2)
    assert np.array_equal(nmem, n2)
    assert np.array_equal(t, t2)
    assert np.allclose(m, np.swapaxes(m, -1, -2))
    assert np.allclose(nmem, np.swapaxes(nmem, -1, -2))


def test_stresses_scale_with_theta_total():
    a = make_sol("cylinder", theta_total=1.0)
    b = make_sol("cylinder", theta_total=100.0)
    pts = np.random.default_rng(5).uniform(0, 1, (6, 2))
    ma, na, ta = a.stresses(pts)
    mb, nb, tb = b.stresses(pts)
    assert np.allclose(ma, mb)            # bending stress is theta-free
    assert np.allclose(100.0 * na, nb)
    assert np.allclose(100.0 * ta, tb)


def test_volume_loads_evaluate_each_stage_once(monkeypatch,
                                               chart_evaluations):
    """One `volume_loads` call evaluates the geometry, the elastic tensor
    and the strains of the fields once each."""
    calls = []
    for module, name in ((manufactured, "eval_elastic"),
                         (strain, "field_strains")):
        def counting(*args, _fn=getattr(module, name), _name=name, **kw):
            calls.append(_name)
            return _fn(*args, **kw)
        monkeypatch.setattr(module, name, counting)
    make_sol("cylinder").volume_loads(
        np.random.default_rng(6).uniform(0, 1, (8, 2)))
    assert [name for name, _ in chart_evaluations] == ["evaluate",
                                                       "derivatives"]
    assert sorted(calls) == ["eval_elastic", "field_strains"]


def test_aux_interpolant_layout():
    chart = make_chart("cylinder")
    mesh = generate_rect_mesh((0.0, 1.0, 0.0, 1.0), 2, 2)
    layout = build_dof_layout(mesh, chart)
    sol = ManufacturedSolution(TRIG, chart, Material(), theta_total=1.0)
    out = aux_interpolant(sol, layout, 2.0)
    assert out.shape == (layout.n_block3,)
    assert out.shape == (5 * mesh.n_vertices,)
    assert np.allclose(out, 2.0 * aux_interpolant(sol, layout, 1.0))
    # vertex values reproduce the pointwise membrane stress
    _, nm, t = ManufacturedSolution(TRIG, chart, Material(), 1.0).stresses(
        mesh.vertices)
    v = 3  # interior-ish vertex
    assert out[5 * v + 0] == pytest.approx(2.0 * nm[v, 0, 0])
    assert out[5 * v + 2] == pytest.approx(2.0 * nm[v, 0, 1])
    assert out[5 * v + 4] == pytest.approx(2.0 * t[v, 1])


def test_load_spec_has_all_pieces():
    sol = make_sol("plate")
    spec = sol.load_spec()
    pts = np.array([[0.25, 0.75], [0.5, 0.5]])
    loads = spec.provider.volume_loads(pts, sol.chart.evaluate(pts))
    for name in ("p1", "p2", "p3", "c1", "c2"):
        assert loads[name].shape == (2,)
        assert np.array_equal(loads[name], sol.volume_loads(pts)[name])
    assert spec.provider is sol
    assert spec.r1 is None and spec.q3 is None


def test_field_order():
    assert FIELDS == ("theta1", "theta2", "u1", "u2", "w")
