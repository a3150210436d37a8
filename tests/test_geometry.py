import numpy as np
import pytest
import sympy as sp

from shellfem.expr import partials
from shellfem.geometry import (FD_STEP, DegenerateChartError, DomainError,
                               ExpressionChart, GeometryDerivatives,
                               GeometryError, GeometryEval, SymbolicChart,
                               _coefficients, _components_last,
                               _geometry_eval, _normal, eval_elastic,
                               make_chart)
from shellfem.mesh import generate_rect_mesh, geometry_resolution

from oracles import (geometry_seminorms, sympy_chart_geometry,
                     sympy_chart_position)


def rand_pts(rng, n=50, lo=0.15, hi=0.85):
    return rng.uniform(lo, hi, (n, 2))


def test_plate_coefficients():
    chart = make_chart("plate")
    g = chart.evaluate(np.array([[0.3, 0.7], [0.1, 0.2]]))
    assert np.allclose(g.a_cov, np.eye(2))
    assert np.allclose(g.a_con, np.eye(2))
    assert np.allclose(g.sqrt_a, 1.0)
    assert np.allclose(g.b_cov, 0.0)
    assert np.allclose(g.christoffel, 0.0)
    assert np.allclose(g.c_cov, 0.0)


@pytest.mark.parametrize("R", [1.0, 2.5])
def test_cylinder_coefficients(R):
    # x -> (R cos(x1/R), R sin(x1/R), x2): arclength coordinates, so the
    # metric is the identity, the only curvature is 1/R in the x1 direction,
    # and the connection coefficients vanish.
    chart = make_chart("cylinder", radius=R)
    rng = np.random.default_rng(0)
    g = chart.evaluate(rand_pts(rng))
    assert np.allclose(g.a_cov, np.eye(2), atol=1e-12)
    assert np.allclose(g.christoffel, 0.0, atol=1e-12)
    assert np.allclose(np.abs(g.b_cov[..., 0, 0]), 1.0 / R, atol=1e-12)
    assert np.allclose(g.b_cov[..., 0, 1], 0.0, atol=1e-12)
    assert np.allclose(g.b_cov[..., 1, 1], 0.0, atol=1e-12)
    assert np.allclose(g.c_cov[..., 0, 0], 1.0 / R ** 2, atol=1e-12)


def test_sphere_coefficients():
    # x -> R(sin x1 cos x2, sin x1 sin x2, cos x1): polar-angle chart with
    # a_cov = diag(R^2, R^2 sin^2 x1) and classical connection coefficients.
    R = 2.0
    chart = make_chart("sphere", radius=R)
    pts = np.array([[0.8, 0.3], [1.2, 1.0]])
    g = chart.evaluate(pts)
    x1 = pts[:, 0]
    assert np.allclose(g.a_cov[:, 0, 0], R ** 2)
    assert np.allclose(g.a_cov[:, 1, 1], R ** 2 * np.sin(x1) ** 2)
    assert np.allclose(g.a_cov[:, 0, 1], 0.0, atol=1e-12)
    # G^1_{22} = -sin x1 cos x1, G^2_{12} = cot x1
    assert np.allclose(g.christoffel[:, 0, 1, 1], -np.sin(x1) * np.cos(x1))
    assert np.allclose(g.christoffel[:, 1, 0, 1], np.cos(x1) / np.sin(x1))
    assert np.allclose(g.christoffel[:, 0, 0, 0], 0.0, atol=1e-12)
    # |b^a_b| = 1/R for a sphere (up to orientation)
    assert np.allclose(np.abs(g.b_mix[:, 0, 0]), 1.0 / R)
    assert np.allclose(np.abs(g.b_mix[:, 1, 1]), 1.0 / R)
    # Gauss curvature via the mixed tensor determinant
    K = np.linalg.det(g.b_mix)
    assert np.allclose(K, 1.0 / R ** 2)


CHART_EXPRS = {
    "plate": ("x1", "x2", "0"),
    "cylinder": ("cos(x1)", "sin(x1)", "x2"),
    "sphere": ("sin(x1)*cos(x2)", "sin(x1)*sin(x2)", "cos(x1)"),
}


@pytest.mark.parametrize("kind", sorted(CHART_EXPRS))
def test_symbolic_vs_finite_difference(kind):
    sym = make_chart(kind)
    fd = ExpressionChart(kind + "-fd", CHART_EXPRS[kind])
    rng = np.random.default_rng(5)
    pts = rand_pts(rng, 60, 0.3, 1.2)
    gs = sym.evaluate(pts)
    gf = fd.evaluate(pts)
    assert np.allclose(gs.b_cov, gf.b_cov, atol=1e-6)
    assert np.allclose(gs.b_mix, gf.b_mix, atol=1e-6)
    assert np.allclose(gs.christoffel, gf.christoffel, atol=1e-6)
    assert np.allclose(gs.a_cov, gf.a_cov, atol=1e-9)


def test_compliance_inverts_elastic():
    rng = np.random.default_rng(11)
    for kind in ("plate", "cylinder", "sphere", "hypar"):
        chart = make_chart(kind)
        pts = rand_pts(rng, 250, 0.3, 1.2)
        g = chart.evaluate(pts)
        t = eval_elastic(g, lam=1.3, mu=0.7)
        # compose on a random symmetric tensor field
        s = rng.standard_normal((len(pts), 2, 2))
        s = 0.5 * (s + np.swapaxes(s, -1, -2))
        through = np.einsum("...abgd,...gdmn,...mn->...ab",
                            t.compliance, t.elastic, s)
        assert np.abs(through - s).max() < 1e-10


def test_plate_elastic_reference_values():
    chart = make_chart("plate")
    g = chart.evaluate(np.array([[0.5, 0.5]]))
    t = eval_elastic(g, lam=1.0, mu=1.0)
    A = t.elastic[0]
    assert A[0, 0, 0, 0] == pytest.approx(8.0 / 3.0)
    assert A[0, 0, 1, 1] == pytest.approx(2.0 / 3.0)
    assert A[0, 1, 0, 1] == pytest.approx(1.0)
    assert A[1, 1, 1, 1] == pytest.approx(8.0 / 3.0)


def test_elastic_tensor_symmetries():
    chart = make_chart("hypar", coeff=0.7)
    rng = np.random.default_rng(2)
    g = chart.evaluate(rand_pts(rng, 30))
    A = eval_elastic(g, lam=2.0, mu=0.5).elastic
    assert np.allclose(A, np.swapaxes(A, -4, -3))          # ab symmetric
    assert np.allclose(A, np.swapaxes(A, -2, -1))          # gd symmetric
    assert np.allclose(A, np.moveaxis(A, (-4, -3, -2, -1),
                                      (-2, -1, -4, -3)))    # major symmetry


def test_degenerate_chart_rejected():
    chart = make_chart("expression", components=("x1", "x1", "0"))
    with pytest.raises(DegenerateChartError):
        chart.evaluate(np.array([[0.5, 0.5]]))


def test_expression_chart_needs_three_coordinates():
    with pytest.raises(GeometryError) as exc:
        make_chart("expression", components=("x1", "x2"))
    assert str(exc.value) == "expression chart needs 3 coordinate expressions"


def test_domain_check():
    chart = make_chart("plate", domain=((0.0, 1.0), (0.0, 1.0)))
    chart.evaluate(np.array([[0.5, 0.5]]))
    with pytest.raises(DomainError):
        chart.evaluate(np.array([[1.5, 0.5]]))


@pytest.mark.parametrize("kind", ["plate", "cylinder", "sphere", "hypar"])
@pytest.mark.parametrize("method", ["evaluate", "derivatives", "position"])
def test_builtin_charts_check_their_domain(kind, method):
    chart = make_chart(kind, domain=((0.5, 1.0), (0.0, 1.0)))
    getattr(chart, method)(np.array([[0.5, 0.5]]))
    with pytest.raises(DomainError):
        getattr(chart, method)(np.array([[0.7, 0.5], [1.5, 0.5]]))


# The built-in charts and their parameters that the sympy oracle checks.
ORACLE_CHARTS = [("plate", {}), ("cylinder", {"radius": 1.0}),
                 ("cylinder", {"radius": 2.5}), ("sphere", {"radius": 1.0}),
                 ("sphere", {"radius": 2.0}), ("hypar", {"coeff": 1.0}),
                 ("hypar", {"coeff": 0.7})]


@pytest.mark.parametrize("kind,params", ORACLE_CHARTS)
def test_builtin_chart_matches_the_sympy_derivation(kind, params):
    # every field and the position, relative to the largest oracle value
    # (absolute where the oracle value is zero); the sphere's samples avoid
    # its poles
    pts = rand_pts(np.random.default_rng(17), 60, 0.2, 1.3).reshape(12, 5, 2)
    chart = make_chart(kind, **params)
    phi = sympy_chart_position(kind, **params)
    want = sympy_chart_geometry(phi)(pts)
    got = {**vars(chart.evaluate(pts)), **vars(chart.derivatives(pts))}
    assert got.keys() == want.keys()
    pairs = {name: (got[name], want[name]) for name in want}
    position = sp.lambdify(sp.symbols("x1 x2", real=True), phi, "numpy")
    pairs["position"] = (chart.position(pts), np.stack(
        [np.broadcast_to(c, pts.shape[:-1])
         for c in position(pts[..., 0], pts[..., 1])], axis=-1))
    for name, (g, w) in pairs.items():
        assert g.shape == w.shape, name
        scale = np.abs(w).max() or 1.0
        assert np.abs(g - w).max() <= 1e-12 * scale, name


@pytest.mark.parametrize("kind,params", [("plate", {}),
                                         ("cylinder", {"radius": 1.0})])
def test_constant_coefficient_charts_have_exactly_zero_derivatives(kind,
                                                                   params):
    # a chart whose geometric coefficients are constant has exactly zero
    # derivative fields, and so a geometry resolution of exactly 0.0
    chart = make_chart(kind, **params)
    g = chart.derivatives(rand_pts(np.random.default_rng(8), 200, -3.0, 3.0))
    for name in GeometryDerivatives.__dataclass_fields__:
        assert np.all(getattr(g, name) == 0.0), name
    mesh = generate_rect_mesh((0, 1, 0, 1), 6, 6)
    assert geometry_resolution(mesh, chart) == (0.0, 0.0)


def test_seminorms_plate_vanish():
    chart = make_chart("plate")
    tri = np.array([[0.0, 0.0], [0.4, 0.0], [0.0, 0.4]])
    sems = geometry_seminorms(chart, tri)
    for k, v in sems.items():
        assert v == pytest.approx(0.0, abs=1e-12), k


def test_seminorms_positive_on_sphere():
    chart = make_chart("sphere")
    tri = np.array([[0.8, 0.2], [1.2, 0.2], [0.9, 0.7]])
    sems = geometry_seminorms(chart, tri)
    assert any(v > 0.01 for v in sems.values())


def _evaluate_twice(chart, points):
    """ExpressionChart's `evaluate` and `derivatives` written out on
    `_coefficients`: the order-0 fields at `points` from central differences
    of the position, and central differences of them at the shifted
    points."""
    def order0(p):
        h = max(FD_STEP, 1.2e-4)
        e1, e2 = np.array([h, 0.0]), np.array([0.0, h])
        x = chart._position
        X2 = np.empty((3, 2, 2) + p.shape[:-1])
        X2[:, 0, 0] = (x(p + e1) - 2 * x(p) + x(p - e1)) / h**2
        X2[:, 1, 1] = (x(p + e2) - 2 * x(p) + x(p - e2)) / h**2
        X2[:, 0, 1] = X2[:, 1, 0] = (x(p + e1 + e2) - x(p + e1 - e2)
                                     - x(p - e1 + e2)
                                     + x(p - e1 - e2)) / (4 * h**2)
        return _coefficients(chart._tangents(p), X2)[0]
    fields = order0(points)
    h2 = max(FD_STEP ** 0.5, 1e-4)
    shifted = []
    for d in range(2):
        step = np.zeros(2)
        step[d] = h2
        shifted.append((order0(points + step), order0(points - step)))
    # b_cov, b_mix and christoffel, the direction axis after the components
    derivatives = [np.stack([(plus[i] - minus[i]) / (2 * h2)
                             for plus, minus in shifted],
                            axis=fields[i].ndim - points.ndim + 1)
                   for i in (3, 4, 5)]
    return _geometry_eval(*fields), _components_last(
        GeometryDerivatives, points.ndim - 1, *derivatives)


def test_expression_evaluate_reuses_first_pass_bit_for_bit():
    chart = make_chart("expression", components=(
        "x1", "x2", "0.25 * sin(pi * x1) * sin(pi * x2)"))
    pts = rand_pts(np.random.default_rng(3), 40).reshape(8, 5, 2)
    evaluated, derived = _evaluate_twice(chart, pts)
    want = {**vars(evaluated), **vars(derived)}
    got = {**vars(chart.evaluate(pts)), **vars(chart.derivatives(pts))}
    assert got.keys() == want.keys()
    for name in want:
        assert np.array_equal(got[name], want[name]), name


def test_geometry_eval_indexing_slices_every_field():
    g = make_chart("sphere").evaluate(
        rand_pts(np.random.default_rng(4), 12).reshape(3, 4, 2) + 0.3)
    part = g[1, :, None]
    for name in GeometryEval.__dataclass_fields__:
        assert np.array_equal(getattr(part, name),
                              getattr(g, name)[1, :, None]), name


SQRT_A_CHARTS = {
    "plate": (("plate",), {}),
    "cylinder": (("cylinder",), {"radius": 1.5}),
    "unit-cylinder": (("cylinder",), {"radius": 1.0}),
    "sphere": (("sphere",), {}),
    "hypar": (("hypar",), {"coeff": 0.7}),
    "bump": (("expression",), {"components": (
        "x1", "x2", "0.25 * sin(pi * x1) * sin(pi * x2)")}),
}


@pytest.mark.parametrize("kind", list(SQRT_A_CHARTS))
def test_sqrt_a_is_bitwise_the_evaluated_area_element(kind):
    args, kwargs = SQRT_A_CHARTS[kind]
    domain = ((0.3, 1.2), (0.0, 1.0))     # away from the sphere's poles
    chart = make_chart(*args, domain=domain, **kwargs)
    pts = np.random.default_rng(11).uniform(
        [domain[0][0], domain[1][0]], [domain[0][1], domain[1][1]], (1000, 2))
    got = chart.evaluate(pts).sqrt_a
    assert got.shape == (1000,) and got.dtype == float
    # |a_1 x a_2| of the chart's tangents alone, on any batch shape
    tangents = (partials(chart._jet, pts, 1)
                if isinstance(chart, SymbolicChart) else chart._tangents(pts))
    assert np.array_equal(got, _normal(tangents)[1])
    grid = pts.reshape(10, 100, 2)
    assert np.array_equal(chart.evaluate(grid).sqrt_a, got.reshape(10, 100))
    flat, on_grid = chart.derivatives(pts), chart.derivatives(grid)
    for field in GeometryDerivatives.__dataclass_fields__:
        f = getattr(flat, field)
        assert np.array_equal(getattr(on_grid, field),
                              f.reshape((10, 100) + f.shape[1:])), field
    for method in ("evaluate", "derivatives"):
        with pytest.raises(DomainError):
            getattr(chart, method)(np.array([[0.5, 0.5], [1.5, 0.5]]))


def test_sqrt_a_rejects_a_degenerate_chart():
    chart = make_chart("expression", components=("x1", "x1", "0"))
    pts = np.array([[0.5, 0.5], [0.2, 0.7]])
    for method in ("evaluate", "derivatives"):
        with pytest.raises(DegenerateChartError):
            getattr(chart, method)(pts)
    # the sphere's pole, where the exact sqrt(a) vanishes: each method
    # raises before any field that divides by it is evaluated
    pole = np.array([[0.5, 0.5], [0.0, 0.5]])
    for method in ("evaluate", "derivatives"):
        with pytest.raises(DegenerateChartError):
            getattr(make_chart("sphere"), method)(pole)
    # a fold along x1 = x2: the differences of the derivative fields step
    # off it along the axes, to points where the chart is regular, yet the
    # fold point itself is refused
    fold = ExpressionChart("fold", ("x1", "(x1 - x2)^5", "0"))
    fold.derivatives(np.array([[0.5, 0.8]]))
    for method in ("evaluate", "derivatives"):
        with pytest.raises(DegenerateChartError):
            getattr(fold, method)(np.array([[0.5, 0.5]]))
    # a fold whose difference tangents are parallel but not small: sqrt(a)
    # is finite-difference noise near 2e-12, above the absolute test
    fold = ExpressionChart("fold", ("x1 + x2", "(x1 - x2)^3", "0"))
    fold.derivatives(np.array([[0.5, 0.8]]))
    for method in ("evaluate", "derivatives"):
        with pytest.raises(DegenerateChartError):
            getattr(fold, method)(np.array([[0.5, 0.8], [0.5, 0.5]]))
