import numpy as np
import pytest

from shellfem.geometry import make_chart
from shellfem.strain import field_strains, operator

from oracles import (bending_strain, covariant_derivative, membrane_strain,
                     shear_strain)
from oracles import strains as closed_form_strains


def strains(th, dth, u, du, w, dw, geom):
    """The package's strains (the operator) of the split fields."""
    values = np.concatenate([th, u, w[..., None]], axis=-1)
    grads = np.concatenate([dth, du, dw[..., None, :]], axis=-2)
    return field_strains(values, grads, geom)


def rand_fields(rng, n):
    th = rng.standard_normal((n, 2))
    dth = rng.standard_normal((n, 2, 2))
    u = rng.standard_normal((n, 2))
    du = rng.standard_normal((n, 2, 2))
    w = rng.standard_normal(n)
    dw = rng.standard_normal((n, 2))
    return th, dth, u, du, w, dw


def test_strains_linear_in_fields():
    chart = make_chart("sphere")
    rng = np.random.default_rng(0)
    pts = rng.uniform(0.5, 1.0, (10, 2))
    g = chart.evaluate(pts)
    f1 = rand_fields(rng, 10)
    f2 = rand_fields(rng, 10)
    a, b = 0.7, -1.3
    combo = tuple(a * x + b * y for x, y in zip(f1, f2))
    r1, g1, t1 = strains(*f1, g)
    r2, g2, t2 = strains(*f2, g)
    rc, gc, tc = strains(*combo, g)
    assert np.allclose(rc, a * r1 + b * r2)
    assert np.allclose(gc, a * g1 + b * g2)
    assert np.allclose(tc, a * t1 + b * t2)


def test_strain_tensors_symmetric():
    chart = make_chart("hypar", coeff=0.8)
    rng = np.random.default_rng(4)
    pts = rng.uniform(0.1, 0.9, (10, 2))
    g = chart.evaluate(pts)
    rho, gam, _ = strains(*rand_fields(rng, 10), g)
    assert np.allclose(rho, np.swapaxes(rho, -1, -2))
    assert np.allclose(gam, np.swapaxes(gam, -1, -2))


def test_plate_reduction():
    # flat chart: no curvature or connection, so the strains reduce to
    # rho = sym grad theta, gamma = sym grad u, tau = grad w + theta
    chart = make_chart("plate")
    rng = np.random.default_rng(1)
    pts = rng.uniform(0, 1, (10, 2))
    g = chart.evaluate(pts)
    th, dth, u, du, w, dw = rand_fields(rng, 10)
    rho, gam, tau = strains(th, dth, u, du, w, dw, g)
    assert np.allclose(rho, 0.5 * (dth + np.swapaxes(dth, -1, -2)))
    assert np.allclose(gam, 0.5 * (du + np.swapaxes(du, -1, -2)))
    assert np.allclose(tau, dw + th)


def test_cylinder_curvature_coupling():
    # unit cylinder in arclength coordinates: b_11 = -1/R is the only
    # curvature entry, so w enters gamma_11 and u_1 enters tau_1
    R = 2.0
    chart = make_chart("cylinder", radius=R)
    pts = np.array([[0.3, 0.4]])
    g = chart.evaluate(pts)
    b11 = g.b_cov[0, 0, 0]
    assert abs(abs(b11) - 1.0 / R) < 1e-12
    th = np.zeros((1, 2))
    dth = np.zeros((1, 2, 2))
    u = np.zeros((1, 2))
    du = np.zeros((1, 2, 2))
    w = np.array([1.0])
    dw = np.zeros((1, 2))
    rho, gam, tau = strains(th, dth, u, du, w, dw, g)
    assert gam[0, 0, 0] == pytest.approx(-b11)      # gamma_11 = -b_11 w
    assert np.allclose(gam[0] - np.array([[-b11, 0], [0, 0]]), 0)
    assert np.allclose(tau, 0)                       # dw = 0, u = 0
    u = np.array([[1.0, 0.0]])
    tau = strains(th, dth, u, du, w, dw, g)[2]
    assert tau[0, 0] == pytest.approx(g.b_mix[0, 0, 0])  # tau_a = b^g_a u_g


def test_covariant_derivative_against_hand_formula():
    chart = make_chart("sphere")
    rng = np.random.default_rng(9)
    pts = rng.uniform(0.5, 1.2, (5, 2))
    g = chart.evaluate(pts)
    vec = rng.standard_normal((5, 2))
    grad = rng.standard_normal((5, 2, 2))
    cd = covariant_derivative(vec, grad, g.christoffel)
    for n in range(5):
        for a in range(2):
            for b in range(2):
                want = grad[n, a, b] - sum(
                    g.christoffel[n, l, a, b] * vec[n, l] for l in range(2))
                assert cd[n, a, b] == pytest.approx(want)


def test_individual_strain_functions_match_bundle():
    chart = make_chart("sphere")
    rng = np.random.default_rng(2)
    pts = rng.uniform(0.5, 1.0, (6, 2))
    g = chart.evaluate(pts)
    th, dth, u, du, w, dw = rand_fields(rng, 6)
    rho, gam, tau = strains(th, dth, u, du, w, dw, g)
    assert np.allclose(rho, bending_strain(th, dth, u, du, w, g))
    assert np.allclose(gam, membrane_strain(u, du, w, g))
    assert np.allclose(tau, shear_strain(th, u, dw, g))


@pytest.mark.parametrize("chart,box", [
    (make_chart("plate"), (0.0, 1.0)),
    (make_chart("cylinder", radius=2.0), (0.0, 1.0)),
    (make_chart("sphere"), (0.5, 1.2)),
    (make_chart("hypar", coeff=0.8), (0.0, 1.0)),
    (make_chart("expression", components=(
        "x1", "x2", "0.25 * sin(pi * x1) * sin(pi * x2)")), (0.0, 1.0))],
    ids=["plate", "cylinder", "sphere", "hypar", "bump"])
def test_operator_matches_closed_form_strains(chart, box):
    """Both statements of the strain rule, the formula on field values and
    gradients and the per-point operator applied to their 15 entries, give
    the closed-form rho, gamma and tau of random fields at 200 random
    points."""
    rng = np.random.default_rng(11)
    g = chart.evaluate(rng.uniform(*box, (200, 2)))
    th, dth, u, du, w, dw = fields = rand_fields(rng, 200)
    values = np.concatenate([th, u, w[:, None]], axis=-1)
    grads = np.concatenate([dth, du, dw[:, None]], axis=-2)
    jet = np.concatenate([values[..., None], grads], -1).reshape(200, 15)
    rows = (operator(g) @ jet[..., None])[..., 0]
    by_operator = (rows[:, 0:4].reshape(200, 2, 2),
                   rows[:, 4:8].reshape(200, 2, 2), rows[:, 8:10])
    want = closed_form_strains(*fields, g)
    for got in (field_strains(values, grads, g), by_operator):
        for x, y in zip(got, want, strict=True):
            assert np.abs(x - y).max() <= 1e-13 * np.abs(y).max()
