import math

import numpy as np
import pytest

from shellfem.quadrature import (interval_rule, jacobi10_rule, triangle_rule,
                                 triangle_rule_dense, triangle_rule_n)


def exact_tri_monomial(p, q):
    # integral over the reference triangle of l1^p l2^q, normalized by area:
    # (1/|T|) int x^p y^q = 2 p! q! / (p+q+2)!
    return 2.0 * math.factorial(p) * math.factorial(q) \
        / math.factorial(p + q + 2)


def test_interval_rule_weights_and_exactness():
    for n in (2, 3, 5, 8):
        t, w = interval_rule(n)
        assert w.sum() == pytest.approx(1.0)
        assert ((t > 0) & (t < 1)).all()
        for p in range(2 * n):
            assert w @ t ** p == pytest.approx(1.0 / (p + 1), rel=1e-13), (n, p)


@pytest.mark.parametrize("degree", [2, 4, 8])
def test_triangle_rule_exactness(degree):
    bary, w = triangle_rule(degree)
    assert w.sum() == pytest.approx(1.0)
    x, y = bary[:, 0], bary[:, 1]
    for p in range(degree + 1):
        for q in range(degree + 1 - p):
            got = w @ (x ** p * y ** q)
            assert got == pytest.approx(exact_tri_monomial(p, q),
                                        rel=1e-12), (p, q)


def test_dense_rule_high_degree():
    bary, w = triangle_rule_dense()
    x, y = bary[:, 0], bary[:, 1]
    for p, q in ((23, 0), (11, 12), (0, 23), (10, 10)):
        got = w @ (x ** p * y ** q)
        assert got == pytest.approx(exact_tri_monomial(p, q), rel=1e-10)


def test_points_inside_triangle():
    bary, w = triangle_rule_n(5)
    assert (bary > 0).all()
    assert np.allclose(bary.sum(axis=1), 1.0)
    assert (w > 0).all()


def test_rules_are_cached():
    a1, w1 = triangle_rule(8)
    a2, w2 = triangle_rule(8)
    assert a1 is a2 and w1 is w2


@pytest.mark.parametrize("n", range(1, 21))
def test_rules_match_scipy_special(n):
    """The Gauss-Legendre and Gauss-Jacobi(1,0) rules behind the interval
    and triangle rules agree with scipy.special's to a few ulps."""
    from scipy.special import roots_jacobi, roots_legendre
    x, w = roots_legendre(n)
    t, wt = interval_rule(n)
    assert np.abs(t - (x + 1.0) / 2.0).max() <= 1e-15
    assert np.abs(wt - w / 2.0).max() <= 5e-15
    x, w = roots_jacobi(n, 1.0, 0.0)
    xj, wj = jacobi10_rule(n)
    assert np.abs(xj - x).max() <= 1e-15
    assert np.abs(wj - w).max() <= 2e-14
    bary = triangle_rule_n(n)[0]
    assert np.abs(bary[::n, 0] - (x + 1.0) / 2.0).max() <= 1e-15
