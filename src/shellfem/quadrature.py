"""Quadrature rules on the reference triangle and unit interval.

Triangle rules are tensor Gauss-Jacobi(1,0) x Gauss-Legendre rules under the
Duffy transform, so arbitrary polynomial degrees are available.  Weights are
normalized to sum to 1; physical integrals are (triangle area) * sum(w * f).
The Gauss-Legendre rules are numpy's; the Gauss-Jacobi(1,0) rules come from
the eigenvalues and eigenvectors of the Jacobi matrix of their weight 1 - x
(Golub and Welsch, Math. Comp. 23, 1969).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def jacobi10_rule(n: int):
    """n-point Gauss rule on [-1,1] for the weight 1 - x: the nodes are the
    eigenvalues of the symmetric tridiagonal matrix of the three-term
    recurrence of the orthonormal Jacobi(1,0) polynomials, and each weight
    is the weight's integral, 2, times the squared first component of the
    node's unit eigenvector."""
    k = np.arange(n)
    diag = -1.0 / ((2 * k + 1) * (2 * k + 3))
    k = k[1:]
    off = np.sqrt(k * (k + 1.0)) / (2 * k + 1)
    x, v = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return x, 2.0 * v[0] ** 2


@lru_cache(maxsize=None)
def interval_rule(n: int):
    """n-point Gauss-Legendre rule on [0,1]; weights sum to 1."""
    x, w = np.polynomial.legendre.leggauss(n)
    return (x + 1.0) / 2.0, w / 2.0


@lru_cache(maxsize=None)
def triangle_rule_n(n: int):
    """n*n-point rule on the reference triangle {l1,l2 >= 0, l1+l2 <= 1},
    exact for total degree 2n-1.  Returns (bary (nq,3), weights (nq,))."""
    xj, wj = jacobi10_rule(n)
    u = (xj + 1.0) / 2.0
    wu = wj / 4.0          # absorbs the (1-u) Duffy factor; sums to 1/2
    v, wv = interval_rule(n)
    l1 = np.repeat(u, n)
    l2 = (np.tile(v, n).reshape(n, n) * (1.0 - u)[:, None]).ravel()
    w = np.outer(wu, wv).ravel()
    bary = np.stack([l1, l2, 1.0 - l1 - l2], axis=1)
    return bary, 2.0 * w   # normalize: sum = 1


def triangle_rule(degree: int):
    """Smallest tensor rule exact for the given total polynomial degree."""
    n = max(1, (degree + 2) // 2)
    return triangle_rule_n(n)


def triangle_rule_dense():
    """High-order oracle rule (degree 23) for basis construction and checks."""
    return triangle_rule_n(12)
