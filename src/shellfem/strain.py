"""Bending, membrane, and shear strain operators.

All functions are vectorized: field arrays carry arbitrary leading batch axes
(typically elements x local basis functions x quadrature points), and the
geometry arrays broadcast against them.  Sums over the index g are written
out, since einsum is slow when its batch axes broadcast.

    theta: (..., 2)      grad_theta: (..., 2, 2) with [a, b] = d_b theta_a
    u:     (..., 2)      grad_u:     (..., 2, 2)
    w:     (...)         grad_w:     (..., 2)
"""

from __future__ import annotations

import numpy as np


def covariant_derivative(vec, grad_vec, christoffel):
    """v_{a|b} = d_b v_a - Gamma^g_{ab} v_g ; christoffel[g,a,b]."""
    return grad_vec - sum(christoffel[..., g, :, :] * vec[..., g, None, None]
                          for g in (0, 1))


def bending_strain(theta, grad_theta, u, grad_u, w, geom):
    """rho_ab = sym(theta_{a|b}) - sym(b^g_a u_{g|b}) + c_ab w."""
    tcd = covariant_derivative(theta, grad_theta, geom.christoffel)
    ucd = covariant_derivative(u, grad_u, geom.christoffel)
    bu = sum(geom.b_mix[..., g, :, None] * ucd[..., g, None, :]
             for g in (0, 1))
    rho = (0.5 * (tcd + np.swapaxes(tcd, -1, -2))
           - 0.5 * (bu + np.swapaxes(bu, -1, -2))
           + geom.c_cov * w[..., None, None])
    return rho


def membrane_strain(u, grad_u, w, geom):
    """gamma_ab = sym(u_{a|b}) - b_ab w."""
    ucd = covariant_derivative(u, grad_u, geom.christoffel)
    return (0.5 * (ucd + np.swapaxes(ucd, -1, -2))
            - geom.b_cov * w[..., None, None])


def shear_strain(theta, u, grad_w, geom):
    """tau_a = d_a w + b^g_a u_g + theta_a."""
    return (grad_w + sum(geom.b_mix[..., g, :] * u[..., g, None]
                         for g in (0, 1)) + theta)


def strains(theta, grad_theta, u, grad_u, w, grad_w, geom):
    return (bending_strain(theta, grad_theta, u, grad_u, w, geom),
            membrane_strain(u, grad_u, w, geom),
            shear_strain(theta, u, grad_w, geom))


def field_strains(values, grads, geom):
    """`strains` of fields given as values (..., 5) and gradients
    (..., 5, 2) of theta1, theta2, u1, u2, w."""
    return strains(values[..., 0:2], grads[..., 0:2, :], values[..., 2:4],
                   grads[..., 2:4, :], values[..., 4], grads[..., 4, :], geom)
