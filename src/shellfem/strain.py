"""Bending, membrane, and shear strains as per-point linear operators.

Every strain is linear in the value and the two partials of each of the
fields theta1, theta2, u1, u2, w.  The operator L (..., 10, 15) maps these
15 entries (column 3c + d for component c and d in value, d_1, d_2) to
rho_ab = sym(theta_{a|b}) - sym(b^g_a u_{g|b}) + c_ab w (rows 0-3, in the
order 11, 12, 21, 22), gamma_ab = sym(u_{a|b}) - b_ab w (rows 4-7) and
tau_a = d_a w + b^g_a u_g + theta_a (rows 8-9), where
v_{a|b} = d_b v_a - Gamma^g_{ab} v_g.  It depends on the geometry alone;
the forms, the norms and the manufactured loads all use it.
"""

from __future__ import annotations

import numpy as np


def _entries(geom):
    """The entries of the strain operator, (10, 15, ...) with the points on
    the last axes, where each entry is filled as one contiguous row."""
    G = np.moveaxis(geom.christoffel, (-3, -2, -1), (0, 1, 2)).copy()  # g,a,b
    bm = np.moveaxis(geom.b_mix, (-2, -1), (0, 1)).copy()              # g, a
    L = np.zeros((10, 15) + geom.sqrt_a.shape)
    for a in (0, 1):
        for b in (0, 1):
            rho, gam = 2 * a + b, 4 + 2 * a + b
            # sym(X)_ab = (X_ab + X_ba) / 2, one half for each order (i, j)
            for i, j in ((a, b), (b, a)):
                L[rho, 3 * i + 1 + j] += 0.5               # theta_{i|j}
                L[gam, 6 + 3 * i + 1 + j] += 0.5           # u_{i|j}
                for g in (0, 1):
                    L[rho, 3 * g] -= 0.5 * G[g, i, j]
                    L[gam, 6 + 3 * g] -= 0.5 * G[g, i, j]
                    # -b^g_i u_{g|j}
                    L[rho, 6 + 3 * g + 1 + j] -= 0.5 * bm[g, i]
                    for m in (0, 1):
                        L[rho, 6 + 3 * m] += 0.5 * bm[g, i] * G[m, g, j]
            L[rho, 12] += geom.c_cov[..., a, b]
            L[gam, 12] -= geom.b_cov[..., a, b]
        L[8 + a, 3 * a] = 1.0                              # theta_a
        L[8 + a, 13 + a] = 1.0                             # d_a w
        for g in (0, 1):
            L[8 + a, 6 + 3 * g] = bm[g, a]                 # b^g_a u_g
    return L


def operator(geom):
    """The strain operator L (..., 10, 15) at the points of `geom`."""
    return np.ascontiguousarray(np.moveaxis(_entries(geom), (0, 1), (-2, -1)))


def field_rows(values, grads, geom):
    """The strain rows (..., 10) of the operator's order of fields given as
    values (..., 5) and gradients (..., 5, 2) of theta1, theta2, u1, u2, w;
    the geometry matches the last of their leading axes.  The operator is
    applied with the points on the last axes, as `_entries` builds it."""
    jet = np.concatenate([values[..., None], grads], axis=-1)   # (..., 5, 3)
    jet = np.moveaxis(jet.reshape(jet.shape[:-2] + (15,)), -1, 0).copy()
    L = _entries(geom)
    L = L.reshape(L.shape[:2] + (1,) * (jet.ndim - L.ndim + 1) + L.shape[2:])
    return np.moveaxis(sum(L[:, j] * jet[j] for j in range(15)), 0, -1)


def field_strains(values, grads, geom):
    """(rho (..., 2, 2), gamma (..., 2, 2), tau (..., 2)) of fields given as
    values (..., 5) and gradients (..., 5, 2) of theta1, theta2, u1, u2, w
    (`field_rows`)."""
    s = field_rows(values, grads, geom)
    lead = s.shape[:-1]
    return (s[..., 0:4].reshape(lead + (2, 2)),
            s[..., 4:8].reshape(lead + (2, 2)), s[..., 8:10])
