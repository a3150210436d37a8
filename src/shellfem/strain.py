"""Bending, membrane, and shear strains of theta1, theta2, u1, u2, w.

The rule (Chapelle & Bathe, The Finite Element Analysis of Shells, 2nd ed.,
2011, ch. 4): rho_ab = sym(theta_{a|b}) - sym(b^g_a u_{g|b}) + c_ab w (rows
0-3, in the order 11, 12, 21, 22), gamma_ab = sym(u_{a|b}) - b_ab w (rows
4-7) and tau_a = d_a w + b^g_a u_g + theta_a (rows 8-9), where
v_{a|b} = d_b v_a - Gamma^g_{ab} v_g.  The rows read the geometry fields
b_cov, b_mix, c_cov and christoffel alone; they are linear in the fields
and at most quadratic in these.  `field_rows` is the rule on field values
and gradients, for the norms and the manufactured loads; `_entries` writes
it per column for the forms, as the operator L (..., 10, 15) on the value
and two partials of each field (column 3c + d for component c and d in
value, d_1, d_2).
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
    """The strain rows (..., 10) of fields given as values (..., 5) and
    gradients (..., 5, 2) of theta1, theta2, u1, u2, w, by the rule; the
    geometry's leading axes broadcast against theirs."""
    th, u, w = values[..., 0:2], values[..., 2:4], values[..., 4, None, None]
    G, bm = geom.christoffel, geom.b_mix
    dth, du = (grads[..., f, :] - np.einsum("...gab,...g->...ab", G, v)
               for f, v in ((slice(0, 2), th), (slice(2, 4), u)))  # v_{a|b}
    x = dth - np.einsum("...ga,...gb->...ab", bm, du)
    rho = 0.5 * (x + np.swapaxes(x, -1, -2)) + geom.c_cov * w
    gam = 0.5 * (du + np.swapaxes(du, -1, -2)) - geom.b_cov * w
    tau = grads[..., 4, :] + np.einsum("...ga,...g->...a", bm, u) + th
    lead = tau.shape[:-1]
    return np.concatenate([rho.reshape(lead + (4,)), gam.reshape(lead + (4,)),
                           tau], axis=-1)


def field_strains(values, grads, geom):
    """(rho (..., 2, 2), gamma (..., 2, 2), tau (..., 2)) of fields given as
    values (..., 5) and gradients (..., 5, 2) of theta1, theta2, u1, u2, w
    (`field_rows`)."""
    s = field_rows(values, grads, geom)
    lead = s.shape[:-1]
    return (s[..., 0:4].reshape(lead + (2, 2)),
            s[..., 4:8].reshape(lead + (2, 2)), s[..., 8:10])
