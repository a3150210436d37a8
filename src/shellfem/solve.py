"""Linear solvers for the mixed saddle-point system and the penalized
(DG) system, plus the single-program realization that produces either
method from one assembled parameterized matrix, all on one solve core."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sps
import scipy.sparse.linalg as spla


class SolverError(RuntimeError):
    pass


@dataclass
class ShellSolution:
    primal: np.ndarray            # coefficients over blocks 1(+2)
    aux: np.ndarray = None        # coefficients over block 3 (mixed only)
    meta: dict = field(default_factory=dict)


def factor(K):
    """The package's one sparse LU spec, for symmetric K: minimum-degree order
    of K + K^T, nonzero diagonal pivots.  RuntimeError if K is singular."""
    return spla.splu(sps.csc_matrix(K), permc_spec="MMD_AT_PLUS_A",
                     diag_pivot_thresh=0.0, options={"SymmetricMode": True})


# x is accepted when its normwise backward error ||b - Kx||_inf /
# (||K||_inf ||x||_inf + ||b||_inf) is at most BACKWARD_ERROR_MULTIPLE n u:
# x then solves exactly a system that close to K x = b, however ill-conditioned
# K is (Rigal-Gaches 1967; Higham, Accuracy and Stability..., sec. 7.1).
BACKWARD_ERROR_MULTIPLE = 10
REFINE_STEPS = 2
_U = np.finfo(float).eps


def _factor_refine(K, b, n_primal: int, **meta) -> ShellSolution:
    """Solve K x = b: factor once, refine up to REFINE_STEPS times until the
    backward error reaches u, accept x on it and add the figures to meta."""
    try:
        lu = factor(K)
    except RuntimeError as exc:
        raise SolverError(f"factorization failed: {exc}") from exc
    k_inf, b_inf = spla.norm(K, np.inf), np.abs(b).max(initial=0)
    x, r = np.zeros_like(b), b
    for _ in range(REFINE_STEPS + 1):
        x = x + lu.solve(r)
        r = b - K @ x
        scale = k_inf * np.abs(x).max(initial=0) + b_inf
        berr = np.abs(r).max(initial=0) / (scale or 1.0)
        if berr <= _U:
            break
    bound = BACKWARD_ERROR_MULTIPLE * K.shape[0] * _U
    if not berr <= bound:
        raise SolverError(f"backward error {berr:.3e} exceeds the bound "
                          f"{bound:.3e}: K is singular to working precision")
    inv = spla.LinearOperator(K.shape, lu.solve, dtype=float,
                              rmatvec=lambda y: lu.solve(y, trans="T"))
    meta.update(residual=float(np.linalg.norm(r) / (np.linalg.norm(b) or 1)),
                backward_error=float(berr), lu_fill=lu.nnz,
                cond_est=float(spla.onenormest(inv, t=1) * spla.norm(K, 1)))
    return ShellSolution(primal=x[:n_primal], meta=meta,
                         aux=x[n_primal:] if len(x) > n_primal else None)


def solve_mixed(A, B, C, f, epsilon: float, meta=None) -> ShellSolution:
    """Solve [[A, B^T], [B, -eps^2 C]] [x; m] = [f; 0]."""
    K = sps.bmat([[A, B.T], [B, -epsilon ** 2 * C]], format="csc")
    b = np.concatenate([f, np.zeros(C.shape[0])])
    return _factor_refine(K, b, len(f), method="mixed", epsilon=epsilon,
                          **(meta or {}))


def solve_dg(R, G, T, f, epsilon: float, scaling: str = "auto",
             meta=None) -> ShellSolution:
    """Solve the penalized one-field system on the reduced layout.

    scaling='original' solves [R + eps^-2 (G+T)] x = f; 'scaled' solves the
    identical system multiplied by eps^2; 'auto' picks 'scaled' for
    eps <= 1e-2 to limit the dynamic range of matrix entries."""
    if scaling == "auto":
        scaling = "scaled" if epsilon <= 1e-2 else "original"
    if scaling == "original":
        K, b = R + epsilon ** -2 * (G + T), f
    elif scaling == "scaled":
        K, b = epsilon ** 2 * R + G + T, epsilon ** 2 * f
    else:
        raise ValueError(f"unknown scaling {scaling!r}")
    return _factor_refine(K, b, len(f), method="dg", epsilon=epsilon,
                          scaling=scaling, **(meta or {}))


def realize_via_theta(assembler, mode: str, epsilon: float,
                      loads_rhs: np.ndarray = None) -> ShellSolution:
    """Single-program path: one assembled parameterized primal matrix yields
    the mixed method (theta=1, full saddle point) or the penalized method
    (theta = eps^-2, leading unenriched-primal submatrix)."""
    layout = assembler.layout
    f = loads_rhs if loads_rhs is not None else np.zeros(layout.n_primal)
    if mode == "mixed":
        return solve_mixed(assembler.a_theta(1.0), assembler.b_matrix(),
                           assembler.c_matrix(), f, epsilon, {"via": "theta"})
    if mode == "dg":
        n1 = layout.n_block1
        K = assembler.a_theta(epsilon ** -2).tocsr()[:n1, :n1]
        return _factor_refine(K, f[:n1], n1, method="dg", epsilon=epsilon,
                              via="theta")
    raise ValueError(f"unknown mode {mode!r}")
