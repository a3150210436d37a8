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


def ordered(K, order):
    """K[order][:, order] in CSC: the symmetric system K with its unknowns
    in a fill-reducing order (see ordering.py; callers without a mesh pass
    np.arange(n)).  The columns are gathered into a new matrix whose row
    indices are renumbered and sorted in place, so the rows are not
    gathered into a second one."""
    K = sps.csc_matrix(K)[:, order]
    rows = np.empty(len(order), dtype=K.indices.dtype)
    rows[order] = np.arange(len(order))
    K.indices = rows[K.indices]
    K.has_sorted_indices = False
    K.sort_indices()
    return K


def factor(K):
    """The package's one sparse LU spec, for a symmetric K already in its
    fill-reducing order (`ordered`): that order kept, nonzero diagonal
    pivots.  RuntimeError if K is singular."""
    return spla.splu(K, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                     options={"SymmetricMode": True})


# x is accepted when its normwise backward error ||b - Kx||_inf /
# (||K||_inf ||x||_inf + ||b||_inf) is at most BACKWARD_ERROR_MULTIPLE n u:
# x then solves exactly a system that close to K x = b, however ill-conditioned
# K is (Rigal-Gaches 1967; Higham, Accuracy and Stability..., sec. 7.1).
BACKWARD_ERROR_MULTIPLE = 10
REFINE_STEPS = 2
_U = np.finfo(float).eps


def inf_one_norms(K):
    """||K||_inf and ||K||_1 of the CSC matrix K from one pass over its
    stored entries: row sums by bincount, column sums by indptr segments."""
    a = np.append(np.abs(K.data), 0.0)
    cols = np.add.reduceat(a, K.indptr[:-1])[np.diff(K.indptr) > 0]
    return (np.bincount(K.indices, a[:-1], minlength=K.shape[0]).max(
        initial=0), cols.max(initial=0))


def _factor_refine(K, b, n_primal: int, order, meta: dict) -> ShellSolution:
    """Solve K x = b: take K's norms before L and U exist, factor once in
    `order`, refine up to REFINE_STEPS times until the backward error
    reaches u, accept x on it and add the figures to meta.  All of it runs
    on the ordered system, which replaces K: no caller keeps K, so the
    unordered copy is freed."""
    K, b = ordered(K, order), b[order]
    k_inf, k_one = inf_one_norms(K)
    try:
        lu = factor(K)
    except RuntimeError as exc:
        raise SolverError(f"factorization failed: {exc}") from exc
    b_inf = np.abs(b).max(initial=0)
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
                cond_est=float(spla.onenormest(inv, t=1) * k_one))
    x[order] = x.copy()                # back to the numbering of the given K
    return ShellSolution(primal=x[:n_primal], meta=meta,
                         aux=x[n_primal:] if len(x) > n_primal else None)


def _saddle_point(A, B, C, epsilon: float):
    """[[A, B^T], [B, -eps^2 C]] in CSC."""
    return sps.bmat([[A, B.T], [B, -epsilon ** 2 * C]], format="csc")


def solve_mixed(A, B, C, f, epsilon: float, order) -> ShellSolution:
    """Solve [[A, B^T], [B, -eps^2 C]] [x; m] = [f; 0], factored in `order`."""
    return _factor_refine(_saddle_point(A, B, C, epsilon),
                          np.concatenate([f, np.zeros(C.shape[0])]), len(f),
                          order, {"method": "mixed", "epsilon": epsilon})


def solve_dg(R, G, T, f, epsilon: float, order) -> ShellSolution:
    """Solve the penalized one-field system [R + eps^-2 (G+T)] x = f,
    factored in `order`."""
    return _factor_refine(R + epsilon ** -2 * (G + T), f, len(f), order,
                          {"method": "dg", "epsilon": epsilon})


def realize_via_theta(assembler, mode: str, epsilon: float,
                      loads_rhs: np.ndarray = None) -> ShellSolution:
    """Single-program path: one assembled parameterized primal matrix yields
    the mixed method (theta=1, full saddle point) or the penalized method
    (theta = eps^-2, leading block-1 submatrix, so the solution has n_block1
    entries; without free edges that is the whole primal matrix).  Each
    system is factored in the assembler's mesh order, restricted to it."""
    layout = assembler.layout
    f = loads_rhs if loads_rhs is not None else np.zeros(layout.n_primal)
    if mode == "mixed":     # as solve_mixed, but A(1) lives only in K
        return _factor_refine(
            _saddle_point(assembler.a_theta(1.0), assembler.b_matrix(),
                          assembler.c_matrix(), epsilon),
            np.concatenate([f, np.zeros(layout.n_block3)]), len(f),
            assembler.dof_order(),
            {"method": "mixed", "epsilon": epsilon, "via": "theta"})
    if mode == "dg":
        n1 = layout.n_block1
        return _factor_refine(
            assembler.a_theta(epsilon ** -2).tocsr()[:n1, :n1], f[:n1], n1,
            assembler.dof_order(n1),
            {"method": "dg", "epsilon": epsilon, "via": "theta"})
    raise ValueError(f"unknown mode {mode!r}")
