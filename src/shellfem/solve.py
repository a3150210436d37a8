"""Linear solvers for the mixed saddle-point system and the penalized
(DG) system, plus the single-program realization that produces either
method from one assembled parameterized matrix, all on one solve core."""

from __future__ import annotations

import ctypes
import os
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sps
import scipy.sparse.linalg as spla


# glibc keeps the heap pages that freed temporaries leave resident, and the
# LU does not reuse them; `_factor_refine` hands them back before it factors
_LIBC = ctypes.CDLL(None) if os.name == "posix" else None
if hasattr(_LIBC, "malloc_trim"):
    _LIBC.malloc_trim.argtypes, _LIBC.malloc_trim.restype = [
        ctypes.c_size_t], ctypes.c_int


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


def inf_norm(K):
    """||K||_inf of the CSC matrix K from one pass over its stored entries,
    row sums by bincount.  Every system solved here is symmetric to
    rounding, so it is ||K||_1 too."""
    return np.bincount(K.indices, np.abs(K.data), minlength=K.shape[0]).max(
        initial=0)


def _factor_refine(K, b, n_primal: int, order, meta: dict) -> ShellSolution:
    """Solve K x = b: take K's norm before L and U exist, factor once in
    `order`, refine up to REFINE_STEPS times until the backward error
    reaches u, accept x on it and add the figures to meta.  All of it runs
    on the ordered system, which replaces K: no caller keeps K (each passes
    it straight from the call that makes it), so the unordered copy is
    freed, and its heap is handed back before the LU is made.  Beside the
    ordered K and its LU, only what the caller still holds stays resident:
    after `realize_via_theta(..., last=True)` that is no form and no
    quadrature data."""
    K, b = ordered(K, order), b[order]
    k_inf = inf_norm(K)
    if hasattr(_LIBC, "malloc_trim"):
        _LIBC.malloc_trim(0)
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
    # K is symmetric, so its inverse is its own adjoint
    inv = spla.LinearOperator(K.shape, lu.solve, dtype=float,
                              rmatvec=lu.solve)
    meta.update(residual=float(np.linalg.norm(r) / (np.linalg.norm(b) or 1)),
                backward_error=float(berr), lu_fill=lu.nnz,
                cond_est=float(spla.onenormest(inv, t=1) * k_inf))
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


def solve_dg(R, GT, f, epsilon: float, order) -> ShellSolution:
    """Solve the penalized one-field system [R + eps^-2 GT] x = f, with GT
    the membrane and shear forms summed, factored in `order`."""
    return _factor_refine(R + epsilon ** -2 * GT, f, len(f), order,
                          {"method": "dg", "epsilon": epsilon})


def _theta_system(assembler, mode: str, epsilon: float, last: bool):
    """The system of `realize_via_theta`, made from the assembler's forms
    and returned, not kept.  With `last`, the assembler releases its forms
    and quadrature data once A(theta) (B and C) are taken, and before the
    saddle point is stacked, so they are gone before the stacking
    transient is made."""
    if mode == "mixed":
        parts = (assembler.a_theta(1.0), assembler.b_matrix(),
                 assembler.c_matrix())
    else:
        n1 = assembler.layout.n_block1
        parts = (assembler.a_theta(epsilon ** -2)[:n1, :n1],)
    if last:
        assembler.release()
    return _saddle_point(*parts, epsilon) if mode == "mixed" else parts[0]


def realize_via_theta(assembler, mode: str, epsilon: float,
                      loads_rhs: np.ndarray = None,
                      last: bool = False) -> ShellSolution:
    """Single-program path: one assembled parameterized primal matrix yields
    the mixed method (theta=1, full saddle point) or the penalized method
    (theta = eps^-2, leading block-1 submatrix, so the solution has n_block1
    entries; without free edges that is the whole primal matrix).  Each
    system is factored in the assembler's mesh order, restricted to it.
    `last` says that no later step reads the forms: the assembler then
    drops its forms and its element and edge quadrature data before the
    system is stacked and factored (`_theta_system`), so only the system
    is under the factor.  The norms and the VTK pass that follow rebuild
    the quadrature data on their first read; a later solve on the same
    assembler would assemble the forms anew."""
    layout = assembler.layout
    f = loads_rhs if loads_rhs is not None else np.zeros(layout.n_primal)
    if mode == "mixed":
        n, order = layout.n_primal, assembler.dof_order()
        rhs = np.concatenate([f, np.zeros(layout.n_block3)])
    elif mode == "dg":
        n = layout.n_block1
        rhs, order = f[:n], assembler.dof_order(n)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    # K goes straight into the solve core, so no local here keeps it
    return _factor_refine(_theta_system(assembler, mode, epsilon, last), rhs,
                          n, order,
                          {"method": mode, "epsilon": epsilon, "via": "theta"})
