"""Linear solvers for the mixed saddle-point system and the penalized
(DG) system, plus the single-program realization that produces either
method from one assembled parameterized matrix."""

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


_RESIDUAL_TOL = 1e-10


def _direct_solve(K, b, refine_steps: int = 2):
    """Sparse LU with iterative refinement; guards the relative residual."""
    K = K.tocsc()
    try:
        lu = spla.splu(K)
    except RuntimeError as exc:
        raise SolverError(f"factorization failed: {exc}") from exc
    x = lu.solve(b)
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros_like(b), 0.0
    for _ in range(refine_steps):
        r = b - K @ x
        if np.linalg.norm(r) <= _RESIDUAL_TOL * bnorm:
            break
        x = x + lu.solve(r)
    rel = np.linalg.norm(b - K @ x) / bnorm
    if not np.isfinite(rel) or rel > _RESIDUAL_TOL:
        raise SolverError(f"relative residual {rel:.3e} exceeds "
                          f"{_RESIDUAL_TOL:.0e}; the system may need a larger "
                          "penalty constant or a finer mesh")
    return x, float(rel)


def solve_mixed(A, B, C, f, epsilon: float, meta=None) -> ShellSolution:
    """Solve [[A, B^T], [B, -eps^2 C]] [x; m] = [f; 0]."""
    n = A.shape[0]
    n3 = C.shape[0]
    K = sps.bmat([[A, B.T], [B, -epsilon ** 2 * C]], format="csc")
    b = np.concatenate([f, np.zeros(n3)])
    x, rel = _direct_solve(K, b)
    out = ShellSolution(primal=x[:n], aux=x[n:],
                        meta={"method": "mixed", "epsilon": epsilon,
                              "residual": rel})
    if meta:
        out.meta.update(meta)
    return out


def solve_dg(R, G, T, f, epsilon: float, scaling: str = "auto",
             meta=None) -> ShellSolution:
    """Solve the penalized one-field system on the reduced layout.

    scaling='original' solves [R + eps^-2 (G+T)] x = f; 'scaled' solves the
    identical system multiplied by eps^2; 'auto' picks 'scaled' for
    eps <= 1e-2 to limit the dynamic range of matrix entries."""
    if scaling == "auto":
        scaling = "scaled" if epsilon <= 1e-2 else "original"
    if scaling == "original":
        K = (R + epsilon ** -2 * (G + T)).tocsc()
        b = f
    elif scaling == "scaled":
        K = (epsilon ** 2 * R + G + T).tocsc()
        b = epsilon ** 2 * f
    else:
        raise ValueError(f"unknown scaling {scaling!r}")
    x, rel = _direct_solve(K, b)
    out = ShellSolution(primal=x, aux=None,
                        meta={"method": "dg", "epsilon": epsilon,
                              "scaling": scaling, "residual": rel})
    if meta:
        out.meta.update(meta)
    return out


def realize_via_theta(assembler, mode: str, epsilon: float,
                      loads_rhs: np.ndarray = None) -> ShellSolution:
    """Single-program path: one assembled parameterized primal matrix yields
    the mixed method (theta=1, full saddle point) or the penalized method
    (theta = eps^-2, leading unenriched-primal submatrix)."""
    layout = assembler.layout
    f = loads_rhs if loads_rhs is not None else np.zeros(layout.n_primal)
    if mode == "mixed":
        A = assembler.a_theta(1.0)
        return solve_mixed(A, assembler.b_matrix(), assembler.c_matrix(),
                           f, epsilon, meta={"via": "theta"})
    if mode == "dg":
        A = assembler.a_theta(epsilon ** -2).tocsr()
        n1 = layout.n_block1
        K = A[:n1, :n1].tocsc()
        x, rel = _direct_solve(K, f[:n1])
        return ShellSolution(primal=x, aux=None,
                             meta={"method": "dg", "epsilon": epsilon,
                                   "via": "theta", "residual": rel})
    raise ValueError(f"unknown mode {mode!r}")
