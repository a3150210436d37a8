"""Linear solvers for the mixed saddle-point system and the penalized
(DG) system, plus the single-program realization that produces either
method from one assembled parameterized matrix, all on one solve core: a
symmetric multifrontal factorization on the assembly tree of ordering.py,
with refinement until the backward error reaches u."""

from __future__ import annotations

import ctypes
import os
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sps
import scipy.sparse.linalg as spla
from scipy.linalg import blas, lapack


# glibc keeps the heap pages that freed temporaries leave resident, and the
# factor does not reuse them; `_factor_refine` hands them back before it factors
_LIBC = ctypes.CDLL(None) if os.name == "posix" else None
if hasattr(_LIBC, "malloc_trim"):
    _LIBC.malloc_trim.argtypes, _LIBC.malloc_trim.restype = [
        ctypes.c_size_t], ctypes.c_int


def hold_freed_blocks():
    """glibc maps every block above its mmap threshold (128 KiB at start)
    afresh and unmaps it when freed, so the assembly slices and the frontal
    matrices, a few MB each, fault their pages in one by one each time.
    glibc raises the threshold only once it frees a larger mapped block,
    which nothing here does early; this fixes it where that rule puts it
    after a 16 MiB block (M_MMAP_THRESHOLD = -3, M_TRIM_THRESHOLD = -1 in
    malloc.h).  The CLI calls it first, so importing the package changes no
    allocator setting; the solves hand the heap back before they factor."""
    if hasattr(_LIBC, "mallopt"):
        _LIBC.mallopt(-3, 16 << 20)
        _LIBC.mallopt(-1, 32 << 20)


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
    indices are renumbered in place, so the rows are not gathered into a
    second one; they are left unsorted within each column, since neither
    the factor nor the products with K need them sorted."""
    K = sps.csc_matrix(K)[:, order]
    rows = np.empty(len(order), dtype=K.indices.dtype)
    rows[order] = np.arange(len(order))
    K.indices = rows[K.indices]
    K.has_sorted_indices = False
    return K


def _eliminate(K, tree, pivot):
    """The multifrontal elimination of the symmetric K, ordered in
    `tree.order` (`ordered`), on the fronts of `tree`; yields, front by
    front, what pivot(f, P, T) keeps after it factors the pivot block of
    front f.  The frontal matrix is held
    in two parts: P, the front's k columns over its k + m rows, and T, the
    m x m block of its off-diagonal rows, which pivot turns into the Schur
    complement of the pivot block, the update that goes to the front's
    parent.  Only lower triangles are read and written: P gathers K's
    entries on and below the diagonal of the front's columns, then the
    front adds its children's updates by the runs of their rows that are
    contiguous in it, so an update is added in a few dense block sums.
    ValueError if K has an entry outside the tree's pattern."""
    indptr, indices, data = K.indptr, K.indices, K.data
    loc = np.full(K.shape[0], -1)          # position in the current front
    updates = [[] for _ in tree.parent]
    for f, (a, b) in enumerate(zip(tree.ends[:-1], tree.ends[1:])):
        rows, k = tree.rows[f], b - a
        loc[a:b] = np.arange(k)
        loc[rows] = np.arange(k, k + len(rows))
        P = np.zeros((k + len(rows), k), order="F")
        T = np.zeros((len(rows),) * 2, order="F")
        entries = slice(indptr[a], indptr[b])
        r = indices[entries]
        c = np.repeat(np.arange(k), np.diff(indptr[a:b + 1]))
        low = r >= a + c
        at = loc[r[low]]
        if (at < 0).any():
            raise ValueError("K has entries outside the tree's pattern")
        P[at, c[low]] = data[entries][low]
        for kid_rows, S in updates[f]:
            at = loc[kid_rows]
            cut = np.flatnonzero((np.diff(at) != 1) | (at[1:] == k)) + 1
            runs = list(zip(np.concatenate([[0], cut]),
                            np.concatenate([cut, [len(at)]])))
            for n, (j0, j1) in enumerate(runs):
                p, q = at[j0], at[j0] + j1 - j0
                for i0, i1 in runs[n:]:
                    if p < k:
                        P[at[i0]:at[i0] + i1 - i0, p:q] += S[i0:i1, j0:j1]
                    else:
                        T[at[i0] - k:at[i0] + i1 - i0 - k,
                          p - k:q - k] += S[i0:i1, j0:j1]
        updates[f] = None
        loc[a:b] = loc[rows] = -1
        kept, S = pivot(f, P, T)
        if len(rows):
            updates[tree.parent[f]].append((rows, S))
        yield kept


class NotQuasidefinite(RuntimeError):
    pass


def _cholesky(A):
    """The lower Cholesky factor of the lower triangle of A, in place if A
    is a Fortran-ordered array, or NotQuasidefinite."""
    L, info = lapack.dpotrf(A, lower=1, overwrite_a=True)
    if info:
        raise NotQuasidefinite(f"dpotrf info {info}")
    return L


def _signed_pivot(P, T, k1, L, Y):
    """The pivot block as Lc J Lc^T with Lc lower triangular and
    J = diag(I_k1, -I_(k-k1)): Cholesky of its primal block, then of the
    negated Schur complement of that block in it, which exist exactly when
    the pivot block is quasidefinite (primal block positive definite, that
    complement negative definite; Vanderbei, SIAM J. Optim. 5, 1995).
    With Z = Lc^-1 F21^T, F21 = P[k:], the update is T - Z^T J Z, two
    rank-k products on the lower triangle.  Lc goes into L (k x k) and
    J Z into Y (k x m), both in Fortran order; returns ("signed", J) and
    the update.  NotQuasidefinite if a Cholesky fails."""
    k = P.shape[1]
    J = np.where(np.arange(k) < k1, 1.0, -1.0)
    if k1 == k:
        L[:] = P[:k]
        _cholesky(L)
    else:
        L[:] = 0.0
        N = -P[k1:k, k1:]
        if k1:
            L[:k1, :k1] = _cholesky(P[:k1, :k1])
            W = lapack.dtrtrs(L[:k1, :k1], P[k1:k, :k1].T, lower=1)[0]
            L[k1:, :k1] = W.T
            N = blas.dsyrk(1.0, W, beta=1.0, c=N, trans=1, lower=1)
        L[k1:, k1:] = _cholesky(N)
    if not len(T):
        return ("signed", J), None
    Y[:] = P[k:].T
    lapack.dtrtrs(L, Y, lower=1, overwrite_b=True)
    if k1:
        T = blas.dsyrk(-1.0, Y[:k1], beta=1.0, c=T, trans=1, lower=1,
                       overwrite_c=True)
    if k1 < k:
        T = blas.dsyrk(1.0, Y[k1:], beta=1.0, c=T, trans=1, lower=1,
                       overwrite_c=True)
        Y[k1:] *= -1.0
    return ("signed", J), T


def _bk_pivot(P, T, k1, L, Y):
    """Bunch-Kaufman L D L^T (symmetric interchanges, 1x1 and 2x2 pivots;
    Math. Comp. 31, 1977) of the pivot block scaled to a unit diagonal,
    s F11 s with s = |diag F11|^-1/2 (1 on a zero diagonal): it takes any
    nonsingular block, and the scaling keeps the interchanges from
    comparing unknowns of scales up to 1e18 apart.  One dsysv factors it
    and solves for X = F11^-1 F21^T = s (s F11 s)^-1 s F21^T; the update
    is T - F21 X.  The factor goes into L and X into Y; returns ("bk",
    (pivots, s)) and the update.  RuntimeError if the block is singular."""
    k = P.shape[1]
    d = np.abs(P[np.arange(k), np.arange(k)])
    s = 1.0 / np.sqrt(np.where(d > 0, d, 1.0))
    L[:] = P[:k]
    L *= s
    L *= s[:, None]
    Y[:] = P[k:].T * s[:, None]
    lwork = int(lapack.dsysv_lwork(k, lower=1)[0])
    piv, info = lapack.dsysv(L, Y, lwork=lwork, lower=1, overwrite_a=True,
                             overwrite_b=True)[1::2]
    if info:
        raise RuntimeError("singular pivot block" if info > 0 else
                           f"dsysv argument {-info} invalid")
    if not len(T):
        return ("bk", (piv, s)), None
    Y *= s[:, None]
    T = blas.dgemm(-1.0, P[k:], Y, beta=1.0, c=T, overwrite_c=True)
    return ("bk", (piv, s)), T


def _pivot(P, T, k1, L, Y):
    """The signed factor of the pivot block where it exists, else its
    Bunch-Kaufman factor."""
    try:
        return _signed_pivot(P, T, k1, L, Y)
    except NotQuasidefinite:
        return _bk_pivot(P, T, k1, L, Y)


class Factor:
    """The multifrontal factor K = L D L^T on the fronts of `tree`, all in
    one array of `nnz` entries: per front, its pivot block (Lc of a signed
    front, with D = J; the Bunch-Kaufman factor of s F11 s of a bk front)
    and the block under it (Y; see `_signed_pivot`, `_bk_pivot`).
    `fronts` holds each front's kind and D^-1 (signed) or pivots and scale
    (bk)."""

    def __init__(self, K, tree):
        k = np.diff(tree.ends)
        m = np.array([len(r) for r in tree.rows])
        ends = np.cumsum(k * (k + m))
        self.store = np.empty(ends[-1] if len(ends) else 0)
        self.nnz = self.store.size
        blocks = [(self.store[e - kf * (kf + mf):e - kf * mf].reshape(
                       kf, kf, order="F"),
                   self.store[e - kf * mf:e].reshape(kf, mf, order="F"))
                  for e, kf, mf in zip(ends, k, m)]

        def pivot(f, P, T):
            return _pivot(P, T, tree.split[f], *blocks[f])
        self.fronts = [(a, b, rows, kind, L, p, Y if len(rows) else None)
                       for a, b, rows, (kind, p), (L, Y) in
                       zip(tree.ends[:-1], tree.ends[1:], tree.rows,
                           _eliminate(K, tree, pivot), blocks)]

    def solve(self, rhs):
        """x with K x = rhs: the forward sweep over the fronts, then the
        backward sweep with the pivot blocks."""
        y = np.array(rhs, dtype=float)
        col = (slice(None),) + (None,) * (y.ndim - 1)   # a vector per row
        trtrs, sytrs = lapack.dtrtrs, lapack.dsytrs
        for a, b, rows, kind, L, _, Y in self.fronts:
            v = y[a:b]
            if kind == "signed":
                y[a:b] = v = trtrs(L, v, lower=1)[0]
            if Y is not None:
                y[rows] -= Y.T @ v
        for a, b, rows, kind, L, p, Y in reversed(self.fronts):
            if kind == "bk":
                piv, s = p
                v = sytrs(L, piv, y[a:b] * s[col], lower=1)[0] * s[col]
            else:
                v = y[a:b] * p[col]
            if Y is not None:
                v -= Y @ y[rows]
            y[a:b] = v if kind == "bk" else trtrs(L, v, lower=1, trans=1)[0]
        return y


def factor(K, tree) -> Factor:
    """The package's one sparse factorization: the multifrontal LDL^T of
    the symmetric K, already in the order of `tree` (`ordered`), on that
    tree's fronts, each pivot block signed where it is quasidefinite,
    else by Bunch-Kaufman.  RuntimeError if a pivot block is singular."""
    return Factor(K, tree)


def positive_definite(K, tree) -> bool:
    """Whether the symmetric K is positive definite, probed on
    K + 1e-12 tr(K)/n I by the Cholesky elimination on `tree` (all of K's
    unknowns taken as primal), which succeeds exactly when every front's
    pivot block is positive definite, and keeps no factor.  The shift goes
    onto the stored diagonal of the ordered copy, so the probe factors K's
    pattern; an unstored diagonal stays 0."""
    shift = 1e-12 * K.diagonal().sum() / K.shape[0]
    K = ordered(K, tree.order)
    K.data[K.indices == np.repeat(np.arange(K.shape[1]),
                                  np.diff(K.indptr))] += shift

    def cholesky(f, P, T):
        k, m = P.shape[1], len(T)
        return _signed_pivot(P, T, k, np.empty((k, k), order="F"),
                             np.empty((k, m), order="F"))
    try:
        for _ in _eliminate(K, tree, cholesky):
            pass
    except NotQuasidefinite:
        return False
    return True


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


def _factor_refine(K, b, n_primal: int, tree, meta: dict) -> ShellSolution:
    """Solve K x = b: take K's norm before the factor exists, factor once on
    the assembly tree `tree` (an `ordering.Tree`), refine up to REFINE_STEPS
    times until the backward error reaches u or a step fails to lower it
    (that step is dropped, as LAPACK's dgerfs does), accept x on its
    backward error and add the figures to meta.  All of it runs on the
    ordered system, which replaces K: no caller keeps K (each passes it
    straight from the call that makes it), so the unordered copy is freed,
    and its heap is handed back before the factor is made.  Beside the
    ordered K and its factor, only what the caller still holds stays
    resident: after `realize_via_theta(..., last=True)` that is no form and
    no quadrature data."""
    order = tree.order
    K, b = ordered(K, order), b[order]
    k_inf = inf_norm(K)
    if hasattr(_LIBC, "malloc_trim"):
        _LIBC.malloc_trim(0)
    try:
        lu = factor(K, tree)
    except RuntimeError as exc:
        raise SolverError(f"factorization failed: {exc}") from exc
    b_inf = np.abs(b).max(initial=0)
    x, r, berr = np.zeros_like(b), b, None
    for _ in range(REFINE_STEPS + 1):
        y = x + lu.solve(r)
        s = b - K @ y
        e = np.abs(s).max(initial=0) / (
            (k_inf * np.abs(y).max(initial=0) + b_inf) or 1.0)
        if berr is not None and not e < berr:
            break                  # a step that does not help: keep x
        x, r, berr = y, s, e
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


def solve_mixed(A, B, C, f, epsilon: float, tree) -> ShellSolution:
    """Solve [[A, B^T], [B, -eps^2 C]] [x; m] = [f; 0], factored on `tree`."""
    return _factor_refine(_saddle_point(A, B, C, epsilon),
                          np.concatenate([f, np.zeros(C.shape[0])]), len(f),
                          tree, {"method": "mixed", "epsilon": epsilon})


def solve_dg(R, GT, f, epsilon: float, tree) -> ShellSolution:
    """Solve the penalized one-field system [R + eps^-2 GT] x = f, with GT
    the membrane and shear forms summed, factored on `tree`."""
    return _factor_refine(R + epsilon ** -2 * GT, f, len(f), tree,
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
    system is factored on the assembler's assembly tree of its unknowns.
    `last` says that no later step reads the forms: the assembler then
    drops its forms and its element and edge quadrature data before the
    system is stacked and factored (`_theta_system`), so only the system
    is under the factor.  The norms and the VTK pass that follow rebuild
    the quadrature data on their first read; a later solve on the same
    assembler would assemble the forms anew."""
    layout = assembler.layout
    f = loads_rhs if loads_rhs is not None else np.zeros(layout.n_primal)
    if mode == "mixed":
        n, tree = layout.n_primal, assembler.factor_tree()
        rhs = np.concatenate([f, np.zeros(layout.n_block3)])
    elif mode == "dg":
        n = layout.n_block1
        rhs, tree = f[:n], assembler.factor_tree(n)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    # K goes straight into the solve core, so no local here keeps it
    return _factor_refine(_theta_system(assembler, mode, epsilon, last), rhs,
                          n, tree,
                          {"method": mode, "epsilon": epsilon, "via": "theta"})
