"""A fill-reducing order of the unknowns, computed from the mesh alone by
geometric nested dissection (George, SIAM J. Numer. Anal. 10, 1973; Lipton,
Rose & Tarjan, SIAM J. Numer. Anal. 16, 1979).

The graph has a few thousand nodes where the matrix has millions of
entries: one node per element, at its centroid, and one node per vertex
(the stress block).  An element is joined to the elements across its
interior edges (the jump terms; the `left`/`right` pairs of the mesh's
interior edge table) and to its three vertices (the stress coupling B); a
vertex to the other vertices of its triangles (the stress mass C).  Each
part is split at the median of the longer side of its bounding box, and
whichever one-sided separator holds fewer DOFs is numbered after both
halves.  All parts of one level are split together.
Splits, leaves and separators go by coordinates, never by numbering, so a
renumbered mesh gives the same ordered matrix.
"""

from __future__ import annotations

import numpy as np

LEAF = 2       # parts of at most this many nodes are not split


def _graph(mesh, layout):
    """Node points (n, 2), DOF tables (n, w) padded with -1, and the two
    end arrays of the graph's edges."""
    tris, nt, nv = mesh.triangles, mesh.n_triangles, mesh.n_vertices
    # centroids summed in sorted order: independent of the local vertex order
    pts = np.sort(mesh.vertices[tris], axis=1).sum(axis=1) / 3.0
    verts = nt + tris
    i, j = (np.concatenate(e) for e in zip(
        (mesh.interior.left, mesh.interior.right),
        (np.repeat(np.arange(nt), 3), verts.ravel()),
        (verts.ravel(), np.roll(verts, 1, axis=1).ravel())))
    table = np.full((nt + nv, layout.dofs.shape[1]), -1)
    table[:nt] = layout.dofs
    table[nt:, :5] = layout.n_primal + layout.stress_dofs
    return np.concatenate([pts, mesh.vertices]), table, i, j


def nested_dissection(mesh, layout) -> np.ndarray:
    """The DOFs 0 .. n_total - 1 of `layout` in nested-dissection order."""
    pts, table, i, j = _graph(mesh, layout)
    n = len(pts)
    weight = (table >= 0).sum(axis=1)
    # each level's digit of every node's path in the dissection tree: 0 and
    # 1 the halves of its part, 2 the separator or leaf that ends the path
    # (0 after the end)
    digits = []
    part = np.zeros(n, dtype=np.int64)
    active = np.ones(n, dtype=bool)
    while active.any():
        a = np.flatnonzero(active)
        inside = active[i] & active[j] & (part[i] == part[j])
        i, j = i[inside], j[inside]
        # the parts, numbered 0.., and the median of each along its longer
        # axis
        pid = (np.cumsum(np.bincount(part[a]) > 0) - 1)[part[a]]
        size = np.bincount(pid)
        start = np.cumsum(size) - size
        p = pts[a[np.argsort(pid, kind="stable")]]
        extent = np.maximum.reduceat(p, start) - np.minimum.reduceat(p, start)
        x = pts[a, np.argmax(extent, axis=1)[pid]]
        med = x[np.lexsort((x, pid))[start + size // 2]][pid]
        above = x >= med
        # a median at the part's lowest value leaves no lower half
        lower = np.bincount(pid, ~above, minlength=len(size)) > 0
        side = np.zeros(n, dtype=np.int64)
        side[a] = np.where(lower[pid], above, x > med)
        part[a] = 2 * pid + side[a]
        # the one-sided separators of the edges between the halves of a part
        cut = part[i] == (part[j] ^ 1)
        on = np.zeros((2, n), dtype=bool)
        on[side[i[cut]], i[cut]] = True
        on[side[j[cut]], j[cut]] = True
        sep_w = [np.bincount(pid, weight[a] * on[s, a], minlength=len(size))
                 for s in (0, 1)]
        sep_side = (sep_w[1] < sep_w[0]).astype(np.int64)[pid]
        done = on[sep_side, a] | (size[pid] <= LEAF)
        digits.append(np.zeros(n, dtype=np.int8))
        digits[-1][a] = np.where(done, 2, side[a])
        active[a[done]] = False
    # post-order: both halves of a part, then its separator; ties (one leaf
    # or one separator) by coordinates
    nodes = np.lexsort([pts[:, 1], pts[:, 0]] + digits[::-1])
    dofs = table[nodes].ravel()
    return dofs[dofs >= 0]
