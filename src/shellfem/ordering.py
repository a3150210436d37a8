"""A fill-reducing order of the unknowns and its assembly tree, computed
from the mesh alone by geometric nested dissection (George, SIAM J. Numer.
Anal. 10, 1973; Lipton, Rose & Tarjan, SIAM J. Numer. Anal. 16, 1979).

The graph has a few thousand nodes where the matrix has millions of
entries: one node per element, at its centroid, and one node per vertex
(the stress block).  An element is joined to the elements across its
interior edges (the jump terms; the `left`/`right` pairs of the mesh's
interior edge table) and to its three vertices (the stress coupling B); a
vertex to the other vertices of its triangles (the stress mass C).  Each
part is split at the median of the longer side of its bounding box, and
whichever one-sided separator holds fewer DOFs is numbered after both
halves.  All parts of one level are split together; a part of at most
LEAF DOFs is not split.
Splits, leaves and separators go by coordinates, never by numbering, so a
renumbered mesh gives the same ordered matrix.

Each separator and each leaf is a front of the multifrontal factorization
(Duff & Reid, ACM TOMS 9, 1983; Liu, SIAM Review 34, 1992): its DOFs are
one contiguous range of the order, eliminated together in one dense block.
`Dissection.tree(n)` makes the assembly tree of the leading n unknowns by
a symbolic factorization on the nodes: a front's off-diagonal rows are the
later nodes joined to it or to the rows of its children, and its parent is
the front of the first of them.
"""

from __future__ import annotations

import numpy as np

LEAF = 96      # parts of at most this many DOFs are not split
DENSE = 0.8    # a front merges into its parent if the two fill this share


class Tree:
    """An assembly tree: front f pivots on positions ends[f]:ends[f + 1] of
    `order`, the first split[f] of them primal unknowns and the rest
    stresses, its off-diagonal rows are the ascending positions rows[f],
    all after its own, and its update goes to front parent[f] (-1 at a
    root), which comes after it.  (A plain class: a dataclass would add
    about 0.45 ms to importing the package.)"""

    def __init__(self, order, ends, split, parent, rows):
        self.order, self.ends, self.split = order, ends, split
        self.parent, self.rows = parent, rows


def as_tree(tree) -> Tree:
    """`tree` itself, or an order of the unknowns (callers without a mesh)
    as the tree of one front, all of it primal."""
    if isinstance(tree, Tree):
        return tree
    order = np.asarray(tree)
    return Tree(order, np.array([0, len(order)]), np.array([len(order)]),
                np.array([-1]), [np.empty(0, dtype=np.int64)])


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


class Dissection:
    """The nodes in nested-dissection order: `table` their DOF rows in that
    order, `stress` whether each is a vertex (of stress DOFs), `ends` the
    node ranges of the fronts, and (i, j) the graph's edges between node
    positions."""

    def __init__(self, table, stress, ends, i, j):
        self.table, self.stress, self.ends = table, stress, ends
        self.i, self.j = i, j

    def tree(self, n: int) -> Tree:
        """The assembly tree of the DOFs 0 .. n - 1: nodes without such a
        DOF leave the graph, and fronts without one leave the tree.  A
        front merges into its parent when that is the next front and the
        pair's entries fill at least DENSE of the merged front; a merged
        front orders its elements before its vertices."""
        keep = (self.table >= 0) & (self.table < n)
        live = keep.any(axis=1)
        table, keep, stress = self.table[live], keep[live], self.stress[live]
        count = keep.sum(axis=1)
        new = np.cumsum(live) - 1
        ends = np.unique(np.concatenate([[0], np.cumsum(live)])[self.ends])
        nf = len(ends) - 1
        # each live node's later neighbours, a CSR over node positions
        ok = live[self.i] & live[self.j]
        a, b = new[self.i[ok]], new[self.j[ok]]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        srt = np.lexsort((hi, lo))
        lo, hi = lo[srt], hi[srt]
        ptr = np.searchsorted(lo, np.arange(len(table) + 1))
        front = np.repeat(np.arange(nf), np.diff(ends))
        parent = np.full(nf, -1)
        rows, kids = [], [[] for _ in range(nf)]
        # the later rows of front f, marked: every mark lies at or after s
        mark = np.zeros(len(table), dtype=bool)
        for f, (s, e) in enumerate(zip(ends[:-1], ends[1:])):
            mark[hi[ptr[s]:ptr[e]]] = True
            for c in kids[f]:
                mark[rows[c]] = True
            rows.append(np.flatnonzero(mark[e:]) + e)
            mark[s:e] = mark[rows[f]] = False
            if len(rows[f]):
                parent[f] = front[rows[f][0]]
                kids[parent[f]].append(f)
        # merges, counted in DOFs and lower-triangle entries
        start = np.concatenate([[0], np.cumsum(count)])
        size = np.diff(start[ends])
        lengths = [len(r) for r in rows]
        below = np.bincount(np.repeat(np.arange(nf), lengths),
                            count[np.concatenate(rows)], minlength=nf)
        stored = size * (size + 1) / 2 + size * below
        first = ends[:-1].copy()
        top = np.ones(nf, dtype=bool)
        for f in np.flatnonzero(parent[:-1] == np.arange(1, nf)):
            k = start[ends[f + 2]] - start[first[f]]
            if stored[f] + stored[f + 1] >= DENSE * (k * (k + 1) / 2
                                                     + k * below[f + 1]):
                first[f + 1], top[f] = first[f], False
                stored[f + 1] += stored[f]
        tops = np.flatnonzero(top)
        group = np.searchsorted(tops, np.arange(nf))
        ends = np.concatenate([[0], ends[tops + 1]])
        # elements first within each front
        perm = np.lexsort((stress, np.repeat(np.arange(len(tops)),
                                             np.diff(ends))))
        inv = np.empty_like(perm)
        inv[perm] = np.arange(len(perm))
        count, stress = count[perm], stress[perm]
        start = np.concatenate([[0], np.cumsum(count)])
        primal = np.concatenate([[0], np.cumsum(count * ~stress)])

        # each front's rows, ascending in the new order, as DOF positions
        nodes = np.concatenate([rows[t] for t in tops])
        of = np.repeat(np.arange(len(tops)), [lengths[t] for t in tops])
        nodes = np.sort(of * len(perm) + inv[nodes]) % len(perm)
        c = count[nodes]
        dofs = np.arange(c.sum()) + np.repeat(start[nodes] - np.cumsum(c) + c,
                                              c)
        cuts = np.cumsum(np.bincount(of, c, minlength=len(tops)))[:-1]
        return Tree(table[perm][keep[perm]], start[ends],
                    np.diff(primal[ends]),
                    np.where(parent[tops] >= 0, group[parent[tops]], -1),
                    np.split(dofs, cuts.astype(np.int64)))


def nested_dissection(mesh, layout) -> Dissection:
    """The nodes of `layout` on `mesh` in nested-dissection order, with the
    fronts of its separators and leaves."""
    pts, table, i0, j0 = _graph(mesh, layout)
    i, j = i0, j0
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
        small = (size <= 1) | (np.bincount(pid, weight[a]) <= LEAF)
        done = on[sep_side, a] | small[pid]
        digits.append(np.zeros(n, dtype=np.int8))
        digits[-1][a] = np.where(done, 2, side[a])
        active[a[done]] = False
    # post-order: both halves of a part, then its separator; ties (one leaf
    # or one separator) by coordinates
    nodes = np.lexsort([pts[:, 1], pts[:, 0]] + digits[::-1])
    path = np.array(digits)[:, nodes]
    ends = np.flatnonzero(np.concatenate(
        [[True], (path[:, 1:] != path[:, :-1]).any(axis=0), [True]]))
    pos = np.empty(n, dtype=np.int64)
    pos[nodes] = np.arange(n)
    stress = nodes >= mesh.n_triangles
    return Dissection(table[nodes], stress, ends, pos[i0], pos[j0])
