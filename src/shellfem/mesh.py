"""Triangulations of the polygonal parameter domain.

Vertices live in the parameter plane; boundary edges carry one of the tags
D (clamped), S (soft simply supported), F (free).  A `Mesh` is validated
when it is built, and it holds its edge table as arrays: interior edges with
both adjacent triangles, the "first" (owner, `left`) one the lower triangle
index, which fixes the jump sign convention; boundary edges with their
triangle, local edge and tag.  Every module that runs over edges reads this
one table.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from .geometry import batched

TAGS = ("D", "S", "F")


class MeshError(ValueError):
    pass


def _pair(p) -> tuple:
    return tuple(int(i) for i in p)


class Mesh:
    """Counterclockwise triangles (nt, 3) on vertices (nv, 2), with the
    boundary edges given as vertex pairs (nb, 2), in any order, and their
    tags (nb,) in D/S/F.

    Local edge l of a triangle is the side opposite its local vertex l.
    Both edge tables are sorted by (lower vertex, higher vertex):

    - `interior`: `pairs` (ni, 2), lower vertex first; `left` and `right`
      (ni,), the adjacent triangles, `left` the lower index; `h` (ni,)
      lengths;
    - `boundary`: `pairs` (nb, 2); `triangle`, `local` and `tag` (nb,);
      `h` (nb,).

    `side_edge` (nt, 3) numbers the edge on each side, all edges counted in
    the order in which the triangles, and their local edges, first meet
    them.  `areas` (nt,) are the triangles' areas, `h_tau` (nt,) their
    longest sides and `shape_regularity` the largest ratio of circumscribed
    to inscribed diameter."""

    def __init__(self, vertices, triangles, boundary_pairs, boundary_tags):
        self.vertices = v = np.asarray(vertices, dtype=float)
        self.triangles = tris = np.asarray(triangles, dtype=int)
        if not np.array_equal(tris, triangles):     # not cast silently
            raise MeshError("triangles must be integer vertex indices")
        if v.ndim != 2 or v.shape[1] != 2 or not np.isfinite(v).all():
            raise MeshError("vertices must be finite coordinates (nv, 2)")
        if tris.ndim != 2 or tris.shape[1] != 3 or not len(tris):
            raise MeshError("triangles must be vertex indices (nt, 3), nt > 0")
        if tris.min() < 0 or tris.max() >= len(v):
            raise MeshError("a triangle has a vertex index out of range")
        self.areas = areas = _signed_areas(v, tris)
        bad = np.flatnonzero(areas <= 0)
        if len(bad):
            raise MeshError(f"triangle {bad[0]} is not counterclockwise or degenerate")
        # the sides of all triangles, side 3 t + l the local edge l of t,
        # grouped by edge in one stable sort, so that each edge's first side
        # is the one of its lower triangle
        sides = np.sort(tris[:, [1, 2, 2, 0, 0, 1]].reshape(-1, 2), axis=1)
        key = sides[:, 0] * len(v) + sides[:, 1]
        by_key = np.argsort(key, kind="stable")
        new = np.ones(len(key), dtype=bool)
        new[1:] = np.diff(key[by_key]) != 0
        start = np.flatnonzero(new)
        count = np.diff(np.append(start, len(key)))
        if np.any(count > 2):
            e = np.argmax(count > 2)
            raise MeshError(f"edge {_pair(sides[by_key[start[e]]])} shared by "
                            f"{count[e]} triangles")
        first = by_key[start]
        inner = count == 2
        # each edge's number: the rank of its first side among first sides
        is_first = np.zeros(len(key), dtype=bool)
        is_first[first] = True
        side_edge = np.empty(len(key), dtype=int)
        side_edge[by_key] = (np.cumsum(is_first) - 1)[first][np.cumsum(new) - 1]
        self.side_edge = side_edge.reshape(-1, 3)
        # the tags, matched to the sorted edge keys
        tagged = np.asarray(boundary_pairs, dtype=int)
        if not np.array_equal(tagged, boundary_pairs):
            raise MeshError("boundary pairs must be integer vertex indices")
        tagged = np.sort(tagged.reshape(-1, 2), axis=1)
        if isinstance(boundary_tags, str):
            raise MeshError(f"tags must be a sequence, not {boundary_tags!r}")
        tags = np.asarray(boundary_tags, dtype=str).reshape(-1)
        if len(tags) != len(tagged):
            raise MeshError("need one tag per boundary edge")
        unknown = ~np.isin(tags, TAGS)
        if unknown.any():
            raise MeshError(f"unknown boundary tag {str(tags[unknown][0])!r}")
        pairs, ekey = sides[first], key[first]
        at = np.minimum(np.searchsorted(
            ekey, tagged[:, 0] * len(v) + tagged[:, 1]), len(ekey) - 1)
        checks = (
            ((pairs[at] != tagged).any(axis=1),
             "tagged edge {} does not exist on the boundary"),
            (inner[at], "edge {} is interior but tagged as boundary"),
            (np.bincount(at, minlength=len(ekey))[at] > 1,
             "boundary edge {} is tagged twice"))
        for fails, message in checks:
            if fails.any():
                raise MeshError(message.format(_pair(tagged[fails][0])))
        tag = np.full(len(ekey), "", dtype="<U1")
        tag[at] = tags
        untagged = ~inner & (tag == "")
        if untagged.any():
            raise MeshError(f"boundary edge {_pair(pairs[untagged][0])} has no tag")
        lengths = np.linalg.norm(v[tris] - v[np.roll(tris, -1, axis=1)], axis=2)
        # lengths as np.linalg.norm takes them: a (1,2)@(2,1) matmul is one dot
        d = np.diff(v[pairs], axis=1)[:, 0]
        h = np.sqrt((d[:, None] @ d[..., None])[:, 0, 0])
        self.interior = SimpleNamespace(
            pairs=pairs[inner], left=first[inner] // 3,
            right=by_key[start[inner] + 1] // 3, h=h[inner])
        outer = ~inner
        self.boundary = SimpleNamespace(
            pairs=pairs[outer], triangle=first[outer] // 3,
            local=first[outer] % 3, tag=tag[outer], h=h[outer])
        self.h_tau = lengths.max(axis=1)
        # circumscribed diameter / inscribed diameter; inscribed = 4 area / perimeter
        a, b, c = lengths[:, 0], lengths[:, 1], lengths[:, 2]
        circum = a * b * c / (2.0 * areas)
        inscr = 4.0 * areas / (a + b + c)
        self.shape_regularity = float((circum / inscr).max())

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_triangles(self):
        return len(self.triangles)


def _signed_areas(v, tris):
    p = v[tris]
    return 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                  - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))


def edge_normal(mesh: Mesh, vertex_pairs, owner_tris):
    """Constant outward unit normals (n, 2), in the parameter plane, of the
    straight edges with vertex pairs (n, 2), each pointing out of its owner
    triangle in owner_tris (n,)."""
    p, q = np.moveaxis(mesh.vertices[np.reshape(vertex_pairs, (-1, 2))], 1, 0)
    t = q - p
    n = np.stack([t[:, 1], -t[:, 0]], axis=1) / np.linalg.norm(
        t, axis=1)[:, None]
    centroid = mesh.vertices[mesh.triangles[owner_tris]].mean(axis=1)
    inward = np.einsum("ei,ei->e", n, p - centroid) < 0
    return np.where(inward[:, None], -n, n)


def _graded_coords(lo: float, hi: float, n: int, ratio: float, toward_lo: bool):
    if not (0 < ratio <= 1):
        raise MeshError("grading ratio must be in (0, 1]")
    if ratio == 1.0:
        return np.linspace(lo, hi, n + 1)
    # cell widths form a geometric series, smallest at the graded side
    w = ratio ** np.arange(n - 1, -1, -1, dtype=float)
    if not toward_lo:
        w = w[::-1]
    w = w / w.sum()
    return lo + (hi - lo) * np.concatenate([[0.0], np.cumsum(w)])


def generate_rect_mesh(rect, nx: int, ny: int, tags=("D", "D", "D", "D"),
                       grading=None) -> Mesh:
    """Structured triangulation of a rectangle; each cell split along its
    SW-NE diagonal.

    rect: (x1min, x1max, x2min, x2max); tags: (left, right, bottom, top);
    grading: optional dict {'ratio': r, 'toward': side in left/right/bottom/top};
    a grading without a known side is an error.
    """
    x1min, x1max, x2min, x2max = rect
    if nx < 1 or ny < 1:
        raise MeshError("nx, ny must be >= 1")
    xs = np.linspace(x1min, x1max, nx + 1)
    ys = np.linspace(x2min, x2max, ny + 1)
    if grading:
        ratio, toward = float(grading.get("ratio", 1.0)), grading.get("toward")
        if toward in ("left", "right"):
            xs = _graded_coords(x1min, x1max, nx, ratio, toward == "left")
        elif toward in ("bottom", "top"):
            ys = _graded_coords(x2min, x2max, ny, ratio, toward == "bottom")
        else:
            raise MeshError(f"unknown grading side {toward!r}")
    verts = np.stack(np.meshgrid(xs, ys), axis=-1).reshape(-1, 2)
    vid = np.arange(len(verts)).reshape(ny + 1, nx + 1)
    a, b, c, d = vid[:-1, :-1], vid[:-1, 1:], vid[1:, 1:], vid[1:, :-1]
    tris = np.stack([a, b, c, a, c, d], axis=-1).reshape(-1, 3)
    # the vertices along the left, right, bottom and top sides
    sides = (vid[:, 0], vid[:, -1], vid[0], vid[-1])
    pairs = np.concatenate([np.stack([s[:-1], s[1:]], axis=1) for s in sides])
    return Mesh(verts, tris, pairs, np.repeat(tags, [len(s) - 1 for s in sides]))


def refine_uniform(mesh: Mesh) -> Mesh:
    """Split every triangle into 4 by edge midpoints; boundary tags inherited.
    The midpoints follow the old vertices, one per edge in `side_edge`
    order."""
    v, tris, bd = mesh.vertices, mesh.triangles, mesh.boundary
    n_edges = len(mesh.interior.pairs) + len(bd.pairs)
    mids = np.empty((n_edges, 2))
    # local edge l of (i, j, k) runs between the other two vertices
    mids[mesh.side_edge] = 0.5 * (v[tris[:, [1, 2, 0]]] + v[tris[:, [2, 0, 1]]])
    i, j, k = tris.T
    a, b, c = (mesh.n_vertices + mesh.side_edge).T
    m = mesh.n_vertices + mesh.side_edge[bd.triangle, bd.local]
    return Mesh(np.concatenate([v, mids]),
                np.stack([i, c, b, c, j, a, b, a, k, a, b, c],
                         axis=1).reshape(-1, 3),
                np.stack([bd.pairs[:, 0], m, m, bd.pairs[:, 1]],
                         axis=1).reshape(-1, 2),
                np.repeat(bd.tag, 2))


# ----------------------------------------------------------------- file I/O

def load_mesh(text: str) -> Mesh:
    """Parse the line-oriented mesh format (header 'naghdi-mesh 1')."""
    lines = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append((ln, stripped))
    if not lines or lines[0][1] != "naghdi-mesh 1":
        raise MeshError("line 1: missing 'naghdi-mesh 1' header")
    pos = 1

    def section(name):
        nonlocal pos
        if pos >= len(lines):
            raise MeshError(f"unexpected end of file, expected '{name} N'")
        ln, s = lines[pos]
        parts = s.split()
        if len(parts) != 2 or parts[0] != name:
            raise MeshError(f"line {ln}: expected '{name} N', got {s!r}")
        if not parts[1].isdecimal():
            raise MeshError(f"line {ln}: bad count {parts[1]!r}")
        n = int(parts[1])
        pos += 1
        rows = []
        for _ in range(n):
            if pos >= len(lines):
                raise MeshError(f"unexpected end of file in section {name!r}")
            rows.append(lines[pos])
            pos += 1
        return rows

    vrows = section("vertices")
    verts = []
    for ln, s in vrows:
        parts = s.split()
        if len(parts) != 2:
            raise MeshError(f"line {ln}: expected 'x1 x2'")
        try:
            xy = (float(parts[0]), float(parts[1]))
        except ValueError:
            xy = (np.nan,)
        if not np.isfinite(xy).all():
            raise MeshError(f"line {ln}: bad coordinate")
        verts.append(xy)
    trows = section("triangles")
    tris = []
    for ln, s in trows:
        parts = s.split()
        if len(parts) != 3:
            raise MeshError(f"line {ln}: expected 'i j k'")
        try:
            ijk = tuple(int(p) for p in parts)
        except ValueError:
            raise MeshError(f"line {ln}: bad vertex index")
        if any(i < 0 or i >= len(verts) for i in ijk):
            raise MeshError(f"line {ln}: vertex index out of range")
        tris.append(ijk)
    brows = section("boundary")
    listed = {}        # vertex pair -> (line, tag)
    for ln, s in brows:
        parts = s.split()
        if len(parts) != 3 or parts[2] not in TAGS:
            raise MeshError(f"line {ln}: expected 'i j TAG' with TAG in D/S/F")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise MeshError(f"line {ln}: bad vertex index")
        if any(k < 0 or k >= len(verts) for k in (i, j)):
            raise MeshError(f"line {ln}: vertex index out of range")
        key = (min(i, j), max(i, j))
        if key in listed:
            raise MeshError(f"line {ln}: boundary edge {key} already listed on "
                            f"line {listed[key][0]}")
        listed[key] = (ln, parts[2])
    if pos != len(lines):
        raise MeshError(f"line {lines[pos][0]}: trailing content")
    verts = np.array(verts)
    tris = np.array(tris, dtype=int).reshape(-1, 3)
    # auto-fix orientation
    areas = _signed_areas(verts, tris)
    flipped = areas < 0
    if np.any(flipped):
        tris[flipped] = tris[flipped][:, ::-1]
    return Mesh(verts, tris, list(listed), [tag for _, tag in listed.values()])


def save_mesh(mesh: Mesh) -> str:
    out = ["naghdi-mesh 1"]
    out.append(f"vertices {mesh.n_vertices}")
    for x, y in mesh.vertices:
        out.append(f"{float(x)!r} {float(y)!r}")
    out.append(f"triangles {mesh.n_triangles}")
    for i, j, k in mesh.triangles:
        out.append(f"{i} {j} {k}")
    out.append(f"boundary {len(mesh.boundary.pairs)}")
    for (p, q), tag in zip(mesh.boundary.pairs, mesh.boundary.tag):
        out.append(f"{p} {q} {tag}")
    return "\n".join(out) + "\n"


def _triangle_samples(tri_vertices: np.ndarray, n: int) -> np.ndarray:
    """Barycentric lattice with n points per edge (n>=2 includes vertices) on
    each triangle of tri_vertices (..., 3, 2); returns (..., points, 2)."""
    lam = np.array([(i / (n - 1), j / (n - 1), 1.0 - i / (n - 1) - j / (n - 1))
                    for i in range(n) for j in range(n - i)])
    return lam @ tri_vertices


def geometry_resolution(mesh: Mesh, chart) -> tuple:
    """The epsilon-free part of `mesh_condition_report`: the largest
    h_tau^2-scaled first-order geometry seminorm over the triangles, with the
    derivative directions maxed and with them summed.  The seminorm of a
    triangle is sampled: per component of Gamma, b_cov and b_mix, the max
    over its 6 samples of each partial, which the chart's derivative fields
    give at all samples of every triangle at once."""
    samples = _triangle_samples(mesh.vertices[mesh.triangles], 3)
    g = batched(chart.derivatives, samples)
    s = s_sum = 0.0
    for arr in (g.d_christoffel, g.d_b_cov, g.d_b_mix):
        # (triangles, components, directions)
        m = np.abs(arr.reshape(arr.shape[:2] + (-1, 2))).max(axis=1)
        s = s + m.max(axis=-1).sum(axis=-1)
        s_sum = s_sum + m.sum(axis=(-2, -1))
    h2 = mesh.h_tau ** 2
    return float((h2 * s).max()), float((h2 * s_sum).max())


def mesh_condition_report(mesh: Mesh, chart, epsilon: float,
                          resolution: tuple = None) -> dict:
    """Geometry-resolution diagnostics: the refinement factor entering the
    mixed-method error bound and the DG applicability check.  `resolution`
    is `geometry_resolution(mesh, chart)` when the caller already has it."""
    worst, worst_sum = resolution or geometry_resolution(mesh, chart)
    return {
        "mixed_error_factor": 1.0 + worst / epsilon,
        "geometry_resolution": worst_sum,
        "geometry_resolved": bool(worst_sum <= epsilon),
    }
