"""Triangulations of the polygonal parameter domain.

Vertices live in the parameter plane; boundary edges carry one of the tags
D (clamped), S (soft simply supported), F (free).  Interior edges store both
adjacent triangles; the "first" (owner) side is the lower triangle index and
fixes the jump sign convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

TAGS = ("D", "S", "F")


class MeshError(ValueError):
    pass


@dataclass(frozen=True)
class InteriorEdge:
    vertices: tuple      # (i, j) with i < j
    left: int            # owner triangle (lower index)
    right: int
    left_local: int      # local edge index within the owner
    right_local: int


@dataclass(frozen=True)
class BoundaryEdge:
    vertices: tuple
    triangle: int
    local: int
    tag: str


@dataclass
class Mesh:
    vertices: np.ndarray              # (nv, 2)
    triangles: np.ndarray             # (nt, 3) CCW
    interior_edges: list = field(default_factory=list)
    boundary_edges: list = field(default_factory=list)
    h_tau: np.ndarray = None          # (nt,) longest edge
    h_e_interior: np.ndarray = None
    h_e_boundary: np.ndarray = None
    shape_regularity: float = 0.0

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_triangles(self):
        return len(self.triangles)

    def free_local_edges(self, t: int) -> tuple:
        return self._free_edges.get(t, ())

    def finalize(self):
        """Build edge adjacency and quality metrics; validate invariants."""
        v = self.vertices
        tris = self.triangles
        areas = _signed_areas(v, tris)
        bad = np.where(areas <= 0)[0]
        if len(bad):
            raise MeshError(f"triangle {bad[0]} is not counterclockwise or degenerate")
        # local edge i is opposite local vertex i
        edge_owner = {}
        for t, (i, j, k) in enumerate(tris):
            for loc, (p, q) in enumerate(((j, k), (k, i), (i, j))):
                key = (min(p, q), max(p, q))
                edge_owner.setdefault(key, []).append((t, loc))
        tag_by_edge = {e.vertices: e for e in self.boundary_edges}
        interior, boundary = [], []
        for key, owners in sorted(edge_owner.items()):
            if len(owners) == 2:
                (t1, l1), (t2, l2) = sorted(owners)
                interior.append(InteriorEdge(key, t1, t2, l1, l2))
                if key in tag_by_edge:
                    raise MeshError(f"edge {key} is interior but tagged as boundary")
            elif len(owners) == 1:
                t, loc = owners[0]
                if key not in tag_by_edge:
                    raise MeshError(f"boundary edge {key} has no tag")
                boundary.append(BoundaryEdge(key, t, loc, tag_by_edge[key].tag))
            else:
                raise MeshError(f"edge {key} shared by {len(owners)} triangles")
        for key in tag_by_edge:
            if len(edge_owner.get(key, [])) != 1:
                raise MeshError(f"tagged edge {key} does not exist on the boundary")
        self.interior_edges = interior
        self.boundary_edges = boundary
        lengths = np.linalg.norm(v[tris] - v[np.roll(tris, -1, axis=1)], axis=2)
        self.h_tau = lengths.max(axis=1)
        self.h_e_interior = np.array([
            np.linalg.norm(v[e.vertices[0]] - v[e.vertices[1]]) for e in interior])
        self.h_e_boundary = np.array([
            np.linalg.norm(v[e.vertices[0]] - v[e.vertices[1]]) for e in boundary])
        # circumscribed diameter / inscribed diameter; inscribed = 4 area / perimeter
        a, b, c = lengths[:, 0], lengths[:, 1], lengths[:, 2]
        circum = a * b * c / (2.0 * areas)
        inscr = 4.0 * areas / (a + b + c)
        self.shape_regularity = float((circum / inscr).max())
        self._free_edges = {}
        for e in boundary:
            if e.tag == "F":
                self._free_edges.setdefault(e.triangle, [])
                self._free_edges[e.triangle].append(e.local)
        self._free_edges = {t: tuple(sorted(v)) for t, v in self._free_edges.items()}
        return self


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
    grading: optional dict {'ratio': r, 'toward': side in left/right/bottom/top}.
    """
    x1min, x1max, x2min, x2max = rect
    if nx < 1 or ny < 1:
        raise MeshError("nx, ny must be >= 1")
    ratio = 1.0
    toward = None
    if grading:
        ratio = float(grading.get("ratio", 1.0))
        toward = grading.get("toward")
    if toward in ("left", "right"):
        xs = _graded_coords(x1min, x1max, nx, ratio, toward == "left")
        ys = np.linspace(x2min, x2max, ny + 1)
    elif toward in ("bottom", "top"):
        xs = np.linspace(x1min, x1max, nx + 1)
        ys = _graded_coords(x2min, x2max, ny, ratio, toward == "bottom")
    else:
        if grading and toward is not None:
            raise MeshError(f"unknown grading side {toward!r}")
        if not (0 < ratio <= 1):
            raise MeshError("grading ratio must be in (0, 1]")
        xs = np.linspace(x1min, x1max, nx + 1)
        ys = np.linspace(x2min, x2max, ny + 1)
    verts = np.array([(x, y) for y in ys for x in xs])

    def vid(i, j):
        return j * (nx + 1) + i

    tris = []
    for j in range(ny):
        for i in range(nx):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            tris.append((a, b, c))
            tris.append((a, c, d))
    tris = np.array(tris, dtype=int)
    left, right, bottom, top = tags
    boundary = []
    for j in range(ny):
        boundary.append(((vid(0, j), vid(0, j + 1)), left))
        boundary.append(((vid(nx, j), vid(nx, j + 1)), right))
    for i in range(nx):
        boundary.append(((vid(i, 0), vid(i + 1, 0)), bottom))
        boundary.append(((vid(i, ny), vid(i + 1, ny)), top))
    bedges = []
    for (p, q), tag in boundary:
        if tag not in TAGS:
            raise MeshError(f"unknown boundary tag {tag!r}")
        key = (min(p, q), max(p, q))
        bedges.append(BoundaryEdge(key, -1, -1, tag))
    mesh = Mesh(verts, tris, boundary_edges=bedges)
    return mesh.finalize()


def refine_uniform(mesh: Mesh) -> Mesh:
    """Split every triangle into 4 by edge midpoints; boundary tags inherited."""
    v = mesh.vertices
    mid_index = {}
    new_verts = list(map(tuple, v))

    def midpoint(p, q):
        key = (min(p, q), max(p, q))
        if key not in mid_index:
            mid_index[key] = len(new_verts)
            new_verts.append(tuple(0.5 * (v[p] + v[q])))
        return mid_index[key]

    tris = []
    for (i, j, k) in mesh.triangles:
        a, b, c = midpoint(j, k), midpoint(k, i), midpoint(i, j)
        tris.extend([(i, c, b), (c, j, a), (b, a, k), (a, b, c)])
    bedges = []
    for e in mesh.boundary_edges:
        p, q = e.vertices
        m = mid_index[(min(p, q), max(p, q))]
        for pair in ((p, m), (m, q)):
            key = (min(pair), max(pair))
            bedges.append(BoundaryEdge(key, -1, -1, e.tag))
    out = Mesh(np.array(new_verts), np.array(tris, dtype=int),
               boundary_edges=bedges)
    return out.finalize()


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
        try:
            n = int(parts[1])
        except ValueError:
            raise MeshError(f"line {ln}: bad count {parts[1]!r}")
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
            verts.append((float(parts[0]), float(parts[1])))
        except ValueError:
            raise MeshError(f"line {ln}: bad coordinate")
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
    bedges = []
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
        bedges.append(BoundaryEdge((min(i, j), max(i, j)), -1, -1, parts[2]))
    if pos != len(lines):
        raise MeshError(f"line {lines[pos][0]}: trailing content")
    verts = np.array(verts)
    tris = np.array(tris, dtype=int)
    # auto-fix orientation
    areas = _signed_areas(verts, tris)
    flipped = areas < 0
    if np.any(flipped):
        tris[flipped] = tris[flipped][:, ::-1]
    return Mesh(verts, tris, boundary_edges=bedges).finalize()


def save_mesh(mesh: Mesh) -> str:
    out = ["naghdi-mesh 1"]
    out.append(f"vertices {mesh.n_vertices}")
    for x, y in mesh.vertices:
        out.append(f"{float(x)!r} {float(y)!r}")
    out.append(f"triangles {mesh.n_triangles}")
    for i, j, k in mesh.triangles:
        out.append(f"{i} {j} {k}")
    out.append(f"boundary {len(mesh.boundary_edges)}")
    for e in mesh.boundary_edges:
        out.append(f"{e.vertices[0]} {e.vertices[1]} {e.tag}")
    return "\n".join(out) + "\n"


def geometry_resolution(mesh: Mesh, chart) -> tuple:
    """The epsilon-free part of `mesh_condition_report`: the largest
    h_tau^2-scaled first-order geometry seminorm over the triangles, with the
    derivative directions maxed and with them summed.  The chart is evaluated
    at all 6 samples of every triangle at once."""
    from .geometry import _triangle_samples, batched, triangle_seminorms
    samples = _triangle_samples(mesh.vertices[mesh.triangles], 3)
    semi = triangle_seminorms(batched(chart.evaluate, samples))
    s = semi["christoffel"] + semi["b_cov"] + semi["b_mix"]
    s_sum = (semi["christoffel_sum_dirs"] + semi["b_cov_sum_dirs"]
             + semi["b_mix_sum_dirs"])
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
