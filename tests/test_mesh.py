import re

import numpy as np
import pytest

from shellfem.assembly import LoadSpec
from shellfem.driver import ShellProblem
from shellfem.geometry import make_chart
from shellfem.mesh import (Mesh, MeshError, generate_rect_mesh, load_mesh,
                           mesh_condition_report, refine_uniform, save_mesh)

from oracles import reference_edge_table, reference_refine


def test_rect_mesh_counts_and_euler():
    for nx, ny in ((1, 1), (3, 2), (5, 5)):
        m = generate_rect_mesh((0, 1, 0, 2), nx, ny)
        nv = (nx + 1) * (ny + 1)
        nt = 2 * nx * ny
        assert m.n_vertices == nv
        assert m.n_triangles == nt
        ne = len(m.interior.pairs) + len(m.boundary.pairs)
        assert nv - ne + nt == 1                      # Euler, one hole-free patch
        assert len(m.boundary.pairs) == 2 * (nx + ny)


def test_triangles_ccw_and_area():
    m = generate_rect_mesh((0, 2, 0, 1), 4, 3)
    v = m.vertices[m.triangles]
    d1 = v[:, 1] - v[:, 0]
    d2 = v[:, 2] - v[:, 0]
    areas = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    assert (areas > 0).all()
    assert areas.sum() == pytest.approx(2.0)


def test_boundary_tags_assigned_per_side():
    m = generate_rect_mesh((0, 1, 0, 1), 2, 2, tags=("D", "S", "F", "D"))
    for pair, tag in zip(m.boundary.pairs, m.boundary.tag):
        p, q = m.vertices[pair]
        mid = 0.5 * (p + q)
        if np.isclose(mid[0], 0):
            assert tag == "D"
        elif np.isclose(mid[0], 1):
            assert tag == "S"
        elif np.isclose(mid[1], 0):
            assert tag == "F"
        else:
            assert tag == "D"


def test_grading_example():
    m = generate_rect_mesh((0, 1, 0, 1), 3, 1,
                           grading={"ratio": 0.5, "toward": "left"})
    xs = np.unique(np.round(m.vertices[:, 0], 12))
    assert np.allclose(xs, [0.0, 1.0 / 7.0, 3.0 / 7.0, 1.0])


@pytest.mark.parametrize("grading", [{"ratio": 0.5},
                                     {"ratio": 0.5, "toward": "middle"}],
                         ids=["no-side", "unknown-side"])
def test_grading_without_a_known_side_is_rejected(grading):
    """A grading request is never dropped in favour of a uniform mesh."""
    with pytest.raises(MeshError, match="grading side"):
        generate_rect_mesh((0, 1, 0, 1), 4, 1, grading=grading)


def test_refine_uniform():
    m = generate_rect_mesh((0, 1, 0, 1), 2, 2, tags=("D", "S", "F", "D"))
    r = refine_uniform(m)
    assert r.n_triangles == 4 * m.n_triangles
    # total area preserved
    for mesh, want in ((m, 1.0), (r, 1.0)):
        v = mesh.vertices[mesh.triangles]
        d1 = v[:, 1] - v[:, 0]
        d2 = v[:, 2] - v[:, 0]
        assert (0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])).sum() \
            == pytest.approx(want)
    # boundary tags survive refinement, each side split in two
    assert len(r.boundary.pairs) == 2 * len(m.boundary.pairs)
    assert set(r.boundary.tag) == set(m.boundary.tag)
    assert max(r.h_tau) == pytest.approx(0.5 * max(m.h_tau))


def test_save_load_round_trip():
    m = generate_rect_mesh((0, 1, 0, 2), 3, 2, tags=("D", "S", "F", "D"))
    text = save_mesh(m)
    m2 = load_mesh(text)
    assert np.allclose(m.vertices, m2.vertices)
    assert np.array_equal(m.triangles, m2.triangles)
    tags1 = sorted((tuple(sorted(p)), t) for p, t in zip(m.boundary.pairs,
                                                         m.boundary.tag))
    tags2 = sorted((tuple(sorted(p)), t) for p, t in zip(m2.boundary.pairs,
                                                         m2.boundary.tag))
    assert tags1 == tags2


def test_load_mesh_error_line_numbers():
    with pytest.raises(MeshError, match="line 1"):
        load_mesh("bogus-header\n")
    good = save_mesh(generate_rect_mesh((0, 1, 0, 1), 1, 1))
    lines = good.splitlines()
    # corrupt a vertex line
    idx = next(i for i, l in enumerate(lines)
               if l.startswith("vertices")) + 1
    lines[idx] = "0.0 not-a-number"
    with pytest.raises(MeshError, match=f"line {idx + 1}"):
        load_mesh("\n".join(lines))


def test_load_mesh_fixes_orientation():
    m = generate_rect_mesh((0, 1, 0, 1), 1, 1)
    lines = save_mesh(m).splitlines()
    idx = next(i for i, l in enumerate(lines)
               if l.startswith("triangles")) + 1
    i, j, k = lines[idx].split()
    lines[idx] = f"{k} {j} {i}"                   # flip one triangle
    mesh = load_mesh("\n".join(lines))
    v = mesh.vertices[mesh.triangles]
    d1 = v[:, 1] - v[:, 0]
    d2 = v[:, 2] - v[:, 0]
    assert (0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]) > 0).all()


def test_shape_regularity_bounded():
    m = generate_rect_mesh((0, 1, 0, 1), 4, 4)
    assert 1.0 <= m.shape_regularity < 10.0


def test_mesh_condition_plate():
    m = generate_rect_mesh((0, 1, 0, 1), 4, 4)
    chart = make_chart("plate")
    rep = mesh_condition_report(m, chart, epsilon=0.01)
    assert rep["mixed_error_factor"] == pytest.approx(1.0)
    assert rep["geometry_resolution"] == pytest.approx(0.0, abs=1e-12)
    assert rep["geometry_resolved"]


def test_mesh_condition_sphere_scales_with_h():
    chart = make_chart("sphere")
    m = generate_rect_mesh((0.6, 1.2, 0.0, 0.6), 4, 4)
    r1 = mesh_condition_report(m, chart, epsilon=0.1)
    r2 = mesh_condition_report(refine_uniform(m), chart, epsilon=0.1)
    assert 0 < r2["geometry_resolution"] < r1["geometry_resolution"]
    assert r2["mixed_error_factor"] < r1["mixed_error_factor"]


def mesh_text(vertices, triangles, boundary):
    """The `naghdi-mesh 1` text of the given vertices, triangles and
    (i, j, tag) boundary lines."""
    return "\n".join(
        ["naghdi-mesh 1", f"vertices {len(vertices)}"]
        + [f"{x} {y}" for x, y in vertices]
        + [f"triangles {len(triangles)}"]
        + [f"{i} {j} {k}" for i, j, k in triangles]
        + [f"boundary {len(boundary)}"]
        + [f"{i} {j} {tag}" for i, j, tag in boundary]) + "\n"


SQUARE = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
SQUARE_TRIS = [(0, 1, 3), (0, 3, 2)]
SQUARE_SIDES = [(0, 1, "D"), (1, 3, "S"), (2, 3, "F"), (0, 2, "D")]


@pytest.mark.parametrize("vertices,triangles,boundary,fragment", [
    (SQUARE + [(0.5, -1.0), (0.5, 2.0)], [(0, 1, 2), (0, 1, 4), (1, 0, 3)],
     [], "edge \\(0, 1\\) shared by 3 triangles"),
    (SQUARE, SQUARE_TRIS, SQUARE_SIDES + [(0, 3, "D")],
     "edge \\(0, 3\\) is interior"),
    (SQUARE, SQUARE_TRIS, SQUARE_SIDES[1:], "edge \\(0, 1\\) has no tag"),
    (SQUARE, SQUARE_TRIS, SQUARE_SIDES + [(1, 2, "F")],
     "edge \\(1, 2\\) does not exist"),
    (SQUARE + [(2.0, 0.0)], SQUARE_TRIS + [(0, 1, 4)], SQUARE_SIDES,
     "triangle 2 is not counterclockwise or degenerate"),
    (SQUARE, [], [], "triangles must be vertex indices \\(nt, 3\\), nt > 0"),
    ([(float("nan"), 0.0)] + SQUARE[1:], SQUARE_TRIS, SQUARE_SIDES,
     "line 3: bad coordinate"),
], ids=["three-triangles", "tagged-interior", "untagged-boundary",
        "tagged-absent", "zero-area", "no-triangles", "nan-coordinate"])
def test_invalid_meshes_are_rejected(vertices, triangles, boundary, fragment):
    with pytest.raises(MeshError, match=fragment):
        load_mesh(mesh_text(vertices, triangles, boundary))


@pytest.mark.parametrize("section", ["vertices", "triangles", "boundary"])
def test_negative_section_count_is_rejected(section):
    text = mesh_text(SQUARE, SQUARE_TRIS, SQUARE_SIDES)
    line = next(i for i, s in enumerate(text.splitlines(), start=1)
                if s.startswith(section))
    text = re.sub(rf"^{section} \d+$", f"{section} -1", text, flags=re.M)
    with pytest.raises(MeshError, match=f"line {line}: bad count '-1'"):
        load_mesh(text)


SQUARE_PAIRS = [(i, j) for i, j, _ in SQUARE_SIDES]
SQUARE_TAGS = [tag for _, _, tag in SQUARE_SIDES]


@pytest.mark.parametrize("vertices,triangles,fragment", [
    (SQUARE, np.zeros((0, 3), dtype=int), "triangles must be vertex indices"),
    (SQUARE, [(0, 1, 3), (0, 3, 4)], "vertex index out of range"),
    (SQUARE, [(0, 1, 3), (0, 3, -2)], "vertex index out of range"),
    (SQUARE, [0, 1, 3, 0, 3, 2], "triangles must be vertex indices"),
    (SQUARE, [(0, 1, 3, 2)], "triangles must be vertex indices"),
    ([(0.0, np.nan)] + SQUARE[1:], SQUARE_TRIS, "vertices must be finite"),
    ([(np.inf, 0.0)] + SQUARE[1:], SQUARE_TRIS, "vertices must be finite"),
    ([(x, y, 0.0) for x, y in SQUARE], SQUARE_TRIS, "vertices must be finite"),
], ids=["no-triangles", "index-too-large", "negative-index", "flat-triangles",
        "four-vertex-triangle", "nan-coordinate", "inf-coordinate",
        "three-coordinates"])
def test_invalid_mesh_arrays_are_rejected(vertices, triangles, fragment):
    with pytest.raises(MeshError, match=fragment):
        Mesh(vertices, triangles, SQUARE_PAIRS, SQUARE_TAGS)


@pytest.mark.parametrize("triangles, pairs, fragment", [
    ([(0, 1.7, 3), (0, 3, 2)], SQUARE_PAIRS,
     "triangles must be integer vertex indices"),
    (SQUARE_TRIS, SQUARE_PAIRS[:2] + [(2, 3.5), (0, 2)],
     "boundary pairs must be integer vertex indices"),
], ids=["triangle", "boundary-pair"])
def test_non_integral_indices_are_rejected(triangles, pairs, fragment):
    # truncated, (0, 1.7, 3) would be the valid triangle (0, 1, 3)
    with pytest.raises(MeshError, match=fragment):
        Mesh(SQUARE, triangles, pairs, SQUARE_TAGS)
    mesh = Mesh(SQUARE, np.asarray(SQUARE_TRIS, dtype=float),
                np.asarray(SQUARE_PAIRS, dtype=float), SQUARE_TAGS)
    assert mesh.triangles.dtype.kind == "i"


def test_tags_given_as_one_string_are_rejected():
    with pytest.raises(MeshError, match="tags must be a sequence, not 'DSFD'"):
        Mesh(SQUARE, SQUARE_TRIS, SQUARE_PAIRS, "".join(SQUARE_TAGS))


def test_boundary_edge_listed_twice_names_the_second_line():
    text = mesh_text(SQUARE, SQUARE_TRIS, SQUARE_SIDES + [(1, 0, "F")])
    with pytest.raises(MeshError, match="line 15: boundary edge \\(0, 1\\) "
                                        "already listed on line 11"):
        load_mesh(text)


def assert_matches_reference(mesh, boundary_pairs, boundary_tags):
    """Every array of the mesh's edge table equals the dict-based one."""
    ref = reference_edge_table(mesh.vertices, mesh.triangles, boundary_pairs,
                               boundary_tags)
    inner, outer = mesh.interior, mesh.boundary
    got = {"interior_pairs": inner.pairs, "left": inner.left,
           "right": inner.right, "interior_h": inner.h,
           "boundary_pairs": outer.pairs, "triangle": outer.triangle,
           "local": outer.local, "tag": outer.tag, "boundary_h": outer.h}
    for name, want in ref.items():
        assert np.array_equal(got[name], want), name


RECTS = {
    "1x1": (1, None),
    "3x3-graded": (3, {"ratio": 0.4, "toward": "top"}),
    "12x12": (12, None),
}


@pytest.mark.parametrize("name", sorted(RECTS))
def test_edge_table_matches_dict_discovery(name):
    n, grading = RECTS[name]
    mesh = generate_rect_mesh((0.0, 1.0, -0.5, 1.5), n, n,
                              tags=("D", "S", "F", "F"), grading=grading)
    assert_matches_reference(mesh, mesh.boundary.pairs, mesh.boundary.tag)
    # two levels of refinement: the same vertices, triangles and tagged
    # edges as the midpoint dict, and again the same table
    for _ in range(2):
        vertices, triangles, pairs, tags = reference_refine(mesh)
        mesh = refine_uniform(mesh)
        assert np.array_equal(mesh.vertices, vertices)
        assert np.array_equal(mesh.triangles, triangles)
        assert_matches_reference(mesh, pairs, tags)


def test_edge_table_of_a_renumbered_file_matches_dict_discovery():
    rng = np.random.default_rng(7)
    base = generate_rect_mesh((0.0, 2.0, 0.0, 1.0), 6, 4,
                              tags=("F", "D", "S", "F"))
    new_id = rng.permutation(base.n_vertices)
    vertices = np.empty_like(base.vertices)
    vertices[new_id] = base.vertices
    triangles = new_id[base.triangles[rng.permutation(base.n_triangles)]]
    pairs = new_id[base.boundary.pairs][rng.permutation(len(base.boundary.pairs))]
    tags = dict(zip(map(tuple, new_id[base.boundary.pairs]), base.boundary.tag))
    boundary = [(i, j, tags[(i, j)]) for i, j in pairs]
    mesh = load_mesh(mesh_text(vertices, triangles, boundary))
    assert_matches_reference(mesh, [(i, j) for i, j, _ in boundary],
                             [t for _, _, t in boundary])


NUMPY_2_ONLY = ("vecdot", "matvec", "vecmat", "concat", "astype",
                "permute_dims", "unique_inverse", "unique_counts",
                "cumulative_sum")


def hide_numpy_2_only_functions(monkeypatch):
    # pyproject.toml accepts numpy >= 1.24, which lacks these functions
    for name in NUMPY_2_ONLY:
        monkeypatch.delattr(np, name, raising=False)
    for name in ("vecdot", "vector_norm", "matrix_norm"):
        monkeypatch.delattr(np.linalg, name, raising=False)


def test_mesh_is_built_without_numpy_2_only_functions(monkeypatch):
    hide_numpy_2_only_functions(monkeypatch)
    mesh = refine_uniform(generate_rect_mesh(
        (0.0, 1.0, 0.0, 1.0), 3, 3, tags=("D", "S", "F", "F")))
    assert_matches_reference(mesh, mesh.boundary.pairs, mesh.boundary.tag)


def test_problem_is_solved_without_numpy_2_only_functions(monkeypatch):
    hide_numpy_2_only_functions(monkeypatch)
    problem = ShellProblem(
        make_chart("cylinder"), generate_rect_mesh(
            (0.0, 1.0, 0.0, 1.0), 3, 3, tags=("D", "S", "F", "F")),
        loads=LoadSpec(p3=lambda p: np.ones(len(p))), penalty_C=100.0)
    asm = problem.assembler()
    forms = asm.forms()
    A = asm.a_theta(problem.epsilon ** -2)
    assert A.nnz == forms["R"].nnz and forms["B"].nnz and forms["C"].nnz
    assert problem.norm_engine().grams().nnz
    sol = problem.solve("mixed")
    assert np.isfinite(sol.primal).all() and np.abs(sol.primal).max() > 0
