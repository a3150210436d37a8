"""The mesh nested-dissection order of the unknowns (ordering.py)."""

import numpy as np
import pytest

from shellfem.assembly import AssemblyConfig, FormAssembler, Material
from shellfem.fe_space import build_dof_layout
from shellfem.geometry import make_chart
from shellfem.mesh import Mesh, generate_rect_mesh
from shellfem.solve import _saddle_point, ordered, realize_via_theta

CASES = {
    "cylinder-12x12": ("cylinder", (0.0, 1.0, 0.0, 1.0), 12,
                       ("D", "F", "F", "F"), None),
    "graded-8x8": ("cylinder", (0.0, 1.0, 0.0, 1.0), 8, ("D", "F", "F", "F"),
                   {"ratio": 0.3, "toward": "left"}),
    "sphere-cap-6x6": ("sphere", (np.pi / 4, np.pi / 2, 0.0, np.pi / 4), 6,
                       ("D", "F", "D", "F"), None),
}
EPS = 1e-2


def case_mesh(name):
    kind, rect, n, tags, grading = CASES[name]
    return make_chart(kind), generate_rect_mesh(rect, n, n, tags=tags,
                                                grading=grading)


def assembler(chart, mesh):
    layout = build_dof_layout(mesh, chart)
    return FormAssembler(mesh, chart, layout, Material(),
                         AssemblyConfig(penalty_C=20.0))


def renumbered(mesh, rng):
    """The mesh with its vertex and triangle numbering permuted, each
    triangle keeping its local vertex order (as the bench's seeded meshes)."""
    new_id = rng.permutation(mesh.n_vertices)
    verts = np.empty_like(mesh.vertices)
    verts[new_id] = mesh.vertices
    tris = new_id[mesh.triangles[rng.permutation(mesh.n_triangles)]]
    return Mesh(verts, tris, new_id[mesh.boundary.pairs], mesh.boundary.tag)


def systems(asm):
    """The three systems the package factors, with their orders: the mixed
    saddle point, the penalized leading block and the calibration probe
    A(1) over the primal DOFs."""
    lay = asm.layout
    primal = asm.a_theta(1.0)
    return [(_saddle_point(primal, asm.b_matrix(), asm.c_matrix(), EPS),
             asm.dof_order()),
            (asm.a_theta(EPS ** -2)[:lay.n_block1, :lay.n_block1],
             asm.dof_order(lay.n_block1)),
            (primal, asm.dof_order(lay.n_primal))]


@pytest.mark.parametrize("name", sorted(CASES))
def test_order_and_its_restrictions_are_permutations(name):
    asm = assembler(*case_mesh(name))
    lay = asm.layout
    assert lay.n_block2 > 0
    for n in (lay.n_total, lay.n_primal, lay.n_block1):
        assert np.array_equal(np.sort(asm.dof_order(n)), np.arange(n))
    assert np.array_equal(asm.dof_order(), asm.dof_order(lay.n_total))


@pytest.mark.parametrize("name", sorted(CASES))
def test_renumbered_mesh_gives_the_same_ordered_systems(name):
    chart, mesh = case_mesh(name)
    asm = assembler(chart, mesh)
    other = assembler(chart, renumbered(mesh, np.random.default_rng(5)))
    for (K, o), (L, p) in zip(systems(asm), systems(other)):
        Ko, Lp = ordered(K, o), ordered(L, p)
        assert np.array_equal(Ko.indptr, Lp.indptr)
        assert np.array_equal(Ko.indices, Lp.indices)
        scale = np.abs(Ko.data).max()
        assert np.abs(Ko.data - Lp.data).max() <= 1e-14 * scale
    for mode in ("mixed", "dg"):
        fills = [realize_via_theta(a, mode, EPS).meta["lu_fill"]
                 for a in (asm, other)]
        assert fills[0] == fills[1]
