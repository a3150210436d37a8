"""The mesh nested-dissection order of the unknowns (ordering.py)."""

import numpy as np
import pytest

from shellfem.assembly import AssemblyConfig, FormAssembler, Material
from shellfem.fe_space import build_dof_layout
from shellfem.geometry import make_chart
from shellfem.mesh import Mesh, generate_rect_mesh
from shellfem.solve import (_factor_refine, _saddle_point, ordered,
                            realize_via_theta)

from oracles import reference_solve

CASES = {
    "cylinder-12x12": ("cylinder", (0.0, 1.0, 0.0, 1.0), 12,
                       ("D", "F", "F", "F"), None),
    "graded-8x8": ("cylinder", (0.0, 1.0, 0.0, 1.0), 8, ("D", "F", "F", "F"),
                   {"ratio": 0.3, "toward": "left"}),
    "sphere-cap-6x6": ("sphere", (np.pi / 4, np.pi / 2, 0.0, np.pi / 4), 6,
                       ("D", "F", "D", "F"), None),
}
EPS = 1e-2
# the largest relative distance, after refinement, between the multifrontal
# solution and the reference LU's on these meshes and the 16x16 cylinder:
# 5.3e-11 for the penalized systems (condition near 1e8), 4.5e-13 for the
# mixed and probe systems; twice that is allowed
AGREE = {"mixed": 1e-12, "dg": 1e-10, "probe": 1e-12}


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
    A(1) over the primal DOFs (`SYSTEMS`)."""
    lay = asm.layout
    primal = asm.a_theta(1.0)
    return [(_saddle_point(primal, asm.b_matrix(), asm.c_matrix(), EPS),
             asm.factor_tree().order),
            (asm.a_theta(EPS ** -2)[:lay.n_block1, :lay.n_block1],
             asm.factor_tree(lay.n_block1).order),
            (primal, asm.factor_tree(lay.n_primal).order)]


SYSTEMS = ("mixed", "dg", "probe")


@pytest.mark.parametrize("name", sorted(CASES))
def test_order_and_its_restrictions_are_permutations(name):
    asm = assembler(*case_mesh(name))
    lay = asm.layout
    assert lay.n_block2 > 0
    for n in (lay.n_total, lay.n_primal, lay.n_block1):
        tree = asm.factor_tree(n)
        assert np.array_equal(np.sort(tree.order), np.arange(n))
        # fronts tile the order; each one's rows follow it, ascending, and
        # the first lies in its parent, which comes later
        ends = tree.ends
        assert ends[0] == 0 and ends[-1] == n and np.all(np.diff(ends) > 0)
        assert np.all((0 <= tree.split) & (tree.split <= np.diff(ends)))
        for f, (rows, p) in enumerate(zip(tree.rows, tree.parent)):
            assert np.all(np.diff(rows) > 0) and np.all(rows >= ends[f + 1])
            assert (p == -1) == (len(rows) == 0)
            assert p == -1 or (p > f and ends[p] <= rows[0] < ends[p + 1])
    assert np.array_equal(asm.factor_tree().order, asm.factor_tree(lay.n_total).order)


@pytest.mark.parametrize("name", sorted(CASES))
def test_renumbered_mesh_gives_the_same_ordered_systems(name):
    chart, mesh = case_mesh(name)
    asm = assembler(chart, mesh)
    other = assembler(chart, renumbered(mesh, np.random.default_rng(5)))
    for (K, o), (L, p) in zip(systems(asm), systems(other)):
        Ko, Lp = ordered(K, o), ordered(L, p)
        Ko.sort_indices()
        Lp.sort_indices()
        assert np.array_equal(Ko.indptr, Lp.indptr)
        assert np.array_equal(Ko.indices, Lp.indices)
        scale = np.abs(Ko.data).max()
        assert np.abs(Ko.data - Lp.data).max() <= 1e-14 * scale
    for mode in ("mixed", "dg"):
        fills = [realize_via_theta(a, mode, EPS).meta["lu_fill"]
                 for a in (asm, other)]
        assert fills[0] == fills[1]


@pytest.mark.parametrize("name", sorted(CASES) + ["cylinder-16x16"])
def test_multifrontal_solves_agree_with_the_reference_lu(name):
    """Free-boundary problems beyond 3x3: on each mesh the mixed, penalized
    and probe systems, solved on their assembly trees with refinement,
    reach a backward error of at most u and agree with the reference LU
    (SuperLU in the same order, refined twice)."""
    if name == "cylinder-16x16":
        chart, mesh = make_chart("cylinder"), generate_rect_mesh(
            (0.0, 1.0, 0.0, 1.0), 16, 16, tags=("D", "F", "F", "F"))
    else:
        chart, mesh = case_mesh(name)
    asm = assembler(chart, mesh)
    u = np.finfo(float).eps
    for what, (K, order) in zip(SYSTEMS, systems(asm)):
        n = len(order)
        b = np.random.default_rng(0).standard_normal(n)
        sol = _factor_refine(K.copy(), b, n, asm.factor_tree(n), {})
        ref = np.empty(n)
        ref[order] = reference_solve(ordered(K, order), b[order])[0]
        assert sol.meta["backward_error"] <= u, what
        assert (np.abs(sol.primal - ref).max()
                <= AGREE[what] * np.abs(ref).max()), what


def test_multifrontal_factor_stores_less_than_the_reference_lu():
    """On the 12x12 D,F,F,F cylinder's mixed system the factor stores fewer
    entries than the reference LU in the same order (1.25 M against
    1.54 M)."""
    asm = assembler(*case_mesh("cylinder-12x12"))
    K, order = systems(asm)[0]
    fill = realize_via_theta(asm, "mixed", EPS).meta["lu_fill"]
    assert fill < reference_solve(ordered(K, order), np.ones(len(order)),
                                  steps=0)[1].nnz
