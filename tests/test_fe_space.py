import numpy as np
import pytest

from shellfem.fe_space import (FIELDS, JOINS, SpaceError, _free_edge_groups,
                               build_dof_layout, eval_monos)
from shellfem.geometry import make_chart
from shellfem.mesh import TAGS, generate_rect_mesh, refine_uniform

from oracles import (_moment_rows, free_local_edges, layout_basis, local_fields,
                     reference_local_basis, reference_project_primal)


def random_ccw_triangle(rng, lo=0.1, hi=0.9, min_area=0.02):
    while True:
        t = rng.uniform(lo, hi, (3, 2))
        d1, d2 = t[1] - t[0], t[2] - t[0]
        a2 = d1[0] * d2[1] - d1[1] * d2[0]
        if abs(a2) < 2 * min_area:
            continue
        return t if a2 > 0 else t[[0, 2, 1]]


@pytest.mark.parametrize("kind", ["plate", "cylinder", "sphere"])
def test_enrichment_orthogonal_to_linears(kind):
    chart = make_chart(kind)
    rng = np.random.default_rng(17)
    lo, hi = (0.3, 1.2) if kind == "sphere" else (0.1, 0.9)
    for _ in range(25):
        tri = random_ccw_triangle(rng, lo, hi)
        for fe in ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2)):
            quad = reference_local_basis(tri, chart, free_edges=fe)
            vals = eval_monos(quad.vol_lam) @ layout_basis(tri, chart, fe).T
            gram = np.einsum("q,qi,qj->ij", quad.vol_w, vals[:, :3],
                             vals[:, 3:])
            assert np.abs(gram).max() < 1e-10, (kind, fe)


def test_one_edge_enrichment_traces():
    chart = make_chart("cylinder")
    rng = np.random.default_rng(3)
    for _ in range(10):
        tri = random_ccw_triangle(rng)
        for k in range(3):
            quad = reference_local_basis(tri, chart, free_edges=(k,))
            (_, _, te, lam12) = quad.edge_data[0]
            ev = eval_monos(lam12) @ layout_basis(tri, chart, (k,)).T
            # first extra restricts to the constant 1 on the free edge
            assert np.abs(ev[:, 3] - 1.0).max() < 1e-12
            # second extra restricts to an affine function of arclength
            coef = np.polyfit(te, ev[:, 4], 1)
            assert np.abs(np.polyval(coef, te) - ev[:, 4]).max() < 1e-12
            assert abs(coef[0]) > 1e-3          # genuinely linear, not constant


def test_two_edge_enrichment_spans_quadratics_on_edges():
    chart = make_chart("plate")
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert reference_local_basis(tri, chart, free_edges=(0, 1)).kind == "Pv"
    assert layout_basis(tri, chart, (0, 1)).shape[0] == 7


def test_three_free_edges_rejected():
    chart = make_chart("plate")
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(SpaceError):
        layout_basis(tri, chart, (0, 1, 2))


def test_unisolvence_of_moment_matrix():
    chart = make_chart("sphere")
    rng = np.random.default_rng(1)
    for _ in range(10):
        tri = random_ccw_triangle(rng, 0.4, 1.1)
        for fe in ((), (0,), (1, 2)):
            quad = reference_local_basis(tri, chart, free_edges=fe)
            moments = _moment_rows(layout_basis(tri, chart, fe),
                                   quad.vol_lam, quad.vol_w, quad.edge_data)
            assert np.linalg.cond(moments) < 1e10


def layout_for(tags, nx=2, ny=2):
    chart = make_chart("plate")
    mesh = generate_rect_mesh((0, 1, 0, 1), nx, ny, tags=tags)
    return mesh, build_dof_layout(mesh, chart)


def test_joins_table_has_a_row_per_tag_and_for_the_interior():
    assert set(JOINS) == set(TAGS) | {""}
    assert all(len(row) == len(FIELDS) for row in JOINS.values())


def test_free_edge_groups_hold_exactly_the_F_edges():
    """The free edges of the groups, those that join no field, are the
    boundary edges tagged F, and every element is in one group."""
    mesh = generate_rect_mesh((0, 1, 0, 1), 4, 3, tags=("S", "F", "D", "F"))
    groups = list(_free_edge_groups(mesh))
    got = {(t, k) for edges, ts in groups for t in ts for k in edges}
    bd = mesh.boundary
    want = {(t, k) for t, k, tag in zip(bd.triangle, bd.local, bd.tag)
            if tag == "F"}
    assert got == want and len(want) == 7
    assert sorted(t for _, ts in groups for t in ts) == list(
        range(mesh.n_triangles))


def test_dof_counts_no_free_boundary():
    mesh, layout = layout_for(("D", "D", "D", "D"))
    assert layout.n_block1 == 15 * mesh.n_triangles
    assert layout.n_block2 == 0
    assert layout.n_block3 == 5 * mesh.n_vertices
    assert layout.n_primal == layout.n_block1
    assert layout.n_total == layout.n_primal + layout.n_block3


def test_dof_counts_with_free_edges():
    mesh, layout = layout_for(("D", "F", "D", "D"), nx=1, ny=2)
    # two triangles each own one free edge: 2 extras x 3 fields = 6 apiece
    n_free = sum(1 for t in range(mesh.n_triangles)
                 if free_local_edges(mesh, t))
    assert n_free == 2
    assert layout.n_block2 == 6 * n_free


def test_dof_counts_two_free_edges_per_element():
    # a 1x1 rect splits into two triangles; with three sides free one
    # triangle holds two free edges (4 extras x 3 fields = 12)
    mesh, layout = layout_for(("D", "F", "F", "F"), nx=1, ny=1)
    per_elem = [len(free_local_edges(mesh, t)) for t in range(2)]
    assert sorted(per_elem) == [1, 2]
    assert layout.n_block2 == 6 + 12


def test_projection_reproduces_linears_exactly():
    chart = make_chart("cylinder")
    mesh = generate_rect_mesh((0, 1, 0, 1), 3, 3, tags=("D", "F", "F", "F"))
    layout = build_dof_layout(mesh, chart)
    fields = {"theta1": lambda p: 1 + 2 * p[..., 0] - p[..., 1],
              "theta2": lambda p: p[..., 0],
              "u1": lambda p: 3 * p[..., 1],
              "u2": lambda p: p[..., 0] + p[..., 1],
              "w": lambda p: 2 - p[..., 0]}
    x = reference_project_primal(fields, mesh, chart, layout)
    # check traces at interior points of every element
    from shellfem.assembly import AssemblyConfig, FormAssembler, Material
    asm = FormAssembler(mesh, chart, layout, Material(), AssemblyConfig())
    e = asm._elem_data()
    worst = 0.0
    for t in range(mesh.n_triangles):
        pts = e.qpts[t]
        th, _, u, _, w, _ = local_fields(asm, t)
        xt = x[layout.dofs[t, :6 + 3 * layout.nf[t]]]
        got = np.concatenate([
            np.einsum("qka,k->qa", th, xt),
            np.einsum("qka,k->qa", u, xt),
            np.einsum("qk,k->q", w, xt)[:, None]], axis=1)
        want = np.stack([fields[n](pts) for n in FIELDS], axis=1)
        worst = max(worst, np.abs(got - want).max())
    assert worst < 1e-12


def test_projection_error_decays_quadratically():
    chart = make_chart("plate")
    fields = {n: (lambda p: np.sin(np.pi * p[..., 0]) * p[..., 1])
              for n in FIELDS}
    errs = []
    mesh = generate_rect_mesh((0, 1, 0, 1), 2, 2)
    from shellfem.assembly import AssemblyConfig, FormAssembler, Material
    for _ in range(3):
        layout = build_dof_layout(mesh, chart)
        x = reference_project_primal(fields, mesh, chart, layout)
        asm = FormAssembler(mesh, chart, layout, Material(), AssemblyConfig())
        e = asm._elem_data()
        err2 = 0.0
        for t in range(mesh.n_triangles):
            w_q = e.areas[t] * e.wq
            wfield = local_fields(asm, t)[4]
            got = np.einsum("qk,k->q", wfield,
                            x[layout.dofs[t, :6 + 3 * layout.nf[t]]])
            want = fields["w"](e.qpts[t])
            err2 += w_q @ (got - want) ** 2
        errs.append(np.sqrt(err2))
        mesh = refine_uniform(mesh)
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert (orders > 1.8).all()
