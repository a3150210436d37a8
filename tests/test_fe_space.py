import numpy as np
import pytest

from shellfem.fe_space import (FIELDS, SpaceError, build_dof_layout,
                               build_local_basis, eval_monos, project_primal)
from shellfem.geometry import make_chart
from shellfem.mesh import generate_rect_mesh, refine_uniform


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
            lb = build_local_basis(tri, chart, free_edges=fe)
            vals = eval_monos(lb.vol_lam) @ lb.coeffs.T
            gram = np.einsum("q,qi,qj->ij", lb.vol_w, vals[:, :3], vals[:, 3:])
            assert np.abs(gram).max() < 1e-10, (kind, fe)


def test_one_edge_enrichment_traces():
    chart = make_chart("cylinder")
    rng = np.random.default_rng(3)
    for _ in range(10):
        tri = random_ccw_triangle(rng)
        for k in range(3):
            lb = build_local_basis(tri, chart, free_edges=(k,))
            (_, _, te, lam12) = lb.edge_data[0]
            ev = eval_monos(lam12) @ lb.coeffs.T
            # first extra restricts to the constant 1 on the free edge
            assert np.abs(ev[:, 3] - 1.0).max() < 1e-12
            # second extra restricts to an affine function of arclength
            coef = np.polyfit(te, ev[:, 4], 1)
            assert np.abs(np.polyval(coef, te) - ev[:, 4]).max() < 1e-12
            assert abs(coef[0]) > 1e-3          # genuinely linear, not constant


def test_two_edge_enrichment_spans_quadratics_on_edges():
    chart = make_chart("plate")
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    lb = build_local_basis(tri, chart, free_edges=(0, 1))
    assert lb.kind == "Pv"
    assert lb.coeffs.shape[0] == 7


def test_three_free_edges_rejected():
    chart = make_chart("plate")
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(SpaceError):
        build_local_basis(tri, chart, free_edges=(0, 1, 2))


def test_unisolvence_of_moment_matrix():
    chart = make_chart("sphere")
    rng = np.random.default_rng(1)
    for _ in range(10):
        tri = random_ccw_triangle(rng, 0.4, 1.1)
        for fe in ((), (0,), (1, 2)):
            lb = build_local_basis(tri, chart, free_edges=fe)
            assert np.linalg.cond(lb.moment_matrix) < 1e10


def layout_for(tags, enrichment=True, nx=2, ny=2):
    chart = make_chart("plate")
    mesh = generate_rect_mesh((0, 1, 0, 1), nx, ny, tags=tags)
    return mesh, build_dof_layout(mesh, chart, enrichment=enrichment)


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
                 if mesh.free_local_edges(t))
    assert n_free == 2
    assert layout.n_block2 == 6 * n_free


def test_dof_counts_two_free_edges_per_element():
    # a 1x1 rect splits into two triangles; with three sides free one
    # triangle holds two free edges (4 extras x 3 fields = 12)
    mesh, layout = layout_for(("D", "F", "F", "F"), nx=1, ny=1)
    per_elem = [len(mesh.free_local_edges(t)) for t in range(2)]
    assert sorted(per_elem) == [1, 2]
    assert layout.n_block2 == 6 + 12


def test_dg_layout_has_no_aux_block():
    mesh, layout = layout_for(("D", "D", "D", "D"), enrichment=False)
    assert layout.n_block2 == 0
    assert layout.n_block3 == 0
    assert not layout.with_aux


def test_projection_reproduces_linears_exactly():
    chart = make_chart("cylinder")
    mesh = generate_rect_mesh((0, 1, 0, 1), 3, 3, tags=("D", "F", "F", "F"))
    layout = build_dof_layout(mesh, chart, enrichment=True)
    fields = {"theta1": lambda p: 1 + 2 * p[..., 0] - p[..., 1],
              "theta2": lambda p: p[..., 0],
              "u1": lambda p: 3 * p[..., 1],
              "u2": lambda p: p[..., 0] + p[..., 1],
              "w": lambda p: 2 - p[..., 0]}
    x = project_primal(fields, mesh, chart, layout)
    # check traces at interior points of every element
    from shellfem.assembly import AssemblyConfig, FormAssembler, Material
    asm = FormAssembler(mesh, chart, layout, Material(), AssemblyConfig())
    e = asm._elem_data()
    worst = 0.0
    for t in range(mesh.n_triangles):
        pts = e.qpts[t]
        c = np.moveaxis(asm._local(np.array([t]))[1][0][0], 0, 1)
        th, u, w = c[..., 0:2], c[..., 2:4], c[..., 4]
        xt = x[layout.element_dofs(t)]
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
        layout = build_dof_layout(mesh, chart, enrichment=False)
        x = project_primal(fields, mesh, chart, layout)
        asm = FormAssembler(mesh, chart, layout, Material(), AssemblyConfig())
        e = asm._elem_data()
        err2 = 0.0
        for t in range(mesh.n_triangles):
            w_q = e.areas[t] * e.wq
            wfield = asm._local(np.array([t]))[1][0][0, :, :, 4].T
            got = np.einsum("qk,k->q", wfield, x[layout.element_dofs(t)])
            want = fields["w"](e.qpts[t])
            err2 += w_q @ (got - want) ** 2
        errs.append(np.sqrt(err2))
        mesh = refine_uniform(mesh)
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert (orders > 1.8).all()
