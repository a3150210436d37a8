import tracemalloc
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sps

from shellfem import assembly, norms, solve
from shellfem.assembly import (AssemblyConfig, CalibrationError,
                               FormAssembler, LoadSpec, Material,
                               calibrate_penalty)
from shellfem.fe_space import build_dof_layout
from shellfem.geometry import eval_elastic, make_chart
from shellfem.mesh import Mesh, generate_rect_mesh
from shellfem.norms import NormEngine
from shellfem.solve import SolverError

from oracles import (BincountSums, edge_tags, green_identity_check,
                     one_front, penalized_forms, reference_apply,
                     reference_edge_forms, reference_edge_values)


def make_assembler(chart_kind="cylinder", nx=2, ny=2,
                   tags=("D", "D", "D", "D"), penalty_C=10.0, rect=None,
                   **chart_kw):
    chart = make_chart(chart_kind, **chart_kw)
    if rect is None:
        rect = (0.6, 1.4, 0.0, 0.8) if chart_kind == "sphere" \
            else (0.0, 1.0, 0.0, 1.0)
    mesh = generate_rect_mesh(rect, nx, ny, tags=tags)
    layout = build_dof_layout(mesh, chart)
    config = AssemblyConfig(penalty_C=penalty_C)
    return FormAssembler(mesh, chart, layout, Material(), config)


def sym_err(M):
    M = M.toarray()
    return np.abs(M - M.T).max() / max(np.abs(M).max(), 1e-300)


def min_eig(M):
    return np.linalg.eigvalsh(M.toarray()).min()


@pytest.mark.parametrize("kind", ["plate", "sphere"])
def test_forms_symmetric(kind):
    asm = make_assembler(kind)
    f = asm.forms()
    for key in ("R", "R_pen", "GT", "GT_pen", "C"):
        assert sym_err(f[key]) < 1e-12, key


def test_penalty_blocks_positive_semidefinite():
    asm = make_assembler("cylinder")
    f = asm.forms()
    for key in ("R_pen", "GT_pen"):
        lo = min_eig(f[key])
        scale = np.abs(f[key].toarray()).max()
        assert lo > -1e-12 * scale, key


def test_gamma_tau_blocks_positive_semidefinite():
    asm = make_assembler("cylinder")
    for M in penalized_forms(asm)[1:]:
        scale = np.abs(M.toarray()).max()
        assert min_eig(M) > -1e-10 * scale


def test_system_positive_definite_with_clamped_boundary():
    asm = make_assembler("cylinder", penalty_C=20.0)
    K = asm.a_theta(1.0).toarray()
    assert np.linalg.eigvalsh(K).min() > 0


def test_green_identity_flat_and_curved():
    tri = [(0.1, 0.2), (0.9, 0.3), (0.4, 0.8)]
    flat = green_identity_check(tri, make_chart("plate"),
                                ("x1^2 * x2", "sin(x1) + x2^3"))
    assert flat < 1e-12
    cyl = green_identity_check(tri, make_chart("cylinder", radius=2.0),
                               ("cos(x2) * x1", "x1 * x2"))
    assert cyl < 1e-10
    sph_tri = [(0.6, 0.2), (1.2, 0.3), (0.8, 0.9)]
    sph = green_identity_check(sph_tri, make_chart("sphere"),
                               ("sin(x1) * cos(x2)", "x1 + x2^2"))
    assert sph < 1e-7


def test_flux_provider_matches_density_loads_on_plate():
    # on a flat chart with constant stresses, the flux contraction with the
    # outward normal equals constant arc-length densities on each side
    class Fluxes:
        def volume_loads(self, pts, geom):
            return dict.fromkeys(("c1", "c2", "p1", "p2", "p3"),
                                 np.zeros(len(pts)))

        def boundary_fluxes(self, pts, geom):
            n = len(pts)
            m = np.tile(np.array([[0.3, 0.1], [0.1, -0.2]]), (n, 1, 1))
            nm = np.tile(np.array([[1.0, 0.4], [0.4, 0.7]]), (n, 1, 1))
            t = np.tile(np.array([0.5, -0.6]), (n, 1))
            return m, nm, t

    asm = make_assembler("plate", tags=("F", "F", "F", "F"))
    f1 = asm.load_vector(LoadSpec(provider=Fluxes()))

    m = np.array([[0.3, 0.1], [0.1, -0.2]])
    nm = np.array([[1.0, 0.4], [0.4, 0.7]])
    t = np.array([0.5, -0.6])
    # express the same tractions as side-wise constant arc-length densities
    xl, xh, yl, yh = 0.0, 1.0, 0.0, 1.0

    def density(vals_by_side, comp):
        # vals_by_side[i] = vector for side i (bottom, right, top, left)
        def f(pts):
            out = np.zeros(len(pts))
            eps = 1e-12
            out[np.abs(pts[:, 1] - yl) < eps] = vals_by_side[0][comp]
            out[np.abs(pts[:, 0] - xh) < eps] = vals_by_side[1][comp]
            out[np.abs(pts[:, 1] - yh) < eps] = vals_by_side[2][comp]
            out[np.abs(pts[:, 0] - xl) < eps] = vals_by_side[3][comp]
            return out
        return f

    normals = [np.array([0.0, -1.0]), np.array([1.0, 0.0]),
               np.array([0.0, 1.0]), np.array([-1.0, 0.0])]
    rs = [m @ n for n in normals]
    qs = [nm @ n for n in normals]
    q3s = [np.array([t @ n]) for n in normals]
    f2 = asm.load_vector(LoadSpec(
        r1=density(rs, 0), r2=density(rs, 1),
        q1=density(qs, 0), q2=density(qs, 1), q3=density(q3s, 0)))
    assert np.allclose(f1, f2, atol=1e-12 * max(1.0, np.abs(f1).max()))


def test_load_vector_linear():
    asm = make_assembler("cylinder", tags=("D", "F", "F", "S"))

    def fa(pts):
        return np.sin(pts[:, 0]) + pts[:, 1]

    def fb(pts):
        return pts[:, 0] * pts[:, 1]

    la = LoadSpec(p3=fa, c1=fa, q1=fa, r2=fa)
    lb = LoadSpec(p3=fb, c1=fb, q1=fb, r2=fb)
    lc = LoadSpec(p3=lambda p: 2 * fa(p) - 3 * fb(p),
                  c1=lambda p: 2 * fa(p) - 3 * fb(p),
                  q1=lambda p: 2 * fa(p) - 3 * fb(p),
                  r2=lambda p: 2 * fa(p) - 3 * fb(p))
    va, vb, vc = (asm.load_vector(s) for s in (la, lb, lc))
    assert np.allclose(vc, 2 * va - 3 * vb, atol=1e-13)


def test_calibrate_penalty_gives_positive_definite_system():
    chart = make_chart("sphere")
    mesh = generate_rect_mesh((0.6, 1.4, 0.0, 0.8), 2, 2)
    layout = build_dof_layout(mesh, chart)
    C = calibrate_penalty(FormAssembler(mesh, chart, layout, Material(),
                                        AssemblyConfig()))
    assert C > 0
    asm = FormAssembler(mesh, chart, layout, Material(),
                        AssemblyConfig(penalty_C=C))
    assert np.linalg.eigvalsh(asm.a_theta(1.0).toarray()).min() > 0
    # without a constant, the first use calibrates
    lazy = FormAssembler(mesh, chart, layout, Material(), AssemblyConfig())
    assert np.array_equal(lazy.a_theta(1.0).toarray(),
                          asm.a_theta(1.0).toarray())
    assert lazy.config.penalty_C == C


def test_primal_forms_share_the_union_of_their_blocks():
    asm = make_assembler("cylinder", nx=3, ny=3, tags=("D", "F", "S", "F"))
    lay, mesh = asm.layout, asm.mesh
    n = lay.n_primal

    def block(*tris):
        dofs = lay.dofs[list(tris)].ravel()
        dofs = dofs[dofs >= 0]
        return (dofs[:, None] * n + dofs).ravel()
    want = np.unique(np.concatenate(
        [block(t) for t in range(mesh.n_triangles)]
        + [block(l, r) for l, r in zip(mesh.interior.left,
                                       mesh.interior.right)]))
    forms = asm.forms()
    R = forms["R"]
    rows = np.repeat(np.arange(n), np.diff(R.indptr))
    assert np.array_equal(rows * n + R.indices, want)
    Rp, GTp = asm._penalized("R"), asm._penalized("GT")
    # an entry of A(theta) that cancels exactly at a positive theta
    theta = next(t for t in -Rp / np.where(GTp == 0, np.inf, GTp)
                 if t > 0 and np.any((Rp + t * GTp == 0) & (Rp != 0)))
    A = asm.a_theta(theta)
    assert np.any((A.data == 0) & (Rp != 0))
    assert set(forms) == {"R", "R_pen", "GT", "GT_pen", "B", "C"}
    for M in [A] + [forms[k] for k in ("R", "R_pen", "GT", "GT_pen")]:
        assert M.nnz == len(want)
        assert np.shares_memory(M.indices, R.indices)
        assert np.shares_memory(M.indptr, R.indptr)


def test_b_and_c_shapes():
    asm = make_assembler("cylinder")
    B = asm.b_matrix()
    C = asm.c_matrix()
    n3 = asm.layout.n_block3
    assert B.shape == (n3, asm.layout.n_primal)
    assert C.shape == (n3, n3)
    assert min_eig(C) > 0  # weighted mass matrix of the stress block


# The sphere patch above, the free-edge cylinder of the README example, and
# a hypar whose calibration doubles the initial constant once.
PROBE_CASES = {
    "sphere-2x2": ("sphere", (0.6, 1.4, 0.0, 0.8), 2, ("D", "D", "D", "D")),
    "cylinder-8x8": ("cylinder", (0.0, 1.0, 0.0, 1.0), 8,
                     ("D", "F", "F", "F")),
    "hypar-4x4": ("hypar", (0.0, 1.0, 0.0, 1.0), 4, ("D", "F", "D", "F")),
}


def probe_case(name):
    kind, rect, n, tags = PROBE_CASES[name]
    chart = make_chart(kind)
    mesh = generate_rect_mesh(rect, n, n, tags=tags)
    layout = build_dof_layout(mesh, chart)
    return mesh, chart, layout


def dense_pd(K):
    """The dense positive-definiteness probe on the shifted matrix."""
    K = K.toarray()
    try:
        np.linalg.cholesky(K + 1e-12 * np.trace(K) / len(K) * np.eye(len(K)))
        return True
    except np.linalg.LinAlgError:
        return False


def dense_calibration(mesh, chart, layout, max_doublings=10):
    """Reference calibration: a fresh assembler per constant, dense probe."""
    e = chart.evaluate(mesh.vertices)
    bsup = float(np.abs(e.b_cov).max() + np.abs(e.b_mix).max()) / 2.0
    gsup = float(np.abs(e.christoffel).max())
    C = 10.0 * Material().mu * (1.0 + bsup ** 2 + gsup ** 2)
    for _ in range(max_doublings + 1):
        asm = FormAssembler(mesh, chart, layout, Material(),
                            AssemblyConfig(penalty_C=C))
        if dense_pd(asm.a_theta(1.0)):
            return C
        C *= 2.0
    raise AssertionError("reference calibration failed")


@pytest.mark.parametrize("case", sorted(PROBE_CASES))
def test_sparse_inertia_probe_agrees_with_dense(case):
    mesh, chart, layout = probe_case(case)
    asm = FormAssembler(mesh, chart, layout, Material(), AssemblyConfig())
    C = calibrate_penalty(asm)
    assert asm.config.penalty_C == C
    verdicts = []
    tree = asm.factor_tree(layout.n_primal)
    for c in (C / 2, C, 0.05):
        asm.config = AssemblyConfig(penalty_C=c)
        K = asm.a_theta(1.0)
        assert solve.positive_definite(K, tree) == dense_pd(K)
        verdicts.append(solve.positive_definite(K, tree))
    assert verdicts == [False, True, False]


@pytest.mark.parametrize("K, pd", [
    ([[2.0, -1.0], [-1.0, 2.0]], True),
    ([[1.0, 0.0], [0.0, -1.0]], False),       # negative diagonal pivot
    ([[0.0, 1.0], [1.0, 0.0]], False),        # zero pivot: off the diagonal
    ([[0.0, 0.0], [0.0, 0.0]], False),        # exactly singular
    # the probe shifts the diagonal by 1e-12 tr(K)/n, here about 5e-13
    ([[1.0, 0.0], [0.0, -2.5e-13]], True),    # lifted above 0 by the shift
    ([[1.0, 0.0], [0.0, -1e-12]], False),     # still below 0 after it
])
def test_inertia_probe_small_matrices(K, pd):
    assert solve.positive_definite(sps.csr_matrix(K),
                                   one_front(np.arange(2))) is pd


@pytest.mark.parametrize("case", sorted(PROBE_CASES))
def test_calibrated_penalty_equals_dense_path(case):
    mesh, chart, layout = probe_case(case)
    C = calibrate_penalty(FormAssembler(mesh, chart, layout, Material(),
                                        AssemblyConfig()))
    assert C == dense_calibration(mesh, chart, layout)
    if case == "hypar-4x4":
        assert C == 45.0                   # 22.5, doubled once


def test_calibration_error_when_doublings_run_out():
    mesh, chart, layout = probe_case("hypar-4x4")
    asm = FormAssembler(mesh, chart, layout, Material(), AssemblyConfig())
    with pytest.raises(CalibrationError):
        calibrate_penalty(asm, max_doublings=0)
    assert issubclass(CalibrationError, SolverError)
    # the rejected constant is not kept: the next use calibrates again
    assert asm.config.penalty_C is None


def one_triangle_assembler():
    """One cylinder triangle with three S edges: no edge has a rotation
    penalty, so R_pen has no piece at all."""
    chart = make_chart("cylinder")
    mesh = Mesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 2]],
                [[1, 2], [2, 0], [0, 1]], ["S", "S", "S"])
    return FormAssembler(mesh, chart, build_dof_layout(mesh, chart),
                         Material(), AssemblyConfig(penalty_C=20.0))


def renumbered_assembler(seed):
    """The 8x8 cylinder D,F,S,F with its vertex and triangle numbering
    permuted by `seed`, each triangle keeping its local vertex order (as
    the bench's seeded meshes), so no owner's rows or columns come in mesh
    order."""
    chart = make_chart("cylinder")
    base = generate_rect_mesh((0.0, 1.0, 0.0, 1.0), 8, 8,
                              tags=("D", "F", "S", "F"))
    rng = np.random.default_rng(seed)
    new_id = rng.permutation(base.n_vertices)
    verts = np.empty_like(base.vertices)
    verts[new_id] = base.vertices
    tris = new_id[base.triangles[rng.permutation(base.n_triangles)]]
    mesh = Mesh(verts, tris, new_id[base.boundary.pairs], base.boundary.tag)
    return FormAssembler(mesh, chart, build_dof_layout(mesh, chart),
                         Material(), AssemblyConfig(penalty_C=20.0))


STREAM_CASES = {
    "cylinder-12x12": lambda: make_assembler("cylinder", 12, 12,
                                             ("D", "F", "S", "F")),
    "hypar-6x6": lambda: make_assembler("hypar", 6, 6, ("D", "F", "D", "F")),
    "triangle-SSS": one_triangle_assembler,
    # corners with two free edges: elements of 15, 21 and 27 DOFs
    "hypar-5x5-enriched": lambda: make_assembler("hypar", 5, 5,
                                                 ("F", "F", "D", "F")),
    "cylinder-8x8-renumbered": lambda: renumbered_assembler(11),
    "sphere-6x6": lambda: make_assembler("sphere", 6, 6, ("S", "D", "F", "D")),
}


def forms_and_grams(asm):
    return {**asm.forms(), "Q": NormEngine(asm).grams()}


def assert_bitwise_equal(got, want):
    """The same sparse matrices: data, indices, indptr, dtypes, shapes."""
    assert sorted(got) == sorted(want)
    for key, M in want.items():
        assert got[key].shape == M.shape, key
        for attr in ("data", "indices", "indptr"):
            a, b = getattr(got[key], attr), getattr(M, attr)
            assert a.dtype == b.dtype and np.array_equal(a, b), (key, attr)


def slices_per_group(asm):
    """Rows and slices of each group of the grouped kernel: elements by
    local size, edges by side, tag and local sizes of their sides."""
    rows, slices = Counter(), Counter()
    e = asm._elem_data()
    for t in asm._slices(np.arange(asm.mesh.n_triangles), len(e.wq)):
        rows[e.nf[t[0]]] += len(t)
        slices[e.nf[t[0]]] += 1
    for i, d in enumerate(asm._edge_data()):
        for k, owners in asm._edge_slices(d):
            key = (i, edge_tags(asm, d)[k[0]]) + tuple(e.nf[t[0]]
                                                       for t in owners)
            rows[key] += len(k)
            slices[key] += 1
    return rows, slices


@pytest.mark.parametrize("case, budget", [
    ("cylinder-12x12", None), ("hypar-6x6", None), ("triangle-SSS", None),
    ("hypar-5x5-enriched", None), ("cylinder-8x8-renumbered", None),
    ("cylinder-12x12", 300)])
def test_streamed_forms_equal_the_bincount_sums(case, budget, monkeypatch):
    """All six forms and Q_H, their structure built from the owners of
    each block's rows and each slice's values scattered into it as they are
    made, equal bitwise the reference sums, which spell out every entry of
    every block, sort them all and add each matrix up in one bincount at
    the default slices: data, indices, indptr, their dtypes and the shapes.
    The small budget cuts every group of more than one row into several
    slices, C's elements with the others.  Q_H keeps the primal forms'
    structure, entries that cancel included."""
    with monkeypatch.context() as m:
        m.setattr(assembly, "_Sums", BincountSums)
        m.setattr(norms, "_Sums", BincountSums)
        want = forms_and_grams(STREAM_CASES[case]())
    if budget is not None:
        monkeypatch.setattr(assembly, "SLICE_BUDGET", budget)
    asm = STREAM_CASES[case]()
    got = forms_and_grams(asm)
    assert len(got) == 7
    assert_bitwise_equal(got, want)
    for attr in ("indices", "indptr"):
        assert np.array_equal(getattr(got["Q"], attr), getattr(got["R"], attr))
    if case == "triangle-SSS":
        assert not got["R_pen"].data.any() and got["R"].data.any()
    if case == "hypar-5x5-enriched":
        assert set(asm.layout.nf) == {3, 5, 7}
    if budget is not None:
        rows, slices = slices_per_group(asm)
        assert len(rows) == 10 and sum(slices.values()) > 400
        assert all(slices[k] >= 2 for k, n in rows.items() if n > 1)


@pytest.mark.parametrize("case, budget", [
    ("cylinder-12x12", None), ("hypar-5x5-enriched", None),
    ("sphere-6x6", None), ("cylinder-12x12", 300),
    ("hypar-5x5-enriched", 300), ("sphere-6x6", 300)])
def test_edge_kernel_equals_the_full_operator(case, budget, monkeypatch):
    """The forms and Q_H, whose edge jumps come straight from the basis
    values, whose fluxes alone go through the strain operator, whose P1
    local order is a view and whose penalties are summed on their fields'
    columns, equal bitwise those of the reference kernel, which pushes all
    18 rows of jumps and fluxes through the operator, copies every local
    order and sums each penalty on the whole edge block.  The cases cover
    edges of every tag, S on both sides and the 15-, 21- and 27-DOF
    elements; the small budget cuts the groups into many slices."""
    with monkeypatch.context() as m:
        m.setattr(assembly, "_apply", reference_apply)
        m.setattr(norms, "_apply", reference_apply)
        m.setattr(FormAssembler, "_edge_values", reference_edge_values)
        m.setattr(FormAssembler, "_edge_forms", reference_edge_forms)
        want = forms_and_grams(STREAM_CASES[case]())
    if budget is not None:
        monkeypatch.setattr(assembly, "SLICE_BUDGET", budget)
    asm = STREAM_CASES[case]()
    assert_bitwise_equal(forms_and_grams(asm), want)


def test_s_edges_have_no_rotation_jumps():
    """An S edge joins u1, u2 and w only: its jump rows 0-1 of the
    rotations and the theta part of its rows 5-6 are zero, where a D
    edge's are not, and both have the displacement jumps."""
    asm = make_assembler("sphere", 6, 6, ("S", "D", "F", "D"))
    d = asm._edge_data()[1]
    tag = asm.mesh.boundary.tag
    tags = set()
    for k, owners in asm._edge_slices(d):
        jump = asm._edge_values(d, k, owners)[0]
        rotation = (jump[:, :, 0:2].any(), jump[:, :, 5:7, :6].any())
        assert rotation == ((False, False) if tag[k[0]] == "S"
                            else (True, True))
        assert jump[:, :, 2:5].any()
        tags.add(tag[k[0]])
    assert tags == {"D", "S"}


@pytest.mark.parametrize("case", ["cylinder-12x12", "hypar-5x5-enriched"])
def test_forms_pass_each_point_to_eval_elastic_once(case, monkeypatch):
    """One `forms()` call evaluates the elastic tensors once at each
    element quadrature point, where C takes the compliance from the call
    that gives R and GT the elastic tensor, and once at each quadrature
    point of an edge not tagged F."""
    asm = STREAM_CASES[case]()
    e, edges = asm._elem_data(), asm._edge_data()
    points = []

    def counted(geom, *args):
        points.append(geom.sqrt_a.size)
        return eval_elastic(geom, *args)
    monkeypatch.setattr(assembly, "eval_elastic", counted)
    asm.forms()
    assert sum(points) == e.geom.sqrt_a.size + sum(
        d.geom.sqrt_a[edge_tags(asm, d) != "F"].size for d in edges)


def test_owner_structure_equals_the_entry_sort():
    """`_Sums` on a made-up owner table, its rows ragged, permuted and
    padded with -1, some rows owned by no owner and one owner in no block,
    with blocks of one and of two owners whose column lists repeat columns,
    gives bitwise the structure and the sums of the reference, which sorts
    every entry of every block."""
    rng = np.random.default_rng(3)
    shape = (70, 40)
    size = np.array([3, 5] * 6)
    rows = rng.permutation(shape[0])[:size.sum()]
    table = np.full((len(size), 5), -1)
    table[np.arange(5) < size[:, None]] = rows
    threes, fives = np.flatnonzero(size == 3), np.flatnonzero(size == 5)
    blocks = [(threes[:, None], rng.integers(0, shape[1], (6, 7))),
              (np.stack([threes[:4], fives[1:5]], axis=1),
               rng.integers(0, shape[1], (4, 9))),
              (fives[:2, None], rng.integers(0, shape[1], (2, 4)))]
    names = ("X", "Y")
    got = assembly._Sums(shape, table, blocks, names)
    want = BincountSums(shape, table, blocks, names)
    for b, (owners, cols) in enumerate(blocks):
        m = size[owners[0]].sum()
        for name in names:
            values = rng.standard_normal((len(owners), m, cols.shape[1]))
            got.add(name, b, values)
            want.add(name, b, values)
    got, want = got.matrices(), want.matrices()
    for name in names:
        for attr in ("data", "indices", "indptr"):
            a, b = getattr(got[name], attr), getattr(want[name], attr)
            assert a.dtype == b.dtype and np.array_equal(a, b), (name, attr)
    assert np.diff(got["X"].indptr)[table[fives[5]]].sum() == 0


def test_forms_transient_stays_within_twice_the_forms():
    """With the element and edge data built, `forms` allocates at its peak
    at most twice the bytes of the forms it returns (arrays shared by
    several matrices counted once), as traced by tracemalloc, which sees
    numpy's buffers: the values of each slice are summed as they are made
    and a slice holds at most SLICE_BUDGET (point, local DOF) pairs."""
    asm = make_assembler("cylinder", 24, 24, ("D", "F", "S", "F"))
    asm._elem_data()
    asm._edge_data()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        forms = asm.forms()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    arrays = {(a.ctypes.data, a.nbytes): a.nbytes for M in forms.values()
              for a in (M.data, M.indices, M.indptr)}
    assert peak <= 2 * sum(arrays.values())
