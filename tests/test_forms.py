import numpy as np
import pytest

import quad_oracle as oracle
from femscript.errors import InvalidArgumentError, NumericError
from femscript.fespace import FeSpace
from femscript.fields import CellContext, Constant, X, as_field
from femscript.forms import (DirichletBC, FormTerm, TestFunction, TrialFunction,
                             VarForm, as_form, assemble_bilinear, assemble_linear,
                             dirichlet_dofs, dx, dy, integrate_1d, integrate_2d)
from femscript.linalg import SparseMatrix, factorize
from femscript.mesh import build_from_borders, build_square

U, V = TrialFunction(), TestFunction()
STIFF = dx(U) * dx(V) + dy(U) * dy(V)
MASS = as_form(U) * V
ALL_LABELS = frozenset({1, 2, 3, 4})


def bilinear(expr, quad="default", labels=None, kind="int2d", dirichlet=()):
    return VarForm(bilinear_terms=[FormTerm(kind, expr, labels, quad)],
                   dirichlet=list(dirichlet))


# -- integration ------------------------------------------------------------

def test_integral_of_one(square16):
    assert integrate_2d(square16, 1.0) == pytest.approx(1.0, abs=1e-14)


def test_integral_of_x(square16):
    assert integrate_2d(square16, X) == pytest.approx(0.5, abs=1e-14)


def test_integral_against_oracle(square10):
    # degree-5 polynomial: the order-5 rule must agree with the oracle exactly
    poly = lambda x, y: x ** 3 * y ** 2 - 2 * x * y ** 4 + x ** 2 + 1
    ours = integrate_2d(square10, poly, quad="order5")
    assert ours == pytest.approx(oracle.integrate_mesh(square10, poly), rel=1e-14)
    # smooth integrand: agreement within the rule's own quadrature error
    f = lambda x, y: np.cos(3 * x) * (y ** 2 + 1)
    ours = integrate_2d(square10, f, quad="order5")
    assert ours == pytest.approx(oracle.integrate_mesh(square10, f), rel=5e-8)


def test_integral_nonfinite_raises(square10):
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(NumericError):
            integrate_2d(square10, as_field(lambda x, y: 1.0 / (x - 0.5)))


def test_boundary_integral_whole(square16):
    assert integrate_1d(square16, {1, 2, 3, 4}, 1.0) == pytest.approx(4.0, abs=1e-13)


def test_boundary_integral_label_filter(square16):
    assert integrate_1d(square16, {1}, 1.0) == pytest.approx(1.0, abs=1e-13)


def test_boundary_integral_empty_labels(square16):
    with pytest.raises(InvalidArgumentError):
        integrate_1d(square16, set(), 1.0)


def test_boundary_integral_missing_label(square16):
    with pytest.raises(InvalidArgumentError):
        integrate_1d(square16, {9}, 1.0)


def test_unknown_quadrature_rejected(square16):
    with pytest.raises(InvalidArgumentError):
        integrate_2d(square16, 1.0, quad="qf99")


def test_boundary_integral_of_fe_function(square16):
    from femscript.fespace import interpolate
    Vh = FeSpace(square16, "P1")
    uh = interpolate(Vh, lambda x, y: x)
    assert integrate_1d(square16, {1}, as_field(uh)) == pytest.approx(0.5, abs=1e-13)
    assert integrate_1d(square16, {1}, X) == pytest.approx(0.5, abs=1e-13)


def test_p0_coefficient_in_integrals(square16):
    from femscript.fespace import interpolate
    W = FeSpace(square16, "P0")
    ph = interpolate(W, lambda x, y: x)  # centroid values
    # the centroid rule integrates linears exactly, so this equals int x
    assert integrate_2d(square16, as_field(ph)) == pytest.approx(0.5, abs=1e-14)


# -- element matrices (the oracle suite) ----------------------------------------

def test_reference_stiffness(reference_triangle):
    Vh = FeSpace(reference_triangle, "P1")
    A = assemble_bilinear(bilinear(STIFF), Vh, Vh).to_dense()
    expect = 0.5 * np.array([[2, -1, -1], [-1, 1, 0], [-1, 0, 1]], dtype=float)
    assert np.abs(A - expect).max() <= 1e-13
    ref = oracle.element_stiffness([0, 0], [1, 0], [0, 1])
    assert np.abs(A - ref).max() <= 1e-13


def test_reference_mass(reference_triangle):
    Vh = FeSpace(reference_triangle, "P1")
    M = assemble_bilinear(bilinear(MASS), Vh, Vh).to_dense()
    expect = np.array([[1 / 12, 1 / 24, 1 / 24],
                       [1 / 24, 1 / 12, 1 / 24],
                       [1 / 24, 1 / 24, 1 / 12]])
    assert np.abs(M - expect).max() <= 1e-13
    ref = oracle.element_mass([0, 0], [1, 0], [0, 1])
    assert np.abs(M - ref).max() <= 1e-13


def test_generic_triangle_against_oracle():
    pts = [[0.2, -0.1], [1.3, 0.4], [0.5, 1.7]]
    mesh = build_square(1, 1)
    from femscript.mesh import Mesh
    tri = Mesh(pts, [[0, 1, 2]], [[0, 1], [1, 2], [2, 0]], edge_labels=[1, 1, 1])
    Vh = FeSpace(tri, "P1")
    A = assemble_bilinear(bilinear(STIFF), Vh, Vh).to_dense()
    M = assemble_bilinear(bilinear(MASS), Vh, Vh).to_dense()
    assert np.abs(A - oracle.element_stiffness(*pts)).max() <= 1e-12
    assert np.abs(M - oracle.element_mass(*pts)).max() <= 1e-13


def test_edge_mass_matrix():
    mesh = build_square(4, 4)
    Vh = FeSpace(mesh, "P1")
    A = assemble_bilinear(bilinear(MASS, kind="int1d", labels=frozenset({1})),
                          Vh, Vh).to_dense()
    h = 0.25
    bottom = np.where(mesh.points[:, 1] == 0)[0]
    interior = [v for v in bottom if 0 < mesh.points[v, 0] < 1]
    v = interior[0]
    assert A[v, v] == pytest.approx(2 * h / 3, abs=1e-13)  # two incident edges
    right = bottom[np.argsort(mesh.points[bottom, 0])]
    a, b = int(right[0]), int(right[1])
    assert A[a, b] == pytest.approx(h / 6, abs=1e-13)
    assert A[a, a] == pytest.approx(h / 3, abs=1e-13)  # corner: one edge
    ref = oracle.edge_mass([0.0, 0.0], [h, 0.0])
    assert A[a, a] == pytest.approx(ref[0, 0], abs=1e-13)
    assert A[a, b] == pytest.approx(ref[0, 1], abs=1e-13)


# -- assembly ----------------------------------------------------------------

def test_dirichlet_rows_all_penalized():
    mesh = build_square(1, 1)
    Vh = FeSpace(mesh, "P1")
    A = assemble_bilinear(bilinear(STIFF, dirichlet=[DirichletBC(ALL_LABELS, Constant(0.0))]),
                          Vh, Vh)
    assert np.array_equal(A.diagonal(), np.full(4, 1e30))


def test_mass_row_sums_partition_of_unity(square10):
    Vh = FeSpace(square10, "P1")
    M = assemble_bilinear(bilinear(MASS), Vh, Vh)
    sums = M.row_sums()
    # row sums equal the integral of each basis function
    l = VarForm(linear_terms=[FormTerm("int2d", as_form(Constant(1.0)) * V)])
    b = assemble_linear(l, Vh)
    assert np.abs(sums - b).max() <= 1e-15
    assert abs(sums.sum() - square10.total_area()) <= 1e-12


def test_stiffness_row_sums_vanish(square16, circle50):
    for mesh in (square16, circle50):
        Vh = FeSpace(mesh, "P1")
        A = assemble_bilinear(bilinear(STIFF), Vh, Vh)
        assert np.abs(A.row_sums()).max() <= 1e-12
    # the couplings across the square's diagonals are exact zeros, not stored
    Vh = FeSpace(square16, "P1")
    A = assemble_bilinear(bilinear(STIFF), Vh, Vh)
    assert np.diff(A._csr.indptr).max() <= 5


def test_symmetry_before_penalty(circle50):
    Vh = FeSpace(circle50, "P1")
    c = as_field(lambda x, y: 1.0 + x * x)
    A = assemble_bilinear(bilinear(STIFF + as_form(U) * c * V), Vh, Vh)
    D = A.to_dense()
    assert np.abs(D - D.T).max() <= 1e-12 * np.abs(D).max()


def test_lumped_and_default_mass_row_sums(square10):
    Vh = FeSpace(square10, "P1")
    M = assemble_bilinear(bilinear(MASS), Vh, Vh)
    ML = assemble_bilinear(bilinear(MASS, quad="lumped"), Vh, Vh)
    assert np.abs(M.row_sums() - ML.row_sums()).max() <= 1e-14
    # the lumped matrix is diagonal
    off = ML.to_dense() - np.diag(ML.diagonal())
    assert np.abs(off).max() == 0.0
    assert ML.nnz == Vh.ndof


def test_cancelling_contributions_stay_stored():
    # a P0 coefficient of +1 and -1 on the two triangles of the unit square:
    # the shared edge's entries sum to exactly zero but are still stored
    from femscript.fespace import interpolate
    mesh = build_square(1, 1)
    Vh = FeSpace(mesh, "P1")
    c = interpolate(FeSpace(mesh, "P0"), lambda x, y: np.where(x > y, 1.0, -1.0))
    assert sorted(c.dofs) == [-1.0, 1.0]
    A = assemble_bilinear(bilinear(as_form(U) * as_field(c) * V), Vh, Vh)
    a, b = np.intersect1d(mesh.tri[0], mesh.tri[1])
    D = A.to_dense()
    assert D[a, b] == 0.0 and D[b, a] == 0.0 and D[a, a] == 0.0
    assert A.nnz == assemble_bilinear(bilinear(MASS), Vh, Vh).nnz == 14



def _reference_context(mesh, term):
    """The term's quadrature points as an eager context, with explicit
    triangle indices and coordinates, and its scale (n, nq)."""
    from femscript.forms import EDGE_RULE, RULES_2D, _edge_context, _select_edges
    if term.kind == "int1d":
        ctx, length = _edge_context(mesh, _select_edges(mesh, term.labels))
        return ctx, length[:, None] * EDGE_RULE[1][None, :]
    rule = RULES_2D[term.quad]
    p = mesh.points[mesh.tri]
    xy = (np.einsum("qk,nk->nq", rule.lam, p[:, :, 0]),
          np.einsum("qk,nk->nq", rule.lam, p[:, :, 1]))
    ctx = CellContext(mesh, np.arange(mesh.nt), rule.lam, xy)
    return ctx, mesh.signed_areas()[:, None] * rule.w[None, :]


def _reference_basis(space, kind, ctx):
    """Basis table (n, nq or 1, nloc) and DOF map of `space` at the sites of
    `ctx`, from the mesh's tables and the sites' barycentric coordinates."""
    n, nq = ctx.shape
    if space.elem == "P0":
        return np.full((n, 1, 1), 1.0 if kind == "val" else 0.0), ctx.tri[:, None]
    dofs = space.mesh.tri[ctx.tri]
    if kind == "val":
        return np.broadcast_to(ctx.lam, (n, nq, 3)), dofs
    gx, gy = space.mesh.basis_gradients()
    return (gx if kind == "dx" else gy)[ctx.tri][:, None, :], dofs


def _reference_bilinear(form, trial, test):
    """Element-first assembly written out: per term, one element matrix that
    each product adds into, point by point in q order (C summed over q first,
    in q order, when neither basis varies over q); then the element matrices
    scattered in order from 0.0, keeping the entries that received a nonzero
    contribution."""
    shape = (test.ndof, trial.ndof)
    dense, hits = np.zeros(shape), np.zeros(shape, dtype=int)
    for term in form.bilinear_terms:
        ctx, scale = _reference_context(trial.mesh, term)
        nq = ctx.shape[1]
        loc = 0.0
        for (uk, vk), f in term.expr.terms.items():
            C = f.values(ctx) * scale
            Bu, dof_u = _reference_basis(trial, uk, ctx)
            Bv, dof_v = _reference_basis(test, vk, ctx)
            if Bu.shape[1] == Bv.shape[1] == 1:
                c = np.zeros(len(C))
                for q in range(nq):
                    c = c + C[:, q]
                C = c[:, None]
            for q in range(C.shape[1]):
                qu, qv = min(q, Bu.shape[1] - 1), min(q, Bv.shape[1] - 1)
                loc = loc + C[:, q, None, None] * Bv[:, qv, :, None] * Bu[:, qu, None, :]
        rows = np.broadcast_to(dof_v[:, :, None], loc.shape).ravel()
        cols = np.broadcast_to(dof_u[:, None, :], loc.shape).ravel()
        np.add.at(dense, (rows, cols), loc.ravel())
        np.add.at(hits, (rows, cols), loc.ravel() != 0.0)
    rows, cols = np.nonzero(hits)
    return SparseMatrix.from_coo(rows, cols, dense[rows, cols], shape)


def _weighted_mass(w):
    return lambda mesh: bilinear(as_form(U) * as_field(FeSpace(mesh, "P1").function(w)) * V)


def _plan_mesh(where):
    from femscript.studies import circle_border
    return build_square(7, 5) if where == "square" else build_from_borders([circle_border(24)])


# Each case assembles its forms in turn on one fresh mesh.
PLAN_CASES = {
    "square-stiffness": ("square", "P1", "P1", [lambda m: bilinear(STIFF)]),
    "disk-stiffness": ("disk", "P1", "P1", [lambda m: bilinear(STIFF)]),
    "square-P0-trial": ("square", "P0", "P1", [lambda m: bilinear(MASS)]),
    "disk-P0-test": ("disk", "P1", "P0", [lambda m: bilinear(MASS)]),
    "int1d-two-labels": ("square", "P1", "P1", [
        lambda m: bilinear(MASS, kind="int1d", labels=frozenset({1})),
        lambda m: bilinear(MASS, kind="int1d", labels=frozenset({2}))]),
    "weighted-mass-zero-then-not": ("square", "P1", "P1",
                                    [_weighted_mass(0.0), _weighted_mass(1.5)]),
    "stiffness-then-dxdx": ("square", "P1", "P1", [lambda m: bilinear(STIFF),
                                                   lambda m: bilinear(dx(U) * dx(V))]),
}


@pytest.mark.parametrize("case", list(PLAN_CASES))
def test_planned_assembly_matches_the_unplanned_recipe_bit_for_bit(case):
    where, trial_elem, test_elem, forms = PLAN_CASES[case]
    mesh = _plan_mesh(where)
    trial, test = FeSpace(mesh, trial_elem), FeSpace(mesh, test_elem)
    nnz = []
    for make in forms:
        form = make(mesh)
        A = assemble_bilinear(form, trial, test)._csr
        R = _reference_bilinear(form, trial, test)._csr
        assert np.array_equal(A.indptr, R.indptr) and np.array_equal(A.indices, R.indices)
        assert np.array_equal(A.data.view(np.uint64), R.data.view(np.uint64))
        nnz.append(A.nnz)
    plans = [k for k in mesh._cache if k[0] == "bilinear_plan"]
    if case == "int1d-two-labels":
        assert len(plans) == 2
    if case == "stiffness-then-dxdx":
        # one plan serves both: the key holds no product count
        assert len(plans) == 1 and nnz[0] > nnz[1] > 0
    if case == "weighted-mass-zero-then-not":
        # one plan, two stored patterns: nothing for w = 0, the mass pattern after
        assert len(plans) == 1 and nnz[0] == 0 < nnz[1]


def _sort_plan(blocks, shape):
    """The sort-based plan builder: the stable argsort of every contribution's
    (row, col) key, each run of equal keys numbered in sorted order."""
    m = np.int64(shape[1])
    key = np.concatenate([(dv[:, :, None] * m + du[:, None, :]).ravel() for dv, du in blocks]
                         or [np.zeros(0, dtype=np.int64)])
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts = np.flatnonzero(np.r_[len(key) > 0, key[1:] != key[:-1]])
    slot = np.empty(len(order), dtype=np.intp)
    slot[order] = np.repeat(np.arange(len(starts)), np.diff(np.r_[starts, len(order)]))
    return slot, key[starts] // m, key[starts] % m


@pytest.mark.parametrize("case", list(PLAN_CASES))
def test_bilinear_plan_matches_the_sort_based_builder(case):
    where, trial_elem, test_elem, forms = PLAN_CASES[case]
    mesh = _plan_mesh(where)
    trial, test = FeSpace(mesh, trial_elem), FeSpace(mesh, test_elem)
    for make in forms:
        form = make(mesh)
        assemble_bilinear(form, trial, test)
        blocks = []
        for term in form.bilinear_terms:
            ctx, _ = _reference_context(mesh, term)
            blocks.append((_reference_basis(test, "val", ctx)[1],
                           _reference_basis(trial, "val", ctx)[1]))
        key = ("bilinear_plan", trial_elem, test_elem,
               tuple((t.kind, t.labels) for t in form.bilinear_terms))
        for got, ref in zip(mesh._cache[key], _sort_plan(blocks, (test.ndof, trial.ndof))):
            assert np.array_equal(got, ref)


def _reference_linear(form, test):
    """Element-first linear assembly written out: per product, one element
    vector summed point by point in q order (C summed over q first, in q
    order, when the basis does not vary over q); then the element vectors
    scattered in order from 0.0."""
    b = np.zeros(test.ndof)
    for term in form.linear_terms:
        ctx, scale = _reference_context(test.mesh, term)
        for (_, vk), f in term.expr.terms.items():
            C = f.values(ctx) * scale
            Bv, dof_v = _reference_basis(test, vk, ctx)
            if Bv.shape[1] == 1:
                c = np.zeros(len(C))
                for q in range(C.shape[1]):
                    c = c + C[:, q]
                C = c[:, None]
            loc = np.zeros(dof_v.shape)
            for q in range(C.shape[1]):
                loc = loc + C[:, q, None] * Bv[:, min(q, Bv.shape[1] - 1), :]
            np.add.at(b, dof_v.ravel(), loc.ravel())
    return b


def _reference_integral(mesh, g, kind="int2d", labels=None, quad="default"):
    """Element-first integral: each triangle's area (or edge's length) from
    its own corners, times its values' dot with the rule's weights, then the
    sum over the elements.  The dots (one matvec: a row-by-row dot rounds
    differently) and the pairwise np.sum are the kernel's own reductions."""
    from types import SimpleNamespace
    from femscript.forms import EDGE_RULE, RULES_2D
    ctx, _ = _reference_context(mesh, SimpleNamespace(kind=kind, labels=labels, quad=quad))
    if kind == "int2d":
        x, y = mesh.points[:, 0], mesh.points[:, 1]
        measure = np.array([0.5 * ((x[b] - x[a]) * (y[c] - y[a]) - (x[c] - x[a]) * (y[b] - y[a]))
                            for a, b, c in mesh.tri])
        w = RULES_2D[quad].w
    else:
        ends = mesh.points[mesh.edge[np.isin(mesh.edge_label, list(labels))]]
        measure = np.array([np.hypot(*(q - p)) for p, q in ends])
        w = EDGE_RULE[1]
    vals = as_field(g).values(ctx)
    return float(np.sum(measure * (vals @ w)))


def _linear_cases(mesh):
    from femscript.fespace import interpolate
    from femscript.fields import Y
    Vh, Ph = FeSpace(mesh, "P1"), FeSpace(mesh, "P0")
    uh = interpolate(Vh, lambda x, y: np.sin(3 * x) * y + 0.5)
    wh = interpolate(Ph, lambda x, y: 1.0 + x * y)
    labels = frozenset(mesh.boundary_labels()[:2])
    return {
        "P1-order5": (Vh, [FormTerm("int2d", (X * X + 1.0) * V, quad="order5")]),
        "P1-lumped-fe": (Vh, [FormTerm("int2d", uh * V, quad="lumped")]),
        "P1-v-and-dx(v)": (Vh, [FormTerm("int2d", uh * V + (1.0 + Y) * dx(V) - wh * dy(V))]),
        "P1-dx(uh)": (Vh, [FormTerm("int2d", dx(uh) * V), FormTerm("int2d", -2.0 * V)]),
        "P1-int1d": (Vh, [FormTerm("int1d", (uh - X) * V, labels),
                          FormTerm("int1d", dy(V), labels)]),
        "P0-default": (Ph, [FormTerm("int2d", uh * V)]),
        "P0-order5-fe": (Ph, [FormTerm("int2d", (wh + X * Y) * V, quad="order5")]),
        "P0-lumped": (Ph, [FormTerm("int2d", uh * uh * V, quad="lumped")]),
        "P0-int1d": (Ph, [FormTerm("int1d", uh * V + dx(V), labels)]),
    }, uh, wh, labels


@pytest.mark.parametrize("where", ["square", "disk"])
@pytest.mark.parametrize("case", ["P1-order5", "P1-lumped-fe", "P1-v-and-dx(v)", "P1-dx(uh)",
                                  "P1-int1d", "P0-default", "P0-order5-fe", "P0-lumped",
                                  "P0-int1d"])
def test_first_linear_assembly_matches_the_element_first_recipe_bit_for_bit(where, case):
    mesh = _plan_mesh(where)
    cases = _linear_cases(mesh)[0]
    space, terms = cases[case]
    got = assemble_linear(VarForm(linear_terms=terms), space)
    ref = _reference_linear(VarForm(linear_terms=terms), space)
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


@pytest.mark.parametrize("where", ["square", "disk"])
def test_integrals_match_the_element_first_recipe_bit_for_bit(where):
    from femscript.fields import Y
    mesh = _plan_mesh(where)
    _, uh, wh, labels = _linear_cases(mesh)
    for g in (1.0, X * Y + 1.0, uh * uh, wh * uh - X, dx(uh) * wh):
        for quad in ("default", "lumped", "order5"):
            got = integrate_2d(mesh, g, quad)
            assert got == _reference_integral(mesh, g, quad=quad)
        got = integrate_1d(mesh, labels, g)
        assert got == _reference_integral(mesh, g, "int1d", labels)


def test_form_without_bilinear_terms_assembles_the_pinned_diagonal(square10):
    Vh = FeSpace(square10, "P1")
    pinned = dirichlet_dofs(Vh, {1})
    A = assemble_bilinear(VarForm(dirichlet=[DirichletBC(frozenset({1}), as_field(0.0))]),
                          Vh, Vh)
    assert A.nnz == len(pinned)
    assert np.array_equal(np.flatnonzero(A.diagonal()), pinned)
    assert np.all(A.diagonal()[pinned] == 1e30)


def test_q_contracted_stiffness_matches_the_q_loop(circle50):
    # Summing C over q before the product (a P1 derivative is the same at
    # every point) only regroups roundoff against the per-point products of
    # the former recipe: one COO block per product, summed by from_coo.
    from femscript.forms import _cell_basis, _term_context
    Vh = FeSpace(circle50, "P1")
    form = bilinear(dx(U) * dx(V) + as_form(as_field(lambda x, y: 1.0 + x * x)) * dy(U) * dy(V))
    rows, cols, vals = [], [], []
    ctx, scale, nq = _term_context(circle50, form.bilinear_terms[0])
    for (uk, vk), f in form.bilinear_terms[0].expr.terms.items():
        C = f.values(ctx) * scale
        Bu, dof_u = _cell_basis(Vh, uk, ctx, nq)
        Bv, dof_v = _cell_basis(Vh, vk, ctx, nq)
        loc = np.zeros((len(C), 3, 3))
        for q in range(nq):
            loc += C[:, q, None, None] * Bv[:, 0, :, None] * Bu[:, 0, None, :]
        rows.append(np.repeat(dof_v, 3, axis=1).ravel())
        cols.append(np.tile(dof_u, (1, 3)).ravel())
        vals.append(loc.ravel())
    vals = np.concatenate(vals)
    keep = vals != 0.0
    R = SparseMatrix.from_coo(np.concatenate(rows)[keep], np.concatenate(cols)[keep],
                              vals[keep], (Vh.ndof, Vh.ndof))._csr
    A = assemble_bilinear(form, Vh, Vh)._csr
    assert np.array_equal(A.indptr, R.indptr) and np.array_equal(A.indices, R.indices)
    assert np.abs(A.data - R.data).max() <= 1e-13 * np.abs(R.data).max()


def test_dirichlet_only_form_is_a_float_pinned_diagonal(circle50):
    Vh = FeSpace(circle50, "P1")
    labels = frozenset(circle50.boundary_labels())
    A = assemble_bilinear(VarForm(dirichlet=[DirichletBC(labels, as_field(1.0))]), Vh, Vh)
    expect = np.zeros(Vh.ndof)
    expect[dirichlet_dofs(Vh, labels)] = 1e30
    assert A._csr.dtype == np.float64
    assert np.array_equal(A.to_dense(), np.diag(expect))


def test_linear_assembly_matches_scatter_adds_bit_for_bit(circle50):
    # Value terms only: for a derivative of v (constant in q, a stride-0
    # table) or a P0 v, einsum sums the quadrature points in an order of its
    # own, which the q-ordered loop does not follow.
    from femscript.forms import _cell_basis, _term_context
    Vh = FeSpace(circle50, "P1")
    form = VarForm(linear_terms=[FormTerm("int2d", (X * X + 1.0) * V, quad="order5"),
                                 FormTerm("int1d", X * V, frozenset(circle50.boundary_labels())),
                                 FormTerm("int2d", -2.0 * V)])
    ref = np.zeros(Vh.ndof)
    for term in form.linear_terms:
        ctx, scale, nq = _term_context(circle50, term)
        for (_, vk), f in term.expr.terms.items():
            Bv, dof_v = _cell_basis(Vh, vk, ctx, nq)
            loc = np.einsum("nq,nqi->ni", f.values(ctx) * scale, Bv)
            np.add.at(ref, dof_v.ravel(), loc.ravel())
    assert np.array_equal(assemble_linear(form, Vh).view(np.uint64), ref.view(np.uint64))


def test_int2d_coordinates_are_computed_only_when_a_coefficient_reads_them(monkeypatch):
    from femscript.fespace import interpolate
    mesh = build_square(8, 8)
    Vh = FeSpace(mesh, "P1")
    uh = interpolate(Vh, lambda x, y: x * y)
    uex = interpolate(Vh, lambda x, y: x * y + 0.01 * x)
    fh = interpolate(Vh, lambda x, y: 1.0 + x)

    def computed(ctx):
        raise RuntimeError("coordinates computed")
    monkeypatch.setattr(CellContext, "_coordinates", computed)
    assemble_bilinear(bilinear(STIFF), Vh, Vh)
    assemble_bilinear(bilinear(as_form(U) * fh * V), Vh, Vh)
    assemble_linear(VarForm(linear_terms=[FormTerm("int2d", fh * V)]), Vh)
    assert integrate_2d(mesh, (uh - uex) ** 2) > 0.0
    with pytest.raises(RuntimeError, match="coordinates computed"):
        integrate_2d(mesh, X)


def test_int2d_basis_tables_are_views_of_the_mesh_tables(square10):
    from femscript.forms import _cell_basis, _term_context
    Vh = FeSpace(square10, "P1")
    ctx, _, nq = _term_context(square10, bilinear(STIFF).bilinear_terms[0])
    for kind, table in zip(("dx", "dy"), square10.basis_gradients()):
        B, dofs = _cell_basis(Vh, kind, ctx, nq)
        assert np.shares_memory(B, table) and np.shares_memory(dofs, square10.tri)
    B, dofs = _cell_basis(Vh, "val", ctx, nq)
    assert np.shares_memory(dofs, square10.tri)


def test_nan_fe_coefficient_names_its_first_quadrature_point(square10):
    from femscript.forms import RULES_2D
    Vh = FeSpace(square10, "P1")
    w = Vh.function(np.ones(Vh.ndof))
    k = int(np.argmin(np.hypot(*(square10.points - 0.5).T)))
    w.dofs[k] = np.nan
    # NaN times a zero barycentric weight is NaN: every point of the first
    # triangle around vertex k is non-finite, its first point first
    t = int(np.flatnonzero((square10.tri == k).any(axis=1))[0])
    x, y = RULES_2D["default"].lam[0] @ square10.points[square10.tri[t]]
    with pytest.raises(NumericError, match=rf"^coefficient is not finite at "
                                           rf"\({x:g}, {y:g}\)$"):
        assemble_bilinear(bilinear(as_form(U) * w * V), Vh, Vh)


def test_assembly_is_linear_in_the_form(square10):
    Vh = FeSpace(square10, "P1")
    A1 = assemble_bilinear(bilinear(STIFF), Vh, Vh)
    A2 = assemble_bilinear(bilinear(MASS), Vh, Vh)
    both = VarForm(bilinear_terms=[FormTerm("int2d", STIFF), FormTerm("int2d", MASS)])
    A12 = assemble_bilinear(both, Vh, Vh)
    assert np.abs(A12.to_dense() - (A1.to_dense() + A2.to_dense())).max() <= 1e-13


def test_linear_zero_rhs(square10):
    Vh = FeSpace(square10, "P1")
    l = VarForm(linear_terms=[FormTerm("int2d", as_form(Constant(0.0)) * V)],
                dirichlet=[DirichletBC(ALL_LABELS, Constant(0.0))])
    b = assemble_linear(l, Vh)
    assert np.array_equal(b, np.zeros(Vh.ndof))


def test_lumped_load_gives_support_area_over_three(square10):
    Vh = FeSpace(square10, "P1")
    l = VarForm(linear_terms=[FormTerm("int2d", as_form(Constant(1.0)) * V,
                                       quad="lumped")])
    b = assemble_linear(l, Vh)
    areas = square10.signed_areas()
    support = np.zeros(Vh.ndof)
    for t in range(square10.nt):
        for v in square10.tri[t]:
            support[v] += areas[t]
    interior = np.setdiff1d(np.arange(Vh.ndof), square10.vertices_on_labels({1, 2, 3, 4}))
    assert np.abs(b[interior] - support[interior] / 3).max() <= 1e-15


def test_dirichlet_rhs_scaling(square10):
    Vh = FeSpace(square10, "P1")
    l = VarForm(linear_terms=[FormTerm("int2d", as_form(Constant(0.0)) * V)],
                dirichlet=[DirichletBC(ALL_LABELS, Constant(5.0))])
    b = assemble_linear(l, Vh, tgv=1e30)
    boundary = square10.vertices_on_labels({1, 2, 3, 4})
    assert np.all(b[boundary] == 5e30)


def test_penalty_consistency(square10):
    """Solving the penalized system reproduces boundary values to 1e-12."""
    Vh = FeSpace(square10, "P1")
    g = as_field(lambda x, y: 1.0 + x + 2 * y)
    a = bilinear(STIFF, dirichlet=[DirichletBC(ALL_LABELS, g)])
    l = VarForm(linear_terms=[FormTerm("int2d", as_form(Constant(1.0)) * V)],
                dirichlet=[DirichletBC(ALL_LABELS, g)])
    A = assemble_bilinear(a, Vh, Vh)
    b = assemble_linear(l, Vh)
    x = factorize(A).solve(b)
    boundary = square10.vertices_on_labels({1, 2, 3, 4})
    pts = square10.points[boundary]
    expect = 1.0 + pts[:, 0] + 2 * pts[:, 1]
    rel = np.abs(x[boundary] - expect) / np.abs(expect)
    assert rel.max() <= 1e-12


def test_p0_rejects_dirichlet(square10):
    V0 = FeSpace(square10, "P0")
    with pytest.raises(InvalidArgumentError):
        dirichlet_dofs(V0, {1})


def test_mismatched_meshes_rejected(square10, square16):
    V1 = FeSpace(square10, "P1")
    V2 = FeSpace(square16, "P1")
    with pytest.raises(InvalidArgumentError):
        assemble_bilinear(bilinear(STIFF), V1, V2)


def test_mixed_order_integral_rejected():
    with pytest.raises(InvalidArgumentError):
        VarForm(bilinear_terms=[FormTerm("int2d", as_form(U) * V + as_form(Constant(1.0)) * V)])


def test_nonlinear_unknown_rejected():
    with pytest.raises(InvalidArgumentError):
        _ = as_form(U) * U


def test_empty_form_rejected():
    with pytest.raises(InvalidArgumentError):
        VarForm()


def test_robin_boundary_term(square10):
    """int1d bilinear plus int2d stiffness assembles and stays symmetric."""
    Vh = FeSpace(square10, "P1")
    form = VarForm(bilinear_terms=[
        FormTerm("int2d", STIFF),
        FormTerm("int1d", as_form(U) * V, frozenset({2}), "default"),
    ])
    A = assemble_bilinear(form, Vh, Vh).to_dense()
    assert np.abs(A - A.T).max() <= 1e-12 * np.abs(A).max()
    # boundary term only touches label-2 vertices
    interior = np.setdiff1d(np.arange(Vh.ndof),
                            square10.vertices_on_labels({2}))
    S = assemble_bilinear(bilinear(STIFF), Vh, Vh).to_dense()
    assert np.abs((A - S)[np.ix_(interior, interior)]).max() == 0.0


# -- one interpolation routine: numbers, fields, FE functions, Dirichlet values --

@pytest.mark.parametrize("elem", ["P1", "P0"])
def test_interpolate_accepts_numbers_fields_and_fe_functions(square10, elem):
    from femscript.fespace import interpolate
    Vh = FeSpace(square10, elem)
    sites = square10.points if elem == "P1" else square10.barycenters()
    assert np.array_equal(interpolate(Vh, 2.5).dofs, np.full(Vh.ndof, 2.5))
    assert np.array_equal(interpolate(Vh, X * X + 1.0).dofs, sites[:, 0] ** 2 + 1.0)
    u = Vh.function(np.random.default_rng(3).standard_normal(Vh.ndof))
    assert np.array_equal(interpolate(Vh, u).dofs, u.dofs)
    assert np.array_equal(interpolate(Vh, as_field(u)).dofs, u.dofs)


def test_interpolate_rejects_fe_function_of_another_mesh(square10, square16):
    from femscript.fespace import interpolate
    g = FeSpace(square16, "P1").function()
    with pytest.raises(InvalidArgumentError):
        interpolate(FeSpace(square10, "P1"), g)


def test_dirichlet_value_checked_at_pinned_vertices_only():
    mesh = build_square(10, 10)
    Vh = FeSpace(mesh, "P1")
    g = 1.0 / (X - 0.5)          # infinite at x = 0.5, a vertex of label 1 only
    with np.errstate(divide="ignore"):
        with pytest.raises(NumericError):
            assemble_linear(VarForm(dirichlet=[DirichletBC(frozenset({1}), g)]), Vh)
        b = assemble_linear(VarForm(dirichlet=[DirichletBC(frozenset({2}), g)]), Vh)
    assert np.all(np.isfinite(b))
    pinned = dirichlet_dofs(Vh, {2})
    assert np.array_equal(b[pinned], 2.0 * 1e30 * np.ones(len(pinned)))


def test_dirichlet_value_from_another_mesh_rejected(square10, square16):
    Vh = FeSpace(square10, "P1")
    g = FeSpace(square16, "P1").function(1.0)
    form = VarForm(dirichlet=[DirichletBC(ALL_LABELS, as_field(g))])
    with pytest.raises(InvalidArgumentError):
        assemble_linear(form, Vh)


def test_dirichlet_dofs_cached_read_only_and_missing_label_raises_each_call():
    mesh = build_square(4, 4)
    Vh = FeSpace(mesh, "P1")
    first = dirichlet_dofs(Vh, [1, 2])
    assert dirichlet_dofs(Vh, frozenset({2, 1})) is first
    assert first.tolist() == sorted(set(mesh.vertices_on_labels({1, 2}).tolist()))
    with pytest.raises(ValueError):
        first[0] = 0
    for _ in range(2):
        with pytest.raises(InvalidArgumentError):
            dirichlet_dofs(Vh, {1, 7})


def _interpolated_sites(space, f, dofs=None):
    # the DOF-site path that every non-constant coefficient takes
    from femscript.fespace import _dof_context
    ctx = _dof_context(space)
    if dofs is not None:
        lam = ctx.lam if ctx.lam.ndim == 2 else ctx.lam[dofs]
        ctx = CellContext(ctx.mesh, ctx.tri[dofs], lam, (ctx.x[dofs], ctx.y[dofs]))
    return as_field(f).values(ctx)[:, 0].copy()


@pytest.mark.parametrize("elem", ["P1", "P0"])
@pytest.mark.parametrize("c", [0.0, -0.0, 2.5, -3e300, 5e-324])
def test_a_constant_is_interpolated_with_the_bits_of_the_site_path(square10, elem, c):
    from femscript.fespace import dof_values
    Vh = FeSpace(square10, elem)
    dofs = np.array([7, 0, 3, 3, Vh.ndof - 1])
    for sel in (None, dofs):
        got = dof_values(Vh, Constant(c), sel)
        ref = _interpolated_sites(Vh, Constant(c), sel)
        assert got.dtype == ref.dtype and np.array_equal(got.view(np.uint64),
                                                         ref.view(np.uint64))
    assert np.array_equal(dof_values(Vh, c).view(np.uint64),
                          _interpolated_sites(Vh, c).view(np.uint64))


@pytest.mark.parametrize("c", [np.inf, -np.inf, np.nan])
def test_a_non_finite_dirichlet_constant_names_a_pinned_vertex(square10, c):
    Vh = FeSpace(square10, "P1")
    form = VarForm(dirichlet=[DirichletBC(frozenset({2}), Constant(c))])
    with pytest.raises(NumericError, match=r"^coefficient is not finite at \(1, "):
        assemble_linear(form, Vh)


# -- an invariant subtree keeps its values over whole-mesh quadrature points ---

def _invariant_tree():
    from femscript.fields import Op, Y
    return 3.0 * Op(np.sin, X * X + Y) * Op(np.cos, np.pi * Y)


def _int2d_context(mesh):
    from femscript.forms import RULES_2D
    return CellContext(mesh, slice(None), RULES_2D["default"].lam)


def test_an_invariant_tree_keeps_read_only_values_computed_once(monkeypatch):
    mesh = build_square(6, 6)
    f = _invariant_tree()
    first = f.values(_int2d_context(mesh))

    def computed(ctx):
        raise RuntimeError("coordinates computed")
    monkeypatch.setattr(CellContext, "_coordinates", computed)
    again = f._cells(_int2d_context(mesh))
    assert not again.flags.writeable
    assert np.array_equal(again, first)
    with pytest.raises(ValueError):
        again[0, 0] = 0.0


def test_an_invariant_tree_on_two_meshes_in_turn_gives_each_its_values():
    from femscript.studies import circle_border
    meshes = [build_square(6, 6), build_from_borders([circle_border(20)])]
    f = _invariant_tree()
    for mesh in meshes + meshes:
        ref = _invariant_tree().values(_int2d_context(mesh))
        got = f.values(_int2d_context(mesh))
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


def test_only_the_outermost_invariant_node_keeps_and_only_over_int2d(square10):
    from femscript.fespace import interpolate
    Vh = FeSpace(square10, "P1")
    g = interpolate(Vh, lambda x, y: x - y)
    inner = _invariant_tree()
    f = g * inner + 1.0          # the FE function keeps the root from being invariant
    assert inner.invariant and not f.invariant
    f.values(_int2d_context(square10))
    assert f._kept is None and inner._kept is not None
    assert all(op._kept is None for op in inner.operands)
    edge = _invariant_tree()
    integrate_1d(square10, {1, 2}, edge)        # edge contexts keep nothing
    interpolate(Vh, edge)                       # nor do DOF sites
    assert edge._kept is None
    # an FE function written in place is read again, the kept part reused
    g.dofs[:] = np.cos(square10.points[:, 0])
    got = f.values(_int2d_context(square10))
    ref = (g * _invariant_tree() + 1.0).values(_int2d_context(square10))
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


def test_a_mesh_is_freed_while_a_field_evaluated_on_it_lives():
    import gc
    import weakref
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        mesh = build_square(4, 4)
        f = _invariant_tree()
        assert np.isfinite(integrate_2d(mesh, f))
        ref = weakref.ref(mesh)
        del mesh
        assert ref() is None
        assert f._kept[0]() is None
        assert np.isfinite(integrate_2d(build_square(3, 3), f))
    finally:
        if was_enabled:
            gc.enable()


# -- one type per concept: an FE function is a field, U and V are forms ---------

def _assembled(expr, Vh):
    if expr.has_trial():
        return assemble_bilinear(bilinear(expr), Vh, Vh).to_dense()
    return assemble_linear(VarForm(linear_terms=[FormTerm("int2d", expr)]), Vh)


@pytest.mark.parametrize("plain, wrapped", [
    (lambda uh: uh * V, lambda uh: as_form(as_field(uh)) * V),
    (lambda uh: V * uh, lambda uh: V * as_form(as_field(uh))),
    (lambda uh: Constant(2.0) * V, lambda uh: as_form(as_field(Constant(2.0))) * V),
    (lambda uh: 2 * U * V, lambda uh: as_form(as_field(2)) * U * V),
    (lambda uh: U * uh * V, lambda uh: U * as_form(as_field(uh)) * V),
], ids=["uh*v", "v*uh", "Constant*v", "2*u*v", "u*uh*v"])
def test_fields_and_forms_combine_without_wrappers(square10, plain, wrapped):
    Vh = FeSpace(square10, "P1")
    uh = Vh.function(1.0 + square10.points[:, 0] * square10.points[:, 1])
    assert np.array_equal(_assembled(plain(uh), Vh), _assembled(wrapped(uh), Vh))


def test_fe_function_difference_integrates_as_its_wrapped_spelling(square10):
    from femscript.fespace import interpolate
    Vh = FeSpace(square10, "P1")
    uh = interpolate(Vh, lambda x, y: np.sin(x) * y)
    uex = interpolate(Vh, lambda x, y: x * y)
    d, dw = uh - uex, as_field(uh) - as_field(uex)
    assert integrate_2d(square10, d * d) == integrate_2d(square10, dw * dw)
    assert as_field(uh) is uh


def test_fe_function_of_another_mesh_in_an_integrand_rejected(square10, square16):
    Vh = FeSpace(square10, "P1")
    g = FeSpace(square16, "P1").function(1.0)
    with pytest.raises(InvalidArgumentError):
        _assembled(g * V, Vh)
    with pytest.raises(InvalidArgumentError):
        _assembled(U * g * V, Vh)
    with pytest.raises(InvalidArgumentError):
        integrate_2d(square10, g * g)


# -- a linear form assembled again applies its plan ----------------------------

def _heat_source():
    from femscript.fields import Op, Y
    return Constant(1.0) * Op(np.sin, np.pi * X) * Op(np.sin, np.pi * Y) * 1.0


def _fe(space, fn):
    from femscript.fespace import interpolate
    return interpolate(space, fn)


def _plan_cases(mesh):
    Vh, Ph = FeSpace(mesh, "P1"), FeSpace(mesh, "P0")
    uold = _fe(Vh, lambda x, y: np.sin(3 * x) * y + 0.5)
    g = _fe(Vh, lambda x, y: np.exp(x - y))
    w = _fe(Ph, lambda x, y: 1.0 + x * y)
    return Vh, uold, {
        # the problem's negated right-hand side of the heat listing
        "heat": [FormTerm("int2d", -(-(as_form((uold * 1.0) / 0.01 + _heat_source()) * V)))],
        "-(c*uold)*v": [FormTerm("int2d", -(2.5 * uold) * V)],
        "int1d": [FormTerm("int1d", (uold - 0.5 * X) * V, frozenset({2}))],
        "P0": [FormTerm("int2d", w * V, quad="order5")],
        "two FE functions": [FormTerm("int2d", (uold + g / 3.0) * V)],
    }


def _agree(got, ref, pinned=()):
    """Pinned entries bit for bit, the others to 1e-13 of their largest."""
    free = np.ones(len(ref), dtype=bool)
    free[list(pinned)] = False
    return (np.array_equal(got[~free], ref[~free]) and
            np.abs(got - ref)[free].max() <= 1e-13 * np.abs(ref[free]).max())


@pytest.mark.parametrize("case", ["heat", "-(c*uold)*v", "int1d", "P0", "two FE functions"])
def test_a_reassembled_linear_form_applies_its_plan(square10, monkeypatch, case):
    from femscript import forms
    Vh, uold, cases = _plan_cases(square10)
    bc = [DirichletBC(frozenset({1, 3}), Constant(0.25))]
    pinned = dirichlet_dofs(Vh, {1, 3})

    def fresh():
        return assemble_linear(VarForm(linear_terms=cases[case], dirichlet=bc), Vh)
    form = VarForm(linear_terms=cases[case], dirichlet=bc)
    first = assemble_linear(form, Vh)
    assert np.array_equal(first, fresh())
    assemble_linear(form, Vh)                         # builds the plan
    calls = []
    monkeypatch.setattr(forms, "_element_sums", lambda *a: calls.append(a))
    again = assemble_linear(form, Vh)
    assert calls == []
    assert _agree(again, first, pinned)
    monkeypatch.undo()
    uold.dofs[:] = np.cos(square10.points[:, 0])      # written in place
    changed = assemble_linear(form, Vh)
    assert _agree(changed, fresh(), pinned)
    assert case == "P0" or not _agree(changed, first, pinned)
    uold.dofs = 1.0 + square10.points[:, 1]           # a new array
    assert _agree(assemble_linear(form, Vh), fresh(), pinned)


@pytest.mark.parametrize("coef", ["uold*uold", "sin(uold)", "function", "x*uold", "dx(uold)"])
def test_a_product_that_does_not_split_keeps_the_element_path(square10, coef):
    from femscript.fields import Op
    Vh, uold, _ = _plan_cases(square10)
    f = {"uold*uold": uold * uold, "sin(uold)": Op(np.sin, uold),
         "function": as_field(lambda x, y: x + y * y), "x*uold": X * uold,
         "dx(uold)": dx(uold)}[coef]
    form = VarForm(linear_terms=[FormTerm("int2d", -(f * V) / 4.0)])
    first = assemble_linear(form, Vh)
    for _ in range(2):
        assert np.array_equal(assemble_linear(form, Vh).view(np.uint64), first.view(np.uint64))
    # beside a product that splits
    terms = [FormTerm("int2d", f * V), FormTerm("int2d", -uold * V)]
    mixed = VarForm(linear_terms=terms)
    for _ in range(3):
        assert _agree(assemble_linear(mixed, Vh), assemble_linear(VarForm(linear_terms=terms), Vh))


# 1e307 is finite, but uold/dt is not; the int1d case's DOF is off the
# label, where its column of K is empty, but on a triangle along it
@pytest.mark.parametrize("case, bad", [("heat", np.nan), ("heat", np.inf), ("heat", 1e307),
                                       ("int1d", np.nan), ("int1d", np.inf)])
def test_a_non_finite_dof_is_named_by_a_reused_form_as_by_a_fresh_one(square10, case, bad):
    Vh, uold, cases = _plan_cases(square10)
    form = VarForm(linear_terms=cases[case])
    x, y = square10.points.T
    k = 7 if case == "heat" else int(np.argmin(abs(x - 0.9) + abs(y - 0.5)))
    uold.dofs[k] = bad
    with pytest.raises(NumericError) as first:
        assemble_linear(form, Vh)
    uold.dofs[k] = 0.0
    assemble_linear(form, Vh)
    assemble_linear(form, Vh)
    uold.dofs[k] = bad
    with pytest.raises(NumericError) as later:
        assemble_linear(form, Vh)
    assert str(later.value) == str(first.value)
    assert str(first.value).startswith("coefficient is not finite at (")


def test_a_quotient_by_zero_is_named_by_a_reused_form_as_by_a_fresh_one(square10):
    Vh, uold, _ = _plan_cases(square10)
    form = VarForm(linear_terms=[FormTerm("int2d", (uold / Constant(0.0)) * V)])
    messages = set()
    for _ in range(3):                      # the third builds the plan
        with pytest.raises(NumericError) as err:
            assemble_linear(form, Vh)
        messages.add(str(err.value))
    assert len(messages) == 1 and messages.pop().startswith("coefficient is not finite at (")
