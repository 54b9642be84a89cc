import numpy as np
import pytest
from scipy.sparse.linalg import splu

from femscript import studies
from femscript.errors import (InvalidArgumentError, NumericError, SingularMatrixError, SolverError,
                             UnsupportedError)
from femscript.linalg import SparseMatrix, det, dot, factorize, solve_cg, trace
from femscript.studies import ThetaSchemeConfig


def tridiag(n, lo, d, hi):
    rows, cols, vals = [], [], []
    for i in range(n):
        rows.append(i); cols.append(i); vals.append(d)
        if i > 0:
            rows.append(i); cols.append(i - 1); vals.append(lo)
        if i < n - 1:
            rows.append(i); cols.append(i + 1); vals.append(hi)
    return SparseMatrix.from_coo(rows, cols, vals, (n, n))


def random_spd(n, seed=0):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, n))
    M = B @ B.T + n * np.eye(n)
    return SparseMatrix.from_dense(M), rng.standard_normal(n)


# -- LU -----------------------------------------------------------------------

def test_lu_identity():
    A = SparseMatrix.from_dense(np.eye(7))
    b = np.arange(7.0)
    assert np.allclose(factorize(A).solve(b), b, atol=0)


def test_lu_2x2():
    A = SparseMatrix.from_dense(np.array([[1.0, 2.0], [-2.0, 1.0]]))
    x = factorize(A).solve(np.array([5.0, 0.0]))
    assert np.allclose(x, [1.0, 2.0], atol=1e-14)


def test_lu_cg_cross_agreement_random_spd():
    A, b = random_spd(50)
    x_lu = factorize(A).solve(b)
    res = solve_cg(A, b, tol=1e-12)
    assert res.converged
    assert np.linalg.norm(res.x - x_lu) <= 1e-8 * np.linalg.norm(x_lu)


def test_lu_residual_contract():
    A, b = random_spd(80, seed=3)
    x = factorize(A).solve(b)
    norm_A = np.abs(A.to_dense()).sum(axis=1).max()
    res = np.abs(A @ x - b).max()
    assert res <= 1e-9 * (norm_A * np.abs(x).max() + np.abs(b).max())


def test_lu_factorization_cached_and_reused():
    A, b = random_spd(20, seed=5)
    f1 = factorize(A)
    f2 = factorize(A)
    assert f1 is f2
    x1 = f1.solve(b)
    x2 = factorize(A).solve(2 * b)
    assert np.allclose(2 * x1, x2, atol=1e-12)


def test_lu_singular_matrix():
    A = SparseMatrix.from_coo([0, 1], [0, 1], [1.0, 0.0], (2, 2))
    with pytest.raises(SingularMatrixError):
        factorize(A).solve(np.ones(2))


@pytest.mark.parametrize("rows, cols, vals", [
    ([0], [0], [1.0]),                          # a diagonal with an entry missing
    ([0, 0, 1], [0, 1, 1], [1.0, 2.0, 0.0]),    # a zero pivot in SuperLU
])
def test_lu_singular_matrix_raises_when_factorized(rows, cols, vals):
    A = SparseMatrix.from_coo(rows, cols, vals, (2, 2))
    with pytest.raises(SingularMatrixError):
        factorize(A)


def test_lu_nan_diagonal_raises_at_solve():
    A = SparseMatrix.from_coo([0, 1], [0, 1], [1.0, np.nan], (2, 2))
    lu = factorize(A)
    assert lu.method == "diagonal"
    with pytest.raises(SingularMatrixError):
        lu.solve(np.ones(2))


@pytest.mark.parametrize("method", ["diagonal", "MMD_AT_PLUS_A"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_lu_names_a_right_hand_side_that_is_not_finite(method, bad):
    A = tridiag(4, 0.0 if method == "diagonal" else -1.0, 2.0, 0.0)
    if method == "diagonal":
        A = SparseMatrix.from_dense(A.to_dense())
    lu = factorize(A)
    assert lu.method == method
    b = np.ones(4)
    b[2] = bad
    with pytest.raises(NumericError, match=f"^right-hand side is not finite at entry 2: {bad:g}$"):
        lu.solve(b)


@pytest.mark.parametrize("b", [np.ones(3), np.ones((2, 2)), 1.0])
def test_solves_need_a_vector_of_matching_length(b):
    A = tridiag(2, -1.0, 2.0, -1.0)
    with pytest.raises(InvalidArgumentError, match="right-hand side"):
        factorize(A).solve(b)
    with pytest.raises(InvalidArgumentError, match="right-hand side"):
        solve_cg(A, b)
    with pytest.raises(InvalidArgumentError, match="right-hand side"):
        factorize(SparseMatrix.from_dense(np.eye(2))).solve(b)


def test_lu_requires_square():
    A = SparseMatrix.from_coo([0, 1], [0, 1], [1.0, 1.0], (2, 3))
    with pytest.raises(InvalidArgumentError):
        factorize(A).solve(np.ones(3))


# -- the direct method follows the stored pattern -------------------------------

def factorized_by(monkeypatch, run):
    """The (matrix, factorization) pairs that a study function builds."""
    seen = []

    def record(A):
        seen.append((A, factorize(A)))
        return seen[-1][1]

    monkeypatch.setattr(studies, "factorize", record)
    run()
    assert seen
    return seen


def test_theta0_heat_matrix_is_divided_bit_identically(monkeypatch):
    [(A, lu)] = factorized_by(
        monkeypatch, lambda: studies.run_heat_single(ThetaSchemeConfig(theta=0.0, N=16)))
    b = np.random.default_rng(2).standard_normal(A.shape[0])
    assert lu.method == "diagonal"
    assert np.array_equal(lu.solve(b), splu(A._csr.tocsc()).solve(b))


def test_square_stiffness_matrices_get_minimum_degree(monkeypatch):
    seen = factorized_by(monkeypatch, lambda: studies.run_poisson_study(2))
    assert [lu.method for _, lu in seen] == ["MMD_AT_PLUS_A"] * 2


def test_disk_newton_jacobians_get_minimum_degree(disk_meshes, monkeypatch):
    seen = factorized_by(monkeypatch, lambda: studies.run_fixed_point(
        "ellnl", 128, mesh=disk_meshes[3], method="newton"))
    assert {lu.method for _, lu in seen} == {"MMD_AT_PLUS_A"}


@pytest.mark.parametrize("problem", ["ellnl", "ellnl_dbc"])
def test_newton_jacobians_reuse_one_ordering_bit_identically(disk_meshes, monkeypatch, problem):
    seen = factorized_by(monkeypatch, lambda: studies.run_fixed_point(
        problem, 32, mesh=disk_meshes[1], method="newton"))
    assert len(seen) > 1 and all(A._order is seen[0][0]._order for A, _ in seen)
    b = np.random.default_rng(4).standard_normal(seen[0][0].shape[0])
    for A, lu in seen:
        csr = A._csr
        fresh = factorize(SparseMatrix(csr.indptr, csr.indices, csr.data, A.shape))
        assert np.array_equal(lu.solve(b), fresh.solve(b))
        assert lu.nnz == fresh.nnz


def test_a_reused_ordering_keeps_the_singular_errors():
    A = tridiag(6, -1.0, 3.0, -1.0)
    assert factorize(A).nnz > A.shape[0]
    assert A._order[0].base is None             # the cell keeps no factorization alive
    d = np.ones(6)
    d[2] = 0.0                                  # an exactly zero column
    for B in (A.scale(0.0), A.scale_columns(d)):
        copy = SparseMatrix(B._csr.indptr, B._csr.indices, B._csr.data, B.shape)
        with pytest.raises(SingularMatrixError) as fresh:
            factorize(copy)
        with pytest.raises(SingularMatrixError) as reused:
            factorize(B)
        assert str(reused.value) == str(fresh.value)
        assert B._order is A._order
    tiny = A.scale(1e-320)                      # subnormal pivots: the solve overflows
    with pytest.raises(SingularMatrixError, match="non-finite"):
        factorize(tiny).solve(np.ones(6))
    assert tiny._order is A._order


def test_an_overflowing_diagonal_solve_names_its_entry():
    lu = factorize(SparseMatrix.from_dense([[1e-300, 0.0], [0.0, 1.0]]))
    assert lu.method == "diagonal"
    with pytest.raises(NumericError, match="solution overflows at entry 0$"):
        lu.solve([1e10, 1.0])
    assert np.array_equal(lu.solve([1e-10, 1.0]), [1e290, 1.0])


def test_unsymmetric_pattern_is_solved():
    A = SparseMatrix.from_coo([0, 1, 1, 2], [0, 0, 1, 2], [2.0, 1.0, 3.0, 4.0], (3, 3))
    assert np.array_equal(factorize(A).solve(np.array([2.0, 4.0, 8.0])), [1.0, 1.0, 2.0])


# -- CG ------------------------------------------------------------------------

def test_cg_diagonal():
    n = 12
    A = SparseMatrix.from_coo(range(n), range(n), np.arange(1.0, n + 1), (n, n))
    b = np.ones(n)
    res = solve_cg(A, b, tol=1e-12)
    assert res.converged and res.iterations <= n
    assert np.abs(res.x - 1.0 / np.arange(1.0, n + 1)).max() <= 1e-12


def test_cg_tridiagonal_matches_lu():
    A = tridiag(10, -1.0, 2.0, -1.0)
    b = np.zeros(10)
    b[0] = 1.0
    x_lu = factorize(A).solve(b)
    res = solve_cg(A, b, tol=1e-13)
    assert np.abs(res.x - x_lu).max() <= 1e-9


def test_cg_maxit_zero_returns_initial_guess():
    A = SparseMatrix.from_dense(np.eye(4))
    res = solve_cg(A, np.ones(4), maxit=0)
    assert not res.converged
    assert res.iterations == 0
    assert np.array_equal(res.x, np.zeros(4))


def test_cg_indefinite_breakdown():
    A = SparseMatrix.from_dense(np.array([[-2.0, 0.0], [0.0, -3.0]]))
    with pytest.raises(SolverError):
        solve_cg(A, np.ones(2))


def test_cg_reports_nonconvergence():
    A = tridiag(60, -1.0, 2.0, -1.0)
    b = np.ones(60)
    res = solve_cg(A, b, tol=1e-14, maxit=3)
    assert not res.converged and res.iterations == 3


def _former_cg(A, b, tol=1e-10, maxit=None):
    """The conjugate gradient as it was written before its updates went in
    place: out-of-place vectors and np.linalg.norm."""
    n = A.shape[0]
    if maxit is None:
        maxit = 10 * n
    x = np.zeros(n)
    bnorm = float(np.linalg.norm(b))
    diag = A.diagonal().astype(float)
    inv_diag = np.where(np.abs(diag) > 0, 1.0 / np.where(diag == 0, 1.0, diag), 1.0)
    r = b.copy()
    z = inv_diag * r
    p = z.copy()
    rz = float(r @ z)
    rel = 1.0
    for it in range(1, maxit + 1):
        Ap = A @ p
        alpha = rz / float(p @ Ap)
        x += alpha * p
        r -= alpha * Ap
        rel = float(np.linalg.norm(r)) / bnorm
        if rel <= tol:
            return x, True, it, rel
        z = inv_diag * r
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x, False, maxit, rel


def _cg_cases():
    from femscript.fespace import FeSpace
    from femscript.forms import (DirichletBC, FormTerm, TestFunction, TrialFunction, VarForm,
                                 as_form, assemble_bilinear, dx, dy)
    from femscript.fields import Constant
    mesh = studies.disk_mesh(16)
    Vh, u, v = FeSpace(mesh, "P1"), TrialFunction(), TestFunction()
    w = Vh.function(1.0 + mesh.points[:, 0] ** 2)
    form = VarForm([FormTerm("int2d", dx(u) * dx(v) + dy(u) * dy(v) + as_form(u) * w * v)],
                   dirichlet=[DirichletBC(frozenset({1}), Constant(0.0))])
    disk = assemble_bilinear(form, Vh, Vh)
    rng = np.random.default_rng(11)
    spd, b = random_spd(40, seed=3)
    return {"tridiagonal": (tridiag(200, -1.0, 2.0, -1.0), np.ones(200), {}),
            "random spd": (spd, b, {"tol": 1e-13}),
            "penalized disk": (disk, rng.standard_normal(Vh.ndof), {}),
            "truncated by maxit": (disk, rng.standard_normal(Vh.ndof), {"maxit": 7})}


@pytest.mark.parametrize("case", ["tridiagonal", "random spd", "penalized disk",
                                  "truncated by maxit"])
def test_in_place_cg_matches_the_former_loop_bit_for_bit(case):
    A, b, kw = _cg_cases()[case]
    res = solve_cg(A, b, **kw)
    x, converged, iterations, rel = _former_cg(A, b, **kw)
    assert res.converged == converged and res.iterations == iterations
    assert res.converged == (case != "truncated by maxit")
    assert np.array_equal(res.x.view(np.uint64), x.view(np.uint64))
    assert res.relative_residual == rel


@pytest.mark.parametrize("where, bad", [("rhs", np.nan), ("rhs", np.inf), ("rhs", -np.inf),
                                        ("matrix", np.nan), ("matrix", np.inf)])
def test_cg_stops_at_once_on_a_value_that_is_not_finite(where, bad):
    from conftest import time_bound
    n = 2738
    A, b = tridiag(n, -1.0, 2.01, -1.0), np.ones(n)
    if where == "rhs":
        b[5] = bad
    else:
        A._csr.data[A._csr.indptr[5] + 1] = bad      # the diagonal of row 5
    with time_bound(5), pytest.raises(SolverError, match="breakdown"):
        solve_cg(A, b)


# -- dense helpers -----------------------------------------------------------------

def test_dot():
    assert dot([1, 2, 3], [2, 3, 4]) == 20.0


def test_trace_of_outer_equals_dot():
    assert trace(np.outer([1, 2, 3], [2, 3, 4])) == 20.0


def test_trace_outer_dot_property():
    rng = np.random.default_rng(11)
    for _ in range(25):
        u = rng.standard_normal(6)
        v = rng.standard_normal(6)
        assert abs(trace(np.outer(u, v)) - dot(u, v)) <= 1e-12


def test_det_small_only():
    assert det(np.array([[4.0]])) == 4.0
    assert det(np.array([[1.0, 2.0], [-2.0, 1.0]])) == 5.0
    with pytest.raises(UnsupportedError):
        det(np.eye(3))


# -- CSR container ------------------------------------------------------------------

def test_from_coo_sums_duplicates():
    A = SparseMatrix.from_coo([0, 0, 1], [1, 1, 0], [2.0, 3.0, 1.0], (2, 2))
    assert A.nnz == 2
    assert A.to_dense()[0, 1] == 5.0


def test_from_coo_sums_in_stable_row_col_order():
    # Reference: a stable lexsort by (row, col), then one np.add.reduceat per
    # run of equal entries; assembly's bit-for-bit determinism rests on it.
    rng = np.random.default_rng(2)
    rows = rng.integers(0, 5, 400)
    cols = rng.integers(0, 4, 400)
    vals = rng.standard_normal(400) * 10.0 ** rng.integers(-8, 8, 400)
    order = np.lexsort((cols, rows))
    r, c, x = rows[order], cols[order], vals[order]
    starts = np.flatnonzero(np.r_[True, (r[1:] != r[:-1]) | (c[1:] != c[:-1])])
    ref = np.zeros((5, 4))
    ref[r[starts], c[starts]] = np.add.reduceat(x, starts)
    assert np.array_equal(SparseMatrix.from_coo(rows, cols, vals, (5, 4)).to_dense(), ref)


def test_csr_invariants_validated():
    eye2 = SparseMatrix.from_dense(np.eye(2))
    bad = [
        lambda: SparseMatrix([0, 2], [1, 0], [1.0, 1.0], (1, 2)),  # decreasing columns
        lambda: SparseMatrix([0, 1], [5], [1.0], (1, 2)),  # column out of range
        lambda: SparseMatrix.from_coo([-1], [0], [1.0], (2, 2)),  # negative row
        lambda: SparseMatrix.from_coo([0], [-1], [1.0], (2, 2)),  # negative column
        lambda: SparseMatrix.from_coo([0], [7], [1.0], (2, 2)),  # column out of range
        lambda: SparseMatrix.from_coo([5], [0], [1.0], (2, 2)),  # row out of range
        lambda: eye2.with_diagonal([2], 1.0),  # pinned row out of range
        lambda: eye2.with_diagonal([-1], 1.0),  # negative pinned row
    ]
    for build in bad:
        with pytest.raises(InvalidArgumentError):
            build()


def test_matvec_and_transpose_roundtrip():
    A = SparseMatrix.from_dense(np.array([[1.0, 2.0, 0.0], [0.0, 3.0, 4.0]]))
    x = np.array([1.0, 1.0, 1.0])
    assert np.array_equal(A @ x, [3.0, 7.0])
    assert np.array_equal(A.T.to_dense(), A.to_dense().T)
    assert np.array_equal(A.T.T.to_dense(), A.to_dense())


def test_with_diagonal_adds_missing_entries():
    A = SparseMatrix.from_coo([0], [1], [2.0], (2, 2))
    B = A.with_diagonal(np.array([0, 1]), 7.0)
    D = B.to_dense()
    assert D[0, 0] == 7.0 and D[1, 1] == 7.0 and D[0, 1] == 2.0
    # stored zeros stay stored, in the pinned rows and elsewhere
    Z = SparseMatrix.from_coo([0, 0, 1], [0, 1, 0], [1.0, 0.0, 0.0], (2, 2))
    P = Z.with_diagonal([0, 1], 5.0)
    assert P.nnz == 4
    assert np.array_equal(P.to_dense(), [[5.0, 0.0], [0.0, 5.0]])


def test_matrix_add_and_scale():
    A = SparseMatrix.from_dense(np.array([[1.0, 0.0], [0.0, 2.0]]))
    B = SparseMatrix.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
    S = A + B
    assert np.array_equal(S.to_dense(), [[1.0, 1.0], [1.0, 2.0]])
    assert np.array_equal(A.scale(-2).to_dense(), [[-2.0, 0.0], [0.0, -4.0]])
    # entries that sum to exactly zero, and zero scalings, keep the pattern
    C = SparseMatrix.from_dense(np.array([[-1.0, 0.0], [0.0, -2.0]]))
    Zsum = A + C
    assert Zsum.nnz == 2 and not Zsum.to_dense().any()
    assert (S + B.scale(-1.0)).nnz == S.nnz
    assert A.scale(0.0).nnz == A.nnz


def _coo_sum(A, B):
    # the general path of `+`: both operands' entries through from_coo
    rows = [np.repeat(np.arange(M.shape[0]), np.diff(M._csr.indptr)) for M in (A, B)]
    return SparseMatrix.from_coo(np.concatenate(rows),
                                 np.concatenate([A._csr.indices, B._csr.indices]),
                                 np.concatenate([A._csr.data, B._csr.data]), A.shape)


def _same_bits(S, R):
    return (np.array_equal(S._csr.indptr, R._csr.indptr)
            and np.array_equal(S._csr.indices, R._csr.indices)
            and np.array_equal(S._csr.data.view(np.uint64), R._csr.data.view(np.uint64)))


def test_same_pattern_and_empty_sums_match_the_coo_path_bit_for_bit():
    rng = np.random.default_rng(19)
    for _ in range(30):
        n, m = rng.integers(1, 9, 2)
        mask = rng.random((n, m)) < 0.5
        rows, cols = np.nonzero(mask)
        a = rng.standard_normal(len(rows)) * 10.0 ** rng.integers(-12, 12, len(rows))
        b = rng.standard_normal(len(rows)) * 10.0 ** rng.integers(-12, 12, len(rows))
        kind = rng.integers(0, 3, len(rows))
        a[kind == 0] = 0.0                  # stored zeros
        b[kind == 1] = -a[kind == 1]        # entries that cancel to exactly zero
        b[rng.random(len(rows)) < 0.1] = -0.0
        A = SparseMatrix.from_coo(rows, cols, a, (n, m))
        B = SparseMatrix.from_coo(rows, cols, b, (n, m))
        empty = SparseMatrix.from_coo([], [], [], (n, m))
        for S, T in ((A, B), (B, A), (A, empty), (empty, B), (empty, empty)):
            assert _same_bits(S + T, _coo_sum(S, T))
        assert (A + B).nnz == len(rows)
        # the shortcut shares the operand's pattern instead of sorting a copy
        assert not len(rows) or (np.shares_memory((A + B)._csr.indices, A._csr.indices)
                                 and np.shares_memory((empty + B)._csr.indices,
                                                      B._csr.indices))


# -- sums on a contained pattern ------------------------------------------------

def _five_point_pattern(k):
    """(rows, cols) of the 5-point pattern on a k x k grid."""
    r, c = np.divmod(np.arange(k * k), k)
    return np.nonzero((np.abs(r[:, None] - r[None, :]) + np.abs(c[:, None] - c[None, :])) <= 1)


def _signed_zeros(rng):
    """Random values a fifth of which are 0.0 and a fifth -0.0."""
    def vals(m):
        v = rng.standard_normal(m) * 10.0 ** rng.integers(-8, 8, m)
        kind = rng.integers(0, 5, m)
        v[kind == 0] = 0.0
        v[kind == 1] = -0.0
        return v
    return vals


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_sum_on_a_contained_pattern_matches_the_coo_path_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    vals = _signed_zeros(rng)
    rows, cols = _five_point_pattern(5)
    p, d = vals(len(rows)), vals(25)
    # both signs of zero against both, on the diagonal
    p[np.flatnonzero(rows == cols)[:4]], d[:4] = [-0.0, -0.0, 0.0, 0.0], [-0.0, 0.0, -0.0, 0.0]
    P = SparseMatrix.from_coo(rows, cols, p, (25, 25))
    D = SparseMatrix.from_coo(np.arange(25), np.arange(25), d, P.shape)
    sub = np.sort(rng.choice(P._keys(), 40, replace=False))     # a random sub-pattern
    Q = SparseMatrix.from_coo(sub // 25, sub % 25, vals(40), P.shape)
    for S, T in ((D, P), (P, D), (Q, P), (P, Q)):
        R = S + T
        assert _same_bits(R, _coo_sum(S, T))
        big = S if S.nnz >= T.nnz else T
        assert R._order is big._order and R.nnz == big.nnz
    R = D + P
    assert np.array_equal(np.signbit(R._csr.data[np.isin(R._keys(), 26 * np.arange(4))]),
                          [True, False, False, False])
    R = D + Q                                   # not nested: a union on a new pattern
    assert _same_bits(R, _coo_sum(D, Q))
    assert R._order is not D._order and R._order is not Q._order
    # a complex operand on a real pattern
    C = SparseMatrix.from_coo(np.arange(25), np.arange(25), vals(25) * 1j, P.shape)
    assert np.array_equal((P + C).to_dense(), P.to_dense() + C.to_dense())


def test_same_size_patterns_that_are_not_nested_are_summed_as_a_union():
    rng = np.random.default_rng(7)
    vals = _signed_zeros(rng)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        keys = rng.permutation(n * n)[:2 * n]
        a, b = np.sort(keys[:n]), np.sort(keys[n:])        # equal sizes, disjoint
        b[: n // 2] = a[: n // 2]                           # overlapping in part
        b = np.sort(b)
        A = SparseMatrix.from_coo(a // n, a % n, vals(n), (n, n))
        B = SparseMatrix.from_coo(b // n, b % n, vals(n), (n, n))
        for S, T in ((A, B), (B, A)):
            R = S + T
            assert _same_bits(R, _coo_sum(S, T))
            assert R._order is not S._order and R._order is not T._order


# -- the finiteness test --------------------------------------------------------

@pytest.mark.parametrize("x", [
    [], np.array(1.0), np.array(np.nan), np.array(-np.inf), [1.0, 2.0], [np.nan, 1.0],
    [1.0, np.inf], [-np.inf, np.inf], [1e200, 1.0], [1e200, np.nan], [1e308, -1e308],
    np.full((3, 4), 1e300), [[1.0, 2.0], [3.0, np.nan]], [1 + 2j, 3.0], [1e200j, 1.0],
    [complex(1, np.nan), 2.0], [complex(np.inf, 0.0)], [complex(0.0, -np.inf)],
    np.broadcast_to(np.array([[1.0], [np.nan]]), (2, 3)), np.arange(5),
])
def test_the_finiteness_helper_answers_as_isfinite_all(x):
    from femscript.linalg import _all_finite
    assert _all_finite(np.asarray(x)) is bool(np.isfinite(x).all())


# -- complex right-hand sides ---------------------------------------------------

@pytest.mark.parametrize("M", [[[2.0, 0.0], [0.0, 4.0]], [[2.0, 1.0], [1.0, 4.0]],
                               [[2.0 + 1.0j, 0.0], [0.0, 4.0]], [[2.0, 1.0j], [1.0, 4.0]]],
                         ids=["real diagonal", "real SuperLU", "complex diagonal pattern",
                              "complex SuperLU"])
def test_lu_keeps_the_imaginary_part_of_a_complex_right_hand_side(M):
    M = np.array(M)
    lu = factorize(SparseMatrix.from_dense(M))
    b = np.array([1.0 + 2.0j, 3.0])
    x = lu.solve(b)
    assert x.dtype == complex and np.allclose(M @ x, b, rtol=1e-14, atol=0)
    if not np.iscomplexobj(M):      # two real solves, bit for bit
        assert np.array_equal(x.real, lu.solve(b.real)) and np.array_equal(x.imag,
                                                                          lu.solve(b.imag))
    else:                           # a real b on a complex factor
        assert np.allclose(M @ lu.solve(b.real), b.real, rtol=1e-14, atol=0)
    with pytest.raises(NumericError, match="right-hand side is not finite at entry 1"):
        lu.solve(np.array([1.0, complex(0.0, np.inf)]))


def test_cg_refuses_complex_matrices_and_right_hand_sides():
    A = tridiag(4, -1.0, 4.0, -1.0)
    with pytest.raises(UnsupportedError, match="real matrix and right-hand side"):
        solve_cg(A, np.array([1.0, 2.0j, 0.0, 1.0]))
    with pytest.raises(UnsupportedError, match="real matrix and right-hand side"):
        solve_cg(A + SparseMatrix.from_coo([0], [0], [1j], A.shape), np.ones(4))
