import numpy as np
import pytest

from femscript.errors import InvalidArgumentError, SingularMatrixError, SolverError, UnsupportedError
from femscript.linalg import (SparseMatrix, det, dot, elem_div, elem_mul, factorize,
                              matvec, outer, solve_cg, solve_lu, trace, transpose)


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
    A = SparseMatrix.identity(7)
    b = np.arange(7.0)
    assert np.allclose(solve_lu(A, b), b, atol=0)


def test_lu_2x2():
    A = SparseMatrix.from_dense(np.array([[1.0, 2.0], [-2.0, 1.0]]))
    x = solve_lu(A, np.array([5.0, 0.0]))
    assert np.allclose(x, [1.0, 2.0], atol=1e-14)


def test_lu_cg_cross_agreement_random_spd():
    A, b = random_spd(50)
    x_lu = solve_lu(A, b)
    res = solve_cg(A, b, tol=1e-12)
    assert res.converged
    assert np.linalg.norm(res.x - x_lu) <= 1e-8 * np.linalg.norm(x_lu)


def test_lu_residual_contract():
    A, b = random_spd(80, seed=3)
    x = solve_lu(A, b)
    norm_A = np.abs(A.to_dense()).sum(axis=1).max()
    res = np.abs(A @ x - b).max()
    assert res <= 1e-9 * (norm_A * np.abs(x).max() + np.abs(b).max())


def test_lu_factorization_cached_and_reused():
    A, b = random_spd(20, seed=5)
    f1 = factorize(A)
    f2 = factorize(A)
    assert f1 is f2
    x1 = f1.solve(b)
    x2 = solve_lu(A, 2 * b)
    assert np.allclose(2 * x1, x2, atol=1e-12)


def test_lu_singular_matrix():
    A = SparseMatrix.from_coo([0, 1], [0, 1], [1.0, 0.0], (2, 2))
    with pytest.raises(SingularMatrixError):
        solve_lu(A, np.ones(2))


def test_lu_requires_square():
    A = SparseMatrix.from_coo([0, 1], [0, 1], [1.0, 1.0], (2, 3))
    with pytest.raises(InvalidArgumentError):
        solve_lu(A, np.ones(3))


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
    x_lu = solve_lu(A, b)
    res = solve_cg(A, b, tol=1e-13)
    assert np.abs(res.x - x_lu).max() <= 1e-9


def test_cg_maxit_zero_returns_initial_guess():
    A = SparseMatrix.identity(4)
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


# -- dense helpers -----------------------------------------------------------------

def test_dot():
    assert dot([1, 2, 3], [2, 3, 4]) == 20.0


def test_trace_of_outer_equals_dot():
    assert trace(outer([1, 2, 3], [2, 3, 4])) == 20.0


def test_trace_outer_dot_property():
    rng = np.random.default_rng(11)
    for _ in range(25):
        u = rng.standard_normal(6)
        v = rng.standard_normal(6)
        assert abs(trace(outer(u, v)) - dot(u, v)) <= 1e-12


def test_elementwise_ops():
    assert np.allclose(elem_div([1, 2, 3], [2, 3, 4]), [0.5, 2 / 3, 0.75], atol=1e-16)
    assert np.allclose(elem_mul([1, 2, 3], [2, 3, 4]), [2, 6, 12], atol=0)
    with pytest.raises(InvalidArgumentError):
        elem_div([1, 2], [1, 2, 3])


def test_det_small_only():
    assert det(np.array([[4.0]])) == 4.0
    assert det(np.array([[1.0, 2.0], [-2.0, 1.0]])) == 5.0
    with pytest.raises(UnsupportedError):
        det(np.eye(3))


def test_transpose_involution():
    M = np.arange(6.0).reshape(2, 3)
    assert np.array_equal(transpose(transpose(M)), M)


def test_matvec_shape_check():
    with pytest.raises(InvalidArgumentError):
        matvec(np.eye(3), np.ones(4))


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
    bad = [
        lambda: SparseMatrix([0, 2], [1, 0], [1.0, 1.0], (1, 2)),  # decreasing columns
        lambda: SparseMatrix([0, 1], [5], [1.0], (1, 2)),  # column out of range
        lambda: SparseMatrix.from_coo([-1], [0], [1.0], (2, 2)),  # negative row
        lambda: SparseMatrix.from_coo([0], [-1], [1.0], (2, 2)),  # negative column
        lambda: SparseMatrix.from_coo([0], [7], [1.0], (2, 2)),  # column out of range
        lambda: SparseMatrix.from_coo([5], [0], [1.0], (2, 2)),  # row out of range
        lambda: SparseMatrix.identity(2).with_diagonal([2], 1.0),  # pinned row out of range
        lambda: SparseMatrix.identity(2).with_diagonal([-1], 1.0),  # negative pinned row
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
