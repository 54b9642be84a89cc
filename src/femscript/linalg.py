"""Sparse CSR matrices, direct and conjugate-gradient solvers, dense helpers.

`SparseMatrix` wraps one `scipy.sparse.csr_matrix` and leaves every kernel
to scipy, with two exceptions kept for bit-identical results: `from_coo`
sums duplicates in a fixed order, and `+` keeps entries that sum to exactly
zero (scipy's prunes them, changing the pattern and so the LU ordering).

The direct solver chooses its method once per matrix, from the stored
pattern alone, and caches the factorization on the matrix for repeated
solves:
- a real matrix storing only diagonal entries (the lumped-mass heat
  matrix at theta = 0): x = b / d, bit-identical to SuperLU's solution;
- any other pattern: SuperLU with minimum degree on the pattern of A'+A.
  The matrices built here (stiffness matrices, mass-plus-stiffness steps,
  and the Newton Jacobians, which are symmetric in pattern but not in
  value) are all symmetric in pattern, where this ordering fills less than
  SuperLU's default COLAMD: on the 5-point square at N = 256, L+U stores
  3.5M entries against 6.3M.  relax=1 and panel_size=1 keep SuperLU from
  amalgamating supernodes, which on the N = 256 disk Jacobian takes 2.1 s
  instead of 0.028 s (one core).
SuperLU pivots partially.  Minimum degree reads only the pattern, so it runs
once per pattern: the first factorization keeps SuperLU's perm_c in the
matrix's ordering cell, which same-pattern matrices share (`SparseMatrix`),
and later ones factor the column-permuted copy in natural order.  SuperLU
postorders that copy to the identity, so their solutions are bit-identical.
The conjugate gradient is written here, Jacobi preconditioned, and serves as
the independent cross-check of the direct route on symmetric positive
definite systems.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as _sp
import scipy.sparse.linalg as _spla

from .errors import (InvalidArgumentError, NumericError, SingularMatrixError, SolverError,
                     UnsupportedError)


def _check_range(idx, bound, what):
    if len(idx) and (idx.min() < 0 or idx.max() >= bound):
        raise InvalidArgumentError(f"{what} index out of range")


def _sorted_runs(key):
    """The stable sort order of `key`, the starts of its runs of equal values
    in that order, and each run's value.  Ties keep their input order, so the
    sums of SparseMatrix.from_coo (np.add.reduceat over each run) and of
    forms._bilinear_plan's slots (np.bincount) add duplicates in a fixed order."""
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts = np.flatnonzero(np.r_[len(key) > 0, key[1:] != key[:-1]])
    return order, starts, key[starts]


def _rhs(b, n):
    """The right-hand side of an n x n solve as a float or complex vector of length n."""
    b = np.asarray(b, dtype=complex if np.iscomplexobj(b) else float)
    if b.shape != (n,):
        raise InvalidArgumentError(f"right-hand side of shape {b.shape} for {n} unknowns; "
                                   f"needs a vector of length {n}")
    return b


def _all_finite(x) -> bool:
    """np.isfinite(x).all() for a real or complex array, read from the sum of
    |x_i|^2 (one BLAS dot), which is finite only when every entry is; when it
    is not (a NaN, an infinity, or an entry beyond 1e154), entry by entry."""
    return math.isfinite(np.vdot(x, x).real) or bool(np.isfinite(x).all())


def _csr_matrix(data, indices, indptr, shape):
    # int32 indices while they fit: scipy's constructor would otherwise scan
    # and downcast int64 ones, an O(nnz) cost on every matrix built.
    idx = np.int32 if max(*shape, len(indices)) <= np.iinfo(np.int32).max else np.int64
    return _sp.csr_matrix((data, indices.astype(idx, copy=False),
                           indptr.astype(idx, copy=False)), shape=shape)


class SparseMatrix:
    """Real or complex CSR matrix; immutable once constructed.

    Column indices are strictly increasing within each row and duplicates
    are summed away at construction.  Stored zeros are never pruned.

    A matrix derived without a pattern change (`scale`, `scale_columns`, a
    `+` where one operand's pattern holds the other's, `with_diagonal`
    inserting nothing) shares its source's ordering cell, the larger
    operand's for `+`; any other starts an empty one.
    """

    def __init__(self, indptr, indices, data, shape):
        n, m = int(shape[0]), int(shape[1])
        indptr = np.array(indptr, dtype=np.int64)
        indices = np.array(indices, dtype=np.int64)
        data = np.array(data)
        if len(indptr) != n + 1 or indptr[0] != 0 or indptr[-1] != len(indices) \
                or len(data) != len(indices):
            raise InvalidArgumentError("inconsistent CSR row offsets")
        lengths = np.diff(indptr)
        if lengths.min(initial=0) < 0:
            raise InvalidArgumentError("row offsets must be monotone")
        _check_range(indices, m, "column")
        rows = np.repeat(np.arange(n), lengths)
        bad = np.flatnonzero((np.diff(indices) <= 0) & (rows[1:] == rows[:-1]))
        if len(bad):
            raise InvalidArgumentError(
                f"row {rows[bad[0]]}: column indices not strictly increasing")
        self._csr, self._lu = _csr_matrix(data, indices, indptr, (n, m)), None
        self._order = [None]

    @classmethod
    def _wrap(cls, csr, order=None):
        """Wrap a canonical csr_matrix built in this module, unchecked; `order`
        is the ordering cell of a matrix with the same pattern, if any."""
        self = cls.__new__(cls)
        self._csr, self._lu, self._order = csr, None, [None] if order is None else order
        return self

    @classmethod
    def from_coo(cls, rows, cols, vals, shape):
        """Sum duplicate (row, col) entries in a fixed order, that of
        `_sorted_runs` on the (row, col) key.  This order is what makes
        assembly bit-for-bit deterministic; scipy's own COO conversion sums
        in another."""
        shape = (int(shape[0]), int(shape[1]))
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals)
        _check_range(rows, shape[0], "row")
        _check_range(cols, shape[1], "column")
        order, starts, keys = _sorted_runs(rows * shape[1] + cols)
        summed = np.add.reduceat(vals[order], starts)
        return cls._from_sorted(keys // shape[1], keys % shape[1], summed, shape)

    @classmethod
    def _from_sorted(cls, rows, cols, vals, shape):
        """Wrap entries sorted by (row, col) without duplicates, unchecked."""
        indptr = np.zeros(shape[0] + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
        return cls._wrap(_csr_matrix(vals, cols, indptr, shape))

    @classmethod
    def from_dense(cls, M):
        M = np.asarray(M)
        rows, cols = np.nonzero(M)
        return cls.from_coo(rows, cols, M[rows, cols], M.shape)

    # -- queries ----------------------------------------------------------

    @property
    def shape(self):
        return self._csr.shape

    @property
    def nnz(self):
        return self._csr.nnz

    def to_dense(self):
        return self._csr.toarray()

    def diagonal(self):
        return self._csr.diagonal()

    def row_sums(self):
        # a matvec with ones sums each row left to right, as a loop would
        return self._csr @ np.ones(self.shape[1], dtype=self._csr.dtype)

    def transpose(self):
        return SparseMatrix._wrap(self._csr.T.tocsr())

    @property
    def T(self):
        return self.transpose()

    def __matmul__(self, v):
        v = np.asarray(v)
        if v.ndim != 1 or len(v) != self.shape[1]:
            raise InvalidArgumentError(
                f"matvec shape mismatch: {self.shape} @ {v.shape}")
        return self._csr @ v

    def __add__(self, other):
        if not isinstance(other, SparseMatrix) or other.shape != self.shape:
            raise InvalidArgumentError("can only add sparse matrices of equal shape")
        # Not scipy's +, which prunes exact zeros; a held pattern is summed in place.
        big, small = (self, other) if self.nnz >= other.nnz else (other, self)
        a, b, pos = big._csr, small._csr, slice(None)
        if not (np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices)):
            keys, sub = big._keys(), small._keys()
            pos = np.searchsorted(keys, sub)
            if not np.array_equal(keys.take(pos, mode="clip"), sub):
                k, m = np.concatenate([keys, sub]), self.shape[1]
                return SparseMatrix.from_coo(k // m, k % m, np.concatenate([a.data, b.data]),
                                             self.shape)
        data = a.data.astype(np.result_type(a.data, b.data))
        data[pos] += b.data
        return SparseMatrix._wrap(_csr_matrix(data, a.indices, a.indptr, a.shape), big._order)

    def _keys(self):
        """Each stored entry's row * ncols + column, in storage (ascending) order."""
        csr = self._csr
        return np.repeat(np.arange(self.shape[0], dtype=np.int64) * self.shape[1],
                         np.diff(csr.indptr)) + csr.indices

    def scale(self, alpha):
        A = self._csr
        return SparseMatrix._wrap(_csr_matrix(A.data * alpha, A.indices, A.indptr, A.shape),
                                  self._order)

    def scale_columns(self, d):
        """Copy with column j multiplied by d[j], that is A @ diag(d)."""
        d = np.asarray(d)
        if d.shape != (self.shape[1],):
            raise InvalidArgumentError(f"column scaling needs {self.shape[1]} factors")
        A = self._csr
        return SparseMatrix._wrap(_csr_matrix(A.data * d[A.indices], A.indices, A.indptr,
                                              A.shape), self._order)

    def with_diagonal(self, dof_indices, value) -> "SparseMatrix":
        """Copy with the diagonal of the given rows overwritten by `value`,
        inserted where missing.  Only the entries of those rows are read."""
        r = np.unique(np.asarray(dof_indices, dtype=np.int64))
        _check_range(r, min(self.shape), "row")
        A = self._csr
        lengths = A.indptr[r + 1] - A.indptr[r]
        seg_rows = np.repeat(r, lengths)
        # positions of the entries of rows r in A's arrays, row after row
        pos = np.arange(len(seg_rows)) + np.repeat(A.indptr[r] - np.cumsum(lengths) + lengths,
                                                   lengths)
        on_diag = A.indices[pos] == seg_rows
        data = A.data.copy()
        data[pos[on_diag]] = value
        out = SparseMatrix._wrap(_csr_matrix(data, A.indices, A.indptr, A.shape), self._order)
        missing = np.setdiff1d(r, seg_rows[on_diag], assume_unique=True)
        if len(missing):
            out = out + SparseMatrix.from_coo(missing, missing,
                                              np.full(len(missing), value), self.shape)
        return out

    def __repr__(self):
        return f"SparseMatrix({self.shape[0]}x{self.shape[1]}, nnz={self.nnz})"


# --------------------------------------------------------------------------
# direct solver

class LuFactorization:
    """Direct solver of one square matrix by the method its pattern picks
    (module docstring): `method` is "diagonal" or "MMD_AT_PLUS_A"."""

    def __init__(self, A: SparseMatrix):
        if A.shape[0] != A.shape[1]:
            raise InvalidArgumentError("LU needs a square matrix")
        self.shape = A.shape
        csr, n = A._csr, A.shape[0]
        self._complex = np.iscomplexobj(csr.data)
        self._diag = self._splu = self._perm_c = None
        if not self._complex and csr.nnz <= n and np.array_equal(
                csr.indices, np.repeat(np.arange(n), np.diff(csr.indptr))):
            self._method = "diagonal"
            self._diag = csr.diagonal()
            if not np.all(self._diag):          # a zero, stored or missing
                raise SingularMatrixError("Factor is exactly singular")
            return
        self._method = "MMD_AT_PLUS_A"
        # perm_c moves column j to perm_c[j]: the same CSR, columns renamed
        self._perm_c = perm_c = A._order[0]
        if perm_c is not None:
            csr = _csr_matrix(csr.data, perm_c[csr.indices], csr.indptr, csr.shape)
        try:
            self._splu = _spla.splu(csr.tocsc(), relax=1, panel_size=1, permc_spec=(
                "MMD_AT_PLUS_A" if perm_c is None else "NATURAL"))
        except RuntimeError as exc:
            raise SingularMatrixError(str(exc)) from exc
        if perm_c is None:                      # a copy: a view would keep the factors alive
            A._order[0] = self._splu.perm_c.copy()

    @property
    def method(self):
        return self._method

    @property
    def nnz(self):
        """nnz(L+U) as SuperLU counts it; n for the diagonal method."""
        return self.shape[0] if self._splu is None else self._splu.nnz

    def solve(self, b):
        b = _rhs(b, self.shape[0])
        if np.iscomplexobj(b) and not self._complex:    # SuperLU takes b of its factor's type
            x = np.empty(len(b), dtype=complex)
            x.real, x.imag = self.solve(b.real), self.solve(b.imag)
            return x
        if self._splu is None:
            with np.errstate(over="ignore", invalid="ignore"):     # checked below
                x = b / self._diag
        else:
            x = self._splu.solve(b)
        if self._perm_c is not None:
            x = x[self._perm_c]
        if not _all_finite(x):
            if not _all_finite(b):
                k = int(np.argmin(np.isfinite(b)))
                raise NumericError(f"right-hand side is not finite at entry {k}: {b[k]:g}")
            if self._splu is None and _all_finite(self._diag):
                k = int(np.argmin(np.isfinite(x)))
                raise NumericError(f"solution overflows at entry {k}")
            raise SingularMatrixError("factorization produced non-finite solution")
        return x


def factorize(A: SparseMatrix) -> LuFactorization:
    if A._lu is None:
        A._lu = LuFactorization(A)
    return A._lu


# --------------------------------------------------------------------------
# conjugate gradient

@dataclass
class CgResult:
    x: np.ndarray
    converged: bool
    iterations: int
    relative_residual: float


def solve_cg(A: SparseMatrix, b, tol: float = 1e-10, maxit=None) -> CgResult:
    """Jacobi-preconditioned conjugate gradient from a zero initial guess.

    Stops when the 2-norm of the residual drops below tol * ||b||; raises
    SolverError on a breakdown, p' A p not positive: an indefinite matrix,
    or a NaN or infinity in A or b, which ends it within two iterations.
    The iteration updates preallocated vectors in place and takes the norm
    as sqrt(r @ r), the operations np.linalg.norm and the out-of-place
    updates perform, so its iterates are theirs bit for bit.
    """
    n = A.shape[0]
    b = _rhs(b, n)
    if np.iscomplexobj(b) or np.iscomplexobj(A._csr.data):
        raise UnsupportedError("conjugate gradient needs a real matrix and right-hand side")
    if maxit is None:
        maxit = 10 * n
    x = np.zeros(n)
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return CgResult(x, True, 0, 0.0)
    if maxit <= 0:
        return CgResult(x, False, 0, 1.0)
    csr = A._csr
    diag = csr.diagonal().astype(float)
    inv_diag = np.where(np.abs(diag) > 0, 1.0 / np.where(diag == 0, 1.0, diag), 1.0)
    r, step = b.copy(), np.empty(n)
    rel = 1.0
    with np.errstate(invalid="ignore", over="ignore"):     # a NaN ends it below
        z = inv_diag * r
        p = z.copy()
        rz = float(r @ z)
        for it in range(1, maxit + 1):
            Ap = csr @ p
            pAp = float(p @ Ap)
            if not pAp > 0.0:
                raise SolverError(f"conjugate gradient breakdown: p'Ap = {pAp:g}")
            alpha = rz / pAp
            x += np.multiply(alpha, p, out=step)
            r -= np.multiply(alpha, Ap, out=step)
            rel = math.sqrt(r @ r) / bnorm
            if rel <= tol:
                return CgResult(x, True, it, rel)
            np.multiply(inv_diag, r, out=z)
            rz_new = float(r @ z)
            p *= rz_new / rz
            p += z
            rz = rz_new
    return CgResult(x, False, maxit, rel)


# --------------------------------------------------------------------------
# dense helpers (small matrices and arrays of the scripting language)

def dot(u, v) -> float:
    u = np.asarray(u)
    v = np.asarray(v)
    if u.shape != v.shape:
        raise InvalidArgumentError("dot needs equal-length vectors")
    return complex(u @ np.conj(v)) if np.iscomplexobj(u) or np.iscomplexobj(v) else float(u @ v)


def trace(M) -> float:
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InvalidArgumentError("trace needs a square matrix")
    t = M.trace()
    return complex(t) if np.iscomplexobj(M) else float(t)


def det(M):
    """Determinant of a 1x1 or 2x2 matrix; larger sizes are unsupported."""
    M = np.asarray(M)
    if M.shape == (1, 1):
        return M[0, 0]
    if M.shape == (2, 2):
        return M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    raise UnsupportedError("det is only defined for 1x1 and 2x2 matrices")
