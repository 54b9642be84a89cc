"""Variational forms: quadrature, symbolic integrands, sparse assembly.

A FormExpr is a sum of products `coef * (trial part) * (test part)` where the
trial/test parts are one of {value, d/dx, d/dy} and `coef` is a Field.  The
trial and test functions are themselves forms (`1 * u` and `1 * v`), and a
Field on either side of one (an FE function, a constant) is its coefficient,
so `uh * v` and `dx(u) * dx(v)` are written as on paper.  Terms
degree-1 in both trial and test assemble to a matrix, terms degree-1 in the
test function alone to a vector; mixing orders inside one integral is an
error.  Dirichlet conditions use the giant-diagonal penalty: the matrix
diagonal of every constrained DOF is overwritten with `tgv` and the right
hand side entry with `tgv` times the boundary value.  That value is the
clause's coefficient evaluated at the pinned DOF sites only, through the
interpolation routine `fespace.dof_values`, so an FE function in it must live
on the form's mesh and a non-finite value at a pinned vertex is an error.

An int2d term's quadrature points are a whole-mesh `CellContext`: its DOF
maps, gradient tables and P0 values are views of the mesh's and the space's
tables, and the points' x and y are computed only if a coefficient reads them.

Assembly gives each term one (nloc_v, nloc_u, n) array of element matrices,
a contiguous length-n vector per local (i, j) entry, into which each product
adds (C * Bv[i]) * Bu[j] in dict order and q order; C is summed over q first
when neither basis varies over q (P1 derivatives, P0), and a basis the same
on every element (an int2d P1 value, P0) is a scalar.  These are the
operations of the former (n, nloc_v, nloc_u) kernel in its order, and the
array is transposed once into that order.  The plan cached on the mesh,
keyed by the trial and test elements and each term's kind and labels, holds
each contribution's slot (its entry's place in (row, col) order, from the
stable sort of linalg._sorted_runs) and each entry's row and column.  One
np.bincount sums each slot's contributions in input order from 0.0, the same
bit for bit at every call.  An entry is stored when a contribution to it is
nonzero, as a second bincount counts, so the lumped P1 mass is diagonal and
an entry whose contributions cancel is stored.  A linear form's element
vectors, (nloc_v, n) per product, are summed into each DOF the same way.

A form is linear in its FE coefficients (the tensor representation of
Kirby & Logg), so the second assembly of the same VarForm over the same
spaces (and, for a vector, tgv) builds a plan, kept on the form, that later
assemblies apply; one builder, `_plan`, serves both kinds.  Each product's
coefficient is split through negation, sums, differences and products or
quotients by a `Constant` into scaled parts.  The invariant parts (a
`Constant`, a `Coordinate`, an invariant `Op` read through its kept values)
are summed once into kept contributions.  A P1 or P0 FE function on the
form's mesh becomes one CSR matrix K from its DOFs to the contributions, a
row per contribution with an entry per corner of its element, applied as
K @ (scale * dofs).  Any other product (`uold*uold*v`, `sin(uold)*v`,
`dx(uold)*v`, an invariant `Op` times an FE function, a `FunctionField`)
keeps the element path.  A linear form folds the kept contributions and
each K through its DOF scatter once, so a call costs an ndof-sized matvec
per FE function; it keeps each Dirichlet clause's pinned DOFs and an
invariant clause's tgv-scaled values, and reads an FE-valued clause at
every call.  A bilinear form applies K per contribution, which the live mask
(the entries with a nonzero contribution) reads, and reuses its CSR arrays
and pinned diagonal's positions while the mask is unchanged.  A first
assembly takes the element path, as does one whose plan meets a value that
is not finite, so that the error names the point a fresh form's names.  A
reused form's result is deterministic but may differ by rounding.
"""

from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from .errors import InvalidArgumentError, NumericError
from .fespace import FeFunction, FeSpace, dof_values
from .fields import CellContext, Constant, Coordinate, Field, FeGradField, Op, as_field
from .linalg import SparseMatrix, _all_finite, _csr_matrix, _sorted_runs

DEFAULT_TGV = 1e30

_SQ15 = np.sqrt(15.0)


@dataclass(frozen=True)
class QuadRule:
    name: str
    lam: np.ndarray   # (nq, 3) barycentric points
    w: np.ndarray     # (nq,) weights summing to 1 (scaled by area at use)


def _order5_rule() -> QuadRule:
    # 7-point degree-5 rule: centroid plus two symmetric orbits
    a1 = (6.0 - _SQ15) / 21.0
    a2 = (6.0 + _SQ15) / 21.0
    w1 = (155.0 - _SQ15) / 1200.0
    w2 = (155.0 + _SQ15) / 1200.0
    pts = [np.array([1 / 3, 1 / 3, 1 / 3])]
    wts = [9.0 / 40.0]
    for a, w in ((a1, w1), (a2, w2)):
        for k in range(3):
            row = np.array([a, a, a])
            row[k] = 1.0 - 2.0 * a
            pts.append(row)
            wts.append(w)
    return QuadRule("order5", np.array(pts), np.array(wts))


RULES_2D = {
    # 3 edge midpoints: exact for quadratics
    "default": QuadRule("default",
                        np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]),
                        np.array([1 / 3, 1 / 3, 1 / 3])),
    # 3 vertices: exact for linears, diagonalizes the mass matrix
    "lumped": QuadRule("lumped",
                       np.eye(3),
                       np.array([1 / 3, 1 / 3, 1 / 3])),
    "order5": _order5_rule(),
}

# 2-point Gauss on an edge: exact for cubics along the edge
_g = 0.5 / np.sqrt(3.0)
EDGE_RULE = (np.array([0.5 - _g, 0.5 + _g]), np.array([0.5, 0.5]))


def _rule(quad) -> QuadRule:
    try:
        return RULES_2D[quad]
    except KeyError:
        raise InvalidArgumentError(f"unknown quadrature rule {quad!r}")


# --------------------------------------------------------------------------
# symbolic trial/test layer

def _combine(k1, k2, what):
    if k1 is None:
        return k2
    if k2 is None:
        return k1
    raise InvalidArgumentError(f"integrand is nonlinear in the {what} function")


class FormExpr:
    """Multilinear polynomial in the trial/test atoms with Field coefficients."""

    def __init__(self, terms):
        self.terms = dict(terms)

    # degrees -------------------------------------------------------------

    def has_trial(self):
        return any(uk is not None for uk, _ in self.terms)

    def has_test(self):
        return any(vk is not None for _, vk in self.terms)

    def is_pure(self):
        return not self.has_trial() and not self.has_test()

    def pure_field(self) -> Field:
        if not self.is_pure():
            raise InvalidArgumentError("expression still contains trial/test functions")
        out = None
        for f in self.terms.values():
            out = f if out is None else out + f
        return Constant(0.0) if out is None else out

    # arithmetic ------------------------------------------------------------

    def _merge(self, other, sign):
        out = dict(self.terms)
        for k, f in other.terms.items():
            g = f if sign > 0 else -f
            out[k] = out[k] + g if k in out else g
        return FormExpr(out)

    def __add__(self, other):
        return self._merge(as_form(other), +1)

    def __radd__(self, other):
        return as_form(other)._merge(self, +1)

    def __sub__(self, other):
        return self._merge(as_form(other), -1)

    def __rsub__(self, other):
        return as_form(other)._merge(self, -1)

    def __neg__(self):
        return FormExpr({k: -f for k, f in self.terms.items()})

    def __mul__(self, other):
        other = as_form(other)
        out = {}
        for (u1, v1), f1 in self.terms.items():
            for (u2, v2), f2 in other.terms.items():
                key = (_combine(u1, u2, "trial"), _combine(v1, v2, "test"))
                prod = f1 * f2
                out[key] = out[key] + prod if key in out else prod
        return FormExpr(out)

    def __rmul__(self, other):
        return as_form(other).__mul__(self)

    def __truediv__(self, other):
        other = as_form(other)
        div = other.pure_field()
        return FormExpr({k: f / div for k, f in self.terms.items()})

    def __pow__(self, n):
        if self.is_pure():
            return FormExpr({(None, None): self.pure_field() ** as_field(n)})
        n = int(n)
        if n == 1:
            return self
        if n == 2:
            return self * self
        raise InvalidArgumentError("cannot raise a trial/test expression to that power")


class TrialFunction(FormExpr):
    """The unknown of a bilinear integrand: the form `1 * u`."""

    def __init__(self):
        super().__init__({("val", None): Constant(1.0)})


class TestFunction(FormExpr):
    """The test function of an integrand: the form `1 * v`."""

    __test__ = False        # not a test class for pytest

    def __init__(self):
        super().__init__({(None, "val"): Constant(1.0)})


def as_form(obj) -> FormExpr:
    if isinstance(obj, FormExpr):
        return obj
    return FormExpr({(None, None): as_field(obj)})


def dx(obj):
    """d/dx of a trial/test function or of an FE function."""
    return _diff(obj, 0)


def dy(obj):
    """d/dy of a trial/test function or of an FE function."""
    return _diff(obj, 1)


def _diff(obj, axis):
    kind = "dx" if axis == 0 else "dy"
    if isinstance(obj, TrialFunction):
        return FormExpr({(kind, None): Constant(1.0)})
    if isinstance(obj, TestFunction):
        return FormExpr({(None, kind): Constant(1.0)})
    if isinstance(obj, FeFunction):
        return FeGradField(obj, axis)
    raise InvalidArgumentError(
        f"d/d{'xy'[axis]} applies to trial/test placeholders or FE functions")


# --------------------------------------------------------------------------
# form containers

@dataclass(frozen=True)
class FormTerm:
    kind: str                      # "int2d" | "int1d"
    expr: FormExpr
    labels: Optional[frozenset] = None   # int1d only
    quad: str = "default"

    def __post_init__(self):
        if self.kind not in ("int2d", "int1d"):
            raise InvalidArgumentError(f"unknown term kind {self.kind!r}")
        if self.kind == "int1d" and not self.labels:
            raise InvalidArgumentError("boundary integral needs a non-empty label set")


@dataclass(frozen=True)
class DirichletBC:
    labels: frozenset
    value: Field


@dataclass
class VarForm:
    bilinear_terms: list = dc_field(default_factory=list)
    linear_terms: list = dc_field(default_factory=list)
    dirichlet: list = dc_field(default_factory=list)

    _linear = None      # _Kept of assemble_linear
    _bilinear = None    # _Kept of assemble_bilinear

    def __post_init__(self):
        if not (self.bilinear_terms or self.linear_terms or self.dirichlet):
            raise InvalidArgumentError("variational form has no terms")
        for t in self.bilinear_terms:
            for uk, vk in t.expr.terms:
                if uk is None or vk is None:
                    raise InvalidArgumentError(
                        "bilinear integral mixes in a non-bilinear part")
        for t in self.linear_terms:
            for uk, vk in t.expr.terms:
                if uk is not None or vk is None:
                    raise InvalidArgumentError(
                        "linear integral must be degree one in the test function alone")


# --------------------------------------------------------------------------
# numeric integration

def _edge_context(mesh, sel):
    """Context for edge quadrature points of the selected labeled edges."""
    s, _ = EDGE_RULE
    tri_of, _ = mesh.edge_triangle()
    tri = tri_of[sel]
    if (tri < 0).any():
        raise InvalidArgumentError("labeled edge not attached to any triangle")
    a, b = mesh.edge[sel].T
    pa, pb = mesh.points[a], mesh.points[b]
    x, y = (pa[:, None, i] * (1 - s)[None, :] + pb[:, None, i] * s[None, :] for i in (0, 1))
    lam = np.zeros((len(sel), len(s), 3))
    tv = mesh.tri[tri]
    for k in range(3):
        lam[:, :, k] = np.where((tv[:, k] == a)[:, None], (1 - s)[None, :],
                                np.where((tv[:, k] == b)[:, None], s[None, :], 0.0))
    return CellContext(mesh, tri, lam, (x, y)), np.hypot(pb[:, 0] - pa[:, 0], pb[:, 1] - pa[:, 1])


def _select_edges(mesh, labels):
    labels = frozenset(int(v) for v in labels)
    if not labels:
        raise InvalidArgumentError("empty boundary label set")
    missing = labels - set(mesh.boundary_labels())
    if missing:
        raise InvalidArgumentError(f"labels {sorted(missing)} not present on the boundary")
    return np.where(np.isin(mesh.edge_label, list(labels)))[0]


def _quadrature(mesh, kind, labels=None, quad="default"):
    """(context, measure, w) of an int2d over the mesh or an int1d over the
    labeled edges: the quadrature points, each triangle's area or edge's
    length, and the rule's weights, which sum to 1."""
    if kind == "int2d":
        rule = _rule(quad)
        return CellContext(mesh, slice(None), rule.lam), mesh.signed_areas(), rule.w
    ctx, length = _edge_context(mesh, _select_edges(mesh, labels))
    return ctx, length, EDGE_RULE[1]


def _integral(g, ctx, measure, w):
    if isinstance(g, FormExpr):
        g = g.pure_field()
    vals = as_field(g).values(ctx)
    # pairwise np.sum keeps the roundoff of large meshes near machine epsilon
    return float(np.sum(measure * (vals @ w)))


def integrate_2d(mesh, g, quad="default") -> float:
    """Integral of a scalar field over the whole mesh."""
    return _integral(g, *_quadrature(mesh, "int2d", quad=quad))


def integrate_1d(mesh, labels, g) -> float:
    """Integral of a scalar field over the boundary edges with given labels."""
    return _integral(g, *_quadrature(mesh, "int1d", labels))


# --------------------------------------------------------------------------
# assembly

def _term_context(mesh, term):
    """Cell context, quadrature scale (n, nq) and nq for one form term."""
    ctx, measure, w = _quadrature(mesh, term.kind, term.labels, term.quad)
    return ctx, measure[:, None] * w[None, :], len(w)


def _cell_basis(space, kind, ctx, nq):
    """Basis table and DOF map (n, nloc).  The table is (n, nq, nloc) for a
    P1 value, (n, 1, nloc) for a basis the same at every point (dx, dy, P0)."""
    n = ctx.shape[0]
    if space.elem == "P0":
        dofs = np.arange(ctx.mesh.nt)[ctx.tri][:, None]
        return np.broadcast_to(1.0 if kind == "val" else 0.0, (n, 1, 1)), dofs
    dofs = ctx.mesh.tri[ctx.tri]
    if kind == "val":
        return np.broadcast_to(ctx.lam, (n, nq, 3)), dofs
    gx, gy = ctx.mesh.basis_gradients()
    return (gx if kind == "dx" else gy)[ctx.tri][:, None, :], dofs


def _element_sums(loc, C, *tables):
    """`loc` (None or an (nloc, ..., n) array) plus each element's sum, in q
    order, of C (n, nq) times the basis tables (n, nq or 1, nloc), one length-n
    vector per local index, as the former kernel summed (module docstring)."""
    if loc is None:
        loc = np.zeros(tuple(B.shape[2] for B in tables) + (len(C),))
    if all(B.shape[1] == 1 for B in tables):
        C = sum(C[:, q] for q in range(C.shape[1]))[:, None]   # in q order
    for q in range(C.shape[1]):
        _add_products(loc, C[:, q], [B[:, min(q, B.shape[1] - 1)] for B in tables])
    return loc


def _add_products(loc, p, tables):
    """loc[i, ...] += p * tables[0][:, i] * ..., a stride-0 column as a scalar."""
    for i, b in enumerate(tables[0].T):
        p_i = p * (b[:1] if b.strides[0] == 0 else b)
        if len(tables) > 1:
            _add_products(loc[i], p_i, tables[1:])
        else:
            loc[i] += p_i


def dirichlet_dofs(space: FeSpace, labels):
    """DOF indices pinned by a Dirichlet clause on the given labels, sorted.

    The read-only result is cached on the mesh per label set; a label missing
    from the boundary raises on every call.
    """
    if space.elem != "P1":
        raise InvalidArgumentError("Dirichlet clauses need vertex DOFs (P1)")
    mesh = space.mesh
    labels = frozenset(int(v) for v in labels)

    def build():
        _select_edges(mesh, labels)  # validates presence
        dofs = mesh.vertices_on_labels(labels)
        dofs.setflags(write=False)
        return dofs
    return mesh._cached(("dirichlet_dofs", labels), build)


def _bilinear_plan(mesh, blocks, key, shape):
    """(slot, rows, cols) of the (test DOF map, trial DOF map) `blocks`,
    cached on the mesh under `key` (module docstring)."""
    def build():
        m = np.int64(shape[1])
        order, starts, flat = _sorted_runs(np.concatenate(
            [(dv[:, :, None] * m + du[:, None, :]).ravel() for dv, du in blocks]
            or [np.zeros(0, dtype=np.int64)]))
        slot = np.empty(len(order), dtype=np.intp)
        slot[order] = np.repeat(np.arange(len(starts)), np.diff(np.r_[starts, len(order)]))
        idx = np.int32 if max(len(flat), *shape) <= np.iinfo(np.int32).max else np.int64
        return slot, (flat // m).astype(idx), (flat % m).astype(idx)
    return mesh._cached(key, build)


class _Kept:
    """What an assembly keeps on a form for (trial, test) or (test, tgv): the
    plan and a matrix's slot plan and pattern (live mask, CSR indices and
    indptr, positions of the live entries and the pinned diagonal in them)."""

    def __init__(self, key):
        self.key, self.plan, self.slots, self.pattern = key, None, None, None


def _planned(form, name, key, build, apply):
    """The form's _Kept under `name` for `key`, new when the key differs, and
    from the second assembly on `apply(plan)`, the plan built by `build()`;
    None where a value is not finite, for the element path to name it."""
    kept = getattr(form, name)
    if kept is None or kept.key != key:      # each item compared by identity, then ==
        setattr(form, name, _Kept(key))
        return getattr(form, name), None
    with np.errstate(over="ignore", invalid="ignore"):      # checked below
        try:
            kept.plan = kept.plan or build()
            out = apply(kept.plan)
        except NumericError:
            return kept, None
    return kept, out if _all_finite(out) else None


def _plan(terms, trial, test):
    """The plan of bilinear terms, or of linear ones when `trial` is None: the
    invariant parts' contributions; [(scale, FE function, K)]; [(term,
    products, first contribution)] left to the element path; and each term's
    test and trial DOF maps (module docstring)."""
    fixed, found, rest, blocks, start = [], {}, [], [], 0
    spaces = [sp for sp in (test, trial) if sp is not None]
    for term in terms:
        ctx, scale, nq = _term_context(test.mesh, term)
        loc, left = np.zeros([sp.nlocal for sp in spaces] + [ctx.shape[0]]), []
        for (uk, vk), f in term.expr.terms.items():
            split = _split(f, 1.0, test.mesh)
            if split is None:
                left.append(((uk, vk), f))
                continue
            tables = [_cell_basis(sp, k, ctx, nq)[0] for sp, k in zip(spaces, (vk, uk))]
            for s, g in split:
                if not isinstance(g, FeFunction):
                    _element_sums(loc, s * g.values(ctx) * scale, *tables)
                    continue
                # one row per contribution, one entry per corner of g's element
                Bg, dof_g = _cell_basis(g.space, "val", ctx, nq)
                corners = np.moveaxis(_element_sums(None, scale, *tables, Bg), -1, 0)
                cols = np.expand_dims(dof_g, tuple(range(1, len(spaces) + 1)))
                found.setdefault((s, g), []).append((
                    np.arange(start, start + loc.size).repeat(dof_g.shape[1]),
                    np.broadcast_to(cols, corners.shape).ravel(), corners.ravel()))
        fixed.append(loc)
        blocks.append([_cell_basis(sp, "val", ctx, nq)[1] for sp in spaces])
        if left:
            rest.append((term, left, start))
        start += loc.size
    parts = []
    for (s, g), entries in found.items():
        rows, cols, vals = map(np.concatenate, zip(*entries))
        order = np.argsort(rows, kind="stable")     # a row's entries together, in input order
        indptr = np.r_[0, np.cumsum(np.bincount(rows, minlength=start))]
        parts.append((s, g, _csr_matrix(vals[order], cols[order], indptr, (start, g.space.ndof))))
    return _contributions(fixed), parts, rest, blocks


def assemble_bilinear(form: VarForm, trial: FeSpace, test: FeSpace,
                      tgv: float = DEFAULT_TGV) -> SparseMatrix:
    """Assemble the matrix of all bilinear terms, then pin Dirichlet rows.  A
    form assembled again over the same spaces applies its plan (module
    docstring)."""
    if trial.mesh is not test.mesh:
        raise InvalidArgumentError("trial and test spaces live on different meshes")

    def apply(plan):
        fixed, parts, rest, _ = plan
        vals = fixed.copy()
        for s, g, K in parts:
            vals += K @ (s * g.dofs)
        _, locs = _element_matrices([(t, p) for t, p, _ in rest], trial, test)
        for (_, _, first), loc in zip(rest, locs):
            vals[first:first + loc.size] += _contributions([loc])
        return vals
    kept, vals = _planned(form, "_bilinear", (trial, test),
                          lambda: _plan(form.bilinear_terms, trial, test), apply)
    shape = (test.ndof, trial.ndof)
    blocks, locs = (kept.plan[3], None) if vals is not None else _element_matrices(
        [(t, t.expr.terms.items()) for t in form.bilinear_terms], trial, test)
    if kept.slots is None:          # built before the contributions, for the peak memory
        key = ("bilinear_plan", trial.elem, test.elem,
               tuple((t.kind, t.labels) for t in form.bilinear_terms))
        kept.slots = _bilinear_plan(trial.mesh, blocks, key, shape)
    vals = _contributions(locs) if vals is None else vals
    slot, rows, cols = kept.slots
    sums = np.bincount(slot, vals, minlength=len(rows)).astype(float, copy=False)  # int if empty
    live = np.bincount(slot, vals != 0.0, minlength=len(rows)) > 0
    if kept.pattern is not None and np.array_equal(kept.pattern[0], live):
        _, indices, indptr, pos, diag = kept.pattern
        if pos is None:
            data = sums[live]
        else:
            data = np.zeros(len(indices))
            data[pos] = sums[live]
        data[diag] = tgv
        return SparseMatrix._wrap(_csr_matrix(data, indices, indptr, shape))
    A = SparseMatrix._from_sorted(rows[live], cols[live], sums[live], shape)
    pinned = _dirichlet_union(form, trial)
    A = A.with_diagonal(pinned, tgv) if len(pinned) else A
    if kept.plan is not None:
        kept.pattern = (live,) + _positions(A, rows[live], cols[live], pinned)
    return A


def _element_matrices(terms, trial, test):
    """Each (term, products) pair's (test DOF map, trial DOF map) and its
    element matrices (nloc_v, nloc_u, n), the sums of the products (module
    docstring)."""
    blocks, locs = [], []
    for term, products in terms:
        ctx, scale, nq = _term_context(trial.mesh, term)
        loc = None
        for (uk, vk), f in products:
            Bu, dof_u = _cell_basis(trial, uk, ctx, nq)
            Bv, dof_v = _cell_basis(test, vk, ctx, nq)
            loc = _element_sums(loc, f.values(ctx) * scale, Bv, Bu)
        blocks.append((dof_v, dof_u))
        locs.append(loc)
    return blocks, locs


def _contributions(locs):
    """The element matrices or vectors in input order, element by element."""
    return np.concatenate([np.moveaxis(loc, -1, 0) for loc in locs] or [np.zeros(0)],
                          axis=None)


def _positions(A, rows, cols, pinned):
    """A's CSR arrays, the positions in them of the (rows, cols) entries
    (None when those are all of A's), and of the pinned diagonal entries."""
    csr, m, keys = A._csr, np.int64(A.shape[1]), A._keys()
    pos = None if len(rows) == csr.nnz else np.searchsorted(keys, rows * m + cols)
    return csr.indices, csr.indptr, pos, np.searchsorted(keys, pinned * m + pinned)


def _dirichlet_union(form, space):
    return np.unique(np.concatenate([dirichlet_dofs(space, bc.labels) for bc in form.dirichlet]
                                    or [np.zeros(0, dtype=np.int64)]))


def _element_vector(test, terms):
    """Each DOF's sum of the element vectors of the (term, products) pairs
    `terms`, in input order from 0.0 (module docstring)."""
    dofs_acc, vals_acc = [], []
    for term, products in terms:
        ctx, scale, nq = _term_context(test.mesh, term)
        for (_, vk), f in products:
            Bv, dof_v = _cell_basis(test, vk, ctx, nq)
            dofs_acc.append(dof_v)
            vals_acc.append(_element_sums(None, f.values(ctx) * scale, Bv).T)
    if not dofs_acc:
        return np.zeros(test.ndof)
    return np.bincount(np.concatenate(dofs_acc, axis=None), np.concatenate(vals_acc, axis=None),
                       minlength=test.ndof)


def _invariant(f):
    return isinstance(f, (Constant, Coordinate)) or isinstance(f, Op) and f.invariant


def _split(f, scale, mesh):
    """[(scale, part)] whose scaled sum is the coefficient `f`, or None when a
    part is neither invariant nor an FE function on `mesh` (module
    docstring)."""
    if _invariant(f) or isinstance(f, FeFunction) and f.space.mesh is mesh:
        return [(scale, f)]
    if not isinstance(f, Op):
        return None
    a, b = f.operands[0], f.operands[-1]
    if f.op is np.negative:
        return _split(a, -scale, mesh)
    if f.op is np.add or f.op is np.subtract:
        pa = _split(a, scale, mesh)
        pb = _split(b, scale if f.op is np.add else -scale, mesh)
        return None if pa is None or pb is None else pa + pb
    if f.op is np.multiply and isinstance(a, Constant):
        return _split(b, scale * a.value, mesh)
    if f.op is np.multiply and isinstance(b, Constant):
        return _split(a, scale * b.value, mesh)
    if f.op is np.divide and isinstance(b, Constant) and b.value != 0:
        return _split(a, scale / b.value, mesh)
    return None


def _pins(form, test, tgv):
    """[(pinned DOFs, pinned values or None, clause value)] of the Dirichlet
    clauses: the values, tgv times the clause's value at each pinned DOF, of
    an invariant clause; an FE-valued one is read at each call."""
    pins = []
    for bc in form.dirichlet:
        dofs = dirichlet_dofs(test, bc.labels)
        fixed = _invariant(bc.value)
        pins.append((dofs, dof_values(test, bc.value, dofs) * tgv if fixed else None, bc.value))
    return pins


def assemble_linear(form: VarForm, test: FeSpace, tgv: float = DEFAULT_TGV) -> np.ndarray:
    """Assemble the vector of all linear terms, then pin Dirichlet entries to
    tgv times the boundary value at each pinned DOF.  A form assembled again
    over the same space with the same tgv applies its plan (module
    docstring)."""
    def build():            # the plan folded through the DOF scatter
        fixed, parts, rest, blocks = _plan(form.linear_terms, None, test)
        dofs = np.concatenate([dof_v for dof_v, in blocks] or [np.zeros(0, dtype=np.intp)],
                              axis=None)
        folded = []
        for s, g, K in parts:
            K = K.tocoo()
            folded.append((s, g, SparseMatrix.from_coo(dofs[K.row], K.col, K.data,
                                                       (test.ndof, K.shape[1]))._csr))
        return (np.bincount(dofs, fixed, minlength=test.ndof), folded,
                [(t, p) for t, p, _ in rest], _pins(form, test, tgv))

    def apply(plan):
        fixed, parts, rest, _ = plan
        b = _element_vector(test, rest) + fixed
        for s, g, K in parts:
            b += K @ (s * g.dofs)
        return b
    kept, b = _planned(form, "_linear", (test, tgv), build, apply)
    if b is None:
        b = _element_vector(test, [(t, t.expr.terms.items()) for t in form.linear_terms])
    for dofs, pinned, value in _pins(form, test, tgv) if kept.plan is None else kept.plan[3]:
        b[dofs] = dof_values(test, value, dofs) * tgv if pinned is None else pinned
    return b
