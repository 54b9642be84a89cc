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

A linear form is linear in its FE coefficients, so the second assembly of
the same VarForm over the same test space (and tgv) builds a plan, kept on
the form, that later assemblies apply.  Each product's coefficient is split
through negation, sums, differences and products or quotients by a
`Constant` into scaled parts.  An invariant part (a `Constant`, a
`Coordinate`, an invariant `Op`) is assembled once into one kept vector,
from its own subtree so that the `Op`'s kept values answer it.  A P1 or P0
FE function on the form's mesh becomes one kept matrix K, the bilinear form
with that function's basis as the trial part over the same term and rule,
applied as K @ (scale * dofs).  A product with any other part
(`uold*uold*v`, `sin(uold)*v`, `dx(uold)*v`, an invariant `Op` times an FE
function, a `FunctionField`) keeps the element path.  The plan also keeps
each Dirichlet clause's pinned DOFs and, for an invariant value, its
tgv-scaled values; an FE-valued clause is read again at every call.  The
first assembly takes the element path throughout, and so does any
assembly whose scaled DOFs or planned vector hold a value that is not
finite, so that the error names the same point as a fresh form's.

A bilinear form is linear in its FE coefficients too (the tensor
representation of Kirby & Logg), so the second assembly of the same
VarForm over the same trial and test spaces splits its products the same
way, per term.  The invariant parts are summed once into one kept array of
element matrices.  A P1 or P0 FE function's part is kept as one table of
element matrices per corner of its element, the element sums with that
corner's basis function as the coefficient, and each assembly adds the
tables weighted by the function's scaled DOFs at those corners.  Any other
product adds its element sums as on the element path.  The slot plan, the
CSR index arrays and the positions of the pinned diagonal are kept as well,
and reused while the live mask (the entries with a nonzero contribution) is
unchanged; a changed mask builds the pattern as a fresh assembly does.  A
value that is not finite sends the assembly down the element path, as for
a linear form.  A reused form's vector or matrix is deterministic, but may
differ from a fresh form's by rounding.
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

    _linear = None      # (test space, tgv, plan or None) of assemble_linear
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
    """What assemble_bilinear keeps on a form for one (trial, test) pair: the
    slot plan (slot, rows, cols), the split parts per term, and the pattern
    (live mask, CSR indices and indptr, live entries' and pinned diagonal's
    positions in them) (module docstring)."""

    def __init__(self, trial, test):
        self.trial, self.test = trial, test
        self.slots = self.parts = self.pattern = None


def assemble_bilinear(form: VarForm, trial: FeSpace, test: FeSpace,
                      tgv: float = DEFAULT_TGV) -> SparseMatrix:
    """Assemble the matrix of all bilinear terms, then pin Dirichlet rows.  A
    form assembled again over the same spaces applies its plan (module
    docstring)."""
    if trial.mesh is not test.mesh:
        raise InvalidArgumentError("trial and test spaces live on different meshes")
    kept, shape, sums = form._bilinear, (test.ndof, trial.ndof), None
    if kept is None or kept.trial is not trial or kept.test is not test:
        kept = form._bilinear = _Kept(trial, test)
    elif kept.slots is not None:                # assembled before: plan
        vals = _planned_contributions(form, kept)
        if vals is not None:
            sums = np.bincount(kept.slots[0], vals, minlength=len(kept.slots[1]))
            sums = sums if _all_finite(sums) else None
    if sums is None:
        blocks, locs = _element_matrices(form, trial, test)
        if kept.slots is None:
            key = ("bilinear_plan", trial.elem, test.elem,
                   tuple((t.kind, t.labels) for t in form.bilinear_terms))
            kept.slots = _bilinear_plan(trial.mesh, blocks, key, shape)
        vals = _contributions(locs)
        sums = np.bincount(kept.slots[0], vals, minlength=len(kept.slots[1]))
    slot, rows, cols = kept.slots
    sums = sums.astype(float, copy=False)       # int if empty
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
    if kept.parts is not None:
        kept.pattern = (live,) + _positions(A, rows[live], cols[live], pinned)
    return A


def _element_matrices(form, trial, test, parts=None):
    """Each bilinear term's (test DOF map, trial DOF map) and its element
    matrices (nloc_v, nloc_u, n): the element path's sums of its products,
    or, given the plan's `parts`, its invariant contributions plus each FE
    function's corner tables weighted by its scaled DOFs there, plus the
    element path's sums of the products left to it (module docstring)."""
    blocks, locs = [], []
    for i, term in enumerate(form.bilinear_terms):
        loc, products = None, term.expr.terms.items()
        if parts is not None:
            fixed, tables, products = parts[i]
            loc = fixed.copy() if tables or products else fixed
            for s, g, dof_g, corners in tables:
                w = (s * g.dofs)[dof_g]
                for k, table in enumerate(corners):
                    loc += table * w[k]
        if products:
            ctx, scale, nq = _term_context(trial.mesh, term)
            for (uk, vk), f in products:
                Bu, dof_u = _cell_basis(trial, uk, ctx, nq)
                Bv, dof_v = _cell_basis(test, vk, ctx, nq)
                loc = _element_sums(loc, f.values(ctx) * scale, Bv, Bu)
            blocks.append((dof_v, dof_u))
        locs.append(loc)
    return blocks, locs


def _contributions(locs):
    """The element matrices in the plan's input order, element by element."""
    return np.concatenate([loc.transpose(2, 0, 1) for loc in locs] or [np.zeros(0)],
                          axis=None)


def _bilinear_parts(form, trial, test):
    """Per bilinear term: (its invariant contributions, [(scale, FE function,
    its DOF map by corner, corner tables)], products left to the element
    path) (module docstring)."""
    parts = []
    for term in form.bilinear_terms:
        ctx, scale, nq = _term_context(trial.mesh, term)
        kept, tables, rest = np.zeros((test.nlocal, trial.nlocal, ctx.shape[0])), [], []
        for (uk, vk), f in term.expr.terms.items():
            split = _split(f, 1.0, trial.mesh)
            if split is None:
                rest.append(((uk, vk), f))
                continue
            Bu, _ = _cell_basis(trial, uk, ctx, nq)
            Bv, _ = _cell_basis(test, vk, ctx, nq)
            for s, g in split:
                if isinstance(g, FeFunction):
                    Bg, dof_g = _cell_basis(g.space, "val", ctx, nq)
                    tables.append((s, g, dof_g.T.copy(), _element_sums(None, scale, Bg, Bv, Bu)))
                else:
                    _element_sums(kept, s * g.values(ctx) * scale, Bv, Bu)
        parts.append((kept, tables, rest))
    return parts


def _planned_contributions(form, kept):
    """The contributions by the plan, built if need be, or None when a value
    is not finite, for the element path to name (module docstring)."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            if kept.parts is None:
                kept.parts = _bilinear_parts(form, kept.trial, kept.test)
            return _contributions(_element_matrices(form, kept.trial, kept.test, kept.parts)[1])
        except NumericError:
            return None


def _positions(A, rows, cols, pinned):
    """A's CSR arrays, the positions in them of the (rows, cols) entries
    (None when those are all of A's), and of the pinned diagonal entries."""
    csr, m, keys = A._csr, np.int64(A.shape[1]), A._keys()
    pos = None if len(rows) == csr.nnz else np.searchsorted(keys, rows * m + cols)
    return csr.indices, csr.indptr, pos, np.searchsorted(keys, pinned * m + pinned)


def _dirichlet_union(form, space):
    return np.unique(np.concatenate([dirichlet_dofs(space, bc.labels) for bc in form.dirichlet]
                                    or [np.zeros(0, dtype=np.int64)]))


def _element_vector(test, products):
    """Each DOF's sum of the element vectors of the (term, test kind,
    coefficient) `products`, in input order from 0.0 (module docstring)."""
    dofs_acc, vals_acc, last = [], [], None
    for term, vk, f in products:
        if term is not last:
            (ctx, scale, nq), last = _term_context(test.mesh, term), term
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


def _linear_plan(form, test, tgv):
    """(kept vector, [(scale, K, FE function)], products left to the element
    path, [(pinned DOFs, kept pinned values or None, clause value)]) of the
    linear terms and Dirichlet clauses over `test` (module docstring)."""
    kept, applied, rest = np.zeros(test.ndof), [], []
    for term in form.linear_terms:
        for (_, vk), f in term.expr.terms.items():
            parts = _split(f, 1.0, test.mesh)
            if parts is None:
                rest.append((term, vk, f))
                continue
            for s, g in parts:
                if not isinstance(g, FeFunction):
                    kept += s * _element_vector(test, [(term, vk, g)])
                    continue
                basis = FormExpr({("val", vk): Constant(1.0)})
                K = assemble_bilinear(VarForm([FormTerm(term.kind, basis, term.labels,
                                                        term.quad)]), g.space, test)
                applied.append((s, K._csr, g))
    return kept, applied, rest, _pins(form, test, tgv)


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
    if form._linear is None or form._linear[0] is not test or form._linear[1] != tgv:
        form._linear = (test, tgv, None)
    elif form._linear[2] is None:
        form._linear = (test, tgv, _linear_plan(form, test, tgv))
    plan, b = form._linear[2], None
    if plan is not None:
        kept, applied, rest, pins = plan
        with np.errstate(over="ignore", invalid="ignore"):   # checked below
            scaled = [s * fe.dofs for s, _, fe in applied]
            if all(map(_all_finite, scaled)):
                b = _element_vector(test, rest) + kept
                for (_, K, _), d in zip(applied, scaled):
                    b += K @ d
    if b is None or not _all_finite(b):
        b = _element_vector(test, [(t, vk, f) for t in form.linear_terms
                                   for (_, vk), f in t.expr.terms.items()])
    for dofs, pinned, value in _pins(form, test, tgv) if plan is None else pins:
        b[dofs] = dof_values(test, value, dofs) * tgv if pinned is None else pinned
    return b
