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

Assembly gives each term one array of element matrices, which each of its
products adds into in dict order, summed over the quadrature points in q
order; a product whose two bases are the same at every point (P1
derivatives, P0) sums its coefficient over q first and adds once.  The plan
cached on the mesh, keyed by the trial and test elements and each term's
kind and labels, holds each contribution's slot (its entry's place in (row,
col) order, from the stable sort of linalg._sorted_runs) and each entry's
row and column.  One np.bincount sums each slot's contributions in input
order from 0.0, the same bit for bit at every call.  An entry is stored
when a contribution to it is nonzero, as a second bincount counts, so the
lumped P1 mass is diagonal and an entry whose contributions cancel is
stored.  A linear form's element vectors, one per product, are summed into
each DOF the same way.
"""

from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from .errors import InvalidArgumentError
from .fespace import FeFunction, FeSpace, dof_values
from .fields import CellContext, Constant, Field, FeGradField, as_field
from .linalg import SparseMatrix, _sorted_runs

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

def _cell_context(mesh, rule):
    tri = np.arange(mesh.nt)
    p = mesh.points[mesh.tri]
    x = np.einsum("qk,nk->nq", rule.lam, p[:, :, 0])
    y = np.einsum("qk,nk->nq", rule.lam, p[:, :, 1])
    return CellContext(mesh, tri, x, y, rule.lam)


def _edge_context(mesh, sel):
    """Context for edge quadrature points of the selected labeled edges."""
    s, _ = EDGE_RULE
    tri_of, _ = mesh.edge_triangle()
    tri = tri_of[sel]
    if (tri < 0).any():
        raise InvalidArgumentError("labeled edge not attached to any triangle")
    a = mesh.edge[sel, 0]
    b = mesh.edge[sel, 1]
    pa = mesh.points[a]
    pb = mesh.points[b]
    x = pa[:, None, 0] * (1 - s)[None, :] + pb[:, None, 0] * s[None, :]
    y = pa[:, None, 1] * (1 - s)[None, :] + pb[:, None, 1] * s[None, :]
    lam = np.zeros((len(sel), len(s), 3))
    tv = mesh.tri[tri]
    for k in range(3):
        lam[:, :, k] = np.where((tv[:, k] == a)[:, None], (1 - s)[None, :],
                                np.where((tv[:, k] == b)[:, None], s[None, :], 0.0))
    ctx = CellContext(mesh, tri, x, y, lam)
    length = np.hypot(pb[:, 0] - pa[:, 0], pb[:, 1] - pa[:, 1])
    return ctx, length


def _select_edges(mesh, labels):
    labels = frozenset(int(v) for v in labels)
    if not labels:
        raise InvalidArgumentError("empty boundary label set")
    have = set(mesh.boundary_labels())
    missing = labels - have
    if missing:
        raise InvalidArgumentError(f"labels {sorted(missing)} not present on the boundary")
    return np.where(np.isin(mesh.edge_label, list(labels)))[0]


def _quadrature(mesh, kind, labels=None, quad="default"):
    """(context, measure, w) of an int2d over the mesh or an int1d over the
    labeled edges: the quadrature points, each triangle's area or edge's
    length, and the rule's weights, which sum to 1."""
    if kind == "int2d":
        rule = _rule(quad)
        return _cell_context(mesh, rule), mesh.signed_areas(), rule.w
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
    n = len(ctx.tri)
    if space.elem == "P0":
        return np.full((n, 1, 1), 1.0 if kind == "val" else 0.0), ctx.tri[:, None]
    dofs = ctx.mesh.tri[ctx.tri]
    if kind == "val":
        return np.broadcast_to(ctx.lam, (n, nq, 3)), dofs
    gx, gy = ctx.mesh.basis_gradients()
    return (gx if kind == "dx" else gy)[ctx.tri][:, None, :], dofs


def _element_sums(loc, C, *bases):
    """`loc` (0.0 or element arrays) plus each element's sum, in q order, of
    the scaled coefficient C (n, nq) times the basis tables `bases`, their DOF
    axes placed for broadcasting (module docstring)."""
    C = C.reshape(C.shape + (1,) * (bases[0].ndim - 2))
    if all(B.shape[1] == 1 for B in bases):
        C = sum(C[:, q:q + 1] for q in range(C.shape[1]))   # arrays: in q order
    for q in range(C.shape[1]):
        p = C[:, q]
        for B in bases:
            p = p * B[:, q if B.shape[1] > 1 else 0]
        loc += p
    return loc


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


def assemble_bilinear(form: VarForm, trial: FeSpace, test: FeSpace,
                      tgv: float = DEFAULT_TGV) -> SparseMatrix:
    """Assemble the matrix of all bilinear terms, then pin Dirichlet rows."""
    if trial.mesh is not test.mesh:
        raise InvalidArgumentError("trial and test spaces live on different meshes")
    mesh = trial.mesh
    shape = (test.ndof, trial.ndof)
    blocks, vals_acc = [], []
    for term in form.bilinear_terms:
        ctx, scale, nq = _term_context(mesh, term)
        loc = 0.0
        for (uk, vk), f in term.expr.terms.items():
            Bu, dof_u = _cell_basis(trial, uk, ctx, nq)
            Bv, dof_v = _cell_basis(test, vk, ctx, nq)
            loc = _element_sums(loc, f.values(ctx) * scale, Bv[:, :, :, None], Bu[:, :, None, :])
        blocks.append((dof_v, dof_u))
        vals_acc.append(loc.ravel())
    key = ("bilinear_plan", trial.elem, test.elem,
           tuple((t.kind, t.labels) for t in form.bilinear_terms))
    slot, rows, cols = _bilinear_plan(mesh, blocks, key, shape)
    vals = np.concatenate(vals_acc or [np.zeros(0)])
    sums = np.bincount(slot, vals, minlength=len(rows)).astype(float, copy=False)  # int if empty
    live = np.bincount(slot, vals != 0.0, minlength=len(rows)) > 0
    A = SparseMatrix._from_sorted(rows[live], cols[live], sums[live], shape)
    pinned = _dirichlet_union(form, trial)
    if len(pinned):
        A = A.with_diagonal(pinned, tgv)
    return A


def _dirichlet_union(form, space):
    if not form.dirichlet:
        return np.zeros(0, dtype=np.int64)
    out = [dirichlet_dofs(space, bc.labels) for bc in form.dirichlet]
    return np.unique(np.concatenate(out))


def assemble_linear(form: VarForm, test: FeSpace, tgv: float = DEFAULT_TGV) -> np.ndarray:
    """Assemble the vector of all linear terms, then pin Dirichlet entries to
    tgv times the boundary value at each pinned DOF."""
    mesh = test.mesh
    dofs_acc, vals_acc = [], []
    for term in form.linear_terms:
        ctx, scale, nq = _term_context(mesh, term)
        for (_, vk), f in term.expr.terms.items():
            Bv, dof_v = _cell_basis(test, vk, ctx, nq)
            loc = _element_sums(0.0, f.values(ctx) * scale, Bv)
            dofs_acc.append(dof_v.ravel())
            vals_acc.append(loc.ravel())
    # bincount sums each DOF's contributions in input order, starting from 0.0
    b = (np.bincount(np.concatenate(dofs_acc), np.concatenate(vals_acc), minlength=test.ndof)
         if dofs_acc else np.zeros(test.ndof))
    for bc in form.dirichlet:
        dofs = dirichlet_dofs(test, bc.labels)
        b[dofs] = dof_values(test, bc.value, dofs) * tgv
    return b
