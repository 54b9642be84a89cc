"""Scalar fields over a mesh: the coefficient language of integrands.

A Field has one evaluation protocol, `eval_cells`: values in bulk at sites
given as (triangle, barycentric coordinates), the quadrature points of
assembly or the DOF sites of interpolation (`fespace.dof_values`).
`values` is the checked form of it that every consumer uses.  An FE function
(`fespace.FeFunction`) is itself a Field, evaluated this way on its own mesh
only; point evaluation at raw coordinates is `fespace.evaluate`.  Arithmetic
on fields builds expression trees, so integrands like `(uh - uex)**2` or
`4*sin(x**2 + y**2 - 1)*x**2` evaluate vectorized during assembly.  An
operand that is not a coefficient (a form, say) is left to its own
arithmetic, so `uh * v` is a form.

An `Op` whose leaves are all `Constant`s and `Coordinate`s is invariant: its
values depend on the sites alone (an FE function changes in place, a
`FunctionField` may read outside state).  The outermost invariant `Op` of a
tree keeps its read-only values over the last whole-mesh int2d context, keyed
by that mesh (weakly) and the rule's `lam` (by identity); edge and DOF sites,
and the leaves X and Y, shared by all, keep nothing.
"""

import weakref

import numpy as np

from .errors import InvalidArgumentError, NumericError


class CellContext:
    """Evaluation sites: triangles `tri`, barycentric coordinates `lam` of
    shape (nq, 3) shared by all triangles, or (n, nq, 3) when they differ per
    entity (edges), and coordinates `x`, `y` of shape `shape` = (n, nq).

    Edge and DOF-site contexts are given their coordinates.  The whole-mesh
    context of an int2d term copies nothing: its `tri` is `slice(None)`, so
    indexing a per-triangle table with it gives a view, and its x and y are
    computed together when first read, which most integrands never do."""

    def __init__(self, mesh, tri, lam, xy=None):
        self.mesh = mesh
        self.tri = tri
        self.lam = lam
        self._xy = xy
        self.shape = xy[0].shape if xy else (mesh.nt, len(lam))

    x = property(lambda self: (self._xy or self._coordinates())[0])
    y = property(lambda self: (self._xy or self._coordinates())[1])

    def _coordinates(self):
        p = self.mesh.points[self.mesh.tri]
        self._xy = tuple(np.einsum("qk,nk->nq", self.lam, p[:, :, i]) for i in (0, 1))
        return self._xy


class Field:
    def eval_cells(self, ctx):
        raise NotImplementedError

    def _cells(self, ctx):
        """`eval_cells`, or an invariant `Op`'s kept values (module docstring)."""
        return self.eval_cells(ctx)

    def values(self, ctx) -> np.ndarray:
        """`eval_cells` as floats of the sites' shape; raises NumericError at
        the first site where a value is not finite, computed in IEEE arithmetic
        without numpy's warnings."""
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            vals = np.broadcast_to(np.asarray(self._cells(ctx), dtype=float), ctx.shape)
        if not np.all(np.isfinite(vals)):
            k = int(np.argmin(np.isfinite(vals).ravel()))
            raise NumericError(f"coefficient is not finite at "
                               f"({ctx.x.flat[k]:g}, {ctx.y.flat[k]:g})")
        return vals

    # arithmetic -----------------------------------------------------------

    def __add__(self, other):
        return _binary(np.add, self, other)

    def __radd__(self, other):
        return _binary(np.add, other, self)

    def __sub__(self, other):
        return _binary(np.subtract, self, other)

    def __rsub__(self, other):
        return _binary(np.subtract, other, self)

    def __mul__(self, other):
        return _binary(np.multiply, self, other)

    def __rmul__(self, other):
        return _binary(np.multiply, other, self)

    def __truediv__(self, other):
        return _binary(np.divide, self, other)

    def __rtruediv__(self, other):
        return _binary(np.divide, other, self)

    def __pow__(self, other):
        return _binary(np.power, self, other)

    def __rpow__(self, other):
        return _binary(np.power, other, self)

    def __neg__(self):
        return Op(np.negative, self)

    def __abs__(self):
        return Op(np.abs, self)

    # comparisons produce 0/1 indicator fields (used by cutoff coefficients)

    def _cmp(self, op, other):
        return _binary(lambda u, v: op(u, v).astype(float), self, other)

    def __lt__(self, other):
        return self._cmp(np.less, other)

    def __le__(self, other):
        return self._cmp(np.less_equal, other)

    def __gt__(self, other):
        return self._cmp(np.greater, other)

    def __ge__(self, other):
        return self._cmp(np.greater_equal, other)


class Constant(Field):
    def __init__(self, value):
        self.value = float(value)

    def eval_cells(self, ctx):
        return self.value


class Coordinate(Field):
    def __init__(self, axis):
        self.axis = axis  # 0 for x, 1 for y

    def eval_cells(self, ctx):
        return ctx.x if self.axis == 0 else ctx.y


class FunctionField(Field):
    """Wraps a vectorized callable f(x, y), called on flat coordinate arrays."""

    def __init__(self, fn):
        self.fn = fn

    def eval_cells(self, ctx):
        vals = np.asarray(self.fn(ctx.x.ravel(), ctx.y.ravel()), dtype=float)
        return vals.reshape(ctx.shape) if vals.ndim else vals


class FeGradField(Field):
    """Partial derivative of a P1 FE function: piecewise constant."""

    def __init__(self, u, axis):
        self.u = u
        self.axis = axis

    def eval_cells(self, ctx):
        u = self.u
        if u.space.mesh is not ctx.mesh:
            raise InvalidArgumentError("FE coefficient lives on a different mesh")
        if u.space.elem == "P0":
            return np.zeros(ctx.shape)
        g = ctx.mesh.basis_gradients()[self.axis][ctx.tri]
        vals = np.einsum("nk,nk->n", u.dofs[ctx.mesh.tri[ctx.tri]], g)
        return np.broadcast_to(vals[:, None], ctx.shape)


class Op(Field):
    """`op` applied to the values of the operand fields."""

    _kept = None    # (weak mesh, lam, values), module docstring

    def __init__(self, op, *operands):
        self.op = op
        self.operands = operands
        self.invariant = all(isinstance(f, (Constant, Coordinate)) or
                             isinstance(f, Op) and f.invariant for f in operands)

    def eval_cells(self, ctx):
        if self.invariant:      # the operands of an invariant node keep nothing
            return self.op(*(f.eval_cells(ctx) for f in self.operands))
        return self.op(*(f._cells(ctx) for f in self.operands))

    def _cells(self, ctx):
        if not (self.invariant and isinstance(ctx.tri, slice)):    # not whole-mesh int2d
            return self.eval_cells(ctx)
        if self._kept is None or self._kept[0]() is not ctx.mesh or self._kept[1] is not ctx.lam:
            vals = np.asarray(self.eval_cells(ctx))
            vals.setflags(write=False)
            self._kept = (weakref.ref(ctx.mesh), ctx.lam, vals)
        return self._kept[2]


X = Coordinate(0)
Y = Coordinate(1)


def as_field(obj) -> Field:
    if isinstance(obj, Field):
        return obj
    if isinstance(obj, (int, float, np.integer, np.floating)):
        return Constant(obj)
    if callable(obj):
        return FunctionField(obj)
    raise InvalidArgumentError(f"cannot use {type(obj).__name__} as a coefficient field")


def _binary(op, a, b):
    """`op(a, b)` as a field, or NotImplemented when an operand is not a
    coefficient, so that the other operand's arithmetic (a form's) decides."""
    try:
        return Op(op, as_field(a), as_field(b))
    except InvalidArgumentError:
        return NotImplemented
