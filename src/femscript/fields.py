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
"""

import numpy as np

from .errors import InvalidArgumentError, NumericError


class CellContext:
    """Evaluation sites: triangles `tri`, coordinates (x, y) of shape
    (n, nq), and barycentric coordinates `lam` of shape (nq, 3) shared by
    all triangles, or (n, nq, 3) when they differ per entity (edges)."""

    def __init__(self, mesh, tri, x, y, lam):
        self.mesh = mesh
        self.tri = tri
        self.x = x
        self.y = y
        self.lam = lam


class Field:
    def eval_cells(self, ctx):
        raise NotImplementedError

    def values(self, ctx) -> np.ndarray:
        """`eval_cells` as floats of the sites' shape; raises NumericError at
        the first site where a value is not finite."""
        vals = np.broadcast_to(np.asarray(self.eval_cells(ctx), dtype=float), ctx.x.shape)
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

    def __neg__(self):
        return Unary(np.negative, self)

    def __abs__(self):
        return Unary(np.abs, self)

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
        return vals.reshape(ctx.x.shape) if vals.ndim else vals


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
            return np.zeros(ctx.x.shape)
        gx, gy = ctx.mesh.basis_gradients()
        g = gx if self.axis == 0 else gy
        nodal = u.dofs[ctx.mesh.tri[ctx.tri]]
        vals = np.einsum("nk,nk->n", nodal, g[ctx.tri])
        return np.broadcast_to(vals[:, None], ctx.x.shape)


class Binary(Field):
    def __init__(self, op, a, b):
        self.op = op
        self.a = a
        self.b = b

    def eval_cells(self, ctx):
        return self.op(self.a.eval_cells(ctx), self.b.eval_cells(ctx))


class Unary(Field):
    def __init__(self, op, a):
        self.op = op
        self.a = a

    def eval_cells(self, ctx):
        return self.op(self.a.eval_cells(ctx))


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
        return Binary(op, as_field(a), as_field(b))
    except InvalidArgumentError:
        return NotImplemented
