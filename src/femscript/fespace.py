"""P0/P1 finite element spaces: DOF numbering, interpolation, point evaluation.

P1 numbers one DOF per vertex (dof_of(t, k) = vertex index), P0 one DOF per
triangle at its barycenter.  An FE function is a `fields.Field`, so it enters
integrands and coefficient expressions as it is.  Interpolation evaluates a
coefficient, the same kind of expression an integrand takes, through
`Field.values` at one site per DOF (`dof_values`); FE assignment in scripts,
Dirichlet values and mesh transforms all go through it.  Point evaluation at
arbitrary coordinates tests every triangle's barycentric coordinates in one
vectorized scan, keeps the lowest-index triangle that accepts the point, and
interpolates barycentrically.
"""

import numpy as np

from .errors import InvalidArgumentError, OutOfDomainError
from .fields import CellContext, Constant, Field, FunctionField, as_field
from .mesh import Mesh

_ELEMS = ("P0", "P1")


class FeSpace:
    """Finite element space of kind "P0" or "P1" over a mesh."""

    def __init__(self, mesh: Mesh, elem: str):
        if elem not in _ELEMS:
            raise InvalidArgumentError(f"unsupported element kind {elem!r}")
        self.mesh = mesh
        self.elem = elem
        self.ndof = mesh.nv if elem == "P1" else mesh.nt
        self.nlocal = 3 if elem == "P1" else 1      # DOFs per triangle

    def dof_of(self, t: int, local: int) -> int:
        if not (0 <= t < self.mesh.nt and 0 <= local < self.nlocal):
            raise InvalidArgumentError(f"DOF index {t}, {local} out of range for size "
                                       f"{self.mesh.nt}x{self.nlocal}")
        return int(self.mesh.tri[t, local]) if self.elem == "P1" else t

    def function(self, values=None) -> "FeFunction":
        u = FeFunction(self)
        if values is not None:
            u.dofs[:] = values
        return u

    def __repr__(self):
        return f"FeSpace({self.elem}, ndof={self.ndof})"


class FeFunction(Field):
    """DOF-value vector bound to a space; a coefficient field on its mesh,
    callable at points of the domain."""

    def __init__(self, space: FeSpace):
        self.space = space
        self.dofs = np.zeros(space.ndof)

    def copy(self) -> "FeFunction":
        v = FeFunction(self.space)
        v.dofs[:] = self.dofs
        return v

    def __call__(self, x, y):
        return evaluate(self, x, y)

    def eval_cells(self, ctx):
        if self.space.mesh is not ctx.mesh:
            raise InvalidArgumentError("FE coefficient lives on a different mesh")
        if self.space.elem == "P0":
            return np.broadcast_to(self.dofs[ctx.tri][:, None], ctx.shape)
        nodal = self.dofs[ctx.mesh.tri[ctx.tri]]        # (n, 3)
        if ctx.lam.ndim == 2:
            return nodal @ ctx.lam.T                    # (n, nq)
        return np.einsum("nk,nqk->nq", nodal, ctx.lam)

    def __repr__(self):
        return f"FeFunction({self.space.elem}, ndof={self.space.ndof})"


def _dof_context(space: FeSpace):
    """One evaluation site per DOF, cached on the mesh per element kind.

    P0 sites are the barycenters (lambda = 1/3).  A P1 site is its vertex seen
    from the highest-index incident triangle, with a one-hot barycentric row;
    that triangle gives the value of a P0 function or of a gradient there.  A
    vertex in no triangle is seen from triangle 0, where only fields that do
    not read FE values are meaningful.  The cache holds the site arrays, not
    the context: a context refers to its mesh, and a mesh that referred to
    itself would outlive its last use until the cyclic garbage collector ran.
    """
    mesh = space.mesh

    def build():
        if space.elem == "P0":
            b = mesh.barycenters()
            return np.arange(mesh.nt), np.full((1, 3), 1.0 / 3.0), (b[:, :1], b[:, 1:])
        site = np.zeros(mesh.nv, dtype=np.int64)          # flat index 3*t + k
        np.maximum.at(site, mesh.tri.ravel(), np.arange(3 * mesh.nt))
        p = mesh.points
        return site // 3, np.eye(3)[site % 3][:, None, :], (p[:, :1], p[:, 1:])
    return CellContext(mesh, *mesh._cached(("dof_sites", space.elem), build))


def dof_values(space: FeSpace, f, dofs=None) -> np.ndarray:
    """Values of a coefficient at the DOF sites of `space`, or at the DOFs
    `dofs` only.

    `f` is a number, a Field, an FE function on the same mesh, or a callable
    f(x, y) vectorized over flat coordinate arrays; a callable that fails on
    arrays is called once per site with floats.  Raises NumericError if a
    value is not finite (`Field.values`); a finite `Constant` is answered with
    the same bits without building the sites.
    """
    field = as_field(f)
    if isinstance(field, Constant) and np.isfinite(field.value):
        return np.full(space.ndof if dofs is None else len(dofs), field.value)
    ctx = _dof_context(space)
    if dofs is not None:
        lam = ctx.lam if ctx.lam.ndim == 2 else ctx.lam[dofs]
        ctx = CellContext(ctx.mesh, ctx.tri[dofs], lam, (ctx.x[dofs], ctx.y[dofs]))
    try:
        vals = field.values(ctx)
    except (TypeError, ValueError):
        if not isinstance(field, FunctionField):
            raise
        vals = FunctionField(lambda x, y: [f(float(xi), float(yi))
                                           for xi, yi in zip(x, y)]).values(ctx)
    return vals[:, 0].copy()


def interpolate(space: FeSpace, f) -> FeFunction:
    """The FE function of `space` whose DOF values are `f` at the DOF sites
    (see `dof_values` for what `f` may be)."""
    return space.function(dof_values(space, f))


def evaluate(u: FeFunction, x: float, y: float) -> float:
    """Value of the FE function at a point of the domain.  The point lies in
    the lowest-index triangle whose barycentric coordinates are all at least
    -1e-12 times the mesh diameter."""
    mesh = u.space.mesh
    x, y = float(x), float(y)
    if not (np.isfinite(x) and np.isfinite(y)):
        raise OutOfDomainError(f"point ({x:g}, {y:g}) is outside the mesh")
    gx, gy = mesh.basis_gradients()
    px, py = mesh.points[:, 0][mesh.tri], mesh.points[:, 1][mesh.tri]  # (nt, 3)
    # lambda_k is affine with gradient (gx, gy) and lambda_k(v_k) = 1
    lam = 1.0 + gx * (x - px) + gy * (y - py)
    hit = (lam >= -1e-12 * mesh.diameter()).all(axis=1).nonzero()[0]
    if len(hit) == 0:
        raise OutOfDomainError(f"point ({x:g}, {y:g}) is outside the mesh")
    t, lam = int(hit[0]), lam[hit[0]]
    if u.space.elem == "P0":
        return float(u.dofs[t])
    k = int(np.argmax(lam))
    if lam[k] >= 1.0 - 1e-12:  # vertex hit: exact DOF value
        return float(u.dofs[mesh.tri[t, k]])
    lam = np.clip(lam, 0.0, None)
    lam /= lam.sum()
    return float(lam @ u.dofs[mesh.tri[t]])
