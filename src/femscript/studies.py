"""Convergence-study drivers: Poisson on the structured square, two
nonlinear elliptic problems on the unit disk, and theta-scheme time
integration of the heat equation, with observed-order computation.

The nonlinear problems are solved by a sequence of linear solves, either
the published listings' Picard loop (run_fixed_point's default) or Newton
on the same discrete equations, which the study tables use.

Manufactured solutions and right-hand sides are transcribed verbatim from
the published listings (the computer-algebra output), not re-derived.
"""

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import InvalidArgumentError, SolverError
from .fespace import FeSpace, interpolate
from .fields import Constant
from .forms import (DEFAULT_TGV, DirichletBC, FormTerm, TestFunction, TrialFunction,
                    VarForm, assemble_bilinear, assemble_linear, dirichlet_dofs, dx, dy,
                    integrate_2d)
from .linalg import factorize
from .mesh import Border, build_from_borders, build_square


@dataclass
class ConvergenceRow:
    N: int
    h: float
    error: float
    dt: Optional[float] = None
    rate_space: Optional[float] = None
    rate_time: Optional[float] = None
    iterations: Optional[int] = None


@dataclass
class ThetaSchemeConfig:
    """One theta-scheme run; dt follows the stability rule for the regime."""
    theta: float
    mu: float = 1.0
    cfl: float = 1.0
    T: float = 0.1
    N: int = 16

    def __post_init__(self):
        if not 0.0 <= self.theta <= 1.0:
            raise InvalidArgumentError("theta must lie in [0, 1]")
        if self.mu <= 0:
            raise InvalidArgumentError("mu must be positive")
        if not 0.0 < self.cfl <= 1.0:
            raise InvalidArgumentError("CFL must lie in (0, 1]")

    @property
    def dt(self) -> float:
        h = 1.0 / self.N
        if self.theta < 0.5:
            return self.cfl * h * h / 4.0 / (1.0 - 2.0 * self.theta) / self.mu
        if self.theta == 0.5:
            return h
        return h * h


@dataclass
class FixedPointConfig:
    tol: float = 1e-10
    max_iter: int = 1000
    dbc: float = 0.0

    def __post_init__(self):
        if self.tol <= 0:
            raise InvalidArgumentError("tolerance must be positive")


def convergence_rate(errors, steps):
    """Observed orders r_n = log(E_{n-1}/E_n) / log(h_{n-1}/h_n), n >= 1."""
    errors = [float(e) for e in errors]
    steps = [float(s) for s in steps]
    if len(errors) != len(steps) or len(errors) < 2:
        raise InvalidArgumentError("need equal-length sequences of at least two entries")
    if any(e < 0 for e in errors) or any(s <= 0 for s in steps):
        raise InvalidArgumentError("errors must be nonnegative, steps positive")
    if any(e == 0 for e in errors):
        raise InvalidArgumentError("zero error: rate undefined")
    return [math.log(errors[n - 1] / errors[n]) / math.log(steps[n - 1] / steps[n])
            for n in range(1, len(errors))]


def _attach_rates(rows):
    errs = [r.error for r in rows]
    hs = [r.h for r in rows]
    for n, r in enumerate(convergence_rate(errs, hs)):
        rows[n + 1].rate_space = r
    if all(r.dt is not None for r in rows):
        dts = [r.dt for r in rows]
        for n, r in enumerate(convergence_rate(errs, dts)):
            rows[n + 1].rate_time = r
    return rows


# --------------------------------------------------------------------------
# Poisson on the unit square

SQUARE_LABELS = frozenset({1, 2, 3, 4})


def poisson_exact(x, y):
    return np.sin(np.pi * x) * np.sin(np.pi * y)


def poisson_rhs(x, y):
    return 2.0 * np.sin(np.pi * x) * np.pi ** 2 * np.sin(np.pi * y)


def solve_poisson(N: int):
    """One refinement level: returns (space, u_h, L2 error vs interpolated exact)."""
    mesh = build_square(N, N)
    Vh = FeSpace(mesh, "P1")
    u, v = TrialFunction(), TestFunction()
    fh = interpolate(Vh, poisson_rhs)
    uex = interpolate(Vh, poisson_exact)
    a = VarForm(bilinear_terms=[FormTerm("int2d", dx(u) * dx(v) + dy(u) * dy(v))],
                dirichlet=[DirichletBC(SQUARE_LABELS, Constant(0.0))])
    l = VarForm(linear_terms=[FormTerm("int2d", fh * v)])
    A = assemble_bilinear(a, Vh, Vh)
    b = assemble_linear(l, Vh)
    uh = Vh.function(factorize(A).solve(b))
    diff = uh - uex
    err = math.sqrt(integrate_2d(mesh, diff * diff))
    return Vh, uh, err


def run_poisson_study(nref: int):
    """L2 errors and rates on N = 2^(n+4) structured meshes, n = 0..nref-1."""
    if nref < 2:
        raise InvalidArgumentError("a convergence study needs nref >= 2")
    rows = []
    for n in range(nref):
        N = 2 ** (n + 4)
        _, _, err = solve_poisson(N)
        rows.append(ConvergenceRow(N=N, h=1.0 / N, error=err))
    return _attach_rates(rows)


# --------------------------------------------------------------------------
# nonlinear elliptic problems on the unit disk

def circle_border(n: int, radius: float = 1.0, label: int = 1) -> Border:
    return Border(lambda t: (radius * math.cos(t), radius * math.sin(t)),
                  0.0, 2.0 * math.pi, n, label)


def disk_mesh(N: int):
    return build_from_borders([circle_border(N)])


def ellnl_exact(x, y):
    return np.sin(x ** 2 + y ** 2 - 1)


def ellnl_rhs(x, y):
    q = x ** 2 + y ** 2 - 1
    return (4.0 * np.sin(q) * x ** 2 - 4.0 * np.cos(q) + 4.0 * np.sin(q) * y ** 2
            + np.sin(q) - np.sin(q) * np.cos(q) ** 2)


def ellnl_dbc_exact(dbc):
    return lambda x, y: dbc + np.sin(x ** 2 + y ** 2 - 1)


def ellnl_dbc_rhs(dbc):
    def f(x, y):
        q = x ** 2 + y ** 2 - 1
        return (-4.0 * np.sin(q) * x ** 2 + 4.0 * np.cos(q) - 4.0 * np.sin(q) * y ** 2
                - (dbc + np.sin(q)) ** 2)
    return f


def run_fixed_point(problem: str, N: int, cfg: FixedPointConfig = None, mesh=None,
                    rhs=None, history=None, method: str = "picard"):
    """Solve one nonlinear problem by a sequence of linear solves.

    problem "ellnl": -Laplace(u) + u^3 = f, u = 0 on the circle; the cubic
    term is u*V*v with V the P1 interpolant of u^2.
    problem "ellnl_dbc": Laplace(u) = u^2 written with a negated form and
    boundary value cfg.dbc; here V is u itself.

    method "picard" (the default) is the published listings' loop: V is
    frozen at the previous iterate.  method "newton" solves the same
    discrete equations with their Jacobian, -(S + 2 M_u) for "ellnl_dbc"
    and S + M_{u^2} + 2 M_u diag(u) for "ellnl" (S the stiffness matrix,
    M_w the mass matrix weighted by the P1 function w; not symmetric).
    Both penalize the Dirichlet rows alike and stop on the same test: the
    L2 norm of the increment below cfg.tol.

    `rhs` overrides the manufactured right-hand side (a callable of x, y);
    `history`, if given a list, collects the successive-iterate errors.
    Returns (u_h, iterations, final_err).  Raises SolverError if the
    increment is still at or above cfg.tol after cfg.max_iter iterations.
    """
    if cfg is None:
        cfg = FixedPointConfig()
    if problem not in ("ellnl", "ellnl_dbc"):
        raise InvalidArgumentError(f"unknown fixed-point problem {problem!r}")
    if method not in ("picard", "newton"):
        raise InvalidArgumentError(f"unknown fixed-point method {method!r}")
    if mesh is None:
        mesh = disk_mesh(N)
    Vh = FeSpace(mesh, "P1")
    u, v = TrialFunction(), TestFunction()
    stiff = dx(u) * dx(v) + dy(u) * dy(v)
    labels = frozenset({1})
    cubic = problem == "ellnl"

    if cubic:
        fh = interpolate(Vh, rhs if rhs is not None else ellnl_rhs)
        gval = 0.0
    else:
        fh = interpolate(Vh, rhs if rhs is not None else ellnl_dbc_rhs(cfg.dbc))
        gval = cfg.dbc

    l = VarForm(linear_terms=[FormTerm("int2d", fh * v)],
                dirichlet=[DirichletBC(labels, Constant(gval))])
    b = assemble_linear(l, Vh)

    S = assemble_bilinear(VarForm(bilinear_terms=[FormTerm("int2d", stiff)]), Vh, Vh)
    pinned = dirichlet_dofs(Vh, labels)

    def mass(w):
        # the mass matrix weighted by the P1 function with DOFs w
        weight = Vh.function(w)
        return assemble_bilinear(
            VarForm(bilinear_terms=[FormTerm("int2d", u * weight * v)]), Vh, Vh)

    uh = Vh.function(gval)
    prev = uh.copy()
    err = math.inf
    iterations = 0
    while err >= cfg.tol and iterations < cfg.max_iter:
        w = uh.dofs
        if method == "picard":
            A, load = S + mass(w ** 2 if cubic else w), b
        elif cubic:
            Mu, Mu2 = mass(w), mass(w ** 2)
            A = S + Mu2 + Mu.scale_columns(2.0 * w)
            load = b + 2.0 * (Mu2 @ w)
        else:
            Mu = mass(w)
            A = S + Mu.scale(2.0)
            load = b - Mu @ w
        if method == "newton":
            load[pinned] = b[pinned]
        if not cubic:
            A = A.scale(-1.0)
        # the penalized matrix and its LU die with this statement instead of
        # staying alive while the next iterate's matrices are assembled
        uh.dofs[:] = factorize(A.with_diagonal(pinned, DEFAULT_TGV)).solve(load)
        diff = uh - prev
        err = math.sqrt(integrate_2d(mesh, diff * diff))
        if history is not None:
            history.append(err)
        prev.dofs[:] = uh.dofs
        iterations += 1
    if not err < cfg.tol:       # a NaN increment is not convergence either
        raise SolverError(f"fixed point did not converge at N={N}: increment "
                          f"{err:g} after {iterations} iterations")
    return uh, iterations, err


def run_nonlinear_study(problem: str, nref: int, cfg: FixedPointConfig = None,
                        meshes=None):
    """Table of L2 errors vs the manufactured solution on N = 2^(n+4) disks,
    with each solve's iteration count.  Every disk is solved by Newton
    (run_fixed_point's method="newton"): the same discrete solution as the
    published Picard loop, in 4-5 linear solves instead of 14-214.  A solve
    that does not converge raises SolverError."""
    if cfg is None:
        cfg = FixedPointConfig()
    if nref < 2:
        raise InvalidArgumentError("a convergence study needs nref >= 2")
    exact = ellnl_exact if problem == "ellnl" else ellnl_dbc_exact(cfg.dbc)
    rows = []
    for n in range(nref):
        N = 2 ** (n + 4)
        mesh = meshes[n] if meshes is not None else disk_mesh(N)
        uh, iterations, _ = run_fixed_point(problem, N, cfg, mesh=mesh, method="newton")
        uex = interpolate(FeSpace(mesh, "P1"), exact)
        diff = uh - uex
        err = math.sqrt(integrate_2d(mesh, diff * diff))
        rows.append(ConvergenceRow(N=N, h=1.0 / N, error=err, iterations=iterations))
    return _attach_rates(rows)


# --------------------------------------------------------------------------
# heat equation with the theta-scheme

def heat_exact(t):
    return lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y) * np.exp(np.sin(t))


@dataclass
class HeatResult:
    u: object
    n_steps: int
    t_final: float
    error: float


def run_heat_single(cfg: ThetaSchemeConfig) -> HeatResult:
    """Integrate to T with the theta-scheme at resolution cfg.N.

    The time-invariant matrix (lumped mass / dt + theta*mu*stiffness, with
    penalized Dirichlet rows) is factored once; at theta = 0 it has no
    stiffness term and is diagonal.  Per step the source is evaluated once,
    at t+dt, from sin(pi x) sin(pi y) computed once.  The step count is
    ceil(T/dt), so the final time is the first multiple of dt at or beyond T.
    """
    N = cfg.N
    dt = cfg.dt
    mesh = build_square(N, N)
    Vh = FeSpace(mesh, "P1")
    u, v = TrialFunction(), TestFunction()
    uv = u * v
    stiff = dx(u) * dx(v) + dy(u) * dy(v)

    Mlump = assemble_bilinear(
        VarForm(bilinear_terms=[FormTerm("int2d", uv, quad="lumped")]), Vh, Vh)
    S = assemble_bilinear(VarForm(bilinear_terms=[FormTerm("int2d", stiff)]), Vh, Vh)
    Md = Mlump.diagonal()
    pinned = dirichlet_dofs(Vh, SQUARE_LABELS)

    A = Mlump.scale(1.0 / dt)
    if cfg.theta > 0:
        A = A + S.scale(cfg.theta * cfg.mu)
    A = A.with_diagonal(pinned, DEFAULT_TGV)
    lu = factorize(A)

    px = mesh.points[:, 0]
    py = mesh.points[:, 1]
    space = np.sin(np.pi * px) * np.sin(np.pi * py)

    def f_at_nodes(t):
        # the published source at the nodes, with sin(pi x) sin(pi y) hoisted
        return space * np.exp(np.sin(t)) * (np.cos(t) + 2.0 * cfg.mu * np.pi ** 2)

    un = interpolate(Vh, heat_exact(0.0)).dofs
    n_steps = math.ceil(cfg.T / dt)
    t = 0.0
    f_old = f_at_nodes(t)
    for _ in range(n_steps):
        f_new = f_at_nodes(t + dt)
        src = cfg.theta * f_new + (1.0 - cfg.theta) * f_old
        b = Md * un / dt - (1.0 - cfg.theta) * cfg.mu * (S @ un) + Md * src
        b[pinned] = 0.0
        un = lu.solve(b)
        t += dt
        f_old = f_new
    uh = Vh.function(un)
    # measured against the analytic solution, so an order-5 rule is needed
    # for the integral itself not to pollute the reported error
    err_field = uh - heat_exact(t)
    error = math.sqrt(integrate_2d(mesh, err_field * err_field, quad="order5"))
    return HeatResult(u=uh, n_steps=n_steps, t_final=t, error=error)


def run_heat_study(cfg: ThetaSchemeConfig, nref: int):
    """Errors at t >= T plus space and time rates for N = 2^(n+4)."""
    if nref < 2:
        raise InvalidArgumentError("a convergence study needs nref >= 2")
    rows = []
    for n in range(nref):
        N = 2 ** (n + 4)
        run_cfg = replace(cfg, N=N)
        res = run_heat_single(run_cfg)
        rows.append(ConvergenceRow(N=N, h=1.0 / N, dt=run_cfg.dt, error=res.error))
    return _attach_rates(rows)
