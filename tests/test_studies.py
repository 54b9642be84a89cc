import math

import numpy as np
import pytest

from femscript.errors import InvalidArgumentError, SolverError
from femscript.fespace import FeSpace, interpolate
from femscript.fields import Constant, as_field
from femscript.forms import (DirichletBC, FormTerm, TestFunction, TrialFunction,
                             VarForm, as_form, assemble_bilinear, assemble_linear,
                             dirichlet_dofs, dx, dy, integrate_2d)
from femscript import linalg
from femscript.linalg import SparseMatrix, factorize
from femscript.mesh import build_square
from femscript.studies import (ConvergenceRow, FixedPointConfig, ThetaSchemeConfig,
                               convergence_rate, ellnl_dbc_exact, ellnl_exact,
                               run_fixed_point, run_heat_single,
                               run_heat_study, run_nonlinear_study, run_poisson_study,
                               solve_poisson)


# -- convergence_rate ------------------------------------------------------------

def test_rate_exact_second_order():
    e = 1e-3
    assert convergence_rate([4 * e, e], [2.0, 1.0]) == [pytest.approx(2.0, abs=1e-12)]


def test_rate_from_published_pair():
    r = convergence_rate([0.0047854, 0.00120952], [1 / 16, 1 / 32])
    assert r[0] == pytest.approx(1.9842, abs=5e-5)


def test_rate_constant_errors():
    assert convergence_rate([1.0, 1.0, 1.0], [4.0, 2.0, 1.0]) == [0.0, 0.0]


def test_rate_zero_error_rejected():
    with pytest.raises(InvalidArgumentError):
        convergence_rate([1.0, 0.0], [2.0, 1.0])


def test_rate_length_checks():
    with pytest.raises(InvalidArgumentError):
        convergence_rate([1.0], [1.0])
    with pytest.raises(InvalidArgumentError):
        convergence_rate([1.0, 0.5], [1.0])


# -- Poisson -----------------------------------------------------------------------

def test_poisson_first_row():
    _, _, err = solve_poisson(16)
    assert err == pytest.approx(0.0047854, rel=0.05)


def test_poisson_study_requires_two_rows():
    with pytest.raises(InvalidArgumentError):
        run_poisson_study(1)


def test_poisson_manufactured_zero_solution():
    """With f = 0 the discrete solution is zero to solver tolerance."""
    mesh = build_square(16, 16)
    Vh = FeSpace(mesh, "P1")
    u, v = TrialFunction(), TestFunction()
    a = VarForm(bilinear_terms=[FormTerm("int2d", dx(u) * dx(v) + dy(u) * dy(v))],
                dirichlet=[DirichletBC(frozenset({1, 2, 3, 4}), Constant(0.0))])
    l = VarForm(linear_terms=[FormTerm("int2d", as_form(Constant(0.0)) * v)],
                dirichlet=[DirichletBC(frozenset({1, 2, 3, 4}), Constant(0.0))])
    x = factorize(assemble_bilinear(a, Vh, Vh)).solve(assemble_linear(l, Vh))
    uh = Vh.function(x)
    err = math.sqrt(integrate_2d(mesh, as_field(uh) * as_field(uh)))
    assert err <= 1e-12


# -- fixed point ----------------------------------------------------------------------

def test_fixed_point_trivial_zero():
    u, iters, err = run_fixed_point("ellnl_dbc", 16, FixedPointConfig(dbc=0.0),
                                    rhs=lambda x, y: 0.0 * x)
    assert iters == 1
    assert err == 0.0
    assert np.abs(u.dofs).max() <= 1e-40


def test_fixed_point_converges_below_tol():
    _, iters, err = run_fixed_point("ellnl", 16)
    assert err < 1e-10
    assert iters < 1000


def test_fixed_point_error_monotone_after_three():
    hist = []
    run_fixed_point("ellnl", 32, history=hist)
    tail = hist[3:]
    assert all(b < a for a, b in zip(tail, tail[1:]))


def test_fixed_point_unknown_problem():
    with pytest.raises(InvalidArgumentError):
        run_fixed_point("bogus", 16)


def test_fixed_point_reports_nonconvergence():
    with pytest.raises(SolverError, match=r"N=16: increment .* after 2 iterations"):
        run_fixed_point("ellnl", 16, FixedPointConfig(max_iter=2))


def test_nonlinear_study_raises_on_nonconvergence():
    with pytest.raises(SolverError, match=r"N=16: increment .* after 2 iterations"):
        run_nonlinear_study("ellnl", 2, FixedPointConfig(max_iter=2))


def test_nonlinear_study_rows_carry_iterations():
    rows = run_nonlinear_study("ellnl", 2)
    for row in rows:
        _, iters, err = run_fixed_point("ellnl", row.N, method="newton")
        assert row.iterations == iters and err < 1e-10


@pytest.fixture
def permc_specs(monkeypatch):
    """The column orderings that SuperLU is asked for, in call order."""
    specs, splu = [], linalg._spla.splu

    def counted(A, **kw):
        specs.append(kw["permc_spec"])
        return splu(A, **kw)

    monkeypatch.setattr(linalg._spla, "splu", counted)
    return specs


@pytest.mark.parametrize("method", ["newton", "picard"])
@pytest.mark.parametrize("problem", ["ellnl", "ellnl_dbc"])
def test_fixed_point_orders_its_jacobians_once(disk_meshes, permc_specs, problem, method):
    _, iters, _ = run_fixed_point(problem, 32, mesh=disk_meshes[1], method=method)
    assert iters > 1
    assert permc_specs == ["MMD_AT_PLUS_A"] + ["NATURAL"] * (iters - 1)


def test_only_pattern_keeping_operations_share_an_ordering(permc_specs):
    rows, cols = np.nonzero(np.abs(np.subtract.outer(np.arange(6), np.arange(6))) <= 1)
    off = (rows != 3) | (cols != 3)             # a tridiagonal without entry (3, 3)
    rows, cols = rows[off], cols[off]
    A = SparseMatrix.from_coo(rows, cols, np.where(rows == cols, 4.0, -1.0), (6, 6))
    factorize(A)
    csr, empty = A._csr, SparseMatrix.from_coo([], [], [], A.shape)
    diag = SparseMatrix.from_coo(range(6), range(6), np.ones(6), A.shape)
    keep = [A.scale(2.0), A.scale_columns(np.arange(1.0, 7.0)), A + A.scale(0.5),
            A.with_diagonal([0, 5], 9.0), A + empty, empty + A]
    fresh = [SparseMatrix(csr.indptr, csr.indices, csr.data, A.shape),
             SparseMatrix.from_coo(rows, cols, csr.data, A.shape),
             SparseMatrix._from_sorted(rows, cols, csr.data, A.shape), A.T, A + diag,
             A.with_diagonal([3], 9.0)]
    del permc_specs[:]
    for B in keep + fresh:
        factorize(B)
    assert permc_specs == ["NATURAL"] * len(keep) + ["MMD_AT_PLUS_A"] * len(fresh)


def test_fixed_point_unknown_method():
    with pytest.raises(InvalidArgumentError, match="bogus"):
        run_fixed_point("ellnl", 16, method="bogus")


def test_newton_reports_nonconvergence_like_picard():
    with pytest.raises(SolverError, match=r"N=16: increment .* after 2 iterations"):
        run_fixed_point("ellnl", 16, FixedPointConfig(max_iter=2), method="newton")


@pytest.mark.parametrize("problem,dbc", [("ellnl", 0.0), ("ellnl_dbc", 0.0),
                                         ("ellnl_dbc", 50.0)])
def test_newton_matches_picard(disk_meshes, problem, dbc):
    """Newton and Picard solve the same discrete equations: at a tight
    tolerance their study rows agree far below any table gate, and Newton
    needs a handful of solves where DBC=50 Picard needs about 200."""
    cfg = FixedPointConfig(tol=1e-12, dbc=dbc)
    exact = ellnl_exact if problem == "ellnl" else ellnl_dbc_exact(dbc)
    for N, mesh in zip((16, 32, 64), disk_meshes):
        errors = {}
        for method in ("picard", "newton"):
            uh, iters, _ = run_fixed_point(problem, N, cfg, mesh=mesh, method=method)
            diff = as_field(uh) - as_field(interpolate(uh.space, exact))
            errors[method] = math.sqrt(integrate_2d(mesh, diff * diff))
            if method == "newton":
                assert iters <= 8
        assert errors["newton"] == pytest.approx(errors["picard"], rel=5e-9, abs=0.0)


# -- theta scheme ------------------------------------------------------------------------

def test_dt_rule_branches():
    assert ThetaSchemeConfig(theta=0.0, N=16).dt == pytest.approx(1 / 1024)
    assert ThetaSchemeConfig(theta=0.25, N=16).dt == pytest.approx(
        1.0 * (1 / 16) ** 2 / 4.0 / 0.5)
    assert ThetaSchemeConfig(theta=0.5, N=16).dt == pytest.approx(1 / 16)
    assert ThetaSchemeConfig(theta=1.0, N=16).dt == pytest.approx(1 / 256)
    assert ThetaSchemeConfig(theta=0.0, N=16, cfl=0.5).dt == pytest.approx(0.5 / 1024)


def test_config_validation():
    with pytest.raises(InvalidArgumentError):
        ThetaSchemeConfig(theta=1.5)
    with pytest.raises(InvalidArgumentError):
        ThetaSchemeConfig(theta=0.5, mu=0.0)
    with pytest.raises(InvalidArgumentError):
        ThetaSchemeConfig(theta=0.5, cfl=1.5)
    with pytest.raises(InvalidArgumentError):
        FixedPointConfig(tol=0.0)


@pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
def test_step_count_is_ceil(theta):
    cfg = ThetaSchemeConfig(theta=theta, N=16)
    res = run_heat_single(cfg)
    assert res.n_steps == math.ceil(cfg.T / cfg.dt)
    assert res.t_final >= cfg.T


@pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
def test_folded_theta_scheme_matches_the_per_step_right_hand_side(theta):
    """run_heat_single folds the explicit part into one matrix and the source
    into one load vector; a step built term by term from the assembled
    matrices gives the same iterates."""
    cfg = ThetaSchemeConfig(theta=theta, N=8, T=0.02)
    dt, mu = cfg.dt, cfg.mu
    mesh = build_square(8, 8)
    Vh = FeSpace(mesh, "P1")
    u, v = TrialFunction(), TestFunction()
    M = assemble_bilinear(
        VarForm(bilinear_terms=[FormTerm("int2d", u * v, quad="lumped")]), Vh, Vh)
    S = assemble_bilinear(
        VarForm(bilinear_terms=[FormTerm("int2d", dx(u) * dx(v) + dy(u) * dy(v))]), Vh, Vh)
    Md = M.diagonal()
    pinned = dirichlet_dofs(Vh, {1, 2, 3, 4})
    A = M.scale(1 / dt) + S.scale(theta * mu) if theta > 0 else M.scale(1 / dt)
    lu = factorize(A.with_diagonal(pinned, 1e30))
    x, y = mesh.points.T

    def f(t):
        return (np.sin(np.pi * x) * np.sin(np.pi * y) * np.exp(np.sin(t))
                * (np.cos(t) + 2 * mu * np.pi ** 2))

    un = interpolate(Vh, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)).dofs
    t = 0.0
    for _ in range(math.ceil(cfg.T / dt)):
        src = theta * f(t + dt) + (1 - theta) * f(t)
        b = Md * un / dt - (1 - theta) * mu * (S @ un) + Md * src
        b[pinned] = 0.0
        un = lu.solve(b)
        t += dt
    res = run_heat_single(cfg)
    assert np.abs(res.u.dofs - un).max() <= 1e-12 * np.abs(un).max()
    assert res.n_steps == math.ceil(cfg.T / dt) and res.t_final == t


def test_heat_implicit_stable_with_large_mu():
    res = run_heat_single(ThetaSchemeConfig(theta=1.0, mu=50.0, N=16))
    assert np.abs(res.u.dofs).max() <= math.e * 1.0 + 10.0


def test_heat_discrete_max_principle():
    """theta=1 with lumped mass and f=0: sup-norm never grows."""
    mesh = build_square(16, 16)
    Vh = FeSpace(mesh, "P1")
    u, v = TrialFunction(), TestFunction()
    lumped = VarForm(bilinear_terms=[FormTerm("int2d", as_form(u) * v, quad="lumped")])
    stiff = VarForm(bilinear_terms=[FormTerm("int2d", dx(u) * dx(v) + dy(u) * dy(v))])
    Md = assemble_bilinear(lumped, Vh, Vh).diagonal()
    S = assemble_bilinear(stiff, Vh, Vh)
    pinned = dirichlet_dofs(Vh, {1, 2, 3, 4})
    dt = (1 / 16) ** 2
    A = assemble_bilinear(lumped, Vh, Vh).scale(1 / dt) + S
    A = A.with_diagonal(pinned, 1e30)
    lu = factorize(A)
    rng = np.random.default_rng(0)
    un = np.abs(rng.standard_normal(Vh.ndof))
    un[pinned] = 0.0
    for _ in range(20):
        b = Md * un / dt
        b[pinned] = 0.0
        u_next = lu.solve(b)
        assert np.abs(u_next).max() <= np.abs(un).max() + 1e-12
        un = u_next


def test_heat_study_rows_have_rates():
    rows = run_heat_study(ThetaSchemeConfig(theta=1.0), 2)
    assert rows[0].rate_space is None and rows[1].rate_space is not None
    assert rows[1].rate_time is not None
    assert rows[0].dt == ThetaSchemeConfig(theta=1.0, N=16).dt


def test_row_dataclass_shape():
    row = ConvergenceRow(N=16, h=1 / 16, error=1.0)
    assert row.dt is None and row.rate_space is None and row.rate_time is None
    assert row.iterations is None


@pytest.mark.parametrize("kw,message", [
    ({"T": -1.0}, "T must be finite and positive"), ({"T": 0.0}, "T must be finite"),
    ({"T": math.nan}, "T must be finite"), ({"T": math.inf}, "T must be finite"),
    ({"mu": math.inf}, "mu must be finite and positive"), ({"mu": math.nan}, "mu must be"),
    ({"mu": -1.0}, "mu must be"), ({"N": 0}, "N must be at least 1"), ({"N": -3}, "N must be"),
])
def test_theta_scheme_settings_that_cannot_run_are_rejected(kw, message):
    with pytest.raises(InvalidArgumentError, match=message):
        ThetaSchemeConfig(theta=0.5, **kw)


@pytest.mark.parametrize("kw,message", [
    ({"tol": math.nan}, "tolerance must be finite and positive"),
    ({"tol": math.inf}, "tolerance must be finite"), ({"tol": -1e-3}, "tolerance must be"),
    ({"max_iter": 0}, "max_iter must be at least 1"), ({"max_iter": -2}, "max_iter must be"),
])
def test_fixed_point_settings_that_cannot_run_are_rejected(kw, message):
    with pytest.raises(InvalidArgumentError, match=message):
        FixedPointConfig(**kw)
