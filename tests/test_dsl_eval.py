import io
from pathlib import Path

import numpy as np
import pytest

from femscript.dsl import EvalError, run_source
from femscript.errors import FoldOverError, InvalidArgumentError, UnsupportedError
from femscript.linalg import dot

CORPUS = sorted(Path(__file__).parent.glob("corpus/*.edp"))


def run(src, stdin="", **kw):
    out = io.StringIO()
    result = run_source(src, stdout=out, stdin=io.StringIO(stdin),
                        verbosity=kw.pop("verbosity", 0), **kw)
    return result, out.getvalue()


# -- language basics ------------------------------------------------------------

def test_for_loop_sum():
    r, _ = run("int sum=0; for (int i=1; i<=10; i++) sum += i;")
    assert r.env.lookup("sum") == 55


def test_while_listing_semantics():
    src = """
    int i=1, sum=0;
    while (i<=10) {
       sum += i; i++;
       if (sum>0) continue;
       if (i==5) break;
    }
    """
    r, _ = run(src)
    assert r.env.lookup("i") == 11
    assert r.env.lookup("sum") == 55


def test_range_array():
    r, _ = run("real[int] U=1:2:10; real u2=U(2);")
    assert np.array_equal(r.env.lookup("U"), [1, 3, 5, 7, 9])
    assert r.env.lookup("u2") == 5.0


def test_array_values_20_20_5():
    src = """
    real[int] u1=[1,2,3],u2=2:4;
    real u1pu2=u1'*u2;
    real trA=trace([1,2,3]*[2,3,4]');
    real detA=det([ [1,2],[-2,1] ]);
    """
    r, _ = run(src)
    assert r.env.lookup("u1pu2") == 20.0
    assert r.env.lookup("trA") == 20.0
    assert r.env.lookup("detA") == 5.0


def test_transpose_product_matches_linalg_dot():
    src = "real[int] a=[1.5,-2,4],b=[0.25,3,-1]; real d=a'*b;"
    r, _ = run(src)
    assert r.env.lookup("d") == dot([1.5, -2, 4], [0.25, 3, -1])


def test_elementwise_ops():
    r, _ = run("real[int] q=[1,2,3]./[2,3,4];")
    assert np.allclose(r.env.lookup("q"), [0.5, 2 / 3, 0.75], atol=1e-16)


def test_complex_arithmetic():
    r, _ = run("complex c=1.+3i; complex d=c*c; real re=real(d);")
    assert r.env.lookup("c") == 1 + 3j
    assert r.env.lookup("d") == (1 + 3j) ** 2
    assert r.env.lookup("re") == -8.0


def test_int_division_truncates():
    r, _ = run("int a=7/2; int b=-7/2; real c=7./2;")
    assert r.env.lookup("a") == 3
    assert r.env.lookup("b") == -3
    assert r.env.lookup("c") == 3.5


def test_string_concatenation():
    r, out = run('string s="u."+(1000+3)+".txt"; cout << s << endl;')
    assert out.strip() == "u.1003.txt"


def test_undeclared_identifier_reports_line():
    with pytest.raises(EvalError) as err:
        run("int a=1;\nint b=zz;")
    assert "zz" in str(err.value) and "line 2" in str(err.value)


def test_assignment_requires_declaration():
    with pytest.raises(EvalError):
        run("q=1;")


def test_exit_stops_evaluation():
    r, out = run('cout << "a" << endl; exit(3); cout << "b" << endl;')
    assert r.exit_code == 3
    assert out == "a\n"


def test_clock_and_verbosity():
    r, _ = run("real t0=clock(); verbosity=0; real t1=clock();")
    assert r.env.lookup("t1") >= r.env.lookup("t0")


def test_cin_reads_stdin():
    r, out = run("int i; cin >> i; cout << i*2 << endl;", stdin="21\n")
    assert out.strip() == "42"


def test_file_open_failure():
    with pytest.raises(EvalError):
        run('ifstream f("/nonexistent/nope.txt");')


def test_unsupported_keywords_error():
    with pytest.raises(UnsupportedError):
        run("mesh Th=square(2,2); fespace Vh(Th,P1); Vh u;\n"
            "real j=int2d(Th)(jump(u));")


def test_load_is_ignored():
    r, _ = run('load "medit"; int a=1;')
    assert r.env.lookup("a") == 1


def test_fe_function_evaluation_and_dofs():
    src = """
    mesh Th=square(2,2);
    fespace Vh(Th,P1);
    Vh u0=exp(-x^2-y^2);
    real v0=u0(0,0);
    real d0=u0[][0];
    """
    r, _ = run(src)
    assert r.env.lookup("v0") == pytest.approx(1.0, abs=1e-15)
    assert r.env.lookup("d0") == pytest.approx(1.0, abs=1e-15)


def test_fe_vector_assignment_aliases():
    src = """
    mesh Th=square(2,2);
    fespace Vh(Th,P1);
    Vh u=1., w;
    w[] = u[];
    w[][3] = 5.;
    real a=w[][3];
    real b=u[][3];
    """
    r, _ = run(src)
    assert r.env.lookup("a") == 5.0
    assert r.env.lookup("b") == 1.0


# -- problems -----------------------------------------------------------------

POISSON_TEMPLATE = """
mesh Th=square(10,10);
fespace Vh(Th,P1);
Vh uh,vh;
Vh f=1.;
macro Grad(u)[dx(u),dy(u)]//
int i=0;
{form}
"""

SOLVE_FORM = """
solve poisson(uh,vh,init=i,solver=LU) =
    int2d(Th)( Grad(uh)'*Grad(vh) )
    -int2d(Th)(f*vh)
    +on(1,2,3,4,uh=0);
"""

PROBLEM_FORM = """
problem poisson(uh,vh,init=i,solver=LU) =
    int2d(Th)( Grad(uh)'*Grad(vh) )
    -int2d(Th)(f*vh)
    +on(1,2,3,4,uh=0);
poisson;
"""

VARF_FORM = """
varf a(uh,vh) = int2d(Th)( Grad(uh)'*Grad(vh) ) + on(1,2,3,4,uh=0);
varf l(unused,vh) = int2d(Th)(f*vh) + on(1,2,3,4,unused=0);
matrix A=a(Vh,Vh);
Vh F; F[] = l(0,Vh);
uh[] = A^-1*F[];
"""


def _solve_with(form):
    r, _ = run(POISSON_TEMPLATE.format(form=form))
    return r.env.lookup("uh").dofs.copy()


def test_three_paths_bitwise_identical():
    u_solve = _solve_with(SOLVE_FORM)
    u_problem = _solve_with(PROBLEM_FORM)
    u_varf = _solve_with(VARF_FORM)
    assert np.array_equal(u_solve, u_problem)
    assert np.array_equal(u_solve, u_varf)


def test_varf_poisson_max_dof():
    u = _solve_with(VARF_FORM)
    assert abs(u.max() - 0.0737) <= 0.002


def test_problem_defers_solve_until_invoked():
    src = """
    mesh Th=square(4,4);
    fespace Vh(Th,P1);
    Vh uh,vh;
    macro Grad(u)[dx(u),dy(u)]//
    problem p(uh,vh) = int2d(Th)(Grad(uh)'*Grad(vh)) - int2d(Th)(1.*vh) + on(1,2,3,4,uh=0);
    real before=uh[].max;
    p;
    real after=uh[].max;
    """
    r, _ = run(src)
    assert r.env.lookup("before") == 0.0
    assert r.env.lookup("after") > 0.0


def test_solve_with_cg_matches_lu():
    base = POISSON_TEMPLATE.format(form=SOLVE_FORM)
    u_lu = _solve_with(SOLVE_FORM)
    r, _ = run(base.replace("solver=LU", "solver=CG"))
    u_cg = r.env.lookup("uh").dofs
    assert np.linalg.norm(u_cg - u_lu) <= 1e-8 * np.linalg.norm(u_lu)


def test_factorization_reuse_with_init():
    src = """
    mesh Th=square(6,6);
    fespace Vh(Th,P1);
    Vh uh,vh,f;
    macro Grad(u)[dx(u),dy(u)]//
    real total=0;
    for (int k=0; k<3; k++) {
        f = 1.0+k;
        solve poisson(uh,vh,init=k,solver=LU) =
            int2d(Th)( Grad(uh)'*Grad(vh) ) - int2d(Th)(f*vh) + on(1,2,3,4,uh=0);
        total += uh[].max;
    }
    """
    r, _ = run(src)
    # linear in f: maxima scale as 1, 2, 3
    base = r.env.lookup("total") / 6.0
    assert base > 0


def test_mixing_linear_and_bilinear_in_one_integral_rejected():
    src = """
    mesh Th=square(2,2);
    fespace Vh(Th,P1);
    Vh uh,vh;
    solve bad(uh,vh) = int2d(Th)( dx(uh)*dx(vh) - 1.0*vh ) + on(1,2,3,4,uh=0);
    """
    with pytest.raises(EvalError):
        run(src)


def test_complex_fe_space_unsupported():
    src = """
    mesh Th=square(2,2);
    fespace Vh(Th,P1);
    Vh<complex> u0;
    """
    with pytest.raises(UnsupportedError):
        run(src)


def test_periodic_fespace_unsupported():
    src = """
    mesh Th=square(2,2);
    fespace Vh(Th,P1,periodic=[[1,x],[3,x]]);
    """
    with pytest.raises(UnsupportedError):
        run(src)


def test_nested_macro_expansion():
    src = """
    macro Grad(u)[dx(u),dy(u)]//
    macro Energy(u)(Grad(u)'*Grad(u))//
    mesh Th=square(4,4);
    fespace Vh(Th,P1);
    Vh w=x+2*y;
    real e=int2d(Th)(Energy(w));
    """
    r, _ = run(src)
    assert r.env.lookup("e") == pytest.approx(5.0, abs=1e-13)


ELLNL_SCRIPT = """
verbosity=0.;
int N=16;
real R=1.;
border C(t=0.,2.*pi){x=R*cos(t);y=R*sin(t);label=1;};
mesh Th=buildmesh(C(N));
fespace Vh(Th,P1);
Vh uh, uh0=0, V=uh0^2, vh;
Vh uex=sin((x ^ 2 + y ^ 2 - 1));
Vh f=0.4e1 * sin((x ^ 2 + y ^ 2 - 1)) * (x ^ 2) - 0.4e1 * cos((x ^ 2 + y ^ 2 - 1)) + 0.4e1 * sin((x ^ 2 + y ^ 2 - 1)) * (y ^ 2) + sin ((x ^ 2 + y ^ 2 - 1)) - sin((x ^ 2 + y ^ 2 - 1)) * cos((x ^ 2 + y ^ 2 - 1)) ^ 2;
macro Grad(u)[dx(u),dy(u)]//
problem ELLNL(uh,vh) =
        int2d(Th)(Grad(uh)'*Grad(vh))
        + int2d(Th) ( uh*V*vh )
        - int2d(Th)( f*vh )
        + on(1,uh=0);
real err=1.;
while (err >= 1e-10){
    ELLNL;
    err=sqrt(int2d(Th)((uh-uh0)^2));
    V=uh^2;
    uh0=uh;
}
real L2error= sqrt(int2d(Th)((uh-uex)^2));
"""


def test_nonlinear_fixed_point_script_matches_driver():
    """The scripted fixed-point loop and the study driver are dual routes to
    the same computation; they must agree to roundoff."""
    import math
    from femscript.fespace import FeSpace, interpolate
    from femscript.fields import as_field
    from femscript.forms import integrate_2d
    from femscript.studies import disk_mesh, ellnl_exact, run_fixed_point

    r, _ = run(ELLNL_SCRIPT)
    script_err = r.env.lookup("L2error")

    mesh = disk_mesh(16)
    uh, _, _ = run_fixed_point("ellnl", 16, mesh=mesh)
    uex = interpolate(FeSpace(mesh, "P1"), ellnl_exact)
    d = as_field(uh) - as_field(uex)
    driver_err = math.sqrt(integrate_2d(mesh, d * d))
    assert script_err == pytest.approx(driver_err, rel=1e-12)


def test_lumped_quadrature_named_parameter():
    src = """
    mesh Th=square(3,3);
    fespace Vh(Th,P1);
    Vh uh,vh;
    varf m(uh,vh) = int2d(Th,qft=qf1pTlump)(uh*vh);
    matrix M=m(Vh,Vh);
    """
    r, _ = run(src)
    M = r.env.lookup("M").to_dense()
    assert np.abs(M - np.diag(np.diag(M))).max() == 0.0  # lumped mass is diagonal
    assert abs(np.diag(M).sum() - 1.0) <= 1e-14


def test_unknown_named_parameter_is_warning_only():
    src = """
    mesh Th=square(4,4);
    fespace Vh(Th,P1);
    Vh uh,vh;
    solve p(uh,vh,frobnicate=3) = int2d(Th)(dx(uh)*dx(vh)+dy(uh)*dy(vh))
        - int2d(Th)(1.*vh) + on(1,2,3,4,uh=0);
    """
    r, _ = run(src)
    assert r.exit_code == 0


def test_exec_runs_behind_flag(tmp_path):
    src = 'int rc=exec("true");'
    r, _ = run(src, script_dir=str(tmp_path), allow_exec=True)
    assert r.env.lookup("rc") == 0


def test_dsl_file_write_matches_dof_txt_exporter(tmp_path):
    from femscript.io import export_dof_txt
    src = """
    mesh Th=square(3,3);
    fespace Vh(Th,P1);
    Vh u=sin(x)*cos(y);
    ofstream f("dsl.txt"); f << u[];
    """
    r, _ = run(src, script_dir=str(tmp_path))
    export_dof_txt(r.env.lookup("u"), tmp_path / "api.txt")
    assert (tmp_path / "dsl.txt").read_bytes() == (tmp_path / "api.txt").read_bytes()


# -- corpus ---------------------------------------------------------------------

@pytest.mark.parametrize("path", CORPUS, ids=[p.stem for p in CORPUS])
def test_corpus_evaluates(path, tmp_path):
    out = io.StringIO()
    result = run_source(path.read_text(), script_dir=str(tmp_path),
                        stdout=out, stdin=io.StringIO("5\n"), verbosity=0)
    assert result.exit_code == 0


def test_corpus_loops_output(tmp_path):
    path = Path(__file__).parent / "corpus" / "loops.edp"
    out = io.StringIO()
    run_source(path.read_text(), script_dir=str(tmp_path), stdout=out, verbosity=0)
    assert out.getvalue().split() == ["55", "11", "55"]


def test_corpus_io_streams_files(tmp_path):
    path = Path(__file__).parent / "corpus" / "io_streams.edp"
    out = io.StringIO()
    result = run_source(path.read_text(), script_dir=str(tmp_path),
                        stdout=out, stdin=io.StringIO("7\n"), verbosity=0)
    assert result.exit_code == 0
    gnu = (tmp_path / "plot.gnu").read_text().splitlines()
    assert len(gnu) == 11 and gnu[0] == "0 0"
    bb = (tmp_path / "solution.bb").read_text().splitlines()
    assert bb[0].split() == ["2", "1", "1", "25", "2"]
    assert len(bb) == 26
    math_lines = (tmp_path / "uhsol.1000.txt").read_text().splitlines()
    assert len(math_lines) == 4 * 32  # 4 data lines per triangle


def test_corpus_borders_writes_eps(tmp_path):
    path = Path(__file__).parent / "corpus" / "borders_buildmesh.edp"
    out = io.StringIO()
    result = run_source(path.read_text(), script_dir=str(tmp_path),
                        stdout=out, verbosity=0)
    assert result.exit_code == 0
    assert (tmp_path / "mesh.eps").exists()
    assert (tmp_path / "Name.msh").exists()
    area, nv4, ne_circle, ne_hole = out.getvalue().split()
    assert float(area) == pytest.approx(20.0, abs=1e-9)
    assert int(ne_circle) == 50 and int(ne_hole) == 80


# -- coefficients are evaluated at DOF sites of their own mesh -------------------

OTHER_MESH_G = """
mesh Th=square(4,4);
mesh Tg=square(5,5);
fespace Vh(Th,P1);
fespace Gh(Tg,P1);
Gh g=x;
Vh u,v;
"""


@pytest.mark.parametrize("use", [
    "solve P(u,v) = int2d(Th)(dx(u)*dx(v) + dy(u)*dy(v)) - int2d(Th)(v) + on(1,2,3,4,u=g);",
    "Th = movemesh(Th, [x+g, y]);",
    "mesh Ts = square(4, 4, [x+g, y]);",
])
def test_fe_coefficient_from_another_mesh_rejected(use):
    with pytest.raises(InvalidArgumentError):
        run(OTHER_MESH_G + use)


def test_movemesh_moves_each_vertex_by_the_dof_value():
    src = """
    mesh Th=square(6,6);
    fespace Vh(Th,P1);
    Vh u=0.05*sin(3*x)*y;
    mesh Tm=movemesh(Th, [x+u, y]);
    """
    r, _ = run(src)
    Th, Tm, u = (r.env.lookup(k) for k in ("Th", "Tm", "u"))
    assert np.array_equal(Tm.points[:, 0], Th.points[:, 0] + u.dofs)
    assert np.array_equal(Tm.points[:, 1], Th.points[:, 1])


def test_square_transform_and_its_fold():
    r, _ = run("mesh Th=square(3,2,[2*x, y+x]);")
    from femscript.mesh import build_square
    ref = build_square(3, 2)
    Th = r.env.lookup("Th")
    assert np.array_equal(Th.points, np.column_stack([2 * ref.points[:, 0],
                                                      ref.points.sum(axis=1)]))
    assert np.array_equal(Th.tri, ref.tri)
    with pytest.raises(FoldOverError):
        run("mesh Th=square(3,3,[-x, y]);")
