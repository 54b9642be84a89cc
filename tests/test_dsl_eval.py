import collections
import io
import re
from pathlib import Path

import numpy as np
import pytest

from femscript.dsl import EvalError, Interpreter, parse, run_source
from femscript.dsl import astnodes as A
from femscript.dsl.interp import _Bool
from femscript.errors import FoldOverError, InvalidArgumentError, UnsupportedError
from femscript.linalg import SparseMatrix, dot

CORPUS = sorted(Path(__file__).parent.glob("corpus/*.edp"))
HEAT_LISTING = Path(__file__).resolve().parents[1] / "bench" / "listings" / "heat_euler.edp"


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


class _CountingOut(io.StringIO):
    flushes = 0

    def flush(self):
        self.flushes += 1


def test_endl_in_a_string_is_a_newline():
    out = _CountingOut()
    r = run_source('string s="a"+endl+"b"; cout << s << endl;', stdout=out, verbosity=0)
    assert r.env.lookup("s") == "a\nb"
    assert out.getvalue() == "a\nb\n"
    assert out.flushes == 1       # writing endl flushes; writing a string does not


def test_analytic_function_called_at_a_point():
    r, _ = run("func f=x*y;\nreal a=f(0.5,0.25);")
    assert r.env.lookup("a") == 0.125
    with pytest.raises(EvalError, match=r"^line 2: analytic function 'f' is evaluated at "
                                        r"\(x, y\)$") as err:
        run("func f=x*y;\nreal a=f(1);")
    assert err.value.line == 2


POINT_OR_INTEGRAL = r"a function of x, y, which needs a point, as in mu\(0\.5,0\.5\), or an integral$"


@pytest.mark.parametrize("src, message", [
    ("func mu=1+x;\ncout << mu;", "cannot write " + POINT_OR_INTEGRAL),
    ("func real f(real t){return t;}\ncout << f;", "cannot write the func 'f'$"),
    ("mesh Th=square(2,2); fespace Vh(Th,P1); varf a(u,v)=int2d(Th)(u*v);\ncout << a;",
     "cannot write the varf 'a'$"),
    ("func mu=1+x;\nreal a=mu+1;", "real a needs a number, not " + POINT_OR_INTEGRAL),
    ("func mu=1+x;\nint k=mu;", "int k needs a number, not " + POINT_OR_INTEGRAL),
    ("func mu=1+x; real a;\na=mu;\ncout << a+1;", "real a needs a number, not "
     + POINT_OR_INTEGRAL),
    ("func mu=1+x; complex z;\nz=mu;", "complex z needs a number, not " + POINT_OR_INTEGRAL),
    ("func real g(real t){return t;} func mu=1+x;\nreal a=g(mu);",
     "real t needs a number, not " + POINT_OR_INTEGRAL),
    ("real[int] v(3); func mu=1+x;\nv[0]=mu;", r"real v\[0\] needs a number, not "
     + POINT_OR_INTEGRAL),
    ("real[int] v(3);\nv[0]=1i;", r"real v\[0\] cannot hold a complex value$"),
    ("real[int,int] A(2,3); func mu=1+x;\nA(1,2)=mu;", r"real A\[1,2\] needs a number, not "
     + POINT_OR_INTEGRAL),
    ("func mu=1+x;\nbool b=mu;\ncout << b;", "bool b needs a number, not " + POINT_OR_INTEGRAL),
    ("matrix A;\ncout << A;", "cannot write an unset mesh or matrix$"),
    ("mesh Th=square(2,2);\nreal a=Th+1;", r"operator '\+' undefined for a mesh and an int$"),
    ("mesh Th=square(2,2); fespace Vh(Th,P1);\nreal a=2*Vh;",
     r"operator '\*' undefined for an int and an fespace$"),
    ("real a=1;\na(2);", "cannot call a real$"),
    ("real a=1;\nreal b=a[0];", "cannot index a real$"),
    ('string s="a";\nstring t=-s;', "cannot negate a string$"),
    ('string s="a";\ncout << s\';', "cannot transpose a string$"),
    ("mesh Th=square(2,2);\nreal a=Th.foo;", "unknown member 'foo' on a mesh$"),
    ('mesh Th=square(2,2); fespace Vh(Th,P1); Vh u;\nu="a";',
     "cannot assign a string to an FE function$"),
    ("mesh Th=square(2,2); fespace Vh(Th,P1); Vh u;\nu=1i;",
     "cannot assign a complex to an FE function$"),
    ("mesh Th=square(2,2);\nreal a=int2d(Th)(Th);", "cannot use a mesh as a field$"),
], ids=["write-func", "write-real-func", "write-varf", "init-real", "init-int", "assign-real",
        "assign-complex", "call-real", "assign-element", "assign-element-complex",
        "assign-call-element", "init-bool", "write-unset-matrix", "mesh-plus-int",
        "int-times-fespace", "call-a-real", "index-a-real", "negate-string",
        "transpose-string", "member-of-mesh", "string-to-fe", "complex-to-fe",
        "mesh-as-field"])
def test_internal_values_do_not_reach_the_script(src, message):
    with pytest.raises(EvalError, match="^line 2: " + message) as err:
        run(src)
    assert err.value.line == 2


# -- one store rule: a variable's declared type converts every write ------------

# Each path writes the value V into x, declared by `decl` (or of type T), on
# line 2.  The increment path makes its last write by `++`; the element path
# writes an element of a T[int] (its messages name a[0]); the parameter path
# binds f's parameter x and copies it out to y.
STORE_PATHS = {
    "declaration": "\n{T} x = {V};",
    "assign": "{decl}\nx = {V};",
    "compound": "{decl}\nx += {V};",
    "increment": "{decl}\nx += {V}; x--; x++;",
    "element": "{T}[int] a(1);\na[0] = {V}; {T} x = a[0];",
    "stream": "{decl}\ncin >> x;",
    "parameter": "{decl_y}\nfunc int f({T} x) {{ y = x; return 0; }} f({V});",
}
SCALAR_TYPES = ("int", "real", "complex", "bool")


def _store_paths(T, token):
    """The paths a type has.  `+` joins text and `++` needs a number, so only
    numbers and arrays have the compound path and only numbers `++`; bool
    has no arrays; a func or an fespace is bound by its definition alone."""
    paths = ["assign"] if T in ("func", "fespace") else ["declaration", "assign", "parameter"]
    if T in SCALAR_TYPES or "[" in T:
        paths.append("compound")
    if T in SCALAR_TYPES:
        paths.append("increment")
    if T in SCALAR_TYPES and T != "bool":
        paths.append("element")
    if token is not None:
        paths.append("stream")
    return paths


def _held(v):
    """What a variable holds, comparable across paths."""
    if isinstance(v, np.ndarray):
        return v.dtype.str, v.tolist()
    if hasattr(v, "to_dense"):
        return "matrix", v.to_dense().tolist()
    return type(v).__name__, v


def fails(message):
    return "error", 2, f"line 2: {message}"


STORE_ROWS = [
    # T, a declaration of x without a value, V, V as an input token, what x holds
    ("int", "int x;", "2.7", "2.7", 2),
    ("int", "int x;", "-2.5", "-2.5", -2),
    ("int", "int x;", '"ab"', "ab", fails("int x needs a number, not a string")),
    ("int", "int x;", "1e300", "1e300",
     fails("int x cannot hold a non-finite or out-of-range value")),
    ("int", "int x;", "1e308*10", "inf",
     fails("int x cannot hold a non-finite or out-of-range value")),
    ("real", "real x;", "3", "3", 3.0),
    ("real", "real x;", "1i", None, fails("real x cannot hold a complex value")),
    ("complex", "complex x;", "2", "2", 2 + 0j),
    ("bool", "bool x;", "2.5", "2.5", _Bool(1)),
    ("string", "string x;", '"ab"', "ab", "ab"),
    ("string", "string x;", "5", None, fails("string x needs a string, not an int")),
    ("real[int]", "real[int] x(2);", "[1,2]", "1 2", np.array([1.0, 2.0])),
    ("int[int]", "int[int] x(2);", "[1.5,-2]", "1.5 -2", np.array([1, -2])),
    ("int[int]", "int[int] x(2);", "[1e300,1]", None,
     fails("int[int] x cannot hold a non-finite or out-of-range value")),
    ("real[int]", "real[int] x(2);", "[1i,2]", None,
     fails("real[int] x cannot hold a complex value")),
    ("real[int]", "real[int] x(2);", "1i", None, fails("real[int] x cannot hold a complex value")),
    ("mesh", "mesh x;", "5", "5", fails("mesh x needs a mesh, not an int")),
    ("mesh", "mesh x;", "2.5", "2.5", fails("mesh x needs a mesh, not a real")),
    ("matrix", "matrix x;", "[[2,0],[0,4]]", None,
     SparseMatrix.from_dense(np.array([[2.0, 0], [0, 4]]))),
    ("matrix", "matrix x;", '"ab"', "ab", fails("matrix x needs a matrix, not a string")),
    ("func", "func x=1+y;", "3", "3", fails("cannot assign to the func 'x'")),
    ("fespace", "mesh Th=square(2,2); fespace x(Th,P1);", "3", "3",
     fails("cannot assign to the fespace 'x'")),
]


@pytest.mark.parametrize("T, decl, value, token, expected", STORE_ROWS,
                         ids=[f"{r[0]}={r[2]}" for r in STORE_ROWS])
def test_every_write_converts_by_the_declared_type(T, decl, value, token, expected):
    held = {}
    for path in _store_paths(T, token):
        src = STORE_PATHS[path].format(T=T, V=value, decl=decl,
                                       decl_y=re.sub(r"\bx\b", "y", decl))
        try:
            r, _ = run(src, stdin=token or "")
            held[path] = _held(r.env.lookup("y" if path == "parameter" else "x"))
        except EvalError as err:
            held[path] = "error", err.line, str(err).replace("a[0]", "x")
    expected = expected if isinstance(expected, tuple) else _held(expected)
    assert held == dict.fromkeys(held, expected)


def test_matrix_assigned_a_dense_array_solves():
    r, out = run("matrix A;\nA=[[2,0],[0,4]]; real[int] b=[1,4]; cout << A^-1*b;")
    assert out == "0.5\n1\n"


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


def test_factorization_reuse_with_init(monkeypatch):
    # a solve statement run again in a loop is one problem: init=k keeps the
    # matrix and its factorization from the first pass, init=0 rebuilds both
    import femscript.dsl.interp as interp
    factorize, lus = interp.factorize, []

    def recording(A):
        lus.append(factorize(A))
        return lus[-1]
    monkeypatch.setattr(interp, "factorize", recording)
    template = """
    mesh Th=square(6,6);
    fespace Vh(Th,P1);
    Vh uh,vh,f;
    macro Grad(u)[dx(u),dy(u)]//
    real[int] top(3);
    for (int k=0; k<3; k++) {
        f = 1.0+k;
        solve poisson(uh,vh,init=INIT,solver=LU) =
            int2d(Th)( Grad(uh)'*Grad(vh) ) - int2d(Th)(f*vh) + on(1,2,3,4,uh=0);
        top[k] = uh[].max;
    }
    """
    for init, factorizations in (("k", 1), ("0", 3)):
        lus.clear()
        r, _ = run(template.replace("INIT", init))
        # one call per solve; a matrix keeps its factorization once made
        assert len(lus) == 3 and len({id(lu) for lu in lus}) == factorizations
        # linear in f: maxima scale as 1, 2, 3
        top = r.env.lookup("top")
        assert top[0] > 0
        assert top[1:] / top[0] == pytest.approx([2.0, 3.0], rel=1e-12, abs=0)


@pytest.mark.parametrize("k, expected", [(1, 1.0), (0, 0.5)])
def test_problem_init_reuses_the_matrix(k, expected):
    # FreeFem: init=0 reassembles the matrix; init!=0 keeps the previous one
    # (and its factorization), so a changed coefficient of the bilinear part
    # has no effect.  Mass matrix times u = mass matrix times 1: u = 1/c.
    src = f"""
    mesh Th=square(4,4);
    fespace Vh(Th,P1);
    Vh u,v;
    real c=1;
    int k=0;
    problem p(u,v,init=k) = int2d(Th)(c*u*v) - int2d(Th)(v);
    p;
    real first=u[].max;
    c=2; k={k};
    p;
    """
    r, _ = run(src)
    assert r.env.lookup("first") == pytest.approx(1.0, rel=1e-12)
    assert np.allclose(r.env.lookup("u").dofs, expected, rtol=1e-12, atol=0)


# -- a problem or varf re-evaluates its form only when a name it read changed ---

def _form_evaluations(src):
    """Run `src`; the interpreter, and how often each problem or varf body was
    evaluated."""
    program = parse(src)
    bodies = {id(s.body): s.name for s in program.body
              if isinstance(s, (A.ProblemDef, A.VarfDef))}
    counts = collections.Counter()

    class Counting(Interpreter):
        def eval(self, node, env):
            if id(node) in bodies:
                counts[bodies[id(node)]] += 1
            return super().eval(node, env)

    interp = Counting(stdout=io.StringIO(), verbosity=0)
    interp.run(program)
    return interp, counts


MEMO_SETUP = """
mesh Th=square(4,4);
fespace Vh(Th,P1);
Vh u, v, g=1+x;
real a=1, ub=0;
real[int] c=[1, 2];
func f=a*x;
func real s(real t) {{ return a*t; }}
problem p(u,v) = int2d(Th)(u*v + dx(u)*dx(v) + dy(u)*dy(v)) - int2d(Th)(({coef})*v)
    + on(1,u={ub});
"""

# what the form reads, its boundary value, and the change between two solves;
# each copies a value into the terms, so reusing them unchecked solves stale
MEMO_CASES = {
    "real": ("a", "0", "a=2;"),
    "func-reads-a-global": ("f", "0", "a=2;"),
    "redefined-func": ("f", "0", "func f=2+y;"),
    "non-analytic-func": ("s(1)", "0", "a=2;"),
    "point-value": ("g(0.5,0.5)", "0", "g=2+x;"),
    "dofs-member": ("g[].max", "0", "g[]=5;"),
    "array-element": ("c[0]", "0", "c[0]=3;"),
    "array-product": ("c'*c", "0", "c[1]=3;"),
    "integral": ("int2d(Th)(g)", "0", "g=2*x;"),
    "on-value": ("1", "ub", "ub=1;"),
}


@pytest.mark.parametrize("coef, ub, change", MEMO_CASES.values(), ids=MEMO_CASES)
def test_a_problem_sees_every_change_to_what_its_form_read(coef, ub, change):
    setup = MEMO_SETUP.format(coef=coef, ub=ub)
    twice, _ = run(setup + "p;\n" + change + "\np;")
    fresh, _ = run(setup + change + "\np;")
    first, _ = run(setup + "p;")
    u = twice.env.lookup("u").dofs
    assert not np.array_equal(u, first.env.lookup("u").dofs)     # the change matters
    assert np.array_equal(u, fresh.env.lookup("u").dofs)


@pytest.mark.parametrize("change", ["g=2+x*y;", "g[]=3;", "Vh w=3-y; g=w;"])
def test_fe_functions_enter_the_form_by_reference(change):
    # a write to g's DOFs needs no guard: the memoized terms read them live
    setup = MEMO_SETUP.format(coef="g + dx(g)", ub="g")
    interp, counts = _form_evaluations(setup + "p;\n" + change + "\np;")
    fresh, _ = run(setup + change + "\np;")
    assert counts == {"p": 1}
    assert np.array_equal(interp.env.lookup("u").dofs, fresh.env.lookup("u").dofs)


def test_the_heat_listing_evaluates_its_form_once():
    src = "real dt=0.01;\nreal amp=1;\nint nsteps=5;\n" + HEAT_LISTING.read_text()
    interp, counts = _form_evaluations(src)
    assert counts == {"heat": 1}
    # the same steps with a new problem each step, which builds its form afresh
    fresh, _ = run(src.replace("heat;", "problem heat2(u,v,solver=LU) = int2d(Th)( u*v/dt "
                               "+ Grad(u)'*Grad(v) ) - int2d(Th)( uold*v/dt + f*v ) "
                               "+ on(1,2,3,4,u=0); heat2;"))
    assert np.array_equal(interp.env.lookup("u").dofs, fresh.env.lookup("u").dofs)


def test_a_varf_reevaluates_when_a_coefficient_or_the_space_changes():
    src = """
    mesh Th=square(4,4);
    fespace Vh(Th,P1);
    fespace Wh(Th,P1);
    real k=1;
    varf a(u,v) = int2d(Th)(k*u*v);
    matrix A1=a(Vh,Vh);
    k=2;
    matrix A2=a(Vh,Vh);
    matrix A3=a(Vh,Vh);
    matrix A4=a(Wh,Wh);
    """
    interp, counts = _form_evaluations(src)
    assert counts == {"a": 3}
    A1, A2, A3, A4 = (interp.env.lookup(f"A{i}").to_dense() for i in range(1, 5))
    assert np.array_equal(A2, 2 * A1)
    assert np.array_equal(A3, A2) and np.array_equal(A4, A2)


def test_mixing_linear_and_bilinear_in_one_integral_rejected():
    src = """
    mesh Th=square(2,2);
    fespace Vh(Th,P1);
    Vh uh,vh;
    solve bad(uh,vh) = int2d(Th)( dx(uh)*dx(vh) - 1.0*vh ) + on(1,2,3,4,uh=0);
    """
    with pytest.raises(EvalError):
        run(src)


@pytest.mark.parametrize("body, message", [
    ("int2d(Th)(dx(u)*dx(v) - v)", "cannot mix bilinear and linear parts"),
    ("int2d(Th)(u) + int2d(Th)(u*v)", "unknown without a test function"),
    ("int2d(Th)(u*v) - on(1,u=0)", "cannot negate a Dirichlet clause"),
    ("int2d(Th)(u*v) + 2*on(1,u=0)", "cannot scale a Dirichlet clause"),
], ids=["mix", "no-test-function", "negate-on", "scale-on"])
def test_form_term_errors_give_the_line(body, message):
    src = f"mesh Th=square(2,2);\nfespace Vh(Th,P1);\nVh u,v;\nsolve p(u,v) = {body};"
    with pytest.raises(EvalError, match=message) as err:
        run(src)
    assert err.value.line == 4


def test_complex_factor_of_form_terms_unsupported():
    with pytest.raises(UnsupportedError):
        run("mesh Th=square(2,2); fespace Vh(Th,P1); Vh u,v;"
            "solve p(u,v) = 2i*int2d(Th)(u*v) + on(1,u=0);")


def test_logic_with_a_number_first_gives_the_same_indicator():
    src = """
    mesh Th=square(4,4);
    real a=int2d(Th)(1 && (x<0.5)), b=int2d(Th)((x<0.5) && 1);
    real c=int2d(Th)(0 || (x<0.5)), d=int2d(Th)((x<0.5) || 0);
    """
    r, _ = run(src)
    a, b, c, d = (r.env.lookup(k) for k in "abcd")
    assert a == b == c == d < 1.0


@pytest.mark.parametrize("call", ["abs()", "pow(2)", "atan2(1)", "min()", "int()",
                                  "trace()", "det()", "dx()", "int2d()", "int1d()"])
def test_builtin_missing_argument_gives_the_line(call):
    with pytest.raises(EvalError, match=r"^line 2: \w+ needs \d argument") as err:
        run(f"real b = 1;\nreal a = {call};")
    assert err.value.line == 2


@pytest.mark.parametrize("stmt, message", [
    ("real a = v[5];", "index 5 out of range for size 2"),
    ("v[-7] = 1;", "index -7 out of range for size 2"),
    ("real a = v(5);", "index 5 out of range for size 2"),
    ("v(2) = 1;", "index 2 out of range for size 2"),
    ("real a = A[1, 7];", "index 1, 7 out of range for size 2x2"),
    ("real a = Th[8][0].x;", "index 8 out of range for size 8"),
    ("real a = Th[0][3].x;", "index 3 out of range for size 3"),
])
def test_index_out_of_range_gives_the_line(stmt, message):
    src = f"real[int] v(2);\nreal[int,int] A(2,2);\nmesh Th=square(2,2);\n{stmt}"
    with pytest.raises(EvalError, match=f"^line 4: {message}$") as err:
        run(src)
    assert err.value.line == 4


@pytest.mark.parametrize("call", ['int("abc")', 'atan2("x", 1)', "abs(s)", "pow(0., -1)"])
def test_builtin_bad_argument_gives_the_line(call):
    name = call.split("(")[0]
    with pytest.raises(EvalError, match=f"^line 2: {name}: ") as err:
        run(f'string s = "ab";\nreal a = {call};')
    assert err.value.line == 2


def test_lazy_builtin_missing_argument_gives_the_line():
    with pytest.raises(EvalError, match="^line 2: movemesh needs 2 arguments"):
        run("mesh Th=square(2,2);\nmesh Tk=movemesh(Th);")


def test_kernel_error_gets_the_statement_line():
    with pytest.raises(InvalidArgumentError, match="^line 3: d/dx applies") as err:
        run("mesh Th=square(2,2);\nfespace Vh(Th,P1);\nVh u=dx(1);")
    assert err.value.line == 3


def test_error_names_the_line_of_the_innermost_expression():
    src = ("mesh Th=square(2,2), Tg=square(3,3);\nfespace Vg(Tg,P1);\nVg g=x;\n"
           "real a = 1 +\nint2d(Th)(g);")
    with pytest.raises(InvalidArgumentError, match="^line 5: FE coefficient lives on a "
                                                   "different mesh$") as err:
        run(src)
    assert err.value.line == 5


def test_kernel_error_keeps_the_innermost_line():
    src = "mesh Th=square(2,2);\nfunc real f(real t) {\n  return dx(t);\n}\n{\n real a = f(1);\n}"
    with pytest.raises(InvalidArgumentError) as err:
        run(src)
    assert err.value.line == 3
    assert str(err.value).startswith("line 3: d/dx") and str(err.value).count("line") == 1


# the unknown lives on Tk; the integrals run over Th
OTHER_MESH_FORM = """
mesh Th=square(4,4);
mesh Tk=square(8,8);
fespace Vh(Tk,P1);
Vh u,v;
"""
OTHER_MESH_BODY = "int2d(Th)(dx(u)*dx(v)+dy(u)*dy(v)) - int2d(Th)(v) + on(1,2,3,4,u=0)"


@pytest.mark.parametrize("use", [
    f"solve p(u,v) = {OTHER_MESH_BODY};",
    f"problem p(u,v) = {OTHER_MESH_BODY};\np;",
    f"varf a(u,v) = {OTHER_MESH_BODY};\nmatrix A = a(Vh,Vh);",
], ids=["solve", "problem", "varf"])
def test_integral_over_another_mesh_rejected(use):
    src = OTHER_MESH_FORM + use
    with pytest.raises(EvalError, match="mesh other than the unknown's") as err:
        run(src)
    # reported at the statement that solves or assembles
    assert err.value.line == src.count("\n") + 1


@pytest.mark.parametrize("integrand", [
    "c*Grad(u)'*Grad(v)", "Grad(u)'*c*Grad(v)", "Grad(u)'*(Grad(v)*c)",
])
def test_number_times_bracket_vector_distributes(integrand):
    src = f"""
    mesh Th=square(6,6);
    fespace Vh(Th,P1);
    real c=2.;
    macro Grad(u)[dx(u),dy(u)]//
    varf a(u,v) = int2d(Th)({integrand}) + on(1,u=0);
    varf b(u,v) = int2d(Th)(c*(dx(u)*dx(v)+dy(u)*dy(v))) + on(1,u=0);
    matrix A=a(Vh,Vh), B=b(Vh,Vh);
    """
    r, _ = run(src)
    A, B = r.env.lookup("A"), r.env.lookup("B")
    assert A.nnz == B.nnz
    assert np.array_equal(A.to_dense(), B.to_dense())


@pytest.mark.parametrize("integrand", [
    "c*Grad(u)'*Grad(v)", "Grad(u)'*c*Grad(v)", "Grad(u)'*(Grad(v)*c)",
])
@pytest.mark.parametrize("coef", ["w", "mu"], ids=["fe-function", "analytic-function"])
def test_scalar_times_bracket_vector_distributes(integrand, coef):
    src = f"""
    mesh Th=square(6,6);
    fespace Vh(Th,P1);
    Vh w=1+x;
    func mu=1+x;
    macro Grad(u)[dx(u),dy(u)]//
    varf a(u,v) = int2d(Th)({integrand.replace("c", coef)}) + on(1,u=0);
    varf b(u,v) = int2d(Th)({coef}*(dx(u)*dx(v)+dy(u)*dy(v))) + on(1,u=0);
    matrix A=a(Vh,Vh), B=b(Vh,Vh);
    """
    r, _ = run(src)
    A, B = r.env.lookup("A"), r.env.lookup("B")
    assert A.nnz == B.nnz
    assert np.array_equal(A.to_dense(), B.to_dense())


def test_solve_matches_the_python_api_bit_for_bit():
    src = """
    mesh Th=square(12,12);
    fespace Vh(Th,P1);
    Vh uh,vh;
    func f=x*y+1;
    solve p(uh,vh) = int2d(Th)(dx(uh)*dx(vh)+dy(uh)*dy(vh)) + int2d(Th)(uh*vh)
        - int2d(Th)(f*vh) + on(1,2,3,4,uh=x);
    """
    r, _ = run(src)
    from femscript.fespace import FeSpace
    from femscript.fields import X, Y
    from femscript.forms import (DirichletBC, FormTerm, TestFunction, TrialFunction,
                                 VarForm, as_form, assemble_bilinear, assemble_linear,
                                 dx, dy)
    from femscript.linalg import factorize
    from femscript.mesh import build_square

    Vh = FeSpace(build_square(12, 12), "P1")
    u, v = TrialFunction(), TestFunction()
    bc = DirichletBC(frozenset({1, 2, 3, 4}), X)
    A = assemble_bilinear(VarForm(bilinear_terms=[
        FormTerm("int2d", dx(u) * dx(v) + dy(u) * dy(v)),
        FormTerm("int2d", as_form(u) * v)], dirichlet=[bc]), Vh, Vh)
    b = assemble_linear(VarForm(linear_terms=[FormTerm("int2d", as_form(X * Y + 1) * v)],
                                dirichlet=[bc]), Vh)
    assert np.array_equal(r.env.lookup("uh").dofs, factorize(A).solve(b))


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

# Tg has as many vertices as Th, so only the mesh itself tells them apart
OTHER_MESH_G = """
mesh Th=square(4,4);
mesh Tg=movemesh(Th,[2*x,y]);
fespace Vh(Th,P1);
fespace Gh(Tg,P1);
Gh g=x;
Vh u,v;
"""


@pytest.mark.parametrize("use", [
    "solve P(u,v) = int2d(Th)(dx(u)*dx(v) + dy(u)*dy(v)) - int2d(Th)(v) + on(1,2,3,4,u=g);",
    "Th = movemesh(Th, [x+g, y]);",
    "mesh Ts = square(4, 4, [x+g, y]);",
    "Vh w=g;",
    "u=g;",
])
def test_fe_coefficient_from_another_mesh_rejected(use):
    with pytest.raises(InvalidArgumentError):
        run(OTHER_MESH_G + use)


def test_bare_fe_assignment_on_the_same_mesh_copies_dofs():
    r, _ = run(OTHER_MESH_G + "Gh w=g;")
    assert np.array_equal(r.env.lookup("w").dofs, r.env.lookup("g").dofs)
    assert r.env.lookup("w").dofs is not r.env.lookup("g").dofs


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


# -- a Python error on bad script data becomes an EvalError with the line --------

@pytest.mark.parametrize("src", [
    "real[int] v(-1);",
    'real[int] v("a");',
    'string s="a"; real b = s + 1;',
    "real[int,int] A(2,2); real[int] b(3); real[int] c = A*b;",
    "real a = 2^1e6;",
    "int a = 5 % 0;",
    "real a = 1./0;",
    'mesh Th=readmesh("nope.msh");',
    'mesh Th("nope.msh");',
    "func real f(real n){return f(n+1);} real a=f(1);",
    'ifstream f("in.txt"); f << 1;',
    'ofstream g("o.txt"); real a; g >> a;',
])
def test_python_error_in_a_statement_gives_the_line(src, tmp_path):
    (tmp_path / "in.txt").write_text("1 2\n")
    with pytest.raises(EvalError, match="^line 1: ") as err:
        run(src, script_dir=str(tmp_path))
    assert err.value.line == 1


# -- the language's array and matrix operators, against numpy and Python ---------

LINALG_PRELUDE = """real[int] a=[1,2,3], b=[4,-5,6.5];
real[int,int] M=[[1,2],[3,4]];
real[int] w=[5,-6];
matrix S=M;
"""
_a, _b = np.array([1.0, 2, 3]), np.array([4.0, -5, 6.5])
_M, _w = np.array([[1.0, 2], [3, 4]]), np.array([5.0, -6])


@pytest.mark.parametrize("stmt, expected", [
    ("real[int] c=a+b;", _a + _b),
    ("real[int] c=a-b;", _a - _b),
    ("real[int] c=a+2;", _a + 2),
    ("real[int] c=2+a;", 2 + _a),
    ("real[int] c=a-2;", _a - 2),
    ("real[int] c=2-a;", 2 - _a),
    ("real[int] c=a*3;", _a * 3),
    ("real[int] c=3*a;", 3 * _a),
    ("real[int] c=a/4;", _a / 4),
    ("real[int] c=1/a;", 1 / _a),
    ("real[int] c=a^2;", _a ** 2),
    ("real[int] c=M*w;", _M @ _w),
    ("real[int,int] c=M*M;", _M @ _M),
    ("real[int] c=w'*M;", _w @ _M),
    ("real[int] c=S*w;", _M @ _w),
    ("matrix c=2*S;", 2 * _M),
    ("matrix c=S*0.5;", 0.5 * _M),
    ("matrix c=S+S;", _M + _M),
    ("real[int] c(3); c=b;", _b),
    ("real[int] c(3); c=1;", np.ones(3)),
    ("real[int] c=a.*b;", _a * _b),
    ("real[int] c=a./b;", _a / _b),
    ("int c=7%3;", 1),
    ("int c=-7%3;", -1),
    ("int c=7%-3;", 1),
    ("int c=-7/3;", -2),
    ("complex z=1i; int c=(z==z);", 1),
    ("complex z=1i; int c=(z!=z);", 0),
    ("real c=7.5%2;", 7.5 % 2),
    ("int c=3^35;", 3 ** 35),
    ("real c=2^(-2);", 0.25),
    ("bool b; b=5; int c=b;", 1),
    ("bool b=1; b=0.5; int c=b;", 1),
    ("bool b=1; b=b+1; int c=b;", 1),
    # an assignment's value is the value it stored
    ("int i; real c=(i=2.5);", 2.0),
    ("int i=1; real c=(i+=0.5);", 1.0),
    ("bool b; int c=(b=5);", 1),
])
def test_array_and_matrix_operators(stmt, expected):
    r, _ = run(LINALG_PRELUDE + stmt)
    c = r.env.lookup("c")
    if hasattr(c, "to_dense"):
        c = c.to_dense()
    assert type(c) is type(expected)
    assert np.array_equal(c, expected)


@pytest.mark.parametrize("stmt, message", [
    ("real[int] c(2); c=a;", "array assignment with mismatched sizes"),
    ("int[int] c(2); c=1e308*10;", r"int\[int\] c cannot hold a non-finite or out-of-range value"),
    ("int c=1/0;", "integer division by zero"),
    ("real[int] c=a*b;", "use u'\\*v for dot products"),
    ("real[int] c=a/b;", "use u'\\*v for dot products"),
    ("real[int] d=[1,2]; real[int] c=a.*d;", "array shapes differ"),
    ("real[int] c=2*a';", "vector times transposed vector is the only outer form"),
    ("real c=S^-1*2;", "A\\^-1 must multiply a vector$"),
])
def test_array_operator_errors(stmt, message):
    with pytest.raises(EvalError, match=f"^line 5: {message}"):
        run(LINALG_PRELUDE + stmt)


def test_inverse_times_a_vector_of_the_wrong_length():
    # the solver's own right-hand-side check, located at the script's line
    with pytest.raises(InvalidArgumentError, match=r"^line 5: right-hand side of shape \(3,\) "
                                                   r"for 2 unknowns") as err:
        run(LINALG_PRELUDE + "real[int] c=S^-1*a;")
    assert err.value.line == 5
