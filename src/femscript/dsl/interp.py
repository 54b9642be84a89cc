"""Tree-walking evaluator.

Values are Python natives (int/float/complex/str), numpy arrays (vectors and
dense matrices), kernel objects (Mesh, FeSpace, FeFunction, SparseMatrix,
Field, FormExpr), and one small type per language concept that has no kernel
counterpart: `Stream` (cout, cin, cerr and files), `Transposed` (v' of an
array or of a bracket list), `BorderValue` and `BorderSum` (buildmesh's
argument; `C(n)` is a sum of one run), plus functions, varfs and problems.
Variational integrands evaluate in a "field" environment where x and y are
coordinate fields; an FE function is a field and the unknown and test
function are forms, so one evaluator serves plain arithmetic, analytic
functions, and form assembly alike.  The term algebra of
`varf`/`problem`/`solve` bodies yields the kernel's own types: an integral
becomes a `forms.FormTerm` and an `on()` clause a `forms.DirichletBC`,
collected in a `Terms` value that assembly consumes as is.

A Python error that a statement raises on bad data (an arithmetic, value,
type or OS error, or runaway recursion) becomes an EvalError naming the line.
"""

import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

from .. import forms as F
from .._fmt import fmt_real
from ..errors import FemError, UnsupportedError
from ..fespace import FeFunction, FeSpace
# The benchmark's tracer (bench/tracing.py) wraps the interpreter's
# interpolation at this module-level name; keep the alias while it does.
from ..fespace import interpolate as interpolate_field
from ..fields import (Binary as FieldBinary, Constant, Field, Unary as FieldUnary,
                      X as FIELD_X, Y as FIELD_Y)
from ..io.exporters import export_eps
from ..linalg import SparseMatrix, factorize, solve_cg
from ..linalg import det as _det, dot as _dot, outer as _outer, trace as _trace
from ..mesh import Border, Mesh, build_from_borders, build_square, load_msh, move_mesh, save_msh
from . import astnodes as A
from .parser import Parser


class EvalError(FemError):
    def __init__(self, message, line=None):
        if line:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class BreakSignal(Exception):
    pass


class ContinueSignal(Exception):
    pass


class ReturnSignal(Exception):
    def __init__(self, value):
        self.value = value


class ExitSignal(Exception):
    def __init__(self, code):
        self.code = int(code)


# --------------------------------------------------------------------------
# runtime value wrappers

class Env:
    __slots__ = ("vars", "parent", "files")

    def __init__(self, parent=None):
        self.vars = {}
        self.parent = parent
        self.files = []

    def define(self, name, value):
        self.vars[name] = value

    def lookup(self, name, line=None):
        env = self
        while env is not None:
            if name in env.vars:
                return env.vars[name]
            env = env.parent
        raise EvalError(f"undeclared identifier {name!r}", line)

    def owner(self, name):
        env = self
        while env is not None:
            if name in env.vars:
                return env
            env = env.parent
        return None

    def close_files(self):
        for f in self.files:
            f.close()
        self.files.clear()


@dataclass
class FuncValue:
    name: str
    ret_type: object       # None for analytic functions
    params: object         # tuple of (base, dims, name) or None
    body: object
    env: Env

    @property
    def analytic(self):
        return self.params is None


@dataclass
class BorderValue:
    name: str
    param: str
    t0: float
    t1: float
    body: tuple
    env: Env


class BorderSum:
    """buildmesh's argument: (border, point count) runs in source order."""

    def __init__(self, runs):
        self.runs = list(runs)


@dataclass
class VarfValue:
    name: str
    unknown: str
    test: str
    named: tuple
    body: object
    env: Env


class ProblemValue:
    def __init__(self, kind, name, unknown, test, named, body, env):
        self.kind = kind
        self.name = name
        self.unknown = unknown
        self.test = test
        self.named = named
        self.body = body
        self.env = env
        self.cache = None      # (mesh, matrix); the matrix caches its LU


class Stream:
    """A text stream: `direction` "in" or "out".  A stream the script opened
    (`owned`, a file) flushes on every write and closes with its scope."""

    def __init__(self, handle, name, direction, owned=False):
        self.handle = handle
        self.name = name
        self.direction = direction
        self.owned = owned
        self._tokens = []

    def write(self, text, flush=False):
        if self.direction != "out":
            raise EvalError(f"cannot write to the input stream {self.name}")
        self.handle.write(text)
        if flush or self.owned:
            getattr(self.handle, "flush", lambda: None)()

    def next_token(self):
        if self.direction != "in":
            raise EvalError(f"cannot read from the output stream {self.name}")
        while not self._tokens:
            line = self.handle.readline()
            if not line:
                raise EvalError(f"end of {self.name} while reading")
            self._tokens = line.split()
        return self._tokens.pop(0)

    def close(self):
        if self.owned and not self.handle.closed:
            self.handle.close()


ENDL = object()     # `endl`: writes a newline and flushes


@dataclass
class Integrator:
    kind: str              # int2d | int1d
    mesh: Mesh
    labels: tuple = ()
    quad: str = "default"


class Terms:
    """The integrals and on() clauses of a variational form: bilinear and
    linear `F.FormTerm`s, each in source order, `(unknown name,
    F.DirichletBC)` pairs, and the mesh of each integral."""

    def __init__(self, bilinear=(), linear=(), dirichlet=(), meshes=()):
        self.bilinear = list(bilinear)
        self.linear = list(linear)
        self.dirichlet = list(dirichlet)
        self.meshes = list(meshes)

    def __add__(self, other):
        return Terms(self.bilinear + other.bilinear, self.linear + other.linear,
                     self.dirichlet + other.dirichlet, self.meshes + other.meshes)

    def map(self, fn, what, line):
        """Apply `fn` to every integrand; on() clauses cannot be `what`."""
        if self.dirichlet:
            raise EvalError(f"cannot {what} a Dirichlet clause", line)

        def each(terms):
            return [F.FormTerm(t.kind, fn(t.expr), t.labels, t.quad) for t in terms]
        return Terms(each(self.bilinear), each(self.linear), (), self.meshes)


@dataclass
class SolveProxy:
    matrix: SparseMatrix


class TriangleProxy:
    def __init__(self, mesh, index):
        self.mesh = mesh
        self.index = index

    def vertex(self, j):
        return VertexProxy(self.mesh, int(self.mesh.tri[self.index, j]))


class VertexProxy:
    def __init__(self, mesh, index):
        self.mesh = mesh
        self.index = index

    @property
    def x(self):
        return float(self.mesh.points[self.index, 0])

    @property
    def y(self):
        return float(self.mesh.points[self.index, 1])

    @property
    def label(self):
        return int(self.mesh.vertex_label[self.index])


@dataclass
class Builtin:
    name: str
    fn: object
    lazy: bool = False
    nargs: int = 0      # positional arguments the builtin reads at least


# field operators as ufuncs; comparisons and logic yield 0/1 indicator fields
FIELD_ARITH = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide,
               "^": np.power}
FIELD_CMP = {"<": np.less, "<=": np.less_equal, ">": np.greater,
             ">=": np.greater_equal, "==": np.equal, "!=": np.not_equal,
             "&": np.logical_and, "&&": np.logical_and,
             "|": np.logical_or, "||": np.logical_or}

ELEMENT_NAMES = ("P0", "P1", "P2", "P3", "P4", "P1dc", "P2dc", "P1b", "RT0")
SOLVER_NAMES = {"LU": "LU", "CG": "CG", "sparsesolver": "LU", "UMFPACK": "LU",
                "GMRES": "LU", "Cholesky": "LU", "Crout": "LU"}


def _checked_index(shape, idx, line):
    """Integer indices into the leading axes of shape, each within its axis."""
    try:
        idx = tuple(int(i) for i in idx)
    except (TypeError, ValueError, OverflowError):
        raise EvalError("an index must be an integer", line) from None
    if len(idx) > len(shape) or not all(0 <= i < n for i, n in zip(idx, shape)):
        raise EvalError(f"index {', '.join(map(str, idx))} out of range for size "
                        f"{'x'.join(map(str, shape))}", line)
    return idx if len(idx) > 1 else idx[0]


def _simplify(v):
    if isinstance(v, (np.bool_, np.integer)):
        return int(v)
    if isinstance(v, np.floating):
        return float(v)
    if isinstance(v, np.complexfloating):
        return complex(v)
    return v


def _is_number(v):
    return isinstance(v, (int, float, complex)) and not isinstance(v, bool)


def _fieldable(v):
    return isinstance(v, (Field, FuncValue)) or _is_number(v)


def _format_value(v):
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return fmt_real(v)
    if isinstance(v, complex):
        return f"({fmt_real(v.real)},{fmt_real(v.imag)})"
    if isinstance(v, np.ndarray):
        if v.ndim == 1:
            return "\n".join(_format_value(_simplify(x)) for x in v) + "\n"
        return "\n".join(" ".join(_format_value(_simplify(x)) for x in row) for row in v) + "\n"
    return str(v)


# --------------------------------------------------------------------------

class Interpreter:
    def __init__(self, script_dir=".", stdout=None, stdin=None, allow_exec=False,
                 plot_files=True, verbosity=None):
        self.script_dir = script_dir
        self.stdout = stdout if stdout is not None else sys.stdout
        self.stdin = stdin if stdin is not None else sys.stdin
        self.allow_exec = allow_exec
        self.plot_files = plot_files
        self.globals = Env()
        self._t0 = time.perf_counter()
        self._install_builtins()
        if verbosity is not None:
            self.globals.define("verbosity", int(verbosity))

    # -- public ----------------------------------------------------------

    def run(self, source) -> int:
        program = Parser(source).parse_program() if isinstance(source, str) else source
        try:
            self.exec_body(program.body, self.globals)
        except ExitSignal as sig:
            return sig.code
        finally:
            self.globals.close_files()
        return 0

    @property
    def env(self):
        return self.globals

    # -- environment -------------------------------------------------------

    def _install_builtins(self):
        g = self.globals
        g.define("verbosity", 2)
        g.define("pi", math.pi)
        g.define("true", 1)
        g.define("false", 0)
        g.define("endl", ENDL)
        g.define("cout", Stream(self.stdout, "cout", "out"))
        g.define("cerr", Stream(sys.stderr, "cerr", "out"))
        g.define("cin", Stream(self.stdin, "cin", "in"))
        for name in ELEMENT_NAMES:
            g.define(name, name)
        for name in SOLVER_NAMES:
            g.define(name, name)
        g.define("qf1pTlump", "lumped")
        g.define("qf2pT", "default")
        g.define("qf5pT", "order5")

        for name, fn in [("sin", np.sin), ("cos", np.cos), ("tan", np.tan),
                         ("asin", np.arcsin), ("acos", np.arccos), ("atan", np.arctan),
                         ("sinh", np.sinh), ("cosh", np.cosh), ("tanh", np.tanh),
                         ("exp", np.exp), ("log", np.log), ("log10", np.log10),
                         ("sqrt", np.sqrt), ("floor", np.floor), ("ceil", np.ceil)]:
            g.define(name, Builtin(name, self._make_math(name, fn), nargs=1))
        g.define("abs", Builtin("abs", self._bi_abs, nargs=1))
        g.define("pow", Builtin("pow", lambda i, e, a, n: _simplify(a[0] ** a[1]), nargs=2))
        g.define("atan2", Builtin("atan2", lambda i, e, a, n: math.atan2(a[0], a[1]), nargs=2))
        g.define("min", Builtin("min", lambda i, e, a, n: _simplify(min(a)), nargs=1))
        g.define("max", Builtin("max", lambda i, e, a, n: _simplify(max(a)), nargs=1))
        g.define("imag", Builtin("imag", lambda i, e, a, n: complex(a[0]).imag, nargs=1))
        g.define("real", Builtin("real", lambda i, e, a, n: complex(a[0]).real, nargs=1))
        g.define("int", Builtin("int", lambda i, e, a, n: int(a[0]), nargs=1))
        g.define("complex", Builtin("complex", lambda i, e, a, n: complex(a[0]), nargs=1))
        g.define("conj", Builtin("conj", lambda i, e, a, n: complex(a[0]).conjugate(), nargs=1))
        g.define("exit", Builtin("exit", self._bi_exit))
        g.define("clock", Builtin("clock", lambda i, e, a, n: time.perf_counter() - i._t0))
        g.define("exec", Builtin("exec", self._bi_exec, nargs=1))
        g.define("plot", Builtin("plot", self._bi_plot))
        g.define("set", Builtin("set", self._bi_set, nargs=1))
        g.define("square", Builtin("square", self._bi_square, lazy=True, nargs=2))
        g.define("movemesh", Builtin("movemesh", self._bi_movemesh, lazy=True, nargs=2))
        g.define("buildmesh", Builtin("buildmesh", self._bi_buildmesh, nargs=1))
        g.define("savemesh", Builtin("savemesh", self._bi_savemesh, nargs=2))
        g.define("readmesh", Builtin("readmesh", self._bi_readmesh, nargs=1))
        g.define("adaptmesh", Builtin("adaptmesh", self._bi_unsupported("adaptmesh")))
        g.define("trunc", Builtin("trunc", self._bi_unsupported("trunc")))
        g.define("jump", Builtin("jump", self._bi_unsupported("jump")))
        g.define("mean", Builtin("mean", self._bi_unsupported("mean")))
        g.define("intalledges", Builtin("intalledges", self._bi_unsupported("intalledges")))
        g.define("int3d", Builtin("int3d", self._bi_unsupported("int3d")))
        g.define("dx", Builtin("dx", lambda i, e, a, n: F.dx(a[0]), nargs=1))
        g.define("dy", Builtin("dy", lambda i, e, a, n: F.dy(a[0]), nargs=1))
        g.define("dz", Builtin("dz", self._bi_unsupported("dz")))
        g.define("int2d", Builtin("int2d", self._bi_integrator("int2d"), nargs=1))
        g.define("int1d", Builtin("int1d", self._bi_integrator("int1d"), nargs=1))
        g.define("on", Builtin("on", self._bi_on, lazy=True))
        g.define("trace", Builtin("trace", lambda i, e, a, n: _trace(a[0]), nargs=1))
        g.define("det", Builtin("det", lambda i, e, a, n: _simplify(_det(a[0])), nargs=1))

    def _make_math(self, name, fn):
        def call(interp, env, args, named):
            if len(args) != 1:
                raise EvalError(f"{name} takes one argument")
            v = args[0]
            if isinstance(v, (Field, FuncValue)):
                return FieldUnary(fn, self._as_field(v))
            return _simplify(fn(v))
        return call

    def _bi_abs(self, interp, env, args, named):
        v = args[0]
        if isinstance(v, Field):
            return abs(v)
        if isinstance(v, np.ndarray):
            return np.abs(v)
        return abs(v)

    def _bi_exit(self, interp, env, args, named):
        raise ExitSignal(args[0] if args else 0)

    def _bi_exec(self, interp, env, args, named):
        cmd = str(args[0])
        if not self.allow_exec:
            self._log(1, f"exec suppressed (enable with --allow-exec): {cmd!r}")
            return 0
        return subprocess.run(cmd, shell=True, cwd=self.script_dir).returncode

    def _bi_set(self, interp, env, args, named):
        A = args[0]
        if not isinstance(A, SparseMatrix):
            raise EvalError("set() expects a matrix")
        solver = named.get("solver")
        if solver is not None:
            A._solver = SOLVER_NAMES.get(str(solver), "LU")
        for key in named:
            if key != "solver":
                self._log(1, f"set: ignoring named parameter {key!r}")
        return 0

    def _moved(self, mesh, pair_ast, env):
        """`mesh` with its vertices moved to [fx, fy], evaluated at the P1
        DOF sites of `mesh`."""
        pair = self.eval_field_expr(pair_ast, env)
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise EvalError("coordinate transform must be [fx, fy]")
        space = FeSpace(mesh, "P1")
        qx, qy = (interpolate_field(space, self._as_field(p)).dofs for p in pair)
        return move_mesh(mesh, lambda x, y: (qx, qy))

    def _bi_square(self, interp, env, args, named):
        m = int(self.eval(args[0].value, env))
        n = int(self.eval(args[1].value, env))
        mesh = build_square(m, n)
        if len(args) > 2:
            mesh = self._moved(mesh, args[2].value, env)
        return mesh

    def _bi_movemesh(self, interp, env, args, named):
        mesh = self.eval(args[0].value, env)
        if not isinstance(mesh, Mesh):
            raise EvalError("movemesh expects a mesh first")
        return self._moved(mesh, args[1].value, env)

    def _bi_buildmesh(self, interp, env, args, named):
        for key in named:
            self._log(1, f"buildmesh: ignoring named parameter {key!r}")
        v = args[0]
        if not isinstance(v, BorderSum):
            raise EvalError("buildmesh expects a sum of border runs")
        return build_from_borders([self._make_border(bv, n) for bv, n in v.runs])

    def _make_border(self, bv: BorderValue, count):
        def body(t):
            benv = Env(parent=bv.env)
            benv.define(bv.param, float(t))
            benv.define("x", 0.0)
            benv.define("y", 0.0)
            benv.define("label", 0)
            self.exec_body(bv.body, benv)
            return benv.vars

        def param(t):
            out = body(t)
            return float(out["x"]), float(out["y"])

        return Border(param, bv.t0, bv.t1, count, int(body(bv.t0)["label"]))

    def _bi_savemesh(self, interp, env, args, named):
        mesh, path = args[0], args[1]
        if not isinstance(mesh, Mesh):
            raise EvalError("savemesh expects a mesh")
        save_msh(mesh, self._resolve(path))
        return 0

    def _bi_readmesh(self, interp, env, args, named):
        return load_msh(self._resolve(args[0]))

    def _bi_unsupported(self, name):
        def call(interp, env, args, named):
            raise UnsupportedError(f"{name} is outside the supported subset")
        return call

    def _bi_integrator(self, kind):
        def call(interp, env, args, named):
            if not isinstance(args[0], Mesh):
                raise EvalError(f"{kind} expects a mesh")
            labels = tuple(int(a) for a in args[1:]) if kind == "int1d" else ()
            return Integrator(kind, args[0], labels, str(named.get("qft", "default")))
        return call

    def _bi_on(self, interp, env, args, named_asts):
        labels = []
        var = None
        value_ast = None
        for arg in args:
            if arg.name is None:
                v = self.eval(arg.value, env)
                if isinstance(v, BorderValue):
                    labels.append(self._make_border(v, 1).label)
                else:
                    labels.append(int(v))
            else:
                if var is not None:
                    raise EvalError("on() supports a single unknown")
                var = arg.name
                value_ast = arg.value
        if var is None:
            raise EvalError("on() needs `unknown=value`")
        value = self._as_field(self.eval_field_expr(value_ast, env))
        return Terms(dirichlet=[(var, F.DirichletBC(frozenset(labels), value))])

    def _bi_plot(self, interp, env, args, named):
        ps = named.get("ps")
        if ps and self.plot_files:
            target = None
            for v in args:
                if isinstance(v, (Mesh, FeFunction)):
                    target = v
                    break
            if target is not None:
                export_eps(target, self._resolve(str(ps)))
            else:
                self._log(1, "plot: nothing exportable for ps=")
        else:
            self._log(2, "plot: skipped (no ps= file requested)")
        return 0

    def _resolve(self, path):
        path = str(path)
        if os.path.isabs(path):
            return path
        return os.path.join(self.script_dir, path)

    def _log(self, level, message):
        try:
            verbosity = int(self.globals.vars.get("verbosity", 2))
        except (TypeError, ValueError):
            verbosity = 2
        if verbosity >= level:
            print(message, file=sys.stderr)

    # -- statements ------------------------------------------------------------

    def exec_body(self, stmts, env):
        for stmt in stmts:
            self.exec_stmt(stmt, env)

    def exec_stmt(self, stmt, env):
        t = type(stmt).__name__
        method = getattr(self, "_st_" + t, None)
        if method is None:
            raise EvalError(f"cannot execute {t}", getattr(stmt, "line", None))
        try:
            method(stmt, env)
        except FemError as exc:
            # the innermost statement names the line; a located error passes
            if getattr(exc, "line", None) is None and stmt.line:
                exc.line = stmt.line
                exc.args = (f"line {stmt.line}: {exc}",)
            raise
        except (ArithmeticError, ValueError, TypeError, OSError, RecursionError) as exc:
            # bad data in the script (1/0, a negative size, a missing file)
            raise EvalError(f"{type(exc).__name__}: {exc}", stmt.line) from None

    def _st_Block(self, stmt, env):
        child = Env(parent=env)
        try:
            self.exec_body(stmt.body, child)
        finally:
            child.close_files()

    def _st_ExprStmt(self, stmt, env):
        value = self.eval(stmt.expr, env)
        if isinstance(value, ProblemValue):
            self.solve_problem(value, stmt.line)

    def _st_LoadStmt(self, stmt, env):
        self._log(1, f"load \"{stmt.module}\": plugins are not supported, ignored")

    def _st_MacroDef(self, stmt, env):
        pass  # expanded at parse time

    def _st_Decl(self, stmt, env):
        for d in stmt.decls:
            value = self._make_declared(stmt, d, env)
            if stmt.base in ("ofstream", "ifstream"):
                old = env.vars.get(d.name)
                if isinstance(old, Stream):
                    old.close()
                env.files.append(value)
            env.define(d.name, value)

    def _make_declared(self, stmt, d, env):
        base = stmt.base
        init = self.eval(d.init, env) if d.init is not None else None
        sizes = [self.eval(s, env) for s in d.sizes]
        if base in ("ofstream", "ifstream"):
            if len(sizes) != 1:
                raise EvalError(f"{base} needs a file path", stmt.line)
            out = base == "ofstream"
            try:
                handle = open(self._resolve(sizes[0]), "w" if out else "r")
            except OSError as exc:
                raise EvalError(f"cannot open {sizes[0]!r}: {exc}", stmt.line)
            return Stream(handle, f"file {sizes[0]!r}", "out" if out else "in", owned=True)
        if base == "mesh":
            if sizes:
                return load_msh(self._resolve(sizes[0]))
            if init is None:
                return None
            if not isinstance(init, Mesh):
                raise EvalError("mesh initializer must be a mesh", stmt.line)
            return init
        if base == "matrix":
            if init is None:
                return None
            if isinstance(init, SparseMatrix):
                return init
            if isinstance(init, np.ndarray) and init.ndim == 2:
                return SparseMatrix.from_dense(init)
            raise EvalError("matrix initializer must be a matrix", stmt.line)
        if stmt.dims == 1:
            dtype = {"int": np.int64, "real": float, "complex": complex}[base]
            if sizes:
                return np.zeros(int(sizes[0]), dtype=dtype)
            if init is None:
                raise EvalError("array needs a size or an initializer", stmt.line)
            arr = np.asarray(init, dtype=dtype)
            if arr.ndim != 1:
                raise EvalError("array initializer must be one-dimensional", stmt.line)
            return arr.copy()
        if stmt.dims == 2:
            dtype = {"int": np.int64, "real": float, "complex": complex}[base]
            if sizes:
                return np.zeros((int(sizes[0]), int(sizes[1])), dtype=dtype)
            arr = np.asarray(init, dtype=dtype)
            if arr.ndim != 2:
                raise EvalError("matrix initializer must be two-dimensional", stmt.line)
            return arr.copy()
        if base == "int":
            if init is None:
                return 0
            if isinstance(init, complex):
                raise EvalError("cannot initialize int from complex", stmt.line)
            return int(init)
        if base in ("real",):
            if init is None:
                return 0.0
            if isinstance(init, complex):
                raise EvalError("cannot initialize real from complex", stmt.line)
            return float(init)
        if base == "bool":
            return int(bool(init)) if init is not None else 0
        if base == "complex":
            return complex(init) if init is not None else 0j
        if base == "string":
            return _format_value(init) if init is not None else ""
        raise EvalError(f"cannot declare {base}", stmt.line)

    def _st_FespaceDecl(self, stmt, env):
        mesh = self.eval(stmt.mesh, env)
        if not isinstance(mesh, Mesh):
            raise EvalError("fespace needs a mesh", stmt.line)
        elem = self.eval(stmt.elem, env)
        for arg in stmt.named:
            if arg.name == "periodic":
                raise UnsupportedError("periodic finite element spaces are not supported")
        space = FeSpace(mesh, str(elem))
        env.define(stmt.name, space)

    def _st_FeDecl(self, stmt, env):
        if stmt.subtype == "complex":
            raise UnsupportedError("complex-valued FE functions are not supported")
        space = env.lookup(stmt.space, stmt.line)
        if not isinstance(space, FeSpace):
            raise EvalError(f"{stmt.space!r} is not a finite element space", stmt.line)
        for d in stmt.decls:
            u = FeFunction(space)
            if d.init is not None:
                self._assign_fe(u, self.eval_field_expr(d.init, env), stmt.line)
            env.define(d.name, u)

    def _assign_fe(self, u: FeFunction, value, line=None):
        if (isinstance(value, FeFunction) and value.space.mesh is u.space.mesh
                and value.space.elem == u.space.elem):
            u.dofs[:] = value.dofs
        elif _is_number(value):
            u.dofs[:] = float(value)
        elif isinstance(value, Field):
            # another mesh raises InvalidArgumentError, as it does for g+0
            u.dofs[:] = interpolate_field(u.space, value).dofs
        elif isinstance(value, FuncValue) and value.analytic:
            u.dofs[:] = interpolate_field(u.space, self._as_field(value)).dofs
        else:
            raise EvalError(f"cannot assign {type(value).__name__} to an FE function", line)

    def _st_FuncDef(self, stmt, env):
        env.define(stmt.name, FuncValue(stmt.name, stmt.ret_type, stmt.params,
                                        stmt.body, env))

    def _st_BorderDef(self, stmt, env):
        t0 = float(self.eval(stmt.t0, env))
        t1 = float(self.eval(stmt.t1, env))
        env.define(stmt.name, BorderValue(stmt.name, stmt.param, t0, t1,
                                          stmt.body, env))

    def _st_VarfDef(self, stmt, env):
        env.define(stmt.name, VarfValue(stmt.name, stmt.unknown, stmt.test,
                                        stmt.named, stmt.body, env))

    def _st_ProblemDef(self, stmt, env):
        value = ProblemValue(stmt.kind, stmt.name, stmt.unknown, stmt.test,
                             stmt.named, stmt.body, env)
        env.define(stmt.name, value)
        if stmt.kind == "solve":
            self.solve_problem(value, stmt.line)

    def _st_If(self, stmt, env):
        if self._truthy(self.eval(stmt.cond, env)):
            self.exec_stmt(stmt.then, env)
        elif stmt.orelse is not None:
            self.exec_stmt(stmt.orelse, env)

    def _st_While(self, stmt, env):
        while self._truthy(self.eval(stmt.cond, env)):
            try:
                self.exec_stmt(stmt.body, Env(parent=env))
            except BreakSignal:
                break
            except ContinueSignal:
                continue

    def _st_For(self, stmt, env):
        head = Env(parent=env)
        self.exec_stmt(stmt.init, head)
        while self._truthy(self.eval(stmt.cond, head)):
            try:
                self.exec_stmt(stmt.body, Env(parent=head))
            except BreakSignal:
                break
            except ContinueSignal:
                pass
            self.eval(stmt.change, head)

    def _st_Break(self, stmt, env):
        raise BreakSignal()

    def _st_Continue(self, stmt, env):
        raise ContinueSignal()

    def _st_Return(self, stmt, env):
        raise ReturnSignal(self.eval(stmt.value, env) if stmt.value is not None else None)

    # -- expressions -------------------------------------------------------------

    def eval(self, node, env):
        t = type(node).__name__
        method = getattr(self, "_ev_" + t, None)
        if method is None:
            raise EvalError(f"cannot evaluate {t}", getattr(node, "line", None))
        return method(node, env)

    def eval_field_expr(self, node, env):
        """Evaluate with x and y bound to coordinate fields."""
        fenv = Env(parent=env)
        fenv.define("x", FIELD_X)
        fenv.define("y", FIELD_Y)
        return self.eval(node, fenv)

    def _as_field(self, v) -> Field:
        if isinstance(v, Field):
            return v
        if isinstance(v, FuncValue):
            if not v.analytic:
                raise EvalError(f"function {v.name!r} needs explicit arguments here")
            out = self.eval_field_expr(v.body, v.env)
            return self._as_field(out)
        if _is_number(v):
            if isinstance(v, complex):
                raise UnsupportedError("complex values cannot enter integrands")
            return Constant(v)
        raise EvalError(f"cannot use {type(v).__name__} as a field")

    def _truthy(self, v):
        if isinstance(v, np.ndarray):
            raise EvalError("array used as a condition")
        return bool(v)

    def _ev_Num(self, node, env):
        return node.value

    def _ev_Imag(self, node, env):
        return complex(0.0, node.value)

    def _ev_Str(self, node, env):
        return node.value

    def _ev_Ident(self, node, env):
        return env.lookup(node.name, node.line)

    def _ev_ListExpr(self, node, env):
        items = [self.eval(x, env) for x in node.items]
        if any(isinstance(v, (F.FormExpr, Field, FuncValue)) for v in items):
            return items
        if all(isinstance(v, np.ndarray) and v.ndim == 1 for v in items) and items:
            return np.vstack(items)
        if all(isinstance(v, (list,)) for v in items):
            return np.array(items)
        if all(_is_number(v) for v in items):
            if any(isinstance(v, complex) for v in items):
                return np.array(items, dtype=complex)
            return np.array(items, dtype=float)
        raise EvalError("mixed bracket list", node.line)

    def _ev_Range(self, node, env):
        start = self.eval(node.start, env)
        stop = self.eval(node.stop, env)
        step = self.eval(node.step, env) if node.step is not None else 1
        if step == 0:
            raise EvalError("zero range step", node.line)
        n = int(math.floor((stop - start) / step + 1e-12)) + 1
        if n <= 0:
            return np.zeros(0)
        return np.asarray(start + step * np.arange(n), dtype=float)

    def _ev_Unary(self, node, env):
        v = self.eval(node.operand, env)
        if node.op == "+":
            return v
        if node.op == "!":
            return int(not self._truthy(v))
        # negation
        if isinstance(v, (F.FormExpr, Field)):
            return -v
        if isinstance(v, np.ndarray):
            return -v
        if isinstance(v, SparseMatrix):
            return v.scale(-1.0)
        if isinstance(v, Terms):
            return v.map(lambda e: -e, "negate", node.line)
        if _is_number(v):
            return _simplify(-v)
        raise EvalError(f"cannot negate {type(v).__name__}", node.line)

    def _ev_Binary(self, node, env):
        if node.op in ("&", "&&", "|", "||"):
            left = self.eval(node.left, env)
            if isinstance(left, Field):
                return self.binary_op(node.op, left, self.eval(node.right, env), node.line)
            # short-circuit: a false left decides `&`, a true one decides `|`
            is_and = node.op in ("&", "&&")
            if self._truthy(left) != is_and:
                return int(not is_and)
            right = self.eval(node.right, env)
            if isinstance(right, Field):
                return self.binary_op(node.op, left, right, node.line)
            return int(self._truthy(right))
        if node.op == ">>":
            left = self.eval(node.left, env)
            if isinstance(left, Stream):
                self.read_stream(left, node.right, env)
                return left
            right = self.eval(node.right, env)
            return self.binary_op(node.op, left, right, node.line)
        left = self.eval(node.left, env)
        right = self.eval(node.right, env)
        return self.binary_op(node.op, left, right, node.line)

    def _ev_Assign(self, node, env):
        target_is_fe = False
        if type(node.target).__name__ == "Ident":
            owner = env.owner(node.target.name)
            if owner is not None and isinstance(owner.vars.get(node.target.name),
                                                FeFunction):
                target_is_fe = True
        if target_is_fe:
            value = self.eval_field_expr(node.value, env)
        else:
            value = self.eval(node.value, env)
        if node.op != "=":
            op = node.op[0]
            current = self.eval(node.target, env)
            value = self.binary_op(op, current, value, node.line)
        self.assign(node.target, value, env)
        return value

    def _ev_IncDec(self, node, env):
        current = self.eval(node.target, env)
        if not _is_number(current):
            raise EvalError("++/-- need a numeric variable", node.line)
        new = current + (1 if node.op == "++" else -1)
        self.assign(node.target, new, env)
        return new if node.prefix else current

    def _ev_Transpose(self, node, env):
        v = self.eval(node.base, env)
        if isinstance(v, np.ndarray):
            if v.ndim == 1:
                return Transposed(v)
            return v.conj().T if np.iscomplexobj(v) else v.T
        if isinstance(v, Transposed):
            return v.data
        if isinstance(v, SparseMatrix):
            return v.T
        if isinstance(v, list):  # form/field vector
            return Transposed(v)
        raise EvalError(f"cannot transpose {type(v).__name__}", node.line)

    def _ev_Member(self, node, env):
        base = self.eval(node.base, env)
        name = node.name
        if isinstance(base, FeSpace):
            if name == "ndof":
                return base.ndof
        if isinstance(base, Mesh):
            if name == "nt":
                return base.nt
            if name == "nv":
                return base.nv
            if name == "ne":
                return base.ne
            if name == "area":
                return base.total_area()
        if isinstance(base, VertexProxy):
            if name in ("x", "y", "label"):
                return getattr(base, name)
        if isinstance(base, np.ndarray) and base.ndim == 1:
            if name == "max":
                return _simplify(base.max())
            if name == "min":
                return _simplify(base.min())
            if name == "sum":
                return _simplify(base.sum())
            if name == "n":
                return len(base)
        raise EvalError(f"unknown member {name!r} on {type(base).__name__}", node.line)

    def _ev_Index(self, node, env):
        base = self.eval(node.base, env)
        args = [self.eval(a, env) for a in node.args]
        if isinstance(base, FeFunction) and not args:
            return base.dofs
        if isinstance(base, np.ndarray) and len(args) in (1, 2):
            return _simplify(base[_checked_index(base.shape, args, node.line)])
        if isinstance(base, Mesh) and len(args) == 1:
            return TriangleProxy(base, _checked_index((base.nt,), args, node.line))
        if isinstance(base, TriangleProxy) and len(args) == 1:
            return base.vertex(_checked_index((3,), args, node.line))
        if isinstance(base, list) and len(args) == 1:
            return base[_checked_index((len(base),), args, node.line)]
        raise EvalError(f"cannot index {type(base).__name__}", node.line)

    def _ev_Call(self, node, env):
        callee = self.eval(node.callee, env)
        if isinstance(callee, Builtin):
            if sum(a.name is None for a in node.args) < callee.nargs:
                raise EvalError(f"{callee.name} needs {callee.nargs} argument"
                                f"{'s' if callee.nargs > 1 else ''}", node.line)
            if callee.lazy:
                return self._call_builtin(callee, env, node.args, {}, node.line)
        if isinstance(callee, Integrator):
            return self._integrate(callee, node, env)
        args = []
        named = {}
        for a in node.args:
            if a.name is None:
                args.append(self.eval(a.value, env))
            else:
                named[a.name] = self.eval(a.value, env)
        if isinstance(callee, Builtin):
            return self._call_builtin(callee, env, args, named, node.line)
        if isinstance(callee, FuncValue):
            return self._call_func(callee, args, node.line)
        if isinstance(callee, FeFunction):
            if len(args) != 2:
                raise EvalError("FE function evaluation needs (x, y)", node.line)
            return callee(float(args[0]), float(args[1]))
        if isinstance(callee, FeSpace):
            if len(args) != 2:
                raise EvalError("space numbering needs (triangle, local)", node.line)
            return callee.dof_of(int(args[0]), int(args[1]))
        if isinstance(callee, BorderValue):
            if len(args) != 1:
                raise EvalError("border run needs a point count", node.line)
            return BorderSum([(callee, int(args[0]))])
        if isinstance(callee, VarfValue):
            return self._assemble_varf(callee, args, named, node.line)
        if isinstance(callee, np.ndarray) and len(args) in (1, 2):
            return _simplify(callee[_checked_index(callee.shape, args, node.line)])
        raise EvalError(f"cannot call {type(callee).__name__}", node.line)

    def _call_builtin(self, callee, env, args, named, line):
        """Call a builtin; a bad argument type or value raises EvalError."""
        try:
            return callee.fn(self, env, args, named)
        except (TypeError, ValueError, ArithmeticError) as exc:
            if isinstance(exc, FemError):
                raise
            raise EvalError(f"{callee.name}: {exc}", line) from None

    def _call_func(self, f: FuncValue, args, line):
        if f.analytic:
            if len(args) != 2:
                raise EvalError(f"analytic function {f.name!r} is evaluated at (x, y)", line)
            fenv = Env(parent=f.env)
            fenv.define("x", args[0])
            fenv.define("y", args[1])
            if all(_is_number(a) for a in args):
                return _simplify(self.eval(f.body, fenv))
            return self.eval(f.body, fenv)
        if len(args) != len(f.params):
            raise EvalError(f"function {f.name!r} takes {len(f.params)} arguments", line)
        call_env = Env(parent=f.env)
        for (base, dims, name), v in zip(f.params, args):
            if dims == 0:
                if base == "int":
                    v = int(v)
                elif base == "real":
                    v = float(v)
                elif base == "complex":
                    v = complex(v)
            call_env.define(name, v)
        try:
            self.exec_stmt(f.body, call_env)
        except ReturnSignal as sig:
            return sig.value
        return None

    # -- assignment ---------------------------------------------------------------

    def assign(self, target, value, env):
        t = type(target).__name__
        if t == "Ident":
            owner = env.owner(target.name)
            if owner is None:
                raise EvalError(f"undeclared identifier {target.name!r}", target.line)
            current = owner.vars[target.name]
            if isinstance(current, FeFunction):
                self._assign_fe(current, value, target.line)
                return
            if isinstance(current, np.ndarray):
                if isinstance(value, np.ndarray):
                    if current.shape != value.shape:
                        raise EvalError("array assignment with mismatched sizes",
                                        target.line)
                    current[:] = value
                elif _is_number(value):
                    current[:] = value
                else:
                    raise EvalError("cannot assign that to an array", target.line)
                return
            # scalar variables keep their declared numeric type
            if isinstance(current, float) and isinstance(value, int):
                value = float(value)
            elif isinstance(current, int) and isinstance(value, float):
                value = int(value)
            elif isinstance(current, complex) and _is_number(value):
                value = complex(value)
            if isinstance(current, Mesh) or current is None:
                if target.name in owner.vars and isinstance(value, Mesh):
                    owner.vars[target.name] = value
                    return
            owner.vars[target.name] = _simplify(value)
            return
        if t == "Index":
            base = self.eval(target.base, env)
            if isinstance(base, FeFunction) and not target.args:
                if isinstance(value, np.ndarray):
                    if len(value) != base.space.ndof:
                        raise EvalError("DOF vector length mismatch", target.line)
                    base.dofs[:] = value
                elif _is_number(value):
                    base.dofs[:] = float(value)
                else:
                    raise EvalError("cannot assign that to a DOF vector", target.line)
                return
            if isinstance(base, np.ndarray):
                idx = [self.eval(a, env) for a in target.args]
                base[_checked_index(base.shape, idx, target.line)] = value
                return
            raise EvalError("invalid indexed assignment", target.line)
        if t == "Call":
            base = self.eval(target.callee, env)
            if isinstance(base, np.ndarray):
                idx = [self.eval(a.value, env) for a in target.args]
                base[_checked_index(base.shape, idx, target.line)] = value
                return
            raise EvalError("invalid call assignment", target.line)
        raise EvalError("invalid assignment target", getattr(target, "line", None))

    # -- integrals and problems ------------------------------------------------------

    def _integrate(self, integ: Integrator, node, env):
        if len(node.args) != 1 or node.args[0].name is not None:
            raise EvalError("integral takes a single integrand", node.line)
        value = self.eval_field_expr(node.args[0].value, env)
        if isinstance(value, F.FormExpr):
            if not value.is_pure():
                return self._form_term(integ, value, node.line)
            value = value.pure_field()
        field = self._as_field(value)
        if integ.kind == "int2d":
            return F.integrate_2d(integ.mesh, field, integ.quad)
        return F.integrate_1d(integ.mesh, set(integ.labels), field)

    def _form_term(self, integ: Integrator, expr, line):
        """An integrand with the unknown or the test function, as Terms."""
        bilinear = expr.has_trial()
        if bilinear and not expr.has_test():
            raise EvalError("integral contains the unknown without a test function", line)
        if bilinear and any(uk is None or vk is None for uk, vk in expr.terms):
            raise EvalError("an integral cannot mix bilinear and linear parts", line)
        term = [F.FormTerm(integ.kind, expr, frozenset(integ.labels) or None, integ.quad)]
        if bilinear:
            return Terms(bilinear=term, meshes=[integ.mesh])
        return Terms(linear=term, meshes=[integ.mesh])

    def _eval_form(self, body, env, unknown, test, space, line):
        """Evaluate a form body with `unknown` and `test` bound to the trial
        and test placeholders; returns (bilinear, linear, dirichlet)."""
        fenv = Env(parent=env)
        fenv.define(unknown, F.TrialFunction())
        fenv.define(test, F.TestFunction())
        terms = self.eval(body, fenv)
        if not isinstance(terms, Terms):
            raise EvalError("a variational form needs integral or boundary terms", line)
        for var, _ in terms.dirichlet:
            if var != unknown:
                raise EvalError(
                    f"on() constrains {var!r}, expected the unknown {unknown!r}", line)
        if any(mesh is not space.mesh for mesh in terms.meshes):
            raise EvalError("an integral runs over a mesh other than the unknown's", line)
        return terms.bilinear, terms.linear, [bc for _, bc in terms.dirichlet]

    def _assemble_varf(self, varf: VarfValue, args, named, line):
        if len(args) != 2 or not isinstance(args[1], FeSpace) or \
                not (isinstance(args[0], FeSpace) or _is_number(args[0])):
            raise EvalError("assemble a varf as name(Vh,Vh) or name(0,Vh)", line)
        bilinear, linear, dirichlet = self._eval_form(varf.body, varf.env, varf.unknown,
                                                      varf.test, args[1], line)
        tgv = float(named.get("tgv", F.DEFAULT_TGV))
        if isinstance(args[0], FeSpace):
            form = F.VarForm(bilinear_terms=bilinear, dirichlet=dirichlet)
            return F.assemble_bilinear(form, args[0], args[1], tgv=tgv)
        if not linear and not dirichlet:
            raise EvalError("varf has no linear part to assemble", line)
        form = F.VarForm(linear_terms=linear, dirichlet=dirichlet)
        return F.assemble_linear(form, args[1], tgv=tgv)

    def solve_problem(self, prob: ProblemValue, line=None):
        env = prob.env
        unknown = env.lookup(prob.unknown, line)
        test = env.lookup(prob.test, line)
        if not isinstance(unknown, FeFunction) or not isinstance(test, FeFunction):
            raise EvalError(f"problem {prob.name!r}: unknown and test must be FE functions",
                            line)
        named = {arg.name: self.eval(arg.value, env) for arg in prob.named}
        init = named.get("init", 0)
        solver = SOLVER_NAMES.get(str(named.get("solver", "sparsesolver")), "LU")
        for key in named:
            if key not in ("init", "solver", "tgv", "eps", "cmm"):
                self._log(1, f"{prob.kind} {prob.name}: ignoring named parameter {key!r}")
        tgv = float(named.get("tgv", F.DEFAULT_TGV))

        reuse = (self._truthy(init) and prob.cache is not None
                 and prob.cache[0] is unknown.space.mesh)
        bilinear, linear, dirichlet = self._eval_form(prob.body, env, prob.unknown,
                                                      prob.test, unknown.space, line)
        rhs_terms = [F.FormTerm(t.kind, -t.expr, t.labels, t.quad) for t in linear]
        b_form = F.VarForm(linear_terms=rhs_terms, dirichlet=dirichlet) \
            if (rhs_terms or dirichlet) else None
        b = F.assemble_linear(b_form, test.space, tgv=tgv) if b_form is not None \
            else np.zeros(test.space.ndof)

        if reuse:
            A = prob.cache[1]
        else:
            if not bilinear:
                raise EvalError(f"problem {prob.name!r} has no bilinear part", line)
            a_form = F.VarForm(bilinear_terms=bilinear, dirichlet=dirichlet)
            A = F.assemble_bilinear(a_form, unknown.space, test.space, tgv=tgv)
            prob.cache = (unknown.space.mesh, A)
        unknown.dofs[:] = self._solve_matrix(A, b, solver)

    # -- operator dispatch ------------------------------------------------------------

    def binary_op(self, op, a, b, line=None):
        # form-term algebra
        if isinstance(a, Terms) or isinstance(b, Terms):
            return self._terms_op(op, a, b, line)
        # symbolic form expressions
        if isinstance(a, F.FormExpr) or isinstance(b, F.FormExpr):
            return self._form_op(op, a, b, line)
        # streams
        if op == "<<" and isinstance(a, Stream):
            self._write_stream(a, b)
            return a
        if op == ">>" and isinstance(a, Stream):
            raise EvalError("stream reads assign into a variable; use `is >> name`", line)
        # fields
        if isinstance(a, Field) or isinstance(b, Field) or \
           (isinstance(a, FuncValue) and _fieldable(b)) or \
           (isinstance(b, FuncValue) and _fieldable(a)):
            return self._field_op(op, a, b, line)
        # strings
        if isinstance(a, str) or isinstance(b, str):
            if op == "+":
                return _format_value(a) + _format_value(b)
            if op == "==":
                return int(a == b)
            if op == "!=":
                return int(a != b)
            raise EvalError(f"operator {op!r} undefined for strings", line)
        # borders
        if isinstance(a, BorderSum) or isinstance(b, BorderSum):
            if op != "+":
                raise EvalError(f"operator {op!r} undefined for borders", line)
            if not (isinstance(a, BorderSum) and isinstance(b, BorderSum)):
                raise EvalError("borders only combine with borders", line)
            return BorderSum(a.runs + b.runs)
        # linear algebra
        if isinstance(a, LINALG_TYPES) or isinstance(b, LINALG_TYPES):
            return self._linalg_op(op, a, b, line)
        if _is_number(a) and _is_number(b):
            return self._number_op(op, a, b, line)
        raise EvalError(
            f"operator {op!r} undefined for {type(a).__name__} and {type(b).__name__}",
            line)

    def _terms_op(self, op, a, b, line):
        if op == "*" and (_is_number(a) or _is_number(b)):
            c, terms = (a, b) if _is_number(a) else (b, a)
            return terms.map(lambda e: self._as_form(c) * e, "scale", line)
        if op not in ("+", "-"):
            raise EvalError(f"operator {op!r} undefined for form terms", line)
        if not (isinstance(a, Terms) and isinstance(b, Terms)):
            raise EvalError("form terms only combine with form terms", line)
        return a + (b.map(lambda e: -e, "negate", line) if op == "-" else b)

    def _as_form(self, v) -> F.FormExpr:
        return v if isinstance(v, F.FormExpr) else F.as_form(self._as_field(v))

    def _form_op(self, op, a, b, line):
        fa, fb = self._as_form(a), self._as_form(b)
        if op == "+":
            return fa + fb
        if op == "-":
            return fa - fb
        if op == "*":
            return fa * fb
        if op == "/":
            return fa / fb
        if op == "^":
            if not isinstance(b, (int, float)):
                raise EvalError("form exponent must be a number", line)
            return fa ** b
        raise EvalError(f"operator {op!r} undefined for form expressions", line)

    def _field_op(self, op, a, b, line):
        fa = self._as_field(a)
        fb = self._as_field(b)
        if op in FIELD_ARITH:
            return FieldBinary(FIELD_ARITH[op], fa, fb)
        if op in FIELD_CMP:
            return fa._cmp(FIELD_CMP[op], fb)
        raise EvalError(f"operator {op!r} undefined for fields", line)

    def _linalg_op(self, op, a, b, line):
        if isinstance(a, SolveProxy):
            if op == "*" and isinstance(b, np.ndarray):
                return self._solve_matrix(a.matrix, b, getattr(a.matrix, "_solver", "LU"))
            raise EvalError("A^-1 must multiply a vector", line)
        if isinstance(a, SparseMatrix) and op == "^":
            if b == -1:
                return SolveProxy(a)
            raise EvalError("matrices support only the power -1", line)
        if isinstance(a, SparseMatrix) or isinstance(b, SparseMatrix):
            if op == "*":
                if isinstance(a, SparseMatrix) and isinstance(b, np.ndarray) and b.ndim == 1:
                    return a @ b
                if _is_number(a) and isinstance(b, SparseMatrix):
                    return b.scale(a)
                if isinstance(a, SparseMatrix) and _is_number(b):
                    return a.scale(b)
            if op == "+" and isinstance(a, SparseMatrix) and isinstance(b, SparseMatrix):
                return a + b
            raise EvalError(f"operator {op!r} undefined for sparse matrices", line)
        num, vec = (a, b) if _is_number(a) else (b, a)
        items = vec.data if isinstance(vec, Transposed) else vec
        if op == "*" and _is_number(num) and isinstance(items, list):
            # a number scales a bracket vector (or its transpose) entry by entry
            items = [self.binary_op("*", num, x, line) for x in items]
            return Transposed(items) if isinstance(vec, Transposed) else items
        if isinstance(a, Transposed):
            if op == "*" and isinstance(a.data, list) and isinstance(b, list):
                if len(a.data) != len(b):
                    raise EvalError("dot product of vectors of different lengths", line)
                total = None
                for x, y in zip(a.data, b):
                    prod = self.binary_op("*", x, y, line)
                    total = prod if total is None else self.binary_op("+", total, prod, line)
                return total
            if op == "*" and isinstance(a.data, np.ndarray) and isinstance(b, np.ndarray):
                return _simplify(_dot(a.data, b)) if b.ndim == 1 else a.data @ b
            raise EvalError("a transposed vector multiplies a vector of its kind", line)
        if isinstance(b, Transposed):
            if op == "*" and isinstance(a, np.ndarray) and a.ndim == 1 and \
                    isinstance(b.data, np.ndarray):
                return _outer(a, b.data)
            raise EvalError("vector times transposed vector is the only outer form", line)
        if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
            if a.ndim == 2 and b.ndim == 1 and op == "*":
                return a @ b
            if a.ndim == 2 and b.ndim == 2 and op == "*":
                return a @ b
            if a.shape != b.shape:
                raise EvalError("array shapes differ", line)
            if op == "+":
                return a + b
            if op == "-":
                return a - b
            if op == ".*":
                return a * b
            if op == "./":
                return a / b
            if op == "*":
                raise EvalError("use u'*v for dot products or u.*v elementwise", line)
            raise EvalError(f"operator {op!r} undefined for arrays", line)
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            arr, num = (a, b) if isinstance(a, np.ndarray) else (b, a)
            if not _is_number(num):
                raise EvalError(f"operator {op!r} undefined here", line)
            if op == "+":
                return arr + num
            if op == "-":
                return a - b if isinstance(a, np.ndarray) else a - arr
            if op == "*":
                return arr * num
            if op == "/":
                return a / b if isinstance(a, np.ndarray) else np.divide(a, arr)
            if op == "^":
                if isinstance(a, np.ndarray):
                    return a ** num
            raise EvalError(f"operator {op!r} undefined for array and number", line)
        raise EvalError(f"operator {op!r} undefined here", line)

    def _solve_matrix(self, A: SparseMatrix, b, solver):
        if solver == "CG":
            result = solve_cg(A, np.asarray(b, dtype=float))
            if not result.converged:
                self._log(1, f"CG stopped at residual {result.relative_residual:.2e}")
            return result.x
        return factorize(A).solve(b)

    def _number_op(self, op, a, b, line):
        if op == "+":
            return _simplify(a + b)
        if op == "-":
            return _simplify(a - b)
        if op == "*":
            return _simplify(a * b)
        if op == "/":
            if isinstance(a, int) and isinstance(b, int):
                if b == 0:
                    raise EvalError("integer division by zero", line)
                q = abs(a) // abs(b)
                return q if (a >= 0) == (b >= 0) else -q
            return _simplify(a / b)
        if op == "%":
            return _simplify(a % b)
        if op == "^":
            if isinstance(a, int) and isinstance(b, int) and b >= 0:
                return a ** b
            return _simplify(a ** b)
        if op in ("==", "!=", "<", "<=", ">", ">="):
            table = {"==": a == b, "!=": a != b, "<": a < b,
                     "<=": a <= b, ">": a > b, ">=": a >= b}
            return int(table[op])
        raise EvalError(f"operator {op!r} undefined for numbers", line)

    # -- streams -----------------------------------------------------------------

    def _write_stream(self, stream, value):
        if value is ENDL:
            stream.write("\n", flush=True)
            return
        if isinstance(value, FeFunction):
            value = value.dofs
        stream.write(_format_value(_simplify(value)))

    def read_stream(self, stream, target_ast, env):
        current = None
        if type(target_ast).__name__ == "Ident":
            current = env.lookup(target_ast.name, getattr(target_ast, "line", None))
        else:
            current = self.eval(target_ast, env)
        if isinstance(current, FeFunction):
            vals = [float(stream.next_token()) for _ in range(current.space.ndof)]
            current.dofs[:] = vals
            return
        if isinstance(current, np.ndarray):
            flat = current.reshape(-1)
            for k in range(len(flat)):
                flat[k] = float(stream.next_token())
            return
        token = stream.next_token()
        if isinstance(current, int):
            value = int(float(token))
        elif isinstance(current, str):
            value = token
        else:
            value = float(token)
        self.assign(target_ast, value, env)


class Transposed:
    """v' of a 1-D array or of a bracket list of fields and forms."""

    def __init__(self, data):
        self.data = data


LINALG_TYPES = (np.ndarray, list, Transposed, SparseMatrix, SolveProxy)
