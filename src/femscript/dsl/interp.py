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
collected in a `Terms` value that assembly consumes as is.  A varf or problem
evaluates its body once and reuses the terms while every name the body read is
unchanged (`Interpreter._eval_form`).

Operators hand fields, forms, `Terms`, numbers and arrays to their own
arithmetic (Python's operators); `binary_op` keeps only the rules that are the
language's own: C integer `/` and `%`, `.*`, `./`, the matrix product,
transposed and bracket vectors (a scalar scales each entry), strings, streams
and borders.

Every name records its declared type where its statement binds it: a
declaration, an FE declaration, an fespace, a func, a border, a varf, a
problem or a stream (the interpreter's own names are builtins, constants,
coordinates and form placeholders).  One function, `_convert`, keyed on that
type, converts every write: initializers, `=`, compound assignment, `++`/`--`,
element writes, stream reads and func parameters.  A variable never changes
kind; a value its type cannot hold, or a write to a kind that no write
rebinds (an fespace, a func...), raises an EvalError.

A `FemError` without a location gets the line of the innermost expression or
statement that raised it (`_locate`), and a Python error that a statement
raises on bad data (an arithmetic, value, type or OS error, or runaway
recursion) becomes an EvalError naming the statement's line.
"""

import math
import operator
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
from ..fields import Constant, Field, Unary as FieldUnary, X as FIELD_X, Y as FIELD_Y
from ..io.exporters import export_eps
from ..linalg import SparseMatrix, factorize, solve_cg
from ..linalg import det as _det, dot as _dot, trace as _trace
from ..mesh import Border, Mesh, build_from_borders, build_square, load_msh, move_mesh, save_msh
from . import astnodes as A
from .parser import Parser


class EvalError(FemError):
    def __init__(self, message, line=None):
        if line:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def _locate(exc, line):
    """Give a FemError that has no location yet the line `line`."""
    if getattr(exc, "line", None) is None and line:
        exc.line = line
        exc.args = (f"line {line}: {exc}",)
    return exc


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
    """A scope: each name's value and its declared type (see `_convert`)."""
    __slots__ = ("vars", "types", "parent", "files")

    def __init__(self, parent=None):
        self.vars = {}
        self.types = {}
        self.parent = parent
        self.files = []

    def define(self, name, value, vtype):
        self.vars[name] = value
        self.types[name] = vtype

    def lookup(self, name):
        env = self
        while env is not None:
            if name in env.vars:
                return env.vars[name]
            env = env.parent
        raise EvalError(f"undeclared identifier {name!r}")

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
    memo: object = None    # see Interpreter._eval_form


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
        self.memo = None       # see Interpreter._eval_form


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
        if not isinstance(other, Terms):
            return NotImplemented
        return Terms(self.bilinear + other.bilinear, self.linear + other.linear,
                     self.dirichlet + other.dirichlet, self.meshes + other.meshes)

    def __sub__(self, other):
        return self + -other if isinstance(other, Terms) else NotImplemented

    def __neg__(self):
        return self.map(lambda e: -e, "negate")

    def __mul__(self, c):
        """A number scales every integrand."""
        return self.map(lambda e: c * e, "scale") if _is_number(c) else NotImplemented

    __rmul__ = __mul__

    def map(self, fn, what):
        """Apply `fn` to every integrand; on() clauses cannot be `what`."""
        if self.dirichlet:
            raise EvalError(f"cannot {what} a Dirichlet clause")

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


# arithmetic through each value's own operators
PY_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
          "/": operator.truediv, "%": operator.mod, "^": operator.pow}
NUM_CMP = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
           ">=": operator.ge, "==": operator.eq, "!=": operator.ne}
# comparisons and logic on fields yield 0/1 indicator fields
FIELD_CMP = {"<": np.less, "<=": np.less_equal, ">": np.greater,
             ">=": np.greater_equal, "==": np.equal, "!=": np.not_equal,
             "&": np.logical_and, "&&": np.logical_and,
             "|": np.logical_or, "||": np.logical_or}

ELEMENT_NAMES = ("P0", "P1", "P2", "P3", "P4", "P1dc", "P2dc", "P1b", "RT0")
MATH = [("sin", np.sin), ("cos", np.cos), ("tan", np.tan), ("asin", np.arcsin),
        ("acos", np.arccos), ("atan", np.arctan), ("sinh", np.sinh), ("cosh", np.cosh),
        ("tanh", np.tanh), ("exp", np.exp), ("log", np.log), ("log10", np.log10),
        ("sqrt", np.sqrt), ("floor", np.floor), ("ceil", np.ceil)]
# builtins whose value depends on their arguments alone (`Interpreter._eval_form`)
PURE_BUILTINS = {name for name, _ in MATH} | {
    "abs", "pow", "atan2", "min", "max", "dx", "dy", "int2d", "int1d", "on"}
SOLVER_NAMES = {"LU": "LU", "CG": "CG", "sparsesolver": "LU", "UMFPACK": "LU",
                "GMRES": "LU", "Cholesky": "LU", "Crout": "LU"}


def _checked_index(shape, idx):
    """Integer indices into the leading axes of shape, each within its axis."""
    try:
        idx = tuple(int(i) for i in idx)
    except (TypeError, ValueError, OverflowError):
        raise EvalError("an index must be an integer") from None
    if len(idx) > len(shape) or not all(0 <= i < n for i, n in zip(idx, shape)):
        raise EvalError(f"index {', '.join(map(str, idx))} out of range for size "
                        f"{'x'.join(map(str, shape))}")
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


class _Bool(int):
    """The value of a `bool` variable: an int, 0 or 1, whose type tells
    assignments to keep it a bool.  Arithmetic on it gives plain ints."""

    def __new__(cls, value=0):
        return super().__new__(cls, bool(value))


# "bool" first: a _Bool is also an int
_SCALARS = {"bool": _Bool, "int": int, "real": float, "complex": complex}
# array types by spelling, each with its element type and dimension count
_DTYPES = {"int": np.int64, "real": np.float64, "complex": np.complex128}
_ARRAYS = {f"{b}[{','.join(['int'] * n)}]": (b, n) for b in _DTYPES for n in (1, 2)}
# the other types a write converts to, with the values each one holds
_HELD = {"string": str, "mesh": Mesh, "matrix": SparseMatrix}


def _spelling(base, dims):
    """A declared type as the script writes it: int, real[int], real[int,int]..."""
    return f"{base}[{','.join(['int'] * dims)}]" if dims else base


def _elem_type(a):
    """The element type of the array `a`."""
    return {"c": "complex", "f": "real"}.get(a.dtype.kind, "int")


def _number(token):
    """A stream token as an int, else as a real, else as the text itself."""
    for kind in (int, float):
        try:
            return kind(token)
        except ValueError:
            pass
    return token


def _a(word):
    return ("an " if word[0] in "aeiou" else "a ") + word


def _scalar(base, name, value):
    """`value` as the declared int, real, complex or bool scalar `name`."""
    value = _simplify(value)
    if not _is_number(value):
        raise EvalError(f"{base} {name} needs a number, not {_describe(value)}")
    if isinstance(value, complex) and base != "complex":
        raise EvalError(f"{base} {name} cannot hold a complex value")
    if base == "int" and not -2 ** 63 <= value < 2 ** 63:     # a C++ long
        raise EvalError(f"{base} {name} cannot hold a non-finite or out-of-range value")
    return _SCALARS[base](value)


def _same(a, b):
    """Whether a memo's read `a` re-reads as `b`: numbers and strings by value."""
    if isinstance(a, (int, float, complex, str)):
        return type(a) is type(b) and a == b
    return a is b


def _array(vtype, name, value, current):
    """`value` as the array `name` of type `vtype`: a new array, or written
    into the array `current`, where a number fills every entry."""
    elem, dims = _ARRAYS[vtype]
    if elem != "complex" and np.iscomplexobj(value):
        raise EvalError(f"{vtype} {name} cannot hold a complex value")
    fill = current is not None and _is_number(value)
    if not (fill or isinstance(value, np.ndarray) and value.ndim == dims):
        raise EvalError(f"{vtype} {name} needs {_a(vtype)}, not {_describe(value)}")
    if elem == "int" and np.asarray(value).dtype.kind == "f" and not np.all(
            (value >= -2.0 ** 63) & (value < 2.0 ** 63)):
        raise EvalError(f"{vtype} {name} cannot hold a non-finite or out-of-range value")
    if current is None:
        return np.asarray(value, dtype=_DTYPES[elem])
    if not fill and value.shape != current.shape:
        raise EvalError("array assignment with mismatched sizes")
    current[...] = value
    return current


class Transposed:
    """v' of a 1-D array or of a bracket list of fields and forms."""

    def __init__(self, data):
        self.data = data


# The script's name of each kind of value that a message may mention.
_KINDS = ((_Bool, "a bool"), (int, "an int"), (float, "a real"), (complex, "a complex"),
          (str, "a string"), (Mesh, "a mesh"), (SparseMatrix, "a matrix"),
          (FeSpace, "an fespace"), (FeFunction, "an FE function"), (Stream, "a stream"),
          (BorderSum, "a border"), (ProblemValue, "a problem"),
          (Transposed, "a transposed vector"), (Builtin, "a builtin function"))


def _kind(v):
    if v is None:       # a mesh or matrix declared without a value
        return "an unset mesh or matrix"
    if isinstance(v, np.ndarray):
        return _a(_spelling(_elem_type(v), v.ndim))
    return next((name for t, name in _KINDS if isinstance(v, t)), f"a {type(v).__name__}")


def _describe(v):
    """What a value with no number or text form is, in the script's terms."""
    if isinstance(v, FuncValue) and not v.analytic or isinstance(v, VarfValue):
        return f"the {'func' if isinstance(v, FuncValue) else 'varf'} {v.name!r}"
    if isinstance(v, SYMBOLIC):
        return ("a function of x, y, which needs a point, as in mu(0.5,0.5), "
                "or an integral")
    return _kind(v)


def _undefined(op, a, b):
    return EvalError(f"operator {op!r} undefined for {_kind(a)} and {_kind(b)}")


def _format_value(v):
    if isinstance(v, str):
        return v
    if v is ENDL:
        return "\n"
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
    raise EvalError(f"cannot write {_describe(v)}")


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
        self._reads, self._pure = None, True    # a form's recorded reads (_eval_form)
        self._solved = {}       # id(solve statement) -> (statement, cache)
        self._install_builtins()
        if verbosity is not None:
            self.globals.define("verbosity", int(verbosity), "int")

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

        def builtin(name, fn, lazy=False, nargs=0):
            g.define(name, Builtin(name, fn, lazy, nargs), "builtin")

        g.define("verbosity", 2, "int")
        constants = [("pi", math.pi), ("true", 1), ("false", 0), ("endl", ENDL),
                     ("qf1pTlump", "lumped"), ("qf2pT", "default"), ("qf5pT", "order5")]
        for name, value in constants + [(n, n) for n in (*ELEMENT_NAMES, *SOLVER_NAMES)]:
            g.define(name, value, "constant")
        g.define("cout", Stream(self.stdout, "cout", "out"), "stream")
        g.define("cerr", Stream(sys.stderr, "cerr", "out"), "stream")
        g.define("cin", Stream(self.stdin, "cin", "in"), "stream")

        for name, fn in MATH:
            builtin(name, self._make_math(name, fn), nargs=1)
        builtin("abs", lambda i, e, a, n: abs(a[0]), nargs=1)
        builtin("pow", lambda i, e, a, n: _simplify(a[0] ** a[1]), nargs=2)
        builtin("atan2", lambda i, e, a, n: math.atan2(a[0], a[1]), nargs=2)
        builtin("min", lambda i, e, a, n: _simplify(min(a)), nargs=1)
        builtin("max", lambda i, e, a, n: _simplify(max(a)), nargs=1)
        builtin("imag", lambda i, e, a, n: complex(a[0]).imag, nargs=1)
        builtin("real", lambda i, e, a, n: complex(a[0]).real, nargs=1)
        builtin("int", lambda i, e, a, n: int(a[0]), nargs=1)
        builtin("complex", lambda i, e, a, n: complex(a[0]), nargs=1)
        builtin("conj", lambda i, e, a, n: complex(a[0]).conjugate(), nargs=1)
        builtin("exit", self._bi_exit)
        builtin("clock", lambda i, e, a, n: time.perf_counter() - i._t0)
        builtin("exec", self._bi_exec, nargs=1)
        builtin("plot", self._bi_plot)
        builtin("set", self._bi_set, nargs=1)
        builtin("square", self._bi_square, lazy=True, nargs=2)
        builtin("movemesh", self._bi_movemesh, lazy=True, nargs=2)
        builtin("buildmesh", self._bi_buildmesh, nargs=1)
        builtin("savemesh", self._bi_savemesh, nargs=2)
        builtin("readmesh", self._bi_readmesh, nargs=1)
        for name in ("adaptmesh", "trunc", "jump", "mean", "intalledges", "int3d", "dz"):
            builtin(name, self._bi_unsupported(name))
        builtin("dx", lambda i, e, a, n: F.dx(a[0]), nargs=1)
        builtin("dy", lambda i, e, a, n: F.dy(a[0]), nargs=1)
        builtin("int2d", self._bi_integrator("int2d"), nargs=1)
        builtin("int1d", self._bi_integrator("int1d"), nargs=1)
        builtin("on", self._bi_on, lazy=True)
        builtin("trace", lambda i, e, a, n: _trace(a[0]), nargs=1)
        builtin("det", lambda i, e, a, n: _simplify(_det(a[0])), nargs=1)

    def _make_math(self, name, fn):
        def call(interp, env, args, named):
            if len(args) != 1:
                raise EvalError(f"{name} takes one argument")
            v = args[0]
            if isinstance(v, (Field, FuncValue)):
                return FieldUnary(fn, self._as_field(v))
            return _simplify(fn(v))
        return call

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
            benv.define(bv.param, float(t), "real")
            benv.define("x", 0.0, "real")
            benv.define("y", 0.0, "real")
            benv.define("label", 0, "int")
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
        if self.globals.vars["verbosity"] >= level:
            print(message, file=sys.stderr)

    # -- statements ------------------------------------------------------------

    def exec_body(self, stmts, env):
        for stmt in stmts:
            self.exec_stmt(stmt, env)

    def exec_stmt(self, stmt, env):
        method = getattr(self, "_st_" + type(stmt).__name__, None)
        try:
            if method is None:
                raise EvalError(f"cannot execute {type(stmt).__name__}")
            method(stmt, env)
        except FemError as exc:
            raise _locate(exc, stmt.line)
        except (ArithmeticError, ValueError, TypeError, OSError, RecursionError) as exc:
            # bad data in the script (1/0, a negative size, a missing file)
            raise _locate(EvalError(f"{type(exc).__name__}: {exc}"), stmt.line) from None

    def _st_Block(self, stmt, env):
        child = Env(parent=env)
        try:
            self.exec_body(stmt.body, child)
        finally:
            child.close_files()

    def _st_ExprStmt(self, stmt, env):
        value = self.eval(stmt.expr, env)
        if isinstance(value, ProblemValue):
            self.solve_problem(value)

    def _st_LoadStmt(self, stmt, env):
        self._log(1, f"load \"{stmt.module}\": plugins are not supported, ignored")

    def _st_MacroDef(self, stmt, env):
        pass  # expanded at parse time

    def _st_Decl(self, stmt, env):
        stream = stmt.base in ("ofstream", "ifstream")
        vtype = "stream" if stream else _spelling(stmt.base, stmt.dims)
        for d in stmt.decls:
            value = self._declared(stmt.base, vtype, d, env)
            if stream:
                old = env.vars.get(d.name)
                if isinstance(old, Stream):
                    old.close()
                env.files.append(value)
            env.define(d.name, value, vtype)

    def _declared(self, base, vtype, d, env):
        """The value a declarator binds: its initializer converted to `vtype`,
        or what its sizes build, or the type's default."""
        init = self.eval(d.init, env) if d.init is not None else None
        sizes = [self.eval(s, env) for s in d.sizes]
        if vtype == "stream":
            if len(sizes) != 1:
                raise EvalError(f"{base} needs a file path")
            out = base == "ofstream"
            try:
                handle = open(self._resolve(sizes[0]), "w" if out else "r")
            except OSError as exc:
                raise EvalError(f"cannot open {sizes[0]!r}: {exc}")
            return Stream(handle, f"file {sizes[0]!r}", "out" if out else "in", owned=True)
        if sizes and vtype == "mesh":
            return load_msh(self._resolve(sizes[0]))
        if sizes and vtype in _ARRAYS:
            elem, dims = _ARRAYS[vtype]
            if len(sizes) != dims:
                raise EvalError(f"{vtype} {d.name} needs {dims} size{'s' * (dims > 1)}")
            return np.zeros(tuple(int(n) for n in sizes), dtype=_DTYPES[elem])
        if init is not None:
            value = self._convert(vtype, d.name, init)
            # a declared array owns its entries
            return value.copy() if isinstance(value, np.ndarray) and value is init else value
        if vtype in _ARRAYS:
            raise EvalError(f"{vtype} {d.name} needs a size or an initializer")
        if vtype in _SCALARS:
            return _SCALARS[vtype]()
        return "" if vtype == "string" else None       # a mesh or matrix starts unset

    def _st_FespaceDecl(self, stmt, env):
        mesh = self.eval(stmt.mesh, env)
        if not isinstance(mesh, Mesh):
            raise EvalError("fespace needs a mesh")
        elem = self.eval(stmt.elem, env)
        for arg in stmt.named:
            if arg.name == "periodic":
                raise UnsupportedError("periodic finite element spaces are not supported")
        env.define(stmt.name, FeSpace(mesh, str(elem)), "fespace")

    def _st_FeDecl(self, stmt, env):
        if stmt.subtype == "complex":
            raise UnsupportedError("complex-valued FE functions are not supported")
        space = env.lookup(stmt.space)
        if not isinstance(space, FeSpace):
            raise EvalError(f"{stmt.space!r} is not a finite element space")
        for d in stmt.decls:
            u = FeFunction(space)
            if d.init is not None:
                self._convert("fe", d.name, self.eval_field_expr(d.init, env), u)
            env.define(d.name, u, "fe")

    def _assign_fe(self, u: FeFunction, value):
        if (isinstance(value, FeFunction) and value.space.mesh is u.space.mesh
                and value.space.elem == u.space.elem):
            u.dofs[:] = value.dofs
        elif _is_number(value) and not isinstance(value, complex):
            u.dofs[:] = float(value)
        elif isinstance(value, Field):
            # another mesh raises InvalidArgumentError, as it does for g+0
            u.dofs[:] = interpolate_field(u.space, value).dofs
        elif isinstance(value, FuncValue) and value.analytic:
            u.dofs[:] = interpolate_field(u.space, self._as_field(value)).dofs
        else:
            raise EvalError(f"cannot assign {_describe(value)} to an FE function")

    def _st_FuncDef(self, stmt, env):
        env.define(stmt.name, FuncValue(stmt.name, stmt.ret_type, stmt.params,
                                        stmt.body, env), "func")

    def _st_BorderDef(self, stmt, env):
        t0 = float(self.eval(stmt.t0, env))
        t1 = float(self.eval(stmt.t1, env))
        env.define(stmt.name, BorderValue(stmt.name, stmt.param, t0, t1,
                                          stmt.body, env), "border")

    def _st_VarfDef(self, stmt, env):
        env.define(stmt.name, VarfValue(stmt.name, stmt.unknown, stmt.test,
                                        stmt.named, stmt.body, env), "varf")

    def _st_ProblemDef(self, stmt, env):
        value = ProblemValue(stmt.kind, stmt.name, stmt.unknown, stmt.test,
                             stmt.named, stmt.body, env)
        env.define(stmt.name, value, "problem")
        if stmt.kind == "solve":
            # run again (in a loop), the statement is one problem: init=k keeps
            # its matrix; the entry holds the node, so no other takes its id
            value.cache = self._solved.get(id(stmt), (stmt, None))[1]
            self.solve_problem(value)
            self._solved[id(stmt)] = (stmt, value.cache)

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
        method = getattr(self, "_ev_" + type(node).__name__, None)
        try:
            if method is None:
                raise EvalError(f"cannot evaluate {type(node).__name__}")
            return method(node, env)
        except FemError as exc:
            raise _locate(exc, node.line)

    def eval_field_expr(self, node, env):
        """Evaluate with x and y bound to coordinate fields."""
        fenv = Env(parent=env)
        fenv.define("x", FIELD_X, "coordinate")
        fenv.define("y", FIELD_Y, "coordinate")
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
        raise EvalError(f"cannot use {_describe(v)} as a field")

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
        value = env.lookup(node.name)
        if self._reads is not None:
            self._reads.append((env, node.name, value))
            if isinstance(value, np.ndarray):   # read by its entries, written in place
                self._pure = False
        return value

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
        raise EvalError("mixed bracket list")

    def _ev_Range(self, node, env):
        start = self.eval(node.start, env)
        stop = self.eval(node.stop, env)
        step = self.eval(node.step, env) if node.step is not None else 1
        if step == 0:
            raise EvalError("zero range step")
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
        if isinstance(v, (F.FormExpr, Field, np.ndarray, Terms)):
            return -v
        if isinstance(v, SparseMatrix):
            return v.scale(-1.0)
        if _is_number(v):
            return _simplify(-v)
        raise EvalError(f"cannot negate {_describe(v)}")

    def _ev_Binary(self, node, env):
        if node.op in ("&", "&&", "|", "||"):
            left = self.eval(node.left, env)
            if isinstance(left, Field):
                return self.binary_op(node.op, left, self.eval(node.right, env))
            # short-circuit: a false left decides `&`, a true one decides `|`
            is_and = node.op in ("&", "&&")
            if self._truthy(left) != is_and:
                return int(not is_and)
            right = self.eval(node.right, env)
            if isinstance(right, Field):
                return self.binary_op(node.op, left, right)
            return int(self._truthy(right))
        if node.op == ">>":
            left = self.eval(node.left, env)
            if isinstance(left, Stream):
                self.read_stream(left, node.right, env)
                return left
            right = self.eval(node.right, env)
            return self.binary_op(node.op, left, right)
        left = self.eval(node.left, env)
        right = self.eval(node.right, env)
        return self.binary_op(node.op, left, right)

    def _ev_Assign(self, node, env):
        # an FE function's right-hand side is a function of x and y
        owner = env.owner(node.target.name) if isinstance(node.target, A.Ident) else None
        if owner is not None and owner.types[node.target.name] == "fe":
            value = self.eval_field_expr(node.value, env)
        else:
            value = self.eval(node.value, env)
        if node.op != "=":
            op = node.op[0]
            current = self.eval(node.target, env)
            value = self.binary_op(op, current, value)
        return self.assign(node.target, value, env)

    def _ev_IncDec(self, node, env):
        current = self.eval(node.target, env)
        if not _is_number(current):
            raise EvalError("++/-- need a numeric variable")
        new = self.assign(node.target, current + (1 if node.op == "++" else -1), env)
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
        raise EvalError(f"cannot transpose {_describe(v)}")

    def _ev_Member(self, node, env):
        self._pure = False
        base = self.eval(node.base, env)
        name = node.name
        if isinstance(base, FeSpace) and name == "ndof" or \
                isinstance(base, Mesh) and name in ("nt", "nv", "ne") or \
                isinstance(base, VertexProxy) and name in ("x", "y", "label"):
            return getattr(base, name)
        if isinstance(base, Mesh) and name == "area":
            return base.total_area()
        if isinstance(base, np.ndarray) and base.ndim == 1:
            if name in ("max", "min", "sum"):
                return _simplify(getattr(base, name)())
            if name == "n":
                return len(base)
        raise EvalError(f"unknown member {name!r} on {_describe(base)}")

    def _ev_Index(self, node, env):
        self._pure = False
        base = self.eval(node.base, env)
        args = [self.eval(a, env) for a in node.args]
        if isinstance(base, FeFunction) and not args:
            return base.dofs
        if isinstance(base, np.ndarray) and len(args) in (1, 2):
            return _simplify(base[_checked_index(base.shape, args)])
        if isinstance(base, Mesh) and len(args) == 1:
            return TriangleProxy(base, _checked_index((base.nt,), args))
        if isinstance(base, TriangleProxy) and len(args) == 1:
            return base.vertex(_checked_index((3,), args))
        if isinstance(base, list) and len(args) == 1:
            return base[_checked_index((len(base),), args)]
        raise EvalError(f"cannot index {_describe(base)}")

    def _ev_Call(self, node, env):
        callee = self.eval(node.callee, env)
        if not (isinstance(callee, Builtin) and callee.name in PURE_BUILTINS
                or isinstance(callee, Integrator)
                or isinstance(callee, FuncValue) and callee.analytic):
            self._pure = False
        if isinstance(callee, Builtin):
            if sum(a.name is None for a in node.args) < callee.nargs:
                raise EvalError(f"{callee.name} needs {callee.nargs} argument"
                                f"{'s' if callee.nargs > 1 else ''}")
            if callee.lazy:
                return self._call_builtin(callee, env, node.args, {})
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
            return self._call_builtin(callee, env, args, named)
        if isinstance(callee, FuncValue):
            return self._call_func(callee, args)
        if isinstance(callee, FeFunction):
            if len(args) != 2:
                raise EvalError("FE function evaluation needs (x, y)")
            return callee(float(args[0]), float(args[1]))
        if isinstance(callee, FeSpace):
            if len(args) != 2:
                raise EvalError("space numbering needs (triangle, local)")
            return callee.dof_of(int(args[0]), int(args[1]))
        if isinstance(callee, BorderValue):
            if len(args) != 1:
                raise EvalError("border run needs a point count")
            return BorderSum([(callee, int(args[0]))])
        if isinstance(callee, VarfValue):
            return self._assemble_varf(callee, args, named)
        if isinstance(callee, np.ndarray) and len(args) in (1, 2):
            return _simplify(callee[_checked_index(callee.shape, args)])
        raise EvalError(f"cannot call {_describe(callee)}")

    def _call_builtin(self, callee, env, args, named):
        """Call a builtin; a bad argument type or value raises EvalError."""
        try:
            return callee.fn(self, env, args, named)
        except (TypeError, ValueError, ArithmeticError) as exc:
            if isinstance(exc, FemError):
                raise
            raise EvalError(f"{callee.name}: {exc}") from None

    def _call_func(self, f: FuncValue, args):
        if f.analytic:
            if len(args) != 2:
                raise EvalError(f"analytic function {f.name!r} is evaluated at (x, y)")
            fenv = Env(parent=f.env)
            fenv.define("x", args[0], "coordinate")
            fenv.define("y", args[1], "coordinate")
            if all(_is_number(a) for a in args):
                return _simplify(self.eval(f.body, fenv))
            return self.eval(f.body, fenv)
        if len(args) != len(f.params):
            raise EvalError(f"function {f.name!r} takes {len(f.params)} arguments")
        call_env = Env(parent=f.env)
        for (base, dims, name), v in zip(f.params, args):
            vtype = _spelling(base, dims)
            call_env.define(name, self._convert(vtype, name, v), vtype)
        try:
            self.exec_stmt(f.body, call_env)
        except ReturnSignal as sig:
            return sig.value
        return None

    # -- assignment ---------------------------------------------------------------

    def _convert(self, vtype, name, value, current=None):
        """`value` as the variable `name` of declared type `vtype`: the one
        rule of every write.  An FE function, and an array that exists
        (`current`), take the value in place; any other type returns the value
        to bind.  The kinds that no write rebinds (an fespace, a func, a
        stream...) raise."""
        if vtype in _SCALARS:
            return _scalar(vtype, name, value)
        if vtype == "fe":
            self._assign_fe(current, value)
            return current
        if vtype in _ARRAYS:
            return _array(vtype, name, value, current)
        if vtype not in _HELD:
            raise EvalError(f"cannot assign to the {vtype} {name!r}")
        if vtype == "matrix" and isinstance(value, np.ndarray) and value.ndim == 2:
            value = SparseMatrix.from_dense(value)
        if not isinstance(value, _HELD[vtype]):
            raise EvalError(f"{vtype} {name} needs {_a(vtype)}, not {_describe(value)}")
        return value

    def _place(self, target, env):
        """Where a write to `target` goes: (declared type, name for messages,
        current value, container, key).  The container is None for storage
        that `_convert` writes in place.  An element or a row takes the
        element type of its array, which the array's declaration fixed."""
        if isinstance(target, A.Ident):
            owner = env.owner(target.name)
            if owner is None:
                raise EvalError(f"undeclared identifier {target.name!r}")
            return (owner.types[target.name], target.name, owner.vars[target.name],
                    owner.vars, target.name)
        if isinstance(target, A.Index):
            node, args = target.base, target.args
        elif isinstance(target, A.Call):
            node, args = target.callee, [a.value for a in target.args]
        else:
            raise EvalError("invalid assignment target")
        base = self.eval(node, env)
        name = getattr(node, "name", "array")
        if isinstance(base, FeFunction) and isinstance(target, A.Index) and not args:
            return "real[int]", f"{name}[]", base.dofs, None, None
        if not isinstance(base, np.ndarray):
            raise EvalError(f"cannot assign to an element of {_describe(base)}")
        idx = [self.eval(a, env) for a in args]
        pos = _checked_index(base.shape, idx)
        where = f"{name}[{','.join(str(int(i)) for i in idx)}]"
        if len(idx) < base.ndim:       # a row, written in place
            return _spelling(_elem_type(base), base.ndim - len(idx)), where, base[pos], None, None
        return _elem_type(base), where, None, base, pos

    def assign(self, target, value, env):
        """Write `value` to `target`; returns the value stored."""
        return self._store(self._place(target, env), value)

    def _store(self, place, value):
        self._pure = False
        vtype, name, current, container, key = place
        value = self._convert(vtype, name, value, current)
        if container is not None:
            container[key] = value
        return value

    # -- integrals and problems ------------------------------------------------------

    def _integrate(self, integ: Integrator, node, env):
        if len(node.args) != 1 or node.args[0].name is not None:
            raise EvalError("integral takes a single integrand")
        value = self.eval_field_expr(node.args[0].value, env)
        if isinstance(value, F.FormExpr):
            if not value.is_pure():
                return self._form_term(integ, value)
            value = value.pure_field()
        self._pure = False
        field = self._as_field(value)
        if integ.kind == "int2d":
            return F.integrate_2d(integ.mesh, field, integ.quad)
        return F.integrate_1d(integ.mesh, set(integ.labels), field)

    def _form_term(self, integ: Integrator, expr):
        """An integrand with the unknown or the test function, as Terms."""
        bilinear = expr.has_trial()
        if bilinear and not expr.has_test():
            raise EvalError("integral contains the unknown without a test function")
        if bilinear and any(uk is None or vk is None for uk, vk in expr.terms):
            raise EvalError("an integral cannot mix bilinear and linear parts")
        term = [F.FormTerm(integ.kind, expr, frozenset(integ.labels) or None, integ.quad)]
        if bilinear:
            return Terms(bilinear=term, meshes=[integ.mesh])
        return Terms(linear=term, meshes=[integ.mesh])

    def _eval_form(self, form, space):
        """(bilinear, linear, dirichlet) of the varf or problem `form` over
        `space`; a problem's linear terms are negated, as its right-hand side.
        Memoized on `form`: the evaluation records each name it reads (scope,
        name, value), and a call over the same space reuses the result while
        every name re-reads the same value (`_same`).  FE functions enter the
        terms by reference.  Copying a value out of something mutable (an
        index, a member, an array, a point value, an integral, a call outside
        PURE_BUILTINS and analytic funcs) or an effect clears `_pure`."""
        outer, self._pure = self._reads, False     # an enclosing form cannot replay this
        memo = form.memo
        if memo is not None and memo[0] is space and all(
                _same(env.lookup(name), value) for env, name, value in memo[1]):
            return memo[2]
        self._reads, self._pure = [], True
        try:
            fenv = Env(parent=form.env)
            fenv.define(form.unknown, F.TrialFunction(), "unknown")
            fenv.define(form.test, F.TestFunction(), "test function")
            terms = self.eval(form.body, fenv)
            if not isinstance(terms, Terms):
                raise EvalError("a variational form needs integral or boundary terms")
            for var, _ in terms.dirichlet:
                if var != form.unknown:
                    raise EvalError(f"on() constrains {var!r}, expected the unknown "
                                    f"{form.unknown!r}")
            if any(mesh is not space.mesh for mesh in terms.meshes):
                raise EvalError("an integral runs over a mesh other than the unknown's")
            linear = terms.linear
            if isinstance(form, ProblemValue):
                linear = [F.FormTerm(t.kind, -t.expr, t.labels, t.quad) for t in linear]
            result = terms.bilinear, linear, [bc for _, bc in terms.dirichlet]
            form.memo = (space, self._reads, result) if self._pure else None
            return result
        finally:
            self._reads, self._pure = outer, False

    def _assemble_varf(self, varf: VarfValue, args, named):
        if len(args) != 2 or not isinstance(args[1], FeSpace) or \
                not (isinstance(args[0], FeSpace) or _is_number(args[0])):
            raise EvalError("assemble a varf as name(Vh,Vh) or name(0,Vh)")
        bilinear, linear, dirichlet = self._eval_form(varf, args[1])
        tgv = float(named.get("tgv", F.DEFAULT_TGV))
        if isinstance(args[0], FeSpace):
            form = F.VarForm(bilinear_terms=bilinear, dirichlet=dirichlet)
            return F.assemble_bilinear(form, args[0], args[1], tgv=tgv)
        if not linear and not dirichlet:
            raise EvalError("varf has no linear part to assemble")
        form = F.VarForm(linear_terms=linear, dirichlet=dirichlet)
        return F.assemble_linear(form, args[1], tgv=tgv)

    def solve_problem(self, prob: ProblemValue):
        env = prob.env
        unknown = env.lookup(prob.unknown)
        test = env.lookup(prob.test)
        if not isinstance(unknown, FeFunction) or not isinstance(test, FeFunction):
            raise EvalError(f"problem {prob.name!r}: unknown and test must be FE functions")
        named = {arg.name: self.eval(arg.value, env) for arg in prob.named}
        init = named.get("init", 0)
        solver = SOLVER_NAMES.get(str(named.get("solver", "sparsesolver")), "LU")
        for key in named:
            if key not in ("init", "solver", "tgv", "eps", "cmm"):
                self._log(1, f"{prob.kind} {prob.name}: ignoring named parameter {key!r}")
        tgv = float(named.get("tgv", F.DEFAULT_TGV))

        reuse = (self._truthy(init) and prob.cache is not None
                 and prob.cache[0] is unknown.space.mesh)
        bilinear, rhs_terms, dirichlet = self._eval_form(prob, unknown.space)
        b = F.assemble_linear(F.VarForm(linear_terms=rhs_terms, dirichlet=dirichlet),
                              test.space, tgv=tgv) if (rhs_terms or dirichlet) \
            else np.zeros(test.space.ndof)

        if reuse:
            A = prob.cache[1]
        else:
            if not bilinear:
                raise EvalError(f"problem {prob.name!r} has no bilinear part")
            a_form = F.VarForm(bilinear_terms=bilinear, dirichlet=dirichlet)
            A = F.assemble_bilinear(a_form, unknown.space, test.space, tgv=tgv)
            prob.cache = (unknown.space.mesh, A)
        unknown.dofs[:] = self._solve_matrix(A, b, solver)

    # -- operator dispatch ------------------------------------------------------------

    def binary_op(self, op, a, b):
        if _is_number(a) and _is_number(b):
            return self._number_op(op, a, b)
        if isinstance(a, Stream) and op in ("<<", ">>"):
            self._pure = False
            if op == ">>":
                raise EvalError("stream reads assign into a variable; use `is >> name`")
            self._write_stream(a, b)
            return a
        if op == "*":
            # a scalar times a bracket vector (or its transpose) scales each entry
            vec, c = (a, b) if isinstance(a, (list, Transposed)) else (b, a)
            items = vec.data if isinstance(vec, Transposed) else vec
            if isinstance(items, list) and \
                    (_is_number(c) or isinstance(c, (Field, FuncValue, F.FormExpr))):
                items = [self.binary_op("*", c, x) for x in items]
                return Transposed(items) if isinstance(vec, Transposed) else items
        if isinstance(a, SYMBOLIC) or isinstance(b, SYMBOLIC):
            return self._symbolic_op(op, a, b)
        if isinstance(a, str) or isinstance(b, str):
            if op == "+":
                return _format_value(a) + _format_value(b)
            if op == "==":
                return int(a == b)
            if op == "!=":
                return int(a != b)
            raise EvalError(f"operator {op!r} undefined for strings")
        if isinstance(a, BorderSum) or isinstance(b, BorderSum):
            if op != "+":
                raise EvalError(f"operator {op!r} undefined for borders")
            if not (isinstance(a, BorderSum) and isinstance(b, BorderSum)):
                raise EvalError("borders only combine with borders")
            return BorderSum(a.runs + b.runs)
        if isinstance(a, LINALG_TYPES) or isinstance(b, LINALG_TYPES):
            return self._linalg_op(op, a, b)
        raise _undefined(op, a, b)

    def _symbolic_op(self, op, a, b):
        """Fields, forms, form terms and analytic functions, through their own
        arithmetic.  Any other operand but a real number becomes a field first
        (a complex one raises UnsupportedError); comparisons and logic give
        0/1 indicator fields."""
        if not isinstance(a, ARITHMETIC):
            a = self._as_field(a)
        if not isinstance(b, ARITHMETIC):
            b = self._as_field(b)
        if op in FIELD_CMP:
            return self._as_field(a)._cmp(FIELD_CMP[op], self._as_field(b))
        if op not in PY_OPS:
            raise _undefined(op, a, b)
        return PY_OPS[op](a, b)

    def _linalg_op(self, op, a, b):
        if isinstance(a, SolveProxy):
            if op == "*" and isinstance(b, np.ndarray):
                return self._solve_matrix(a.matrix, b, getattr(a.matrix, "_solver", "LU"))
            raise EvalError("A^-1 must multiply a vector")
        if isinstance(a, SparseMatrix) and op == "^":
            if b == -1:
                return SolveProxy(a)
            raise EvalError("matrices support only the power -1")
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
            raise EvalError(f"operator {op!r} undefined for sparse matrices")
        if isinstance(a, Transposed):
            if op == "*" and isinstance(a.data, list) and isinstance(b, list):
                if len(a.data) != len(b):
                    raise EvalError("dot product of vectors of different lengths")
                total = None
                for x, y in zip(a.data, b):
                    prod = self.binary_op("*", x, y)
                    total = prod if total is None else self.binary_op("+", total, prod)
                return total
            if op == "*" and isinstance(a.data, np.ndarray) and isinstance(b, np.ndarray):
                return _simplify(_dot(a.data, b)) if b.ndim == 1 else a.data @ b
            raise EvalError("a transposed vector multiplies a vector of its kind")
        if isinstance(b, Transposed):
            if op == "*" and isinstance(a, np.ndarray) and a.ndim == 1 and \
                    isinstance(b.data, np.ndarray):
                return np.outer(a, b.data)
            raise EvalError("vector times transposed vector is the only outer form")
        if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
            if op == "*" and a.ndim == 2:
                return a @ b
            if a.shape != b.shape:
                raise EvalError("array shapes differ")
            if op in ("*", "/"):
                raise EvalError("use u'*v for dot products, u.*v and u./v elementwise")
            op = {".*": "*", "./": "/"}.get(op, op)
        elif not (isinstance(a, np.ndarray) and _is_number(b) or
                  _is_number(a) and isinstance(b, np.ndarray)):
            raise _undefined(op, a, b)
        if op not in PY_OPS:
            raise _undefined(op, a, b)
        return PY_OPS[op](a, b)

    def _solve_matrix(self, A: SparseMatrix, b, solver):
        if solver == "CG":
            result = solve_cg(A, b)
            if not result.converged:
                self._log(1, f"CG stopped at residual {result.relative_residual:.2e}")
            return result.x
        return factorize(A).solve(b)

    def _number_op(self, op, a, b):
        if op in NUM_CMP:
            return int(NUM_CMP[op](a, b))
        if op in ("/", "%") and isinstance(a, int) and isinstance(b, int):
            # C++: integer division truncates toward zero, and a%b = a - b*(a/b)
            if b == 0:
                raise EvalError("integer division by zero")
            q = abs(a) // abs(b)
            q = q if (a >= 0) == (b >= 0) else -q
            return q if op == "/" else a - b * q
        if op not in PY_OPS:
            raise _undefined(op, a, b)
        return _simplify(PY_OPS[op](a, b))

    # -- streams -----------------------------------------------------------------

    def _write_stream(self, stream, value):
        if isinstance(value, FeFunction):
            value = value.dofs
        stream.write(_format_value(_simplify(value)), flush=value is ENDL)

    def read_stream(self, stream, target, env):
        """`stream >> target`: as many tokens as the target has entries, each
        a number (a string target takes its token as is), stored as `=`
        stores."""
        vtype, name, current, container, key = self._place(target, env)
        if vtype == "fe":       # an FE function reads its DOF vector
            vtype, name, current, container = "real[int]", f"{name}[]", current.dofs, None
        if vtype in _ARRAYS:
            value = np.array([float(stream.next_token()) for _ in range(current.size)])
            value = value.reshape(current.shape)
        elif vtype == "string":
            value = stream.next_token()
        else:
            value = _number(stream.next_token())
        self._store((vtype, name, current, container, key), value)


LINALG_TYPES = (np.ndarray, list, Transposed, SparseMatrix, SolveProxy)
SYMBOLIC = (Field, F.FormExpr, Terms, FuncValue)
ARITHMETIC = (Field, F.FormExpr, Terms, int, float)     # operands of Python's operators
