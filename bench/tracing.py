"""Spans around calls into femscript's layers, recorded from the benchmark.

The library itself carries no instrumentation, so the tracer replaces each
public function at the binding its caller uses (a module attribute or a
class attribute) with a wrapper that records a span, and puts the original
back afterwards.  A span is (name, start, end, parent index, pass id,
attributes); spans are kept in memory and written out when the run ends.

A layer's time is the self time of its spans: a span's duration minus the
time covered by its child spans, so nested calls (assembly calling
`from_coo`, CG calling the matvec) are not counted twice.
"""

import importlib
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager


def _mesh_size(result):
    return {"nv": int(result.nv), "nt": int(result.nt)}


def _nnz(result):
    return {"nnz": int(result.nnz)}


def _cg_iters(result):
    return {"iters": int(result.iterations)}


def _fixed_point_iters(result):
    return {"iters": int(result[1])}


def _heat_steps(result):
    return {"steps": int(result.n_steps)}


# (owner, attribute, span name, attribute extractor).  The owner is a module
# path, or "module:Class" for methods patched on the class.  Every binding a
# caller goes through is listed: the study drivers import names from the
# layers, the interpreter reaches forms through the module and imports the
# rest by name.
TARGETS = [
    ("femscript.studies", "build_square", "mesh.square", _mesh_size),
    ("femscript.dsl.interp", "build_square", "mesh.square", _mesh_size),
    ("femscript.studies", "build_from_borders", "mesh.delaunay", _mesh_size),
    ("femscript.dsl.interp", "build_from_borders", "mesh.delaunay", _mesh_size),

    ("femscript.studies", "interpolate", "fespace.interpolate", None),
    ("femscript.dsl.interp", "interpolate_field", "fespace.interpolate", None),

    ("femscript.studies", "assemble_bilinear", "forms.assemble_bilinear", _nnz),
    ("femscript.forms", "assemble_bilinear", "forms.assemble_bilinear", _nnz),
    ("femscript.studies", "assemble_linear", "forms.assemble_linear", None),
    ("femscript.forms", "assemble_linear", "forms.assemble_linear", None),
    ("femscript.studies", "integrate_2d", "forms.integrate", None),
    ("femscript.forms", "integrate_2d", "forms.integrate", None),
    ("femscript.forms", "integrate_1d", "forms.integrate", None),
    ("femscript.studies", "dirichlet_dofs", "forms.dirichlet_dofs", None),
    ("femscript.forms", "dirichlet_dofs", "forms.dirichlet_dofs", None),

    ("femscript.linalg:SparseMatrix", "from_coo", "linalg.from_coo", None),
    ("femscript.linalg:SparseMatrix", "__add__", "linalg.csr_ops", None),
    ("femscript.linalg:SparseMatrix", "__matmul__", "linalg.csr_ops", None),
    ("femscript.linalg:SparseMatrix", "scale", "linalg.csr_ops", None),
    ("femscript.linalg:SparseMatrix", "with_diagonal", "linalg.csr_ops", None),
    ("femscript.linalg:SparseMatrix", "diagonal", "linalg.csr_ops", None),
    ("femscript.linalg:SparseMatrix", "row_sums", "linalg.csr_ops", None),
    ("femscript.linalg:SparseMatrix", "transpose", "linalg.csr_ops", None),
    ("femscript.studies", "factorize", "linalg.factorize", None),
    ("femscript.dsl.interp", "factorize", "linalg.factorize", None),
    ("femscript.linalg:LuFactorization", "__init__", "linalg.lu_build", None),
    ("femscript.linalg:LuFactorization", "solve", "linalg.lu_solve", None),
    ("femscript.dsl.interp", "solve_cg", "linalg.cg", _cg_iters),

    ("femscript.studies", "run_poisson_study", "studies", None),
    ("femscript.studies", "solve_poisson", "studies", None),
    ("femscript.studies", "disk_mesh", "studies", None),
    ("femscript.studies", "run_nonlinear_study", "studies", None),
    ("femscript.studies", "run_fixed_point", "studies", _fixed_point_iters),
    ("femscript.studies", "run_heat_study", "studies", None),
    ("femscript.studies", "run_heat_single", "studies", _heat_steps),

    ("femscript.dsl", "run_source", "dsl.eval", None),
    ("femscript.dsl.interp:Parser", "__init__", "dsl.parse", None),
    ("femscript.dsl.interp:Parser", "parse_program", "dsl.parse", None),
]

# Per-layer metrics: name -> (unit, how it is computed from one pass's spans).
# "self" sums self time over span names, "calls" counts spans, "attr" sums a
# span attribute.
LAYER_METRICS = {
    "mesh.delaunay_s": ("s", "self", ["mesh.delaunay"]),
    "mesh.square_s": ("s", "self", ["mesh.square"]),
    "mesh.nv": ("count", "attr", ["mesh.delaunay", "mesh.square"], "nv"),
    "mesh.nt": ("count", "attr", ["mesh.delaunay", "mesh.square"], "nt"),
    "fespace.interpolate_s": ("s", "self", ["fespace.interpolate"]),
    "forms.assemble_bilinear_s": ("s", "self", ["forms.assemble_bilinear"]),
    "forms.assemble_bilinear_calls": ("count", "calls", ["forms.assemble_bilinear"]),
    "forms.assemble_linear_s": ("s", "self", ["forms.assemble_linear"]),
    "forms.integrate_s": ("s", "self", ["forms.integrate"]),
    "forms.dirichlet_dofs_s": ("s", "self", ["forms.dirichlet_dofs"]),
    "forms.nnz": ("count", "attr", ["forms.assemble_bilinear"], "nnz"),
    "linalg.from_coo_s": ("s", "self", ["linalg.from_coo"]),
    "linalg.csr_ops_s": ("s", "self", ["linalg.csr_ops"]),
    "linalg.csr_ops_calls": ("count", "calls", ["linalg.csr_ops"]),
    "linalg.factorize_s": ("s", "self", ["linalg.factorize", "linalg.lu_build"]),
    "linalg.factorize_calls": ("count", "calls", ["linalg.factorize"]),
    "linalg.lu_builds": ("count", "calls", ["linalg.lu_build"]),
    "linalg.lu_solve_s": ("s", "self", ["linalg.lu_solve"]),
    "linalg.lu_solve_calls": ("count", "calls", ["linalg.lu_solve"]),
    "linalg.cg_s": ("s", "self", ["linalg.cg"]),
    "linalg.cg_iters": ("count", "attr", ["linalg.cg"], "iters"),
    "studies.self_s": ("s", "self", ["studies"]),
    "studies.fixed_point_iters": ("count", "attr", ["studies"], "iters"),
    "studies.heat_steps": ("count", "attr", ["studies"], "steps"),
    "dsl.parse_s": ("s", "self", ["dsl.parse"]),
    "dsl.eval_self_s": ("s", "self", ["dsl.eval"]),
}
# Derived: LU solves per factorization built (how much a factorization is reused).
LU_REUSE = ("linalg.lu_reuse_ratio", "ratio")


def _resolve(owner):
    module_path, _, cls_name = owner.partition(":")
    obj = importlib.import_module(module_path)
    return getattr(obj, cls_name) if cls_name else obj


class Tracer:
    """Records spans while installed; the pass id tags every span."""

    def __init__(self):
        self.spans = []
        self.pass_id = None
        self.missing = []
        self._stack = []

    def _wrap(self, fn, name, extract):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else None, self.pass_id, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if extract is not None:
                span[5] = extract(result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        undo = []
        self.missing = []
        try:
            for owner, attr, name, extract in TARGETS:
                try:
                    holder = _resolve(owner)
                except (ImportError, AttributeError):
                    self.missing.append(f"{owner}.{attr}")
                    continue
                # Read the raw attribute so classmethods stay classmethods.
                raw = holder.__dict__.get(attr)
                if raw is None:
                    self.missing.append(f"{owner}.{attr}")
                    continue
                if isinstance(raw, classmethod):
                    patched = classmethod(self._wrap(raw.__func__, name, extract))
                else:
                    patched = self._wrap(raw, name, extract)
                setattr(holder, attr, patched)
                undo.append((holder, attr, raw))
            yield self
        finally:
            for holder, attr, raw in reversed(undo):
                setattr(holder, attr, raw)

    @contextmanager
    def span(self, name, pass_id):
        """A root span for one pass, opened by the benchmark itself."""
        self.pass_id = pass_id
        span = [name, time.perf_counter(), None, None, pass_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
            self.pass_id = None

    def layer_metrics(self, pass_id):
        """Every per-layer metric for one pass, as {name: value}."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s[4] == pass_id]
        covered = defaultdict(float)
        for _, s in spans:
            if s[3] is not None:
                covered[s[3]] += s[2] - s[1]
        self_time = defaultdict(float)
        calls = defaultdict(int)
        attrs = defaultdict(int)
        for i, s in spans:
            self_time[s[0]] += (s[2] - s[1]) - covered[i]
            calls[s[0]] += 1
            for key, value in (s[5] or {}).items():
                attrs[(s[0], key)] += value
        out = {}
        for metric, (unit, kind, names, *key) in LAYER_METRICS.items():
            if kind == "self":
                out[metric] = sum(self_time[n] for n in names)
            elif kind == "calls":
                out[metric] = sum(calls[n] for n in names)
            else:
                out[metric] = sum(attrs[(n, key[0])] for n in names)
        builds = out["linalg.lu_builds"]
        out[LU_REUSE[0]] = out["linalg.lu_solve_calls"] / builds if builds else 0.0
        return out

    def dump(self):
        """Spans as JSON-ready records."""
        return [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3],
                 "pass": s[4], "attrs": s[5]} for s in self.spans]


def layer_units():
    units = {name: spec[0] for name, spec in LAYER_METRICS.items()}
    units[LU_REUSE[0]] = LU_REUSE[1]
    return units


def median_metrics(per_pass):
    """Median of each metric over the traced passes."""
    return {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
