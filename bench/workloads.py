"""The four benchmark workloads: inputs, one pass, and the checks on a pass.

Each workload is driven through femscript's public Python API.  The table
workloads (poisson, heat, nonlinear) run the paper's convergence studies,
whose inputs are fixed by the paper; the seed only draws the parameters of
the scripted workload, within ranges that keep its work the same size.

A workload provides
  prepare(seed)            -> inputs (parameters, script sources)
  warm(inputs, workdir)    a small run of the same code paths, untimed
  reference(inputs)        -> what a pass is checked against
  run(inputs, workdir, lap) -> one pass's outputs (error rows, DOF vectors);
                           it calls lap() between its stages, where the
                           harness times its reference kernel
  check(out, ref)          -> [(check name, passed, relative deviation)]
and CHECKS, the names check() reports, so a pass that raises fails them all.
"""

import io
import random
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from femscript import dsl, studies
from femscript.fespace import FeSpace, interpolate
from femscript.fields import Constant, as_field
from femscript.forms import (DirichletBC, FormTerm, TestFunction, TrialFunction,
                             VarForm, as_form, assemble_bilinear, assemble_linear,
                             dx, dy)
from femscript.linalg import factorize
from femscript.mesh import build_square

LISTINGS = Path(__file__).resolve().parent / "listings"

# Published tables (the paper's convergence tables, N = 16, 32, 64, 128[, 256]).
POISSON_TABLE = [0.0047854, 0.00120952, 0.000303212, 7.58552e-05]
POISSON_RATES = [1.9842, 1.99604, 1.99901]
HEAT_TABLE = {
    0.0: {"errors": [0.00325837, 0.000815303, 0.000203872],
          "time_rates": [0.99937, 0.999834]},
    0.5: {"errors": [0.00325537, 0.000819141, 0.000203817]},
    1.0: {"errors": [0.00323818, 0.000807805, 0.000201833]},
}
ELLNL_TABLE = [0.015689, 0.0042401, 0.00117866, 0.00032964, 8.48012e-05]


def _rel_dev(got, ref):
    return abs(got - ref) / abs(ref)


def _dofs_dev(got, ref):
    return float(np.abs(got - ref).max() / np.abs(ref).max())


@contextmanager
def _recording(module, name):
    """Record the results of module.name while the block runs.

    The study drivers drop the iteration count and final increment of each
    fixed-point solve; this keeps them so convergence can be checked.
    """
    original = getattr(module, name)
    calls = []

    def recorder(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append(result)
        return result

    setattr(module, name, recorder)
    try:
        yield calls
    finally:
        setattr(module, name, original)


# -- poisson ------------------------------------------------------------------

class Poisson:
    """The paper's first table at its published nref: one 66k-DOF factorization
    and one large assembly dominate; no Delaunay, no DSL (their bypass case)."""
    CHECKS = ["poisson.rows", "poisson.rates"]

    def prepare(self, seed):
        return {"nref": 5}

    def warm(self, inputs, workdir):
        studies.run_poisson_study(2)

    def reference(self, inputs):
        return None

    def run(self, inputs, workdir, lap):
        rows = studies.run_poisson_study(inputs["nref"])
        return {"errors": [r.error for r in rows], "rates": [r.rate_space for r in rows[1:]]}

    def check(self, out, ref):
        devs = [_rel_dev(e, p) for e, p in zip(out["errors"], POISSON_TABLE)]
        rates = out["rates"]
        rate_devs = [abs(r - p) for r, p in zip(rates, POISSON_RATES)]
        monotone = all(b >= a - 0.02 for a, b in zip(rates, rates[1:]))
        return [("poisson.rows", max(devs) <= 0.05, max(devs)),
                ("poisson.rates", max(rate_devs) <= 0.05 and monotone, None)]


# -- heat ---------------------------------------------------------------------

class Heat:
    """theta = 0, 1/2, 1 at nref = 3: one factorization per level, then
    thousands of triangular solves and matvecs, solve-heavy where poisson is
    factor-heavy.  The published nref = 4 costs ~55 s a pass."""
    THETAS = (0.0, 0.5, 1.0)
    CHECKS = ["heat.theta0.rows", "heat.theta0.rates", "heat.theta0.5.rates",
              "heat.theta1.rates"]

    def prepare(self, seed):
        return {"nref": 3}

    def warm(self, inputs, workdir):
        for theta in self.THETAS:
            studies.run_heat_study(studies.ThetaSchemeConfig(theta=theta, T=0.01), 2)

    def reference(self, inputs):
        return None

    def run(self, inputs, workdir, lap):
        out = {}
        for theta in self.THETAS:
            if out:
                lap()
            rows = studies.run_heat_study(studies.ThetaSchemeConfig(theta=theta),
                                          inputs["nref"])
            out[theta] = {"errors": [r.error for r in rows],
                          "time_rates": [r.rate_time for r in rows[1:]]}
        return out

    def check(self, out, ref):
        devs = [_rel_dev(e, p) for theta in self.THETAS
                for e, p in zip(out[theta]["errors"], HEAT_TABLE[theta]["errors"])]
        zero = out[0.0]
        rows_dev = max(_rel_dev(e, p)
                       for e, p in zip(zero["errors"], HEAT_TABLE[0.0]["errors"]))
        return [
            ("heat.theta0.rows", rows_dev <= 0.05, max(devs)),
            ("heat.theta0.rates",
             all(abs(r - p) <= 0.05
                 for r, p in zip(zero["time_rates"], HEAT_TABLE[0.0]["time_rates"])), None),
            ("heat.theta0.5.rates",
             all(abs(r - 2.0) <= 0.05 for r in out[0.5]["time_rates"]), None),
            ("heat.theta1.rates",
             all(abs(r - 1.0) <= 0.05 for r in out[1.0]["time_rates"]), None),
        ]


# -- nonlinear ----------------------------------------------------------------

class Nonlinear:
    """Five Delaunay disks, the cubic table at its published nref = 5 and the
    big-Dirichlet problem at DBC = 50 on the first three disks: the mesher and
    ~700 Picard factorizations.  DBC = 50 at nref = 4 would add ~9 s a pass."""
    CHECKS = ["nonlinear.cubic.rows", "nonlinear.cubic.rates", "nonlinear.cubic.converged",
              "nonlinear.dbc50.converged", "nonlinear.dbc50.decreasing"]

    def prepare(self, seed):
        return {"nref_cubic": 5, "nref_dbc": 3, "dbc": 50.0}

    def warm(self, inputs, workdir):
        meshes = [studies.disk_mesh(16), studies.disk_mesh(32)]
        studies.run_nonlinear_study("ellnl", 2, meshes=meshes)
        studies.run_nonlinear_study("ellnl_dbc", 2, studies.FixedPointConfig(dbc=50.0),
                                    meshes=meshes)

    def reference(self, inputs):
        return None

    def run(self, inputs, workdir, lap):
        meshes = [studies.disk_mesh(2 ** (n + 4)) for n in range(inputs["nref_cubic"])]
        cfg = studies.FixedPointConfig(dbc=inputs["dbc"])
        lap()
        with _recording(studies, "run_fixed_point") as cubic_solves:
            cubic = studies.run_nonlinear_study("ellnl", inputs["nref_cubic"], meshes=meshes)
        lap()
        with _recording(studies, "run_fixed_point") as dbc_solves:
            dbc = studies.run_nonlinear_study("ellnl_dbc", inputs["nref_dbc"], cfg,
                                              meshes=meshes[:inputs["nref_dbc"]])
        solves = lambda calls: [(it, err) for _, it, err in calls]  # noqa: E731
        return {"sizes": [(m.nv, m.nt) for m in meshes],
                "cubic": {"errors": [r.error for r in cubic],
                          "rates": [r.rate_space for r in cubic[1:]],
                          "solves": solves(cubic_solves)},
                "dbc": {"errors": [r.error for r in dbc], "solves": solves(dbc_solves)},
                "tol": cfg.tol, "max_iter": cfg.max_iter}

    def check(self, out, ref):
        cubic, dbc = out["cubic"], out["dbc"]
        devs = [_rel_dev(e, p) for e, p in zip(cubic["errors"], ELLNL_TABLE)]

        def converged(part, n):
            return len(part["solves"]) == n and all(
                err < out["tol"] and it < out["max_iter"] for it, err in part["solves"])

        return [
            ("nonlinear.cubic.rows", max(devs[:4]) <= 0.15, max(devs)),
            ("nonlinear.cubic.rates", all(1.85 <= r <= 2.15 for r in cubic["rates"][-2:]),
             None),
            ("nonlinear.cubic.converged", converged(cubic, len(cubic["errors"])), None),
            ("nonlinear.dbc50.converged", converged(dbc, len(dbc["errors"])), None),
            ("nonlinear.dbc50.decreasing",
             all(b < a for a, b in zip(dbc["errors"], dbc["errors"][1:])), None),
        ]


# -- script -------------------------------------------------------------------

class Script:
    """Two FreeFem-style listings through run_source: the only workload that
    runs the interpreter and CG, and where the fixed per-call cost of forms and
    linalg on tiny systems shows."""
    CHECKS = ["script.exit_codes", "script.heat.dofs", "script.cubic.dofs",
              "script.cubic.iterations"]
    HEAT_STEPS = 600
    DISK_N = 64
    TOL = 1e-10
    MAX_ITER = 1000
    DOFS_RTOL = 1e-10

    def prepare(self, seed):
        rng = random.Random(seed)
        # Ranges keep the work the same size: the step count is fixed, and on
        # C(64) every amplitude in [0.99, 1.03] takes 14 Picard iterations.
        params = {"dt": rng.uniform(5e-4, 2e-3), "heat_amp": rng.uniform(0.5, 2.0),
                  "cubic_amp": rng.uniform(0.99, 1.03)}
        return dict(params, **self._sources(params, self.HEAT_STEPS, self.DISK_N))

    def _sources(self, p, nsteps, disk_n):
        heat = (f"real dt={p['dt']!r};\nreal amp={p['heat_amp']!r};\n"
                f"int nsteps={nsteps};\n" + (LISTINGS / "heat_euler.edp").read_text())
        cubic = (f"int N={disk_n};\nreal amp={p['cubic_amp']!r};\nreal tol={self.TOL!r};\n"
                 f"int maxiter={self.MAX_ITER};\n"
                 + (LISTINGS / "cubic_picard.edp").read_text())
        return {"heat_src": heat, "cubic_src": cubic}

    def warm(self, inputs, workdir):
        small = self._sources(inputs, 5, 16)
        self._run_sources(small["heat_src"], small["cubic_src"], workdir)

    def _run_sources(self, heat_src, cubic_src, workdir):
        heat = dsl.run_source(heat_src, script_dir=str(workdir), stdout=io.StringIO(),
                              verbosity=0)
        cubic = dsl.run_source(cubic_src, script_dir=str(workdir), stdout=io.StringIO(),
                               verbosity=0)
        return heat, cubic

    def reference(self, inputs):
        """The same discrete problems solved through the Python API."""
        dt, amp = inputs["dt"], inputs["heat_amp"]
        Vh = FeSpace(build_square(8, 8), "P1")
        u, v = TrialFunction(), TestFunction()
        bc = [DirichletBC(frozenset({1, 2, 3, 4}), Constant(0.0))]
        mass_stiff = as_form(u) * v / dt + dx(u) * dx(v) + dy(u) * dy(v)
        lu = factorize(assemble_bilinear(
            VarForm(bilinear_terms=[FormTerm("int2d", mass_stiff)], dirichlet=bc), Vh, Vh))
        f = as_field(lambda x, y: amp * np.sin(np.pi * x) * np.sin(np.pi * y))
        un = interpolate(Vh, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
        for _ in range(self.HEAT_STEPS):
            rhs = as_form(as_field(un)) * v / dt + as_form(f) * v
            b = assemble_linear(VarForm(linear_terms=[FormTerm("int2d", rhs)], dirichlet=bc),
                                Vh)
            un = Vh.function(lu.solve(b))

        camp = inputs["cubic_amp"]
        uh, iters, _ = studies.run_fixed_point(
            "ellnl", self.DISK_N, studies.FixedPointConfig(tol=self.TOL, max_iter=self.MAX_ITER),
            mesh=studies.disk_mesh(self.DISK_N),
            rhs=lambda x, y: camp * studies.ellnl_rhs(x, y))
        return {"heat_u": un.dofs.copy(), "cubic_u": uh.dofs.copy(), "cubic_iter": iters}

    def run(self, inputs, workdir, lap):
        heat, cubic = self._run_sources(inputs["heat_src"], inputs["cubic_src"], workdir)
        return {"exit_codes": [heat.exit_code, cubic.exit_code],
                "heat_u": heat.env.lookup("u").dofs.copy(),
                "cubic_u": cubic.env.lookup("uh").dofs.copy(),
                "cubic_iter": int(cubic.env.lookup("iter"))}

    def check(self, out, ref):
        heat_dev = _dofs_dev(out["heat_u"], ref["heat_u"])
        cubic_dev = _dofs_dev(out["cubic_u"], ref["cubic_u"])
        return [
            ("script.exit_codes", out["exit_codes"] == [0, 0], None),
            ("script.heat.dofs", heat_dev <= self.DOFS_RTOL, heat_dev),
            ("script.cubic.dofs", cubic_dev <= self.DOFS_RTOL, cubic_dev),
            ("script.cubic.iterations", out["cubic_iter"] == ref["cubic_iter"], None),
        ]


WORKLOADS = {"poisson": Poisson(), "heat": Heat(), "nonlinear": Nonlinear(),
             "script": Script()}

