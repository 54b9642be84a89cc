"""How the nonlinear disk tables depend on the disk mesh.

Prints the figures that README.md quotes for the big-Dirichlet table:

  rows      DBC=0 and DBC=50 errors against the published rows, on the
            default disks (N = 16..256) and on size_factor=1.4 disks
            (N = 16..128), with the observed rates.
  sweep     8 mesher settings (size_factor 0.9..1.6 by 0.1): the range of
            error/published over N <= 128 for the cubic, DBC=0 and DBC=50
            tables, whether each per-row gate holds (+-15% cubic, +-20%
            big-Dirichlet), the DBC=50 rate at N=128, and the range of the
            same-mesh error ratio DBC=0/cubic.
  relation  on the default, size_factor=1.4 and lattice disks (N = 16..128):
            the same-mesh error ratios DBC=0/cubic and DBC=50/DBC=0 against
            the published ones, and each table's error/published.

Run from the repository root, one or more sections (all by default):

    PYTHONPATH=src python tools/dbc_mesh_study.py [rows] [sweep] [relation]

One core takes about 3 s for rows, 4 s for sweep, 2 s for relation.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from conftest import ELLNL_DBC0_TABLE, ELLNL_DBC50_TABLE, ELLNL_TABLE  # noqa: E402
from disk_lattice import lattice_disk_mesh  # noqa: E402
from femscript.mesh import build_from_borders  # noqa: E402
from femscript.studies import (FixedPointConfig, circle_border,  # noqa: E402
                               run_nonlinear_study)

PROBLEMS = {"cubic": ("ellnl", FixedPointConfig(), ELLNL_TABLE),
            "DBC=0": ("ellnl_dbc", FixedPointConfig(dbc=0.0), ELLNL_DBC0_TABLE),
            "DBC=50": ("ellnl_dbc", FixedPointConfig(dbc=50.0), ELLNL_DBC50_TABLE)}


def disks(nref, **mesher):
    return [build_from_borders([circle_border(2 ** (n + 4))], **mesher) for n in range(nref)]


def study(name, meshes):
    problem, cfg, _ = PROBLEMS[name]
    return run_nonlinear_study(problem, len(meshes), cfg, meshes=meshes)


def rows():
    for label, nref, mesher in (("default disks", 5, {}),
                                ("size_factor=1.4 disks", 4, {"size_factor": 1.4})):
        meshes = disks(nref, **mesher)
        print(f"{label}: nv = {[m.nv for m in meshes]}")
        for name in ("DBC=0", "DBC=50"):
            for row, ref in zip(study(name, meshes), PROBLEMS[name][2]):
                rate = "" if row.rate_space is None else f"  rate {row.rate_space:.3f}"
                print(f"  {name:6s} N={row.N:3d}  {row.error:.6g}  published {ref}"
                      f"  ratio {row.error / ref:.3f}{rate}")


def sweep():
    tol = {"cubic": 0.15, "DBC=0": 0.20, "DBC=50": 0.20}
    span = {name: [np.inf, -np.inf] for name in PROBLEMS}
    rate50 = [np.inf, -np.inf]
    settings = [0.9, 1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6]
    all_three = 0
    for sf in settings:
        meshes = disks(4, size_factor=sf)
        line, passed, err = [], [], {}
        for name, (_, _, table) in PROBLEMS.items():
            result = study(name, meshes)
            err[name] = [r.error for r in result]
            q = [r.error / ref for r, ref in zip(result, table)]
            ok = all(abs(x - 1.0) <= tol[name] for x in q)
            passed.append(ok)
            span[name] = [min(span[name][0], min(q)), max(span[name][1], max(q))]
            line.append(f"{name} {min(q):.3f}-{max(q):.3f} {'pass' if ok else 'fail'}")
            if name == "DBC=50":
                r = result[-1].rate_space
                rate50 = [min(rate50[0], r), max(rate50[1], r)]
                line.append(f"rate N=128 {r:.3f}")
        all_three += all(passed)
        q = [d / c for d, c in zip(err["DBC=0"], err["cubic"])]
        line.append(f"DBC=0/cubic {min(q):.3f}-{max(q):.3f}")
        print(f"size_factor={sf}: " + " | ".join(line), flush=True)
    print(f"{len(settings)} settings; error/published ranges: "
          + ", ".join(f"{name} {lo:.2f}-{hi:.2f}" for name, (lo, hi) in span.items())
          + f"; DBC=50 rate at N=128 {rate50[0]:.2f}-{rate50[1]:.2f}; "
          f"settings meeting all three gates: {all_three}")


def relation():
    def ratios(num, den):
        return " ".join(f"{a / b:.3f}" for a, b in zip(num, den))

    print("published       DBC=0/cubic", ratios(ELLNL_DBC0_TABLE[:4], ELLNL_TABLE),
          "| DBC=50/DBC=0", ratios(ELLNL_DBC50_TABLE[:4], ELLNL_DBC0_TABLE))
    families = (("default", disks(4)), ("size_factor=1.4", disks(4, size_factor=1.4)),
                ("lattice", [lattice_disk_mesh(2 ** (n + 4)) for n in range(4)]))
    for label, meshes in families:
        err = {name: [r.error for r in study(name, meshes)] for name in PROBLEMS}
        print(f"{label:15s} DBC=0/cubic", ratios(err["DBC=0"], err["cubic"]),
              "| DBC=50/DBC=0", ratios(err["DBC=50"], err["DBC=0"]))
        print(" " * 15, " | ".join(f"{name}/published " + ratios(err[name], table)
                                   for name, (_, _, table) in PROBLEMS.items()), flush=True)


if __name__ == "__main__":
    sections = {"rows": rows, "sweep": sweep, "relation": relation}
    chosen = sys.argv[1:] or list(sections)
    unknown = [s for s in chosen if s not in sections]
    if unknown:
        sys.exit(f"unknown section(s) {unknown}; choose from {list(sections)}")
    for s in chosen:
        print(f"== {s}")
        sections[s]()
