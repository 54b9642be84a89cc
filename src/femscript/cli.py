"""Command line entry point: run scripts, reproduce the convergence studies,
inspect mesh files."""

import argparse
import os
import sys

from .errors import FemError
from .mesh import load_msh
from .studies import (FixedPointConfig, ThetaSchemeConfig, run_heat_study,
                      run_nonlinear_study, run_poisson_study)


def _env_verbosity():
    try:
        return int(os.environ.get("FEMSCRIPT_VERBOSITY", "2"))
    except ValueError:
        return 2


def build_parser():
    p = argparse.ArgumentParser(prog="femscript",
                                description="2D FEM kernel with a scripting language")
    sub = p.add_subparsers(dest="command")

    run = sub.add_parser("run", help="execute a script file")
    run.add_argument("file")
    run.add_argument("--verbosity", type=int, default=None)
    run.add_argument("--no-plot-files", action="store_true")
    run.add_argument("--allow-exec", action="store_true",
                     help="allow exec() shell escapes in scripts")

    study = sub.add_parser("study", help="reproduce a convergence table")
    study.add_argument("which", choices=["poisson", "ellnl", "heat"])
    study.add_argument("--nref", type=int, default=4)
    study.add_argument("--dbc", type=float, default=None,
                       help="big-Dirichlet variant with this boundary value")
    study.add_argument("--theta", type=float, default=0.0)
    study.add_argument("--cfl", type=float, default=1.0)
    study.add_argument("--T", type=float, default=0.1)
    study.add_argument("--mu", type=float, default=1.0)
    study.add_argument("--csv", default=None)

    info = sub.add_parser("mesh-info", help="print counts and labels of a .msh file")
    info.add_argument("file")
    return p


def _print_rows(rows, csv_path=None):
    has_dt = any(r.dt is not None for r in rows)
    has_iters = any(r.iterations is not None for r in rows)
    header = ["N", "h"] + (["dt"] if has_dt else []) + ["L2 error", "rate"]
    if has_dt:
        header.append("time rate")
    if has_iters:
        header.append("iters")
    widths = [6, 12] + ([12] if has_dt else []) + [14, 9] + ([9] if has_dt else []) \
        + ([6] if has_iters else [])

    def fmt(row):
        cells = [str(row.N), f"{row.h:.6g}"]
        if has_dt:
            cells.append(f"{row.dt:.6g}")
        cells.append(f"{row.error:.6e}")
        cells.append("-" if row.rate_space is None else f"{row.rate_space:.4f}")
        if has_dt:
            cells.append("-" if row.rate_time is None else f"{row.rate_time:.4f}")
        if has_iters:
            cells.append("-" if row.iterations is None else str(row.iterations))
        return cells

    print("  ".join(h.rjust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(c.rjust(w) for c, w in zip(fmt(row), widths)))
    if csv_path:
        with open(csv_path, "w") as f:
            f.write(",".join(header) + "\n")
            for row in rows:
                f.write(",".join(fmt(row)) + "\n")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "study":
            return _cmd_study(args)
        if args.command == "mesh-info":
            return _cmd_mesh_info(args)
    except FemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2


def _cmd_run(args) -> int:
    from .dsl import run_source
    path = args.file
    if not os.path.exists(path):
        print(f"error: file not found: {path}", file=sys.stderr)
        return 1
    with open(path) as f:
        source = f.read()
    verbosity = args.verbosity if args.verbosity is not None else _env_verbosity()
    result = run_source(source,
                        script_dir=os.path.dirname(os.path.abspath(path)),
                        allow_exec=args.allow_exec,
                        plot_files=not args.no_plot_files,
                        verbosity=verbosity)
    return result.exit_code


def _cmd_study(args) -> int:
    if args.which == "poisson":
        rows = run_poisson_study(args.nref)
    elif args.which == "ellnl":
        if args.dbc is None:
            rows = run_nonlinear_study("ellnl", args.nref)
        else:
            rows = run_nonlinear_study("ellnl_dbc", args.nref,
                                       FixedPointConfig(dbc=args.dbc))
    else:
        cfg = ThetaSchemeConfig(theta=args.theta, mu=args.mu, cfl=args.cfl, T=args.T)
        rows = run_heat_study(cfg, args.nref)
    _print_rows(rows, args.csv)
    return 0


def _cmd_mesh_info(args) -> int:
    if not os.path.exists(args.file):
        print(f"error: file not found: {args.file}", file=sys.stderr)
        return 1
    mesh = load_msh(args.file)
    print(f"vertices:       {mesh.nv}")
    print(f"triangles:      {mesh.nt}")
    print(f"boundary edges: {mesh.ne}")
    print(f"total area:     {mesh.total_area():.12g}")
    labels = {}
    for lab in mesh.edge_label:
        labels[int(lab)] = labels.get(int(lab), 0) + 1
    for lab in sorted(labels):
        print(f"label {lab}: {labels[lab]} edges")
    return 0


if __name__ == "__main__":
    sys.exit(main())
