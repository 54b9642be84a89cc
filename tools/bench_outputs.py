"""Dump and compare the outputs of one pass of each benchmark workload.

    python tools/bench_outputs.py dump [--root DIR] [--seed S] out.pkl [workload ...]
    python tools/bench_outputs.py compare a.pkl b.pkl

dump      imports femscript from DIR/src and loads DIR/bench/workloads.py by
          path (DIR defaults to the checkout holding this script).  For each
          named workload (all by default) it runs prepare(S) (S defaults to
          1), warm and one run pass in a temporary directory, and pickles
          {workload: outputs} to out.pkl.  Nothing is written under bench/.
compare   for each workload in both files: whether the pickled outputs are
          byte-identical, then one line per output key (nested dict keys
          joined by "/") with the largest relative deviation over its float
          and array leaves (|a - b| / |b| for a number, max|a - b| / max|b|
          for an array), so that iteration counts do not mask table rows.
          The last line names the largest deviation, its workload and key,
          and whether it is within the unchanged-rows bound (1e-8 relative,
          ROADMAP's standing note).  Exits 1 when a workload is missing from
          either file or the bound is exceeded.

To check a change against its parent, dump both checkouts with this script,
one with --root pointing at a copy of the parent, and compare the files.
Compare on a seed not used while writing the change as well as on seed 1.
"""

import argparse
import importlib.util
import math
import os
import pickle
import sys
import tempfile
from pathlib import Path

# The benchmark pins native thread pools to one thread; so does this.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
# A change not meant to alter the discrete solution moves no output by more.
UNCHANGED_BOUND = 1e-8


def load_workloads(root):
    sys.dont_write_bytecode = True          # no __pycache__ under bench/
    sys.path.insert(0, str(root / "src"))
    spec = importlib.util.spec_from_file_location("workloads",
                                                  root / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def dump(root, path, names, seed=1):
    workloads = load_workloads(root)
    unknown = set(names) - set(workloads)
    if unknown:
        sys.exit(f"unknown workloads {sorted(unknown)}; choose from {list(workloads)}")
    outputs = {}
    for name in names or list(workloads):
        wl = workloads[name]
        inputs = wl.prepare(seed)
        with tempfile.TemporaryDirectory() as workdir:
            wl.warm(inputs, workdir)
            outputs[name] = wl.run(inputs, workdir, lap=lambda: None)
        print(f"{name}: done", flush=True)
    with open(path, "wb") as f:
        pickle.dump(outputs, f)


def max_rel_dev(a, b):
    """Largest relative deviation of a from b over their numeric leaves;
    inf where the two structures differ."""
    if isinstance(b, dict):
        if not isinstance(a, dict) or a.keys() != b.keys():
            return math.inf
        return max((max_rel_dev(a[k], b[k]) for k in b), default=0.0)
    if isinstance(b, (list, tuple)):
        if type(a) is not type(b) or len(a) != len(b):
            return math.inf
        return max((max_rel_dev(x, y) for x, y in zip(a, b)), default=0.0)
    if isinstance(b, np.ndarray):
        if not isinstance(a, np.ndarray) or a.shape != b.shape:
            return math.inf
        if np.array_equal(a, b):
            return 0.0
        return float(np.abs(a - b).max() / np.abs(b).max())
    if isinstance(b, (int, float)) and not isinstance(b, bool):
        if a == b:
            return 0.0
        return abs(a - b) / abs(b) if b else math.inf
    return 0.0 if a == b else math.inf


def key_deviations(a, b, path=""):
    """(key path, max_rel_dev) for each value of b below its nested dicts;
    a key present on one side only reads inf."""
    if not (isinstance(a, dict) and isinstance(b, dict)):
        return [(path, max_rel_dev(a, b))]
    out = []
    for k in list(b) + [k for k in a if k not in b]:
        sub = f"{path}/{k}" if path else str(k)
        out += key_deviations(a[k], b[k], sub) if k in a and k in b else [(sub, math.inf)]
    return out


def compare(path_a, path_b):
    """Print the comparison and its verdict; return the exit status."""
    with open(path_a, "rb") as f:
        a = pickle.load(f)
    with open(path_b, "rb") as f:
        b = pickle.load(f)
    missing, devs = False, []
    for name in list(b) + [n for n in a if n not in b]:
        if name not in a or name not in b:
            print(f"{name}: missing from {path_a if name not in a else path_b}")
            missing = True
            continue
        same = pickle.dumps(a[name]) == pickle.dumps(b[name])
        print(f"{name}: bytes {'equal' if same else 'differ'}")
        for key, dev in key_deviations(a[name], b[name]):
            print(f"  {key or '(outputs)'}: max relative deviation {dev:.3g}")
            devs.append((math.inf if math.isnan(dev) else dev, f"{name}/{key}".rstrip("/")))
    dev, where = max(devs, key=lambda d: d[0], default=(0.0, "no workload"))
    within = dev <= UNCHANGED_BOUND
    print(f"largest deviation {dev:.3g} at {where}: "
          f"{'within' if within else 'exceeds'} the unchanged-rows bound of "
          f"{UNCHANGED_BOUND:g} relative" + ("; a workload is missing" if missing else ""))
    return 0 if within and not missing else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    d = sub.add_parser("dump")
    d.add_argument("--root", type=Path, default=ROOT)
    d.add_argument("--seed", type=int, default=1)
    d.add_argument("out")
    d.add_argument("workloads", nargs="*")
    c = sub.add_parser("compare")
    c.add_argument("a")
    c.add_argument("b")
    args = p.parse_args(argv)
    if args.cmd == "dump":
        dump(args.root.resolve(), args.out, args.workloads, args.seed)
    else:
        sys.exit(compare(args.a, args.b))


if __name__ == "__main__":
    main()
