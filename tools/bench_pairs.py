"""Alternated benchmark pairs of a base revision and the working tree.

    python tools/bench_pairs.py --base REV --workload W [W ...] --pairs N
    python tools/bench_pairs.py --base REV --workload all --pairs N

Extracts the committed files of REV (`git archive`) once into a temporary
directory.  For each workload W in turn (`all` names every workload of
BENCHMARK.json, in its order), runs `bench/run.py --workload W --seed S
--trace 0` for S = 1..N, once in that copy and once in the working tree,
with the `run_seconds` of BENCHMARK.json.  On odd seeds the base runs first,
on even seeds the working tree does, so that a drift in the host's speed
falls on both sides alike.  Writes one BENCH_<W>.json per workload at the
root of the working tree, each as soon as its pairs are done:
the machine and versions, both revisions (with the working tree's files
that differ from its HEAD, other than these reports), each run's end-to-end
metrics, check counts and median pass wall time (`wall_s_median`, from
bench/run.py's report line), the line count of src/**/*.py on both sides
(`src_lines`, also printed), and per metric the medians, quartiles, win
counts and a verdict against the bound that BENCHMARK.json fixes:
  - "better": the working tree wins at least nine pairs in ten (ties count
    for neither side) and its median beats the base's by more than the
    distance between the base's quartiles;
  - "worse": its median is worse than the base's by more than the bound;
  - "unresolved": the base's own quartile spread is wider than the bound,
    unless every run of the working tree reads better than every base run;
  - "no worse" otherwise.
Each side's median `wall_s_median` is printed beside `wall_per_ref`, which
splits a ratio move into pass time and reference-kernel time.  Every printed
verdict line starts with its workload's name.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def extract(rev, dest):
    """The committed files of `rev`, written under `dest`."""
    archive = Path(dest) / "rev.tar"
    subprocess.run(["git", "archive", "--format=tar", "-o", str(archive), rev], cwd=ROOT,
                   check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(Path(dest) / "tree", filter="data")
    archive.unlink()
    return Path(dest) / "tree"


def src_lines(tree):
    """The number of lines of src/**/*.py under `tree`."""
    return sum(len(p.read_text().splitlines()) for p in Path(tree).glob("src/**/*.py"))


def run_bench(tree, workload, seed, seconds):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"bench/run.py failed in {tree} (status {proc.returncode}):\n{proc.stderr}")
    report, result = map(json.loads, proc.stdout.strip().splitlines()[-2:])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "wall_s_median": report["wall_s_median"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def summarize(base, change, better, bound):
    """Medians, quartiles, wins and the verdict for one metric."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (b - c) > 0 for b, c in zip(base, change))
    losses = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    q_base = statistics.quantiles(base, n=4, method="inclusive")
    q_change = statistics.quantiles(change, n=4, method="inclusive")
    m_base, m_change = statistics.median(base), statistics.median(change)
    spread = q_base[2] - q_base[0]
    worse_by = sign * (m_change - m_base) / m_base
    if wins >= 0.9 * len(base) and sign * (m_base - m_change) > spread:
        verdict = "better"
    elif worse_by > bound:
        verdict = "worse"
    elif spread / m_base > bound and not all(
            sign * (c - b) < 0 for c in change for b in base):
        verdict = "unresolved"
    else:
        verdict = "no worse"
    return {"base_median": m_base, "change_median": m_change,
            "base_quartiles": [q_base[0], q_base[2]],
            "change_quartiles": [q_change[0], q_change[2]],
            "base_quartile_spread": spread, "change_vs_base": m_change / m_base,
            "wins": wins, "losses": losses, "ties": len(base) - wins - losses,
            "bound": bound, "verdict": verdict}


def pairs(workload, base_tree, n, seconds):
    """N alternated pairs of runs of `workload`, base and working tree."""
    runs = []
    for seed in range(1, n + 1):
        order = ["base", "change"] if seed % 2 else ["change", "base"]
        pair = {"seed": seed, "order": order}
        for side in order:
            tree = base_tree if side == "base" else ROOT
            pair[side] = run_bench(tree, workload, seed, seconds)
            print(f"{workload} seed {seed} {side}: {pair[side]['metrics']}", file=sys.stderr)
        runs.append(pair)
    return runs


def write_report(spec, workload, args, base_sha, change, lines, runs):
    """BENCH_<workload>.json from the runs, and its verdict lines printed."""
    metrics = {}
    for m in spec["end_to_end"]:
        values = {side: [r[side]["metrics"][m["name"]] for r in runs]
                  for side in ("base", "change")}
        metrics[m["name"]] = dict(summarize(values["base"], values["change"], m["better"],
                                            m["bound"]), unit=m["unit"], **values)
    wall_s = {side: statistics.median(r[side]["wall_s_median"] for r in runs)
              for side in ("base", "change")}
    report = {
        "workload": workload, "pairs": args.pairs, "run_seconds": spec["run_seconds"],
        "machine": {"nproc": os.cpu_count(), "platform": platform.platform(),
                    "python": platform.python_version(),
                    "numpy": version("numpy"), "scipy": version("scipy")},
        "base": {"rev": args.base, "sha": base_sha}, "change": change,
        "failed": {side: sum(r[side]["failed"] for r in runs) for side in ("base", "change")},
        "attempted": {side: sum(r[side]["attempted"] for r in runs)
                      for side in ("base", "change")},
        "metrics": metrics, "wall_s_median": wall_s, "src_lines": lines, "runs": runs}
    out = ROOT / f"BENCH_{workload}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    for name, m in metrics.items():
        print(f"{workload} {name}: base {m['base_median']:.4g}, change {m['change_median']:.4g} "
              f"({m['change_vs_base']:.3f}x), wins {m['wins']}/{args.pairs}: {m['verdict']}")
        if name == "wall_per_ref":
            print(f"{workload}   pass wall_s_median: base {wall_s['base']:.4g} s, "
                  f"change {wall_s['change']:.4g} s")
    print(f"wrote {out}", flush=True)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True, help="git revision to compare against")
    p.add_argument("--workload", required=True, nargs="+", help="workload names, or all")
    p.add_argument("--pairs", type=int, required=True)
    args = p.parse_args(argv)
    if args.pairs < 2:
        sys.exit("--pairs must be at least 2")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [w["name"] for w in spec["workloads"]]
    workloads = known if "all" in args.workload else args.workload
    unknown = [w for w in workloads if w not in known]
    if unknown:
        sys.exit(f"unknown workload {unknown[0]!r}; choose from {known} or all")
    base_sha = git("rev-parse", "--verify", args.base + "^{commit}")
    differ = git("diff", "--name-only", "HEAD") + "\n" + \
        git("ls-files", "--others", "--exclude-standard")
    change = {"head": git("rev-parse", "HEAD"),
              "uncommitted_changes": [f for f in differ.split()
                                      if not (f.startswith("BENCH_") and f.endswith(".json"))]}

    with tempfile.TemporaryDirectory() as tmp:
        base_tree = extract(base_sha, tmp)
        lines = {"base": src_lines(base_tree), "change": src_lines(ROOT)}
        print(f"src lines: base {lines['base']}, change {lines['change']}", flush=True)
        for workload in dict.fromkeys(workloads):
            runs = pairs(workload, base_tree, args.pairs, spec["run_seconds"])
            write_report(spec, workload, args, base_sha, change, lines, runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
