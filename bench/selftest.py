"""Self-test of the benchmark harness.

    python3 bench/selftest.py [workload ...]

For each workload (all four by default) it runs bench/run.py once untraced
and once traced, with a one-second budget (the fewest passes: one in each
worker untraced, two traced), and checks that:
  - the last line has exactly correct/attempted/failed/metrics, and is correct;
  - the metrics are exactly the end-to-end (untraced) or per-layer (traced)
    metrics that BENCHMARK.json names, each with the unit it names;
  - every check of the workload ran, the determinism check included;
  - no traced binding was missing.
It also runs the benchmark in a directory that holds only BENCHMARK.json
and bench/, where it must exit non-zero without printing a result.
Exits 0 when everything holds.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TIMEOUT_S = 180


def run_bench(cwd, workload, trace):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_workload(spec, workload, expected_checks):
    problems = []
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = run_bench(ROOT, workload, trace)
        if proc.returncode != 0:
            return [f"{workload} trace={trace}: exit {proc.returncode}: {proc.stderr[-2000:]}"]
        lines = proc.stdout.strip().splitlines()
        result, report = json.loads(lines[-1]), json.loads(lines[-2])
        where = f"{workload} trace={trace}"
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"{where}: result keys {sorted(result)}")
        if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
            problems.append(f"{where}: not correct: {report['checks']}")
        want = {m["name"]: m["unit"] for m in spec[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != want:
            problems.append(f"{where}: metrics/units differ: missing "
                            f"{sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
                            f"units {[(k, got[k], want[k]) for k in want if k in got and got[k] != want[k]]}")
        for name, metric in result["metrics"].items():
            if not isinstance(metric["value"], (int, float)):
                problems.append(f"{where}: {name} is not a number")
        ran = set(report["checks"])
        if ran != set(expected_checks) | {"determinism"}:
            problems.append(f"{where}: checks run {sorted(ran)}")
        if trace and "bench: not traced" in proc.stderr:
            problems.append(f"{where}: {proc.stderr.strip()}")
    return problems


def check_without_sources():
    """Only BENCHMARK.json and bench/ present: must fail without a result."""
    with tempfile.TemporaryDirectory(dir=BENCH_DIR / "out") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH_DIR, Path(tmp) / "bench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run_bench(tmp, "script", 0)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"without sources: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main(argv):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = argv or [w["name"] for w in spec["workloads"]]
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import workloads
    (BENCH_DIR / "out").mkdir(exist_ok=True)
    problems = check_without_sources()
    for name in names:
        problems += check_workload(spec, name, workloads.WORKLOADS[name].CHECKS)
        print(f"selftest: {name} done", flush=True)
    for p in problems:
        print("FAIL", p)
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
