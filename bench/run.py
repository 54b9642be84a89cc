"""femscript benchmark: one workload, timed passes, checks, one JSON result.

    python3 bench/run.py --workload poisson --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  It imports femscript from the checkout's
src/ (never from an installed copy) and exits with status 2 if that is
missing.  The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (wall_per_ref, setup_s,
peak_rss_mb), from untraced passes run in WORKERS fresh worker processes one
after another; with --trace 1 they are the per-layer ones, from passes run
in this process with spans recorded, alternated with untraced passes to
measure the tracing overhead.  `attempted`/`failed` count checks, so failed/attempted is the
failure ratio.  The line before the result is a JSON report with the
provenance (git sha, versions, cores, thread settings, seed), every pass
time and a per-check summary; it is also written, with every check result
and the spans of a traced run, under bench/out/.
"""

import argparse
import gc
import hashlib
import json
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

# Pin native thread pools before numpy is imported anywhere (children inherit).
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)
# String hashing is randomised per process, and with it the order in which
# sets and dicts are walked; that alone moved a worker's peak RSS on
# nonlinear by up to 15% for the same work (see README, Noise).
WORKER_ENV = {"PYTHONHASHSEED": "0"}

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

MIN_PASSES = 2          # the determinism check compares passes within a run
WORKERS = 3             # worker processes of an untraced run, one after another
REF_REPEATS = 2         # reference kernel calls in each block between segments
SETUP_SAMPLES = 5       # fresh processes timed for setup_s
CHILD_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 120

# Timed in a fresh process: importing the package and preparing the inputs.
SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
import femscript, femscript.dsl
sys.path.insert(0, {bench!r})
import workloads
workloads.WORKLOADS[{workload!r}].prepare({seed!r})
print(time.perf_counter() - t0)
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["poisson", "heat", "nonlinear", "script"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    p.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def measure_setup(workload, seed):
    """Median over fresh processes of import + input preparation."""
    code = SETUP_PROBE.format(bench=str(BENCH_DIR), workload=workload, seed=seed)
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              env=dict(os.environ, PYTHONPATH=str(SRC)),
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                              check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples), samples


class ReferenceKernel:
    """Fixed work that does not touch femscript, timed between pass segments.

    The host's speed drifts by up to a third over minutes, across whole runs,
    and the kernel's time drifts with it; a pass's wall time divided by the
    kernel's time around it drifts far less (see README, Noise).  One call is a
    pure-Python loop plus a SuperLU factorization and solve of a 120 x 120
    grid Laplacian, the interpreter and sparse-direct work the passes do.
    """
    GRID = 120
    LOOP = 300_000

    def __init__(self):
        import numpy as np
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla
        n = self.GRID
        t = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        eye = sp.identity(n)
        self._matrix = (sp.kron(eye, t) + sp.kron(t, eye)).tocsc()
        self._rhs = np.ones(n * n)
        self._splu = spla.splu

    def _work(self):
        acc = 0
        for i in range(self.LOOP):
            acc += i * i % 7
        return acc + self._splu(self._matrix).solve(self._rhs)[0]

    def time_block(self):
        """Wall time of REF_REPEATS calls."""
        t0 = time.perf_counter()
        for _ in range(REF_REPEATS):
            self._work()
        return time.perf_counter() - t0


class SegmentClock:
    """Times one untraced pass in the segments its workload marks with lap().

    The reference kernel is timed after each segment, and each segment's
    wall time is divided by the mean of the kernel blocks on either side of
    it, so the normalisation follows the host's speed within a long pass.
    """

    def __init__(self, kernel, ref_before):
        self.kernel = kernel
        self.ref_s = ref_before
        self.wall_s = 0.0
        self.segments_per_ref = []
        self._t0 = time.perf_counter()

    def lap(self):
        segment = time.perf_counter() - self._t0
        ref_after = self.kernel.time_block()
        self.wall_s += segment
        self.segments_per_ref.append(segment / ((self.ref_s + ref_after) / 2))
        self.ref_s = ref_after
        self._t0 = time.perf_counter()


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def provenance(args):
    import numpy
    import scipy
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(), "threads": THREAD_ENV, "worker_env": WORKER_ENV,
            "seed": args.seed,
            "workload": args.workload, "seconds": args.seconds, "trace": args.trace}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "femscript" / "__init__.py").is_file():
        print(f"bench: femscript sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))

    import femscript
    if Path(femscript.__file__).resolve().parent != SRC / "femscript":
        print(f"bench: imported femscript from {femscript.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import tracing

    if args.worker:
        passes = run_in_process(args, 1, None)
        print(json.dumps({"passes": passes, "peak_rss_mb": peak_rss_mb()}, default=float))
        return 0

    start = time.perf_counter()
    setup_s = setup_samples = tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        passes = run_in_process(args, MIN_PASSES, tracer)
        rss = [peak_rss_mb()]
    else:
        # After the imports above, so the bytecode cache is filled, as it is
        # for an installed package.
        setup_s, setup_samples = measure_setup(args.workload, args.seed)
        passes, rss = run_workers(args, start)
    check_determinism(passes)

    plain = [p["wall_s"] for p in passes if not p["traced"]]
    plain_rel = [p["segments_per_ref"] for p in passes if not p["traced"]]
    checks = [c for p in passes for c in p["checks"]]
    attempted = len(checks)
    failed = sum(1 for c in checks if not c["ok"])
    devs = [c["dev"] for c in checks if c["dev"] is not None]
    max_err_dev = max(devs) if devs else None

    if args.trace:
        traced = [p for p in passes if p["traced"]]
        metrics = tracing.median_metrics([tracer.layer_metrics(p["id"]) for p in traced])
        metrics["trace.overhead_s"] = (statistics.fmean(p["wall_s"] for p in traced)
                                       - statistics.fmean(plain))
        metrics["check.max_err_dev"] = max_err_dev if max_err_dev is not None else 0.0
        units = dict(tracing.layer_units(), **{"trace.overhead_s": "s",
                                               "check.max_err_dev": "ratio"})
        if tracer.missing:
            print("bench: not traced (binding not found): " + ", ".join(tracer.missing),
                  file=sys.stderr)
    else:
        # Each segment's median over the passes, summed over the segments.
        wall_per_ref = sum(statistics.median(seg) for seg in zip(*plain_rel))
        metrics = {"wall_per_ref": wall_per_ref, "setup_s": setup_s,
                   "peak_rss_mb": statistics.median(rss)}
        units = {"wall_per_ref": "ratio", "setup_s": "s", "peak_rss_mb": "MiB"}

    summary = {}
    for c in checks:
        s = summary.setdefault(c["name"], {"attempted": 0, "failed": 0, "max_dev": None})
        s["attempted"] += 1
        s["failed"] += not c["ok"]
        if c["dev"] is not None:
            s["max_dev"] = max(c["dev"], s["max_dev"] or 0.0)
    report = {"provenance": provenance(args), "passes": len(passes),
              "pass_worker": [p["worker"] for p in passes],
              "pass_wall_s": [p["wall_s"] for p in passes],
              "pass_segments_per_ref": [p["segments_per_ref"] for p in passes],
              "wall_s_median": statistics.median(plain),
              "traced": [p["traced"] for p in passes], "setup_samples_s": setup_samples,
              "peak_rss_mb": rss,
              "fail_ratio": failed / attempted if attempted else 1.0,
              "max_err_dev": max_err_dev, "checks": summary}
    record = dict(report, check_results=checks, spans=tracer.dump() if tracer else None,
                  missing_bindings=tracer.missing if tracer else None)
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, default=float))
    print(json.dumps(report, default=float))
    print(json.dumps({"correct": attempted > 0 and failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workers(args, start):
    """Run WORKERS fresh processes one after another, each with an equal share
    of the time left since `start`, and gather their passes.  Some of the speed of a pass
    is fixed when its process starts (see README, Noise), so the passes of
    one run come from more than one process.  Returns the passes and the
    peak RSS of each worker."""
    passes, rss = [], []
    for worker in range(WORKERS):
        share = (args.seconds - (time.perf_counter() - start)) / (WORKERS - worker)
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(max(share, 0.0)), "--trace", "0",
               "--worker"]
        proc = subprocess.run(cmd, cwd=ROOT, env=dict(os.environ, **WORKER_ENV),
                              stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S,
                              check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for p in result["passes"]:
            p["id"] = len(passes)
            p["worker"] = worker
            passes.append(p)
        rss.append(result["peak_rss_mb"])
    return passes, rss


def run_in_process(args, min_passes, tracer):
    """Prepare the workload's inputs, warm up and run passes in this process."""
    import workloads
    wl = workloads.WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        inputs = wl.prepare(args.seed)
        wl.warm(inputs, workdir)
        ref = wl.reference(inputs)
        passes = run_passes(wl, inputs, ref, workdir, args.seconds, min_passes, tracer,
                            ReferenceKernel())
    for p in passes:
        p["worker"] = None
    return passes


def run_passes(wl, inputs, ref, workdir, seconds, min_passes, tracer, kernel):
    """Run passes until the next one would overrun `seconds` (at least
    min_passes).  In a traced run, passes alternate untraced and traced.
    Untraced passes are timed by a SegmentClock; the reference kernel is
    timed once before the first pass, then after every segment.  Each
    pass's outputs are kept as a digest for the determinism check."""
    passes = []
    start = time.perf_counter()
    ref_before = kernel.time_block()
    while True:
        pid = len(passes)
        traced = tracer is not None and pid % 2 == 1
        gc.collect()  # every pass starts with the previous pass's garbage gone
        t0 = time.perf_counter()
        clock = digest = None
        try:
            if traced:
                with tracer.installed(), tracer.span("pass", pid):
                    out = wl.run(inputs, workdir, lap=lambda: None)
                wall = time.perf_counter() - t0
            else:
                clock = SegmentClock(kernel, ref_before)
                out = wl.run(inputs, workdir, lap=clock.lap)
                clock.lap()
                wall = clock.wall_s
            results = wl.check(out, ref)
            digest = hashlib.sha256(pickle.dumps(out)).hexdigest()
        except Exception:  # a pass that raises fails every check of that pass
            traceback.print_exc(file=sys.stderr)
            wall = time.perf_counter() - t0
            results = [(name, False, None) for name in wl.CHECKS]
        checks = [{"pass": pid, "name": n, "ok": bool(ok), "dev": dev}
                  for n, ok, dev in results]
        if clock is not None:
            ref_before = clock.ref_s
        passes.append({"id": pid, "traced": traced, "wall_s": wall,
                       "segments_per_ref": clock.segments_per_ref if clock else None,
                       "iteration_s": time.perf_counter() - t0, "digest": digest,
                       "checks": checks})
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["iteration_s"] for p in passes)
        if len(passes) >= min_passes and elapsed + typical > seconds:
            return passes


def check_determinism(passes):
    """Every pass after the first must give bit-identical outputs (the same
    digest) to the first, in whichever process it ran."""
    first = passes[0]["digest"]
    for p in passes[1:]:
        if p["digest"] is not None:
            p["checks"].append({"pass": p["id"], "name": "determinism",
                                "ok": first is not None and p["digest"] == first,
                                "dev": None})


if __name__ == "__main__":
    sys.exit(main())
