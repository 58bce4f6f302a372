"""bcplab benchmark: end-to-end metrics untraced, per-layer metrics traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (or any checkout holding ``src/bcplab``). Each
workload runs in fresh worker processes (bench/worker.py) with BLAS pinned
to one thread. Every report is digested and checked against
bench/golden.json. The last line of output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``
with the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``); the lines before it give the environment, every metric by
name and unit, and the report digests. See bench/NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
from workloads import WORKLOADS  # noqa: E402

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORKER_TIMEOUT_S = 160
MIN_PASSES = 3          # untimed runs: median of at least three passes
MIN_TRACED_PASSES = 2   # traced runs: counts must repeat across two passes
# every transfer_op ball costs four 2->2 oracle calls in the build: one
# when make_covering measures the origin gap, three in operator_cover_transfer
SVD_CALLS_PER_OPERATOR_BALL = 4


def run_worker(workload: str, seed: int, seconds: float, min_passes: int,
               traced: bool, jobs_check: bool) -> dict:
    """Run bench/worker.py in a fresh process and return its JSON result."""
    env = dict(os.environ, **BLAS_ENV, PYTHONPATH=str(ROOT / "src"))
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="bcplab-", dir=build)
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), workload, str(seed), str(seconds),
             str(min_passes), str(int(traced)), str(int(jobs_check)), workdir],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, timeout=WORKER_TIMEOUT_S, check=True,
            text=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(res: dict) -> list:
    """Errors in one worker result: exit codes, golden digests, repeatability."""
    errors = list(res["errors"])
    for p in res["passes"]:
        errors += p["errors"]
    if res["golden_mismatches"]:
        errors.append(f"{res['golden_mismatches']} report(s) differ from bench/golden.json")
    digests = [p["digests"] for p in res["passes"]]
    if any(d != digests[0] for d in digests):
        errors.append("reports differ between passes with the same seed")
    if "jobs_check" in res and res["jobs_check"][0] != res["jobs_check"][1]:
        errors.append("reports differ between jobs=1 and jobs>1")
    return errors


def end_to_end(res: dict) -> dict:
    passes = res["passes"]
    med = lambda key: statistics.median(key(p) for p in passes)
    return {
        "run_s": (med(lambda p: p["run_s"]), "s"),
        "setup_s": (med(lambda p: p["setup_s"]), "s"),
        "trials_per_s": (med(lambda p: p["trials"] / (p["run_s"] - p["setup_s"])), "1/s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }


def per_layer(traced: dict, plain: dict) -> tuple:
    """Per-layer metrics (medians of times, counts that must repeat) and errors."""
    passes = [p["layers"] for p in traced["passes"]]
    errors, out = [], {}
    for name, (value, unit) in passes[0].items():
        values = [p[name][0] for p in passes]
        if unit == "s":
            out[name] = (statistics.median(values), unit)
        else:
            out[name] = (value, unit)
            if any(v != value for v in values):
                errors.append(f"per-layer count {name} differs between traced passes")
    overhead = (statistics.median(p["run_s"] for p in traced["passes"])
                - statistics.median(p["run_s"] for p in plain["passes"]))
    out["trace.overhead_s"] = (overhead, "s")
    if traced["passes"][0]["digests"] != plain["passes"][0]["digests"]:
        errors.append("traced reports differ from untraced reports")
    balls = traced["passes"][0]["operator_balls"]
    svd = out["op_cover.oracle.calls.svd"][0]
    if balls and svd != SVD_CALLS_PER_OPERATOR_BALL * balls:
        errors.append(f"tracer saw {svd} svd oracle calls for {balls} operator balls, "
                      f"expected {SVD_CALLS_PER_OPERATOR_BALL * balls}")
    return out, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "bcplab" / "__init__.py").is_file():
        print(f"bench: no bcplab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    jobs_check = workload.jobs > 1
    if args.trace:
        plain = run_worker(args.workload, args.seed, args.seconds / 2, MIN_TRACED_PASSES,
                           False, jobs_check)
        traced = run_worker(args.workload, args.seed, args.seconds / 2, MIN_TRACED_PASSES,
                            True, False)
        metrics, errors = per_layer(traced, plain)
        errors += check(plain) + check(traced)
        runs = plain["passes"] + traced["passes"]
        print("tracer bindings:", json.dumps(traced["bindings"], sort_keys=True))
    else:
        plain = run_worker(args.workload, args.seed, args.seconds, MIN_PASSES,
                           False, jobs_check)
        metrics = end_to_end(plain)
        errors = check(plain)
        runs = plain["passes"]
    attempted = sum(p["trials"] for p in runs)
    failed = sum(p["failed"] for p in runs)
    print("environment:", json.dumps(plain["env"], sort_keys=True))
    print(f"passes: {len(plain['passes'])} untraced"
          + (f", {len(traced['passes'])} traced" if args.trace else ""))
    shown = dict(metrics)
    if not args.trace:
        shown["fail_frac"] = (failed / attempted, "ratio")
        shown["report_mismatches"] = (plain["golden_mismatches"], "count")
    for name, (value, unit) in shown.items():
        print(f"{name} {value} {unit}")
    for label, digest in plain["passes"][0]["digests"].items():
        print(f"digest {label} {digest}")
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
