"""Run one workload's passes in a fresh process; print the results as one JSON line.

    python3 bench/worker.py WORKLOAD SEED SECONDS MIN_PASSES TRACED JOBS_CHECK WORKDIR

bench/run.py starts this with ``src`` on PYTHONPATH and BLAS pinned to one
thread. A pass runs every entry of the workload through ``cli.main`` and
digests the reports it wrote. The process first makes an untimed pass at
the golden seed (the golden check, which also warms caches); with
JOBS_CHECK set, it then runs every entry at SEED with jobs=1 and with the
workload's jobs, for the reports to be compared. Then come timed passes at
SEED until SECONDS have passed and at least MIN_PASSES are done. TRACED
installs the per-layer tracer before the timed passes.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from bcplab import cli, harness
from workloads import GOLDEN_SEED, WORKLOADS, seeded

BENCH = Path(__file__).resolve().parent


class SetupClock:
    """Times every validate and build of ``harness.SCENARIOS`` in this process."""

    def __init__(self):
        self.seconds = 0.0
        for name, sc in list(harness.SCENARIOS.items()):
            harness.SCENARIOS[name] = dataclasses.replace(
                sc, validate=self._timed(sc.validate), build=self._timed(sc.build))

    def _timed(self, fn):
        def timed(*args):
            t0 = time.perf_counter()
            try:
                return fn(*args)
            finally:
                self.seconds += time.perf_counter() - t0
        return timed


def report_digest(report: dict) -> str:
    """SHA-256 of a report with its wall_time_s field removed."""
    report = dict(report)
    report.pop("wall_time_s")
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


def trial_failed(status: str, exit_code: int) -> bool:
    return status in ("error", "exhausted") or (status == "falsified" and exit_code == 0)


def run_pass(runs: list, jobs: int, workdir: Path, clock: SetupClock) -> dict:
    """Run every entry through cli.main; time it, then digest and check the reports.

    Each pass writes new files in a directory of its own and removes them
    afterwards: on ext4, rewriting an existing file waits for writeback of
    the old data, which would add tens of milliseconds per report at random.
    """
    passdir = Path(tempfile.mkdtemp(prefix="pass-", dir=workdir))
    files = []
    for k, (entry, seed) in enumerate(runs):
        config, out = passdir / f"config{k}.json", passdir / f"report{k}.json"
        config.write_text(json.dumps({"scenario": entry.scenario, "params": entry.params,
                                      "seed": seed}))
        files.append((str(config), str(out)))
    gc.collect()
    clock.seconds = 0.0
    t0 = time.perf_counter()
    codes = [cli.main(["run", "--config", config, "--out", out, "--jobs", str(jobs)])
             for config, out in files]
    run_s = time.perf_counter() - t0
    result = {"run_s": run_s, "setup_s": clock.seconds, "trials": 0, "failed": 0,
              "report_bytes": 0, "operator_balls": 0, "digests": {}, "errors": []}
    for (entry, _), (_, out), code in zip(runs, files, codes):
        if code != entry.exit_code:
            result["errors"].append(f"{entry.label}: exit code {code}, expected {entry.exit_code}")
        with open(out, encoding="utf-8") as fh:
            report = json.load(fh)
        # bytes written, less the wall_time_s value so that the count repeats
        result["report_bytes"] += os.path.getsize(out) - len(json.dumps(report["wall_time_s"]))
        result["digests"][entry.label] = report_digest(report)
        result["trials"] += len(report["trials"])
        result["failed"] += sum(trial_failed(r["status"], entry.exit_code)
                                for r in report["trials"])
        result["operator_balls"] += report["derived"].get("operator_balls", 0)
    shutil.rmtree(passdir)
    return result


def environment(workload, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cpu_count": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas['name']} {blas.get('version', '')}".strip(),
            "blas_threads": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            "jobs": workload.jobs, "seed": seed}


def main(argv) -> int:
    name, seed, seconds, min_passes, traced, jobs_check, workdir = argv
    workload = WORKLOADS[name]
    seed, seconds, min_passes = int(seed), float(seconds), int(min_passes)
    workdir = Path(workdir)
    clock = SetupClock()
    golden = json.loads((BENCH / "golden.json").read_text())
    warm = run_pass(seeded(workload, GOLDEN_SEED), workload.jobs, workdir, clock)
    out = {"env": environment(workload, seed), "golden_digests": warm["digests"],
           "golden_mismatches": sum(golden.get(label) != digest
                                    for label, digest in warm["digests"].items()),
           "errors": warm["errors"]}
    if jobs_check == "1":
        runs = seeded(workload, seed, honor_fixed=False)
        checks = [run_pass(runs, jobs, workdir, clock) for jobs in (1, workload.jobs)]
        out["jobs_check"] = [c["digests"] for c in checks]
        out["errors"] += [e for c in checks for e in c["errors"]]
    tracer = None
    if traced == "1":
        from tracer import Tracer, layer_metrics
        tracer = Tracer(workdir / "nonconverged.log")
        tracer.install()
        out["bindings"] = dict(tracer.bindings)
    passes = []
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        if tracer is not None:
            tracer.reset()
        p = run_pass(seeded(workload, seed), workload.jobs, workdir, clock)
        if tracer is not None:
            p["layers"] = layer_metrics(tracer.snapshot(), p["report_bytes"])
        passes.append(p)
    out["passes"] = passes
    if tracer is not None:
        out["errors"] += [f"tracer missed binding {b}" for b in tracer.unwrapped()]
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    out["peak_rss_mb"] = kb / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
