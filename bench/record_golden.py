"""Record bench/golden.json: report digests of every workload config at the golden seed.

    python3 bench/record_golden.py

Run only at a commit whose reports are known good; a perf change must leave
these digests unchanged.
"""

from __future__ import annotations

import json

from run import BENCH, run_worker
from workloads import GOLDEN_SEED, WORKLOADS

if __name__ == "__main__":
    path = BENCH / "golden.json"
    if not path.exists():
        path.write_text("{}\n")
    golden = {}
    for name, workload in WORKLOADS.items():
        if workload.jobs == 1:
            golden.update(run_worker(name, GOLDEN_SEED, 0, 0, False, False)["golden_digests"])
    path.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"{len(golden)} digests written to {path}")
