"""The benchmark's workloads: scenario configs, expected exit codes, seeds.

Every config runs through ``bcplab.cli.main``. An entry's ``label`` names a
config independently of the workload and the seed: entries that share a
label share their golden digest and their derived scenario seed, which is
how ``transfer_op_jobs2`` is checked against ``transfer_op``. Why each
workload exists is in BENCHMARK.json and NOTES.md.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

# workload seed at which the golden digests in golden.json were recorded
GOLDEN_SEED = 0


@dataclass(frozen=True)
class Entry:
    label: str
    scenario: str
    params: dict
    exit_code: int = 0  # cli.main's expected return: 0 pass/degenerate, 1 falsified
    # Run at the golden seed whatever the workload seed. transfer_op's trial
    # cost hangs on the separating direction its build draws: over 30 seeds
    # it ranged 0.93-3.2 ms per trial, far beyond any bound the timings
    # could keep, so its timed passes use one build (see NOTES.md).
    fixed_seed: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: int
    entries: tuple


_CKX = {"nodes": 16, "x_dim": 3, "x_p": 2, "r_star": 0.3}
_TRANSFER_OP = Entry("transfer_op", "transfer_op",
                     {"lam": 1.5, "delta": 0.05, "trials": 2000}, fixed_seed=True)

WORKLOADS = {w.name: w for w in (
    Workload("ck_batch", 1, (
        Entry("ck_cover", "ck_cover", {"nodes": 64, "lam": 1.2, "trials": 15000}),
        Entry("ckx_cover", "ckx_cover", dict(_CKX, trials=1500)),
        Entry("transfer_ckx", "transfer_ckx", dict(_CKX, trials=3000)),
        Entry("rescale", "rescale", {"nodes": 64, "trials": 3000}),
        Entry("lemma_scaling", "lemma_scaling", {"n": 8, "p": 1.5, "trials": 10000}),
        Entry("ck_falsify", "ck_falsify", {"nodes": 64}, exit_code=1),
        Entry("topology", "topology", {"kind": "convergent_model", "N": 12, "m": 2}),
        Entry("complementation", "complementation", {"N": 12, "m": 2}),
    )),
    Workload("op_batch", 1, (
        Entry("lp_operator", "lp_operator",
              {"n": 4, "m": 4, "p": 1.5, "lam": 1.1, "trials": 500}),
        Entry("lp_operator_q3", "lp_operator",
              {"n": 4, "m": 4, "q": 3, "p": 1.5, "lam": 1.1, "trials": 500}),
        Entry("hilbert", "hilbert", {"dim": 8, "trials": 2000}),
        Entry("linf_sum", "linf_sum",
              {"blocks": [[3, 1.5], [3, 3], [2, 1]], "trials": 3000,
               "identity_checks": 200}),
    )),
    Workload("transfer_op", 1, (_TRANSFER_OP,)),
    Workload("transfer_op_jobs2", 2, (_TRANSFER_OP,)),
)}


def scenario_seed(label: str, workload_seed: int) -> int:
    """Scenario seed derived from the config label and the workload seed."""
    digest = hashlib.sha256(f"{label}/{workload_seed}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def seeded(workload: Workload, workload_seed: int, honor_fixed: bool = True) -> list:
    """(entry, scenario seed) for every entry of the workload."""
    return [(e, scenario_seed(e.label, GOLDEN_SEED if honor_fixed and e.fixed_seed
                              else workload_seed))
            for e in workload.entries]
