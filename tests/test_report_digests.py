"""Frozen report digests over a matrix of scenario configs.

Each digest is the SHA-256 of a report's sorted-key JSON without its
``wall_time_s`` field, the rule ``bench/worker.py`` uses. A change that
must leave reports byte-identical leaves every digest here unchanged; a
change that alters reports on purpose re-records them with

    PYTHONPATH=src python tests/test_report_digests.py

and names every changed digest and its reason.

The digests hold for the numpy build they were recorded on: numpy 2.4.6,
whose float64 ``power`` dispatched to its ``X86_V4`` (AVX-512) kernel. Other
kernels can round a power differently in the last ulp. With the AVX-512
kernels switched off (``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL
AVX512_SPR"``), ``power`` runs the baseline kernel and 6 of the 36 digests
differ: ``ckx_p3``, ``lemma_n{2,8,12}_p1.5``, ``linf_sum`` and
``lp_op_q3_p1.5``. A failure names the kernel the running process uses.
"""

import hashlib
import json

import numpy as np
import pytest

from bcplab.harness import ScenarioConfig, run_scenario

# label -> (scenario, params, seed)
CASES = {
    "topology_model": ("topology", {"kind": "convergent_model", "N": 5, "m": 2}, 1),
    "topology_cube": ("topology", {"kind": "discrete_cube", "m": 3}, 1),
    "topology_sierpinski": ("topology", {"kind": "sierpinski"}, 1),
    **{f"lemma_n{n}_p{p}": ("lemma_scaling", {"n": n, "p": p, "trials": 150}, 3)
       for n in (2, 8, 12) for p in (1, 1.5, 2, "inf")},
    "ck_discrete": ("ck_cover", {"nodes": 8, "lam": 1.2, "trials": 300}, 7),
    "ck_lipschitz": ("ck_cover", {"nodes": 16, "lam": 1.3, "trials": 200,
                                  "mode": "lipschitz", "slope": 6.0}, 5),
    # slope 1 leaves one sample without a basis member: an unmet trial and a
    # degenerate verdict
    "ck_lipschitz_unmet": ("ck_cover", {"nodes": 8, "lam": 1.3, "trials": 300,
                                        "mode": "lipschitz", "slope": 1.0}, 5),
    "ck_falsify": ("ck_falsify", {"nodes": 4, "zero_node": 2}, 3),
    "ck_falsify_default_zero": ("ck_falsify", {"nodes": 6, "lam": 1.4}, 3),
    "ckx_p2": ("ckx_cover", {"nodes": 4, "x_dim": 2, "r_star": 0.3, "trials": 100}, 2),
    "ckx_p3": ("ckx_cover", {"nodes": 3, "x_dim": 3, "x_p": 3, "r_star": 0.2,
                             "trials": 100}, 2),
    "ckx_pinf": ("ckx_cover", {"nodes": 3, "x_dim": 2, "x_p": "inf", "r_star": 0.3,
                               "trials": 100}, 2),
    "transfer_ckx": ("transfer_ckx", {"nodes": 4, "r_star": 0.3, "trials": 60,
                                      "m_max": 16}, 4),
    "rescale": ("rescale", {"nodes": 8, "trials": 200}, 6),
    "rescale_r0": ("rescale", {"nodes": 5, "lam": 1.5, "r_star": 0.0, "trials": 100}, 6),
    "lp_op_q2_p2": ("lp_operator", {"n": 2, "m": 2, "p": 2, "lam": 1.1, "trials": 20}, 11),
    "lp_op_q1_p2": ("lp_operator", {"n": 2, "m": 3, "q": 1, "p": 2, "trials": 20}, 11),
    "lp_op_q3_p1.5": ("lp_operator", {"n": 3, "m": 2, "q": 3, "p": 1.5, "trials": 10}, 11),
    "lp_op_qinf_p2": ("lp_operator", {"n": 2, "m": 2, "q": "inf", "p": 2,
                                      "trials": 20}, 11),
    "lp_op_delta": ("lp_operator", {"n": 2, "m": 2, "p": 2, "lam": 1.2, "delta": 0.01,
                                    "trials": 20}, 12),
    # too coarse a net: every trial reports NetTooCoarse as an error
    "lp_op_coarse": ("lp_operator", {"n": 2, "m": 2, "p": 2, "lam": 1.1, "delta": 0.2,
                                     "trials": 5}, 12),
    "hilbert": ("hilbert", {"dim": 3, "lam": 1.5, "delta": 0.05, "trials": 60}, 8),
    "transfer_op": ("transfer_op", {"lam": 1.99, "delta": 0.08, "trials": 100}, 13),
    "linf_sum": ("linf_sum", {"blocks": [[2, 1], [2, 1.5], [2, 2], [3, 3], [2, "inf"]],
                              "trials": 200, "identity_checks": 20}, 9),
    "complementation": ("complementation", {"N": 4, "m": 2}, 1),
}

# (label, jobs): runs whose report must equal the jobs=1 report of the label
PARALLEL = [("ck_discrete", 2)]


def report_digest(label: str, jobs: int = 1) -> str:
    scenario, params, seed = CASES[label]
    report = run_scenario(ScenarioConfig(scenario, params, seed), jobs=jobs).to_dict()
    report.pop("wall_time_s")
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


DIGESTS = {
    "ck_discrete": "3d0f16e775d27b900c01afc2de56970f30d11ff7d829987d7ea8953e8d3ea483",
    "ck_falsify": "c07f38f2275e425003b563a55edf13002a79d4ecec48d3416125a8e3ba8e5fec",
    "ck_falsify_default_zero": "7ab2b80ef00a634d5eba95ef2c7d08afa6c3735a0bb753e95afdbad827ce7ca6",
    "ck_lipschitz": "4d634421a70bdc9950acb804a96d88e7804442accb7a2147f4740e2f7577c299",
    "ck_lipschitz_unmet": "57ea67bb153a9717b0c2ec26a6e993ab7db5cb1565a2ddd75625c8fe202e48ac",
    "ckx_p2": "291fd0c40967bd0e41a049e7cc6af2f8ad09d6bf60bb03b64e48ae212d137dfa",
    "ckx_p3": "81c61e38447195a4289bb5154e0fd2bab27b1d73b2bde1bf211c992c7634b2f0",
    "ckx_pinf": "a099acd82fa05362a4abe33ecd97cb9fef2c0a6201361373807bdc4bfd564190",
    "complementation": "59448885f0090e0caa6a0a7e5664169fe0894e43d6e2510773e2a45b559843cf",
    "hilbert": "29537902a94dfb93dee72fbe1f0f7ca30f6548dbd9ccf475e972f65b26b38672",
    "lemma_n12_p1": "a8b5c276c18c709563ddfd73db96e1031005435d8eb740b18adcc60b6d557a56",
    "lemma_n12_p1.5": "698fcc247ef1c1914af931e033eb25a4375022b3f39734f8cce698f257b25fee",
    "lemma_n12_p2": "bfdff99807981944528d59e1023c3e4bb192db34237fe2c2d76f387ed97f20c0",
    "lemma_n12_pinf": "3ca7de557065336efcc2b04e8f07faacc85e691cbf68b356db682a894d8fda1d",
    "lemma_n2_p1": "ccfcafad3e3fb4c19eaae2e3b3cbf5597e6cde6e0a583eb544a4330b537c719a",
    "lemma_n2_p1.5": "d8da34b2d81e59492ad669ab1de32db7110cdad25768b76f90643a17f68ffb33",
    "lemma_n2_p2": "b48c92b913762ce6a7f77bc088a353eabdef5078cb032eaf146244ea41aa60d3",
    "lemma_n2_pinf": "600e4e6b0ce88a12cf95d0424c24f29a5fb937beef090a9c5b72bc8633f8c799",
    "lemma_n8_p1": "602f6e16cd0e2ff5acc43af38932ed577738e722c417e5bee8d0df761b44d99c",
    "lemma_n8_p1.5": "e931e1d202b857f0156009e96c6ed0b5f2b0cf6d088a1b4cb35b6457c715cf10",
    "lemma_n8_p2": "2227aafe6311f2c1ca42e2e3cb7fc66b91bd4c8408c3a4cd1150cafdc9baf937",
    "lemma_n8_pinf": "d6607cb6586da7cbf7e2fde3f38765be923d88dbf3445007fc44efa551be7af3",
    "linf_sum": "3e4b947989f75d579401fa96d8cae6f43ea0319707176265e3be0374126cd52c",
    "lp_op_coarse": "81d2a6e58ee2cc87f225a174d0cb7beb5765c9a25a8644ed385aafcd58c05396",
    "lp_op_delta": "dd9da0994fe374998a1316b0538d5846e0d7e34cdf1e23dbd0ad48005bd87c50",
    "lp_op_q1_p2": "f0ffbb24c5d715fbef7e6e733509e83644bf0068937a9757e85b5f71193b7bef",
    "lp_op_q2_p2": "e90ec1afc41950b401b5c6c7e8c207bd9cac9ed0d760eb01af86db56147b109a",
    "lp_op_q3_p1.5": "cd673adad25f65138bb0c6d1e0c394fe4cefdc219527d33e4c1a589502596ca6",
    "lp_op_qinf_p2": "aaafcb7539dc81ff1b26815f33bb0a0cf024807c751103a82e4cc05234bc30ba",
    "rescale": "582e22eb256bb93650db0ebefb899c280e0366f019d4218f177d1eb2e96b845f",
    "rescale_r0": "3662c2ce477bb37d881173ce630e6a4c5b9128d6d23ce88e658cbb9b26c23a93",
    "topology_cube": "09722b7f5f3d53aee692de7691ce3ac8e57cac5feee36a05301a7ecdf099c2ff",
    "topology_model": "213b45ca19f3938357f8eb65ff4d5bda12257020ed317cc16d8fab66528aa9c2",
    "topology_sierpinski": "bf7906d92189b9af0d53ebdfa64d1a16a3f371043ee009f84647491d95781c62",
    "transfer_ckx": "7b5778704e6707c8f1d64a26277e31c9860c890c41bf573bd41a98b5fd234e6f",
    "transfer_op": "6f1bbe4bb7a0d68aae8883b978a084903491f68a3b8c95c5b431c908033507ad",
}


def power_target() -> str:
    """The CPU target of numpy's float64 ``power`` in this process."""
    introspect = getattr(np.lib, "introspect", None)  # numpy >= 2.0
    if introspect is None:
        return "unknown"
    info = introspect.opt_func_info(func_name="^power$", signature="float64")
    return ", ".join(t["current"] for t in info.get("power", {}).values()) or "unknown"


@pytest.mark.parametrize("label", sorted(CASES))
def test_report_digest_frozen(label):
    assert report_digest(label) == DIGESTS[label], (
        f"digest of {label!r} changed; the digests were recorded with numpy 2.4.6 and "
        f"float64 power on X86_V4, and this process runs numpy {np.__version__} "
        f"with float64 power on {power_target()}")


@pytest.mark.parametrize("label,jobs", PARALLEL)
def test_parallel_report_digest_frozen(label, jobs):
    assert report_digest(label, jobs) == DIGESTS[label]


if __name__ == "__main__":
    for label in sorted(CASES):
        print(f'    "{label}": "{report_digest(label)}",')
