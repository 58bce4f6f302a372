"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings. Every tolerance is pinned here, not configurable.
"""

import json
import math
import time

import numpy as np
import pytest

from bcplab import ck_cover as ck
from bcplab import op_cover as oc
from bcplab import spaces as sp
from bcplab import topology as tp
from bcplab.harness import ScenarioConfig, run_scenario
from bcplab.seeding import derive_seed


class _Timer:
    def __init__(self, budget_s):
        self.budget = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        return False


def _report(num, label, timer):
    print(f"[acceptance] criterion {num:>2} PASS  {label}  "
          f"({timer.elapsed:.2f}s of {timer.budget:.0f}s budget)")
    assert timer.elapsed < timer.budget


def test_criterion_01_pi_weight_exactness():
    with _Timer(1.0) as t:
        for m in range(1, 5):
            space = tp.discrete_cube(m)
            basis = tp.minimal_open_sets(space)
            assert len(basis.members) == 2 ** m
            assert tp.is_pibasis(space, basis).holds
        for N in range(1, 9):
            for m in range(1, 4):
                space = tp.convergent_model(N, m)
                basis = tp.minimal_open_sets(space)
                assert len(basis.members) == N
                assert set(basis.members) == {1 << i for i in range(N)}
                assert tp.is_pibasis(space, basis).holds
    _report(1, "pi-weight 2^m on cubes, N on convergent models", t)


def test_criterion_02_scaling_margin_inequality():
    total, per_p = 100_000, 25_000
    with _Timer(5.0) as t:
        checked = 0
        for pi, p in enumerate((1.0, 1.7, 2.0, math.inf)):
            rng = np.random.default_rng(derive_seed(2024, pi))
            for k in range(per_p):
                n = int(rng.integers(1, 5))
                space = sp.lp(n, p)
                x = rng.standard_normal(n)
                while not np.any(x):
                    x = rng.standard_normal(n)
                y = rng.standard_normal(n) * rng.uniform(0.0, 3.0)
                s = float(rng.uniform(0.05, 2.0))
                tt = s + float(rng.uniform(1e-6, 2.0))
                first, second = sp.scaling_margin(x, y, s, tt, space)
                assert first <= second + 1e-12
                checked += 1
        assert checked == total
    _report(2, f"{total} scaled-ball margin pairs, tolerance 1e-12", t)


def test_criterion_03_ck_cover_construction():
    with _Timer(10.0) as t:
        for nodes in (8, 64):
            space = sp.sup_grid(nodes)
            cov = ck.build_ck_cover(space, ck.CkCoverConfig(lam=1.2))
            assert cov.origin_gap == 1.2 - 1.0
            assert cov.origin_gap == pytest.approx(0.2, abs=1e-15)
            samples = np.stack([sp.sample_sphere(space, derive_seed(nodes, i))
                                for i in range(10_000)])
            certs = sp.certify_points(cov, samples)
            assert all(c is not None for c in certs)
            min_margin = min(c.margin for c in certs)
            assert min_margin >= 0.0
    _report(3, "2 x 10^4 sup-grid sphere samples certified, gap 0.2", t)


def test_criterion_04_ck_falsifier():
    with _Timer(1.0) as t:
        nodes, dead = 4, 3
        space = sp.sup_grid(nodes)
        balls = []
        for i in range(nodes):
            if i == dead:
                continue
            e = np.zeros(nodes)
            e[i] = 1.3
            balls.append((e, 1.1))
            balls.append((-e, 1.1))
        cov = sp.make_covering(space, balls)
        res = ck.pibasis_witness_search(cov, [(i,) for i in range(nodes)])
        assert res.falsified
        assert res.witness_open == (dead,)
        for ball in cov.balls:
            nrm = sp.norm_of(space, ball.center)
            assert sp.norm_of(space, res.witness_bump - ball.center) >= nrm
    _report(4, "rigged covering falsified by an exact witness bump", t)


def test_criterion_05_ckx_roundtrip():
    with _Timer(30.0) as t:
        k_space = sp.sup_grid(4)
        x_space = sp.lp(2, 2)
        x_cov = sp.rescale_covering(oc.axis_covering(x_space), 0.5)
        cov = ck.build_ckx_cover(k_space, x_cov)
        samples = np.stack([sp.sample_sphere(cov.space, derive_seed(5, i))
                            for i in range(1000)])
        certs = sp.certify_points(cov, samples)
        assert all(c is not None for c in certs)
        assert min(c.margin for c in certs) >= 0.0

        res = ck.ckx_transfer(cov, m_max=64)
        xs = np.stack([sp.sample_sphere(x_space, derive_seed(55, i))
                       for i in range(1000)])
        xcerts = sp.certify_points(res.x_covering, xs)
        assert all(c is not None for c in xcerts)
        fs = np.stack([sp.sample_sphere(k_space, derive_seed(555, i))
                       for i in range(1000)])
        scerts = sp.certify_points(res.scalar_covering, fs)
        assert all(c is not None for c in scerts)
        for c in scerts:
            m, n, sign = res.scalar_labels[c.ball_index]
            assert 1 <= m <= 64
    _report(5, "vector-valued covering and both transfers, 10^3 each", t)


def test_criterion_06_rescale_normalization():
    with _Timer(5.0) as t:
        space = sp.sup_grid(8)
        cov = ck.build_ck_cover(space, ck.CkCoverConfig(lam=1.2))
        rescaled = sp.rescale_covering(cov, cov.origin_gap)
        target = 2.0 + 2.0 * cov.radius_bound + 1.0
        for ball in rescaled.balls:
            assert abs(sp.norm_of(space, ball.center) - target) <= 1e-12
        samples = np.stack([sp.sample_sphere(space, derive_seed(6, i))
                            for i in range(1000)])
        certs = sp.certify_points(cov, samples)
        for v, cert in zip(samples, certs):
            assert cert is not None
            ball = rescaled.balls[cert.ball_index]
            assert sp.norm_of(space, v - ball.center) <= ball.radius + 1e-12
    _report(6, "rescaled centers at 2+2M+1, covered points re-certified", t)


def test_criterion_07_lp_operator_certification():
    with _Timer(300.0) as t:
        n = m = 4
        combos = [(p, lam) for p in (1.5, 2.0, 3.0) for lam in (1.05, 1.1)]
        for combo_index, (p, lam) in enumerate(combos):
            c = oc.lp_window_constant(lam, p)
            net = oc.DualBallNet(n, p, (1.0 - c) / (6.0 * m))
            rng = np.random.default_rng(derive_seed(7, combo_index))
            for _ in range(1000):
                A = rng.standard_normal((m, n))
                A /= oc.operator_norm(A, p, p)
                cert = oc.certify_lp_operator(oc.Operator(A, p, p), lam, net)
                assert cert.radius == lam * (1.0 + cert.c) / 2.0
                assert cert.distance <= cert.distance_bound - 1e-9
                assert cert.distance < cert.radius - 1e-9
                assert cert.radius < cert.center_norm - 1e-9
                assert cert.gap >= cert.gap_bound + 1e-9
        c = oc.lp_window_constant(1.1, 2.0)
        assert c == pytest.approx(0.890724, abs=1e-6)
        assert 1.1 * (1 + c) / 2 == pytest.approx(1.039898, abs=1e-6)
        assert 1.1 * (1 - c) / 6 == pytest.approx(0.020034, abs=1e-6)
    _report(7, "6 x 10^3 operators certified with uniform gaps", t)


def test_criterion_08_operator_norm_oracles():
    with _Timer(120.0) as t:
        for p in (1.5, 2.5):
            rng = np.random.default_rng(derive_seed(8, int(p * 10)))
            for _ in range(50):
                A = rng.standard_normal((3, 3))
                ascent = oc.operator_norm(A, p, p)
                brute = oc.operator_norm_bruteforce(A, p, p, step=0.01)
                assert abs(ascent - brute) <= 1e-3
        rng = np.random.default_rng(derive_seed(8, 2))
        for _ in range(1000):
            A = rng.standard_normal((4, 4))
            ascent, _ = oc._boyd_ascent(A, 2.0, 2.0)
            svd = float(np.linalg.svd(A, compute_uv=False)[0])
            assert abs(ascent - svd) <= 1e-8
    _report(8, "ascent vs dense net (1e-3) and vs SVD (1e-8)", t)


def test_criterion_09_hilbert_rank_one():
    with _Timer(60.0) as t:
        rng = np.random.default_rng(derive_seed(9, 0))
        for _ in range(1000):
            A = rng.standard_normal((4, 4))
            A /= np.linalg.svd(A, compute_uv=False)[0]
            cert = oc.hilbert_rank_one_certify(A, 1.5, delta=0.05)
            assert cert.distance <= 1.25
            assert cert.radius == (1 + 1.5) / 2
        degenerate = oc.hilbert_rank_one_certify(np.eye(4), 1.5, delta=0.05)
        assert degenerate.distance <= 1.25
    _report(9, "10^3 rank-one certificates at distance <= 1.25", t)


def test_criterion_10_operator_transfers():
    with _Timer(60.0) as t:
        cov = oc.hilbert_rank_one_covering(2, 1.5, 0.05)
        res = oc.operator_cover_transfer(cov)
        for derived in (res.y_covering, res.xstar_covering):
            centers = np.stack([b.center for b in derived.balls])
            radii = np.array([b.radius for b in derived.balls])
            norms = sp.norms_rows(derived.space, centers)
            assert np.all(radii < norms)  # admissibility, exact per ball
        ys = np.stack([sp.sample_sphere(res.y_covering.space, derive_seed(10, i))
                       for i in range(1000)])
        ycerts = sp.certify_points(res.y_covering, ys)
        assert all(c is not None for c in ycerts)
        fs = np.stack([sp.sample_sphere(res.xstar_covering.space,
                                        derive_seed(1010, i))
                       for i in range(1000)])
        fcerts = sp.certify_points(res.xstar_covering, fs)
        assert all(c is not None for c in fcerts)
    _report(10, "codomain and dual-domain transfers certify 10^3 each", t)


def test_criterion_11_linf_sum_and_identifications():
    with _Timer(60.0) as t:
        block = oc.axis_covering(sp.lp(2, 2))
        cov = oc.linf_sum_cover([block, block])
        samples = np.stack([sp.sample_sphere(cov.space, derive_seed(11, i))
                            for i in range(1000)])
        certs = sp.certify_points(cov, samples)
        assert all(c is not None for c in certs)
        assert min(c.margin for c in certs) >= 0.0
        rng = np.random.default_rng(derive_seed(11, 1))
        for _ in range(1000):
            A = rng.standard_normal((3, 3))
            s1, v1 = oc.columns_as_linf_sum(A)
            si, vi = oc.rows_as_linf_sum(A)
            assert sp.norm_of(s1, v1) == oc.operator_norm(A, 1, 1)
            assert sp.norm_of(si, vi) == oc.operator_norm(A, math.inf, math.inf)
    _report(11, "sum-sphere covering plus exact column/row identities", t)


def test_criterion_12_complementation():
    with _Timer(1.0) as t:
        model = tp.convergent_model(4, 2)
        cube = tp.discrete_cube(2)
        alpha = tp.first_coordinate_projection(model, cube)
        beta = tp.zero_level_embedding(cube, model)
        rec = ck.complementation_pair(model, cube, alpha, beta)
        assert rec.identity_ok
        assert rec.lift_norm == 1 and rec.restriction_norm == 1
        assert rec.idempotent_ok
    _report(12, "norm-one projection checks exact in integer arithmetic", t)


def test_criterion_13_reproducibility():
    with _Timer(60.0) as t:
        cases = [
            ScenarioConfig("ck_cover", {"nodes": 8, "lam": 1.2, "trials": 200}, 7),
            ScenarioConfig("lemma_scaling", {"n": 3, "p": 1.7, "trials": 200}, 3),
            ScenarioConfig("lp_operator",
                           {"n": 2, "m": 2, "p": 2.0, "lam": 1.1, "trials": 20}, 11),
            ScenarioConfig("transfer_ckx", {"trials": 50, "m_max": 64}, 19),
        ]
        for cfg in cases:
            a = run_scenario(cfg).to_dict()
            b = run_scenario(cfg).to_dict()
            a.pop("wall_time_s")
            b.pop("wall_time_s")
            assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    _report(13, "reports byte-identical modulo the wall-time field", t)
