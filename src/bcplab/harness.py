"""Scenario-driven batch runs with machine-readable, reproducible reports.

Trial ``i`` of a run derives its seed as ``splitmix64(seed + i)``; trials
are independent, may run in parallel, and the report is assembled in trial
order, so reruns with the same config and seed are byte-identical apart
from the wall-time field.
"""

from __future__ import annotations

import concurrent.futures
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import ck_cover, op_cover, spaces, topology
from .seeding import SEED_RULE, derive_seed
from .spaces import STRICT_SLACK


class ConfigError(ValueError):
    """Unknown scenario or out-of-range parameter (CLI exit code 2)."""


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str
    params: dict
    seed: int


@dataclass
class Report:
    scenario: str
    params: dict
    seed: int
    trials: list
    aggregates: dict
    derived: dict
    verdict: str
    wall_time_s: float

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "params": self.params,
            "seed": self.seed,
            "seed_derivation": SEED_RULE,
            "tolerance_policy": {"strict_slack": STRICT_SLACK, "arithmetic": 1e-12},
            "trials": self.trials,
            "aggregates": self.aggregates,
            "derived": self.derived,
            "verdict": self.verdict,
            "wall_time_s": self.wall_time_s,
        }


def _as_p(value) -> float:
    if value in ("inf", "Infinity") or value == math.inf:
        return math.inf
    p = float(value)
    if p < 1:
        raise ConfigError(f"exponent {value!r} must be at least 1")
    return p


def _p_json(p: float):
    return "inf" if p == math.inf else p


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _int(params, key, default, low=1, high=None):
    v = int(params.get(key, default))
    _require(v >= low, f"{key} must be at least {low}")
    if high is not None:
        _require(v <= high, f"{key} must be at most {high}")
    return v


# ---------------------------------------------------------------------------
# per-scenario validators, context builders and trial runners
#
# Context builders are pure functions of (params, seed) so parallel workers
# can rebuild them; they return (context, derived-info dict).


def _v_topology(params):
    kind = params.get("kind", "convergent_model")
    _require(kind in ("discrete_cube", "sierpinski", "convergent_model"),
             f"unknown topology kind {kind!r}")
    out = {"kind": kind, "trials": 1}
    if kind == "discrete_cube":
        out["m"] = _int(params, "m", 3, 1, 16)
    elif kind == "convergent_model":
        out["N"] = _int(params, "N", 5, 1)
        out["m"] = _int(params, "m", 2, 1)
    return out


def _b_topology(params, seed):
    kind = params["kind"]
    if kind == "discrete_cube":
        space = topology.discrete_cube(params["m"])
        expected = 2 ** params["m"]
    elif kind == "sierpinski":
        space = topology.sierpinski()
        expected = 1
    else:
        space = topology.convergent_model(params["N"], params["m"])
        expected = params["N"]
    return (space, expected), {"points": space.n, "expected_pi_weight": expected}


def _t_topology(ctx, index, trial_seed):
    space, expected = ctx
    basis = topology.minimal_open_sets(space)
    check = topology.is_pibasis(space, basis)
    ok = check.holds and len(basis.members) == expected
    return {"trial": index, "status": "ok" if ok else "falsified",
            "pi_weight": len(basis.members), "pibasis_holds": check.holds}


def _v_lemma(params):
    return {"n": _int(params, "n", 3, 1, 64),
            "p": _p_json(_as_p(params.get("p", 2.0))),
            "trials": _int(params, "trials", 1000, 1)}


def _b_lemma(params, seed):
    return spaces.lp(params["n"], _as_p(params["p"])), {}


def _t_lemma(space, index, trial_seed):
    rng = np.random.default_rng(trial_seed)
    x = rng.standard_normal(space.n)
    while not np.any(x):
        x = rng.standard_normal(space.n)
    y = rng.standard_normal(space.n) * rng.uniform(0.0, 3.0)
    s = float(rng.uniform(0.05, 2.0))
    t = s + float(rng.uniform(1e-6, 2.0))
    first, second = spaces.scaling_margin(x, y, s, t, space)
    ok = first <= second + 1e-12
    return {"trial": index, "status": "ok" if ok else "falsified",
            "inner_margin": float(first), "outer_margin": float(second)}


def _v_ck_cover(params):
    out = {"nodes": _int(params, "nodes", 8, 1),
           "lam": float(params.get("lam", 1.2)),
           "trials": _int(params, "trials", 1000, 1),
           "mode": params.get("mode", "discrete")}
    _require(1.0 < out["lam"] <= 1.5, "lam must lie in (1, 3/2]")
    _require(out["mode"] in ("discrete", "lipschitz"), "mode must be discrete or lipschitz")
    if out["mode"] == "lipschitz":
        out["slope"] = float(params.get("slope", 4.0))
        _require(out["slope"] > 0, "slope must be positive")
    return out


def _b_ck_cover(params, seed):
    space = spaces.sup_grid(params["nodes"], params["mode"], params.get("slope"))
    cfg = ck_cover.CkCoverConfig(lam=params["lam"])
    cov = ck_cover.build_ck_cover(space, cfg)
    basis = (ck_cover.singleton_basis(space.n) if params["mode"] == "discrete"
             else ck_cover.dyadic_interval_basis(space))
    cls = spaces.classify_covering(cov)
    return (space, cov, basis), {
        "balls": len(cov.balls), "radius_bound": cls.radius_bound,
        "origin_gap": cls.origin_gap, "classification": cls.label}


def _t_ck_cover(ctx, index, trial_seed):
    space, cov, basis = ctx
    g = spaces.sample_sphere(space, trial_seed)
    if space.mode == "lipschitz" and ck_cover.superlevel_member(space, basis, g) is None:
        return {"trial": index, "status": "unmet"}
    try:
        cert = spaces.certify_point(cov, g)
    except spaces.NotCovered as exc:
        return {"trial": index, "status": "falsified",
                "min_excess": float(exc.min_excess)}
    radius = cov.balls[cert.ball_index].radius
    return {"trial": index, "status": "ok", "ball_index": cert.ball_index,
            "distance": float(cert.distance), "radius": float(radius),
            "margin": float(cert.margin), "slack": float(cert.margin)}


def _v_ck_falsify(params):
    out = {"nodes": _int(params, "nodes", 4, 2),
           "zero_node": int(params.get("zero_node", params.get("nodes", 4) - 1)),
           "lam": float(params.get("lam", 1.3)),
           "k_max": _int(params, "k_max", 64, 1),
           "trials": 1}
    _require(0 <= out["zero_node"] < out["nodes"], "zero_node out of range")
    _require(out["lam"] > 1.0, "lam must exceed 1")
    return out


def _b_ck_falsify(params, seed):
    n, lam = params["nodes"], params["lam"]
    space = spaces.sup_grid(n)
    balls = []
    for i in range(n):
        if i == params["zero_node"]:
            continue
        e = np.zeros(n)
        e[i] = lam
        balls.append((e, lam - 0.2))
        balls.append((-e, lam - 0.2))
    cov = spaces.make_covering(space, balls)
    candidates = [(i,) for i in range(n)]
    return (cov, candidates, params["k_max"]), {"balls": len(balls)}


def _t_ck_falsify(ctx, index, trial_seed):
    cov, candidates, k_max = ctx
    res = ck_cover.pibasis_witness_search(cov, candidates, k_max)
    if res.falsified:
        return {"trial": index, "status": "falsified",
                "witness_open": list(res.witness_open),
                "witness_bump": [float(v) for v in res.witness_bump],
                "margins": [float(m) for m in res.margins]}
    return {"trial": index, "status": "ok",
            "relative_pibasis": res.relative_pibasis}


def _v_ckx(params):
    out = {"nodes": _int(params, "nodes", 4, 1),
           "x_dim": _int(params, "x_dim", 2, 1),
           "x_p": _p_json(_as_p(params.get("x_p", 2.0))),
           "r_star": float(params.get("r_star", 0.5)),
           "trials": _int(params, "trials", 200, 1)}
    _require(out["r_star"] >= 0, "r_star must be nonnegative")
    return out


def _build_ckx_parts(params):
    x_space = spaces.lp(params["x_dim"], _as_p(params["x_p"]))
    base = op_cover.axis_covering(x_space, 2.0)
    rescaled = spaces.rescale_covering(base, params["r_star"])
    k_space = spaces.sup_grid(params["nodes"])
    cov = ck_cover.build_ckx_cover(k_space, rescaled)
    return x_space, rescaled, k_space, cov


def _b_ckx(params, seed):
    x_space, rescaled, k_space, cov = _build_ckx_parts(params)
    cls = spaces.classify_covering(cov)
    return (cov,), {"balls": len(cov.balls), "radius_bound": cls.radius_bound,
                    "origin_gap": cls.origin_gap}


def _t_ckx(ctx, index, trial_seed):
    (cov,) = ctx
    g = spaces.sample_sphere(cov.space, trial_seed)
    try:
        cert = spaces.certify_point(cov, g)
    except spaces.NotCovered as exc:
        return {"trial": index, "status": "falsified",
                "min_excess": float(exc.min_excess)}
    radius = cov.balls[cert.ball_index].radius
    return {"trial": index, "status": "ok", "ball_index": cert.ball_index,
            "distance": float(cert.distance), "radius": float(radius),
            "margin": float(cert.margin), "slack": float(cert.margin)}


def _v_transfer_ckx(params):
    out = _v_ckx(params)
    out["m_max"] = _int(params, "m_max", 64, 1)
    return out


def _b_transfer_ckx(params, seed):
    x_space, rescaled, k_space, cov = _build_ckx_parts(params)
    transfer = ck_cover.ckx_transfer(cov, params["m_max"])
    return (x_space, k_space, transfer), {
        "x_balls": len(transfer.x_covering.balls),
        "scalar_balls": len(transfer.scalar_covering.balls),
        "x_origin_gap": transfer.x_covering.origin_gap}


def _t_transfer_ckx(ctx, index, trial_seed):
    x_space, k_space, transfer = ctx
    x = spaces.sample_sphere(x_space, derive_seed(trial_seed, 1))
    f = spaces.sample_sphere(spaces.sup_grid(k_space.n), derive_seed(trial_seed, 2))
    rec = {"trial": index}
    try:
        cx = spaces.certify_point(transfer.x_covering, x)
    except spaces.NotCovered as exc:
        rec.update(status="falsified", min_excess=float(exc.min_excess))
        return rec
    try:
        cs = ck_cover.scalar_transfer_certify(transfer, f)
    except ck_cover.ScalarTransferExhausted as exc:
        rec.update(status="exhausted", min_excess=float(exc.min_excess))
        return rec
    m, n, sign = transfer.scalar_labels[cs.ball_index]
    rec.update(status="ok",
               ball_index=cx.ball_index, distance=float(cx.distance),
               radius=float(transfer.x_covering.balls[cx.ball_index].radius),
               margin=float(cx.margin),
               scalar_multiple=m, scalar_ball=n, scalar_sign=sign,
               scalar_margin=float(cs.margin),
               slack=float(min(cx.margin, cs.margin)))
    return rec


def _v_rescale(params):
    out = {"nodes": _int(params, "nodes", 8, 1),
           "lam": float(params.get("lam", 1.2)),
           "r_star": float(params.get("r_star", 0.2)),
           "trials": _int(params, "trials", 200, 1)}
    _require(1.0 < out["lam"] <= 1.5, "lam must lie in (1, 3/2]")
    _require(out["r_star"] >= 0, "r_star must be nonnegative")
    return out


def _b_rescale(params, seed):
    space = spaces.sup_grid(params["nodes"])
    cov = ck_cover.build_ck_cover(space, ck_cover.CkCoverConfig(lam=params["lam"]))
    rescaled = spaces.rescale_covering(cov, params["r_star"])
    target = 2.0 * cov.radius_bound + 3.0
    return (space, cov, rescaled), {
        "target_norm": target, "rescaled_gap": rescaled.origin_gap,
        "rescaled_radius": rescaled.balls[0].radius}


def _t_rescale(ctx, index, trial_seed):
    space, cov, rescaled = ctx
    g = spaces.sample_sphere(space, trial_seed)
    try:
        cert = spaces.certify_point(cov, g)
    except spaces.NotCovered as exc:
        return {"trial": index, "status": "falsified",
                "min_excess": float(exc.min_excess)}
    ball = rescaled.balls[cert.ball_index]
    d = spaces.norm_of(space, g - ball.center)
    ok = d <= ball.radius
    return {"trial": index, "status": "ok" if ok else "falsified",
            "ball_index": cert.ball_index, "distance": float(d),
            "radius": float(ball.radius), "margin": float(ball.radius - d),
            "slack": float(ball.radius - d)}


def _v_lp_operator(params):
    out = {"n": _int(params, "n", 2, 1, 8),
           "m": _int(params, "m", 2, 1, 8),
           "p": _p_json(_as_p(params.get("p", 2.0))),
           "lam": float(params.get("lam", 1.1)),
           "trials": _int(params, "trials", 100, 1)}
    out["q"] = _p_json(_as_p(params.get("q", out["p"])))
    _require(out["lam"] > 1.0, "lam must exceed 1")
    p = _as_p(out["p"])
    _require(1.0 < p < math.inf, "p must lie in (1, inf)")
    if "delta" in params:
        out["delta"] = float(params["delta"])
        _require(out["delta"] > 0, "delta must be positive")
    return out


def _b_lp_operator(params, seed):
    p, q = _as_p(params["p"]), _as_p(params["q"])
    c = op_cover.lp_window_constant(params["lam"], p)
    delta = params.get("delta", (1.0 - c) / (6.0 * params["m"]))
    net = op_cover.DualBallNet(params["n"], q, delta)
    return (net, params), {"delta": delta, "window_constant": c,
                           "window": list(op_cover.lp_window(params["lam"], p)),
                           "radius": params["lam"] * (1 + c) / 2,
                           "gap_bound": params["lam"] * (1 - c) / 6}


def _t_lp_operator(ctx, index, trial_seed):
    net, params = ctx
    p, q, lam = _as_p(params["p"]), _as_p(params["q"]), params["lam"]
    rng = np.random.default_rng(trial_seed)
    A = rng.standard_normal((params["m"], params["n"]))
    A /= op_cover.operator_norm(A, q, p)
    try:
        cert = op_cover.certify_lp_operator(op_cover.Operator(A, q, p), lam, net)
    except (op_cover.NetTooCoarse, op_cover.WindowMiss) as exc:
        return {"trial": index, "status": "error", "error": str(exc)}
    slack = min(cert.distance_bound - cert.distance,
                cert.radius - cert.distance,
                cert.center_norm - cert.radius,
                cert.gap - cert.gap_bound)
    status = "ok" if slack > 0 else "falsified"
    return {"trial": index, "status": status, "t0": cert.t0,
            "theta": float(cert.theta), "distance": float(cert.distance),
            "radius": float(cert.radius), "margin": float(cert.radius - cert.distance),
            "center_norm": float(cert.center_norm), "gap": float(cert.gap),
            "slack": float(slack)}


def _v_hilbert(params):
    out = {"dim": _int(params, "dim", 4, 1, 16),
           "lam": float(params.get("lam", 1.5)),
           "delta": float(params.get("delta", 0.05)),
           "trials": _int(params, "trials", 100, 1)}
    _require(1.0 < out["lam"] < 2.0, "lam must lie in (1, 2)")
    _require(out["delta"] > 0, "delta must be positive")
    return out


def _b_hilbert(params, seed):
    return params, {"radius": (1 + params["lam"]) / 2,
                    "gap": (params["lam"] - 1) / 2}


def _t_hilbert(params, index, trial_seed):
    rng = np.random.default_rng(trial_seed)
    A = rng.standard_normal((params["dim"], params["dim"]))
    A /= np.linalg.svd(A, compute_uv=False)[0]
    cert = op_cover.hilbert_rank_one_certify(A, params["lam"], delta=params["delta"])
    ok = cert.distance <= cert.radius and cert.distance <= cert.distance_bound
    return {"trial": index, "status": "ok" if ok else "falsified",
            "distance": float(cert.distance), "radius": float(cert.radius),
            "margin": float(cert.radius - cert.distance),
            "slack": float(cert.radius - cert.distance)}


def _v_transfer_op(params):
    out = {"dim": 2,
           "lam": float(params.get("lam", 1.5)),
           "delta": float(params.get("delta", 0.05)),
           "trials": _int(params, "trials", 200, 1)}
    _require(1.0 < out["lam"] < 2.0, "lam must lie in (1, 2)")
    bound = (out["lam"] - 1.0) / (4.0 * out["lam"] + 4.0)
    _require(0 < out["delta"] <= bound,
             f"delta must lie in (0, {bound:.6g}] for this lam")
    return out


def _b_transfer_op(params, seed):
    cov = op_cover.hilbert_rank_one_covering(params["dim"], params["lam"],
                                             params["delta"])
    transfer = op_cover.operator_cover_transfer(cov, seed=derive_seed(seed, 999))
    return (cov, transfer), {
        "operator_balls": len(cov.balls),
        "separation": transfer.separation,
        "dual_separation": transfer.dual_separation,
        "y_origin_gap": transfer.y_covering.origin_gap,
        "xstar_origin_gap": transfer.xstar_covering.origin_gap}


def _t_transfer_op(ctx, index, trial_seed):
    cov, transfer = ctx
    dim = transfer.y_covering.space.n
    y = spaces.sample_sphere(transfer.y_covering.space, derive_seed(trial_seed, 1))
    f = spaces.sample_sphere(transfer.xstar_covering.space, derive_seed(trial_seed, 2))
    rec = {"trial": index}
    try:
        cy = spaces.certify_point(transfer.y_covering, y)
        cf = spaces.certify_point(transfer.xstar_covering, f)
    except spaces.NotCovered as exc:
        rec.update(status="falsified", min_excess=float(exc.min_excess))
        return rec
    rec.update(status="ok", ball_index=cy.ball_index,
               distance=float(cy.distance),
               radius=float(transfer.y_covering.balls[cy.ball_index].radius),
               margin=float(cy.margin), dual_margin=float(cf.margin),
               slack=float(min(cy.margin, cf.margin)))
    return rec


def _v_linf_sum(params):
    blocks = params.get("blocks", [[2, 2.0], [2, 2.0]])
    _require(isinstance(blocks, (list, tuple)) and blocks, "blocks must be a nonempty list")
    norm_blocks = []
    for b in blocks:
        _require(len(b) == 2, "each block is [dimension, exponent]")
        norm_blocks.append([int(b[0]), _p_json(_as_p(b[1]))])
    return {"blocks": norm_blocks,
            "trials": _int(params, "trials", 200, 1),
            "identity_checks": _int(params, "identity_checks", 100, 0)}


def _b_linf_sum(params, seed):
    covs = []
    for n, p in params["blocks"]:
        space = spaces.lp(n, _as_p(p))
        try:
            covs.append(op_cover.axis_covering(space, 2.0))
        except ValueError:
            covs.append(op_cover.planar_net_covering(space))
    cov = op_cover.linf_sum_cover(covs)
    rng = np.random.default_rng(derive_seed(seed, 777))
    exact = 0
    checks = params["identity_checks"]
    for _ in range(checks):
        A = rng.standard_normal((3, 3))
        s1, v1 = op_cover.columns_as_linf_sum(A)
        sinf, vinf = op_cover.rows_as_linf_sum(A)
        if (spaces.norm_of(s1, v1) == op_cover.operator_norm(A, 1.0, 1.0)
                and spaces.norm_of(sinf, vinf) == op_cover.operator_norm(A, math.inf, math.inf)):
            exact += 1
    return (cov,), {"balls": len(cov.balls), "origin_gap": cov.origin_gap,
                    "identity_checks": checks, "identity_exact": exact}


def _t_linf_sum(ctx, index, trial_seed):
    (cov,) = ctx
    v = spaces.sample_sphere(cov.space, trial_seed)
    try:
        cert = spaces.certify_point(cov, v)
    except spaces.NotCovered as exc:
        return {"trial": index, "status": "falsified",
                "min_excess": float(exc.min_excess)}
    return {"trial": index, "status": "ok", "ball_index": cert.ball_index,
            "distance": float(cert.distance),
            "radius": float(cov.balls[cert.ball_index].radius),
            "margin": float(cert.margin), "slack": float(cert.margin)}


def _v_complementation(params):
    return {"N": _int(params, "N", 4, 1), "m": _int(params, "m", 2, 1), "trials": 1}


def _b_complementation(params, seed):
    model = topology.convergent_model(params["N"], params["m"])
    cube = topology.discrete_cube(params["m"])
    alpha = topology.first_coordinate_projection(model, cube)
    beta = topology.zero_level_embedding(cube, model)
    return (model, cube, alpha, beta), {"k_points": model.n, "l_points": cube.n}


def _t_complementation(ctx, index, trial_seed):
    model, cube, alpha, beta = ctx
    try:
        rec = ck_cover.complementation_pair(model, cube, alpha, beta)
    except ValueError as exc:
        return {"trial": index, "status": "error", "error": str(exc)}
    ok = (rec.identity_ok and rec.idempotent_ok
          and rec.lift_norm == 1 and rec.restriction_norm == 1)
    return {"trial": index, "status": "ok" if ok else "falsified",
            "identity_ok": rec.identity_ok, "idempotent_ok": rec.idempotent_ok,
            "lift_norm": rec.lift_norm, "restriction_norm": rec.restriction_norm}


@dataclass(frozen=True)
class _Scenario:
    validate: callable
    build: callable
    trial: callable


SCENARIOS = {
    "topology": _Scenario(_v_topology, _b_topology, _t_topology),
    "lemma_scaling": _Scenario(_v_lemma, _b_lemma, _t_lemma),
    "ck_cover": _Scenario(_v_ck_cover, _b_ck_cover, _t_ck_cover),
    "ck_falsify": _Scenario(_v_ck_falsify, _b_ck_falsify, _t_ck_falsify),
    "ckx_cover": _Scenario(_v_ckx, _b_ckx, _t_ckx),
    "transfer_ckx": _Scenario(_v_transfer_ckx, _b_transfer_ckx, _t_transfer_ckx),
    "rescale": _Scenario(_v_rescale, _b_rescale, _t_rescale),
    "lp_operator": _Scenario(_v_lp_operator, _b_lp_operator, _t_lp_operator),
    "hilbert": _Scenario(_v_hilbert, _b_hilbert, _t_hilbert),
    "transfer_op": _Scenario(_v_transfer_op, _b_transfer_op, _t_transfer_op),
    "linf_sum": _Scenario(_v_linf_sum, _b_linf_sum, _t_linf_sum),
    "complementation": _Scenario(_v_complementation, _b_complementation,
                                 _t_complementation),
}


def _run_slice(scenario: str, params: dict, seed: int, lo: int, hi: int) -> list:
    sc = SCENARIOS[scenario]
    ctx, _ = sc.build(params, seed)
    return [sc.trial(ctx, i, derive_seed(seed, i)) for i in range(lo, hi)]


def run_scenario(cfg: ScenarioConfig, jobs: int = 1) -> Report:
    """Run one scenario; deterministic for a given config and seed."""
    if cfg.scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {cfg.scenario!r}")
    sc = SCENARIOS[cfg.scenario]
    try:
        params = sc.validate(dict(cfg.params or {}))
        t0 = time.perf_counter()
        ctx, derived = sc.build(params, cfg.seed)
    except ValueError as exc:  # a malformed value or one the build rejects
        raise ConfigError(str(exc)) from exc
    n_trials = params.get("trials", 1)
    if jobs > 1 and n_trials > 1:
        bounds = np.linspace(0, n_trials, min(jobs, n_trials) + 1).astype(int)
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            chunks = pool.map(_run_slice,
                              *zip(*[(cfg.scenario, params, cfg.seed, lo, hi)
                                     for lo, hi in zip(bounds[:-1], bounds[1:])]))
        records = [r for chunk in chunks for r in chunk]
    else:
        records = [sc.trial(ctx, i, derive_seed(cfg.seed, i))
                   for i in range(n_trials)]
    records.sort(key=lambda r: r["trial"])
    aggregates, verdict = _aggregate(records)
    gaps = [v for k, v in derived.items()
            if "gap" in k and isinstance(v, (int, float))]
    aggregates["min_gap"] = min(gaps) if gaps else None
    return Report(cfg.scenario, params, cfg.seed, records, aggregates,
                  derived, verdict, time.perf_counter() - t0)


def _aggregate(records: list) -> tuple:
    statuses = [r["status"] for r in records]
    successes = statuses.count("ok")
    unmet = statuses.count("unmet")
    falsified = statuses.count("falsified")
    errors = len(records) - successes - unmet - falsified
    slacks = [r["slack"] for r in records if r.get("slack") is not None]
    margins = [r["margin"] for r in records if r.get("margin") is not None]
    aggregates = {
        "trials": len(records),
        "successes": successes,
        "hypothesis_unmet": unmet,
        "falsified": falsified,
        "errors": errors,
        "min_margin": min(margins) if margins else None,
        "min_slack": min(slacks) if slacks else None,
    }
    if errors:
        verdict = "error"
    elif falsified:
        verdict = "falsified"
    elif slacks and min(slacks) <= STRICT_SLACK:
        verdict = "degenerate"
    else:
        verdict = "pass"
    return aggregates, verdict


EXIT_CODES = {"pass": 0, "degenerate": 0, "falsified": 1, "error": 1}


def report_to_csv(report: Report) -> str:
    """Flatten per-trial certificates to trial, ball_index, distance, radius, margin."""
    lines = ["trial,ball_index,distance,radius,margin"]
    for r in report.trials:
        lines.append("{},{},{},{},{}".format(
            r.get("trial", ""),
            r.get("ball_index", ""),
            r.get("distance", ""),
            r.get("radius", ""),
            r.get("margin", "")))
    return "\n".join(lines) + "\n"
