"""Coverings for grid models of continuous-function spaces.

Scalar bump coverings driven by a pi-basis, the converse falsifier that
hunts for an open set defeating every ball, the vector-valued covering and
its two transfers, and the composition-operator complementation demo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import topology
from .spaces import (
    BallCovering,
    LinfSumSpace,
    SupGridSpace,
    certify_point,
    linf_sum,
    make_covering,
    norm_of,
    norms_rows,
    NotCovered,
    sup_grid,
)

# the scalar transfer realizes open balls of radius m * |F_n| as closed
# balls shrunk by this fixed gap
SCALAR_TRANSFER_GAP = 1e-6


class ScalarTransferExhausted(Exception):
    """No multiple up to m_max certified the sample; reported, not guessed."""

    def __init__(self, m_max: int, min_excess: float):
        super().__init__(
            f"scalar transfer exhausted at m_max={m_max} (best miss {min_excess:.4g})")
        self.m_max = m_max
        self.min_excess = min_excess


@dataclass(frozen=True)
class CkCoverConfig:
    """lam in (1, 3/2]; basis members are tuples of node indices.

    Bumps are indicators in discrete mode and tents in lipschitz mode.
    """

    lam: float = 1.2
    basis: tuple | None = None  # None: singletons (discrete) / dyadic intervals


def singleton_basis(n: int) -> tuple:
    return tuple((i,) for i in range(n))


def dyadic_interval_basis(space: SupGridSpace) -> tuple:
    """All dyadic node intervals long enough for slope-bounded samples.

    Keeps every aligned block of at least n / (2 slope) nodes, so the
    superlevel set of a typical unit-norm sample of the lipschitz sampler
    contains a member.
    """
    if space.mode != "lipschitz":
        raise ValueError("dyadic intervals are for lipschitz mode")
    n = space.n
    members = []
    length = n
    while length >= max(1, int(math.ceil(n / (2.0 * space.slope)))):
        for start in range(0, n - length + 1, length):
            members.append(tuple(range(start, start + length)))
        length //= 2
    return tuple(members)


def bump_vector(space: SupGridSpace, member, height: float,
                shape: str) -> np.ndarray:
    """Nonnegative bump of sup-norm ``height`` supported inside the member."""
    v = np.zeros(space.n)
    idx = sorted(member)
    if shape == "indicator" or len(idx) < 3:
        v[list(idx)] = height
        return v
    if shape != "tent":
        raise ValueError(f"unknown bump shape {shape!r}")
    lo, hi = idx[0], idx[-1]
    mid = (lo + hi) // 2  # a genuine node, so the sup norm is exactly height
    half = max(mid - lo, hi - mid)
    for i in idx:
        v[i] = height * max(0.0, 1.0 - abs(i - mid) / half)
    return v


def build_ck_cover(space: SupGridSpace, cfg: CkCoverConfig) -> BallCovering:
    """Signed bump covering: one +/- pair of balls per basis member.

    Bumps have sup-norm lam and live inside their member; the common radius
    max(lam - 1/2, 1) comes straight from the two-sided distance estimate,
    so the origin gap is min(1/2, lam - 1), uniform over the covering.
    """
    if not 1.0 < cfg.lam <= 1.5:
        raise ValueError("lam must lie in (1, 3/2]")
    basis = cfg.basis
    if basis is None:
        if space.mode == "discrete":
            basis = singleton_basis(space.n)
        else:
            basis = dyadic_interval_basis(space)
    if not basis:
        raise ValueError("the pi-basis must be nonempty")
    shape = "indicator" if space.mode == "discrete" else "tent"
    radius = max(cfg.lam - 0.5, 1.0)
    balls = []
    for member in basis:
        f = bump_vector(space, member, cfg.lam, shape)
        balls.append((f, radius))
        balls.append((-f, radius))
    return make_covering(space, balls)


def superlevel_member(space: SupGridSpace, basis, g: np.ndarray):
    """First basis member inside {tau : |g(tau)| > 1/2}, or None.

    Samples without such a member do not meet the hypothesis the bump
    construction relies on and are counted separately, never as
    falsifications.
    """
    above = np.abs(np.asarray(g, dtype=float)) > 0.5
    for member in basis:
        if all(above[i] for i in member):
            return member
    return None


# ---------------------------------------------------------------------------
# converse falsifier


@dataclass(frozen=True, eq=False)
class WitnessSearchResult:
    falsified: bool
    relative_pibasis: bool       # every candidate open contains some level set
    witness_open: tuple | None   # node indices
    witness_bump: np.ndarray | None
    margins: tuple | None        # |f - g_n| - |g_n| per center, all >= 0
    undecided: tuple             # opens past k_max but without exact margins


def pibasis_witness_search(cov: BallCovering, candidate_opens,
                           k_max: int = 64) -> WitnessSearchResult:
    """Hunt for an open set whose unit bump defeats every covering ball.

    The near-peak sets A(n, k) = {tau : |g_n(tau)| > |g_n| - 1/k} of the
    centers would have to form a pi-basis relative to the candidate family;
    a candidate containing none of them yields an indicator bump f with
    |f - g_n| >= |g_n| for every n, an exact falsification certificate.
    """
    if not isinstance(cov.space, SupGridSpace):
        raise ValueError("witness search runs over grid-function coverings")
    centers = [np.asarray(b.center, dtype=float) for b in cov.balls]
    norms = [float(np.abs(c).max()) for c in centers]
    for k, nrm in enumerate(norms):
        if nrm <= 1.0:
            raise ValueError(f"center {k} has norm {nrm:.6g}; all must exceed 1")
    level_sets = []
    for c, nrm in zip(centers, norms):
        per_k = []
        for k in range(1, k_max + 1):
            per_k.append(frozenset(np.flatnonzero(np.abs(c) > nrm - 1.0 / k).tolist()))
        level_sets.append(per_k)
    undecided = []
    for cand in candidate_opens:
        u = frozenset(int(i) for i in cand)
        if not u:
            raise ValueError("candidate opens must be nonempty")
        if any(a <= u for per_k in level_sets for a in per_k):
            continue
        f = np.zeros(cov.space.n)
        f[sorted(u)] = 1.0
        margins = tuple(float(np.abs(f - c).max()) - nrm
                        for c, nrm in zip(centers, norms))
        if all(m >= 0.0 for m in margins):
            return WitnessSearchResult(True, False, tuple(sorted(u)), f,
                                       margins, tuple(undecided))
        undecided.append(tuple(sorted(u)))
    return WitnessSearchResult(False, not undecided, None, None, None,
                               tuple(undecided))


# ---------------------------------------------------------------------------
# vector-valued covering and transfers


def build_ckx_cover(space: SupGridSpace, x_cov: BallCovering) -> BallCovering:
    """Covering of the X-valued sphere by bump-times-center products.

    The X-valued grid model is the sup-sum of one X block per node. Needs
    every X ball to satisfy 1 < r_t < |x_t| (rescale_covering puts an
    arbitrary admissible covering into this position). Ball (n, t) has
    center f_n * x_t with the norm-one indicator f_n of node n and radius
    max((|x_t| + r_t) / 2, 1).
    """
    if space.mode != "discrete":
        raise ValueError("the vector-valued builder uses discrete grid models")
    x_space = x_cov.space
    x_dim = len(x_cov.balls[0].center)
    for t, b in enumerate(x_cov.balls):
        nrm = norm_of(x_space, b.center)
        if not 1.0 < b.radius < nrm:
            raise ValueError(
                f"X ball {t} violates 1 < r < |x| (r={b.radius:.6g}, |x|={nrm:.6g})")
    sum_space = linf_sum(tuple(x_space for _ in range(space.n)))
    balls = []
    for i in range(space.n):
        for b in x_cov.balls:
            nrm = norm_of(x_space, b.center)
            center = np.zeros(space.n * x_dim)
            center[i * x_dim:(i + 1) * x_dim] = b.center
            balls.append((center, max((nrm + b.radius) / 2.0, 1.0)))
    return make_covering(sum_space, balls)


@dataclass(frozen=True, eq=False)
class CkxTransferResult:
    x_covering: BallCovering
    scalar_covering: BallCovering
    scalar_labels: tuple  # (multiple m, source ball n, sign) per scalar ball
    m_max: int


def ckx_transfer(cov: BallCovering, m_max: int = 64) -> CkxTransferResult:
    """Coverings of the X sphere and the scalar sphere from a vector-valued one.

    X part: each center is evaluated at a node where it attains its norm,
    keeping the original radius. Scalar part: signed multiples of the
    node-norm functions |F_n(.)|, multiples 1..m_max, searched in ascending
    order during certification.
    """
    space = cov.space
    if not isinstance(space, LinfSumSpace) or len(set(space.blocks)) != 1:
        raise ValueError("transfer needs a covering over identical X blocks")
    x_space = space.blocks[0]
    x_dim = x_space.dim
    n_nodes = len(space.blocks)
    x_balls = []
    h_vectors = []
    for b in cov.balls:
        blocks = b.center.reshape(n_nodes, x_dim)
        h = norms_rows(x_space, blocks)
        tau = int(np.argmax(h))
        x_balls.append((blocks[tau].copy(), b.radius))
        h_vectors.append(h)
    x_covering = make_covering(x_space, x_balls)

    scalar_space = sup_grid(n_nodes)
    scalar_balls, labels = [], []
    for m in range(1, m_max + 1):
        for n, h in enumerate(h_vectors):
            sup_h = float(h.max())
            for sign in (1.0, -1.0):
                scalar_balls.append((sign * m * h, m * sup_h - SCALAR_TRANSFER_GAP))
                labels.append((m, n, int(sign)))
    scalar_covering = make_covering(scalar_space, scalar_balls)
    return CkxTransferResult(x_covering, scalar_covering, tuple(labels), m_max)


def scalar_transfer_certify(result: CkxTransferResult, f):
    """Certify a scalar sphere sample, reporting exhaustion explicitly."""
    try:
        return certify_point(result.scalar_covering, f)
    except NotCovered as exc:
        raise ScalarTransferExhausted(result.m_max, exc.min_excess) from exc


# ---------------------------------------------------------------------------
# continuous sampling on a finite topological space


def continuity_classes(space: topology.FiniteSpace) -> list:
    """Partition of the points forcing equal values for continuous functions.

    A real function on a finite space is continuous exactly when it is
    constant on every minimal neighborhood, so points are merged along
    neighborhood membership.
    """
    n = space.n
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for x in range(n):
        for y in range(n):
            if (space.nbhds[x] >> y) & 1:
                union(x, y)
    groups: dict[int, list] = {}
    for x in range(n):
        groups.setdefault(find(x), []).append(x)
    return sorted(groups.values())


def sample_continuous_sup(space: topology.FiniteSpace, seed: int) -> np.ndarray:
    """Unit sup-norm sample among the continuous functions on the space."""
    classes = continuity_classes(space)
    rng = np.random.default_rng(seed)
    while True:
        vals = rng.uniform(-1.0, 1.0, size=len(classes))
        if np.abs(vals).max() > 1e-12:
            break
    v = np.zeros(space.n)
    for val, cls in zip(vals, classes):
        v[cls] = val
    return v / np.abs(v).max()


# ---------------------------------------------------------------------------
# complementation via composition operators


@dataclass(frozen=True, eq=False)
class ComplementationRecord:
    lift: np.ndarray          # T_alpha: functions on L -> functions on K
    restriction: np.ndarray   # T_beta: functions on K -> functions on L
    projection: np.ndarray    # P = T_alpha T_beta, idempotent
    identity_ok: bool         # T_beta T_alpha equals the identity, exactly
    lift_norm: int
    restriction_norm: int
    idempotent_ok: bool


def complementation_pair(k_space: topology.FiniteSpace,
                         l_space: topology.FiniteSpace,
                         alpha: topology.PointMap,
                         beta: topology.PointMap) -> ComplementationRecord:
    """Composition operators realizing a norm-one projection, exactly.

    alpha: K -> L and beta: L -> K must be continuous with alpha after beta
    the identity on L; then lifting along alpha and restricting along beta
    are norm-one operators whose composite fixes every function on L, so
    the L-function space sits 1-complemented inside the K-function space.
    All checks run in integer arithmetic.
    """
    if alpha.source is not k_space or alpha.target is not l_space:
        raise ValueError("alpha must map the K space to the L space")
    if beta.source is not l_space or beta.target is not k_space:
        raise ValueError("beta must map the L space to the K space")
    for name, pm in (("alpha", alpha), ("beta", beta)):
        check = topology.is_continuous_map(pm)
        if not check.continuous:
            raise ValueError(
                f"{name} is not continuous (witness open {check.witness:#x})")
    composite = topology.compose(beta, alpha)
    if composite.assignment != tuple(range(l_space.n)):
        raise ValueError("alpha after beta must be the identity on L")
    n_k, n_l = k_space.n, l_space.n
    t_alpha = np.zeros((n_k, n_l), dtype=np.int64)
    for i in range(n_k):
        t_alpha[i, alpha(i)] = 1
    t_beta = np.zeros((n_l, n_k), dtype=np.int64)
    for j in range(n_l):
        t_beta[j, beta(j)] = 1
    identity_ok = bool(np.array_equal(t_beta @ t_alpha, np.eye(n_l, dtype=np.int64)))
    projection = t_alpha @ t_beta
    idempotent_ok = bool(np.array_equal(projection @ projection, projection))
    return ComplementationRecord(
        lift=t_alpha, restriction=t_beta, projection=projection,
        identity_ok=identity_ok,
        lift_norm=int(np.abs(t_alpha).sum(axis=1).max()),
        restriction_norm=int(np.abs(t_beta).sum(axis=1).max()),
        idempotent_ok=idempotent_ok)
