"""Coverings of operator-space unit spheres.

Induced p-norm oracles, the finite-rank candidate window and its
constructive certifier, the Hilbert rank-one certifier, covering transfers
to the codomain and the dual domain, and the sup-sum builder with the
column/row norm identifications.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .seeding import derive_seed
from .spaces import (
    STRICT_SLACK,
    BallCovering,
    LpSpace,
    OperatorSpace,
    linf_sum,
    lp,
    lp_norm,
    make_covering,
    norm_of,
    operator_space,
)


class NonConvergenceWarning(RuntimeWarning):
    """Ascent hit the iteration cap; the best value found is returned."""


class NetTooCoarse(Exception):
    def __init__(self, required: float, measured: float, what: str = "net point"):
        super().__init__(
            f"no {what} within {required:.6g} (nearest at {measured:.6g})")
        self.required = required
        self.measured = measured


class WindowMiss(Exception):
    def __init__(self, measured: float, window: tuple):
        super().__init__(
            f"candidate norm {measured:.9g} outside window {window}")
        self.measured = measured
        self.window = window


class NormingFailure(Exception):
    """A ball radius reaches its center norm; the covering is inadmissible."""


class SeparationFailure(Exception):
    def __init__(self, best: float, threshold: float):
        super().__init__(
            f"no functional reached min separation {threshold:.3g}; best {best:.3g}")
        self.best = best
        self.threshold = threshold


@dataclass(frozen=True, eq=False)
class Operator:
    """m x n matrix acting from an n-dim lp(q) space into an m-dim lp(p) space."""

    matrix: np.ndarray
    q: float
    p: float


def dual_exponent(p: float) -> float:
    if p == 1.0:
        return math.inf
    if p == math.inf:
        return 1.0
    return p / (p - 1.0)


# ---------------------------------------------------------------------------
# induced operator norms


def operator_norm(T, q: float | None = None, p: float | None = None) -> float:
    """sup of |Ax|_p over the lp(q) unit ball.

    Exact at the closed-form corners (q = 1 column formula, p = inf dual-row
    formula, q = p = 2 top singular value, q = inf sign enumeration for
    small n). The remaining interior pairs run a fixed-point ascent on the
    norming vector with deterministic restarts; it is a lower bound that is
    sharp in practice and is cross-checked against a dense sphere net in
    the test suite.
    """
    return operator_norm_with_vector(T, q, p)[0]


def operator_norm_with_vector(T, q: float | None = None,
                              p: float | None = None) -> tuple:
    """(norm, norming vector): x with |x|_q = 1 attaining the value found."""
    if isinstance(T, Operator):
        A, q, p = T.matrix, T.q, T.p
    else:
        A = T
        if q is None or p is None:
            raise ValueError("matrix input needs explicit q and p exponents")
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError("operator matrix must be 2-D")
    m, n = A.shape
    if not np.all(np.isfinite(A)):
        raise ValueError("operator entries must be finite")
    if q == 1.0:
        vals = [lp_norm(A[:, j], p) for j in range(n)]
        j = int(np.argmax(vals))
        x = np.zeros(n)
        x[j] = 1.0
        return float(vals[j]), x
    if p == math.inf:
        qd = dual_exponent(q)
        vals = [lp_norm(A[i], qd) for i in range(m)]
        i = int(np.argmax(vals))
        return float(vals[i]), _holder_norming(A[i], q)
    if q == 2.0 and p == 2.0:
        u, s, vt = np.linalg.svd(A)
        return float(s[0]), vt[0].copy()
    if q == math.inf:
        if n > 16:
            raise NotImplementedError(
                "q = inf with p < inf uses sign enumeration, capped at n = 16")
        best, best_x = -1.0, None
        for bits in range(1 << (n - 1)):  # x and -x give the same value
            x = np.array([1.0] + [1.0 if (bits >> k) & 1 else -1.0
                                  for k in range(n - 1)])
            v = lp_norm(A @ x, p)
            if v > best:
                best, best_x = v, x
        return float(best), best_x
    if not (1.0 < q < math.inf and 1.0 < p < math.inf):
        raise NotImplementedError(f"unsupported exponent pair ({q}, {p})")
    return _boyd_ascent(A, q, p)


def _holder_norming(row: np.ndarray, q: float) -> np.ndarray:
    """Unit lp(q) vector x maximizing row . x (Holder equality case)."""
    if q == math.inf:
        s = np.sign(row)
        s[s == 0] = 1.0
        return s
    if q == 1.0:
        x = np.zeros(len(row))
        x[int(np.argmax(np.abs(row)))] = np.sign(row[int(np.argmax(np.abs(row)))]) or 1.0
        return x
    qd = dual_exponent(q)
    x = np.sign(row) * np.abs(row) ** (qd - 1.0)
    nrm = lp_norm(x, q)
    if nrm == 0.0:
        x = np.zeros(len(row))
        x[0] = 1.0
        return x
    return x / nrm


# Boyd ascent: starting points, iteration cap, stopping tolerance on the
# value change, and the seed of the Gaussian starts
_RESTARTS = 32
_MAX_ITERS = 500
_TOL = 1e-12
_ASCENT_SEED = 0x9E3779B9


def _boyd_ascent(A: np.ndarray, q: float, p: float) -> tuple:
    """Fixed-point ascent on the norming vector, batched over restarts.

    Each step maps x to the dual-scaled gradient direction of |Ax|_p on the
    lp(q) sphere; values are nondecreasing along the iteration. Restarts:
    the canonical basis, the flat vector, then seeded Gaussian draws.
    """
    m, n = A.shape
    cols = [np.eye(n)[:, j] for j in range(min(n, _RESTARTS))]
    if len(cols) < _RESTARTS:
        cols.append(np.ones(n))
    rng = np.random.default_rng(_ASCENT_SEED)
    while len(cols) < _RESTARTS:
        cols.append(rng.standard_normal(n))
    X = np.stack(cols[:_RESTARTS], axis=1)
    X = X / _col_lp_norms(X, q)
    qd_pow = 1.0 / (q - 1.0)
    prev = np.full(X.shape[1], -1.0)
    best_val, best_x = 0.0, X[:, 0].copy()
    converged = np.zeros(X.shape[1], dtype=bool)
    for _ in range(_MAX_ITERS):
        Y = A @ X
        vals = _col_lp_norms(Y, p).ravel()
        k = int(np.argmax(vals))
        if vals[k] > best_val:
            best_val, best_x = float(vals[k]), X[:, k].copy()
        converged |= np.abs(vals - prev) < _TOL
        if converged.all():
            break
        prev = vals
        Z = A.T @ (np.sign(Y) * np.abs(Y) ** (p - 1.0))
        W = np.sign(Z) * np.abs(Z) ** qd_pow
        nrms = _col_lp_norms(W, q)
        dead = (nrms.ravel() <= 0.0)
        if dead.any():
            converged |= dead
            nrms[:, dead] = 1.0
        X = W / nrms
    else:
        warnings.warn("operator norm ascent hit the iteration cap",
                      NonConvergenceWarning, stacklevel=2)
    return best_val, best_x


def _col_lp_norms(X: np.ndarray, p: float) -> np.ndarray:
    a = np.abs(X)
    if p == math.inf:
        return a.max(axis=0, keepdims=True)
    if p == 1.0:
        return a.sum(axis=0, keepdims=True)
    if p == 2.0:
        return np.sqrt((a * a).sum(axis=0, keepdims=True))
    return (a ** p).sum(axis=0, keepdims=True) ** (1.0 / p)


def operator_norm_bruteforce(A, q: float, p: float, step: float = 0.01) -> float:
    """Dense-net lower oracle: max |Ax|_p over a normalized cube-face grid.

    Every direction meets a cube face, so normalizing the face grid gives a
    net of the whole lp(q) sphere with direction resolution ~step. Only for
    n <= 3.
    """
    A = np.asarray(A, dtype=float)
    m, n = A.shape
    if n > 3:
        raise ValueError("brute-force oracle is capped at n = 3")
    if n == 1:
        return lp_norm(A[:, 0], p)
    axis = np.arange(-1.0, 1.0 + step / 2, step)
    faces = []
    for i in range(n):
        others = [axis] * (n - 1)
        grid = np.stack(np.meshgrid(*others, indexing="ij"), axis=-1).reshape(-1, n - 1)
        for sign in (1.0, -1.0):
            face = np.empty((len(grid), n))
            face[:, i] = sign
            cols = [j for j in range(n) if j != i]
            face[:, cols] = grid
            faces.append(face)
    X = np.concatenate(faces)
    if q == math.inf:
        nrms = np.abs(X).max(axis=1)
    elif q == 1.0:
        nrms = np.abs(X).sum(axis=1)
    else:
        nrms = (np.abs(X) ** q).sum(axis=1) ** (1.0 / q)
    X = X / nrms[:, None]
    Y = X @ A.T
    if p == math.inf:
        vals = np.abs(Y).max(axis=1)
    elif p == 1.0:
        vals = np.abs(Y).sum(axis=1)
    else:
        vals = (np.abs(Y) ** p).sum(axis=1) ** (1.0 / p)
    return float(vals.max())


# ---------------------------------------------------------------------------
# nets


@dataclass(frozen=True)
class DualBallNet:
    """Implicit uniform-grid net of the dual unit ball of an lp(q) space.

    Members are the grid points (coordinate step delta / sqrt(n)) inside
    the dual ball plus the signed coordinate functionals. The grid is
    queried by rounding, never materialized, so fine nets in moderate
    dimension stay cheap.
    """

    n: int
    q: float
    delta: float

    @property
    def dual_p(self) -> float:
        return dual_exponent(self.q)

    @property
    def step(self) -> float:
        return self.delta / math.sqrt(self.n)

    def point(self, key: tuple) -> np.ndarray:
        if key[0] == "axis":
            _, i, sign = key
            e = np.zeros(self.n)
            e[i] = float(sign)
            return e
        return np.array(key[1], dtype=float) * self.step

    def nearest(self, v: np.ndarray) -> tuple:
        """(key, vector, distance) of the closest member, deterministic ties."""
        v = np.asarray(v, dtype=float)
        step = self.step
        cands = []
        rounded = np.round(v / step)
        if lp_norm(rounded * step, self.dual_p) <= 1.0 + 1e-12:
            cands.append(("grid", tuple(int(k) for k in rounded)))
        truncated = np.trunc(v / step)  # toward zero: always inside the ball
        cands.append(("grid", tuple(int(k) for k in truncated)))
        for i in range(self.n):
            cands.append(("axis", i, 1))
            cands.append(("axis", i, -1))
        best_key, best_w, best_d = None, None, math.inf
        for key in cands:
            w = self.point(key)
            d = lp_norm(v - w, self.dual_p)
            if d < best_d:
                best_key, best_w, best_d = key, w, d
        return best_key, best_w, best_d


@dataclass(frozen=True)
class SphereNet:
    """Implicit net of the Euclidean unit sphere (grid rounding plus axes)."""

    dim: int
    delta: float

    @property
    def step(self) -> float:
        return self.delta / math.sqrt(self.dim)

    def nearest(self, v: np.ndarray) -> tuple:
        v = np.asarray(v, dtype=float)
        g = np.round(v / self.step)
        cands = []
        if np.any(g):
            w = g * self.step
            cands.append((("grid", tuple(int(k) for k in g)), w / lp_norm(w, 2.0)))
        for i in range(self.dim):
            for sign in (1, -1):
                e = np.zeros(self.dim)
                e[i] = float(sign)
                cands.append((("axis", i, sign), e))
        best = None
        best_d = math.inf
        for key, w in cands:
            d = lp_norm(v - w, 2.0)
            if d < best_d:
                best, best_d = (key, w), d
        return best[0], best[1], best_d

    def enumerate(self) -> list:
        if self.dim != 2:
            raise NotImplementedError("explicit sphere nets are built in dimension 2")
        count = max(4, int(math.ceil(2 * math.pi / self.delta)))
        out = []
        for j in range(count):
            a = 2 * math.pi * j / count
            out.append((("angle", j), np.array([math.cos(a), math.sin(a)])))
        return out


# ---------------------------------------------------------------------------
# finite-rank candidate window and certification


def lp_window_constant(lam: float, p: float) -> float:
    """c = (1 - (2 lam)^(-p))^(1/p), the distance-shrink constant."""
    return (1.0 - (2.0 * lam) ** (-p)) ** (1.0 / p)


def lp_window(lam: float, p: float) -> tuple:
    c = lp_window_constant(lam, p)
    return (2.0 + c) / 3.0, (4.0 - c) / 3.0


@dataclass(frozen=True, eq=False)
class LpCenterCandidate:
    """lam * sum of rank-one rows net_i (x) e_i with prescale norm in the window."""

    rows: tuple              # net keys, one per occupied codomain coordinate
    row_vectors: np.ndarray  # k x n matrix of the chosen net points
    prescale_norm: float
    lam: float
    c: float

    def center_matrix(self, codomain_dim: int) -> np.ndarray:
        k, n = self.row_vectors.shape
        out = np.zeros((codomain_dim, n))
        out[:k] = self.lam * self.row_vectors
        return out


@dataclass(frozen=True, eq=False)
class LpCertificate:
    t0: int
    theta: float
    eps: float
    net_choices: tuple
    center: LpCenterCandidate
    distance: float
    radius: float            # lam (1 + c) / 2
    center_norm: float
    c: float
    window: tuple
    distance_bound: float    # lam (c + eps)
    gap_bound: float         # lam (1 - c) / 6

    @property
    def gap(self) -> float:
        return self.center_norm - self.radius

    def to_dict(self) -> dict:
        """Audit form carrying every intermediate constant."""
        return {
            "t0": self.t0, "theta": self.theta, "eps": self.eps,
            "net_choices": [list(map(str, k)) for k in self.net_choices],
            "prescale_norm": self.center.prescale_norm,
            "lam": self.center.lam, "c": self.c,
            "window": list(self.window),
            "distance": self.distance, "radius": self.radius,
            "center_norm": self.center_norm, "gap": self.gap,
            "distance_bound": self.distance_bound, "gap_bound": self.gap_bound,
        }


def certify_lp_operator(T: Operator, lam: float, net: DualBallNet) -> LpCertificate:
    """Constructive covering certificate for a norm-one operator into lp(p).

    Truncates to the smallest leading row block whose norm theta clears
    max(1/2, lam^(1-p)) while the dropped tail keeps norm at most
    (1 - theta^p)^(1/p); both are needed for the distance chain, and the
    full block (zero tail, theta = 1) always qualifies. Each scaled row is
    approximated by the nearest net point within min(eps/t0, (1-c)/(3 t0)),
    eps = (1 - c) / 4, the candidate window is checked, and the distance to
    the scaled candidate is measured. The certificate carries the guaranteed
    bounds: distance <= lam (c + eps), radius lam (1 + c) / 2 below the
    center norm, and uniform gap lam (1 - c) / 6.
    """
    A = np.asarray(T.matrix, dtype=float)
    q, p = T.q, T.p
    m, n = A.shape
    if not 1.0 < p < math.inf:
        raise ValueError("certification needs p in (1, inf)")
    if lam <= 1.0:
        raise ValueError("lam must exceed 1")
    tnorm = operator_norm(A, q, p)
    if abs(tnorm - 1.0) > 1e-9:
        raise ValueError(f"operator must have norm 1 (got {tnorm:.12g})")
    c = lp_window_constant(lam, p)
    if not c < 1.0:
        raise ValueError("the window constant c must stay below 1")
    eps = (1.0 - c) / 4.0
    theta_min = max(0.5, lam ** (1.0 - p))
    t0, theta = m, tnorm
    for t in range(1, m + 1):
        th = operator_norm(A[:t], q, p)
        if th <= theta_min:
            continue
        tail = operator_norm(A[t:], q, p) if t < m else 0.0
        if tail ** p <= 1.0 - th ** p + 1e-8:
            t0, theta = t, th
            break
    tol_row = min(eps / t0, (1.0 - c) / (3.0 * t0))
    keys, vecs = [], []
    for i in range(t0):
        key, w, dist = net.nearest(A[i] / theta)
        if dist >= tol_row:
            raise NetTooCoarse(required=tol_row, measured=dist,
                               what=f"net point for row {i}")
        keys.append(key)
        vecs.append(w)
    rows = np.stack(vecs)
    prescale = operator_norm(rows, q, p)
    low, high = lp_window(lam, p)
    if not low < prescale < high:
        raise WindowMiss(prescale, (low, high))
    candidate = LpCenterCandidate(tuple(keys), rows, prescale, lam, c)
    center = candidate.center_matrix(m)
    distance = operator_norm(A - center, q, p)
    radius = lam * (1.0 + c) / 2.0
    return LpCertificate(
        t0=t0, theta=theta, eps=eps, net_choices=tuple(keys), center=candidate,
        distance=float(distance), radius=radius,
        center_norm=lam * prescale, c=c, window=(low, high),
        distance_bound=lam * (c + eps), gap_bound=lam * (1.0 - c) / 6.0)


# ---------------------------------------------------------------------------
# Hilbert rank-one certification


@dataclass(frozen=True, eq=False)
class HilbertCertificate:
    left_key: tuple
    right_key: tuple
    left_error: float
    right_error: float
    center: np.ndarray
    distance: float
    radius: float          # (1 + lam) / 2
    gap: float             # lam - radius = (lam - 1) / 2
    distance_bound: float  # 1 + (2 lam + 2) delta


def hilbert_rank_one_certify(A, lam: float, delta: float) -> HilbertCertificate:
    """Certify a norm-one matrix against the scaled rank-one net family.

    The top singular pair is snapped to nearest points b_u, b_v of the
    sphere nets with step delta; the center lam * b_u b_v^T then satisfies
    distance <= max(lam - 1, sigma_2) + 2 lam delta <= 1 + (2 lam + 2) delta,
    which stays below the radius (1 + lam) / 2 whenever
    delta <= (lam - 1) / (4 lam + 4).
    """
    A = np.asarray(A, dtype=float)
    m, n = A.shape
    if not 1.0 < lam < 2.0:
        raise ValueError("lam must lie in (1, 2)")
    delta_max = (lam - 1.0) / (4.0 * lam + 4.0)
    if delta > delta_max + 1e-12:
        raise NetTooCoarse(required=delta_max, measured=delta,
                           what="sphere net (delta bound)")
    u, s, vt = np.linalg.svd(A)
    if abs(s[0] - 1.0) > 1e-9:
        raise ValueError(f"matrix must have spectral norm 1 (got {s[0]:.12g})")
    u1, v1 = u[:, 0].copy(), vt[0].copy()
    pivot = int(np.argmax(np.abs(u1)))
    if u1[pivot] < 0:  # fix the SVD sign ambiguity without changing u1 v1^T
        u1, v1 = -u1, -v1
    lkey, bu, du = SphereNet(m, delta).nearest(u1)
    rkey, bv, dv = SphereNet(n, delta).nearest(v1)
    if du > delta + 1e-12 or dv > delta + 1e-12:
        raise NetTooCoarse(required=delta, measured=max(du, dv),
                           what="sphere net point")
    center = lam * np.outer(bu, bv)
    distance = float(np.linalg.svd(A - center, compute_uv=False)[0])
    radius = (1.0 + lam) / 2.0
    return HilbertCertificate(
        left_key=lkey, right_key=rkey, left_error=float(du), right_error=float(dv),
        center=center, distance=distance, radius=radius,
        gap=lam - radius, distance_bound=1.0 + (2.0 * lam + 2.0) * delta)


def hilbert_rank_one_covering(dim: int, lam: float, delta: float) -> BallCovering:
    """Explicit scaled rank-one covering of the whole operator sphere.

    Balls lam * b_u (x) b_v with radius (1 + lam) / 2 over all net pairs;
    by the certified bound every norm-one operator lies in one of them once
    delta <= (lam - 1) / (4 lam + 4).
    """
    net = SphereNet(dim, delta)
    points = net.enumerate()
    space = operator_space(lp(dim, 2.0), lp(dim, 2.0))
    balls = []
    radius = (1.0 + lam) / 2.0
    for _, bu in points:
        for _, bv in points:
            balls.append((lam * np.outer(bu, bv).ravel(), radius))
    return make_covering(space, balls)


# ---------------------------------------------------------------------------
# covering transfers B(X, Y) -> Y and X*


@dataclass(frozen=True, eq=False)
class TransferResult:
    y_covering: BallCovering
    xstar_covering: BallCovering
    functional: np.ndarray        # g in S_{X*}, nonvanishing on the norming vectors
    separation: float             # min_n |g(x_n)|
    dual_point: np.ndarray        # y in S_Y, nonvanishing on the dual functionals
    dual_separation: float
    norming_vectors: np.ndarray
    dual_functionals: np.ndarray


# least separation |g(x_n)| the transfer accepts, and the number of random
# directions its search may draw
_MIN_SEPARATION = 1e-3
_SEARCH_BUDGET = 10_000


def operator_cover_transfer(cov: BallCovering, seed: int = 0x5EED) -> TransferResult:
    """Derive coverings of the codomain sphere and the dual-domain sphere.

    For each ball, a norming vector x_n with |T_n x_n| > r_n comes from the
    norm ascent; a single functional g with min_n |g(x_n)| >= 1e-3 is
    found by seeded random search (reported, never silently assumed), and
    the codomain balls are B(T_n x_n / g(x_n), r_n / |g(x_n)|). The dual
    side runs the same construction on the adjoints.
    """
    space = cov.space
    if not isinstance(space, OperatorSpace):
        raise ValueError("transfer needs a covering over an operator space")
    q, p = space.domain.p, space.codomain.p
    n, m = space.domain.n, space.codomain.n
    mats, radii = [], []
    for k, b in enumerate(cov.balls):
        A = b.center.reshape(m, n)
        nrm = operator_norm(A, q, p)
        if b.radius >= nrm - STRICT_SLACK:
            raise NormingFailure(
                f"ball {k}: radius {b.radius:.9g} reaches the center norm {nrm:.9g}")
        mats.append(A)
        radii.append(b.radius)

    xs, gs = [], []
    for k, A in enumerate(mats):
        _, x = operator_norm_with_vector(A, q, p)
        if norm_of(space.codomain, A @ x) <= radii[k]:
            raise NormingFailure(f"ball {k}: norming vector does not clear the radius")
        xs.append(x)
        _, g = operator_norm_with_vector(A.T, dual_exponent(p), dual_exponent(q))
        if lp_norm(A.T @ g, dual_exponent(q)) <= radii[k]:
            raise NormingFailure(f"ball {k}: dual norming functional does not clear the radius")
        gs.append(g)
    X = np.stack(xs)
    G = np.stack(gs)

    xstar_space = lp(n, dual_exponent(q))
    y_space = lp(m, p)
    g, g_sep = _separating_direction(xstar_space, X, _MIN_SEPARATION,
                                     _SEARCH_BUDGET, derive_seed(seed, 1))
    y, y_sep = _separating_direction(y_space, G, _MIN_SEPARATION,
                                     _SEARCH_BUDGET, derive_seed(seed, 2))

    y_balls, xstar_balls = [], []
    for k, A in enumerate(mats):
        gx = float(g @ X[k])
        y_balls.append(((A @ X[k]) / gx, radii[k] / abs(gx)))
        gy = float(G[k] @ y)
        xstar_balls.append(((A.T @ G[k]) / gy, radii[k] / abs(gy)))
    return TransferResult(
        y_covering=make_covering(y_space, y_balls),
        xstar_covering=make_covering(xstar_space, xstar_balls),
        functional=g, separation=g_sep,
        dual_point=y, dual_separation=y_sep,
        norming_vectors=X, dual_functionals=G)


def _separating_direction(space: LpSpace, directions: np.ndarray,
                          threshold: float, budget: int, seed: int) -> tuple:
    """Unit vector keeping |<g, x_k>| >= threshold for every row x_k.

    Explicit seeded search standing in for a generic-position existence
    argument; raises SeparationFailure with the best value found.
    """
    rng = np.random.default_rng(seed)
    n = space.n
    best_g, best_score = None, -1.0
    chunk = 256
    remaining = budget
    while remaining > 0:
        take = min(chunk, remaining)
        remaining -= take
        if space.p == math.inf:
            block = rng.uniform(-1.0, 1.0, size=(take, n))
            nrms = np.abs(block).max(axis=1)
        else:
            mags = rng.gamma(1.0 / space.p, size=(take, n)) ** (1.0 / space.p)
            signs = rng.integers(0, 2, size=(take, n)) * 2 - 1
            block = signs * mags
            if space.p == 2.0:
                nrms = np.sqrt((block * block).sum(axis=1))
            elif space.p == 1.0:
                nrms = np.abs(block).sum(axis=1)
            else:
                nrms = (np.abs(block) ** space.p).sum(axis=1) ** (1.0 / space.p)
        ok = nrms > 1e-12
        block = block[ok] / nrms[ok, None]
        scores = np.abs(block @ directions.T).min(axis=1)
        k = int(np.argmax(scores))
        if scores[k] > best_score:
            best_score, best_g = float(scores[k]), block[k].copy()
        if best_score >= threshold * 4:  # comfortably separated; stop early
            break
    if best_score < threshold:
        raise SeparationFailure(best_score, threshold)
    return best_g, best_score


# ---------------------------------------------------------------------------
# sup-sum builder and the column/row identifications


def linf_sum_cover(coverings) -> BallCovering:
    """Covering of the sup-sum sphere from per-block coverings.

    Each block ball is pushed outward until its radius can absorb the other
    blocks (new radius >= 1) while its margin mu = |c| - r is preserved
    exactly, then embedded with zeros elsewhere. Every sum-sphere point has
    a norm-one block, and that block's pushed ball still contains it. The
    embedded centers live in a single block each, the finite shadow of
    choosing the centers inside the c0-sum.
    """
    from .spaces import dim as _dim

    coverings = list(coverings)
    if not coverings:
        raise ValueError("need at least one block covering")
    blocks = tuple(c.space for c in coverings)
    sum_space = linf_sum(blocks)
    offsets = []
    start = 0
    for b in blocks:
        offsets.append(start)
        start += _dim(b)
    full_dim = start
    balls = []
    for k, cov in enumerate(coverings):
        if cov.origin_gap <= STRICT_SLACK:
            raise ValueError(f"block {k} covering is not admissible")
        for b in cov.balls:
            nrm = norm_of(blocks[k], b.center)
            mu = nrm - b.radius
            t = max(1.0, (1.0 + mu) / nrm)
            scaled = t * b.center
            new_norm = norm_of(blocks[k], scaled)
            embedded = np.zeros(full_dim)
            embedded[offsets[k]:offsets[k] + _dim(blocks[k])] = scaled
            balls.append((embedded, new_norm - mu))
    return make_covering(sum_space, balls)


def columns_as_linf_sum(A: np.ndarray) -> tuple:
    """Identify an l1 -> l1 operator with the sup-sum of its columns.

    Returns (sum space of n copies of l1^m, column-stacked vector); the
    sup-sum norm of the vector equals the induced (1 -> 1) norm exactly.
    """
    A = np.asarray(A, dtype=float)
    m, n = A.shape
    space = linf_sum(tuple(lp(m, 1.0) for _ in range(n)))
    vec = A.T.reshape(-1).copy()
    return space, vec


def rows_as_linf_sum(A: np.ndarray) -> tuple:
    """Identify a sup -> sup operator with the sup-sum of its rows (l1 blocks)."""
    A = np.asarray(A, dtype=float)
    m, n = A.shape
    space = linf_sum(tuple(lp(n, 1.0) for _ in range(m)))
    vec = A.reshape(-1).copy()
    return space, vec


def axis_covering(space: LpSpace) -> BallCovering:
    """Covering of an lp sphere by balls around the signed axes scaled by 2.

    The worst distance occurs at the flattest sphere point, giving radius
    ((2 - a)^p + 1 - a^p)^(1/p) with a = n^(-1/p); for the sup norm the
    fixed radius 5/4 is used instead. Inadmissible spaces, such as l1 in
    dimension 2 and up, are rejected.
    """
    n, p = space.n, space.p
    if p == math.inf:
        radius = 1.25
    else:
        a = n ** (-1.0 / p)
        radius = ((2.0 - a) ** p + 1.0 - a ** p) ** (1.0 / p)
    if radius >= 2.0 - STRICT_SLACK:
        raise ValueError(f"axis covering of lp({n}, {p}) is not admissible")
    balls = []
    for i in range(n):
        for sign in (1.0, -1.0):
            e = np.zeros(n)
            e[i] = sign * 2.0
            balls.append((e, radius))
    return make_covering(space, balls)


def planar_net_covering(space: LpSpace, delta: float = 0.5) -> BallCovering:
    """Net-based sphere covering for 2-dimensional lp spaces (any p >= 1).

    Centers 2 w over a measured delta-net w of the sphere, radius
    1 + delta; works where the axis covering is inadmissible (p = 1).
    """
    if space.n != 2:
        raise ValueError("planar net covering needs dimension 2")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    count = max(8, int(math.ceil(4 * math.pi / delta)))
    angles = np.linspace(0.0, 2 * math.pi, count, endpoint=False)
    raw = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    from .spaces import norms_rows
    pts = raw / norms_rows(space, raw)[:, None]
    probe_angles = np.linspace(0.0, 2 * math.pi, 8 * count, endpoint=False)
    probe = np.stack([np.cos(probe_angles), np.sin(probe_angles)], axis=1)
    probe = probe / norms_rows(space, probe)[:, None]
    diffs = probe[:, None, :] - pts[None, :, :]
    dmat = norms_rows(space, diffs.reshape(-1, 2)).reshape(len(probe), len(pts))
    measured = float(dmat.min(axis=1).max())
    if measured > delta:
        raise ValueError(f"net of {count} points only reaches delta {measured:.4g}")
    radius = 1.0 + delta
    return make_covering(space, [(2.0 * w, radius) for w in pts])
