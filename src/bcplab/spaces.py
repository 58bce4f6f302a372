"""Finite-dimensional normed space models, sphere samplers, ball coverings.

Each space kind (lp, the sup-norm grid l_inf^n with an optional slope-bounded
mode, sup-sums, operator spaces) owns its dimension, norms, sampler and JSON
form; ``norm_of``, ``norms_rows`` and ``sample_sphere`` delegate to it.

Tolerance policy (local decision, echoed in reports): a strict inequality
counts as verified only when the slack exceeds ``STRICT_SLACK``; slack in
(0, STRICT_SLACK] is a degenerate pass. Identity-level arithmetic is
checked at ``ARITHMETIC_TOL``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .seeding import derive_seed

STRICT_SLACK = 1e-9
ARITHMETIC_TOL = 1e-12

# balls per certify_point block: long enough to amortize the numpy calls,
# short enough that an early hit leaves little of a long covering computed
_BLOCK = 256


# ---------------------------------------------------------------------------
# space models: each kind owns its dimension, norms, sampler and JSON form


def lp_norm(v: np.ndarray, p: float) -> float:
    a = np.abs(v)
    if p == math.inf:
        return float(a.max()) if a.size else 0.0
    if p == 1.0:
        return float(a.sum())
    if p == 2.0:
        return float(np.sqrt((a * a).sum()))
    return float((a ** p).sum() ** (1.0 / p))


@dataclass(frozen=True)
class LpSpace:
    n: int
    p: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dimension must be at least 1")

    @property
    def dim(self) -> int:
        return self.n

    def norm(self, v: np.ndarray) -> float:
        return lp_norm(v, self.p)

    def norms(self, rows: np.ndarray) -> np.ndarray:
        a = np.abs(rows)
        p = self.p
        if p == math.inf:
            return a.max(axis=1)
        if p == 1.0:
            return a.sum(axis=1)
        if p == 2.0:
            return np.sqrt((a * a).sum(axis=1))
        # the root is taken with the scalar pow, as in lp_norm: numpy's array
        # power can differ from it in the last ulp
        return np.array([s ** (1.0 / p) for s in (a ** p).sum(axis=1).tolist()])

    def sample(self, rng, seed: int) -> np.ndarray:
        while True:
            if self.p == math.inf:
                v = rng.uniform(-1.0, 1.0, size=self.n)
            else:
                mags = rng.gamma(1.0 / self.p, size=self.n) ** (1.0 / self.p)
                v = (rng.integers(0, 2, size=self.n) * 2 - 1) * mags
            nrm = lp_norm(v, self.p)
            if nrm > 1e-12:
                return v / nrm

    def to_dict(self) -> dict:
        return {"kind": "lp", "n": self.n, "p": "inf" if self.p == math.inf else self.p}


@dataclass(frozen=True)
class SupGridSpace(LpSpace):
    """Grid model of continuous functions under the sup norm: l_inf^n.

    ``discrete`` mode admits every node vector, C(K) for a discrete K of n
    points. ``lipschitz`` mode restricts to piecewise-linear functions on an
    equispaced grid of [0, 1]: slope bound ``slope`` means node increments
    of at most slope / n.
    """

    p: float = field(default=math.inf, init=False, repr=False)
    mode: str = "discrete"
    slope: float | None = None

    def sample(self, rng, seed: int) -> np.ndarray:
        if self.mode == "discrete":
            return LpSpace.sample(self, rng, seed)
        bound = grid_increment_bound(self)
        start = float(rng.uniform(0.5, 1.0)) * (1.0 if rng.integers(2) else -1.0)
        increments = rng.uniform(-bound, bound, size=self.n - 1)
        v = np.concatenate([[start], start + np.cumsum(increments)])
        return v / np.abs(v).max()

    def to_dict(self) -> dict:
        d = {"kind": "sup_grid", "n": self.n, "mode": self.mode}
        return d if self.slope is None else {**d, "slope": self.slope}


@dataclass(frozen=True)
class LinfSumSpace:
    """Sup-sum of the block spaces: the norm is the largest block norm."""

    blocks: tuple

    @cached_property
    def slices(self) -> tuple:
        """(block, coordinate slice) for each block, in order."""
        out, start = [], 0
        for b in self.blocks:
            out.append((b, slice(start, start + b.dim)))
            start += b.dim
        return tuple(out)

    @property
    def dim(self) -> int:
        return self.slices[-1][1].stop

    def norm(self, v: np.ndarray) -> float:
        return max(norm_of(b, v[s]) for b, s in self.slices)

    def norms(self, rows: np.ndarray) -> np.ndarray:
        per_block = [norms_rows(b, rows[:, s]) for b, s in self.slices]
        return np.max(np.stack(per_block, axis=1), axis=1)

    def sample(self, rng, seed: int) -> np.ndarray:
        scales = rng.uniform(0.0, 1.0, size=len(self.blocks))
        scales[int(rng.integers(len(self.blocks)))] = 1.0
        return np.concatenate([scales[k] * sample_sphere(b, derive_seed(seed, k + 1))
                               for k, b in enumerate(self.blocks)])

    def to_dict(self) -> dict:
        return {"kind": "linf_sum", "blocks": [b.to_dict() for b in self.blocks]}


@dataclass(frozen=True)
class OperatorSpace:
    """Bounded operators domain -> codomain, stored as row-major matrices."""

    domain: LpSpace
    codomain: LpSpace

    @property
    def dim(self) -> int:
        return self.domain.n * self.codomain.n

    def norm(self, v: np.ndarray) -> float:
        from .op_cover import operator_norm  # norm oracle lives with the operator machinery
        mat = v.reshape(self.codomain.n, self.domain.n)
        return operator_norm(mat, self.domain.p, self.codomain.p)

    def norms(self, rows: np.ndarray) -> np.ndarray:
        return np.array([norm_of(self, r) for r in rows])

    def sample(self, rng, seed: int) -> np.ndarray:
        mat = rng.standard_normal((self.codomain.n, self.domain.n))
        return (mat / norm_of(self, mat.ravel())).ravel()

    def to_dict(self) -> dict:
        return {"kind": "operator", "domain": self.domain.to_dict(),
                "codomain": self.codomain.to_dict()}


def lp(n: int, p: float) -> LpSpace:
    if not (p >= 1):
        raise ValueError("exponent must satisfy p >= 1 (math.inf allowed)")
    return LpSpace(n, float(p))


def sup_grid(n: int, mode: str = "discrete", slope: float | None = None) -> SupGridSpace:
    if mode not in ("discrete", "lipschitz"):
        raise ValueError("mode must be 'discrete' or 'lipschitz'")
    if mode == "lipschitz" and not (slope and slope > 0):
        raise ValueError("lipschitz mode needs a positive slope bound")
    return SupGridSpace(n, mode, slope)


def linf_sum(blocks) -> LinfSumSpace:
    blocks = tuple(blocks)
    if not blocks:
        raise ValueError("a sup-sum needs at least one block")
    return LinfSumSpace(blocks)


def operator_space(domain: LpSpace, codomain: LpSpace) -> OperatorSpace:
    return OperatorSpace(domain, codomain)


def norm_of(space, v) -> float:
    """Norm oracle for every space kind; zero only at the zero vector."""
    v = np.asarray(v, dtype=float)
    if v.shape != (space.dim,):
        raise ValueError(f"vector has shape {v.shape}, space needs ({space.dim},)")
    return space.norm(v)


def norms_rows(space, rows: np.ndarray) -> np.ndarray:
    """Vectorized ``norm_of`` over the rows of a 2-D array."""
    return space.norms(np.asarray(rows, dtype=float))


def grid_increment_bound(space: SupGridSpace) -> float:
    return space.slope / space.n


def is_admissible_grid(space: SupGridSpace, v, factor: float = 1.0) -> bool:
    """Lipschitz-mode admissibility: node increments within factor * slope/n."""
    if space.mode != "lipschitz":
        return True
    v = np.asarray(v, dtype=float)
    return bool(np.all(np.abs(np.diff(v)) <= factor * grid_increment_bound(space) + 1e-12))


def sample_sphere(space, seed: int) -> np.ndarray:
    """Deterministic unit-sphere sample; |norm - 1| <= 1e-12.

    lp coordinates follow a symmetric generalized-exponential shape before
    normalization, so the whole sphere is supported. Lipschitz grid samples
    draw node increments within the slope bound and start at magnitude at
    least 1/2, which caps the post-normalization slope at twice the bound.
    """
    return space.sample(np.random.default_rng(seed), seed)

# ---------------------------------------------------------------------------
# balls, coverings, certificates


@dataclass(frozen=True, eq=False)
class Ball:
    center: np.ndarray
    radius: float


@dataclass(frozen=True, eq=False)
class BallCovering:
    """Ordered ball list with the derived constants M and r*."""

    space: object
    balls: tuple
    radius_bound: float  # M, the largest radius
    origin_gap: float    # r*, min over balls of norm(center) - radius

    @cached_property
    def stacked(self) -> tuple:
        """(centers as rows, radii), in list order, built on first use."""
        return np.stack([b.center for b in self.balls]), np.array([b.radius for b in self.balls])


@dataclass(frozen=True)
class Classification:
    radius_bound: float
    origin_gap: float
    admissible: bool
    degenerate: bool
    label: str  # "UBCP" | "degenerate" | "inadmissible"


@dataclass(frozen=True, eq=False)
class CoverCertificate:
    point: np.ndarray
    ball_index: int
    distance: float
    margin: float


class NotCovered(Exception):
    """No ball contains the point; carries falsification evidence."""

    def __init__(self, min_excess: float, nearest_index: int):
        super().__init__(
            f"point not covered; best ball {nearest_index} misses by {min_excess:.6g}")
        self.min_excess = min_excess
        self.nearest_index = nearest_index


def make_covering(space, balls) -> BallCovering:
    balls = tuple(Ball(np.asarray(c, dtype=float), float(r)) for c, r in
                  ((b.center, b.radius) if isinstance(b, Ball) else b for b in balls))
    if not balls:
        raise ValueError("a covering needs at least one ball")
    for b in balls:
        if b.radius <= 0:
            raise ValueError("ball radii must be positive")
    radius_bound = max(b.radius for b in balls)
    origin_gap = min(norm_of(space, b.center) - b.radius for b in balls)
    return BallCovering(space, balls, radius_bound, origin_gap)


def classify_covering(c: BallCovering) -> Classification:
    """Recompute M and r*; flag inadmissible coverings without raising."""
    radius_bound = max(b.radius for b in c.balls)
    origin_gap = min(norm_of(c.space, b.center) - b.radius for b in c.balls)
    admissible = origin_gap > STRICT_SLACK
    degenerate = 0.0 < origin_gap <= STRICT_SLACK
    label = "UBCP" if admissible else ("degenerate" if degenerate else "inadmissible")
    return Classification(radius_bound, origin_gap, admissible, degenerate, label)


def certify_point(c: BallCovering, v) -> CoverCertificate:
    """First ball containing v, in list order.

    Balls hit only on the boundary (slack <= STRICT_SLACK) are kept as a
    fallback; the first ball with real interior slack wins, so a boundary
    graze by an unrelated ball cannot shadow a genuine containment. With no
    hit at all, ``NotCovered`` carries the least excess distance - radius
    and the first ball reaching it.

    The balls are scanned in blocks of ``_BLOCK`` balls, each block's
    distances coming from one ``norms_rows`` call, and the scan stops at the
    first block with a strict hit. On operator spaces every block is one
    ball, so the norm oracle is never called past the first strict hit.
    The result agrees bit for bit with checking one ball at a time.
    """
    v = np.asarray(v, dtype=float)
    centers, radii = c.stacked
    if v.shape != centers.shape[1:]:
        raise ValueError(f"vector has shape {v.shape}, space needs {centers.shape[1:]}")
    step = 1 if isinstance(c.space, OperatorSpace) else _BLOCK
    boundary = None
    min_excess, nearest = math.inf, -1
    for lo in range(0, len(radii), step):
        d = norms_rows(c.space, v - centers[lo:lo + step])
        r = radii[lo:lo + step]
        strict = np.flatnonzero(d <= r - STRICT_SLACK)
        if strict.size:
            k = strict[0]
            return CoverCertificate(v, lo + int(k), float(d[k]), float(r[k] - d[k]))
        if boundary is None:
            loose = np.flatnonzero(d <= r)
            if loose.size:
                k = loose[0]
                boundary = CoverCertificate(v, lo + int(k), float(d[k]), float(r[k] - d[k]))
        excess = d - r
        k = int(np.argmin(excess))
        if excess[k] < min_excess:
            min_excess, nearest = float(excess[k]), lo + k
    if boundary is not None:
        return boundary
    raise NotCovered(min_excess, nearest)


def certify_points(c: BallCovering, points) -> list:
    """``certify_point`` for each row of ``points``; None marks uncovered points."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("expected a 2-D array of row vectors")
    out = []
    for row in pts:
        try:
            out.append(certify_point(c, row))
        except NotCovered:
            out.append(None)
    return out


# ---------------------------------------------------------------------------
# radius manipulation: margin monotonicity and outward renormalization


def scaling_margin(x, y, s: float, t: float, space) -> tuple:
    """The pair (|sx| - |y - sx|, |tx| - |y - tx|) for 0 < s < t.

    The first component never exceeds the second: pushing a ball center
    outward along its ray only deepens how far any fixed point sits inside.
    """
    if not 0 < s < t:
        raise ValueError("scaling factors must satisfy 0 < s < t")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not np.any(x):
        raise ValueError("x must be nonzero")
    first = norm_of(space, s * x) - norm_of(space, y - s * x)
    second = norm_of(space, t * x) - norm_of(space, y - t * x)
    return first, second


def rescale_covering(c: BallCovering, r_star: float) -> BallCovering:
    """Push all centers out to the common norm 2 + 2M + 1, radii r** - r*.

    Any sphere point covered by input ball i stays covered by output ball i
    (margin monotonicity under outward scaling), and the rescaled covering
    has origin gap exactly r_star. r_star = 0 is the bounded-radii-only
    normalization.
    """
    if r_star < 0:
        raise ValueError("r_star must be nonnegative")
    if r_star > c.origin_gap + ARITHMETIC_TOL:
        raise ValueError(
            f"r_star {r_star} exceeds the covering origin gap {c.origin_gap}")
    r_out = 2.0 + 2.0 * c.radius_bound + 1.0
    new_balls = []
    for b in c.balls:
        nrm = norm_of(c.space, b.center)
        if nrm <= 0:
            raise ValueError("cannot rescale a ball centered at the origin")
        new_balls.append((b.center * (r_out / nrm), r_out - r_star))
    return make_covering(c.space, new_balls)


# ---------------------------------------------------------------------------
# JSON serialization (decimal, round-trip exact via repr)


def space_from_dict(d: dict):
    kind = d["kind"]
    if kind == "lp":
        p = math.inf if d["p"] == "inf" else float(d["p"])
        return lp(d["n"], p)
    if kind == "sup_grid":
        return sup_grid(d["n"], d.get("mode", "discrete"), d.get("slope"))
    if kind == "linf_sum":
        return linf_sum(space_from_dict(b) for b in d["blocks"])
    if kind == "operator":
        return operator_space(space_from_dict(d["domain"]), space_from_dict(d["codomain"]))
    raise ValueError(f"unknown space kind {kind!r}")


def covering_to_dict(c: BallCovering) -> dict:
    return {
        "space": c.space.to_dict(),
        "balls": [{"center": list(map(float, b.center)), "radius": b.radius}
                  for b in c.balls],
        "radius_bound": c.radius_bound,
        "origin_gap": c.origin_gap,
    }


def covering_from_dict(d: dict) -> BallCovering:
    space = space_from_dict(d["space"])
    return make_covering(space, [(b["center"], b["radius"]) for b in d["balls"]])
