"""Reference kernels: earlier forms of kernels that a rewrite replaced.

Each function is the loop or the per-kind ``isinstance`` chain that a live
kernel in ``bcplab`` replaced. The tests assert that the live kernel gives
exactly the same floats, arrays and dicts, so a rewrite cannot move a report
by one ulp unnoticed. Change a reference only together with a deliberate
re-recording of the report digests.

``SupGridSpace`` is an ``LpSpace`` subclass, so the chains below test for it
before they test for ``LpSpace``; that keeps each branch the one it was.
"""

import math

import numpy as np

from bcplab import spaces as sp
from bcplab.op_cover import operator_norm
from bcplab.seeding import derive_seed


def dim(space) -> int:
    if isinstance(space, (sp.LpSpace, sp.SupGridSpace)):
        return space.n
    if isinstance(space, sp.LinfSumSpace):
        return sum(dim(b) for b in space.blocks)
    if isinstance(space, sp.OperatorSpace):
        return space.domain.n * space.codomain.n
    raise TypeError(f"not a space model: {space!r}")


def block_slices(space) -> list:
    out, start = [], 0
    for b in space.blocks:
        d = dim(b)
        out.append((b, slice(start, start + d)))
        start += d
    return out


def norm_of(space, v) -> float:
    v = np.asarray(v, dtype=float)
    if v.shape != (dim(space),):
        raise ValueError(f"vector has shape {v.shape}, space needs ({dim(space)},)")
    if isinstance(space, sp.SupGridSpace):
        return float(np.abs(v).max())
    if isinstance(space, sp.LpSpace):
        return sp.lp_norm(v, space.p)
    if isinstance(space, sp.LinfSumSpace):
        return max(norm_of(b, v[s]) for b, s in block_slices(space))
    if isinstance(space, sp.OperatorSpace):
        mat = v.reshape(space.codomain.n, space.domain.n)
        return operator_norm(mat, space.domain.p, space.codomain.p)
    raise TypeError(f"not a space model: {space!r}")


def norms_rows(space, rows) -> np.ndarray:
    rows = np.asarray(rows, dtype=float)
    if isinstance(space, sp.SupGridSpace):
        return np.abs(rows).max(axis=1)
    if isinstance(space, sp.LpSpace):
        a = np.abs(rows)
        p = space.p
        if p == math.inf:
            return a.max(axis=1)
        if p == 1.0:
            return a.sum(axis=1)
        if p == 2.0:
            return np.sqrt((a * a).sum(axis=1))
        return np.array([s ** (1.0 / p) for s in (a ** p).sum(axis=1).tolist()])
    if isinstance(space, sp.LinfSumSpace):
        per_block = [norms_rows(b, rows[:, s]) for b, s in block_slices(space)]
        return np.max(np.stack(per_block, axis=1), axis=1)
    return np.array([norm_of(space, r) for r in rows])


def sample_sphere(space, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if isinstance(space, sp.SupGridSpace):
        if space.mode == "discrete":
            return _sample_lp(rng, space.n, math.inf)
        bound = space.slope / space.n
        start = float(rng.uniform(0.5, 1.0)) * (1.0 if rng.integers(2) else -1.0)
        increments = rng.uniform(-bound, bound, size=space.n - 1)
        v = np.concatenate([[start], start + np.cumsum(increments)])
        return v / np.abs(v).max()
    if isinstance(space, sp.LpSpace):
        return _sample_lp(rng, space.n, space.p)
    if isinstance(space, sp.LinfSumSpace):
        parts = []
        scales = rng.uniform(0.0, 1.0, size=len(space.blocks))
        scales[int(rng.integers(len(space.blocks)))] = 1.0
        for k, (b, _) in enumerate(block_slices(space)):
            parts.append(scales[k] * sample_sphere(b, derive_seed(seed, k + 1)))
        return np.concatenate(parts)
    if isinstance(space, sp.OperatorSpace):
        mat = rng.standard_normal((space.codomain.n, space.domain.n))
        return (mat / norm_of(space, mat.ravel())).ravel()
    raise TypeError(f"not a space model: {space!r}")


def _sample_lp(rng, n: int, p: float) -> np.ndarray:
    while True:
        if p == math.inf:
            v = rng.uniform(-1.0, 1.0, size=n)
            nrm = np.abs(v).max()
        else:
            mags = rng.gamma(1.0 / p, size=n) ** (1.0 / p)
            signs = rng.integers(0, 2, size=n) * 2 - 1
            v = signs * mags
            nrm = sp.lp_norm(v, p)
        if nrm > 1e-12:
            return v / nrm


def space_to_dict(space) -> dict:
    if isinstance(space, sp.SupGridSpace):
        d = {"kind": "sup_grid", "n": space.n, "mode": space.mode}
        if space.slope is not None:
            d["slope"] = space.slope
        return d
    if isinstance(space, sp.LpSpace):
        return {"kind": "lp", "n": space.n, "p": "inf" if space.p == math.inf else space.p}
    if isinstance(space, sp.LinfSumSpace):
        return {"kind": "linf_sum", "blocks": [space_to_dict(b) for b in space.blocks]}
    if isinstance(space, sp.OperatorSpace):
        return {"kind": "operator",
                "domain": space_to_dict(space.domain),
                "codomain": space_to_dict(space.codomain)}
    raise TypeError(f"not a space model: {space!r}")


def col_lp_norms(X: np.ndarray, p: float) -> np.ndarray:
    """Column norms of the operator-norm ascent, shape (1, columns)."""
    a = np.abs(X)
    if p == math.inf:
        return a.max(axis=0, keepdims=True)
    if p == 1.0:
        return a.sum(axis=0, keepdims=True)
    if p == 2.0:
        return np.sqrt((a * a).sum(axis=0, keepdims=True))
    return (a ** p).sum(axis=0, keepdims=True) ** (1.0 / p)


def separating_row_norms(block: np.ndarray, p: float) -> np.ndarray:
    """Row norms of the separating-direction search."""
    if p == math.inf:
        return np.abs(block).max(axis=1)
    if p == 2.0:
        return np.sqrt((block * block).sum(axis=1))
    if p == 1.0:
        return np.abs(block).sum(axis=1)
    return (np.abs(block) ** p).sum(axis=1) ** (1.0 / p)


def bruteforce_row_norms(X: np.ndarray, p: float) -> np.ndarray:
    """Row norms of the dense-net operator-norm oracle (no p = 2 branch)."""
    if p == math.inf:
        return np.abs(X).max(axis=1)
    if p == 1.0:
        return np.abs(X).sum(axis=1)
    return (np.abs(X) ** p).sum(axis=1) ** (1.0 / p)


def certify_point(c, v):
    """The first-hit rule one ball at a time: the reference for the block kernel."""
    v = np.asarray(v, dtype=float)
    boundary = None
    min_excess, nearest = math.inf, -1
    for k, b in enumerate(c.balls):
        d = sp.norm_of(c.space, v - b.center)
        excess = d - b.radius
        if excess < min_excess:
            min_excess, nearest = excess, k
        if d <= b.radius - sp.STRICT_SLACK:
            return sp.CoverCertificate(v, k, d, b.radius - d)
        if d <= b.radius and boundary is None:
            boundary = sp.CoverCertificate(v, k, d, b.radius - d)
    if boundary is not None:
        return boundary
    raise sp.NotCovered(min_excess, nearest)
