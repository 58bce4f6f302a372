"""Finite topological spaces, pi-bases, pi-weight and continuous maps.

Points are opaque labels; an open set is a bit mask over the point order
(bit ``k`` set means ``points[k]`` belongs to the set). Builders
materialize the full open-set family, sorted by (popcount, mask), whenever
that is feasible; discrete cubes beyond 16 points keep an all-subsets flag
instead of an explicit list.

Materialization runs through minimal neighborhoods: the smallest open set
around a point is the intersection of the generators containing it, and
the opens of the generated topology are exactly the unions of those
minimal neighborhoods. This keeps every builder correct by construction
and makes membership checks linear.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

MAX_MATERIALIZED_POINTS = 16
MAX_OPENS = 1 << 16


class TopologyError(ValueError):
    """Invalid construction or a size guard violation."""


@dataclass(frozen=True, eq=False)
class FiniteSpace:
    """A finite point set together with its family of open sets."""

    points: tuple
    opens: tuple | None
    all_open: bool = False

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def materialized(self) -> bool:
        return self.opens is not None

    def is_open(self, mask: int) -> bool:
        if self.all_open:
            return 0 <= mask <= self.full_mask
        lookup = self.__dict__.get("_lookup")
        if lookup is None:
            lookup = frozenset(self.opens)
            object.__setattr__(self, "_lookup", lookup)
        return mask in lookup

    def index(self, label) -> int:
        return self.points.index(label)


@dataclass(frozen=True)
class PiBasis:
    """A family of nonempty open subsets of a referenced space."""

    space: FiniteSpace
    members: tuple


@dataclass(frozen=True)
class PointMap:
    """Total map between finite spaces, target point index per source index."""

    source: FiniteSpace
    target: FiniteSpace
    assignment: tuple

    def __post_init__(self):
        if len(self.assignment) != self.source.n:
            raise TopologyError("assignment must cover every source point")
        for t in self.assignment:
            if not 0 <= t < self.target.n:
                raise TopologyError(f"target index {t} out of range")

    def __call__(self, source_index: int) -> int:
        return self.assignment[source_index]


@dataclass(frozen=True)
class PiBasisCheck:
    holds: bool
    witness: int | None  # smallest open set containing no member, else None


@dataclass(frozen=True)
class ContinuityCheck:
    continuous: bool
    witness: int | None  # target open whose preimage is not open, else None


def _sorted_opens(masks) -> tuple:
    return tuple(sorted(set(masks), key=lambda m: (m.bit_count(), m)))


def minimal_neighborhoods(n: int, generators) -> list:
    """Per point, the intersection of all generators containing it.

    Points hit by no generator get the whole space.
    """
    full = (1 << n) - 1
    out = []
    for x in range(n):
        u = full
        for g in generators:
            if (g >> x) & 1:
                u &= g
        out.append(u)
    return out


def _unions_of(n_points: int, basis_masks) -> tuple:
    """All unions of the given masks (the generated open-set family)."""
    basis = sorted(set(basis_masks))
    k = len(basis)
    if k > 20:
        raise TopologyError(
            f"cannot materialize opens from {k} distinct minimal neighborhoods")
    unions = [0] * (1 << k)
    for t in range(1, 1 << k):
        low = t & -t
        unions[t] = unions[t ^ low] | basis[low.bit_length() - 1]
    opens = set(unions)
    if len(opens) > MAX_OPENS:
        raise TopologyError(f"more than {MAX_OPENS} opens would materialize")
    return _sorted_opens(opens)


def space_from_generators(points, generators) -> FiniteSpace:
    """Space whose topology is generated by the given subbasis masks."""
    n = len(points)
    if n > MAX_MATERIALIZED_POINTS + 4:
        raise TopologyError(f"too many points ({n}) to materialize a topology")
    nbhds = minimal_neighborhoods(n, list(generators))
    return FiniteSpace(tuple(points), _unions_of(n, nbhds))


def check_invariants(space: FiniteSpace) -> None:
    """Exhaustively verify the open-family axioms; raises on violation."""
    if space.all_open:
        return
    opens = set(space.opens)
    if 0 not in opens or space.full_mask not in opens:
        raise TopologyError("opens must contain the empty set and the full set")
    for a, b in itertools.combinations(opens, 2):
        if a | b not in opens:
            raise TopologyError(f"union {a | b:#x} of opens is not open")
        if a & b not in opens:
            raise TopologyError(f"intersection {a & b:#x} of opens is not open")


# ---------------------------------------------------------------------------
# builders


def discrete_cube(m: int) -> FiniteSpace:
    """Discrete topology on {0,1}^m; all subsets are open."""
    if not 1 <= m <= 16:
        raise TopologyError("discrete_cube requires 1 <= m <= 16")
    points = tuple(format(i, f"0{m}b") for i in range(1 << m))
    n = len(points)
    if n <= MAX_MATERIALIZED_POINTS:
        return FiniteSpace(points, _sorted_opens(range(1 << n)))
    return FiniteSpace(points, None, all_open=True)


def sierpinski() -> FiniteSpace:
    """Two points a, b with opens {}, {a}, {a,b}."""
    return FiniteSpace(("a", "b"), _sorted_opens((0b00, 0b01, 0b11)))


def convergent_model(num_isolated: int, m: int) -> FiniteSpace:
    """Finite model of a cube with an attached convergent isolated sequence.

    Points are N isolated pairs (h_i, 1/i), the h_i walking {0,1}^m in
    binary order cyclically, plus one base point (f, 0) per cube vertex f.
    Generators are the isolated singletons and, for every f occurring in
    the h-sequence, the tail-and-cylinder neighborhoods

        {(f,0)} | {(h_i, 1/i) : i >= j, h_i agrees with f on S}

    for every coordinate set S and every tail index j not beyond the last
    occurrence of f. Restricting j that way keeps the family closed under
    same-point intersections, so every open neighborhood of a base point
    contains an isolated point and the minimal opens are exactly the N
    isolated singletons.
    """
    if num_isolated < 1 or m < 1:
        raise TopologyError("convergent_model requires N >= 1 and m >= 1")
    n_base = 1 << m
    n = num_isolated + n_base
    if n > MAX_MATERIALIZED_POINTS:
        raise TopologyError(
            f"convergent_model({num_isolated}, {m}) has {n} points; "
            f"materialization is capped at {MAX_MATERIALIZED_POINTS}")
    h = [format(i % n_base, f"0{m}b") for i in range(num_isolated)]
    iso_points = [(h[i], f"1/{i + 1}") for i in range(num_isolated)]
    base_points = [(format(f, f"0{m}b"), "0") for f in range(n_base)]
    points = tuple(iso_points + base_points)

    gens = [1 << i for i in range(num_isolated)]
    last_occurrence: dict[str, int] = {}
    for i, hf in enumerate(h):
        last_occurrence[hf] = i
    for f_idx in range(n_base):
        f = format(f_idx, f"0{m}b")
        if f not in last_occurrence:
            continue  # no repeat in the sequence: only the whole space remains
        base_bit = 1 << (num_isolated + f_idx)
        for coords in itertools.chain.from_iterable(
                itertools.combinations(range(m), r) for r in range(m + 1)):
            for j in range(last_occurrence[f] + 1):
                mask = base_bit
                for i in range(j, num_isolated):
                    if all(h[i][c] == f[c] for c in coords):
                        mask |= 1 << i
                gens.append(mask)
    return space_from_generators(points, gens)


def custom_space(points, opens) -> FiniteSpace:
    """Space from an explicit open family, validated by regeneration."""
    n = len(points)
    masks = set(int(o) for o in opens)
    full = (1 << n) - 1
    for o in masks:
        if not 0 <= o <= full:
            raise TopologyError(f"open set {o:#x} is not a subset of the points")
    masks.add(0)
    masks.add(full)
    space = space_from_generators(points, masks)
    if set(space.opens) != masks:
        raise TopologyError("family is not closed under union and intersection")
    return space


def product_space(a: FiniteSpace, b: FiniteSpace) -> FiniteSpace:
    """Product topology; point (i, j) gets index i * b.n + j."""
    points = tuple((pa, pb) for pa in a.points for pb in b.points)
    n = len(points)
    if a.all_open and b.all_open:
        if n <= MAX_MATERIALIZED_POINTS:
            return FiniteSpace(points, _sorted_opens(range(1 << n)))
        return FiniteSpace(points, None, all_open=True)
    ua = _materialized_neighborhoods(a)
    ub = _materialized_neighborhoods(b)
    rects = set()
    for x in range(a.n):
        for y in range(b.n):
            rects.add(_rectangle_mask(ua[x], ub[y], b.n))
    return FiniteSpace(points, _unions_of(n, rects))


def _materialized_neighborhoods(space: FiniteSpace) -> list:
    if space.all_open:
        return [1 << x for x in range(space.n)]
    if not space.materialized():
        raise TopologyError("space has no materialized opens")
    return minimal_neighborhoods(space.n, space.opens)


def _rectangle_mask(mask_a: int, mask_b: int, nb: int) -> int:
    out = 0
    i = 0
    while mask_a >> i:
        if (mask_a >> i) & 1:
            out |= mask_b << (i * nb)
        i += 1
    return out


def product_pibasis(basis_a: PiBasis, basis_b: PiBasis,
                    product: FiniteSpace) -> PiBasis:
    """Pairwise rectangles of members, a pi-basis of the product space."""
    nb = basis_b.space.n
    members = tuple(_rectangle_mask(ma, mb, nb)
                    for ma in basis_a.members for mb in basis_b.members)
    return PiBasis(product, members)


# ---------------------------------------------------------------------------
# pi-bases and minimal opens


def is_pibasis(space: FiniteSpace, family) -> PiBasisCheck:
    """Does every nonempty open set contain some member of the family?

    Members must be nonempty and open; violating members are rejected as
    malformed input rather than reported as a failed property. On failure
    the witness is the smallest offending open set in enumeration order.
    """
    members = tuple(family.members if isinstance(family, PiBasis) else family)
    for mmask in members:
        if mmask == 0:
            raise TopologyError("pi-basis members must be nonempty")
        if not space.is_open(mmask):
            raise TopologyError(f"member {mmask:#x} is not open")
    if space.all_open:
        have = set(members)
        for x in range(space.n):
            if (1 << x) not in have:
                return PiBasisCheck(False, 1 << x)
        return PiBasisCheck(True, None)
    for o in space.opens:
        if o and not any(mm & o == mm for mm in members):
            return PiBasisCheck(False, o)
    return PiBasisCheck(True, None)


def minimal_open_sets(space: FiniteSpace) -> PiBasis:
    """All inclusion-minimal nonempty opens; the smallest possible pi-basis.

    Its cardinality is the pi-weight of the space, and every pi-basis must
    contain each of these sets.
    """
    if space.all_open:
        return PiBasis(space, tuple(1 << x for x in range(space.n)))
    found: list[int] = []
    for o in space.opens:  # popcount-sorted, so subsets come first
        if o and not any(mm & o == mm for mm in found):
            found.append(o)
    return PiBasis(space, tuple(found))


def pi_weight(space: FiniteSpace) -> int:
    return len(minimal_open_sets(space).members)


# ---------------------------------------------------------------------------
# continuous maps


def preimage_mask(point_map: PointMap, target_mask: int) -> int:
    out = 0
    for x, t in enumerate(point_map.assignment):
        if (target_mask >> t) & 1:
            out |= 1 << x
    return out


def is_continuous_map(point_map: PointMap) -> ContinuityCheck:
    """Preimage of every target open must be open in the source."""
    src, tgt = point_map.source, point_map.target
    if tgt.all_open:
        # closure under unions: singleton preimages suffice
        targets = (1 << y for y in range(tgt.n))
    else:
        targets = tgt.opens
    for o in targets:
        if not src.is_open(preimage_mask(point_map, o)):
            return ContinuityCheck(False, o)
    return ContinuityCheck(True, None)


def compose(inner: PointMap, outer: PointMap) -> PointMap:
    """outer after inner; requires inner.target == outer.source."""
    if inner.target is not outer.source and inner.target.points != outer.source.points:
        raise TopologyError("composition requires matching intermediate spaces")
    return PointMap(inner.source, outer.target,
                    tuple(outer.assignment[t] for t in inner.assignment))


def first_coordinate_projection(model: FiniteSpace, cube: FiniteSpace) -> PointMap:
    """Convergent-model point (s, height) to the cube vertex s."""
    cube_index = {label: k for k, label in enumerate(cube.points)}
    return PointMap(model, cube,
                    tuple(cube_index[label[0]] for label in model.points))


def zero_level_embedding(cube: FiniteSpace, model: FiniteSpace) -> PointMap:
    """Cube vertex f to the model base point (f, 0)."""
    model_index = {label: k for k, label in enumerate(model.points)}
    return PointMap(cube, model,
                    tuple(model_index[(label, "0")] for label in cube.points))


# ---------------------------------------------------------------------------
# serialization


def space_to_text(space: FiniteSpace) -> str:
    """One ``points: n`` line, then one hexadecimal mask per open set."""
    if not space.materialized():
        raise TopologyError("cannot serialize a space without materialized opens")
    lines = [f"points: {space.n}"]
    lines.extend(format(o, "#x") for o in space.opens)
    return "\n".join(lines) + "\n"


def space_from_text(text: str, points=None) -> FiniteSpace:
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("points:"):
        raise TopologyError("expected a leading 'points: <n>' line")
    n = int(lines[0].split(":", 1)[1])
    labels = tuple(points) if points is not None else tuple(range(n))
    if len(labels) != n:
        raise TopologyError("label count does not match the points line")
    masks = [int(ln, 16) for ln in lines[1:]]
    return custom_space(labels, masks)
