"""Finite topological spaces, pi-bases, pi-weight and continuous maps.

Points are opaque labels; an open set is a bit mask over the point order
(bit ``k`` set means ``points[k]`` belongs to the set). A space keeps, for
each point, the mask of its minimal open neighborhood: the smallest open
set containing it. These masks fix the topology (Alexandroff, 1937): the
opens are exactly their unions, and a set is open when it contains the
neighborhood of each of its points. Builders, membership, pi-basis and
continuity checks all work from the neighborhoods; the full open family,
sorted by (popcount, mask), is built only when it is asked for.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

MAX_MODEL_POINTS = 16
MAX_OPENS = 1 << 16


class TopologyError(ValueError):
    """Invalid construction or a size guard violation."""


@dataclass(frozen=True, eq=False)
class FiniteSpace:
    """A finite point set and the minimal open neighborhood of each point."""

    points: tuple
    nbhds: tuple  # nbhds[x]: mask of the smallest open set containing x

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @cached_property
    def opens(self) -> tuple:
        """Every open set in (popcount, mask) order, built on first use."""
        return _unions_of(self.nbhds)

    def is_open(self, mask: int) -> bool:
        if mask < 0 or mask >> self.n:
            return False
        return all(self.nbhds[x] | mask == mask for x in _bits(mask))

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


def _order(mask: int) -> tuple:
    """Enumeration order of opens: by popcount, then by mask."""
    return mask.bit_count(), mask


def _bits(mask: int):
    """Indices of the set bits of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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


def _unions_of(basis_masks) -> tuple:
    """All unions of the given masks in (popcount, mask) order."""
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
    return tuple(sorted(opens, key=_order))


def space_from_generators(points, generators) -> FiniteSpace:
    """Space whose topology is generated by the given subbasis masks."""
    if len(points) > 20:  # the most distinct neighborhoods _unions_of accepts
        raise TopologyError(f"too many points ({len(points)}) for a generated topology")
    nbhds = minimal_neighborhoods(len(points), list(generators))
    return FiniteSpace(tuple(points), tuple(nbhds))


def check_invariants(space: FiniteSpace) -> None:
    """Exhaustively verify the open-family axioms; raises on violation."""
    opens = set(space.opens)
    if 0 not in opens or space.full_mask not in opens:
        raise TopologyError("opens must contain the empty set and the full set")
    for a, b in itertools.combinations(opens, 2):
        if a | b not in opens:
            raise TopologyError(f"union {a | b:#x} of opens is not open")
        if a & b not in opens:
            raise TopologyError(f"intersection {a & b:#x} of opens is not open")
    if space.nbhds != tuple(minimal_neighborhoods(space.n, opens)):
        raise TopologyError("nbhds must hold the smallest open around each point")


# ---------------------------------------------------------------------------
# builders


def discrete_cube(m: int) -> FiniteSpace:
    """Discrete topology on {0,1}^m; all subsets are open."""
    if not 1 <= m <= 16:
        raise TopologyError("discrete_cube requires 1 <= m <= 16")
    points = tuple(format(i, f"0{m}b") for i in range(1 << m))
    return FiniteSpace(points, tuple(1 << x for x in range(len(points))))


def sierpinski() -> FiniteSpace:
    """Two points a, b with opens {}, {a}, {a,b}."""
    return FiniteSpace(("a", "b"), (0b01, 0b11))


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
    if n > MAX_MODEL_POINTS:  # keeps every model's opens small enough for space_to_text
        raise TopologyError(
            f"convergent_model({num_isolated}, {m}) has {n} points; "
            f"models are capped at {MAX_MODEL_POINTS}")
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
    # the smallest open around (x, y) is the rectangle of the two neighborhoods
    return FiniteSpace(points, tuple(_rectangle_mask(ua, ub, b.n)
                                     for ua in a.nbhds for ub in b.nbhds))


def _rectangle_mask(mask_a: int, mask_b: int, nb: int) -> int:
    out = 0
    for i in _bits(mask_a):
        out |= mask_b << (i * nb)
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
    A family of opens is a pi-basis exactly when it holds every minimal
    open, and the first minimal open it misses is that witness.
    """
    members = tuple(family.members if isinstance(family, PiBasis) else family)
    for mmask in members:
        if mmask == 0:
            raise TopologyError("pi-basis members must be nonempty")
        if not space.is_open(mmask):
            raise TopologyError(f"member {mmask:#x} is not open")
    # merge two (popcount, mask)-sorted lists; hashing large masks is slower
    have = iter(sorted(members, key=_order))
    mm = next(have, None)
    for u in minimal_open_sets(space).members:
        while mm is not None and _order(mm) < _order(u):
            mm = next(have, None)
        if mm != u:
            return PiBasisCheck(False, u)
    return PiBasisCheck(True, None)


def minimal_open_sets(space: FiniteSpace) -> PiBasis:
    """All inclusion-minimal nonempty opens; the smallest possible pi-basis.

    Its cardinality is the pi-weight of the space, and every pi-basis must
    contain each of these sets.
    """
    nbhds = space.nbhds
    # U = nbhds[x] is minimal when every point of U has U as its neighborhood;
    # keeping it only at its lowest point lists it once
    found = [u for x, u in enumerate(nbhds)
             if (u & -u).bit_length() - 1 == x and all(nbhds[y] == u for y in _bits(u))]
    return PiBasis(space, tuple(sorted(found, key=_order)))


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
    """Preimage of every target open must be open in the source.

    Preimages commute with unions, so the target's neighborhoods suffice;
    checked in (popcount, mask) order, the first failure is also the first
    failing open in enumeration order.
    """
    for o in sorted(set(point_map.target.nbhds), key=_order):
        if not point_map.source.is_open(preimage_mask(point_map, o)):
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
