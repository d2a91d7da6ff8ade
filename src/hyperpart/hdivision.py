"""Hyperplane-realizable partitions of a configuration, and constructions on them.

Two entries return the realizable partitions.  ``hyperplane_division`` is
brute force: every bipartition of the ids is handed to the exact separability
oracle, so the result is exhaustive by construction, and every member comes
with a checked witness hyperplane.  ``realizable_division`` returns the member
set alone, with no LP, read by recursion on flats.  Points that do not span
R^dim are carried onto coordinates of their span.  Points that do span it make
every cell of the dual arrangement a pointed cone, so every cell has a vertex:
a hyperplane spanned by dim affinely independent points (Cover, 1965;
Edelsbrunner, O'Rourke and Seidel, 1986), which on degenerate input may hold
more of them (Zaslavsky, 1975).  The points off it take their side, and the
points on it take the sides of the members of their own configuration inside
it, in dimension dim-1; in general position those are the dim spanning points,
which take all 2^dim patterns.  The count is checked against
``partition_count``: equal to it in general position, and otherwise between n
(the prefix splits along a generic direction, plus the trivial member) and
``partition_count`` (a perturbation into general position keeps every member).
``member_witness`` solves one member's witness on its own: the system
``hyperplane_division`` builds for that member, hence the same hyperplane.

On top sit three coordinate constructions, each of which recomputes the member
set of its output and checks the combinatorial identity it exists to produce —
a failed check raises VerificationError because these identities are facts,
not hopes.  The first two need general position and solve only the witnesses
they read.

* ``shrink_to_min``    — slide one point toward another until the pair's
  separating-member count drops to its minimum possible value.
* ``projective_flip``  — send a witness of a member to infinity, exchanging the
  members that separate a pair with those that do not.
* ``perturb``          — jiggle a degenerate configuration into general
  position without losing any realizable partition.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from operator import mul
from typing import Optional

from .counting import min_transversal_size, partition_count
from .errors import DomainError, InvalidConfig, VerificationError
from .geometry import (
    Hyperplane,
    Point,
    PointConfig,
    _det,
    _pivot_columns,
    general_position,
    one_side_hyperplane,
    realize,
    strict_separate,
)
from .partitions import (
    Division,
    Partition,
    nonseparating_members,
    separating_members,
)

MAX_PLACEMENT_ATTEMPTS = 64


@dataclass(frozen=True)
class HyperplaneDivision:
    """All partitions of a configuration realizable by a hyperplane.

    ``witnesses`` maps every member to one realizing hyperplane; the trivial
    member's witness has the whole configuration on the positive side.
    """

    config: PointConfig
    division: Division
    witnesses: dict[Partition, Hyperplane]

    @property
    def members(self) -> tuple[Partition, ...]:
        return self.division.members

    def __len__(self) -> int:
        return len(self.division)

    def witness(self, member: Partition) -> Hyperplane:
        try:
            return self.witnesses[member]
        except KeyError:
            raise DomainError(f"no witness stored for {member!r}") from None


def hyperplane_division(config: PointConfig) -> HyperplaneDivision:
    """Enumerate every hyperplane-realizable partition, with witnesses.

    All 2^(n-1) - 1 bipartitions are tested exactly; the trivial partition is
    always realizable (any hyperplane strictly to one side of the points).
    Every witness is checked to realize its member, with no point on it.
    """
    ids = config.ids
    n = len(ids)
    trivial = Partition((ids,))
    members = [trivial]
    witnesses: dict[Partition, Hyperplane] = {
        trivial: one_side_hyperplane(config.points, config.dim)
    }
    head, rest = config.points[0], config.points[1:]
    for mask in range((1 << (n - 1)) - 1):
        side_a = [head]
        side_b = []
        for i, p in enumerate(rest):
            (side_a if mask >> i & 1 else side_b).append(p)
        found = strict_separate(side_a, side_b, config.dim)
        if found is not None:
            member = Partition(
                (tuple(p.id for p in side_a), tuple(p.id for p in side_b))
            )
            members.append(member)
            witnesses[member] = found
    for member, plane in witnesses.items():
        check_witness(plane, member, config)
    return HyperplaneDivision(config, Division(frozenset(ids), tuple(members)), witnesses)


def check_witness(plane: Hyperplane, member: Partition, config: PointConfig) -> None:
    """VerificationError unless ``plane`` realizes ``member``, no point on it."""
    try:
        induced = realize(plane, config)
    except DomainError as err:
        raise VerificationError(f"witness of {member!r} is invalid: {err}") from err
    if induced != member:
        raise VerificationError(f"witness of {member!r} realizes {induced!r}")


def realizable_division(config: PointConfig) -> Division:
    """Every hyperplane-realizable partition, without witnesses.

    The points are scaled to integers by one common denominator and the
    members are read off the hyperplanes they span (``_flat_sides``): a
    vertex of a cell holds dim or more points, the points off it take their
    side, and the points on it take the sides of their own member set inside
    the vertex hyperplane, one dimension down.  In general position each
    vertex holds exactly dim points, which take all 2^dim patterns, and with
    at most dim points every bipartition is a member.  No LP is solved.

    The count is checked against ``partition_count``: equal to it in general
    position, and otherwise, with no closed form, between two bounds: at
    least n, the n-1 prefix splits along a generic direction plus the
    trivial member, and at most ``partition_count``, since a perturbation
    into general position keeps every member.
    """
    ids = config.ids
    n, dim = len(ids), config.dim
    den = lcm(*(p.scaled[1] for p in config.points))
    points = [
        (1 << i, tuple(v * (den // d) for v in ints))
        for i, (ints, d) in enumerate(p.scaled for p in config.points)
    ]
    division = Division(
        frozenset(ids), tuple(_from_mask(ids, first) for first in _flat_sides(points, dim))
    )
    most = partition_count(dim, n)
    least = most if config.orientations is not None else n
    if not least <= len(division) <= most:
        raise VerificationError(
            f"read {len(division)} members off the spanned hyperplanes, "
            f"expected {least} to {most}"
        )
    return division


def _flat_sides(points: list[tuple[int, tuple[int, ...]]], dim: int) -> set[int]:
    """The members of distinct integer points in R^dim, each as the bitmask of
    its block holding the first point's bit; a point is ``(bit, coords)``.

    Points that do not affinely span R^dim are carried onto the coordinates
    where their differences have pivots, which is one-to-one on their span;
    a hyperplane of R^dim meets the span in a hyperplane of it or misses it.
    Points that span R^dim make every cell of the dual arrangement a pointed
    cone, so each cell has a vertex: a hyperplane H spanned by dim of the
    points.  Off H a point takes its side of H; the points on H take the
    sides of any member of their own, found in dimension dim-1 by dropping a
    coordinate where H's normal is nonzero (with exactly dim points on H,
    that is every pattern).  A small tilt of H realizes each combination.
    """
    everything = sum(bit for bit, _ in points)
    head, base = points[0]
    pivots = _pivot_columns([[x - b for x, b in zip(coords, base)] for _, coords in points[1:]])
    if len(pivots) < dim:
        if not pivots:
            return {everything}
        span = [(bit, tuple(coords[j] for j in pivots)) for bit, coords in points]
        return _flat_sides(span, len(pivots))
    sides = {everything}
    spanned = set()
    for span in combinations(points, dim):
        origin = span[0][1]
        rows = [[x - o for x, o in zip(coords, origin)] for _, coords in span[1:]]
        normal = [(-1) ** j * _det([row[:j] + row[j + 1:] for row in rows]) for j in range(dim)]
        if not any(normal):
            continue
        offset = sum(map(mul, normal, origin))
        plus = on = 0
        for bit, coords in points:
            value = sum(map(mul, normal, coords)) - offset
            if value > 0:
                plus |= bit
            elif not value:
                on |= bit
        if on in spanned:
            continue
        spanned.add(on)
        if on.bit_count() == dim:
            inside = _submasks(on)
        else:
            j = next(j for j, v in enumerate(normal) if v)
            flat = [(bit, coords[:j] + coords[j + 1:]) for bit, coords in points if bit & on]
            # either block of a member on H's positive side: both orientations of H
            inside = [m for first in _flat_sides(flat, dim - 1) for m in (first, on ^ first)]
        for pattern in inside:
            side = plus | pattern
            sides.add(side if side & head else everything ^ side)
    return sides


def _from_mask(ids: tuple[int, ...], first: int) -> Partition:
    """The partition of ``ids`` whose first block is at the positions set in
    ``first``."""
    blocks: tuple[list[int], list[int]] = ([], [])
    for i, x in enumerate(ids):
        blocks[not first >> i & 1].append(x)
    return Partition(tuple(tuple(block) for block in blocks if block))


def _submasks(mask: int):
    """Every bitmask inside ``mask``."""
    sub = mask
    while True:
        yield sub
        if not sub:
            return
        sub = (sub - 1) & mask


def member_witness(config: PointConfig, member: Partition) -> Hyperplane:
    """The witness ``hyperplane_division`` stores for ``member``, solved alone.

    The system is the one the enumeration builds for that member: the block
    holding the lowest id on the positive side, each side in increasing id
    order; the trivial member gets ``one_side_hyperplane``.  The plane is
    checked with ``check_witness``.  A member that is not realizable is a
    VerificationError.
    """
    if member.support != frozenset(config.ids):
        raise DomainError(f"{member!r} is not a partition of the configuration's ids")
    if member.is_trivial:
        plane = one_side_hyperplane(config.points, config.dim)
    else:
        first = frozenset(member.blocks[0])  # blocks are ordered by least id
        plane = strict_separate(
            [p for p in config.points if p.id in first],
            [p for p in config.points if p.id not in first],
            config.dim,
        )
        if plane is None:
            raise VerificationError(f"{member!r} is not realizable")
    check_witness(plane, member, config)
    return plane


@dataclass(frozen=True)
class ShrinkResult:
    config: PointConfig
    moved_id: int
    toward_id: int
    scale: Fraction
    separating_size: int
    attempts: int
    division: Division  # of the shrunk configuration


def shrink_to_min(config: PointConfig, a: int, b: int) -> ShrinkResult:
    """Replace point a by a point on the open segment toward b, chosen so that
    the number of members separating the pair hits its minimum.

    The replacement c keeps a's id and is halved toward b until (1) it differs
    from every remaining point, (2) it lies strictly on b's side of the
    witness of every member separating a and b, and (3) the new configuration
    is in general position.  Those three conditions force the separating
    count of (c, b) to equal the closed-form minimum; that count is recomputed
    and checked, and the shrunk configuration's member set is returned with
    it.  Only the separating members' witnesses are solved.
    """
    if a == b:
        raise DomainError("choose two distinct ids")
    pa, pb = config.point(a), config.point(b)
    if not general_position(config):
        raise DomainError("the configuration must be in general position")
    watched = []
    for member in separating_members(realizable_division(config), a, b):
        plane = member_witness(config, member)
        watched.append((plane, plane.side_of(pb)))
    keep = tuple(p for p in config.points if p.id != a)
    taken = {p.coords for p in keep}
    scale = Fraction(1, 2)
    for attempt in range(1, MAX_PLACEMENT_ATTEMPTS + 1):
        c = tuple(bx + scale * (ax - bx) for ax, bx in zip(pa.coords, pb.coords))
        candidate: Optional[PointConfig] = None
        if c not in taken and all(h.side_of(c) == side for h, side in watched):
            candidate = PointConfig(config.dim, keep + (Point(a, c),), config.colors)
            if not general_position(candidate):
                candidate = None
        if candidate is not None:
            division = realizable_division(candidate)
            size = len(separating_members(division, a, b))
            expected = min_transversal_size(config.dim, len(config))
            if size != expected:
                raise VerificationError(
                    f"moved-pair separating count is {size}, expected {expected}"
                )
            return ShrinkResult(candidate, a, b, scale, size, attempt, division)
        scale /= 2
    raise DomainError(
        f"no valid placement after {MAX_PLACEMENT_ATTEMPTS} halvings toward {b}"
    )


@dataclass(frozen=True)
class FlipResult:
    config: PointConfig
    pair: tuple[int, int]
    base: Partition
    partition_map: dict[Partition, Partition]
    separating_before: int
    separating_after: int
    total: int


def projective_flip(
    config: PointConfig, a: int, b: int, base_index: int
) -> FlipResult:
    """Send the witness of the base to infinity: the member at ``base_index``
    among those separating a and b, in the division's canonical order.

    Concretely the configuration is carried through x -> x / (L.x - 1), where
    L.x = 1 is the witness hyperplane (after a translation when it passes
    through the origin).  A partition realized by a hyperplane on the original
    points maps to the partition whose two groups are XORed with ``base``'s
    sides, which exchanges the members separating the pair with those that do
    not.  Only the base's witness is solved; the exchange — a bijection making
    the two separating counts sum to the general-position total — is checked
    exactly on the image's member set.
    """
    if not general_position(config):
        raise DomainError("the configuration must be in general position")
    division = realizable_division(config)
    before = separating_members(division, a, b)
    if not 0 <= base_index < len(before):
        raise DomainError(
            f"base index {base_index} out of range "
            f"(pair has {len(before)} separating members)"
        )
    base = before[base_index]
    witness = member_witness(config, base)
    work = config
    if witness.offset == 0:
        # slide everything by the normal; the witness then misses the origin
        work = config.translate(witness.normal)
        witness = Hyperplane(
            witness.normal, sum(x * x for x in witness.normal)
        )
    lam = tuple(x / witness.offset for x in witness.normal)
    flipped_points = []
    for p in work.points:
        s = sum(l * x for l, x in zip(lam, p.coords)) - 1
        if s == 0:
            raise VerificationError(f"the base's witness passes through point {p.id}")
        flipped_points.append(Point(p.id, tuple(x / s for x in p.coords)))
    flipped = PointConfig(config.dim, tuple(flipped_points), config.colors)

    base_first = frozenset(base.blocks[0])

    def image_of(member: Partition) -> Partition:
        first = frozenset(member.blocks[0])
        same, swapped = [], []
        for x in config.ids:
            ((same if (x in first) == (x in base_first) else swapped)).append(x)
        return Partition(tuple(tuple(s) for s in (same, swapped) if s))

    mapping = {member: image_of(member) for member in division.members}

    if not general_position(flipped):
        raise VerificationError("flipped configuration left general position")
    after_div = realizable_division(flipped)
    if set(mapping.values()) != set(after_div.members):
        raise VerificationError("side-exchange map is not onto the flipped members")
    after = separating_members(after_div, a, b)
    total = partition_count(config.dim, len(config))
    if len(before) + len(after) != total:
        raise VerificationError(
            f"separating counts {len(before)} + {len(after)} != {total}"
        )
    if {mapping[m] for m in nonseparating_members(division, a, b)} != set(after):
        raise VerificationError("exchange does not pair non-separators with separators")
    return FlipResult(
        config=flipped,
        pair=(a, b),
        base=base,
        partition_map=mapping,
        separating_before=len(before),
        separating_after=len(after),
        total=total,
    )


@dataclass(frozen=True)
class PerturbResult:
    config: PointConfig
    attempts: int
    count_before: int
    count_after: int


def perturb(config: PointConfig, seed: int) -> PerturbResult:
    """Move every coordinate by a tiny seeded rational so that the result is in
    general position while every realizable partition of the original ids stays
    realizable.  The offset magnitude halves on each failed attempt."""
    if len(config) < 2:
        raise DomainError("perturbation needs at least two points")
    original = realizable_division(config)
    rng = random.Random(f"perturb:{seed}")
    for attempt in range(1, MAX_PLACEMENT_ATTEMPTS + 1):
        den = 1 << (15 + attempt)
        try:
            candidate = PointConfig(
                config.dim,
                tuple(
                    Point(
                        p.id,
                        tuple(
                            x + Fraction(rng.randint(-65535, 65535), den)
                            for x in p.coords
                        ),
                    )
                    for p in config.points
                ),
                config.colors,
            )
        except InvalidConfig:  # two jiggled points collided; try again smaller
            continue
        if not general_position(candidate):
            continue
        moved = realizable_division(candidate)
        if all(member in moved for member in original.members):
            return PerturbResult(candidate, attempt, len(original), len(moved))
    raise DomainError(
        f"no general-position perturbation preserved all partitions in "
        f"{MAX_PLACEMENT_ATTEMPTS} attempts"
    )
