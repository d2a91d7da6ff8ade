"""Hyperplane-realizable partitions of a configuration, and constructions on them.

Two entries return the realizable partitions.  ``hyperplane_division`` is
brute force: every bipartition of the ids is handed to the exact separability
oracle, so the result is exhaustive by construction, and every member comes
with a checked witness hyperplane.  ``realizable_division`` returns the member
set alone, with no LP: the partitions of ``member_masks``, which holds each
member as a point bitmask.  Points that span R^dim make every cell of the
dual arrangement a pointed cone, so every cell has a vertex: a hyperplane
spanned by dim affinely independent points (Cover, 1965; Edelsbrunner,
O'Rourke and Seidel, 1986), which on degenerate input may hold more of them
(Zaslavsky, 1975).  The points off it take their side, and the points on it
take the sides of the members of their own configuration inside it, in
dimension dim-1.  One read (``_flat_sides``) serves every input: every side
and every "on" is a sign of the orientation table, zeros included, so no
hyperplane of the configuration is computed again.  A hyperplane holding
only its dim spanning points gives them all 2^dim patterns; a flat holding
more is read as a configuration of its own, once per read however many
spanned hyperplanes hold it, and points that do not span R^dim are carried
onto coordinates of their span, with a table of their own.  The count is
checked against ``partition_count``: equal to it in general position, and
otherwise between n (the prefix splits along a generic direction, plus the
trivial member) and ``partition_count`` (a perturbation into general
position keeps every member).
A subset's members are the traces of the configuration's members, so
``restricted_masks`` reads them off its masks with no geometry, under the same
count check.  ``ordered_members`` lists the masks in the division's canonical
order with their blocks, for the reports that build no ``Partition``.
Every witness of a nontrivial member is ``split_witness`` of its two blocks,
whose plane depends on the blocks as sets, not on any order of their points
(see ``linsolve``).  So ``member_witness``, which solves one member's witness
on its own, returns the hyperplane ``hyperplane_division`` stores for it.

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
from typing import Iterable, Optional, Sequence

from .counting import min_transversal_size, partition_count
from .errors import DomainError, InvalidConfig, VerificationError
from .geometry import (
    Hyperplane,
    Point,
    PointConfig,
    _carried,
    _chirotope,
    general_position,
    one_side_hyperplane,
    realize,
    strict_separate,
)
from .partitions import (
    Division,
    Partition,
    at_bits,
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
    everything = (1 << len(ids)) - 1
    trivial = Partition((ids,))
    members = [trivial]
    witnesses: dict[Partition, Hyperplane] = {
        trivial: one_side_hyperplane(config.points, config.dim)
    }
    for mask in range(1, everything, 2):  # every side holding the first point, less all points
        first = at_bits(ids, mask)
        found = split_witness(config, first)
        if found is not None:
            member = Partition((tuple(first), tuple(at_bits(ids, everything ^ mask))))
            members.append(member)
            witnesses[member] = found
    for member, plane in witnesses.items():
        check_witness(plane, member, config)
    return HyperplaneDivision(config, Division(frozenset(ids), tuple(members)), witnesses)


def split_witness(config: PointConfig, first: Iterable[int]) -> Optional[Hyperplane]:
    """``strict_separate`` of the configuration's points with the ids of
    ``first``, the side holding the lowest id, from the rest: a hyperplane
    with ``first`` on its positive side, or None when the two hulls meet.
    The plane depends on the two sides as sets, not on any order within
    them (see ``linsolve``)."""
    first = frozenset(first)
    sides: tuple[list[Point], list[Point]] = ([], [])
    for p in config.points:
        sides[p.id not in first].append(p)
    return strict_separate(*sides, config.dim)


def check_witness(plane: Hyperplane, member: Partition, config: PointConfig) -> None:
    """VerificationError unless ``plane`` realizes ``member``, no point on it."""
    try:
        induced = realize(plane, config)
    except DomainError as err:
        raise VerificationError(f"witness of {member!r} is invalid: {err}") from err
    if induced != member:
        raise VerificationError(f"witness of {member!r} realizes {induced!r}")


def realizable_division(config: PointConfig) -> Division:
    """Every hyperplane-realizable partition, without witnesses."""
    return division_of_masks(config.ids, member_masks(config))


def member_masks(config: PointConfig) -> frozenset[int]:
    """Every hyperplane-realizable partition as a point bitmask, bit t for the
    t-th point in id order, each member by its block holding the first point.
    Read with no LP off the configuration's orientation table
    (``_flat_sides`` on ``integer_points``), on every input, each flat once,
    and count-checked."""
    points = [(1 << i, coords) for i, coords in enumerate(config.integer_points)]
    masks = frozenset(_flat_sides(points, config.dim, config.orientations.values(), {}))
    return _counted(masks, config.dim, len(points), general_position(config))


def ordered_members(config: PointConfig) -> list[tuple[int, list[list[int]]]]:
    """``member_masks`` in the canonical order of ``realizable_division``'s
    members, each with its blocks as lists of ids: the block holding the
    first point, then the rest unless it is empty.  Members differ in their
    first blocks, so these order them as the block tuples do."""
    ids = config.ids
    everything = (1 << len(ids)) - 1
    split = sorted(
        (at_bits(ids, first), at_bits(ids, everything ^ first), first)
        for first in member_masks(config)
    )
    return [(first, [inside, rest] if rest else [inside]) for inside, rest, first in split]


def restricted_masks(
    masks: frozenset[int], positions: Sequence[int], dim: int, general: bool
) -> frozenset[int]:
    """The member masks of the subset at increasing ``positions`` (the order
    ``PointConfig.subset`` keeps), from the member masks of a configuration
    in R^dim, in general position when ``general`` (and with it the subset).

    A member's trace on the subset is a member of it.  Conversely, a
    hyperplane realizing a member of the subset, moved parallel by less than
    its least nonzero distance to a point, misses every point and realizes a
    member with that trace.  So the subset's members are the traces, each by
    its block holding the subset's first point; a one-sided trace is the
    trivial member.  Witness extraction reads its representatives' members
    here as color bitmasks, building ``Partition``s only for those it reports.
    """
    everything = (1 << len(positions)) - 1
    members = frozenset(t if t & 1 else everything ^ t for t in traces(masks, positions))
    return _counted(members, dim, len(positions), general)


def traces(masks: Iterable[int], positions: Sequence[int]) -> list[int]:
    """Each mask's bits at increasing ``positions``, the t-th moved to bit t,
    gathered position by position."""
    masks = list(masks)
    gathered = [0] * len(masks)
    for t, at in enumerate(positions):  # t <= at
        shift, bit = at - t, 1 << t
        gathered = [trace | mask >> shift & bit for trace, mask in zip(gathered, masks)]
    return gathered


def _counted(masks: frozenset[int], dim: int, n: int, general: bool) -> frozenset[int]:
    """``masks``, the members of n points, once their count is checked."""
    most = partition_count(dim, n)
    least = most if general else n
    if not least <= len(masks) <= most:
        raise VerificationError(f"{len(masks)} members of {n} points, expected {least} to {most}")
    return masks


def division_of_masks(ids: tuple[int, ...], masks: Iterable[int]) -> Division:
    """The division of ``ids`` whose members have their first blocks at the
    positions set in each of ``masks``."""
    members = []
    for first in masks:
        blocks: tuple[list[int], list[int]] = ([], [])
        for i, x in enumerate(ids):
            blocks[not first >> i & 1].append(x)
        members.append(Partition(tuple(tuple(block) for block in blocks if block)))
    return Division(frozenset(ids), tuple(members))


def _flat_sides(
    points: list[tuple[int, tuple[int, ...]]], dim: int, signs: Iterable[int],
    read: dict[int, set[int]],
) -> set[int]:
    """The members of distinct integer points in R^dim, each as the bitmask of
    its block holding the first point's bit; a point is ``(bit, coords)`` and
    ``signs`` is their orientation table in the order of ``combinations``.
    ``read`` holds the members of every flat read so far in this read of a
    configuration, by the flat's point mask.

    Points with no nonzero sign do not affinely span R^dim: ``_carried``
    takes them onto the coordinates where their differences have pivots,
    one-to-one on their span, and they are read there off a table of their
    own; a hyperplane of R^dim meets the span in a hyperplane of it or misses it.
    Points that span R^dim make every cell of the dual arrangement a pointed
    cone, so each cell has a vertex: a hyperplane H spanned by a dim-subset
    S.  A sign s holds dim+1 points in id order; the point in slot t lies on
    the positive side of the ``_spanned_normal`` of the other dim, taken in
    id order, exactly when s * (-1)^(dim-1) * (-1)^(dim-t) = s * (-1)^(t+1)
    is positive ((-1)^(dim-1) reads a side off an orientation with the
    point last, and moving the point from slot t to the end takes dim-t
    swaps), and on H when s is 0.  A dependent S has every point on its
    hyperplane and is skipped.  Off H a point takes its side of H; the
    points on H take the sides of any member of their own: with exactly dim
    of them (S) every pattern, with more the members of the flat, read by
    the same carry once, however many hyperplanes hold it (a collinear
    triple lies in a plane through each other point).  A small tilt of H
    realizes each combination.
    """
    bits = [bit for bit, _ in points]
    everything = sum(bits)
    if not any(signs):
        carried = _carried([coords for _, coords in points])
        dim = len(carried[0])
        if not dim:
            return {everything}
        points = list(zip(bits, carried))
        signs = _chirotope(carried, dim)
    plus = dict.fromkeys(map(sum, combinations(bits, dim)), 0)
    on = {span: span for span in plus}
    for combo, sign in zip(combinations(bits, dim + 1), signs):
        whole = sum(combo)
        if sign:
            for bit in combo[sign > 0::2]:  # positive: the odd slots when s > 0, else the even
                plus[whole ^ bit] |= bit
        else:
            for bit in combo:
                on[whole ^ bit] |= bit
    sides = {everything}
    flats = set()
    for span, above in plus.items():
        flat = on[span]
        if flat == span:
            inside = _submasks(span)
        elif flat == everything or flat in flats:
            continue
        else:
            flats.add(flat)
            members = read.get(flat)
            if members is None:  # no span: carried
                members = read[flat] = _flat_sides([p for p in points if p[0] & flat], dim, (), read)
            # either block of a member on H's positive side: both orientations of H
            inside = [m for first in members for m in (first, flat ^ first)]
        for pattern in inside:
            side = above | pattern
            sides.add(side if side & bits[0] else everything ^ side)
    return sides


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

    Both take ``split_witness`` of the member's blocks, the one holding the
    lowest id on the positive side, and its plane depends on the blocks as
    sets; the trivial member gets ``one_side_hyperplane``.  The plane is
    checked with ``check_witness``.  A member that is not realizable is a
    VerificationError.
    """
    if member.support != frozenset(config.ids):
        raise DomainError(f"{member!r} is not a partition of the configuration's ids")
    if member.is_trivial:
        plane = one_side_hyperplane(config.points, config.dim)
    else:
        plane = split_witness(config, member.blocks[0])  # blocks are ordered by least id
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
    input_division: Division  # of the configuration given


def shrink_to_min(config: PointConfig, a: int, b: int) -> ShrinkResult:
    """Replace point a by a point on the open segment toward b, chosen so that
    the number of members separating the pair hits its minimum.

    The replacement c keeps a's id and is halved toward b until (1) it differs
    from every remaining point, (2) it lies strictly on b's side of the
    witness of every member separating a and b, and (3) the new configuration
    is in general position.  Those three conditions force the separating
    count of (c, b) to equal the closed-form minimum; that count is recomputed
    and checked, and the member sets of the shrunk configuration and of the
    input are returned with it.  Only the separating members' witnesses are
    solved.
    """
    if a == b:
        raise DomainError("choose two distinct ids")
    pa, pb = config.point(a), config.point(b)
    if not general_position(config):
        raise DomainError("the configuration must be in general position")
    original = realizable_division(config)
    watched = []
    for member in separating_members(original, a, b):
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
            return ShrinkResult(candidate, a, b, scale, size, attempt, division, original)
        scale /= 2
    raise DomainError(
        f"no valid placement after {MAX_PLACEMENT_ATTEMPTS} halvings toward {b}"
    )


@dataclass(frozen=True)
class FlipResult:
    """``partition_map`` takes each member of the input to its image, keyed
    in the canonical order of ``realizable_division``'s members."""

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
    original = member_masks(config)
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
        moved = member_masks(candidate)  # the same ids in the same order: bit for bit
        if original <= moved:
            return PerturbResult(candidate, attempt, len(original), len(moved))
    raise DomainError(
        f"no general-position perturbation preserved all partitions in "
        f"{MAX_PLACEMENT_ATTEMPTS} attempts"
    )
