"""Hyperplane-realizable partitions of a configuration, and constructions on them.

The enumeration is brute force: every bipartition of the ids is handed to the
exact separability oracle, so the result is exhaustive by construction.  On top
of it sit three coordinate constructions, each of which recomputes the
enumeration on its output and checks the combinatorial identity it exists to
produce — a failed check raises VerificationError because these identities are
facts, not hopes.

* ``shrink_to_min``    — slide one point toward another until the pair's
  separating-member count drops to its minimum possible value.
* ``projective_flip``  — send a witness of the caller's division to infinity,
  exchanging the members that separate a pair with those that do not.
* ``perturb``          — jiggle a degenerate configuration into general
  position without losing any realizable partition.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .counting import min_transversal_size, partition_count
from .errors import DomainError, InvalidConfig, VerificationError
from .geometry import (
    Hyperplane,
    Point,
    PointConfig,
    general_position,
    one_side_hyperplane,
    realize,
    strict_separate,
)
from .partitions import (
    Division,
    Partition,
    nonseparating_members,
    restrict,
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

    def separating(self, a: int, b: int) -> tuple[Partition, ...]:
        return separating_members(self.division, a, b)

    def nonseparating(self, a: int, b: int) -> tuple[Partition, ...]:
        return nonseparating_members(self.division, a, b)

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


@dataclass(frozen=True)
class ShrinkResult:
    config: PointConfig
    moved_id: int
    toward_id: int
    scale: Fraction
    separating_size: int
    attempts: int
    division: HyperplaneDivision  # of ``config``, the shrunk configuration


def shrink_to_min(hdiv: HyperplaneDivision, a: int, b: int) -> ShrinkResult:
    """Replace point a by a point on the open segment toward b, chosen so that
    the number of members separating the pair hits its minimum.

    The replacement c keeps a's id and is halved toward b until (1) it differs
    from every remaining point, (2) it lies strictly on b's side of every
    stored witness of every member separating a and b, and (3) the new
    configuration is in general position.  Those three conditions force the
    separating count of (c, b) to equal the closed-form minimum; that count is
    recomputed and checked.  ``hdiv`` is the caller's division; only the
    shrunk configuration is enumerated, and its division is returned.
    """
    config = hdiv.config
    if a == b:
        raise DomainError("choose two distinct ids")
    pa, pb = config.point(a), config.point(b)
    if not general_position(config):
        raise DomainError("the configuration must be in general position")
    watched = [
        (hdiv.witnesses[m], hdiv.witnesses[m].side_of(pb))
        for m in hdiv.separating(a, b)
    ]
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
            shrunk = hyperplane_division(candidate)
            size = len(shrunk.separating(a, b))
            expected = min_transversal_size(config.dim, len(config))
            if size != expected:
                raise VerificationError(
                    f"moved-pair separating count is {size}, expected {expected}"
                )
            return ShrinkResult(candidate, a, b, scale, size, attempt, shrunk)
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
    hdiv: HyperplaneDivision, a: int, b: int, base: Partition
) -> FlipResult:
    """Send a witness of ``base`` (a member separating a and b) to infinity.

    Concretely the configuration is carried through x -> x / (L.x - 1), where
    L.x = 1 is the witness hyperplane (after a translation when it passes
    through the origin).  A partition realized by a hyperplane on the original
    points maps to the partition whose two groups are XORed with ``base``'s
    sides, which exchanges the members separating the pair with those that do
    not.  ``hdiv`` is the caller's division; only the image is enumerated, and
    the exchange — a bijection making the two separating counts sum to the
    general-position total — is checked exactly.
    """
    config = hdiv.config
    if not general_position(config):
        raise DomainError("the configuration must be in general position")
    before = hdiv.separating(a, b)
    if base not in set(before):
        raise DomainError("the chosen partition does not separate the pair")
    witness = hdiv.witnesses[base]
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
            raise VerificationError(f"stored witness passes through point {p.id}")
        flipped_points.append(Point(p.id, tuple(x / s for x in p.coords)))
    flipped = PointConfig(config.dim, tuple(flipped_points), config.colors)

    base_first = frozenset(base.blocks[0])

    def image_of(member: Partition) -> Partition:
        first = frozenset(member.blocks[0])
        same, swapped = [], []
        for x in config.ids:
            ((same if (x in first) == (x in base_first) else swapped)).append(x)
        return Partition(tuple(tuple(s) for s in (same, swapped) if s))

    mapping = {member: image_of(member) for member in hdiv.members}

    if not general_position(flipped):
        raise VerificationError("flipped configuration left general position")
    after_div = hyperplane_division(flipped)
    if set(mapping.values()) != set(after_div.members):
        raise VerificationError("side-exchange map is not onto the flipped members")
    after = after_div.separating(a, b)
    total = partition_count(config.dim, len(config))
    if len(before) + len(after) != total:
        raise VerificationError(
            f"separating counts {len(before)} + {len(after)} != {total}"
        )
    if {mapping[m] for m in hdiv.nonseparating(a, b)} != set(after):
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
    original = hyperplane_division(config)
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
        moved = hyperplane_division(candidate)
        if all(member in moved.division for member in original.members):
            return PerturbResult(candidate, attempt, len(original), len(moved))
    raise DomainError(
        f"no general-position perturbation preserved all partitions in "
        f"{MAX_PLACEMENT_ATTEMPTS} attempts"
    )


@dataclass(frozen=True)
class DeletionFiberReport:
    removed_id: int
    pair: tuple[int, int]
    count_full: int
    count_reduced: int
    separating_size: int
    max_fiber: int


def deletion_fiber_check(config: PointConfig, a: int, b: int) -> DeletionFiberReport:
    """Check how realizable partitions collapse when one point is removed.

    Restricting members to the ids without ``a`` must cover every realizable
    partition of the smaller configuration, with at most two members landing on
    each one; consequently the count can drop by at most the number of members
    separating (a, b).  Violations raise VerificationError.
    """
    if a == b:
        raise DomainError("choose two distinct ids")
    config.point(a)
    config.point(b)
    full = hyperplane_division(config)
    remaining = [i for i in config.ids if i != a]
    if not remaining:
        raise DomainError("cannot remove the only point")
    reduced = hyperplane_division(config.subset(remaining))
    fibers: dict[Partition, int] = {}
    for member in full.members:
        shadow = restrict(member, remaining)
        fibers[shadow] = fibers.get(shadow, 0) + 1
    if set(fibers) != set(reduced.members):
        raise VerificationError("restrictions do not cover the reduced enumeration")
    max_fiber = max(fibers.values())
    if max_fiber > 2:
        raise VerificationError(f"a reduced partition has {max_fiber} preimages")
    sep_size = len(full.separating(a, b))
    if len(full) - len(reduced) > sep_size:
        raise VerificationError(
            f"count drop {len(full) - len(reduced)} exceeds separating size {sep_size}"
        )
    return DeletionFiberReport(
        removed_id=a,
        pair=(a, b),
        count_full=len(full),
        count_reduced=len(reduced),
        separating_size=sep_size,
        max_fiber=max_fiber,
    )
