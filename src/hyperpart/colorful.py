"""Colored separation machinery.

Two colors: separation by a single hyperplane, its exact halfspace dual (whose
nonempty intersection encodes separability of subsets through a designated
point), and extraction of small inseparable subsets by a decide-only scan.

The scan looks for the first inseparable subset of at most dim+2 points and
decides each candidate from orientation signs alone, with no solver
(Björner, Las Vergnas, Sturmfels, White and Ziegler, *Oriented Matroids*,
1999, §3.4-3.5).  A candidate of m points spanning dimension r is separable
when m <= r+1; when m = r+2 its labels must follow the signs of its one
affine dependence, which Cramer's rule reads off a table of orientations;
when m >= r+3 a smaller candidate decides first.  By Kirchberger's theorem
through an anchor, every inseparable configuration has an inseparable subset
of at most dim+2 points through the anchor, so the Kirchberger routes scan
first on every input and a hit decides "inseparable"; the direct LP runs
only for the hyperplane of a separable configuration, and the LP on the
halfspace dual (Helly's theorem) confirms either answer.

k colors: deciding whether a family of hyperplanes can split the classes
pairwise without cutting any class, and — when it cannot — extracting a small
subset that already cannot be split, whose size is controlled by the
transversal bound.

Both k-color questions reduce to two-sided color groupings: which bipartitions
of the color classes a hyperplane can realize.  One grouping table per
configuration answers them with no LP.  A grouping is realizable exactly when
its point mask is a member, so the table holds the configuration's member
masks, read once off the hyperplanes the points span
(``hdivision.member_masks``), and a grouping is one set lookup.  A subset's
questions (the representatives' division, the re-check of an extracted
witness, every subset of ``smallest_blocked_subset_size``) read the same
masks restricted to the subset (``hdivision.restricted_masks``): a subset's
members are the traces of the whole configuration's members, and its color
classes the traces of the classes, so no subset configuration is built.
Witness extraction works on color bitmasks (``_witness_report``) and
builds ``Partition``s only for the members it reports.
Only the groupings that end up in a certificate are solved for their
hyperplanes.  The cross-check ``is_partitionable_by_enumeration`` stays
independent of the member read: it decides each grouping by one
feasibility test of its halfspace dual (``_dual_rows``, ``is_feasible``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import AbstractSet, Iterable, Mapping, Optional, Sequence

from .counting import witness_size_bound
from .errors import DomainError, VerificationError
from .geometry import (
    Hyperplane,
    Point,
    PointConfig,
    _carried,
    _chirotope,
    general_position,
    one_side_hyperplane,
    strict_separate,
)
from .hdivision import check_witness, member_masks, restricted_masks, split_witness, traces
# bound here, unused: perfbench's tracer tests check that tracing rebinds it
# in this module
from .hdivision import hyperplane_division  # noqa: F401
from .linsolve import IntRow, feasible_point, is_feasible
from .partitions import Partition, at_bits, minimalize_masks, separating_sets


def _require_colors(config: PointConfig, most: Optional[int] = None) -> None:
    if config.colors is None:
        raise DomainError("this operation needs a colored configuration")
    if most is not None and config.k > most:
        raise DomainError(f"expected at most {most} colors, got {config.k}")


def color_separating_hyperplane(config: PointConfig) -> Optional[Hyperplane]:
    """A hyperplane with color class 0 in its positive open side and class 1 in
    its negative one, or None.  A single-colored configuration is trivially
    separable (one side simply stays empty)."""
    _require_colors(config, most=2)
    if config.k == 1:
        return one_side_hyperplane(config.points, config.dim)
    return split_witness(config, config.color_classes[0])  # class 0 holds the lowest id


@dataclass(frozen=True)
class HalfspaceSystem:
    """The dual system of open halfspaces for a 2-colored configuration and a
    designated base point (translated to the origin).

    Writing candidate separating hyperplanes through-the-origin-free as
    normal . x = 1 in base-point coordinates, each other point contributes one
    open halfspace of admissible normals: points colored like the base must
    stay on its side (normal . a < 1), the rest must not (normal . a > 1).
    Each is an integer row of a strict system, scaled by the denominators of
    the point and the base (``_dual_rows``).  The system has a common point
    exactly when the configuration is separable along the colors — that is
    Helly's theorem territory, and deciding it exactly is a plain
    feasibility question, in dim unknowns where the direct separation
    system has dim+1.
    """

    config: PointConfig
    base_id: int
    rows: tuple[IntRow, ...]

    def separating_hyperplane(self) -> Optional[Hyperplane]:
        """Translate a common point back into a hyperplane with color class 0
        positive, class 1 negative (same contract as the direct oracle).  A
        single-colored configuration is separable, as there: its system
        holds only base-side rows, solved by the zero normal, which is no
        hyperplane."""
        if self.config.k == 1:
            return one_side_hyperplane(self.config.points, self.config.dim)
        lam = feasible_point(self.rows, self.config.dim, strict=True)
        if lam is None:
            return None
        base = self.config.point(self.base_id)
        offset = 1 + sum(l * x for l, x in zip(lam, base.coords))
        plane = Hyperplane(lam, offset)  # base's class on the negative side
        if self.config.color_of(self.base_id) == 0:
            plane = Hyperplane(tuple(-x for x in plane.normal), -plane.offset)
        return plane


def _dual_rows(points: Sequence[Point], sides: Sequence, anchor: Point) -> tuple[IntRow, ...]:
    """The rows of the halfspace dual through ``anchor``, one of ``points``,
    whose side labels are ``sides``: one row per other point, in order."""
    base, base_den = anchor.scaled
    base_side = sides[points.index(anchor)]
    rows = []
    for p, side in zip(points, sides):
        if p.id == anchor.id:
            continue
        ints, den = p.scaled
        scale = den * base_den
        shifted = tuple(x * base_den - b * den for x, b in zip(ints, base))  # a * scale
        if side == base_side:
            rows.append((shifted, scale))                      # normal . a < 1
        else:
            rows.append((tuple(-x for x in shifted), -scale))  # normal . a > 1
    return tuple(rows)


def helly_dual(config: PointConfig, base_id: int) -> HalfspaceSystem:
    _require_colors(config, most=2)
    rows = _dual_rows(config.points, config.colors, config.point(base_id))
    return HalfspaceSystem(config, base_id, rows)


def kirchberger_witness(config: PointConfig, base_id: int) -> Optional[tuple[int, ...]]:
    """None when the configuration is separable along its two colors; otherwise
    the first (smallest, then lexicographic) inseparable subset through the
    base point with at most dim+2 points.  By Kirchberger's theorem through
    the anchor every inseparable configuration has one, general position or
    not, so the anchored scan alone decides on every input."""
    _require_colors(config, most=2)
    config.point(base_id)
    return _first_inseparable(config, dict(zip(config.ids, config.colors)), {base_id}, {})


@dataclass(frozen=True)
class KirchbergerReport:
    """The direct route's hyperplane, whether the Helly dual agrees, and the
    anchored witness when both routes find no hyperplane."""

    hyperplane: Optional[Hyperplane]
    routes_agree: bool
    witness: Optional[tuple[int, ...]]


def kirchberger_routes(config: PointConfig, anchor: int) -> KirchbergerReport:
    """Decide two-color separability by the direct route and by the Helly dual
    through ``anchor``; when both say inseparable, add the anchored witness of
    ``kirchberger_witness``.

    The direct route is the anchored scan: a witness decides "inseparable",
    and the direct LP runs only to produce the hyperplane when there is none.
    If the LP and the dual then both find no hyperplane, the fruitless scan
    contradicts Kirchberger's theorem, an internal error.
    """
    witness = kirchberger_witness(config, anchor)
    direct = None if witness is not None else color_separating_hyperplane(config)
    dual = helly_dual(config, anchor).separating_hyperplane()
    agree = (direct is None) == (dual is None)
    if direct is None and agree:
        witness = _found(witness, config, {anchor})
    return KirchbergerReport(direct, agree, witness if agree else None)


def _found(subset: Optional[tuple[int, ...]], config: PointConfig,
           required: AbstractSet[int]) -> tuple[int, ...]:
    """The subset of a scan that must succeed: by Kirchberger's theorem an
    inseparable labelling always has one."""
    if subset is None:
        raise VerificationError(
            f"no inseparable subset of size <= {config.dim + 2} meets {sorted(required)}"
        )
    return subset


def _first_inseparable(
    config: PointConfig, labels: Mapping[int, int], required: AbstractSet[int],
    spans: dict[tuple[int, ...], Optional[dict]],
) -> Optional[tuple[int, ...]]:
    """The first subset, by size then lexicographic order, of at most dim+2
    ids that meets ``required`` and whose two label classes (labels 0 and 1)
    cannot be strictly separated; None when there is none.

    Decided from signs, never solved.  A candidate of m points spanning
    dimension r is separable when m <= r+1 and skipped when m >= r+3, since
    Kirchberger's theorem inside its span gives a smaller inseparable
    candidate through each of its points.  At m = r+2 its labels must follow
    its affine dependence (``_splits_as_radon``): on the configuration's
    table for dim+2 points (all 0 when r < dim), else on the chirotope of the
    points carried onto their span (``geometry._carried``), unless a nonzero
    sign shows dim+1 points independent.  In general position every smaller
    candidate is independent, so the scan starts at dim+2 points; otherwise
    at three, as two distinct points are always separable.  By Kirchberger's
    theorem the search succeeds whenever such a subset of any size exists.

    A carried candidate's rank and chirotope depend on its points alone, not
    on the labels, so ``spans`` keeps them by candidate: its chirotope, or
    None when its size is not its rank+2.  The caller makes one per call on
    one configuration and passes it to each scan, so every candidate is
    carried at most once however many labellings are scanned.
    """
    table, top, general = config.orientations, config.dim + 2, general_position(config)
    coords = {} if general else dict(zip(config.ids, config.integer_points))
    for size in range(top if general else 3, top + 1):
        for combo in combinations(config.ids, size):
            if required.isdisjoint(combo):
                continue
            if size == top:
                signs = table
            elif size == top - 1 and table[combo]:
                continue
            elif combo in spans:
                signs = spans[combo]
            else:
                carried = _carried([coords[i] for i in combo])
                rank = len(carried[0])
                signs = spans[combo] = (
                    dict(zip(combinations(combo, rank + 1), _chirotope(carried, rank)))
                    if size == rank + 2 else None
                )
            if signs is not None and _splits_as_radon(signs, combo, labels):
                return combo
    return None


def _splits_as_radon(
    table: Mapping[tuple[int, ...], int], combo: tuple[int, ...], labels: Mapping[int, int]
) -> Optional[bool]:
    """Whether m increasing ids, with ``table`` holding the orientation of
    every m-1 of them, are labelled as the signs of their affine dependence;
    None when every sign is 0.  By Cramer's rule the t-th point's coefficient
    is (-1)^t times the orientation of the other m-1 (``radon_signs``); a
    nonzero one makes the dependence unique up to scale, and the label
    classes' hulls meet exactly when one label holds the positive
    coefficients and the other the negative, a zero one taking either label.
    Stops at the first label that disagrees with the first nonzero
    coefficient's; a single label always disagrees, as the coefficients sum
    to 0."""
    sign, first = table[combo[1:]], 0
    while not sign:
        first += 1
        if first == len(combo):
            return None
        sign = table[combo[:first] + combo[first + 1:]]
    label = labels[combo[first]]
    for t in range(first + 1, len(combo)):
        sign = -sign  # the orientation that gives the t-th point the first one's sign
        other = table[combo[:t] + combo[t + 1:]]
        if other and (labels[combo[t]] == label) != (other == sign):
            return False
    return True


def extend_partition(partition: Partition, config: PointConfig) -> Partition:
    """Blow a partition of one-point-per-color representatives up to the whole
    configuration: each block becomes the union of its members' color classes."""
    _require_colors(config)
    classes = config.color_classes
    rep_colors = [config.color_of(i) for i in sorted(partition.support)]
    if sorted(rep_colors) != sorted(classes):
        raise DomainError(
            "the partition support must pick exactly one point of every color"
        )
    blocks = []
    for block in partition.blocks:
        ids: list[int] = []
        for rep in block:
            ids.extend(classes[config.color_of(rep)])
        blocks.append(tuple(ids))
    return Partition(tuple(blocks))


@dataclass(frozen=True)
class Certificate:
    """Hyperplanes that pairwise split the color classes without cutting any.

    Each entry pairs a hyperplane with the partition it induces on the full
    configuration.  An empty family certifies configurations with at most one
    color."""

    family: tuple[tuple[Hyperplane, Partition], ...]


def validate_certificate(certificate: Certificate, config: PointConfig) -> None:
    """Re-check the three defining conditions with exact arithmetic."""
    _require_colors(config)
    classes = config.color_classes
    separated: set[tuple[int, int]] = set()
    for plane, partition in certificate.family:
        check_witness(plane, partition, config)
        for color, ids in classes.items():
            blocks = {partition.block_of(i) for i in ids}
            if len(blocks) > 1:
                raise VerificationError(f"certificate hyperplane splits color {color}")
        for c1, c2 in combinations(sorted(classes), 2):
            if partition.separates(classes[c1][0], classes[c2][0]):
                separated.add((c1, c2))
    missing = set(combinations(sorted(classes), 2)) - separated
    if missing:
        raise VerificationError(f"color pairs never separated: {sorted(missing)}")


class _Groupings:
    """Which two-sided color groupings of one configuration a hyperplane can
    realize: those whose point mask is one of the configuration's member
    masks (``hdivision.member_masks``, or a restriction of a larger
    configuration's).

    A grouping is a bitmask of colors, the classes on one side; every other
    class is on the other side.  ``classes`` holds each color's point mask,
    in color order.  A grouping's point mask is taken with the block holding
    the first point, as the members are, so a grouping and its mirror image
    are one lookup.
    """

    def __init__(self, ids: tuple[int, ...], members: frozenset[int], classes: list[int],
                 dim: int, general: bool) -> None:
        self.ids, self.members, self.classes = ids, members, classes
        self.dim, self.general = dim, general
        self._everything = (1 << len(ids)) - 1

    @classmethod
    def of(cls, config: PointConfig) -> "_Groupings":
        """The table of a colored configuration: one member read."""
        position = {i: t for t, i in enumerate(config.ids)}
        classes = [
            sum(1 << position[i] for i in ids) for _, ids in sorted(config.color_classes.items())
        ]
        return cls(config.ids, member_masks(config), classes, config.dim,
                   general_position(config))

    @cached_property
    def _unions(self) -> list[list[int]]:
        """Per eight colors, the point mask of each subset of them by its
        bitmask: 2^8 entries per eight colors, not 2^k."""
        tables = []
        for start in range(0, len(self.classes), 8):
            tables.append([0])
            for points in self.classes[start:start + 8]:
                tables[-1] += [mask | points for mask in tables[-1]]
        return tables

    def realizable(self, plus: int) -> bool:
        """Can a hyperplane put the colors of bitmask ``plus`` on one side and
        every other color on the other?"""
        mask = 0
        for table in self._unions:
            mask |= table[plus & 255]
            plus >>= 8
        return (mask if mask & 1 else self._everything ^ mask) in self.members

    def restricted(self, ids: Iterable[int]) -> "_Groupings":
        """The table of the subset of ``ids``, read off this one's members:
        the traces of its members and of its color classes, the empty
        traces dropped and the rest numbered by their first point, as
        ``PointConfig.subset`` numbers its colors."""
        wanted = set(ids)
        positions = [t for t, i in enumerate(self.ids) if i in wanted]
        classes = sorted(
            filter(None, traces(self.classes, positions)), key=lambda points: points & -points
        )
        members = restricted_masks(self.members, positions, self.dim, self.general)
        subset = tuple(self.ids[t] for t in positions)
        return _Groupings(subset, members, classes, self.dim, self.general)


def _pair_groupings(groupings: _Groupings) -> Optional[list[tuple[int, frozenset]]]:
    """Per color pair the first realizable grouping in mask order, as (bitmask
    of its side, pairs it separates); None if a pair has none."""
    colors = range(len(groupings.classes))
    pairs = list(combinations(colors, 2))
    entries = []
    for c1, c2 in pairs:
        free = [c for c in colors if c not in (c1, c2)]
        for mask in range(1 << len(free)):
            plus = 1 << c1 | sum(1 << c for t, c in enumerate(free) if not mask >> t & 1)
            if groupings.realizable(plus):
                covered = frozenset((a, b) for a, b in pairs if (plus >> a ^ plus >> b) & 1)
                entries.append((plus, covered))
                break
        else:
            return None
    return entries


def _certificate(config: PointConfig, groupings: _Groupings) -> Optional[Certificate]:
    """The body of ``is_partitionable`` on the configuration's grouping table:
    ``_pair_groupings``, a greedy cover, and hyperplanes solved only for the
    groupings it keeps."""
    entries = _pair_groupings(groupings)
    if entries is None:
        return None
    classes = config.color_classes

    # greedy cover: keep dropping to the entry that settles the most pairs
    uncovered = set(combinations(sorted(classes), 2))
    family = []
    while uncovered:
        plus, covered = max(entries, key=lambda e: len(e[1] & uncovered))
        gain = covered & uncovered
        if not gain:  # cannot happen: every pair got an entry covering it
            raise VerificationError("greedy cover stalled")
        side_a = [config.point(i) for c, ids in classes.items() if plus >> c & 1 for i in ids]
        side_b = [config.point(i) for c, ids in classes.items() if not plus >> c & 1 for i in ids]
        plane = strict_separate(side_a, side_b, config.dim)
        if plane is None:
            raise VerificationError("a grouping decided realizable has no hyperplane")
        part = Partition((tuple(p.id for p in side_a), tuple(p.id for p in side_b)))
        family.append((plane, part))
        uncovered -= gain
    certificate = Certificate(tuple(family))
    validate_certificate(certificate, config)
    return certificate


def is_partitionable(config: PointConfig) -> Optional[Certificate]:
    """Decide partitionability by searching, per color pair, for a two-sided
    grouping of all classes that a hyperplane can realize.

    A valid family member never cuts a class, so it assigns every class wholly
    to a side; conversely any such assignment realized by a hyperplane is a
    valid member.  Hence the configuration is partitionable exactly when every
    color pair admits a realizable grouping placing the two classes on opposite
    sides.  Each pair takes the first such grouping in a fixed mask order, and
    the collected groupings are thinned greedily before returning.

    The search only decides: every grouping is one lookup in the grouping
    table, which reads the member set once and solves no LP.  Hyperplanes
    are solved afterwards, once per kept grouping; each depends on which
    points lie on either side, not on the order they are listed in (see
    ``linsolve``).
    """
    _require_colors(config)
    return _certificate(config, _Groupings.of(config))


def is_partitionable_by_enumeration(config: PointConfig) -> bool:
    """Independent route to the same decision: find the realizable
    partitions that keep every color class whole, and ask whether they
    separate every color pair.  Such a partition is a two-sided color
    grouping, so the 2^(k-1)-1 nontrivial groupings with color 0 on side A
    are each decided by one witness-free feasibility test (``is_feasible``)
    of the halfspace dual through the first point, which has color 0
    (``_dual_rows``); the member set, which the grouping table reads, is not
    used.  The configuration is partitionable when every pair of colors has
    a realizable grouping separating it (``separating_sets`` over colors)."""
    _require_colors(config)
    points, anchor = config.points, config.points[0]
    realizable = [  # side A's colors: the odd bitmasks, less all colors (trivial)
        plus
        for plus in range(1, (1 << config.k) - 1, 2)
        if is_feasible(
            _dual_rows(points, [plus >> c & 1 for c in config.colors], anchor), config.dim, strict=True
        )
    ]
    return all(found for _, found in separating_sets(realizable, range(config.k)))


def smallest_blocked_subset_size(config: PointConfig) -> Optional[int]:
    """Size of the smallest subset that no hyperplane family splits along
    colors, or None when the whole configuration is partitionable.

    Partitionability is inherited by subsets, so scanning sizes upward and
    stopping at the first hit is exhaustive; each proper subset is only
    decided, on the configuration's grouping table restricted to it.
    """
    groupings = _Groupings.of(config)
    if _pair_groupings(groupings) is not None:
        return None
    for size in range(3, len(config)):
        for chosen in combinations(config.ids, size):
            if _pair_groupings(groupings.restricted(chosen)) is None:
                return size
    return len(config)


@dataclass(frozen=True)
class WitnessReport:
    """A small non-partitionable subset, with the bookkeeping of its extraction."""

    witness_ids: tuple[int, ...]
    representatives: tuple[int, ...]
    transversal: tuple[Partition, ...]
    transversal_pairs: tuple[tuple[int, int], ...]
    per_member_sets: dict[Partition, tuple[int, ...]]
    size_bound: int


def witness_nonpartitionable(config: PointConfig) -> WitnessReport:
    """Extract a non-partitionable subset of at most (d+1)*eta + k points from a
    non-partitionable configuration.

    Take the lowest-id representative of each color; every realizable partition
    of the representatives whose color-class extension is NOT realizable on the
    whole configuration joins a blocking set, which must be a transversal of
    the representatives' division (otherwise the complementary members would
    partition the configuration).  An extension is a color grouping, so the
    grouping table that decided non-partitionability decides it too.
    Minimalize the blocking set, then replace each remaining member by a small
    inseparable core of its extension.  Every postcondition is re-checked;
    failures are bugs, not inputs.  This is the witness of ``verify_instance``.
    """
    _require_colors(config)
    if config.k < 2:
        raise DomainError("need at least two colors")
    report = verify_instance(config).witness
    if report is None:
        raise DomainError("the configuration is partitionable; no witness exists")
    return report


def _witness_report(config: PointConfig, groupings: _Groupings) -> WitnessReport:
    """The body of ``witness_nonpartitionable``, for a configuration that
    ``verify_instance`` decided non-partitionable on the same grouping table.
    Colors are numbered by first appearance in id order, so representative
    t is color t's least id, and the representatives' members (the table
    restricted to them) are color groupings, bit t for color t, scanned in
    ``Division``'s canonical order.  Each pair of colors gets the set of
    members separating it (``separating_sets``); the blocking members are
    tested and minimalized on those sets, and the reported pairs are those
    whose set is the minimal transversal.  Only the reported members become
    ``Partition``s.  Their cores' scans share one memo of carried candidates.
    The witness's re-check reads the table restricted to it."""
    reps = tuple(ids[0] for _, ids in sorted(config.color_classes.items()))
    colors = range(len(reps))
    members = sorted(
        groupings.restricted(reps).members, key=lambda m: [c for c in colors if m >> c & 1]
    )
    separating = separating_sets(members, colors)
    # a member blocks when its extension, the grouping of its mask, is not
    # realizable (the trivial member's always is)
    blocking = sum(1 << i for i, m in enumerate(members) if not groupings.realizable(m))
    minimal = minimalize_masks([found for _, found in separating], blocking)
    if minimal is None:
        raise VerificationError(
            "non-extendable members fail to hit every full subdivision"
        )
    pairs = tuple((reps[a], reps[b]) for (a, b), found in separating if found == minimal)
    if not pairs:
        raise VerificationError("minimal transversal is not a separating set of a pair")

    rep_set = set(reps)
    cores: dict[Partition, tuple[int, ...]] = {}
    spans: dict = {}
    full = (1 << len(reps)) - 1
    for plus in at_bits(members, minimal):
        # label 0 on the points of the colors on the side of color 0
        side_labels = {j: int(not plus >> c & 1) for j, c in zip(config.ids, config.colors)}
        member = Partition((tuple(at_bits(reps, plus)), tuple(at_bits(reps, full ^ plus))))
        cores[member] = _found(
            _first_inseparable(config, side_labels, rep_set, spans), config, rep_set
        )

    witness = tuple(sorted(rep_set.union(*cores.values())))
    bound = witness_size_bound(config.dim, config.k)
    if len(witness) > bound:
        raise VerificationError(f"witness has {len(witness)} points, bound is {bound}")
    if _pair_groupings(groupings.restricted(witness)) is not None:
        raise VerificationError("extracted witness is partitionable")
    return WitnessReport(
        witness_ids=witness,
        representatives=reps,
        transversal=tuple(cores),
        transversal_pairs=pairs,
        per_member_sets=cores,
        size_bound=bound,
    )


@dataclass(frozen=True)
class InstanceReport:
    partitionable: bool
    certificate: Optional[Certificate]
    witness: Optional[WitnessReport]
    size_bound: Optional[int]


def verify_instance(config: PointConfig) -> InstanceReport:
    """Run the partition-or-small-witness dichotomy on one colored configuration.

    Either a certificate family exists, or a non-partitionable subset within
    the size bound is produced and re-verified.  Any third outcome raises."""
    _require_colors(config)
    bound = witness_size_bound(config.dim, config.k) if config.k >= 2 else None
    groupings = _Groupings.of(config)
    certificate = _certificate(config, groupings)
    if certificate is not None:
        return InstanceReport(True, certificate, None, bound)
    return InstanceReport(False, None, _witness_report(config, groupings), bound)
