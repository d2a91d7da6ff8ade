"""Colored separation machinery.

Two colors: separation by a single hyperplane, its exact halfspace dual (whose
nonempty intersection encodes separability of subsets through a designated
point), and extraction of small inseparable subsets by a decide-only scan.

The scan looks for the first inseparable subset of at most dim+2 points.  In
general position it solves no LP: fewer than dim+2 points are affinely
independent, hence separable, and dim+2 points are inseparable exactly when
their labels are their unique Radon partition, whose sides are read from the
configuration's orientation table (the t-th point's side is the sign of
(-1)^t times the orientation of the other dim+1, ``geometry.radon_signs``).
Degenerate configurations decide each candidate by one witness-free
Fourier-Motzkin test (``linsolve.infeasible_core``).  By Kirchberger's theorem
through an anchor (Helly on the halfspace dual), every inseparable
configuration has an inseparable subset of at most dim+2 points through the
anchor, so in general position the Kirchberger routes scan first and a hit
decides "inseparable"; the direct LP runs only for the hyperplane of a
separable configuration.  On degenerate input the direct LP decides first.

k colors: deciding whether a family of hyperplanes can split the classes
pairwise without cutting any class, and — when it cannot — extracting a small
subset that already cannot be split, whose size is controlled by the
transversal bound.

Both k-color questions reduce to two-sided color groupings: which bipartitions
of the color classes a hyperplane can realize.  One grouping table per
configuration answers them.  It keys a grouping by its canonical bipartition
(the side holding the lowest color first), so a grouping and its mirror image
are one entry, and decides each entry at most once, witness-free.  A failed
decision returns a Farkas core, at most dim+2 of the grouping's points that
are already inseparable, and the table records the colors of the core's
points on each side.  That gives one pruning rule: a grouping whose sides
contain a recorded core's sides, in either orientation, is inseparable
without an LP, since a hyperplane realizing it would separate the core.  It
replaces the blocked pairs of classes that the table used to keep: the
two-class separations are decided first, and a failed one leaves a core of
one class per side, a pair for which no grouping is realizable.  Only the
groupings that end up in a certificate are solved again for their
hyperplanes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import AbstractSet, Mapping, Optional

from .counting import witness_size_bound
from .errors import DomainError, VerificationError
from .geometry import (
    Coords,
    Hyperplane,
    PointConfig,
    one_side_hyperplane,
    radon_signs,
    strict_separate,
)
from .hdivision import check_witness, hyperplane_division
from .linsolve import feasible_point, infeasible_core
from .partitions import (
    Partition,
    is_transversal,
    minimalize_transversal,
    separating_members,
)


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
    classes = config.color_classes
    side_a = [config.point(i) for i in classes[0]]
    side_b = [config.point(i) for i in classes[1]]
    return strict_separate(side_a, side_b, config.dim)


@dataclass(frozen=True)
class HalfspaceSystem:
    """The dual system of open halfspaces for a 2-colored configuration and a
    designated base point (translated to the origin).

    Writing candidate separating hyperplanes through-the-origin-free as
    normal . x = 1 in base-point coordinates, each other point contributes one
    open halfspace of admissible normals: points colored like the base must
    stay on its side (normal . a < 1), the rest must not (normal . a > 1).
    The system has a common point exactly when the configuration is separable
    along the colors — that is Helly's theorem territory, and deciding it
    exactly is a plain feasibility question.
    """

    config: PointConfig
    base_id: int
    rows: tuple[tuple[Coords, int, bool], ...]

    def separating_hyperplane(self) -> Optional[Hyperplane]:
        """Translate a common point back into a hyperplane with color class 0
        positive, class 1 negative (same contract as the direct oracle)."""
        lam = feasible_point(self.rows, self.config.dim)
        if lam is None:
            return None
        base = self.config.point(self.base_id)
        offset = 1 + sum(l * x for l, x in zip(lam, base.coords))
        plane = Hyperplane(lam, offset)  # base's class on the negative side
        if self.config.color_of(self.base_id) == 0:
            plane = Hyperplane(tuple(-x for x in plane.normal), -plane.offset)
        return plane


def helly_dual(config: PointConfig, base_id: int) -> HalfspaceSystem:
    _require_colors(config, most=2)
    base = config.point(base_id)
    base_color = config.color_of(base_id)
    rows = []
    for p in config.points:
        if p.id == base_id:
            continue
        shifted = tuple(x - b for x, b in zip(p.coords, base.coords))
        if config.color_of(p.id) == base_color:
            rows.append((shifted, 1, True))                      # normal . a < 1
        else:
            rows.append((tuple(-x for x in shifted), -1, True))  # normal . a > 1
    return HalfspaceSystem(config, base_id, tuple(rows))


def kirchberger_witness(config: PointConfig, base_id: int) -> Optional[tuple[int, ...]]:
    """None when the configuration is separable along its two colors; otherwise
    the first (smallest, then lexicographic) inseparable subset through the
    base point with at most dim+2 points.  Such a subset always exists for an
    inseparable configuration.  In general position the scan alone decides,
    so a fruitless scan means separable; elsewhere the configuration is
    decided first, and a fruitless scan is an internal error."""
    _require_colors(config, most=2)
    config.point(base_id)
    if config.orientations is not None:
        return _anchored_witness(config, base_id)
    if color_separating_hyperplane(config) is not None:
        return None
    return _found(_anchored_witness(config, base_id), config, {base_id})


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

    In general position the direct route is the anchored scan, and its LP
    runs only to produce the hyperplane when the scan finds no witness.
    Elsewhere the LP decides and the scan runs only after it finds none.
    """
    _require_colors(config, most=2)
    config.point(anchor)
    witness = _anchored_witness(config, anchor) if config.orientations is not None else None
    direct = None if witness is not None else color_separating_hyperplane(config)
    dual = helly_dual(config, anchor).separating_hyperplane()
    agree = (direct is None) == (dual is None)
    if direct is None and agree and witness is None:
        witness = _found(_anchored_witness(config, anchor), config, {anchor})
    return KirchbergerReport(direct, agree, witness if agree else None)


def _anchored_witness(config: PointConfig, anchor: int) -> Optional[tuple[int, ...]]:
    labels = dict(zip(config.ids, config.colors))
    return _first_inseparable(config, labels, {anchor})


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
    config: PointConfig, labels: Mapping[int, int], required: AbstractSet[int]
) -> Optional[tuple[int, ...]]:
    """The first subset, by size then lexicographic order, of at most dim+2
    ids that meets ``required`` and whose two label classes (labels 0 and 1)
    cannot be strictly separated; None when there is none.

    Only decided, never solved.  A candidate with a single label is skipped,
    since one class is always separable.  In general position smaller
    candidates are all separable and are skipped too, and a candidate of
    dim+2 points is inseparable exactly when its labels split it as its Radon
    signs do.  Otherwise a candidate is one witness-free feasibility test on
    its points' separation rows, label 0 on the positive side.  By
    Kirchberger's theorem the search succeeds whenever such a subset of any
    size exists.
    """
    general = config.orientations is not None
    for size in range(config.dim + 2 if general else 2, config.dim + 3):
        for combo in combinations(config.ids, size):
            if required.isdisjoint(combo) or len({labels[i] for i in combo}) == 1:
                continue
            if general:
                signs = radon_signs(config, combo)
                first = labels[combo[0]]
                if all((labels[i] == first) == (s == signs[0]) for i, s in zip(combo, signs)):
                    return combo
            elif infeasible_core(
                [config.point(i).separation_rows[labels[i]] for i in combo], config.dim + 1
            ) is not None:
                return combo
    return None


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
    realize, each decided at most once.

    A grouping is a pair of disjoint color bitmasks (classes on one side,
    classes on the other), keyed with the side holding the lowest color first.
    The two-class separations are decided on construction.  ``cores`` holds,
    for each failed decision, the color bitmasks of its core's points on each
    side; a grouping whose sides contain both, in either orientation, is
    inseparable with no LP.
    """

    def __init__(self, config: PointConfig) -> None:
        self.config = config
        self._classes = {
            c: [config.point(i) for i in ids] for c, ids in config.color_classes.items()
        }
        self._all = (1 << config.k) - 1
        self._known: dict[tuple[int, int], bool] = {}
        self.cores: set[tuple[int, int]] = set()
        for a, b in combinations(config.color_classes, 2):
            self._separable(1 << a, 1 << b)

    def realizable(self, plus: int) -> bool:
        """Can a hyperplane put the colors of bitmask ``plus`` on one side and
        every other color on the other?"""
        return self._separable(plus, self._all ^ plus)

    def _separable(self, plus: int, minus: int) -> bool:
        low = (plus | minus) & -(plus | minus)
        key = (plus, minus) if plus & low else (minus, plus)
        if key not in self._known:
            self._known[key] = not any(
                not (a & ~plus or b & ~minus) or not (a & ~minus or b & ~plus)
                for a, b in self.cores
            ) and self._decide(*key)
        return self._known[key]

    def _decide(self, plus: int, minus: int) -> bool:
        """One LP; on failure the core's colors per side join ``cores``."""
        points = [
            (p, side, c)
            for side, mask in enumerate((plus, minus))
            for c, members in self._classes.items()
            if mask >> c & 1
            for p in members
        ]
        core = infeasible_core(
            [p.separation_rows[side] for p, side, _ in points], self.config.dim + 1
        )
        if core is None:
            return True
        sides = [0, 0]
        for q in core:
            _, side, c = points[q]
            sides[side] |= 1 << c
        self.cores.add((sides[0], sides[1]))
        return False


def _pair_groupings(groupings: _Groupings) -> Optional[list[tuple[int, frozenset]]]:
    """Per color pair the first realizable grouping in mask order, as (bitmask
    of its side, pairs it separates); None if a pair has none.  Decides only."""
    if any(not (a & (a - 1) or b & (b - 1)) for a, b in groupings.cores):
        return None  # a core of one class per side is in every grouping for that pair
    classes = groupings.config.color_classes
    pairs = list(combinations(sorted(classes), 2))
    entries = []
    for c1, c2 in pairs:
        free = [c for c in classes if c not in (c1, c2)]
        for mask in range(1 << len(free)):
            plus = 1 << c1 | sum(1 << c for t, c in enumerate(free) if not mask >> t & 1)
            if groupings.realizable(plus):
                covered = frozenset((a, b) for a, b in pairs if (plus >> a ^ plus >> b) & 1)
                entries.append((plus, covered))
                break
        else:
            return None
    return entries


def _certificate(groupings: _Groupings) -> Optional[Certificate]:
    """The body of ``is_partitionable`` on a grouping table: ``_pair_groupings``,
    a greedy cover, and hyperplanes solved only for the groupings it keeps."""
    entries = _pair_groupings(groupings)
    if entries is None:
        return None
    config = groupings.config
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

    The search only decides: every grouping is looked up in the grouping table
    (at most one LP per bipartition, memoised under its canonical key), and a
    grouping that contains a recorded core is inseparable with no LP.  Two
    inseparable classes answer "not partitionable" outright: every grouping
    for their pair puts them on opposite sides, and a hyperplane realizing it
    would separate them.  Hyperplanes are solved afterwards, once per kept
    grouping and with its points in color order, so a certificate does not
    depend on which groupings the memo answered.
    """
    _require_colors(config)
    return _certificate(_Groupings(config))


def is_partitionable_by_enumeration(config: PointConfig) -> bool:
    """Independent route to the same decision: enumerate the realizable
    partitions that keep every color class whole, and ask whether they
    separate every color pair.  Such a partition is a two-sided color
    grouping, so only the 2^(k-1)-1 nontrivial groupings with color 0 (the
    lowest id's) on side A are tested: they are exactly the color-respecting
    ones among the 2^(n-1)-1 bipartitions, with ``hyperplane_division``'s head
    point on side A.  Each plane is checked; the grouping table is not used."""
    _require_colors(config)
    classes = config.color_classes
    respecting = []
    for mask in range((1 << (config.k - 1)) - 1):
        side_a, side_b = [], []
        for p, color in zip(config.points, config.colors):
            (side_a if color == 0 or mask >> (color - 1) & 1 else side_b).append(p)
        plane = strict_separate(side_a, side_b, config.dim)
        if plane is not None:
            member = Partition((tuple(p.id for p in side_a), tuple(p.id for p in side_b)))
            check_witness(plane, member, config)
            respecting.append(member)
    return all(
        any(m.separates(classes[c1][0], classes[c2][0]) for m in respecting)
        for c1, c2 in combinations(sorted(classes), 2)
    )


def smallest_blocked_subset_size(config: PointConfig) -> Optional[int]:
    """Size of the smallest subset that no hyperplane family splits along
    colors, or None when the whole configuration is partitionable.

    Partitionability is inherited by subsets, so scanning sizes upward and
    stopping at the first hit is exhaustive; each subset is only decided.
    """
    if _pair_groupings(_Groupings(config)) is not None:
        return None
    ids = config.ids
    for size in range(3, len(ids) + 1):
        for chosen in combinations(ids, size):
            if _pair_groupings(_Groupings(config.subset(chosen))) is None:
                return size
    raise VerificationError(
        "configuration reported non-partitionable but every proper scan "
        "level was partitionable"
    )  # pragma: no cover - contradiction guard


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


def _witness_report(groupings: _Groupings) -> WitnessReport:
    """The body of ``witness_nonpartitionable``, for a configuration that
    ``verify_instance`` decided non-partitionable on the same grouping table."""
    config = groupings.config
    classes = config.color_classes
    reps = tuple(min(ids) for _, ids in sorted(classes.items()))
    rep_div = hyperplane_division(config.subset(reps))
    blocking = []
    for member in rep_div.members:
        if member.is_trivial:
            continue  # extends to the trivial partition, always realizable
        # the extension puts the colors of one block on one side: a grouping
        if not groupings.realizable(sum(1 << config.color_of(i) for i in member.blocks[0])):
            blocking.append(member)
    if not is_transversal(rep_div.division, blocking):
        raise VerificationError(
            "non-extendable members fail to hit every full subdivision"
        )
    minimal = minimalize_transversal(rep_div.division, blocking)
    pairs = tuple(
        (a, b)
        for a, b in combinations(sorted(reps), 2)
        if set(separating_members(rep_div.division, a, b)) == set(minimal)
    )
    if not pairs:
        raise VerificationError("minimal transversal is not a separating set of a pair")

    rep_set = set(reps)
    cores: dict[Partition, tuple[int, ...]] = {}
    for member in minimal:
        first = frozenset(extend_partition(member, config).blocks[0])
        side_labels = {i: int(i not in first) for i in config.ids}
        cores[member] = _found(
            _first_inseparable(config, side_labels, rep_set), config, rep_set
        )

    witness = tuple(sorted(rep_set.union(*cores.values())))
    bound = witness_size_bound(config.dim, config.k)
    if len(witness) > bound:
        raise VerificationError(f"witness has {len(witness)} points, bound is {bound}")
    if is_partitionable(config.subset(witness)) is not None:
        raise VerificationError("extracted witness is partitionable")
    return WitnessReport(
        witness_ids=witness,
        representatives=reps,
        transversal=minimal,
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
    groupings = _Groupings(config)
    certificate = _certificate(groupings)
    if certificate is not None:
        return InstanceReport(True, certificate, None, bound)
    return InstanceReport(False, None, _witness_report(groupings), bound)
