"""Independent slow oracles the test suite compares the package against.

Separability goes through sympy's exact linear solver on convex-combination
systems, transversal checking enumerates full subfamilies outright, and the
counting formulas are recomputed from a lattice recurrence; none of these
imports the package's feasibility machinery.  The two subset scans, the
per-pair grouping search and the full-enumeration partitionability filter are
the exception: they ask the package's witness-producing separation oracle
about every candidate (the scans rebuild each one as a configuration, the
filter tests every bipartition through ``hyperplane_division``), a different
route through the solver than the decide-only scans, the grouping table and
the grouping enumeration they are compared with.  Slow on purpose; keep
inputs tiny.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Iterable, Optional, Sequence

from sympy import Matrix, Rational

from hyperpart import (
    Certificate,
    Division,
    Hyperplane,
    Partition,
    PointConfig,
    VerificationError,
    color_separating_hyperplane,
    hyperplane_division,
    strict_separate,
    validate_certificate,
)


def _rat(x) -> Rational:
    f = Fraction(x)
    return Rational(f.numerator, f.denominator)


def origin_in_hull(vectors: Sequence[Sequence]) -> bool:
    """Is the origin a convex combination of the given vectors?

    A minimal-support combination has affinely independent support of size at
    most ambient+1 and is the unique solution of its restricted system, so
    scanning all small supports for a unique nonnegative solution is complete.
    """
    ambient = len(vectors[0])
    for size in range(1, ambient + 2):
        for combo in combinations(vectors, size):
            rows = [[_rat(v[i]) for v in combo] for i in range(ambient)]
            rows.append([Rational(1)] * size)
            rhs = Matrix([Rational(0)] * ambient + [Rational(1)])
            try:
                sol, params = Matrix(rows).gauss_jordan_solve(rhs)
            except ValueError:
                continue  # inconsistent system
            if params.rows:
                continue  # dependent support; a smaller one would witness it
            if all(x >= 0 for x in sol):
                return True
    return False


def strictly_separable(side_a: Sequence[Sequence], side_b: Sequence[Sequence]) -> bool:
    """Hull-disjointness route: A and B admit a strictly separating hyperplane
    exactly when the lifted vectors {(a, 1)} and {(-b, -1)} all fit in one open
    halfspace through the origin, i.e. the origin avoids their convex hull."""
    lifted = [tuple(a) + (1,) for a in side_a]
    lifted += [tuple(-Fraction(x) for x in b) + (-1,) for b in side_b]
    return not origin_in_hull(lifted)


def brute_kirchberger_witness(config: PointConfig, base_id: int):
    """First inseparable subset through ``base_id``, smallest then
    lexicographic, of at most dim+2 points; None when the whole configuration
    is separable or no such subset turns up."""
    if color_separating_hyperplane(config) is not None:
        return None
    others = [i for i in config.ids if i != base_id]
    for size in range(2, config.dim + 3):
        for combo in combinations(others, size - 1):
            ids = tuple(sorted((base_id,) + combo))
            if color_separating_hyperplane(config.subset(ids)) is None:
                return ids
    return None


def brute_inseparable_core(config: PointConfig, side_labels: dict, required: set):
    """First subset meeting ``required``, smallest then lexicographic, of at
    most dim+2 points that cannot be split along ``side_labels``; None when
    there is none."""
    for size in range(2, config.dim + 3):
        for combo in combinations(config.ids, size):
            if required.isdisjoint(combo):
                continue
            sub = config.subset(combo).with_colors(tuple(side_labels[i] for i in combo))
            if color_separating_hyperplane(sub) is None:
                return combo
    return None


def brute_is_partitionable(config: PointConfig) -> Optional[Certificate]:
    """The per-pair grouping search as it stood before the grouping table:
    for each color pair in order, the first two-sided grouping (in mask order)
    that the witness-producing separation oracle splits, then a greedy cover.
    The certificate ``is_partitionable`` returns must equal this one exactly."""
    classes = config.color_classes
    colors = sorted(classes)
    if len(colors) <= 1:
        return Certificate(())
    entries: list[tuple[Hyperplane, Partition, frozenset[tuple[int, int]]]] = []
    for c1, c2 in combinations(colors, 2):
        free = [c for c in colors if c not in (c1, c2)]
        found = None
        for mask in range(1 << len(free)):
            plus = {c1} | {c for t, c in enumerate(free) if not mask >> t & 1}
            side_a = [config.point(i) for c in sorted(plus) for i in classes[c]]
            side_b = [
                config.point(i)
                for c in colors
                if c not in plus
                for i in classes[c]
            ]
            plane = strict_separate(side_a, side_b, config.dim)
            if plane is not None:
                part = Partition(
                    (
                        tuple(p.id for p in side_a),
                        tuple(p.id for p in side_b),
                    )
                )
                covered = frozenset(
                    pair
                    for pair in combinations(colors, 2)
                    if (pair[0] in plus) != (pair[1] in plus)
                )
                found = (plane, part, covered)
                break
        if found is None:
            return None
        entries.append(found)

    # greedy cover: keep dropping to the entry that settles the most pairs
    uncovered = set(combinations(colors, 2))
    family = []
    while uncovered:
        best = max(entries, key=lambda e: len(e[2] & uncovered))
        gain = best[2] & uncovered
        if not gain:  # cannot happen: every pair got an entry covering it
            raise VerificationError("greedy cover stalled")
        family.append((best[0], best[1]))
        uncovered -= gain
    certificate = Certificate(tuple(family))
    validate_certificate(certificate, config)
    return certificate


def brute_partitionable_by_enumeration(config: PointConfig) -> bool:
    """The enumeration route as it stood before it tested color groupings
    only: enumerate every realizable partition, keep those that respect the
    coloring, and ask whether the kept ones separate every color pair."""
    classes = config.color_classes
    colors = sorted(classes)
    if len(colors) <= 1:
        return True
    respecting = []
    for member in hyperplane_division(config).members:
        if all(
            len({member.block_of(i) for i in ids}) == 1 for ids in classes.values()
        ):
            respecting.append(member)
    return all(
        any(m.separates(classes[c1][0], classes[c2][0]) for m in respecting)
        for c1, c2 in combinations(colors, 2)
    )


def hulls_disjoint_1d(side_a: Iterable, side_b: Iterable) -> bool:
    """On a line, hulls are intervals; disjointness is an endpoint comparison."""
    a = [Fraction(x[0]) for x in side_a]
    b = [Fraction(x[0]) for x in side_b]
    return max(a) < min(b) or max(b) < min(a)


def full_subfamily_masks(division: Division) -> list[int]:
    """Bitmasks of every subfamily that separates all support pairs."""
    members = division.members
    pairs = list(combinations(sorted(division.support), 2))
    sep_bits = []
    for a, b in pairs:
        bits = 0
        for i, m in enumerate(members):
            if m.separates(a, b):
                bits |= 1 << i
        sep_bits.append(bits)
    full = []
    for mask in range(1 << len(members)):
        if all(bits & mask for bits in sep_bits):
            full.append(mask)
    return full


def brute_is_transversal(
    division: Division, subset: Iterable[Partition], full_masks: list[int]
) -> bool:
    """Literal reading: the subset meets every full subfamily."""
    index = {m: i for i, m in enumerate(division.members)}
    chosen = 0
    for member in subset:
        chosen |= 1 << index[member]
    return all(mask & chosen for mask in full_masks)


def count_by_recurrence(dim: int, k: int) -> int:
    """The partition count as a Pascal-style recurrence, no binomials."""
    if dim == 0 or k == 1:
        return 1
    return count_by_recurrence(dim, k - 1) + count_by_recurrence(dim - 1, k - 1)
