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
the grouping enumeration they are compared with.  The witness report built
on ``Partition``s and a ``Division`` is the package's own extraction as it
stood before it moved to color bitmasks; the rewrite must return the same
report.  The deletion-fibre check
enumerates a configuration with and without one point through the package
and checks that restriction maps the one onto the other, at most two to one.
The Fraction kernel near the end is the package's own elimination,
back-substitution, orientation and side value as they stood before they moved
to integer arithmetic; the integer routines must return the same values.  The
determinant beside them is a cofactor expansion, independent of both
eliminations.  The
integer elimination loops at the very end are the package's as they stood
before they combined only the nonzero tail of two rows and inserted derived
rows in bulk, with their own copies of the row conversion, bounds and picks
of the kernel that still carried a strictness flag on every row; on systems
of one strictness the rewritten loops must keep the same rows and points.
The halfspace dual's rows are rebuilt there in rationals, straight from the
coordinates.  Slow on purpose; keep inputs tiny.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from sympy import Matrix, Rational

from hyperpart import (
    Certificate,
    Division,
    DomainError,
    Hyperplane,
    Partition,
    Point,
    PointConfig,
    VerificationError,
    color_separating_hyperplane,
    extend_partition,
    hyperplane_division,
    is_transversal,
    minimalize_transversal,
    restrict,
    separating_members,
    strict_separate,
    validate_certificate,
    witness_size_bound,
)
from hyperpart.colorful import WitnessReport, _first_inseparable, _found, _pair_groupings
from hyperpart.hdivision import division_of_masks


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


def partition_witness_report(config: PointConfig, groupings) -> WitnessReport:
    """``colorful._witness_report`` as it stood before it worked on color
    bitmasks: the representatives' division built as ``Partition``s, the
    blocking set, transversal test and greedy descent on that ``Division``,
    the separating pairs by ``separating_members`` and each core's labels by
    ``extend_partition``.  The grouping table is ``colorful._Groupings`` of
    the configuration, which must be non-partitionable."""
    classes = config.color_classes
    reps = tuple(min(ids) for _, ids in sorted(classes.items()))
    rep_div = division_of_masks(reps, groupings.restricted(reps).members)
    blocking = []
    for member in rep_div.members:
        if member.is_trivial:
            continue  # extends to the trivial partition, always realizable
        # the extension puts the colors of one block on one side: a grouping
        if not groupings.realizable(sum(1 << config.color_of(i) for i in member.blocks[0])):
            blocking.append(member)
    if not is_transversal(rep_div, blocking):
        raise VerificationError(
            "non-extendable members fail to hit every full subdivision"
        )
    minimal = minimalize_transversal(rep_div, blocking)
    pairs = tuple(
        (a, b)
        for a, b in combinations(sorted(reps), 2)
        if set(separating_members(rep_div, a, b)) == set(minimal)
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
    if _pair_groupings(groupings.restricted(witness)) is not None:
        raise VerificationError("extracted witness is partitionable")
    return WitnessReport(
        witness_ids=witness,
        representatives=reps,
        transversal=minimal,
        transversal_pairs=pairs,
        per_member_sets=cores,
        size_bound=bound,
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
    sep_size = len(separating_members(full.division, a, b))
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


def count_by_recurrence(dim: int, k: int) -> int:
    """The partition count as a Pascal-style recurrence, no binomials."""
    if dim == 0 or k == 1:
        return 1
    return count_by_recurrence(dim, k - 1) + count_by_recurrence(dim - 1, k - 1)


# --- the exact kernel and predicates as they stood in Fraction arithmetic ---
#
# Fourier-Motzkin elimination over a row list with a parallel dedup index,
# back-substitution with Fraction values, the fraction-exact determinant and
# the Fraction side value, kept verbatim as the references that the integer
# routines must match value for value.

_TRUE = 1    # row is trivially satisfied, drop it
_FALSE = 0   # row is unsatisfiable
_KEPT = 2


def _add_row(rows, index, coeffs, rhs, strict) -> int:
    """Insert a row with dominance dedup; returns _FALSE on a violated constant."""
    if not any(coeffs):
        if rhs < 0 or (rhs == 0 and strict):
            return _FALSE
        return _TRUE
    g = gcd(*coeffs, rhs)
    if g > 1:
        coeffs = tuple(c // g for c in coeffs)
        rhs //= g
    pos = index.get(coeffs)
    if pos is None:
        index[coeffs] = len(rows)
        rows.append([coeffs, rhs, strict])
    else:
        old = rows[pos]
        # keep the tighter of two parallel constraints
        if rhs < old[1] or (rhs == old[1] and strict and not old[2]):
            old[1] = rhs
            old[2] = strict
    return _KEPT


def _eliminate(rows, j):
    """Project out variable j; returns the new row list or None if infeasible."""
    out, index = [], {}
    pos, neg = [], []
    for row in rows:
        c = row[0][j]
        if c > 0:
            pos.append(row)
        elif c < 0:
            neg.append(row)
        else:
            if _add_row(out, index, row[0], row[1], row[2]) == _FALSE:
                return None
    for pc, pr, ps in pos:
        a = pc[j]
        for nc, nr, ns in neg:
            b = nc[j]  # b < 0
            coeffs = tuple(a * ni - b * pi for pi, ni in zip(pc, nc))
            if _add_row(out, index, coeffs, a * nr - b * pr, ps or ns) == _FALSE:
                return None
    return out


def _bounds(rows, j, values):
    """Lower/upper bounds on variable j once variables above j are fixed."""
    lo = up = None  # (value, strict)
    for coeffs, rhs, strict in rows:
        c = coeffs[j]
        if c == 0:
            continue
        rest = Fraction(rhs)
        for i in range(j + 1, len(coeffs)):
            if coeffs[i]:
                rest -= coeffs[i] * values[i]
        val = rest / c
        if c > 0:
            if up is None or val < up[0] or (val == up[0] and strict):
                up = (val, strict)
        else:
            if lo is None or val > lo[0] or (val == lo[0] and strict):
                lo = (val, strict)
    return lo, up


def _pick(lo, up) -> Fraction:
    if lo is None and up is None:
        return Fraction(0)
    if lo is None:
        return up[0] - 1
    if up is None:
        return lo[0] + 1
    if lo[0] < up[0]:
        return (lo[0] + up[0]) / 2
    if lo[0] == up[0] and not lo[1] and not up[1]:
        return lo[0]
    raise VerificationError("empty interval after feasible elimination")


def fraction_feasible_point(constraints, nvars: int):
    """The witness ``linsolve.feasible_point`` must return, or None when the
    system is infeasible: the same elimination, bounds compared as Fractions."""
    rows, index = [], {}
    for coeffs, rhs, strict in constraints:
        values = [Fraction(v) for v in (*coeffs, rhs)]
        den = lcm(*(v.denominator for v in values))
        ints = [int(v * den) for v in values]
        if _add_row(rows, index, tuple(ints[:-1]), ints[-1], strict) == _FALSE:
            return None
    stages = []
    for j in range(nvars):
        stages.append(rows)
        if j < nvars - 1:
            rows = _eliminate(rows, j)
            if rows is None:
                return None
    values: list = [None] * nvars
    lo, up = _bounds(stages[-1], nvars - 1, values)
    if lo is not None and up is not None and (
        lo[0] > up[0] or (lo[0] == up[0] and (lo[1] or up[1]))
    ):
        return None
    for j in range(nvars - 1, -1, -1):
        values[j] = _pick(*_bounds(stages[j], j, values))
    return tuple(values)


def _det_sign(rows: list[list[Fraction]]) -> int:
    """Sign of the determinant of a square matrix, by fraction-exact elimination."""
    n = len(rows)
    sign = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            sign = -sign
        lead = rows[col][col]
        if lead < 0:
            sign = -sign
        for r in range(col + 1, n):
            factor = rows[r][col] / lead
            if factor:
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return sign


def fraction_orient(points: Sequence[Point]) -> int:
    """Orientation sign of dim+1 points from Fraction differences."""
    base = points[0].coords
    rows = [[x - b for x, b in zip(p.coords, base)] for p in points[1:]]
    return _det_sign(rows)


def fraction_det(rows: Sequence[Sequence]) -> Fraction:
    """Determinant of a square matrix by cofactor expansion along its first
    row, in Fractions: no elimination, so no pivot and no row swap."""
    if not rows:
        return Fraction(1)
    return sum(
        (-1) ** j * Fraction(x) * fraction_det([row[:j] + row[j + 1:] for row in rows[1:]])
        for j, x in enumerate(rows[0])
    )


def fraction_value_at(plane: Hyperplane, coords: Sequence) -> Fraction:
    """normal . coords - offset, summed in Fractions."""
    return sum((n * Fraction(x) for n, x in zip(plane.normal, coords)), -plane.offset)


# --- the integer elimination loops before the tail-only rewrite ---
#
# One call per inserted row, full-length combined rows and carried rows
# re-inserted, kept verbatim, with the row conversion, bounds and picks of the
# kernel whose rows each carried a strictness flag.


def _to_int_row(coeffs: Sequence, rhs, strict: bool):
    """The row over integers; a row already in integers is passed through."""
    if type(rhs) is int and all(type(c) is int for c in coeffs):
        return tuple(coeffs), rhs, strict
    values = (*coeffs, rhs)
    den = lcm(*(Fraction(v).denominator for v in values))
    ints = [int(Fraction(v) * den) for v in values]
    return tuple(ints[:-1]), ints[-1], strict


def _interval(rows, j, values):
    """Bounds (num, den, strict) on variable j once the variables after it
    take ``values``, cross-multiplied over one denominator; of two equal
    bounds the strict one is kept."""
    later = values[j + 1:]
    scale = lcm(*(v.denominator for v in later))
    later = [v.numerator * (scale // v.denominator) for v in later]
    lo = up = None
    for coeffs, (rhs, strict) in rows.items():
        c = coeffs[j] * scale
        if c == 0:
            continue
        num = rhs * scale - sum(x * v for x, v in zip(coeffs[j + 1:], later))
        if c > 0:
            if up is None or num * up[1] < up[0] * c or (
                num * up[1] == up[0] * c and strict
            ):
                up = (num, c, strict)
        else:
            num, c = -num, -c
            if lo is None or num * lo[1] > lo[0] * c or (
                num * lo[1] == lo[0] * c and strict
            ):
                lo = (num, c, strict)
    return lo, up


def _empty(lo, up) -> bool:
    if lo is None or up is None:
        return False
    left, right = lo[0] * up[1], up[0] * lo[1]
    return left > right or (left == right and (lo[2] or up[2]))


def _int_pick(lo, up) -> Fraction:
    """The midpoint, one past the single bound, or 0."""
    if _empty(lo, up):
        raise VerificationError("empty interval after feasible elimination")
    if lo is None and up is None:
        return Fraction(0)
    if lo is None:
        return Fraction(up[0] - up[1], up[1])
    if up is None:
        return Fraction(lo[0] + lo[1], lo[1])
    return Fraction(lo[0] * up[1] + up[0] * lo[1], 2 * lo[1] * up[1])


def _int_add_row(rows, coeffs, rhs, strict) -> bool:
    """Insert a row, keeping the tighter of two parallel ones; False on a
    violated constant row."""
    g = gcd(*coeffs)
    if g == 0:
        return rhs > 0 or (rhs == 0 and not strict)
    g = gcd(g, rhs)
    if g > 1:
        coeffs = tuple(c // g for c in coeffs)
        rhs //= g
    old = rows.get(coeffs)
    if old is None or rhs < old[0] or (rhs == old[0] and strict and not old[1]):
        rows[coeffs] = (rhs, strict)  # a parallel row keeps its place
    return True


def _int_eliminate(rows, j):
    """Project out variable j; returns the new rows or None if infeasible."""
    out = {}
    pos, neg = [], []
    for coeffs, (rhs, strict) in rows.items():
        c = coeffs[j]
        if c > 0:
            pos.append((coeffs, rhs, strict))
        elif c < 0:
            neg.append((coeffs, rhs, strict))
        elif not _int_add_row(out, coeffs, rhs, strict):
            return None
    for pc, pr, ps in pos:
        a = pc[j]
        for nc, nr, ns in neg:
            b = nc[j]  # b < 0
            coeffs = tuple(a * ni - b * pi for pi, ni in zip(pc, nc))
            if not _int_add_row(out, coeffs, a * nr - b * pr, ps or ns):
                return None
    return out


def _int_load(rows_in, nvars: int) -> Optional[dict]:
    rows: dict = {}
    for coeffs, rhs, strict in rows_in:
        if len(coeffs) != nvars:
            raise ValueError(f"expected {nvars} coefficients, got {len(coeffs)}")
        if not _int_add_row(rows, coeffs, rhs, strict):
            return None
    return rows


def int_elimination(rows_in, nvars: int) -> Optional[tuple]:
    """``(stages, bounds)`` of the reference loops on integer rows: the system
    before each elimination step but the last, and the bounds on the last
    variable; None if infeasible."""
    rows = _int_load(rows_in, nvars)
    if rows is None:
        return None
    stages = []
    for j in range(nvars - 1):
        stages.append(rows)
        rows = _int_eliminate(rows, j)
        if rows is None:
            return None
    bounds = _interval(rows, nvars - 1, ())
    return None if _empty(*bounds) else (stages, bounds)


def int_feasible_point(constraints, nvars: int):
    """The point ``linsolve.feasible_point`` must return, or None."""
    found = int_elimination([_to_int_row(*c) for c in constraints], nvars)
    if found is None:
        return None
    stages, bounds = found
    values: list = [None] * nvars
    for j in range(nvars - 1, -1, -1):
        values[j] = _int_pick(*bounds)
        if j:
            bounds = _interval(stages[j - 1], j - 1, values)
    return tuple(values)


def dual_rows(points: Sequence[Point], sides: Sequence, anchor: Point) -> list:
    """The rational rows of the halfspace dual through ``anchor``: for every
    other point p, in order, ``(p - anchor, 1)`` (normal . (p - anchor) < 1)
    when p's side label is the anchor's, ``(anchor - p, -1)`` (> 1)
    otherwise."""
    anchor_side = {p.id: side for p, side in zip(points, sides)}[anchor.id]
    rows = []
    for p, side in zip(points, sides):
        if p.id != anchor.id:
            shifted = tuple(x - b for x, b in zip(p.coords, anchor.coords))
            sign = 1 if side == anchor_side else -1
            rows.append((tuple(sign * x for x in shifted), sign))
    return rows


def int_helly_plane(config: PointConfig, base_id: int) -> Optional[Hyperplane]:
    """The hyperplane ``helly_dual(config, base_id).separating_hyperplane()``
    must return for a configuration of two colors: the dual's rational rows,
    each flagged strict, solved by the reference loops and translated back
    as the package does."""
    base = config.point(base_id)
    base_color = config.color_of(base_id)
    rows = [(*row, True) for row in dual_rows(config.points, config.colors, base)]
    lam = int_feasible_point(rows, config.dim)
    if lam is None:
        return None
    plane = Hyperplane(lam, 1 + sum(l * x for l, x in zip(lam, base.coords)))
    if base_color == 0:
        plane = Hyperplane(tuple(-x for x in plane.normal), -plane.offset)
    return plane
