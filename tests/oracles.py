"""Independent slow oracles the test suite compares the package against.

Separability goes through sympy's exact linear solver on convex-combination
systems, transversal checking enumerates full subfamilies outright, and the
counting formulas are recomputed from a lattice recurrence; none of these
imports the package's feasibility machinery.  The two subset scans are the
exception: they rebuild every candidate as a configuration and ask the
package's witness-producing separation oracle, a different route through the
solver than the decide-only scans they are compared with.  Slow on purpose;
keep inputs tiny.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from sympy import Matrix, Rational

from hyperpart import Division, Partition, PointConfig, color_separating_hyperplane


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
