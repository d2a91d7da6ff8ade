"""Exact geometric primitives.

Points carry rational coordinates; all predicates (orientation, general
position, strict separability, sides of a hyperplane) are decided with exact
arithmetic, so there is no epsilon anywhere in this module.  They run on the
cached integer forms (``Point.scaled``, ``Hyperplane.scaled``): a rational is
formed only for a value that is returned.

A configuration computes its chirotope once, on first use, and keeps it
(``PointConfig.orientations``): the orientation sign of every dim+1 points,
zeros included (Björner, Las Vergnas, Sturmfels, White and Ziegler, *Oriented
Matroids*, 1999, §3.5).  The table is read off the hyperplanes the points
span: with the points on one common denominator (``integer_points``), each
dim-subset S gets the integer cofactor normal and offset of its hyperplane
(``_spanned_normal``: in closed form in dims 2 and 3, by fraction-free
determinants otherwise), and the sign of S with one later point p added is
(-1)^(dim-1) times the side of S's hyperplane that p lies on, one dot product
per sign (``_chirotope``).  General position is "no zero in the table"
(``general_position``).  Points that do not span R^dim are carried onto the
pivot columns of their differences (``_carried``), one-to-one on their span,
where they get a table of their own.  The signs decide every labelled subset
of at most dim+2 points without an LP: its labels must follow the signs of
its affine dependence (``radon_signs`` in general position).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import lcm
from operator import mul
from typing import Iterable, Mapping, Optional, Sequence, Union

from .errors import DomainError, InvalidConfig
from .linsolve import IntRow, feasible_point, scale_to_integers
from .partitions import Partition

Coords = tuple[Fraction, ...]
Scalar = Union[int, str, Fraction]


def as_coords(values: Iterable[Scalar]) -> Coords:
    return tuple(v if isinstance(v, Fraction) else Fraction(v) for v in values)


@dataclass(frozen=True)
class Point:
    id: int
    coords: Coords

    def __post_init__(self) -> None:
        if not isinstance(self.id, int) or self.id < 0:
            raise InvalidConfig(f"point id must be a nonnegative integer, got {self.id!r}")
        object.__setattr__(self, "coords", as_coords(self.coords))
        if not self.coords:
            raise InvalidConfig(f"point {self.id} has no coordinates")

    @property
    def dim(self) -> int:
        return len(self.coords)

    @cached_property
    def scaled(self) -> tuple[tuple[int, ...], int]:
        """``(ints, den)`` with coords == ints / den: the point for integer
        arithmetic."""
        return scale_to_integers(self.coords)

    @cached_property
    def separation_rows(self) -> tuple[IntRow, IntRow]:
        """The point's two rows of the separation system, the positive side's
        first, each an integer pair ``(coeffs, rhs)`` of a closed system.

        The unknowns are ``(normal, offset)``; the positive side reads
        normal.p >= offset+1, the negative one normal.p <= offset-1, both
        written as ``coeffs . x <= rhs`` and scaled by the lcm of the point's
        denominators.  By positive scaling of the unknowns the closed margin
        of 1 is equivalent to strict separation.
        """
        ints, den = self.scaled
        return (tuple(-v for v in ints) + (den,), -den), (ints + (-den,), -den)


@dataclass(frozen=True)
class Hyperplane:
    """Oriented hyperplane {x : normal . x = offset} with open sides.

    The positive side is {x : normal . x > offset}, the negative side the
    opposite open halfspace.
    """

    normal: Coords
    offset: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "normal", as_coords(self.normal))
        object.__setattr__(self, "offset", Fraction(self.offset))
        if not any(self.normal):
            raise InvalidConfig("hyperplane normal must be nonzero")

    @property
    def dim(self) -> int:
        return len(self.normal)

    @cached_property
    def scaled(self) -> tuple[tuple[int, ...], int]:
        """``(ints, den)`` with (*normal, offset) == ints / den."""
        return scale_to_integers(self.normal + (self.offset,))

    def _value(self, at: "Point | Sequence[Scalar]") -> tuple[int, int]:
        """``(num, den)`` with normal . at - offset == num / den, den > 0."""
        xs, den = at.scaled if isinstance(at, Point) else scale_to_integers(as_coords(at))
        if len(xs) != self.dim:
            raise DomainError(f"expected {self.dim} coordinates, got {len(xs)}")
        ints, scale = self.scaled
        return sum(map(mul, ints, xs)) - ints[-1] * den, scale * den

    def value_at(self, at: "Point | Sequence[Scalar]") -> Fraction:
        return Fraction(*self._value(at))

    def side_of(self, at: "Point | Sequence[Scalar]") -> int:
        num = self._value(at)[0]
        return (num > 0) - (num < 0)


@dataclass(frozen=True)
class PointConfig:
    """A finite labeled point set in R^dim, optionally colored.

    ``colors`` is aligned with ``points`` (which are kept sorted by id) and is
    always stored in canonical form: color ids are consecutive integers
    starting at 0, numbered by first appearance in id order.  Constructing a
    config therefore relabels any coloring it is given; color *classes* are
    preserved, labels are not.
    """

    dim: int
    points: tuple[Point, ...]
    colors: Optional[tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise InvalidConfig(f"dimension must be positive, got {self.dim}")
        pts = tuple(sorted(self.points, key=lambda p: p.id))
        if not pts:
            raise InvalidConfig("a point configuration must contain at least one point")
        object.__setattr__(self, "points", pts)
        for p in pts:
            if p.dim != self.dim:
                raise InvalidConfig(
                    f"point {p.id} has {p.dim} coordinates in a {self.dim}-dimensional config"
                )
        ids = [p.id for p in pts]
        if len(set(ids)) != len(ids):
            dup = sorted({i for i in ids if ids.count(i) > 1})
            raise InvalidConfig(f"duplicate point ids: {dup}")
        seen: dict[tuple[tuple[int, ...], int], int] = {}
        for p in pts:
            if p.scaled in seen:
                raise InvalidConfig(
                    f"points {seen[p.scaled]} and {p.id} share coordinates"
                )
            seen[p.scaled] = p.id
        if self.colors is not None:
            cols = tuple(self.colors)
            if len(cols) != len(pts):
                raise InvalidConfig(
                    f"{len(cols)} colors given for {len(pts)} points"
                )
            relabel: dict[object, int] = {}
            for c in cols:
                if c not in relabel:
                    relabel[c] = len(relabel)
            object.__setattr__(self, "colors", tuple(relabel[c] for c in cols))

    def __len__(self) -> int:
        return len(self.points)

    @cached_property
    def ids(self) -> tuple[int, ...]:
        return tuple(p.id for p in self.points)

    @cached_property
    def _by_id(self) -> dict[int, Point]:
        return {p.id: p for p in self.points}

    def point(self, id: int) -> Point:
        try:
            return self._by_id[id]
        except KeyError:
            raise DomainError(f"no point with id {id}") from None

    @property
    def k(self) -> int:
        """Number of distinct colors (0 when uncolored)."""
        return 0 if self.colors is None else len(set(self.colors))

    @cached_property
    def _color_by_id(self) -> dict[int, int]:
        return {} if self.colors is None else dict(zip(self.ids, self.colors))

    def color_of(self, id: int) -> int:
        if self.colors is None:
            raise DomainError("configuration carries no coloring")
        return self._color_by_id[self.point(id).id]

    @cached_property
    def color_classes(self) -> dict[int, tuple[int, ...]]:
        if self.colors is None:
            raise DomainError("configuration carries no coloring")
        classes: dict[int, list[int]] = {}
        for p, c in zip(self.points, self.colors):
            classes.setdefault(c, []).append(p.id)
        return {c: tuple(ids) for c, ids in sorted(classes.items())}

    @cached_property
    def integer_points(self) -> tuple[tuple[int, ...], ...]:
        """The points' coordinates in id order on one common denominator: the
        same configuration up to a positive scaling."""
        return _on_one_denominator(self.points)

    @cached_property
    def orientations(self) -> dict[tuple[int, ...], int]:
        """The configuration's chirotope: the orientation sign of every dim+1
        points, 0 when they lie on a common hyperplane, keyed by their ids in
        increasing order and inserted in the order of ``combinations``
        (``_chirotope`` on ``integer_points``).  Empty when n <= dim."""
        return dict(zip(combinations(self.ids, self.dim + 1),
                        _chirotope(self.integer_points, self.dim)))

    def subset(self, ids: Iterable[int]) -> "PointConfig":
        """Restriction to the given ids (colors relabeled canonically)."""
        wanted = set(ids)
        missing = wanted - set(self.ids)
        if missing:
            raise DomainError(f"ids not in configuration: {sorted(missing)}")
        if not wanted:
            raise DomainError("cannot restrict to an empty id set")
        pts = tuple(p for p in self.points if p.id in wanted)
        cols = None
        if self.colors is not None:
            cols = tuple(c for p, c in zip(self.points, self.colors) if p.id in wanted)
        return PointConfig(self.dim, pts, cols)

    def with_colors(self, labels: Sequence[object]) -> "PointConfig":
        """The same points under new labels.  An orientation table already
        computed is shared: the signs depend on the points alone."""
        config = PointConfig(self.dim, self.points, tuple(labels))  # type: ignore[arg-type]
        if "orientations" in self.__dict__:
            config.__dict__["orientations"] = self.orientations
        return config

    def translate(self, vector: Sequence[Scalar]) -> "PointConfig":
        v = as_coords(vector)
        if len(v) != self.dim:
            raise DomainError(f"translation vector has length {len(v)}, expected {self.dim}")
        pts = tuple(
            Point(p.id, tuple(x + dx for x, dx in zip(p.coords, v))) for p in self.points
        )
        return PointConfig(self.dim, pts, self.colors)


def make_config(
    dim: int,
    coords: Union[Sequence[Sequence[Scalar]], Mapping[int, Sequence[Scalar]]],
    colors: Optional[Union[Sequence[object], Mapping[int, object]]] = None,
) -> PointConfig:
    """Convenience builder: ids are list positions unless a mapping is given."""
    if isinstance(coords, Mapping):
        pts = tuple(Point(i, as_coords(c)) for i, c in sorted(coords.items()))
    else:
        pts = tuple(Point(i, as_coords(c)) for i, c in enumerate(coords))
    cols: Optional[tuple[object, ...]] = None
    if colors is not None:
        if isinstance(colors, Mapping):
            if set(colors) != {p.id for p in pts}:
                raise InvalidConfig("coloring must assign a color to every point id")
            cols = tuple(colors[p.id] for p in pts)
        else:
            cols = tuple(colors)
    return PointConfig(dim, pts, cols)  # type: ignore[arg-type]


def _det(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix, one cofactor of a
    ``_spanned_normal`` in dims 1 and >= 4, by fraction-free (Bareiss)
    elimination, in which every division is exact and the rows are
    overwritten."""
    n = len(rows)
    sign, prev = 1, 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            sign = -sign
        lead = rows[col][col]
        for r in range(col + 1, n):
            c = rows[r][col]
            rows[r] = [(lead * x - c * y) // prev for x, y in zip(rows[r], rows[col])]
        prev = lead
    return sign * prev


def _spanned_normal(points: Sequence[Sequence[int]]) -> tuple[list[int], int]:
    """``(normal, offset)`` of the hyperplane through dim integer points of
    R^dim, both integers; the normal is zero when the points are affinely
    dependent.

    The normal holds the cofactors of the dim-1 difference rows from the
    first point: (-1)^j times their minor without column j.  So for every x,
    normal . x - offset is (-1)^(dim-1) times the determinant of those rows
    with x minus the first point appended.  In dim 2 that is the difference
    row turned by a right angle, in dim 3 the cross product of the two rows;
    other dims take the minors by ``_det``.
    """
    origin = points[0]
    rows = [[x - o for x, o in zip(p, origin)] for p in points[1:]]
    if len(origin) == 2:
        ((a, b),) = rows
        normal = [b, -a]
    elif len(origin) == 3:
        (a, b, c), (d, e, f) = rows
        normal = [b * f - c * e, c * d - a * f, a * e - b * d]
    else:
        normal = [
            (-1) ** j * _det([row[:j] + row[j + 1:] for row in rows]) for j in range(len(origin))
        ]
    return normal, sum(map(mul, normal, origin))


def _chirotope(points: Sequence[Sequence[int]], dim: int) -> list[int]:
    """The orientation sign of every dim+1 of the integer points of R^dim, in
    the order of ``combinations``.

    Each dim+1 points are a dim-subset S and one point p after S's last.  The
    orientation is the determinant of the difference rows from S's first
    point, and expanding it along p's row gives (-1)^(dim-1) times
    normal . p - offset, with S's ``_spanned_normal``: one normal per S and
    one dot product per sign.  A dependent S has a zero normal, so all its
    signs are 0.
    """
    flip = (-1) ** (dim - 1)
    signs = []
    for span in combinations(range(len(points) - 1), dim):
        normal, offset = _spanned_normal([points[i] for i in span])
        for p in points[span[-1] + 1:]:
            value = sum(map(mul, normal, p)) - offset
            signs.append(flip if value > 0 else -flip if value else 0)
    return signs


def _pivot_columns(rows: list[list[int]]) -> list[int]:
    """The pivot columns of integer rows brought to echelon form: the rows
    restricted to them have the rows' full rank."""
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        lead = next((row for row in rows if row[col]), None)
        if lead is None:
            continue
        pivots.append(col)
        rows = [
            [lead[col] * x - row[col] * y for x, y in zip(row, lead)]
            for row in rows if row is not lead
        ]
    return pivots


def _carried(points: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Integer points carried onto the pivot columns of their differences
    from the first (``_pivot_columns``): a map that is one-to-one on their
    affine span, so the carried points keep every affine dependence and
    span R^r, r their length (0 for a single point)."""
    base = points[0]
    pivots = _pivot_columns([[x - b for x, b in zip(p, base)] for p in points[1:]])
    return [tuple(p[j] for j in pivots) for p in points]


def orient(points: Sequence[Point], dim: int) -> int:
    """Orientation sign of dim+1 points, 0 iff they lie on a common hyperplane,
    read as the orientation table reads it: (-1)^(dim-1) times the side of
    the last point from the ``_spanned_normal`` of the others."""
    if len(points) != dim + 1:
        raise DomainError(f"orientation in dimension {dim} needs {dim + 1} points, got {len(points)}")
    for p in points:
        if p.dim != dim:
            raise DomainError(f"point {p.id} has dimension {p.dim}, expected {dim}")
    *span, last = _on_one_denominator(points)
    normal, offset = _spanned_normal(span)
    value = (-1) ** (dim - 1) * (sum(map(mul, normal, last)) - offset)
    return (value > 0) - (value < 0)


def _on_one_denominator(points: Sequence[Point]) -> tuple[tuple[int, ...], ...]:
    """The points' coordinates, all scaled by the lcm of their denominators."""
    den = lcm(*(p.scaled[1] for p in points))
    return tuple(tuple(v * (den // d) for v in ints) for ints, d in (p.scaled for p in points))


def general_position(config: PointConfig) -> bool:
    """True iff no dim+1 points lie on a common hyperplane, that is, no sign
    of the orientation table is 0; with fewer than dim+1 points, iff the
    points are affinely independent: carried onto their span (``_carried``),
    n points span R^(n-1)."""
    if len(config) > config.dim:
        return 0 not in config.orientations.values()
    return len(_carried(config.integer_points)[0]) == len(config) - 1


def radon_signs(config: PointConfig, ids: Sequence[int]) -> tuple[int, ...]:
    """The sign of each point's coefficient in the affine dependence of dim+2
    points of a configuration in general position (``general_position``), ids
    increasing; other ids, or a configuration with a zero orientation, are a
    DomainError.

    By Cramer's rule the coefficient of the t-th point is proportional to
    (-1)^t times the orientation of the other dim+1, an entry of the table,
    and in general position none is zero.  The points of either sign are the
    two sides of the unique Radon partition, whose convex hulls meet; every
    other labelling of the points with two labels is strictly separable.
    """
    table, key = config.orientations, tuple(ids)
    if not general_position(config):
        raise DomainError("Radon signs need a configuration in general position")
    if len(key) != config.dim + 2:
        raise DomainError(f"Radon signs in dimension {config.dim} need {config.dim + 2} points")
    try:
        return tuple((-1) ** t * table[key[:t] + key[t + 1:]] for t in range(len(key)))
    except KeyError:
        raise DomainError(
            f"Radon signs need increasing ids of the configuration, got {key}"
        ) from None


def strict_separate(
    side_a: Iterable[Point], side_b: Iterable[Point], dim: int
) -> Optional[Hyperplane]:
    """A hyperplane with side_a strictly positive and side_b strictly negative.

    Decided exactly: feasibility of {normal.a >= offset+1, normal.b <= offset-1},
    which by positive scaling is equivalent to the open conditions.  Returns
    None when the convex hulls meet.
    """
    a_pts = tuple(side_a)
    b_pts = tuple(side_b)
    if not a_pts or not b_pts:
        raise DomainError("strict separation needs two nonempty sides")
    for p in a_pts + b_pts:
        if p.dim != dim:
            raise DomainError(f"point {p.id} has dimension {p.dim}, expected {dim}")
    if {p.scaled for p in a_pts} & {p.scaled for p in b_pts}:
        raise DomainError("sides share a coordinate vector")
    constraints = [p.separation_rows[0] for p in a_pts]
    constraints += [p.separation_rows[1] for p in b_pts]
    solution = feasible_point(constraints, dim + 1, strict=False)
    if solution is None:
        return None
    return Hyperplane(solution[:dim], solution[dim])


def one_side_hyperplane(points: Iterable[Point], dim: int) -> Hyperplane:
    """A hyperplane with every given point strictly on its positive side."""
    pts = tuple(points)
    if not pts:
        raise DomainError("need at least one point")
    lowest = min(p.coords[0] for p in pts)
    normal = (Fraction(1),) + (Fraction(0),) * (dim - 1)
    return Hyperplane(normal, lowest - 1)


def realize(hyperplane: Hyperplane, config: PointConfig) -> Partition:
    """The partition of the config into the hyperplane's two open sides.

    An empty side is dropped, so a hyperplane with the whole config on one side
    realizes the trivial partition.  A point lying exactly on the hyperplane is
    rejected: sides are open.
    """
    if hyperplane.dim != config.dim:
        raise DomainError(
            f"hyperplane has dimension {hyperplane.dim}, config {config.dim}"
        )
    plus, minus = [], []
    for p in config.points:
        s = hyperplane.side_of(p)
        if s == 0:
            raise DomainError(f"point {p.id} lies on the hyperplane")
        (plus if s > 0 else minus).append(p.id)
    return Partition(tuple(tuple(side) for side in (plus, minus) if side))
