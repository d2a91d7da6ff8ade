"""Points, hyperplanes, orientation, and strict separation."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy import Matrix, Rational

import hyperpart.geometry as geometry
import oracles
from strategies import degenerate_configs, general_configs
from hyperpart import (
    CampaignSpec,
    DomainError,
    Hyperplane,
    InvalidConfig,
    Point,
    general_position,
    make_config,
    one_side_hyperplane,
    orient,
    radon_signs,
    realize,
    run_suite,
    strict_separate,
)


def test_point_validation():
    with pytest.raises(InvalidConfig):
        Point(-1, (Fraction(0),))
    with pytest.raises(InvalidConfig):
        Point(0, ())


def test_hyperplane_needs_a_normal():
    with pytest.raises(InvalidConfig):
        Hyperplane((Fraction(0), Fraction(0)), Fraction(1))


def test_hyperplane_sides():
    h = Hyperplane((Fraction(1), Fraction(0)), Fraction(2))  # x = 2
    assert h.side_of(Point(0, (Fraction(3), Fraction(9)))) == 1
    assert h.side_of(Point(1, (Fraction(1), Fraction(-4)))) == -1
    assert h.side_of(Point(2, (Fraction(2), Fraction(5)))) == 0
    assert h.value_at(Point(0, (Fraction(3), Fraction(9)))) == 1


def test_orient_triangle():
    pts = [Point(0, (Fraction(0), Fraction(0))), Point(1, (Fraction(1), Fraction(0))),
           Point(2, (Fraction(0), Fraction(1)))]
    assert orient(pts, 2) == 1
    assert orient([pts[0], pts[2], pts[1]], 2) == -1


def test_orient_collinear_is_zero():
    pts = [Point(0, (Fraction(0), Fraction(0))), Point(1, (Fraction(1), Fraction(1))),
           Point(2, (Fraction(2), Fraction(2)))]
    assert orient(pts, 2) == 0


def test_general_position():
    assert general_position(make_config(2, [(0, 0), (1, 0), (0, 1), (2, 3)]))
    assert not general_position(make_config(2, [(0, 0), (1, 0), (2, 0), (0, 1)]))
    # fewer than d+1 points: in general position when affinely independent
    assert general_position(make_config(3, [(0, 0, 0), (1, 1, 1)]))
    assert general_position(make_config(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0)]))
    assert not general_position(make_config(3, [(0, 0, 0), (1, 1, 1), (2, 2, 2)]))
    assert not general_position(make_config(3, [(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0)]))
    assert general_position(make_config(3, [(5, 1, 2)]))


def test_orientation_table_holds_every_sign():
    """The table is the chirotope: every dim+1 points' sign, zeros included,
    and general position is "no zero"."""
    general = make_config(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 2)])
    collinear = make_config(2, [(0, 0), (1, 0), (2, 0), (0, 1)])
    for cfg in (general, collinear):
        assert cfg.orientations == {
            ids: oracles.fraction_orient([cfg.point(i) for i in ids])
            for ids in combinations(cfg.ids, cfg.dim + 1)
        }
        assert general_position(cfg) == (0 not in cfg.orientations.values())
    assert len(general.orientations) == 5 and general_position(general)
    assert collinear.orientations == {(0, 1, 2): 0, (0, 1, 3): 1, (0, 2, 3): 1, (1, 2, 3): 1}


@st.composite
def grid_configs(draw):
    """Distinct points of a small grid with denominators up to 3, d = 1 to 4
    and n = 1 to d+4, drawn without any general-position filter, so that a
    table that misses a zero, or reads one where there is none, is compared
    with the reference orientation too."""
    dim = draw(st.integers(1, 4))
    coord = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    points = draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=dim + 4, unique=True))
    return make_config(dim, points)


@given(st.one_of(general_configs(), degenerate_configs(), grid_configs()))
@example(make_config(4, [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
                         (1, 2, 3, 5), (-2, 1, 4, -1), (3, -1, -2, 2)]))
@example(make_config(4, [(3, 1, 4, 1), (5, 9, 2, 6), (5, 3, 5, 8), (9, 7, 9, 3), (2, 3, 8, 4),
                         (6, 2, 6, 4), (3, 3, 8, 3), (2, 7, 9, 5), (0, 2, 8, 8)]))
@example(make_config(4, [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 0),
                         (0, 0, 0, 1)]))  # five points on x4 = 0
@example(make_config(4, [(0, 0, 0, 0), (1, 2, 3, 4), (2, 4, 6, 8), (0, 1, 0, 0)]))
def test_orientation_table_matches_orient_in_order(cfg):
    """The table read off spanned hyperplanes holds every dim+1 points'
    orientation sign (the Fraction determinant of ``oracles``), zeros
    included, keyed and inserted in ``combinations`` order; it is empty when
    n <= dim.  General position is "no zero in the table", and with n <= dim
    the points' affine independence."""
    table = cfg.orientations
    expected = {
        ids: oracles.fraction_orient([cfg.point(i) for i in ids])
        for ids in combinations(cfg.ids, cfg.dim + 1)
    }
    assert list(table.items()) == list(expected.items())
    if len(cfg) <= cfg.dim:
        base = cfg.points[0].coords
        rows = [[Rational(x - b) for x, b in zip(p.coords, base)] for p in cfg.points[1:]]
        assert table == {}
        assert general_position(cfg) == (not rows or Matrix(rows).rank() == len(rows))
    else:
        assert general_position(cfg) == (0 not in expected.values())


def test_radon_signs_of_the_square():
    # the diagonals {0, 1} and {2, 3} cross
    cfg = make_config(2, [(0, 0), (1, 1), (1, 0), (0, 1)])
    signs = radon_signs(cfg, (0, 1, 2, 3))
    assert signs in ((1, 1, -1, -1), (-1, -1, 1, 1))
    with pytest.raises(DomainError):
        radon_signs(cfg, (0, 1, 2))
    with pytest.raises(DomainError):
        radon_signs(make_config(2, [(0, 0), (1, 1), (2, 2), (0, 1)]), (0, 1, 2, 3))


@pytest.mark.parametrize("ids", [(1, 0, 2, 3), (0, 0, 1, 2), (0, 1, 2, 7), [1, 0, 2, 3]])
def test_radon_signs_need_increasing_ids_of_the_configuration(ids):
    cfg = make_config(2, [(0, 0), (1, 1), (1, 0), (0, 1)])
    with pytest.raises(DomainError, match="increasing ids"):
        radon_signs(cfg, ids)
    # any sequence of ids will do: a list reads the same signs as the tuple
    assert radon_signs(cfg, [0, 1, 2, 3]) == radon_signs(cfg, (0, 1, 2, 3))


@settings(max_examples=30)
@given(
    st.integers(min_value=1, max_value=2).flatmap(
        lambda d: st.tuples(
            st.just(d),
            st.lists(st.tuples(*[st.integers(-3, 3)] * d), min_size=d + 2, max_size=d + 2, unique=True),
        )
    )
)
def test_radon_signs_give_the_only_inseparable_labelling(case):
    dim, coords = case
    cfg = make_config(dim, coords)
    assume(general_position(cfg))
    signs = radon_signs(cfg, cfg.ids)
    for mask in range(1, 2 ** (dim + 1)):  # every two-sided labelling, up to a swap
        plus = [c for t, c in enumerate(coords) if mask >> t & 1]
        minus = [c for t, c in enumerate(coords) if not mask >> t & 1]
        radon = all((mask >> t & 1 == mask & 1) == (s == signs[0]) for t, s in enumerate(signs))
        assert oracles.strictly_separable(plus, minus) != radon


def test_config_rejects_duplicates():
    from hyperpart import PointConfig

    with pytest.raises(InvalidConfig):
        make_config(2, {0: (0, 0), 1: (0, 0)})  # coincident coordinates
    with pytest.raises(InvalidConfig):
        PointConfig(1, (Point(3, (Fraction(0),)), Point(3, (Fraction(1),))))
    with pytest.raises(InvalidConfig):
        make_config(2, [(0, 0), (1,)])  # wrong arity


def test_color_labels_become_dense_ids():
    cfg = make_config(1, [(0,), (1,), (2,)], colors=["blue", "red", "blue"])
    assert cfg.colors == (0, 1, 0)
    assert cfg.k == 2
    assert cfg.color_classes == {0: (0, 2), 1: (1,)}
    assert cfg.color_of(2) == 0


def test_partial_coloring_rejected():
    with pytest.raises(InvalidConfig):
        make_config(1, [(0,), (1,)], colors=["a"])


def test_subset_and_translate():
    cfg = make_config(2, {5: (0, 0), 9: (1, 1), 2: (2, 0)}, colors={5: "x", 9: "y", 2: "x"})
    sub = cfg.subset([9, 2])
    assert sub.ids == (2, 9)
    assert sub.k == 2
    moved = cfg.translate((Fraction(1), Fraction(-1)))
    assert moved.point(5).coords == (Fraction(1), Fraction(-1))
    assert moved.colors == cfg.colors


def test_strict_separate_margin():
    a = [Point(0, (Fraction(0), Fraction(0)))]
    b = [Point(1, (Fraction(3), Fraction(0)))]
    plane = strict_separate(a, b, 2)
    assert plane is not None
    assert plane.value_at(a[0]) >= 1
    assert plane.value_at(b[0]) <= -1


def test_strict_separate_infeasible_when_hulls_overlap():
    # b sits at the midpoint of the a-segment
    a = [Point(0, (Fraction(0),)), Point(1, (Fraction(2),))]
    b = [Point(2, (Fraction(1),))]
    assert strict_separate(a, b, 1) is None


def test_strict_separate_rejects_shared_coordinates():
    p = Point(0, (Fraction(1), Fraction(1)))
    q = Point(1, (Fraction(1), Fraction(1)))
    with pytest.raises(DomainError):
        strict_separate([p], [q], 2)


def test_one_side_hyperplane():
    cfg = make_config(2, [(0, 5), (-3, 2), (4, 1)])
    plane = one_side_hyperplane(cfg.points, cfg.dim)
    assert all(plane.side_of(p) == 1 for p in cfg.points)


def test_realize_round_trip(quad):
    plane = Hyperplane((Fraction(1), Fraction(0)), Fraction(1, 2))  # x = 1/2
    part = realize(plane, quad)
    assert part.blocks == ((0, 3), (1, 2))


def test_realize_rejects_points_on_the_plane(quad):
    through = Hyperplane((Fraction(1), Fraction(0)), Fraction(0))  # x = 0 hits id 0
    with pytest.raises(DomainError):
        realize(through, quad)


_coord = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def _distinct_sides(draw_dim, na, nb):
    return st.tuples(
        st.lists(st.lists(_coord, min_size=draw_dim, max_size=draw_dim).map(tuple),
                 min_size=na, max_size=na, unique=True),
        st.lists(st.lists(_coord, min_size=draw_dim, max_size=draw_dim).map(tuple),
                 min_size=nb, max_size=nb, unique=True),
    )


@given(
    st.integers(min_value=1, max_value=2).flatmap(
        lambda d: st.tuples(st.just(d), _distinct_sides(d, 2, 2))
    )
)
def test_strict_separate_matches_hull_oracle(case):
    """Dual route: feasibility answer == sympy hull-disjointness answer."""
    dim, (side_a, side_b) = case
    if set(side_a) & set(side_b):
        return
    pa = [Point(i, c) for i, c in enumerate(side_a)]
    pb = [Point(100 + i, c) for i, c in enumerate(side_b)]
    mine = strict_separate(pa, pb, dim) is not None
    assert mine == oracles.strictly_separable(side_a, side_b)
    if dim == 1:
        assert mine == oracles.hulls_disjoint_1d(side_a, side_b)


_rational = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def _vectors(dim, count):
    vector = st.lists(_rational, min_size=dim, max_size=dim).map(tuple)
    return st.lists(vector, min_size=count, max_size=count)


@given(
    st.integers(min_value=1, max_value=3).flatmap(
        lambda d: st.tuples(
            st.just(d),
            _vectors(d, d + 1),
            st.none() | st.lists(_rational, min_size=d - 1, max_size=d - 1),
        )
    )
)
def test_orient_matches_the_fraction_determinant(case):
    """Random rational simplices; with weights drawn, the last point is an
    affine combination of the first dim points, so the sign must be 0."""
    dim, coords, weights = case
    if weights is not None:
        weights.append(1 - sum(weights))
        coords[-1] = tuple(
            sum(w * c[i] for w, c in zip(weights, coords)) for i in range(dim)
        )
    points = [Point(i, c) for i, c in enumerate(coords)]
    expected = oracles.fraction_orient(points)
    assert orient(points, dim) == expected
    if weights is not None:
        assert expected == 0


@given(
    st.integers(min_value=0, max_value=4).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n),
            st.booleans(),
        )
    )
)
@example(([[0, 1, 2, 3], [0, 4, 5, 6], [7, 8, 9, 1], [2, 3, 4, 5]], False))
@example(([[1, 2, 3, 4], [2, 4, 6, 9], [0, 0, 5, 1], [1, 3, 0, 2]], False))  # a zero pivot at column 1
def test_det_matches_the_cofactor_expansion(case):
    """Bareiss for sizes 0 to 4; with ``swap`` the first column's top entry
    is 0, so a matrix of size 2 or more takes the row-swap path."""
    rows, swap = case
    if swap and rows:
        rows[0][0] = 0
    expected = oracles.fraction_det(rows)
    assert geometry._det([list(row) for row in rows]) == expected


@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda dim: st.tuples(
            st.lists(
                st.lists(st.integers(-9, 9), min_size=dim, max_size=dim),
                min_size=dim + 1, max_size=dim + 1,
            ),
            st.lists(st.integers(-2, 2), min_size=2, max_size=2),
            st.booleans(),
        )
    )
)
@example(([[1, 2], [1, 2], [0, 5]], [0, 0], False))  # two equal points of R^2
@example(([[0, 1, 2], [3, 1, 0], [6, 1, -2], [1, 1, 1]], [0, 0], False))  # collinear in R^3
@example(([[1, 0, 0, 2], [0, 1, 0, 3], [0, 0, 1, 4], [1, 1, 1, 9], [2, 0, 1, 1]], [1, 1], True))
def test_spanned_normal_matches_the_fraction_cofactors(case):
    """The normal is the cofactor vector of the difference rows, whether in
    closed form (dims 2 and 3) or by ``_det`` (dims 1 and 4), and a point's
    value is (-1)^(dim-1) times the determinant with its row appended.  With
    ``dependent`` the last spanning point is moved onto the affine span of
    the others (onto the first in dim 2), and the normal is zero."""
    points, weights, dependent = case
    dim = len(points[0])
    span, x = points[:dim], points[dim]
    origin = span[0]
    if dependent and dim > 1:
        span[-1] = [
            o + sum(w * (p[i] - o) for w, p in zip(weights, span[1:-1]))
            for i, o in enumerate(origin)
        ]
    rows = [[a - o for a, o in zip(p, origin)] for p in span[1:]]
    expected = [
        (-1) ** j * oracles.fraction_det([row[:j] + row[j + 1:] for row in rows]) for j in range(dim)
    ]
    normal, offset = geometry._spanned_normal(span)
    assert normal == expected
    assert offset == sum(n * o for n, o in zip(normal, origin))
    value = sum(n * v for n, v in zip(normal, x)) - offset
    appended = rows + [[v - o for v, o in zip(x, origin)]]
    assert value == (-1) ** (dim - 1) * oracles.fraction_det(appended)
    if dependent and dim > 1:
        assert not any(normal)


@given(
    st.integers(min_value=1, max_value=3).flatmap(
        lambda d: st.tuples(
            _vectors(d, 2).filter(lambda v: any(v[0])), _rational, st.booleans()
        )
    )
)
def test_side_tests_match_the_fraction_value(case):
    """value_at and side_of on random rationals, given as a Point, as
    Fractions and as strings; on_plane moves the point onto the plane."""
    (normal, coords), offset, on_plane = case
    plane = Hyperplane(normal, offset)
    if on_plane:
        i = next(i for i, n in enumerate(normal) if n)
        rest = sum(n * x for j, (n, x) in enumerate(zip(normal, coords)) if j != i)
        coords = coords[:i] + ((offset - rest) / normal[i],) + coords[i + 1:]
    expected = oracles.fraction_value_at(plane, coords)
    sign = (expected > 0) - (expected < 0)
    for at in (Point(0, coords), coords, [str(x) for x in coords]):
        assert plane.value_at(at) == expected
        assert plane.side_of(at) == sign
    if on_plane:
        assert sign == 0


def test_with_colors_shares_a_computed_orientation_table(quad):
    fresh = quad.with_colors(["a", "b", "a", "b"])
    assert "orientations" not in fresh.__dict__  # nothing computed, nothing shared
    table = quad.orientations
    assert quad.with_colors(["a", "b", "a", "b"]).orientations is table


def test_kirchberger_campaign_computes_each_orientation_once(monkeypatch):
    """Each trial's draw is checked for general position before it is
    colored; the colored copy reuses that table, so a trial at d=3, n=7
    computes the normals of its C(6, 3) = 20 point triples with a later
    point once (recomputing them for the colored copy makes 960 calls)."""
    calls = [0]
    normal = geometry._spanned_normal

    def counted(points):
        calls[0] += 1
        return normal(points)

    monkeypatch.setattr(geometry, "_spanned_normal", counted)
    report = run_suite(CampaignSpec(suite="kirchberger", dim=3, n=7, colors=2, trials=24))
    assert report["ok"]
    assert calls[0] <= 480


def test_points_carry_their_separation_rows():
    """Both rows of the separation system, positive side first, built once."""
    point = Point(0, (Fraction(1, 2), Fraction(-1, 3)))
    assert point.separation_rows == (((-3, 2, 6), -6), ((3, -2, -6), -6))
    assert point.separation_rows is point.separation_rows
