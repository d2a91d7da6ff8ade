"""Enumeration of realizable partitions and the operations on top of it."""

from __future__ import annotations

import json
import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import Matrix, Rational, cos, pi, sin

import hyperpart.campaigns as campaigns
import hyperpart.cli as cli
import hyperpart.geometry as geometry
import hyperpart.hdivision as hdivision
import oracles
from strategies import degenerate_configs, general_configs
from hyperpart import (
    CampaignSpec,
    DomainError,
    Hyperplane,
    Partition,
    VerificationError,
    emit_instance,
    general_position,
    generate_instance,
    hyperplane_division,
    make_config,
    min_transversal_size,
    member_witness,
    minimal_transversals,
    one_side_hyperplane,
    orient,
    partition_count,
    pentagon_config,
    perturb,
    projective_flip,
    realizable_division,
    realize,
    separating_members,
    shrink_to_min,
)
from hyperpart.pentagon import (
    ADJACENT_VERTEX_PAIR,
    CENTER_VERTEX_PAIR,
    NONADJACENT_VERTEX_PAIR,
    _COORDS,
)


def _random_config(dim, n, seed, degenerate=False):
    spec = CampaignSpec(
        suite="hdiv-tests", dim=dim, n=n, trials=1, seed=seed, degenerate=degenerate
    )
    return generate_instance(spec)


def test_single_point():
    hd = hyperplane_division(make_config(2, [(1, 1)]))
    assert len(hd) == 1
    assert hd.members[0].is_trivial
    plane = hd.witness(hd.members[0])
    assert plane.side_of(hd.config.points[0]) == 1


def test_two_points():
    hd = hyperplane_division(make_config(1, [(0,), (1,)]))
    assert len(hd) == 2
    trivial = [m for m in hd.members if m.is_trivial][0]
    assert hd.witness(trivial) is not None  # the whole set fits one open side


def test_line_counts(line):
    for n in (2, 4, 7):
        assert len(hyperplane_division(line(n))) == n


def test_quad_count_and_membership(quad):
    hd = hyperplane_division(quad)
    assert len(hd) == 7
    blocks = {m.blocks for m in hd.members}
    assert ((0, 1, 2, 3),) in blocks
    assert ((0, 3), (1, 2)) in blocks  # the x = 1/2 split


def test_every_witness_realizes_its_member(quad, pentagon):
    for cfg in (quad, pentagon):
        hd = hyperplane_division(cfg)
        for member in hd.members:
            plane = hd.witness(member)
            if member.is_trivial:
                assert all(plane.side_of(p) == 1 for p in cfg.points)
                continue
            assert realize(plane, cfg) == member
            assert all(abs(plane.value_at(p)) >= 1 for p in cfg.points)


@pytest.mark.parametrize("wrong", ["all on one side", "through the first point"])
def test_a_wrong_witness_is_a_verification_error(quad, monkeypatch, wrong):
    def wrong_plane(side_a, side_b, dim):
        if wrong == "all on one side":
            return one_side_hyperplane(side_a + side_b, dim)
        return Hyperplane((1, 0), side_a[0].coords[0])

    monkeypatch.setattr(hdivision, "strict_separate", wrong_plane)
    with pytest.raises(VerificationError):
        hyperplane_division(quad)


@pytest.mark.parametrize(
    "dim,n,seed", [(1, 6, 31), (2, 5, 32), (2, 7, 33), (3, 5, 34), (3, 6, 35)]
)
def test_general_position_counts_match_formula(dim, n, seed):
    cfg = _random_config(dim, n, seed)
    assert len(hyperplane_division(cfg)) == partition_count(dim, n)


@pytest.mark.parametrize("dim,n,seed", [(2, 5, 41), (2, 7, 42), (3, 6, 43)])
def test_degenerate_counts_stay_below_formula(dim, n, seed):
    cfg = _random_config(dim, n, seed, degenerate=True)
    assert not general_position(cfg)
    assert len(hyperplane_division(cfg)) < partition_count(dim, n)


@settings(max_examples=60)
@example(make_config(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0)]))
@example(make_config(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]))
@example(make_config(2, [(0, 0), (1, 0), (0, 1)]))
@example(make_config(2, [(1, 1)]))
@given(general_configs())
def test_member_set_read_off_the_orientation_table_equals_enumeration(cfg):
    assert general_position(cfg)
    assert realizable_division(cfg) == hyperplane_division(cfg).division


def _moment_curve_masks(ts: list[int], dim: int) -> set[int]:
    """The members of the points (t, t^2, ..., t^dim) at distinct ``ts``, in
    id order, as ``member_masks`` writes them.  A hyperplane's equation on
    the curve is a polynomial of degree at most dim, so the points' sides
    change at most dim times in the order of t, and a root between each
    pair of neighbours at the chosen changes realizes any such sequence.
    Bit i is set when the i-th point lies on the first point's side."""
    along = sorted(range(len(ts)), key=ts.__getitem__)
    everything = (1 << len(ts)) - 1
    masks = set()
    for size in range(min(dim, len(ts) - 1) + 1):
        for changes in combinations(range(1, len(ts)), size):
            side, mask = 1, 0
            for place, i in enumerate(along):
                side ^= place in changes
                mask |= side << i
            masks.add(mask if mask & 1 else everything ^ mask)
    return masks


def _moment_curve(ts: list[int], dim: int):
    return make_config(dim, [tuple(t**e for e in range(1, dim + 1)) for t in ts])


def test_member_masks_at_the_caps_are_the_sign_sequences_of_the_moment_curve():
    """Known answer at d=3, n=16: the sign sequences with at most three
    changes, sum over i <= 3 of C(15, i) = 576 members."""
    ts = list(range(1, 17))
    expected = _moment_curve_masks(ts, 3)
    assert len(expected) == 576 == partition_count(3, 16)
    assert hdivision.member_masks(_moment_curve(ts, 3)) == expected


@settings(max_examples=60)
@given(
    st.integers(1, 3).flatmap(
        lambda dim: st.tuples(
            st.just(dim), st.lists(st.integers(-12, 12), min_size=1, max_size=12, unique=True)
        )
    )
)
def test_member_masks_on_the_moment_curve_are_its_sign_sequences(drawn):
    """Points in any id order, so that the orientation table, whose signs
    all agree when the ids follow t, holds both signs."""
    dim, ts = drawn
    assert hdivision.member_masks(_moment_curve(ts, dim)) == _moment_curve_masks(ts, dim)


def test_degenerate_member_set_is_the_enumeration(monkeypatch):
    # the read was the enumeration, 2^6 - 1 = 63 LPs; now no LP is solved
    cfg = _random_config(2, 7, 42, degenerate=True)
    expected = hyperplane_division(cfg).division
    solve = geometry.feasible_point
    lps = []
    monkeypatch.setattr(
        geometry, "feasible_point", lambda *args, **kwargs: lps.append(1) or solve(*args, **kwargs)
    )
    assert realizable_division(cfg) == expected
    assert len(lps) == 0


@settings(max_examples=150)
@example(make_config(2, [(x, y) for x in range(4) for y in range(3)]))  # a 3 x 4 grid
@example(make_config(3, [(t, 2 * t, -t) for t in range(7)]))  # 7 collinear points
@example(make_config(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 1, 1)]))
@example(make_config(  # a line of three points and a skew line of four
    3, [(-2, -3, -2), (-2, 5, 1), (-1, 4, 1), (0, -2, -2), (2, 1, 1), (3, 0, 1), (8, 2, -2)]
))
@example(make_config(2, [(0, 0), (1, 1), (2, 2)]))
# a collinear triple, a dependent triple of a configuration spanning R^3
@example(make_config(3, [(0, 0, 0), (1, 1, 1), (2, 2, 2), (1, 0, 0), (0, 1, 3)]))
@example(make_config(3, [  # five coplanar points and three off their plane
    (0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 3, 0), (1, 1, 1), (0, 1, -2), (3, 1, 2)
]))
@example(make_config(2, [(t, t) for t in range(6)] + [(0, 1), (3, -1)]))  # six on a line
@example(make_config(3, [  # one point on the plane of three others
    (0, 0, 0), (2, 0, 0), (0, 2, 0), (1, 3, 0), (0, 0, 1), (1, 2, 3)
]))
@given(degenerate_configs())
def test_degenerate_member_set_read_off_the_spanned_hyperplanes_equals_enumeration(cfg):
    assert not general_position(cfg)
    assert realizable_division(cfg) == hyperplane_division(cfg).division


@settings(max_examples=150)
@given(general_configs() | degenerate_configs(), st.data())
def test_restricted_masks_are_a_fresh_read_of_the_subset(cfg, data):
    """The members of a subset, restricted from the whole configuration's
    member masks, are the masks of a fresh read of the subset: each member by
    its block holding the subset's first point, a one-sided trace folded
    into the trivial member, and the count check passed."""
    ids = data.draw(st.sets(st.sampled_from(cfg.ids), min_size=1))
    subset = cfg.subset(ids)
    positions = [t for t, i in enumerate(cfg.ids) if i in ids]
    restricted = hdivision.restricted_masks(
        hdivision.member_masks(cfg), positions, cfg.dim, general_position(cfg)
    )
    assert restricted == hdivision.member_masks(subset)


def test_degenerate_read_checks_its_count_bounds(monkeypatch):
    """Too few members (no pattern for the points spanning a hyperplane) and
    too many (every pattern for the points on a hyperplane) are refused."""
    line = make_config(3, [(t, 2 * t, -t) for t in range(7)])
    eight_on_a_line = make_config(2, [(t, 0) for t in range(8)] + [(0, 1)])
    flat_sides = hdivision._flat_sides

    def free_on_flats(points, dim, signs, read):
        if any(signs):  # the configuration's own read; a flat comes with no table
            return flat_sides(points, dim, signs, read)
        everything = sum(bit for bit, _ in points)
        return set(hdivision._submasks(everything))

    with monkeypatch.context() as patch:
        patch.setattr(hdivision, "_submasks", lambda mask: ())
        with pytest.raises(VerificationError, match="expected 7 to 42"):
            realizable_division(line)
    monkeypatch.setattr(hdivision, "_flat_sides", free_on_flats)
    with pytest.raises(VerificationError, match="expected 9 to 37"):
        realizable_division(eight_on_a_line)


@pytest.mark.parametrize("dim,n,seed,degenerate", [
    (1, 5, 81, False), (2, 7, 82, False), (3, 6, 83, False), (2, 6, 84, True),
])
def test_member_witness_is_the_enumeration_witness(pentagon, dim, n, seed, degenerate):
    for cfg in (pentagon, _random_config(dim, n, seed, degenerate)):
        hd = hyperplane_division(cfg)
        for member in hd.members:
            assert member_witness(cfg, member) == hd.witness(member)


def test_member_witness_refuses_a_non_member(quad):
    with pytest.raises(VerificationError):
        member_witness(quad, Partition(((0, 2), (1, 3))))  # the diagonals cross
    with pytest.raises(DomainError):
        member_witness(quad, Partition(((0, 1), (2,))))


@pytest.mark.parametrize("patterns", [lambda mask: (0,), lambda mask: (mask,)])
def test_reading_without_the_spanning_patterns_fails_the_count(monkeypatch, pentagon, patterns):
    # the points spanning each hyperplane must take all 2^dim sides
    monkeypatch.setattr(hdivision, "_submasks", patterns)
    for _ in range(3):
        with pytest.raises(VerificationError, match="expected 16 to 16"):
            realizable_division(pentagon)


def test_pentagon_matches_exact_trigonometric_order_type():
    """The shipped rational coordinates must have the same orientation on
    every triple as the exact unit-circle pentagon with center."""
    exact = [Matrix([Rational(0), Rational(0)])]
    for j in range(5):
        angle = pi / 2 + 2 * pi * j / 5
        exact.append(Matrix([cos(angle), sin(angle)]))
    cfg = pentagon_config()
    for i, j, k in combinations(range(6), 3):
        det = Matrix(
            [
                (exact[j] - exact[i]).T,
                (exact[k] - exact[i]).T,
            ]
        ).det()
        sign = 1 if det.is_positive else -1 if det.is_negative else 0
        pts = [cfg.point(i), cfg.point(j), cfg.point(k)]
        assert orient(pts, 2) == sign != 0, (i, j, k)


def test_pentagon_config_checks_its_order_type(monkeypatch):
    """Coordinates off the pentagon's order type (two vertices swapped, still
    in general position) are refused."""
    coords = list(_COORDS)
    coords[1], coords[2] = coords[2], coords[1]
    monkeypatch.setattr("hyperpart.pentagon._COORDS", tuple(coords))
    with pytest.raises(VerificationError, match="order type"):
        pentagon_config()


def test_pentagon_division_numbers(pentagon):
    hd = hyperplane_division(pentagon)
    assert len(hd) == 16
    assert len(separating_members(hd.division, *CENTER_VERTEX_PAIR)) == 6
    assert len(separating_members(hd.division, *ADJACENT_VERTEX_PAIR)) == 6
    assert len(separating_members(hd.division, *NONADJACENT_VERTEX_PAIR)) == 10
    sizes = [t.size for t in minimal_transversals(hd.division)]
    assert min(sizes) == 6
    assert max(sizes) == 10


def test_shrink_pentagon_reaches_minimum(pentagon):
    result = shrink_to_min(pentagon, *CENTER_VERTEX_PAIR)
    assert result.separating_size == 5 == min_transversal_size(2, 6)
    assert 0 < result.scale < 1
    after = hyperplane_division(result.config)
    assert min(t.size for t in minimal_transversals(after.division)) == 5


@pytest.mark.parametrize("dim,n,seed", [(1, 5, 51), (2, 6, 52), (3, 5, 53)])
def test_shrink_random_instances(dim, n, seed):
    cfg = _random_config(dim, n, seed)
    rng = random.Random(f"shrink-pick:{seed}")
    a, b = rng.sample(cfg.ids, 2)
    result = shrink_to_min(cfg, a, b)
    assert result.separating_size == min_transversal_size(dim, n)
    assert result.moved_id == a and result.toward_id == b
    # only the moved point changed
    for pid in cfg.ids:
        if pid != a:
            assert result.config.point(pid) == cfg.point(pid)


def test_shrink_domain_errors(pentagon):
    with pytest.raises(DomainError):
        shrink_to_min(pentagon, 0, 0)
    with pytest.raises(DomainError):
        shrink_to_min(pentagon, 0, 99)


def test_flip_pentagon_sums(pentagon):
    for pair in (CENTER_VERTEX_PAIR, ADJACENT_VERTEX_PAIR, NONADJACENT_VERTEX_PAIR):
        result = projective_flip(pentagon, *pair, 0)
        assert result.separating_before + result.separating_after == 16
        assert result.total == 16


def test_flip_is_a_bijection_sending_base_to_trivial(quad):
    hd = hyperplane_division(quad)
    base = separating_members(hd.division, 0, 1)[0]
    result = projective_flip(quad, 0, 1, 0)
    assert result.base == base
    image = result.partition_map
    assert len(set(image.values())) == len(image) == 7
    assert image[base].is_trivial
    trivial = [m for m in hd.members if m.is_trivial][0]
    # the trivial partition lands on the base's grouping, transported to X'
    assert image[trivial].blocks == base.blocks


def test_flip_base_index_must_be_in_range(quad):
    count = len(separating_members(realizable_division(quad), 0, 1))
    assert projective_flip(quad, 0, 1, count - 1).separating_before == count
    for index in (-1, count):
        with pytest.raises(DomainError, match="out of range"):
            projective_flip(quad, 0, 1, index)


@pytest.mark.parametrize("dim,n,seed", [(1, 6, 61), (2, 6, 62), (3, 5, 63)])
def test_flip_random_instances(dim, n, seed):
    cfg = _random_config(dim, n, seed)
    rng = random.Random(f"flip-pick:{seed}")
    a, b = rng.sample(cfg.ids, 2)
    count = len(separating_members(realizable_division(cfg), a, b))
    result = projective_flip(cfg, a, b, count - 1)
    assert result.separating_before + result.separating_after == partition_count(dim, n)


def _count_work(monkeypatch):
    """Calls of the two division entries, by configuration size, and LPs.

    The entries are counted in every module that calls them; the LPs where
    ``strict_separate`` looks the solver up."""
    counts = {"enumerated": [], "read": [], "lps": 0}
    enumerate_, read, solve = (
        hdivision.hyperplane_division, hdivision.realizable_division, geometry.feasible_point
    )

    def enumerated(config):
        counts["enumerated"].append(len(config))
        return enumerate_(config)

    def counted_read(config):
        counts["read"].append(len(config))
        return read(config)

    def counted_solve(*args, **kwargs):
        counts["lps"] += 1
        return solve(*args, **kwargs)

    for module in (hdivision, cli, campaigns):
        monkeypatch.setattr(module, "hyperplane_division", enumerated)
    monkeypatch.setattr(hdivision, "realizable_division", counted_read)
    monkeypatch.setattr(geometry, "feasible_point", counted_solve)
    return counts


def test_cli_flip_enumerates_input_and_image_once(monkeypatch, tmp_path, capsys):
    # the input and the image were enumerated, 2 x 31 LPs; now the member sets
    # of the input and the image are read once each, the base picked by its
    # index in the flip, and only the base's witness is solved
    path = tmp_path / "instance.json"
    path.write_text(emit_instance(_random_config(2, 6, 64)))
    counts = _count_work(monkeypatch)
    assert cli.main(["flip", "--input", str(path), "--a", "0", "--b", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["total"] == partition_count(2, 6)
    assert counts == {"enumerated": [], "read": [6, 6], "lps": 1}


def test_duality_trial_enumerates_input_and_image_once(monkeypatch):
    # the input and the image were enumerated, 2 x 63 LPs
    counts = _count_work(monkeypatch)
    record = campaigns._trial_duality(CampaignSpec(suite="duality", dim=2, n=7), 0)
    assert record["ok"]
    assert counts == {"enumerated": [], "read": [7, 7], "lps": 1}


def test_cli_demo_enumerates_pentagon_and_shrunk_once(monkeypatch, capsys):
    # the pentagon and the shrunk configuration were enumerated, 2 x 31 LPs;
    # now each member set is read once, the pentagon's inside the shrink, and
    # only the witnesses of the 6 members separating the pair are solved
    counts = _count_work(monkeypatch)
    assert cli.main(["demo", "pentagon"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"]
    assert counts == {"enumerated": [], "read": [6, 6], "lps": 6}


def test_demo_shrunk_member_set_equals_brute_force(pentagon):
    result = shrink_to_min(pentagon, *CENTER_VERTEX_PAIR)
    assert realizable_division(result.config) == hyperplane_division(result.config).division


def test_perturb_reaches_general_position():
    collinear = make_config(2, [(0, 0), (1, 0), (2, 0), (1, 2), (3, 1)])
    assert not general_position(collinear)
    result = perturb(collinear, seed=7)
    assert general_position(result.config)
    assert result.count_after == partition_count(2, 5)
    assert result.count_before < result.count_after
    assert result.config.ids == collinear.ids


def test_perturb_preserves_existing_members():
    collinear = make_config(2, [(0, 0), (1, 0), (2, 0), (1, 2)])
    before = {m.blocks for m in hyperplane_division(collinear).members}
    after = {m.blocks for m in hyperplane_division(perturb(collinear, seed=3).config).members}
    assert before <= after


def test_perturb_is_deterministic():
    collinear = make_config(2, [(0, 0), (1, 0), (2, 0), (1, 2)])
    assert perturb(collinear, seed=11).config == perturb(collinear, seed=11).config


def test_deletion_fibers(pentagon):
    report = oracles.deletion_fiber_check(pentagon, *NONADJACENT_VERTEX_PAIR)
    assert report.count_full == 16
    assert report.max_fiber <= 2
    assert report.count_full - report.count_reduced <= report.separating_size


@pytest.mark.parametrize("dim,n,seed", [(2, 6, 71), (3, 5, 72)])
def test_deletion_fibers_random(dim, n, seed):
    cfg = _random_config(dim, n, seed)
    rng = random.Random(f"fiber-pick:{seed}")
    a, b = rng.sample(cfg.ids, 2)
    report = oracles.deletion_fiber_check(cfg, a, b)
    assert report.max_fiber <= 2
    assert report.count_full - report.count_reduced <= report.separating_size
