"""Enumeration of realizable partitions and the operations on top of it."""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import combinations

import pytest
from sympy import Matrix, Rational, cos, pi, sin

import hyperpart.campaigns as campaigns
import hyperpart.cli as cli
import hyperpart.hdivision as hdivision
import oracles
from hyperpart import (
    CampaignSpec,
    DomainError,
    Hyperplane,
    VerificationError,
    emit_instance,
    general_position,
    generate_instance,
    hyperplane_division,
    make_config,
    max_transversal_size,
    min_transversal_size,
    minimal_transversals,
    one_side_hyperplane,
    orient,
    partition_count,
    pentagon_config,
    perturb,
    projective_flip,
    realize,
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
    assert len(hd.separating(*CENTER_VERTEX_PAIR)) == 6
    assert len(hd.separating(*ADJACENT_VERTEX_PAIR)) == 6
    assert len(hd.separating(*NONADJACENT_VERTEX_PAIR)) == 10
    sizes = [t.size for t in minimal_transversals(hd.division)]
    assert min(sizes) == 6
    assert max(sizes) == 10


def test_shrink_pentagon_reaches_minimum(pentagon):
    result = shrink_to_min(hyperplane_division(pentagon), *CENTER_VERTEX_PAIR)
    assert result.separating_size == 5 == min_transversal_size(2, 6)
    assert 0 < result.scale < 1
    after = hyperplane_division(result.config)
    assert min(t.size for t in minimal_transversals(after.division)) == 5


@pytest.mark.parametrize("dim,n,seed", [(1, 5, 51), (2, 6, 52), (3, 5, 53)])
def test_shrink_random_instances(dim, n, seed):
    cfg = _random_config(dim, n, seed)
    rng = random.Random(f"shrink-pick:{seed}")
    a, b = rng.sample(cfg.ids, 2)
    result = shrink_to_min(hyperplane_division(cfg), a, b)
    assert result.separating_size == min_transversal_size(dim, n)
    assert result.moved_id == a and result.toward_id == b
    # only the moved point changed
    for pid in cfg.ids:
        if pid != a:
            assert result.config.point(pid) == cfg.point(pid)


def test_shrink_domain_errors(pentagon):
    with pytest.raises(DomainError):
        shrink_to_min(hyperplane_division(pentagon), 0, 0)
    with pytest.raises(DomainError):
        shrink_to_min(hyperplane_division(pentagon), 0, 99)


def test_flip_pentagon_sums(pentagon):
    hd = hyperplane_division(pentagon)
    for pair in (CENTER_VERTEX_PAIR, ADJACENT_VERTEX_PAIR, NONADJACENT_VERTEX_PAIR):
        base = hd.separating(*pair)[0]
        result = projective_flip(hd, *pair, base)
        assert result.separating_before + result.separating_after == 16
        assert result.total == 16


def test_flip_is_a_bijection_sending_base_to_trivial(quad):
    hd = hyperplane_division(quad)
    base = hd.separating(0, 1)[0]
    result = projective_flip(hd, 0, 1, base)
    image = result.partition_map
    assert len(set(image.values())) == len(image) == 7
    assert image[base].is_trivial
    trivial = [m for m in hd.members if m.is_trivial][0]
    # the trivial partition lands on the base's grouping, transported to X'
    assert image[trivial].blocks == base.blocks


def test_flip_requires_separating_base(quad):
    hd = hyperplane_division(quad)
    nonsep = hd.nonseparating(0, 1)[0]
    with pytest.raises(DomainError):
        projective_flip(hd, 0, 1, nonsep)


@pytest.mark.parametrize("dim,n,seed", [(1, 6, 61), (2, 6, 62), (3, 5, 63)])
def test_flip_random_instances(dim, n, seed):
    cfg = _random_config(dim, n, seed)
    hd = hyperplane_division(cfg)
    rng = random.Random(f"flip-pick:{seed}")
    a, b = rng.sample(cfg.ids, 2)
    base = hd.separating(a, b)[-1]
    result = projective_flip(hd, a, b, base)
    assert result.separating_before + result.separating_after == partition_count(dim, n)


def _count_divisions(monkeypatch, counts):
    # the two callers' modules, and hdivision, where the image is enumerated
    original = hdivision.hyperplane_division

    def counted(config):
        counts.append(len(config))
        return original(config)

    for module in (hdivision, cli, campaigns):
        monkeypatch.setattr(module, "hyperplane_division", counted)


def test_cli_flip_enumerates_input_and_image_once(monkeypatch, tmp_path, capsys):
    # projective_flip used to enumerate its input again: three divisions
    path = tmp_path / "instance.json"
    path.write_text(emit_instance(_random_config(2, 6, 64)))
    counts = []
    _count_divisions(monkeypatch, counts)
    assert cli.main(["flip", "--input", str(path), "--a", "0", "--b", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["total"] == partition_count(2, 6)
    assert counts == [6, 6]


def test_duality_trial_enumerates_input_and_image_once(monkeypatch):
    # projective_flip used to enumerate its input again: three divisions
    counts = []
    _count_divisions(monkeypatch, counts)
    record = campaigns._trial_duality(CampaignSpec(suite="duality", dim=2, n=7), 0)
    assert record["ok"]
    assert counts == [7, 7]


def test_cli_demo_enumerates_pentagon_and_shrunk_once(monkeypatch, capsys):
    # shrink_to_min used to enumerate its input again, and the demo the
    # shrunk configuration again: four divisions
    counts = []
    _count_divisions(monkeypatch, counts)
    assert cli.main(["demo", "pentagon"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"]
    assert counts == [6, 6]


def test_shrink_returns_the_shrunk_division(pentagon):
    result = shrink_to_min(hyperplane_division(pentagon), *CENTER_VERTEX_PAIR)
    assert result.division.config == result.config
    assert result.division.members == hyperplane_division(result.config).members


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
