"""Colored separation: the two-color theory, duality, partitionability, and
bounded witnesses."""

from __future__ import annotations

from collections import Counter
from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import hyperpart.colorful as colorful
import hyperpart.geometry as geometry
import oracles
from strategies import degenerate_colored
from hyperpart import (
    CampaignSpec,
    DomainError,
    Partition,
    VerificationError,
    bound_search,
    color_separating_hyperplane,
    extend_partition,
    general_position,
    generate_instance,
    helly_dual,
    is_partitionable,
    is_partitionable_by_enumeration,
    kirchberger_witness,
    make_config,
    smallest_blocked_subset_size,
    strict_separate,
    validate_certificate,
    verify_instance,
    witness_nonpartitionable,
    witness_size_bound,
)


def _alternating_line():
    # r b r on a line: hulls of the two classes overlap
    return make_config(1, [(0,), (1,), (2,)], colors=["r", "b", "r"])


def _xor_square():
    # diagonals of a square share their crossing point
    return make_config(
        2,
        [(0, 0), (1, 1), (1, 0), (0, 1)],
        colors=["a", "a", "b", "b"],
    )


def test_two_color_separation_positive():
    cfg = make_config(1, [(0,), (1,), (5,), (7,)], colors=["x", "x", "y", "y"])
    plane = color_separating_hyperplane(cfg)
    assert plane is not None
    sides = {cid: {plane.side_of(cfg.point(i)) for i in ids}
             for cid, ids in cfg.color_classes.items()}
    assert sides[0] == {1} and sides[1] == {-1}


def test_two_color_separation_negative():
    assert color_separating_hyperplane(_alternating_line()) is None
    assert color_separating_hyperplane(_xor_square()) is None


def test_single_color_is_always_separable():
    cfg = make_config(2, [(0, 0), (1, 1)], colors=["only", "only"])
    plane = color_separating_hyperplane(cfg)
    assert plane is not None
    assert all(plane.side_of(p) == 1 for p in cfg.points)


def test_needs_colors():
    with pytest.raises(DomainError):
        color_separating_hyperplane(make_config(1, [(0,), (1,)]))


def test_helly_dual_agrees_on_examples():
    for cfg in (_alternating_line(), _xor_square()):
        assert helly_dual(cfg, cfg.ids[0]).separating_hyperplane() is None
    cfg = make_config(1, [(0,), (1,), (5,), (7,)], colors=["x", "x", "y", "y"])
    plane = helly_dual(cfg, 0).separating_hyperplane()
    assert plane is not None
    assert {plane.side_of(cfg.point(i)) for i in (0, 1)} == {1}
    assert {plane.side_of(cfg.point(i)) for i in (2, 3)} == {-1}


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=4, max_value=7))
def test_dual_route_matches_direct_and_oracle(seed, n):
    spec = CampaignSpec(suite="dual-prop", dim=2, n=n, colors=2, trials=1, seed=seed)
    cfg = generate_instance(spec)
    direct = color_separating_hyperplane(cfg)
    for anchor in cfg.ids:
        dual = helly_dual(cfg, anchor).separating_hyperplane()
        assert (direct is None) == (dual is None)
    classes = cfg.color_classes
    oracle = oracles.strictly_separable(
        [cfg.point(i).coords for i in classes[0]],
        [cfg.point(i).coords for i in classes[1]],
    )
    assert (direct is not None) == oracle


@st.composite
def _rational_two_colored(draw):
    """Distinct points with small rational coordinates, d = 1 to 3, n = 2 to
    7, both colors present."""
    dim = draw(st.integers(1, 3))
    coord = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    points = draw(st.lists(st.tuples(*[coord] * dim), min_size=2, max_size=7, unique=True))
    labels = draw(st.lists(st.integers(0, 1), min_size=len(points), max_size=len(points)))
    assume(len(set(labels)) == 2)
    return make_config(dim, points, colors=labels)


@settings(max_examples=150)
@given(_rational_two_colored() | degenerate_colored(colors=2).filter(lambda cfg: cfg.k == 2))
def test_direct_and_dual_planes_match_the_parent_kernel(cfg):
    """The direct plane and the Helly dual's plane through every anchor are
    the planes of the reference loops, which flagged each row's strictness
    and took the dual's rows in rationals."""
    classes = cfg.color_classes
    rows = [(*cfg.point(i).separation_rows[c], False) for c in (0, 1) for i in classes[c]]
    lam = oracles.int_feasible_point(rows, cfg.dim + 1)
    expected = None if lam is None else geometry.Hyperplane(lam[:cfg.dim], lam[cfg.dim])
    assert color_separating_hyperplane(cfg) == expected
    for anchor in cfg.ids:
        assert helly_dual(cfg, anchor).separating_hyperplane() == oracles.int_helly_plane(cfg, anchor)


def test_kirchberger_witness_alternating_line():
    cfg = _alternating_line()
    assert kirchberger_witness(cfg, 0) == (0, 1, 2)


def test_kirchberger_witness_needs_all_points_sometimes():
    cfg = _xor_square()
    witness = kirchberger_witness(cfg, 0)
    assert witness == (0, 1, 2, 3)  # d + 2 points, none to spare


def test_kirchberger_witness_properties():
    spec = CampaignSpec(suite="kw-props", dim=2, n=9, colors=2, trials=1, seed=77)
    cfg = generate_instance(spec)
    if color_separating_hyperplane(cfg) is not None:
        pytest.skip("seed produced a separable instance")
    for anchor in cfg.ids:
        witness = kirchberger_witness(cfg, anchor)
        assert witness is not None
        assert anchor in witness
        assert len(witness) <= cfg.dim + 2
        assert color_separating_hyperplane(cfg.subset(witness)) is None


def test_kirchberger_witness_none_when_separable():
    cfg = make_config(1, [(0,), (3,)], colors=["x", "y"])
    assert kirchberger_witness(cfg, 0) is None


_COLLINEAR_IN_PLANE = make_config(2, [(0, 0), (1, 1), (2, 2), (3, 0)], colors=[0, 1, 0, 1])
_COPLANAR_IN_SPACE = make_config(
    3, [(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 1)], colors=[0, 0, 1, 1, 0]
)


@settings(max_examples=40)
@example(_COLLINEAR_IN_PLANE)
@example(_COPLANAR_IN_SPACE)
@given(degenerate_colored(colors=2))
def test_kirchberger_witness_matches_brute_scan(cfg):
    for anchor in cfg.ids:
        assert kirchberger_witness(cfg, anchor) == oracles.brute_kirchberger_witness(cfg, anchor)


@settings(max_examples=40)
@example(_COLLINEAR_IN_PLANE)
@example(_COPLANAR_IN_SPACE)
@given(degenerate_colored(colors=2))
def test_kirchberger_routes_match_brute_scan_on_degenerate_input(cfg):
    """Off general position the anchored scan decides by one feasibility test
    per candidate, from three points up; it must give the brute scan's
    witness, which starts at two, through every anchor, and the direct LP's
    hyperplane when separable."""
    for anchor in cfg.ids:
        expected = oracles.brute_kirchberger_witness(cfg, anchor)
        routes = colorful.kirchberger_routes(cfg, anchor)
        assert routes.routes_agree and routes.witness == expected
        assert routes.hyperplane == (color_separating_hyperplane(cfg) if expected is None else None)


@settings(max_examples=40)
@example(_COLLINEAR_IN_PLANE)
@example(_COPLANAR_IN_SPACE)
@given(degenerate_colored(colors=3))
def test_witness_cores_match_brute_scan(cfg):
    assume(cfg.k >= 2 and is_partitionable(cfg) is None)
    report = witness_nonpartitionable(cfg)
    for member, core in report.per_member_sets.items():
        first = frozenset(extend_partition(member, cfg).blocks[0])
        labels = {i: int(i not in first) for i in cfg.ids}
        assert core == oracles.brute_inseparable_core(cfg, labels, set(report.representatives))


def _decision_sizes(monkeypatch):
    """Count the scan's decisions by candidate size: the halfspace dual
    through a candidate's first point has one row per other point."""
    sizes = Counter()
    decide = colorful.is_feasible

    def recorded(rows, nvars, *, strict):
        sizes[len(rows) + 1] += 1
        return decide(rows, nvars, strict=strict)

    monkeypatch.setattr(colorful, "is_feasible", recorded)
    return sizes


@pytest.mark.parametrize("dim, trial, expected", [
    (2, 0, {3: 84, 4: 17}),
    (3, 2, {3: 84, 4: 420, 5: 80}),
])
def test_degenerate_scan_decides_no_pair(monkeypatch, dim, trial, expected):
    """Two distinct points are always strictly separable, so the degenerate
    scan starts at three points.  Starting at two took 8 pair decisions per
    call on these n=16 trials, and the witness is still the brute scan's."""
    spec = CampaignSpec(suite="kirchberger", dim=dim, n=16, colors=2, seed=0, degenerate=True)
    cfg = generate_instance(spec, trial)
    assert not general_position(cfg)
    sizes = _decision_sizes(monkeypatch)
    routes = colorful.kirchberger_routes(cfg, cfg.ids[0])
    assert sizes == expected
    assert routes.witness == oracles.brute_kirchberger_witness(cfg, cfg.ids[0]) is not None


@st.composite
def _general_colored(draw, colors):
    """Integer grid points kept while they stay in general position, d = 2 or
    3 and n = d+2 to 9, with random labels: the inputs on which the scans
    decide by Radon signs instead of LPs."""
    dim = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(dim + 2, 9))
    candidates = draw(
        st.lists(st.tuples(*[st.integers(-6, 6)] * dim), min_size=n, max_size=2 * n, unique=True)
    )
    kept: list = []
    for point in candidates:
        if len(kept) < n and general_position(make_config(dim, kept + [point])):
            kept.append(point)
    assume(len(kept) >= dim + 2)
    labels = draw(st.lists(st.integers(0, colors - 1), min_size=len(kept), max_size=len(kept)))
    return make_config(dim, kept, colors=labels)


def _one_color_quad():
    # every row of the Helly dual reads normal . a < 1, solved by the zero normal
    return make_config(2, [(3, 0), (0, 0), (0, 1), (6, 1)], colors=["c0"] * 4)


@settings(max_examples=40)
@example(_xor_square(), 0)
@example(_one_color_quad(), 0)
@given(_general_colored(colors=2), st.integers(0, 8))
def test_kirchberger_routes_match_brute_scan_in_general_position(cfg, slot):
    assert general_position(cfg)
    anchor = cfg.ids[slot % len(cfg)]
    expected = oracles.brute_kirchberger_witness(cfg, anchor)
    assert kirchberger_witness(cfg, anchor) == expected
    routes = colorful.kirchberger_routes(cfg, anchor)
    assert routes.routes_agree and routes.witness == expected
    assert routes.hyperplane == (color_separating_hyperplane(cfg) if expected is None else None)
    if expected is not None:
        assert len(expected) == cfg.dim + 2  # smaller subsets are affinely independent


@st.composite
def _radon_colored(draw, colors):
    """``_general_colored`` with the first dim+2 points colored 0 and 1 by
    their Radon signs: those two classes hold both sides of a Radon
    partition, whose hulls meet, so no draw is partitionable."""
    cfg = draw(_general_colored(colors))
    head = cfg.ids[: cfg.dim + 2]
    labels = [int(sign < 0) for sign in geometry.radon_signs(cfg, head)]
    return cfg.with_colors(labels + list(cfg.colors[len(head):]))


@settings(max_examples=30)
@given(_radon_colored(colors=3))
def test_witness_cores_match_brute_scan_in_general_position(cfg):
    assert is_partitionable(cfg) is None
    report = witness_nonpartitionable(cfg)
    for member, core in report.per_member_sets.items():
        first = frozenset(extend_partition(member, cfg).blocks[0])
        labels = {i: int(i not in first) for i in cfg.ids}
        assert core == oracles.brute_inseparable_core(cfg, labels, set(report.representatives))


def _assert_same_witness_report(cfg):
    """The bitmask extraction returns the ``Partition``-based report field by
    field, the cores in the same order."""
    table = colorful._Groupings.of(cfg)
    expected = oracles.partition_witness_report(cfg, table)
    report = colorful._witness_report(cfg, table)
    for field in fields(colorful.WitnessReport):
        assert getattr(report, field.name) == getattr(expected, field.name), field.name
    assert list(report.per_member_sets.items()) == list(expected.per_member_sets.items())


@settings(max_examples=30)
@given(_radon_colored(colors=3))
def test_mask_witness_report_matches_the_partition_report_in_general_position(cfg):
    _assert_same_witness_report(cfg)


@settings(max_examples=30)
@given(st.sampled_from((2, 3)), st.integers(6, 10), st.integers(2, 6),
       st.integers(0, 10**6), st.integers(0, 3))
def test_mask_witness_report_matches_the_partition_report_on_degenerate_draws(
    dim, n, colors, seed, trial
):
    spec = CampaignSpec(suite="main", dim=dim, n=n, colors=colors, seed=seed, degenerate=True)
    cfg = generate_instance(spec, trial)
    assume(is_partitionable(cfg) is None)
    assert not general_position(cfg)
    _assert_same_witness_report(cfg)


def test_extend_partition():
    cfg = make_config(
        1, [(0,), (1,), (2,), (3,), (4,)], colors=["a", "b", "c", "b", "a"]
    )
    extended = extend_partition(Partition(((0,), (1, 2))), cfg)
    assert extended.blocks == ((0, 4), (1, 2, 3))
    with pytest.raises(DomainError):
        extend_partition(Partition(((0,), (4,))), cfg)  # two points of color a


def test_certificate_validation_catches_bad_families():
    cfg = _xor_square()
    # a plane splitting color class 0 must be rejected
    from hyperpart import Certificate, Hyperplane

    splitter = Hyperplane((Fraction(0), Fraction(1)), Fraction(1, 2))  # y = 1/2
    bogus = Certificate(((splitter, Partition(((0, 2), (1, 3)))),))
    with pytest.raises(VerificationError):
        validate_certificate(bogus, cfg)


def test_partitionable_with_certificate():
    cfg = make_config(
        1,
        [(0,), (1,), (10,), (11,), (20,), (21,)],
        colors=["a", "a", "b", "b", "c", "c"],
    )
    certificate = is_partitionable(cfg)
    assert certificate is not None
    validate_certificate(certificate, cfg)
    assert len(certificate.family) <= 3
    assert is_partitionable_by_enumeration(cfg)


def test_not_partitionable_three_colors():
    cfg = make_config(
        1, [(0,), (1,), (2,), (3,), (4,)], colors=["a", "b", "c", "b", "a"]
    )
    assert is_partitionable(cfg) is None
    assert not is_partitionable_by_enumeration(cfg)


@settings(max_examples=30)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=3, max_value=6),
    st.integers(min_value=2, max_value=3),
)
def test_partitionability_routes_agree(seed, n, k):
    if k > n:
        return
    spec = CampaignSpec(suite="routes", dim=2, n=n, colors=k, trials=1, seed=seed)
    cfg = generate_instance(spec)
    certificate = is_partitionable(cfg)
    assert (certificate is not None) == is_partitionable_by_enumeration(cfg)
    if certificate is not None:
        validate_certificate(certificate, cfg)


def test_partitionability_is_inherited_by_subsets():
    spec = CampaignSpec(suite="downward", dim=2, n=6, colors=3, trials=1, seed=4)
    cfg = generate_instance(spec)
    if is_partitionable(cfg) is None:
        pytest.skip("seed produced a non-partitionable instance")
    from itertools import combinations

    for size in range(1, len(cfg)):
        for chosen in combinations(cfg.ids, size):
            assert is_partitionable(cfg.subset(chosen)) is not None


def test_witness_for_three_color_line():
    cfg = make_config(
        1, [(0,), (1,), (2,), (3,), (4,)], colors=["a", "b", "c", "b", "a"]
    )
    report = witness_nonpartitionable(cfg)
    assert report.witness_ids == (0, 1, 2, 3)
    assert report.representatives == (0, 1, 2)
    assert report.size_bound == witness_size_bound(1, 3)
    assert len(report.witness_ids) <= report.size_bound
    assert report.transversal_pairs
    sub = cfg.subset(report.witness_ids)
    assert is_partitionable(sub) is None
    assert not is_partitionable_by_enumeration(sub)


def test_witness_two_colors_reduces_to_separation():
    report = witness_nonpartitionable(_alternating_line())
    assert report.witness_ids == (0, 1, 2)
    assert report.size_bound == 4


def test_witness_rejects_partitionable_input():
    cfg = make_config(1, [(0,), (5,)], colors=["a", "b"])
    with pytest.raises(DomainError):
        witness_nonpartitionable(cfg)


def test_smallest_blocked_subset_size():
    cfg = make_config(
        1, [(0,), (1,), (2,), (3,), (4,)], colors=["a", "b", "c", "b", "a"]
    )
    threshold = smallest_blocked_subset_size(cfg)
    assert threshold == 3  # e.g. ids 1,2,3: b c b with colors interleaved
    assert smallest_blocked_subset_size(
        make_config(1, [(0,), (9,)], colors=["a", "b"])
    ) is None


def test_verify_instance_dichotomy():
    good = make_config(1, [(0,), (9,)], colors=["a", "b"])
    report = verify_instance(good)
    assert report.partitionable and report.certificate is not None

    bad = _alternating_line()
    report = verify_instance(bad)
    assert not report.partitionable
    assert report.witness is not None
    assert len(report.witness.witness_ids) <= report.size_bound


@settings(max_examples=60)
@example(_COLLINEAR_IN_PLANE)
@example(_COPLANAR_IN_SPACE)
@given(st.integers(3, 5).flatmap(lambda k: degenerate_colored(colors=k)))
def test_grouping_table_gives_the_per_pair_search_certificate(cfg):
    # same hyperplanes, same partitions, same order; or None from both
    assert is_partitionable(cfg) == oracles.brute_is_partitionable(cfg)


_THREE_COLOR_LINE = make_config(
    1, [(0,), (1,), (2,), (3,), (4,)], colors=["a", "b", "c", "b", "a"]
)
# four clusters, one per color: partitionable, but no single plane does it
_FOUR_CLUSTERS = make_config(
    2,
    [(0, 0), (1, 0), (10, 0), (11, 1), (0, 10), (1, 11), (10, 10), (11, 12)],
    colors=["a", "a", "b", "b", "c", "c", "d", "d"],
)


@settings(max_examples=60)
@example(_THREE_COLOR_LINE)
@example(_FOUR_CLUSTERS)
@given(st.integers(2, 5).flatmap(lambda k: degenerate_colored(colors=k)))
def test_grouping_enumeration_matches_the_full_enumeration(cfg):
    assert is_partitionable_by_enumeration(cfg) == oracles.brute_partitionable_by_enumeration(cfg)


def _counting(monkeypatch, module, name, counts):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_inseparable_pair_blocks_without_a_grouping_lp(monkeypatch):
    # classes 0 and 1 interleave on the x-axis; class 2 sits far above
    cfg = make_config(
        2, [(0, 0), (1, 0), (2, 0), (3, 0), (0, 5), (1, 6)], colors=[0, 1, 0, 1, 2, 2]
    )
    counts = Counter()
    _counting(monkeypatch, colorful, "strict_separate", counts)
    _counting(monkeypatch, colorful, "is_feasible", counts)
    _counting(monkeypatch, colorful, "member_masks", counts)
    _counting(monkeypatch, geometry, "feasible_point", counts)
    _counting(monkeypatch, colorful, "feasible_point", counts)
    assert not general_position(cfg)
    assert is_partitionable(cfg) is None
    # one member read, on degenerate input too: no grouping LP, no witness LP
    assert counts == {"member_masks": 1}

    table = colorful._Groupings.of(cfg)
    counts.clear()
    assert not table.realizable(0b001)  # {0} | {1, 2} splits the blocked pair
    assert not table.realizable(0b110)  # the same grouping, mirrored
    assert table.realizable(0b011) and table.realizable(0b100)  # {0, 1} | {2}
    assert counts == {}


def test_work_counts_at_the_cli_caps(monkeypatch):
    """Deterministic work counts on the main-suite baseline (d=2, n=16, k=8).

    The per-pair search made 240 ``feasible_point`` calls in
    ``is_partitionable``; ``witness_nonpartitionable`` made 604 and then 127,
    all in enumerating the representatives' division.  Later the groupings
    took witness-free decisions, and the representatives' division and the
    witness re-check each read their points' member set again.  Now each
    entry reads the configuration's member set once and restricts it: no LP
    of either kind is left.
    """
    cfg = generate_instance(CampaignSpec(suite="main", dim=2, n=16, colors=8, seed=0), 0)
    assert general_position(cfg)
    counts = Counter()
    _counting(monkeypatch, geometry, "feasible_point", counts)
    _counting(monkeypatch, colorful, "feasible_point", counts)
    _counting(monkeypatch, colorful, "is_feasible", counts)
    _counting(monkeypatch, colorful, "member_masks", counts)
    _counting(monkeypatch, colorful, "restricted_masks", counts)
    assert is_partitionable(cfg) is None
    assert counts == {"member_masks": 1}
    counts.clear()
    report = witness_nonpartitionable(cfg)
    # the representatives' division and the witness re-check
    assert counts == {"member_masks": 1, "restricted_masks": 2}
    assert len(report.representatives) == cfg.k == 8


def test_enumeration_route_solves_one_lp_per_grouping(monkeypatch):
    """On the main-suite baseline (d=2, n=16, k=8) the cross-check decides
    each of the 2^(k-1)-1 = 127 nontrivial color groupings by one
    witness-free Fourier-Motzkin test and reads no member set, so it stays
    independent of the grouping table; testing every bipartition through
    ``hyperplane_division`` took 32,767 LPs.  Degenerate input is decided
    the same way: 15 tests for its 5 colors."""
    cfg = generate_instance(CampaignSpec(suite="main", dim=2, n=16, colors=8, seed=0), 0)
    counts = Counter()
    _counting(monkeypatch, colorful, "strict_separate", counts)
    _counting(monkeypatch, colorful, "is_feasible", counts)
    _counting(monkeypatch, colorful, "member_masks", counts)
    _counting(monkeypatch, geometry, "feasible_point", counts)
    assert not is_partitionable_by_enumeration(cfg)
    assert counts == {"is_feasible": 127}

    degenerate = generate_instance(
        CampaignSpec(suite="main", dim=2, n=10, colors=5, seed=0, degenerate=True), 0
    )
    assert not general_position(degenerate) and degenerate.k == 5
    counts.clear()
    is_partitionable_by_enumeration(degenerate)
    assert counts == {"is_feasible": 15}


def test_bound_search_solves_no_hyperplane(monkeypatch):
    # with a certificate per partitionable subset this made 1,502 LPs, and
    # with a grouping table per subset it made witness-free decisions; now
    # each trial reads its member set once and restricts it to each subset
    spec = CampaignSpec(suite="bound-search", dim=2, n=8, colors=3, trials=20)
    counts = Counter()
    _counting(monkeypatch, colorful, "strict_separate", counts)
    _counting(monkeypatch, colorful, "is_feasible", counts)
    _counting(monkeypatch, colorful, "member_masks", counts)
    _counting(monkeypatch, geometry, "feasible_point", counts)
    report = bound_search(spec)
    assert report["ok"] and report["max_threshold"] is not None
    assert counts == {"member_masks": 20}


def test_verify_instance_decides_once(monkeypatch):
    cfg = make_config(
        1, [(0,), (1,), (2,), (3,), (4,)], colors=["a", "b", "c", "b", "a"]
    )
    assert general_position(cfg)
    counts = Counter()
    _counting(monkeypatch, colorful, "is_feasible", counts)
    _counting(monkeypatch, colorful, "member_masks", counts)
    _counting(monkeypatch, colorful, "restricted_masks", counts)
    report = verify_instance(cfg)
    # the configuration's own read, restricted to the representatives and to
    # the extracted witness for its re-check
    assert counts == {"member_masks": 1, "restricted_masks": 2}
    assert report.witness.witness_ids == (0, 1, 2, 3)


def test_kirchberger_routes_decide_the_configuration_once(monkeypatch):
    # in general position the Radon subset decides: no direct LP at all
    cfg = _xor_square()
    counts = Counter()
    _counting(monkeypatch, colorful, "color_separating_hyperplane", counts)
    routes = colorful.kirchberger_routes(cfg, 0)
    assert counts == {}
    assert routes.hyperplane is None and routes.routes_agree
    assert routes.witness == kirchberger_witness(cfg, 0) == (0, 1, 2, 3)
    # on degenerate input the scan decides too: a witness takes no direct LP
    routes = colorful.kirchberger_routes(_COLLINEAR_IN_PLANE, 0)
    assert counts == {}
    assert routes.hyperplane is None and routes.routes_agree
    assert routes.witness == (0, 1, 2)
    # and a separable one takes exactly one, for its hyperplane
    separable = _COLLINEAR_IN_PLANE.with_colors([0, 0, 1, 1])
    assert not general_position(separable)
    routes = colorful.kirchberger_routes(separable, 0)
    assert counts == {"color_separating_hyperplane": 1}
    assert routes.routes_agree and routes.witness is None
    assert routes.hyperplane == color_separating_hyperplane(separable) is not None


def test_witness_cores_solve_no_lp_in_general_position(monkeypatch):
    """On the main-suite baseline (d=2, n=16, k=8) the core scans decide by
    Radon signs; deciding each candidate by an LP made 3,937 witness-free
    decisions in all, and the grouping table, which decides by member
    lookup, takes none either."""
    cfg = generate_instance(CampaignSpec(suite="main", dim=2, n=16, colors=8, seed=0), 0)
    counts = Counter()
    _counting(monkeypatch, colorful, "is_feasible", counts)
    report = witness_nonpartitionable(cfg)
    assert counts == {}
    assert report.witness_ids == (0, 1, 2, 3, 4, 5, 6, 8, 9, 12, 13, 14)


def test_kirchberger_routes_at_the_caps_solve_no_direct_lp(monkeypatch):
    """On the kirchberger baseline (d=3, n=14) the anchored scan decides:
    the direct LP and the 383 scan LPs it used to take are gone, and only
    the Helly dual's elimination remains."""
    cfg = generate_instance(CampaignSpec(suite="kirchberger", dim=3, n=14, colors=2, seed=0), 0)
    counts = Counter()
    _counting(monkeypatch, colorful, "color_separating_hyperplane", counts)
    _counting(monkeypatch, colorful, "is_feasible", counts)
    _counting(monkeypatch, colorful, "feasible_point", counts)
    routes = colorful.kirchberger_routes(cfg, cfg.ids[0])
    assert counts == {"feasible_point": 1}
    assert routes.hyperplane is None and routes.routes_agree
    assert routes.witness == (0, 1, 2, 9, 11)


def _class_points(cfg, mask):
    return [cfg.point(i) for c, ids in cfg.color_classes.items() if mask >> c & 1 for i in ids]


@settings(max_examples=60)
@example(_FOUR_CLUSTERS)
@given(st.integers(3, 5).flatmap(lambda k: degenerate_colored(colors=k)))
def test_grouping_table_matches_the_witness_route(cfg):
    """Every grouping gets the answer of the witness-producing route."""
    table = colorful._Groupings.of(cfg)
    full = (1 << cfg.k) - 1
    for plus in range(1, full):
        expected = strict_separate(_class_points(cfg, plus), _class_points(cfg, full ^ plus), cfg.dim)
        assert table.realizable(plus) == (expected is not None)


def test_grouping_table_past_eight_colors():
    """Ten colors: a grouping's point mask is the union of two table entries,
    one for colors 0-7 and one for colors 8-9, and every seventh grouping
    gets the answer of the witness-producing route."""
    cfg = generate_instance(CampaignSpec(suite="main", dim=2, n=12, colors=10, seed=0), 0)
    table = colorful._Groupings.of(cfg)
    assert [len(unions) for unions in table._unions] == [256, 4]
    full = (1 << cfg.k) - 1
    answers = set()
    for plus in range(1, full, 7):
        expected = strict_separate(_class_points(cfg, plus), _class_points(cfg, full ^ plus), cfg.dim)
        assert table.realizable(plus) == (expected is not None)
        answers.add(expected is not None)
    assert answers == {False, True}


def test_verify_instance_at_the_d3_cap(monkeypatch):
    """Main suite at the CLI caps (d=3, n=16, k=8): the same all-points
    witness as the unpruned decisions, which took 297 of them and about a
    minute, and as the pruned decisions with cores, which took 105.  Now one
    member read decides every grouping, with no LP."""
    cfg = generate_instance(CampaignSpec(suite="main", dim=3, n=16, colors=8, seed=0), 0)
    counts = Counter()
    _counting(monkeypatch, colorful, "is_feasible", counts)
    _counting(monkeypatch, colorful, "member_masks", counts)
    report = verify_instance(cfg)
    assert not report.partitionable
    assert report.witness.witness_ids == tuple(range(16))
    assert counts == {"member_masks": 1}
