"""Colored separation: the two-color theory, duality, partitionability, and
bounded witnesses."""

from __future__ import annotations

from collections import Counter
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
@given(degenerate_colored(colors=3))
def test_witness_cores_match_brute_scan(cfg):
    assume(cfg.k >= 2 and is_partitionable(cfg) is None)
    report = witness_nonpartitionable(cfg)
    for member, core in report.per_member_sets.items():
        first = frozenset(extend_partition(member, cfg).blocks[0])
        labels = {i: int(i not in first) for i in cfg.ids}
        assert core == oracles.brute_inseparable_core(cfg, labels, set(report.representatives))


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
    _counting(monkeypatch, colorful, "infeasible_core", counts)
    _counting(monkeypatch, geometry, "feasible_point", counts)
    _counting(monkeypatch, colorful, "feasible_point", counts)
    assert is_partitionable(cfg) is None
    # only the three two-class decisions: no grouping LP, no witness LP
    assert counts == {"infeasible_core": 3}

    table = colorful._Groupings(cfg)
    counts.clear()
    assert not table.realizable(0b001)  # {0} | {1, 2} splits the blocked pair
    assert not table.realizable(0b110)  # the same grouping, mirrored
    assert counts == {}
    assert table.realizable(0b011) and table.realizable(0b100)  # {0, 1} | {2}
    assert counts == {"infeasible_core": 1}


def test_work_counts_at_the_cli_caps(monkeypatch):
    """Deterministic LP counts on the main-suite baseline (d=2, n=16, k=8).

    The per-pair search made 240 ``feasible_point`` calls in
    ``is_partitionable``; ``witness_nonpartitionable`` made 604 and then 127,
    all in enumerating the representatives' division, which is now read off
    the hyperplanes the points span: no ``feasible_point`` call is left.
    """
    cfg = generate_instance(CampaignSpec(suite="main", dim=2, n=16, colors=8, seed=0), 0)
    counts = Counter()
    _counting(monkeypatch, geometry, "feasible_point", counts)
    _counting(monkeypatch, colorful, "feasible_point", counts)
    _counting(monkeypatch, colorful, "realizable_division", counts)
    assert is_partitionable(cfg) is None
    assert counts == {}
    report = witness_nonpartitionable(cfg)
    assert counts == {"realizable_division": 1}
    assert len(report.representatives) == cfg.k == 8


def test_enumeration_route_solves_one_lp_per_grouping(monkeypatch):
    """On the main-suite baseline (d=2, n=16, k=8), in general position, the
    route reads the member set once and solves no LP; it solved the 127
    nontrivial color groupings, and testing every bipartition through
    ``hyperplane_division`` took 32,767 LPs.  Degenerate input is read the
    same way; it solved each of its 2^(k-1)-1 = 15 groupings."""
    cfg = generate_instance(CampaignSpec(suite="main", dim=2, n=16, colors=8, seed=0), 0)
    counts = Counter()
    _counting(monkeypatch, colorful, "strict_separate", counts)
    _counting(monkeypatch, colorful, "realizable_division", counts)
    _counting(monkeypatch, geometry, "feasible_point", counts)
    assert not is_partitionable_by_enumeration(cfg)
    assert counts == {"realizable_division": 1}

    degenerate = generate_instance(
        CampaignSpec(suite="main", dim=2, n=10, colors=5, seed=0, degenerate=True), 0
    )
    assert not general_position(degenerate) and degenerate.k == 5
    counts.clear()
    is_partitionable_by_enumeration(degenerate)
    assert counts == {"realizable_division": 1}


def test_bound_search_solves_no_hyperplane(monkeypatch):
    # with a certificate per partitionable subset this made 1,502 LPs
    spec = CampaignSpec(suite="bound-search", dim=2, n=8, colors=3, trials=20)
    counts = Counter()
    _counting(monkeypatch, colorful, "strict_separate", counts)
    _counting(monkeypatch, colorful, "infeasible_core", counts)
    _counting(monkeypatch, geometry, "feasible_point", counts)
    report = bound_search(spec)
    assert report["ok"] and report["max_threshold"] is not None
    assert set(counts) == {"infeasible_core"}


def test_verify_instance_decides_once(monkeypatch):
    cfg = make_config(
        1, [(0,), (1,), (2,), (3,), (4,)], colors=["a", "b", "c", "b", "a"]
    )
    tables = []
    build = colorful._Groupings
    monkeypatch.setattr(colorful, "_Groupings", lambda config: tables.append(config) or build(config))
    report = verify_instance(cfg)
    # the configuration's own table, then the re-check of the extracted witness
    assert tables == [cfg, cfg.subset(report.witness.witness_ids)]
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
    # on degenerate input the direct LP decides, once
    routes = colorful.kirchberger_routes(_COLLINEAR_IN_PLANE, 0)
    assert counts == {"color_separating_hyperplane": 1}
    assert routes.hyperplane is None and routes.routes_agree
    assert routes.witness == (0, 1, 2)


def test_witness_cores_solve_no_lp_in_general_position(monkeypatch):
    """On the main-suite baseline (d=2, n=16, k=8) the core scans decide by
    Radon signs; deciding each candidate by an LP made 3,937 witness-free
    decisions in all."""
    cfg = generate_instance(CampaignSpec(suite="main", dim=2, n=16, colors=8, seed=0), 0)
    counts = Counter()
    _counting(monkeypatch, colorful, "infeasible_core", counts)
    report = witness_nonpartitionable(cfg)
    assert counts["infeasible_core"] <= 62
    assert report.witness_ids == (0, 1, 2, 3, 4, 5, 6, 8, 9, 12, 13, 14)


def test_kirchberger_routes_at_the_caps_solve_no_direct_lp(monkeypatch):
    """On the kirchberger baseline (d=3, n=14) the anchored scan decides:
    the direct LP and the 383 scan LPs it used to take are gone, and only
    the Helly dual's elimination remains."""
    cfg = generate_instance(CampaignSpec(suite="kirchberger", dim=3, n=14, colors=2, seed=0), 0)
    counts = Counter()
    _counting(monkeypatch, colorful, "color_separating_hyperplane", counts)
    _counting(monkeypatch, colorful, "infeasible_core", counts)
    _counting(monkeypatch, colorful, "feasible_point", counts)
    routes = colorful.kirchberger_routes(cfg, cfg.ids[0])
    assert counts == {"feasible_point": 1}
    assert routes.hyperplane is None and routes.routes_agree
    assert routes.witness == (0, 1, 2, 9, 11)


def test_a_core_answers_a_larger_grouping_without_an_lp(monkeypatch):
    # one point per color; color 2 lies between colors 0 and 1, color 3 above
    cfg = make_config(2, [(0, 0), (2, 0), (1, 0), (1, 5)], colors=[0, 1, 2, 3])
    counts = Counter()
    _counting(monkeypatch, colorful, "infeasible_core", counts)
    table = colorful._Groupings(cfg)
    assert counts == {"infeasible_core": 6} and table.cores == set()
    assert not table.realizable(0b0011)  # {0, 1} | {2, 3}
    assert table.cores == {(0b0011, 0b0100)}  # the three points on the line
    assert not table.realizable(0b1011)  # {0, 1, 3} | {2} contains the core
    assert not table.realizable(0b0100)  # the same, mirrored
    assert counts == {"infeasible_core": 7}


def test_a_core_answers_a_grouping_that_holds_it_mirrored(monkeypatch):
    # color 3 lies between colors 1 and 2, color 0 above: grouping keys put
    # color 0 first, so the second grouping holds the first one's core the
    # other way round
    cfg = make_config(2, [(1, 5), (0, 0), (2, 0), (1, 0)], colors=[0, 1, 2, 3])
    counts = Counter()
    _counting(monkeypatch, colorful, "infeasible_core", counts)
    table = colorful._Groupings(cfg)
    assert not table.realizable(0b0111)  # {0, 1, 2} | {3}
    assert table.cores == {(0b0110, 0b1000)}
    assert not table.realizable(0b1001)  # {0, 3} | {1, 2}
    assert counts == {"infeasible_core": 7}


def _class_points(cfg, mask):
    return [cfg.point(i) for c, ids in cfg.color_classes.items() if mask >> c & 1 for i in ids]


@settings(max_examples=60)
@example(_FOUR_CLUSTERS)
@given(st.integers(3, 5).flatmap(lambda k: degenerate_colored(colors=k)))
def test_grouping_table_and_its_cores_match_the_witness_route(cfg):
    """Every grouping, asked in mask order so that recorded cores answer
    later ones, gets the answer of the unpruned witness-producing route;
    every core is two disjoint nonempty sets of at most dim+2 colors whose
    classes that route cannot separate."""
    table = colorful._Groupings(cfg)
    full = (1 << cfg.k) - 1
    for plus in range(1, full):
        expected = strict_separate(_class_points(cfg, plus), _class_points(cfg, full ^ plus), cfg.dim)
        assert table.realizable(plus) == (expected is not None)
    for a, b in table.cores:
        assert a and b and not a & b
        assert a.bit_count() + b.bit_count() <= cfg.dim + 2
        assert strict_separate(_class_points(cfg, a), _class_points(cfg, b), cfg.dim) is None


def test_verify_instance_at_the_d3_cap(monkeypatch):
    """Main suite at the CLI caps (d=3, n=16, k=8): the same all-points
    witness as the unpruned decisions, which took 297 of them and about a
    minute; cores and pruning bring it under a second."""
    cfg = generate_instance(CampaignSpec(suite="main", dim=3, n=16, colors=8, seed=0), 0)
    counts = Counter()
    _counting(monkeypatch, colorful, "infeasible_core", counts)
    report = verify_instance(cfg)
    assert not report.partitionable
    assert report.witness.witness_ids == tuple(range(16))
    assert counts["infeasible_core"] <= 297
