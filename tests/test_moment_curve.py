"""Known answers for the Kirchberger scan, the grouping table and the
partitionability routes on the moment curve.

A hyperplane meets the curve (t, t^2, ..., t^d) where a polynomial of degree
at most d vanishes, so the sides of points on it, read along t, change at
most d times, and a root between the neighbours at each change realizes any
such side sequence.  So every question here has a rule on the string of
colors along t:

* a grouping of the colors is realizable exactly when its side sequence
  changes at most d times;
* d+2 two-colored points are inseparable exactly when their labels
  alternate, and the points are in general position, so the scan's first
  inseparable subset through the anchor is the first alternating (d+2)-subset
  in id-lexicographic order;
* the configuration is partitionable exactly when every pair of colors is
  split by some realizable grouping, and every extracted witness fails that
  rule on its own points.

The ids run in any order of t, so the orientation table holds both signs,
and the colors come in runs along t, so that both answers turn up.
"""

from __future__ import annotations

from itertools import combinations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperpart import (
    is_partitionable,
    is_partitionable_by_enumeration,
    kirchberger_witness,
    make_config,
    witness_nonpartitionable,
)
from hyperpart.colorful import _Groupings


@st.composite
def colored_moment_curves(draw, colors: int = 8, most: int = 12):
    """``(dim, along, labels)``: the ids of 2 to ``most`` points of the curve
    in R^dim in increasing t, d = 1 to 3, and their labels in runs of one or
    two points, each run one of at most ``colors`` labels and not the label
    of the run before it, so that few labels recur in many runs."""
    dim = draw(st.integers(1, 3))
    n = draw(st.sampled_from(range(2, most + 1)))
    k = draw(st.integers(1, colors))
    labels = [draw(st.integers(0, k - 1))]
    while len(labels) < n:
        step = draw(st.integers(1, k - 1)) if k > 1 else 0
        labels += [(labels[-1] + step) % k] * draw(st.integers(1, 2))
    return dim, draw(st.permutations(range(n))), labels[:n]


def _curve(dim: int, along, labels):
    """The points at t = 1, 2, ... with ids ``along``, labelled in that order."""
    coords = {i: tuple(t**e for e in range(1, dim + 1)) for t, i in enumerate(along, 1)}
    return make_config(dim, coords, colors=dict(zip(along, labels)))


def _changes(sides) -> int:
    return sum(a != b for a, b in zip(sides, sides[1:]))


def _realizable(dim: int, colors_along, plus: int) -> bool:
    """The rule for the grouping with the colors of bitmask ``plus`` on one side."""
    return _changes([plus >> c & 1 for c in colors_along]) <= dim


def _partitionable(dim: int, colors_along) -> bool:
    """The rule: every pair of the colors present is split by some realizable
    grouping."""
    present = sorted(set(colors_along))
    return all(
        any(
            _realizable(dim, colors_along, plus)
            for plus in range(1 << (max(present) + 1))
            if plus >> c1 & 1 != plus >> c2 & 1
        )
        for c1, c2 in combinations(present, 2)
    )


# d = 3 at n = 16, ids scrambled along t
_SCRAMBLED = [5, 12, 0, 9, 15, 3, 10, 6, 1, 13, 8, 2, 14, 7, 11, 4]
_AT_THE_CAP = [
    (3, _SCRAMBLED, [0] * 4 + [1] * 4 + [0] * 4 + [1] * 4),  # three changes: separable
    (3, _SCRAMBLED, [0] * 3 + [1] * 3 + [0] * 3 + [1] * 3 + [0] * 4),  # four: not
    (3, _SCRAMBLED, [0, 1] * 8),  # alternating throughout
    (3, list(range(16)), [c // 2 for c in range(16)]),  # eight colors in runs of two
    (3, _SCRAMBLED, [c % 4 for c in range(16)]),  # four colors, each in four runs
    (3, _SCRAMBLED, [0, 0, 1, 1, 2, 2, 0, 0, 1, 1, 2, 2, 3, 3, 3, 3]),
]


@settings(max_examples=60)
@given(colored_moment_curves(colors=2))
@example(_AT_THE_CAP[0])
@example(_AT_THE_CAP[1])
@example(_AT_THE_CAP[2])
def test_the_scan_finds_the_first_alternating_subset(drawn):
    dim, along, labels = drawn
    cfg = _curve(dim, along, labels)
    label_of = dict(zip(along, labels))
    place = {i: t for t, i in enumerate(along)}
    alternating = [
        combo
        for combo in combinations(cfg.ids, dim + 2)
        if _changes([label_of[i] for i in sorted(combo, key=place.__getitem__)]) == dim + 1
    ]
    for anchor in cfg.ids:
        expected = next((combo for combo in alternating if anchor in combo), None)
        assert kirchberger_witness(cfg, anchor) == expected
    assert (alternating == []) == (_changes(labels) <= dim)


@settings(max_examples=60)
@given(colored_moment_curves())
@example(_AT_THE_CAP[3])
@example(_AT_THE_CAP[4])
@example(_AT_THE_CAP[5])
def test_a_grouping_is_realizable_when_its_sides_change_at_most_d_times(drawn):
    dim, along, labels = drawn
    cfg = _curve(dim, along, labels)
    colors_along = [cfg.color_of(i) for i in along]
    groupings = _Groupings.of(cfg)
    for plus in range(1 << cfg.k):
        assert groupings.realizable(plus) == _realizable(dim, colors_along, plus), plus


@settings(max_examples=60)
@given(colored_moment_curves())
@example(_AT_THE_CAP[3])
@example(_AT_THE_CAP[4])
@example(_AT_THE_CAP[5])
def test_partitionability_and_witnesses_follow_the_string_rule(drawn):
    dim, along, labels = drawn
    cfg = _curve(dim, along, labels)
    colors_along = [cfg.color_of(i) for i in along]
    partitionable = _partitionable(dim, colors_along)
    assert (is_partitionable(cfg) is not None) == partitionable
    assert is_partitionable_by_enumeration(cfg) == partitionable
    if not partitionable:
        witness = set(witness_nonpartitionable(cfg).witness_ids)
        assert not _partitionable(dim, [c for i, c in zip(along, colors_along) if i in witness])
