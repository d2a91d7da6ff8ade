"""Partitions, divisions, fullness, and transversal structure."""

from __future__ import annotations

import re
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hyperpart import (
    CampaignSpec,
    Division,
    DomainError,
    InvalidConfig,
    Partition,
    generate_instance,
    hyperplane_division,
    is_full,
    is_transversal,
    minimal_transversals,
    minimalize_transversal,
    nonseparating_members,
    restrict,
    separating_members,
)
from hyperpart.hdivision import division_of_masks, ordered_members
from hyperpart.partitions import (
    at_bits,
    minimal_separating_sets,
    minimalize_masks,
    separating_sets,
)
from strategies import degenerate_configs, general_configs


def test_partition_canonical_form():
    p = Partition(((5, 3), (1,), (2, 4)))
    assert p.blocks == ((1,), (2, 4), (3, 5))
    assert p.support == {1, 2, 3, 4, 5}
    assert Partition(((3, 5), (4, 2), (1,))) == p


def test_partition_rejects_overlap_and_empty():
    with pytest.raises(InvalidConfig):
        Partition(((1, 2), (2, 3)))
    with pytest.raises(InvalidConfig):
        Partition(((1,), ()))
    with pytest.raises(InvalidConfig):
        Partition(())


def test_separates():
    p = Partition(((1, 2), (3,)))
    assert p.separates(1, 3)
    assert not p.separates(1, 2)
    with pytest.raises(DomainError):
        p.separates(1, 1)
    with pytest.raises(DomainError):
        p.separates(1, 9)


def test_trivial_and_block_of():
    p = Partition(((7, 8),))
    assert p.is_trivial
    assert p.block_of(8) == (7, 8)
    with pytest.raises(DomainError):
        p.block_of(1)


def test_restrict():
    p = Partition(((1, 2), (3, 4)))
    assert restrict(p, [1, 3]).blocks == ((1,), (3,))
    assert restrict(p, [1, 2]).blocks == ((1, 2),)
    with pytest.raises(DomainError):
        restrict(p, [9])
    with pytest.raises(DomainError):
        restrict(p, [])


def test_division_dedups_and_checks_support():
    a = Partition(((1,), (2,)))
    b = Partition(((2,), (1,)))
    d = Division(frozenset({1, 2}), (a, b))
    assert len(d) == 1
    with pytest.raises(InvalidConfig):
        Division(frozenset({1, 2}), (Partition(((1,), (3,))),))


def test_fullness():
    trivial = Partition(((1, 2, 3),))
    split12 = Partition(((1,), (2, 3)))
    split13 = Partition(((2,), (1, 3)))
    split23 = Partition(((3,), (1, 2)))
    assert not is_full(Division(frozenset({1, 2, 3}), (trivial, split12)))
    assert is_full(Division(frozenset({1, 2, 3}), (split12, split13, split23)))


def test_separating_members(quad):
    division = hyperplane_division(quad).division
    sep = separating_members(division, 0, 1)
    nonsep = nonseparating_members(division, 0, 1)
    assert len(sep) + len(nonsep) == len(division)
    assert all(m.separates(0, 1) for m in sep)
    assert all(not m.separates(0, 1) for m in nonsep)
    with pytest.raises(DomainError):
        separating_members(division, 0, 0)


def test_is_transversal_needs_full_division():
    trivial = Partition(((1, 2),))
    d = Division(frozenset({1, 2}), (trivial,))
    with pytest.raises(DomainError):
        is_transversal(d, ())


def test_is_transversal_rejects_foreign_members(quad):
    division = hyperplane_division(quad).division
    crossing = Partition(((0, 2), (1, 3)))  # the diagonals intersect
    assert crossing not in division
    with pytest.raises(DomainError):
        is_transversal(division, (crossing,))


def test_transversal_agrees_with_brute_force(quad):
    division = hyperplane_division(quad).division
    masks = oracles.full_subfamily_masks(division)
    for r in range(len(division) + 1):
        for subset in combinations(division.members, r):
            assert is_transversal(division, subset) == oracles.brute_is_transversal(
                division, subset, masks
            ), subset


def test_minimalize_transversal(quad):
    division = hyperplane_division(quad).division
    whole = minimalize_transversal(division, division.members)
    assert is_transversal(division, whole)
    # inclusion-minimal: no member can still be dropped
    for member in whole:
        assert not is_transversal(division, set(whole) - {member})
    with pytest.raises(DomainError):
        minimalize_transversal(division, ())


def test_minimal_transversals_structure(quad):
    division = hyperplane_division(quad).division
    found = minimal_transversals(division)
    assert found == tuple(sorted(found, key=lambda t: (t.size, t.pair)))
    sets = [frozenset(t.members) for t in found]
    for s in sets:
        assert is_transversal(division, s)
    for s, t in combinations(sets, 2):
        assert not s < t and not t < s
    # every minimal transversal is the separating set of its tagged pair
    for t in found:
        assert frozenset(separating_members(division, *t.pair)) == frozenset(t.members)


@pytest.mark.parametrize("dim,n,seed", [(1, 5, 21), (2, 5, 22), (2, 6, 23), (3, 5, 24)])
def test_pair_separating_sets_are_transversals(dim, n, seed):
    spec = CampaignSpec(suite="parts", dim=dim, n=n, trials=1, seed=seed)
    division = hyperplane_division(generate_instance(spec)).division
    for a, b in combinations(sorted(division.support), 2):
        assert is_transversal(division, separating_members(division, a, b))


@st.composite
def _divisions(draw):
    """Divisions of 1 to 6 ids whose members have one to four blocks, with
    at most 8 members so that every subfamily can be listed; one id leaves
    no pair, and no members leave no block slot."""
    ids = range(draw(st.integers(1, 6)))
    labels = st.lists(st.integers(0, 3), min_size=len(ids), max_size=len(ids))
    members = []
    for blocks in draw(st.lists(labels, max_size=8)):
        groups: dict = {}
        for x, label in zip(ids, blocks):
            groups.setdefault(label, []).append(x)
        members.append(Partition(tuple(tuple(g) for g in groups.values())))
    return Division(frozenset(ids), tuple(members))


def _drawn_members(data, division):
    """A drawn set of the division's members (``sampled_from`` needs at least
    one to draw from)."""
    if not division.members:
        return set()
    return data.draw(st.sets(st.sampled_from(division.members)))


def _greedy_descent(division, chosen, masks):
    """The members of ``chosen`` that the greedy descent keeps, in canonical
    order, by the literal reading of transversality: each member is dropped
    when the rest still meets every full subfamily."""
    expected = set(chosen)
    for member in division.members:
        if member in expected and oracles.brute_is_transversal(division, expected - {member}, masks):
            expected.remove(member)
    return tuple(m for m in division.members if m in expected)


@settings(max_examples=150)
@given(_divisions(), st.data())
def test_fullness_and_transversals_match_their_definitions(division, data):
    """Fullness against its pairwise definition, and each pair's
    (non)separating members against ``Partition.separates``; on full
    divisions, ``minimal_transversals`` against the Partition scan (both
    refuse a support of one id), ``is_transversal`` against the literal
    reading and ``minimalize_transversal`` against its greedy descent by
    that reading, for a drawn subset and for the whole division."""
    pairs = list(combinations(sorted(division.support), 2))
    assert is_full(division) == all(any(m.separates(a, b) for m in division.members) for a, b in pairs)
    for a, b in pairs:
        assert separating_members(division, b, a) == tuple(m for m in division.members if m.separates(a, b))
        assert nonseparating_members(division, a, b) == tuple(
            m for m in division.members if not m.separates(a, b)
        )
    if not is_full(division):
        with pytest.raises(DomainError, match="full divisions only"):
            minimal_transversals(division)
        return
    if pairs:
        assert minimal_transversals(division) == oracles.scan_minimal_transversals(division)
    else:
        for scan in (minimal_transversals, oracles.scan_minimal_transversals):
            with pytest.raises(DomainError, match="at least two support ids"):
                scan(division)
    masks = oracles.full_subfamily_masks(division)
    drawn = _drawn_members(data, division)
    assert is_transversal(division, drawn) == oracles.brute_is_transversal(division, drawn, masks)
    for chosen in (drawn, set(division.members)):
        if oracles.brute_is_transversal(division, chosen, masks):
            assert minimalize_transversal(division, chosen) == _greedy_descent(division, chosen, masks)


@settings(max_examples=150)
@given(_divisions(), st.data())
def test_mask_routine_is_the_transversal_test_and_descent(division, data):
    """``minimalize_masks`` on per-pair separating sets read here off
    ``Partition.separates``, for a drawn subset and for the whole division:
    None exactly when the literal reading finds no transversal, else the
    members its greedy descent keeps; DomainError when some pair has no
    separating member."""
    members = division.members
    separating = [
        sum(1 << i for i, m in enumerate(members) if m.separates(a, b))
        for a, b in combinations(sorted(division.support), 2)
    ]
    drawn = _drawn_members(data, division)
    if not all(separating):
        with pytest.raises(DomainError, match="full divisions only"):
            minimalize_masks(separating, sum(1 << i for i, m in enumerate(members) if m in drawn))
        return
    masks = oracles.full_subfamily_masks(division)
    for chosen in (drawn, set(members)):
        kept = minimalize_masks(separating, sum(1 << i for i, m in enumerate(members) if m in chosen))
        if oracles.brute_is_transversal(division, chosen, masks):
            assert kept is not None
            assert tuple(at_bits(members, kept)) == _greedy_descent(division, chosen, masks)
        else:
            assert kept is None


@settings(max_examples=80, deadline=None)
@given(st.one_of(general_configs(), degenerate_configs()), st.data())
def test_mask_transversals_match_the_partition_scan(config, data):
    """``minimal_separating_sets`` on the columns of the member masks, in
    ``ordered_members``' order, against the Partition scan of the division of
    those masks: the same pairs, sizes, and members in order.  A drawn
    subfamily of the members, which need not be full, gets the same
    transversals or the same error."""
    members = ordered_members(config)
    kept = data.draw(st.sets(st.integers(0, len(members) - 1)))
    for family in (members, [members[i] for i in sorted(kept)]):
        firsts = [first for first, _ in family]
        partitions = [Partition(tuple(map(tuple, blocks))) for _, blocks in family]
        try:
            expected = oracles.scan_minimal_transversals(division_of_masks(config.ids, firsts))
        except DomainError as err:
            with pytest.raises(DomainError, match=re.escape(str(err))):
                minimal_separating_sets(separating_sets(firsts, config.ids))
            continue
        found = minimal_separating_sets(separating_sets(firsts, config.ids))
        assert [(pair, chosen.bit_count(), tuple(at_bits(partitions, chosen))) for pair, chosen in found] == [
            (t.pair, t.size, t.members) for t in expected
        ]
