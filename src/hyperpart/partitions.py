"""Partitions of finite id sets, divisions, fullness, and transversals.

Everything here is pure combinatorics over point ids; geometry enters only
through which divisions get built.  Partitions and divisions are kept in a
canonical order (blocks sorted by least id, members sorted by block tuples) so
that structural equality is set equality and every scan is deterministic.

Separation and transversals run on bitmasks: a set of members is an int, bit
i for the i-th in canonical order, so inclusion is ``a & b == a``.  Which
members separate which pair is held one way only, per pair: the set of
members separating it.  A division holds them in ``Division._separating``;
bipartitions given as first-block masks over points get them from
``separating_sets``.  ``minimal_separating_sets`` picks the minimal
transversals out of either, and ``minimalize_masks`` tests and minimalizes
a transversal on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, compress
from typing import Iterable, Optional, Sequence, TypeVar

from .errors import DomainError, InvalidConfig

_T = TypeVar("_T")


@dataclass(frozen=True)
class Partition:
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        canon = []
        for block in self.blocks:
            ids = tuple(sorted(set(block)))
            if not ids:
                raise InvalidConfig("partition blocks must be nonempty")
            canon.append(ids)
        if not canon:
            raise InvalidConfig("a partition needs at least one block")
        canon.sort(key=lambda b: b[0])
        seen: set[int] = set()
        for block in canon:
            for x in block:
                if x in seen:
                    raise InvalidConfig(f"id {x} appears in two blocks")
                seen.add(x)
        object.__setattr__(self, "blocks", tuple(canon))

    @cached_property
    def support(self) -> frozenset[int]:
        return frozenset(x for block in self.blocks for x in block)

    @cached_property
    def _block_index(self) -> dict[int, int]:
        return {x: i for i, block in enumerate(self.blocks) for x in block}

    @property
    def is_trivial(self) -> bool:
        return len(self.blocks) == 1

    def block_of(self, id: int) -> tuple[int, ...]:
        try:
            return self.blocks[self._block_index[id]]
        except KeyError:
            raise DomainError(f"id {id} is not in the partition support") from None

    def separates(self, a: int, b: int) -> bool:
        if a == b:
            raise DomainError("separation is defined for two distinct ids")
        idx = self._block_index
        if a not in idx or b not in idx:
            missing = [x for x in (a, b) if x not in idx]
            raise DomainError(f"ids not in the partition support: {missing}")
        return idx[a] != idx[b]

    def __repr__(self) -> str:
        inner = "|".join(",".join(str(x) for x in block) for block in self.blocks)
        return f"Partition[{inner}]"


def restrict(partition: Partition, ids: Iterable[int]) -> Partition:
    """Restriction to a nonempty subset of the support; empty traces vanish."""
    keep = frozenset(ids)
    if not keep:
        raise DomainError("cannot restrict to an empty set")
    if not keep <= partition.support:
        raise DomainError(f"ids not in the partition support: {sorted(keep - partition.support)}")
    blocks = [tuple(x for x in block if x in keep) for block in partition.blocks]
    return Partition(tuple(b for b in blocks if b))


@dataclass(frozen=True)
class Division:
    """A support set together with a deduplicated family of partitions of it."""

    support: frozenset[int]
    members: tuple[Partition, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "support", frozenset(self.support))
        if not self.support:
            raise InvalidConfig("a division needs a nonempty support")
        for member in self.members:
            if member.support != self.support:
                raise InvalidConfig(
                    f"member {member!r} has support {sorted(member.support)}, "
                    f"expected {sorted(self.support)}"
                )
        unique = sorted(set(self.members), key=lambda p: p.blocks)
        object.__setattr__(self, "members", tuple(unique))

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, partition: Partition) -> bool:
        return partition in self._index

    @cached_property
    def _index(self) -> dict[Partition, int]:
        return {m: i for i, m in enumerate(self.members)}

    @cached_property
    def _separating(self) -> dict[tuple[int, int], int]:
        """Per pair of support ids a < b, in the order of ``combinations``,
        the bitmask of the members separating it (bit i for the i-th).  With
        ``slots[x][t]`` the members whose t-th block holds x, a pair's set is
        every member but those holding a and b in one slot; a member holds a
        in one slot only, so the slots' shares are disjoint and add up."""
        width = max((len(m.blocks) for m in self.members), default=0)
        slots = {x: [0] * width for x in self.support}
        for i, member in enumerate(self.members):
            bit = 1 << i
            for t, block in enumerate(member.blocks):
                for x in block:
                    slots[x][t] |= bit
        every = (1 << len(self.members)) - 1
        return {
            (a, b): every - sum(map(int.__and__, slots[a], slots[b]))
            for a, b in combinations(sorted(self.support), 2)
        }


def is_full(division: Division) -> bool:
    """Every pair of distinct support ids is separated by some member."""
    return all(division._separating.values())


def _separating_set(division: Division, a: int, b: int) -> int:
    """The members separating ids a and b; DomainError unless they are two
    distinct support ids."""
    pair_positions(sorted(division.support), a, b)
    return division._separating[min(a, b), max(a, b)]


def separating_members(division: Division, a: int, b: int) -> tuple[Partition, ...]:
    return tuple(at_bits(division.members, _separating_set(division, a, b)))


def nonseparating_members(division: Division, a: int, b: int) -> tuple[Partition, ...]:
    found = _separating_set(division, a, b)
    return tuple(m for i, m in enumerate(division.members) if not found >> i & 1)


def pair_positions(ids: Sequence[int], a: int, b: int) -> tuple[int, int]:
    """The positions of ids a and b in ``ids``; DomainError unless they are
    two distinct ids among them."""
    if a == b:
        raise DomainError("separation is defined for two distinct ids")
    missing = {a, b}.difference(ids)
    if missing:
        raise DomainError(f"ids not in the division support: {sorted(missing)}")
    return ids.index(a), ids.index(b)


def at_bits(items: Sequence[_T], mask: int) -> list[_T]:
    """The items at the set bits of ``mask``, in order."""
    return list(compress(items, map("1".__eq__, bin(mask)[:1:-1])))


def minimalize_masks(separating: Iterable[int], chosen: int) -> Optional[int]:
    """``is_transversal`` and ``minimalize_transversal`` on bitmasks: per
    pair the members separating it, and the chosen members (bit i for the
    i-th in canonical order).  The chosen members are a transversal when
    some pair's set lies inside them; None when none does, else the ones
    the greedy descent keeps.  The descent scans the members in order and
    keeps the "live" pairs, whose sets lie inside the kept members; it drops
    member i when some live pair's set lacks i, and then only those pairs
    stay live."""
    separating = list(separating)
    if not all(separating):
        raise DomainError("transversals are defined for full divisions only")
    live = [found for found in separating if found & chosen == found]
    if not live:
        return None
    for i in at_bits(range(chosen.bit_length()), chosen):
        lacking = [found for found in live if not found >> i & 1]
        if lacking:
            chosen ^= 1 << i
            live = lacking
    return chosen


def _descend(division: Division, subset: Iterable[Partition]) -> Optional[int]:
    """``minimalize_masks`` on the members of ``subset``."""
    chosen = 0
    for member in subset:
        if member not in division._index:
            raise DomainError("subset contains partitions outside the division")
        chosen |= 1 << division._index[member]
    return minimalize_masks(division._separating.values(), chosen)


def is_transversal(division: Division, subset: Iterable[Partition]) -> bool:
    """Does the subset meet every full subdivision?

    Equivalent complement test: the members NOT in the subset must fail to be
    full.  (A full complement is itself a full subdivision avoiding the subset;
    conversely any avoided full subdivision lives inside the complement and
    forces it full.)
    """
    return _descend(division, subset) is not None


def minimalize_transversal(
    division: Division, transversal: Iterable[Partition]
) -> tuple[Partition, ...]:
    """Greedy descent to an inclusion-minimal transversal inside the given one.

    Members are scanned in canonical order; each is dropped when the rest still
    forms a transversal, that is when the members outside it stay not full
    with the member added.  Because transversality is monotone under
    supersets, the result admits no removable member at all, i.e. it is
    inclusion-minimal.
    """
    kept = _descend(division, transversal)
    if kept is None:
        raise DomainError("the given subset is not a transversal")
    return tuple(m for i, m in enumerate(division.members) if kept >> i & 1)


@dataclass(frozen=True)
class MinimalTransversal:
    pair: tuple[int, int]
    members: tuple[Partition, ...]

    @property
    def size(self) -> int:
        return len(self.members)


def minimal_transversals(division: Division) -> tuple[MinimalTransversal, ...]:
    """All inclusion-minimal transversals, each tagged with a realizing pair:
    ``minimal_separating_sets`` on ``Division._separating``."""
    return tuple(
        MinimalTransversal(pair, tuple(at_bits(division.members, found)))
        for pair, found in minimal_separating_sets(division._separating.items())
    )


def separating_sets(
    firsts: Iterable[int], ids: Sequence[int]
) -> list[tuple[tuple[int, int], int]]:
    """Every pair of ``ids``, in the order of ``combinations``, with the
    bitmask of the bipartitions separating it (bit i for the i-th of
    ``firsts``), from each bipartition's first block as a bitmask over the
    positions of ``ids``.  With ``col[p]`` the bipartitions whose first block
    holds position p, pair (p, q)'s set is ``col[p] ^ col[q]``; the trivial
    member's first block holds every position, so it separates no pair."""
    firsts = list(firsts)
    cols = [
        sum(1 << i for i, first in enumerate(firsts) if first >> p & 1) for p in range(len(ids))
    ]
    return [
        ((ids[p], ids[q]), cols[p] ^ cols[q]) for p, q in combinations(range(len(ids)), 2)
    ]


def minimal_separating_sets(
    separating: Iterable[tuple[tuple[int, int], int]],
) -> list[tuple[tuple[int, int], int]]:
    """The minimal transversals, from every pair in increasing order with
    the bitmask of the members separating it: the inclusion-minimal distinct
    sets, each with the first pair that has it, ordered by size, then pair.

    The separating sets of pairs are always transversals, minimal transversals
    are separating sets of pairs, and a pair's set is a minimal transversal
    exactly when no other pair's set is properly contained in it.  DomainError
    with no pair (fewer than two ids), or with a pair no member separates
    (the members are not full).
    """
    first_pair: dict[int, tuple[int, int]] = {}
    for pair, members in separating:
        first_pair.setdefault(members, pair)
    if not first_pair:
        raise DomainError("minimal transversals need at least two support ids")
    if 0 in first_pair:
        raise DomainError("transversals are defined for full divisions only")
    found = [
        (pair, key)
        for key, pair in first_pair.items()
        if not any(other & key == other != key for other in first_pair)
    ]
    found.sort(key=lambda f: (f[1].bit_count(), f[0]))
    return found
