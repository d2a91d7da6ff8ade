"""Acceptance gate: eleven exact criteria, one summary line each.

Every criterion runs on frozen seeds with zero tolerance; the per-criterion
verdicts are printed in the terminal summary (see conftest).  Instance streams
are regenerated deterministically, so criteria that share instances (8, 9, and
10) see byte-identical configurations.
"""

from __future__ import annotations

import functools
import random
import time
from fractions import Fraction

import oracles
from conftest import record_acceptance
from hyperpart import (
    CampaignSpec,
    color_separating_hyperplane,
    generate_instance,
    helly_dual,
    hyperplane_division,
    is_partitionable,
    is_partitionable_by_enumeration,
    is_transversal,
    kirchberger_witness,
    make_config,
    max_transversal_size,
    min_transversal_size,
    minimal_transversals,
    partition_count,
    pentagon_config,
    projective_flip,
    separating_members,
    shrink_to_min,
    smallest_blocked_subset_size,
    witness_nonpartitionable,
    witness_size_bound,
)
from hyperpart.pentagon import (
    ADJACENT_VERTEX_PAIR,
    CENTER_VERTEX_PAIR,
    NONADJACENT_VERTEX_PAIR,
)


def criterion(number: int, name: str):
    """Record a PASS/FAIL summary line for the criterion, then let pytest
    handle the failure normally."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                record_acceptance(number, name, False)
                raise
            record_acceptance(number, name, True, detail or "")

        return wrapper

    return decorate


def _stream(suite: str, seed: int, dims_ns, trials: int, colors: int = 0,
            degenerate: bool = False):
    """Deterministic instance stream cycling through the given shapes."""
    shapes = list(dims_ns)
    for trial in range(trials):
        dim, n = shapes[trial % len(shapes)]
        spec = CampaignSpec(
            suite=suite, dim=dim, n=n, colors=colors, trials=1, seed=seed,
            degenerate=degenerate,
        )
        yield trial, dim, n, generate_instance(spec, trial)


@functools.lru_cache(maxsize=1)
def _two_color_instances():
    """Criterion 8's 200 two-colored planar instances (shared with 10)."""
    return tuple(
        cfg
        for _, _, _, cfg in _stream(
            "accept-kirchberger", 108, [(2, n) for n in range(4, 12)], 200, colors=2
        )
    )


@functools.lru_cache(maxsize=1)
def _three_color_instances():
    """Criterion 9's 200 three-colored planar instances (shared with 10)."""
    return tuple(
        cfg
        for _, _, _, cfg in _stream(
            "accept-main", 109, [(2, n) for n in range(5, 13)], 200, colors=3
        )
    )


@criterion(1, "partition counts on general position")
def test_criterion_01_counts():
    start = time.monotonic()
    checked = 0
    for dim, ns, seed in ((2, range(4, 9), 101), (3, range(4, 7), 102)):
        for n in ns:
            for trial, _, _, cfg in _stream("accept-phi", seed, [(dim, n)], 20):
                assert len(hyperplane_division(cfg)) == partition_count(dim, n), (
                    dim, n, trial,
                )
                checked += 1
    elapsed = time.monotonic() - start
    assert checked == 160
    assert elapsed < 60
    return f"160 instances, {elapsed:.1f}s"


@criterion(2, "pentagon reproduction")
def test_criterion_02_pentagon():
    start = time.monotonic()
    cfg = pentagon_config()
    hd = hyperplane_division(cfg)
    assert len(hd) == 16 == partition_count(2, 6)
    assert len(separating_members(hd.division, *CENTER_VERTEX_PAIR)) == 6
    assert len(separating_members(hd.division, *ADJACENT_VERTEX_PAIR)) == 6
    assert len(separating_members(hd.division, *NONADJACENT_VERTEX_PAIR)) == 10
    sizes = [t.size for t in minimal_transversals(hd.division)]
    assert min(sizes) == 6
    assert partition_count(2, 6) - partition_count(2, 5) == 5
    shrunk = shrink_to_min(cfg, *CENTER_VERTEX_PAIR)
    assert shrunk.separating_size == 5
    after = hyperplane_division(shrunk.config)
    assert min(t.size for t in minimal_transversals(after.division)) == 5
    elapsed = time.monotonic() - start
    assert elapsed < 5
    return f"{elapsed:.2f}s"


_LOWER_SHAPES = [(1, 6), (2, 5), (2, 7), (2, 8), (3, 5), (3, 6), (3, 8)]


@criterion(3, "minimal transversal lower bound")
def test_criterion_03_lower_bound():
    checked = 0
    for trial, dim, n, cfg in _stream("accept-lower", 103, _LOWER_SHAPES, 50):
        division = hyperplane_division(cfg).division
        low = min_transversal_size(dim, n)
        for t in minimal_transversals(division):
            assert t.size >= low, (trial, t.size, low)
        checked += 1
    assert checked == 50
    return "50 instances"


@criterion(4, "shrink reaches the minimum")
def test_criterion_04_shrink_attainment():
    for trial, dim, n, cfg in _stream("accept-lower", 103, _LOWER_SHAPES, 50):
        rng = random.Random(f"accept-shrink:{trial}")
        a, b = sorted(rng.sample(cfg.ids, 2))
        result = shrink_to_min(cfg, a, b)
        assert result.separating_size == min_transversal_size(dim, n), trial
    shrunk = shrink_to_min(pentagon_config(), *CENTER_VERTEX_PAIR)
    assert shrunk.separating_size == min_transversal_size(2, 6)
    return "50 instances + pentagon"


@criterion(5, "projective flip duality")
def test_criterion_05_flip_duality():
    for trial, dim, n, cfg in _stream("accept-duality", 105, [(2, 7), (3, 6)], 50):
        rng = random.Random(f"accept-flip:{trial}")
        a, b = sorted(rng.sample(cfg.ids, 2))
        result = projective_flip(cfg, a, b, 0)
        total = result.separating_before + result.separating_after
        assert total == partition_count(dim, n), (trial, total)
    return "50 instances"


@criterion(6, "minimal transversal upper bound, degenerate inputs")
def test_criterion_06_upper_bound():
    shapes = [(2, 5), (2, 6), (2, 7), (2, 8), (3, 5), (3, 6)]
    for trial, dim, n, cfg in _stream(
        "accept-upper", 106, shapes, 50, degenerate=True
    ):
        hd = hyperplane_division(cfg)
        assert len(hd) <= partition_count(dim, n)
        high = max_transversal_size(dim, n)
        for t in minimal_transversals(hd.division):
            assert t.size <= high, (trial, t.size, high)
    return "50 degenerate instances"


@criterion(7, "minimal transversals by full subset enumeration")
def test_criterion_07_exhaustive_transversals(quad):
    start = time.monotonic()
    corpus = [
        ("line-12", make_config(1, [(i,) for i in range(12)])),
        ("line-6", make_config(1, [(i,) for i in range(6)])),
        ("quad", quad),
        (
            "gp-2d-5",
            generate_instance(
                CampaignSpec(suite="accept-prop2", dim=2, n=5, trials=1, seed=107)
            ),
        ),
        (
            "gp-3d-4",
            generate_instance(
                CampaignSpec(suite="accept-prop2", dim=3, n=4, trials=1, seed=107)
            ),
        ),
        (
            "degen-2d-5",
            generate_instance(
                CampaignSpec(
                    suite="accept-prop2-degen", dim=2, n=5, trials=1, seed=107,
                    degenerate=True,
                )
            ),
        ),
    ]
    for name, cfg in corpus:
        division = hyperplane_division(cfg).division
        members = division.members
        assert len(members) <= 12, name
        masks = oracles.full_subfamily_masks(division)
        brute_transversals = []
        for mask in range(1 << len(members)):
            subset = [members[i] for i in range(len(members)) if mask >> i & 1]
            brute = oracles.brute_is_transversal(division, subset, masks)
            assert is_transversal(division, subset) == brute, (name, subset)
            if brute:
                brute_transversals.append(frozenset(subset))
        brute_minimal = {
            s for s in brute_transversals
            if not any(o < s for o in brute_transversals)
        }
        pair_sets = {frozenset(t.members) for t in minimal_transversals(division)}
        assert brute_minimal == pair_sets, name
    elapsed = time.monotonic() - start
    assert elapsed < 30
    return f"{len(corpus)} divisions, {elapsed:.1f}s"


@criterion(8, "two-color separation with anchored witnesses")
def test_criterion_08_kirchberger():
    separable = inseparable = 0
    for trial, cfg in enumerate(_two_color_instances()):
        anchor = cfg.ids[0]
        direct = color_separating_hyperplane(cfg)
        dual = helly_dual(cfg, anchor).separating_hyperplane()
        assert (direct is None) == (dual is None), trial
        if direct is not None:
            separable += 1
            continue
        inseparable += 1
        witness = kirchberger_witness(cfg, anchor)
        assert witness is not None, trial
        assert anchor in witness and len(witness) <= cfg.dim + 2, (trial, witness)
        assert color_separating_hyperplane(cfg.subset(witness)) is None, trial
    assert separable and inseparable  # both branches genuinely exercised
    assert separable + inseparable == 200
    return f"{separable} separable / {inseparable} inseparable"


@criterion(9, "bounded non-partitionable witnesses")
def test_criterion_09_witness_bound():
    start = time.monotonic()
    bound = witness_size_bound(2, 3)
    assert bound == 9
    partitionable = blocked = 0
    exhausted = 0
    for trial, cfg in enumerate(_three_color_instances()):
        if is_partitionable(cfg) is not None:
            partitionable += 1
            continue
        blocked += 1
        report = witness_nonpartitionable(cfg)
        assert len(report.witness_ids) <= bound, (trial, report.witness_ids)
        sub = cfg.subset(report.witness_ids)
        assert is_partitionable(sub) is None, trial
        # subset exhaustion on a deterministic slice of the small instances
        if blocked % 16 == 1 and len(cfg) <= 9:
            threshold = smallest_blocked_subset_size(cfg)
            assert threshold is not None and threshold <= bound, (trial, threshold)
            exhausted += 1
    assert partitionable and blocked
    assert partitionable + blocked == 200
    elapsed = time.monotonic() - start
    assert elapsed < 600
    return (
        f"{partitionable} partitionable / {blocked} witnessed, "
        f"{exhausted} exhausted, {elapsed:.0f}s"
    )


@criterion(10, "grouping search equals enumeration filter")
def test_criterion_10_route_agreement():
    checked = 0
    for cfg in _two_color_instances() + _three_color_instances():
        grouping = is_partitionable(cfg) is not None
        filtering = is_partitionable_by_enumeration(cfg)
        assert grouping == filtering, cfg
        checked += 1
    assert checked == 400
    return "400 instances"


@criterion(11, "between point gives a proper separating subset")
def test_criterion_11_collinear_strict_subset():
    cfg = make_config(
        2,
        {
            0: (0, 0),          # a
            1: (1, 0),          # c, strictly between a and b
            2: (2, 0),          # b
            3: (Fraction(3, 2), 1),
            4: (-1, -2),
            5: (3, 1),
        },
    )
    hd = hyperplane_division(cfg)
    sep_ac = set(separating_members(hd.division, 0, 1))
    sep_ab = set(separating_members(hd.division, 0, 2))
    assert sep_ac < sep_ab
    return f"|sep(a,c)| = {len(sep_ac)} < |sep(a,b)| = {len(sep_ab)}"
