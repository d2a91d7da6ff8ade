"""Seeded verification campaigns and the exhaustive threshold search.

Each suite, and the threshold search, runs ``trials`` independent instances
through one trial loop and returns a JSON-able report.  A trial that trips an
internal consistency check is recorded as a failure with its message rather
than aborting the campaign, so a red run still shows every result.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

from .colorful import (
    is_partitionable_by_enumeration,
    kirchberger_routes,
    smallest_blocked_subset_size,
    verify_instance,
)
from .counting import max_transversal_size, partition_count, witness_size_bound
from .errors import DomainError, VerificationError
from .generator import CampaignSpec, generate_instance, generate_pair
from .hdivision import hyperplane_division, member_masks, projective_flip
from .instances import config_doc
from .partitions import minimal_separating_sets, separating_sets

SUITES = ("phi", "kirchberger", "main", "duality", "eta-bound")


def _trial_phi(spec: CampaignSpec, trial: int) -> dict:
    config = generate_instance(spec, trial)
    # brute force on purpose: the enumeration checks the closed form independently
    count = len(hyperplane_division(config))
    expected = partition_count(spec.dim, spec.n)
    ok = count <= expected if spec.degenerate else count == expected
    return {"trial": trial, "count": count, "expected": expected, "ok": ok}


def _trial_kirchberger(spec: CampaignSpec, trial: int) -> dict:
    config = generate_instance(spec, trial)
    anchor = config.ids[0]
    routes = kirchberger_routes(config, anchor)
    agree = routes.routes_agree
    record: dict = {
        "trial": trial,
        "anchor": anchor,
        "separable": routes.hyperplane is not None,
        "routes_agree": agree,
    }
    if routes.hyperplane is None:
        witness = routes.witness
        record["witness"] = list(witness) if witness else None
        record["ok"] = agree and witness is not None and len(witness) <= spec.dim + 2
    else:
        record["ok"] = agree
    return record


def _trial_main(spec: CampaignSpec, trial: int) -> dict:
    config = generate_instance(spec, trial)
    instance = verify_instance(config)
    agree = instance.partitionable == is_partitionable_by_enumeration(config)
    record: dict = {
        "trial": trial,
        "partitionable": instance.partitionable,
        "routes_agree": agree,
        "ok": agree,
    }
    report = instance.witness
    if report is not None and agree:
        record["witness_size"] = len(report.witness_ids)
        record["size_bound"] = report.size_bound
        record["ok"] = len(report.witness_ids) <= report.size_bound
    return record


def _trial_duality(spec: CampaignSpec, trial: int) -> dict:
    config = generate_instance(spec, trial)
    a, b = generate_pair(spec, trial, config)
    result = projective_flip(config, a, b, 0)
    expected = partition_count(spec.dim, spec.n)
    total = result.separating_before + result.separating_after
    return {
        "trial": trial,
        "pair": [a, b],
        "separating_before": result.separating_before,
        "separating_after": result.separating_after,
        "expected_total": expected,
        "ok": total == expected,
    }


def _trial_eta_bound(spec: CampaignSpec, trial: int) -> dict:
    config = generate_instance(spec, trial)
    found = minimal_separating_sets(separating_sets(member_masks(config), config.ids))
    bound = max_transversal_size(spec.dim, spec.n)
    largest = max(members.bit_count() for _, members in found)
    return {
        "trial": trial,
        "largest_minimal_transversal": largest,
        "bound": bound,
        "ok": largest <= bound,
    }


_TRIALS: dict[str, Callable[[CampaignSpec, int], dict]] = {
    "phi": _trial_phi,
    "kirchberger": _trial_kirchberger,
    "main": _trial_main,
    "duality": _trial_duality,
    "eta-bound": _trial_eta_bound,
}


def _check_suite_shape(spec: CampaignSpec) -> CampaignSpec:
    if spec.suite not in SUITES:
        raise DomainError(f"unknown suite {spec.suite!r}; choose from {SUITES}")
    if spec.suite in ("phi", "duality", "eta-bound") and spec.colors:
        raise DomainError(f"suite {spec.suite!r} runs on uncolored configurations")
    if spec.suite == "kirchberger" and spec.colors != 2:
        raise DomainError("suite 'kirchberger' needs exactly 2 colors")
    if spec.suite == "main" and spec.colors < 2:
        raise DomainError("suite 'main' needs at least 2 colors")
    if spec.suite == "duality" and spec.n < 2:
        raise DomainError("suite 'duality' needs at least 2 points")
    if spec.suite == "duality" and spec.degenerate:
        raise DomainError(
            "suite 'duality' flips through a witness and needs general position, "
            "but degenerate mode plants a collinear triple"
        )
    if spec.suite == "eta-bound" and (spec.dim < 2 or spec.n < 3):
        raise DomainError("suite 'eta-bound' plants a collinear triple and needs dim >= 2, n >= 3")
    if spec.suite == "eta-bound" and not spec.degenerate:
        spec = dataclasses.replace(spec, degenerate=True)
    return spec


def _run_trials(
    spec: CampaignSpec, trial_fn: Callable[[CampaignSpec, int], dict]
) -> list[dict]:
    """Every trial's record; a trial that raises ``VerificationError`` is
    recorded as failed with its message.  A failed record carries the
    trial's instance document, so it replays after the generator changes."""
    results = []
    for trial in range(spec.trials):
        try:
            record = trial_fn(spec, trial)
        except VerificationError as err:
            record = {"trial": trial, "ok": False, "error": str(err)}
        if not record["ok"]:
            record["instance"] = config_doc(generate_instance(spec, trial))
        results.append(record)
    return results


def _report(spec: CampaignSpec, suite: str, results: list[dict], **summary) -> dict:
    passed = sum(1 for r in results if r["ok"])
    return {
        "suite": suite,
        "dim": spec.dim,
        "n": spec.n,
        "colors": spec.colors,
        "trials": spec.trials,
        "seed": spec.seed,
        "degenerate": spec.degenerate,
        **summary,
        "results": results,
        "passed": passed,
        "failed": spec.trials - passed,
        "ok": passed == spec.trials,
    }


def run_suite(spec: CampaignSpec) -> dict:
    """Run one named suite; the report carries every trial's verdict."""
    spec = _check_suite_shape(spec)
    return _report(spec, spec.suite, _run_trials(spec, _TRIALS[spec.suite]))


def _trial_bound_search(spec: CampaignSpec, trial: int) -> dict:
    threshold = smallest_blocked_subset_size(generate_instance(spec, trial))
    record: dict = {"trial": trial, "partitionable": threshold is None, "threshold": threshold}
    if threshold is None:
        record["ok"] = True
    else:
        # Every subset smaller than the threshold is partitionable.
        record["largest_safe_size"] = threshold - 1
        record["ok"] = threshold <= witness_size_bound(spec.dim, spec.colors)
    return record


def bound_search(spec: CampaignSpec) -> dict:
    """Exhaustively locate, per trial, the smallest non-partitionable subset
    and compare it with the guaranteed witness-size bound."""
    if spec.colors < 2:
        raise DomainError("bound search needs at least 2 colors")
    results = _run_trials(spec, _trial_bound_search)
    thresholds = [r["threshold"] for r in results if r.get("threshold") is not None]
    return _report(
        spec,
        "bound-search",
        results,
        size_bound=witness_size_bound(spec.dim, spec.colors),
        max_threshold=max(thresholds) if thresholds else None,
    )
