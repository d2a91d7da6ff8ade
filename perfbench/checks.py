"""Output checks for every benchmark job, run outside the timed region.

``check(job, config, doc)`` returns the list of problems found in one job's
JSON report (empty when the report is right).  Each check re-derives what it
can with the library's cheap exact primitives (``realize``, the closed-form
counts, ``validate_certificate``, one separability test on a small subset)
and never re-runs the enumeration it is checking.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional

from hyperpart.colorful import (
    Certificate,
    color_separating_hyperplane,
    is_partitionable,
    validate_certificate,
)
from hyperpart.counting import (
    counting_summary,
    max_transversal_size,
    min_transversal_size,
    partition_count,
    witness_size_bound,
)
from hyperpart.errors import HyperpartError
from hyperpart.geometry import Hyperplane, PointConfig, general_position, realize
from hyperpart.partitions import Partition


def _plane(doc: dict) -> Hyperplane:
    return Hyperplane(tuple(Fraction(x) for x in doc["normal"]), Fraction(doc["offset"]))


def _partition(blocks: list) -> Partition:
    return Partition(tuple(tuple(block) for block in blocks))


def _opt(value: Optional[str]) -> Optional[int]:
    return None if value is None else int(value)


def _arg(args: list[str], flag: str) -> Optional[str]:
    return args[args.index(flag) + 1] if flag in args else None


def _enumerate(job: dict, config: PointConfig, doc: dict) -> list[str]:
    problems = []
    d, n = config.dim, len(config)
    gp = general_position(config)
    members = doc["members"]
    if doc["general_position"] != gp:
        problems.append(f"general_position is {doc['general_position']}, expected {gp}")
    if doc["count"] != len(members):
        problems.append(f"count {doc['count']} != {len(members)} members listed")
    formula = partition_count(d, n)
    if gp and doc["count"] != formula:
        problems.append(f"count {doc['count']} != partition_count {formula} in general position")
    if not gp and doc["count"] > formula:
        problems.append(f"degenerate count {doc['count']} exceeds partition_count {formula}")
    seen = set()
    for entry in members:
        member = _partition(entry["blocks"])
        if member in seen:
            problems.append(f"member {member!r} listed twice")
        seen.add(member)
        try:
            got = realize(_plane(entry["witness"]), config)
        except HyperpartError as err:
            problems.append(f"witness of {member!r} is invalid: {err}")
            continue
        if got != member:
            problems.append(f"witness of {member!r} realizes {got!r}")
    return problems


def _sep(job: dict, config: PointConfig, doc: dict) -> list[str]:
    problems = []
    a, b = int(_arg(job["args"], "--a")), int(_arg(job["args"], "--b"))
    sep = [_partition(m) for m in doc["separating"]]
    non = [_partition(m) for m in doc["nonseparating"]]
    if doc["separating_count"] != len(sep) or doc["nonseparating_count"] != len(non):
        problems.append("counts disagree with the listed members")
    if not all(m.separates(a, b) for m in sep):
        problems.append("a listed separating member does not separate the pair")
    if any(m.separates(a, b) for m in non):
        problems.append("a listed nonseparating member separates the pair")
    if set(sep) & set(non):
        problems.append("a member is listed on both sides")
    total = doc["separating_count"] + doc["nonseparating_count"]
    formula = partition_count(config.dim, len(config))
    if general_position(config) and total != formula:
        problems.append(f"counts sum to {total}, expected partition_count {formula}")
    if total > formula:
        problems.append(f"counts sum to {total}, more than partition_count {formula}")
    return problems


def _transversals(job: dict, config: PointConfig, doc: dict) -> list[str]:
    problems = []
    d, n = config.dim, len(config)
    low, high = min_transversal_size(d, n), max_transversal_size(d, n)
    gp = general_position(config)
    found = doc["minimal_transversals"]
    sizes = [t["size"] for t in found]
    if not found:
        problems.append("no minimal transversal reported")
    if any(t["size"] != len(t["members"]) for t in found):
        problems.append("a transversal size disagrees with its member list")
    if sizes and (doc["min_size"] != min(sizes) or doc["max_size"] != max(sizes)):
        problems.append("min_size/max_size disagree with the listed sizes")
    if any(s > high for s in sizes):
        problems.append(f"a minimal transversal is larger than the bound {high}")
    if gp and any(s < low for s in sizes):
        problems.append(f"a minimal transversal is smaller than the bound {low}")
    if doc["count"] > partition_count(d, n):
        problems.append("division count exceeds partition_count")
    return problems


def _flip(job: dict, config: PointConfig, doc: dict) -> list[str]:
    problems = []
    total = partition_count(config.dim, len(config))
    if doc["total"] != total:
        problems.append(f"total {doc['total']} != partition_count {total}")
    if doc["separating_before"] + doc["separating_after"] != total:
        problems.append("separating counts before and after do not sum to the total")
    images = {tuple(map(tuple, entry["to"])) for entry in doc["map"]}
    if len(doc["map"]) != total or len(images) != total:
        problems.append("the side-exchange map is not a bijection on the members")
    return problems


def _shrink(job: dict, config: PointConfig, doc: dict) -> list[str]:
    problems = []
    expected = min_transversal_size(config.dim, len(config))
    if doc["formula_min"] != expected:
        problems.append(f"formula_min {doc['formula_min']} != {expected}")
    if doc["separating_size"] != expected:
        problems.append(f"separating_size {doc['separating_size']} != minimum {expected}")
    if doc["moved"] != _opt(_arg(job["args"], "--a")) or doc["toward"] != _opt(_arg(job["args"], "--b")):
        problems.append("moved/toward do not match the requested pair")
    return problems


def _perturb(job: dict, config: PointConfig, doc: dict) -> list[str]:
    problems = []
    expected = partition_count(config.dim, len(config))
    if doc["formula_count"] != expected:
        problems.append(f"formula_count {doc['formula_count']} != {expected}")
    if doc["count_after"] != expected:
        problems.append(f"count_after {doc['count_after']} != partition_count {expected}")
    if doc["count_before"] > doc["count_after"]:
        problems.append("perturbation lost realizable partitions")
    return problems


def _partitionable(job: dict, config: PointConfig, doc: dict) -> list[str]:
    if not doc["routes_agree"]:
        return ["the two partitionability routes disagree"]
    if not doc["partitionable"]:
        return [] if doc["certificate"] is None else ["certificate given for a 'no' answer"]
    if doc["certificate"] is None:
        return ["no certificate for a 'yes' answer"]
    family = tuple(
        (_plane(entry["hyperplane"]), _partition(entry["partition"]))
        for entry in doc["certificate"]
    )
    try:
        validate_certificate(Certificate(family), config)
    except HyperpartError as err:
        return [f"certificate rejected: {err}"]
    return []


def _witness(job: dict, config: PointConfig, doc: dict) -> list[str]:
    problems = []
    witness = doc["witness"]
    bound = witness_size_bound(config.dim, config.k)
    if doc["size_bound"] != bound:
        problems.append(f"size_bound {doc['size_bound']} != {bound}")
    if doc["size"] != len(witness):
        problems.append("size disagrees with the witness list")
    if len(witness) > min(bound, doc["size_bound"]):
        problems.append(f"witness has {len(witness)} points, more than the size bound")
    if not set(witness) <= set(config.ids) or not set(doc["representatives"]) <= set(witness):
        problems.append("witness is not a subset containing the representatives")
    elif is_partitionable(config.subset(witness)) is not None:
        problems.append("the witness subset is partitionable")
    return problems


def _kirchberger(job: dict, config: PointConfig, doc: dict) -> list[str]:
    anchor = _opt(_arg(job["args"], "--p"))
    if doc["anchor"] != (config.ids[0] if anchor is None else anchor):
        return ["wrong anchor"]
    if not doc["routes_agree"]:
        return ["the direct and dual routes disagree"]
    if doc["separable"]:
        plane = _plane(doc["hyperplane"])
        classes = config.color_classes
        if any(plane.side_of(config.point(i).coords) <= 0 for i in classes[0]) or any(
            plane.side_of(config.point(i).coords) >= 0 for i in classes.get(1, ())
        ):
            return ["the hyperplane does not put color 0 strictly above and color 1 below"]
        return []
    witness = doc["witness"]
    if witness is None:
        return ["no witness for an inseparable instance"]
    if doc["anchor"] not in witness:
        return ["witness does not contain the anchor"]
    if len(witness) > config.dim + 2:
        return [f"witness has {len(witness)} points, more than d+2 = {config.dim + 2}"]
    if color_separating_hyperplane(config.subset(witness)) is not None:
        return ["the witness subset is separable"]
    return []


def _formulas(job: dict, config: None, doc: dict) -> list[str]:
    summary = counting_summary(int(_arg(job["args"], "--dim")), int(_arg(job["args"], "--colors")))
    expected = {
        "partition_count": summary.partition_count,
        "min_transversal_size": summary.min_transversal_size,
        "max_transversal_size": summary.max_transversal_size,
        "witness_size_bound": summary.witness_size_bound,
    }
    return [f"{key} is {doc[key]}, expected {value}" for key, value in expected.items() if doc[key] != value]


def _ok(job: dict, config: None, doc: dict) -> list[str]:
    problems = [] if doc.get("ok") is True else ["report is not ok"]
    if "failed" in doc and doc["failed"] != 0:
        problems.append(f"{doc['failed']} failed trials")
    return problems


def _demo(job: dict, config: None, doc: dict) -> list[str]:
    return _ok(job, config, doc) + ([] if doc["count"] == 16 else ["pentagon count is not 16"])


CHECKS: dict[str, Callable[[dict, Optional[PointConfig], dict], list[str]]] = {
    "enumerate": _enumerate,
    "sep": _sep,
    "transversals": _transversals,
    "flip": _flip,
    "shrink": _shrink,
    "perturb": _perturb,
    "partitionable": _partitionable,
    "witness": _witness,
    "kirchberger": _kirchberger,
    "formulas": _formulas,
    "verify": _ok,
    "bound-search": _ok,
    "demo": _demo,
}


def check(job: dict, config: Optional[PointConfig], doc: dict) -> list[str]:
    """Problems in one job's report; a malformed report is one problem."""
    try:
        return CHECKS[job["cmd"]](job, config, doc)
    except (KeyError, TypeError, ValueError, HyperpartError) as err:
        return [f"malformed {job['cmd']} report: {type(err).__name__}: {err}"]
