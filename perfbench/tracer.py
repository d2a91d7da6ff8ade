"""Per-layer spans around hyperpart's public functions, installed from outside.

``Tracer.install()`` replaces each traced function wherever a ``hyperpart.*``
module (or the ``hyperpart`` package) binds the original object, because the
modules import these functions by name; two methods are replaced on their
class.  Every call then records a span ``[name, start, end, parent, job,
note]`` in memory.  ``layer_metrics`` turns one pass's spans into the
``per_layer`` metrics of ``BENCHMARK.json``; self time is a span's duration
minus the durations of its child spans.  ``structure_problems`` checks the
spans against what the brute-force enumeration must do.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Optional

import hyperpart.campaigns as campaigns
import hyperpart.cli as cli
import hyperpart.colorful as colorful
import hyperpart.generator as generator
import hyperpart.geometry as geometry
import hyperpart.hdivision as hdivision
import hyperpart.instances as instances
import hyperpart.linsolve as linsolve
import hyperpart.partitions as partitions

SUBCOMMANDS = (
    "enumerate", "sep", "transversals", "flip", "shrink", "perturb",
    "partitionable", "witness", "kirchberger", "formulas", "verify",
    "bound-search", "demo",
)

# (name, unit, better) of every per-layer metric, in report order.
LAYER_METRICS: tuple[tuple[str, str, str], ...] = (
    ("linsolve.calls", "count", "lower"),
    ("linsolve.infeasible", "count", "lower"),
    ("linsolve.rows_in", "count", "lower"),
    ("linsolve.s", "s", "lower"),
    ("linsolve.ms_per_call", "ms", "lower"),
    ("geometry.strict_separate.calls", "count", "lower"),
    ("geometry.strict_separate.separable", "count", "higher"),
    ("geometry.strict_separate.self_s", "s", "lower"),
    ("geometry.general_position.calls", "count", "lower"),
    ("geometry.general_position.s", "s", "lower"),
    ("geometry.subset.calls", "count", "lower"),
    ("geometry.subset.s", "s", "lower"),
    ("hdivision.calls", "count", "lower"),
    ("hdivision.s", "s", "lower"),
    ("hdivision.self_s", "s", "lower"),
    ("hdivision.members", "count", "higher"),
    ("hdivision.lps", "count", "lower"),
    ("hdivision.useful_ratio", "ratio", "higher"),
    ("hdivision.constructions.self_s", "s", "lower"),
    ("partitions.minimal_transversals.calls", "count", "lower"),
    ("partitions.minimal_transversals.s", "s", "lower"),
    ("partitions.is_transversal.calls", "count", "lower"),
    ("partitions.is_transversal.s", "s", "lower"),
    ("colorful.is_partitionable.calls", "count", "lower"),
    ("colorful.is_partitionable.self_s", "s", "lower"),
    ("colorful.groupings_tried", "count", "lower"),
    ("colorful.grouping_hit_ratio", "ratio", "higher"),
    ("colorful.enumeration_route.calls", "count", "lower"),
    ("colorful.enumeration_route.s", "s", "lower"),
    ("colorful.witness.calls", "count", "lower"),
    ("colorful.witness.self_s", "s", "lower"),
    ("colorful.witness.lps", "count", "lower"),
    ("colorful.kirchberger_witness.calls", "count", "lower"),
    ("colorful.kirchberger_witness.s", "s", "lower"),
    ("colorful.scan_separations", "count", "lower"),
    ("colorful.helly_dual.s", "s", "lower"),
    ("campaigns.trials", "count", "higher"),
    ("campaigns.self_s", "s", "lower"),
    ("campaigns.failed_trials", "count", "lower"),
    ("generator.calls", "count", "lower"),
    ("generator.s", "s", "lower"),
    ("instances.parse.calls", "count", "lower"),
    ("instances.parse.s", "s", "lower"),
    ("instances.emit.s", "s", "lower"),
    ("instances.bytes_out", "bytes", "lower"),
    ("cli.calls", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    *((f"cli.{cmd}.s", "s", "lower") for cmd in SUBCOMMANDS),
    ("trace.wall_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
)

# Metrics that count work.  They must repeat exactly from pass to pass.
COUNT_METRICS = tuple(name for name, unit, _ in LAYER_METRICS if unit in ("count", "bytes", "ratio"))


def _none(args: tuple, result: Any) -> None:
    return None


def _lp_note(args: tuple, result: Any) -> tuple[int, bool]:
    return len(args[0]), result is None


def _found(args: tuple, result: Any) -> bool:
    return result is not None


def _members(args: tuple, result: Any) -> tuple[int, int]:
    return len(args[0]), len(result)


def _campaign(args: tuple, result: Any) -> tuple[int, int]:
    return result["trials"], result["failed"]


def _size(args: tuple, result: Any) -> int:
    return len(result)


def _subcommand(args: tuple, result: Any) -> str:
    argv = args[0] if args else None
    return argv[0] if argv else "?"


# (owner, attribute, span name, note on the call's arguments and result)
_TARGETS: tuple[tuple[Any, str, str, Callable[[tuple, Any], Any]], ...] = (
    (linsolve, "feasible_point", "linsolve", _lp_note),
    (geometry, "strict_separate", "geometry.strict_separate", _found),
    (geometry, "general_position", "geometry.general_position", _none),
    (geometry.PointConfig, "subset", "geometry.subset", _none),
    (hdivision, "hyperplane_division", "hdivision", _members),
    (hdivision, "shrink_to_min", "hdivision.constructions", _none),
    (hdivision, "projective_flip", "hdivision.constructions", _none),
    (hdivision, "perturb", "hdivision.constructions", _none),
    (partitions, "minimal_transversals", "partitions.minimal_transversals", _none),
    (partitions, "is_transversal", "partitions.is_transversal", _none),
    (colorful, "is_partitionable", "colorful.is_partitionable", _none),
    (colorful, "is_partitionable_by_enumeration", "colorful.enumeration_route", _none),
    (colorful, "witness_nonpartitionable", "colorful.witness", _none),
    (colorful, "kirchberger_witness", "colorful.kirchberger_witness", _none),
    (colorful, "color_separating_hyperplane", "colorful.color_separating_hyperplane", _none),
    (colorful, "helly_dual", "colorful.helly_dual", _none),
    (colorful.HalfspaceSystem, "separating_hyperplane", "colorful.helly_dual", _none),
    (campaigns, "run_suite", "campaigns", _campaign),
    (campaigns, "bound_search", "campaigns", _campaign),
    (generator, "generate_instance", "generator", _none),
    (instances, "parse_instance", "instances.parse", _none),
    (instances, "dumps_doc", "instances.emit", _size),
    (cli, "main", "cli", _subcommand),
)


class Tracer:
    """Collects spans while installed; ``job`` tags the spans of one job."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.job: Optional[int] = None
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []

    def _wrap(self, name: str, fn: Callable, note: Callable[[tuple, Any], Any]) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if name == "linsolve" and not isinstance(args[0], (list, tuple)):
                args = (list(args[0]),) + args[1:]  # sized, so rows_in can be counted
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            span[5] = note(args, result)
            return result

        return traced

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in sys.modules.items() if key == "hyperpart" or key.startswith("hyperpart.")]
        for owner, attr, name, note in _TARGETS:
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, note)
            holders = [owner] if isinstance(owner, type) else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._undo.append((holder, key, value))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            holder, key, value = self._undo.pop()
            setattr(holder, key, value)

    def take(self) -> list[list]:
        """The spans recorded so far; the tracer starts a fresh list."""
        spans = self.spans[:]
        self.spans.clear()
        return spans


def write_spans(spans: list[list], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as out:
        for span in spans:
            out.write(json.dumps(span) + "\n")


def _nearest(spans: list[list], index: int, name: str) -> int:
    parent = spans[index][3]
    while parent >= 0 and spans[parent][0] != name:
        parent = spans[parent][3]
    return parent


def _ancestors(spans: list[list], index: int) -> set[str]:
    names = set()
    parent = spans[index][3]
    while parent >= 0:
        names.add(spans[parent][0])
        parent = spans[parent][3]
    return names


def layer_metrics(spans: list[list], wall: float) -> dict[str, float]:
    """The per-layer metrics of one traced pass that took ``wall`` seconds."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child[span[3]] += span[2] - span[1]
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    by_cmd: dict[str, float] = defaultdict(float)
    m: dict[str, float] = defaultdict(float)
    for i, (name, start, end, parent, _job, note) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        own[name] += end - start - child[i]
        if name == "linsolve":
            m["linsolve.rows_in"] += note[0]
            m["linsolve.infeasible"] += note[1]
            above = _ancestors(spans, i)
            m["hdivision.lps"] += "hdivision" in above
            m["colorful.witness.lps"] += "colorful.witness" in above
        elif name == "geometry.strict_separate":
            m["geometry.strict_separate.separable"] += note
            if parent >= 0 and spans[parent][0] == "colorful.is_partitionable":
                m["colorful.groupings_tried"] += 1
                m["grouping_hits"] += note
        elif name == "hdivision":
            m["hdivision.members"] += note[1]
        elif name == "colorful.color_separating_hyperplane":
            if parent >= 0 and spans[parent][0] in ("colorful.kirchberger_witness", "colorful.witness"):
                m["colorful.scan_separations"] += 1
        elif name == "campaigns":
            m["campaigns.trials"] += note[0]
            m["campaigns.failed_trials"] += note[1]
        elif name == "instances.emit":
            m["instances.bytes_out"] += note
        elif name == "cli":
            by_cmd[note] += end - start

    m["linsolve.calls"] = calls["linsolve"]
    m["linsolve.s"] = total["linsolve"]
    m["linsolve.ms_per_call"] = 1000 * total["linsolve"] / calls["linsolve"] if calls["linsolve"] else 0.0
    for name in ("geometry.strict_separate", "geometry.general_position", "geometry.subset",
                 "hdivision", "partitions.minimal_transversals", "partitions.is_transversal",
                 "colorful.is_partitionable", "colorful.enumeration_route", "colorful.witness",
                 "colorful.kirchberger_witness", "generator", "instances.parse", "cli"):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.s"] = total[name]
        m[f"{name}.self_s"] = own[name]
    m["hdivision.useful_ratio"] = m["hdivision.members"] / m["hdivision.lps"] if m["hdivision.lps"] else 0.0
    m["hdivision.constructions.self_s"] = own["hdivision.constructions"]
    tried = m["colorful.groupings_tried"]
    m["colorful.grouping_hit_ratio"] = m.pop("grouping_hits") / tried if tried else 0.0
    m["colorful.helly_dual.s"] = total["colorful.helly_dual"]
    m["campaigns.self_s"] = own["campaigns"]
    m["instances.emit.s"] = total["instances.emit"]
    for cmd in SUBCOMMANDS:
        m[f"cli.{cmd}.s"] = by_cmd[cmd]
    m["trace.wall_s"] = wall
    m["trace.spans"] = len(spans)
    return {name: int(m[name]) if unit in ("count", "bytes") else m[name]
            for name, unit, _ in LAYER_METRICS}


def structure_problems(spans: list[list]) -> list[tuple[int, str]]:
    """(job, problem) for each ``hyperplane_division`` span that does not
    hold exactly 2^(n-1) - 1 LPs, the brute-force enumeration's count."""
    lps: dict[int, int] = defaultdict(int)
    for i, span in enumerate(spans):
        if span[0] == "linsolve":
            owner = _nearest(spans, i, "hdivision")
            if owner >= 0:
                lps[owner] += 1
    problems = []
    for i, (name, _, _, _, job, note) in enumerate(spans):
        if name == "hdivision" and lps[i] != 2 ** (note[0] - 1) - 1:
            problems.append(
                (job, f"hyperplane_division at n={note[0]} ran {lps[i]} LPs, "
                      f"expected {2 ** (note[0] - 1) - 1}")
            )
    return problems
