"""The tracer wraps every binding, measures self time, and its counts match
the structure of the brute-force enumeration."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import run
import tracer
import hyperpart
import hyperpart.colorful as colorful
import hyperpart.geometry as geometry
import hyperpart.hdivision as hdivision
import hyperpart.linsolve as linsolve
from hyperpart import cli
from hyperpart.generator import CampaignSpec, generate_instance

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def _traced(call):
    """Spans of ``call()``; it must look traced functions up when it runs."""
    t = tracer.Tracer()
    t.install()
    try:
        call()
    finally:
        t.uninstall()
    return t.take()


def test_install_rebinds_every_import_and_uninstall_restores():
    originals = (linsolve.feasible_point, geometry.strict_separate, hdivision.hyperplane_division)
    t = tracer.Tracer()
    t.install()
    try:
        assert linsolve.feasible_point is not originals[0]
        assert geometry.feasible_point is linsolve.feasible_point
        assert colorful.feasible_point is linsolve.feasible_point
        assert hdivision.strict_separate is geometry.strict_separate is colorful.strict_separate
        assert hyperpart.strict_separate is geometry.strict_separate
        assert colorful.hyperplane_division is hdivision.hyperplane_division
        with pytest.raises(RuntimeError):
            t.install()
    finally:
        t.uninstall()
    assert (linsolve.feasible_point, geometry.strict_separate, hdivision.hyperplane_division) == originals
    assert geometry.feasible_point is colorful.feasible_point is originals[0]
    assert hyperpart.strict_separate is originals[1]


@pytest.mark.parametrize("dim, n, lps, members", [(2, 12, 2047, 67), (3, 10, 511, 130)])
def test_roadmap_baseline_counts(dim, n, lps, members):
    config = generate_instance(CampaignSpec("phi", dim, n, seed=0), 0)
    spans = _traced(lambda: hdivision.hyperplane_division(config))
    metrics = tracer.layer_metrics(spans, 1.0)
    assert metrics["hdivision.calls"] == 1
    assert metrics["hdivision.lps"] == metrics["linsolve.calls"] == lps
    assert metrics["hdivision.members"] == members
    assert tracer.structure_problems(spans) == []


def test_self_time_and_structure_check_on_synthetic_spans():
    spans = [
        ["cli", 0.0, 10.0, -1, 0, "enumerate"],
        ["hdivision", 1.0, 9.0, 0, 0, (3, 2)],
        ["geometry.strict_separate", 2.0, 3.0, 1, 0, True],
        ["linsolve", 2.25, 2.75, 2, 0, (3, False)],
    ]
    metrics = tracer.layer_metrics(spans, 10.0)
    assert metrics["cli.self_s"] == 2.0
    assert metrics["cli.enumerate.s"] == 10.0
    assert metrics["hdivision.self_s"] == 7.0
    assert metrics["geometry.strict_separate.self_s"] == 0.5
    assert metrics["hdivision.useful_ratio"] == 2.0
    assert metrics["linsolve.rows_in"] == 3
    assert tracer.structure_problems(spans) == [
        (0, "hyperplane_division at n=3 ran 1 LPs, expected 3")
    ]


def test_counts_repeat_exactly(tmp_path):
    config = generate_instance(CampaignSpec("check", 2, 10, colors=3, seed=2), 0)
    path = tmp_path / "c.json"
    path.write_text(hyperpart.emit_instance(config))
    argv = ["partitionable", "--input", str(path)]
    runs = [tracer.layer_metrics(_traced(lambda: cli.main(argv)), 1.0) for _ in range(2)]
    for name in tracer.COUNT_METRICS:
        assert runs[0][name] == runs[1][name], name
    assert runs[0]["colorful.enumeration_route.calls"] == 1
    assert runs[0]["instances.parse.calls"] == 1


def test_metric_tables_match_benchmark_json():
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == list(tracer.LAYER_METRICS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)


def test_subcommands_match_the_cli():
    actions = [a for a in cli.build_parser()._actions if a.dest == "command"]
    assert set(actions[0].choices) == set(tracer.SUBCOMMANDS)
