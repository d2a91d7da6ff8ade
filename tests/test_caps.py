"""Deterministic work counts of CLI subcommands at the desk-scale caps.

Each case runs one subcommand on a seed-0 campaign instance at n=16 (the
kirchberger baseline: n=14) and counts the calls into the exact solver.  The
member sets are read off the hyperplanes the points span, general position or
not, so a subcommand that only reads membership solves no LP, and a
construction solves only the witnesses it reads; brute force would show here
as thousands of LPs (2^15 - 1 per enumeration).  The orientation tables and
member reads are counted too, in spanned-hyperplane normals and the
determinants taken for them.
"""

from __future__ import annotations

import json
from collections import Counter

import pytest

import hyperpart.cli as cli
import hyperpart.colorful as colorful
import hyperpart.geometry as geometry
import hyperpart.hdivision as hdivision
import hyperpart.partitions as partitions
from hyperpart import (
    CampaignSpec,
    emit_instance,
    general_position,
    generate_instance,
    realizable_division,
    separating_members,
    witness_nonpartitionable,
)


@pytest.fixture
def solver_calls(monkeypatch):
    """Counts of every solver entry, split by whether the ``partitionable``
    subcommand's enumeration route is running."""
    counts = Counter()
    in_route = [False]

    def counting(name, fn):
        def counted(*args, **kwargs):
            counts[("route " if in_route[0] else "") + name] += 1
            return fn(*args, **kwargs)
        return counted

    for module, name in ((geometry, "feasible_point"), (colorful, "feasible_point"),
                         (colorful, "is_feasible")):
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    route = cli.is_partitionable_by_enumeration

    def flagged(config):
        in_route[0] = True
        try:
            return route(config)
        finally:
            in_route[0] = False

    monkeypatch.setattr(cli, "is_partitionable_by_enumeration", flagged)
    return counts


@pytest.fixture
def geometry_work(monkeypatch):
    """Counts of spanned-hyperplane normals and of determinants by size."""
    counts = Counter()
    normal, det = geometry._spanned_normal, geometry._det

    def counted_normal(points):
        counts["normals"] += 1
        return normal(points)

    def counted_det(rows):
        counts[f"det {len(rows)}"] += 1
        return det(rows)

    monkeypatch.setattr(geometry, "_spanned_normal", counted_normal)
    monkeypatch.setattr(hdivision, "_spanned_normal", counted_normal)
    monkeypatch.setattr(geometry, "_det", counted_det)
    return counts


def _instance(tmp_path, suite, dim, colors=0, degenerate=False, n=16):
    config = generate_instance(
        CampaignSpec(suite=suite, dim=dim, n=n, colors=colors, seed=0, degenerate=degenerate), 0
    )
    assert general_position(config) != degenerate
    path = tmp_path / f"{suite}-d{dim}.json"
    path.write_text(emit_instance(config))
    return config, str(path)


def _run(capsys, argv):
    assert cli.main(argv) == 0
    return json.loads(capsys.readouterr().out)


def test_flip_solves_the_base_witness_only(tmp_path, capsys, solver_calls):
    _, path = _instance(tmp_path, "phi", 2)
    doc = _run(capsys, ["flip", "--input", path, "--a", "0", "--b", "1"])
    assert doc["separating_before"] + doc["separating_after"] == doc["total"] == 121
    assert solver_calls == {"feasible_point": 1}


def test_shrink_solves_the_separating_witnesses_only(tmp_path, capsys, solver_calls):
    config, path = _instance(tmp_path, "phi", 2)
    separating = len(separating_members(realizable_division(config), 0, 1))
    solver_calls.clear()
    doc = _run(capsys, ["shrink", "--input", path, "--a", "0", "--b", "1"])
    assert doc["separating_size"] == doc["formula_min"] == 15
    assert solver_calls == {"feasible_point": separating} == {"feasible_point": 67}


def test_partitionable_route_solves_no_lp(tmp_path, capsys, solver_calls):
    """The grouping table decides with no LP, and the instance is not
    partitionable, so no hyperplane is solved; the cross-check, independent
    of the member read, decides each of the 2^7 - 1 = 127 nontrivial color
    groupings by one witness-free Fourier-Motzkin test."""
    _, path = _instance(tmp_path, "main", 3, colors=8)
    doc = _run(capsys, ["partitionable", "--input", path])
    assert doc["routes_agree"] and not doc["partitionable"]
    assert solver_calls == {"route is_feasible": 127}


def test_transversals_solve_no_lp(tmp_path, capsys, solver_calls):
    _, path = _instance(tmp_path, "phi", 3)
    doc = _run(capsys, ["transversals", "--input", path])
    assert doc["count"] == 576
    assert solver_calls == {}


@pytest.mark.parametrize("command", ["sep", "transversals"])
def test_degenerate_reads_solve_no_lp(tmp_path, capsys, solver_calls, monkeypatch, command):
    """The degenerate phi instance at d=3, n=16: the read took 2^15 - 1 LPs
    through ``hyperplane_division``, which is no longer called.  The counts
    agree with an independent brute force that decided all 2^15 - 1
    bipartitions by a floating-point margin LP (smallest positive margin
    6e-5 on coordinates scaled to [-1, 1])."""
    monkeypatch.setattr(hdivision, "hyperplane_division", None)
    monkeypatch.setattr(cli, "hyperplane_division", None)
    _, path = _instance(tmp_path, "phi", 3, degenerate=True)
    extra = ["--a", "0", "--b", "1"] if command == "sep" else []
    doc = _run(capsys, [command, "--input", path] + extra)
    if command == "sep":
        assert (doc["separating_count"], doc["nonseparating_count"]) == (298, 264)
    else:
        assert doc["count"] == 562
    assert solver_calls == {}


def test_perturb_of_degenerate_input_solves_no_lp(tmp_path, capsys, solver_calls):
    _, path = _instance(tmp_path, "phi", 2, degenerate=True)
    doc = _run(capsys, ["perturb", "--input", path, "--seed", "0"])
    assert doc["count_after"] == doc["formula_count"] == 121
    assert solver_calls == {}


def test_witness_builds_each_table_from_spanned_normals(tmp_path, capsys, geometry_work):
    """``witness`` on the main baseline (d=2, n=16, k=8): the instance's
    orientation table takes one normal per pair of points with a later point,
    C(15, 2) = 105, and each normal is the difference row turned by a right
    angle, with no determinant.  The member read takes no normal: each side
    of a spanned line is a sign of the table, where it took one normal per
    line, C(16, 2) = 120, of two 1 x 1 minors each.  No subset is read
    again: the eight representatives' members are a restriction of the
    instance's."""
    _, path = _instance(tmp_path, "main", 2, colors=8)
    geometry_work.clear()
    _run(capsys, ["witness", "--input", path])
    assert geometry_work == {"normals": 105}


def test_witness_builds_partitions_for_the_reported_transversal_only(monkeypatch):
    """``witness_nonpartitionable`` on the main baseline (d=2, n=16, k=8)
    works on color bitmasks: it builds one ``Partition`` per member of the
    reported minimal transversal, 9, and no ``Division``.  Building the
    representatives' division took 29 partitions and a division, and the
    core labels 9 more.  The representatives' members and the witness's
    re-check are still two restrictions of the instance's member masks."""
    config = generate_instance(CampaignSpec(suite="main", dim=2, n=16, colors=8, seed=0), 0)
    counts = Counter()
    for cls in (partitions.Partition, partitions.Division):
        original = cls.__post_init__

        def counted(self, original=original, name=cls.__name__):
            counts[name] += 1
            original(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    restricted = colorful.restricted_masks

    def counted_restricted(*args):
        counts["restricted_masks"] += 1
        return restricted(*args)

    monkeypatch.setattr(colorful, "restricted_masks", counted_restricted)
    report = witness_nonpartitionable(config)
    assert len(report.transversal) == 9
    assert counts == {"Partition": 9, "restricted_masks": 2}


def test_kirchberger_builds_its_table_from_spanned_normals(tmp_path, capsys, geometry_work):
    """``kirchberger`` on its baseline (d=3, n=14): the orientation table
    takes C(13, 3) = 286 normals, each the cross product of two difference
    rows, where it took three 2 x 2 minors, and no determinant."""
    _, path = _instance(tmp_path, "kirchberger", 3, colors=2, n=14)
    geometry_work.clear()
    doc = _run(capsys, ["kirchberger", "--input", path])
    assert doc["witness"] == [0, 1, 2, 9, 11]
    assert geometry_work == {"normals": 286}
