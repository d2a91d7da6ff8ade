"""Every output check passes on a real report and fails on a corrupted one."""

from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction

import pytest

import checks
from hyperpart import cli
from hyperpart.colorful import is_partitionable
from hyperpart.generator import CampaignSpec, generate_instance
from hyperpart.instances import emit_instance


def _first(spec: CampaignSpec, want_partitionable: bool):
    for trial in range(100):
        config = generate_instance(spec, trial)
        if (is_partitionable(config) is not None) == want_partitionable:
            return config
    raise AssertionError("no suitable trial")


INSTANCES = {
    "gp": generate_instance(CampaignSpec("check", 2, 7, seed=1)),
    "dg": generate_instance(CampaignSpec("check", 2, 7, seed=1, degenerate=True)),
    "yes": _first(CampaignSpec("check", 2, 6, colors=3, seed=1), True),
    "no": _first(CampaignSpec("check", 2, 8, colors=4, seed=1), False),
    "two": _first(CampaignSpec("check", 2, 8, colors=2, seed=1), False),
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("instances")
    for name, config in INSTANCES.items():
        (root / f"{name}.json").write_text(emit_instance(config))
    return root


def _report(files, job: dict) -> dict:
    argv = [job["cmd"]] + (["--input", str(files / f"{job['input']}.json")] if job["input"] else []) + job["args"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return json.loads(out.getvalue())


def _two_block(doc: dict) -> dict:
    return next(m for m in doc["members"] if len(m["blocks"]) == 2)


def _move_offset(doc: dict) -> None:
    _two_block(doc)["witness"]["offset"] = "1000000"


def _corrupt_normal(doc: dict) -> None:
    normal = _two_block(doc)["witness"]["normal"]
    normal[0] = str(-Fraction(normal[0]) - 7)


def _bump(*keys):
    def mutate(doc: dict) -> None:
        target = doc
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] += 1
    return mutate


def _set(key, value):
    def mutate(doc: dict) -> None:
        doc[key] = value
    return mutate


def _oversize_transversal(doc: dict) -> None:
    largest = doc["minimal_transversals"][-1]
    largest["members"] += [largest["members"][0]] * 30
    largest["size"] = doc["max_size"] = len(largest["members"])


def _certificate_offset(doc: dict) -> None:
    doc["certificate"][0]["hyperplane"]["offset"] = "-1000000"


def _drop_anchor(doc: dict) -> None:
    doc["witness"] = [i for i in doc["witness"] if i != doc["anchor"]]


def _representatives_only(doc: dict) -> None:
    doc["witness"] = list(doc["representatives"])
    doc["size"] = len(doc["witness"])


def _separable_kirchberger_subset(doc: dict) -> None:
    doc["witness"] = [doc["anchor"]]


# (job, mutation); the job's report must pass unmodified and fail mutated.
CASES = {
    "enumerate-witness-offset": ({"cmd": "enumerate", "input": "gp", "args": []}, _move_offset),
    "enumerate-witness-normal": ({"cmd": "enumerate", "input": "gp", "args": []}, _corrupt_normal),
    "enumerate-count": ({"cmd": "enumerate", "input": "gp", "args": []}, _bump("count")),
    "enumerate-degenerate-count": ({"cmd": "enumerate", "input": "dg", "args": []}, _set("count", 99)),
    "sep-count": ({"cmd": "sep", "input": "gp", "args": ["--a", "0", "--b", "3"]}, _bump("separating_count")),
    "sep-sides": ({"cmd": "sep", "input": "dg", "args": ["--a", "1", "--b", "2"]},
                  lambda d: d["separating"].append(d["nonseparating"][0])),
    "transversals-size": ({"cmd": "transversals", "input": "gp", "args": []},
                          _bump("minimal_transversals", 0, "size")),
    "transversals-bound": ({"cmd": "transversals", "input": "dg", "args": []}, _oversize_transversal),
    "flip-sum": ({"cmd": "flip", "input": "gp", "args": ["--a", "0", "--b", "1"]}, _bump("separating_after")),
    "shrink-size": ({"cmd": "shrink", "input": "gp", "args": ["--a", "2", "--b", "5"]}, _bump("separating_size")),
    "perturb-count": ({"cmd": "perturb", "input": "dg", "args": ["--seed", "3"]}, _bump("count_after")),
    "partitionable-certificate": ({"cmd": "partitionable", "input": "yes", "args": []}, _certificate_offset),
    "partitionable-routes": ({"cmd": "partitionable", "input": "no", "args": []}, _set("routes_agree", False)),
    "witness-bound": ({"cmd": "witness", "input": "no", "args": []}, _set("size_bound", 3)),
    "witness-partitionable": ({"cmd": "witness", "input": "no", "args": []}, _representatives_only),
    "kirchberger-anchor": ({"cmd": "kirchberger", "input": "two", "args": []}, _drop_anchor),
    "kirchberger-separable": ({"cmd": "kirchberger", "input": "two", "args": []}, _separable_kirchberger_subset),
    "verify-ok": ({"cmd": "verify", "input": None,
                   "args": ["--suite", "phi", "--dim", "2", "--n", "5", "--trials", "2"]}, _set("ok", False)),
    "bound-search-failed": ({"cmd": "bound-search", "input": None,
                             "args": ["--dim", "2", "--n", "6", "--colors", "3", "--trials", "1"]},
                            _set("failed", 1)),
    "formulas-count": ({"cmd": "formulas", "input": None, "args": ["--dim", "3", "--colors", "8"]},
                       _bump("partition_count")),
    "demo-count": ({"cmd": "demo", "input": None, "args": ["pentagon"]}, _bump("count")),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_check_passes_then_catches_corruption(files, case):
    job, mutate = CASES[case]
    config = INSTANCES.get(job["input"])
    doc = _report(files, job)
    assert checks.check(job, config, doc) == []
    mutate(doc)
    assert checks.check(job, config, doc) != []


def test_every_subcommand_has_a_check():
    assert set(checks.CHECKS) == {job["cmd"] for job, _ in CASES.values()}


def test_malformed_report_is_a_problem():
    job = {"cmd": "enumerate", "input": "gp", "args": []}
    assert checks.check(job, INSTANCES["gp"], {"count": 3}) != []
