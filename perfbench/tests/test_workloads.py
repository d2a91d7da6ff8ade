"""The workload generator is a pure function of (workload, seed)."""

from __future__ import annotations

import json

import pytest

import workloads
from hyperpart.colorful import is_partitionable
from hyperpart.instances import parse_instance


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_plan(workload):
    assert json.dumps(workloads.plan(workload, 5)) == json.dumps(workloads.plan(workload, 5))


@pytest.mark.parametrize("workload", ["enum-d3", "enum-d2", "colored-caps"])
def test_other_seed_other_instances(workload):
    first, second = workloads.plan(workload, 5), workloads.plan(workload, 6)
    assert [job["cmd"] for job in first["jobs"]] == [job["cmd"] for job in second["jobs"]]
    shared = set(first["instances"].items()) & set(second["instances"].items())
    # Only the seed-independent baseline instances are shared.
    assert 1 <= len(shared) <= 2
    assert all(name.startswith(("phi-", "main-", "kirchberger-")) for name, _ in shared)


def test_campaign_jobs_carry_the_seed():
    plan = workloads.plan("campaign-small", 7)
    verify = [job for job in plan["jobs"] if job["cmd"] == "verify"]
    search = [job for job in plan["jobs"] if job["cmd"] == "bound-search"]
    assert len(verify) == 22 and len(search) == 1
    seeds = [(job["args"][1], int(job["args"][job["args"].index("--seed") + 1])) for job in verify]
    assert len(set(seeds)) == len(seeds)
    assert all(700 <= seed < 800 for _, seed in seeds)
    assert search[0]["args"][search[0]["args"].index("--seed") + 1] == "7"


def test_witness_inputs_are_the_non_partitionable_trials():
    plan = workloads.plan("colored-caps", 2)
    witness_inputs = [job["input"] for job in plan["jobs"] if job["cmd"] == "witness"]
    kept = [f"{tag}-t{trial}" for tag, trials in plan["kept_trials"].items() for trial in trials]
    assert witness_inputs == kept
    for name in witness_inputs:
        assert is_partitionable(parse_instance(plan["instances"][name])) is None


def test_write_plan_and_argv(tmp_path):
    plan = workloads.plan("enum-d3", 1)
    workloads.write_plan(plan, tmp_path)
    assert json.loads((tmp_path / "plan.json").read_text()) == plan
    for job in plan["jobs"]:
        argv = workloads.argv(job, tmp_path)
        assert argv[0] == job["cmd"]
        assert (tmp_path / f"{job['input']}.json").read_text() == plan["instances"][job["input"]]
        assert argv[1:3] == ["--input", str(tmp_path / f"{job['input']}.json")]


def test_unknown_workload():
    with pytest.raises(ValueError):
        workloads.plan("nope", 1)
