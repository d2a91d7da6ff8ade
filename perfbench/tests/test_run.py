"""The benchmark command end to end, on its cheapest workload."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import reference
import run
import tracer
import workloads

ROOT = Path(__file__).resolve().parents[2]


def _run(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign-small", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line(trace):
    done = _run(ROOT, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    jobs = len(workloads.plan("campaign-small", 3)["jobs"])
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] == jobs
    names = [m[0] for m in (tracer.LAYER_METRICS if trace else run.END_TO_END)]
    assert list(result["metrics"]) == names
    if not trace:
        assert all(result["metrics"][name]["value"] > 0 for name in names)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = _run(tmp_path, 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_reference_task_value():
    assert reference.task() == reference.EXPECTED


class _SleepingCli:
    """Stands in for ``hyperpart.cli``: every job sleeps ``seconds``."""

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds

    def main(self, argv: list[str]) -> int:
        time.sleep(self.seconds)
        print("{}")
        return 0


def test_job_times_are_divided_by_the_slowdown(monkeypatch):
    # A reference task that takes twice its nominal time: the machine runs at
    # half speed, so each job counts half its measured time.
    def slow_task():
        time.sleep(2 * reference.NOMINAL_S)
        return reference.EXPECTED

    monkeypatch.setattr(reference, "task", slow_task)
    done = run._run_pass(_SleepingCli(0.05), [["a"], ["b"], ["c"]], None)
    assert done["slowdown"] == pytest.approx(2, rel=0.2)
    for (measured, code, out), scaled in zip(done["jobs"], done["scaled"]):
        assert code == 0 and out == "{}\n"
        assert scaled == pytest.approx(measured / 2, rel=0.2)
    assert done["wall"] == pytest.approx(sum(t for t, _, _ in done["jobs"]))


def test_slowdown_comes_from_reference_runs_near_the_job():
    nominal, window = reference.NOMINAL_S, run.REFERENCE_WINDOW_S
    runs = [(0.0, nominal, nominal), (10.0, 3 * nominal, nominal),
            (10.5 + window, 3 * nominal, nominal), (30.0, nominal, nominal)]
    # The first job sees only the run at 0 s, the second the two around it.
    assert run._slowdowns([(0.5, 1.0), (10.2, 10.5)], runs) == [1.0, 3.0]


def test_a_wrong_reference_value_stops_the_run(monkeypatch):
    monkeypatch.setattr(reference, "task", lambda: reference.EXPECTED[:2] + (0,))
    with pytest.raises(SystemExit):
        run._run_pass(_SleepingCli(0.0), [["a"]], None)
