"""Seeded inputs and fixed job lists of the benchmark workloads.

``plan(workload, seed)`` is a pure function of its arguments.  Instances come
from hyperpart's own generator under a spec keyed by workload and seed, plus
at most one seed-independent baseline instance per workload, and every job is
one ``hyperpart`` command line over them.  The program under test only ever
sees the written instance files.

Why each workload exists is recorded in ``BENCHMARK.json`` and, at length, in
``perfbench/README.md``.  One pass of a job list takes about 7 s
(``campaign-small``) or 16-19 s (the others) at the reference speed.  It
holds many smaller instances rather than a few large ones, because the cost
of a single exact instance varies by up to 2x from seed to seed and only a
sum over many instances is steady.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Optional

from hyperpart.colorful import is_partitionable
from hyperpart.generator import CampaignSpec, generate_instance
from hyperpart.geometry import PointConfig
from hyperpart.instances import emit_instance

WORKLOADS = ("enum-d3", "enum-d2", "colored-caps", "campaign-small")

# A non-partitionable draw is the usual case at these shapes; give up long
# before this if the generator ever stops producing them.
_MAX_TRIALS = 200


def _spec(workload: str, seed: int, dim: int, n: int, colors: int = 0,
          degenerate: bool = False) -> CampaignSpec:
    return CampaignSpec(
        suite=f"perfbench-{workload}", dim=dim, n=n, colors=colors,
        seed=seed, degenerate=degenerate,
    )


# The reference instances of ROADMAP's baseline: trial 0 of campaign seed 0
# of the named suite.  They do not depend on the benchmark seed, so every
# traced run reproduces the baseline counts (2047 LPs and 67 members at d=2,
# n=12; 511 LPs at d=3, n=10), and the largest, most seed-sensitive jobs of a
# workload read the same on every run.
def _baseline(suite: str, dim: int, n: int, colors: int = 0) -> CampaignSpec:
    return CampaignSpec(suite=suite, dim=dim, n=n, colors=colors, seed=0)


class _Plan:
    """Accumulates instance documents and jobs for one workload."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.rng = random.Random(f"perfbench:{workload}:{seed}")
        self.instances: dict[str, str] = {}
        self.jobs: list[dict] = []
        self.kept_trials: dict[str, list[int]] = {}

    def draw(self, name: str, dim: int, n: int, colors: int = 0, degenerate: bool = False) -> PointConfig:
        """A seeded instance; its trial number is its place in the plan."""
        trial = len(self.instances)
        config = generate_instance(_spec(self.workload, self.seed, dim, n, colors, degenerate), trial)
        self.instances[name] = emit_instance(config)
        return config

    def add(self, name: str, config: PointConfig) -> str:
        self.instances[name] = emit_instance(config)
        return name

    def job(self, cmd: str, instance: Optional[str] = None, *args: str) -> None:
        self.jobs.append({"cmd": cmd, "input": instance, "args": list(args)})

    def pair(self, config: PointConfig) -> tuple[str, ...]:
        a, b = sorted(self.rng.sample(config.ids, 2))
        return ("--a", str(a), "--b", str(b))

    def non_partitionable(self, tag: str, spec: CampaignSpec, count: int) -> list[str]:
        """The first ``count`` non-partitionable trials of ``spec``, in trial order."""
        names, kept = [], []
        for trial in range(_MAX_TRIALS):
            config = generate_instance(spec, trial)
            if is_partitionable(config) is None:
                kept.append(trial)
                names.append(self.add(f"{tag}-t{trial}", config))
                if len(kept) == count:
                    self.kept_trials[tag] = kept
                    return names
        raise RuntimeError(f"{tag}: fewer than {count} non-partitionable trials in {_MAX_TRIALS}")

    def doc(self) -> dict:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "instances": self.instances,
            "jobs": self.jobs,
            "kept_trials": self.kept_trials,
        }


# Each job list puts one group of similar jobs in the middle, with as many
# jobs below it as above it, so that the median job is always a job of that
# group whatever the seed draws.


def _enum_d3(p: _Plan) -> None:
    # Above the middle: the n=10 baseline, one seeded n=9 in general position
    # and two degenerate (the planted collinear triple).  The middle:
    # twenty-four degenerate n=8, most of them within 15% of each other in
    # cost; in general position n=8 and n=9 costs are bimodal.  Below: four
    # n=7 in general position.
    p.job("enumerate", p.add("phi-gp10", generate_instance(_baseline("phi", 3, 10))))
    shapes = [(9, False), (9, True), (9, True)] + [(8, True)] * 24 + [(7, False)] * 4
    for i, (n, degenerate) in enumerate(shapes):
        cmd = ("enumerate", "transversals", "sep")[i % 3]
        name = f"{'dg' if degenerate else 'gp'}{n}-{i}"
        config = p.draw(name, 3, n, degenerate=degenerate)
        p.job(cmd, name, *(p.pair(config) if cmd == "sep" else ()))


def _enum_d2(p: _Plan) -> None:
    p.job("enumerate", p.add("phi-gp12", generate_instance(_baseline("phi", 2, 12))))
    # (subcommand, n, colors, degenerate).  Below the middle: perturb at n=8,
    # enumerate at n=10 and n=11 and shrink at n=10.  The middle: eight
    # partitionable at n=11, k=3 and k=4, each 0.8-1.2 s.  Above: four flip
    # at n=10 and the n=12 baseline.  The constructions run at n=8-10: each
    # recomputes the enumeration two or more times, and perturb retries 1-7
    # times, so at n=11 one perturb job ranges from 3 s to 12 s.
    shapes = [
        ("perturb", 8, 0, True), ("enumerate", 10, 0, False), ("enumerate", 10, 0, True),
        ("enumerate", 11, 0, True), ("shrink", 10, 0, False),
        *[("partitionable", 11, 3, False), ("partitionable", 11, 4, False)] * 4,
        *[("flip", 10, 0, False)] * 4,
    ]
    for i, (cmd, n, colors, degenerate) in enumerate(shapes):
        name = f"{cmd}{n}-{i}"
        config = p.draw(name, 2, n, colors, degenerate)
        if cmd in ("flip", "shrink"):
            p.job(cmd, name, *p.pair(config))
        elif cmd == "perturb":
            p.job(cmd, name, "--seed", str(p.seed))
        else:
            p.job(cmd, name)


def _colored_caps(p: _Plan) -> None:
    # One witness at the CLI caps from the baseline corpus: a single seeded
    # one ranges from 1.2 s to 5 s.  The seeded witnesses sit below the caps:
    # four at d=3, n=10, k=4 above the middle and thirty-six at d=2, n=12,
    # k=6 in it.  Kirchberger takes the n=14 baseline, above the middle and the
    # largest job in memory (43 MiB; a seeded n=14 takes 26-37 MiB, so it
    # would set peak_rss_mb by the seed), and six seeded n=12-13 below it.
    names = p.non_partitionable("main-d2n16k8", _baseline("main", 2, 16, 8), 1)
    names += p.non_partitionable("d3n10k4", _spec(p.workload, p.seed, 3, 10, 4), 4)
    names += p.non_partitionable("d2n12k6", _spec(p.workload, p.seed, 2, 12, 6), 36)
    for name in names:
        p.job("witness", name)
    p.job("kirchberger", p.add("kirchberger-d3n14", generate_instance(_baseline("kirchberger", 3, 14, 2))))
    for i, n in enumerate((12,) * 5 + (13,)):
        p.draw(f"k{n}-{i}", 3, n, colors=2)
        p.job("kirchberger", f"k{n}-{i}")


def _campaign_small(p: _Plan) -> None:
    # Many verify calls of about 0.3 s each, so that fixed costs per call
    # count; call i of a suite uses campaign seed 100 * seed + i.
    suites = [
        # suite, dim, n, colors, trials per call, calls
        ("phi", "2", "8", None, 5, 8),
        ("duality", "2", "7", None, 4, 8),
        ("eta-bound", "3", "6", None, 16, 2),
        ("kirchberger", "3", "7", "2", 24, 2),
        ("main", "2", "6", "3", 14, 2),
    ]
    for suite, dim, n, colors, trials, calls in suites:
        extra = ("--colors", colors) if colors else ()
        for call in range(calls):
            p.job("verify", None, "--suite", suite, "--dim", dim, "--n", n, *extra,
                  "--trials", str(trials), "--seed", str(100 * p.seed + call))
    p.job("bound-search", None, "--dim", "2", "--n", "8", "--colors", "3",
          "--trials", "3", "--seed", str(p.seed))
    p.job("formulas", None, "--dim", "3", "--colors", "8")
    p.job("demo", None, "pentagon")


_BUILDERS = {
    "enum-d3": _enum_d3,
    "enum-d2": _enum_d2,
    "colored-caps": _colored_caps,
    "campaign-small": _campaign_small,
}


def plan(workload: str, seed: int) -> dict:
    """Instance documents and the job list of one workload at one seed."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    p = _Plan(workload, seed)
    _BUILDERS[workload](p)
    return p.doc()


def write_plan(doc: dict, out: Path) -> None:
    """Write each instance as ``<name>.json`` and the whole plan as ``plan.json``."""
    out.mkdir(parents=True, exist_ok=True)
    for name, text in doc["instances"].items():
        (out / f"{name}.json").write_text(text)
    (out / "plan.json").write_text(json.dumps(doc))


def argv(job: dict, directory: Path) -> list[str]:
    """The command line of one job, with its instance read from ``directory``."""
    line = [job["cmd"]]
    if job["input"] is not None:
        line += ["--input", str(directory / f"{job['input']}.json")]
    return line + job["args"]
