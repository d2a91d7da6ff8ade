"""hyperpart benchmark: one workload, end to end or traced per layer.

    python3 perfbench/run.py --workload enum-d3 --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  Set-up builds the workload's instances from
the seed in a fresh interpreter, several times, and reports the median time.
Then the workload's fixed job list runs in this process, one closed-loop
client and no threads: each job is an in-process call of
``hyperpart.cli.main(argv)`` with its output captured.  The list is run again
while another pass still fits in ``--seconds``.  After the timed passes every
report is checked (``checks.py``) and the SHA-256 of each job's stdout is
compared across passes and with earlier runs of the same seed.

The machine this runs on is shared, and its speed drifts by up to 2x over
minutes.  So a fixed task that uses no hyperpart code (``reference.py``) runs
before the first job and after every job, and the pass's times are divided by
how much slower than nominal that task ran over the pass, each job's time by
how much slower it ran in the seconds around the job.  The end-to-end times
are those divided times: seconds at the reference speed.  The measured times
are printed too.

With ``--trace 0`` the result line carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of ``tracer.py``.  The last stdout line is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it say the same for a reader.  Scratch files go
under ``.bench_build/perfbench`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 150
# Each reference block takes this share of the job before it, and at least
# REFERENCE_MIN runs of the task.
REFERENCE_SHARE = 0.10
REFERENCE_MIN = 2
# A job's own slowdown is taken from the reference runs this close to it.
REFERENCE_WINDOW_S = 2.0
# Run once, untimed, before the first pass: it imports and exercises the
# command-line, enumeration and JSON paths every workload uses.
WARM_UP = ["demo", "pentagon"]

# (name, unit, better, bound) of every end-to-end metric, in report order.
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("job_p50_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.2),
)


def _setup(workload: str, seed: int, out: Path) -> float:
    """Set the workload up in a fresh interpreter; returns its set-up time."""
    done = subprocess.run(
        [sys.executable, str(HERE / "make_inputs.py"), "--workload", workload,
         "--seed", str(seed), "--out", str(out)],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=False,
    )
    if done.returncode != 0:
        raise SystemExit(f"set-up failed ({done.returncode}):\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def _run_job(cli, argv: list[str]) -> tuple[float, object, str]:
    """Time one CLI call; returns (seconds, exit code or error text, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code: object = cli.main(argv)
        except Exception as exc:  # a crash is a failed job, not a failed run
            code = f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if code != 0 and not isinstance(code, str):
        code = f"exit {code}: {err.getvalue().strip()[:300]}"
    return elapsed, code, out.getvalue()


def _cpu() -> float:
    own, children = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _reference_block(after: float) -> list[tuple[float, float, float]]:
    """Time the reference task until it has taken ``REFERENCE_SHARE`` of
    ``after`` seconds, and at least ``REFERENCE_MIN`` times.  Returns the
    (midpoint, seconds, CPU seconds) of each run."""
    runs: list[tuple[float, float, float]] = []
    spent = 0.0
    while len(runs) < REFERENCE_MIN or spent < REFERENCE_SHARE * after:
        start, cpu = time.perf_counter(), time.process_time()
        value = reference.task()
        end = time.perf_counter()
        runs.append(((start + end) / 2, end - start, time.process_time() - cpu))
        spent += end - start
        if value != reference.EXPECTED:
            raise SystemExit(f"the reference task computed {value}, not {reference.EXPECTED}")
    return runs


def _slowdowns(spans: list[tuple[float, float]], runs: list[tuple[float, float, float]]) -> list[float]:
    """Each job's own slowdown: the mean time of the reference runs within
    ``REFERENCE_WINDOW_S`` of the job's (start, end), over the nominal time.

    A single run of the task is either slowed by the host or not, so the few
    runs right beside a job scatter widely, and only a mean over seconds of
    them follows the machine's speed.  That speed also drifts within a pass,
    so the pass's mean misjudges single short jobs by up to 30%."""
    out = []
    for start, end in spans:
        near = [seconds for mid, seconds, _ in runs
                if start - REFERENCE_WINDOW_S <= mid <= end + REFERENCE_WINDOW_S]
        out.append(statistics.fmean(near) / reference.NOMINAL_S)
    return out


def _run_pass(cli, argvs: list[list[str]], tracer) -> dict:
    """One pass of the job list, with a reference block before the first job
    and after each job.

    ``wall`` and ``cpu`` are the pass's measured job times and CPU times,
    ``slowdown`` and ``cpu_slowdown`` the mean time and CPU time of the
    reference runs over the nominal time.  The reference blocks take a fixed
    share of the jobs' time, so those means weigh the machine's speed as the
    jobs met it, and ``wall`` and ``cpu`` divided by them are what the pass
    would have taken at the nominal speed.  The CPU time has its own divisor
    because time the process spends waiting for the core counts in the
    reference's time but not in the jobs' CPU time.  ``scaled`` holds each
    job's time divided by its own slowdown (``_slowdowns``)."""
    jobs, cpus, spans, runs = [], [], [], _reference_block(0.0)
    for index, argv in enumerate(argvs):
        if tracer is not None:
            tracer.job = index
        cpu0, start = _cpu(), time.perf_counter()
        jobs.append(_run_job(cli, argv))
        spans.append((start, time.perf_counter()))
        cpus.append(_cpu() - cpu0)
        runs += _reference_block(jobs[-1][0])
    return {"wall": sum(t for t, _, _ in jobs), "cpu": sum(cpus), "jobs": jobs,
            "slowdown": statistics.fmean(seconds for _, seconds, _ in runs) / reference.NOMINAL_S,
            "cpu_slowdown": statistics.fmean(cpu for _, _, cpu in runs) / reference.NOMINAL_S,
            "scaled": [t / k for (t, _, _), k in zip(jobs, _slowdowns(spans, runs))]}


def _source_digest(plan: dict) -> str:
    """Digest of the program's sources and the workload's inputs and jobs."""
    h = hashlib.sha256(json.dumps(plan, sort_keys=True).encode())
    for path in sorted((ROOT / "src" / "hyperpart").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _compare_with_earlier(key: str, source: str, digests: list[str]) -> tuple[list[int], str]:
    """Record this run's stdout digests.  Returns the jobs whose digest
    differs from an earlier run on the same sources and inputs, and a note."""
    store = SCRATCH / "digests.json"
    seen = json.loads(store.read_text()) if store.is_file() else {}
    before = seen.get(key)
    seen[key] = {"source": source, "digests": digests}
    SCRATCH.mkdir(parents=True, exist_ok=True)
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(seen, indent=1))
    os.replace(tmp, store)
    if before is None:
        return [], "no earlier run of this seed"
    differ = [i for i, digest in enumerate(digests)
              if i >= len(before["digests"]) or before["digests"][i] != digest]
    if before.get("source") != source:
        return [], (f"{len(differ)} of {len(digests)} changed since a run on other sources "
                    f"or inputs (reported, not failed)")
    return differ, f"{len(differ)} of {len(digests)} differ from an earlier run on the same sources"


def _measure(cli, argvs: list[list[str]], seconds: float, tracer, tracing, spans_path: Path):
    """Run passes of the job list while another one fits in ``seconds``.

    Returns the passes, the per-layer metrics of each traced pass and the
    spans of the first traced pass (both empty when untraced)."""
    passes, layer, first_spans = [], [], []
    _run_job(cli, WARM_UP)
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        if tracer is not None:
            tracer.install()
        try:
            done = _run_pass(cli, argvs, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        passes.append(done)
        if tracer is not None:
            spans = tracer.take()
            if not layer:
                first_spans = spans
                tracing.write_spans(spans, spans_path)
            layer.append(tracing.layer_metrics(spans, done["wall"]))
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            return passes, layer, first_spans


def _failures(plan: dict, passes: list[dict], first: list[str], flagged: dict[int, list[str]],
              check) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every job run of every pass.

    A run fails on a non-zero exit, a failed output check, a stdout digest
    other than ``first`` (pass 1's), or a problem ``flagged`` for its job."""
    verdicts: dict[tuple[int, str], list[str]] = {}
    problems: list[str] = []
    attempted = failed = 0
    for number, done in enumerate(passes):
        for index, (_, code, out) in enumerate(done["jobs"]):
            job = plan["jobs"][index]
            digest = hashlib.sha256(out.encode()).hexdigest()
            if (index, digest) not in verdicts:
                try:
                    doc = json.loads(out)
                except json.JSONDecodeError as err:
                    verdicts[index, digest] = [f"stdout is not JSON: {err}"]
                else:
                    verdicts[index, digest] = check(job, doc)
            wrong = ([] if code == 0 else [str(code)]) + verdicts[index, digest] + flagged.get(index, [])
            if digest != first[index]:
                wrong.append(f"stdout digest differs from pass 1 in pass {number + 1}")
            attempted += 1
            if wrong:
                failed += 1
                problems.append(f"pass {number + 1} job {index} {job['cmd']} {' '.join(job['args'])} "
                                f"[{job['input']}]: {'; '.join(wrong)}")
    return attempted, failed, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "hyperpart" / "__init__.py").is_file():
        print(f"error: no hyperpart sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import checks
    import tracer as tracing
    import workloads
    from hyperpart import cli
    from hyperpart.instances import parse_instance

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")

    work = SCRATCH / f"{args.workload}-{args.seed}-{os.getpid()}"
    tracer = tracing.Tracer() if args.trace else None
    try:
        setup_times = [_setup(args.workload, args.seed, work) for _ in range(SETUP_REPEATS)]
        plan = json.loads((work / "plan.json").read_text())
        argvs = [workloads.argv(job, work) for job in plan["jobs"]]
        passes, layer, first_spans = _measure(
            cli, argvs, args.seconds, tracer, tracing,
            SCRATCH / f"spans-{args.workload}-{args.seed}.jsonl")
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # Everything below is outside the timed region.
    first = [hashlib.sha256(out.encode()).hexdigest() for _, _, out in passes[0]["jobs"]]
    differ, digest_note = _compare_with_earlier(
        f"{args.workload}:{args.seed}", _source_digest(plan), first)
    flagged: dict[int, list[str]] = {i: ["stdout digest differs from an earlier run"] for i in differ}
    for index, message in tracing.structure_problems(first_spans):
        flagged.setdefault(index, []).append(message)
    unsteady = [name for name in tracing.COUNT_METRICS
                if any(m[name] != layer[0][name] for m in layer[1:])]
    for index in range(len(argvs)) if unsteady else ():
        flagged.setdefault(index, []).append(f"traced counts changed between passes: {unsteady}")
    configs = {name: parse_instance(text) for name, text in plan["instances"].items()}
    attempted, failed, problems = _failures(
        plan, passes, first, flagged, lambda job, doc: checks.check(job, configs.get(job["input"]), doc))

    slowdown = statistics.median(p["slowdown"] for p in passes)
    measured = {
        "wall_s": statistics.median(p["wall"] for p in passes),
        "cpu_s": statistics.median(p["cpu"] for p in passes),
    }
    if tracer is None:
        values = {
            "wall_s": statistics.median(p["wall"] / p["slowdown"] for p in passes),
            "job_p50_s": statistics.median(t for p in passes for t in p["scaled"]),
            "cpu_s": statistics.median(p["cpu"] / p["cpu_slowdown"] for p in passes),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
        }
        table = [(name, unit) for name, unit, _, _ in END_TO_END]
    else:
        # Counts repeat exactly from pass to pass (checked above); times vary.
        values = {
            name: layer[0][name] if name in tracing.COUNT_METRICS else statistics.median(m[name] for m in layer)
            for name, _, _ in tracing.LAYER_METRICS
        }
        table = [(name, unit) for name, unit, _ in tracing.LAYER_METRICS]

    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"jobs={len(argvs)} passes={len(passes)} setups={len(setup_times)}")
    if plan["kept_trials"]:
        print(f"non-partitionable trials kept: {json.dumps(plan['kept_trials'])}")
    print(f"stdout digests: {digest_note}")
    print(f"reference task: mean {slowdown * reference.NOMINAL_S:.5f} s, "
          f"{slowdown:.3f}x its nominal {reference.NOMINAL_S} s (median over passes)")
    print("pass 1 job times at the reference speed (s): " + " ".join(
        f"{seconds:.3f}" for seconds in passes[0]["scaled"]))
    print("measured, not divided by the slowdown: " + " ".join(
        f"{name} {value:.6g} s" for name, value in measured.items()))
    print("pass 1 job times (s): " + " ".join(
        f"{job['cmd']}:{job['input'] or '-'}={seconds:.3f}"
        for job, (seconds, _, _) in zip(plan["jobs"], passes[0]["jobs"])))
    for line in problems:
        print(f"FAILED {line}")
    print(f"failed_frac {failed / attempted:.4f} ratio ({failed} of {attempted})")
    for name, unit in table:
        print(f"{name} {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in table},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
