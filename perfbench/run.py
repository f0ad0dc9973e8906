"""emalp benchmark: seeded CLI jobs, timed end to end, with a traced per-layer run.

    python3 perfbench/run.py --workload grid_search --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --record      # re-record perfbench/answers.json

Each job is one in-process `emalp.cli.main(argv)` call on files the run
generates in `perfbench/.work/`, made by a single client in a closed loop
(one process, one thread).  Every answer is checked against
`answers.json`; a mismatch names the job and fails the run.

`--trace 0` measures the end-to-end metrics on the workload's fixed
number of periods (`--seconds` only caps a run that is far slower than
usual); between its jobs it times six more set-ups, each in a fresh
process, for `setup_s`.
`--trace 1` runs a fixed list of jobs (the seed's first periods) with
every public emalp layer wrapped from the outside, reports the
per-layer metrics, then replays the same jobs untraced for
`trace.overhead_ratio`; its spans go to `perfbench/.out/`.  The last line of stdout is the result object; the
line before it records the machine, the job counts and the tail
percentile used.
"""

from __future__ import annotations

import time

T_PROCESS = time.perf_counter()  # set-up is timed from here, before emalp is imported

import argparse
import contextlib
import importlib
import io
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Callable

import workloads as wl
from tracer import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
ANSWERS = HERE / "answers.json"
WORK = HERE / ".work"
OUT = HERE / ".out"

SETUP_REPEATS = 7     # cold set-ups per run: its own, the rest in fresh processes
CAP_FACTOR = 2        # a run stops early once it takes this many times --seconds
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10

END_TO_END = {
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# The end-to-end metric and workload each per-layer metric should move.
_EVAL = "jobs_per_s, job_p50_ms on grid_search, equiv_chain"
_GRID = "jobs_per_s, job_tail_ms on grid_search, equiv_chain"
_REDUCT = "jobs_per_s, job_p50_ms on iterate_verify"
_FIXPOINT = "job_tail_ms, peak_rss_mb on iterate_verify"
_VERDICT = "failed_share, jobs_per_s on all workloads"
_FRONT = "job_p50_ms on iterate_verify"
_TRANSFORM = "job_p50_ms on equiv_chain"

# name -> (unit, better, what it should move)
PER_LAYER = {
    "program.eval_body.calls": ("count", "lower", _EVAL),
    "program.eval_body.total_s": ("s", "lower", _EVAL),
    "lattice.eval_conjunctor.calls": ("count", "lower", _EVAL),
    "semantics.grid_points": ("count", "lower", _GRID),
    "semantics.find_stable_models.self_s": ("s", "lower", _GRID),
    "semantics.prefilter_pass_ratio": ("ratio", "lower", _GRID),
    "semantics.stable_yield": ("ratio", "higher", _GRID),
    "program.atoms.calls": ("count", "lower", _REDUCT),
    "program.atoms.total_s": ("s", "lower", _REDUCT),
    "semantics.reduct.calls": ("count", "lower", _REDUCT),
    "semantics.reduct.self_s": ("s", "lower", _REDUCT),
    "semantics.stable_operator.calls": ("count", "lower", _REDUCT),
    "semantics.least_model.calls": ("count", "lower", _FIXPOINT),
    "semantics.least_model.self_s": ("s", "lower", _FIXPOINT),
    "semantics.least_model.iterations": ("count", "lower", _FIXPOINT),
    "semantics.least_model.unconverged": ("count", "lower", _FIXPOINT),
    "semantics.immediate_consequence.calls": ("count", "lower", _FIXPOINT),
    "semantics.is_stable.calls": ("count", "lower", _VERDICT),
    "semantics.is_stable.self_s": ("s", "lower", _VERDICT),
    "semantics.indeterminate": ("count", "lower", _VERDICT),
    "parser.parse_program.calls": ("count", "lower", _FRONT),
    "parser.parse_program.self_s": ("s", "lower", _FRONT),
    "program.validate_program.self_s": ("s", "lower", _FRONT),
    "cli.main.self_s": ("s", "lower", _FRONT),
    "transform.rewrite.self_s": ("s", "lower", _TRANSFORM),
    "transform.verify_equivalence.self_s": ("s", "lower", _TRANSFORM),
    "transform.lift_project.calls": ("count", "lower", _TRANSFORM),
    "trace.overhead_ratio": ("ratio", "lower", "none: traced wall time / untraced wall time"),
}


class BenchError(Exception):
    """The benchmark cannot run: missing sources, stale answers, a failed job."""


# ---------------------------------------------------------------------------
# running jobs


def import_emalp():
    """A fresh import of emalp from this checkout's src/, never another copy."""
    if not (SRC / "emalp" / "cli.py").is_file():
        raise BenchError(f"no emalp sources in {SRC}")
    for name in [m for m in sys.modules if m == "emalp" or m.startswith("emalp.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("emalp.cli")
    if Path(cli.__file__).resolve().parent != (SRC / "emalp").resolve():
        raise BenchError(f"imported emalp from {cli.__file__}, not from {SRC}")
    return cli


def run_job(cli, job: wl.Job) -> tuple[int, float, str, str]:
    """One CLI call: exit code, seconds, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        rc = cli.main(list(job.argv))
        seconds = time.perf_counter() - start
    return rc, seconds, out.getvalue(), err.getvalue()


def run_jobs(cli, jobs, tracer: Tracer | None = None) -> list[tuple]:
    results = []
    for job in jobs:
        if tracer is not None:
            tracer.start_job(job.id)
        results.append((job, *run_job(cli, job)))
    return results


def check_answers(results, answers: dict) -> tuple[list[str], int]:
    """Mismatches against the expected answers (naming the job), and failures."""
    mismatches, failures = [], 0
    for job, rc, _, out, err in results:
        try:
            got = wl.summarize(job.kind, rc, out)
        except (ValueError, KeyError, TypeError) as exc:
            got = {"rc": rc, "unreadable": repr(exc)}
        failures += wl.failed(rc, got)
        want = answers["jobs"].get(job.id)
        if got != want:
            mismatches.append(f"{job.id}: expected {json.dumps(want, sort_keys=True)}, "
                              f"got {json.dumps(got, sort_keys=True)}"
                              + (f"; stderr: {err.strip()}" if err.strip() else ""))
    return mismatches, failures


def setup(workload: wl.Workload, work: Path, answers_path: Path):
    """Import emalp, write the inputs, load the answers, warm up on the worked example."""
    cli = import_emalp()
    answers = json.loads(answers_path.read_text(encoding="utf-8"))
    files = workload.inputs()
    if answers["digests"].get(workload.name) != wl.digest(files):
        raise BenchError(f"{workload.name}: the generated inputs differ from those the answers "
                         f"were recorded for; re-record with --record")
    files.update(workload.model_inputs(answers))
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    for name, text in files.items():
        (work / name).write_text(text, encoding="utf-8")
    warm = run_jobs(cli, wl.worked_jobs(work))
    return cli, answers, warm


# ---------------------------------------------------------------------------
# statistics


def tail_percentile(values: list[float]) -> tuple[float, float, int]:
    """The highest ladder percentile with at least TAIL_BEYOND values above its rank.

    Nearest-rank: percentile p is the value of rank ceil(p/100 * n).
    Returns (p, value, count beyond); with too few values, (100, max, 0).
    """
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100 * n)
        if n - rank >= TAIL_BEYOND:
            return p, ordered[rank - 1], n - rank
    return 100.0, ordered[-1], 0


def machine() -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "implementation": platform.python_implementation(), "system": platform.system()}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def layer_metrics(tracer: Tracer, overhead_ratio: float) -> dict:
    counts = tracer.counts

    def calls(name):
        return tracer.layer(name)[0]

    def total(name):
        return tracer.layer(name)[1]

    def self_s(name):
        return tracer.layer(name)[2]

    points, searched = counts["grid_points"], counts["search_is_stable"]
    values = {
        "program.eval_body.calls": calls("program.eval_body"),
        "program.eval_body.total_s": total("program.eval_body"),
        "lattice.eval_conjunctor.calls": calls("lattice.eval_conjunctor"),
        "semantics.grid_points": points,
        "semantics.find_stable_models.self_s": self_s("semantics.find_stable_models"),
        "semantics.prefilter_pass_ratio": counts["grid_is_stable"] / points if points else 0.0,
        "semantics.stable_yield": counts["models"] / searched if searched else 0.0,
        "program.atoms.calls": calls("program.atoms"),
        "program.atoms.total_s": total("program.atoms"),
        "semantics.reduct.calls": calls("semantics.reduct"),
        "semantics.reduct.self_s": self_s("semantics.reduct"),
        "semantics.stable_operator.calls": calls("semantics.stable_operator"),
        "semantics.least_model.calls": calls("semantics.least_model"),
        "semantics.least_model.self_s": self_s("semantics.least_model"),
        "semantics.least_model.iterations": counts["lm_iterations"],
        "semantics.least_model.unconverged": counts["lm_unconverged"],
        "semantics.immediate_consequence.calls": calls("semantics.immediate_consequence"),
        "semantics.is_stable.calls": calls("semantics.is_stable"),
        "semantics.is_stable.self_s": self_s("semantics.is_stable"),
        "semantics.indeterminate": counts["indeterminate"],
        "parser.parse_program.calls": calls("parser.parse_program"),
        "parser.parse_program.self_s": self_s("parser.parse_program"),
        "program.validate_program.self_s": self_s("program.validate_program"),
        "cli.main.self_s": self_s("cli.main"),
        "transform.rewrite.self_s": self_s("transform.rewrite"),
        "transform.verify_equivalence.self_s": self_s("transform.verify_equivalence"),
        "transform.lift_project.calls": calls("transform.lift_project"),
        "trace.overhead_ratio": overhead_ratio,
    }
    return {name: metric(values[name], unit) for name, (unit, _, _) in PER_LAYER.items()}


# ---------------------------------------------------------------------------
# one benchmark run


def bench(workload: wl.Workload, seed: int, seconds: float, trace: bool,
          answers_path: Path = ANSWERS) -> tuple[dict, dict, list[str]]:
    """One run: (result, record, mismatches)."""
    work = WORK / f"{workload.name}-{seed}-{os.getpid()}"
    try:
        cli, answers, warm = setup(workload, work, answers_path)
        periods = workload.periods(seed, work, answers)
        setup_s = time.perf_counter() - T_PROCESS
        record = {"workload": workload.name, "seed": seed, "seconds": seconds,
                  "trace": int(trace), "machine": machine()}
        if trace:
            results, metrics = traced(cli, workload, periods, record)
        else:
            results, metrics = timed(cli, workload, periods, seconds, record, setup_s,
                                     lambda: cold_setup(workload, seed, answers_path))
        mismatches, failures = check_answers(warm + results, answers)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["failed_share"] = metric(failures / len(results), "share")
    result = {"correct": not mismatches, "attempted": len(results), "failed": failures,
              "metrics": metrics}
    return result, record, mismatches


def cold_setup(workload: wl.Workload, seed: int, answers_path: Path) -> float:
    """The set-up time of a fresh process that sets up and stops before the first job."""
    proc = subprocess.run([sys.executable, __file__, "--setup-only", "--workload", workload.name,
                           "--seed", str(seed), "--answers", str(answers_path)],
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise BenchError(f"set-up in a fresh process failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def setup_only(workload: wl.Workload, seed: int, answers_path: Path) -> float:
    """What `bench` does up to its first timed job, timed from process start.

    The warm-up answers are checked by the run that started this process.
    """
    work = WORK / f"{workload.name}-{seed}-{os.getpid()}"
    try:
        _, answers, _ = setup(workload, work, answers_path)
        workload.periods(seed, work, answers)
        return time.perf_counter() - T_PROCESS
    finally:
        shutil.rmtree(work, ignore_errors=True)


def timed(cli, workload: wl.Workload, periods, seconds: float, record: dict,
          setup_s: float, cold_setup: Callable[[], float]):
    """Closed loop, one client: the workload's fixed number of periods.

    Every run measures the same number of periods, so every run has the
    same job mix and its tail is the same percentile.  A run that takes
    longer than CAP_FACTOR times `seconds` stops at the next period
    boundary, and the record line says it was capped.  The cold set-ups
    for `setup_s` run between jobs, spread over the run, outside the
    timed time: a shared machine's speed can drift over seconds, and
    spreading them lets their median see the same drift as the jobs.
    """
    planned = list(itertools.islice(periods, workload.run_periods))
    n_jobs = sum(map(len, planned))
    marks = {n_jobs * i // SETUP_REPEATS for i in range(1, SETUP_REPEATS)}
    results, setups, n_periods, elapsed = [], [setup_s], 0, 0.0
    for jobs in planned:
        for job in jobs:
            if len(results) in marks:
                setups.append(cold_setup())
            start = time.perf_counter()
            results += run_jobs(cli, [job])
            elapsed += time.perf_counter() - start
        n_periods += 1
        if elapsed >= CAP_FACTOR * seconds:
            break
    latencies = [r[2] for r in results]
    p, tail, beyond = tail_percentile(latencies)
    record.update(jobs=len(results), periods=n_periods, capped=n_periods < len(planned),
                  elapsed_s=elapsed, tail_percentile=p, tail_beyond=beyond,
                  setup_runs_s=setups, latency_ms=_by_class(results))
    metrics = {
        "jobs_per_s": metric(len(results) / elapsed, "1/s"),
        "job_p50_ms": metric(statistics.median(latencies) * 1e3, "ms"),
        "job_tail_ms": metric(tail * 1e3, "ms"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        "setup_s": metric(statistics.median(setups), "s"),
    }
    return results, metrics


def traced(cli, workload: wl.Workload, periods, record: dict):
    """The seed's first periods traced, then the same jobs untraced."""
    jobs = [job for period in itertools.islice(periods, workload.trace_periods) for job in period]
    tracer = Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        results = run_jobs(cli, jobs, tracer)
        traced_s = time.perf_counter() - start
    finally:
        tracer.restore()
    start = time.perf_counter()
    results += run_jobs(cli, jobs)
    untraced_s = time.perf_counter() - start
    record.update(jobs=len(jobs), traced_s=traced_s, untraced_s=untraced_s,
                  latency_ms=_by_class(results[:len(jobs)]),
                  moves={name: moves for name, (_, _, moves) in PER_LAYER.items()})
    write_trace(tracer, workload, record)
    return results, layer_metrics(tracer, traced_s / untraced_s)


def _by_class(results) -> dict[str, dict]:
    """Job count, median and maximum latency per pool stratum and job kind."""
    groups: dict[str, list[float]] = {}
    for job, _, seconds, _, _ in results:
        key = f"{job.id.split('/')[0].split('-')[0]}/{job.kind}"
        groups.setdefault(key, []).append(seconds * 1e3)
    return {key: {"n": len(v), "p50": statistics.median(v), "max": max(v)}
            for key, v in sorted(groups.items())}


def write_trace(tracer: Tracer, workload: wl.Workload, record: dict) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload.name}-{record['seed']}.json"
    data = {"record": record, "layers": tracer.layers, "counts": tracer.counts,
            "spans": [dict(zip(("id", "parent", "layer", "job", "start_s", "end_s"), s))
                      for s in tracer.spans]}
    path.write_text(json.dumps(data) + "\n", encoding="utf-8")
    record["trace_file"] = str(path.relative_to(HERE.parent))


# ---------------------------------------------------------------------------
# recording the expected answers


def record_answers(path: Path) -> None:
    """Run every job of every pool entry once and store what it answered."""
    answers: dict = {"pool_seed": wl.gen.POOL_SEED, "digests": {}, "jobs": {}, "inputs": {}}
    cli = import_emalp()
    for workload in (make() for make in wl.WORKLOADS.values()):
        work = WORK / f"record-{workload.name}-{os.getpid()}"
        files = workload.inputs()
        answers["digests"][workload.name] = wl.digest(files)
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            for name, text in files.items():
                (work / name).write_text(text, encoding="utf-8")
            _record(cli, wl.worked_jobs(work), answers, workload, work)
            for entry in workload.all_entries():
                # A group grows once its search is recorded (one verify
                # job per model found), so repeat until nothing is new.
                while jobs := [j for j in workload.group(entry, work, answers)
                               if j.id not in answers["jobs"]]:
                    _record(cli, jobs, answers, workload, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(f"{workload.name}: recorded", file=sys.stderr)
    path.write_text(json.dumps(answers, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def _record(cli, jobs, answers, workload, work) -> None:
    for job, rc, _, out, err in run_jobs(cli, jobs):
        summary = wl.summarize(job.kind, rc, out)
        if wl.failed(rc, summary):
            raise BenchError(f"{job.id} fails ({summary}): {err.strip()}")
        answers["jobs"][job.id] = summary
        if workload.verifies_models and job.kind == "search":
            entry = job.id.split("/")[0]
            for k, model in enumerate(json.loads(out)["stable_models"]):
                answers["inputs"][f"{entry}/verify-m{k}"] = model
            for name, text in workload.model_inputs(answers).items():
                (work / name).write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--answers", type=Path, default=ANSWERS,
                        help="expected-answers file (default: perfbench/answers.json)")
    parser.add_argument("--record", action="store_true",
                        help="re-record the expected answers instead of measuring")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and stop (used for setup_s)")
    args = parser.parse_args(argv)
    try:
        if args.record:
            record_answers(args.answers)
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        workload = wl.WORKLOADS[args.workload]()
        if args.setup_only:
            print(setup_only(workload, args.seed, args.answers))
            return 0
        result, record, mismatches = bench(workload, args.seed, args.seconds,
                                           bool(args.trace), args.answers)
    except (BenchError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    for line in mismatches:
        print(f"wrong answer: {line}", file=sys.stderr)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
