"""Tests of the benchmark itself; not collected by the library's test suite.

    python3 -m pytest perfbench/selftest.py -q

They run a few jobs of each workload in-process and three short
benchmark runs as subprocesses (about a minute in all).
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

# Layers the profiles say are hot on each workload: a counter that stays
# at zero there means a call site the tracer failed to rebind.
HOT = {
    "grid_search": ["program.eval_body", "lattice.eval_conjunctor",
                    "semantics.find_stable_models", "semantics.is_stable", "semantics.reduct"],
    "equiv_chain": ["program.eval_body", "transform.rewrite", "transform.verify_equivalence",
                    "transform.lift_project", "semantics.find_stable_models",
                    "parser.parse_program"],
    "iterate_verify": ["program.atoms", "semantics.reduct", "semantics.stable_operator",
                       "semantics.least_model", "semantics.immediate_consequence",
                       "parser.parse_program", "program.validate_program", "cli.main"],
}


def _entries(name: str, answers: dict) -> list[str]:
    """Small pool entries whose answers are not empty, so every layer runs."""
    def first(prefix, job, key):
        return next(j.split("/")[0] for j, a in sorted(answers["jobs"].items())
                    if j.startswith(prefix) and j.endswith(job) and a[key] > 0)

    if name == "grid_search":
        return [first("g5-", "/search", "count")]
    if name == "equiv_chain":
        return [first("e2-", "/equiv-fc", "source_count")]
    return ["c6-000", first("s-", "/search", "count")]


def _bench(*args, cwd=HERE.parent):
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


@pytest.fixture(scope="module", params=sorted(HOT))
def traced(request, tmp_path_factory):
    workload = wl.WORKLOADS[request.param]()
    work = tmp_path_factory.mktemp(request.param)
    cli, answers, _ = run.setup(workload, work, run.ANSWERS)
    jobs = [job for entry in _entries(request.param, answers)
            for job in workload.group(entry, work, answers)]
    tracer = Tracer()
    tracer.install()
    try:
        results = run.run_jobs(cli, jobs, tracer)
    finally:
        tracer.restore()
    return request.param, tracer, results, answers


def test_hot_counters_are_nonzero(traced):
    name, tracer, results, answers = traced
    assert run.check_answers(results, answers) == ([], 0)
    for layer in HOT[name]:
        assert tracer.layer(layer)[0] > 0, f"{layer} never called on {name}"
    counts = tracer.counts
    if name == "grid_search":
        assert counts["grid_points"] == 5 ** 5
        assert 0 < counts["models"] <= counts["grid_is_stable"] < counts["grid_points"]


def test_self_times_add_up_to_job_time(traced):
    _, tracer, _, _ = traced
    total_self = sum(rec[2] for rec in tracer.layers.values())
    job_time = tracer.layer("cli.main")[1]
    calls = sum(rec[0] for rec in tracer.layers.values())
    assert job_time > 0
    assert abs(total_self - job_time) <= 1e-12 * calls + 1e-9 * job_time


def test_spans_nest_inside_their_jobs(traced):
    _, tracer, results, _ = traced
    spans = {s[0]: s for s in tracer.spans}
    assert sum(1 for s in spans.values() if s[2] == "cli.main") == len(results)
    for span_id, parent, layer, job, start, end in spans.values():
        assert start <= end
        if layer == "cli.main":
            assert parent is None
        else:
            outer = spans[parent]
            assert outer[3] == job and outer[4] <= start and end <= outer[5]


def test_restore_puts_every_original_back(traced):
    _, tracer, _, _ = traced
    for name, mod in list(sys.modules.items()):
        if name == "emalp" or name.startswith("emalp."):
            for value in vars(mod).values():
                assert not tracer.is_wrapper(value)
                if type(value) is dict:
                    assert not any(tracer.is_wrapper(v) for v in value.values())
    assert not tracer.is_wrapper(sys.modules["emalp.program"].Program.atoms)


@pytest.mark.parametrize("n, want", [
    (19, (100.0, 19, 0)),
    (20, (50.0, 10, 10)),
    (99, (75.0, 75, 24)),
    (100, (90.0, 90, 10)),
    (200, (95.0, 190, 10)),
    (1000, (99.0, 990, 10)),
])
def test_tail_percentile(n, want):
    values = list(range(n, 0, -1))
    assert run.tail_percentile(values) == want


@pytest.mark.parametrize("name", sorted(HOT))
def test_every_seed_measures_the_same_tail_percentile(name):
    workload = wl.WORKLOADS[name]()
    answers = json.loads(run.ANSWERS.read_text())
    percentiles = set()
    for seed in range(20):
        periods = workload.periods(seed, Path("."), answers)
        jobs = sum(len(period) for period in itertools.islice(periods, workload.run_periods))
        percentiles.add(run.tail_percentile(list(range(jobs)))[0])
    assert len(percentiles) == 1


def test_seeded_equiv_checks_compare_models():
    answers = json.loads(run.ANSWERS.read_text())
    checks = {job: a for job, a in answers["jobs"].items()
              if job.startswith("e") and "/equiv" in job}
    assert len(checks) == 3 * sum(len(e) for e in wl.EquivChain.ENTRIES.values())
    assert all(a["source_count"] > 0 for a in checks.values())


def test_generated_programs_have_the_stated_atoms():
    run.import_emalp()
    parse = sys.modules["emalp.parser"].parse_program
    expected = {"g5": 5, "g6": 6, "g7": 7, "e1": 3, "e2": 3, "c6": 6, "c7": 7, "c8": 8}
    for make in wl.WORKLOADS.values():
        for name, text in make().inputs().items():
            if not name.endswith(".malp") or name == "motor.malp":
                continue
            atoms = parse(text).atoms()  # raises if the program does not validate
            prefix = name.split("-")[0]
            if prefix == "s":
                assert 6 <= len(atoms) <= 8
            else:
                assert len(atoms) == expected[prefix], name
            assert atoms == tuple(sorted(f"x{i}" for i in range(1, len(atoms) + 1)))


def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: make.why for name, make in wl.WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in run.PER_LAYER.items()}


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_result_lines_name_every_metric():
    untraced = _bench("--workload", "iterate_verify", "--seed", "3", "--seconds", "0",
                      "--trace", "0")
    assert untraced.returncode == 0, untraced.stderr
    result = _last_json(untraced.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    traced = _bench("--workload", "iterate_verify", "--seed", "3", "--seconds", "0",
                    "--trace", "1")
    assert traced.returncode == 0, traced.stderr
    assert set(_last_json(traced.stdout)["metrics"]) == set(run.PER_LAYER)


def test_corrupted_answer_fails_the_run(tmp_path):
    answers = json.loads(run.ANSWERS.read_text())
    answers["jobs"]["motor/verify-N"]["stable"] = False
    for job_id, summary in answers["jobs"].items():
        if job_id.endswith("/check") and job_id[0] in "cs":
            summary["rules"] += 1
    corrupted = tmp_path / "answers.json"
    corrupted.write_text(json.dumps(answers))
    proc = _bench("--workload", "iterate_verify", "--seed", "3", "--seconds", "0",
                  "--trace", "0", "--answers", str(corrupted))
    assert proc.returncode == 1
    assert _last_json(proc.stdout)["correct"] is False
    assert "wrong answer: motor/verify-N" in proc.stderr
    assert "/check: expected" in proc.stderr


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", ".out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "grid_search", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
