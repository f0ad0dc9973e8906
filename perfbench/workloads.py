"""The benchmark's workloads: seeded lists of emalp CLI jobs.

A workload draws its jobs from fixed pools of generated programs.  Its
list of jobs repeats a *period* with a fixed make-up (so many jobs of
each size class, spread evenly), and the run's seed picks which pool
entries fill each period and in what order.  Every run measures the
workload's fixed number of periods, so every run has the same mix and
the same job count whatever the seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import gen


@dataclass(frozen=True)
class Job:
    id: str                 # key into the expected answers
    kind: str               # check | search | verify | eval | transform | equiv
    argv: tuple[str, ...]


# ---------------------------------------------------------------------------
# answers: what a job's output must contain


def _models(models: list[dict]) -> list[dict]:
    rounded = [{k: round(v, 9) for k, v in sorted(m.items())} for m in models]
    return sorted(rounded, key=lambda m: list(m.items()))


def summarize(kind: str, rc: int, stdout: str) -> dict:
    """The part of a job's result that the expected answers pin down."""
    out: dict = {"rc": rc}
    if rc != 0:
        return out
    data = json.loads(stdout)
    if kind == "check":
        out.update(valid=data["valid"], cls=data["class"], atoms=data["atoms"],
                   rules=data["rules"])
    elif kind == "search":
        out.update(count=data["count"], models=_models(data["stable_models"]))
    elif kind == "verify":
        out.update(stable=data["stable"])
    elif kind == "eval":
        out.update(model=data["model"])
    elif kind == "transform":
        out.update(target_rules=data["target_rules"], target_class=data["target_class"],
                   fresh=[a["name"] for a in data["fresh_atoms"]])
    elif kind == "equiv":
        out.update(bijection=data["bijection"], source_count=data["source_count"],
                   target_count=data["target_count"],
                   source_models=_models(data["source_models"]),
                   target_models=_models(data["target_models"]),
                   points_checked=data["points_checked"])
    else:
        raise ValueError(f"unknown job kind {kind!r}")
    return out


def failed(rc: int, summary: dict) -> bool:
    """A job fails when it exits non-zero or cannot decide a verdict."""
    return rc != 0 or summary.get("stable") == "indeterminate"


# ---------------------------------------------------------------------------
# shared inputs

WORKED = "motor"


def worked_jobs(work: Path) -> list[Job]:
    """The worked example: motor validates, N is stable, M is not."""
    prog = str(work / "motor.malp")
    return [
        Job("motor/check", "check", ("check", prog)),
        Job("motor/verify-N", "verify", ("stable", "verify", prog, "-i", str(work / "N.json"))),
        Job("motor/verify-M", "verify", ("stable", "verify", prog, "-i", str(work / "M.json"))),
    ]


def _worked_inputs() -> dict[str, str]:
    return {"motor.malp": gen.MOTOR_TEXT, "N.json": json.dumps(gen.WORKED_N),
            "M.json": json.dumps(gen.WORKED_M)}


def interleave(counts: dict[str, int]) -> list[str]:
    """Each key `count` times, spread evenly over the sequence."""
    slots = [((i + 0.5) / n, key) for key, n in counts.items() for i in range(n)]
    return [key for _, key in sorted(slots)]


def _cycle(rng: random.Random, entries: list) -> Iterator:
    """The entries in seeded order, reshuffled on each pass."""
    while True:
        order = list(entries)
        rng.shuffle(order)
        yield from order


def digest(files: dict[str, str]) -> str:
    """Fingerprint of a workload's inputs, stored with the answers."""
    h = hashlib.sha256()
    for name, text in sorted(files.items()):
        h.update(f"{name}\0{text}\0".encode())
    return h.hexdigest()


class Workload:
    name: str
    why: str
    period: dict[str, int]          # stratum -> groups per period
    run_periods: int                # periods an untraced run measures
    trace_periods: int              # periods a traced run executes
    verifies_models = False         # groups verify the models their search found

    def strata(self) -> dict[str, list[str]]:
        """Pool entry names per stratum."""
        raise NotImplementedError

    def inputs(self) -> dict[str, str]:
        """Every input file of every pool entry: name -> text."""
        raise NotImplementedError

    def group(self, entry: str, work: Path, answers: dict) -> list[Job]:
        """The jobs run on one pool entry, in order."""
        raise NotImplementedError

    def model_inputs(self, answers: dict) -> dict[str, str]:
        """Input files derived from recorded answers (models to verify)."""
        return {}

    def periods(self, seed: int, work: Path, answers: dict) -> Iterator[list[Job]]:
        rng = random.Random(seed)
        pools = {s: _cycle(rng, entries) for s, entries in sorted(self.strata().items())}
        order = interleave(self.period)
        while True:
            yield [job for s in order for job in self.group(next(pools[s]), work, answers)]

    def all_entries(self) -> Iterator[str]:
        for entries in self.strata().values():
            yield from entries


class GridSearch(Workload):
    name = "grid_search"
    why = ("stable search --grid 0.25 on 5-7 atom antitone programs plus motor at 0.1: "
           "up to 78k points per program, the time is eval_body under the grid prefilter")
    # Job times below are from a 2-core Xeon VM with CPython 3.11.
    # 40 x 5 atoms (0.1 s each), 8 x 6 atoms (0.55 s), 1 x 7 atoms (2.5 s)
    # and motor at 0.1 (0.25 s): about 12 s.  Three periods are 150 jobs:
    # the median job is a 5-atom search and the tail (p90) falls among
    # the 6-atom ones.
    period = {"g5": 40, "g6": 8, "g7": 1, "motor": 1}
    run_periods = 3
    trace_periods = 1
    POOL = {5: 240, 6: 40, 7: 10}

    def strata(self):
        out = {f"g{n}": [f"g{n}-{i:03d}" for i in range(k)] for n, k in self.POOL.items()}
        out["motor"] = [WORKED]
        return out

    def inputs(self):
        files = _worked_inputs()
        for n, k in self.POOL.items():
            for i in range(k):
                files[f"g{n}-{i:03d}.malp"] = gen.grid_program(n, i)
        return files

    def group(self, entry, work, answers):
        if entry == WORKED:
            return [Job("motor/search-0.1", "search",
                        ("stable", "search", str(work / "motor.malp"), "--grid", "0.1"))]
        return [Job(f"{entry}/search", "search",
                    ("stable", "search", str(work / f"{entry}.malp"), "--grid", "0.25"))]


class EquivChain(Workload):
    name = "equiv_chain"
    why = ("transform fc|janssen then equiv at 0.25, and the fc->manlp chain at 0.5, on motor "
           "and 3-atom constraint programs with grid models: the paper's preservation check "
           "end to end")
    # One motor group (1.5 s) and three seeded groups each with one
    # and with two constraints (janssen adds 2 or 3 fresh atoms); a group
    # is four transforms (about 5 ms each) and three equiv checks.  A
    # period is 49 jobs in about 3.5 s; nine periods are 441 jobs, and the
    # tail (p95) falls among the motor and two-constraint equiv checks.
    period = {"motor": 1, "e1": 3, "e2": 3}
    run_periods = 9
    trace_periods = 2
    # The first 20 indices of gen.equiv_program(k, i), i < 120, whose
    # three equiv checks all find source models, so that each compares
    # two non-empty sets.
    ENTRIES = {
        1: (3, 5, 6, 10, 15, 17, 18, 23, 24, 26, 27, 28, 30, 32, 34, 38, 40, 41, 45, 47),
        2: (1, 4, 17, 19, 21, 40, 41, 46, 55, 56, 65, 67, 71, 72, 73, 76, 89, 90, 92, 99),
    }

    def strata(self):
        out = {f"e{k}": [f"e{k}-{i:03d}" for i in entries] for k, entries in self.ENTRIES.items()}
        out["motor"] = [WORKED]
        return out

    def inputs(self):
        files = _worked_inputs()
        for k, entries in self.ENTRIES.items():
            for i in entries:
                files[f"e{k}-{i:03d}.malp"] = gen.equiv_program(k, i)
        return files

    def group(self, entry, work, answers):
        src = str(work / f"{entry}.malp")

        def out(tag):
            return str(work / f"{entry}.{tag}.malp"), str(work / f"{entry}.{tag}.json")

        jobs = []
        for method in ("fc", "janssen"):
            target, record = out(method)
            jobs.append(Job(f"{entry}/{method}", "transform",
                            ("transform", src, "--method", method, "-o", target,
                             "--record", record)))
            jobs.append(Job(f"{entry}/equiv-{method}", "equiv",
                            ("equiv", src, target, "--record", record, "--grid", "0.25")))
        # The chain: fc, then manlp on the fc target, checked at 0.5
        # (at 0.25 motor's chain needs 1.95M points, about 90 s).
        fc_target, fc_record = out("chain-fc")
        manlp_target, manlp_record = out("chain-manlp")
        jobs.append(Job(f"{entry}/chain-fc", "transform",
                        ("transform", src, "--method", "fc", "-o", fc_target,
                         "--record", fc_record)))
        jobs.append(Job(f"{entry}/chain-manlp", "transform",
                        ("transform", fc_target, "--method", "manlp", "-o", manlp_target,
                         "--record", manlp_record)))
        jobs.append(Job(f"{entry}/equiv-chain", "equiv",
                        ("equiv", fc_target, manlp_target, "--record", manlp_record,
                         "--grid", "0.5")))
        return jobs


class IterateVerify(Workload):
    name = "iterate_verify"
    why = ("check, stable search --seeds 32, stable verify and eval on 6-8 atom programs, "
           "two in three with an even cycle that never settles: no grid, time in reduct")
    # Cycling programs of 6, 7 and twice 8 atoms (0.6-1.1 s each, nearly
    # all in the search), one settling program (0.05 s) and the worked
    # example, 22 or 23 jobs in about 3.2 s.  Ten periods are 220-230
    # jobs: the median job is a 4 ms check/verify/eval and the tail (p95)
    # falls among the 8-atom searches.
    period = {"c6": 1, "c7": 1, "c8": 2, "settle": 1, "worked": 1}
    run_periods = 10
    trace_periods = 2
    verifies_models = True
    POOL = 30

    def _pool(self) -> dict[str, list[tuple[str, int, bool, int]]]:
        out = {f"c{n}": [(f"c{n}-{i:03d}", n, True, i) for i in range(self.POOL)]
               for n in (6, 7, 8)}
        out["settle"] = [(f"s-{i:03d}", 6 + i % 3, False, i) for i in range(self.POOL)]
        return out

    def strata(self):
        out = {s: [e[0] for e in entries] for s, entries in self._pool().items()}
        out["worked"] = [WORKED]
        return out

    def inputs(self):
        files = _worked_inputs()
        for entries in self._pool().values():
            for name, n_atoms, cycle, i in entries:
                text, interp = gen.iterate_program(n_atoms, cycle, i)
                files[f"{name}.malp"] = text
                files[f"{name}.seed.json"] = json.dumps(interp)
        return files

    def model_inputs(self, answers):
        return {f"{job_id.replace('/verify-', '.')}.json": json.dumps(model)
                for job_id, model in answers["inputs"].items()}

    def group(self, entry, work, answers):
        if entry == WORKED:
            return worked_jobs(work)[1:]
        prog = str(work / f"{entry}.malp")
        seed_interp = str(work / f"{entry}.seed.json")
        jobs = [Job(f"{entry}/check", "check", ("check", prog)),
                Job(f"{entry}/search", "search", ("stable", "search", prog, "--seeds", "32"))]
        for k in range(answers["jobs"].get(f"{entry}/search", {}).get("count", 0)):
            jobs.append(Job(f"{entry}/verify-m{k}", "verify",
                            ("stable", "verify", prog, "-i", str(work / f"{entry}.m{k}.json"))))
        jobs.append(Job(f"{entry}/verify-seed", "verify",
                        ("stable", "verify", prog, "-i", seed_interp)))
        jobs.append(Job(f"{entry}/eval-seed", "eval", ("eval", prog, "-i", seed_interp)))
        return jobs


WORKLOADS: dict[str, Callable[[], Workload]] = {
    w.name: w for w in (GridSearch, EquivChain, IterateVerify)
}
