"""Differential tests of iterate-mode stable search.

`full_cap_search` is the loop the search used before: every start runs
the stable operator until it settles, fails to converge, or reaches the
outer cap of min(max_iter, 100) steps.  `find_stable_models` keeps, for
the whole search, the fewest steps any start took to each state, and
stops a start at a state an earlier visit reached with at least as many
steps left; it must return exactly the same models.
"""

import dataclasses
import random
from types import SimpleNamespace

import pytest

import emalp.semantics as semantics
from emalp import (
    Program,
    StableSearchConfig,
    bottom_interpretation,
    eliminate_constraints_fc,
    find_stable_models,
    interp_distance,
    is_stable,
    parse_program,
    top_interpretation,
)
from emalp.semantics import _dedup, _sort_models

from conftest import gen
from genprog import random_emalp

MUTUAL = "p <-g neg1(q) with 1;\nq <-g neg1(p) with 1;\n"


def full_cap_search(program, cfg):
    """Iterate-mode search with no repeat cut: each start runs to the cap.
    The operator takes and gives lists in atoms order; a verdict, dicts."""
    atoms = program.atoms()
    rng = random.Random(cfg.rng_seed)
    starts = [bottom_interpretation(atoms), top_interpretation(atoms)]
    for _ in range(max(0, cfg.seeds - 2)):
        starts.append({a: rng.random() for a in atoms})
    starts = starts[:max(1, cfg.seeds)]
    found = []
    for start in starts:
        M = [start[a] for a in atoms]
        for _ in range(min(cfg.max_iter, 100)):
            N, converged = semantics._stable_value(program, M, cfg.tol, cfg.max_iter)
            if not converged:
                break
            model = dict(zip(atoms, N))
            if interp_distance(dict(zip(atoms, M)), model) <= cfg.tol:
                if is_stable(program, model, cfg.tol, cfg.max_iter) is True:
                    found.append(model)
                break
            M = N
    return _sort_models(_dedup(found, cfg.tol), atoms)


@pytest.fixture
def operator_calls(monkeypatch):
    """Count the search steps' stable-operator values, one entry per start.

    A call whose argument does not equal the result of the previous call
    begins a new start.  A verdict takes its value from the same function,
    at the values of that result.
    """
    per_start = []
    last = [None]
    original = semantics._stable_value

    def counting(program, M, *args):
        if not per_start or M != last[0]:
            per_start.append(0)
        per_start[-1] += 1
        last[0], converged = original(program, M, *args)
        return last[0], converged

    monkeypatch.setattr(semantics, "_stable_value", counting)
    return per_start


@pytest.mark.parametrize("cycle_prob", [0.0, 1.0])
@pytest.mark.parametrize("rng_seed, seeds", [(0, 4), (5, 8)])
def test_seeded_programs_match_full_cap(cycle_prob, rng_seed, seeds, operator_calls):
    cfg = StableSearchConfig(mode="iterate", seeds=seeds, rng_seed=rng_seed)
    nonempty = cut = 0
    for seed in range(30):
        program = random_emalp(random.Random(seed), max_atoms=4, max_rules=5,
                               max_constraints=2, values=(0.0, 0.25, 0.5, 0.75, 1.0),
                               cycle_prob=cycle_prob)
        operator_calls.clear()
        want = full_cap_search(program, cfg)
        full_cap_calls = sum(operator_calls)
        operator_calls.clear()
        got = find_stable_models(program, cfg)
        assert got == want, seed
        nonempty += bool(want)
        cut += sum(operator_calls) < full_cap_calls
    assert nonempty >= 5    # the comparison is not only between empty lists
    if cycle_prob:
        assert cut >= 10    # and the cut is taken on cycling programs


ITERATE_POOL = [(n, cycle, i) for n in (6, 7, 8) for cycle in (True, False) for i in range(8)]


@pytest.mark.parametrize("n, cycle, i", ITERATE_POOL)
def test_benchmark_programs_match_full_cap(n, cycle, i):
    # the first programs of each stratum the benchmark draws from, even
    # cycles among them, at the benchmark's default rng seed
    program = parse_program(gen.iterate_program(n, cycle, i)[0])
    cfg = StableSearchConfig(mode="iterate", seeds=8)
    assert find_stable_models(program, cfg) == full_cap_search(program, cfg)


@pytest.mark.parametrize("rng_seed", [0, 7])
def test_motor_matches_full_cap(motor, rng_seed):
    cfg = StableSearchConfig(mode="iterate", seeds=16, rng_seed=rng_seed)
    got = find_stable_models(motor, cfg)
    assert got == full_cap_search(motor, cfg)
    assert len(got) == 1


def test_motor_fc_target_matches_full_cap(motor):
    target = eliminate_constraints_fc(motor)[0]
    cfg = StableSearchConfig(mode="iterate", seeds=8, rng_seed=3)
    assert find_stable_models(target, cfg) == full_cap_search(target, cfg)


def test_even_cycle_stops_each_start_early(operator_calls):
    program = parse_program(MUTUAL)
    cfg = StableSearchConfig(mode="iterate", seeds=16)
    assert find_stable_models(program, cfg) == full_cap_search(program, cfg) == []
    operator_calls.clear()
    find_stable_models(program, cfg)
    assert len(operator_calls) == 16
    assert max(operator_calls) <= 4   # the full-cap loop makes 100 per start


def test_random_starts_are_drawn_one_at_a_time(monkeypatch, motor):
    """Each random start is drawn just before its first step: one start is held at a time."""
    draws = [0]

    class CountingRandom(random.Random):
        def random(self):
            draws[0] += 1
            return super().random()

    draws_at_step = []
    original = semantics._stable_value

    def counting(program, M, *args):
        draws_at_step.append(draws[0])
        return original(program, M, *args)

    cfg = StableSearchConfig(mode="iterate", seeds=64, rng_seed=5)
    want = full_cap_search(motor, cfg)
    monkeypatch.setattr(semantics, "random", SimpleNamespace(Random=CountingRandom))
    monkeypatch.setattr(semantics, "_stable_value", counting)
    assert find_stable_models(motor, cfg) == want
    n = len(motor.atoms())
    assert draws_at_step[0] == 0                        # bottom and top draw nothing
    assert min(d for d in draws_at_step if d) == n      # one start's values, not all of them
    assert {b - a for a, b in zip(draws_at_step, draws_at_step[1:])} <= {0, n}
    assert draws[0] == (cfg.seeds - 2) * n


def test_a_later_start_that_joins_with_more_steps_left_goes_on(operator_calls):
    # x' = 1 - min(x, 0.5): bottom steps 0 -> 1 -> 0.5 and meets the cap
    # of 2 before it can settle.  Top starts at 1, which bottom reached
    # with one step fewer left, so top goes on, reaches 0.5 and settles
    # there.  Stopping top at 1 because bottom visited it would lose the
    # model.
    program = parse_program("x <-l neg1(min(x, 0.5)) with 1;")
    cfg = StableSearchConfig(mode="iterate", seeds=2, max_iter=2)
    want = full_cap_search(program, cfg)
    assert want == [{"x": 0.5}]
    operator_calls.clear()
    assert find_stable_models(program, cfg) == want
    assert operator_calls == [2, 3]   # bottom; top's two steps and the verdict on 0.5
    assert find_stable_models(program, dataclasses.replace(cfg, seeds=1)) == []


def test_a_later_start_stops_where_an_earlier_one_went_on(operator_calls):
    # every start reaches x = 0.5 and settles there.  Bottom takes three
    # steps and a verdict, top (which reaches 0.5 one step sooner) two
    # and a verdict; a random start reaches 0.5 after one or two steps,
    # no sooner than top did, and stops there without a verdict
    program = parse_program("x <-l neg1(min(x, 0.5)) with 1;")
    cfg = StableSearchConfig(mode="iterate", seeds=8)
    assert find_stable_models(program, cfg) == full_cap_search(program, cfg) == [{"x": 0.5}]
    operator_calls.clear()
    find_stable_models(program, cfg)
    assert operator_calls[:2] == [4, 3] and len(operator_calls) == 8
    assert set(operator_calls[2:]) == {1, 2}


@pytest.mark.parametrize("text, want", [
    ("", [{}]),
    ("0.5 <-g 0.25 with 1;", [{}]),
    ("0.25 <-g 0.5 with 1;", []),
    ("0.5 <-g neg1(a) with 1;", []),
    ("1 <-g neg1(a) with 1;", [{"a": 0.0}]),
])
def test_programs_without_rules_for_the_operator(text, want):
    # no definite rule: the operator returns bottom at once, and the
    # constraints alone decide
    program = parse_program(text) if text else Program()
    for seeds in (1, 4):
        cfg = StableSearchConfig(mode="iterate", seeds=seeds)
        assert find_stable_models(program, cfg) == full_cap_search(program, cfg) == want
