"""Differential tests of iterate-mode stable search.

`full_cap_search` is the loop the search used before: every start runs
the stable operator until it settles, fails to converge, or reaches the
outer cap of 100 steps.  `find_stable_models` stops a start as soon as
its orbit revisits a state; it must return exactly the same models.
"""

import random
from types import SimpleNamespace

import pytest

import emalp.semantics as semantics
from emalp import (
    StableSearchConfig,
    bottom_interpretation,
    eliminate_constraints_fc,
    find_stable_models,
    interp_distance,
    is_stable,
    parse_program,
    stable_operator,
    top_interpretation,
)
from emalp.semantics import _dedup, _sort_models

from genprog import random_emalp

MUTUAL = "p <-g neg1(q) with 1;\nq <-g neg1(p) with 1;\n"


def full_cap_search(program, cfg):
    """Iterate-mode search with no repeat cut: each start runs to the cap."""
    atoms = program.atoms()
    rng = random.Random(cfg.rng_seed)
    starts = [bottom_interpretation(atoms), top_interpretation(atoms)]
    for _ in range(max(0, cfg.seeds - 2)):
        starts.append({a: rng.random() for a in atoms})
    starts = starts[:max(1, cfg.seeds)]
    found = []
    for M in starts:
        for _ in range(min(cfg.max_iter, 100)):
            N, trace = semantics.stable_operator(program, M, cfg.tol, cfg.max_iter)
            if not trace.converged:
                break
            if interp_distance(M, N) <= cfg.tol:
                if is_stable(program, N, cfg.tol, cfg.max_iter) is True:
                    found.append(N)
                break
            M = N
    return _sort_models(_dedup(found, cfg.tol), atoms)


@pytest.fixture
def operator_calls(monkeypatch):
    """Count stable-operator calls, one entry per start.

    A call whose argument is not the result of the previous call begins
    a new start.
    """
    per_start = []
    last = [None]

    def counting(program, M, *args):
        if M is not last[0]:
            per_start.append(0)
        per_start[-1] += 1
        last[0], trace = stable_operator(program, M, *args)
        return last[0], trace

    monkeypatch.setattr(semantics, "stable_operator", counting)
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


@pytest.mark.parametrize("rng_seed", [0, 7])
def test_motor_matches_full_cap(motor, rng_seed):
    cfg = StableSearchConfig(mode="iterate", seeds=16, rng_seed=rng_seed)
    got = find_stable_models(motor, cfg)
    assert got == full_cap_search(motor, cfg)
    assert len(got) == 1


def test_motor_fc_target_matches_full_cap(motor):
    target = eliminate_constraints_fc(motor).target
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

    def counting(program, M, *args):
        draws_at_step.append(draws[0])
        return stable_operator(program, M, *args)

    cfg = StableSearchConfig(mode="iterate", seeds=64, rng_seed=5)
    want = full_cap_search(motor, cfg)
    monkeypatch.setattr(semantics, "random", SimpleNamespace(Random=CountingRandom))
    monkeypatch.setattr(semantics, "stable_operator", counting)
    assert find_stable_models(motor, cfg) == want
    n = len(motor.atoms())
    assert draws_at_step[0] == 0                        # bottom and top draw nothing
    assert min(d for d in draws_at_step if d) == n      # one start's values, not all of them
    assert {b - a for a, b in zip(draws_at_step, draws_at_step[1:])} <= {0, n}
    assert draws[0] == (cfg.seeds - 2) * n
