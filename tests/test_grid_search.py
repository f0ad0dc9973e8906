"""Differential tests of the depth-first grid prefilter.

`brute_force_candidates` is the full-product enumeration the search
used before: it evaluates every rule body at every grid point.  The
depth-first `_grid_candidates` must return exactly the same candidates
in the same order.
"""

import itertools
import random

import pytest

from emalp import (
    StableSearchConfig,
    eliminate_constraints_fc,
    eliminate_constraints_janssen,
    eval_body,
    eval_conjunctor,
    find_stable_models,
    is_stable,
    lattice_grid,
    parse_program,
    satisfies,
    to_manlp,
)
from emalp.semantics import PREFILTER_TOL, _dedup, _grid_candidates, _sort_models

from genprog import random_emalp

PRE_TOL = PREFILTER_TOL
TOL = StableSearchConfig().tol


def brute_force_candidates(program, step, pre_tol, tol):
    """Every grid point that is a fixpoint of T and satisfies all constraints."""
    atoms = program.atoms()
    values = lattice_grid(step)
    definite = program.definite_rules()
    constraints = program.constraints()
    out = []
    for point in itertools.product(values, repeat=len(atoms)):
        M = dict(zip(atoms, point))
        consequence = {a: 0.0 for a in atoms}
        for r in definite:
            v = eval_conjunctor(r.impl, r.weight, eval_body(r.body, M, tol))
            if v > consequence[r.head.name]:
                consequence[r.head.name] = v
        if any(abs(consequence[a] - M[a]) > pre_tol for a in atoms):
            continue
        if any(not satisfies(M, r, tol) for r in constraints):
            continue
        out.append(M)
    return out


def assert_same_candidates(program, step, pre_tol=PRE_TOL, tol=TOL):
    want = brute_force_candidates(program, step, pre_tol, tol)
    got = _grid_candidates(program, step, pre_tol, tol)
    assert got == want
    return got


@pytest.mark.parametrize("step", [0.5, 0.25])
def test_seeded_programs_match_brute_force(step):
    nonempty = 0
    for seed in range(120):
        program = random_emalp(random.Random(seed), max_atoms=4, max_rules=5,
                               max_constraints=2, values=(0.0, 0.25, 0.5, 0.75, 1.0))
        nonempty += bool(assert_same_candidates(program, step))
    assert nonempty > 20  # the comparison is not only between empty lists


# Off the coarse grids most fixpoints miss the grid, so a loose slack
# keeps the comparison between non-empty lists.
@pytest.mark.parametrize("pre_tol, least", [(PRE_TOL, 5), (0.05, 12)])
def test_seeded_programs_match_brute_force_on_a_fine_grid(pre_tol, least):
    nonempty = 0
    for seed in range(24):
        program = random_emalp(random.Random(1000 + seed), max_atoms=4, max_rules=5,
                               max_constraints=2, values=(0.0, 0.2, 0.5, 0.7, 1.0))
        nonempty += bool(assert_same_candidates(program, 0.1, pre_tol))
    assert nonempty > least


# Motor's one stable model has p = 9/85, on no grid, so with the default
# slack every list is empty; a loose slack lets near-fixpoints through.
@pytest.mark.parametrize("pre_tol", [PRE_TOL, 0.25])
def test_motor_matches_brute_force(motor, pre_tol):
    assert_same_candidates(motor, 0.2, pre_tol)


@pytest.mark.parametrize("pre_tol", [PRE_TOL, 0.5])
@pytest.mark.parametrize("method", ["fc", "janssen", "chain"])
def test_motor_targets_match_brute_force(motor, method, pre_tol):
    if method == "janssen":
        target = eliminate_constraints_janssen(motor).target
    else:
        target = eliminate_constraints_fc(motor).target
        if method == "chain":
            target = to_manlp(target).target
    assert_same_candidates(target, 0.5, pre_tol)


@pytest.mark.parametrize("text, count", [
    ("0 <-g 1 with 1;", 0),                       # no atoms, constraint fails
    ("0 <-g 0 with 1;", 1),                       # no atoms, constraint holds: {}
    ("p <-g q with 1;", 1),                       # q heads no rule: pinned to 0
    ("p <-g max(p, 0.5) with 1;", 3),             # a head in its own body
    ("p <-g q with 0.5;\np <-l neg1(q) with 1;\nq <-g 0.5 with 1;\n", 1),
    ("p <-g neg1(q) with 1;\nq <-g neg1(p) with 1;\n0.5 <-g 0.5 with 1;\n", 5),
    ("p <-g neg1(q) with 1;\nq <-g neg1(p) with 1;\n0 <-g 0.5 with 1;\n", 0),
])
def test_edge_programs_match_brute_force(text, count):
    assert len(assert_same_candidates(parse_program(text), 0.25)) == count


MUTUAL = "p <-g neg1(q) with 1;\nq <-g neg1(p) with 1;\n"
# Assigned b, c, a; the grid order is a, b, c, and a = c on the models.
SKEWED = ("a <-g min(neg1(b), c) with 1;\nb <-g neg1(c) with 1;\n"
          "c <-g neg1(b) with 1;\n0.5 <-l b with 1;\n")


@pytest.mark.parametrize("text", [MUTUAL, SKEWED])
def test_search_with_coarse_tol_keeps_the_earliest_point(text):
    # With tol above the grid step, _dedup keeps the first of several
    # nearby stable points, so the candidates' order decides the answer.
    program = parse_program(text)
    cfg = StableSearchConfig(mode="grid", grid_step=0.25, tol=0.3)
    stable = [M for M in brute_force_candidates(program, 0.25, PREFILTER_TOL, cfg.tol)
              if is_stable(program, M, cfg.tol, cfg.max_iter) is True]
    want = _sort_models(_dedup(stable, cfg.tol), program.atoms())
    assert find_stable_models(program, cfg) == want
    assert len(want) < len(stable)
    if text == SKEWED:
        assert _sort_models(_dedup(stable[::-1], cfg.tol), program.atoms()) != want


HALVING = "p <-p add(mul(p, 0.5), 0.5) with 1;\n"   # p = 1, reached only in the limit


@pytest.mark.parametrize("max_iter, models, undecided", [
    (5, [], [{"p": 1.0}]),
    (StableSearchConfig().max_iter, [{"p": 1.0}], []),
])
def test_grid_search_reports_undecided_points(max_iter, models, undecided):
    program = parse_program(HALVING)
    cfg = StableSearchConfig(mode="grid", grid_step=0.5, max_iter=max_iter)
    found = []
    assert find_stable_models(program, cfg, found) == models
    assert found == undecided
    assert find_stable_models(program, cfg) == models


def test_undecided_points_are_the_indeterminate_candidates():
    reported = 0
    for max_iter in (1, 2, 3):
        cfg = StableSearchConfig(mode="grid", grid_step=0.5, max_iter=max_iter)
        for seed in range(80):
            program = random_emalp(random.Random(seed))
            want = [M for M in brute_force_candidates(program, 0.5, PRE_TOL, cfg.tol)
                    if is_stable(program, M, cfg.tol, cfg.max_iter) is None]
            undecided = []
            find_stable_models(program, cfg, undecided)
            assert undecided == _sort_models(want, program.atoms())
            reported += len(undecided)
    assert reported > 10  # the comparison is not only between empty lists


def test_iterate_mode_leaves_the_undecided_list_alone():
    undecided = []
    cfg = StableSearchConfig(mode="iterate", seeds=4, max_iter=5)
    find_stable_models(parse_program(HALVING), cfg, undecided)
    assert undecided == []
