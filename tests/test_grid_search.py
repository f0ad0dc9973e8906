"""Differential tests of the depth-first grid prefilter.

The oracle is `reference.candidates`, the full-product enumeration the
search used before: it evaluates every rule body at every grid point.
The depth-first `_grid_candidates`, which sets a head atom from its own
equation where it can, must return exactly the same candidates in the
same order.  Where the full product is too large, the oracle is the
same walk with every propagator taken away, so each head is tested at
every grid value as the full product would test it.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from emalp import (
    StableSearchConfig,
    eliminate_constraints_fc,
    eliminate_constraints_janssen,
    find_stable_models,
    is_stable,
    lattice_grid,
    parse_program,
    to_manlp,
)
import emalp.semantics as semantics_module
from emalp.semantics import (
    PREFILTER_TOL,
    _assignment_order,
    _dedup,
    _grid_candidates,
    _grid_checks,
    _grid_walk,
    _sort_models,
)

from genprog import random_emalp
import reference

PRE_TOL = PREFILTER_TOL
TOL = StableSearchConfig().tol
MUTUAL = "p <-g neg1(q) with 1;\nq <-g neg1(p) with 1;\n"


def unpropagated_candidates(program, step, pre_tol, tol):
    """The depth-first walk with no propagator: every head is tested, never set."""
    atoms = program.atoms()
    checks = [(reads, test, None)
              for reads, test, _ in _grid_checks(program, atoms, pre_tol, tol)]
    found = _grid_walk(atoms, lattice_grid(step), checks)
    return sorted(found, key=lambda m: tuple(m[a] for a in atoms))


def assert_same_candidates(program, step, pre_tol=PRE_TOL, tol=TOL, oracle=reference.candidates):
    want = oracle(program, step, pre_tol, tol)
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


# Three atoms at most, so the full product stays small at step 0.05.
@pytest.mark.parametrize("step, seeds, least", [(0.1, 30, 10), (0.05, 20, 6)])
def test_seeded_programs_match_brute_force_at_fine_steps(step, seeds, least):
    nonempty = 0
    for seed in range(seeds):
        program = random_emalp(random.Random(2000 + seed), max_atoms=3, max_rules=5,
                               max_constraints=2, values=(0.0, 0.5, 1.0))
        nonempty += bool(assert_same_candidates(program, step))
    assert nonempty > least


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), step=st.sampled_from([0.5, 0.25, 0.1]))
def test_random_programs_match_brute_force(seed, step):
    program = random_emalp(random.Random(seed), max_atoms=3, max_rules=5, max_constraints=2,
                           values=(0.0, 0.25, 0.5, 0.75, 1.0))
    assert_same_candidates(program, step)


# Motor's one stable model has p = 9/85, on no grid, so with the default
# slack every list is empty; a loose slack lets near-fixpoints through.
@pytest.mark.parametrize("pre_tol", [PRE_TOL, 0.25])
def test_motor_matches_brute_force(motor, pre_tol):
    assert_same_candidates(motor, 0.2, pre_tol)


def motor_target(motor, method):
    if method == "source":
        return motor
    if method == "janssen":
        return eliminate_constraints_janssen(motor).target
    target = eliminate_constraints_fc(motor).target
    return to_manlp(target).target if method == "chain" else target


@pytest.mark.parametrize("pre_tol", [PRE_TOL, 0.5])
@pytest.mark.parametrize("method", ["fc", "janssen", "chain"])
def test_motor_targets_match_brute_force(motor, method, pre_tol):
    assert_same_candidates(motor_target(motor, method), 0.5, pre_tol)


# The chain's 9 atoms make 6 ** 9 points at step 0.2, too many for the
# full product, so the unpropagated walk is its oracle.
@pytest.mark.parametrize("method", ["source", "fc", "janssen", "chain"])
def test_motor_and_its_targets_match_at_a_fifth(motor, method):
    oracle = unpropagated_candidates if method == "chain" else reference.candidates
    assert assert_same_candidates(motor_target(motor, method), 0.2, 0.25, oracle=oracle)


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


@pytest.mark.parametrize("text", [
    "p <-g max(p, 0.5) with 1;",                  # reads itself: never propagated
    "p <-g neg1(p) with 1;",                      # reads itself inside a freeze site
    "p <-g min(neg1(p), q) with 1;\nq <-g 0.75 with 1;\n",
    "p <-g q with 1;",                            # q heads no rule: set to 0
    "0 <-g 0 with 1;\np <-g 0.5 with 1;\n",       # a constraint without atoms
    MUTUAL,                                       # the even cycle
    MUTUAL + "0.5 <-g p with 1;\n",
])
@pytest.mark.parametrize("step", [0.1, 0.05])
def test_edge_programs_match_brute_force_on_fine_grids(text, step):
    assert_same_candidates(parse_program(text), step)


def test_only_heads_that_do_not_read_themselves_propagate():
    program = parse_program("p <-g neg1(p) with 1;\nq <-g max(q, 0.5) with 1;\n"
                            "r <-g min(neg1(s), p) with 1;\n0.5 <-g r with 1;\n")
    checks = _grid_checks(program, program.atoms(), PRE_TOL, TOL)
    assert [prop and prop[0] for _, _, prop in checks] == [None, None, "r", "s", None]


@pytest.mark.parametrize("text, order", [
    # each head comes after the atom its body reads
    ("a <-g b with 1;\nb <-g c with 1;\nc <-g 0.5 with 1;\n", ["c", "b", "a"]),
    # z lets a and b propagate, though w and y each close a check at once
    ("a <-g z with 1;\nb <-g z with 1;\nz <-g max(z, w) with 1;\n"
     "w <-g max(w, 0.5) with 1;\ny <-g max(y, 0.25) with 1;\n0.5 <-g y with 1;\n",
     ["z", "a", "b", "w", "y"]),
])
def test_assignment_order_puts_heads_where_they_propagate(text, order):
    program = parse_program(text)
    checks = _grid_checks(program, program.atoms(), PRE_TOL, TOL)
    assert _assignment_order(program.atoms(), checks) == order


def test_a_propagated_head_is_computed_once_per_node(monkeypatch):
    # c, b and a each take the one value of their equation, so T(M)[x]
    # is evaluated once per atom, where testing all five values took 15
    calls = []
    original = semantics_module.eval_conjunctor
    monkeypatch.setattr(semantics_module, "eval_conjunctor",
                        lambda *args: calls.append(1) or original(*args))
    program = parse_program("a <-g b with 1;\nb <-g c with 1;\nc <-g 0.5 with 1;\n")
    assert _grid_candidates(program, 0.25, PRE_TOL, TOL) == [dict.fromkeys("abc", 0.5)]
    assert len(calls) == 3


def test_an_empty_value_list_yields_nothing():
    # no grid value at the first atom, and a fit that keeps none at the second
    checks = [({"p"}, lambda M: True, None)]
    assert list(_grid_walk(("p",), [], checks)) == []
    keeps_none = ({"p", "q"}, lambda M: True, ("q", lambda M, values: []))
    assert list(_grid_walk(("p", "q"), [0.0], checks + [keeps_none])) == []


# Assigned b, c, a; the grid order is a, b, c, and a = c on the models.
SKEWED = ("a <-g min(neg1(b), c) with 1;\nb <-g neg1(c) with 1;\n"
          "c <-g neg1(b) with 1;\n0.5 <-l b with 1;\n")


@pytest.mark.parametrize("text", [MUTUAL, SKEWED])
def test_search_with_coarse_tol_keeps_the_earliest_point(text):
    # With tol above the grid step, _dedup keeps the first of several
    # nearby stable points, so the candidates' order decides the answer.
    program = parse_program(text)
    cfg = StableSearchConfig(mode="grid", grid_step=0.25, tol=0.3)
    stable = [M for M in reference.candidates(program, 0.25, PREFILTER_TOL, cfg.tol)
              if reference.verdict(program, M, cfg.tol, cfg.max_iter)[0] is True]
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
    # is_stable, not the reference: under a cap its level pass may decide where Kleene does not
    reported = 0
    for max_iter in (1, 2, 3):
        cfg = StableSearchConfig(mode="grid", grid_step=0.5, max_iter=max_iter)
        for seed in range(80):
            program = random_emalp(random.Random(seed))
            want = [M for M in reference.candidates(program, 0.5, PRE_TOL, cfg.tol)
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
