"""Acceptance suite: one test per shipped criterion, each at its stated
tolerance, printing a pass line when it holds.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion
lines; any assertion failure marks the criterion red.
"""

import math
import random
import time

from emalp import (
    Apply,
    Atom,
    Const,
    Program,
    ProgramClass,
    Rule,
    StableSearchConfig,
    check_continuity,
    eliminate_constraints_fc,
    eliminate_constraints_janssen,
    eval_body,
    eval_conjunctor,
    eval_implication,
    eval_negation,
    find_stable_models,
    interp_distance,
    is_stable,
    lattice_grid,
    least_model,
    lift_interpretation,
    parse_body,
    project_interpretation,
    reduct,
    to_manlp,
)
from conftest import M_INTERP, MOTOR_TEXT, N_INTERP
from emalp import parse_program
from genprog import random_emalp
import reference
import test_operator_contract as contract


def _contains(models, M, tol):
    return any(interp_distance(M, other) <= tol for other in models)


def test_criterion_1_model_check_with_intermediates():
    start = time.perf_counter()
    program = parse_program(MOTOR_TEXT)
    M = dict(M_INTERP)
    assert all(reference.satisfies(M, r, 1e-9) for r in program.rules)
    body1 = eval_body(program.rules[0].body, M)
    assert abs(body1 - 8 / 37) <= 1e-9
    body2 = eval_body(program.rules[1].body, M)
    impl2 = eval_implication("product", M["q"], body2)
    assert abs(impl2 - 8 / math.sqrt(111)) <= 1e-9
    body5 = eval_body(program.rules[4].body, M)
    impl5 = eval_implication("godel", M["t"], body5)
    assert abs(impl5 - 0.85) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\ncriterion 1: PASS: model check with intermediates 8/37, 8/sqrt(111), 0.85 "
          f"({elapsed:.3f}s)")


def test_criterion_2_fixpoint_table():
    start = time.perf_counter()
    program = parse_program(MOTOR_TEXT)
    frozen = Program(reduct(program, dict(N_INTERP), 1e-9).definite_rules())
    value, trace = least_model(frozen, 1e-9, 100)
    assert trace.converged
    expected = [
        {"p": 0.0, "q": 0.36, "s": 0.8, "t": 0.7},
        {"p": 9 / 80, "q": 0.36, "s": 0.8, "t": 0.8},
        {"p": 9 / 85, "q": 0.36, "s": 0.8, "t": 0.8},
        {"p": 9 / 85, "q": 0.36, "s": 0.8, "t": 0.8},
    ]
    assert len(trace.iterates) == 5 and trace.iterations == 4
    rows = trace.iterates[1:]
    for row, want in zip(rows, expected):
        for atom, v in want.items():
            assert abs(row[atom] - v) <= 1e-9
    # the fixpoint value first appears at the third application and repeats
    assert interp_distance(rows[2], rows[3]) <= 1e-9
    assert interp_distance(rows[1], rows[2]) > 1e-9
    assert interp_distance(value, dict(N_INTERP)) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\ncriterion 2: PASS: fixpoint table rows reproduced, fixpoint at the third "
          f"iteration ({elapsed:.3f}s)")


def test_criterion_3_stability_verdicts():
    program = parse_program(MOTOR_TEXT)
    assert is_stable(program, dict(N_INTERP), 1e-9) is True
    assert is_stable(program, dict(M_INTERP), 1e-9) is False
    print("\ncriterion 3: PASS: N stable, M not stable at tol 1e-9")


def test_criterion_4_transformation_goldens():
    program = parse_program(MOTOR_TEXT)
    rec1 = eliminate_constraints_fc(program, "lukasiewicz", "godel", "neg1")
    assert len(rec1.target.rules) == 5
    assert rec1.target.rules[2] == Rule(
        Atom("p_bot"), "lukasiewicz",
        Apply("and_g", (
            Apply("f", (Const(0.0), Apply("neg1", (Atom("p_bot"),)))),
            Apply("f", (Const(0.7), Apply("neg1", (Atom("q"),)))),
        )),
        1.0,
    )
    rec2 = to_manlp(rec1.target, "neg1")
    assert len(rec2.target.rules) == 9
    assert rec2.target.classify() is ProgramClass.MANLP
    bodies = {str(r.head): r.body for r in rec2.target.rules}
    assert bodies["p"] == parse_body(
        "min(div1(q, add(add(neg1(not_s), neg1(not_t)), 0.1)), 1)")
    assert bodies["q"] == parse_body("max(neg1(neg1(not_s)), neg2(neg1(not_t)))")
    assert bodies["p_bot"] == parse_body(
        "and_g(f(0, neg1(neg1(not_p_bot))), f(0.7, neg1(neg1(not_q))))")
    for q, w in rec2.negation_witnesses.items():
        assert bodies[w] == Apply("neg1", (Atom(q),))

    lifted1 = lift_interpretation(dict(N_INTERP), rec1)
    assert lifted1["p_bot"] == 0.0
    lifted2 = lift_interpretation(lifted1, rec2)
    for name, want in (("not_q", 0.64), ("not_s", 0.2), ("not_t", 0.2), ("not_p_bot", 1.0)):
        assert abs(lifted2[name] - want) <= 1e-12
    assert is_stable(rec1.target, lifted1, 1e-9) is True
    assert is_stable(rec2.target, lifted2, 1e-9) is True
    print("\ncriterion 4: PASS: 5-rule and 9-rule targets, lifted interpretations stable")


def test_criterion_5_rule_count_laws():
    rng = random.Random(505)
    for case in range(200):
        program = random_emalp(rng, max_atoms=6, max_rules=8, max_constraints=3,
                               values=(0.0, 0.25, 0.5, 0.75, 1.0))
        fc = eliminate_constraints_fc(program)
        assert len(fc.target.rules) == len(program.rules), f"case {case}"
        janssen = eliminate_constraints_janssen(program)
        distinct = {r.head.value for r in program.constraints()}
        assert len(janssen.target.rules) == len(program.rules) + 2 * len(distinct), f"case {case}"
    print("\ncriterion 5: PASS: fc and janssen rule-count laws on 200 random programs")


def test_criterion_6_theorem_suite_on_grids():
    start = time.perf_counter()
    rng = random.Random(606)
    cfg = StableSearchConfig(mode="grid", grid_step=0.5, tol=1e-9)
    violations = []
    for case in range(50):
        source = random_emalp(rng, max_atoms=3, max_rules=4, max_constraints=1,
                              values=(0.0, 0.5, 1.0))
        rec1 = eliminate_constraints_fc(source)
        rec2 = to_manlp(rec1.target)
        s0 = find_stable_models(source, cfg)
        s1 = find_stable_models(rec1.target, cfg)
        s2 = find_stable_models(rec2.target, cfg)
        if not (len(s0) == len(s1) == len(s2)):
            violations.append(f"case {case}: counts {len(s0)}/{len(s1)}/{len(s2)}")
        for M in s0:
            up1 = lift_interpretation(M, rec1)
            if not _contains(s1, up1, 1e-9):
                violations.append(f"case {case}: lift misses constraint-free target")
                continue
            if not _contains(s2, lift_interpretation(up1, rec2), 1e-9):
                violations.append(f"case {case}: lift misses normalized target")
        for N in s1:
            if rec1.bottom_atom is not None and N[rec1.bottom_atom] != 0.0:
                violations.append(f"case {case}: bottom witness {N[rec1.bottom_atom]} != 0")
            if not _contains(s0, project_interpretation(N, rec1), 1e-9):
                violations.append(f"case {case}: projection not stable on source")
        for N in s2:
            for q, w in rec2.negation_witnesses.items():
                if N[w] != eval_negation("neg1", N[q]):
                    violations.append(f"case {case}: witness {w} != neg1({q}) exactly")
            if not _contains(s1, project_interpretation(N, rec2), 1e-9):
                violations.append(f"case {case}: projection not stable on mid program")
    elapsed = time.perf_counter() - start
    assert violations == [], violations
    assert elapsed < 60.0
    print(f"\ncriterion 6: PASS: stable-set bijections on 50 random programs, bottom and "
          f"negation witnesses exact ({elapsed:.1f}s)")


def test_criterion_7_stable_implies_minimal():
    rng = random.Random(707)
    cfg = StableSearchConfig(mode="grid", grid_step=0.25, tol=1e-9)
    checked = 0
    for case in range(50):
        program = random_emalp(rng, max_atoms=3, max_rules=4, max_constraints=1,
                               values=(0.0, 0.25, 0.5, 0.75, 1.0))
        for M in find_stable_models(program, cfg):
            assert reference.grid_minimal(program, M, 0.25, 1e-9), f"case {case}: {M}"
            checked += 1
    assert checked > 0
    print(f"\ncriterion 7: PASS: {checked} grid stable models all minimal")


def test_criterion_8_algebra_suite():
    for kind in ("godel", "product", "lukasiewicz"):
        contract.test_adjoint_pair_laws(kind)
    # involutivity is exact on a dyadic grid; the 0.05 grid is not exactly
    # representable, so there it holds to within one rounding step
    for i in range(257):
        x = i / 256
        assert eval_negation("neg1", eval_negation("neg1", x)) == x
    for x in lattice_grid(0.05):
        assert abs(eval_negation("neg1", eval_negation("neg1", x)) - x) <= 1e-15
        for kind in ("godel", "product", "lukasiewicz"):
            assert eval_conjunctor(kind, 1.0, x) == x
            assert eval_conjunctor(kind, x, 1.0) == x
    print("\ncriterion 8: PASS: adjunction laws on 9261 triples per pair, involutivity "
          "and top-identity exact")


def test_criterion_9_continuity_and_search():
    program = parse_program(MOTOR_TEXT)
    unconstrained = Program(program.definite_rules())
    assert check_continuity(unconstrained).continuous is True
    assert check_continuity(eliminate_constraints_fc(program).target).continuous is False
    cfg = StableSearchConfig(mode="iterate", seeds=16, rng_seed=0)
    models = find_stable_models(unconstrained, cfg)
    assert any(interp_distance(m, dict(N_INTERP)) <= 1e-6 for m in models)
    print("\ncriterion 9: PASS: continuity verdicts and iterate-mode search find the "
          "stable model")
