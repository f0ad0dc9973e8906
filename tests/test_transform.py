import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from emalp import (
    Apply,
    Atom,
    BudgetExceeded,
    Const,
    FixpointTrace,
    Program,
    ProgramClass,
    Rule,
    TransformError,
    check_continuity,
    eliminate_constraints_fc,
    eliminate_constraints_janssen,
    is_stable,
    lift_interpretation,
    parse_body,
    parse_program,
    project_interpretation,
    record_from_json,
    to_manlp,
    validate_program,
    verify_equivalence,
)
import emalp.transform as transform
from emalp.semantics import _analysis
from genprog import random_emalp


# --- threshold-style constraint elimination -------------------------------------


def test_fc_golden(motor):
    rec = eliminate_constraints_fc(motor, "lukasiewicz", "godel", "neg1")
    assert len(rec.target.rules) == len(motor.rules) == 5
    assert rec.target.classify() is ProgramClass.CONSTRAINT_FREE
    assert rec.fresh_atoms == ({"name": "p_bot", "role": "bottom_witness"},)
    rewritten = rec.target.rules[2]
    assert rewritten == Rule(
        Atom("p_bot"), "lukasiewicz",
        Apply("and_g", (
            Apply("f", (Const(0.0), Apply("neg1", (Atom("p_bot"),)))),
            Apply("f", (Const(0.7), Apply("neg1", (Atom("q"),)))),
        )),
        1.0,
    )
    # non-constraint rules are copied verbatim
    assert rec.target.rules[0] == motor.rules[0]
    assert rec.target.rules[3:] == motor.rules[3:]
    assert not validate_program(rec.target)


@pytest.mark.parametrize("conj, op", [("godel", "and_g"), ("product", "and_p"),
                                      ("lukasiewicz", "and_l")])
def test_the_bottom_rule_joins_with_the_chosen_conjunctor(motor, conj, op):
    for eliminate in (eliminate_constraints_fc, eliminate_constraints_janssen):
        rec = eliminate(motor, "lukasiewicz", conj, "neg1")
        bottom = [r.body.op for r in rec.target.rules if r.head == Atom("p_bot")]
        assert bottom == [op]


def test_fc_constraint_free_is_identity(motor):
    positive = Program(motor.definite_rules())
    rec = eliminate_constraints_fc(positive)
    assert rec.target == positive
    assert rec.fresh_atoms == ()


def test_fc_rule_count_law():
    rng = random.Random(77)
    for _ in range(25):
        program = random_emalp(rng, max_atoms=4, max_rules=6, max_constraints=3,
                               values=(0.0, 0.25, 0.5, 0.75, 1.0))
        rec = eliminate_constraints_fc(program)
        assert len(rec.target.rules) == len(program.rules)
        assert not rec.target.constraints()


def test_fresh_atom_collision_resolved():
    program = parse_program("p_bot <-g q with 1;\n0.5 <-g p_bot with 1;")
    rec = eliminate_constraints_fc(program)
    assert rec.fresh_atoms == ({"name": "p_bot_1", "role": "bottom_witness"},)
    assert "p_bot_1" in rec.target.atoms()


# --- witness-style constraint elimination ----------------------------------------


def test_janssen_golden(motor):
    rec = eliminate_constraints_janssen(motor, "lukasiewicz", "godel", "neg1")
    assert len(rec.target.rules) == 5 + 2 * 1
    assert not rec.target.constraints()
    assert rec.fresh_atoms == ({"name": "p_bot", "role": "bottom_witness"},
                               {"name": "p_c_1", "role": "constant_witness", "value": 0.7})
    converted = rec.target.rules[2]
    assert converted.head == Atom("p_c_1")
    assert converted.impl == "lukasiewicz"  # constraint's own implication kept
    assert converted.body == motor.rules[2].body
    extra = rec.target.rules[5:]
    assert extra[0] == Rule(Atom("p_c_1"), "lukasiewicz", Const(0.7), 1.0)
    assert extra[1] == Rule(
        Atom("p_bot"), "lukasiewicz",
        Apply("and_g", (
            Apply("g", (Const(0.0), Apply("neg1", (Atom("p_bot"),)))),
            Apply("g", (Const(0.7), Atom("p_c_1"))),
        )),
        1.0,
    )
    assert not validate_program(rec.target)


def test_janssen_shared_constants_add_two_rules_only():
    program = parse_program(
        "p <-g q with 1;\n0.7 <-g q with 1;\n0.7 <-l neg1(p) with 1;"
    )
    rec = eliminate_constraints_janssen(program)
    assert len(rec.target.rules) == 3 + 2  # one distinct constant
    assert [a["role"] for a in rec.fresh_atoms] == ["bottom_witness", "constant_witness"]


def test_janssen_count_law():
    rng = random.Random(78)
    for _ in range(25):
        program = random_emalp(rng, max_atoms=4, max_rules=6, max_constraints=3,
                               values=(0.0, 0.25, 0.5, 0.75, 1.0))
        rec = eliminate_constraints_janssen(program)
        distinct = {r.head.value for r in program.constraints()}
        assert len(rec.target.rules) == len(program.rules) + 2 * len(distinct)
        assert not rec.target.constraints()


def test_janssen_constraint_free_is_identity(motor):
    positive = Program(motor.definite_rules())
    rec = eliminate_constraints_janssen(positive)
    assert rec.target == positive


# --- normalization ----------------------------------------------------------------


def test_to_manlp_golden(motor):
    rec1 = eliminate_constraints_fc(motor)
    rec2 = to_manlp(rec1.target)
    target = rec2.target
    assert len(target.rules) == 9
    assert target.classify() is ProgramClass.MANLP
    assert [(a["role"], a["source_atom"]) for a in rec2.fresh_atoms] == [
        ("negation_witness", q) for q in ("p_bot", "q", "s", "t")]
    bodies = {str(r.head): r.body for r in target.rules}
    assert bodies["p"] == parse_body(
        "min(div1(q, add(add(neg1(not_s), neg1(not_t)), 0.1)), 1)")
    assert bodies["q"] == parse_body("max(neg1(neg1(not_s)), neg2(neg1(not_t)))")
    assert bodies["p_bot"] == parse_body(
        "and_g(f(0, neg1(neg1(not_p_bot))), f(0.7, neg1(neg1(not_q))))")
    assert bodies["s"] == Const(1.0)
    assert bodies["t"] == parse_body("max(s, 0.7)")
    for a in rec2.fresh_atoms:
        assert bodies[a["name"]] == Apply("neg1", (Atom(a["source_atom"]),))
        rule = next(r for r in target.rules if r.head == Atom(a["name"]))
        assert rule.impl == "godel" and rule.weight == 1.0
    assert not validate_program(target)


def test_to_manlp_positive_is_identity():
    program = parse_program("p <-g min(q, 0.5) with 1;")
    rec = to_manlp(program)
    assert rec.target == program
    assert rec.fresh_atoms == ()


def test_to_manlp_rejects_constraints(motor):
    with pytest.raises(TransformError, match="constraints"):
        to_manlp(motor)


def test_to_manlp_rejects_non_involutive_choice(motor):
    rec = eliminate_constraints_fc(motor)
    with pytest.raises(TransformError, match="neg1"):
        to_manlp(rec.target, "neg2")


ANTITONE_ON_A_CYCLE = [
    # the source's stable model is {a: 1, p: 1}; the target's would set p to 0
    ("a <-g 1 with 1;\np <-g max(p, sub(1, a)) with 1;", 1),
    # the source's fixpoint p = 0.5 is undecided; the target's would be stable
    ("p <-g sub(1, p) with 1;", 0),
]


@pytest.mark.parametrize("text, index", ANTITONE_ON_A_CYCLE,
                         ids=["subtrahend-on-a-cycle", "subtrahend-is-the-head"])
def test_to_manlp_refuses_an_order_reversing_read_on_a_cycle(text, index):
    # the rule it names is the one the analysis runs Kleene from bottom for
    program = parse_program(text)
    analysis = _analysis(program, 1e-9)
    assert analysis.antitone == program.rules[index] and analysis.by_level == ()
    message = f"rule {index} ({program.rules[index]}) reads an atom order-reversingly"
    with pytest.raises(TransformError, match=re.escape(message)):
        to_manlp(program)


def test_to_manlp_accepts_motor_and_its_targets(motor, motor_unconstrained):
    # motor's divisor reads s and t live, but no head of motor is on a cycle
    assert _analysis(motor, 1e-9).antitone is None
    for program in (motor_unconstrained, eliminate_constraints_fc(motor).target,
                    eliminate_constraints_janssen(motor).target):
        assert _analysis(program, 1e-9).antitone is None
        assert to_manlp(program).target.classify() is ProgramClass.MANLP


def test_to_manlp_compiles_only_a_program_that_reverses_off_a_negated_atom(monkeypatch, motor):
    # a negated atom at a positive position is a freeze site, so with no
    # other reversal no rule can read an atom order-reversingly outside one
    calls = []
    monkeypatch.setattr(transform, "_analysis", lambda *args: calls.append(args) or
                        _analysis(*args))
    even = parse_program("p <-g neg1(q) with 1;\nq <-g neg1(p) with 1;\nr <-g neg1(r) with 1;")
    assert to_manlp(even).target.classify() is ProgramClass.MANLP and calls == []
    divisor = eliminate_constraints_fc(motor).target   # div1 reads s and t live
    assert to_manlp(divisor).target.classify() is ProgramClass.MANLP and len(calls) == 1
    with pytest.raises(TransformError):
        to_manlp(parse_program(ANTITONE_ON_A_CYCLE[0][0]))
    assert len(calls) == 2


@pytest.mark.parametrize("seed", range(4))
def test_a_program_that_reverses_only_negated_atoms_is_never_refused(seed):
    rng = random.Random(seed)
    checked = 0
    for _ in range(100):
        program = eliminate_constraints_fc(random_emalp(rng, max_atoms=4, max_rules=5)).target
        if not program.reversing_rules():
            assert _analysis(program, 1e-9).antitone is None
            checked += 1
    assert checked > 10


# --- interpretation transport -------------------------------------------------


def test_lift_fc(model_n, motor):
    rec = eliminate_constraints_fc(motor)
    lifted = lift_interpretation(model_n, rec)
    assert lifted["p_bot"] == 0.0
    assert project_interpretation(lifted, rec) == model_n


def test_lift_manlp(model_n, motor):
    rec1 = eliminate_constraints_fc(motor)
    rec2 = to_manlp(rec1.target)
    lifted1 = lift_interpretation(model_n, rec1)
    lifted2 = lift_interpretation(lifted1, rec2)
    assert lifted2["not_q"] == pytest.approx(0.64, abs=1e-12)
    assert lifted2["not_s"] == pytest.approx(0.2, abs=1e-12)
    assert lifted2["not_t"] == pytest.approx(0.2, abs=1e-12)
    assert lifted2["not_p_bot"] == pytest.approx(1.0, abs=1e-12)
    assert project_interpretation(lifted2, rec2) == lifted1


def test_lift_bottom_sends_witnesses_to_top(motor):
    rec1 = eliminate_constraints_fc(motor)
    rec2 = to_manlp(rec1.target)
    lifted = lift_interpretation({a: 0.0 for a in rec1.target.atoms()}, rec2)
    for a in rec2.fresh_atoms:
        assert lifted[a["name"]] == 1.0


def test_lift_janssen_sets_constant_witness(motor):
    rec = eliminate_constraints_janssen(motor)
    lifted = lift_interpretation({a: 0.3 for a in motor.atoms()}, rec)
    assert lifted["p_bot"] == 0.0
    assert lifted["p_c_1"] == 0.7


def test_lifted_interpretations_stay_stable(motor, model_n):
    rec1 = eliminate_constraints_fc(motor)
    lifted1 = lift_interpretation(model_n, rec1)
    assert is_stable(rec1.target, lifted1, 1e-9) is True
    rec2 = to_manlp(rec1.target)
    lifted2 = lift_interpretation(lifted1, rec2)
    assert is_stable(rec2.target, lifted2, 1e-9) is True


# --- continuity -------------------------------------------------------------------


def test_continuity_reports(motor, motor_unconstrained):
    assert check_continuity(motor_unconstrained)["continuous"] is True
    report = check_continuity(eliminate_constraints_fc(motor).target)
    assert report["continuous"] is False
    assert {(s["op"], s["threshold"]) for s in report["discontinuous_sites"]} == {
        ("f", 0.0), ("f", 0.7)}
    assert check_continuity(Program(()))["continuous"] is True


GUARANTEED = "a stable model is guaranteed to exist"


@pytest.mark.parametrize("text, sites, note", [
    # the constraint fails at the only fixpoint p = 0.5: no stable model
    ("p <-g 0.5 with 1;\n0.2 <-g p with 1;", [], "constraint rules 1"),
    # an arithmetic order reversal is not frozen, and Kleene oscillates
    ("p <-g sub(1, p) with 1;", [], "an order reversal outside a negation in rule 0"),
    ("q <-g 0.5 with 1;\np <-g f(0.3, q) with 1;", [(1, "f", 0.3)], "discontinuous f in rule 1"),
    # div1 jumps at (0, 0); here the denominator also reverses order
    ("q <-g 0.5 with 1;\np <-g div1(q, p) with 1;", [(1, "div1", 0.0)],
     "an order reversal outside a negation in rule 1"),
    ("q <-g 0.5 with 1;\np <-g div1(q, neg1(r)) with 1;", [(1, "div1", 0.0)],
     "discontinuous div1 in rule 1"),
])
def test_continuity_names_the_first_hypothesis_that_fails(text, sites, note):
    # the keys in the order `check --output table` prints them
    assert list(check_continuity(parse_program(text)).items()) == [
        ("continuous", not sites),
        ("discontinuous_sites", [{"rule": r, "op": op, "threshold": c} for r, op, c in sites]),
        ("notes", f"{note}: no existence guarantee")]


@pytest.mark.parametrize("text", [
    "p <-g max(p, 0.5) with 1;",                                  # positive
    "p <-g neg1(q) with 1;\nq <-g neg2(p) with 1;",               # a MANLP
    "q <-g 0.5 with 1;\np <-p div1(q, max(neg1(r), 0.1)) with 1;",  # denominator >= 0.1
    "q <-g 0.5 with 1;\np <-p div1(max(q, 0.2), neg1(r)) with 1;",  # numerator >= 0.2
])
def test_continuity_guarantees_existence_when_every_hypothesis_holds(text):
    report = check_continuity(parse_program(text))
    assert list(report) == ["continuous", "discontinuous_sites", "notes"]
    assert report["continuous"] is True and report["discontinuous_sites"] == []
    assert report["notes"].endswith(GUARANTEED)


def test_motor_is_continuous_but_constrained(motor, motor_unconstrained):
    report = check_continuity(motor)
    assert report["continuous"] is True
    assert report["notes"] == "constraint rules 2: no existence guarantee"
    # s and t reverse order in the denominator; manlp moves them under negations
    assert check_continuity(motor_unconstrained)["notes"] == (
        "an order reversal outside a negation in rule 0: no existence guarantee")
    assert check_continuity(to_manlp(motor_unconstrained).target)["notes"].endswith(GUARANTEED)


# --- equivalence ------------------------------------------------------------------


def test_verify_equivalence_constrained_pair():
    source = parse_program(
        "p <-g neg1(q) with 1;\nq <-g neg1(p) with 1;\n0.5 <-g p with 1;"
    )
    rec = eliminate_constraints_fc(source)
    report = verify_equivalence(rec, 0.5)
    assert report["bijection"] is True
    assert report["source_models"] == [{"p": 0.0, "q": 1.0}, {"p": 0.5, "q": 0.5}]
    assert report["bottom_exact"] is True


def test_verify_equivalence_manlp_chain():
    source = parse_program(
        "p <-g neg1(q) with 1;\nq <-g neg1(p) with 1;\n0.5 <-g p with 1;"
    )
    rec1 = eliminate_constraints_fc(source)
    rec2 = to_manlp(rec1.target)
    report = verify_equivalence(rec2, 0.5)
    assert report["bijection"] is True
    assert report["witnesses_exact"] is True


def test_verify_equivalence_janssen_pair():
    source = parse_program(
        "p <-g neg1(q) with 1;\nq <-g neg1(p) with 1;\n0.5 <-g p with 1;"
    )
    rec = eliminate_constraints_janssen(source)
    report = verify_equivalence(rec, 0.5)
    assert report["bijection"] is True
    assert report["bottom_exact"] is True
    for model in report["target_models"]:
        assert model["p_c_1"] == 0.5


def test_verify_equivalence_janssen_random():
    rng = random.Random(404)
    for _ in range(10):
        source = random_emalp(rng, max_atoms=3, max_rules=3, max_constraints=2)
        rec = eliminate_constraints_janssen(source)
        assert verify_equivalence(rec, 0.5)["bijection"] is True


REWRITES = {
    "fc": eliminate_constraints_fc,
    "janssen": eliminate_constraints_janssen,
    "fc-manlp": lambda source: to_manlp(eliminate_constraints_fc(source).target),
}


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10 ** 9), st.sampled_from(sorted(REWRITES)))
def test_rewrites_keep_stable_models_at_grid_half(seed, rewrite):
    source = random_emalp(random.Random(seed), max_atoms=3, max_rules=3, max_constraints=2)
    report = verify_equivalence(REWRITES[rewrite](source), 0.5)
    assert report["bijection"] is True, report["counterexamples"]


def test_verify_equivalence_trivial_for_constraint_free():
    source = parse_program("p <-g min(q, 0.5) with 1;")
    rec = eliminate_constraints_fc(source)
    report = verify_equivalence(rec, 0.5)
    assert report["bijection"] is True
    assert report["source_models"] == report["target_models"]


def test_verify_equivalence_detects_tampering():
    source = parse_program(
        "p <-g neg1(q) with 1;\nq <-g neg1(p) with 1;\n0.5 <-g p with 1;"
    )
    rec = eliminate_constraints_fc(source)
    tampered = list(rec.target.rules)
    tampered[0] = Rule(tampered[0].head, tampered[0].impl, tampered[0].body, 0.2)
    broken = record_from_json(rec.to_json(), source, Program(tuple(tampered)))
    report = verify_equivalence(broken, 0.5)
    assert report["bijection"] is False
    assert report["counterexamples"]


def _with_target_rule(rec, index: int, text: str):
    """The record read back with its target's rule `index` replaced by `text`."""
    rules = list(rec.target.rules)
    rules[index] = parse_program(text).rules[0]
    return record_from_json(rec.to_json(), rec.source, Program(tuple(rules)))


def _verdict(report) -> tuple:
    return (report["bijection"], report["bottom_exact"], report["witnesses_exact"],
            report["counterexamples"])


def test_verify_equivalence_reports_a_projection_that_is_no_source_model():
    # without its bottom rule the target lets p = 1 through the constraint p <= 0.5
    source = parse_program("p <-g neg1(q) with 1;\nq <-g neg1(p) with 1;\n0.5 <-g p with 1;")
    rec = _with_target_rule(eliminate_constraints_fc(source), 2, "p_bot <-g 0 with 1;")
    assert _verdict(verify_equivalence(rec, 0.5)) == (False, True, None, [
        "projection of target model {'p': 1.0, 'p_bot': 0.0, 'q': 0.0} is not a source "
        "stable model",
        "model counts differ: 2 vs 3",
    ])


def test_verify_equivalence_reports_a_target_model_off_its_lift():
    # the constant witness settles at 0.25, the record lifts it to 0.5
    source = parse_program("p <-g 0.25 with 1;\n0.5 <-g p with 1;")
    rec = _with_target_rule(eliminate_constraints_janssen(source), 2, "p_c_1 <-l 0.25 with 1;")
    assert _verdict(verify_equivalence(rec, 0.25)) == (False, True, None, [
        "lift of source model {'p': 0.25} is not a target stable model",
        "target model {'p': 0.25, 'p_bot': 0.0, 'p_c_1': 0.25} differs from the lift of its "
        "projection",
    ])


def test_verify_equivalence_reports_a_bottom_witness_above_zero():
    source = parse_program("p <-g 0.25 with 1;\n0.5 <-g p with 1;")
    rec = _with_target_rule(eliminate_constraints_fc(source), 1, "p_bot <-g 0.5 with 1;")
    assert _verdict(verify_equivalence(rec, 0.25)) == (False, False, None, [
        "lift of source model {'p': 0.25} is not a target stable model",
        "target model {'p': 0.25, 'p_bot': 0.5} differs from the lift of its projection",
        "a target stable model does not pin the bottom witness to 0",
    ])


def test_verify_equivalence_reports_a_broken_negation_witness():
    # not_q is pinned to 0.25 where neg1(q) is 0.75
    source = parse_program("p <-g neg1(q) with 1;\nq <-g 0.25 with 1;")
    rec = _with_target_rule(to_manlp(source), 2, "not_q <-g 0.25 with 1;")
    N = "{'not_q': 0.25, 'p': 0.25, 'q': 0.25}"
    assert _verdict(verify_equivalence(rec, 0.25)) == (False, None, False, [
        "lift of source model {'p': 0.75, 'q': 0.25} is not a target stable model",
        f"projection of target model {N} is not a source stable model",
        f"target model {N} differs from the lift of its projection",
        "a target stable model breaks a negation witness equation",
    ])


def test_verify_equivalence_rejects_unlinked_record():
    from emalp import MalpError

    source = parse_program("p <-g neg1(q) with 1;\nq <-g neg1(p) with 1;\n0.5 <-g p with 1;")
    other = parse_program("a <-g b with 1;")
    rec = eliminate_constraints_fc(source)
    broken = record_from_json(rec.to_json(), source, other)
    with pytest.raises(MalpError, match="does not link"):
        verify_equivalence(broken, 0.5)


def test_continuity_false_for_any_constrained_fc_target():
    rng = random.Random(99)
    seen = 0
    for _ in range(30):
        program = random_emalp(rng, max_atoms=3, max_rules=3, max_constraints=2)
        if not program.constraints():
            continue
        seen += 1
        assert check_continuity(eliminate_constraints_fc(program).target)["continuous"] is False
    assert seen > 5


def test_equivalence_with_product_conjunction_constraint():
    # two-variable interaction bound: the constraint caps the product o * t
    source = parse_program(
        "t <-p max(neg1(o), neg2(w)) with 0.9;\n"
        "o <-g 0.5 with 1;\n"
        "w <-g 0.75 with 1;\n"
        "0.8 <-p and_p(o, t) with 1;\n"
    )
    rec = eliminate_constraints_fc(source)
    assert verify_equivalence(rec, 0.25)["bijection"] is True
    rec2 = to_manlp(rec.target)
    assert verify_equivalence(rec2, 0.25)["bijection"] is True


def test_verify_equivalence_budget():
    source = parse_program("p <-g neg1(q) with 1;\nq <-g neg1(p) with 1;")
    rec = eliminate_constraints_fc(source)
    with pytest.raises(BudgetExceeded):
        verify_equivalence(rec, 0.5, max_points=3)


def test_record_json_round_trip(motor):
    rec = eliminate_constraints_janssen(motor)
    data = rec.to_json()
    back = record_from_json(data, motor, rec.target)
    assert back.method == rec.method
    assert back.fresh_atoms == rec.fresh_atoms
    assert back.negation == rec.negation


@pytest.mark.parametrize("data, message", [
    ([1], "JSON object"),
    ({"fresh_atoms": []}, "unknown method"),
    ({"method": "fc", "negation": "neg3"}, "unknown negation"),
    ({"method": "fc", "fresh_atoms": {"name": "p_bot"}}, "must be a list"),
    ({"method": "fc", "fresh_atoms": [{"role": "bottom_witness"}]}, "needs a string name"),
    ({"method": "fc", "fresh_atoms": [{"name": "p_bot"}]}, "unknown role None"),
    ({"method": "janssen", "fresh_atoms": [{"name": "p_c_1", "role": "constant_witness"}]},
     "must be a number in"),
    ({"method": "manlp", "fresh_atoms": [{"name": "not_z", "role": "negation_witness",
                                          "source_atom": "z"}]}, "not a source atom"),
])
def test_malformed_record_raises(motor, data, message):
    from emalp import MalpError

    with pytest.raises(MalpError, match=message):
        record_from_json(data, motor, motor)


@pytest.mark.parametrize("max_iter, bijection, undecided", [(5, None, 1), (10_000, True, 0)])
def test_verify_equivalence_leaves_undecided_points_undecided(max_iter, bijection, undecided):
    source = parse_program("p <-p add(mul(p, 0.5), 0.5) with 1;\n1 <-g p with 1;")
    rec = eliminate_constraints_fc(source)
    report = verify_equivalence(rec, 0.5, max_iter=max_iter)
    assert report["bijection"] == ("indeterminate" if bijection is None else bijection)
    assert len(report["source_undecided"]) == len(report["target_undecided"]) == undecided
    assert report["source_count"] == report["target_count"] == 1 - undecided


def test_reports_list_each_interpretation_by_atom_name():
    # whatever order an interpretation was built in
    I = {"q": 1.0, "p": 0.0}
    trace = FixpointTrace((I, I), True).to_json()
    assert [list(m) for m in trace["iterates"]] == [["p", "q"]] * 2
    # whatever order the rules name the atoms in
    source = parse_program("q <-g neg1(p) with 1;\np <-g neg1(q) with 1;\n0.5 <-g p with 1;")
    report = verify_equivalence(eliminate_constraints_fc(source), 0.5)
    assert [list(m) for m in report["source_models"]] == [["p", "q"]] * 2
    assert [list(m) for m in report["target_models"]] == [["p", "p_bot", "q"]] * 2
