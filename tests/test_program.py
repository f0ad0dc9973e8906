import math
import random

import pytest
from hypothesis import given, strategies as st

from emalp import (
    Apply,
    Atom,
    Const,
    MalpError,
    Program,
    ProgramClass,
    RangeViolation,
    Rule,
    body_interval,
    eval_body,
    eval_expr,
    occurrences,
    parse_body,
    validate_program,
)
from emalp.program import op_spec
from genprog import random_body


def signs(body) -> dict[str, set[int]]:
    """Each atom of the body, with the signs its occurrences take."""
    out: dict[str, set[int]] = {}
    for o in occurrences(body):
        out.setdefault(o.atom, set()).add(o.sign)
    return out


def test_polarity_of_division_body(motor):
    assert signs(motor.rules[0].body) == {"q": {1}, "s": {-1}, "t": {-1}}


def test_polarity_double_negation():
    assert signs(parse_body("neg1(neg1(p))")) == {"p": {1}}


def test_polarity_mixed():
    assert signs(parse_body("max(p, neg1(p))")) == {"p": {1, -1}}


def test_polarity_sub_div_flip_second_argument():
    assert signs(parse_body("sub(p, q)")) == {"p": {1}, "q": {-1}}
    assert signs(parse_body("div1(p, q)")) == {"p": {1}, "q": {-1}}


def test_eval_body_examples(motor, model_m):
    assert eval_body(motor.rules[0].body, model_m) == pytest.approx(8 / 37, abs=1e-12)
    assert eval_body(motor.rules[1].body, model_m) == pytest.approx(math.sqrt(111) / 20,
                                                                    abs=1e-12)
    assert eval_body(Const(0.7), {}) == 0.7


def test_eval_body_is_homomorphic():
    rng = random.Random(7)
    env = {f"x{i}": rng.random() for i in range(1, 7)}
    for _ in range(200):
        body = random_body(rng, list(env), (0.0, 0.25, 0.5, 1.0))
        if isinstance(body, Apply):
            spec = op_spec(body.op)
            children = [eval_expr(a, env) for a in body.args]
            if spec.const_first:
                continue
            assert eval_expr(body, env) == spec.fn(*children)


def test_eval_body_range_violation():
    body = Apply("add", (Atom("p"), Atom("q")))
    with pytest.raises(RangeViolation):
        eval_body(body, {"p": 0.9, "q": 0.9})
    # boundary noise within tolerance is clamped instead
    assert eval_body(Apply("add", (Const(0.5), Const(0.5))), {}) == 1.0


def test_validation_rejects_mixed_polarity():
    program = Program((Rule(Atom("r"), "godel", parse_body("max(p, neg1(p))"), 1.0),))
    issues = validate_program(program)
    assert any("both polarities" in i for i in issues)


def test_validation_rejects_duplicates_without_override():
    program = Program((Rule(Atom("r"), "godel", parse_body("and_g(p, p)"), 1.0),))
    assert validate_program(program)
    assert not validate_program(program, allow_repeats=True)


def test_validation_constraint_weight_must_be_top():
    program = Program((Rule(Const(0.7), "lukasiewicz", Atom("p"), 0.5),))
    issues = validate_program(program)
    assert any("constraint weight" in i for i in issues)


@pytest.mark.parametrize("weight", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("head", [Atom("p"), Const(0.5)])
def test_validation_reports_non_finite_weights(head, weight):
    program = Program((Rule(head, "godel", Atom("q"), weight),))
    issues = list(validate_program(program))
    assert issues[0] == f"rule 0: weight {weight} outside [0, 1]"
    if head == Const(0.5) and not math.isnan(weight):
        assert issues[1:] == [f"rule 0: constraint weight must be 1, got {weight}"]
    else:
        assert issues[1:] == []


def test_validation_top_level_range():
    bad = Program((Rule(Atom("r"), "godel", parse_body("add(p, q)"), 1.0),))
    assert validate_program(bad)
    clamped = Program((Rule(Atom("r"), "godel", parse_body("min(add(p, q), 1)"), 1.0),))
    assert not validate_program(clamped)


def test_validation_negation_domain():
    bad = Program((Rule(Atom("r"), "godel", parse_body("neg2(add(p, q))"), 1.0),))
    issues = validate_program(bad)
    assert any("may leave [0, 1]" in i for i in issues)


def test_interval_analysis_examples(motor):
    lo, hi = body_interval(motor.rules[0].body)
    assert (lo, hi) == (0.0, 1.0)
    assert body_interval(Const(0.7)) == (0.7, 0.7)
    assert body_interval(parse_body("add(p, q)")) == (0.0, 2.0)
    assert body_interval(parse_body("sub(0.2, p)"))[0] == pytest.approx(-0.8)
    # a possibly negative numerator over a denominator touching zero is unbounded
    assert body_interval(parse_body("div1(sub(q, s), r)"))[0] == float("-inf")
    assert validate_program(
        Program((Rule(Atom("p"), "godel", parse_body("div1(sub(q, s), r)"), 1.0),)))


def test_classification(motor):
    assert motor.classify() is ProgramClass.EMALP
    assert not validate_program(motor)
    no_constraint = Program(motor.definite_rules())
    assert no_constraint.classify() is ProgramClass.CONSTRAINT_FREE
    manlp = Program((
        Rule(Atom("p"), "godel", parse_body("and_g(q, neg1(r))"), 1.0),
        Rule(Atom("q"), "product", parse_body("neg2(r)"), 0.5),
    ))
    assert manlp.classify() is ProgramClass.MANLP
    positive = Program((Rule(Atom("p"), "godel", parse_body("min(q, 0.5)"), 1.0),))
    assert positive.classify() is ProgramClass.POSITIVE
    assert Program(()).classify() is ProgramClass.POSITIVE


def test_classification_nested_negation_is_not_direct():
    # the order-reversing occurrence of q sits under arithmetic, not a negation
    program = Program((Rule(Atom("p"), "godel", parse_body("sub(1, q)"), 1.0),))
    assert program.classify() is ProgramClass.CONSTRAINT_FREE
    # triple negation is still a direct negation of the atom
    program = Program((Rule(Atom("p"), "godel", parse_body("neg1(neg1(neg1(q)))"), 1.0),))
    assert program.classify() is ProgramClass.MANLP


def test_positive_implies_no_negative_entries():
    from genprog import random_emalp

    rng = random.Random(12)
    seen_positive = 0
    for _ in range(80):
        program = random_emalp(rng, max_atoms=3, max_rules=3, max_constraints=1)
        negatives = any(o.sign < 0 for r in program.rules for o in occurrences(r.body))
        is_positive = program.classify() is ProgramClass.POSITIVE
        assert is_positive == (not negatives and not program.constraints())
        seen_positive += is_positive
    assert seen_positive > 0


@given(st.integers(0, 10 ** 6))
def test_polarity_soundness_by_sampling(seed):
    rng = random.Random(seed)
    atoms = ["x1", "x2", "x3"]
    body = random_body(rng, atoms, (0.0, 0.5, 1.0))
    base = {a: rng.random() for a in atoms}
    for atom, pol in signs(body).items():
        bumped = dict(base)
        bumped[atom] = min(1.0, base[atom] + rng.random() * (1.0 - base[atom]))
        lo, hi = eval_body(body, base), eval_body(body, bumped)
        if pol == {1}:
            assert lo <= hi + 1e-9
        elif pol == {-1}:
            assert hi <= lo + 1e-9


def test_atoms_cache_keeps_equality_and_hash(motor_text):
    from emalp import parse_program

    program, fresh = parse_program(motor_text), parse_program(motor_text)
    first = program.atoms()
    assert program.atoms() is first
    assert first == ("p", "q", "s", "t")
    assert program == fresh and hash(program) == hash(fresh)
    assert repr(program) == repr(fresh)
    assert fresh.atoms() == first


def test_reduct_atoms_drop_atoms_frozen_out_of_every_body():
    from emalp import parse_program, reduct, stable_operator

    program = parse_program("p <-g neg1(r) with 1;\nq <-g min(p, neg2(r)) with 1;\n")
    M = {"p": 0.5, "q": 0.5, "r": 0.25}
    assert program.atoms() == ("p", "q", "r")
    frozen = reduct(program, M)
    assert frozen.atoms() == ("p", "q")
    assert Program(frozen.rules).atoms() == ("p", "q")
    value, _ = stable_operator(program, M)
    assert sorted(value) == ["p", "q", "r"] and value["r"] == 0.0


def test_validation_issue_list_and_order():
    # one program that raises every message validation can report, in order:
    # names sorted, then weight, head, structure, range, mixed polarity in
    # order of first occurrence, repeats sorted by (atom, sign)
    def ap(op, *args):
        return Apply(op, args)

    program = Program((
        Rule(Atom("with"), "godel", ap("min", Atom("1x")), 1.5),
        Rule(Const(1.5), "lukasiewicz", ap("f", Atom("p"), Atom("q")), 0.5),
        Rule(Atom("p"), "godel", ap(
            "add",
            ap("add", Const(1.25), ap("neg1", ap("add", Atom("q"), Atom("q")))),
            ap("add", ap("sub", Atom("s"), Atom("s")),
               ap("mul", ap("sub", Atom("r"), Atom("r")), ap("min", Atom("p"), Atom("p"))))),
            1.0),
    ))
    repeats = [(2, "atom 'p' occurs 2 times with the same polarity"),
               (2, "atom 'q' occurs 2 times with the same polarity")]
    want = [
        (0, "invalid atom name '1x'"),
        (0, "invalid atom name 'with'"),
        (0, "weight 1.5 outside [0, 1]"),
        (0, "min applied to 1 arguments"),
        (1, "constraint head 1.5 outside [0, 1]"),
        (1, "constraint weight must be 1, got 0.5"),
        (1, "first argument of f must be a constant"),
        (2, "constant 1.25 outside [0, 1]"),
        (2, "argument of neg1 may leave [0, 1] (interval [0.0, 2.0])"),
        (2, "argument 2 of mul holds atoms, but argument 1 may be negative "
            "(interval [-1.0, 1.0])"),
        (2, "body may leave [0, 1] (interval [-0.75, 4.25])"),
        (2, "atom 's' occurs with both polarities"),
        (2, "atom 'r' occurs with both polarities"),
    ]
    issues = validate_program(program)
    assert issues == tuple(f"rule {i}: {m}" for i, m in want + repeats)
    assert program.classify() is ProgramClass.EMALP
    lenient = validate_program(program, allow_repeats=True)
    assert lenient == tuple(f"rule {i}: {m}" for i, m in want)


@pytest.mark.parametrize("body, message", [
    (Apply("neg1", (Atom("p"), Atom("q"))), "neg1 applied to 2 arguments"),
    (Apply("add", (Atom("p"), Atom("q"), Atom("r"))), "add applied to 3 arguments"),
    (Apply("foo", (Atom("p"),)), "unknown builtin: 'foo'"),
])
def test_validation_reports_malformed_hand_built_bodies(body, message):
    # the polarity walk skips a node it cannot sign, so the structural
    # check reports it instead of an IndexError or MalpError escaping
    issues = validate_program(Program((Rule(Atom("s"), "godel", body, 1.0),)))
    assert issues == (f"rule 0: {message}",)


def test_evaluation_refuses_an_unknown_builtin_and_a_missing_atom():
    with pytest.raises(MalpError, match=r"^unknown builtin: 'foo'$"):
        op_spec("foo")
    with pytest.raises(MalpError, match=r"^unknown builtin: 'foo'$"):
        eval_expr(Apply("foo", (Atom("p"),)), {"p": 0.5})
    with pytest.raises(MalpError, match=r"^interpretation is not total: missing atom 'q'$"):
        eval_expr(Apply("neg1", (Atom("q"),)), {"p": 0.5})


@pytest.mark.parametrize("body, issues", [
    ("add(mul(sub(0.5, r), q), 0.5)",
     ["argument 2 of mul holds atoms, but argument 1 may be negative (interval [-0.5, 0.5])"]),
    ("add(and_p(q, sub(0.5, r)), 0.5)",
     ["argument 1 of and_p holds atoms, but argument 2 may be negative (interval [-0.5, 0.5])"]),
    # the argument beside the signed one is a constant: no atom to turn over
    ("add(mul(sub(0.5, r), 0.5), 0.5)", []),
    ("mul(sub(1, r), q)", []),
    ("and_p(q, mul(r, 0.5))", []),
    # quotients: at r = 0 the first falls from 1 to 0 as q rises
    ("max(add(div1(q, sub(0, add(r, 0.5))), 1), 0)",
     ["argument 1 of div1 holds atoms, but argument 2 may be negative (interval [-1.5, -0.5])"]),
    ("add(div1(sub(0.5, r), add(q, 1)), 0.5)",
     ["argument 2 of div1 holds atoms, but argument 1 may be negative (interval [-0.5, 0.5])"]),
    ("div1(sub(1, r), add(q, 0.5))", []),
])
def test_validation_rejects_products_and_quotients_with_a_signed_operand(body, issues):
    # with r = 1 the first body falls from 0.5 to 0 as q rises: q is not
    # order-preserving there, whatever mul's declared polarity says
    program = Program((Rule(Atom("p"), "godel", parse_body(body), 1.0),))
    assert validate_program(program) == tuple(f"rule 0: {m}" for m in issues)
