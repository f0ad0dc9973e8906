import random

import pytest
from hypothesis import given, settings, strategies as st

from emalp import (
    Apply,
    Atom,
    Const,
    MalpError,
    ParseError,
    Program,
    Rule,
    ValidationFailure,
    parse_body,
    parse_program,
    serialize_program,
)
from emalp.program import format_value
from genprog import random_emalp


def test_parse_division_rule():
    program = parse_program("p <-p min(div1(q, add(add(s,t), 0.1)), 1) with 0.5;")
    rule = program.rules[0]
    assert rule == Rule(
        Atom("p"),
        "product",
        Apply("min", (
            Apply("div1", (Atom("q"), Apply("add", (Apply("add", (Atom("s"), Atom("t"))),
                                                    Const(0.1))))),
            Const(1.0),
        )),
        0.5,
    )


def test_parse_constraint():
    program = parse_program("0.7 <-l neg1(q) with 1;")
    rule = program.rules[0]
    assert rule.is_constraint
    assert rule.head == Const(0.7)
    assert rule.impl == "lukasiewicz"
    assert rule.weight == 1.0


def test_parse_fractions():
    program = parse_program("p <-g 9/85 with 8/37;")
    assert program.rules[0].body == Const(9 / 85)
    assert program.rules[0].weight == 8 / 37


@pytest.mark.parametrize("literal, message", [
    ("1" + "0" * 400 + "/1", "fraction too large for a float"),
    ("1" + "0" * 5000 + "/1", "fraction has too many digits"),   # past int's digit limit
    ("1/1" + "0" * 5000, "fraction has too many digits"),
], ids=["past-float", "long-numerator", "long-denominator"])
@pytest.mark.parametrize("text, line, col", [
    ("p <-g {} with 1;", 1, 7),
    ("p <-g q with\n  {};", 2, 3),
], ids=["body", "weight"])
def test_huge_fraction_is_a_parse_error(literal, message, text, line, col):
    with pytest.raises(ParseError) as err:
        parse_program(text.format(literal))
    assert (err.value.line, err.value.col, str(err.value)) == (line, col, f"{line}:{col}: {message}")


def test_tiny_fraction_reads_as_zero():
    assert parse_program("p <-g 1/1" + "0" * 400 + " with 1;").rules[0].body == Const(0.0)


def test_syntax_error_has_position():
    with pytest.raises(ParseError) as err:
        parse_program("p <-g q q with 1;")
    assert err.value.line == 1
    assert err.value.col > 1


def test_parse_errors():
    with pytest.raises(ParseError, match="unknown builtin"):
        parse_program("p <-g foo(q) with 1;")
    with pytest.raises(ParseError, match="applied to"):
        parse_program("p <-g neg1(q, s) with 1;")
    with pytest.raises(ParseError, match="applied to"):
        parse_program("p <-g min(q) with 1;")
    with pytest.raises(ParseError, match="outside"):
        parse_program("p <-g q with 1.5;")
    with pytest.raises(ParseError, match="outside"):
        parse_program("p <-g 3/2 with 1;")
    with pytest.raises(ParseError, match="^1:9: fraction denominator must be nonzero$"):
        parse_program("p <-g 1/0 with 1;")
    with pytest.raises(ParseError, match="must be a literal"):
        parse_program("p <-g f(q, s) with 1;")
    with pytest.raises(ParseError, match="implication tag"):
        parse_program("p <-x q with 1;")
    with pytest.raises(ParseError, match="unexpected character"):
        parse_program("p <-g q with 1!")


@pytest.mark.parametrize("text, message", [
    ("p q with 1;", "1:3: expected '<-', found 'q'"),
    ("p <-g 1/x with 1;", "1:9: expected 'number', found 'x'"),
    ("p <-g f(0.5 q) with 1;", "1:13: expected ')', found 'q'"),
    ("p <-g 0.5/2 with 1;", "1:7: fraction numerator must be an integer"),
    ("p <-g q with 1;\n  0.5/1 <-g q with 1;", "2:3: fraction numerator must be an integer"),
    ("p <-g 1/2.0 with 1;", "1:9: fraction denominator must be an integer"),
    ("p <-g ; with 1;", "1:7: expected an expression, found ';'"),
    ("p <-g min(q,\n  with) with 1;", "2:3: 'with' is reserved"),
    ("with <-g q with 1;", "1:1: expected a rule head, found 'with'"),
    ("p <-g q with 1;\n; ", "2:1: expected a rule head, found ';'"),
], ids=["expect-arrow", "expect-number", "expect-paren", "numerator", "numerator-line-2",
        "denominator", "expression", "with-reserved", "head-with", "head-punctuation"])
def test_syntax_errors_name_their_position(text, message):
    with pytest.raises(ParseError) as err:
        parse_program(text)
    assert str(err.value) == message
    assert message.startswith(f"{err.value.line}:{err.value.col}: ")


def test_validation_failures_raise_on_parse():
    with pytest.raises(ValidationFailure) as err:
        parse_program("p <-g max(q, neg1(q)) with 1;\n0.7 <-l p with 0.5;")
    assert err.value.issues == ("rule 0: atom 'q' occurs with both polarities",
                                "rule 1: constraint weight must be 1, got 0.5")
    assert str(err.value) == "; ".join(err.value.issues)
    with pytest.raises(ValidationFailure):
        parse_program("0.7 <-l p with 0.5;")
    with pytest.raises(ValidationFailure):
        parse_program("p <-g add(q, s) with 1;")
    # duplicate atoms accepted only with the override
    text = "p <-g and_g(q, q) with 1;"
    with pytest.raises(ValidationFailure):
        parse_program(text)
    assert len(parse_program(text, allow_repeats=True).rules) == 1


def test_comments_and_whitespace():
    program = parse_program("# header\np <-g q with 1;  # trailing\n\n# done\n")
    assert len(program.rules) == 1


def test_empty_program():
    assert parse_program("") == Program(())
    assert serialize_program(Program(())) == ""


def test_serialize_fact_golden():
    program = parse_program("s <-g 1 with 0.8;")
    assert serialize_program(program) == "s <-g 1 with 0.8;\n"


def test_round_trip_motor(motor, motor_text):
    assert parse_program(serialize_program(motor)) == motor


def test_round_trip_preserves_odd_values():
    program = parse_program("p <-p neg2(q) with 9/85;")
    assert parse_program(serialize_program(program)) == program


@settings(max_examples=60)
@given(st.integers(0, 10 ** 9))
def test_round_trip_random_programs(seed):
    rng = random.Random(seed)
    program = random_emalp(rng, max_atoms=4, max_rules=5, max_constraints=2,
                           values=(0.0, 0.25, 1 / 3, 0.5, 1.0))
    assert parse_program(serialize_program(program)) == program


@pytest.mark.parametrize("value", [1e-05, 9.99999999995449e-06, 5e-324])
def test_small_values_serialize_without_exponent(value):
    text = format_value(value)
    assert "e" not in text and float(text) == value
    program = Program((Rule(Atom("p"), "godel", Const(value), value),))
    assert parse_program(serialize_program(program)) == program


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
@pytest.mark.parametrize("make", [
    lambda v: Rule(Const(0.5), "godel", Atom("p"), v),
    lambda v: Rule(Const(v), "godel", Atom("p"), 1.0),
    lambda v: Rule(Atom("p"), "godel", Const(v), 1.0),
    lambda v: Rule(Atom("p"), "godel", Apply("min", (Atom("q"), Apply("neg1", (Const(v),)))), 1.0),
], ids=["weight", "constraint-head", "body", "nested-constant"])
def test_non_finite_values_are_refused(make, value):
    assert format_value(value) == repr(value)
    program = Program((Rule(Atom("q"), "godel", Const(0.5), 1.0), make(value)))
    with pytest.raises(MalpError, match=rf"^rule 1: cannot write the non-finite value {value}$"):
        serialize_program(program)


@settings(max_examples=60)
@given(st.integers(0, 10 ** 9), st.lists(st.floats(0, 1), min_size=1, max_size=4))
def test_round_trip_random_float_values(seed, values):
    rng = random.Random(seed)
    program = random_emalp(rng, max_atoms=4, max_rules=5, max_constraints=2,
                           values=tuple(values))
    assert parse_program(serialize_program(program)) == program


def test_threshold_call_after_matching_tag():
    # the tag and the threshold builtin share the letter g
    program = parse_program("p <-g g(0.5, q) with 1;")
    assert program.rules[0].body == Apply("g", (Const(0.5), Atom("q")))


def test_programmatic_atom_names_validated():
    from emalp import Rule, validate_program

    bad = Program((Rule(Atom("with"), "godel", Const(0.5), 1.0),))
    assert any("invalid atom name" in i for i in validate_program(bad))
    worse = Program((Rule(Atom("a b"), "godel", Const(0.5), 1.0),))
    assert validate_program(worse)


def test_parse_body_helper():
    assert parse_body("min(p, q, 0.5)") == Apply("min", (Atom("p"), Atom("q"), Const(0.5)))
    with pytest.raises(ParseError):
        parse_body("min(p, q) trailing")


def _nested(depth, op="neg1"):
    return f"{op}(" * depth + "p" + ")" * depth


def test_depth_limit_accepts_a_body_at_the_limit():
    from emalp.parser import MAX_DEPTH

    program = parse_program(f"q <-g {_nested(MAX_DEPTH)} with 1;\n")
    assert parse_program(serialize_program(program)) == program
    body = "max(" * MAX_DEPTH + "p" + ", 0.5)" * MAX_DEPTH
    assert str(parse_body(body)) == body


@pytest.mark.parametrize("extra", [1, 3000])
def test_depth_limit_raises_parse_error(extra):
    from emalp.parser import MAX_DEPTH

    with pytest.raises(ParseError) as info:
        parse_program(f"q <-g {_nested(MAX_DEPTH + extra)} with 1;\n")
    err = info.value
    assert (err.line, err.col) == (1, 7 + 5 * MAX_DEPTH)   # the first application too deep
    assert "nested deeper" in str(err)
    with pytest.raises(ParseError):
        parse_body(_nested(MAX_DEPTH + extra, "neg2"))
