"""Differential tests of the shared body walks.

`reduct` and `to_manlp` rebuild bodies through `program.rewrite`, and
`body_interval` is validation's interval walk.  The standalone
recursions they replaced are kept here as oracles, as
`brute_force_candidates` is kept for the grid walk, and the interval
oracle keeps the hand-written rule each operator had before most of
them became their own function at the polarity corners: every seeded
program and motor must give equal trees and equal intervals.
"""

import random

import pytest

from emalp import (
    Apply,
    Atom,
    Const,
    Program,
    Rule,
    body_interval,
    eliminate_constraints_fc,
    eliminate_constraints_janssen,
    eval_expr,
    reduct,
    to_manlp,
    validate_program,
)
from emalp.lattice import neg2
from emalp.program import body_ops, occurrences, op_spec

from genprog import random_emalp

N_PROGRAMS = 300


def freeze_oracle(node, sign, M, tol):
    if isinstance(node, (Const, Atom)):
        return node
    if node.op in ("neg1", "neg2"):
        occs = occurrences(node, sign)
        if occs and all(o.sign < 0 for o in occs):
            return Const(eval_expr(node, M, tol))
    spec = op_spec(node.op)
    return Apply(node.op, tuple(
        freeze_oracle(arg, sign * spec.polarity(i), M, tol) for i, arg in enumerate(node.args)
    ))


def rewire_oracle(node, sign, witnesses, neg):
    if isinstance(node, Const):
        return node
    if isinstance(node, Atom):
        if sign < 0 and node.name in witnesses:
            return Apply(neg, (Atom(witnesses[node.name]),))
        return node
    spec = op_spec(node.op)
    return Apply(node.op, tuple(
        rewire_oracle(a, sign * spec.polarity(i), witnesses, neg) for i, a in enumerate(node.args)
    ))


def _corners(ivs):
    (a, b), (c, d) = ivs
    return (a * c, a * d, b * c, b * d)


def _threshold(ivs):
    (c, _), (lo, hi) = ivs
    return (0.0, 0.0) if hi <= c else (1.0, 1.0) if lo > c else (0.0, 1.0)


def _div1(ivs):
    (a, b), (c, d) = ivs
    if c > 0.0 or d < 0.0:
        q = (a / c, a / d, b / c, b / d)
        return (min(1.0, min(q)), min(1.0, max(q)))
    if a < 0.0 or c < 0.0:
        return (float("-inf"), 1.0)
    return (1.0, 1.0) if d == 0.0 else (min(1.0, a / d), 1.0)


# one hand-written interval rule per operator, as validation had them
OLD_INTERVALS = {
    "min": lambda ivs: (min(lo for lo, _ in ivs), min(hi for _, hi in ivs)),
    "max": lambda ivs: (max(lo for lo, _ in ivs), max(hi for _, hi in ivs)),
    "and_g": lambda ivs: (min(ivs[0][0], ivs[1][0]), min(ivs[0][1], ivs[1][1])),
    "and_p": lambda ivs: (min(_corners(ivs)), max(_corners(ivs))),
    "mul": lambda ivs: (min(_corners(ivs)), max(_corners(ivs))),
    "and_l": lambda ivs: (max(0.0, ivs[0][0] + ivs[1][0] - 1.0),
                          max(0.0, ivs[0][1] + ivs[1][1] - 1.0)),
    "or_l": lambda ivs: (min(1.0, ivs[0][0] + ivs[1][0]), min(1.0, ivs[0][1] + ivs[1][1])),
    "add": lambda ivs: (ivs[0][0] + ivs[1][0], ivs[0][1] + ivs[1][1]),
    "sub": lambda ivs: (ivs[0][0] - ivs[1][1], ivs[0][1] - ivs[1][0]),
    "div1": _div1,
    "neg1": lambda ivs: (1.0 - ivs[0][1], 1.0 - ivs[0][0]),
    "neg2": lambda ivs: (neg2(min(1.0, max(0.0, ivs[0][1]))), neg2(min(1.0, max(0.0, ivs[0][0])))),
    "f": _threshold,
    "g": _threshold,
}


def interval_oracle(body):
    if isinstance(body, Const):
        return (body.value, body.value)
    if isinstance(body, Atom):
        return (0.0, 1.0)
    return OLD_INTERVALS[body.op]([interval_oracle(a) for a in body.args])


_rng = random.Random(2024)
PROGRAMS = [random_emalp(_rng, max_atoms=4, max_rules=5, max_constraints=2)
            for _ in range(N_PROGRAMS)]


def flipped(program, wrap):
    """The program with every body B replaced by wrap(B), so that its
    negations also sit at order-reversing positions."""
    return Program(tuple(Rule(r.head, r.impl, wrap(r.body), r.weight) for r in program.rules))


WRAPS = (
    lambda b: Apply("neg1", (Apply("neg1", (b,)),)),
    lambda b: Apply("sub", (Const(1.0), Apply("neg2", (b,)))),
)


def assert_reduct_matches(program, M, tol=1e-9):
    want = Program(tuple(Rule(r.head, r.impl, freeze_oracle(r.body, 1, M, tol), r.weight)
                         for r in program.rules))
    assert reduct(program, M, tol) == want


def assert_manlp_matches(program):
    rec = to_manlp(program)
    witnesses = rec.negation_witnesses
    rewired = [Rule(r.head, r.impl, rewire_oracle(r.body, 1, witnesses, "neg1"), r.weight)
               for r in program.rules]
    assert rec.target.rules[:len(program.rules)] == tuple(rewired)


def test_reduct_matches_oracle(motor, model_m, model_n):
    rng = random.Random(7)
    for program in PROGRAMS:
        for values in ((0.0, 0.5, 1.0), (0.25, 0.75)):
            assert_reduct_matches(program, {a: rng.choice(values) for a in program.atoms()})
        assert_reduct_matches(program, {a: rng.random() for a in program.atoms()})
    for M in (model_m, model_n):
        assert_reduct_matches(motor, M)
        for wrap in WRAPS:
            assert_reduct_matches(flipped(motor, wrap), M)


@pytest.mark.parametrize("wrap", WRAPS, ids=["neg1-neg1", "sub-neg2"])
def test_reduct_matches_oracle_under_reversed_positions(wrap):
    rng = random.Random(11)
    for program in PROGRAMS:
        program = flipped(program, wrap)
        assert validate_program(program).ok
        assert_reduct_matches(program, {a: rng.random() for a in program.atoms()})


def test_reduct_freezes_something_on_most_programs():
    # guards the oracle comparison against a vacuous pass
    frozen = 0
    for program in PROGRAMS:
        M = {a: 0.5 for a in program.atoms()}
        frozen += reduct(program, M) != program
    assert frozen > N_PROGRAMS // 2


def test_manlp_rewiring_matches_oracle(motor):
    rewired = 0
    for program in PROGRAMS + [motor]:
        for source in (Program(program.definite_rules()),
                       eliminate_constraints_fc(program).target,
                       eliminate_constraints_janssen(program).target):
            assert_manlp_matches(source)
            rewired += bool(to_manlp(source).fresh_atoms)
    assert rewired > N_PROGRAMS


def test_body_interval_matches_oracle(motor):
    for program in PROGRAMS + [motor]:
        for source in (program, eliminate_constraints_fc(program).target,
                       eliminate_constraints_janssen(program).target):
            assert validate_program(source).ok
            for r in source.rules:
                for node in (r.body, *body_ops(r.body)):
                    assert body_interval(node) == interval_oracle(node)


@pytest.mark.parametrize("body, old, new", [
    # a negation argument that may leave [0, 1] is clamped, as validation does
    (Apply("neg1", (Apply("add", (Atom("p"), Atom("q"))),)), (-1.0, 1.0), (0.0, 1.0)),
    (Apply("min", (Apply("neg1", (Apply("add", (Atom("p"), Atom("q"))),)), Const(0.5))),
     (-1.0, 0.5), (0.0, 0.5)),
])
def test_body_interval_clamps_lattice_arguments(body, old, new):
    assert interval_oracle(body) == old
    assert body_interval(body) == new
    assert not validate_program(Program((Rule(Atom("r"), "godel", body, 1.0),))).ok
