"""Differential tests of the shared body walks.

`reduct` and `to_manlp` rebuild bodies through `program.rewrite`, and
`body_interval` is validation's interval walk.  Their oracles are in
`reference.py`: the reduct and the manlp rewiring written on trees,
and the interval extension with the hand-written rule each operator
had before most of them became their own function at the polarity
corners.  Every seeded program and motor must give equal trees and
equal intervals.
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
    reduct,
    to_manlp,
    validate_program,
)
from emalp.program import body_ops

import reference
from genprog import WRAPS, flipped, random_emalp

N_PROGRAMS = 300

_rng = random.Random(2024)
PROGRAMS = [random_emalp(_rng, max_atoms=4, max_rules=5, max_constraints=2)
            for _ in range(N_PROGRAMS)]


def assert_reduct_matches(program, M, tol=1e-9):
    assert reduct(program, M, tol) == reference.reduct(program, M, tol)


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
        assert not validate_program(program)
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
                       eliminate_constraints_fc(program)[0],
                       eliminate_constraints_janssen(program)[0]):
            target, rec = to_manlp(source)
            witnesses = {a["source_atom"]: a["name"] for a in rec["fresh_atoms"]}
            want = reference.rewire(source, witnesses, "neg1").rules
            assert target.rules[:len(source.rules)] == want
            rewired += bool(rec["fresh_atoms"])
    assert rewired > N_PROGRAMS


def test_body_interval_matches_oracle(motor):
    for program in PROGRAMS + [motor]:
        for source in (program, eliminate_constraints_fc(program)[0],
                       eliminate_constraints_janssen(program)[0]):
            assert not validate_program(source)
            for r in source.rules:
                for node in (r.body, *body_ops(r.body)):
                    assert body_interval(node) == reference.interval(node)


@pytest.mark.parametrize("body, old, new", [
    # a negation argument that may leave [0, 1] is clamped, as validation does
    (Apply("neg1", (Apply("add", (Atom("p"), Atom("q"))),)), (-1.0, 1.0), (0.0, 1.0)),
    (Apply("min", (Apply("neg1", (Apply("add", (Atom("p"), Atom("q"))),)), Const(0.5))),
     (-1.0, 0.5), (0.0, 0.5)),
])
def test_body_interval_clamps_lattice_arguments(body, old, new):
    assert reference.interval(body) == old
    assert body_interval(body) == new
    assert validate_program(Program((Rule(Atom("r"), "godel", body, 1.0),)))
