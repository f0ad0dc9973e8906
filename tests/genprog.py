"""Seeded random program generation for property and acceptance tests.

Bodies use each atom at most once, draw constants from a declared value
grid, and apply negations either directly to atoms or to a small
min/max clamp of one, so every order-reversing occurrence is mediated
by a negation operator.  All generated programs validate.
"""

import random

from emalp import Apply, Atom, Const, Program, Rule, validate_program

ATOM_POOL = ["x1", "x2", "x3", "x4", "x5", "x6"]
BINARY_OPS = ["min", "max", "and_g", "and_p", "and_l", "or_l"]
IMPLICATIONS = ["godel", "product", "lukasiewicz"]


def random_body(rng: random.Random, atoms, values, max_leaves=3):
    k = rng.randint(0, min(max_leaves, len(atoms)))
    leaves = []
    for a in rng.sample(atoms, k):
        roll = rng.random()
        if roll < 0.45:
            leaves.append(Atom(a))
        elif roll < 0.85:
            leaves.append(Apply(rng.choice(["neg1", "neg2"]), (Atom(a),)))
        else:
            clamp = Apply(rng.choice(["min", "max"]), (Atom(a), Const(rng.choice(values))))
            leaves.append(Apply(rng.choice(["neg1", "neg2"]), (clamp,)))
    if not leaves or rng.random() < 0.4:
        leaves.append(Const(rng.choice(values)))
    rng.shuffle(leaves)
    body = leaves[0]
    for leaf in leaves[1:]:
        body = Apply(rng.choice(BINARY_OPS), (body, leaf))
    return body


def random_emalp(rng: random.Random, max_atoms=3, max_rules=4, max_constraints=1,
                 values=(0.0, 0.5, 1.0), cycle_prob=0.25):
    atoms = ATOM_POOL[: rng.randint(1, max_atoms)]
    weights = [v for v in values if v > 0.0] or [1.0]
    rules = []
    if len(atoms) >= 2 and rng.random() < cycle_prob:
        # an even negation cycle, the usual source of multiple stable models
        a, b = rng.sample(atoms, 2)
        rules.append(Rule(Atom(a), "godel", Apply("neg1", (Atom(b),)), 1.0))
        rules.append(Rule(Atom(b), "godel", Apply("neg1", (Atom(a),)), 1.0))
    for _ in range(rng.randint(1, max_rules)):
        rules.append(Rule(Atom(rng.choice(atoms)), rng.choice(IMPLICATIONS),
                          random_body(rng, atoms, values), rng.choice(weights)))
    for _ in range(rng.randint(0, max_constraints)):
        rules.append(Rule(Const(rng.choice(values)), rng.choice(IMPLICATIONS),
                          random_body(rng, atoms, values), 1.0))
    program = Program(tuple(rules))
    issues = validate_program(program)
    assert not issues, issues
    return program


def flipped(program, wrap):
    """The program with every body B replaced by wrap(B), so that its
    negations also sit at order-reversing positions."""
    return Program(tuple(Rule(r.head, r.impl, wrap(r.body), r.weight) for r in program.rules))


WRAPS = (
    lambda b: Apply("neg1", (Apply("neg1", (b,)),)),
    lambda b: Apply("sub", (Const(1.0), Apply("neg2", (b,)))),
)
