"""Seeded program generators for the benchmark, written as .malp text.

The benchmark keeps its own generator so that an edit to the test
helpers cannot silently change the workloads.  Programs are built as
DSL text and reach emalp only as files.

Every body uses each atom at most once, and every order-reversing atom
occurrence sits directly under a negation (applied to the atom or to a
min/max clamp of it), so each program is in the antitone class that
well-founded bracketing can prune.  Bodies use only operators that keep
values in [0, 1], so every generated program validates.
"""

from __future__ import annotations

import random

MOTOR_TEXT = """\
p <-p min(div1(q, add(add(s, t), 0.1)), 1) with 0.5;
q <-p max(neg1(s), neg2(t)) with 0.6;
0.7 <-l neg1(q) with 1;
s <-g 1 with 0.8;
t <-g max(s, 0.7) with 0.8;
"""

# The worked example: N is a stable model of the motor program, M is a
# model that is not stable.
WORKED_N = {"p": 9 / 85, "q": 0.36, "s": 0.8, "t": 0.8}
WORKED_M = {"p": 0.25, "q": 0.4, "s": 0.9, "t": 0.85}

GRID_VALUES = (0.0, 0.25, 0.5, 0.75, 1.0)
WEIGHTS = (0.5, 0.75, 1.0)
TAGS = {"godel": "g", "product": "p", "lukasiewicz": "l"}
CLAMPS = ("min", "max")


class Style:
    """The operators, negations and implications a program may use."""

    def __init__(self, ops, negs, impls):
        self.ops, self.negs, self.impls = ops, negs, impls


FULL = Style(("min", "max", "and_g", "and_p", "and_l", "or_l"), ("neg1", "neg2"), tuple(TAGS))
# Everything here maps the 0.25 grid into itself, so fixpoints, and
# hence stable models, of such programs lie on that grid.
ON_GRID = Style(("min", "max", "and_g", "and_l", "or_l"), ("neg1",), ("godel", "lukasiewicz"))


def lit(v: float) -> str:
    return f"{v:g}"


def body(rng: random.Random, atoms: list[str], style: Style, leaves: int = 0) -> str:
    """`leaves` atom leaves (0: one to three, fewer if fewer atoms), maybe a constant."""
    k = leaves or min(len(atoms), rng.randint(1, 3))
    parts = []
    for a in rng.sample(atoms, k):
        roll = rng.random()
        if roll < 0.45:
            parts.append(a)
        elif roll < 0.85:
            parts.append(f"{rng.choice(style.negs)}({a})")
        else:
            clamp = f"{rng.choice(CLAMPS)}({a}, {lit(rng.choice(GRID_VALUES))})"
            parts.append(f"{rng.choice(style.negs)}({clamp})")
    if not parts or rng.random() < 0.4:
        parts.append(lit(rng.choice(GRID_VALUES)))
    rng.shuffle(parts)
    out = parts[0]
    for part in parts[1:]:
        out = f"{rng.choice(style.ops)}({out}, {part})"
    return out


def program(rng: random.Random, n_atoms: int, style: Style, *, extra_rules: int,
            constraints: int, cycle: bool, stratified: bool, leaves: int = 0) -> str:
    """A program over exactly x1..x<n_atoms>, each atom heading a rule.

    With `cycle`, two atoms form an even negation cycle (and head no
    other rule), the usual source of several stable models and of
    iterate-mode searches that never settle.  With `stratified`, the
    body of a rule for x<i> uses only atoms below x<i>, so apart from the
    cycle the stable operator settles within a few steps on a unique
    model.  Constraint constants are distinct.  `leaves` fixes the atom
    leaves per body (see `body`).
    """
    atoms = [f"x{i}" for i in range(1, n_atoms + 1)]
    rules = []
    heads = list(atoms)
    if cycle:
        a, b = rng.sample(atoms, 2)
        rules.append(f"{a} <-g neg1({b}) with 1;")
        rules.append(f"{b} <-g neg1({a}) with 1;")
        heads.remove(a)
        heads.remove(b)
    heads += [rng.choice(heads) for _ in range(extra_rules)]
    for head in heads:
        scope = atoms[:atoms.index(head)] if stratified else atoms
        tag = TAGS[rng.choice(style.impls)]
        text = body(rng, scope, style, leaves if len(scope) >= leaves else 0)
        rules.append(f"{head} <-{tag} {text} with {lit(rng.choice(WEIGHTS))};")
    for c in rng.sample(GRID_VALUES[1:-1], constraints):
        tag = TAGS[rng.choice(style.impls)]
        rules.append(f"{lit(c)} <-{tag} {body(rng, atoms, style, leaves)} with 1;")
    return "\n".join(rules) + "\n"


def interpretation(rng: random.Random, n_atoms: int) -> dict[str, float]:
    return {f"x{i}": round(rng.random(), 6) for i in range(1, n_atoms + 1)}


# ---------------------------------------------------------------------------
# program pools
#
# Each pool entry is a program (and, for iterate_verify, one seeded
# interpretation) fixed by the pool's name and the entry's index, so the
# expected answers can be recorded once for every entry.  A run's seed
# chooses which entries it uses and in what order.

POOL_SEED = 20241007


def _rng(kind: str, index: int) -> random.Random:
    return random.Random(f"{POOL_SEED}:{kind}:{index}")


def grid_program(n_atoms: int, index: int) -> str:
    """grid_search input: genprog-like (any atom in any body), with a cycle."""
    rng = _rng(f"grid{n_atoms}", index)
    return program(rng, n_atoms, FULL, extra_rules=2, constraints=1, cycle=True,
                   stratified=False, leaves=2)


def equiv_program(constraints: int, index: int) -> str:
    """equiv_chain input: three atoms and 1 or 2 constraints, on the grid."""
    rng = _rng(f"equiv{constraints}", index)
    return program(rng, 3, ON_GRID, extra_rules=1, constraints=constraints,
                   cycle=rng.random() < 0.3, stratified=True)


def iterate_program(n_atoms: int, cycle: bool, index: int) -> tuple[str, dict[str, float]]:
    """iterate_verify input and a seeded interpretation of it."""
    rng = _rng(f"iterate{n_atoms}{'c' if cycle else 's'}", index)
    text = program(rng, n_atoms, FULL, extra_rules=2, constraints=1, cycle=cycle,
                   stratified=True, leaves=2)
    return text, interpretation(rng, n_atoms)
