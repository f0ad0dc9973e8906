"""Satisfaction, models, reducts, fixpoints, and stable models.

An interpretation is a plain dict mapping every propositional symbol of
a program to a value in [0, 1]; constants evaluate to themselves.

The reduct of a program with respect to an interpretation M freezes
negation: every maximal negation subtree all of whose atoms the body
consumes antitonely is replaced by the constant it evaluates to under
M.  Antitone dependencies built from arithmetic alone (a subtrahend, a
divisor) are left in place; at a fixpoint the two readings agree, and
for programs whose order-reversing occurrences are all negation-mediated
(in particular every MANLP) the reduct is a positive program.

Least models are computed by Kleene iteration of the immediate
consequence operator from the bottom interpretation, with a tolerance
and an iteration cap; non-convergence is a flagged result, never an
exception.  The operators run on an analysis made once per program and
tolerance: the definite bodies compiled to closures, their freeze sites,
and the rules split by their heads' levels in the reduct.  The stable
operator evaluates the sites at M and runs the program's own closures
on those values, so it builds no reduct.  For search steps and verdicts
its value comes from one pass over the heads of finite level, in level
order as for a stratified program, then Kleene iteration of the rules
on or downstream of a cycle alone (of every rule from bottom, when T
is not monotone or the cap leaves the pass no room).  `reduct` builds
its trees with `rewrite` alone and reads no analysis.  Constraints
never feed the operator (they have no head atom to update); a verdict
reads any from the reduct, unless the operator's value converged away from M.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter, deque
from dataclasses import dataclass
from operator import sub
from typing import Iterator, Mapping, MutableSequence, Optional

from .lattice import DEFAULT_TOL, eval_conjunctor, eval_implication, grid_count, lattice_grid
from .program import (
    Compiled,
    MalpError,
    Program,
    Rule,
    compile_body,
    eval_body,
    eval_expr,
    freeze,
)

__all__ = [
    "BudgetExceeded",
    "DEFAULT_MAX_ITER",
    "FixpointTrace",
    "StableSearchConfig",
    "bottom_interpretation",
    "find_stable_models",
    "immediate_consequence",
    "interp_distance",
    "is_stable",
    "least_model",
    "reduct",
    "satisfies",
    "stable_operator",
    "top_interpretation",
]

DEFAULT_MAX_ITER = 10_000
DEFAULT_BUDGET = 2_000_000   # grid points one search or check may enumerate
PREFILTER_TOL = 1e-6   # slack of the grid fixpoint prune |T(M)[a] - M[a]|

Interpretation = dict[str, float]


def bottom_interpretation(atoms) -> Interpretation:
    return {a: 0.0 for a in atoms}


def top_interpretation(atoms) -> Interpretation:
    return {a: 1.0 for a in atoms}


def interp_distance(a: Mapping[str, float], b: Mapping[str, float]) -> float:
    if not a:
        return 0.0
    return max(abs(a[k] - b[k]) for k in a)


def sorted_interp(I: Mapping[str, float]) -> Interpretation:   # as every report lists I
    return dict(sorted(I.items()))


def require_total(I: Mapping[str, float], program: Program) -> tuple[str, ...]:
    names = program.atoms()
    missing = [a for a in names if a not in I]
    if missing:
        raise MalpError(f"interpretation is not total: missing {', '.join(missing)}")
    return names


def rule_check(I: Mapping[str, float], rule: Rule,
               tol: float = DEFAULT_TOL) -> tuple[float, float, bool]:
    """The body's value under I, the implication head <-i body, and whether
    weight <= that implication, with tolerance."""
    body_value = eval_body(rule.body, I, tol)
    head_value = rule.head.value if rule.is_constraint else I[rule.head.name]
    implication = eval_implication(rule.impl, head_value, body_value)
    return body_value, implication, rule.weight <= implication + tol


def satisfies(I: Mapping[str, float], rule: Rule, tol: float = DEFAULT_TOL) -> bool:
    """weight <= (head <-i body) under I, with tolerance."""
    return rule_check(I, rule, tol)[2]


# ---------------------------------------------------------------------------
# reduct


def reduct(program: Program, M: Mapping[str, float], tol: float = DEFAULT_TOL) -> Program:
    """Freeze every negation subtree at its value under M; heads and weights unchanged.

    Each freeze site (`is_freeze_site`) becomes the constant eval_expr
    gives it at M; a rule with no order-reversing occurrence has none and
    is kept as it is.  The reduct is a plain program: whatever runs T on
    it compiles it from its own rules.
    """
    require_total(M, program)
    return Program(tuple(
        Rule(r.head, r.impl, freeze(r.body, lambda site: eval_expr(site, M, tol)), r.weight)
        if any(o.sign < 0 for o in occs) else r
        for r, occs in zip(program.rules, program.rule_occurrences())
    ))


# ---------------------------------------------------------------------------
# the compiled analysis


Rules = tuple[tuple[str, str, float, Compiled], ...]


@dataclass(frozen=True)
class _Analysis:
    """What the operators need of a program, derived once per (program, tol).

    The definite rules, in program order, as (head, implication, weight,
    compiled body): read with frozen=None a body is the program's as
    written, read with the values of the freeze `sites` at M it is the
    reduct's.  Constraint bodies are not compiled (no operator reads
    them), so the sites are the definite bodies' alone.  `by_level` holds
    the rules whose heads have a finite level (`Program.levels`), stably
    sorted by it, and `top` is the highest finite level (0 if none);
    `cyclic` holds the rest, those on or downstream of a cycle, in program
    order.  If `levels` names an antitone rule, every rule is cyclic and
    `top` 0: T is not monotone, so only Kleene's run reads it.
    """
    rules: Rules
    sites: tuple[Compiled, ...]
    by_level: Rules
    cyclic: Rules
    top: int


def _analysis(program: Program, tol: float) -> _Analysis:
    analyses = program.derived("analyses", dict)   # by tol
    if tol in analyses:
        return analyses[tol]   # allocates nothing
    sites: list[Compiled] = []
    rules = [(r.head.name, r.impl, r.weight, compile_body(r.body, tol, sites))
             for r in program.definite_rules()]
    level, antitone = program.levels()
    top = max((n for n in level.values() if n < math.inf), default=0)
    by_level = tuple(sorted((r for r in rules if level[r[0]] <= top), key=lambda r: level[r[0]]))
    cyclic = tuple(r for r in rules if level[r[0]] > top)
    if antitone is not None:
        by_level, cyclic, top = (), tuple(rules), 0
    analyses[tol] = _Analysis(tuple(rules), tuple(sites), by_level, cyclic, top)
    return analyses[tol]


# ---------------------------------------------------------------------------
# fixpoints


@dataclass(frozen=True)
class FixpointTrace:
    iterates: tuple[Interpretation, ...]
    converged: bool

    @property
    def iterations(self) -> int:
        return len(self.iterates) - 1

    def to_json(self) -> dict:
        return {
            "iterates": [sorted_interp(i) for i in self.iterates],
            "converged": self.converged,
            "iterations": self.iterations,
        }


def immediate_consequence(program: Program, I: Mapping[str, float],
                          tol: float = DEFAULT_TOL,
                          frozen: Optional[tuple[float, ...]] = None) -> Interpretation:
    """T(I): atom-wise sup of weight &_i body over the atom-headed rules.

    Atoms with no rule map to bottom (the sup over an empty set).  Given
    the freeze sites' values at M as `frozen`, it is the T of reduct(P, M).
    """
    return _raise_heads(_analysis(program, tol).rules, I, frozen, dict.fromkeys(I, 0.0))


def _raise_heads(rules: Rules, I, frozen, out: Interpretation) -> Interpretation:
    """Raise out[head] to each rule's weight &_i body(I), in order; I may be out."""
    for head, impl, weight, body in rules:
        v = eval_conjunctor(impl, weight, body(I, frozen))
        if head not in out or v > out[head]:
            out[head] = v
    return out


def least_model(program: Program, tol: float = DEFAULT_TOL,
                max_iter: int = DEFAULT_MAX_ITER,
                frozen: Optional[tuple[float, ...]] = None) -> tuple[Interpretation, FixpointTrace]:
    """Kleene iteration of T from the bottom interpretation, stopped by
    `_kleene`, else flagged unconverged at the cap: the least model when the
    program is positive.  `frozen` goes to every T step."""
    iterates = [bottom_interpretation(program.atoms())]
    converged = not iterates[0] or _kleene(
        lambda I: immediate_consequence(program, I, tol, frozen), iterates, tol, max_iter)
    return iterates[-1], FixpointTrace(tuple(iterates), converged)


def _kleene(T, iterates: MutableSequence[Interpretation], tol: float, max_iter: int) -> bool:
    """Append up to max_iter iterates of T to `iterates`, from its last; whether
    it stopped first.  It stops at an iterate I with T(I) == I, or with
    |T(I) - I| < tol and T(X) <= X for X = T(I) raised by tol where it differs
    from I: for a monotone T iterated from below its least fixpoint, that
    fixpoint then lies between T(I), which is appended, and X."""
    I = iterates[-1]
    for _ in range(max_iter):
        J = T(I)
        iterates.append(J)    # a new dict, never mutated, in the order of I
        if J == I:
            return True
        if max(map(abs, map(sub, I.values(), J.values()))) < tol:
            X = {a: v if v == I[a] else min(1.0, v + tol) for a, v in J.items()}
            if all(v <= X[a] for a, v in T(X).items()):
                return True
        I = J
    return False


def stable_operator(program: Program, M: Mapping[str, float], tol: float = DEFAULT_TOL,
                    max_iter: int = DEFAULT_MAX_ITER) -> tuple[Interpretation, FixpointTrace]:
    """Least model of the constraint-free part of the reduct with respect to M.

    Its fixpoints that satisfy the frozen constraints are exactly the
    stable models.  T reads each freeze site as its value at M, so the
    reduct's trees are never built.
    """
    require_total(M, program)
    frozen = tuple(site(M, None) for site in _analysis(program, tol).sites)
    return least_model(program, tol, max_iter, frozen=frozen)


def _stable_value(program: Program, M: Mapping[str, float], tol: float,
                  max_iter: int) -> tuple[Interpretation, bool]:
    """The stable operator's value at M and whether it converged.

    A pass over `by_level` sets the heads of finite level to their final
    values, from the calls Kleene's step `top` makes, and counts as `top`
    steps; Kleene iteration of the `cyclic` rules alone, which is T's from
    there, runs for the other max_iter - top.  A cap of at most `top` leaves
    the pass no room: then all rules are iterated from bottom, as Kleene does.
    The value is Kleene's where both stop at T(I) == I, within tol where one does.
    """
    J = dict.fromkeys(require_total(M, program), 0.0)
    analysis = _analysis(program, tol)
    by_level, cyclic, top = ((analysis.by_level, analysis.cyclic, analysis.top)
                             if max_iter > analysis.top else ((), analysis.rules, 0))
    frozen = tuple(site(M, None) for site in analysis.sites)
    iterates = deque([_raise_heads(by_level, J, frozen, J)], maxlen=1)   # the last only
    bottom = dict.fromkeys([r[0] for r in cyclic], 0.0)
    converged = not bottom or _kleene(lambda I: _raise_heads(
        cyclic, I, frozen, {**I, **bottom}), iterates, tol, max_iter - top)
    return iterates[-1], converged


def is_stable(program: Program, M: Mapping[str, float], tol: float = DEFAULT_TOL,
              max_iter: int = DEFAULT_MAX_ITER) -> Optional[bool]:
    """True/False verdict, or None when the inner fixpoint fails to converge."""
    # M is stable when it is the operator's fixpoint and satisfies the reduct's
    # constraints, built only if there are some (ROADMAP item 23 drops it)
    value, converged = _stable_value(program, M, tol, max_iter)
    if converged and interp_distance(value, M) > tol:
        return False
    if program.constraints() and not all(
            satisfies(M, r, tol) for r in reduct(program, M, tol).constraints()):
        return False
    return True if converged else None


# ---------------------------------------------------------------------------
# stable-model search


class BudgetExceeded(MalpError):
    pass


def check_grid_budget(programs, step: float, budget: int) -> int:
    """The nominal grid size, (1/step + 1) ** |atoms| summed over the programs.

    Raises BudgetExceeded when it is above the budget.
    """
    n_values = grid_count(step)
    points = sum(n_values ** len(p.atoms()) for p in programs)
    if points > budget:
        raise BudgetExceeded(f"{points} grid points exceed the budget of {budget}")
    return points


@dataclass(frozen=True)
class StableSearchConfig:
    mode: str = "grid"            # "grid" | "iterate"
    grid_step: float = 0.5
    seeds: int = 16
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER
    rng_seed: int = 0


def _sort_models(models: list[Interpretation], atoms) -> list[Interpretation]:
    return sorted(models, key=lambda m: tuple(m[a] for a in atoms))


def _dedup(models: list[Interpretation], tol: float) -> list[Interpretation]:
    kept: list[Interpretation] = []
    for m in models:
        if all(interp_distance(m, k) > tol for k in kept):
            kept.append(m)
    return kept


def _grid_checks(program: Program, atoms, pre_tol: float, tol: float):
    """(atoms read, test, propagator) for every head equation T(M)[a] = M[a]
    and constraint.

    A head reads itself and the bodies of its rules; an atom that heads
    no rule reads only itself, so its test pins it to 0 (the sup over an
    empty set).  A constraint reads its body and has no propagator.
    A head's fit(M, values) computes T(M)[a] once and keeps the values
    v with |T(M)[a] - v| <= pre_tol; its test is fit at M[a] alone.  A
    head whose bodies do not read it, inside a freeze site or not, has
    the propagator (a, fit).
    """
    by_head: dict[str, list] = {a: [] for a in atoms}
    reads: dict[str, set] = {a: set() for a in atoms}   # what a's bodies read
    constraints = []
    compiled = iter(_analysis(program, tol).rules)
    for r, occs in zip(program.rules, program.rule_occurrences()):
        if r.is_constraint:
            constraints.append(({o.atom for o in occs}, lambda M, r=r: satisfies(M, r, tol), None))
        else:
            head, *rule = next(compiled)
            by_head[head].append(rule)
            reads[head].update(o.atom for o in occs)

    def head_check(a, rules):
        def fit(M, values):
            t = 0.0
            for impl, weight, body in rules:
                v = eval_conjunctor(impl, weight, body(M, None))
                if v > t:
                    t = v
            return [v for v in values if abs(t - v) <= pre_tol]

        return (reads[a] | {a}, lambda M: bool(fit(M, (M[a],))),
                None if a in reads[a] else (a, fit))

    return [head_check(a, rules) for a, rules in by_head.items()] + constraints


def _assignment_order(atoms, checks) -> list[str]:
    """Greedy order for the depth-first walk, so that checks fire early.

    Next comes a head with a propagator whose bodies read only assigned
    atoms, ties by name; else the atom that lets the most such heads
    propagate next; else the atom that leaves the fewest atoms
    unassigned in some read set, then by name.
    """
    order: list[str] = []
    left = [set(reads) for reads, _, _ in checks]
    bodies = {prop[0]: set(reads) - {prop[0]} for reads, _, prop in checks if prop}
    free = set(atoms)
    while free:
        ready = [h for h, body in bodies.items() if not body]
        enables = Counter(next(iter(body)) for body in bodies.values() if len(body) == 1)
        nxt = min(ready) if ready else min(free, key=lambda x: (
            -enables[x], min(len(s) - 1 for s in left if x in s), x))
        order.append(nxt)
        free.discard(nxt)
        bodies.pop(nxt, None)
        for s in itertools.chain(left, bodies.values()):
            s.discard(nxt)
        left = [s for s in left if s]
    return order


def _grid_candidates(program: Program, step: float, pre_tol: float,
                     tol: float) -> list[Interpretation]:
    """Grid points that are fixpoints of T and satisfy all constraints.

    At I = M the frozen and live readings of a body coincide, so the
    prune needs no reduct: it evaluates the original bodies at M.  The
    points come back in lexicographic grid order over the sorted atoms,
    so `_dedup` keeps the same point as a full enumeration would.
    """
    atoms = program.atoms()
    grid_count(step)   # checks the step; a program without atoms needs no grid
    return sorted(_grid_walk(atoms, lattice_grid(step) if atoms else [],
                             _grid_checks(program, atoms, pre_tol, tol)),
                  key=lambda m: tuple(m[a] for a in atoms))


def _grid_walk(atoms, values: list[float], checks) -> Iterator[Interpretation]:
    """Yield the points that give each atom one of `values` and pass every
    (atoms read, test, propagator) check.

    Depth first, one atom per level: each test runs once, at the
    shallowest level where every atom it reads is assigned, and a
    failing test cuts the subtree.  A head with a propagator that comes
    after every atom its bodies read tries only the values its fit
    keeps, and its test does not run (forward checking).
    """
    order = _assignment_order(atoms, checks)
    level = {a: i + 1 for i, a in enumerate(order)}
    tests_at: list[list] = [[] for _ in range(len(order) + 1)]
    fits: list = [None] * len(order)   # per depth, the fit of the atom assigned there
    for reads, test, prop in checks:
        top = max((level[a] for a in reads), default=0)
        if prop is not None and level[prop[0]] == top:
            fits[top - 1] = prop[1]
        else:
            tests_at[top].append(test)

    return _extend({}, 0, order, values, tests_at, fits, atoms)


def _extend(M: Interpretation, depth: int, order, values, tests_at, fits,
            atoms) -> Iterator[Interpretation]:
    """The walk below M, which assigns order[:depth]; module-level, so no walk refers to itself."""
    for test in tests_at[depth]:
        if not test(M):
            return
    if depth == len(order):
        yield {a: M[a] for a in atoms}
        return
    a, fit = order[depth], fits[depth]
    for v in values if fit is None else fit(M, values):
        M[a] = v
        yield from _extend(M, depth + 1, order, values, tests_at, fits, atoms)
    M.pop(a, None)   # a fit that keeps no value assigned nothing


def find_stable_models(program: Program, cfg: StableSearchConfig,
                       undecided: Optional[list[Interpretation]] = None) -> list[Interpretation]:
    """Search for stable models.

    Grid mode enumerates every grid interpretation and keeps those that
    verify stable (complete on the grid); an `undecided` list, when
    given, receives in grid order the candidates whose verdict is
    indeterminate (the inner fixpoint did not converge).  Iterate mode
    runs the stable operator to a fixpoint from bottom, top, and seeded
    random starts, then verifies the candidates.  The operator is a pure
    function, so a start stops at a state that an earlier visit reached
    with at least as many of the min(max_iter, 100) steps left: that
    visit found first all the start could still find.  An even cycle's
    orbit thus stops at once, and a start that joins an earlier orbit in
    no fewer steps repeats none of its steps or its verdict.  Results
    are deduplicated within tol (earliest kept) and sorted
    lexicographically by atom values.
    """
    atoms = program.atoms()
    found: list[Interpretation] = []
    if cfg.mode == "grid":
        for M in _grid_candidates(program, cfg.grid_step, PREFILTER_TOL, cfg.tol):
            verdict = is_stable(program, M, cfg.tol, cfg.max_iter)
            if verdict is True:
                found.append(M)
            elif verdict is None and undecided is not None:
                undecided.append(M)
    elif cfg.mode == "iterate":
        rng = random.Random(cfg.rng_seed)
        starts = [bottom_interpretation(atoms), top_interpretation(atoms)][:max(1, cfg.seeds)]
        draws = ({a: rng.random() for a in atoms} for _ in range(cfg.seeds - 2))  # one at a time
        outer_cap = min(cfg.max_iter, 100)
        fewest: dict[tuple, int] = {}   # state -> the fewest steps any start took to it
        for M in itertools.chain(starts, draws):
            for steps in range(outer_cap):
                key = tuple(M.values())   # every start and result is in atoms order
                if fewest.get(key, outer_cap) <= steps:
                    break   # an earlier visit went on from here with as many steps left
                fewest[key] = steps
                N, converged = _stable_value(program, M, cfg.tol, cfg.max_iter)
                if not converged:
                    break
                if max(map(abs, map(sub, M.values(), N.values())), default=0.0) <= cfg.tol:
                    if is_stable(program, N, cfg.tol, cfg.max_iter) is True:
                        found.append(N)
                    break
                M = N
    else:
        raise MalpError(f"unknown search mode: {cfg.mode!r}")
    return _sort_models(_dedup(found, cfg.tol), atoms)
