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
tolerance: bodies compiled to closures, the freeze sites of the reduct,
and each head's level in it.  The stable operator evaluates the sites at
M and iterates the program's own closures reading those values, so it
builds no reduct, and after step 1 recomputes only the heads that can
move; search steps and verdicts both run it.  `reduct` builds the trees
as a plain program that carries no analysis.  Constraints never feed the
operator (they have no head atom to update); they act as satisfaction
filters on stable-model checks, which read them from the reduct.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass
from operator import sub
from typing import Iterator, Mapping, Optional

from .lattice import DEFAULT_TOL, eval_conjunctor, eval_implication, grid_count, lattice_grid
from .program import (
    Builder,
    Compiled,
    MalpError,
    Program,
    Rule,
    compile_body,
    eval_body,
)

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


def require_total(I: Mapping[str, float], program: Program) -> None:
    missing = [a for a in program.atoms() if a not in I]
    if missing:
        raise MalpError(f"interpretation is not total: missing {', '.join(missing)}")


def satisfies(I: Mapping[str, float], rule: Rule, tol: float = DEFAULT_TOL) -> bool:
    """weight <= (head <-i body) under I, with tolerance."""
    body_value = eval_body(rule.body, I, tol)
    head_value = rule.head.value if rule.is_constraint else I[rule.head.name]
    return rule.weight <= eval_implication(rule.impl, head_value, body_value) + tol


def is_model(I: Mapping[str, float], program: Program, tol: float = DEFAULT_TOL) -> bool:
    require_total(I, program)
    return all(satisfies(I, r, tol) for r in program.rules)


# ---------------------------------------------------------------------------
# reduct


def reduct(program: Program, M: Mapping[str, float], tol: float = DEFAULT_TOL) -> Program:
    """Freeze every negation subtree at its value under M; heads and weights unchanged.

    The freeze sites come from the program's analysis; a rule without
    one is kept as it is.  The reduct is a plain program: whatever runs
    T on it compiles it from its own rules.
    """
    require_total(M, program)
    analysis = _analysis(program, tol)
    frozen = tuple(site(M, None) for site in analysis.sites)
    return Program(tuple(
        r if build is None else Rule(r.head, r.impl, build(frozen), r.weight)
        for r, build in zip(program.rules, analysis.builds)
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
    reduct's, and `builds` (one per rule, None for a rule without a
    site) turns those values into the reduct's bodies.  Kleene step k >= 2
    of the reduct's T recomputes steps[k - 2] (the last entry for later
    k): the heads of level >= k at bottom, and their rules.
    """
    rules: Rules
    sites: tuple[Compiled, ...]
    builds: tuple[Optional[Builder], ...]
    steps: tuple[tuple[dict[str, float], Rules], ...]


def _analysis(program: Program, tol: float) -> _Analysis:
    def make() -> _Analysis:
        sites: list[Compiled] = []
        builds, rules = [], []
        reads: dict[str, set] = {}   # what a head's bodies read outside freeze sites
        for r in program.rules:
            live = None if r.is_constraint else reads.setdefault(r.head.name, set())
            body, build = compile_body(r.body, tol, sites, live)
            builds.append(build)
            if not r.is_constraint:
                rules.append((r.head.name, r.impl, r.weight, body))
        level = _levels(reads)
        top = max((n for n in level.values() if n < math.inf), default=1)
        steps = tuple((dict.fromkeys((h for h in reads if level[h] >= k), 0.0),
                       tuple(r for r in rules if level[r[0]] >= k))
                      for k in range(2, top + 2))
        return _Analysis(tuple(rules), tuple(sites), tuple(builds), steps)
    return program.derived(("analysis", tol), make)


def _levels(reads: dict[str, set]) -> dict[str, float]:
    """Each head's level: 1 + the highest level its bodies read (0 for an atom
    that heads no rule), inf on or downstream of a cycle.  From bottom, a
    head of level n is final from Kleene step n on."""
    level: dict[str, float] = {}
    while True:
        ready = {h: 1 + max((level.get(a, 0) for a in atoms), default=0)
                 for h, atoms in reads.items()
                 if h not in level and all(a in level or a not in reads for a in atoms)}
        if not ready:
            return {h: level.get(h, math.inf) for h in reads}
        level.update(ready)


# ---------------------------------------------------------------------------
# fixpoints


@dataclass(frozen=True)
class FixpointTrace:
    iterates: tuple[Interpretation, ...]
    converged: bool
    iterations: int

    def to_json(self) -> dict:
        return {
            "iterates": [dict(sorted(i.items())) for i in self.iterates],
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
    out = dict.fromkeys(I, 0.0)
    for head, impl, weight, body in _analysis(program, tol).rules:
        v = eval_conjunctor(impl, weight, body(I, frozen))
        if head not in out or v > out[head]:
            out[head] = v
    return out


def least_model(program: Program, tol: float = DEFAULT_TOL,
                max_iter: int = DEFAULT_MAX_ITER,
                frozen: Optional[tuple[float, ...]] = None) -> tuple[Interpretation, FixpointTrace]:
    """Kleene iteration of T from the bottom interpretation.

    Stops at an iterate I with T(I) == I, or with |T(I) - I| < tol and
    T(X) <= X for X = T(I) raised by tol at each atom where it differs
    from I: for a monotone T the least fixpoint then lies between T(I),
    which is returned, and X.  At the cap the trace is flagged
    unconverged.  The result is the least model when the program is
    positive.  `frozen` goes to every T step; then step 1 is a full T,
    and a later step k recomputes only the heads of level >= k
    (`_levels`) and copies the rest, so every iterate is still T's.
    """
    names = program.atoms()
    I = bottom_interpretation(names)
    if not names:
        return I, FixpointTrace((dict(I),), True, 0)
    steps = _analysis(program, tol).steps if frozen is not None else ()
    iterates = [dict(I)]
    converged = False
    for k in range(1, max_iter + 1):
        if k == 1 or not steps:
            J = immediate_consequence(program, I, tol, frozen)
        else:
            reset, rules = steps[min(k - 2, len(steps) - 1)]
            J = I | reset
            for head, impl, weight, body in rules:
                v = eval_conjunctor(impl, weight, body(I, frozen))
                if v > J[head]:
                    J[head] = v
        iterates.append(J)    # a new dict, never mutated, in program.atoms() order as I is
        if J == I or (max(map(abs, map(sub, I.values(), J.values()))) < tol
                      and _bounds_above(program, I, J, tol, frozen)):
            converged = True
            break
        I = J
    return iterates[-1], FixpointTrace(tuple(iterates), converged, len(iterates) - 1)


def _bounds_above(program: Program, I, J, tol: float, frozen) -> bool:
    """Whether X, J = T(I) raised by tol (capped at 1) where J != I, has T(X) <= X."""
    X = {a: v if v == I[a] else min(1.0, v + tol) for a, v in J.items()}
    return all(v <= X[a] for a, v in immediate_consequence(program, X, tol, frozen).items())


def stable_operator(program: Program, M: Mapping[str, float], tol: float = DEFAULT_TOL,
                    max_iter: int = DEFAULT_MAX_ITER) -> tuple[Interpretation, FixpointTrace]:
    """Least model of the constraint-free part of the reduct with respect to M.

    Interpretations that are fixpoints of this operator and satisfy the
    frozen constraints are exactly the stable models.  T skips the
    constraints and reads each freeze site as its value at M, so the
    reduct's trees are never built.
    """
    require_total(M, program)
    frozen = tuple(site(M, None) for site in _analysis(program, tol).sites)
    return least_model(program, tol, max_iter, frozen=frozen)


def stable_check(program: Program, M: Mapping[str, float], tol: float = DEFAULT_TOL,
                 max_iter: int = DEFAULT_MAX_ITER) -> tuple[Optional[bool], FixpointTrace]:
    """The `is_stable` verdict together with the trace of the stable operator at M.

    M is stable when it is the stable operator's fixpoint at M and
    satisfies the reduct's constraints; the trace is computed even when
    a constraint fails.
    """
    lfp, trace = stable_operator(program, M, tol, max_iter)
    # the reduct is built for its constraints; ROADMAP item 1 step 2 reads program.constraints()
    if not all(satisfies(M, r, tol) for r in reduct(program, M, tol).constraints()):
        return False, trace
    if not trace.converged:
        return None, trace
    return interp_distance(lfp, M) <= tol, trace


def is_stable(program: Program, M: Mapping[str, float], tol: float = DEFAULT_TOL,
              max_iter: int = DEFAULT_MAX_ITER) -> Optional[bool]:
    """True/False verdict, or None when the inner fixpoint fails to converge."""
    return stable_check(program, M, tol, max_iter)[0]


# ---------------------------------------------------------------------------
# stable-model search


class BudgetExceeded(MalpError):
    pass


def check_grid_budget(programs, step: float, budget: int) -> int:
    """The nominal grid size, (1/step + 1) ** |atoms| summed over the programs.

    Raises BudgetExceeded when it is above the budget.
    """
    n_values = grid_count(step)
    return _within_budget(sum(n_values ** len(p.atoms()) for p in programs), budget)


def _within_budget(points: int, budget: int) -> int:
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
    return sorted(_grid_walk(dict.fromkeys(atoms, lattice_grid(step) if atoms else []),
                             _grid_checks(program, atoms, pre_tol, tol)),
                  key=lambda m: tuple(m[a] for a in atoms))


def _grid_walk(values: dict[str, list[float]], checks) -> Iterator[Interpretation]:
    """Yield the points of the grid values[a] per atom a that pass every
    (atoms read, test, propagator) check, so a caller may stop at the
    first it needs.

    Depth first, one atom per level: each test runs once, at the
    shallowest level where every atom it reads is assigned, and a
    failing test cuts the subtree.  A head with a propagator that comes
    after every atom its bodies read tries only the values its fit
    keeps, and its test does not run (forward checking).
    """
    atoms = tuple(values)
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
    for v in values[a] if fit is None else fit(M, values[a]):
        M[a] = v
        yield from _extend(M, depth + 1, order, values, tests_at, fits, atoms)
    M.pop(a, None)   # an empty value list assigned nothing


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
                N, trace = stable_operator(program, M, cfg.tol, cfg.max_iter)
                if not trace.converged:
                    break
                if max(map(abs, map(sub, M.values(), N.values())), default=0.0) <= cfg.tol:
                    if is_stable(program, N, cfg.tol, cfg.max_iter) is True:
                        found.append(N)
                    break
                M = N
    else:
        raise MalpError(f"unknown search mode: {cfg.mode!r}")
    return _sort_models(_dedup(found, cfg.tol), atoms)


def is_minimal_model(program: Program, M: Mapping[str, float], grid_step: float,
                     tol: float = DEFAULT_TOL) -> bool:
    """No grid interpretation strictly below M is a model of the program.

    Strictly below means below-or-equal everywhere and strictly below at
    at least one atom; the grid walk checks each rule on the sub-grid, and
    raises BudgetExceeded when it has more than DEFAULT_BUDGET points.
    """
    require_total(M, program)
    atoms = program.atoms()
    n = grid_count(grid_step) - 1
    counts = {a: grid_count(grid_step, M[a] + tol) for a in atoms}
    _within_budget(math.prod(counts.values()), DEFAULT_BUDGET)
    choices = {a: [i / n for i in range(c)] for a, c in counts.items()}   # lattice_grid's values
    checks = [({o.atom for o in occs} | (set() if r.is_constraint else {r.head.name}),
               lambda N, r=r: satisfies(N, r, tol), None)
              for r, occs in zip(program.rules, program.rule_occurrences())]
    return not any(any(N[a] < M[a] - tol for a in atoms) for N in _grid_walk(choices, checks))
