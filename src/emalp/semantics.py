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
tolerance: bodies compiled to closures, and the freeze sites of the
reduct, so a reduct is built by evaluating the sites at M and comes
with its compiled bodies.  Constraints never feed the operator (they
have no head atom to update); they act as satisfaction filters on
stable-model checks.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
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


def interp_leq(a: Mapping[str, float], b: Mapping[str, float], tol: float = DEFAULT_TOL) -> bool:
    return all(a[k] <= b[k] + tol for k in a)


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
    one is kept as it is.  The reduct carries its own analysis at tol:
    the program's frozen bodies, reading the site values at M.
    """
    require_total(M, program)
    analysis = _analysis(program, tol)
    frozen = analysis.values + tuple(site(M, ()) for site in analysis.sites)
    out = Program(tuple(
        r if build is None else Rule(r.head, r.impl, build(frozen), r.weight)
        for r, build in zip(program.rules, analysis.builds)
    ))
    # a reduct has no freeze sites of its own, so it is its own reduct
    out.derived(("analysis", tol), lambda: _Analysis(
        (), (None,) * len(out.rules), analysis.frozen, analysis.frozen, frozen))
    return out


# ---------------------------------------------------------------------------
# the compiled analysis


Rules = tuple[tuple[str, str, float, Compiled], ...]


@dataclass(frozen=True)
class _Analysis:
    """What the operators need of a program, derived once per (program, tol).

    The definite rules, in program order, as (head, implication, weight,
    compiled body).  The `frozen` bodies are the reduct's: they read
    `values` followed by the values of the freeze `sites` at M, and
    `builds` (one per rule, None for a rule without a site) turns those
    values into the reduct's bodies.  The `live` bodies are the
    program's as written, reading `values` alone.
    """
    sites: tuple[Compiled, ...]
    builds: tuple[Optional[Builder], ...]
    frozen: Rules
    live: Rules
    values: tuple[float, ...] = ()


def _analysis(program: Program, tol: float) -> _Analysis:
    def make() -> _Analysis:
        sites: list[Compiled] = []
        builds, frozen, live = [], [], []
        for r in program.rules:
            body, build = compile_body(r.body, tol, sites)
            builds.append(build)
            if not r.is_constraint:
                frozen.append((r.head.name, r.impl, r.weight, body))
                # without a site the frozen closure is the live one
                if build is not None:
                    body = compile_body(r.body, tol)[0]
                live.append((r.head.name, r.impl, r.weight, body))
        return _Analysis(tuple(sites), tuple(builds), tuple(frozen), tuple(live))
    return program.derived(("analysis", tol), make)


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
                          tol: float = DEFAULT_TOL) -> Interpretation:
    """T(I): atom-wise sup of weight &_i body over the atom-headed rules.

    Atoms with no rule map to bottom (the sup over an empty set).
    """
    analysis = _analysis(program, tol)
    frozen = analysis.values
    out = dict.fromkeys(I, 0.0)
    for head, impl, weight, body in analysis.live:
        v = eval_conjunctor(impl, weight, body(I, frozen))
        if head not in out or v > out[head]:
            out[head] = v
    return out


def least_model(program: Program, tol: float = DEFAULT_TOL,
                max_iter: int = DEFAULT_MAX_ITER,
                atoms=None) -> tuple[Interpretation, FixpointTrace]:
    """Kleene iteration of T from the bottom interpretation.

    Stops when successive iterates differ by less than tol at every atom
    (the confirming iterate is kept in the trace) or when the cap is hit,
    in which case the trace is flagged unconverged.  The result is the
    least model when the program is positive.
    """
    names = program.atoms() if atoms is None else tuple(sorted(atoms))
    I = bottom_interpretation(names)
    if not names:
        return I, FixpointTrace((dict(I),), True, 0)
    iterates = [dict(I)]
    converged = False
    for _ in range(max_iter):
        J = immediate_consequence(program, I, tol)
        iterates.append(J)    # T returns a new dict, never mutated
        if interp_distance(I, J) < tol:
            converged = True
            break
        I = J
    return iterates[-1], FixpointTrace(tuple(iterates), converged, len(iterates) - 1)


def stable_operator(program: Program, M: Mapping[str, float], tol: float = DEFAULT_TOL,
                    max_iter: int = DEFAULT_MAX_ITER) -> tuple[Interpretation, FixpointTrace]:
    """Least model of the constraint-free part of the reduct with respect to M.

    Interpretations that are fixpoints of this operator and satisfy the
    frozen constraints are exactly the stable models.  T skips the
    reduct's constraints, and the reduct's compiled bodies come with it.
    """
    return least_model(reduct(program, M, tol), tol, max_iter, atoms=program.atoms())


def stable_check(program: Program, M: Mapping[str, float], tol: float = DEFAULT_TOL,
                 max_iter: int = DEFAULT_MAX_ITER) -> tuple[Optional[bool], FixpointTrace]:
    """The `is_stable` verdict together with the trace of the stable operator at M.

    One reduct and one least model serve both; the trace is computed
    even when a constraint fails.  At M a frozen constraint body and the
    live one evaluate alike, so the constraints are checked unfrozen.
    """
    lfp, trace = stable_operator(program, M, tol, max_iter)
    if not all(satisfies(M, r, tol) for r in program.constraints()):
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
    """(atoms read, test) for every head equation T(M)[a] = M[a] and constraint.

    A head reads itself and the bodies of its rules; an atom that heads
    no rule reads only itself, so its test pins it to 0 (the sup over an
    empty set).  A constraint reads its body.
    """
    by_head: dict[str, list] = {a: [] for a in atoms}
    reads = {a: {a} for a in atoms}
    constraints = []
    live = iter(_analysis(program, tol).live)
    for r, occs in zip(program.rules, program.rule_occurrences()):
        if r.is_constraint:
            constraints.append(({o.atom for o in occs}, lambda M, r=r: satisfies(M, r, tol)))
        else:
            head, *rule = next(live)
            by_head[head].append(rule)
            reads[head].update(o.atom for o in occs)

    def head_test(a, rules):
        def test(M):
            t = 0.0
            for impl, weight, body in rules:
                v = eval_conjunctor(impl, weight, body(M, ()))
                if v > t:
                    t = v
            return abs(t - M[a]) <= pre_tol
        return test

    return [(reads[a], head_test(a, rules)) for a, rules in by_head.items()] + constraints


def _assignment_order(atoms, read_sets) -> list[str]:
    """Greedy order for the depth-first walk, so that checks fire early.

    Next comes the atom that leaves the fewest atoms unassigned in some
    read set; ties go by name.
    """
    order: list[str] = []
    left = [set(s) for s in read_sets]
    free = set(atoms)
    while free:
        nxt = min(free, key=lambda x: (min(len(s) - 1 for s in left if x in s), x))
        order.append(nxt)
        free.discard(nxt)
        for s in left:
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
    (atoms read, test) check, so a caller may stop at the first it needs.

    Depth first, one atom per level: each test runs once, at the
    shallowest level where every atom it reads is assigned, and a
    failing test cuts the subtree.
    """
    atoms = tuple(values)
    order = _assignment_order(atoms, [reads for reads, _ in checks])
    level = {a: i + 1 for i, a in enumerate(order)}
    tests_at: list[list] = [[] for _ in range(len(order) + 1)]
    for reads, test in checks:
        tests_at[max((level[a] for a in reads), default=0)].append(test)

    M: Interpretation = {}    # the partial assignment, atoms order[:depth]

    def extend(depth: int) -> Iterator[Interpretation]:
        if not all(test(M) for test in tests_at[depth]):
            return
        if depth == len(order):
            yield {a: M[a] for a in atoms}
            return
        a = order[depth]
        for v in values[a]:
            M[a] = v
            yield from extend(depth + 1)
        del M[a]

    return extend(0)


def find_stable_models(program: Program, cfg: StableSearchConfig,
                       undecided: Optional[list[Interpretation]] = None) -> list[Interpretation]:
    """Search for stable models.

    Grid mode enumerates every grid interpretation and keeps those that
    verify stable (complete on the grid); an `undecided` list, when
    given, receives in grid order the candidates whose verdict is
    indeterminate (the inner fixpoint did not converge).  Iterate mode
    runs the stable operator to a fixpoint from bottom, top, and seeded
    random starts, then verifies the candidates.  The operator is a pure
    function, so a start whose orbit revisits a state exactly (the
    two-cycle of an even negation cycle) is dropped at once: every later
    step would replay a step that neither settled nor failed.  Results
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
        starts = [bottom_interpretation(atoms), top_interpretation(atoms)]
        for _ in range(max(0, cfg.seeds - 2)):
            starts.append({a: rng.random() for a in atoms})
        starts = starts[:max(1, cfg.seeds)]
        outer_cap = min(cfg.max_iter, 100)
        for I in starts:
            M = I
            seen = {tuple(M[a] for a in atoms)}
            for _ in range(outer_cap):
                N, trace = stable_operator(program, M, cfg.tol, cfg.max_iter)
                if not trace.converged:
                    break
                if interp_distance(M, N) <= cfg.tol:
                    if is_stable(program, N, cfg.tol, cfg.max_iter) is True:
                        found.append(N)
                    break
                key = tuple(N[a] for a in atoms)
                if key in seen:
                    break   # the orbit repeats and never settles (an even cycle)
                seen.add(key)
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
               lambda N, r=r: satisfies(N, r, tol))
              for r, occs in zip(program.rules, program.rule_occurrences())]
    return not any(any(N[a] < M[a] - tol for a in atoms) for N in _grid_walk(choices, checks))
