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
tolerance: the definite bodies compiled to closures over one list, the
atoms' values and then the freeze sites' values, and grouped by head, and
the heads split by their levels in the reduct.  Inside the operators and
searches an interpretation is that list, a dict only where it comes in or
goes out.  One routine, `_at_head`, computes T at a head for T itself,
for the stable operator and for the grid walk's head tests.  The stable
operator puts the sites' values at M in their slots, so it builds no
reduct.  For search steps and verdicts its value comes from one pass over
the heads of finite level, in level order as for a stratified program,
then Kleene iteration of the heads on or downstream of a cycle alone (of
every head from bottom, when T is not monotone or the cap leaves the pass
no room).  `reduct` builds its trees with `rewrite` alone and reads no
analysis.  Constraints never feed the operator (they have no head atom to
update).  The grid walk tests them on bodies it compiles once per search;
a verdict reads them from their own reduct, unless the operator's value
converged away from M.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter, deque
from dataclasses import dataclass
from operator import le, sub
from typing import Iterator, Mapping, MutableSequence, Optional

from .lattice import DEFAULT_TOL, eval_conjunctor, eval_implication, grid_count, lattice_grid
from .program import (
    BodyExpr,
    Compiled,
    MalpError,
    Program,
    Rule,
    compile_body,
    eval_body,
    eval_expr,
    freeze,
    in_range,
    missing_atom,
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
DEFAULT_BUDGET = 2_000_000   # grid points, or iterate steps, one search or check may take
ITERATE_STEPS = 100   # the most stable-operator steps one iterate-mode start takes
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
    return Program(tuple([
        Rule(r.head, r.impl, freeze(r.body, lambda site: eval_expr(site, M, tol)), r.weight)
        if any(o.sign < 0 for o in occs) else r
        for r, occs in zip(program.rules, program.rule_occurrences())
    ]))


# ---------------------------------------------------------------------------
# the compiled analysis


def components(graph: Mapping[str, set[str]]) -> list[list[str]]:
    """The strongly connected components of the graph, each after every
    component its nodes read: Tarjan's algorithm (SIAM J. Comput., 1972),
    its recursion kept on an explicit path.  A node read but not a key
    reads nothing; nodes and their reads are visited in sorted order."""
    number: dict[str, int] = {}   # visit order
    low: dict[str, float] = {}    # inf once the node's component is out
    stack: list[str] = []
    out: list[list[str]] = []
    for root in sorted(graph):
        path = [] if root in number else [(root, None, 0)]   # (node, reads left, place on stack)
        while path:
            v, reads, at = path.pop()
            if reads is None:
                number[v] = low[v] = len(number)
                reads, at = iter(sorted(graph.get(v, ()))), len(stack)
                stack.append(v)
            for w in reads:
                if w not in number:
                    path += [(v, reads, at), (w, None, 0)]
                    break
                low[v] = min(low[v], low[w])
            else:
                if low[v] == number[v]:   # v is its component's first node on the stack
                    out.append(stack[at:])
                    del stack[at:]
                    low.update(dict.fromkeys(out[-1], math.inf))
                if path:
                    low[path[-1][0]] = min(low[path[-1][0]], low[v])
    return out


# (implication, weight, compiled body, tol, body, slice of V that holds its freeze sites)
HeadRules = tuple[tuple[str, float, Compiled, float, BodyExpr, slice], ...]


@dataclass(frozen=True)
class _Analysis:
    """What the operators need of a program, derived once per (program, tol).

    The bodies read one list V: atom a at V[index[a]], n = len(index), then
    freeze site k's value at V[n + k]: a body reads as written with the
    `sites` at V, as the reduct's with them at M.  `heads` maps each head,
    in order of its first rule, to its definite rules in program order.
    Constraint bodies are not compiled: a verdict reducts `constraints`,
    the constraints alone.  A head's level is 1 + the highest level its
    bodies read outside their sites (0 for an atom that heads no rule),
    inf on or downstream of a cycle; from bottom, it is final from that
    Kleene step on.  `by_level` holds the (V slot, rules) pairs of finite
    level, stably sorted by it, `top` is the highest (0 if none) and
    `cyclic` the rest.  If some level is inf, `antitone` is the first rule
    that reads an atom order-reversingly outside its sites: T is not
    monotone, so every head is cyclic, `top` 0.
    """
    index: dict[str, int]
    heads: dict[str, HeadRules]
    sites: tuple[Compiled, ...]
    by_level: tuple[tuple[int, HeadRules], ...]
    cyclic: tuple[tuple[int, HeadRules], ...]
    top: int
    antitone: Optional[Rule]
    constraints: Program


def _analysis(program: Program, tol: float) -> _Analysis:
    analyses = program.derived("analyses", dict)   # by tol
    if tol in analyses:
        return analyses[tol]   # allocates nothing
    index = {a: i for i, a in enumerate(program.atoms())}
    sites: list[Compiled] = []
    heads: dict[str, HeadRules] = {}
    graph: dict[str, set[str]] = {}
    antitone = None
    for r in program.definite_rules():
        read: dict[str, int] = {}
        first = len(index) + len(sites)   # this body's sites come next
        rule = (r.impl, r.weight, compile_body(r.body, tol, index, sites, read), tol, r.body,
                slice(first, len(index) + len(sites)))
        heads[r.head.name] = heads.get(r.head.name, ()) + (rule,)
        graph.setdefault(r.head.name, set()).update(read)
        if antitone is None and -1 in read.values():
            antitone = r
    level: dict[str, float] = {}
    for c in components(graph):   # a read in c itself is not levelled yet: inf
        below = [level.get(a, math.inf) for h in c for a in graph.get(h, ())]
        level.update(dict.fromkeys(c, 1 + max(below, default=0) if c[0] in graph else 0))
    top = max((n for n in level.values() if n < math.inf), default=0)
    slots = {h: (index[h], rules) for h, rules in heads.items()}   # by V slot
    by_level = tuple([slots[h] for h in sorted(heads, key=level.get) if level[h] <= top])
    cyclic = tuple([slots[h] for h in heads if level[h] > top])
    antitone = antitone if math.inf in level.values() else None
    if antitone is not None:
        by_level, cyclic, top = (), tuple(slots.values()), 0
    part = Program(program.constraints())   # with the program's occurrences of them
    occurrences = [o for r, o in zip(program.rules, program.rule_occurrences()) if r.is_constraint]
    part.derived("occurrences", lambda: tuple(occurrences))
    analyses[tol] = _Analysis(index, heads, tuple(sites), by_level, cyclic, top, antitone, part)
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
    analysis = _analysis(program, tol)
    try:
        V = [I[a] for a in analysis.index]
    except KeyError as missing:
        raise missing_atom(missing.args[0]) from None
    V += [site(V) for site in analysis.sites] if frozen is None else frozen
    return dict.fromkeys(I, 0.0) | {head: _at_head(rules, V, frozen is None)
                                    for head, rules in analysis.heads.items()}


def _at_head(rules: HeadRules, V: list[float], live: bool = False) -> float:
    """T at one head: the sup of weight &_i in_range(body(V)) over its rules,
    from 0; a range message names the body as written if `live`, else the reduct's."""
    t = 0.0
    for impl, weight, body, tol, tree, own in rules:
        v = body(V)
        if v < -tol or v > 1.0 + tol:
            in_range(v, tol, tree, None if live else V[own])   # raises
        v = eval_conjunctor(impl, weight, 0.0 if v < 0.0 else 1.0 if v > 1.0 else v)
        if v > t:
            t = v
    return t


def least_model(program: Program, tol: float = DEFAULT_TOL,
                max_iter: int = DEFAULT_MAX_ITER,
                frozen: Optional[tuple[float, ...]] = None) -> tuple[Interpretation, FixpointTrace]:
    """Kleene iteration of T from the bottom interpretation, stopped by
    `_kleene`, else flagged unconverged at the cap: the least model when the
    program is positive.  `frozen` goes to every T step."""
    atoms = program.atoms()
    iterates = [[0.0] * len(atoms)]
    converged = not atoms or _kleene(lambda I: list(immediate_consequence(
        program, dict(zip(atoms, I)), tol, frozen).values()), iterates, tol, max_iter)
    trace = FixpointTrace(tuple([dict(zip(atoms, I)) for I in iterates]), converged)
    return trace.iterates[-1], trace


def _kleene(T, iterates: MutableSequence[list[float]], tol: float, max_iter: int) -> bool:
    """Append up to max_iter iterates of T to `iterates`, from its last; whether
    it stopped first.  It stops at an iterate I with T(I) == I, or with
    |T(I) - I| < tol and T(X) <= X for X = T(I) raised by tol where it differs
    from I: for a monotone T iterated from below its least fixpoint, that
    fixpoint then lies between T(I), which is appended, and X."""
    I = iterates[-1]
    for _ in range(max_iter):
        J = T(I)
        iterates.append(J)    # a new list, never mutated
        if J == I:
            return True
        if max(map(abs, map(sub, I, J))) < tol:
            X = [v if v == w else min(1.0, v + tol) for v, w in zip(J, I)]
            if all(map(le, T(X), X)):
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
    M = [M[a] for a in require_total(M, program)]
    frozen = tuple([site(M) for site in _analysis(program, tol).sites])
    return least_model(program, tol, max_iter, frozen=frozen)


def _stable_value(program: Program, M: list[float], tol: float,
                  max_iter: int) -> tuple[list[float], bool]:
    """The stable operator's value at M, both lists in atoms() order, and
    whether it converged.

    A pass over `by_level` sets the heads of finite level to their final
    values, from the calls Kleene's step `top` makes, and counts as `top`
    steps; Kleene iteration of the `cyclic` rules alone, which is T's from
    there, runs for the other max_iter - top.  A cap of at most `top` leaves
    the pass no room: then all rules are iterated from bottom, as Kleene does.
    The value is Kleene's where both stop at T(I) == I, within tol where one does.
    """
    analysis = _analysis(program, tol)
    by_level, cyclic, top = ((analysis.by_level, analysis.cyclic, analysis.top) if max_iter >
                             analysis.top else ((), analysis.by_level + analysis.cyclic, 0))
    J = [0.0] * len(M) + [site(M) for site in analysis.sites]   # bottom, then the sites at M
    for i, rules in by_level:   # each reads only heads of lower levels
        J[i] = _at_head(rules, J)
    if not cyclic:
        return J[:len(M)], True

    def step(I):
        J = I.copy()
        for i, rules in cyclic:
            J[i] = _at_head(rules, I)
        return J
    iterates = deque([J], maxlen=1)   # the last only
    converged = _kleene(step, iterates, tol, max_iter - top)
    return iterates[-1][:len(M)], converged


def is_stable(program: Program, M: Mapping[str, float], tol: float = DEFAULT_TOL,
              max_iter: int = DEFAULT_MAX_ITER) -> Optional[bool]:
    """True/False verdict, or None when the inner fixpoint fails to converge."""
    # M is stable when it is the operator's fixpoint and satisfies the reduct's constraints
    V = [M[a] for a in require_total(M, program)]
    value, converged = _stable_value(program, V, tol, max_iter)
    if converged and max(map(abs, map(sub, value, V)), default=0.0) > tol:
        return False
    if program.constraints() and not all(satisfies(M, r, tol) for r in reduct(
            _analysis(program, tol).constraints, M, tol).rules):
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


def check_iterate_budget(seeds: int, max_iter: int, budget: int) -> int:
    """The most stable-operator steps iterate mode may take, seeds * min(max_iter,
    ITERATE_STEPS).  Raises BudgetExceeded when it is above the budget."""
    cap = min(max_iter, ITERATE_STEPS)
    if seeds * cap > budget:
        raise BudgetExceeded(f"{seeds * cap} iterate steps ({seeds} seeds x {cap} steps) "
                             f"exceed the budget of {budget}")
    return seeds * cap


@dataclass(frozen=True)
class StableSearchConfig:
    mode: str = "grid"            # "grid" | "iterate"
    grid_step: float = 0.5
    seeds: int = 16
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER
    rng_seed: int = 0


def _sort_models(models: list[Interpretation], atoms) -> list[Interpretation]:
    return sorted(models, key=lambda m: tuple([m[a] for a in atoms]))


def _dedup(models: list[Interpretation], tol: float) -> list[Interpretation]:
    kept: list[Interpretation] = []
    for m in models:
        if all(interp_distance(m, k) > tol for k in kept):
            kept.append(m)
    return kept


def _grid_checks(program: Program, atoms, pre_tol: float, tol: float):
    """(atoms read, test, propagator) for every head equation T(M)[a] = M[a],
    in `atoms` order, then for every constraint.

    A head reads itself and the bodies of its rules; an atom that heads
    no rule reads only itself, so its test pins it to 0 (the sup over an
    empty set).  M is the analysis's list V; T(M)[a] is `_at_head` with
    the head's own sites set at M.  A head's test is |T(M)[a] - M[a]| <=
    pre_tol.  A head whose bodies do not read it, inside a freeze site or
    not, has the propagator (a, fit): fit(M, values) keeps the values v
    the test would pass.  A constraint reads its body, compiled here, and
    tests as `satisfies` does.
    """
    analysis = _analysis(program, tol)
    index, sites, n = analysis.index, analysis.sites, len(analysis.index)
    reads: dict[str, set] = {a: set() for a in atoms}   # what a's bodies read
    constraints = []
    for r, occs in zip(program.rules, program.rule_occurrences()):
        if r.is_constraint:
            constraints.append(({o.atom for o in occs}, lambda M, r=r, f=compile_body(
                r.body, tol, index): r.weight <= eval_implication(
                    r.impl, r.head.value, in_range(f(M), tol, r.body)) + tol, None))
        else:
            reads[r.head.name].update(o.atom for o in occs)

    def head_check(a, rules):
        own = [(k, sites[k - n]) for *_, part in rules for k in range(part.start, part.stop)]

        def T(M):
            for k, site in own:
                M[k] = site(M)
            return _at_head(rules, M, True)

        def fit(M, values):
            t = T(M)
            return [v for v in values if abs(t - v) <= pre_tol]
        return (reads[a] | {a}, lambda M, i=index[a]: abs(T(M) - M[i]) <= pre_tol,
                None if a in reads[a] else (a, fit))

    return [head_check(a, analysis.heads.get(a, ())) for a in atoms] + constraints


def _assignment_order(atoms, checks) -> list[str]:
    """Order for the depth-first walk, so that checks fire early: bottom
    first, the components of the graph where each atom reads what its own
    check (the first checks, in `atoms` order) reads.  Within one, next
    comes a head with a propagator whose bodies read only assigned atoms,
    ties by name; else the atom that lets the most such heads propagate
    next; else the atom that leaves the fewest atoms unassigned in some
    read set, then by name."""
    order: list[str] = []
    left = [set(reads) for reads, _, _ in checks]
    bodies = {prop[0]: set(reads) - {prop[0]} for reads, _, prop in checks if prop}
    for free in map(set, components({a: reads for a, (reads, _, _) in zip(atoms, checks)})):
        while free:
            ready = [h for h in free if h in bodies and not bodies[h]]
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
    grid_count(step)   # checks the step; a program without atoms needs no grid
    analysis = _analysis(program, tol)
    atoms = tuple(analysis.index)   # program.atoms(), as the analysis numbers them
    return sorted(_grid_walk(atoms, lattice_grid(step) if atoms else [],
                             _grid_checks(program, atoms, pre_tol, tol), len(analysis.sites)),
                  key=lambda m: tuple([m[a] for a in atoms]))


def _grid_walk(atoms, values: list[float], checks, sites: int = 0) -> Iterator[Interpretation]:
    """Yield the points that give each atom one of `values` and pass every
    (atoms read, test, propagator) check, on a list M of the atoms, then `sites` slots.

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

    return _extend([0.0] * (len(atoms) + sites), 0, [atoms.index(a) for a in order], values,
                   tests_at, fits, atoms)


def _extend(M: list[float], depth: int, order, values, tests_at, fits,
            atoms) -> Iterator[Interpretation]:
    """The walk below M, which assigns order[:depth]; module-level, so no walk refers to itself."""
    for test in tests_at[depth]:
        if not test(M):
            return
    if depth == len(order):
        yield dict(zip(atoms, M))
        return
    i, fit = order[depth], fits[depth]
    for v in values if fit is None else fit(M, values):
        M[i] = v
        yield from _extend(M, depth + 1, order, values, tests_at, fits, atoms)


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
    with at least as many of the min(max_iter, ITERATE_STEPS) steps left:
    that visit found first all the start could still find.  An even
    cycle's orbit thus stops at once, and a start that joins an earlier
    orbit in no fewer steps repeats none of its steps or its verdict.  Results
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
        starts = [[0.0] * len(atoms), [1.0] * len(atoms)][:max(1, cfg.seeds)]
        draws = ([rng.random() for _ in atoms] for _ in range(cfg.seeds - 2))  # one at a time
        outer_cap = min(cfg.max_iter, ITERATE_STEPS)
        fewest: dict[tuple, int] = {}   # state -> the fewest steps any start took to it
        for M in itertools.chain(starts, draws):
            for steps in range(outer_cap):
                key = tuple(M)   # every start and result is a list in atoms order
                if fewest.get(key, outer_cap) <= steps:
                    break   # an earlier visit went on from here with as many steps left
                fewest[key] = steps
                N, converged = _stable_value(program, M, cfg.tol, cfg.max_iter)
                if not converged:
                    break
                if max(map(abs, map(sub, M, N)), default=0.0) <= cfg.tol:
                    model = dict(zip(atoms, N))
                    if is_stable(program, model, cfg.tol, cfg.max_iter) is True:
                        found.append(model)
                    break
                M = N
    else:
        raise MalpError(f"unknown search mode: {cfg.mode!r}")
    return _sort_models(_dedup(found, cfg.tol), atoms)
