"""The paper's definitions, written literally on trees: the reference
semantics that every differential test compares the library against.
Nothing is compiled or pruned, the reduct reads arithmetic live, and
`test_reference.py` limits what it takes from `emalp`.  Least models and
stable operators are cached: orbits and verdict points soon ask again."""

import array
import functools
import itertools
import math

from emalp.errors import MalpError
from emalp.lattice import eval_conjunctor, eval_implication, eval_threshold, lattice_grid, neg2
from emalp.program import BUILTINS, Apply, Atom, Const, Program, RangeViolation, Rule
from emalp.semantics import FixpointTrace


def sign_of(op, i):
    """+1 if op preserves the order in argument i, -1 if it reverses it."""
    return 1 if BUILTINS[op].polarities is None else BUILTINS[op].polarities[i]


def value(node, I, tol):
    """The homomorphic value of a (sub)tree under I, with no range check."""
    if isinstance(node, Apply):
        args = [value(a, I, tol) for a in node.args]
        spec = BUILTINS[node.op]
        return eval_threshold(*args, tol) if spec.const_first else spec.fn(*args)
    if isinstance(node, Const):
        return node.value
    if node.name not in I:
        raise MalpError(f"interpretation is not total: missing atom {node.name!r}")
    return I[node.name]


def body_value(body, I, tol):
    """A rule body's value: clamped onto [0, 1] within tol of it, an error further out."""
    v = value(body, I, tol)
    if v < -tol or v > 1.0 + tol:
        raise RangeViolation(f"body value {v} outside [0, 1]: {body}")
    return 0.0 if v < 0.0 else 1.0 if v > 1.0 else v


def satisfies(I, rule, tol):
    """weight <= (head <-i body) under I, within tol."""
    body = body_value(rule.body, I, tol)
    head = rule.head.value if isinstance(rule.head, Const) else I[rule.head.name]
    return rule.weight <= eval_implication(rule.impl, head, body) + tol


def signs(node, sign=1):
    """(atom, sign) for each atom occurrence in the tree, read at the given sign."""
    if isinstance(node, Apply):
        return [o for i, a in enumerate(node.args) for o in signs(a, sign * sign_of(node.op, i))]
    return [(node.name, sign)] if isinstance(node, Atom) else []


def atoms(program):
    """The heads of the definite rules and every atom a body reads, sorted."""
    return tuple(sorted({r.head.name for r in program.rules if isinstance(r.head, Atom)}
                        | {a for r in program.rules for a, _ in signs(r.body)}))


def rebuild(program, replace):
    """P, each body rebuilt top down: replace(node, sign), or rebuilt arguments if None."""
    def walk(node, sign):
        if (new := replace(node, sign)) is not None or not isinstance(node, Apply):
            return node if new is None else new
        args = tuple(walk(a, sign * sign_of(node.op, i)) for i, a in enumerate(node.args))
        return node if args == node.args else Apply(node.op, args)
    return Program(tuple(Rule(r.head, r.impl, walk(r.body, 1), r.weight) for r in program.rules))


def reduct(program, M, tol):
    """P frozen at M: each outermost negation all of whose atoms occur
    order-reversingly becomes its value under M."""
    def freeze(node, sign):
        if isinstance(node, Apply) and node.op in ("neg1", "neg2"):
            occurrences = signs(node, sign)
            if occurrences and all(s < 0 for _, s in occurrences):
                return Const(value(node, M, tol))
    return rebuild(program, freeze)


def reaches(graph, v):
    """The nodes v reaches by one read or more; a node that is not a key reads nothing."""
    seen, todo = set(), [v]
    while todo:
        for w in graph.get(todo.pop(), ()):
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


def components(graph):
    """The graph's nodes, keys and reads, grouped by mutual reachability."""
    nodes = set(graph).union(*graph.values())
    reach = {v: reaches(graph, v) for v in nodes}
    return {frozenset({v} | {w for w in reach[v] if v in reach[w]}) for v in nodes}


def levels(program):
    """Each head's level in the reduct, whose bodies read no atom inside a
    freeze site: 1 + the highest level its bodies read (0 for an atom that
    heads no rule), inf if it reaches an atom that reaches itself.  Also
    the index of the first rule whose reduct body reads an atom
    order-reversingly, if some level is inf, else None."""
    frozen = reduct(program, dict.fromkeys(atoms(program), 0.5), 0.0).rules
    reads = {}
    for r in frozen:
        if isinstance(r.head, Atom):
            reads.setdefault(r.head.name, set()).update(a for a, _ in signs(r.body))
    looped = {v for v in reads if v in reaches(reads, v)}

    def level(a):
        if a not in reads:
            return 0
        if a in looped or reaches(reads, a) & looped:
            return math.inf
        return 1 + max((level(b) for b in reads[a]), default=0)

    found = {h: level(h) for h in reads}
    antitone = [i for i, r in enumerate(frozen)
                if isinstance(r.head, Atom) and any(s < 0 for _, s in signs(r.body))]
    return found, antitone[0] if antitone and math.inf in found.values() else None


def rewire(program, witnesses, neg):
    """The manlp rewiring: each order-reversing occurrence of q becomes neg(witnesses[q])."""
    def through_witness(node, sign):
        if isinstance(node, Atom) and sign < 0 and node.name in witnesses:
            return Apply(neg, (Atom(witnesses[node.name]),))
    return rebuild(program, through_witness)


def consequence(program, I, tol):
    """T(I): each atom to the sup of weight &_i body(I) over the rules it heads, 0 if none."""
    out = dict.fromkeys(I, 0.0)
    for r in program.rules:
        if isinstance(r.head, Atom):
            v = eval_conjunctor(r.impl, r.weight, body_value(r.body, I, tol))
            if r.head.name not in out or v > out[r.head.name]:
                out[r.head.name] = v
    return out


def stops(program, I, J, tol):
    """Kleene's stop at I, with J = T(I): J == I, or |J - I| < tol where X,
    J raised by tol (capped at 1) wherever it differs from I, has T(X) <= X."""
    if J == I:
        return True
    if max(abs(J[a] - I[a]) for a in I) >= tol:
        return False
    X = {a: v if v == I[a] else min(1.0, v + tol) for a, v in J.items()}
    return all(v <= X[a] for a, v in consequence(program, X, tol).items())


@functools.lru_cache(maxsize=256)
def least_model(program, tol, max_iter, names=None):
    """Kleene iteration of T from bottom over names (P's atoms by default),
    flagged unconverged if it does not stop within max_iter steps."""
    I = dict.fromkeys(atoms(program) if names is None else names, 0.0)
    iterates, converged = [I], not I
    while not converged and len(iterates) <= max_iter:
        J = consequence(program, I, tol)
        iterates.append(J)
        converged, I = stops(program, I, J, tol), J
    return I, FixpointTrace(tuple(iterates), converged)


def stable_operator(program, M, tol, max_iter):
    """The least model of reduct(P, M) over P's atoms."""
    return _stable_operator(program, tuple(M.items()), tol, max_iter)


@functools.lru_cache(maxsize=256)
def _stable_operator(program, M, tol, max_iter):
    names, M = atoms(program), dict(M)
    missing = [a for a in names if a not in M]
    if missing:
        raise MalpError(f"interpretation is not total: missing {', '.join(missing)}")
    return least_model(reduct(program, M, tol), tol, max_iter, names)


def verdict(program, M, tol, max_iter):
    """(is M stable, the stable operator's trace at M): False if a frozen constraint
    fails at M, else None if the least model did not converge, else whether it is M."""
    lfp, trace = stable_operator(program, M, tol, max_iter)
    constraints = Program(tuple(r for r in program.rules if isinstance(r.head, Const)))
    if not all(satisfies(M, r, tol) for r in reduct(constraints, M, tol).rules):
        return False, trace
    if not trace.converged:
        return None, trace
    return all(abs(lfp[a] - M[a]) <= tol for a in lfp), trace


def grid_points(program, step, top=None, tol=0.0):
    """P's interpretations on lattice_grid(step), at most top + tol if given, in grid order."""
    names = atoms(program)
    values = [[v for v in lattice_grid(step) if top is None or v <= top[a] + tol] for a in names]
    return (dict(zip(names, p)) for p in itertools.product(*values))


@functools.lru_cache(maxsize=None)
def fixpoint_gaps(program, step, tol):
    """max |T(M)[a] - M[a]| at each grid point, in grid order, once per run for every pre_tol."""
    return array.array("d", (max((abs(v - M[a]) for a, v in consequence(program, M, tol).items()),
                                 default=0.0) for M in grid_points(program, step)))


def candidates(program, step, pre_tol, tol):
    """The grid points within pre_tol of a fixpoint of T that satisfy every constraint."""
    return [M for M, gap in zip(grid_points(program, step), fixpoint_gaps(program, step, tol))
            if gap <= pre_tol and all(satisfies(M, r, tol)
                                      for r in program.rules if isinstance(r.head, Const))]


def stable_models(program, step, tol, max_iter):
    """The grid points whose verdict is True, each one checked."""
    return [M for M in grid_points(program, step) if verdict(program, M, tol, max_iter)[0]]


def grid_minimal(program, M, step, tol):
    """No grid point N <= M + tol, below M - tol at some atom, is a model of P."""
    return not any(any(N[a] < M[a] - tol for a in N)
                   and all(satisfies(N, r, tol) for r in program.rules)
                   for N in grid_points(program, step, M, tol))


# the interval extension: one hand-written rule per operator, nothing clamped
def _corners(ivs):
    (a, b), (c, d) = ivs
    return (a * c, a * d, b * c, b * d)


def _div1(ivs):
    (a, b), (c, d) = ivs
    if c > 0.0 or d < 0.0:
        q = (a / c, a / d, b / c, b / d)
        return (min(1.0, min(q)), min(1.0, max(q)))
    if a < 0.0 or c < 0.0:
        return (float("-inf"), 1.0)
    return (1.0, 1.0) if d == 0.0 else (min(1.0, a / d), 1.0)


INTERVALS = {
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
    "f": lambda ivs: (float(ivs[1][0] > ivs[0][0]), float(ivs[1][1] > ivs[0][0])),
    "g": lambda ivs: (float(ivs[1][0] > ivs[0][0]), float(ivs[1][1] > ivs[0][0])),
}


def interval(body):
    if isinstance(body, Apply):
        return INTERVALS[body.op]([interval(a) for a in body.args])
    return (body.value, body.value) if isinstance(body, Const) else (0.0, 1.0)
