"""Differential tests of the compiled stable operator, fixpoints and verdicts.

`stable_operator`, `least_model` and `immediate_consequence` run on an
analysis made once per program and tolerance: the freeze sites are
found once, every definite body is compiled into a closure, and the
rules are ordered by their heads' levels in the reduct.  A reduct is a plain
program that carries no analysis, so T compiles it from its own rules.
The oracles are in `reference.py`: T walks the trees, the stable
operator is the Kleene least model of the reduct built on trees, and a
verdict checks that least model and the frozen constraints at M.
Values, verdicts and `FixpointTrace`s must be equal (`==`), not merely
close.  Search steps and verdicts take the operator's value from one
pass in level order followed by Kleene iteration of the cyclic rules
alone; that routine is held to Kleene's `stable_operator` from bottom.
"""

import itertools
import math
import pickle
import random
import re
import time
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from emalp import (
    Apply,
    Atom,
    Const,
    MalpError,
    Program,
    Rule,
    eliminate_constraints_fc,
    eliminate_constraints_janssen,
    eval_body,
    eval_conjunctor,
    immediate_consequence,
    lattice_grid,
    least_model,
    parse_program,
    reduct,
    stable_operator,
    to_manlp,
)
import emalp.semantics as semantics
from emalp.program import BUILTINS, RangeViolation, compile_body, in_range
from emalp.semantics import (
    StableSearchConfig,
    _analysis,
    _stable_value,
    components,
    find_stable_models,
    interp_distance,
    is_stable,
)

from conftest import gen
from genprog import WRAPS, flipped, random_emalp
import reference

TOLS = (1e-9, 0.3)
MAX_ITER = 200


def assert_operator_matches(program, M, tol):
    got = stable_operator(program, M, tol, MAX_ITER)
    assert got == reference.stable_operator(program, M, tol, MAX_ITER)
    return got


def assert_orbit_matches(program, starts, tol, steps=4):
    """Compare along the orbit M, S(M), S(S(M)), ... as the iterate search walks it."""
    calls = 0
    for M in starts:
        for _ in range(steps):
            N, _ = assert_operator_matches(program, M, tol)
            calls += 1
            M = N
    return calls


def starts_for(program, rng):
    atoms = program.atoms()
    return [{a: 0.0 for a in atoms}, {a: 1.0 for a in atoms},
            {a: rng.choice((0.25, 0.5, 0.75)) for a in atoms},
            {a: rng.random() for a in atoms}]


_rng = random.Random(2025)
GENPROG = [random_emalp(_rng, max_atoms=4, max_rules=5, max_constraints=2)
           for _ in range(300)]
CYCLES = [parse_program(gen.iterate_program(n, cycle, i)[0])
          for n in (6, 7, 8) for cycle in (True, False) for i in range(15)]
MOTOR = parse_program(gen.MOTOR_TEXT)


def stable_value(program, M, tol, max_iter):
    """`_stable_value` at M's values in atoms order, its value back as a dict."""
    atoms = program.atoms()
    value, converged = _stable_value(program, [M[a] for a in atoms], tol, max_iter)
    return dict(zip(atoms, value)), converged


def heads_of(program, pairs):
    """The names of the heads in the analysis's (slot, rules) pairs."""
    return [program.atoms()[i] for i, _ in pairs]


def targets(program):
    fc = eliminate_constraints_fc(program)[0]
    return [fc, eliminate_constraints_janssen(program)[0], to_manlp(fc)[0]]


@pytest.mark.parametrize("tol", TOLS)
def test_genprog_operator_matches_oracle(tol):
    rng = random.Random(1)
    calls = sum(assert_orbit_matches(p, starts_for(p, rng), tol) for p in GENPROG)
    assert calls == 300 * 4 * 4


@pytest.mark.parametrize("tol", TOLS)
def test_cycle_programs_operator_matches_oracle(tol):
    rng = random.Random(2)
    for program in CYCLES:
        assert_orbit_matches(program, starts_for(program, rng), tol, steps=6)


@pytest.mark.parametrize("tol", TOLS)
def test_motor_and_wraps_match_oracle(tol, model_m, model_n):
    rng = random.Random(3)
    for program in [MOTOR] + [flipped(MOTOR, wrap) for wrap in WRAPS]:
        assert_orbit_matches(program, [model_m, model_n] + starts_for(program, rng), tol)
    for program in GENPROG[:100]:
        for wrap in WRAPS:
            wrapped = flipped(program, wrap)
            assert_orbit_matches(wrapped, starts_for(wrapped, rng)[2:], tol, steps=2)


@pytest.mark.parametrize("tol", TOLS)
def test_transform_targets_match_oracle(tol):
    rng = random.Random(4)
    for program in [MOTOR] + GENPROG[:60] + CYCLES[::6]:
        for target in targets(program):
            assert_orbit_matches(target, starts_for(target, rng), tol, steps=2)


@pytest.mark.parametrize("tol", TOLS)
def test_least_model_and_consequence_match_oracle(tol):
    rng = random.Random(5)
    for program in [MOTOR] + GENPROG + CYCLES:
        assert least_model(program, tol, MAX_ITER) == reference.least_model(program, tol, MAX_ITER)
        I = {a: rng.random() for a in program.atoms()}
        assert immediate_consequence(program, I, tol) == reference.consequence(program, I, tol)


@pytest.mark.parametrize("tol", TOLS)
def test_reduct_carries_what_compiling_it_would_give(tol):
    # a reduct has no freeze site of its own, so it is its own reduct,
    # and its T is the one its rules compile to
    rng = random.Random(6)
    for program in [MOTOR] + [flipped(MOTOR, wrap) for wrap in WRAPS] + GENPROG[:100] + CYCLES:
        M = {a: rng.random() for a in program.atoms()}
        got = reduct(program, M, tol)
        fresh = Program(got.rules)
        assert not _analysis(fresh, tol).sites
        assert reduct(got, M, tol) == got == reduct(fresh, M, tol)
        I = {a: rng.random() for a in program.atoms()}
        want = reference.consequence(fresh, I, tol)
        assert immediate_consequence(got, I, tol) == immediate_consequence(fresh, I, tol) == want


POOL = ([parse_program(gen.grid_program(n, i)) for n in (5, 6) for i in range(6)]
        + [parse_program(gen.equiv_program(c, i)) for c in (1, 2) for i in range(4)])


@pytest.mark.parametrize("max_iter", [1, 2, 200])
@pytest.mark.parametrize("tol", TOLS)
def test_every_trace_matches_the_oracle_under_every_cap(tol, max_iter):
    # every iterate, the stop and the cap are the full T's, in the
    # program as written and in its reduct
    rng = random.Random(10)
    programs = [MOTOR] + GENPROG[:60] + CYCLES[::3] + POOL
    programs += [flipped(p, wrap) for p in [MOTOR] + GENPROG[:20] + CYCLES[::9] for wrap in WRAPS]
    unconverged = 0
    for program in programs:
        assert least_model(program, tol, max_iter) == reference.least_model(program, tol, max_iter)
        for M in starts_for(program, rng):
            got = stable_operator(program, M, tol, max_iter)
            assert got == reference.stable_operator(program, M, tol, max_iter)
            unconverged += not got[1].converged
        # a reduct is its own reduct: its operator is its least model
        frozen = reduct(program, M, tol)
        assert stable_operator(frozen, M, tol, max_iter) == least_model(frozen, tol, max_iter)
    assert unconverged > 0 if max_iter < 200 else unconverged == 0


LEVELLED = ("a <-g 0.5 with 1;\nb <-g min(a, f) with 1;\nc <-g min(b, neg1(d)) with 1;\n"
            "d <-l or_l({}, 0.25) with 1;\ne <-g d with 1;\nc <-g 0.25 with 1;\n"
            "0.5 <-g neg1(e) with 1;")


def test_levels_count_only_what_the_reduct_reads():
    # c reads d only inside a freeze site, so its level comes from b
    # alone; f heads no rule (level 0); d reads a and e reads d.  The
    # heads are sorted stably by level, and each keeps its rules together,
    # in program order: c's first body reads b and its site, the second is 0.25
    program = parse_program(LEVELLED.format("a"))
    analysis = _analysis(program, 1e-9)
    assert analysis.top == 3 and analysis.cyclic == ()
    assert heads_of(program, analysis.by_level) == ["a", "b", "d", "c", "e"]
    assert dict(analysis.by_level)[analysis.index["c"]] is analysis.heads["c"]
    V = [math.nan] * len(analysis.index) + [0.3]   # c's site is the only one
    V[analysis.index["b"]] = 0.5
    assert [body(V) for _, _, body, *_ in analysis.heads["c"]] == [0.3, 0.25]
    # once d reads itself, d and e (downstream) have no level: they are
    # cyclic, in program order, and top is c's level
    program = parse_program(LEVELLED.format("d"))
    cyclic = _analysis(program, 1e-9)
    assert cyclic.top == 3
    assert heads_of(program, cyclic.by_level) == ["a", "b", "c"]
    assert heads_of(program, cyclic.cyclic) == ["d", "e"]


LIVE_REVERSAL = "r <-g 0.5 with 1;\nq <-g neg1(r) with 1;\np <-g sub(1, q) with 1;"


def test_a_live_reversal_off_a_cycle_makes_the_stable_operator_rise_with_m():
    # `antitone` looks only at programs with a cycle, so it is None here;
    # yet p reads q through a subtrahend outside any freeze site, and q's
    # value is r's frozen negation: the stable operator gives p = M[r],
    # which rises with M.  The read is the -1 the compile pass records
    program = parse_program(LIVE_REVERSAL)
    assert _analysis(program, 1e-9).antitone is None
    reads = {}
    compile_body(program.rules[2].body, 1e-9, _analysis(program, 1e-9).index, [], reads)
    assert reads == {"q": -1}
    values = []
    for r in (0.2, 0.8):
        M = {"p": 0.0, "q": 0.0, "r": r}
        value, trace = stable_operator(program, M, 1e-9)
        assert trace.converged and value == {"p": 1 - (1 - r), "q": 1 - r, "r": 0.5}
        assert stable_value(program, M, 1e-9, MAX_ITER) == (value, True)
        values.append(value["p"])
    assert values == [pytest.approx(0.2), pytest.approx(0.8)]


def test_levels_take_linear_time_on_a_long_chain():
    # x_i reads x_(i-1); y and z read each other at the chain's end
    chain = ["x0 <-g 0.5 with 1;"] + [f"x{i} <-g x{i - 1} with 1;" for i in range(1, 3000)]
    program = parse_program("\n".join(chain + ["y <-g min(x2999, z) with 1;", "z <-g y with 1;"]))
    M = dict.fromkeys(program.atoms(), 0.5)
    start = time.perf_counter()
    analysis = _analysis(program, 1e-9)
    assert is_stable(program, M, 1e-9) is False   # the least model has y = z = 0
    assert time.perf_counter() - start < 1.0
    assert len(analysis.by_level) == 3000 and analysis.top == 3000
    assert heads_of(program, analysis.cyclic) == ["y", "z"]


def random_graph(rng):
    """Heads x0.. reading up to three atoms each, among them y0.., which head
    nothing: self-loops, isolated heads and read-only nodes all occur."""
    heads = [f"x{i}" for i in range(rng.randint(0, 8))]
    names = heads + [f"y{i}" for i in range(rng.randint(0, 3))]
    return {h: set(rng.sample(names, rng.randint(0, min(3, len(names))))) for h in heads}


def test_components_are_the_mutually_reachable_atoms_bottom_first():
    kinds = Counter()
    for seed in range(400):
        graph = random_graph(random.Random(seed))
        found = components(graph)
        assert {frozenset(c) for c in found} == reference.components(graph)
        assert sum(map(len, found)) == len(set().union(*found))   # each node once
        # each component after every component it reads, whatever order the graph is built in
        place = {v: i for i, c in enumerate(found) for v in c}
        assert all(place[w] <= place[h] for h, reads in graph.items() for w in reads)
        assert components(dict(reversed(graph.items()))) == found
        kinds["self-loop"] += any(h in reads for h, reads in graph.items())
        kinds["isolated"] += any(not reads for reads in graph.values())
        kinds["read only"] += any(v not in graph for c in found for v in c)
        kinds["cycle"] += any(len(c) > 1 for c in found)
    assert min(kinds.values()) > 20 and len(kinds) == 4


def test_components_take_linear_time_on_a_deep_chain():
    # each node reads the next, and the first in sorted order heads the
    # chain, so the walk goes 50,000 nodes deep, past the recursion limit;
    # each node is its own component, popped from the top of the stack
    n = 50_000
    graph = {f"n{i:05d}": {f"n{i + 1:05d}"} for i in range(n - 1)}
    start = time.perf_counter()
    found = components(graph)
    assert time.perf_counter() - start < 2.0
    assert found == [[f"n{i:05d}"] for i in reversed(range(n))]
    cycle = {f"n{i:04d}": {f"n{(i + 1) % 5000:04d}"} for i in range(5000)}
    assert components(cycle) == [sorted(cycle)]


def test_the_analysis_splits_the_rules_as_the_reference_levels_them():
    # each head's rules in program order, by_level (stably sorted by
    # level), cyclic, top and the antitone rule, from the reference's
    # levels of the reduct's trees, on the benchmark's pools and their
    # targets, and on random programs with arithmetic wraps
    pools = [parse_program(gen.grid_program(n, i)) for n in (5, 6, 7) for i in range(20)]
    pools += [parse_program(gen.equiv_program(c, i)) for c in (1, 2) for i in range(20)]
    programs = pools + CYCLES + [MOTOR] + GENPROG[:100]
    programs += [t for p in pools[::3] + [MOTOR] for t in targets(p) if p.constraints()]
    programs += [flipped(p, wrap) for p in GENPROG[:100]
                 for wrap in WRAPS + (lambda b: Apply("sub", (Const(1.0), b)),)]
    kinds = Counter()
    for program in programs:
        level, antitone = reference.levels(program)
        analysis = _analysis(program, 1e-9)
        definite = program.definite_rules()
        heads = list(dict.fromkeys(r.head.name for r in definite))
        assert list(analysis.heads) == heads
        assert [(h, impl, weight) for h in heads for impl, weight, *_ in analysis.heads[h]] == [
            (h, r.impl, r.weight) for h in heads for r in definite if r.head.name == h]
        top = max((n for n in level.values() if n < math.inf), default=0)
        finite = sorted((h for h in heads if level[h] <= top), key=lambda h: level[h])
        cyclic = [h for h in heads if level[h] > top]
        if antitone is not None:
            assert analysis.antitone is program.rules[antitone]
            finite, cyclic, top = [], heads, 0
        else:
            assert analysis.antitone is None
        slot = analysis.index
        assert analysis.by_level == tuple([(slot[h], analysis.heads[h]) for h in finite])
        assert analysis.cyclic == tuple([(slot[h], analysis.heads[h]) for h in cyclic])
        assert analysis.top == top
        kinds["antitone" if antitone is not None else reduct_kind(analysis)] += 1
    assert min(kinds.values()) > 10 and len(kinds) == 4


def test_a_search_step_builds_no_tree(monkeypatch):
    rng = random.Random(8)
    cases = []
    for program in [MOTOR] + GENPROG[:100] + CYCLES:
        for M in starts_for(program, rng):
            cases.append((program, M, stable_operator(program, M, 1e-9, MAX_ITER)))
    cycle = parse_program("p <-g neg1(q) with 1;\nq <-g neg1(p) with 1;\n")
    cycle_cfg = StableSearchConfig(mode="iterate", seeds=4, tol=1e-9)

    def boom(*args):
        raise AssertionError("a search step built a tree")
    monkeypatch.setattr(semantics, "Rule", boom)
    monkeypatch.setattr(semantics, "reduct", boom)
    monkeypatch.setattr(semantics, "freeze", boom)
    for program, M, want in cases:
        assert stable_operator(program, M, 1e-9, MAX_ITER) == want
        assert stable_value(program, M, 1e-9, MAX_ITER) == (want[0], want[1].converged)
    # no start of the even cycle settles, so the search runs no verdict
    assert find_stable_models(cycle, cycle_cfg) == []


def test_a_verdict_builds_a_reduct_only_where_the_operator_reaches_m(monkeypatch, model_m,
                                                                      model_n):
    # the operator converges away from motor's M, whose constraint holds,
    # so no reduct is needed to reject it; a stable point (N) and an
    # undecided point of a program with constraints each build one reduct,
    # for its constraints, and a constraint-free undecided point builds none
    assert stable_value(MOTOR, model_m, 1e-9, MAX_ITER)[1]
    assert all(reference.satisfies(model_m, r, 1e-9) for r in MOTOR.constraints())
    built = []

    def boom(*args):
        raise AssertionError("the verdict built a reduct")

    def counting(*args):
        built.append(args)
        return reduct(*args)
    monkeypatch.setattr(semantics, "reduct", boom)
    assert is_stable(MOTOR, model_m) is False
    monkeypatch.setattr(semantics, "reduct", counting)
    undecided = "p <-g or_l(p, 0.1) with 1;\nq <-g neg1(p) with 1;"
    for program, M, max_iter, verdict, reducts in (
            (MOTOR, model_n, MAX_ITER, True, 1),
            (parse_program(undecided), {"p": 0.5, "q": 0.5}, 3, None, 0),
            (parse_program(undecided + "\n1 <-g q with 1;"), {"p": 0.5, "q": 0.5}, 3, None, 1)):
        built.clear()
        assert is_stable(program, M, 1e-9, max_iter) is verdict
        assert len(built) == reducts


def test_reduct_reads_no_analysis(motor, model_n):
    # the trees come from `rewrite` alone: the fresh program is not analysed
    assert reduct(motor, model_n) == reference.reduct(motor, model_n, 1e-9)
    assert motor.derived("analyses", dict) == {}


def test_unconverged_trace_matches_oracle():
    program = parse_program("p <-g or_l(p, 0.1) with 1;\nq <-g neg1(p) with 1;")
    for max_iter in (1, 3):
        got = stable_operator(program, {"p": 0.5, "q": 0.5}, 1e-9, max_iter)
        assert got == reference.stable_operator(program, {"p": 0.5, "q": 0.5}, 1e-9, max_iter)
        assert not got[1].converged


def test_orbits_do_freeze_and_do_not_settle_at_once():
    # guards the comparison against a vacuous pass: most programs have
    # freeze sites, and the operator runs several Kleene steps
    with_sites = sum(bool(_analysis(p, 1e-9).sites) for p in GENPROG)
    assert with_sites > 200
    steps = [stable_operator(p, {a: 0.5 for a in p.atoms()})[1].iterations for p in CYCLES]
    assert max(steps) >= 4


def raised(fn, *args):
    with pytest.raises(MalpError) as info:
        fn(*args)
    return type(info.value), str(info.value)


def test_out_of_range_body_raises_alike():
    # neg1(q) is frozen at 1 when q = 0, so the reduct's body is add(1, 0.8)
    program = Program((Rule(Atom("p"), "godel", Apply("add", (Apply("neg1", (Atom("q"),)),
                                                              Const(0.8))), 1.0),
                       Rule(Atom("q"), "godel", Const(0.0), 1.0)))
    M = {"p": 0.0, "q": 0.0}
    want = raised(reference.stable_operator, program, M, 1e-9, 10)
    assert want == (RangeViolation, "body value 1.8 outside [0, 1]: add(1, 0.8)")
    assert raised(stable_operator, program, M, 1e-9, 10) == want
    live = raised(reference.least_model, program, 1e-9, 10)
    assert live == (RangeViolation, "body value 1.8 outside [0, 1]: add(neg1(q), 0.8)")
    assert raised(least_model, program, 1e-9, 10) == live


def test_a_later_rules_range_violation_names_its_own_reduct_body():
    # r's site neg1(s) comes first, frozen at 0.5; p's site neg1(q) comes
    # second, frozen at 1, so p's reduct body is add(1, 0.8), read from
    # p's own slice of the frozen values
    program = Program((Rule(Atom("r"), "godel", Apply("neg1", (Atom("s"),)), 1.0),
                       Rule(Atom("p"), "godel", Apply("add", (Apply("neg1", (Atom("q"),)),
                                                              Const(0.8))), 1.0),
                       Rule(Atom("q"), "godel", Const(0.0), 1.0),
                       Rule(Atom("s"), "godel", Const(0.5), 1.0)))
    M = {"p": 0.0, "q": 0.0, "r": 0.5, "s": 0.5}
    want = raised(reference.stable_operator, program, M, 1e-9, 10)
    assert want == (RangeViolation, "body value 1.8 outside [0, 1]: add(1, 0.8)")
    assert raised(stable_operator, program, M, 1e-9, 10) == want


def test_missing_atom_raises_alike():
    program = parse_program("p <-g min(q, neg1(r)) with 1;\nq <-g 0.5 with 1;")
    M = {"p": 0.0, "q": 0.0}
    want = raised(reference.stable_operator, program, M, 1e-9, 10)
    assert raised(stable_operator, program, M, 1e-9, 10) == want
    assert want[1] == "interpretation is not total: missing r"
    want = raised(reference.consequence, program, M, 1e-9)
    assert raised(immediate_consequence, program, M) == want


def operator_bodies(name, spec):
    """One body per arity the operator takes, over atoms x0, x1, ..."""
    arities = [spec.min_arity] + ([3] if spec.max_arity is None else [])
    for n in arities:
        if spec.const_first:
            for c in lattice_grid(0.1):
                yield Apply(name, (Const(c), Atom("x1"))), ("x1",)
        else:
            atoms = tuple(f"x{i}" for i in range(n))
            yield Apply(name, tuple(Atom(a) for a in atoms)), atoms


@pytest.mark.parametrize("name", sorted(BUILTINS))
@pytest.mark.parametrize("tol", TOLS)
def test_every_operator_compiles_like_eval(name, tol):
    # the closure, taken onto [0, 1] by in_range, and eval_body each give
    # the reference's value, or its error
    grid = lattice_grid(0.1)
    points = 0
    for body, atoms in operator_bodies(name, BUILTINS[name]):
        f = compile_body(body, tol, {a: i for i, a in enumerate(atoms)})
        for values in map(list, itertools.product(grid, repeat=len(atoms))):
            env = dict(zip(atoms, values))
            try:
                want = reference.body_value(body, env, tol)
            except RangeViolation as exc:
                for run in (lambda: in_range(f(values), tol, body),
                            lambda: eval_body(body, env, tol)):
                    with pytest.raises(RangeViolation, match=re.escape(str(exc))):
                        run()
            else:
                assert in_range(f(values), tol, body) == eval_body(body, env, tol) == want
            points += 1
    assert points >= 11


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 9), st.sampled_from(TOLS))
def test_one_closure_reads_the_body_as_written_and_as_the_reduct(seed, tol):
    # f reads the body as written with the site values at I in V, and the
    # body of reduct(P, M) with their values at M
    rng = random.Random(seed)
    base = random_emalp(rng, max_atoms=4, max_rules=5, max_constraints=2,
                        values=(0.0, 0.25, 0.5, 0.75, 1.0))
    for program in [base] + [flipped(base, wrap) for wrap in WRAPS]:
        sites, index = [], {a: i for i, a in enumerate(program.atoms())}
        compiled = [compile_body(r.body, tol, index, sites) for r in program.rules]
        I = {a: rng.random() for a in program.atoms()}
        M = {a: rng.random() for a in program.atoms()}
        written = [*I.values(), *[site(list(I.values())) for site in sites]]
        frozen = [*I.values(), *[site(list(M.values())) for site in sites]]
        frozen_rules = reference.reduct(program, M, tol).rules
        for f, rule, frozen_rule in zip(compiled, program.rules, frozen_rules):
            assert in_range(f(written), tol, rule.body) == reference.body_value(rule.body, I, tol)
            assert in_range(f(frozen), tol, rule.body) == reference.body_value(
                frozen_rule.body, I, tol)


def test_analysis_is_cached_outside_the_fields(motor, motor_text):
    fresh = parse_program(motor_text)
    first = _analysis(motor, 1e-9)
    assert _analysis(motor, 1e-9) is first
    assert _analysis(motor, 0.3) is not first
    assert motor == fresh and hash(motor) == hash(fresh) and repr(motor) == repr(fresh)
    assert pickle.loads(pickle.dumps(motor)) == motor


def verdict_points(program, rng):
    """Every grid-0.5 point of the program, and two random points."""
    randoms = [{a: rng.random() for a in program.atoms()} for _ in range(2)]
    return [*reference.grid_points(program, 0.5), *randoms]


def test_verdict_matches_tree_oracle(model_m, model_n):
    # the verdict runs the stable operator and checks the reduct's
    # constraints; the oracle builds the paper's definition from trees
    rng = random.Random(9)
    cases = [(MOTOR, [model_m, model_n] + verdict_points(MOTOR, rng))]
    for program in GENPROG[:20]:
        for variant in [program] + [flipped(program, wrap) for wrap in WRAPS]:
            cases.append((variant, verdict_points(variant, rng)))
    verdicts = Counter()
    for tol in TOLS:
        for program, points in cases:
            for M in points:
                trace = stable_operator(program, M, tol, 200)[1]
                verdict = is_stable(program, M, tol, 200)
                assert (verdict, trace) == reference.verdict(program, M, tol, 200)
                # under a cap of 2 the trace is Kleene's, and a decided
                # verdict is the uncapped one
                capped_trace = stable_operator(program, M, tol, 2)[1]
                capped = is_stable(program, M, tol, 2)
                want, want_trace = reference.verdict(program, M, tol, 2)
                assert capped_trace == want_trace and capped in (None, verdict)
                for v, t in ((verdict, trace), (capped, capped_trace)):
                    lfp = t.iterates[-1]
                    settled = t.converged and all(abs(x - M[a]) <= tol for a, x in lfp.items())
                    verdicts[v, t.converged, settled] += 1
                verdicts["capped", capped is None, verdict is None] += 1
    # guards against a vacuous pass: stable points, undecided points, and
    # constraints that reject a point whose least model is M and a point
    # whose least model did not converge; a cap that decides a verdict
    # the pass and Kleene reach, and one that leaves a decided verdict open
    assert verdicts[True, True, True] > 0 and verdicts[None, False, False] > 0
    assert verdicts[False, True, True] > 0 and verdicts[False, False, False] > 0
    assert verdicts["capped", False, False] > 0 and verdicts["capped", True, False] > 0


PASS_CAPS = (1, 2, 3, 200)


def pass_cases(rng):
    """(program, points): genprog with its wraps, and the benchmark's
    iterate, equiv and grid programs, at every grid-0.5 point (four of
    them past three atoms) and at two random points."""
    programs = GENPROG[:16] + [flipped(p, wrap) for p in GENPROG[:6] for wrap in WRAPS]
    programs += [MOTOR] + CYCLES[::9] + POOL[::3]
    for program in programs:
        grid = list(reference.grid_points(program, 0.5))
        if len(program.atoms()) > 3:
            grid = rng.sample(grid, 4)
        yield program, grid + [{a: rng.random() for a in program.atoms()} for _ in range(2)]


def reduct_kind(analysis):
    return "all cyclic" if not analysis.by_level else "mixed" if analysis.cyclic else "acyclic"


def test_the_level_pass_gives_the_stable_operators_value():
    # the routine (a pass in level order, then Kleene on the cyclic rules)
    # against Kleene's stable_operator from bottom.  Uncapped: the same
    # converged flag, and the same floats where Kleene stops at T(I) == I,
    # within tol of them where it stops within tol.  Under every cap: both
    # verdicts read the routine.  A cap of at most top leaves the pass no
    # room, so the routine is Kleene's capped run itself; otherwise, and
    # where that run stops at T(I) == I, a run that converges under a cap
    # is a prefix of the uncapped one, so its value and verdict are the same.
    rng = random.Random(12)
    taken = Counter()
    for program, points in pass_cases(rng):
        for tol in TOLS:
            analysis = _analysis(program, tol)
            taken[reduct_kind(analysis)] += 1
            for M in points:
                full, converged = stable_value(program, M, tol, MAX_ITER)
                want, trace = stable_operator(program, M, tol, MAX_ITER)
                assert converged == trace.converged
                if trace.iterations == 0 or trace.iterates[-2] == want:
                    assert full == want
                elif converged:
                    assert interp_distance(full, want) <= tol
                    taken["tol stop"] += 1
                verdict = is_stable(program, M, tol, MAX_ITER)
                for max_iter in PASS_CAPS:
                    value, capped = stable_value(program, M, tol, max_iter)
                    exact = True
                    if max_iter <= analysis.top:
                        kleene, kt = stable_operator(program, M, tol, max_iter)
                        assert (value, capped) == (kleene, kt.converged)
                        exact = kt.iterations == 0 or kt.iterates[-2] == kleene
                        taken["cap at or below top", capped] += 1
                    assert not (capped and exact) or (value, converged) == (full, True)
                    got = is_stable(program, M, tol, max_iter)
                    assert got in (None, verdict) or not exact
    # guards against a vacuous pass: acyclic, mixed and all-cyclic
    # reducts, caps of at most top under which Kleene does and does not
    # converge, and a Kleene stop within tol short of the fixpoint (at tol 0.3 only)
    assert all(taken[kind] > 0 for kind in ("acyclic", "mixed", "all cyclic"))
    assert taken["cap at or below top", True] > 0 and taken["cap at or below top", False] > 0
    assert taken["tol stop"] > 0


MIXED = "a <-g 0.5 with 1;\nb <-g a with 1;\nc <-g max(c, b) with 1;\nd <-g c with 1;"


def test_a_mixed_reduct_iterates_only_its_cyclic_rules(monkeypatch):
    # a and b have levels 1 and 2; c reads itself and d reads c.  The pass
    # settles a and b in two calls, and Kleene on c and d from there takes
    # three steps of two calls; Kleene over all four rules from bottom
    # takes five steps of four.  Both converge from a cap of 5 on.
    program = parse_program(MIXED)
    M = dict.fromkeys("abcd", 0.5)
    analysis = _analysis(program, 1e-9)
    assert reduct_kind(analysis) == "mixed" and analysis.top == 2
    for max_iter in range(1, 7):
        converged = stable_value(program, M, 1e-9, max_iter)[1]
        assert converged == stable_operator(program, M, 1e-9, max_iter)[1].converged
        assert converged == (max_iter >= 5)
    calls = Counter()

    def counting(*args):
        calls["eval_conjunctor"] += 1
        return eval_conjunctor(*args)
    monkeypatch.setattr(semantics, "eval_conjunctor", counting)
    assert is_stable(program, M, 1e-9) is True
    assert calls["eval_conjunctor"] == 8


ANTITONE_CYCLE = "a <-g 1 with 1;\np <-g max(p, sub(1, a)) with 1;"


def test_a_cycle_that_reads_order_reversingly_is_iterated_from_bottom():
    # p reads a as a subtrahend: Kleene from bottom reads a = 0 at step 1,
    # so p = 1 from then on, while iterating p from a pass that settled
    # a = 1 would leave p at 0.  With T not monotone, every rule is
    # iterated from bottom; on an acyclic reduct (the motor's divisor)
    # the pass stays exact and is kept
    program = parse_program(ANTITONE_CYCLE)
    analysis = _analysis(program, 1e-9)
    assert (analysis.by_level, analysis.cyclic, analysis.top) == (
        (), tuple([(analysis.index[h], g) for h, g in analysis.heads.items()]), 0)
    for M, stable in (({"a": 1.0, "p": 1.0}, True), ({"a": 1.0, "p": 0.0}, False)):
        want, trace = stable_operator(program, M, 1e-9)
        assert want == {"a": 1.0, "p": 1.0} and trace.converged
        assert stable_value(program, M, 1e-9, MAX_ITER) == (want, True)
        assert is_stable(program, M, 1e-9) is stable
    assert reduct_kind(_analysis(MOTOR, 1e-9)) == "acyclic"


TOL_STOP = "a <-g 0.1 with 1;\nb <-g 0.2 with 1;\na <-p b with 0.6;"


def test_a_kleene_stop_within_tol_is_within_tol_of_the_pass():
    # at tol 0.3 Kleene stops after step 1, at a = 0.1: X = (0.4, 0.5) is a
    # pre-fixpoint.  The pass gives the fixpoint a = max(0.1, 0.6 * 0.2).
    program = parse_program(TOL_STOP)
    M = {"a": 0.41, "b": 0.2}
    kleene, trace = stable_operator(program, M, 0.3)
    assert kleene == {"a": 0.1, "b": 0.2} and trace.iterations == 1 and trace.converged
    assert stable_value(program, M, 0.3, 10) == ({"a": 0.6 * 0.2, "b": 0.2}, True)
    # M is within 0.3 of the pass's value, not of Kleene's iterate; the
    # verdict reads the pass
    assert is_stable(program, M, 0.3) is True
    assert stable_value(program, M, 1e-9, 10) == (stable_operator(program, M, 1e-9)[0], True)


def test_an_unvalidated_body_out_of_range_at_bottom_only():
    # Kleene's step 1 evaluates sub(q, 0.5) at q = 0, which is out of
    # range; the pass evaluates it once, after q = 1.  So the verdict is
    # given, while Kleene's trace, which `stable verify` shows, raises; under
    # a cap at top the verdict is Kleene's run, which raises the same way
    program = parse_program("p <-g sub(q, 0.5) with 1;\nq <-g 1 with 1;", validate=False)
    M = {"p": 0.5, "q": 1.0}
    assert is_stable(program, M, 1e-9, 10) is True
    message = re.escape("body value -0.5 outside [0, 1]: sub(q, 0.5)")
    with pytest.raises(RangeViolation, match=message):
        stable_operator(program, M, 1e-9, 10)
    with pytest.raises(RangeViolation, match=message):
        is_stable(program, M, 1e-9, 2)
