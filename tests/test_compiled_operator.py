"""Differential tests of the compiled stable operator, fixpoints and verdicts.

`stable_operator`, `least_model` and `immediate_consequence` run on an
analysis made once per program and tolerance: the freeze sites are
found once, every body is compiled into a closure, and each head gets a
level, so that a Kleene step of the reduct's T after the first
recomputes only the heads that can still move.  A verdict
(`stable_check`) runs the stable operator as a search step does; a
reduct is a plain program that carries no analysis, so T compiles it
from its own rules.  The oracle is the path they replaced, kept here:
take the reduct's rules (its trees are checked against a tree oracle in
test_body_walks.py), then iterate T by walking the trees with
`eval_body`; a verdict's oracle freezes P at M with that tree oracle
and checks the frozen constraints at M.  Values, verdicts and
`FixpointTrace`s must be equal (`==`), not merely close.
"""

import dataclasses
import importlib.util
import itertools
import pickle
import random
import re
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from emalp import (
    Apply,
    Atom,
    Const,
    FixpointTrace,
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
    satisfies,
    stable_operator,
    to_manlp,
)
import emalp.semantics as semantics
from emalp.program import BUILTINS, RangeViolation, compile_body
from emalp.semantics import StableSearchConfig, _analysis, find_stable_models, stable_check

from genprog import random_emalp
from test_body_walks import WRAPS, flipped, freeze_oracle

TOLS = (1e-9, 0.3)
MAX_ITER = 200

_GEN = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
_spec = importlib.util.spec_from_file_location("emalp_bench_gen", _GEN)
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)


def oracle_step(program, I, tol):
    out = {a: 0.0 for a in I}
    for r in program.rules:
        if r.is_constraint:
            continue
        v = eval_conjunctor(r.impl, r.weight, eval_body(r.body, I, tol))
        name = r.head.name
        if name not in out or v > out[name]:
            out[name] = v
    return out


def oracle_bounds_above(program, I, J, tol):
    """The stop's second test: X, J raised by tol (capped at 1) where J != I, has T(X) <= X."""
    X = {a: min(1.0, J[a] + tol) if J[a] != I[a] else J[a] for a in J}
    TX = oracle_step(program, X, tol)
    return all(TX[a] <= X[a] for a in X)


def oracle_least_model(program, tol, max_iter, atoms=None):
    names = program.atoms() if atoms is None else tuple(sorted(atoms))
    I = {a: 0.0 for a in names}
    iterates = [dict(I)]
    if not names:
        return I, FixpointTrace((dict(I),), True, 0)
    converged = False
    for _ in range(max_iter):
        J = oracle_step(program, I, tol)
        iterates.append(dict(J))
        if J == I or (max(abs(I[k] - J[k]) for k in I) < tol
                      and oracle_bounds_above(program, I, J, tol)):
            converged = True
            break
        I = J
    return iterates[-1], FixpointTrace(tuple(iterates), converged, len(iterates) - 1)


def oracle_stable_operator(program, M, tol, max_iter):
    rest = Program(reduct(program, M, tol).definite_rules())
    return oracle_least_model(rest, tol, max_iter, atoms=program.atoms())


def oracle_stable_check(program, M, tol, max_iter):
    """The paper's verdict on trees: freeze P at M, take the least model
    over P's atoms, and check the frozen constraints at M."""
    frozen = Program(tuple(Rule(r.head, r.impl, freeze_oracle(r.body, 1, M, tol), r.weight)
                           for r in program.rules))
    lfp, trace = oracle_least_model(frozen, tol, max_iter, atoms=program.atoms())
    if not all(satisfies(M, r, tol) for r in frozen.constraints()):
        return False, trace
    if not trace.converged:
        return None, trace
    return all(abs(lfp[a] - M[a]) <= tol for a in lfp), trace


def assert_operator_matches(program, M, tol):
    got = stable_operator(program, M, tol, MAX_ITER)
    assert got == oracle_stable_operator(program, M, tol, MAX_ITER)
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


def targets(program):
    fc = eliminate_constraints_fc(program).target
    return [fc, eliminate_constraints_janssen(program).target, to_manlp(fc).target]


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
        assert least_model(program, tol, MAX_ITER) == oracle_least_model(program, tol, MAX_ITER)
        I = {a: rng.random() for a in program.atoms()}
        assert immediate_consequence(program, I, tol) == oracle_step(program, I, tol)


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
        want = oracle_step(fresh, I, tol)
        assert immediate_consequence(got, I, tol) == immediate_consequence(fresh, I, tol) == want


POOL = ([parse_program(gen.grid_program(n, i)) for n in (5, 6) for i in range(6)]
        + [parse_program(gen.equiv_program(c, i)) for c in (1, 2) for i in range(4)])


@pytest.mark.parametrize("max_iter", [1, 2, 200])
@pytest.mark.parametrize("tol", TOLS)
def test_every_trace_matches_the_oracle_under_every_cap(tol, max_iter):
    # a Kleene step of the reduct's T after the first recomputes only the
    # heads of level >= k; every iterate, the stop and the cap must still
    # be the full T's, in the program as written and in its reduct
    rng = random.Random(10)
    programs = [MOTOR] + GENPROG[:60] + CYCLES[::3] + POOL
    programs += [flipped(p, wrap) for p in [MOTOR] + GENPROG[:20] + CYCLES[::9] for wrap in WRAPS]
    unconverged = 0
    for program in programs:
        assert least_model(program, tol, max_iter) == oracle_least_model(program, tol, max_iter)
        for M in starts_for(program, rng):
            got = stable_operator(program, M, tol, max_iter)
            assert got == oracle_stable_operator(program, M, tol, max_iter)
            unconverged += not got[1].converged
        # a reduct is its own reduct: its operator is its least model
        frozen = reduct(program, M, tol)
        assert stable_operator(frozen, M, tol, max_iter) == least_model(frozen, tol, max_iter)
    assert unconverged > 0 if max_iter < 200 else unconverged == 0


def test_levels_count_only_what_the_reduct_reads():
    # d reads itself and e reads d: both on or below a cycle; c reads d
    # only inside a freeze site, so its level comes from b alone; f heads
    # no rule (level 0).  Step k recomputes the heads of level >= k.
    program = parse_program("a <-g 0.5 with 1;\nb <-g min(a, f) with 1;\n"
                            "c <-g min(b, neg1(d)) with 1;\nd <-l or_l(d, 0.25) with 1;\n"
                            "e <-g d with 1;\nc <-g 0.25 with 1;\n0.5 <-g neg1(e) with 1;")
    steps = _analysis(program, 1e-9).steps
    assert [list(reset) for reset, _ in steps] == [["b", "c", "d", "e"], ["c", "d", "e"],
                                                   ["d", "e"]]
    assert [[r[0] for r in rules] for _, rules in steps] == [
        ["b", "c", "d", "e", "c"], ["c", "d", "e", "c"], ["d", "e"]]
    assert all(set(reset.values()) == {0.0} for reset, _ in steps)


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
    for program, M, want in cases:
        analysis = _analysis(program, 1e-9)
        monkeypatch.setitem(program.__dict__["_derived"], ("analysis", 1e-9), dataclasses.replace(
            analysis, builds=tuple(None if b is None else boom for b in analysis.builds)))
        assert stable_operator(program, M, 1e-9, MAX_ITER) == want
    # no start of the even cycle settles, so the search runs no verdict
    assert find_stable_models(cycle, cycle_cfg) == []


def test_unconverged_trace_matches_oracle():
    program = parse_program("p <-g or_l(p, 0.1) with 1;\nq <-g neg1(p) with 1;")
    for max_iter in (1, 3):
        got = stable_operator(program, {"p": 0.5, "q": 0.5}, 1e-9, max_iter)
        assert got == oracle_stable_operator(program, {"p": 0.5, "q": 0.5}, 1e-9, max_iter)
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
    want = raised(oracle_stable_operator, program, M, 1e-9, 10)
    assert want == (RangeViolation, "body value 1.8 outside [0, 1]: add(1, 0.8)")
    assert raised(stable_operator, program, M, 1e-9, 10) == want
    live = raised(oracle_least_model, program, 1e-9, 10)
    assert live == (RangeViolation, "body value 1.8 outside [0, 1]: add(neg1(q), 0.8)")
    assert raised(least_model, program, 1e-9, 10) == live


def test_missing_atom_raises_alike():
    program = parse_program("p <-g min(q, neg1(r)) with 1;\nq <-g 0.5 with 1;")
    M = {"p": 0.0, "q": 0.0}
    want = raised(oracle_stable_operator, program, M, 1e-9, 10)
    assert raised(stable_operator, program, M, 1e-9, 10) == want
    assert want[1] == "interpretation is not total: missing r"
    assert raised(immediate_consequence, program, M) == raised(oracle_step, program, M, 1e-9)


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
    grid = lattice_grid(0.1)
    points = 0
    for body, atoms in operator_bodies(name, BUILTINS[name]):
        f, build = compile_body(body, tol)
        assert build is None
        for values in itertools.product(grid, repeat=len(atoms)):
            env = dict(zip(atoms, values))
            try:
                want = eval_body(body, env, tol)
            except RangeViolation as exc:
                with pytest.raises(RangeViolation, match=re.escape(str(exc))):
                    f(env, None)
            else:
                assert f(env, None) == want
            points += 1
    assert points >= 11


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 9), st.sampled_from(TOLS))
def test_one_closure_reads_the_body_as_written_and_as_the_reduct(seed, tol):
    # f(I, None) is the body as written; with the site values at M it is
    # the body of reduct(P, M)
    rng = random.Random(seed)
    base = random_emalp(rng, max_atoms=4, max_rules=5, max_constraints=2,
                        values=(0.0, 0.25, 0.5, 0.75, 1.0))
    for program in [base] + [flipped(base, wrap) for wrap in WRAPS]:
        sites = []
        compiled = [compile_body(r.body, tol, sites)[0] for r in program.rules]
        I = {a: rng.random() for a in program.atoms()}
        M = {a: rng.random() for a in program.atoms()}
        frozen = [site(M, None) for site in sites]
        for f, rule, frozen_rule in zip(compiled, program.rules, reduct(program, M, tol).rules):
            assert f(I, None) == eval_body(rule.body, I, tol)
            assert f(I, frozen) == eval_body(frozen_rule.body, I, tol)


def test_analysis_is_cached_outside_the_fields(motor, motor_text):
    fresh = parse_program(motor_text)
    first = _analysis(motor, 1e-9)
    assert _analysis(motor, 1e-9) is first
    assert _analysis(motor, 0.3) is not first
    assert motor == fresh and hash(motor) == hash(fresh) and repr(motor) == repr(fresh)
    assert pickle.loads(pickle.dumps(motor)) == motor


def verdict_points(program, rng):
    """Every grid-0.5 point of the program, and two random points."""
    atoms = program.atoms()
    grid = [dict(zip(atoms, values))
            for values in itertools.product(lattice_grid(0.5), repeat=len(atoms))]
    return grid + [{a: rng.random() for a in atoms} for _ in range(2)]


def test_verdict_matches_tree_oracle(model_m, model_n):
    # the verdict runs the stable operator and checks the reduct's
    # constraints; the oracle builds the paper's definition from trees
    rng = random.Random(9)
    cases = [(MOTOR, [model_m, model_n] + verdict_points(MOTOR, rng))]
    for program in GENPROG[:20]:
        for variant in [program] + [flipped(program, wrap) for wrap in WRAPS]:
            cases.append((variant, verdict_points(variant, rng)))
    verdicts = Counter()
    for tol, max_iter in itertools.product(TOLS, (2, 200)):
        for program, points in cases:
            for M in points:
                verdict, trace = stable_check(program, M, tol, max_iter)
                assert (verdict, trace) == oracle_stable_check(program, M, tol, max_iter)
                lfp = trace.iterates[-1]
                settled = trace.converged and all(abs(v - M[a]) <= tol for a, v in lfp.items())
                verdicts[verdict, trace.converged, settled] += 1
    # guards against a vacuous pass: stable points, undecided points, and
    # constraints that reject a point whose least model is M and a point
    # whose least model did not converge
    assert verdicts[True, True, True] > 0 and verdicts[None, False, False] > 0
    assert verdicts[False, True, True] > 0 and verdicts[False, False, False] > 0
