import json
import random

import pytest

from emalp import (
    Apply,
    BudgetExceeded,
    Atom,
    Const,
    Program,
    ProgramClass,
    StableSearchConfig,
    bottom_interpretation,
    eval_body,
    eval_implication,
    find_stable_models,
    immediate_consequence,
    interp_distance,
    is_stable,
    least_model,
    occurrences,
    parse_program,
    reduct,
    satisfies,
    serialize_program,
    stable_operator,
)
from emalp import semantics
from emalp.cli import main
from emalp.program import MalpError, compile_body
from conftest import walked_minimal
from genprog import random_emalp
import reference

MUTUAL = "p <-g neg1(q) with 1;\nq <-g neg1(p) with 1;\n"


def interp_leq(a, b, tol):
    """a <= b at every atom of a, within tol."""
    return all(a[k] <= b[k] + tol for k in a)


# --- satisfaction and models -------------------------------------------------


def test_satisfies_examples(motor, model_m):
    assert satisfies(model_m, motor.rules[0])
    assert satisfies(model_m, motor.rules[1])
    # the constraint forces 0.3 <= I(q): 1 <= 0.7 <-l 0.8 fails
    low_q = {"p": 0.0, "q": 0.2, "s": 0.0, "t": 0.0}
    assert not satisfies(low_q, motor.rules[2])


def test_is_model_examples(motor, model_m, model_n):
    # the paper's M and N are models of the motor program, bottom is not
    for I, want in ((model_m, True), (model_n, True),
                    (bottom_interpretation(motor.atoms()), False)):
        assert all(reference.satisfies(I, r, 1e-9) for r in motor.rules) is want


def test_is_model_requires_totality(motor):
    with pytest.raises(MalpError, match="not total"):
        semantics.require_total({"p": 0.1}, motor)


# --- reduct -------------------------------------------------------------------


def test_reduct_freezes_negation_subtrees(motor, model_n):
    frozen = reduct(motor, model_n)
    b2 = frozen.rules[1].body
    assert isinstance(b2, Apply) and b2.op == "max"
    assert b2.args[0].value == pytest.approx(0.2, abs=1e-12)
    assert b2.args[1].value == pytest.approx(0.6, abs=1e-12)
    b3 = frozen.rules[2].body
    assert b3 == Const(1 - 0.36)
    # heads and weights unchanged
    assert [r.head for r in frozen.rules] == [r.head for r in motor.rules]
    assert [r.weight for r in frozen.rules] == [r.weight for r in motor.rules]


def test_reduct_keeps_arithmetic_antitone_occurrences_live(motor, model_n):
    # the division body has no negation to freeze, so it is copied verbatim
    assert reduct(motor, model_n).rules[0].body == motor.rules[0].body


def test_reduct_of_positive_program_is_identity():
    program = parse_program("p <-g min(q, 0.5) with 1;\nq <-p neg1(neg1(r)) with 0.8;")
    M = {"p": 0.3, "q": 0.9, "r": 0.1}
    assert reduct(program, M) == program


def test_reduct_output_positive_for_negation_mediated_programs():
    rng = random.Random(11)
    for _ in range(50):
        program = random_emalp(rng, max_atoms=3, max_rules=4, max_constraints=1)
        M = {a: rng.random() for a in program.atoms()}
        frozen = reduct(program, M)
        for r in frozen.rules:
            assert all(o.sign > 0 for o in occurrences(r.body))


def _substitute(node, env):
    # literal reading of the reduct: negative-polarity atoms become constants
    if isinstance(node, Const):
        return node
    if isinstance(node, Atom):
        return Const(env[node.name]) if node.name in env else node
    return Apply(node.op, tuple(_substitute(a, env) for a in node.args))


def test_reduct_matches_atom_substitution_when_negation_mediated():
    # on programs whose antitone occurrences all sit under negations, the
    # subtree freeze evaluates to the same function as substituting each
    # negative atom by its value
    rng = random.Random(13)
    for _ in range(40):
        program = random_emalp(rng, max_atoms=3, max_rules=4, max_constraints=1)
        atoms = program.atoms()
        M = {a: rng.random() for a in atoms}
        frozen = reduct(program, M)
        for orig, froze in zip(program.rules, frozen.rules):
            negative = {o.atom: M[o.atom] for o in occurrences(orig.body) if o.sign < 0}
            substituted = _substitute(orig.body, negative)
            for _ in range(5):
                I = {a: rng.random() for a in atoms}
                assert eval_body(froze.body, I) == pytest.approx(
                    eval_body(substituted, I), abs=1e-12)


# --- fixpoints ----------------------------------------------------------------


def test_immediate_consequence_iterates(motor, model_n):
    rest = Program(reduct(motor, model_n).definite_rules())
    I0 = bottom_interpretation(motor.atoms())
    I1 = immediate_consequence(rest, I0)
    assert I1 == pytest.approx({"p": 0.0, "q": 0.36, "s": 0.8, "t": 0.7}, abs=1e-9)
    I2 = immediate_consequence(rest, I1)
    assert I2 == pytest.approx({"p": 9 / 80, "q": 0.36, "s": 0.8, "t": 0.8}, abs=1e-9)
    I3 = immediate_consequence(rest, I2)
    assert I3 == pytest.approx({"p": 9 / 85, "q": 0.36, "s": 0.8, "t": 0.8}, abs=1e-9)


def test_least_model_trace(motor, model_n):
    rest = Program(reduct(motor, model_n).definite_rules())
    value, trace = least_model(rest, 1e-9, 100)
    assert trace.converged
    assert value == pytest.approx(model_n, abs=1e-9)
    distinct = []
    for it in trace.iterates:
        if not distinct or interp_distance(distinct[-1], it) >= 1e-9:
            distinct.append(it)
    assert len(distinct) == 4


def test_immediate_consequence_takes_sup_over_competing_rules():
    program = parse_program("p <-g 0.4 with 1;\np <-p 0.9 with 0.5;")
    out = immediate_consequence(program, {"p": 0.0})
    assert out["p"] == pytest.approx(0.45)


def test_atoms_without_rules_stay_bottom_in_stable_models():
    program = parse_program("p <-g q with 1;")
    cfg = StableSearchConfig(mode="grid", grid_step=0.5)
    assert find_stable_models(program, cfg) == [{"p": 0.0, "q": 0.0}]


def test_least_model_empty_program():
    value, trace = least_model(Program(()))
    assert value == {}
    assert trace.converged and trace.iterations == 0


def test_least_model_self_loop():
    program = parse_program("p <-g p with 1;")
    value, trace = least_model(program)
    assert value == {"p": 0.0}
    assert trace.converged


def test_least_model_nonconvergence_flagged():
    program = parse_program("p <-g or_l(p, 0.1) with 1;")
    _, trace = least_model(program, 1e-9, max_iter=3)
    assert not trace.converged


def test_trace_is_increasing_for_positive_programs():
    rng = random.Random(5)
    for _ in range(30):
        program = random_emalp(rng, max_atoms=3, max_rules=4, max_constraints=0)
        if program.classify() is not ProgramClass.POSITIVE:
            program = Program(reduct(program, {a: rng.random() for a in program.atoms()})
                              .definite_rules())
        _, trace = least_model(program)
        assert trace.converged
        for a, b in zip(trace.iterates, trace.iterates[1:]):
            assert interp_leq(a, b, 1e-9)


def test_immediate_consequence_monotone_on_positive_programs():
    rng = random.Random(6)
    for _ in range(30):
        program = random_emalp(rng, max_atoms=3, max_rules=4, max_constraints=0)
        program = Program(reduct(program, {a: rng.random() for a in program.atoms()})
                          .definite_rules())
        atoms = program.atoms()
        lo = {a: rng.random() for a in atoms}
        hi = {a: min(1.0, lo[a] + rng.random() * (1.0 - lo[a])) for a in atoms}
        assert interp_leq(immediate_consequence(program, lo),
                          immediate_consequence(program, hi), 1e-9)


def test_least_model_below_every_grid_model():
    rng = random.Random(9)
    for _ in range(20):
        program = random_emalp(rng, max_atoms=2, max_rules=3, max_constraints=0)
        program = Program(reduct(program, {a: 0.5 for a in program.atoms()})
                          .definite_rules())
        value, trace = least_model(program)
        assert trace.converged
        for M in reference.grid_points(program, 0.25):
            if all(reference.satisfies(M, r, 1e-9) for r in program.rules):
                assert interp_leq(value, M, 1e-9)


# --- stability ----------------------------------------------------------------


def test_is_stable_verdicts(motor, model_m, model_n):
    assert is_stable(motor, model_n, 1e-9) is True
    assert is_stable(motor, model_m, 1e-9) is False


def test_is_stable_mutual_negation_midpoint():
    program = parse_program(MUTUAL)
    # reduct at (0.5, 0.5) freezes both bodies to 0.5; its least model is
    # p = 1 &g 0.5 = 0.5, q likewise
    assert is_stable(program, {"p": 0.5, "q": 0.5}, 1e-9) is True
    assert is_stable(program, {"p": 0.0, "q": 0.0}, 1e-9) is False


def test_is_stable_indeterminate_on_cap():
    program = parse_program("p <-g or_l(p, 0.1) with 1;")
    assert is_stable(program, {"p": 1.0}, 1e-9, max_iter=2) is None


def test_stable_operator(motor, model_n):
    value, trace = stable_operator(motor, model_n)
    assert trace.converged
    assert value == pytest.approx(model_n, abs=1e-9)
    # first image from bottom: q = 0.6 * max(neg1 0, neg2 0) = 0.6,
    # s = 0.8, t = 0.8, p = 0.5 * min(0.6 / 1.7, 1) = 0.3 / 1.7
    first, trace = stable_operator(motor, bottom_interpretation(motor.atoms()))
    assert trace.converged
    assert first == pytest.approx({"p": 0.3 / 1.7, "q": 0.6, "s": 0.8, "t": 0.8}, abs=1e-9)


def test_stable_operator_constant_on_positive_programs():
    program = parse_program("p <-g min(q, 0.5) with 1;\nq <-g 0.9 with 0.8;")
    a, _ = stable_operator(program, {"p": 0.0, "q": 0.0})
    b, _ = stable_operator(program, {"p": 1.0, "q": 1.0})
    lfp, _ = least_model(program)
    assert a == b == lfp


# --- search -------------------------------------------------------------------


def test_grid_search_mutual_negation():
    program = parse_program(MUTUAL)
    cfg = StableSearchConfig(mode="grid", grid_step=0.5)
    models = find_stable_models(program, cfg)
    assert models == [{"p": 0.0, "q": 1.0}, {"p": 0.5, "q": 0.5}, {"p": 1.0, "q": 0.0}]


def test_grid_search_agrees_with_brute_force_oracle():
    rng = random.Random(21)
    for _ in range(25):
        program = random_emalp(rng, max_atoms=3, max_rules=4, max_constraints=1)
        cfg = StableSearchConfig(mode="grid", grid_step=0.5)
        want = reference.stable_models(program, 0.5, cfg.tol, cfg.max_iter)
        assert find_stable_models(program, cfg) == want
    for _ in range(5):
        program = random_emalp(rng, max_atoms=2, max_rules=3, max_constraints=1,
                               values=(0.0, 0.25, 0.5, 0.75, 1.0))
        cfg = StableSearchConfig(mode="grid", grid_step=0.25)
        want = reference.stable_models(program, 0.25, cfg.tol, cfg.max_iter)
        assert find_stable_models(program, cfg) == want


def test_grid_search_unsatisfiable_constraint():
    program = parse_program("0 <-g 1 with 1;")
    cfg = StableSearchConfig(mode="grid", grid_step=0.5)
    assert find_stable_models(program, cfg) == []


def test_iterate_search_finds_stable_model(motor, model_n):
    cfg = StableSearchConfig(mode="iterate", seeds=16, rng_seed=3)
    models = find_stable_models(motor, cfg)
    assert any(interp_distance(m, model_n) <= 1e-6 for m in models)


def test_iterate_search_deterministic(motor):
    cfg = StableSearchConfig(mode="iterate", seeds=8, rng_seed=42)
    assert find_stable_models(motor, cfg) == find_stable_models(motor, cfg)


def test_search_rejects_unknown_mode(motor):
    with pytest.raises(MalpError):
        find_stable_models(motor, StableSearchConfig(mode="anneal"))


# --- stable implies constraint bound and minimality ----------------------------


def test_constraint_bound_on_models(motor, model_m, model_n):
    # every model M of a program with constraint <c <-i B; 1> has B(M) <= c
    rng = random.Random(33)
    constraint = motor.rules[2]
    samples = [model_m, model_n]
    samples += [{a: rng.random() for a in motor.atoms()} for _ in range(200)]
    found = 0
    for M in samples:
        if all(reference.satisfies(M, r, 1e-9) for r in motor.rules):
            found += 1
            assert eval_body(constraint.body, M) <= constraint.head.value + 1e-9
    assert found >= 2


@pytest.mark.parametrize("tol", [1e-9, 0.3])
def test_is_model_is_every_rule_of_the_reference(tol, tmp_path, capsys):
    # each rule's check, constraints included: on some points only a
    # constraint fails.  At the wide tol, `emalp eval` reports each rule's
    # body value, implication and check as the reference makes them
    only_a_constraint = verdicts = 0
    path, interp = tmp_path / "p.malp", tmp_path / "i.json"
    for seed in range(80):
        rng = random.Random(seed)
        program = random_emalp(rng, max_constraints=2, values=(0.0, 0.25, 0.5, 0.75, 1.0))
        if not program.constraints():
            continue
        path.write_text(serialize_program(program))
        points = list(reference.grid_points(program, 0.5))
        points += [{a: rng.random() for a in program.atoms()} for _ in range(10)]
        for I in points:
            checks = [reference.satisfies(I, r, tol) for r in program.rules]
            assert [satisfies(I, r, tol) for r in program.rules] == checks, (seed, I)
            want = all(checks)
            verdicts += want
            only_a_constraint += not want and all(
                reference.satisfies(I, r, tol) for r in program.definite_rules())
            if tol < 0.3:
                continue
            rows = []
            for idx, r in enumerate(program.rules):
                body = reference.body_value(r.body, I, tol)
                head = r.head.value if r.is_constraint else I[r.head.name]
                rows.append({"rule": idx, "body": body, "satisfied": checks[idx],
                             "implication": eval_implication(r.impl, head, body)})
            interp.write_text(json.dumps(I))
            assert main(["eval", str(path), "-i", str(interp), "--tol", str(tol)]) == 0
            assert json.loads(capsys.readouterr().out) == {"model": want, "rules": rows}, (seed, I)
    assert verdicts > 250 and only_a_constraint > 250


def test_constraint_characterizes_lower_bound(motor):
    # <0.7 <-l neg1(q); 1> holds exactly when 1 - q <= 0.7, i.e. q >= 0.3
    constraint = motor.rules[2]
    for k in range(101):
        q = k / 100
        I = {"p": 0.0, "q": q, "s": 0.0, "t": 0.0}
        assert satisfies(I, constraint) == (q >= 0.3 - 1e-9)


def test_operations_do_not_mutate_inputs(motor, model_n):
    import copy

    snapshot_p = copy.deepcopy(motor)
    snapshot_m = dict(model_n)
    reduct(motor, model_n)
    is_stable(motor, model_n)
    stable_operator(motor, model_n)
    [satisfies(model_n, r) for r in motor.rules]
    assert motor == snapshot_p
    assert model_n == snapshot_m


def test_is_minimal_model_examples(motor, model_m, model_n):
    # the paper's stable model N is minimal on the 0.05 grid; its model M is not
    for M, want in ((model_m, False), (model_n, True)):
        assert walked_minimal(motor, M, 0.05) is want
        assert reference.grid_minimal(motor, M, 0.05, 1e-9) is want


def test_is_minimal_model_budgets_its_sub_grid(motor, model_n):
    # 21 values per atom at 0.05: five atoms make 21 ** 5 = 4,084,101
    # points, more than DEFAULT_BUDGET
    program = parse_program("a <-g min(b, c) with 1;\nb <-g d with 1;\nc <-g e with 1;")
    top = {a: 1.0 for a in program.atoms()}
    with pytest.raises(BudgetExceeded, match=r"^4084101 grid points exceed the budget of 2000000$"):
        walked_minimal(program, top, 0.05)
    assert walked_minimal(program, top, 0.1) is False   # 11 ** 5 points fit
    assert walked_minimal(motor, model_n, 0.05) is True


def test_is_minimal_model_bottom():
    program = parse_program("p <-g q with 1;")
    M = {"p": 0.0, "q": 0.0}
    assert all(satisfies(M, r) for r in program.rules)
    assert walked_minimal(program, M, 0.5)


def test_stable_implies_minimal_sampled():
    rng = random.Random(55)
    for _ in range(15):
        program = random_emalp(rng, max_atoms=2, max_rules=3, max_constraints=1)
        cfg = StableSearchConfig(mode="grid", grid_step=0.25)
        for M in find_stable_models(program, cfg):
            assert reference.grid_minimal(program, M, 0.25, 1e-9)


# --- serialization of traces ----------------------------------------------------


def test_trace_json_shape(motor, model_n):
    _, trace = stable_operator(motor, model_n)
    data = trace.to_json()
    assert set(data) == {"iterates", "converged", "iterations"}
    assert data["converged"] is True
    assert len(data["iterates"]) == data["iterations"] + 1


@pytest.mark.parametrize("tol", [1e-9, 0.3])
def test_analysis_compiles_each_body_in_one_pass(motor, model_n, tol, monkeypatch):
    # one closure per definite body serves T, the reduct's T and the grid
    # prune; q's body has two freeze sites, p's and t's none.  The
    # constraint's body is compiled once per grid search, for the walk's
    # test, and not for T or a verdict
    compiled = []

    def counting(body, *args):
        compiled.append(body)
        return compile_body(body, *args)
    monkeypatch.setattr(semantics, "compile_body", counting)
    least_model(motor, tol)
    stable_operator(motor, model_n, tol)
    is_stable(motor, model_n, tol)
    find_stable_models(motor, StableSearchConfig(grid_step=0.5, tol=tol))
    find_stable_models(motor, StableSearchConfig(grid_step=0.5, tol=tol))
    assert compiled == [r.body for r in motor.definite_rules() + motor.constraints() * 2]
