"""Each program is analysed once, and a refused grid is never built.

`Program.derived` keeps what is derived from a program's rules (atoms,
each rule body's signed occurrences, the rule partition, semantics'
compiled analyses) outside the dataclass fields.  The walk-count pins
wrap `emalp.program._walk`, the signed walk that validation and
`occurrences` make, and require one walk per rule body per program
analysed, validation's own included.  The budget check counts the
nominal grid from its step, so a step too fine for the budget allocates
nothing.  Minimality on a grid, decided with the grid search's walker
(`conftest.walked_minimal`), matches `reference.grid_minimal`, the
`itertools.product` loop.
"""

import gc
import json
import math
import pickle
import random
import sys
import tracemalloc
from collections import Counter

import pytest

import emalp.program as program_module
from emalp import (
    StableSearchConfig,
    find_stable_models,
    is_stable,
    parse_program,
    reduct,
    stable_operator,
)
from emalp.cli import main
from emalp.semantics import _analysis

from conftest import walked_minimal
from genprog import random_emalp
import reference

# Eight rules over five atoms: negation cycles, a fact, two constraints.
GRID8 = """\
a <-g min(neg1(b), c) with 1;
b <-l neg1(a) with 1;
c <-g max(neg1(e), 0.25) with 0.75;
d <-p and_g(a, neg1(e)) with 1;
e <-g neg1(d) with 0.5;
0.5 <-l neg1(c) with 1;
a <-g 0.25 with 1;
0.75 <-g or_l(b, e) with 1;
"""


@pytest.fixture
def walks(monkeypatch):
    """The bodies `_walk` starts on, not counting its own recursion, in call order."""
    walked = []
    original = program_module._walk

    def counted(body, *args):
        if sys._getframe(1).f_code is not original.__code__:
            walked.append(body)
        return original(body, *args)

    monkeypatch.setattr(program_module, "_walk", counted)
    return walked


def bodies(*paths):
    """Every rule body of the programs in the files, as text, with multiplicity."""
    return Counter(str(r.body) for p in paths
                   for r in parse_program(p.read_text(), validate=False).rules)


def run(capsys, walks, *argv):
    walks.clear()
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    assert code == 0, out
    return Counter(str(b) for b in walks), out


def test_grid_search_walks_each_rule_body_once(capsys, tmp_path, walks):
    # the parent commit walked these eight bodies 32 times
    path = tmp_path / "grid8.malp"
    path.write_text(GRID8)
    walked, out = run(capsys, walks, "stable", "search", path, "--grid", "0.25")
    assert json.loads(out)["count"] > 0
    assert walked == bodies(path) and sum(walked.values()) == 8
    walked, _ = run(capsys, walks, "check", path)
    assert walked == bodies(path)


@pytest.mark.parametrize("chain", [("fc",), ("janssen",), ("fc", "manlp")])
def test_transform_and_equiv_walk_each_program_once(capsys, tmp_path, walks, chain):
    source = tmp_path / "grid8.malp"
    source.write_text(GRID8)
    for method in chain:
        target = source.with_suffix(f".{method}.malp")
        walked, _ = run(capsys, walks, "transform", source, "--method", method)
        assert walked == bodies(source, target)
        record = source.with_suffix(f".{method}.record.json")
        walked, out = run(capsys, walks, "equiv", source, target, "--record", record,
                          "--grid", "0.5")
        assert json.loads(out)["bijection"] is True
        assert walked == bodies(source, target)
        source = target


def test_derived_data_stays_outside_the_fields(motor_text, model_n):
    program, fresh = parse_program(motor_text), parse_program(motor_text)
    derived = [program.atoms(), program.rule_occurrences(), program.constraints(),
               program.definite_rules(), _analysis(program, 1e-9), _analysis(program, 0.3)]
    again = [program.atoms(), program.rule_occurrences(), program.constraints(),
             program.definite_rules(), _analysis(program, 1e-9), _analysis(program, 0.3)]
    assert all(a is b for a, b in zip(derived, again))
    assert set(vars(program)) == {"rules", "_derived"}
    assert program == fresh and hash(program) == hash(fresh) and repr(program) == repr(fresh)
    assert program.__getstate__() == {"rules": program.rules}
    clone = pickle.loads(pickle.dumps(program))
    assert clone == program and set(vars(clone)) == {"rules"}
    assert clone.rule_occurrences() == program.rule_occurrences()
    assert clone.rule_occurrences() is not program.rule_occurrences()
    # a reduct is a plain program: nothing in its derived cache
    out = reduct(program, model_n, 1e-9)
    assert set(vars(out)) == {"rules"}
    assert out == reduct(fresh, model_n, 1e-9) and out.__getstate__() == {"rules": out.rules}


@pytest.mark.parametrize("step", [0.5, 0.25])
def test_is_minimal_model_matches_the_product_loop(step):
    verdicts = Counter()
    for seed in range(40):
        rng = random.Random(seed)
        program = random_emalp(rng, values=(0.0, 0.25, 0.5, 0.75, 1.0))
        points = list(reference.grid_points(program, step))
        for M in rng.sample(points, min(len(points), 12)):
            want = reference.grid_minimal(program, M, step, 1e-9)
            assert walked_minimal(program, M, step) is want, (seed, M)
            verdicts[want] += 1
    assert verdicts[True] > 20 and verdicts[False] > 20


@pytest.mark.parametrize("step", [0.1, 0.05])
def test_is_minimal_model_matches_the_product_loop_on_motor(motor, model_m, model_n, step):
    for M in (model_m, model_n):
        assert walked_minimal(motor, M, step) is reference.grid_minimal(motor, M, step, 1e-9)


def peak_mb(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak / 1e6


def test_budget_checks_refuse_a_fine_grid_without_building_it(capsys, tmp_path, motor_text):
    # at step 1e-9 the grid holds 10 ** 9 + 1 values
    source = tmp_path / "motor.malp"
    source.write_text(motor_text)
    assert main(["transform", str(source), "--method", "fc"]) == 0
    codes = []
    search = ["stable", "search", str(source), "--grid", "1e-9"]
    equiv = ["equiv", str(source), str(tmp_path / "motor.fc.malp"),
             "--record", str(tmp_path / "motor.fc.record.json"), "--grid", "1e-9"]
    for argv in (search, equiv):
        assert peak_mb(lambda: codes.append(main(argv))) < 4
    assert codes == [2, 2]
    assert capsys.readouterr().err.count("grid points exceed the budget of 2000000") == 2


def test_a_program_without_atoms_needs_no_grid(capsys, tmp_path):
    path = tmp_path / "ground.malp"
    path.write_text("0 <-g 0 with 1;\n")
    codes = []
    assert peak_mb(lambda: codes.append(main(["stable", "search", str(path),
                                              "--grid", "1e-9"]))) < 4
    assert codes == [0]
    assert json.loads(capsys.readouterr().out)["stable_models"] == [{}]


def test_is_minimal_model_stops_at_the_first_model_below(monkeypatch):
    # the all-zero point is a model below the top; the 11 ** 5 points of
    # the grid hold thousands more, and the lazy walk checks none of them
    import emalp.semantics as semantics_module
    checks = []
    original = semantics_module.satisfies
    monkeypatch.setattr(semantics_module, "satisfies",
                        lambda *args: checks.append(1) or original(*args))
    program = parse_program("a <-g min(b, c) with 1;\nb <-g d with 1;\nc <-g e with 1;")
    assert walked_minimal(program, dict.fromkeys(program.atoms(), 1.0), 0.1) is False
    assert 0 < len(checks) < 100


@pytest.mark.parametrize("value", [-0.5, math.nan])
def test_is_minimal_model_with_no_grid_point_below(value):
    # no grid point passes the bound check, so nothing below M is a model
    program = parse_program("p <-g 0.5 with 1;")
    assert walked_minimal(program, {"p": value}, 0.5) is True
    assert reference.grid_minimal(program, {"p": value}, 0.5, 1e-9) is True


def test_searches_and_checks_leave_no_reference_cycles(motor_text, model_n):
    # each call's closures, checks and walks are freed by reference
    # counting when it returns, so the cyclic collector finds nothing
    programs = [parse_program(motor_text), parse_program(GRID8)]
    calls = []
    for p in programs:
        M = dict.fromkeys(p.atoms(), 0.5)
        calls += [lambda p=p: _analysis(p, 1e-9),
                  lambda p=p: find_stable_models(p, StableSearchConfig(grid_step=0.25)),
                  lambda p=p: find_stable_models(p, StableSearchConfig(mode="iterate", seeds=8)),
                  lambda p=p, M=M: (stable_operator(p, M), is_stable(p, M))]
    calls += [lambda: (stable_operator(programs[0], model_n), is_stable(programs[0], model_n))]
    gc.collect()
    gc.disable()
    try:
        for call in calls:
            call()
            assert gc.collect() == 0
    finally:
        gc.enable()
