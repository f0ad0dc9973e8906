"""Every function the benchmark tracer wraps must still exist.

`perfbench/tracer.py` names its targets by module and attribute path.
The benchmark's own self-tests are not part of the default suite, so
this is the check that a refactor renaming or moving one of them would
break `run.py --trace 1`.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("emalp_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = load_tracer().TARGETS


@pytest.mark.parametrize("module, path", [(m, p) for m, p, *_ in TARGETS])
def test_tracer_target_resolves(module, path):
    owner = importlib.import_module(f"emalp.{module}")
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_tracer_installs_and_restores(tmp_path, motor_text):
    # a grid search runs every hook: find_stable_models' cfg, is_stable's
    # verdict and least_model's trace
    from emalp import cli

    path = tmp_path / "motor.malp"
    path.write_text(motor_text)
    tracer = load_tracer().Tracer()
    original = cli.main
    tracer.install()
    try:
        assert tracer.is_wrapper(cli.main)
        assert cli.main(["stable", "search", str(path), "--grid", "0.5"]) == 0
    finally:
        tracer.restore()
    assert cli.main is original
    assert tracer.layer("cli.main")[0] == 1
    assert tracer.layer("semantics.find_stable_models")[0] == 1
    assert tracer.counts["grid_points"] == 3 ** 4


def traced_main(args):
    from emalp import cli

    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        rc = cli.main(args)
    finally:
        tracer.restore()
    return rc, tracer


def test_tracer_counts_every_stable_operator_call_of_a_search(tmp_path, capsys):
    # The tracer counts a function by rebinding module globals.  A search
    # step on an acyclic reduct is one private pass in level order, which
    # the tracer cannot see: until ROADMAP item 1's stats exist, only the
    # conjunctor calls count it.  On the even cycle bottom steps to top
    # and back, and stops there; top, visited again with more steps left,
    # steps once to bottom, which bottom already went on from; each
    # random start steps twice and returns to itself: 7 steps.  In the
    # reduct p and q read only frozen values, so both have level 1, and
    # each step is two conjunctor calls, with no cyclic rule to iterate.  A
    # search step builds no reduct, and no start settles, so no verdict
    # builds one either.
    path = tmp_path / "cycle.malp"
    path.write_text("p <-g neg1(q) with 1;\nq <-g neg1(p) with 1;\n")
    rc, tracer = traced_main(["stable", "search", str(path), "--seeds", "4"])
    assert rc == 0
    assert '"count": 0' in capsys.readouterr().out
    calls = {layer: tracer.layer(layer)[0] for layer in (
        "semantics.find_stable_models", "semantics.stable_operator", "semantics.reduct",
        "semantics.least_model", "semantics.immediate_consequence", "lattice.eval_conjunctor")}
    assert calls == {"semantics.find_stable_models": 1, "semantics.stable_operator": 0,
                     "semantics.reduct": 0, "semantics.least_model": 0,
                     "semantics.immediate_consequence": 0, "lattice.eval_conjunctor": 14}
    assert tracer.counts["lm_iterations"] == 0 and tracer.counts["lm_unconverged"] == 0


def test_tracer_counts_the_verdicts_of_a_settling_search(tmp_path, capsys):
    # every start reaches a = b = 1.  Bottom steps there and settles
    # (two steps and a verdict); top, which bottom reached with fewer
    # steps left, settles in one step and gets a verdict too; each random
    # start steps once to a = b = 1, from which top went on with more
    # steps left, and stops.  A verdict takes its value from the level
    # pass too, and the program has no constraints, so neither a verdict
    # nor a search step builds a reduct.  Only a verdict that shows its
    # trace, as `stable verify` does, runs the stable operator's Kleene
    # iteration; it takes its verdict from `is_stable`, so the tracer counts it.
    path = tmp_path / "chain.malp"
    path.write_text("a <-g 1 with 1;\nb <-g a with 1;\n")
    rc, tracer = traced_main(["stable", "search", str(path), "--seeds", "4"])
    assert rc == 0
    assert '"count": 1' in capsys.readouterr().out
    layers = ("semantics.stable_operator", "semantics.reduct", "semantics.is_stable",
              "semantics.least_model")
    calls = {layer: tracer.layer(layer)[0] for layer in layers}
    assert calls == {"semantics.stable_operator": 0, "semantics.reduct": 0,
                     "semantics.is_stable": 2, "semantics.least_model": 0}
    model = tmp_path / "model.json"
    model.write_text('{"a": 1, "b": 1}')
    rc, tracer = traced_main(["stable", "verify", str(path), "-i", str(model)])
    assert rc == 0
    calls = {layer: tracer.layer(layer)[0] for layer in layers}
    assert calls == {"semantics.stable_operator": 1, "semantics.reduct": 0,
                     "semantics.is_stable": 1, "semantics.least_model": 1}
    assert tracer.counts["lm_iterations"] == 3


def test_tracer_counts_an_unconverged_stable_operator(tmp_path, capsys):
    # b needs two Kleene steps (its level, top, is 2), so with --max-iter 1
    # the level pass alone uses up the cap: every start's first step is
    # unconverged and ends that start, and no least model runs
    path = tmp_path / "chain.malp"
    path.write_text("a <-g 1 with 1;\nb <-g a with 1;\n")
    rc, tracer = traced_main(["stable", "search", str(path), "--seeds", "4", "--max-iter", "1"])
    assert rc == 0
    assert '"count": 0' in capsys.readouterr().out
    assert tracer.layer("semantics.least_model")[0] == 0
    assert tracer.layer("semantics.stable_operator")[0] == 0
    assert tracer.counts["lm_unconverged"] == 0 and tracer.counts["lm_iterations"] == 0
