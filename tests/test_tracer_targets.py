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
    # The tracer counts a function by rebinding module globals.  Were the
    # search to reach the stable operator, the reduct or the fixpoint
    # through a captured reference or a private twin, `--trace 1` would
    # silently stop counting it.  On the even cycle each of the four
    # starts takes two operator steps and then revisits a state: 8 calls,
    # each one least model, 14 Kleene steps in all, as before the
    # operator was compiled.  A search step builds no reduct, and no
    # start settles, so no verdict builds one either.
    path = tmp_path / "cycle.malp"
    path.write_text("p <-g neg1(q) with 1;\nq <-g neg1(p) with 1;\n")
    rc, tracer = traced_main(["stable", "search", str(path), "--seeds", "4"])
    assert rc == 0
    assert '"count": 0' in capsys.readouterr().out
    calls = {layer: tracer.layer(layer)[0] for layer in (
        "semantics.find_stable_models", "semantics.stable_operator", "semantics.reduct",
        "semantics.least_model", "semantics.immediate_consequence", "lattice.eval_conjunctor")}
    assert calls == {"semantics.find_stable_models": 1, "semantics.stable_operator": 8,
                     "semantics.reduct": 0, "semantics.least_model": 8,
                     "semantics.immediate_consequence": 14, "lattice.eval_conjunctor": 28}
    assert tracer.counts["lm_iterations"] == 14 and tracer.counts["lm_unconverged"] == 0


def test_tracer_counts_the_verdicts_of_a_settling_search(tmp_path, capsys):
    # every start settles on a = b = 1: top after one operator step,
    # bottom and the two random starts after two.  Each settled start gets
    # one verdict, which runs the stable operator once more and builds one
    # reduct for its constraints; the search steps build none.
    path = tmp_path / "chain.malp"
    path.write_text("a <-g 1 with 1;\nb <-g a with 1;\n")
    rc, tracer = traced_main(["stable", "search", str(path), "--seeds", "4"])
    assert rc == 0
    assert '"count": 1' in capsys.readouterr().out
    calls = {layer: tracer.layer(layer)[0] for layer in (
        "semantics.stable_operator", "semantics.reduct", "semantics.is_stable",
        "semantics.least_model")}
    assert calls == {"semantics.stable_operator": 11, "semantics.reduct": 4,
                     "semantics.is_stable": 4, "semantics.least_model": 11}


def test_tracer_counts_an_unconverged_stable_operator(tmp_path, capsys):
    # b needs two Kleene steps, so with --max-iter 1 every start's first
    # operator call is unconverged and ends that start
    path = tmp_path / "chain.malp"
    path.write_text("a <-g 1 with 1;\nb <-g a with 1;\n")
    rc, tracer = traced_main(["stable", "search", str(path), "--seeds", "4", "--max-iter", "1"])
    assert rc == 0
    assert '"count": 0' in capsys.readouterr().out
    assert tracer.layer("semantics.stable_operator")[0] == 4
    assert tracer.counts["lm_unconverged"] == 4 and tracer.counts["lm_iterations"] == 4
