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
