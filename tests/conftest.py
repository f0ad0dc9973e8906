import importlib.util
from pathlib import Path

import pytest

from emalp import parse_program

# the benchmark's seeded program generator, for the tests that use its pools
_GEN = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
_spec = importlib.util.spec_from_file_location("emalp_bench_gen", _GEN)
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)

# Five-rule program with one constraint and one fact, used throughout:
# the two model interpretations M and N below are fixtures of the
# worked examples the suite reproduces.
MOTOR_TEXT = """\
p <-p min(div1(q, add(add(s, t), 0.1)), 1) with 0.5;
q <-p max(neg1(s), neg2(t)) with 0.6;
0.7 <-l neg1(q) with 1;
s <-g 1 with 0.8;
t <-g max(s, 0.7) with 0.8;
"""

M_INTERP = {"p": 0.25, "q": 0.4, "s": 0.9, "t": 0.85}
N_INTERP = {"p": 9 / 85, "q": 0.36, "s": 0.8, "t": 0.8}


@pytest.fixture
def motor_text():
    return MOTOR_TEXT


@pytest.fixture
def motor():
    return parse_program(MOTOR_TEXT)


@pytest.fixture
def motor_unconstrained(motor):
    from emalp import Program

    return Program(motor.definite_rules())


@pytest.fixture
def model_m():
    return dict(M_INTERP)


@pytest.fixture
def model_n():
    return dict(N_INTERP)
