import importlib.util
from pathlib import Path

import pytest

import emalp.semantics as semantics
from emalp import lattice_grid, parse_program

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


def walked_minimal(program, M, step, tol=1e-9):
    """No grid point below M is a model of the program, as the grid
    search's walker finds them: each atom's bound M[a] + tol and each
    rule's `satisfies` are its checks.  The budget is the search's, on
    the whole grid; `satisfies` is read from `emalp.semantics` at each
    check, so a test can count the checks."""
    semantics.check_grid_budget([program], step, semantics.DEFAULT_BUDGET)
    atoms = program.atoms()
    checks = [({a}, lambda N, a=a: N[a] <= M[a] + tol, None) for a in atoms]
    for r, occs in zip(program.rules, program.rule_occurrences()):
        reads = {o.atom for o in occs} | (set() if r.is_constraint else {r.head.name})
        checks.append((reads, lambda N, r=r: semantics.satisfies(N, r, tol), None))
    return not any(any(N[a] < M[a] - tol for a in atoms)
                   for N in semantics._grid_walk(atoms, lattice_grid(step), checks))
