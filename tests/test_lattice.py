import math
import random

import pytest
from hypothesis import given, strategies as st

from emalp import (
    Apply,
    Atom,
    Const,
    eval_body,
    eval_conjunctor,
    eval_implication,
    eval_negation,
    eval_threshold,
    is_minimal_model,
    lattice_grid,
    parse_program,
)
from emalp.lattice import LatticeError, grid_count
from emalp.program import compile_body

units = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def test_conjunctor_values():
    assert eval_conjunctor("godel", 0.8, 1.0) == pytest.approx(0.8, abs=1e-12)
    assert eval_conjunctor("lukasiewicz", 0.4, 0.5) == 0.0
    assert eval_conjunctor("product", 0.6, 0.5) == pytest.approx(0.3, abs=1e-12)


@given(units)
def test_top_is_identity_exactly(v):
    for kind in ("godel", "product", "lukasiewicz"):
        assert eval_conjunctor(kind, 1.0, v) == v
        assert eval_conjunctor(kind, v, 1.0) == v


def test_implication_values():
    # 0.85 <-g 0.9 = 0.85 and 0.25 <-p 8/37 = 1
    assert eval_implication("godel", 0.85, 0.9) == pytest.approx(0.85, abs=1e-12)
    assert eval_implication("product", 0.25, 8 / 37) == pytest.approx(1.0, abs=1e-12)
    # 0.4 <-p sqrt(111)/20 = 8/sqrt(111)
    got = eval_implication("product", 0.4, math.sqrt(111) / 20)
    assert got == pytest.approx(8 / math.sqrt(111), abs=1e-12)
    assert eval_implication("lukasiewicz", 0.7, 0.64) == pytest.approx(1.0, abs=1e-12)


def test_product_residuum_total_at_zero():
    assert eval_implication("product", 0.0, 0.0) == 1.0
    assert eval_implication("product", 0.3, 0.0) == 1.0


def test_negation_values():
    assert eval_negation("neg2", 0.85) == pytest.approx(math.sqrt(111) / 20, abs=1e-12)
    assert eval_negation("neg1", 0.0) == 1.0
    assert eval_negation("neg2", 0.8) == pytest.approx(0.6, abs=1e-12)


@given(units)
def test_negation_endpoints_and_involutivity(x):
    for kind in ("neg1", "neg2"):
        assert eval_negation(kind, 0.0) == 1.0
        assert eval_negation(kind, 1.0) == 0.0
    assert abs(eval_negation("neg1", eval_negation("neg1", x)) - x) <= 1e-15


@given(units, units)
def test_negations_antitone(a, b):
    lo, hi = min(a, b), max(a, b)
    for kind in ("neg1", "neg2"):
        assert eval_negation(kind, lo) >= eval_negation(kind, hi)


def test_threshold_values():
    assert eval_threshold(0.7, 0.64) == 0.0
    assert eval_threshold(0.0, 1.0) == 1.0
    assert eval_threshold(0.7, 0.7) == 0.0
    # tolerance keeps noise at the jump from flipping the output
    assert eval_threshold(0.7, 0.7 + 1e-12) == 0.0
    assert eval_threshold(0.7, 0.7 + 2e-9) == 1.0


@given(units, units)
def test_thresholds_order_preserving(a, b):
    c = 0.4
    lo, hi = min(a, b), max(a, b)
    assert eval_threshold(c, lo) <= eval_threshold(c, hi)


@given(units, units, st.floats(-2e-9, 2e-9))
def test_thresholds_coincide_on_a_chain(c, x, d):
    # x > c and not (x <= c) agree on a totally ordered carrier, also at the cut
    f, g = (Apply(op, (Const(c), Atom("x"))) for op in ("f", "g"))
    for v in (x, min(1.0, max(0.0, c + d))):
        env = {"x": v}
        values = {eval_body(f, env), eval_body(g, env),
                  compile_body(f)(env, None), compile_body(g)(env, None)}
        assert values == {eval_threshold(c, v)}


@given(units, units, units)
def test_adjunction_sampled(x, y, z):
    # x <= (z <- y) iff (x & y) <= z, with a margin excluding boundary noise
    for kind in ("godel", "product", "lukasiewicz"):
        conj = eval_conjunctor(kind, x, y)
        impl = eval_implication(kind, z, y)
        if conj <= z - 1e-9:
            assert x <= impl + 1e-12
        elif conj >= z + 1e-9:
            assert x > impl - 1e-12


def test_lattice_grid_validation():
    assert lattice_grid(0.5) == [0.0, 0.5, 1.0]
    with pytest.raises(LatticeError):
        lattice_grid(0.3)
    with pytest.raises(LatticeError):
        lattice_grid(0.7)


def test_unknown_kinds_rejected():
    with pytest.raises(LatticeError):
        eval_conjunctor("hamacher", 0.5, 0.5)
    with pytest.raises(LatticeError):
        eval_negation("neg3", 0.5)


@pytest.mark.parametrize("step", [0.5, 0.25, 0.2, 0.1, 1 / 3, 1 / 7, 0.05, 0.01, 0.001])
def test_grid_count_counts_what_lattice_grid_lists(step):
    grid = lattice_grid(step)
    assert grid_count(step) == len(grid)
    rng = random.Random(3)
    uptos = [rng.uniform(-0.2, 1.2) for _ in range(200)] + [
        v + d for v in grid for d in (-1e-9, -1e-15, 0.0, 1e-15, 1e-9)] + [
        -math.inf, math.inf, math.nan, -0.0, 1.0, 1.0 + 1e-9]
    for upto in uptos:
        assert grid_count(step, upto) == len([v for v in grid if v <= upto]), upto


def test_grid_count_checks_the_step_as_lattice_grid_does():
    for step in (0.3, 0.7, 0.0, -0.5, math.nan):
        with pytest.raises(LatticeError):
            grid_count(step)
    assert grid_count(1e-9) == 10 ** 9 + 1
    assert grid_count(6e-309) == round(1 / 6e-309) + 1   # 1/step is still finite
    assert grid_count(1e-9, 0.5) == 5 * 10 ** 8 + 1


@pytest.mark.parametrize("step", [5e-324, 1e-320, 5e-309])
def test_a_step_whose_reciprocal_overflows_is_a_lattice_error(step):
    message = f"grid step {step} is too small: 1/step overflows"
    for fn in (grid_count, lattice_grid):
        with pytest.raises(LatticeError) as info:
            fn(step)
        assert str(info.value) == message
    program = parse_program("p <-g 0.5 with 1;")
    with pytest.raises(LatticeError, match="overflows"):
        is_minimal_model(program, {"p": 0.5}, step)
