import math
import random

import pytest
from hypothesis import given, strategies as st

from emalp import (
    check_adjoint_pair,
    eval_conjunctor,
    eval_implication,
    eval_negation,
    eval_threshold,
    lattice_grid,
)
from emalp.lattice import LatticeError, grid_count

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
    assert eval_threshold("f", 0.7, 0.64) == 0.0
    assert eval_threshold("f", 0.0, 1.0) == 1.0
    assert eval_threshold("g", 0.7, 0.7) == 0.0
    # tolerance keeps noise at the jump from flipping the output
    assert eval_threshold("f", 0.7, 0.7 + 1e-12) == 0.0
    assert eval_threshold("g", 0.7, 0.7 + 1e-12) == 0.0


@given(units, units, st.sampled_from(["f", "g"]))
def test_thresholds_order_preserving(a, b, kind):
    c = 0.4
    lo, hi = min(a, b), max(a, b)
    assert eval_threshold(kind, c, lo) <= eval_threshold(kind, c, hi)


@given(units, units)
def test_thresholds_coincide_on_a_chain(c, x):
    # x > c and not (x <= c) agree on a totally ordered carrier
    assert eval_threshold("f", c, x) == eval_threshold("g", c, x)


@pytest.mark.parametrize("kind,step,points", [
    ("godel", 0.25, 5),
    ("product", 0.1, 11),
    ("lukasiewicz", 0.5, 3),
])
def test_check_adjoint_pair_grids(kind, step, points):
    report = check_adjoint_pair(kind, step)
    assert report.ok
    assert report.checked >= points ** 3


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


def test_check_adjoint_pair_detects_a_broken_pair(monkeypatch):
    import emalp.lattice as lattice

    # totalize the product residuum the wrong way and the adjunction breaks
    monkeypatch.setitem(lattice._IMPLICATIONS, "product",
                        lambda z, y: 0.0 if y == 0.0 else min(1.0, z / y))
    report = check_adjoint_pair("product", 0.25)
    assert not report.ok
    assert any(v.law == "adjunction" for v in report.violations)


def test_lattice_grid_validation():
    assert lattice_grid(0.5) == [0.0, 0.5, 1.0]
    with pytest.raises(LatticeError):
        lattice_grid(0.3)
    with pytest.raises(LatticeError):
        lattice_grid(0.7)
    with pytest.raises(LatticeError):
        check_adjoint_pair("godel", 0.0)


def test_unknown_kinds_rejected():
    with pytest.raises(LatticeError):
        eval_conjunctor("hamacher", 0.5, 0.5)
    with pytest.raises(LatticeError):
        eval_negation("neg3", 0.5)
    with pytest.raises(LatticeError):
        eval_threshold("h", 0.5, 0.5)


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
    assert grid_count(1e-9, 0.5) == 5 * 10 ** 8 + 1
