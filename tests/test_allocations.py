"""The hot paths leave no memory behind on CPython's free lists.

`tuple(<generator>)` cannot know its length: CPython takes a block sized
for ten items, fills it, and shrinks it to the final length, so each
call allocates a fresh block and, on release, files it on the free list
of the final length, where nothing reuses it (up to 2,000 tuples per
length).  A tuple built from a list takes its block from the free list
it returns to.  Each run below grows `sys.getallocatedblocks()` by about
1,800 to 3,900 blocks with generator-built tuples, and by under 100 with
list-built ones, on CPython 3.10 to 3.13.  A full collection empties the
free lists first; the collector stays paused while a run counts.
"""

import gc
import platform
import sys

import pytest

from emalp import parse_program, reduct
from emalp.semantics import StableSearchConfig, _analysis, _stable_value, find_stable_models

from conftest import M_INTERP, MOTOR_TEXT, gen

pytestmark = pytest.mark.skipif(platform.python_implementation() != "CPython",
                                reason="free lists and allocated blocks are CPython's")

GROWTH = 500   # blocks a run may leave allocated


def growth(run, calls: int, warm_up: int = 20) -> int:
    """Allocated blocks after `calls` runs, less before, after `warm_up` runs."""
    gc.collect()
    gc.disable()
    try:
        for _ in range(warm_up):
            run()
        before = sys.getallocatedblocks()
        for _ in range(calls):
            run()
        return sys.getallocatedblocks() - before
    finally:
        gc.enable()


def test_the_stable_operator_strands_no_tuples():
    text, M = gen.iterate_program(8, True, 0)   # the benchmark's c8-000
    program = parse_program(text)
    assert len(_analysis(program, 1e-9).sites) == 8
    V = [M[a] for a in program.atoms()]   # the operator's list, in atoms order
    assert growth(lambda: _stable_value(program, V, 1e-9, 10_000), 8_000) < GROWTH


def test_an_iterate_search_strands_no_tuples():
    # each step keys its state by a tuple of 8, built from the state's list,
    # and a search holds its 99 keys to its end.  One warm-up search: the
    # 1,980 keys of 20 would all but fill the free list of 8-tuples, and a
    # full free list lets a generator-built key go back to the allocator unseen
    program = parse_program(gen.iterate_program(8, True, 0)[0])
    cfg = StableSearchConfig(mode="iterate", seeds=32)
    assert growth(lambda: find_stable_models(program, cfg), 200, warm_up=1) < GROWTH


def test_a_reduct_strands_no_tuples():
    program = parse_program(MOTOR_TEXT)
    assert program.constraints()   # a rebuilt constraint is a tuple of 1
    assert growth(lambda: reduct(program, M_INTERP), 2_000) < GROWTH


def test_a_grid_search_strands_no_tuples():
    program = parse_program(gen.grid_program(5, 0))
    cfg = StableSearchConfig(grid_step=0.25)
    assert find_stable_models(program, cfg)   # the sort keys run
    assert growth(lambda: find_stable_models(program, cfg), 300) < GROWTH
