"""Operator contract: every builtin's value lies in its validation interval.

For each `BUILTINS` entry Hypothesis draws one box per argument: signed
boxes where the operator may take any number, boxes inside [0, 1] for
its lattice arguments, and for the thresholds a constant c with a
second box whose ends fall near c + tol, where evaluation cuts.  The
operator is evaluated at every combination of each box's ends, one
inner point, and 0 and 1 when the box holds them (where `div1` and
`and_l` have their special cases); each value must lie in the interval
validation gives the operator over those boxes.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from emalp import Apply, Atom, Const, body_interval, eval_expr
from emalp.lattice import DEFAULT_TOL
from emalp.program import BUILTINS

TOL = DEFAULT_TOL
SPECIAL = (0.0, -0.0, 1.0, -1.0, 0.5, 0.3, 2.0, -2.0, 1e-20, 5e-324, -5e-324,
           1.0 - 2 ** -53, 1.0 + 2 ** -52)
SIGNED_ENDS = st.sampled_from(SPECIAL) | st.floats(-2.0, 2.0)
LATTICE_ENDS = st.sampled_from([v for v in SPECIAL if 0.0 <= v <= 1.0]) | st.floats(0.0, 1.0)
NEAR_CUT = st.sampled_from((-TOL, -TOL / 2, 0.0, TOL / 2, TOL)) | st.floats(-1.0, 1.0)

# a body on [-4, 4], cut by box() to any narrower interval
WIDE = Apply("sub", (Apply("mul", (Const(4.0), Atom("p"))), Apply("mul", (Const(4.0), Atom("q")))))


def box(lo, hi):
    """A body whose interval is [lo, hi]."""
    if lo == hi:
        return Const(lo)
    return Apply("max", (Const(lo), Apply("min", (Const(hi), WIDE))))


def draw_box(data, ends):
    return tuple(sorted((data.draw(ends), data.draw(ends))))


def draw_boxes(data, name):
    spec = BUILTINS[name]
    if spec.const_first:
        c = data.draw(LATTICE_ENDS)
        cut = st.builds(lambda d: min(1.0, max(0.0, c + d)), NEAR_CUT)
        return [(c, c), draw_box(data, cut)]
    n = spec.max_arity or data.draw(st.integers(2, 3))
    return [draw_box(data, LATTICE_ENDS if i in spec.lattice_domain else SIGNED_ENDS)
            for i in range(n)]


@pytest.mark.parametrize("name", sorted(BUILTINS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_value_lies_in_the_interval_of_its_boxes(name, data):
    boxes = draw_boxes(data, name)
    args = [box(lo, hi) for lo, hi in boxes]
    for arg, want in zip(args, boxes):
        assert body_interval(arg) == want
    lo, hi = body_interval(Apply(name, tuple(args)))
    u = data.draw(st.floats(0.0, 1.0))
    choices = [(a, b, min(b, a + u * (b - a)), *(v for v in (0.0, 1.0) if a < v < b))
               for a, b in boxes]
    for point in itertools.product(*choices):
        v = eval_expr(Apply(name, tuple(Const(x) for x in point)), {}, TOL)
        assert lo <= v <= hi, (point, v, (lo, hi))
