"""Operator contract: the adjoint-pair laws, the `continuous` flags, and
every builtin's value inside its validation interval.

The three adjoint pairs are checked exhaustively on the 0.05 grid: each
conjunctor is monotone in both arguments and stays in [0, 1], each
implication is monotone in its consequent and antitone in its
antecedent, and x <= (z <- y) holds exactly when x & y <= z.  An
operator flagged continuous may not jump between a 0.25-grid point and
a point 1e-12 away.  On the same 0.05 grid, raising one argument of any
builtin moves its value the way the argument's declared polarity says;
`neg2` is involutive to 1e-9 at 0 and on [1e-7, 1].

For each `BUILTINS` entry Hypothesis draws one box per argument: signed
boxes where the operator may take any number, boxes inside [0, 1] for
its lattice arguments, and for the thresholds a constant c with a
second box whose ends fall near c + tol, where evaluation cuts.  The
operator is evaluated at every combination of each box's ends, one
inner point, and 0 and 1 when the box holds them (where `div1` and
`and_l` have their special cases); each value must lie in the interval
validation gives the operator over those boxes.
"""

import dataclasses
import functools
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from emalp import Apply, Atom, Const, body_interval, eval_conjunctor, eval_expr, eval_implication
from emalp.lattice import ADJOINT_KINDS, DEFAULT_TOL, lattice_grid, neg2
from emalp.program import BUILTINS

TOL = DEFAULT_TOL
LAW_TOL = 1e-12   # rounding slack of the adjoint-pair comparisons
GRID = lattice_grid(0.05)


@pytest.mark.parametrize("kind", ADJOINT_KINDS)
def test_adjoint_pair_laws(kind):
    conj, impl = functools.partial(eval_conjunctor, kind), functools.partial(eval_implication, kind)
    for (a, b), w in itertools.product(zip(GRID, GRID[1:]), GRID):
        assert conj(a, w) <= conj(b, w) + LAW_TOL, ("conjunctor monotone in x", a, b, w)
        assert conj(w, a) <= conj(w, b) + LAW_TOL, ("conjunctor monotone in y", w, a, b)
        assert impl(a, w) <= impl(b, w) + LAW_TOL, ("implication monotone in z", a, b, w)
        assert impl(w, b) <= impl(w, a) + LAW_TOL, ("implication antitone in y", w, a, b)
    for x, y, z in itertools.product(GRID, repeat=3):
        assert 0.0 <= conj(x, y) <= 1.0, ("conjunctor in [0, 1]", x, y)
        assert (x <= impl(z, y) + LAW_TOL) == (conj(x, y) <= z + LAW_TOL), ("adjunction", x, y, z)


def test_the_law_test_fails_on_a_broken_pair(monkeypatch):
    import emalp.lattice as lattice

    # totalize the product residuum the wrong way: 0.05 <-p 0 is then below
    # 0.05 <-p 0.05, so the residuum is no longer antitone in y
    monkeypatch.setitem(lattice._IMPLICATIONS, "product",
                        lambda z, y: 0.0 if y == 0.0 else min(1.0, z / y))
    with pytest.raises(AssertionError, match="implication antitone in y"):
        test_adjoint_pair_laws("product")


@pytest.mark.parametrize("name", sorted(n for n, spec in BUILTINS.items() if spec.continuous))
def test_an_operator_flagged_continuous_does_not_jump(name):
    # div1 is not flagged: div1(0, 0) is 1, div1(0, 1e-12) is 0
    spec = BUILTINS[name]
    for point in itertools.product(lattice_grid(0.25), repeat=spec.min_arity):
        v = spec.fn(*point)
        for i, d in itertools.product(range(len(point)), (-1e-12, 1e-12)):
            near = list(point)
            near[i] = min(1.0, max(0.0, near[i] + d))
            assert abs(spec.fn(*near) - v) <= 1e-5, (point, near)


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_raising_an_argument_moves_the_value_as_its_polarity_declares(name):
    spec = BUILTINS[name]
    n = spec.max_arity or 3   # min and max are variadic: checked at arity 3

    def value(args):
        return eval_expr(Apply(name, tuple(map(Const, args))), {}, TOL)

    # f and g are antitone in their constant c, which never holds an atom
    for i in range(spec.const_first, n):
        for (a, b), rest in itertools.product(zip(GRID, GRID[1:]),
                                              itertools.product(GRID, repeat=n - 1)):
            low, high = [*rest[:i], a, *rest[i:]], [*rest[:i], b, *rest[i:]]
            change = value(high) - value(low)
            assert spec.polarity(i) * change >= -LAW_TOL, ("declared direction", i, low, high)


def test_the_polarity_test_fails_on_a_wrong_declaration(monkeypatch):
    # sub is antitone in its subtrahend; declared monotone, the test must fail
    monkeypatch.setitem(BUILTINS, "sub", dataclasses.replace(BUILTINS["sub"], polarities=(1, 1)))
    with pytest.raises(AssertionError, match="declared direction"):
        test_raising_an_argument_moves_the_value_as_its_polarity_declares("sub")


def test_neg2_is_involutive_away_from_the_smallest_values():
    # below 1e-7, rounding misses x by more than 1e-9 at scattered points,
    # up to x = 8.06e-8; 0 itself comes back exactly
    points = [0.0] + [10 ** (-7 + 7 * k / 20_000) for k in range(20_001)]
    assert [x for x in points if abs(neg2(neg2(x)) - x) > 1e-9] == []
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
