"""Truth-value arithmetic on the unit interval.

Conjunctors with their residuated implications (Goedel, product,
Lukasiewicz), negation operators, the threshold map, and the value grid:

    x &_g y = min(x, y)            z <-g y = 1 if y <= z else z
    x &_p y = x * y                z <-p y = min(1, z / y)    (y = 0 -> 1)
    x &_l y = max(0, x + y - 1)    z <-l y = min(1, 1 - y + z)

Each conjunctor/implication pair satisfies the adjunction

    x <= (z <- y)  iff  (x & y) <= z

which the operator contract tests check on a grid.  The product
residuum at y = 0 is defined as 1 (the supremum of {x | x * 0 <= z}),
which keeps the adjunction total.

Negations: neg1(x) = 1 - x and neg2(x) = sqrt(1 - x^2), both antitone
and involutive: neg2(neg2(x)) = |x| = x on [0, 1].  Rounded, it misses
x by more than 1e-9 only at scattered points of (0, 8.1e-8].

Thresholds: f(c, x) is 0 for x <= c and 1 above; g(c, x) is 1 for
c < x and 0 otherwise.  On a totally ordered carrier the two coincide,
so both are one comparison, x > c + tol: the tolerance keeps
floating-point noise at the jump from flipping the output.

All functions are pure and operate on binary64 floats.  Top and bottom
of the lattice are 1.0 and 0.0.
"""

from __future__ import annotations

import math

from .errors import MalpError

__all__ = [
    "ADJOINT_KINDS",
    "DEFAULT_TOL",
    "NEGATION_KINDS",
    "eval_conjunctor",
    "eval_implication",
    "eval_negation",
    "eval_threshold",
    "lattice_grid",
]

DEFAULT_TOL = 1e-9


class LatticeError(MalpError):
    pass


def t_godel(x: float, y: float) -> float:
    return x if x <= y else y


def t_product(x: float, y: float) -> float:
    return x * y


def t_lukasiewicz(x: float, y: float) -> float:
    # explicit boundary cases keep the top-identity law exact in floats
    if x == 1.0:
        return y
    if y == 1.0:
        return x
    return max(0.0, x + y - 1.0)


def impl_godel(z: float, y: float) -> float:
    return 1.0 if y <= z else z


def impl_product(z: float, y: float) -> float:
    if y == 0.0:
        return 1.0
    q = z / y
    return 1.0 if q > 1.0 else q


def impl_lukasiewicz(z: float, y: float) -> float:
    return min(1.0, (1.0 - y) + z)


_CONJUNCTORS = {"godel": t_godel, "product": t_product, "lukasiewicz": t_lukasiewicz}
_IMPLICATIONS = {"godel": impl_godel, "product": impl_product, "lukasiewicz": impl_lukasiewicz}
ADJOINT_KINDS = tuple(_CONJUNCTORS)


def eval_conjunctor(kind: str, x: float, y: float) -> float:
    """Apply the conjunctor of the given adjoint pair."""
    try:
        return _CONJUNCTORS[kind](x, y)
    except KeyError:
        raise LatticeError(f"unknown adjoint pair: {kind!r}") from None


def eval_implication(kind: str, z: float, y: float) -> float:
    """Apply the residuated implication z <-kind y (consequent first)."""
    try:
        return _IMPLICATIONS[kind](z, y)
    except KeyError:
        raise LatticeError(f"unknown adjoint pair: {kind!r}") from None


def neg1(x: float) -> float:
    return 1.0 - x


def neg2(x: float) -> float:
    return math.sqrt(max(0.0, 1.0 - x * x))


_NEGATIONS = {"neg1": neg1, "neg2": neg2}
NEGATION_KINDS = tuple(_NEGATIONS)


def eval_negation(kind: str, x: float) -> float:
    try:
        return _NEGATIONS[kind](x)
    except KeyError:
        raise LatticeError(f"unknown negation: {kind!r}") from None


def eval_threshold(c: float, x: float, tol: float = DEFAULT_TOL) -> float:
    """f(c, x) and g(c, x): 1 when x > c + tol, else 0."""
    return 1.0 if x > c + tol else 0.0


def truth_value(x, what: str) -> float:
    """x as a float when it is a finite number in [0, 1] (not a bool); else LatticeError."""
    if isinstance(x, bool) or not isinstance(x, (int, float)) or not 0.0 <= x <= 1.0:
        raise LatticeError(f"{what} must be a number in [0, 1], got {x!r}")
    return float(x)


def lattice_grid(step: float) -> list[float]:
    """The chain {0, step, 2*step, ..., 1}; step must divide 1."""
    n = grid_count(step) - 1
    return [i / n for i in range(n + 1)]


def grid_count(step: float) -> int:
    """How many values lattice_grid(step) lists, counted without building
    the grid (a budget check must not allocate what it refuses)."""
    if not 0.0 < step <= 0.5:
        raise LatticeError(f"grid step must lie in (0, 0.5], got {step}")
    if math.isinf(1.0 / step):
        raise LatticeError(f"grid step {step} is too small: 1/step overflows")
    n = round(1.0 / step)
    if abs(n * step - 1.0) > 1e-9:
        raise LatticeError(f"grid step {step} does not divide 1")
    return n + 1
