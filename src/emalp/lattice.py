"""Truth-value arithmetic on the unit interval.

Conjunctors with their residuated implications (Goedel, product,
Lukasiewicz), negation operators, parametric threshold maps, and
grid-based verifiers of the order-theoretic laws the pairs must obey:

    x &_g y = min(x, y)            z <-g y = 1 if y <= z else z
    x &_p y = x * y                z <-p y = min(1, z / y)    (y = 0 -> 1)
    x &_l y = max(0, x + y - 1)    z <-l y = min(1, 1 - y + z)

Each conjunctor/implication pair satisfies the adjunction

    x <= (z <- y)  iff  (x & y) <= z

which `check_adjoint_pair` verifies exhaustively on a grid.  The
product residuum at y = 0 is defined as 1 (the supremum of
{x | x * 0 <= z}), which keeps the adjunction total.

Negations: neg1(x) = 1 - x and neg2(x) = sqrt(1 - x^2), both antitone
and involutive: neg2(neg2(x)) = |x| = x on [0, 1], up to rounding for
x near 0.

Thresholds: f(c, x) is 0 for x <= c and 1 above; g(c, x) is 1 for
c < x and 0 otherwise.  On a totally ordered carrier the two coincide.
Both compare against c + tol so that floating-point noise at the jump
cannot flip the output; both are flagged discontinuous.

All functions are pure and operate on binary64 floats.  Top and bottom
of the lattice are 1.0 and 0.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

from .errors import MalpError

DEFAULT_TOL = 1e-9

ADJOINT_KINDS = ("godel", "product", "lukasiewicz")


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


def eval_threshold(kind: str, c: float, x: float, tol: float = DEFAULT_TOL) -> float:
    if kind == "f":
        return 0.0 if x <= c + tol else 1.0
    if kind == "g":
        return 1.0 if x > c + tol else 0.0
    raise LatticeError(f"unknown threshold: {kind!r}")


def truth_value(x, what: str) -> float:
    """x as a float when it is a finite number in [0, 1] (not a bool); else LatticeError."""
    if isinstance(x, bool) or not isinstance(x, (int, float)) or not 0.0 <= x <= 1.0:
        raise LatticeError(f"{what} must be a number in [0, 1], got {x!r}")
    return float(x)


@dataclass(frozen=True)
class Violation:
    law: str
    point: tuple
    detail: str


@dataclass(frozen=True)
class PropertyReport:
    kind: str
    grid_step: float
    checked: int
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def lattice_grid(step: float) -> list[float]:
    """The chain {0, step, 2*step, ..., 1}; step must divide 1."""
    n = grid_count(step) - 1
    return [i / n for i in range(n + 1)]


def grid_count(step: float, upto: float = 1.0) -> int:
    """How many values of lattice_grid(step) are <= upto, counted without
    building the grid (a budget check must not allocate what it refuses)."""
    if not 0.0 < step <= 0.5:
        raise LatticeError(f"grid step must lie in (0, 0.5], got {step}")
    if math.isinf(1.0 / step):
        raise LatticeError(f"grid step {step} is too small: 1/step overflows")
    n = round(1.0 / step)
    if abs(n * step - 1.0) > 1e-9:
        raise LatticeError(f"grid step {step} does not divide 1")
    if upto >= 1.0:
        return n + 1
    if not upto >= 0.0:   # below 0, or nan
        return 0
    k = int(upto * n)     # the last i with i / n <= upto, up to rounding
    while k < n and (k + 1) / n <= upto:
        k += 1
    while k >= 0 and k / n > upto:
        k -= 1
    return k + 1


def check_adjoint_pair(kind: str, grid_step: float, tol: float = 1e-12) -> PropertyReport:
    """Exhaustively verify the adjoint-pair laws on a grid.

    Checks, for all grid points: monotonicity of the conjunctor in both
    arguments, monotonicity of the implication in the consequent and
    antitonicity in the antecedent, and the adjunction
    x <= (z <- y) iff (x & y) <= z.  Comparisons carry the given
    tolerance; violations are collected, not raised.
    """
    conj = _CONJUNCTORS[kind] if kind in _CONJUNCTORS else None
    if conj is None:
        raise LatticeError(f"unknown adjoint pair: {kind!r}")
    impl = _IMPLICATIONS[kind]
    grid = lattice_grid(grid_step)
    violations: list[Violation] = []
    checked = 0

    for a, b in zip(grid, grid[1:]):
        for y in grid:
            checked += 2
            if conj(a, y) > conj(b, y) + tol:
                violations.append(Violation("conjunctor-monotone-1", (a, b, y),
                                            f"{conj(a, y)} > {conj(b, y)}"))
            if conj(y, a) > conj(y, b) + tol:
                violations.append(Violation("conjunctor-monotone-2", (y, a, b),
                                            f"{conj(y, a)} > {conj(y, b)}"))
    for a, b in zip(grid, grid[1:]):
        for w in grid:
            checked += 2
            if impl(a, w) > impl(b, w) + tol:
                violations.append(Violation("implication-monotone-consequent", (a, b, w),
                                            f"{impl(a, w)} > {impl(b, w)}"))
            if impl(w, b) > impl(w, a) + tol:
                violations.append(Violation("implication-antitone-antecedent", (w, a, b),
                                            f"{impl(w, b)} > {impl(w, a)}"))
    for x, y, z in product(grid, repeat=3):
        checked += 1
        lhs = x <= impl(z, y) + tol
        rhs = conj(x, y) <= z + tol
        if lhs != rhs:
            violations.append(Violation("adjunction", (x, y, z),
                                        f"x<=(z<-y) is {lhs} but (x&y)<=z is {rhs}"))
    return PropertyReport(kind, grid_step, checked, tuple(violations))
