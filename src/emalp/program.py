"""Program data model: body expression trees, polarity analysis,
compilation of bodies into closures, rules, programs, and validation.

A rule body is a tree over atoms, constants in [0, 1], and builtin
operators.  Every atom occurrence has a polarity computed by structural
induction: min/max/and_*/or_l/add/mul and the thresholds preserve the
polarity of their arguments, negations flip it, and the second argument
of sub and div1 flips it.  A body in which some atom occurs under both
polarities is rejected at validation, and so is a mul/and_p or div1 one
of whose arguments holds atoms while the other may be negative, which
would turn that argument's polarity over.

Intermediate values of add/sub/mul/div1 may leave [0, 1]; the top-level
value of a body must not, which is checked conservatively by natural
interval extension at validation and asserted again at evaluation.
An operator monotone in each argument gets its range from its own
function at the low and high polarity corners of the argument box, the
thresholds jumping at c + tol as evaluation does; mul/and_p, div1 and
and_l keep explicit interval rules.  Arguments of negations and
thresholds must stay inside [0, 1], since those are operators of the
truth-value lattice proper.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import operator
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from typing import Callable, Iterator, Mapping, Optional, Sequence, Union

from .errors import MalpError
from .lattice import (
    DEFAULT_TOL,
    NEGATION_KINDS,
    eval_threshold,
    neg1,
    neg2,
    t_godel,
    t_lukasiewicz,
    t_product,
)

__all__ = [
    "Apply",
    "Atom",
    "BodyExpr",
    "Const",
    "MalpError",
    "Program",
    "ProgramClass",
    "RangeViolation",
    "Rule",
    "ValidationFailure",
    "body_interval",
    "eval_body",
    "eval_expr",
    "occurrences",
    "validate_program",
]


class RangeViolation(MalpError):
    """A body evaluated to a value outside [0, 1] by more than the tolerance."""


class _Node:
    """An immutable node: equal to a node of the same class with equal
    fields, and hashed, written by repr and pickled by those fields alone.
    Its __init__ sets the fields with the slots' own setters, which the
    frozen __setattr__ does not block."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._key = operator.attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join([f"{f}={getattr(self, f)!r}" for f in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple([getattr(self, f) for f in self._fields])

    def __setattr__(self, name, *value):   # also __delattr__, which passes no value
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__


class Const(_Node):
    __slots__ = _fields = ("value",)

    def __init__(self, value: float):
        _set_value(self, value)

    def __str__(self) -> str:
        return format_value(self.value)


class Atom(_Node):
    __slots__ = _fields = ("name",)

    def __init__(self, name: str):
        _set_name(self, name)

    def __str__(self) -> str:
        return self.name


class Apply(_Node):
    __slots__ = ("op", "args", "_signs")   # _signs: made on first use
    _fields = ("op", "args")

    def __init__(self, op: str, args: tuple["BodyExpr", ...]):
        _set_op(self, op)
        _set_args(self, args)

    def __str__(self) -> str:
        return f"{self.op}({', '.join(str(a) for a in self.args)})"


_set_value, _set_name = Const.value.__set__, Atom.name.__set__
_set_op, _set_args, _set_signs = Apply.op.__set__, Apply.args.__set__, Apply._signs.__set__

BodyExpr = Union[Const, Atom, Apply]

Interval = tuple[float, float]


def format_value(v: float) -> str:
    """The shortest digits that read back as v, written without an exponent
    (the grammar has none).  A non-finite v, which the grammar cannot
    write, comes back as repr gives it, for messages."""
    if not math.isfinite(v):
        return repr(v)
    if v == int(v):
        return str(int(v))
    text = repr(v)
    if "e" in text:
        import decimal   # rare, so kept off the import path
        text = format(decimal.Decimal(text), "f")
    return text


# ---------------------------------------------------------------------------
# builtin operators


def _iv_mul(ivs: list[Interval]) -> Interval:
    # not monotone on signed boxes: the extremes are among the four corners
    (a, b), (c, d) = ivs
    corners = (a * c, a * d, b * c, b * d)
    return (min(corners), max(corners))


def _iv_and_l(ivs: list[Interval]) -> Interval:
    # t_lukasiewicz(1, y) is y, which may be negative (and (1 + y) - 1 may
    # round off y): an interval holding 1 widens to the other one
    (a, b), (c, d) = ivs
    lo, hi = max(0.0, a + c - 1.0), max(0.0, b + d - 1.0)
    if a <= 1.0 <= b:
        lo, hi = min(lo, c), max(hi, d)
    if c <= 1.0 <= d:
        lo, hi = min(lo, a), max(hi, b)
    return (lo, hi)


def _iv_div1(ivs: list[Interval]) -> Interval:
    (a, b), (c, d) = ivs
    if c > 0.0 or d < 0.0:
        corners = (a / c, a / d, b / c, b / d)
        return (min(1.0, min(corners)), min(1.0, max(corners)))
    # denominator interval touches 0: near 0+ the quotient blows up and
    # div1 clips it at 1; a possibly negative numerator is unbounded below
    if a < 0.0 or c < 0.0:
        return (float("-inf"), 1.0)
    if d == 0.0:
        return (1.0, 1.0)
    return (min(1.0, a / d), 1.0)


def _clamp01(x: float) -> float:
    return 0.0 if x < 0.0 else 1.0 if x > 1.0 else x


@dataclass(frozen=True)
class OpSpec:
    min_arity: int
    max_arity: Optional[int]            # None = unbounded
    polarities: Optional[tuple[int, ...]]  # None = all-preserving (variadic)
    continuous: bool
    fn: Callable[..., float]
    # None = monotone in each argument with its declared sign
    interval: Optional[Callable[[list[Interval]], Interval]] = None
    lattice_domain: tuple[int, ...] = ()  # argument indices that must stay in [0, 1]
    const_first: bool = False             # first argument must be a constant (f/g)

    def polarity(self, i: int) -> int:
        if self.polarities is None:
            return 1
        return self.polarities[i]


def _or_l(x: float, y: float) -> float:
    return min(1.0, x + y)


def _div1(x: float, y: float) -> float:
    if y == 0.0:
        return 1.0
    return min(1.0, x / y)


BUILTINS: dict[str, OpSpec] = {
    "min": OpSpec(2, None, None, True, min),
    "max": OpSpec(2, None, None, True, max),
    "and_g": OpSpec(2, 2, (1, 1), True, t_godel),
    "and_p": OpSpec(2, 2, (1, 1), True, t_product, _iv_mul),
    "and_l": OpSpec(2, 2, (1, 1), True, t_lukasiewicz, _iv_and_l),
    "or_l": OpSpec(2, 2, (1, 1), True, _or_l),
    "add": OpSpec(2, 2, (1, 1), True, operator.add),
    "sub": OpSpec(2, 2, (1, -1), True, operator.sub),
    "mul": OpSpec(2, 2, (1, 1), True, operator.mul, _iv_mul),
    "div1": OpSpec(2, 2, (1, -1), False, _div1, _iv_div1),
    "neg1": OpSpec(1, 1, (-1,), True, neg1, lattice_domain=(0,)),
    "neg2": OpSpec(1, 1, (-1,), True, neg2, lattice_domain=(0,)),
    "f": OpSpec(2, 2, (1, 1), False, None, lattice_domain=(1,), const_first=True),
    "g": OpSpec(2, 2, (1, 1), False, None, lattice_domain=(1,), const_first=True),
}


def op_spec(name: str) -> OpSpec:
    spec = BUILTINS.get(name)
    if spec is None:
        raise MalpError(f"unknown builtin: {name!r}")
    return spec


def _function(spec: OpSpec, tol: float) -> Callable[..., float]:
    """The operator's function: its own, or for a threshold the cut at c + tol."""
    return spec.fn or functools.partial(eval_threshold, tol=tol)


# ---------------------------------------------------------------------------
# evaluation


def eval_expr(node: BodyExpr, env: Mapping[str, float], tol: float = DEFAULT_TOL) -> float:
    """Homomorphic evaluation of a (sub)tree, without the top-level range check."""
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Atom):
        try:
            return env[node.name]
        except KeyError:
            raise missing_atom(node.name) from None
    fn = _function(op_spec(node.op), tol)
    return fn(*[eval_expr(a, env, tol) for a in node.args])


def eval_body(body: BodyExpr, env: Mapping[str, float], tol: float = DEFAULT_TOL) -> float:
    """Evaluate a rule body; the result must lie in [0, 1].

    Values within tol of the interval are clamped onto it; anything
    further out raises RangeViolation.
    """
    return in_range(eval_expr(body, env, tol), tol, body)


def in_range(v: float, tol: float, body: BodyExpr,
             frozen: Optional[Sequence[float]] = None) -> float:
    """v, a value of the body, clamped onto [0, 1] within tol of it;
    further out, RangeViolation.  Its message names the body, or given the
    values of the body's own freeze sites in order as `frozen`, its reduct's."""
    if v < -tol or v > 1.0 + tol:
        if frozen is not None:
            values = iter(frozen)
            body = freeze(body, lambda site: next(values))
        raise RangeViolation(f"body value {v} outside [0, 1]: {body}")
    return _clamp01(v)


def missing_atom(name: str) -> MalpError:
    return MalpError(f"interpretation is not total: missing atom {name!r}")


# ---------------------------------------------------------------------------
# polarity


class Occurrence(_Node):
    __slots__ = _fields = ("atom", "sign", "direct_negation")

    def __init__(self, atom: str, sign: int, direct_negation: bool):
        _set_atom(self, atom)
        _set_sign(self, sign)             # +1 order-preserving, -1 order-reversing
        _set_direct(self, direct_negation)   # the argument of a negation at a positive position


_set_atom, _set_sign, _set_direct = (
    Occurrence.atom.__set__, Occurrence.sign.__set__, Occurrence.direct_negation.__set__)


def occurrences(body: BodyExpr) -> list[Occurrence]:
    """The body's atom occurrences, left to right, each with its sign."""
    out: list[Occurrence] = []
    _walk(body, 1, False, out, [], DEFAULT_TOL)
    return out


def body_ops(body: BodyExpr) -> Iterator[Apply]:
    if isinstance(body, Apply):
        yield body
        for a in body.args:
            yield from body_ops(a)


def rewrite(body: BodyExpr, replace: Callable[[BodyExpr, int], Optional[BodyExpr]],
            sign: int = 1) -> BodyExpr:
    """Rebuild a body top down, passing each node with its sign to `replace`.

    `replace(node, sign)` returns the node's substitute, or None to keep
    the node and descend into its arguments.
    """
    new = replace(body, sign)
    if new is not None:
        return new
    if not isinstance(body, Apply):
        return body
    spec = op_spec(body.op)
    return Apply(body.op, tuple([
        rewrite(a, replace, sign * spec.polarity(i)) for i, a in enumerate(body.args)
    ]))


def is_freeze_site(node: BodyExpr, sign: int) -> bool:
    """A negation node, at the given sign, all of whose atoms have sign < 0.

    The reduct freezes exactly these subtrees (the outermost ones) at
    their value under M.  Which subtrees they are depends on polarity
    alone, never on M.
    """
    return node.__class__ is Apply and node.op in NEGATION_KINDS and _signs(node) == {-sign}


def freeze(body: BodyExpr, value: Callable[[BodyExpr], float]) -> BodyExpr:
    """The body with each freeze site, in order, turned into Const(value(site))."""
    return rewrite(body, lambda n, sign: Const(value(n)) if is_freeze_site(n, sign) else None)


def _signs(node: BodyExpr) -> frozenset[int]:
    """The signs the subtree's `occurrences` take, read at +1; an Apply node
    keeps them once found."""
    if node.__class__ is not Apply:
        return frozenset((1,) if node.__class__ is Atom else ())
    if not hasattr(node, "_signs"):
        spec, n = BUILTINS.get(node.op), len(node.args)
        signs = frozenset()   # no argument has a sign, as for `occurrences`
        if spec is not None and n <= (spec.max_arity or n):
            signs = frozenset(s * spec.polarity(i) for i, arg in enumerate(node.args)
                              for s in _signs(arg))
        _set_signs(node, signs)
    return node._signs


def body_interval(body: BodyExpr) -> Interval:
    """Natural interval extension over atoms in [0, 1], clamped as validation clamps it."""
    return _walk(body, 1, False, [], [], DEFAULT_TOL)


# ---------------------------------------------------------------------------
# compilation

Compiled = Callable[[Sequence[float]], float]


def compile_body(body: BodyExpr, tol: float, index: Mapping[str, int],
                 sites: Optional[list[Compiled]] = None,
                 reads: Optional[dict[str, int]] = None) -> Compiled:
    """Compile a body into f(V) -> float, its value as eval_expr gives it:
    `in_range` takes it onto [0, 1] as eval_body does.

    V is one list: atom a at V[index[a]], then the freeze sites.  With a
    `sites` list, the closure that evaluates freeze site k's subtree from
    V's atoms is appended to `sites` as entry k, and f reads V[n + k]
    there, n = len(index): the body as written when that slot holds the
    site's value at V, the reduct's body when it holds its value at M.
    Bodies may share one list.  Each operator calls the function eval_expr
    calls, on the same arguments in the same order, so the floats are the
    same; an argument that is an atom, a constant or a site is read inline.
    A `reads` dict gets each atom the reduct's body reads, -1 if some such
    read is order-reversing, else 1.
    """
    return _closure(*_compile(body, 1, tol, index, sites, {} if reads is None else reads))


def _compile(node: BodyExpr, sign: int, tol: float, index: Mapping[str, int],
             sites: Optional[list[Compiled]], reads: dict[str, int]) -> tuple[str, object]:
    """(kind, what): "v" and a slot of V, "c" and a constant, or "f" and a closure of V."""
    if isinstance(node, Const):
        return "c", node.value
    if isinstance(node, Atom):
        reads[node.name] = min(sign, reads.get(node.name, sign))
        return "v", index[node.name]
    if sites is not None and is_freeze_site(node, sign):
        n, k = len(index), len(sites)
        sites.append(_closure(*_compile(node, sign, tol, index, None, {})))
        return "v", n + k
    spec = op_spec(node.op)
    args = [_compile(a, sign * spec.polarity(i), tol, index, sites, reads)
            for i, a in enumerate(node.args)]
    fn, kinds = _function(spec, tol), "".join([kind for kind, _ in args])
    if kinds not in _FUSED:   # three arguments or more, or constants alone
        fs = [_closure(*arg) for arg in args]
        return "f", lambda V: fn(*[f(V) for f in fs])
    return "f", _FUSED[kinds](fn, *[what for _, what in args])


def _closure(kind: str, what) -> Compiled:
    if kind == "v":
        return operator.itemgetter(what)
    return what if kind == "f" else lambda V: what


_FUSED = {   # argument kinds -> the operator's closure, each slot or constant read inline
    "v": lambda fn, a: lambda V: fn(V[a]),
    "f": lambda fn, a: lambda V: fn(a(V)),
    "vv": lambda fn, a, b: lambda V: fn(V[a], V[b]),
    "vc": lambda fn, a, b: lambda V: fn(V[a], b),
    "cv": lambda fn, a, b: lambda V: fn(a, V[b]),
    "vf": lambda fn, a, b: lambda V: fn(V[a], b(V)),
    "fv": lambda fn, a, b: lambda V: fn(a(V), V[b]),
    "cf": lambda fn, a, b: lambda V: fn(a, b(V)),
    "fc": lambda fn, a, b: lambda V: fn(a(V), b),
    "ff": lambda fn, a, b: lambda V: fn(a(V), b(V)),
}


# ---------------------------------------------------------------------------
# rules and programs


IMPLICATION_TAGS = {"godel": "g", "product": "p", "lukasiewicz": "l"}
TAG_IMPLICATIONS = {v: k for k, v in IMPLICATION_TAGS.items()}


@dataclass(frozen=True)
class Rule:
    head: Union[Atom, Const]
    impl: str               # "godel" | "product" | "lukasiewicz"
    body: BodyExpr
    weight: float

    @property
    def is_constraint(self) -> bool:
        return isinstance(self.head, Const)

    def __str__(self) -> str:
        tag = IMPLICATION_TAGS[self.impl]
        return f"{self.head} <-{tag} {self.body} with {format_value(self.weight)};"


class ProgramClass(enum.Enum):
    POSITIVE = "positive"
    MANLP = "MANLP"
    CONSTRAINT_FREE = "constraint-free EMALP"
    EMALP = "EMALP"


@dataclass(frozen=True)
class Program:
    rules: tuple[Rule, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))

    def __str__(self) -> str:
        return "\n".join(str(r) for r in self.rules)

    def __getstate__(self) -> dict:
        return {"rules": self.rules}

    _derived = cached_property(lambda self: {})   # what derived() has made, by key

    def derived(self, key, make: Callable[[], object]):
        """make(), computed on first use per key and kept outside the fields:
        equality, hashing, repr and pickling see only the rules."""
        memo = self._derived
        if key not in memo:
            memo[key] = make()   # a lost race computes it twice
        return memo[key]

    def atoms(self) -> tuple[str, ...]:
        return self._derived.get("atoms") or self.derived("atoms", lambda: tuple(sorted(
            {r.head.name for r in self.definite_rules()}.union(
                o.atom for occs in self.rule_occurrences() for o in occs))))

    def rule_occurrences(self) -> tuple[tuple[Occurrence, ...], ...]:
        """The signed atom occurrences of each rule body, in rule order;
        `validate_program` leaves them here from its walk."""
        return self.derived("occurrences",
                            lambda: tuple([tuple(occurrences(r.body)) for r in self.rules]))

    def constraints(self) -> tuple[Rule, ...]:
        return self.derived("constraints", lambda: tuple([r for r in self.rules if r.is_constraint]))

    def definite_rules(self) -> tuple[Rule, ...]:
        return self.derived("definite", lambda: tuple([r for r in self.rules if not r.is_constraint]))

    def reversing_rules(self) -> tuple[int, ...]:
        """The indices of the rules that reverse the order other than by a
        negation applied directly to an atom: what keeps a MANLP out."""
        return tuple([i for i, occs in enumerate(self.rule_occurrences())
                      if any(o.sign < 0 and not o.direct_negation for o in occs)])

    def classify(self) -> ProgramClass:
        if self.constraints():
            return ProgramClass.EMALP
        if not any(o.sign < 0 for occs in self.rule_occurrences() for o in occs):
            return ProgramClass.POSITIVE
        return ProgramClass.CONSTRAINT_FREE if self.reversing_rules() else ProgramClass.MANLP


class ValidationFailure(MalpError):
    def __init__(self, issues: tuple[str, ...]):
        self.issues = issues   # what validate_program returned
        super().__init__("; ".join(issues))


def _walk(node: BodyExpr, sign: int, direct_neg: bool, occs: list[Occurrence],
          issues: list[str], tol: float) -> Interval:
    """Validation's one pass over a (sub)tree read at `sign`; returns its interval.

    The signs go down, and each atom's Occurrence is appended to `occs`.
    The intervals come up, and the structural and range issues are
    appended to `issues`.  The arguments of a malformed node give their
    occurrences but no issues, unless one has no sign (an unknown builtin,
    too many arguments).  An operator monotone in each argument gets its
    range from its function at the low and the high corner of the argument
    box, each antitone argument's interval turned over.
    """
    if node.__class__ is Atom:
        occs.append(Occurrence(node.name, sign, direct_neg))
        return (0.0, 1.0)
    if node.__class__ is Const:
        if not 0.0 <= node.value <= 1.0:
            issues.append(f"constant {node.value} outside [0, 1]")
        return (node.value, node.value)
    op, args = node.op, node.args
    spec = BUILTINS.get(op)
    if spec is None:
        issues.append(f"unknown builtin: {op!r}")
        return (0.0, 1.0)
    n, most = len(args), spec.max_arity or len(args)
    if not spec.min_arity <= n <= most:
        wrong = f"{op} applied to {n} arguments"
    elif spec.const_first and args[0].__class__ is not Const:
        wrong = f"first argument of {op} must be a constant"
    else:
        wrong = None
    if wrong:
        issues.append(wrong)
        if n > most:
            return (0.0, 1.0)
        issues = []
    direct_neg = sign > 0 and op in NEGATION_KINDS   # for the arguments
    ivs = []
    for arg, s in zip(args, spec.polarities or _PRESERVING):
        ivs.append(_walk(arg, sign * s, direct_neg, occs, issues, tol))
    if wrong:
        return (0.0, 1.0)
    for i in spec.lattice_domain:
        lo, hi = ivs[i]
        if lo < -1e-12 or hi > 1.0 + 1e-12:
            issues.append(f"argument of {op} may leave [0, 1] (interval [{lo}, {hi}])")
            ivs[i] = (_clamp01(lo), _clamp01(hi))
    if spec.interval is not None:
        if spec.interval in (_iv_mul, _iv_div1):
            # a product or quotient turns one argument over wherever the other is negative
            for i, j in ((0, 1), (1, 0)):
                if ivs[i][0] < 0.0 and _signs(args[j]):
                    issues.append(f"argument {j + 1} of {op} holds atoms, but argument "
                                  f"{i + 1} may be negative (interval [{ivs[i][0]}, {ivs[i][1]}])")
        return spec.interval(ivs)
    if spec.polarities is None:   # min, max
        return spec.fn(*[lo for lo, _ in ivs]), spec.fn(*[hi for _, hi in ivs])
    fn = _function(spec, tol)
    if n == 1:   # iv[::-1] turns an antitone argument's interval over
        lo, hi = ivs[0][::spec.polarities[0]]
        return fn(lo), fn(hi)
    (a, b), (c, d) = ivs[0][::spec.polarities[0]], ivs[1][::spec.polarities[1]]
    return fn(a, c), fn(b, d)


_PRESERVING = itertools.repeat(1)   # the signs of a variadic operator's arguments


def validate_program(program: Program, allow_repeats: bool = False,
                     tol: float = DEFAULT_TOL) -> tuple[str, ...]:
    """Every invariant violation, as "rule <i>: <message>" in rule order;
    empty when the program is valid.

    Violations are data, not errors; `parse_program` raises
    ValidationFailure on a non-empty tuple, and `check` prints it.
    Each body is walked once, and its occurrences are left in
    `program.rule_occurrences()`.
    """
    issues: list[str] = []
    walked = []
    seen: set[str] = set()   # the atom names checked so far, and the invalid ones
    invalid: set[str] = set()
    for idx, rule in enumerate(program.rules):
        occs: list[Occurrence] = []
        body: list[str] = []
        top = _walk(rule.body, 1, False, occs, body, tol)
        walked.append(tuple(occs))
        names = {o.atom for o in occs}
        repeats = len(names) < len(occs)
        if isinstance(rule.head, Atom):
            names.add(rule.head.name)
        if not names <= seen:
            invalid.update(n for n in names - seen   # an ident is an ASCII identifier
                           if n == "with" or not (n.isascii() and n.isidentifier()))
            seen |= names
        local = [f"invalid atom name {n!r}" for n in sorted(names & invalid)] if invalid else []
        if not -tol <= rule.weight <= 1.0 + tol:
            local.append(f"weight {rule.weight} outside [0, 1]")
        if rule.is_constraint:
            if not 0.0 <= rule.head.value <= 1.0:
                local.append(f"constraint head {rule.head.value} outside [0, 1]")
            if abs(rule.weight - 1.0) > tol:
                local.append(f"constraint weight must be 1, got {format_value(rule.weight)}")
        local += body
        if top[0] < -tol or top[1] > 1.0 + tol:
            local.append(f"body may leave [0, 1] (interval [{top[0]}, {top[1]}])")
        if repeats:
            counts: dict[tuple[str, int], int] = {}   # (atom, sign), in order of first occurrence
            for occ in occs:
                counts[occ.atom, occ.sign] = counts.get((occ.atom, occ.sign), 0) + 1
            for atom in dict.fromkeys(atom for atom, _ in counts):
                if (atom, 1) in counts and (atom, -1) in counts:
                    local.append(f"atom {atom!r} occurs with both polarities")
            if not allow_repeats:
                for (atom, sign), n in sorted(counts.items()):
                    if n > 1:
                        local.append(f"atom {atom!r} occurs {n} times with the same polarity")
        issues += [f"rule {idx}: {m}" for m in local]
    program.derived("occurrences", lambda: tuple(walked))
    return tuple(issues)
