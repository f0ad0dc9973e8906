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
    "ValidationReport",
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
        return type(self), tuple(getattr(self, f) for f in self._fields)

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
            raise _missing_atom(node.name) from None
    spec = op_spec(node.op)
    vals = [eval_expr(a, env, tol) for a in node.args]
    if spec.const_first:
        return eval_threshold(vals[0], vals[1], tol)
    return spec.fn(*vals)


def eval_body(body: BodyExpr, env: Mapping[str, float], tol: float = DEFAULT_TOL) -> float:
    """Evaluate a rule body; the result must lie in [0, 1].

    Values within tol of the interval are clamped onto it; anything
    further out raises RangeViolation.
    """
    v = eval_expr(body, env, tol)
    if v < -tol or v > 1.0 + tol:
        raise _range_violation(v, body)
    return _clamp01(v)


def _missing_atom(name: str) -> MalpError:
    return MalpError(f"interpretation is not total: missing atom {name!r}")


def _range_violation(v: float, body: BodyExpr) -> RangeViolation:
    return RangeViolation(f"body value {v} outside [0, 1]: {body}")


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
    return Apply(body.op, tuple(
        rewrite(a, replace, sign * spec.polarity(i)) for i, a in enumerate(body.args)
    ))


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


def _reads(node: BodyExpr, sign: int, out: dict[str, int]) -> dict[str, int]:
    """Add to `out` the atoms the body's reduct reads, those outside its
    freeze sites, each mapped to -1 if some such read is order-reversing,
    else to 1."""
    if node.__class__ is Atom:
        out[node.name] = min(sign, out.get(node.name, sign))
    elif node.__class__ is Apply and not is_freeze_site(node, sign):
        spec = op_spec(node.op)
        for i, arg in enumerate(node.args):
            _reads(arg, sign * spec.polarity(i), out)
    return out


def body_interval(body: BodyExpr) -> Interval:
    """Natural interval extension over atoms in [0, 1], clamped as validation clamps it."""
    return _walk(body, 1, False, [], [], DEFAULT_TOL)


# ---------------------------------------------------------------------------
# compilation

Compiled = Callable[[Mapping[str, float], Optional[Sequence[float]]], float]


def compile_body(body: BodyExpr, tol: float = DEFAULT_TOL,
                 sites: Optional[list[Compiled]] = None) -> Compiled:
    """Compile a body into f(env, frozen) -> float, evaluated as eval_body does.

    f(env, None) is the body as written.  With a `sites` list, the closure
    that evaluates freeze site k's subtree is appended to `sites` as entry
    k; f(env, frozen) then reads frozen[k] there, so it is the reduct's
    body when frozen holds [site(M, None) for site in sites].  Bodies may
    share one list.  Each operator calls the function eval_expr calls, on
    the same arguments in the same order, so the floats are the same, as
    are the range check, the clamp and the RangeViolation message, whose
    reduct body `freeze` builds only on error, from the values in frozen
    of this body's own sites.
    """
    first = None if sites is None else len(sites)   # this body's sites come next
    expr = _compile(body, 1, tol, sites)

    def evaluate(env, frozen):
        v = expr(env, frozen)
        if v < -tol or v > 1.0 + tol:
            read = body
            if frozen is not None and first is not None:
                values = iter(frozen[first:])
                read = freeze(body, lambda site: next(values))
            raise _range_violation(v, read)
        return _clamp01(v)
    return evaluate


def _compile(node: BodyExpr, sign: int, tol: float, sites: Optional[list[Compiled]]) -> Compiled:
    if isinstance(node, Const):
        value = node.value
        return lambda env, frozen: value
    if isinstance(node, Atom):
        name = node.name

        def atom(env, frozen):
            try:
                return env[name]
            except KeyError:
                raise _missing_atom(name) from None
        return atom
    if sites is not None and is_freeze_site(node, sign):
        k = len(sites)
        site = _compile(node, sign, tol, None)
        sites.append(site)
        return lambda env, frozen: site(env, None) if frozen is None else frozen[k]
    spec = op_spec(node.op)
    args = [_compile(a, sign * spec.polarity(i), tol, sites)
            for i, a in enumerate(node.args)]
    if spec.const_first:
        c, x = args
        return lambda env, frozen: eval_threshold(c(env, frozen), x(env, frozen), tol)
    fn = spec.fn
    if len(args) == 1:
        (a,) = args
        return lambda env, frozen: fn(a(env, frozen))
    if len(args) == 2:
        a, b = args
        return lambda env, frozen: fn(a(env, frozen), b(env, frozen))
    return lambda env, frozen: fn(*[a(env, frozen) for a in args])


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

    def __len__(self) -> int:
        return len(self.rules)

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
                            lambda: tuple(tuple(occurrences(r.body)) for r in self.rules))

    def constraints(self) -> tuple[Rule, ...]:
        return self.derived("constraints", lambda: tuple(r for r in self.rules if r.is_constraint))

    def definite_rules(self) -> tuple[Rule, ...]:
        return self.derived("definite", lambda: tuple(r for r in self.rules if not r.is_constraint))

    def reversing_rules(self) -> tuple[int, ...]:
        """The indices of the rules that reverse the order other than by a
        negation applied directly to an atom: what keeps a MANLP out."""
        return tuple(i for i, occs in enumerate(self.rule_occurrences())
                     if any(o.sign < 0 and not o.direct_negation for o in occs))

    def levels(self) -> tuple[dict[str, float], Optional[Rule]]:
        """Each head's level in the reduct, and what keeps its T from being monotone.

        The levels are `_levels` of what each head's bodies read outside
        their freeze sites.  If some head is on or downstream of a cycle
        (level inf), the second item is the first definite rule that reads
        an atom order-reversingly there (a subtrahend, a divisor), else None.
        """
        def make():
            reads = [(r, _reads(r.body, 1, {})) for r in self.definite_rules()]
            heads: dict[str, set] = {}
            for r, read in reads:
                heads.setdefault(r.head.name, set()).update(read)
            level = _levels(heads)
            antitone = [r for r, read in reads if -1 in read.values()]
            return level, antitone[0] if antitone and math.inf in level.values() else None
        return self.derived("levels", make)

    def classify(self) -> ProgramClass:
        if self.constraints():
            return ProgramClass.EMALP
        if not any(o.sign < 0 for occs in self.rule_occurrences() for o in occs):
            return ProgramClass.POSITIVE
        return ProgramClass.CONSTRAINT_FREE if self.reversing_rules() else ProgramClass.MANLP


def _levels(reads: dict[str, set]) -> dict[str, float]:
    """Each head's level: 1 + the highest level its bodies read (0 for an atom
    that heads no rule), inf on or downstream of a cycle.  From bottom, a
    head of level n is final from Kleene step n on.  In Kahn's order: a
    head is levelled once every head it reads is, so each read counts once."""
    waits = {h: atoms & reads.keys() for h, atoms in reads.items()}   # heads not levelled
    readers: dict[str, list] = {h: [] for h in reads}
    for h, atoms in waits.items():
        for a in atoms:
            readers[a].append(h)
    level = dict.fromkeys(reads, 1)
    ready = [h for h, atoms in waits.items() if not atoms]
    for h in ready:   # grows as heads get levelled
        for r in readers[h]:
            level[r] = max(level[r], level[h] + 1)
            waits[r].discard(h)
            if not waits[r]:
                ready.append(r)
    return {h: math.inf if waits[h] else n for h, n in level.items()}


@dataclass(frozen=True)
class ValidationReport:
    issues: tuple[str, ...]   # "rule <i>: <message>", in rule order

    @property
    def ok(self) -> bool:
        return not self.issues


class ValidationFailure(MalpError):
    def __init__(self, report: ValidationReport):
        self.report = report
        super().__init__("; ".join(report.issues))


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
    fn = spec.fn or (lambda c, x: eval_threshold(c, x, tol))   # thresholds cut at c + tol
    if n == 1:   # iv[::-1] turns an antitone argument's interval over
        lo, hi = ivs[0][::spec.polarities[0]]
        return fn(lo), fn(hi)
    (a, b), (c, d) = ivs[0][::spec.polarities[0]], ivs[1][::spec.polarities[1]]
    return fn(a, c), fn(b, d)


_PRESERVING = itertools.repeat(1)   # the signs of a variadic operator's arguments


def validate_program(program: Program, allow_repeats: bool = False,
                     tol: float = DEFAULT_TOL) -> ValidationReport:
    """Collect every invariant violation.

    Violations are data, not errors; callers that need a hard failure
    (the parser, the CLI) raise ValidationFailure on a non-empty report.
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
    return ValidationReport(tuple(issues))
