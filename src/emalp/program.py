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
import math
import operator
import re
from dataclasses import dataclass
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


class RangeViolation(MalpError):
    """A body evaluated to a value outside [0, 1] by more than the tolerance."""


@dataclass(frozen=True)
class Const:
    value: float

    def __str__(self) -> str:
        return format_value(self.value)


@dataclass(frozen=True)
class Atom:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Apply:
    op: str
    args: tuple["BodyExpr", ...]

    def __str__(self) -> str:
        return f"{self.op}({', '.join(str(a) for a in self.args)})"


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
    name: str
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
    "min": OpSpec("min", 2, None, None, True, min),
    "max": OpSpec("max", 2, None, None, True, max),
    "and_g": OpSpec("and_g", 2, 2, (1, 1), True, t_godel),
    "and_p": OpSpec("and_p", 2, 2, (1, 1), True, t_product, _iv_mul),
    "and_l": OpSpec("and_l", 2, 2, (1, 1), True, t_lukasiewicz, _iv_and_l),
    "or_l": OpSpec("or_l", 2, 2, (1, 1), True, _or_l),
    "add": OpSpec("add", 2, 2, (1, 1), True, operator.add),
    "sub": OpSpec("sub", 2, 2, (1, -1), True, operator.sub),
    "mul": OpSpec("mul", 2, 2, (1, 1), True, operator.mul, _iv_mul),
    "div1": OpSpec("div1", 2, 2, (1, -1), True, _div1, _iv_div1),
    "neg1": OpSpec("neg1", 1, 1, (-1,), True, neg1, lattice_domain=(0,)),
    "neg2": OpSpec("neg2", 1, 1, (-1,), True, neg2, lattice_domain=(0,)),
    "f": OpSpec("f", 2, 2, (1, 1), False, None, lattice_domain=(1,), const_first=True),
    "g": OpSpec("g", 2, 2, (1, 1), False, None, lattice_domain=(1,), const_first=True),
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
        return eval_threshold(node.op, vals[0], vals[1], tol)
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


class Polarity(enum.Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    MIXED = "mixed"


@dataclass(frozen=True)
class Occurrence:
    atom: str
    sign: int             # +1 order-preserving, -1 order-reversing
    direct_negation: bool  # atom is the argument of a negation sitting at a positive position


def occurrences(body: BodyExpr, sign: int = 1) -> list[Occurrence]:
    out: list[Occurrence] = []
    _collect(body, sign, False, out)
    return out


def _collect(node: BodyExpr, sign: int, direct_neg: bool, out: list[Occurrence]) -> None:
    if isinstance(node, Atom):
        out.append(Occurrence(node.name, sign, direct_neg))
        return
    if isinstance(node, Const):
        return
    spec = BUILTINS.get(node.op)
    if spec is None or (spec.polarities is not None and len(node.args) > len(spec.polarities)):
        return   # some argument has no sign; validation's _check_expr reports the node
    for i, arg in enumerate(node.args):
        _collect(arg, sign * spec.polarity(i), node.op in NEGATION_KINDS and sign > 0, out)


def polarity_of(body: BodyExpr) -> dict[str, Polarity]:
    """Polarity of every atom occurring in the body.

    Atoms the body does not mention are not listed; an atom that occurs
    both covariantly and contravariantly maps to MIXED.
    """
    return _polarity(occurrences(body))


def _polarity(occs: Sequence[Occurrence]) -> dict[str, Polarity]:
    out: dict[str, Polarity] = {}
    for occ in occs:
        pol = Polarity.POSITIVE if occ.sign > 0 else Polarity.NEGATIVE
        out[occ.atom] = pol if out.get(occ.atom, pol) is pol else Polarity.MIXED
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
    if not (isinstance(node, Apply) and node.op in NEGATION_KINDS):
        return False
    occs = occurrences(node, sign)
    return bool(occs) and all(o.sign < 0 for o in occs)


def body_interval(body: BodyExpr) -> Interval:
    """Natural interval extension over atoms in [0, 1], clamped as validation clamps it."""
    return _check_expr(body, [], DEFAULT_TOL)


# ---------------------------------------------------------------------------
# compilation

Compiled = Callable[[Mapping[str, float], Optional[Sequence[float]]], float]
Builder = Callable[[Sequence[float]], BodyExpr]


def compile_body(body: BodyExpr, tol: float = DEFAULT_TOL,
                 sites: Optional[list[Compiled]] = None,
                 reads: Optional[set[str]] = None) -> tuple[Compiled, Optional[Builder]]:
    """Compile a body into f(env, frozen) -> float, evaluated as eval_body does.

    f(env, None) is the body as written.  With a `sites` list, the closure
    that evaluates freeze site k's subtree is appended to `sites` as entry
    k; f(env, frozen) then reads frozen[k] there, so it is the reduct's
    body when frozen holds [site(M, None) for site in sites], and
    `build(frozen)` returns that body as a tree, each site replaced by
    Const(frozen[k]).  Bodies may share one list.  Without it, or when the
    body has no freeze site, `build` is None.  A `reads` set receives, in
    the same walk, the atoms f(env, frozen) reads: those outside the
    freeze sites, or all of them without `sites`.  Each operator calls the
    function eval_expr calls, on the same arguments in the same order, so
    the floats are the same, as are the range check, the clamp and the
    RangeViolation message, whose reduct body is built only on error.
    """
    expr, build = _compile(body, 1, tol, sites, reads)

    def evaluate(env, frozen):
        v = expr(env, frozen)
        if v < -tol or v > 1.0 + tol:
            raise _range_violation(v, body if frozen is None or build is None else build(frozen))
        return _clamp01(v)
    return evaluate, build


def _compile(node: BodyExpr, sign: int, tol: float, sites: Optional[list[Compiled]],
             reads: Optional[set[str]]) -> tuple[Compiled, Optional[Builder]]:
    if isinstance(node, Const):
        value = node.value
        return (lambda env, frozen: value), None
    if isinstance(node, Atom):
        name = node.name
        if reads is not None:
            reads.add(name)

        def atom(env, frozen):
            try:
                return env[name]
            except KeyError:
                raise _missing_atom(name) from None
        return atom, None
    if sites is not None and is_freeze_site(node, sign):
        k = len(sites)
        site = _compile(node, sign, tol, None, None)[0]
        sites.append(site)
        return ((lambda env, frozen: site(env, None) if frozen is None else frozen[k]),
                (lambda frozen: Const(frozen[k])))
    spec = op_spec(node.op)
    parts = [_compile(a, sign * spec.polarity(i), tol, sites, reads)
             for i, a in enumerate(node.args)]
    args = [f for f, _ in parts]
    build = _rebuild(node, [b for _, b in parts])
    if spec.const_first:
        op, (c, x) = node.op, args
        return (lambda env, frozen: eval_threshold(op, c(env, frozen), x(env, frozen), tol)), build
    fn = spec.fn
    if len(args) == 1:
        (a,) = args
        return (lambda env, frozen: fn(a(env, frozen))), build
    if len(args) == 2:
        a, b = args
        return (lambda env, frozen: fn(a(env, frozen), b(env, frozen))), build
    return (lambda env, frozen: fn(*[a(env, frozen) for a in args])), build


def _rebuild(node: Apply, builds: list[Optional[Builder]]) -> Optional[Builder]:
    """A builder for node from its arguments' builders; None if none of them rebuilds."""
    if all(b is None for b in builds):
        return None
    pairs = list(zip(node.args, builds))
    return lambda frozen: Apply(node.op, tuple(a if b is None else b(frozen) for a, b in pairs))


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

    def derived(self, key, make: Callable[[], object]):
        """make(), computed on first use per key and kept outside the fields:
        equality, hashing, repr and pickling see only the rules."""
        memo = self.__dict__.setdefault("_derived", {})
        if key not in memo:
            memo[key] = make()   # a lost race computes it twice
        return memo[key]

    def atoms(self) -> tuple[str, ...]:
        return self.derived("atoms", lambda: tuple(sorted(
            {r.head.name for r in self.definite_rules()}.union(
                o.atom for occs in self.rule_occurrences() for o in occs))))

    def rule_occurrences(self) -> tuple[tuple[Occurrence, ...], ...]:
        """The signed atom occurrences of each rule body, in rule order."""
        return self.derived("occurrences",
                            lambda: tuple(tuple(occurrences(r.body)) for r in self.rules))

    def polarities(self) -> tuple[dict[str, Polarity], ...]:
        """polarity_of each rule body, in rule order."""
        return tuple(_polarity(occs) for occs in self.rule_occurrences())

    def constraints(self) -> tuple[Rule, ...]:
        return self.derived("constraints", lambda: tuple(r for r in self.rules if r.is_constraint))

    def definite_rules(self) -> tuple[Rule, ...]:
        return self.derived("definite", lambda: tuple(r for r in self.rules if not r.is_constraint))

    def classify(self) -> ProgramClass:
        has_constraints = bool(self.constraints())
        negatives = [o for occs in self.rule_occurrences() for o in occs if o.sign < 0]
        if not has_constraints and not negatives:
            return ProgramClass.POSITIVE
        if not has_constraints and all(o.direct_negation for o in negatives):
            return ProgramClass.MANLP
        if not has_constraints:
            return ProgramClass.CONSTRAINT_FREE
        return ProgramClass.EMALP


@dataclass(frozen=True)
class ValidationIssue:
    rule: Optional[int]
    message: str

    def __str__(self) -> str:
        where = "program" if self.rule is None else f"rule {self.rule}"
        return f"{where}: {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    issues: tuple[ValidationIssue, ...]
    program_class: ProgramClass

    @property
    def ok(self) -> bool:
        return not self.issues


class ValidationFailure(MalpError):
    def __init__(self, report: ValidationReport):
        self.report = report
        super().__init__("; ".join(str(i) for i in report.issues))


def _check_expr(node: BodyExpr, issues: list[str], tol: float) -> Interval:
    """Structural and range checks in one bottom-up pass; returns the interval."""
    if isinstance(node, Const):
        if not 0.0 <= node.value <= 1.0:
            issues.append(f"constant {node.value} outside [0, 1]")
        return (node.value, node.value)
    if isinstance(node, Atom):
        return (0.0, 1.0)
    spec = BUILTINS.get(node.op)
    if spec is None:
        issues.append(f"unknown builtin: {node.op!r}")
        return (0.0, 1.0)
    n = len(node.args)
    if n < spec.min_arity or (spec.max_arity is not None and n > spec.max_arity):
        issues.append(f"{node.op} applied to {n} arguments")
        return (0.0, 1.0)
    if spec.const_first and not isinstance(node.args[0], Const):
        issues.append(f"first argument of {node.op} must be a constant")
        return (0.0, 1.0)
    ivs = [_check_expr(a, issues, tol) for a in node.args]
    for i in spec.lattice_domain:
        lo, hi = ivs[i]
        if lo < -1e-12 or hi > 1.0 + 1e-12:
            issues.append(f"argument of {node.op} may leave [0, 1] (interval [{lo}, {hi}])")
            ivs[i] = (_clamp01(lo), _clamp01(hi))
    if spec.interval is not None:
        if spec.interval in (_iv_mul, _iv_div1):
            # a product or quotient turns one argument over wherever the other is negative
            for i, j in ((0, 1), (1, 0)):
                if ivs[i][0] < 0.0 and occurrences(node.args[j]):
                    issues.append(f"argument {j + 1} of {node.op} holds atoms, but argument "
                                  f"{i + 1} may be negative (interval [{ivs[i][0]}, {ivs[i][1]}])")
        return spec.interval(ivs)
    # monotone: with each antitone argument's interval turned over, fn at the
    # low and the high corner gives the range; thresholds cut at c + tol
    fn = spec.fn or (lambda c, x: eval_threshold(node.op, c, x, tol))
    if spec.polarities is not None:
        ivs = [iv if s > 0 else iv[::-1] for iv, s in zip(ivs, spec.polarities)]
    low, high = zip(*ivs)
    return fn(*low), fn(*high)


_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def validate_program(program: Program, allow_repeats: bool = False,
                     tol: float = DEFAULT_TOL) -> ValidationReport:
    """Collect every invariant violation and classify the program.

    Violations are data, not errors; callers that need a hard failure
    (the parser, the CLI) raise ValidationFailure on a non-empty report.
    """
    issues: list[ValidationIssue] = []
    for idx, (rule, occs) in enumerate(zip(program.rules, program.rule_occurrences())):
        local: list[str] = []
        counts: dict[tuple[str, int], int] = {}   # (atom, sign), in order of first occurrence
        for occ in occs:
            counts[occ.atom, occ.sign] = counts.get((occ.atom, occ.sign), 0) + 1
        atoms = dict.fromkeys(atom for atom, _ in counts)
        head = [rule.head.name] if isinstance(rule.head, Atom) else []
        for name in sorted(set(atoms).union(head)):
            if name == "with" or not _IDENT_RE.match(name):
                local.append(f"invalid atom name {name!r}")
        if not -tol <= rule.weight <= 1.0 + tol:
            local.append(f"weight {rule.weight} outside [0, 1]")
        if rule.is_constraint:
            if not 0.0 <= rule.head.value <= 1.0:
                local.append(f"constraint head {rule.head.value} outside [0, 1]")
            if abs(rule.weight - 1.0) > tol:
                local.append(f"constraint weight must be 1, got {format_value(rule.weight)}")
        top = _check_expr(rule.body, local, tol)
        if top[0] < -tol or top[1] > 1.0 + tol:
            local.append(f"body may leave [0, 1] (interval [{top[0]}, {top[1]}])")
        for atom in atoms:
            if (atom, 1) in counts and (atom, -1) in counts:
                local.append(f"atom {atom!r} occurs with both polarities")
        if not allow_repeats:
            for (atom, sign), n in sorted(counts.items()):
                if n > 1:
                    local.append(f"atom {atom!r} occurs {n} times with the same polarity")
        issues.extend(ValidationIssue(idx, m) for m in local)
    return ValidationReport(tuple(issues), program.classify())
