"""Semantics-preserving program transformations.

Three rewrites, each recorded in a TranslationRecord that names the
fresh atoms it introduced and knows how to move interpretations across:

* constraint elimination, threshold style ("fc"): every constraint
  <c <-i B; 1> becomes <p_bot <-i f(0, neg(p_bot)) & f(c, B); 1> with a
  single fresh witness atom p_bot shared by all constraints.  The rule
  count is unchanged.  Stable models of the target pin p_bot to 0.

* constraint elimination, two-rule style ("janssen"): the constraint
  head constant c is replaced by a fresh atom p_c, and per distinct c
  two rules are added, <p_c <-j c; 1> and
  <p_bot <-j g(0, neg(p_bot)) & g(c, p_c); 1>.  The target has
  2 * |distinct constants| more rules than the source.

* normalization ("manlp"): for every atom q with an order-reversing
  occurrence, a fresh atom not_q and the rule <not_q <-g neg(q); 1> are
  added, and each order-reversing occurrence of q is rewired to
  neg(not_q), which makes not_q order-preserving in the whole body.
  Requires an involutive negation; both neg1 and neg2 are, but only
  neg1 is accepted until ROADMAP item 14.  The target is a MANLP.  A
  cycle with an order-reversing read outside every negation (a
  subtrahend, a divisor) is refused: the target would freeze that read.

Lifting extends an interpretation to the fresh atoms (p_bot to 0, p_c
to c, not_q to neg(q)); projection restricts to the source symbols.
`verify_equivalence` checks, exhaustively on a grid, that lift/project
form a bijection between the stable-model sets of source and target.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from .lattice import DEFAULT_TOL, NEGATION_KINDS, eval_negation, truth_value
from .program import (
    IMPLICATION_TAGS,
    Apply,
    Atom,
    Const,
    MalpError,
    Program,
    ProgramClass,
    Rule,
    body_interval,
    body_ops,
    op_spec,
    rewrite,
)
from .semantics import (
    DEFAULT_BUDGET,
    DEFAULT_MAX_ITER,
    StableSearchConfig,
    check_grid_budget,
    find_stable_models,
    interp_distance,
    sorted_interp,
)

__all__ = [
    "ContinuityReport",
    "EquivalenceReport",
    "FreshAtom",
    "TransformError",
    "TranslationRecord",
    "check_continuity",
    "eliminate_constraints_fc",
    "eliminate_constraints_janssen",
    "lift_interpretation",
    "project_interpretation",
    "record_from_json",
    "to_manlp",
    "verify_equivalence",
]


METHODS = ("fc", "janssen", "manlp")   # the rewrites, as records and the CLI name them


class TransformError(MalpError):
    pass


@dataclass(frozen=True)
class FreshAtom:
    name: str
    role: str                        # "bottom_witness" | "constant_witness" | "negation_witness"
    source_atom: Optional[str] = None  # for negation witnesses
    value: Optional[float] = None      # for constant witnesses

    def to_json(self) -> dict:
        out: dict = {"name": self.name, "role": self.role}
        if self.source_atom is not None:
            out["source_atom"] = self.source_atom
        if self.value is not None:
            out["value"] = self.value
        return out


@dataclass(frozen=True)
class TranslationRecord:
    method: str                      # one of METHODS
    source: Program
    target: Program
    fresh_atoms: tuple[FreshAtom, ...] = ()
    negation: str = "neg1"

    @property
    def bottom_atom(self) -> Optional[str]:
        for a in self.fresh_atoms:
            if a.role == "bottom_witness":
                return a.name
        return None

    @property
    def negation_witnesses(self) -> dict[str, str]:
        return {a.source_atom: a.name for a in self.fresh_atoms if a.role == "negation_witness"}

    @property
    def constant_witnesses(self) -> tuple[FreshAtom, ...]:
        return tuple(a for a in self.fresh_atoms if a.role == "constant_witness")

    def to_json(self) -> dict:
        return {
            "method": self.method,
            "negation": self.negation,
            "source_atoms": list(self.source.atoms()),
            "target_atoms": list(self.target.atoms()),
            "fresh_atoms": [a.to_json() for a in self.fresh_atoms],
        }


def _fresh_atom_from_json(d, source: Program) -> FreshAtom:
    if not isinstance(d, Mapping) or not isinstance(d.get("name"), str):
        raise MalpError(f"record: fresh atom {d!r} needs a string name")
    name, role = d["name"], d.get("role")
    if role == "bottom_witness":
        return FreshAtom(name, role)
    if role == "constant_witness":
        value = truth_value(d.get("value"), f"record: value of {name}")
        return FreshAtom(name, role, value=value)
    if role == "negation_witness":
        q = d.get("source_atom")
        if not isinstance(q, str) or q not in source.atoms():
            raise MalpError(f"record: {name} negates {q!r}, which is not a source atom")
        return FreshAtom(name, role, source_atom=q)
    raise MalpError(f"record: fresh atom {name} has unknown role {role!r}")


def record_from_json(data, source: Program, target: Program) -> TranslationRecord:
    """Rebuild a record from its JSON form; a malformed record raises MalpError."""
    if not isinstance(data, Mapping):
        raise MalpError("record must be a JSON object")
    method, negation = data.get("method"), data.get("negation", "neg1")
    if method not in METHODS:
        raise MalpError(f"record: unknown method {method!r}")
    if negation not in NEGATION_KINDS:
        raise MalpError(f"record: unknown negation {negation!r}")
    entries = data.get("fresh_atoms", [])
    if not isinstance(entries, list):
        raise MalpError("record: fresh_atoms must be a list")
    fresh = tuple(_fresh_atom_from_json(d, source) for d in entries)
    return TranslationRecord(method, source, target, fresh, negation)


def _fresh_name(base: str, taken: set[str]) -> str:
    name = base
    n = 0
    while name in taken:
        n += 1
        name = f"{base}_{n}"
    taken.add(name)
    return name


def _bottom_rule(p_bot: str, threshold: str, c: float, arg, impl: str, conj: str,
                 neg: str) -> Rule:
    """<p_bot <-impl threshold(0, neg(p_bot)) &conj threshold(c, arg); 1>."""
    guard = Apply(threshold, (Const(0.0), Apply(neg, (Atom(p_bot),))))
    bound = Apply(threshold, (Const(c), arg))
    return Rule(Atom(p_bot), impl, Apply("and_" + IMPLICATION_TAGS[conj], (guard, bound)), 1.0)


def eliminate_constraints_fc(program: Program, impl_choice: str = "lukasiewicz",
                             conj_choice: str = "godel",
                             neg_choice: str = "neg1") -> TranslationRecord:
    """Rewrite each constraint into a threshold rule on a shared fresh atom.

    Non-constraint rules are copied verbatim, so the target has exactly
    as many rules as the source and is constraint-free.
    """
    if not program.constraints():
        return TranslationRecord("fc", program, program, (), neg_choice)
    p_bot = _fresh_name("p_bot", set(program.atoms()))
    target = Program(tuple(
        _bottom_rule(p_bot, "f", r.head.value, r.body, impl_choice, conj_choice, neg_choice)
        if r.is_constraint else r
        for r in program.rules
    ))
    return TranslationRecord("fc", program, target,
                             (FreshAtom(p_bot, "bottom_witness"),), neg_choice)


def eliminate_constraints_janssen(program: Program, impl_choice: str = "lukasiewicz",
                                  conj_choice: str = "godel",
                                  neg_choice: str = "neg1") -> TranslationRecord:
    """Replace constraint heads by witness atoms pinned to their constants.

    Per distinct constraint-head constant c, two rules create and guard
    the witness, so the target has 2 * |distinct constants| extra rules.
    """
    constraints = program.constraints()
    if not constraints:
        return TranslationRecord("janssen", program, program, (), neg_choice)
    taken = set(program.atoms())
    p_bot = _fresh_name("p_bot", taken)
    witnesses: dict[float, str] = {}
    for r in constraints:
        if r.head.value not in witnesses:
            witnesses[r.head.value] = _fresh_name(f"p_c_{len(witnesses) + 1}", taken)
    rules = [Rule(Atom(witnesses[r.head.value]), r.impl, r.body, 1.0) if r.is_constraint else r
             for r in program.rules]
    for c, name in witnesses.items():
        rules.append(Rule(Atom(name), impl_choice, Const(c), 1.0))
        rules.append(_bottom_rule(p_bot, "g", c, Atom(name), impl_choice, conj_choice,
                                  neg_choice))
    target = Program(tuple(rules))
    fresh = (FreshAtom(p_bot, "bottom_witness"),) + tuple(
        FreshAtom(name, "constant_witness", value=c) for c, name in witnesses.items()
    )
    return TranslationRecord("janssen", program, target, fresh, neg_choice)


def to_manlp(program: Program, neg_choice: str = "neg1") -> TranslationRecord:
    """Rewire order-reversing atom occurrences through fresh negation witnesses.

    Only defined for constraint-free programs and an involutive negation;
    only neg1 is accepted until ROADMAP item 14, although neg2 is
    involutive too.
    """
    if program.constraints():
        raise TransformError("program has constraints; eliminate them first")
    if neg_choice != "neg1":
        raise TransformError("normalization is defined for the involutive negation neg1 only")
    antitone = program.levels()[1]
    if antitone is not None:
        raise TransformError(f"rule {program.rules.index(antitone)} ({antitone}) reads an atom "
                             "order-reversingly outside a negation, on a program with a cycle: "
                             "manlp would change its stable models")
    negative = {o.atom for occs in program.rule_occurrences() for o in occs if o.sign < 0}
    if not negative:
        return TranslationRecord("manlp", program, program, (), neg_choice)
    taken = set(program.atoms())
    witnesses = {q: _fresh_name(f"not_{q}", taken) for q in sorted(negative)}

    def rewire(node, sign):
        if isinstance(node, Atom) and sign < 0 and node.name in witnesses:
            return Apply(neg_choice, (Atom(witnesses[node.name]),))

    rules = [Rule(r.head, r.impl, rewrite(r.body, rewire), r.weight) for r in program.rules]
    for q in sorted(negative):
        rules.append(Rule(Atom(witnesses[q]), "godel", Apply(neg_choice, (Atom(q),)), 1.0))
    target = Program(tuple(rules))
    fresh = tuple(FreshAtom(witnesses[q], "negation_witness", source_atom=q)
                  for q in sorted(negative))
    return TranslationRecord("manlp", program, target, fresh, neg_choice)


def lift_interpretation(M: Mapping[str, float], rec: TranslationRecord) -> dict[str, float]:
    """Extend a source interpretation to the target's fresh atoms."""
    out = {a: M[a] for a in rec.source.atoms()}
    for a in rec.fresh_atoms:
        if a.role == "bottom_witness":
            out[a.name] = 0.0
        elif a.role == "constant_witness":
            out[a.name] = a.value
        else:
            out[a.name] = eval_negation(rec.negation, M[a.source_atom])
    return out


def project_interpretation(M: Mapping[str, float], rec: TranslationRecord) -> dict[str, float]:
    """Restrict a target interpretation to the source's symbols."""
    return {a: M[a] for a in rec.source.atoms()}


@dataclass(frozen=True)
class ContinuityReport:
    discontinuous_sites: tuple[tuple[int, str, float], ...]  # (rule index, op, threshold)
    notes: str

    @property
    def continuous(self) -> bool:
        return not self.discontinuous_sites

    def to_json(self) -> dict:
        return {
            "continuous": self.continuous,
            "discontinuous_sites": [
                {"rule": r, "op": op, "threshold": c} for r, op, c in self.discontinuous_sites
            ],
            "notes": self.notes,
        }


def check_continuity(program: Program) -> ContinuityReport:
    """Report whether every operator used by the program is continuous, and
    whether a theorem backs the existence of a stable model.

    Body operators carry a flag; `div1`'s is False (div1(0, y) is 0 for y > 0,
    1 at y = 0), but a `div1` is a site only where both argument intervals
    reach 0.  With no constraints, every order reversal directly under a
    negation (a positive program or a MANLP) and continuous operators, a stable
    model exists (Cornejo, Lobo and Medina, Fuzzy Sets and Systems 2018, via
    Brouwer's theorem); else the note names the first of these that fails.
    """
    sites = []
    for idx, r in enumerate(program.rules):
        for node in body_ops(r.body):
            if node.op == "div1":
                if all(body_interval(a)[0] <= 0.0 for a in node.args):
                    sites.append((idx, node.op, 0.0))
            elif not op_spec(node.op).continuous:
                c = node.args[0].value if isinstance(node.args[0], Const) else float("nan")
                sites.append((idx, node.op, c))
    kind = program.classify()
    if kind is ProgramClass.EMALP:
        fails = "constraint rules " + ", ".join(
            str(i) for i, r in enumerate(program.rules) if r.is_constraint)
    elif kind is ProgramClass.CONSTRAINT_FREE:
        fails = f"an order reversal outside a negation in rule {program.reversing_rules()[0]}"
    elif sites:
        fails = "discontinuous " + ", ".join(f"{op} in rule {i}" for i, op, _ in sites)
    else:
        return ContinuityReport((), "no constraints, every order reversal under a negation, "
                                "all operators continuous: a stable model is guaranteed to exist")
    return ContinuityReport(tuple(sites), f"{fails}: no existence guarantee")


@dataclass(frozen=True)
class EquivalenceReport:
    bijection: Optional[bool]        # None: some grid point's stability is undecided
    source_models: tuple[dict, ...]
    target_models: tuple[dict, ...]
    counterexamples: tuple[str, ...]
    bottom_exact: Optional[bool]     # every target stable model pins p_bot to 0
    witnesses_exact: Optional[bool]  # every target stable model matches not_q = neg(q)
    points_checked: int
    source_undecided: tuple[dict, ...] = ()   # grid points whose verdict is indeterminate
    target_undecided: tuple[dict, ...] = ()

    def to_json(self) -> dict:
        return {
            "bijection": "indeterminate" if self.bijection is None else self.bijection,
            "source_count": len(self.source_models),
            "target_count": len(self.target_models),
            "source_models": [sorted_interp(m) for m in self.source_models],
            "target_models": [sorted_interp(m) for m in self.target_models],
            "source_undecided": [sorted_interp(m) for m in self.source_undecided],
            "target_undecided": [sorted_interp(m) for m in self.target_undecided],
            "counterexamples": list(self.counterexamples),
            "bottom_exact": self.bottom_exact,
            "witnesses_exact": self.witnesses_exact,
            "points_checked": self.points_checked,
        }


def _contains(models, M, tol) -> bool:
    return any(interp_distance(M, other) <= tol for other in models)


def verify_equivalence(rec: TranslationRecord, grid_step: float,
                       tol: float = DEFAULT_TOL, max_points: int = DEFAULT_BUDGET,
                       max_iter: int = DEFAULT_MAX_ITER) -> EquivalenceReport:
    """Exhaustive grid check that lift/project pair up the stable models.

    Enumerates every grid interpretation of source and target, collects
    the stable ones, and reports any model left unmatched, any target
    model whose bottom witness is not exactly 0, and any negation
    witness that differs from the negation of its atom.  A grid point
    whose stability is undecided on either side (the inner fixpoint hit
    max_iter) is listed, and leaves the bijection undecided (None).
    """
    atoms = set(rec.source.atoms())
    fresh = [a.name for a in rec.fresh_atoms]
    if (len(set(fresh)) < len(fresh) or atoms.intersection(fresh)
            or set(rec.target.atoms()) != atoms.union(fresh)):
        raise MalpError("record does not link the given source and target programs")
    points = check_grid_budget((rec.source, rec.target), grid_step, max_points)
    cfg = StableSearchConfig(mode="grid", grid_step=grid_step, tol=tol, max_iter=max_iter)
    source_undecided: list = []
    target_undecided: list = []
    source_models = find_stable_models(rec.source, cfg, source_undecided)
    target_models = find_stable_models(rec.target, cfg, target_undecided)
    problems: list[str] = []

    for M in source_models:
        lifted = lift_interpretation(M, rec)
        if not _contains(target_models, lifted, tol):
            problems.append(f"lift of source model {M} is not a target stable model")
    for N in target_models:
        back = project_interpretation(N, rec)
        if not _contains(source_models, back, tol):
            problems.append(f"projection of target model {N} is not a source stable model")
        if interp_distance(lift_interpretation(back, rec), N) > tol:
            problems.append(f"target model {N} differs from the lift of its projection")

    bottom_exact: Optional[bool] = None
    if rec.bottom_atom is not None:
        bottom_exact = all(N[rec.bottom_atom] == 0.0 for N in target_models)
        if not bottom_exact:
            problems.append("a target stable model does not pin the bottom witness to 0")
    witnesses_exact: Optional[bool] = None
    if rec.negation_witnesses:
        witnesses_exact = all(
            abs(N[w] - eval_negation(rec.negation, N[q])) <= tol
            for N in target_models for q, w in rec.negation_witnesses.items()
        )
        if not witnesses_exact:
            problems.append("a target stable model breaks a negation witness equation")

    bijection = not problems and len(source_models) == len(target_models)
    if len(source_models) != len(target_models):
        problems.append(f"model counts differ: {len(source_models)} vs {len(target_models)}")
    if source_undecided or target_undecided:
        bijection = None
        problems.append(f"stability undecided at {len(source_undecided)} source and "
                        f"{len(target_undecided)} target grid point(s)")
    return EquivalenceReport(bijection, tuple(source_models), tuple(target_models),
                             tuple(problems), bottom_exact, witnesses_exact, points,
                             tuple(source_undecided), tuple(target_undecided))
