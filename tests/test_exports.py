"""The package exports what its modules declare in their `__all__`, each name once."""

import emalp
from emalp import lattice, parser, program, semantics, transform

MODULES = (lattice, program, parser, semantics, transform)   # in the package's import order

# the package's API, by name
NAMES = [
    "ADJOINT_KINDS", "Apply", "Atom", "BodyExpr", "BudgetExceeded", "Const",
    "ContinuityReport", "DEFAULT_MAX_ITER", "DEFAULT_TOL", "EquivalenceReport",
    "FixpointTrace", "FreshAtom", "MalpError", "NEGATION_KINDS", "ParseError",
    "Program", "ProgramClass", "RangeViolation", "Rule", "StableSearchConfig",
    "TransformError", "TranslationRecord", "ValidationFailure", "ValidationReport",
    "body_interval", "bottom_interpretation", "check_continuity",
    "eliminate_constraints_fc", "eliminate_constraints_janssen", "eval_body",
    "eval_conjunctor", "eval_expr", "eval_implication", "eval_negation", "eval_threshold",
    "find_stable_models", "immediate_consequence", "interp_distance", "is_stable",
    "lattice_grid", "least_model", "lift_interpretation", "occurrences", "parse_body",
    "parse_program", "project_interpretation", "record_from_json", "reduct", "satisfies",
    "serialize_program", "stable_operator", "to_manlp", "top_interpretation",
    "validate_program", "verify_equivalence",
]


def test_the_package_exports_each_modules_names_once():
    assert emalp.__all__ == [name for m in MODULES for name in m.__all__]
    assert len(set(emalp.__all__)) == len(emalp.__all__)
    assert sorted(emalp.__all__) == NAMES
    for m in MODULES:
        for name in m.__all__:
            assert getattr(emalp, name) is getattr(m, name), (m.__name__, name)
