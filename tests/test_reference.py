"""The reference semantics stays apart from the code it checks, and stays
the only one.

`reference.py` may take from `emalp` only the node classes, the error
classes that comparisons check, the builtin table (each operator's
`fn`, polarities and `const_first`), the lattice functions and
`FixpointTrace`; of a program and a rule it reads the fields alone.  No
other module in `tests/` defines an oracle that moved into it, so a
second one cannot grow back.
"""

import ast
import dataclasses
import inspect
from pathlib import Path

import emalp.lattice as lattice
from emalp import Program, Rule
from emalp.program import OpSpec

TESTS = Path(__file__).resolve().parent
ALLOWED = {
    "emalp.errors": {"MalpError"},
    "emalp.program": {"Apply", "Atom", "Const", "Program", "Rule", "RangeViolation", "BUILTINS"},
    "emalp.semantics": {"FixpointTrace"},
    "emalp.lattice": {name for name, obj in vars(lattice).items()
                      if inspect.isfunction(obj) and obj.__module__ == lattice.__name__},
}
MOVED = {
    "freeze_oracle", "rewire_oracle", "interval_oracle", "OLD_INTERVALS", "_corners",
    "_threshold", "_div1", "oracle_step", "oracle_bounds_above", "oracle_least_model",
    "_oracle_least_model", "oracle_stable_operator", "_oracle_stable_operator",
    "oracle_stable_check", "brute_force_candidates", "fixpoint_gaps", "brute_force_stable",
    "product_minimal",
}


def tree(name):
    path = TESTS / name
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def test_reference_takes_only_the_allowed_names_from_emalp():
    reference = tree("reference.py")
    taken: dict[str, set] = {}
    for node in ast.walk(reference):
        if isinstance(node, ast.Import):
            assert all(a.name.split(".")[0] != "emalp" for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "emalp":
            taken.setdefault(node.module, set()).update(a.name for a in node.names)
    assert taken and all(names <= ALLOWED.get(module, set()) for module, names in taken.items())
    # no derived data or method of a program, a rule or an operator spec
    members = {n for cls in (Program, Rule, OpSpec) for n in dir(cls) if not n.startswith("_")}
    fields = {f.name for cls in (Program, Rule) for f in dataclasses.fields(cls)}
    read = {node.attr for node in ast.walk(reference) if isinstance(node, ast.Attribute)}
    assert read & members <= fields | {"fn", "polarities", "const_first"}


def test_no_other_test_module_defines_a_moved_oracle():
    for path in sorted(TESTS.glob("*.py")):
        if path.name == "reference.py":
            continue
        defined = set()
        for node in ast.walk(tree(path.name)):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                defined.add(node.id)
            elif isinstance(node, ast.alias) and node.asname:
                defined.add(node.asname)
        assert not defined & MOVED, path.name
