"""The mutation ledger: small faults that the test suite must catch.

Each entry is (file, old text, new text, test ids).  `run.py` puts the
new text in place of the old, which must occur exactly once in the file,
in a copy of the tree, and then some of the entry's tests must fail.
Test ids are pytest node ids under tests/; a parametrized test's bare
name selects all its cases.
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = [
    # a rule is checked without the tolerance
    Mutant("src/emalp/semantics.py",
           "rule.weight <= implication + tol", "rule.weight <= implication",
           ("test_semantics.py::test_is_model_is_every_rule_of_the_reference",
            "test_compiled_operator.py::test_verdict_matches_tree_oracle")),
    # the reduct and the range message freeze the sites of the other sign
    Mutant("src/emalp/program.py",
           "if is_freeze_site(n, sign) else None", "if is_freeze_site(n, -sign) else None",
           ("test_compiled_operator.py::test_reduct_reads_no_analysis",
            "test_compiled_operator.py::test_a_later_rules_range_violation_names_its_own_reduct_body")),
    # a trace counts its bottom iterate as an iteration
    Mutant("src/emalp/semantics.py",
           "return len(self.iterates) - 1", "return len(self.iterates)",
           ("test_semantics.py::test_trace_json_shape",
            "test_tracer_targets.py::test_tracer_counts_the_verdicts_of_a_settling_search")),
    # a program is reported continuous where it has a discontinuous site
    Mutant("src/emalp/transform.py",
           "return not self.discontinuous_sites", "return bool(self.discontinuous_sites)",
           ("test_transform.py::test_continuity_reports",
            "test_cli.py::test_check_reports_class_and_continuity")),
    # a verdict checks constraints only on programs that have none
    Mutant("src/emalp/semantics.py",
           "if program.constraints() and not all(", "if not program.constraints() and not all(",
           ("test_compiled_operator.py::test_a_verdict_builds_a_reduct_only_where_the_operator_reaches_m",)),
    # a record whose target has other atoms passes the link check
    Mutant("src/emalp/transform.py",
           "or set(rec.target.atoms()) != atoms.union(fresh)):", "):",
           ("test_transform.py::test_verify_equivalence_rejects_unlinked_record",
            "test_cli.py::test_equiv_rejects_target_missing_a_source_atom")),
    # serialized programs lose their final newline
    Mutant("src/emalp/parser.py",
           'return f"{program}\\n" if program.rules else ""', "return str(program)",
           ("test_parser.py::test_serialize_fact_golden",
            "test_cli.py::test_reduct_to_a_tiny_value_then_check")),
    # the bottom rule always joins its guard and bound with Goedel's conjunctor
    Mutant("src/emalp/transform.py",
           'Apply("and_" + IMPLICATION_TAGS[conj], (guard, bound))',
           'Apply("and_g", (guard, bound))',
           ("test_transform.py::test_the_bottom_rule_joins_with_the_chosen_conjunctor",)),
    # `reduct -o` reports in JSON whatever --output asks for
    Mutant("src/emalp/cli.py",
           '"rules": len(program.rules)}, args.output)', '"rules": len(program.rules)}, "json")',
           ("test_cli.py::test_reduct_written_to_a_file_reports_like_every_command",)),
    # a report lists an interpretation in the order it was built in
    Mutant("src/emalp/semantics.py",
           "return dict(sorted(I.items()))", "return dict(I)",
           ("test_transform.py::test_reports_list_each_interpretation_by_atom_name",)),
    # a negation is frozen when any, not every, atom under it is order-reversing
    Mutant("src/emalp/program.py",
           "and _signs(node) == {-sign}", "and -sign in _signs(node)",
           ("test_body_walks.py::test_reduct_matches_oracle",
            "test_compiled_operator.py::test_motor_and_wraps_match_oracle")),
    # validation skips the arguments of every malformed node
    Mutant("src/emalp/program.py",
           "            return (0.0, 1.0)\n        issues = []\n",
           "            return (0.0, 1.0)\n        return (0.0, 1.0)\n",
           ("test_program.py::test_validation_issue_list_and_order",)),
    # validation does not leave its occurrences on the program
    Mutant("src/emalp/program.py",
           '    program.derived("occurrences", lambda: tuple(walked))\n', "",
           ("test_analysed_once.py::test_grid_search_walks_each_rule_body_once",
            "test_analysed_once.py::test_transform_and_equiv_walk_each_program_once")),
    # the scan keeps the second eof that trailing whitespace gives
    Mutant("src/emalp/parser.py",
           "            tokens.pop()\n", "            pass\n",
           ("test_nodes.py::test_the_scan_ends_with_one_eof",)),
    # the scan lets a bad character through
    Mutant("src/emalp/parser.py",
           '        elif _kind(tokens[-2]) == "bad":', "        elif False:",
           ("test_nodes.py::test_the_scan_ends_with_one_eof",
            "test_nodes.py::test_the_scan_reads_the_tokens_tokenize_finds")),
    # a grid of exactly the budget is refused
    Mutant("src/emalp/semantics.py",
           "if points > budget:", "if points >= budget:",
           ("test_cli.py::test_search_budget_exceeded_exits_two",)),
    # a step that leaves up to a tenth over is taken to divide 1
    Mutant("src/emalp/lattice.py",
           "abs(n * step - 1.0) > 1e-9", "abs(n * step - 1.0) > 0.1",
           ("test_lattice.py::test_grid_count_checks_the_step_as_lattice_grid_does",)),
    # the walk unassigns an atom that a fit gave no value
    Mutant("src/emalp/semantics.py",
           "M.pop(a, None)", "M.pop(a)",
           ("test_grid_search.py::test_an_empty_value_list_yields_nothing",)),
    # every head propagates, also one whose bodies read it
    Mutant("src/emalp/semantics.py",
           "None if a in reads[a] else (a, fit)", "(a, fit)",
           ("test_grid_search.py::test_only_heads_that_do_not_read_themselves_propagate",
            "test_grid_search.py::test_random_programs_match_brute_force")),
    # a verdict is True where the inner fixpoint did not converge
    Mutant("src/emalp/semantics.py",
           "return True if converged else None", "return True",
           ("test_semantics.py::test_is_stable_indeterminate_on_cap",
            "test_compiled_operator.py::test_verdict_matches_tree_oracle")),
    # the table reader takes a value outside the argument's choices
    Mutant("src/emalp/cli.py",
           "        if a.choices is not None and value not in a.choices:\n            return None\n",
           "",
           ("test_cli_parser.py::test_the_table_reader_declines_what_argparse_must_read",)),
    # equiv drops each of four failures it can report
    Mutant("src/emalp/transform.py",
           '            problems.append(f"projection of target model {N} is not a source stable model")\n',
           "            pass\n",
           ("test_transform.py::test_verify_equivalence_reports_a_projection_that_is_no_source_model",)),
    Mutant("src/emalp/transform.py",
           '            problems.append(f"target model {N} differs from the lift of its projection")\n',
           "            pass\n",
           ("test_transform.py::test_verify_equivalence_reports_a_target_model_off_its_lift",)),
    Mutant("src/emalp/transform.py",
           '            problems.append("a target stable model does not pin the bottom witness to 0")\n',
           "            pass\n",
           ("test_transform.py::test_verify_equivalence_reports_a_bottom_witness_above_zero",)),
    Mutant("src/emalp/transform.py",
           '            problems.append("a target stable model breaks a negation witness equation")\n',
           "            pass\n",
           ("test_transform.py::test_verify_equivalence_reports_a_broken_negation_witness",)),
    # a constraint-free record forgets the negation it was asked for
    Mutant("src/emalp/transform.py",
           'return TranslationRecord("fc", program, program, (), neg_choice)',
           'return TranslationRecord("fc", program, program)',
           ("test_cli.py::test_transform_records_the_negation_asked_for",)),
    Mutant("src/emalp/transform.py",
           'return TranslationRecord("janssen", program, program, (), neg_choice)',
           'return TranslationRecord("janssen", program, program)',
           ("test_cli.py::test_transform_records_the_negation_asked_for",)),
    # the serializer writes a body nested deeper than a file may hold
    Mutant("src/emalp/parser.py",
           "        if depth > MAX_DEPTH:\n", "        if False:\n",
           ("test_cli.py::test_transform_writes_no_target_nested_past_the_limit",
            "test_cli.py::test_body_at_depth_limit_runs")),
    # a verdict keeps every iterate it makes
    Mutant("src/emalp/semantics.py",
           "deque([_raise_heads(by_level, J, frozen, J)], maxlen=1)",
           "[_raise_heads(by_level, J, frozen, J)]",
           ("test_fixpoint_stop.py::test_a_verdict_that_reaches_the_cap_keeps_one_iterate",)),
    # `check` names an atom of both signs by its last sign, or gives each sign the other's word
    Mutant("src/emalp/cli.py",
           'if words.get(o.atom, word) == word else "mixed"', "",
           ("test_cli.py::test_check_invalid_exits_one",)),
    Mutant("src/emalp/cli.py",
           'word = "positive" if o.sign > 0 else "negative"',
           'word = "negative" if o.sign > 0 else "positive"',
           ("test_cli.py::test_check_reports_class_and_continuity",)),
    # manlp rewires the atoms of order-preserving occurrences
    Mutant("src/emalp/transform.py",
           "for o in occs if o.sign < 0}", "for o in occs if o.sign > 0}",
           ("test_transform.py::test_to_manlp_golden",
            "test_body_walks.py::test_manlp_rewiring_matches_oracle")),
]
