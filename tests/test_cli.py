import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import emalp
from emalp import eliminate_constraints_fc, parse_program, to_manlp, verify_equivalence
from emalp.cli import main
from emalp.parser import MAX_DEPTH

MUTUAL = "p <-g neg1(q) with 1;\nq <-g neg1(p) with 1;\n"
CONSTRAINED = "p <-g neg1(q) with 1;\nq <-g neg1(p) with 1;\n0.5 <-g p with 1;\n"
VACUOUS = "note: neither program has a stable model on this grid, so the bijection is vacuous\n"


@pytest.fixture
def motor_file(tmp_path, motor_text):
    path = tmp_path / "motor.malp"
    path.write_text(motor_text)
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_reports_class_and_continuity(capsys, motor_file):
    code, out, err = run(capsys, "check", motor_file)
    assert code == 0
    data = json.loads(out)
    assert data["valid"] is True
    assert data["class"] == "EMALP"
    assert data["continuity"]["continuous"] is True
    assert data["continuity"]["notes"] == "constraint rules 2: no existence guarantee"
    assert data["polarity"][0] == {"q": "positive", "s": "negative", "t": "negative"}


def test_check_invalid_exits_one(capsys, tmp_path):
    bad = tmp_path / "bad.malp"
    bad.write_text("p <-g max(q, neg1(q)) with 1;\n")
    code, out, err = run(capsys, "check", bad)
    assert code == 1
    assert "polarit" in err
    assert json.loads(out)["polarity"] == [{"q": "mixed"}]


def test_check_rejects_a_product_with_a_signed_factor(capsys, tmp_path):
    bad = tmp_path / "bad.malp"
    bad.write_text("p <-g add(mul(sub(0.5, r), q), 0.5) with 1;\n")
    code, out, err = run(capsys, "check", bad)
    assert code == 1
    assert "argument 2 of mul holds atoms, but argument 1 may be negative" in err


def test_check_empty_file(capsys, tmp_path):
    empty = tmp_path / "empty.malp"
    empty.write_text("")
    code, out, _ = run(capsys, "check", empty)
    assert code == 0
    assert json.loads(out)["class"] == "positive"


def test_check_syntax_error_diagnostics_on_stderr(capsys, tmp_path):
    bad = tmp_path / "bad.malp"
    bad.write_text("p <-g q q with 1;\n")
    code, out, err = run(capsys, "check", bad)
    assert code == 1
    assert out == ""
    assert "1:" in err


@pytest.mark.parametrize("literal, message", [
    ("1" + "0" * 400 + "/1", "fraction too large for a float"),
    ("1/1" + "0" * 5000, "fraction has too many digits"),
], ids=["past-float", "long-denominator"])
def test_huge_fraction_exits_one_with_one_line(capsys, tmp_path, literal, message):
    bad, interp = tmp_path / "bad.malp", tmp_path / "i.json"
    bad.write_text(f"p <-g q with 1;\nq <-g {literal} with 1;\n")
    interp.write_text(json.dumps({"p": 0.5, "q": 0.5}))
    for argv in (["check", bad], ["eval", bad, "-i", interp]):
        assert run(capsys, *argv) == (1, "", f"{bad}: 2:7: {message}\n")


def test_eval(capsys, motor_file, tmp_path, model_m):
    interp = tmp_path / "m.json"
    interp.write_text(json.dumps(model_m))
    code, out, _ = run(capsys, "eval", motor_file, "-i", interp)
    assert code == 0
    data = json.loads(out)
    assert data["model"] is True
    assert data["rules"][0]["body"] == pytest.approx(8 / 37)


@pytest.mark.parametrize("tol", [1e-9, 0.3])
def test_eval_evaluates_each_body_once(capsys, motor_file, tmp_path, motor,
                                       model_m, model_n, tol, monkeypatch):
    # a row's "satisfied" is read from its own implication value; it must
    # agree with `satisfies` at M, at N and at a non-model
    import emalp.program
    import emalp.semantics
    from emalp import eval_body, satisfies

    non_model = {"p": 0.9, "q": 0.1, "s": 0.2, "t": 0.3}
    cases = [(I, [satisfies(I, r, tol) for r in motor.rules])
             for I in (model_m, model_n, non_model)]
    assert not all(cases[-1][1])
    calls = []

    def counting(*args):
        calls.append(args[0])
        return eval_body(*args)
    for module in (emalp.program, emalp.semantics):
        monkeypatch.setattr(module, "eval_body", counting)
    for I, want in cases:
        interp = tmp_path / "i.json"
        interp.write_text(json.dumps(I))
        calls.clear()
        code, out, _ = run(capsys, "eval", motor_file, "-i", interp, "--tol", tol)
        assert code == 0
        assert calls == [r.body for r in motor.rules]
        data = json.loads(out)
        assert [row["satisfied"] for row in data["rules"]] == want
        assert data["model"] is all(want)


def test_eval_missing_atom_exits_one(capsys, motor_file, tmp_path):
    interp = tmp_path / "partial.json"
    interp.write_text(json.dumps({"p": 0.1}))
    code, _, err = run(capsys, "eval", motor_file, "-i", interp)
    assert code == 1
    assert "not total" in err


def test_reduct_output_reparses(capsys, motor_file, tmp_path, model_n):
    from emalp import occurrences, parse_program

    interp = tmp_path / "n.json"
    interp.write_text(json.dumps(model_n))
    code, out, _ = run(capsys, "reduct", motor_file, "-i", interp)
    assert code == 0
    frozen = parse_program(out)
    assert len(frozen.rules) == 5
    # negation-mediated occurrences are gone; only the division body keeps s, t
    assert occurrences(frozen.rules[1].body) == []
    assert occurrences(frozen.rules[2].body) == []


def test_reduct_written_to_a_file_reports_like_every_command(capsys, motor_file, tmp_path,
                                                            motor, model_n):
    from emalp import reduct, serialize_program

    interp = tmp_path / "n.json"
    interp.write_text(json.dumps(model_n))
    out_path = tmp_path / "n.reduct.malp"
    code, out, err = run(capsys, "reduct", motor_file, "-i", interp, "-o", out_path)
    assert (code, err) == (0, "")
    assert out == json.dumps({"rules": 5, "written": str(out_path)}, indent=2) + "\n"
    assert out_path.read_text() == serialize_program(reduct(motor, model_n))
    code, out, err = run(capsys, "reduct", motor_file, "-i", interp, "-o", out_path,
                         "--output", "table")
    assert (code, out, err) == (0, f"written: {out_path}\nrules: 5\n", "")


def test_reduct_of_negation_only_program_is_positive(capsys, tmp_path):
    from emalp import parse_program

    path = tmp_path / "mutual.malp"
    path.write_text(MUTUAL)
    interp = tmp_path / "i.json"
    interp.write_text(json.dumps({"p": 0.5, "q": 0.5}))
    code, out, _ = run(capsys, "reduct", path, "-i", interp)
    assert code == 0
    assert parse_program(out).classify().value == "positive"


def test_lfp_table_mirrors_iteration_rows(capsys, tmp_path):
    path = tmp_path / "p.malp"
    path.write_text("p <-g min(q, 0.5) with 1;\nq <-g 0.9 with 0.8;\n")
    code, out, _ = run(capsys, "lfp", path, "--output", "table")
    assert code == 0
    assert out.splitlines()[0].split() == ["p", "q"]
    assert "I_bot" in out and "T^1" in out
    assert "converged: True" in out


@pytest.mark.parametrize("text, notes", [
    # T is monotone here, so the fixpoint is the least model of the
    # definite rules; only the unchecked constraint is noted
    ("p <-g 0.5 with 1;\n0.2 <-g p with 1;\n", [
        "note: lfp iterates the definite rules only; it does not check the constraint rules"]),
    (None, [
        "note: program is not positive; the fixpoint is not guaranteed to be a least model",
        "note: lfp iterates the definite rules only; it does not check the constraint rules"]),
    ("p <-g min(q, 0.5) with 1;\nq <-g 0.9 with 0.8;\n", []),
], ids=["monotone-with-constraint", "motor", "positive"])
def test_lfp_notes_say_only_what_holds(capsys, tmp_path, motor_file, text, notes):
    path = motor_file
    if text is not None:
        path = tmp_path / "p.malp"
        path.write_text(text)
    code, _, err = run(capsys, "lfp", path)
    assert code == 0
    assert err.splitlines() == notes


def test_stable_verify(capsys, motor_file, tmp_path, model_n, model_m):
    good = tmp_path / "n.json"
    good.write_text(json.dumps(model_n))
    code, out, _ = run(capsys, "stable", "verify", motor_file, "-i", good)
    assert code == 0
    data = json.loads(out)
    assert data["stable"] is True
    assert len(data["trace"]["iterates"]) == 5
    bad = tmp_path / "m.json"
    bad.write_text(json.dumps(model_m))
    code, out, _ = run(capsys, "stable", "verify", motor_file, "-i", bad)
    assert code == 0
    assert json.loads(out)["stable"] is False


def test_stable_search_grid(capsys, tmp_path):
    path = tmp_path / "mutual.malp"
    path.write_text(MUTUAL)
    code, out, _ = run(capsys, "stable", "search", path, "--grid", "0.5")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 3
    assert data["stable_models"][1] == {"p": 0.5, "q": 0.5}


@pytest.mark.parametrize("cap", [[], ["--output", "table"]])
def test_stable_search_grid_reports_undecided_points(capsys, tmp_path, cap):
    path = tmp_path / "halving.malp"
    path.write_text("p <-p add(mul(p, 0.5), 0.5) with 1;\n")
    code, out, err = run(capsys, "stable", "search", path, "--grid", "0.5",
                         "--max-iter", "5", *cap)
    assert code == 0
    assert err == ("note: 1 grid point(s) undecided: the inner fixpoint did not "
                   "converge within --max-iter 5\n")
    if cap:
        assert out.splitlines()[-2:] == ["stable_models: []", 'undecided: [{"p": 1.0}]']
    else:
        data = json.loads(out)
        assert (data["count"], data["undecided"]) == (0, [{"p": 1.0}])
    code, out, err = run(capsys, "stable", "search", path, "--grid", "0.5")
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert (data["stable_models"], data["undecided"]) == ([{"p": 1.0}], [])


def test_stable_search_iterate_has_no_undecided_list(capsys, motor_file):
    code, out, _ = run(capsys, "stable", "search", motor_file, "--seeds", "4")
    assert code == 0
    assert "undecided" not in json.loads(out)


def test_stable_search_iterate_deterministic(capsys, motor_file):
    code, first, _ = run(capsys, "stable", "search", motor_file,
                         "--seeds", "8", "--rng-seed", "7")
    assert code == 0
    code, second, _ = run(capsys, "stable", "search", motor_file,
                          "--seeds", "8", "--rng-seed", "7")
    assert first == second


def test_transform_writes_target_and_record(capsys, motor_file, tmp_path):
    out_path = tmp_path / "motor.fc.malp"
    rec_path = tmp_path / "motor.fc.record.json"
    code, out, _ = run(capsys, "transform", motor_file, "--method", "fc",
                       "-o", out_path, "--record", rec_path)
    assert code == 0
    summary = json.loads(out)
    assert summary["source_rules"] == summary["target_rules"] == 5
    record = json.loads(rec_path.read_text())
    assert record["method"] == "fc"
    from emalp import parse_program

    target = parse_program(out_path.read_text())
    assert not target.constraints()


@pytest.mark.parametrize("constraint", ["", "0.5 <-g p with 1;\n"], ids=["free", "constrained"])
@pytest.mark.parametrize("method", ["fc", "janssen"])
def test_transform_records_the_negation_asked_for(capsys, tmp_path, method, constraint):
    src = tmp_path / "nc.malp"
    src.write_text("p <-g neg2(q) with 1;\nq <-g 0.5 with 1;\n" + constraint)
    assert run(capsys, "transform", src, "--method", method, "--neg", "neg2")[0] == 0
    record = json.loads((tmp_path / f"nc.{method}.record.json").read_text())
    assert (record["method"], record["negation"]) == (method, "neg2")


def test_transform_manlp_needs_constraint_free(capsys, motor_file, tmp_path):
    code, _, err = run(capsys, "transform", motor_file, "--method", "manlp",
                       "-o", tmp_path / "x.malp", "--record", tmp_path / "x.json")
    assert code == 1
    assert "eliminate" in err


def test_transform_then_equiv(capsys, tmp_path):
    src = tmp_path / "c.malp"
    src.write_text(CONSTRAINED)
    out_path = tmp_path / "c.fc.malp"
    rec_path = tmp_path / "c.fc.record.json"
    code, _, _ = run(capsys, "transform", src, "--method", "fc",
                     "-o", out_path, "--record", rec_path)
    assert code == 0
    code, out, _ = run(capsys, "equiv", src, out_path, "--record", rec_path,
                       "--grid", "0.5")
    assert code == 0
    data = json.loads(out)
    assert data["bijection"] is True
    assert data["source_count"] == data["target_count"] == 2


def test_equiv_flags_a_vacuous_bijection(capsys, motor_file, tmp_path, motor):
    # motor's one stable model has p = 9/85, on no grid: the check compares
    # 0 models with 0, and says so on stderr; JSON and exit code are unchanged
    rec = eliminate_constraints_fc(motor)
    src, out_path, rec_path = _fc_files(capsys, tmp_path, motor_file.read_text())
    code, out, err = run(capsys, "equiv", src, out_path, "--record", rec_path, "--grid", "0.5")
    assert (code, err) == (0, VACUOUS)
    assert json.loads(out) == verify_equivalence(rec, 0.5).to_json()
    assert json.loads(out)["source_count"] == json.loads(out)["target_count"] == 0
    # with models on the grid there is no note
    src, out_path, rec_path = _fc_files(capsys, tmp_path)
    code, out, err = run(capsys, "equiv", src, out_path, "--record", rec_path, "--grid", "0.5")
    assert (code, err, json.loads(out)["source_count"]) == (0, "", 2)


@pytest.mark.parametrize("text, rule", [
    ("a <-g 1 with 1;\np <-g max(p, sub(1, a)) with 1;\n",
     "rule 1 (p <-g max(p, sub(1, a)) with 1;)"),
    ("p <-g sub(1, p) with 1;\n", "rule 0 (p <-g sub(1, p) with 1;)"),
], ids=["subtrahend-on-a-cycle", "subtrahend-is-the-head"])
def test_transform_manlp_refuses_an_order_reversing_read_on_a_cycle(capsys, tmp_path, text,
                                                                     rule):
    src = tmp_path / "cycle.malp"
    src.write_text(text)
    code, out, err = run(capsys, "transform", src, "--method", "manlp")
    assert (code, out) == (1, "")
    assert err == (f"{rule} reads an atom order-reversingly outside a negation, on a program "
                   "with a cycle: manlp would change its stable models\n")
    assert not src.with_suffix(".manlp.malp").exists()


def test_transform_of_a_tiny_constant_then_equiv(capsys, tmp_path):
    src = tmp_path / "tiny.malp"
    src.write_text("p <-g 0.00001 with 1;\n0.5 <-l neg1(p) with 1;\n")
    out_path = tmp_path / "tiny.fc.malp"
    rec_path = tmp_path / "tiny.fc.record.json"
    assert run(capsys, "transform", src, "--method", "fc",
               "-o", out_path, "--record", rec_path)[0] == 0
    assert out_path.read_text().startswith("p <-g 0.00001 with 1;\n")
    code, out, err = run(capsys, "equiv", src, out_path, "--record", rec_path, "--grid", "0.5")
    assert (code, err) == (0, VACUOUS)   # p = 0.00001 is on no grid
    assert json.loads(out)["bijection"] is True


def test_reduct_to_a_tiny_value_then_check(capsys, tmp_path):
    path = tmp_path / "r.malp"
    path.write_text("q <-g neg1(p) with 1;\np <-g 0.5 with 1;\n")
    interp = tmp_path / "i.json"
    interp.write_text(json.dumps({"p": 0.99999, "q": 0.5}))
    out_path = tmp_path / "r.reduct.malp"
    assert run(capsys, "reduct", path, "-i", interp, "-o", out_path)[0] == 0
    assert out_path.read_text() == "q <-g 0.00000999999999995449 with 1;\np <-g 0.5 with 1;\n"
    code, out, _ = run(capsys, "check", out_path)
    assert code == 0 and json.loads(out)["class"] == "positive"


def test_equiv_budget_exceeded_exits_two(capsys, tmp_path):
    src = tmp_path / "c.malp"
    src.write_text(CONSTRAINED)
    out_path = tmp_path / "c.fc.malp"
    rec_path = tmp_path / "c.fc.record.json"
    run(capsys, "transform", src, "--method", "fc", "-o", out_path, "--record", rec_path)
    code, _, err = run(capsys, "equiv", src, out_path, "--record", rec_path,
                       "--grid", "0.5", "--budget", "3")
    assert code == 2
    assert "budget" in err


def test_missing_file_exits_one(capsys, tmp_path):
    code, _, err = run(capsys, "check", tmp_path / "absent.malp")
    assert code == 1
    assert err


def test_usage_errors_exit_one(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1
    assert "error" in err
    code, _, err = run(capsys, "stable", "verify")  # missing file and -i
    assert code == 1


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


def test_search_budget_exceeded_exits_two(capsys, tmp_path):
    # 3 ** 2 = 9 grid points: a budget of 8 refuses them, 9 admits them
    path = tmp_path / "mutual.malp"
    path.write_text(MUTUAL)
    code, _, err = run(capsys, "stable", "search", path, "--grid", "0.5", "--budget", "8")
    assert code == 2
    assert "9 grid points exceed the budget of 8" in err
    code, out, _ = run(capsys, "stable", "search", path, "--grid", "0.5", "--budget", "9")
    assert code == 0 and json.loads(out)["count"] == 3


def test_bad_grid_step_exits_one(capsys, tmp_path):
    path = tmp_path / "mutual.malp"
    path.write_text(MUTUAL)
    code, _, err = run(capsys, "stable", "search", path, "--grid", "0.3")
    assert code == 1
    assert "divide" in err


def test_grid_step_whose_reciprocal_overflows_exits_one(capsys, tmp_path):
    path = tmp_path / "mutual.malp"
    path.write_text(MUTUAL)
    record = tmp_path / "fc.json"
    assert run(capsys, "transform", path, "--method", "fc", "--record", record)[0] == 0
    for argv, step in ((["stable", "search", path], "1e-320"),
                       (["equiv", path, path, "--record", record], "5e-324")):
        code, out, err = run(capsys, *argv, "--grid", step)
        assert (code, out) == (1, "")
        assert err == f"grid step {float(step)} is too small: 1/step overflows\n"
        assert "Traceback" not in err


@pytest.mark.parametrize("value", ["NaN", "Infinity", "true", '"0.8"', "7", "-3", "null"])
def test_interpretation_value_outside_unit_interval_exits_one(capsys, tmp_path, value):
    path = tmp_path / "mutual.malp"
    path.write_text(MUTUAL)
    interp = tmp_path / "i.json"
    interp.write_text('{"p": 0.5, "q": %s}' % value)
    for command in (("stable", "verify"), ("eval",), ("reduct",)):
        code, out, err = run(capsys, *command, path, "-i", interp)
        assert code == 1
        assert out == ""
        assert "interpretation value of 'q' must be a number in [0, 1]" in err


def test_interpretation_accepts_integer_endpoints(capsys, tmp_path):
    path = tmp_path / "mutual.malp"
    path.write_text(MUTUAL)
    interp = tmp_path / "i.json"
    interp.write_text('{"p": 1, "q": 0}')
    code, out, _ = run(capsys, "stable", "verify", path, "-i", interp)
    assert code == 0
    assert json.loads(out)["stable"] is True


@pytest.mark.parametrize("record", [
    [1],
    {"method": "fc", "fresh_atoms": [{"name": "p_bot"}]},
])
def test_equiv_malformed_record_exits_one(capsys, tmp_path, record):
    src = tmp_path / "c.malp"
    src.write_text(CONSTRAINED)
    out_path = tmp_path / "c.fc.malp"
    rec_path = tmp_path / "c.fc.record.json"
    run(capsys, "transform", src, "--method", "fc", "-o", out_path, "--record", rec_path)
    rec_path.write_text(json.dumps(record))
    code, out, err = run(capsys, "equiv", src, out_path, "--record", rec_path, "--grid", "0.5")
    assert code == 1
    assert out == ""
    assert "record" in err


UNREADABLE = {
    "not-utf8": b"p <-g \xff with 1;\n",
    "deep-json": b"[" * 100_000,   # deeper than the JSON decoder's recursion limit
    "huge-int": b'{"p": 1' + b"0" * 5000 + b"}",   # past int's digit limit
}


@pytest.mark.parametrize("role, content", [
    ("program", "not-utf8"),
    ("check", "not-utf8"),
    ("interpretation", "not-utf8"),
    ("interpretation", "deep-json"),
    ("record", "not-utf8"),
    ("record", "deep-json"),
    ("interpretation", "huge-int"),
    ("record", "huge-int"),
])
def test_unreadable_input_file_exits_one_with_one_line(capsys, tmp_path, role, content):
    src = tmp_path / "c.malp"
    src.write_text(CONSTRAINED)
    target, record = tmp_path / "c.fc.malp", tmp_path / "c.fc.record.json"
    assert run(capsys, "transform", src, "--method", "fc", "-o", target, "--record", record)[0] == 0
    interp = tmp_path / "i.json"
    interp.write_text(json.dumps({"p": 0.5, "q": 0.5}))
    bad = tmp_path / "bad"
    bad.write_bytes(UNREADABLE[content])
    argv = {
        "program": ["eval", bad, "-i", interp],
        "check": ["check", bad],
        "interpretation": ["eval", src, "-i", bad],
        "record": ["equiv", src, target, "--record", bad, "--grid", "0.5"],
    }[role]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and err.startswith(f"{bad}: ")


@pytest.mark.parametrize("role, content, message", [
    ("source", "p <-g q q with 1;", "1:9: expected 'with', found 'q'"),
    ("source", "p <-g add(q, 0.5) with 1;\nq <-g 1 with 1;",
     "rule 0: body may leave [0, 1] (interval [0.5, 1.5])"),
    ("target", "p <-g q with 1;\n\n  $", "3:3: unexpected character '$'"),
    ("record", '{"method": ', "Expecting value: line 1 column 12 (char 11)"),
    ("record", '{"method": "xx"}', "record: unknown method 'xx'"),
])
def test_equiv_diagnostic_names_the_one_bad_file_of_three(capsys, tmp_path, role, content,
                                                          message):
    files = dict(zip(("source", "target", "record"), _fc_files(capsys, tmp_path)))
    files[role].write_text(content)
    code, out, err = run(capsys, "equiv", files["source"], files["target"],
                         "--record", files["record"], "--grid", "0.5")
    assert (code, out, err) == (1, "", f"{files[role]}: {message}\n")


@pytest.mark.parametrize("content, message", [
    ('{"p": ', "Expecting value: line 1 column 7 (char 6)"),
    ("[0.5]", "interpretation file must hold a JSON object {atom: number}"),
    ('{"p": 1.5, "q": 0}', "interpretation value of 'p' must be a number in [0, 1], got 1.5"),
    ('{"p": 1}', "interpretation is not total: missing q"),
])
def test_interpretation_diagnostic_names_its_file(capsys, tmp_path, content, message):
    src, interp = tmp_path / "mutual.malp", tmp_path / "bad.json"
    src.write_text(MUTUAL)
    interp.write_text(content)
    for argv in (["eval"], ["reduct"], ["stable", "verify"]):
        code, out, err = run(capsys, *argv, src, "-i", interp)
        assert (code, out, err) == (1, "", f"{interp}: {message}\n")


def test_chain_equiv_at_quarter_grid(capsys, motor_file, tmp_path):
    # 5^5 + 5^9 = 1,956,250 nominal points, just inside the default budget
    fc_out, fc_rec = tmp_path / "m.fc.malp", tmp_path / "m.fc.json"
    nl_out, nl_rec = tmp_path / "m.manlp.malp", tmp_path / "m.manlp.json"
    assert run(capsys, "transform", motor_file, "--method", "fc",
               "-o", fc_out, "--record", fc_rec)[0] == 0
    assert run(capsys, "transform", fc_out, "--method", "manlp",
               "-o", nl_out, "--record", nl_rec)[0] == 0
    code, out, _ = run(capsys, "equiv", fc_out, nl_out, "--record", nl_rec, "--grid", "0.25")
    assert code == 0
    data = json.loads(out)
    assert data["bijection"] is True
    assert data["points_checked"] == 1956250


def _legacy_verify_output(program, I, output, tol=1e-9, max_iter=10_000):
    """stable verify as composed from is_stable and stable_operator."""
    from emalp import is_stable, stable_operator
    from emalp.cli import _trace_table

    verdict = is_stable(program, I, tol, max_iter)
    _, trace = stable_operator(program, I, tol, max_iter)
    result = {True: True, False: False, None: "indeterminate"}[verdict]
    if output == "table":
        return "".join(line + "\n" for line in
                       [f"stable: {result}"] + _trace_table(program.atoms(), trace))
    return json.dumps({"stable": result, "trace": trace.to_json()},
                      indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("output", ["json", "table"])
@pytest.mark.parametrize("interp, max_iter, verdict", [
    ({"p": 9 / 85, "q": 0.36, "s": 0.8, "t": 0.8}, 10_000, True),
    ({"p": 0.25, "q": 0.4, "s": 0.9, "t": 0.85}, 10_000, False),
    ({"p": 0.1, "q": 0.1, "s": 0.8, "t": 0.8}, 10_000, False),   # the constraint fails
    ({"p": 9 / 85, "q": 0.36, "s": 0.8, "t": 0.8}, 2, "indeterminate"),
])
def test_stable_verify_output_unchanged(capsys, motor, motor_file, tmp_path,
                                        output, interp, max_iter, verdict):
    path = tmp_path / "i.json"
    path.write_text(json.dumps(interp))
    code, out, _ = run(capsys, "stable", "verify", motor_file, "-i", path,
                       "--output", output, "--max-iter", max_iter)
    assert code == 0
    assert out == _legacy_verify_output(motor, interp, output, max_iter=max_iter)
    assert f"{verdict}".lower() in out.splitlines()[1 if output == "json" else 0].lower()


@pytest.mark.parametrize("text, interp, max_iter, verdict", [
    # Kleene stops at step 1, within a cap the level pass would use up
    ("a <-g b with 1;\nb <-g c with 1;\nc <-g d with 1;\n", dict.fromkeys("abcd", 0), 1, True),
    # p reads a as a subtrahend on a cycle: Kleene from bottom ends at p = 1
    ("a <-g 1 with 1;\np <-g max(p, sub(1, a)) with 1;\n", {"a": 1, "p": 1}, 10_000, True),
    ("a <-g 1 with 1;\np <-g max(p, sub(1, a)) with 1;\n", {"a": 1, "p": 0}, 10_000, False),
], ids=["chain-at-cap-1", "subtrahend-on-cycle-stable", "subtrahend-on-cycle-not-stable"])
def test_stable_verify_agrees_with_the_trace_it_prints(capsys, tmp_path, text, interp,
                                                       max_iter, verdict):
    path, i = tmp_path / "p.malp", tmp_path / "i.json"
    path.write_text(text)
    i.write_text(json.dumps(interp))
    code, out, _ = run(capsys, "stable", "verify", path, "-i", i, "--max-iter", max_iter)
    data = json.loads(out)
    assert code == 0 and data["trace"]["converged"] is True
    assert data["stable"] is verdict is (data["trace"]["iterates"][-1] == interp)


def _nested_file(tmp_path, depth):
    from emalp.parser import MAX_DEPTH

    body = "neg1(" * (MAX_DEPTH + depth) + "q" + ")" * (MAX_DEPTH + depth)
    path = tmp_path / f"deep{depth}.malp"
    path.write_text(f"p <-g {body} with 1;\nq <-g 0.5 with 1;\n0.5 <-l {body} with 1;\n")
    return path


@pytest.mark.parametrize("depth", [1, 3000])
@pytest.mark.parametrize("argv", [["check"], ["stable", "search"],
                                  ["stable", "search", "--grid", "0.5"]])
def test_too_deep_body_exits_one(capsys, tmp_path, depth, argv):
    code, out, err = run(capsys, *argv, _nested_file(tmp_path, depth))
    assert code == 1
    assert out == ""
    assert "nested deeper than" in err and "Traceback" not in err


def test_body_at_depth_limit_runs(capsys, tmp_path):
    path = _nested_file(tmp_path, 0)
    code, out, _ = run(capsys, "check", path)
    assert code == 0 and json.loads(out)["valid"] is True
    code, out, _ = run(capsys, "stable", "search", path, "--grid", "0.5")
    assert code == 0 and json.loads(out)["count"] == 1
    interp = tmp_path / "i.json"
    interp.write_text(json.dumps({"p": 0.5, "q": 0.5}))
    code, out, _ = run(capsys, "stable", "verify", path, "-i", interp)
    assert code == 0 and json.loads(out)["stable"] is True
    # the fc target nests the constraint body two deeper, past the limit
    code, out, err = run(capsys, "transform", path, "--method", "fc")
    assert (code, out) == (1, "")
    assert f"nested {MAX_DEPTH + 2} applications deep" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["deep0.malp", "i.json"]


# 0.505 + [0, 0.5] may exceed 1 by 0.005: valid at --tol 0.01 only
TOL_EDGE = "p <-g add(mul(q, 0.5), 0.505) with 1;\nq <-g 0.5 with 1;\n"


@pytest.mark.parametrize("argv", [
    ("check",),
    ("lfp",),
    ("stable", "search", "--grid", "0.5"),
    ("stable", "search", "--seeds", "2"),
])
def test_tol_reaches_validation(capsys, tmp_path, argv):
    path = tmp_path / "edge.malp"
    path.write_text(TOL_EDGE)
    code, out, _ = run(capsys, *argv, path, "--tol", "0.01")
    assert code == 0
    code, out, err = run(capsys, *argv, path)
    assert code == 1
    assert "body may leave [0, 1]" in err


def _fc_files(capsys, tmp_path, source_text=CONSTRAINED):
    src, out_path, rec_path = (tmp_path / "c.malp", tmp_path / "c.fc.malp",
                               tmp_path / "c.fc.record.json")
    src.write_text(source_text)
    assert run(capsys, "transform", src, "--method", "fc",
               "-o", out_path, "--record", rec_path)[0] == 0
    return src, out_path, rec_path


@pytest.mark.parametrize("fresh", [
    # a fresh atom the target does not mention
    [{"name": "p_bot", "role": "bottom_witness"}, {"name": "ghost", "role": "bottom_witness"}],
    # a fresh atom named after a source atom
    [{"name": "p_bot", "role": "bottom_witness"},
     {"name": "p", "role": "constant_witness", "value": 0.5}],
    # the same fresh atom twice
    [{"name": "p_bot", "role": "bottom_witness"}, {"name": "p_bot", "role": "bottom_witness"}],
])
def test_equiv_rejects_record_with_bad_fresh_atoms(capsys, tmp_path, fresh):
    src, out_path, rec_path = _fc_files(capsys, tmp_path)
    record = json.loads(rec_path.read_text())
    rec_path.write_text(json.dumps(dict(record, fresh_atoms=fresh)))
    code, out, err = run(capsys, "equiv", src, out_path, "--record", rec_path, "--grid", "0.5")
    assert code == 1
    assert out == ""
    assert "record does not link" in err


def test_equiv_rejects_target_missing_a_source_atom(capsys, tmp_path):
    src, out_path, rec_path = _fc_files(capsys, tmp_path)
    out_path.write_text("p <-g neg1(p_bot) with 1;\np_bot <-g 0 with 1;\n")
    code, out, err = run(capsys, "equiv", src, out_path, "--record", rec_path, "--grid", "0.5")
    assert code == 1
    assert out == ""
    assert "record does not link" in err


HALVING_CONSTRAINED = "p <-p add(mul(p, 0.5), 0.5) with 1;\n1 <-g p with 1;\n"


@pytest.mark.parametrize("output", ["json", "table"])
def test_equiv_reports_undecided_points_as_indeterminate(capsys, tmp_path, output):
    # p = 1 is reached only in the limit: at --max-iter 5 neither side
    # decides it, and the verdict must not read as a bijection of 0 = 0
    src, out_path, rec_path = _fc_files(capsys, tmp_path, HALVING_CONSTRAINED)
    argv = ["equiv", src, out_path, "--record", rec_path, "--grid", "0.5", "--output", output]
    code, out, err = run(capsys, *argv, "--max-iter", "5")
    assert code == 0
    assert err.startswith("note: 1 source and 1 target grid point(s) undecided")
    assert "--max-iter 5" in err and err.count("\n") == 1
    if output == "table":
        assert "bijection: indeterminate" in out.splitlines()
        assert 'source_undecided: [{"p": 1.0}]' in out.splitlines()
        return
    data = json.loads(out)
    assert data["bijection"] == "indeterminate"
    assert data["source_count"] == data["target_count"] == 0
    assert data["source_undecided"] == [{"p": 1.0}]
    assert data["target_undecided"] == [{"p": 1.0, "p_bot": 0.0}]
    assert data["counterexamples"] == ["stability undecided at 1 source and 1 target grid point(s)"]

    code, out, err = run(capsys, *argv)     # the default cap decides p = 1 on both sides
    data = json.loads(out)
    assert (code, err, data["bijection"]) == (0, "", True)
    assert data["source_models"] == [{"p": 1.0}]
    assert data["source_undecided"] == data["target_undecided"] == []


@pytest.mark.parametrize("flag, value, message", [
    ("--tol", "nan", "--tol must be finite and > 0, got nan"),
    ("--tol", "inf", "--tol must be finite and > 0, got inf"),
    ("--tol", "-1", "--tol must be finite and > 0, got -1.0"),
    ("--tol", "0", "--tol must be finite and > 0, got 0.0"),
    ("--max-iter", "0", "--max-iter must be at least 1, got 0"),
    ("--seeds", "0", "--seeds must be at least 1, got 0"),
    ("--budget", "-1", "--budget must be at least 0, got -1"),
])
def test_numeric_flags_out_of_range_exit_one(capsys, tmp_path, flag, value, message):
    path = tmp_path / "mutual.malp"
    path.write_text(MUTUAL)
    code, out, err = run(capsys, "stable", "search", path, flag, value)
    assert (code, out, err) == (1, "", message + "\n")


@pytest.mark.parametrize("argv", [("check",), ("lfp",), ("equiv", "x.malp", "--record", "r.json",
                                                          "--grid", "0.5")])
def test_every_command_checks_tol(capsys, tmp_path, argv):
    path = tmp_path / "mutual.malp"
    path.write_text(MUTUAL)
    code, out, err = run(capsys, argv[0], path, *argv[1:], "--tol", "nan")
    assert (code, err) == (1, "--tol must be finite and > 0, got nan\n")


def test_numeric_flags_at_their_limits_run(capsys, tmp_path):
    path = tmp_path / "mutual.malp"
    path.write_text(MUTUAL)
    code, out, _ = run(capsys, "stable", "search", path, "--seeds", "1", "--max-iter", "1",
                       "--tol", "1e-300")
    assert code == 0
    code, _, err = run(capsys, "stable", "search", path, "--grid", "0.5", "--budget", "0")
    assert code == 2 and "budget of 0" in err


def _deep_source(tmp_path, method, target_depth):
    """A source whose `method` target nests `target_depth` applications in
    rule 0: fc wraps a constraint body in two, manlp puts neg1 over a
    negative q."""
    mins = "min(" * (target_depth - 2) + "q" + ", 1)" * (target_depth - 2)
    path = tmp_path / "deep.malp"
    path.write_text(f"0.5 <-g {mins} with 1;\nq <-g 0.5 with 1;\n" if method == "fc"
                    else f"p <-g neg1({mins}) with 1;\nq <-g 0.5 with 1;\n")
    return path


@pytest.mark.parametrize("method", ["fc", "manlp"])
def test_transform_writes_no_target_nested_past_the_limit(capsys, tmp_path, method):
    path = _deep_source(tmp_path, method, MAX_DEPTH + 1)
    code, out, err = run(capsys, "transform", path, "--method", method)
    assert (code, out) == (1, "")
    assert err == (f"rule 0: cannot write a body nested {MAX_DEPTH + 1} applications deep, "
                   f"past the {MAX_DEPTH} a file may hold\n")
    assert [p.name for p in tmp_path.iterdir()] == ["deep.malp"]


@pytest.mark.parametrize("method", ["fc", "manlp"])
def test_transform_target_at_the_limit_reads_back(capsys, tmp_path, method):
    path = _deep_source(tmp_path, method, MAX_DEPTH)
    code, out, _ = run(capsys, "transform", path, "--method", method)
    assert code == 0
    rewrite = eliminate_constraints_fc if method == "fc" else to_manlp
    target = rewrite(parse_program(path.read_text())).target
    assert parse_program(Path(json.loads(out)["target_file"]).read_text()) == target


def test_the_module_entry_point_runs(capsys, motor_file):
    src = str(Path(emalp.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-m", "emalp.cli", "check", str(motor_file)],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == run(capsys, "check", motor_file)[1]


def test_the_script_target_is_cli_main():
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    scripts = pyproject.read_text().split("[project.scripts]\n")[1].split("\n\n")[0]
    module, name = re.fullmatch(r'emalp = "([\w.]+):(\w+)"', scripts.strip()).groups()
    assert getattr(importlib.import_module(module), name) is main
