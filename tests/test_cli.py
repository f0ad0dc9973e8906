import json

import pytest

from emalp.cli import main

MUTUAL = "p <-g neg1(q) with 1;\nq <-g neg1(p) with 1;\n"
CONSTRAINED = "p <-g neg1(q) with 1;\nq <-g neg1(p) with 1;\n0.5 <-g p with 1;\n"


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
    assert data["polarity"][0] == {"q": "positive", "s": "negative", "t": "negative"}


def test_check_invalid_exits_one(capsys, tmp_path):
    bad = tmp_path / "bad.malp"
    bad.write_text("p <-g max(q, neg1(q)) with 1;\n")
    code, out, err = run(capsys, "check", bad)
    assert code == 1
    assert "polarit" in err


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


def test_eval(capsys, motor_file, tmp_path, model_m):
    interp = tmp_path / "m.json"
    interp.write_text(json.dumps(model_m))
    code, out, _ = run(capsys, "eval", motor_file, "-i", interp)
    assert code == 0
    data = json.loads(out)
    assert data["model"] is True
    assert data["rules"][0]["body"] == pytest.approx(8 / 37)


def test_eval_missing_atom_exits_one(capsys, motor_file, tmp_path):
    interp = tmp_path / "partial.json"
    interp.write_text(json.dumps({"p": 0.1}))
    code, _, err = run(capsys, "eval", motor_file, "-i", interp)
    assert code == 1
    assert "not total" in err


def test_reduct_output_reparses(capsys, motor_file, tmp_path, model_n):
    from emalp import parse_program, polarity_of

    interp = tmp_path / "n.json"
    interp.write_text(json.dumps(model_n))
    code, out, _ = run(capsys, "reduct", motor_file, "-i", interp)
    assert code == 0
    frozen = parse_program(out)
    assert len(frozen.rules) == 5
    # negation-mediated occurrences are gone; only the division body keeps s, t
    assert polarity_of(frozen.rules[1].body) == {}
    assert polarity_of(frozen.rules[2].body) == {}


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
    path = tmp_path / "mutual.malp"
    path.write_text(MUTUAL)
    code, _, err = run(capsys, "stable", "search", path, "--grid", "0.5", "--budget", "4")
    assert code == 2
    assert "budget" in err


def test_bad_grid_step_exits_one(capsys, tmp_path):
    path = tmp_path / "mutual.malp"
    path.write_text(MUTUAL)
    code, _, err = run(capsys, "stable", "search", path, "--grid", "0.3")
    assert code == 1
    assert "divide" in err


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
    # the fc target nests the constraint body deeper: it re-parses or is refused
    code, out, _ = run(capsys, "transform", path, "--method", "fc")
    assert code == 0
    code, out, err = run(capsys, "check", json.loads(out)["target_file"])
    assert code == 0 or (code == 1 and "nested deeper than" in err)


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
