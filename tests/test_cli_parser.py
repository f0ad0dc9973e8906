"""The CLI reads well-formed argv from its table and builds argparse for the rest.

`oracle_parser` is the front end as it was when every call built all
nine parsers.  `main(argv)` must print the same help, usage lines and
errors, exit with the same code, and parse to the same namespace.
`build_parser` builds that whole tree from the command table, and
`_read_argv`, which builds none, must give argparse's namespace for
every argv it accepts and decline every argv argparse rejects.
"""

import argparse
import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emalp import cli
from emalp.cli import (
    _COMMANDS,
    _COMMON,
    _add_args,
    _ArgumentParser,
    _read_argv,
    build_parser,
    cmd_check,
    cmd_equiv,
    cmd_eval,
    cmd_lfp,
    cmd_reduct,
    cmd_stable_search,
    cmd_stable_verify,
    cmd_transform,
    main,
)
from emalp.lattice import ADJOINT_KINDS, NEGATION_KINDS
from emalp.semantics import DEFAULT_BUDGET


def oracle_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="emalp",
        description="Weighted rule programs on [0, 1]: parsing, stable models, transformations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parse, validate, classify, and report continuity")
    p.add_argument("file")
    _add_args(p, _COMMON)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("eval", help="check whether an interpretation is a model")
    p.add_argument("file")
    p.add_argument("-i", "--interpretation", required=True)
    _add_args(p, _COMMON)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("reduct", help="emit the reduct with respect to an interpretation")
    p.add_argument("file")
    p.add_argument("-i", "--interpretation", required=True)
    p.add_argument("-o", "--out")
    _add_args(p, _COMMON)
    p.set_defaults(fn=cmd_reduct)

    p = sub.add_parser("lfp", help="least model of a positive program, with trace")
    p.add_argument("file")
    _add_args(p, _COMMON)
    p.set_defaults(fn=cmd_lfp)

    p = sub.add_parser("stable", help="verify or search for stable models")
    stable_sub = p.add_subparsers(dest="subcommand", required=True)
    v = stable_sub.add_parser("verify")
    v.add_argument("file")
    v.add_argument("-i", "--interpretation", required=True)
    _add_args(v, _COMMON)
    v.set_defaults(fn=cmd_stable_verify)
    s = stable_sub.add_parser("search")
    s.add_argument("file")
    s.add_argument("--grid", type=float, default=None, help="grid step for exhaustive search")
    s.add_argument("--seeds", type=int, default=16)
    s.add_argument("--rng-seed", type=int, default=0)
    s.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    _add_args(s, _COMMON)
    s.set_defaults(fn=cmd_stable_search)

    p = sub.add_parser("transform", help="rewrite a program, writing target and record")
    p.add_argument("file")
    p.add_argument("--method", choices=("fc", "janssen", "manlp"), required=True)
    p.add_argument("--impl", choices=ADJOINT_KINDS, default="lukasiewicz")
    p.add_argument("--conj", choices=ADJOINT_KINDS, default="godel")
    p.add_argument("--neg", choices=NEGATION_KINDS, default="neg1")
    p.add_argument("-o", "--out")
    p.add_argument("--record")
    _add_args(p, _COMMON)
    p.set_defaults(fn=cmd_transform)

    p = sub.add_parser("equiv", help="grid-exhaustive stable-model equivalence check")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--record", required=True)
    p.add_argument("--grid", type=float, required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    _add_args(p, _COMMON)
    p.set_defaults(fn=cmd_equiv)

    return parser


# each command with arguments that parse
COMMANDS = {
    ("check",): ["f.malp"],
    ("eval",): ["f.malp", "-i", "i.json"],
    ("reduct",): ["f.malp", "-i", "i.json", "-o", "o.malp"],
    ("lfp",): ["f.malp"],
    ("stable", "verify"): ["f.malp", "-i", "i.json"],
    ("stable", "search"): ["f.malp", "--grid", "0.25", "--seeds", "4"],
    ("transform",): ["f.malp", "--method", "janssen", "--neg", "neg2"],
    ("equiv",): ["a.malp", "b.malp", "--record", "r.json", "--grid", "0.5"],
}

ROOT_CASES = [
    [], ["-h"], ["--help"], ["bogus"], ["--"], ["--", "check", "f.malp"], ["-h", "check"],
    ["chec", "f.malp"], ["stable"], ["stable", "-h"], ["stable", "bogus"],
    ["stable", "--", "search"], ["stable", "search", "-h", "verify"],
]

ERROR_CASES = [argv for cmd, ok in COMMANDS.items() for argv in (
    [*cmd, "-h"],
    [*cmd],                                   # missing required arguments
    [*cmd, *ok, "--output", "xml"],           # bad choices value
    [*cmd, *ok, "--tol", "abc"],              # bad type=float value
    [*cmd, *ok, "--max-iter", "1.5"],         # bad type=int value
    [*cmd, *ok, "--bogus"],                   # unrecognized: the root's usage line
    [*cmd, *ok, "extra"],
)] + [
    ["eval", "f.malp"],
    ["reduct", "f.malp", "-i"],
    ["stable", "verify", "f.malp"],
    ["stable", "search", "f.malp", "--grid", "abc"],
    ["transform", "f.malp"],
    ["transform", "f.malp", "--method", "zz"],
    ["transform", "f.malp", "--method", "fc", "--impl", "bogus"],
    ["equiv", "a.malp", "b.malp"],
    ["equiv", "a.malp", "b.malp", "--record", "r.json", "--grid", "abc"],
]


def oracle_run(capsys, argv):
    try:
        oracle_parser().parse_args(argv)
    except SystemExit as exc:
        code = int(exc.code or 0)
    else:
        raise AssertionError(f"the oracle parsed {argv}")
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("columns", ["80", "44"])
@pytest.mark.parametrize("argv", ROOT_CASES + ERROR_CASES, ids=" ".join)
def test_help_and_usage_errors_match_the_full_parser(capsys, monkeypatch, argv, columns):
    monkeypatch.setenv("COLUMNS", columns)
    expected = oracle_run(capsys, list(argv))
    code = main(list(argv))
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == expected
    assert expected[0] in (0, 1)


@pytest.mark.parametrize("cmd", list(COMMANDS), ids=" ".join)
def test_namespace_matches_the_full_parser(cmd):
    argv = [*cmd, *COMMANDS[cmd]]
    assert vars(build_parser().parse_args(argv)) == vars(oracle_parser().parse_args(argv))


def helps(parser, words=()):
    """Each parser of the tree by its command words, with its help text."""
    out = {words: parser.format_help()}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                out.update(helps(sub, (*words, name)))
    return out


def test_the_whole_tree_is_built(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    tree = helps(build_parser())
    assert tree == helps(oracle_parser())
    assert list(tree) == [(), ("check",), ("eval",), ("reduct",), ("lfp",), ("stable",),
                          ("stable", "verify"), ("stable", "search"), ("transform",), ("equiv",)]


def test_consecutive_calls_share_no_state(capsys, tmp_path, motor_text):
    path = tmp_path / "motor.malp"
    path.write_text(motor_text)
    assert main(["check", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["valid"] is True
    assert main(["stable", "search", str(path), "--grid", "0.5"]) == 0
    assert json.loads(capsys.readouterr().out)["mode"] == "grid"
    assert main(["check", str(path), "--output", "table"]) == 0
    assert capsys.readouterr().out.startswith("valid: True")


def test_main_without_argv_reads_sys_argv(capsys, monkeypatch, tmp_path, motor_text):
    path = tmp_path / "motor.malp"
    path.write_text(motor_text)
    assert main(["check", str(path)]) == 0
    expected = capsys.readouterr()
    monkeypatch.setattr(cli.sys, "argv", ["emalp", "check", str(path)])
    assert main() == 0
    assert capsys.readouterr() == expected
    monkeypatch.setattr(cli.sys, "argv", ["emalp", "bogus"])
    assert main(None) == 1
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


# --- the table reader -----------------------------------------------------------

FLOATS = ["0.5", "3", "nan", "inf", "1e-3", " 2", "1_0"]
INTS = ["3", "0", " 2", "1_0"]
NUMBERS_BAD = ["", "0x1", "-1", "1.5", "abc"]
STRINGS = ["f.malp", "", "a b", "x=y", "check"]


def leaves(table=_COMMANDS, words=()):
    for word, (_, args, _) in table.items():
        if isinstance(args, dict):
            yield from leaves(args, (*words, word))
        else:
            yield (*words, word), args + _COMMON


LEAVES = list(leaves())


def values(arg):
    """Values the argument accepts, and values (or flags) it rejects."""
    if arg.choices:
        return list(arg.choices), [arg.choices[0].upper(), "bogus"]
    if arg.type is float:
        return FLOATS, NUMBERS_BAD
    if arg.type is int:
        return INTS, NUMBERS_BAD
    return STRINGS, ["-x", "-", "--tol"]


@st.composite
def argvs(draw):
    """A command's words, then its arguments in any order, with repeats; one in ten bad."""
    def pick(good, bad):
        return draw(st.sampled_from(good if draw(st.integers(0, 9)) else bad))

    words, args = draw(st.sampled_from(LEAVES))
    items = []
    for arg in args:
        if not arg.flags[0].startswith("-"):
            items.append([pick(STRINGS, ["-", "-f"])])
            continue
        for _ in range(pick([1, 2], [0]) if arg.required else draw(st.integers(0, 2))):
            flag = draw(st.sampled_from(arg.flags))
            if arg.store_true:
                items.append([flag])
                continue
            value = pick(*values(arg))
            spelled = pick([[flag, value]], [[f"{flag}={value}"], [flag + value],
                                             [flag[:4], value], [flag]])
            items.append(spelled)
    if not draw(st.integers(0, 9)):
        items.append([pick(["extra"], ["-h", "--", "--bogus", "-i"])])
    order = draw(st.permutations(items))
    if order and not draw(st.integers(0, 9)):    # drop one item: a missing argument
        order = order[1:]
    return [*words, *(w for item in order for w in item)]


def same_values(a, b):
    return a.keys() == b.keys() and all(
        a[k] == b[k] or (isinstance(a[k], float) and math.isnan(a[k]) and math.isnan(b[k]))
        for k in a)


FULL_PARSER = build_parser()   # parse_args keeps no state between calls


@settings(max_examples=400, deadline=None)
@given(argvs())
def test_the_table_reader_gives_argparse_namespace_or_declines(argv):
    ns = _read_argv(argv)
    try:
        with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
            expected = FULL_PARSER.parse_args(argv)
    except SystemExit:
        assert ns is None
    else:
        assert ns is None or same_values(vars(ns), vars(expected))


@pytest.mark.parametrize("cmd", list(COMMANDS), ids=" ".join)
def test_the_table_reader_accepts_each_command(cmd):
    argv = [*cmd, *COMMANDS[cmd]]
    assert vars(_read_argv(argv)) == vars(oracle_parser().parse_args(argv))


@pytest.mark.parametrize("argv", ROOT_CASES + ERROR_CASES + [
    ["check", "f.malp", "--tol=0.5"], ["check", "f.malp", "--to", "0.5"],
    ["eval", "f.malp", "-if.json"], ["check", "--", "f.malp"],
    ["stable", "search", "f.malp", "--seeds", "-1"], ["check", "f.malp", "--output", "JSON"],
], ids=" ".join)
def test_the_table_reader_declines_what_argparse_must_read(argv):
    assert _read_argv(argv) is None


def test_benchmark_jobs_build_no_argparse(monkeypatch, tmp_path, motor_text):
    """Each job kind the benchmark times runs without building a parser."""
    def refuse(*args, **kwargs):
        raise AssertionError("argparse was built")

    src, interp = tmp_path / "c.malp", tmp_path / "i.json"
    src.write_text(motor_text)
    interp.write_text(json.dumps({"p": 0.25, "q": 0.4, "s": 0.9, "t": 0.85}))
    target, record = tmp_path / "c.fc.malp", tmp_path / "c.fc.json"
    monkeypatch.setattr(_ArgumentParser, "__init__", refuse)
    for argv in (
        ["check", src],
        ["eval", src, "-i", interp],
        ["stable", "verify", src, "-i", interp],
        ["stable", "search", src, "--seeds", "32"],
        ["stable", "search", src, "--grid", "0.25"],
        ["transform", src, "--method", "fc", "-o", target, "--record", record],
        ["equiv", src, target, "--record", record, "--grid", "0.5"],
    ):
        assert main([str(a) for a in argv]) == 0, argv
