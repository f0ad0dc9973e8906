"""Command-line front end.

Subcommands: check, eval, reduct, lfp, stable verify, stable search,
transform, equiv.  Inputs are .malp program files and interpretation
JSON objects {atom: number}; reports go to stdout as JSON (default) or
aligned tables, diagnostics to stderr.  Exit codes: 0 success, 1
input or validation error, 2 enumeration budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .lattice import ADJOINT_KINDS, DEFAULT_TOL, NEGATION_KINDS, eval_implication, truth_value
from .parser import parse_program, serialize_program
from .program import (
    MalpError,
    Program,
    ProgramClass,
    eval_body,
    validate_program,
)
from .semantics import (
    DEFAULT_BUDGET,
    DEFAULT_MAX_ITER,
    BudgetExceeded,
    FixpointTrace,
    StableSearchConfig,
    check_grid_budget,
    find_stable_models,
    is_model,
    least_model,
    reduct,
    require_total,
    satisfies,
    stable_check,
)
from .transform import (
    check_continuity,
    eliminate_constraints_fc,
    eliminate_constraints_janssen,
    record_from_json,
    to_manlp,
    verify_equivalence,
)


def _emit(data: dict, output: str) -> None:
    if output == "json":
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        for line in _as_table(data):
            print(line)


def _as_table(data: dict, prefix: str = "") -> list[str]:
    lines = []
    for key, value in data.items():
        if isinstance(value, dict):
            lines.append(f"{prefix}{key}:")
            lines.extend(_as_table(value, prefix + "  "))
        elif isinstance(value, list):
            lines.append(f"{prefix}{key}: {json.dumps(value)}")
        else:
            lines.append(f"{prefix}{key}: {value}")
    return lines


def _trace_table(atoms: tuple[str, ...], trace: FixpointTrace) -> list[str]:
    width = max([len(a) for a in atoms] + [10])
    header = " " * 8 + "".join(a.rjust(width + 2) for a in atoms)
    lines = [header]
    for k, row in enumerate(trace.iterates):
        label = "I_bot" if k == 0 else f"T^{k}"
        cells = "".join(f"{row[a]:.6g}".rjust(width + 2) for a in atoms)
        lines.append(label.ljust(8) + cells)
    lines.append(f"converged: {trace.converged} after {trace.iterations} iterations")
    return lines


def _load_program(path: str, args) -> Program:
    return parse_program(Path(path).read_text(encoding="utf-8"),
                         allow_repeats=args.allow_repeats, tol=args.tol)


def _load_interpretation(path: str, program: Program) -> dict[str, float]:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise MalpError("interpretation file must hold a JSON object {atom: number}")
    I = {k: truth_value(v, f"interpretation value of {k!r}") for k, v in data.items()}
    require_total(I, program)
    return I


def _interp_json(I: dict[str, float]) -> dict:
    return {k: I[k] for k in sorted(I)}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER)
    p.add_argument("--output", choices=("json", "table"), default="json")
    p.add_argument("--allow-repeats", action="store_true",
                   help="accept duplicate same-polarity body atoms")


def cmd_check(args) -> int:
    program = parse_program(Path(args.file).read_text(encoding="utf-8"),
                            allow_repeats=args.allow_repeats, validate=False)
    report = validate_program(program, allow_repeats=args.allow_repeats, tol=args.tol)
    if not report.ok:
        for issue in report.issues:
            print(str(issue), file=sys.stderr)
    continuity = check_continuity(program)
    polarity = [{a: pol.value for a, pol in sorted(pols.items())} for pols in program.polarities()]
    _emit({
        "valid": report.ok,
        "class": report.program_class.value,
        "atoms": list(program.atoms()),
        "rules": len(program.rules),
        "polarity": polarity,
        "continuity": continuity.to_json(),
        "errors": [str(i) for i in report.issues],
    }, args.output)
    return 0 if report.ok else 1


def cmd_eval(args) -> int:
    program = _load_program(args.file, args)
    I = _load_interpretation(args.interpretation, program)
    rows = []
    for idx, rule in enumerate(program.rules):
        body_value = eval_body(rule.body, I, args.tol)
        head_value = rule.head.value if rule.is_constraint else I[rule.head.name]
        rows.append({
            "rule": idx,
            "body": body_value,
            "implication": eval_implication(rule.impl, head_value, body_value),
            "satisfied": satisfies(I, rule, args.tol),
        })
    _emit({"model": is_model(I, program, args.tol), "rules": rows}, args.output)
    return 0


def cmd_reduct(args) -> int:
    program = _load_program(args.file, args)
    I = _load_interpretation(args.interpretation, program)
    text = serialize_program(reduct(program, I, args.tol))
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(json.dumps({"written": args.out, "rules": len(program.rules)}))
    else:
        sys.stdout.write(text)
    return 0


def cmd_lfp(args) -> int:
    program = _load_program(args.file, args)
    if program.classify() is not ProgramClass.POSITIVE:
        print("note: program is not positive; the fixpoint is not guaranteed "
              "to be a least model", file=sys.stderr)
    value, trace = least_model(program, args.tol, args.max_iter)
    if args.output == "table":
        for line in _trace_table(program.atoms(), trace):
            print(line)
    else:
        _emit({"least_model": _interp_json(value), "trace": trace.to_json()}, "json")
    return 0


def cmd_stable_verify(args) -> int:
    program = _load_program(args.file, args)
    I = _load_interpretation(args.interpretation, program)
    verdict, trace = stable_check(program, I, args.tol, args.max_iter)
    result = {True: True, False: False, None: "indeterminate"}[verdict]
    if args.output == "table":
        print(f"stable: {result}")
        for line in _trace_table(program.atoms(), trace):
            print(line)
    else:
        _emit({"stable": result, "trace": trace.to_json()}, "json")
    return 0


def cmd_stable_search(args) -> int:
    program = _load_program(args.file, args)
    if args.grid is not None:
        check_grid_budget((program,), args.grid, args.budget)
    cfg = StableSearchConfig(
        mode="grid" if args.grid is not None else "iterate",
        grid_step=args.grid if args.grid is not None else 0.5,
        seeds=args.seeds,
        tol=args.tol,
        max_iter=args.max_iter,
        rng_seed=args.rng_seed,
    )
    undecided: list = []
    models = find_stable_models(program, cfg, undecided)
    report = {
        "mode": cfg.mode,
        "count": len(models),
        "stable_models": [_interp_json(m) for m in models],
    }
    if cfg.mode == "grid":
        report["undecided"] = [_interp_json(m) for m in undecided]
        if undecided:
            print(f"note: {len(undecided)} grid point(s) undecided: the inner fixpoint "
                  f"did not converge within --max-iter {args.max_iter}", file=sys.stderr)
    _emit(report, args.output)
    return 0


_TRANSFORMS = {
    "fc": eliminate_constraints_fc,
    "janssen": eliminate_constraints_janssen,
}


def cmd_transform(args) -> int:
    program = _load_program(args.file, args)
    if args.method == "manlp":
        rec = to_manlp(program, args.neg)
    else:
        rec = _TRANSFORMS[args.method](program, args.impl, args.conj, args.neg)
    stem = Path(args.file).with_suffix("")
    out_path = Path(args.out) if args.out else Path(f"{stem}.{args.method}.malp")
    rec_path = Path(args.record) if args.record else Path(f"{stem}.{args.method}.record.json")
    out_path.write_text(serialize_program(rec.target), encoding="utf-8")
    rec_path.write_text(json.dumps(rec.to_json(), indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
    _emit({
        "method": args.method,
        "source_rules": len(rec.source.rules),
        "target_rules": len(rec.target.rules),
        "target_class": rec.target.classify().value,
        "fresh_atoms": [a.to_json() for a in rec.fresh_atoms],
        "target_file": str(out_path),
        "record_file": str(rec_path),
    }, args.output)
    return 0


def cmd_equiv(args) -> int:
    source = _load_program(args.source, args)
    target = _load_program(args.target, args)
    data = json.loads(Path(args.record).read_text(encoding="utf-8"))
    rec = record_from_json(data, source, target)
    report = verify_equivalence(source, rec, args.grid, args.tol,
                                max_points=args.budget, max_iter=args.max_iter)
    if report.bijection is None:
        print(f"note: {len(report.source_undecided)} source and {len(report.target_undecided)} "
              f"target grid point(s) undecided: the inner fixpoint did not converge within "
              f"--max-iter {args.max_iter}; bijection is indeterminate", file=sys.stderr)
    _emit(report.to_json(), args.output)
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    # usage problems are input errors (exit 1); 2 is reserved for budgets
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _file(p: argparse.ArgumentParser) -> None:
    p.add_argument("file")


def _file_interp(p: argparse.ArgumentParser) -> None:
    p.add_argument("file")
    p.add_argument("-i", "--interpretation", required=True)


def _reduct_args(p: argparse.ArgumentParser) -> None:
    _file_interp(p)
    p.add_argument("-o", "--out")


def _search_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("file")
    p.add_argument("--grid", type=float, default=None, help="grid step for exhaustive search")
    p.add_argument("--seeds", type=int, default=16)
    p.add_argument("--rng-seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)


def _transform_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("file")
    p.add_argument("--method", choices=("fc", "janssen", "manlp"), required=True)
    p.add_argument("--impl", choices=ADJOINT_KINDS, default="lukasiewicz")
    p.add_argument("--conj", choices=ADJOINT_KINDS, default="godel")
    p.add_argument("--neg", choices=NEGATION_KINDS, default="neg1")
    p.add_argument("-o", "--out")
    p.add_argument("--record")


def _equiv_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--record", required=True)
    p.add_argument("--grid", type=float, required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)


# name -> (help, argument adder, handler); a nested table takes the
# adder's place for a command with subcommands
_STABLE = {
    "verify": (None, _file_interp, cmd_stable_verify),
    "search": (None, _search_args, cmd_stable_search),
}

_COMMANDS = {
    "check": ("parse, validate, classify, and report continuity", _file, cmd_check),
    "eval": ("check whether an interpretation is a model", _file_interp, cmd_eval),
    "reduct": ("emit the reduct with respect to an interpretation", _reduct_args, cmd_reduct),
    "lfp": ("least model of a positive program, with trace", _file, cmd_lfp),
    "stable": ("verify or search for stable models", _STABLE, None),
    "transform": ("rewrite a program, writing target and record", _transform_args, cmd_transform),
    "equiv": ("grid-exhaustive stable-model equivalence check", _equiv_args, cmd_equiv),
}


def _add_commands(parser: argparse.ArgumentParser, dest: str, table: dict, argv) -> None:
    """Add the table's commands to parser: only argv[0]'s when it names one.

    Any other argv (none, -h, an unknown name, --) gets every command,
    so help, usage and "invalid choice" errors list them all.  A pruned
    level keeps the full list as its metavar: an "unrecognized
    arguments" error prints the root usage line.
    """
    if argv and argv[0] in table:
        names = [argv[0]]
        extra = {"metavar": "{" + ",".join(table) + "}"}
    else:
        names, extra = list(table), {}
    sub = parser.add_subparsers(dest=dest, required=True, **extra)
    for name in names:
        summary, args, handler = table[name]
        p = sub.add_parser(name, **({} if summary is None else {"help": summary}))
        if isinstance(args, dict):
            _add_commands(p, "subcommand", args, argv[1:])
        else:
            args(p)
            _add_common(p)
            p.set_defaults(fn=handler)


def build_parser(argv=()) -> argparse.ArgumentParser:
    """The parser for argv: the root and the subtree of the command argv names.

    With no command named (the default), every command is built.
    """
    parser = _ArgumentParser(
        prog="emalp",
        description="Weighted rule programs on [0, 1]: parsing, stable models, transformations.",
    )
    _add_commands(parser, "command", _COMMANDS, list(argv))
    return parser


def _check_numbers(args) -> None:
    """Reject numeric flags that parse but that no search or fixpoint can use."""
    if not (math.isfinite(args.tol) and args.tol > 0.0):
        raise MalpError(f"--tol must be finite and > 0, got {args.tol}")
    if args.max_iter < 1:
        raise MalpError(f"--max-iter must be at least 1, got {args.max_iter}")
    if getattr(args, "seeds", 1) < 1:
        raise MalpError(f"--seeds must be at least 1, got {args.seeds}")
    if getattr(args, "budget", 0) < 0:
        raise MalpError(f"--budget must be at least 0, got {args.budget}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser(argv).parse_args(argv)
    except SystemExit as exc:  # --help, or a usage error routed to exit 1
        return int(exc.code or 0)
    try:
        _check_numbers(args)
        return args.fn(args)
    except BudgetExceeded as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (MalpError, OSError, json.JSONDecodeError) as exc:
        print(str(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
