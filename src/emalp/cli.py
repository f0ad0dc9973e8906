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
from typing import Callable, NamedTuple, Optional

from .lattice import ADJOINT_KINDS, DEFAULT_TOL, NEGATION_KINDS, truth_value
from .parser import parse_program, serialize_program
from .program import MalpError, Program, validate_program
from .semantics import (
    DEFAULT_BUDGET,
    DEFAULT_MAX_ITER,
    PREFILTER_TOL,
    BudgetExceeded,
    FixpointTrace,
    StableSearchConfig,
    check_grid_budget,
    check_iterate_budget,
    find_stable_models,
    is_stable,
    least_model,
    reduct,
    require_total,
    rule_check,
    stable_operator,
)
from .transform import (
    METHODS,
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


def _read(path: str, decode=str):
    """The file's UTF-8 text through decode; each error in it or in decode names the file."""
    try:
        return decode(Path(path).read_text(encoding="utf-8"))
    # ValueError: not UTF-8, bad JSON, or a JSON integer past int's digit limit
    except (MalpError, ValueError, RecursionError) as exc:
        raise MalpError(f"{path}: {exc}") from None


def _load_program(path: str, args) -> Program:
    return _read(path, lambda t: parse_program(t, allow_repeats=args.allow_repeats, tol=args.tol))


def _load_interpretation(path: str, program: Program) -> dict[str, float]:
    def decode(text: str) -> dict[str, float]:
        data = json.loads(text)
        if not isinstance(data, dict):
            raise MalpError("interpretation file must hold a JSON object {atom: number}")
        I = {k: truth_value(v, f"interpretation value of {k!r}") for k, v in data.items()}
        require_total(I, program)
        return I
    return _read(path, decode)


def cmd_check(args) -> int:
    program = _read(args.file, lambda t: parse_program(t, validate=False))
    issues = validate_program(program, allow_repeats=args.allow_repeats, tol=args.tol)
    for issue in issues:
        print(issue, file=sys.stderr)
    polarity = []   # per rule, each atom's word: the sign of all its occurrences, or mixed
    for occs in program.rule_occurrences():
        words: dict[str, str] = {}
        for o in occs:
            word = "positive" if o.sign > 0 else "negative"
            words[o.atom] = word if words.get(o.atom, word) == word else "mixed"
        polarity.append(dict(sorted(words.items())))
    _emit({
        "valid": not issues,
        "class": program.classify().value,
        "atoms": list(program.atoms()),
        "rules": len(program.rules),
        "polarity": polarity,
        "continuity": check_continuity(program),
        "errors": list(issues),
    }, args.output)
    return 1 if issues else 0


def cmd_eval(args) -> int:
    program = _load_program(args.file, args)
    I = _load_interpretation(args.interpretation, program)
    rows = []
    for idx, rule in enumerate(program.rules):
        body_value, implication, satisfied = rule_check(I, rule, args.tol)
        rows.append({"rule": idx, "body": body_value, "implication": implication,
                     "satisfied": satisfied})
    _emit({"model": all(row["satisfied"] for row in rows), "rules": rows}, args.output)
    return 0


def cmd_reduct(args) -> int:
    program = _load_program(args.file, args)
    I = _load_interpretation(args.interpretation, program)
    text = serialize_program(reduct(program, I, args.tol))
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        _emit({"written": args.out, "rules": len(program.rules)}, args.output)
    else:
        sys.stdout.write(text)
    return 0


def cmd_lfp(args) -> int:
    program = _load_program(args.file, args)
    # Kleene from bottom reaches the least model of the definite rules when T
    # is monotone, that is when none of them reads an atom order-reversingly
    if any(o.sign < 0 for r, occs in zip(program.rules, program.rule_occurrences())
           if not r.is_constraint for o in occs):
        print("note: program is not positive; the fixpoint is not guaranteed "
              "to be a least model", file=sys.stderr)
    if program.constraints():
        print("note: lfp iterates the definite rules only; it does not check "
              "the constraint rules", file=sys.stderr)
    value, trace = least_model(program, args.tol, args.max_iter)
    if args.output == "table":
        for line in _trace_table(program.atoms(), trace):
            print(line)
    else:
        _emit({"least_model": value, "trace": trace.to_json()}, "json")
    return 0


def cmd_stable_verify(args) -> int:
    program = _load_program(args.file, args)
    I = _load_interpretation(args.interpretation, program)
    trace = stable_operator(program, I, args.tol, args.max_iter)[1]
    verdict = is_stable(program, I, args.tol, args.max_iter)
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
    else:
        check_iterate_budget(args.seeds, args.max_iter, args.budget)
    cfg = StableSearchConfig(
        mode="grid" if args.grid is not None else "iterate",
        grid_step=args.grid if args.grid is not None else StableSearchConfig.grid_step,
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
        "stable_models": models,
    }
    if cfg.mode == "grid":
        report["undecided"] = undecided
        if undecided:
            print(f"note: {len(undecided)} grid point(s) undecided: the inner fixpoint "
                  f"did not converge within --max-iter {args.max_iter}", file=sys.stderr)
    elif not models:
        print(f"note: no stable model found from {cfg.seeds} start(s): iterate mode is not "
              "exhaustive, while --grid checks every point of its grid", file=sys.stderr)
    _emit(report, args.output)
    return 0


_TRANSFORMS = {
    "fc": eliminate_constraints_fc,
    "janssen": eliminate_constraints_janssen,
}


def cmd_transform(args) -> int:
    program = _load_program(args.file, args)
    stem = Path(args.file).with_suffix("")
    out_path = Path(args.out) if args.out else Path(f"{stem}.{args.method}.malp")
    rec_path = Path(args.record) if args.record else Path(f"{stem}.{args.method}.record.json")
    seen: dict = {}   # (inode, device), or the absolute path not written yet -> (flag, path)
    paths = (("the source", Path(args.file)), ("--out", out_path), ("--record", rec_path))
    for what, path in paths:
        try:
            key = path.stat()[1:3]
        except OSError:
            key = path.absolute()
        first, same = seen.setdefault(key, (what, path))
        if same is not path:
            raise MalpError(f"{what} {path} and {first} {same} are the same file; "
                            "transform writes neither")
    if args.method == "manlp":
        target, rec = to_manlp(program, args.neg)
    else:
        target, rec = _TRANSFORMS[args.method](program, args.impl, args.conj, args.neg)
    out_path.write_text(serialize_program(target), encoding="utf-8")
    rec_path.write_text(json.dumps(rec, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    _emit({
        "method": args.method,
        "source_rules": len(program.rules),
        "target_rules": len(target.rules),
        "target_class": target.classify().value,
        "fresh_atoms": rec["fresh_atoms"],
        "target_file": str(out_path),
        "record_file": str(rec_path),
    }, args.output)
    return 0


def cmd_equiv(args) -> int:
    source = _load_program(args.source, args)
    target = _load_program(args.target, args)
    rec = _read(args.record, lambda text: record_from_json(json.loads(text), source, target))
    report = verify_equivalence(source, target, rec, args.grid, args.tol,
                                max_points=args.budget, max_iter=args.max_iter)
    if report["bijection"] == "indeterminate":
        print(f"note: {len(report['source_undecided'])} source and "
              f"{len(report['target_undecided'])} target grid point(s) undecided: the inner "
              f"fixpoint did not converge within --max-iter {args.max_iter}; bijection is "
              "indeterminate", file=sys.stderr)
    elif not report["source_count"] and not report["target_count"]:
        print("note: neither program has a stable model on this grid, so the bijection "
              "is vacuous", file=sys.stderr)
    _emit(report, args.output)
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    # usage problems are input errors (exit 1); 2 is reserved for budgets
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


class _Arg(NamedTuple):
    """One argument, as both argv readers take it; a positional's flags are its name."""
    flags: tuple[str, ...]   # the long flag last: argparse names the attribute after it
    type: Optional[Callable] = None
    choices: Optional[tuple] = None
    default: object = None
    required: bool = False
    help: Optional[str] = None
    store_true: bool = False

    @property
    def dest(self) -> str:
        return self.flags[-1].lstrip("-").replace("-", "_")


_COMMON = (
    _Arg(("--tol",), float, default=DEFAULT_TOL),
    _Arg(("--max-iter",), int, default=DEFAULT_MAX_ITER),
    _Arg(("--output",), choices=("json", "table"), default="json"),
    _Arg(("--allow-repeats",), default=False, store_true=True,
         help="accept duplicate same-polarity body atoms"),
)
_FILE = (_Arg(("file",)),)
_FILE_INTERP = _FILE + (_Arg(("-i", "--interpretation"), required=True),)
_BUDGET = _Arg(("--budget",), int, default=DEFAULT_BUDGET)


def _add_args(p: argparse.ArgumentParser, args: tuple[_Arg, ...]) -> None:
    for a in args:
        kind = ({"action": "store_true"} if a.store_true
                else {"type": a.type, "choices": a.choices})
        if a.required:
            kind["required"] = True
        p.add_argument(*a.flags, default=a.default, help=a.help, **kind)


# name -> (help, arguments before the common ones, handler); a nested
# table takes the arguments' place for a command with subcommands
_STABLE = {
    "verify": (None, _FILE_INTERP, cmd_stable_verify),
    "search": (None, _FILE + (
        _Arg(("--grid",), float, help="grid step for exhaustive search"),
        _Arg(("--seeds",), int, default=StableSearchConfig.seeds),
        _Arg(("--rng-seed",), int, default=StableSearchConfig.rng_seed), _BUDGET,
    ), cmd_stable_search),
}

_COMMANDS = {
    "check": ("parse, validate, classify, and report continuity", _FILE, cmd_check),
    "eval": ("check whether an interpretation is a model", _FILE_INTERP, cmd_eval),
    "reduct": ("emit the reduct with respect to an interpretation",
               _FILE_INTERP + (_Arg(("-o", "--out")),), cmd_reduct),
    "lfp": ("least model of a positive program, with trace", _FILE, cmd_lfp),
    "stable": ("verify or search for stable models", _STABLE, None),
    "transform": ("rewrite a program, writing target and record", _FILE + (
        _Arg(("--method",), choices=METHODS, required=True),
        _Arg(("--impl",), choices=ADJOINT_KINDS, default="lukasiewicz"),
        _Arg(("--conj",), choices=ADJOINT_KINDS, default="godel"),
        _Arg(("--neg",), choices=NEGATION_KINDS, default="neg1"),
        _Arg(("-o", "--out")), _Arg(("--record",)),
    ), cmd_transform),
    "equiv": ("grid-exhaustive stable-model equivalence check", (
        _Arg(("source",)), _Arg(("target",)), _Arg(("--record",), required=True),
        _Arg(("--grid",), float, required=True), _BUDGET,
    ), cmd_equiv),
}


def _add_commands(parser: argparse.ArgumentParser, dest: str, table: dict) -> None:
    sub = parser.add_subparsers(dest=dest, required=True)
    for name, (summary, args, handler) in table.items():
        p = sub.add_parser(name, **({} if summary is None else {"help": summary}))
        if isinstance(args, dict):
            _add_commands(p, "subcommand", args)
        else:
            _add_args(p, args + _COMMON)
            p.set_defaults(fn=handler)


def _read_argv(argv: list[str]) -> Optional[argparse.Namespace]:
    """argparse's namespace for a well-formed argv, read from the table in one pass.

    Well-formed: the command (and subcommand) word, exact option strings
    each with a value not starting with "-", the command's positionals,
    and values that pass `type` and `choices`.  Anything else gives None,
    for `build_parser`, the only source of help, usage and error text.
    """
    ns, table, words = {}, _COMMANDS, iter(argv)
    for level in ("command", "subcommand"):
        ns[level] = word = next(words, None)
        if word not in table:
            return None
        _, args, handler = table[word]
        if not isinstance(args, dict):
            break
        table = args
    args += _COMMON
    options = {flag: a for a in args for flag in a.flags if flag.startswith("-")}
    positionals = [a for a in args if not a.flags[0].startswith("-")]
    ns.update((a.dest, a.default) for a in args if not a.required)
    for word in words:
        a = options.get(word)
        if not word.startswith("-") and positionals:
            a, value = positionals.pop(0), word
        elif a is None:
            return None   # an unknown option, "--", "-", or one positional too many
        elif a.store_true:
            ns[a.dest] = True
            continue
        else:
            value = next(words, "-")
            if value.startswith("-"):
                return None
        try:
            value = (a.type or str)(value)
        except (TypeError, ValueError):
            return None
        if a.choices is not None and value not in a.choices:
            return None
        ns[a.dest] = value
    if positionals or any(a.dest not in ns for a in args):   # one is missing
        return None
    return argparse.Namespace(**ns, fn=handler)


def build_parser() -> argparse.ArgumentParser:
    """The whole argparse tree, for help, usage and the argv `_read_argv` declines."""
    parser = _ArgumentParser(
        prog="emalp",
        description="Weighted rule programs on [0, 1]: parsing, stable models, transformations.",
    )
    _add_commands(parser, "command", _COMMANDS)
    return parser


# the grid walk drops points more than PREFILTER_TOL off a fixpoint, whatever --tol is
GRID_TOL_CEILING = PREFILTER_TOL / 10


def _check_numbers(args) -> None:
    """Reject numeric flags that parse but that no search or fixpoint can use."""
    if not (math.isfinite(args.tol) and args.tol > 0.0):
        raise MalpError(f"--tol must be finite and > 0, got {args.tol}")
    if getattr(args, "grid", None) is not None and args.tol > GRID_TOL_CEILING:
        raise MalpError(f"--tol must be at most {GRID_TOL_CEILING:g} with --grid, got "
                        f"{args.tol}: the grid search drops points more than "
                        f"{PREFILTER_TOL:g} off a fixpoint, which a larger --tol could accept")
    if args.max_iter < 1:
        raise MalpError(f"--max-iter must be at least 1, got {args.max_iter}")
    if getattr(args, "seeds", 1) < 1:
        raise MalpError(f"--seeds must be at least 1, got {args.seeds}")
    if getattr(args, "budget", 0) < 0:
        raise MalpError(f"--budget must be at least 0, got {args.budget}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _read_argv(argv) or build_parser().parse_args(argv)
    except SystemExit as exc:  # --help, or a usage error routed to exit 1
        return int(exc.code or 0)
    try:
        _check_numbers(args)
        return args.fn(args)
    except BudgetExceeded as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (MalpError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
