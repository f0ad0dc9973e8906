"""Same answers, as a test: every CLI call on the benchmark's programs
gives the exit code, stdout, stderr and written files recorded in
`cli_golden.json`.

The programs are the distinct `.malp` inputs of the three workloads in
`perfbench/workloads.py`.  On each, `calls` runs `check`, `lfp`, `eval`,
`reduct` and `stable verify` at the all-0.5 interpretation, `stable
search` on the 0.5 grid and from 8 seeds, and rewrites then `equiv` on
the 0.5 grid: `fc` and `janssen` for a program with constraints,
`manlp` for one without.  A call's digest is 8 hex digits of a SHA-256
of its exit code, stdout, stderr and written files, with the temporary
directory masked.  The test runs a fixed stride of the programs;

    python tests/test_cli_golden.py            # every program, naming each call that differs
    python tests/test_cli_golden.py --record   # rewrite cli_golden.json
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path

from conftest import gen
from emalp import parse_program
from emalp.cli import main

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "cli_golden.json"
STRIDE = 30   # programs the tier-1 test runs: every STRIDE-th, about 15 of them


def _workloads():
    """perfbench/workloads.py, loaded from its file; it imports `gen` by that name."""
    spec = importlib.util.spec_from_file_location(
        "emalp_bench_workloads", HERE.parent / "perfbench" / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)   # for its dataclass
    saved = sys.modules.get("gen")
    sys.modules["gen"] = gen
    try:
        spec.loader.exec_module(module)
    finally:
        if saved is None:
            del sys.modules["gen"]
        else:
            sys.modules["gen"] = saved
    return module


@functools.cache
def programs() -> dict[str, str]:
    """Every distinct .malp input of the workloads, name -> text, by name."""
    files = {}
    for workload in _workloads().WORKLOADS.values():
        files.update(workload().inputs())
    return {name: text for name, text in sorted(files.items()) if name.endswith(".malp")}


def calls(text: str) -> list[tuple[str, ...]]:
    """The argv of each call on a program, with {src}, {half}, {target} and {record} in paths."""
    out = [("check", "{src}"), ("lfp", "{src}", "--max-iter", "50"),
           ("eval", "{src}", "-i", "{half}"), ("reduct", "{src}", "-i", "{half}"),
           ("stable", "verify", "{src}", "-i", "{half}"),
           ("stable", "search", "{src}", "--grid", "0.5"),
           ("stable", "search", "{src}", "--seeds", "8")]
    constrained = bool(parse_program(text, validate=False).constraints())
    for method in ("fc", "janssen") if constrained else ("manlp",):
        out += [("transform", "{src}", "--method", method, "-o", "{target}",
                 "--record", "{record}"),
                ("equiv", "{src}", "{target}", "--record", "{record}", "--grid", "0.5")]
    return out


def _digest(rc: int, stdout: str, stderr: str, written: list[str], tmp: str) -> str:
    h = hashlib.sha256()
    for part in [str(rc), stdout, stderr, *written]:
        h.update(part.replace(tmp, "$TMP").encode() + b"\0")
    return h.hexdigest()[:8]


def run_program(name: str, text: str) -> list[str]:
    """The digest of each of the program's calls, in `calls` order."""
    atoms = parse_program(text, validate=False).atoms()
    digests = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        paths = {"src": work / name, "half": work / "half.json"}
        paths["src"].write_text(text, encoding="utf-8")
        paths["half"].write_text(json.dumps(dict.fromkeys(atoms, 0.5)), encoding="utf-8")
        for argv in calls(text):
            if argv[0] == "transform":
                paths["target"] = work / f"target.{argv[3]}.malp"
                paths["record"] = work / f"target.{argv[3]}.json"
            argv = [a.format(**{k: str(v) for k, v in paths.items()}) for a in argv]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(argv)
            written = ([paths[k].read_text(encoding="utf-8") for k in ("target", "record")]
                       if argv[0] == "transform" else [])
            digests.append(_digest(rc, out.getvalue(), err.getvalue(), written, tmp))
    return digests


def differences(names) -> list[str]:
    """One line per call whose digest is not the recorded one."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    texts = programs()
    lines = []
    for name in names:
        got = run_program(name, texts[name])
        for argv, want, have in zip(calls(texts[name]), golden[name], got):
            if want != have:
                lines.append(f"{name}: {' '.join(argv)}: recorded {want}, got {have}")
    return lines


def test_the_corpus_covers_the_workload_programs():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    texts = programs()
    assert sorted(golden) == sorted(texts) and len(texts) == 451
    assert all(len(golden[n]) == len(calls(texts[n])) for n in texts)


def test_a_stride_of_the_programs_gives_the_recorded_answers():
    assert differences(sorted(programs())[::STRIDE]) == []


def record() -> None:
    lines = [f"{json.dumps(name)}: {json.dumps(run_program(name, text))}"
             for name, text in programs().items()]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"recorded {len(lines)} programs in {GOLDEN.name}")


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        record()
    else:
        found = differences(sorted(programs()))
        print("\n".join(found) or "every call gives its recorded answer")
        sys.exit(1 if found else 0)
