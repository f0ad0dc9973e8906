"""Run the mutation ledger: every mutant must fail some of its own tests.

    python mutants/run.py

Each entry is applied to a fresh copy of src/, tests/, perfbench/ and
pyproject.toml in a temporary directory, and only its own tests run
there.  The run fails if an entry's old text is missing from its file or
occurs more than once, if the entries' tests do not all pass on the
unmutated copy, or if a mutant survives: its tests pass, or pytest stops
for another reason than a failed test (an unknown id, a collection error).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from ledger import MUTANTS  # noqa: E402

COPIED = ("src", "tests", "perfbench", "pyproject.toml")
SKIPPED = shutil.ignore_patterns("__pycache__", ".work", ".out", ".hypothesis", ".pytest_cache")
TESTS_FAILED = 1   # pytest's exit code when tests ran and some failed


def _copy_tree(dest: Path) -> None:
    for name in COPIED:
        if (ROOT / name).is_dir():
            shutil.copytree(ROOT / name, dest / name, ignore=SKIPPED)
        else:
            shutil.copy2(ROOT / name, dest / name)


def _pytest(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(cwd / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *args],
                          cwd=cwd, env=env, capture_output=True, text=True)


def _tests(index: int) -> list[str]:
    tests = MUTANTS[index].tests
    if not tests:
        raise SystemExit(f"entry {index} lists no tests")
    return [f"tests/{t}" for t in tests]


def _mutate(root: Path, index: int) -> None:
    file, old, new, _ = MUTANTS[index]
    path = root / file
    text = path.read_text(encoding="utf-8")
    if text.count(old) != 1:
        raise SystemExit(f"entry {index}: {file} holds its old text {text.count(old)} times, "
                         f"not once: {old!r}")
    path.write_text(text.replace(old, new), encoding="utf-8")


def main() -> int:
    entries = range(len(MUTANTS))
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base"
        _copy_tree(base)
        result = _pytest(base, *dict.fromkeys(t for i in entries for t in _tests(i)))
        if result.returncode != 0:
            print(result.stdout[-3000:], "the tests fail without a mutant", sep="\n")
            return 1
        survivors = []
        for i in entries:
            work = Path(tmp) / f"mutant{i}"
            shutil.copytree(base, work)
            _mutate(work, i)
            result = _pytest(work, "-x", *_tests(i))
            killed = result.returncode == TESTS_FAILED
            print(f"entry {i}: {'killed' if killed else 'SURVIVED'}  {MUTANTS[i].file}: "
                  f"{MUTANTS[i].old.strip()!r}")
            if not killed:
                survivors.append(i)
                print(result.stdout[-2000:])
            shutil.rmtree(work)
    if survivors:
        print(f"{len(survivors)} mutant(s) survived: {survivors}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
