"""README's library example runs as written, and its CLI lines parse, so
both follow the API."""

import ast
import shlex
from pathlib import Path

from conftest import MOTOR_TEXT
from emalp.cli import _read_argv, build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The first python block under `## Library`, at its own line numbers."""
    text = README.read_text(encoding="utf-8")
    start = text.index("```python\n", text.index("\n## Library\n")) + len("```python\n")
    return "\n" * text.count("\n", 0, start) + text[start:text.index("```", start)]


def test_the_library_example_runs(tmp_path, monkeypatch):
    (tmp_path / "motor.malp").write_text(MOTOR_TEXT)
    monkeypatch.chdir(tmp_path)
    exec(compile(library_example(), str(README), "exec"), {})


def test_the_library_example_uses_every_name_it_imports():
    tree = ast.parse(library_example())
    imported = {alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def test_each_readme_cli_line_parses():
    text = README.read_text(encoding="utf-8")
    start = text.index("```sh\n", text.index("\n## CLI\n")) + len("```sh\n")
    lines = [shlex.split(line, comments=True) for line in text[start:text.index("```", start)]
             .splitlines() if line.startswith("emalp ")]
    assert lines
    for _, *argv in lines:
        expected = build_parser().parse_args(argv)   # a usage error exits
        assert vars(_read_argv(argv)) == vars(expected), argv
