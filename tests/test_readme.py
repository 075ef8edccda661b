"""The README's examples, run as they are shown.

The quick start, the README's `pycon` block, runs as a doctest with
ELLIPSIS. Each `$ toepcond ARGS    # exits N` line of a `console` block runs
in process through toepcond.cli.main, with stdout and stderr captured into
one stream, as a terminal shows them: its output must be the lines that
follow it up to the next `$` line or the end of the block, and its exit
code N. The Layout block names each module of the package but `__init__.py`.
"""

import ast
import contextlib
import doctest
import io
import re
import shlex
from pathlib import Path

import pytest

from toepcond.cli import _plain_args, main

README = Path(__file__).resolve().parents[1] / "README.md"
FENCE = re.compile(r"^```(\w*)\n(.*?)^```$", re.MULTILINE | re.DOTALL)
COMMAND = re.compile(r"\$ toepcond (.+?)\s+# exits (\d)")
# a backticked test name, alone or under its class, its file or both: `file.py::Class::test_name`
CITATION = re.compile(r"`((?:\w+\.py::)?(?:\w+::)?test_\w+)`")


def _blocks(language: str) -> list:
    return [body for lang, body in FENCE.findall(README.read_text()) if lang == language]


def _examples() -> list:
    """(argv, exit code, output) of each `$ toepcond` line, in README order."""
    examples = []
    for block in _blocks("console"):
        for chunk in filter(None, re.split(r"^(?=\$ )", block, flags=re.MULTILINE)):
            command, _, output = chunk.partition("\n")
            match = COMMAND.fullmatch(command)
            assert match, f"not a `$ toepcond ARGS    # exits N` line: {command!r}"
            examples.append((shlex.split(match[1]), int(match[2]), output))
    return examples


EXAMPLES = _examples()


def test_quick_start_runs_as_shown():
    (block,) = _blocks("pycon")
    test = doctest.DocTestParser().get_doctest(block, {}, "README quick start", str(README), 0)
    report = []
    failed, attempted = doctest.DocTestRunner(optionflags=doctest.ELLIPSIS).run(test, out=report.append)
    assert attempted == len(test.examples) > 0
    assert failed == 0, "".join(report)


def test_every_subcommand_has_an_example():
    assert {argv[0] for argv, _, _ in EXAMPLES} == {"verify", "extremal", "search", "bound"}


@pytest.mark.parametrize("argv, code, output", EXAMPLES, ids=[" ".join(argv) for argv, _, _ in EXAMPLES])
def test_command_prints_what_the_readme_shows(argv, code, output, monkeypatch):
    # argparse wraps usage at the terminal width, which COLUMNS sets first
    monkeypatch.setenv("COLUMNS", "80")
    terminal = io.StringIO()
    with contextlib.redirect_stdout(terminal), contextlib.redirect_stderr(terminal):
        returned = main(argv)
    assert (returned, terminal.getvalue()) == (code, output)


@pytest.mark.parametrize("argv", [argv for argv, code, _ in EXAMPLES if code == 0],
                         ids=[" ".join(argv) for argv, code, _ in EXAMPLES if code == 0])
def test_each_passing_example_is_read_without_argparse(argv):
    assert _plain_args(argv) is not None


def test_layout_names_every_module():
    (layout,) = [body for body in _blocks("") if body.startswith("src/toepcond/\n")]
    named = set(re.findall(r"^  (\w+\.py) ", layout, flags=re.MULTILINE))
    modules = {path.name for path in README.parent.joinpath("src", "toepcond").glob("*.py")} - {"__init__.py"}
    assert named == modules


def _node_ids() -> set:
    """file.py::test_name and file.py::Class::test_name of every test function under tests/."""
    ids = set()
    for path in README.parent.joinpath("tests").glob("test_*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                ids.update(f"{path.name}::{node.name}::{f.name}" for f in node.body if isinstance(f, ast.FunctionDef))
            elif isinstance(node, ast.FunctionDef):
                ids.add(f"{path.name}::{node.name}")
    return ids


def test_every_cited_test_exists():
    # a citation is the tail of a node id: a test renamed, or moved into or out of a class, no longer matches
    cited, ids = CITATION.findall(README.read_text()), _node_ids()
    missing = [c for c in cited if not any(i == c or i.endswith("::" + c) for i in ids)]
    assert cited and not missing, missing
