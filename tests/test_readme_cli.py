"""The examples of README.md run, and the counts they quote hold."""

import doctest
import re
import shlex
from pathlib import Path

import pytest

from fanocalc.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _cli_examples() -> list[tuple[str, str]]:
    """``(command, trailing comment)`` for each line of the sh block under ``## CLI``."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    examples = []
    for line in block.splitlines():
        command, _, comment = line.partition(" #")
        examples.append((command.strip(), comment.strip()))
    return examples


EXAMPLES = _cli_examples()


def test_readme_library_example_runs():
    """The ``>>>`` block under ``## Library overview`` passes as a doctest."""
    section = README.read_text(encoding="utf-8").split("\n## Library overview\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    test = doctest.DocTestParser().get_doctest(block, {}, "README.md", str(README), 0)
    results = doctest.DocTestRunner().run(test)
    assert results.attempted >= 5
    assert results.failed == 0


def test_readme_has_cli_examples():
    assert len(EXAMPLES) >= 10
    assert all(command.startswith("fanocalc ") for command, _ in EXAMPLES)


@pytest.mark.parametrize("command,comment", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example_runs(capsys, command, comment):
    assert main(shlex.split(command)[1:]) == 0
    out = capsys.readouterr().out
    if re.fullmatch(r"-?\d+", comment):
        assert out.strip() == comment
