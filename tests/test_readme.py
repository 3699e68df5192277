"""The README's worked examples, run as written."""
import doctest
import re
import shlex
from pathlib import Path

import pytest

from cyclosum.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(section: str, lang: str) -> str:
    """The first ```lang block under the ## heading `section`."""
    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return body.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def _cli_examples() -> list[tuple[str, str]]:
    """(command, expected stdout) for each cyclosum line with an output comment."""
    text = _block("Command line", "sh").replace("\\\n", " ")
    out = []
    for line in text.splitlines():
        match = re.fullmatch(r"(cyclosum .*?)\s+#\s*(.+)", line)
        if match:
            out.append(match.groups())
    return out


def test_readme_has_cli_examples():
    assert len(_cli_examples()) >= 8


@pytest.mark.parametrize("command, expected", _cli_examples())
def test_readme_cli_example(capsys, command, expected):
    code = main(shlex.split(command)[1:])
    assert (code, capsys.readouterr().out) == (0, expected + "\n")


def test_readme_library_block():
    parser = doctest.DocTestParser()
    test = parser.get_doctest(_block("Library", "pycon"), {}, "README Library", "README.md", 0)
    runner = doctest.DocTestRunner()
    result = runner.run(test)
    assert result.attempted >= 4 and result.failed == 0
