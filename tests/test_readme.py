"""The README's examples run as printed.

The Python block is executed and its printed line compared with the
comment under it; every `rsperm ...` line of the shell blocks is passed
to rsperm.cli.main in process and must exit 0.  The JSON sample is
the opening of what its command prints.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from rsperm.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", README, re.S | re.M)


def cli_lines() -> list[str]:
    lines = []
    for block in blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("rsperm "):
                lines.append(line)
    return lines


def test_python_example_prints_its_comment():
    [block] = blocks("python")
    expected = [line[2:] for line in block.splitlines() if line.startswith("# ")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    assert out.getvalue().splitlines() == expected == ["6 3 False"]


def test_readme_lists_six_cli_examples():
    assert len(cli_lines()) == 6


@pytest.mark.parametrize("line", cli_lines())
def test_cli_example_exits_0(line):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(shlex.split(line)[1:]) == 0


def test_json_sample_is_the_opening_of_its_command():
    [block] = blocks("json")
    *opening, ellipsis = block.splitlines(keepends=True)
    assert ellipsis.strip() == "..."
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["group", "--field", "13", "--points", "0,1,4,6", "--k", "3", "--json"])
    assert out.getvalue().startswith("".join(opening))
