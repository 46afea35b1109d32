"""The runtime imports nothing outside the standard library.

Test-only packages such as sympy must never leak into src/rsperm.  Nor
does it import dataclasses or typing: with what they pull in (inspect,
ast, dis, tokenize) they cost a one-shot command more to import than
it takes to answer, so the value classes are plain classes and the
annotation-only names come from collections.abc.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rsperm"

# Modules that no import of rsperm may load.
NOT_LOADED = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing")


def imported_modules(path: Path) -> list[str]:
    """Top-level names of every absolute import in a source file."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            out.extend(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.append(node.module.split(".")[0])
    return out


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name
)
def test_imports_are_stdlib_or_package(path):
    foreign = [
        name
        for name in imported_modules(path)
        if name not in sys.stdlib_module_names and name != "rsperm"
    ]
    assert foreign == []
    assert [name for name in imported_modules(path) if name in NOT_LOADED] == []


def test_package_sources_found():
    assert len(list(PACKAGE.glob("*.py"))) >= 6


@pytest.mark.parametrize("module", ["rsperm", "rsperm.cli"])
def test_import_loads_none_of_the_slow_modules(module):
    """A bare interpreter (-S: no site, whose .pth files may import
    anything) loads none of NOT_LOADED on importing the package."""
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(PACKAGE.parent)!r})\n"
        f"import {module}\n"
        f"print(sorted(set({NOT_LOADED!r}) & set(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    )
    assert proc.stdout == "[]\n"
