"""The runtime imports nothing outside the standard library.

Test-only packages such as sympy must never leak into src/rsperm.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rsperm"


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


def test_package_sources_found():
    assert len(list(PACKAGE.glob("*.py"))) >= 6
