"""Field arithmetic on indices lives in gf alone; JSON text in one writer.

Outside gf.py no module of src/rsperm reads the field's exp/log tables
(an attribute named `tables`) or branches on the characteristic being
2 (`.p` or `p` compared with 2): packed vectors go through gf.Packing
and elements through FieldElement.

Likewise every --json report goes through one writer, rsperm.cli.json_text:
json.dumps appears in src/rsperm only in that writer's fallback.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rsperm"


def _is_p(node: ast.AST) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "p") or (
        isinstance(node, ast.Name) and node.id == "p"
    )


def _is_two(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value == 2


def kernel_uses(path: Path) -> list[str]:
    """Each read of `.tables` and each comparison of p with 2, by line."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Attribute) and node.attr == "tables":
            out.append((node.lineno, ".tables"))
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(map(_is_p, operands)) and any(map(_is_two, operands)):
                out.append((node.lineno, "p compared with 2"))
    return [f"line {line}: {what}" for line, what in sorted(out)]


@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.glob("*.py") if p.name != "gf.py"),
    ids=lambda path: path.name,
)
def test_no_table_reads_or_p_branches_outside_gf(path):
    assert kernel_uses(path) == []


def test_the_guard_sees_what_it_forbids(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "exp = field.tables[0]\n"
        "a = field.p == 2\n"
        "b = 2 != p\n"
        "c = field.p > 2\n"
        "d = field.q == 2\n"
    )
    assert kernel_uses(sample) == [
        "line 1: .tables",
        "line 2: p compared with 2",
        "line 3: p compared with 2",
        "line 4: p compared with 2",
    ]


# -- one JSON writer -----------------------------------------------------------

# The one place json.dumps may run: the writer's fallback for what it
# does not write itself (module, enclosing function).
JSON_FALLBACK = ("cli.py", "_write_json")


def json_dumps_uses(path: Path) -> list[str]:
    """Each json.dumps reference (or import of dumps), with its enclosing function."""
    out = []

    def visit(node: ast.AST, function: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Attribute) and node.attr == "dumps":
            out.append((node.lineno, function))
        elif isinstance(node, ast.ImportFrom) and any(a.name == "dumps" for a in node.names):
            out.append((node.lineno, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return [f"line {line}: json.dumps in {function or 'module'}" for line, function in out]


def test_json_dumps_runs_only_in_the_writer_fallback():
    uses = [
        (path.name, use)
        for path in sorted(PACKAGE.glob("*.py"))
        for use in json_dumps_uses(path)
    ]
    module, function = JSON_FALLBACK
    assert [(name, use.split(": ")[1]) for name, use in uses] == [
        (module, f"json.dumps in {function}")
    ]


def test_the_json_guard_sees_what_it_forbids(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "import json\n"
        "from json import dumps\n"
        "def report(x):\n"
        "    return json.dumps(x, indent=2)\n"
        "text = json.dumps({})\n"
    )
    assert json_dumps_uses(sample) == [
        "line 2: json.dumps in module",
        "line 4: json.dumps in report",
        "line 5: json.dumps in module",
    ]
