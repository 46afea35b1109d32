"""Field arithmetic on indices lives in gf alone; JSON text in one writer.

Outside gf.py no module of src/rsperm reads the field's exp/log tables
(an attribute named `tables`) or branches on the characteristic being
2 (`.p` or `p` compared with 2): packed vectors go through gf.Packing
and elements through FieldElement.

Likewise every --json report goes through one writer, rsperm.cli.json_text,
which also writes the members of a group report itself, by template:
json.dumps appears in src/rsperm only in that writer's fallback.  And a
field makes its element objects in one place: FieldElement is called in
src/rsperm only inside Field.tables, which interns one per index.

And the two computations of a permutation group stay independent:
nothing that exhaustive_permutations reaches in permgroup.py names the
affine enumeration, the evaluation points or interpolation.
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


# -- one place that makes elements ---------------------------------------------

# The one function that may make FieldElements, by calling the class or
# the bulk constructor _filled on it: (module, Class.function).
ELEMENT_MAKER = ("gf.py", "Field.tables")


def _called_name(node: ast.expr) -> str | None:
    """The name of a called or passed expression, bare or as an attribute."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def element_calls(path: Path) -> list[str]:
    """Each call of FieldElement, or of _filled with FieldElement first
    (either bare or as an attribute), with its enclosing Class.function."""
    out = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = (*scope, node.name)
        if isinstance(node, ast.Call):
            name = _called_name(node.func)
            if name == "_filled" and node.args:
                name = _called_name(node.args[0])
            if name == "FieldElement":
                out.append((node.lineno, ".".join(scope) or "module"))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(), filename=str(path)), ())
    return [f"line {line}: FieldElement in {scope}" for line, scope in out]


def test_field_element_is_made_only_in_field_tables():
    uses = [
        (path.name, use.split(": ")[1])
        for path in sorted(PACKAGE.glob("*.py"))
        for use in element_calls(path)
    ]
    module, function = ELEMENT_MAKER
    assert uses == [(module, f"FieldElement in {function}")]


def test_the_element_guard_sees_what_it_forbids(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from rsperm import gf\n"
        "zero = FieldElement(field, 0)\n"
        "class Field:\n"
        "    def element(self, i):\n"
        "        return gf.FieldElement(self, i)\n"
        "    def tables(self):\n"
        "        return [FieldElement(self, i) for i in range(self.q)]\n"
        "    def cached(self):\n"
        "        return gf._filled(gf.FieldElement, [self] * self.q, range(self.q))\n"
        "text = repr(FieldElement)\n"
        "label = f'FieldElement({zero})'\n"
        "perms = _filled(Permutation, [(0, 1)])\n"
    )
    assert element_calls(sample) == [
        "line 2: FieldElement in module",
        "line 5: FieldElement in Field.element",
        "line 7: FieldElement in Field.tables",
        "line 9: FieldElement in Field.cached",
    ]


# -- the search stays independent of the points --------------------------------

# What the search must not reach: the affine enumeration, the points and
# interpolation make up the other computation of the group.
NOT_IN_SEARCH = {"affine_group", "EvaluationSet", "perm_to_poly", "interpolate"}
SEARCH_HELPERS = {
    "exhaustive_permutations", "_search", "_accepted", "_listed",
    "_Columns", "_images", "_member", "_grow", "_square_dual", "_square_pays",
    "_cost", "_split", "_check_cap",
}


def reached_from(path: Path, root: str) -> dict[str, set[str]]:
    """The module-level functions and classes of the file that root reaches
    by name, each with every name and attribute it uses."""
    tree = ast.parse(path.read_text(), filename=str(path))
    defs = {
        node.name: node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    reached: dict[str, set[str]] = {}
    todo = [root]
    while todo:
        name = todo.pop()
        if name in reached or name not in defs:
            continue
        used = set()
        for node in ast.walk(defs[name]):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
        reached[name] = used
        todo.extend(used)
    return reached


def independence_breaches(path: Path, root: str) -> list[str]:
    return sorted(
        f"{name} names {bad}"
        for name, used in reached_from(path, root).items()
        for bad in used & NOT_IN_SEARCH
    )


def test_the_search_never_names_the_points():
    path = PACKAGE / "permgroup.py"
    assert SEARCH_HELPERS <= set(reached_from(path, "exhaustive_permutations"))
    assert independence_breaches(path, "exhaustive_permutations") == []


def test_the_independence_guard_sees_what_it_forbids(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "def exhaustive_permutations(code):\n"
        "    return _helper(code) + [affine_group]\n"
        "def _helper(code):\n"
        "    return Aux(code).run()\n"
        "class Aux:\n"
        "    def run(self):\n"
        "        return self.points.interpolate(EvaluationSet)\n"
        "def unrelated():\n"
        "    return perm_to_poly\n"
    )
    assert set(reached_from(sample, "exhaustive_permutations")) == {
        "exhaustive_permutations", "_helper", "Aux"
    }
    assert independence_breaches(sample, "exhaustive_permutations") == [
        "Aux names EvaluationSet",
        "Aux names interpolate",
        "exhaustive_permutations names affine_group",
    ]
