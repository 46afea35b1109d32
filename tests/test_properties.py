"""Property tests of the input layer and the CLI, with hypothesis.

Every input is either answered or rejected: parsing raises ValueError
or returns, and the CLI exits 0, 1 or 2.  Whatever the CLI prints with
--json is exactly what json.dumps(indent=2) makes of it again.  The
examples are derandomized, so a run is reproducible.
"""

import contextlib
import io
import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from rsperm import Field  # noqa: E402
from rsperm.cli import main, split_top_level  # noqa: E402

PROPERTY = settings(
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

FIELDS = [Field(2), Field(13), Field(9, modulus=(2, 2, 1)), Field(16), Field(27), Field(256)]


@PROPERTY
@given(st.sampled_from(FIELDS), st.data())
def test_element_literals_round_trip(field, data):
    x = field.from_index(data.draw(st.integers(0, field.q - 1)))
    literal = str(x)
    assert field.parse(literal) == x
    assert str(field.parse(literal)) == literal


@PROPERTY
@given(st.sampled_from(FIELDS), st.text(max_size=20))
def test_parse_answers_or_rejects(field, text):
    try:
        x = field.parse(text)
    except ValueError:
        return
    assert x.field is field and 0 <= x.index < field.q


@PROPERTY
@given(st.text(alphabet=st.sampled_from("[],0123 x") | st.characters(), max_size=30))
def test_split_top_level_answers_or_rejects(text):
    try:
        parts = split_top_level(text)
    except ValueError:
        return
    assert ",".join(parts) == text


# -- the CLI ------------------------------------------------------------------

junk_literals = st.one_of(
    st.integers(-3, 20).map(str),
    st.lists(st.integers(-1, 3), max_size=4).map(
        lambda cs: "[" + ",".join(map(str, cs)) + "]"
    ),
    st.text(alphabet="[],01x -", max_size=4),
)
CLI_FIELDS = [(5, None), (7, None), (8, None), (9, "2,2,1"), (9, None), (13, None), (16, None)]


@st.composite
def cli_argvs(draw) -> list[str]:
    """One CLI call: mostly a valid instance in the field's own literals."""
    command = draw(st.sampled_from(["affine", "group", "verify", "sweep", "paper-examples"]))
    if command == "paper-examples":
        return [command]
    if command == "sweep":
        seed, trials = draw(st.integers(0, 2**64)), draw(st.integers(-1, 2))
        return [command, "--seed", str(seed), "--trials", str(trials)]
    if draw(st.integers(0, 3)) == 0:
        q = draw(st.sampled_from(["0", "1", "6", "-4", "x", "70000", "8", "9"]))
        modulus = draw(st.sampled_from([None, "2,2,1", "1,1,1", "1,0,1", "1,2", "a"]))
        points = draw(st.lists(junk_literals, max_size=6))
        k = draw(st.integers(-1, 7))
    else:
        q, modulus = draw(st.sampled_from(CLI_FIELDS))
        field = Field(q, None if modulus is None else [int(c) for c in modulus.split(",")])
        # At most six points, so that no group search is long.
        indices = draw(st.lists(st.integers(0, q - 1), min_size=2, max_size=6, unique=True))
        points = [str(field.from_index(i)) for i in indices]
        k = draw(st.integers(1, len(points)) | st.integers(-1, 7))
        if draw(st.integers(0, 3)) == 0:
            spoiler = draw(junk_literals | st.sampled_from(points))
            points.insert(draw(st.integers(0, len(points))), spoiler)
        q = str(q)
    argv = [command, "--field", q, "--points", ",".join(points)]
    if modulus is not None:
        argv += ["--modulus", modulus]
    if command != "affine":
        argv += ["--k", str(k)]
        if draw(st.integers(0, 3)) == 0:
            argv += ["--max-n", str(draw(st.integers(-2, 7)))]
    return argv


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one in-process run; argparse errors exit too."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


@PROPERTY
@given(cli_argvs(), st.booleans())
def test_cli_exit_code_is_0_1_or_2(argv, as_json):
    code, _ = run_cli(argv + ["--json"] if as_json else argv)
    assert code in (0, 1, 2)


@PROPERTY
@given(cli_argvs())
def test_cli_json_reserializes_byte_for_byte(argv):
    code, out = run_cli(argv + ["--json"])
    if code == 2:
        assert out == ""
        return
    assert json.dumps(json.loads(out), indent=2) + "\n" == out
