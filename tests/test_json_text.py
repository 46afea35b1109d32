"""The --json writer against its oracle, json.dumps(indent=2).

json_text must give the stdlib's text byte for byte, whatever the
value: the examples are drawn from nested lists and dicts of every
JSON scalar, with text that needs escaping and ints of any width, plus
values the writer hands back to json.dumps (floats, tuples, int keys).
The examples are derandomized, so a run is reproducible.
"""

import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from rsperm.cli import json_text  # noqa: E402

PROPERTY = settings(
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# Quotes, backslashes, control characters, non-ASCII (one astral) and a
# lone surrogate, which ASCII output spells as an escape.
TRICKY = ['"', "\\", "/", "\x00", "\x1f", "\x7f", "\n", "\t", "é", "€", "\U0001f600", "\ud800"]
tricky_text = st.text(
    st.sampled_from(TRICKY + ["a", " "]) | st.characters(),
    max_size=12,
)
ints = st.integers(-5, 5) | st.integers(-(2**64), 2**64) | st.integers(-(2**200), 2**200)
scalars = st.none() | st.booleans() | ints | tricky_text
# What the writer does not write itself: json.dumps does, at its depth.
handed_back = st.floats(allow_nan=True, allow_infinity=True)


def nested(children):
    return (
        st.lists(children, max_size=5)
        | st.dictionaries(tricky_text, children, max_size=5)
        | st.lists(ints, max_size=5)
        | st.lists(ints | st.booleans(), max_size=5)
        | st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(st.integers(-3, 3), children, max_size=3)
    )


values = st.recursive(scalars | handed_back, nested, max_leaves=40)


@PROPERTY
@given(values)
def test_json_text_is_json_dumps_indent_2(value):
    assert json_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize(
    "value",
    [
        [],
        {},
        [[]],
        {"a": {}},
        [[], {}, [[]]],
        [True, 1, False, 0],
        [1, -2, 2**70],
        [1, 2.5],
        {"perm": [2, 3, 1, 4], "poly": "[1,0]*x^2 + x", "degree": 2, "affine": False},
        {"k": None, "t": (1, [2, {}])},
    ],
    ids=repr,
)
def test_json_text_on_chosen_values(value):
    assert json_text(value) == json.dumps(value, indent=2)
