"""Group members written by template, against json.dumps of the report's dict.

json_text writes a GroupReport itself, one template per nesting depth
with no dict per member: its text must equal json.dumps(indent=2) of
report.to_json_dict() at the depth of `group` (the report alone), of
`verify` (inside the theorem report) and deeper.  The reports come from
seeded random point sets over prime and extension fields with every
dimension, so members of degree 1 and of higher degree, bracketed
literals and both values of "equal" occur.  GF(243) gives byte slots
with m = 5 and five-digit literals, and GF(257) slots wider than a byte
and coefficient indices past 256.  GF(128), GF(256) and GF(512) give
p = 2 entries of one byte with a bit to spare, of one full byte and of
two bytes, and literals of up to nine digits.  Hand-built reports add
degree-0 members and an empty list of members.  The CLI's --json
reports never build a member's dict.
"""

import json
import random
from functools import cache

import pytest

from conftest import random_points
from rsperm import Field, Permutation, Polynomial, check_theorem
from rsperm.cli import json_text, main
from rsperm.permgroup import GroupMember, GroupReport
from rsperm.poly import affine_str

FIELDS = (4, 5, 7, 8, 9, 13, 16, 25, 27, 128, 243, 256, 257, 512)


CASES = [
    (q, n, k) for q in FIELDS for n in range(2, min(7, q) + 1) for k in range(1, n + 1)
]


@cache
def _report(q: int, n: int, k: int):
    rng = random.Random(f"report-writer:{q}:{n}")
    return check_theorem(random_points(rng, Field(q), n), k)


def _assert_dumps(text: str, value) -> None:
    """text is json.dumps(value, indent=2); on a mismatch, show where it
    starts (a full diff of two S_7 reports takes minutes)."""
    expected = json.dumps(value, indent=2)
    if text != expected:
        at = next(
            (i for i, (a, b) in enumerate(zip(text, expected)) if a != b),
            min(len(text), len(expected)),
        )
        pytest.fail(
            f"differs at char {at}: {text[at - 60 : at + 60]!r} "
            f"against {expected[at - 60 : at + 60]!r}"
        )


@pytest.mark.parametrize("q, n, k", CASES, ids=lambda v: str(v))
def test_group_text_is_json_dumps_of_its_dict(q, n, k):
    report = _report(q, n, k)
    group = report.group
    # The layouts of `group` and of `verify`: members one and two levels deep.
    _assert_dumps(json_text(group), group.to_json_dict())
    _assert_dumps(json_text(report._json_dict(group)), report.to_json_dict())


def test_the_reports_cover_every_kind_of_member():
    reports = [_report(*case) for case in CASES]
    degrees = {m.degree for r in reports for m in r.group.elements}
    assert 1 in degrees and max(degrees) >= 2
    assert any("[" in affine_str(m.poly) for r in reports for m in r.group.elements)
    assert {r.group.is_affine_equal for r in reports} == {True, False}
    assert max(r.group.order for r in reports) == 5040


def test_hand_built_reports():
    # Not groups: members of degree 0, 1 and 2 side by side, so each
    # degree's text after "poly" is made and reused, and no member at all.
    field = Field(5)
    polys = [
        Polynomial.from_ints(field, [3]),
        Polynomial.from_ints(field, [0, 1]),
        Polynomial.from_ints(field, [1, 0, 2]),
        Polynomial.from_ints(field, [4]),
        Polynomial.from_ints(field, [2, 3]),
    ]
    members = tuple(
        GroupMember(Permutation([(i + s) % 3 for i in range(3)]), f)
        for s, f in enumerate(polys)
    )
    for equal in (True, False):
        report = GroupReport(members, affine_order=2, is_affine_equal=equal)
        expected = report.to_json_dict()
        assert [m["affine"] for m in expected["elements"]] == [False, True, False, False, True]
        _assert_dumps(json_text(report), expected)
        _assert_dumps(json_text([{"group": report}, report]), [{"group": expected}, expected])
    empty = GroupReport((), affine_order=0, is_affine_equal=True)
    _assert_dumps(json_text([empty]), [empty.to_json_dict()])


@pytest.mark.parametrize(
    "argv",
    [
        ["group", "--field", "7", "--points", "0,1,2,3,4,5,6", "--k", "6", "--json"],
        [
            "verify", "--field", "9", "--points", "[0,0],[1,0],[2,0],[0,1],[1,1]",
            "--k", "1", "--json",
        ],
        ["verify", "--field", "13", "--points", "0,1,4,6", "--k", "3", "--json"],
    ],
    ids=lambda argv: argv[0] + "-gf" + argv[2],
)
def test_the_cli_builds_no_member_dict(capsys, monkeypatch, argv):
    built = []
    original = GroupMember.to_json_dict

    def spy(member):
        built.append(member)
        return original(member)

    monkeypatch.setattr(GroupMember, "to_json_dict", spy)
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert built == []
    members = (report["group"] if argv[0] == "verify" else report)["elements"]
    assert len(members) >= 1
