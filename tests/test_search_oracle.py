"""exhaustive_permutations against an n! reference search.

The reference tries every permutation of the coordinates and keeps pi
when each rref row, pulled back by pi, passes the code's own parity
check; it imports no search routine from rsperm.permgroup, so it shares
no code with the column matching it checks.  The comparison is list
equality: the same members in the same (lexicographic) order, on a code
and on its dual.
"""

import random
from itertools import permutations

import pytest

from rsperm import EvaluationSet, Field, LinearCode, exhaustive_permutations, rs_code

FIELD_ORDERS = (2, 3, 4, 5, 7, 8, 9, 16, 25, 27)
MAX_N = 7


def reference_members(code: LinearCode) -> list[tuple[int, ...]]:
    """Every pi, 0-based, with (r[pi(0)], ..., r[pi(n-1)]) in the code for each row r."""
    return [
        pi
        for pi in permutations(range(code.n))
        if all(code.contains([row[i] for i in pi]) for row in code.rref)
    ]


def random_rows(rng: random.Random, field: Field, n: int, k: int) -> list[list]:
    """k random rows; each entry is zero with probability 0.3 + 0.7/q."""
    return [
        [field.from_index(rng.randrange(field.q)) if rng.random() < 0.7 else field.zero
         for _ in range(n)]
        for _ in range(k)
    ]


def codes(field: Field, rng: random.Random) -> dict[str, LinearCode]:
    q = field.q
    out = {}
    n = min(q, 6)
    points = EvaluationSet(field, rng.sample(field.elements(), n))
    for k in range(1, n + 1):
        out[f"RS n={n} k={k}"] = rs_code(points, k)
    for t in range(13):
        n = rng.randint(1, MAX_N)
        out[f"random {t} n={n}"] = LinearCode(
            field, random_rows(rng, field, n, rng.randint(1, n)), n=n
        )
    n = rng.randint(2, MAX_N)
    out["zero code"] = LinearCode(field, [], n=n)
    out["k=1"] = LinearCode(field, random_rows(rng, field, n, 1), n=n)
    out["k=n"] = LinearCode(
        field, [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]
    )
    n = rng.randint(3, MAX_N)
    rows = random_rows(rng, field, n, rng.randint(1, n - 1))
    for r in rows:
        r[n - 2] = r[n - 1] = r[0]
    out["repeated columns"] = LinearCode(field, rows, n=n)
    rows = random_rows(rng, field, n, rng.randint(1, n - 1))
    for r in rows:
        r[1] = field.zero
    out["zero column"] = LinearCode(field, rows, n=n)
    if n - 1 <= q:
        # An RS code with its first column repeated: not MDS once k > 1.
        base = rs_code(
            EvaluationSet(field, rng.sample(field.elements(), n - 1)), rng.randint(1, n - 1)
        )
        out["RS with a repeated column"] = LinearCode(
            field, [r + (r[0],) for r in base.rref], n=n
        )
    return out


@pytest.mark.parametrize("q", FIELD_ORDERS)
def test_search_matches_reference(q):
    field = Field(q)
    rng = random.Random(2000 + q)
    cases = codes(field, rng)
    assert len(cases) >= 20
    for name, code in cases.items():
        for side, c in (("C", code), ("dual", code.dual)):
            got = [p.images for p in exhaustive_permutations(c)]
            assert got == reference_members(c), f"GF({q}) {name} {side} k={c.k}"


def test_reference_sees_equal_columns():
    """The repetition code of length 4 is fixed by all of S_4."""
    field = Field(3)
    code = LinearCode(field, [[field.one] * 4])
    assert len(reference_members(code)) == 24
    assert [p.images for p in exhaustive_permutations(code)] == reference_members(code)
