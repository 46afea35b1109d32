"""exhaustive_permutations against an n! reference search.

The reference (conftest.reference_members) tries every permutation of
the coordinates and keeps pi when each rref row, pulled back by pi,
passes the code's own parity check; it uses no search routine from
rsperm.permgroup, so it shares no code with the column matching it
checks.  The comparison is list equality: the same members in the same
(lexicographic) order, on a code and on its dual, with the split of the
pivot images that the search picks and with every split 1 <= h <= k
that it may pick forced on it.
"""

import math
import random

import pytest

from conftest import reference_members
from rsperm import EvaluationSet, Field, LinearCode, Permutation, exhaustive_permutations, rs_code
from rsperm import permgroup

FIELD_ORDERS = (2, 3, 4, 5, 7, 8, 9, 16, 25, 27)
MAX_N = 7


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


def first_free_has_zero(code: LinearCode) -> bool:
    """True when the first column outside the rref pivots has a zero entry."""
    pivots = {next(j for j, x in enumerate(r) if not x.is_zero()) for r in code.rref}
    free = [j for j in range(code.n) if j not in pivots]
    return bool(free) and any(r[free[0]].is_zero() for r in code.rref)


@pytest.mark.parametrize("q", FIELD_ORDERS)
def test_search_matches_reference(q, monkeypatch):
    field = Field(q)
    rng = random.Random(2000 + q)
    cases = codes(field, rng)
    assert len(cases) >= 20
    sparse = 0
    for name, code in cases.items():
        for side, c in (("C", code), ("dual", code.dual)):
            want = reference_members(c)
            got = [p.images for p in exhaustive_permutations(c)]
            assert got == want, f"GF({q}) {name} {side} k={c.k}"
            for h in range(1, c.k + 1):
                with monkeypatch.context() as patch:
                    patch.setattr(permgroup, "_split", lambda n, k, keys, h=h: h)
                    got = [p.images for p in exhaustive_permutations(c)]
                assert got == want, f"GF({q}) {name} {side} k={c.k} h={h}"
            sparse += first_free_has_zero(c)
    # Some searches split on a column with zero entries, where a prefix
    # or a suffix of the pivot images contributes nothing to the lookup.
    assert sparse >= 5


@pytest.mark.parametrize("q", FIELD_ORDERS)
def test_search_members_pass_the_public_check(q):
    """The search wraps its images without Permutation's check, so every
    member must be one the checked constructor accepts unchanged."""
    field = Field(q)
    cases = codes(field, random.Random(2000 + q))
    for name, code in cases.items():
        for side, c in (("C", code), ("dual", code.dual)):
            for p in exhaustive_permutations(c):
                assert type(p.images) is tuple, f"GF({q}) {name} {side}"
                assert Permutation(p.images) == p, f"GF({q}) {name} {side} {p!r}"


@pytest.mark.parametrize("n", range(1, 17))
def test_split_minimises_its_cost(n):
    for k in range(1, n + 1):
        for keys in range(1, n + 1):
            cost = [math.perm(n, h) + keys * math.perm(n, k - h) for h in range(k + 1)]
            best = min(cost)
            # The least cost, and on a tie the largest h: no table.
            assert permgroup._split(n, k, keys) == max(
                h for h, c in enumerate(cost) if c == best
            ), (n, k, keys)


def test_split_of_the_benchmark_shapes():
    """n = 10, k = 5 and k = 4 with 10 distinct columns, and n = 8, k = 6."""
    assert permgroup._split(10, 5, 10) == 3  # 720 + 10 * 90 = 1620 of 30240
    assert permgroup._split(10, 4, 10) == 3  # 720 + 10 * 10 = 820 of 5040
    assert permgroup._split(8, 6, 8) == 4  # 1680 + 8 * 56 = 2128 of 20160
    assert permgroup._split(7, 1, 1) == 1  # k = 1 is never worth a table


def test_reference_sees_equal_columns():
    """The repetition code of length 4 is fixed by all of S_4."""
    field = Field(3)
    code = LinearCode(field, [[field.one] * 4])
    assert len(reference_members(code)) == 24
    assert [p.images for p in exhaustive_permutations(code)] == reference_members(code)
