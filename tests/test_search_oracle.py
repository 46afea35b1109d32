"""exhaustive_permutations against an n! reference search.

The reference (conftest.reference_members) tries every permutation of
the coordinates and keeps pi when each rref row, pulled back by pi,
passes the code's own parity check; it uses no search routine from
rsperm.permgroup, so it shares no code with the column matching it
checks.  The comparison is list equality: the same members in the same
(lexicographic) order, on a code and on its dual, along the path the
search picks, along the reduced path through D = (C * C)^perp with its
cost gate forced open, and along the direct path with the gate forced
shut and every split 1 <= h <= k that it may pick forced on it.  With
h >= 2 the search lists a transversal times a stabilizer, so the codes
must include groups whose orbit of the first pivot has several points.
"""

import itertools
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
    # Codes whose square dual D = (C * C)^perp has 0 < dim D < k: RS codes
    # with n = 2k and n = 2k + 1 (dim D = 1 and 2), and random codes with
    # 2k <= n < k + k(k+1)/2.
    for k in (2, 3):
        for n in (2 * k, 2 * k + 1):
            if n <= min(q, MAX_N):
                points = EvaluationSet(field, rng.sample(field.elements(), n))
                out[f"RS n={n} k={k} (square)"] = rs_code(points, k)
    for k, n in ((2, 4), (3, 6), (3, 7)):
        out[f"random n={n} k={k} (square)"] = LinearCode(
            field, random_rows(rng, field, n, k), n=n
        )
    out["square is the whole space"] = whole_square_code(field)
    if q % 2 == 0 and q <= MAX_N:
        # n = 2k on all of GF(q): D is the repetition code, so Per(D) = S_n.
        out["all of GF(q), n = 2k"] = rs_code(EvaluationSet.full_field(field), q // 2)
    return out


def whole_square_code(field: Field) -> LinearCode:
    """A code with k = 3, n = 6 whose six row products span all of F_q^6."""
    rows = ((1, 0, 0, 1, 1, 1), (0, 1, 0, 1, 1, 0), (0, 0, 1, 1, 0, 1))
    return LinearCode(field, [[field.from_index(x) for x in r] for r in rows])


def first_free_has_zero(code: LinearCode) -> bool:
    """True when the first column outside the rref pivots has a zero entry."""
    pivots = {next(j for j, x in enumerate(r) if not x.is_zero()) for r in code.rref}
    free = [j for j in range(code.n) if j not in pivots]
    return bool(free) and any(r[free[0]].is_zero() for r in code.rref)


def gate(is_open: bool):
    """A stand-in for permgroup._square_pays, always open or always shut."""
    return lambda n, k, cost: is_open


@pytest.mark.parametrize("q", FIELD_ORDERS)
def test_search_matches_reference(q, monkeypatch):
    field = Field(q)
    rng = random.Random(2000 + q)
    cases = codes(field, rng)
    assert len(cases) >= 20
    # The dimension of each code whose members are listed, the size of
    # the transversal they are listed from, and the most blocks of one
    # accepted t.
    listed, transversals, blocks = [], [], []
    listing = permgroup._listed

    def spy(n, pivots, accepted):
        listed.append(len(pivots))
        transversals.append(1 + len(accepted[0]))
        blocks.append(max((len(b) for _, b in accepted[2]), default=0))
        return listing(n, pivots, accepted)

    monkeypatch.setattr(permgroup, "_listed", spy)
    sparse = reduced = pruned = 0
    for name, code in cases.items():
        for side, c in (("C", code), ("dual", code.dual)):
            want = reference_members(c)
            transversals.clear()
            got = [p.images for p in exhaustive_permutations(c)]
            assert got == want, f"GF({q}) {name} {side} k={c.k}"
            # Listed as more than one coset of Stab(p_0).
            pruned += any(size > 1 for size in transversals)
            with monkeypatch.context() as patch:
                patch.setattr(permgroup, "_square_pays", gate(True))
                listed.clear()
                got = [p.images for p in exhaustive_permutations(c)]
            assert got == want, f"GF({q}) {name} {side} k={c.k} reduced"
            # Per(D) was listed and filtered, D smaller than C.
            reduced += any(d < c.k for d in listed)
            for h in range(1, c.k + 1):
                with monkeypatch.context() as patch:
                    patch.setattr(permgroup, "_square_pays", gate(False))
                    patch.setattr(permgroup, "_split", lambda n, k, keys, h=h: h)
                    listed.clear()
                    got = [p.images for p in exhaustive_permutations(c)]
                assert got == want, f"GF({q}) {name} {side} k={c.k} h={h}"
                assert all(d == c.k for d in listed), f"GF({q}) {name} {side} h={h}"
            sparse += first_free_has_zero(c)
    # Some searches split on a column with zero entries, where a prefix
    # or a suffix of the pivot images contributes nothing to the lookup.
    assert sparse >= 5
    # Some listed a proper Per(D) and filtered it.  Over GF(2) the one
    # proper D of these codes has more members than searching C costs.
    assert reduced >= (0 if q == 2 else 4), reduced
    # Some passed over or cut subtrees: their orbit of p_0 has more than
    # the one point whose stabilizer is searched in full.
    assert pruned >= 5, pruned
    # Some listed a t with several blocks, filled from their product.
    assert max(blocks) >= 2


@pytest.mark.parametrize("q", FIELD_ORDERS)
def test_square_dual_is_the_dual_of_all_row_products(q):
    """_square_dual eliminates only the cross products of the rref rows
    on the free columns and builds D from their kernel.  D must be the
    dual of the span of all k(k+1)/2 products of rref rows, made here
    from element rows, built exactly when its dimension is below k."""
    field = Field(q)
    built = refused = 0
    for name, code in codes(field, random.Random(2000 + q)).items():
        for side, c in (("C", code), ("dual", code.dual)):
            rows = c.rref
            products = [
                [x * y for x, y in zip(r, s)] for i, r in enumerate(rows) for s in rows[i:]
            ]
            want = LinearCode(field, products, n=c.n).dual
            got = permgroup._square_dual(c)
            if want.k < c.k:
                assert got == want, f"GF({q}) {name} {side} k={c.k}"
                built += 1
            else:
                assert got is None, f"GF({q}) {name} {side} k={c.k}"
                refused += 1
    assert built >= 5 and refused >= 5, (built, refused)


@pytest.mark.parametrize("q", FIELD_ORDERS)
def test_oracle_codes_reach_each_square_case(q):
    """The oracle codes include a square that is the whole space (D = 0)
    and, over GF(4), a D whose group S_4 exceeds the direct cost."""
    field = Field(q)
    assert permgroup._square_dual(whole_square_code(field)).k == 0
    if q == 4:
        code = codes(field, random.Random(2000 + q))["all of GF(q), n = 2k"]
        square = permgroup._square_dual(code)
        _, order = permgroup._accepted(permgroup._Columns(square))
        assert (square.k, order) == (1, 24)
        assert order > permgroup._cost(4, 2, 4)


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


def naive_listing(n, pivots, accepted):
    """Each member of the accepted state, images set one at a time, then
    every transversal member times each, sorted."""
    reps, whole, grouped = accepted
    members = list(whole)
    for t, blocks in grouped:
        fills = [[]]
        for js, cs in blocks:
            fills = [f + list(zip(js, order)) for f in fills
                     for order in itertools.permutations(cs)]
        for fill in fills:
            images = [None] * n
            for i, c in list(zip(pivots, t)) + fill:
                images[i] = c
            members.append(tuple(images))
    stabilizer = list(members)
    for r in reps:
        members += [tuple(r[s[x]] for x in range(n)) for s in stabilizer]
    return sorted(members)


def test_listing_with_two_blocks_and_a_transversal():
    """Pivots 0 and 3 of n = 7: three t with two blocks each, one with
    a single block of five, a whole member and a transversal of two."""
    n, pivots = 7, (0, 3)
    grouped = [
        ((0, 3), [([1, 2], [1, 2]), ([4, 5, 6], [4, 5, 6])]),
        ((3, 0), [([1, 2, 4], [1, 5, 6]), ([5, 6], [2, 4])]),
        ((0, 4), [([1, 2, 5, 6], [1, 2, 5, 6]), ([4], [3])]),
        ((3, 4), [([1, 2, 4, 5, 6], [0, 1, 2, 5, 6])]),
    ]
    whole = [(0, 2, 1, 3, 4, 6, 5)]
    reps = [(1, 0, 2, 3, 4, 5, 6), (6, 5, 4, 3, 2, 1, 0)]
    for accepted in ((reps, whole, grouped), ([], whole, grouped), (reps, [], grouped[:1])):
        want = naive_listing(n, pivots, accepted)
        got = permgroup._listed(n, pivots, accepted)
        assert got == want
        assert all(type(member) is tuple for member in got)
    # 2! * 3! + 3! * 2! + 4! * 1! + 5! members of Stab, one whole, times 3.
    assert len(permgroup._listed(n, pivots, (reps, whole, grouped))) == 3 * (12 + 12 + 24 + 120 + 1)


def test_reference_sees_equal_columns():
    """The repetition code of length 4 is fixed by all of S_4."""
    field = Field(3)
    code = LinearCode(field, [[field.one] * 4])
    assert len(reference_members(code)) == 24
    assert [p.images for p in exhaustive_permutations(code)] == reference_members(code)
