import random

import pytest

from conftest import min_distance, random_points, random_polynomial
from rsperm import EvaluationSet, Field, FieldMismatchError, LinearCode, Polynomial, rs_code, rs_dual_multiplier, rref
from rsperm.codes import format_matrix


def int_rref_mod_p(rows, p):
    """Independent elimination oracle over a prime field, plain ints."""
    work = [list(r) for r in rows]
    if not work:
        return []
    n = len(work[0])
    pivot_row = 0
    for col in range(n):
        pivot = next(
            (r for r in range(pivot_row, len(work)) if work[r][col] % p), None
        )
        if pivot is None:
            continue
        work[pivot_row], work[pivot] = work[pivot], work[pivot_row]
        inv = pow(work[pivot_row][col], p - 2, p)
        work[pivot_row] = [(inv * x) % p for x in work[pivot_row]]
        for r in range(len(work)):
            if r != pivot_row and work[r][col] % p:
                f = work[r][col]
                work[r] = [(a - f * b) % p for a, b in zip(work[r], work[pivot_row])]
        pivot_row += 1
        if pivot_row == len(work):
            break
    return [r for r in work[:pivot_row] if any(r)]


def as_ints(rows):
    return [[x.coeffs[0] for x in row] for row in rows]


def test_rref_identity(f13):
    rows = [
        [f13.one if i == j else f13.zero for j in range(3)] for i in range(3)
    ]
    assert rref(f13, rows) == tuple(tuple(r) for r in rows)


def test_rref_paper_generator_frozen(pts13, f13):
    # hand elimination of (1,1,1,1),(0,1,4,6),(0,1,3,10) modulo 13
    code = rs_code(pts13, 3)
    assert as_ints(code.rref) == [
        [1, 0, 0, 9],
        [0, 1, 0, 9],
        [0, 0, 1, 9],
    ]


def test_rref_matches_int_oracle():
    rng = random.Random(31)
    for _ in range(40):
        p = rng.choice([2, 3, 5, 7, 13])
        field = Field(p)
        n = rng.randint(2, 6)
        k = rng.randint(1, n)
        ints = [[rng.randrange(p) for _ in range(n)] for _ in range(k)]
        rows = [[field.element(v) for v in row] for row in ints]
        assert as_ints(rref(field, rows)) == int_rref_mod_p(ints, p)


def test_rref_row_space_invariance(f13):
    rng = random.Random(32)
    for _ in range(20):
        rows = [[f13.from_index(rng.randrange(13)) for _ in range(5)] for _ in range(3)]
        duplicated = rows + [rows[0]]
        assert rref(f13, rows) == rref(f13, duplicated)


def test_rref_idempotent(f13):
    rng = random.Random(33)
    for _ in range(20):
        rows = [[f13.from_index(rng.randrange(13)) for _ in range(5)] for _ in range(3)]
        once = rref(f13, rows)
        assert rref(f13, once) == once


def test_rs_code_generator_rows(pts13, f13):
    # the monomial rows before canonicalization are 1(A), x(A), x^2(A)
    expected = [
        [1, 1, 1, 1],
        [0, 1, 4, 6],
        [0, 1, 3, 10],
    ]
    rows = [
        pts13.evaluate(Polynomial.monomial(f13, i)) for i in range(3)
    ]
    assert [list(x.coeffs[0] for x in r) for r in rows] == expected
    code = rs_code(pts13, 3)
    assert code.k == 3 and code.n == 4
    for row in rows:
        assert code.contains(row)


def test_rs_code_repetition(pts13, f13):
    code = rs_code(pts13, 1)
    assert as_ints(code.rref) == [[1, 1, 1, 1]]


def test_rs_code_full_space(pts13):
    code = rs_code(pts13, 4)
    assert code.k == 4
    assert as_ints(code.rref) == [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
    ]


def test_rref_rejects_entries_of_another_field(f13):
    """Indices of GF(16) would read as wrong or out-of-range GF(13) indices."""
    f16 = Field(16)
    with pytest.raises(FieldMismatchError):
        rref(f13, [[f13.one, f16.one]])
    with pytest.raises(FieldMismatchError):
        LinearCode(f13, [[f16.from_index(15), f16.one]])


def test_rref_rejects_entries_that_are_not_elements(f13):
    """Ints are not elements here, as for Polynomial coefficients."""
    with pytest.raises(ValueError, match="^entry 1 is not an element of GF"):
        LinearCode(f13, [[1, 2]])
    with pytest.raises(ValueError, match="^entry 1 is not an element of GF"):
        rref(f13, [[1]])
    with pytest.raises(ValueError, match="^entry None is not an element of GF"):
        rref(f13, [[f13.one, None]])


def test_contains_and_star_check_the_field(pts13, f13):
    code = rs_code(pts13, 2)
    f11 = Field(11)
    with pytest.raises(FieldMismatchError):
        code.contains([f11.one] * 4)
    with pytest.raises(FieldMismatchError):
        code.star([f11.one] * 4)
    # Ints are read as elements of the prime field: all ones is f = 1.
    assert code.contains([1, 1, 1, 1])
    assert code.star([1, 2, 3, 4]).contains([1, 2, 3, 4])


def test_rs_code_k_out_of_range(pts13):
    with pytest.raises(ValueError):
        rs_code(pts13, 0)
    with pytest.raises(ValueError):
        rs_code(pts13, 5)


def test_dual_of_repetition(f13):
    code = LinearCode(f13, [[f13.one] * 4])
    dual = code.dual
    assert dual.k == 3
    for row in dual.rref:
        total = f13.zero
        for x in row:
            total = total + x
        assert total.is_zero()


def test_dual_of_paper_code_frozen(pts13, f13):
    # the dual is spanned by (7,7,7,5); hand checks: each generator row
    # dotted with it gives 26, 65, 78, all multiples of 13
    dual = rs_code(pts13, 3).dual
    assert dual.k == 1
    span = [f13.element(v) for v in (7, 7, 7, 5)]
    assert dual.contains(span)
    normalized = [x * f13.element(7).inverse() for x in span]
    assert list(dual.rref[0]) == normalized


def test_dual_involution():
    rng = random.Random(34)
    for _ in range(20):
        q = rng.choice([2, 3, 5, 7])
        field = Field(q)
        n = rng.randint(2, 6)
        rows = [
            [field.from_index(rng.randrange(q)) for _ in range(n)]
            for _ in range(rng.randint(1, n))
        ]
        code = LinearCode(field, rows, n=n)
        assert code.dual.dual == code
        assert code.dual.k == n - code.k


def test_contains_generator_rows_and_zero(pts13, f13):
    code = rs_code(pts13, 3)
    for row in code.rref:
        assert code.contains(row)
    assert code.contains([f13.zero] * 4)


def test_contains_rejects_dual_generator(pts13, f13):
    # (7,7,7,5) is not self-orthogonal: 3*49 + 25 = 172 = 3 mod 13
    code = rs_code(pts13, 3)
    assert not code.contains([f13.element(v) for v in (7, 7, 7, 5)])


def test_contains_matches_rank_oracle():
    # membership should agree with: appending v does not raise the rank
    rng = random.Random(35)
    for _ in range(40):
        p = rng.choice([2, 3, 5, 7])
        field = Field(p)
        n = rng.randint(2, 6)
        ints = [[rng.randrange(p) for _ in range(n)] for _ in range(rng.randint(1, n))]
        rows = [[field.element(v) for v in row] for row in ints]
        code = LinearCode(field, rows, n=n)
        v = [rng.randrange(p) for _ in range(n)]
        expected = len(int_rref_mod_p(ints + [v], p)) == len(int_rref_mod_p(ints, p))
        assert code.contains([field.element(x) for x in v]) == expected


def test_contains_length_mismatch(pts13, f13):
    with pytest.raises(ValueError):
        rs_code(pts13, 2).contains([f13.one])


def test_dual_multiplier_frozen(pts13, f13):
    # products of differences are 2, 2, 2, 8; inverses are 7, 7, 7, 5
    assert rs_dual_multiplier(pts13) == tuple(
        f13.element(v) for v in (7, 7, 7, 5)
    )


def test_dual_multiplier_full_field_is_minus_one():
    for q in (5, 7, 13):
        field = Field(q)
        pts = EvaluationSet.full_field(field)
        minus_one = -field.one
        assert rs_dual_multiplier(pts) == (minus_one,) * q


def test_dual_multiplier_never_zero():
    rng = random.Random(36)
    for _ in range(50):
        q = rng.choice([5, 7, 9, 13])
        field = Field(q)
        pts = random_points(rng, field, rng.randint(2, min(7, q)))
        assert all(not x.is_zero() for x in rs_dual_multiplier(pts))


def test_star_product_with_ones(pts13, f13):
    code = rs_code(pts13, 2)
    assert code.star([f13.one] * 4) == code


def test_star_product_gives_dual(pts13):
    code = rs_code(pts13, 3)
    g = rs_dual_multiplier(pts13)
    assert rs_code(pts13, 1).star(g) == code.dual
    assert rs_code(pts13, 1).star(g).rref == code.dual.rref


def test_star_product_dual_random():
    rng = random.Random(37)
    for _ in range(30):
        q = rng.choice([5, 7, 9, 13])
        field = Field(q)
        n = rng.randint(2, min(7, q))
        pts = random_points(rng, field, n)
        k = rng.randint(1, n - 1)
        g = rs_dual_multiplier(pts)
        assert rs_code(pts, n - k).star(g) == rs_code(pts, k).dual


def test_star_product_inverse_restores(pts13, f13):
    code = rs_code(pts13, 2)
    v = [f13.element(x) for x in (2, 5, 3, 11)]
    inv = [x.inverse() for x in v]
    assert code.star(v).star(inv) == code


def test_star_product_zero_entry_rejected(pts13, f13):
    with pytest.raises(ValueError):
        rs_code(pts13, 2).star([f13.zero, f13.one, f13.one, f13.one])


def test_permuted_identity(pts13):
    code = rs_code(pts13, 2)
    assert code.permuted([0, 1, 2, 3]) == code


def test_permuted_full_space(pts13):
    code = rs_code(pts13, 4)
    assert code.permuted([2, 0, 3, 1]) == code


def test_permuted_three_cycle_fixes_paper_code(pts13):
    # the cycle sending position 1 -> 2 -> 3 -> 1 keeps RS(A,3) invariant
    code = rs_code(pts13, 3)
    assert code.permuted([1, 2, 0, 3]) == code


def test_permuted_rejects_non_permutation(pts13):
    with pytest.raises(ValueError):
        rs_code(pts13, 2).permuted([0, 0, 1, 2])


def test_frobenius_fixes_dimension_four(pts9):
    code = rs_code(pts9, 4)
    assert code.frobenius_image() == code


def test_frobenius_moves_dimension_three(pts9):
    code = rs_code(pts9, 3)
    assert code.frobenius_image() != code


def test_frobenius_fixes_prime_subfield_matrix(f9):
    # rows with entries in F_3 are fixed pointwise by y -> y^3
    rows = [
        [f9.element([1, 0]), f9.element([2, 0]), f9.element([0, 0])],
        [f9.element([0, 0]), f9.element([1, 0]), f9.element([1, 0])],
    ]
    code = LinearCode(f9, rows)
    assert code.frobenius_image() == code


def test_frobenius_rejected_on_prime_field(pts13):
    with pytest.raises(ValueError):
        rs_code(pts13, 2).frobenius_image()


def test_rs_codes_are_mds():
    rng = random.Random(38)
    for _ in range(10):
        q = rng.choice([5, 7, 9])
        field = Field(q)
        n = rng.randint(3, min(6, q))
        k = rng.randint(1, n)
        if q**k > 100_000:
            continue
        pts = random_points(rng, field, n)
        assert min_distance(rs_code(pts, k)) == n - k + 1


def test_commuting_diagram_componentwise():
    # permuting the evaluations of f equals evaluating f on permuted points
    rng = random.Random(39)
    for _ in range(60):
        q = rng.choice([5, 7, 9, 13])
        field = Field(q)
        n = rng.randint(2, min(7, q))
        pts = random_points(rng, field, n)
        f = random_polynomial(rng, field, rng.randint(0, n))
        images = list(range(n))
        rng.shuffle(images)
        values = pts.evaluate(f)
        permuted_values = tuple(values[i] for i in images)
        assert permuted_values == pts.permuted(images).evaluate(f)


def test_vector_action_anticomposes(pts13):
    # applying pi then sigma to coordinates matches the single action of
    # the index composition pi o sigma
    rng = random.Random(40)
    n = len(pts13)
    for _ in range(30):
        pi = list(range(n))
        sigma = list(range(n))
        rng.shuffle(pi)
        rng.shuffle(sigma)
        one_step = pts13.permuted([pi[sigma[i]] for i in range(n)])
        two_step = pts13.permuted(pi).permuted(sigma)
        assert one_step == two_step


def test_code_equality_is_rref_identity(pts13, f13):
    code = rs_code(pts13, 2)
    doubled = LinearCode(
        f13, list(code.rref) + [code.rref[0]], n=4
    )
    assert doubled == code
    assert hash(doubled) == hash(code)
    assert code != code.rref


def test_matrix_display_and_json(pts13):
    code = rs_code(pts13, 2)
    text = format_matrix(code.rref)
    assert len(text.splitlines()) == 2


def test_zero_code_needs_length(f13):
    with pytest.raises(ValueError):
        LinearCode(f13, [])
    zero = LinearCode(f13, [], n=4)
    assert zero.k == 0
    assert zero.dual.k == 4


# (what, call, message) for each argument a code refuses with ValueError.
CODE_REFUSALS = [
    ("a ragged matrix",
     lambda f: LinearCode(f, [[f.one] * 3, [f.one] * 2]), "ragged generator matrix"),
    ("a declared length that does not match",
     lambda f: LinearCode(f, [[f.one] * 3], n=4), "declared length 4 but rows have length 3"),
    ("a star multiplier of the wrong length",
     lambda f: rs_code(EvaluationSet(f, [0, 1, 4, 6]), 2).star([f.one] * 3),
     "multiplier length 3 != code length 4"),
]


@pytest.mark.parametrize(
    "call, message", [row[1:] for row in CODE_REFUSALS], ids=[row[0] for row in CODE_REFUSALS]
)
def test_refused_codes_raise(f13, call, message):
    with pytest.raises(ValueError, match=message):
        call(f13)
