"""rref, LinearCode.dual and rs_code over extension fields, against a
from-scratch coefficient-list reference (conftest.Reference).

The reference holds an element of GF(p^m) as its m ascending
coefficients and multiplies polynomials in t, reducing by the field's
modulus, with inverses by square and multiply.  It reads only the
modulus and each element's coefficients, so it shares no code with the
index operations (exp/log, Zech logarithms) that the code layer runs on.
"""

import random

import pytest

from conftest import Reference
from rsperm import EvaluationSet, Field, LinearCode, rref, rs_code

EXTENSION_ORDERS = (4, 8, 9, 16, 25, 27, 256)


def coefficient_rows(rows):
    return [[x.coeffs for x in row] for row in rows]


def random_coeffs(ref, rng):
    return tuple(rng.randrange(ref.p) for _ in range(ref.m))


def matrices(ref, rng):
    """Full-rank, rank-deficient and zero-row inputs, as coefficient rows."""
    out = []
    for _ in range(12):
        n = rng.randint(1, 8)
        k = rng.randint(1, 5)
        rows = [[random_coeffs(ref, rng) for _ in range(n)] for _ in range(k)]
        out.append(rows)
        # Two more rows in the span of the first, and a zero row.
        c, d = random_coeffs(ref, rng), random_coeffs(ref, rng)
        combo = [ref.add(ref.mul(c, a), ref.mul(d, b)) for a, b in zip(rows[0], rows[-1])]
        deficient = rows + [combo, [ref.zero] * n, list(rows[0])]
        rng.shuffle(deficient)
        out.append(deficient)
    # Sparse rows: most entries zero, so pivots skip columns.
    for _ in range(6):
        n = rng.randint(3, 8)
        rows = [
            [random_coeffs(ref, rng) if rng.random() < 0.3 else ref.zero for _ in range(n)]
            for _ in range(rng.randint(1, 5))
        ]
        out.append(rows)
    out.append([[ref.zero] * 4] * 3)
    return out


@pytest.fixture(params=EXTENSION_ORDERS, ids=lambda q: f"GF{q}")
def field(request):
    return Field(request.param)


def as_elements(field, rows):
    return [[field.element(list(x)) for x in row] for row in rows]


def test_rref_matches_the_reference(field):
    ref = Reference(field)
    rng = random.Random(field.q * 7)
    for rows in matrices(ref, rng):
        got = rref(field, as_elements(field, rows))
        assert coefficient_rows(got) == ref.rref(rows), rows
        # Rows of interned elements, as the field's operators return them.
        assert all(x is field.one * x for row in got for x in row)


def test_codes_built_from_index_rows_match_the_reference(field):
    """The constructor the square dual and the dual use, which skips the
    element check: same rref, same code, and index_rows beside it."""
    ref = Reference(field)
    rng = random.Random(field.q * 17)
    for rows in matrices(ref, rng):
        n = len(rows[0])
        elements = as_elements(field, rows)
        code = LinearCode._from_indices(field, [[x.index for x in r] for r in elements], n)
        assert coefficient_rows(code.rref) == ref.rref(rows), rows
        assert code == LinearCode(field, elements, n=n)
        assert code.index_rows == tuple(tuple(x.index for x in r) for r in code.rref)


def test_rref_of_no_rows_is_empty(field):
    assert rref(field, []) == ()


def test_dual_annihilates_the_code(field):
    ref = Reference(field)
    rng = random.Random(field.q * 11)
    for rows in matrices(ref, rng):
        n = len(rows[0])
        code = LinearCode(field, as_elements(field, rows), n=n)
        dual = code.dual
        rank = len(ref.rref(rows))
        assert (code.k, dual.k, dual.n) == (rank, n - rank, n)
        code_rows = coefficient_rows(code.rref)
        dual_rows = coefficient_rows(dual.rref)
        for h in dual_rows:
            for g in code_rows:
                assert ref.dot(h, g) == ref.zero
        # The dual's basis is itself in reference rref form.
        assert dual_rows == ref.rref(dual_rows)
        assert dual.dual == code


def test_rs_code_rows_are_the_evaluated_monomials(field):
    ref = Reference(field)
    rng = random.Random(field.q * 13)
    for _ in range(5):
        n = rng.randint(2, min(8, field.q))
        points = rng.sample(field.elements(), n)
        k = rng.randint(1, n)
        rows = []
        row = [ref.one] * n
        for _ in range(k):
            rows.append(row)
            row = [ref.mul(x, a.coeffs) for x, a in zip(row, points)]
        code = rs_code(EvaluationSet(field, points), k)
        assert coefficient_rows(code.rref) == ref.rref(rows)
