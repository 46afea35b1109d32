"""Element division and polynomial negation, scaling, powers and monic
forms, against the coefficient-list reference in conftest.

Nothing else in the suite runs these public operations, nor the
zero-scalar branch of Field.ops.scale.  The reference shares no code
with Field.ops, so each result is checked coefficient by coefficient.
"""

import random

import pytest

from conftest import Reference, random_polynomial
from rsperm import Field, Polynomial

FIELDS = ((13, None), (9, (2, 2, 1)), (16, None), (27, None))


@pytest.fixture(params=FIELDS, ids=lambda qm: f"GF{qm[0]}")
def field(request):
    q, modulus = request.param
    return Field(q, modulus=modulus)


def stripped(ref, coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == ref.zero:
        coeffs.pop()
    return coeffs


def ref_times(ref, f, g):
    """The product of two coefficient lists of coefficient tuples."""
    out = [ref.zero] * max(len(f) + len(g) - 1, 0)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = ref.add(out[i + j], ref.mul(a, b))
    return stripped(ref, out)


def coefficients(f: Polynomial):
    return [c.coeffs for c in f.coeffs]


def polynomials(field, seed):
    rng = random.Random(seed)
    return [Polynomial.zero(field), Polynomial.one(field)] + [
        random_polynomial(rng, field, rng.randint(0, 5)) for _ in range(30)
    ]


def test_division_matches_the_reference(field):
    ref = Reference(field)
    for x in field.elements():
        for y in field.elements():
            if y.is_zero():
                with pytest.raises(ZeroDivisionError):
                    x / y
            else:
                assert (x / y).coeffs == ref.mul(x.coeffs, ref.inv(y.coeffs))


def test_negation_matches_the_reference(field):
    ref = Reference(field)
    for f in polynomials(field, field.q):
        assert coefficients(-f) == [ref.sub(ref.zero, c) for c in coefficients(f)]


def test_scale_matches_the_reference(field):
    ref = Reference(field)
    for f in polynomials(field, 2 * field.q):
        for c in field.elements():
            want = stripped(ref, [ref.mul(c.coeffs, a) for a in coefficients(f)])
            assert coefficients(f.scale(c)) == want


def test_power_matches_the_reference(field):
    ref = Reference(field)
    for f in polynomials(field, 3 * field.q)[:12]:
        want = [ref.one]
        for e in range(7):
            assert coefficients(f**e) == want, (f, e)
            want = ref_times(ref, want, coefficients(f))


def test_monic_matches_the_reference(field):
    ref = Reference(field)
    for f in polynomials(field, 4 * field.q):
        if f.is_zero():
            with pytest.raises(ValueError):
                f.monic()
            continue
        lead = ref.inv(coefficients(f)[-1])
        want = [ref.mul(lead, a) for a in coefficients(f)]
        assert coefficients(f.monic()) == want
        assert want[-1] == ref.one


def test_index_scale_matches_the_reference(field):
    ref = Reference(field)
    els = field.ops.elements
    for c in range(field.q):
        # Any iterable of indices, also a one-pass iterator.
        got = field.ops.scale(c, iter(range(field.q)))
        want = [ref.mul(els[c].coeffs, x.coeffs) for x in els]
        assert [els[i].coeffs for i in got] == want
    assert field.ops.scale(0, range(field.q)) == [0] * field.q
