"""The vanishing polynomial and the indicators against tuple arithmetic.

For points a_0..a_{n-1}, the vanishing polynomial is prod_i (x - a_i)
and the indicator L_i is prod_{j != i} (x - a_j) scaled by the inverse
of prod_{j != i} (a_i - a_j).  The oracle forms both products with the
coefficient-tuple arithmetic of conftest's Reference and reads each
element's base-p digits from its index itself, so it shares no code
with EvaluationSet, Polynomial or Field.ops.  On GF(251)*, where the
full products would take O(n^3) reference steps, every indicator's
degree and leading coefficient prod_{j != i} (a_i - a_j)^-1 are checked,
and the vanishing polynomial is x^250 - 1.
"""

import random
from time import perf_counter

import pytest

from conftest import Reference
from rsperm import EvaluationSet, Field

FIELD_ORDERS = (2, 3, 4, 7, 8, 9, 16, 27)


def digits(field: Field, index: int) -> tuple[int, ...]:
    """Base-p digit b of an element's index is its coefficient of t^b."""
    return tuple(index // field.p**b % field.p for b in range(field.m))


def as_tuples(field: Field, f) -> list[tuple[int, ...]]:
    return [digits(field, c.index) for c in f.coeffs]


def product_of_roots(ref: Reference, roots) -> list[tuple[int, ...]]:
    """prod (x - r) over the roots, ascending coefficient tuples."""
    out = [ref.one]
    for r in roots:
        # (x - r) * out: coefficient i is out[i-1] - r * out[i].
        shifted = [ref.zero] + out
        scaled = [ref.mul(r, c) for c in out] + [ref.zero]
        out = [ref.sub(s, t) for s, t in zip(shifted, scaled)]
    return out


def weight(ref: Reference, roots, i: int) -> tuple[int, ...]:
    """1 / prod_{j != i} (a_i - a_j)."""
    denominator = ref.one
    for j, r in enumerate(roots):
        if j != i:
            denominator = ref.mul(denominator, ref.sub(roots[i], r))
    return ref.inv(denominator)


def point_sets(field: Field, rng: random.Random) -> list[list]:
    elements = field.elements()
    sizes = {2, field.q, rng.randint(2, field.q), rng.randint(2, field.q)}
    return [rng.sample(elements, n) for n in sorted(sizes)]


@pytest.mark.parametrize("q", FIELD_ORDERS)
def test_vanishing_and_indicators_match_reference(q):
    field = Field(q)
    ref = Reference(field)
    rng = random.Random(5000 + q)
    for pts in point_sets(field, rng):
        points = EvaluationSet(field, pts)
        roots = [digits(field, a.index) for a in points]
        assert as_tuples(field, points.vanishing) == product_of_roots(ref, roots)
        assert len(points.indicators) == points.n
        for i, L in enumerate(points.indicators):
            others = roots[:i] + roots[i + 1:]
            w = weight(ref, roots, i)
            expected = [ref.mul(w, c) for c in product_of_roots(ref, others)]
            assert as_tuples(field, L) == expected, f"GF({q}) L_{i} on {roots}"


def test_gf251_units_indicator_leading_coefficients():
    """All 250 indicators of GF(251)* in under half a second (best of three
    fresh sets), each of degree 249 with leading coefficient
    prod_{j != i} (a_i - a_j)^-1."""
    field = Field(251)
    ref = Reference(field)
    times = []
    for _ in range(3):
        points = EvaluationSet.multiplicative_group(field)
        t0 = perf_counter()
        indicators = points.indicators
        times.append(perf_counter() - t0)
    roots = [digits(field, a.index) for a in points]
    for i, L in enumerate(indicators):
        assert L.degree == 249
        assert digits(field, L.coeffs[-1].index) == weight(ref, roots, i)
    x250_minus_1 = [ref.sub(ref.zero, ref.one)] + [ref.zero] * 249 + [ref.one]
    assert as_tuples(field, points.vanishing) == x250_minus_1
    assert min(times) < 0.5
