"""EvaluationSet.interpolate against the defining property of the interpolant.

For values v_0..v_{n-1} on points a_0..a_{n-1} there is exactly one
polynomial f with deg f < n and f(a_i) = v_i for every i.  The oracle
checks those two facts with its own Horner loop over the returned
coefficients, plus the Polynomial invariants (elements of the field, no
trailing zero).  It never reads the indicators or the memoised lines,
so it shares no code with the two paths it checks: the line through
the first two values, and the packed Lagrange kernel.  Values of a line
must come back as that line, and on GF(251)* the affine members are
checked against their closed form.
"""

import random
from time import perf_counter

import pytest

from conftest import fresh_field
from rsperm import EvaluationSet, Field, affine_group, perm_to_poly

FIELD_ORDERS = (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 49)


def horner(coeffs, a, zero):
    acc = zero
    for c in reversed(coeffs):
        acc = acc * a + c
    return acc


def assert_interpolant(points: EvaluationSet, values) -> None:
    field = points.field
    f = points.interpolate(values)
    assert f.field == field
    assert len(f.coeffs) <= points.n, "degree must stay below n"
    assert all(c.field == field for c in f.coeffs)
    assert not f.coeffs or not f.coeffs[-1].is_zero(), "trailing zero kept"
    for a, v in zip(points, values):
        assert horner(f.coeffs, a, field.zero) == v


def random_values(rng, field, n):
    return [field.from_index(rng.randrange(field.q)) for _ in range(n)]


def point_sets(field: Field, rng: random.Random) -> list[EvaluationSet]:
    q = field.q
    out = [
        EvaluationSet(field, rng.sample(field.elements(), 2)),
        EvaluationSet.full_field(field),
    ]
    for _ in range(4):
        n = rng.randint(2, q)
        out.append(EvaluationSet(field, rng.sample(field.elements(), n)))
    return out


@pytest.mark.parametrize("q", FIELD_ORDERS)
def test_interpolate_satisfies_the_interpolation_conditions(q):
    field = Field(q)
    rng = random.Random(1000 + q)
    for points in point_sets(field, rng):
        n = points.n
        # Permutation images: every value a point, as for group members.
        for _ in range(6):
            assert_interpolant(points, [points[j] for j in rng.sample(range(n), n)])
        # Values outside the point set, and repeats among them.
        for _ in range(6):
            assert_interpolant(points, random_values(rng, field, n))
        assert_interpolant(points, [field.zero] * n)
        assert_interpolant(points, [field.one] * n)
        assert points.interpolate([field.zero] * n).is_zero()


@pytest.mark.parametrize("q", FIELD_ORDERS)
def test_repeated_calls_hit_the_memo(q):
    """Each (position, value) term is memoised on first use; later calls
    mixing old and new values at the same position must stay exact."""
    field = Field(q)
    rng = random.Random(2000 + q)
    points = EvaluationSet(field, rng.sample(field.elements(), min(q, 6)))
    vectors = [random_values(rng, field, points.n) for _ in range(40)]
    first = [points.interpolate(v) for v in vectors]
    for v in vectors:
        assert_interpolant(points, v)
    assert [points.interpolate(v) for v in vectors] == first
    # One value changed at a time, so every position sees many values.
    values = [field.zero] * points.n
    for _ in range(60):
        values[rng.randrange(points.n)] = field.from_index(rng.randrange(q))
        assert_interpolant(points, list(values))


def test_values_of_an_equal_field_object_are_accepted():
    points = EvaluationSet(Field(9), Field(9).elements()[:5])
    twin = fresh_field(9)
    assert twin is not points.field
    values = [twin.from_index(i) for i in (3, 1, 4, 1, 5)]
    assert_interpolant(points, values)
    # A line's values, which are not the field's own objects.
    values, coeffs = line(twin.from_index(4), twin.from_index(7), points)
    assert all(v.field is twin for v in values)
    assert list(points.interpolate(values).coeffs) == coeffs


def test_values_from_another_field_are_rejected():
    points = EvaluationSet(Field(7), [0, 1, 2])
    other = Field(5)
    with pytest.raises(ValueError):
        points.interpolate([other.one, other.zero, other.one])
    with pytest.raises(ValueError):
        points.interpolate([other.zero] * 3)
    with pytest.raises(ValueError):
        points.interpolate([1, 2, 3])


def line(a, b, points):
    """The values of a*x + b on the points, and its coefficients, zeros stripped."""
    coeffs = [b, a]
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    return [a * x + b for x in points], coeffs


@pytest.mark.parametrize("q", FIELD_ORDERS)
def test_values_on_a_line_give_that_line(q):
    """f of degree <= 1, constants and the zero polynomial included: f is
    its own interpolant.  A line's first two values with any other value
    after them must leave the line."""
    field = Field(q)
    rng = random.Random(3000 + q)
    elements, zero = field.elements(), field.zero
    for points in point_sets(field, rng):
        pairs = [(rng.choice(elements), rng.choice(elements)) for _ in range(6)]
        pairs += [(zero, rng.choice(field.nonzero_elements())), (zero, zero)]
        for a, b in pairs:
            values, coeffs = line(a, b, points)
            assert_interpolant(points, values)
            assert list(points.interpolate(values).coeffs) == coeffs
            assert list(points.interpolate(tuple(values)).coeffs) == coeffs
            if points.n > 2:
                i = rng.randrange(2, points.n)
                values[i] = rng.choice([v for v in elements if v != values[i]])
                assert_interpolant(points, values)
                assert len(points.interpolate(values).coeffs) > 2


def test_units_of_gf251_have_the_scalings_as_members():
    """On GF(251)* the affine maps permuting the points are exactly the
    250 scalings u*x (a translation would move the sum of the points,
    which is 0, to 250*b), and each member's polynomial is u*x.  Both
    computations together take well under a second."""
    field = Field(251)
    points = EvaluationSet.multiplicative_group(field)
    t0 = perf_counter()
    group = affine_group(points)
    polys = [perm_to_poly(perm, points) for _, perm in group]
    elapsed = perf_counter() - t0
    assert [(m.a.index, m.b.index) for m, _ in group] == [(u, 0) for u in range(1, 251)]
    for u, (_, perm), f in zip(range(1, 251), group, polys):
        assert perm.images == tuple(points.position(field.element(u) * x) for x in points)
        assert f.degree == 1
        assert [c.index for c in f.coeffs] == [0, u]
    assert elapsed < 1.0


@pytest.mark.parametrize("q", (7, 8, 9, 27, 257))
def test_coefficients_are_the_fields_interned_elements(q):
    """coeffs, coefficient, evaluate and interpolate hand out the objects
    of field.ops.elements, on the line path and the Lagrange path.  On 7
    points the packed sums decode by byte (GF(7)), by bit (GF(8)), by
    digit planes (GF(9), GF(27)) and by wide slots (GF(257))."""
    field = Field(q)
    els = field.ops.elements
    rng = random.Random(q)
    points = EvaluationSet(field, rng.sample(els, 7))
    a, b = rng.choice(els[1:]), rng.choice(els)
    line = [a * x + b for x in points]
    for values in (line, [rng.choice(els) for _ in points]):
        f = points.interpolate(values)
        assert (f.degree == 1) == (values is line)
        assert all(c is els[c.index] for c in f.coeffs)
        assert all(f.coefficient(i) is els[f.coefficient(i).index] for i in range(9))
        for x, v in zip(points, values):
            assert f.evaluate(x) is v
