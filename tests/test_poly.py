import operator
import random

import pytest

from conftest import fresh_field, random_points, random_polynomial
from rsperm import NEG_INF, EvaluationSet, Field, FieldMismatchError, Polynomial, compose_mod
from rsperm.poly import affine_str


def test_evaluate_quadratic(f13):
    f = Polynomial.from_ints(f13, [1, 0, 1])  # x^2 + 1
    assert f.evaluate(f13.element(4)) == f13.element(4)  # 17 mod 13


def test_evaluate_zero_polynomial(f13):
    z = Polynomial.zero(f13)
    for a in f13.elements():
        assert z.evaluate(a).is_zero()


def test_evaluate_affine_example(f13):
    f = Polynomial.from_ints(f13, [1, 3])  # 3x + 1
    assert f.evaluate(f13.element(4)).is_zero()  # 13 = 0


def test_eval_vector_square(pts13, f13):
    f = Polynomial.monomial(f13, 2)
    values = pts13.evaluate(f)
    assert values == tuple(f13.element(v) for v in (0, 1, 3, 10))


def test_eval_vector_identity_and_constant(pts13, f13):
    assert pts13.evaluate(Polynomial.x(f13)) == pts13.points
    ones = pts13.evaluate(Polynomial.one(f13))
    assert ones == (f13.one,) * 4


def test_vanishing_polynomial_frozen(pts13, f13):
    # (x)(x-1)(x-4)(x-6) expanded by hand modulo 13
    assert pts13.vanishing == Polynomial.from_ints(f13, [0, 2, 8, 2, 1])


def test_vanishing_full_field_is_xq_minus_x():
    for q in (5, 7):
        field = Field(q)
        pts = EvaluationSet.full_field(field)
        expected = Polynomial.monomial(field, q) - Polynomial.x(field)
        assert pts.vanishing == expected


def test_vanishing_kills_the_points(pts13, pts9):
    for pts in (pts13, pts9):
        assert all(v.is_zero() for v in pts.evaluate(pts.vanishing))


def test_first_indicator_frozen(pts13, f13):
    # (x-1)(x-4)(x-6) / ((0-1)(0-4)(0-6)) expanded by hand modulo 13
    assert pts13.indicators[0] == Polynomial.from_ints(f13, [1, 4, 1, 7])


def test_indicator_kronecker_property(pts13, pts9):
    for pts in (pts13, pts9):
        for i, L in enumerate(pts.indicators):
            for j, a in enumerate(pts):
                expected = pts.field.one if i == j else pts.field.zero
                assert L.evaluate(a) == expected


def test_indicators_sum_to_one_on_points(pts13):
    total = Polynomial.zero(pts13.field)
    for L in pts13.indicators:
        total = total + L
    assert pts13.evaluate(total) == (pts13.field.one,) * len(pts13)


def test_interpolate_identity(pts13, f13):
    assert pts13.interpolate(list(pts13.points)) == Polynomial.x(f13)


def test_interpolate_affine_example(pts13, f13):
    values = [f13.element(v) for v in (1, 4, 0, 6)]
    assert pts13.interpolate(values) == Polynomial.from_ints(f13, [1, 3])


def test_interpolate_length_mismatch(pts13, f13):
    with pytest.raises(ValueError):
        pts13.interpolate([f13.one])


def test_interpolation_round_trip_random():
    rng = random.Random(2024)
    for _ in range(200):
        q = rng.choice([5, 7, 9, 13])
        field = Field(q)
        n = rng.randint(2, min(8, q))
        pts = random_points(rng, field, n)
        f = random_polynomial(rng, field, n - 1)
        assert pts.interpolate(list(pts.evaluate(f))) == f


def test_interpolation_uniqueness(pts13):
    # equal evaluation vectors force equal polynomials below degree n
    rng = random.Random(5)
    for _ in range(50):
        f = random_polynomial(rng, pts13.field, 3)
        g = pts13.interpolate(list(pts13.evaluate(f)))
        assert g == f


def test_compose_square_of_affine(f13):
    f = Polynomial.monomial(f13, 2)
    g = Polynomial.from_ints(f13, [1, 3])
    assert f.compose(g) == Polynomial.from_ints(f13, [1, 6, 9])


def test_compose_with_x_is_identity(f13):
    rng = random.Random(11)
    x = Polynomial.x(f13)
    for _ in range(20):
        f = random_polynomial(rng, f13, 5)
        assert f.compose(x) == f
        assert x.compose(f) == f


def test_compose_degree_multiplies(f13):
    rng = random.Random(12)
    for _ in range(20):
        f = random_polynomial(rng, f13, rng.randint(1, 4))
        g = random_polynomial(rng, f13, rng.randint(1, 4))
        if f.degree >= 1 and g.degree >= 1:
            assert f.compose(g).degree == f.degree * g.degree


def test_compose_mod_affine_pair(pts13, f13):
    p1 = Polynomial.from_ints(f13, [1, 3])
    p2 = Polynomial.from_ints(f13, [4, 9])
    assert compose_mod(p1, p2, pts13) == Polynomial.x(f13)


def test_compose_mod_identity(pts13):
    rng = random.Random(13)
    x = Polynomial.x(pts13.field)
    for _ in range(20):
        p = random_polynomial(rng, pts13.field, 3)
        assert compose_mod(x, p, pts13) == p


def test_compose_mod_agrees_on_points(pts13):
    rng = random.Random(14)
    for _ in range(30):
        p1 = random_polynomial(rng, pts13.field, 5)
        p2 = random_polynomial(rng, pts13.field, 5)
        r = compose_mod(p1, p2, pts13)
        assert r.degree < len(pts13)
        for a in pts13:
            assert r.evaluate(a) == p1.evaluate(p2.evaluate(a))


def test_compose_mod_associative_on_permuting_polynomials():
    # permuting polynomials of degree < n come from permutations of the points
    from rsperm import perm_to_poly, Permutation

    rng = random.Random(15)
    for _ in range(40):
        q = rng.choice([5, 7, 13])
        field = Field(q)
        n = rng.randint(3, min(6, q))
        pts = random_points(rng, field, n)
        ps = []
        for _ in range(3):
            images = list(range(n))
            rng.shuffle(images)
            ps.append(perm_to_poly(Permutation(images), pts))
        p1, p2, p3 = ps
        left = compose_mod(compose_mod(p1, p2, pts), p3, pts)
        right = compose_mod(p1, compose_mod(p2, p3, pts), pts)
        assert left == right


def test_zero_degree_sentinel(f13):
    z = Polynomial.zero(f13)
    assert z.degree == NEG_INF
    assert z.degree < 0
    f = Polynomial.from_ints(f13, [0, 1])
    assert (z * f).degree == NEG_INF
    # degree arithmetic stays consistent with multiplication
    assert (z * f).degree == z.degree + f.degree


def test_product_degree_adds(f13):
    rng = random.Random(16)
    for _ in range(30):
        f = random_polynomial(rng, f13, rng.randint(0, 5))
        g = random_polynomial(rng, f13, rng.randint(0, 5))
        if not f.is_zero() and not g.is_zero():
            assert (f * g).degree == f.degree + g.degree


def test_evaluation_is_multiplicative(f13):
    rng = random.Random(17)
    for _ in range(30):
        f = random_polynomial(rng, f13, 4)
        g = random_polynomial(rng, f13, 4)
        a = f13.from_index(rng.randrange(13))
        assert (f * g).evaluate(a) == f.evaluate(a) * g.evaluate(a)


def test_divmod_reconstructs(f13):
    rng = random.Random(18)
    for _ in range(30):
        f = random_polynomial(rng, f13, 8)
        g = random_polynomial(rng, f13, rng.randint(1, 4))
        if g.is_zero():
            continue
        quot, rem = divmod(f, g)
        assert quot * g + rem == f
        assert rem.degree < g.degree


def test_trailing_zeros_stripped(f13):
    f = Polynomial(f13, [f13.one, f13.zero, f13.zero])
    assert f.degree == 0
    assert len(f.coeffs) == 1


def test_display_styles(f13):
    f = Polynomial.from_ints(f13, [1, 3])
    assert affine_str(f) == "3*x + 1"
    assert str(Polynomial.x(f13)) == "x"
    assert affine_str(Polynomial.x(f13)) == "x"
    g = Polynomial.from_ints(f13, [1, 6, 6])
    assert str(g) == "1 + 6*x + 6*x^2"
    assert str(Polynomial.zero(f13)) == "0"


def test_evaluation_set_validation(f13):
    with pytest.raises(ValueError):
        EvaluationSet(f13, [0, 1, 1, 6])
    with pytest.raises(ValueError):
        EvaluationSet(f13, [0])
    small = Field(3)
    with pytest.raises(ValueError):
        EvaluationSet(small, [0, 1, 2, 0])


def test_evaluation_set_semantics():
    """Equality, hashing and positions go by field and point indices: sets
    over equal Field objects are equal, and anything that is not a point
    of the set, an element of another field included, has no position."""
    pts = [[0, 0], [1, 0], [2, 0], [1, 1], [2, 2]]
    a, b = EvaluationSet(Field(9), pts), EvaluationSet(fresh_field(9), pts)
    assert a.field is not b.field
    assert a == b and hash(a) == hash(b)
    assert a != EvaluationSet(Field(9), pts[::-1])
    assert a != EvaluationSet(Field(9, modulus=(2, 2, 1)), pts)
    assert a != tuple(a.points)
    assert a.index_points == (0, 1, 2, 4, 8)
    twin = b.field.element([1, 1])
    assert a.position(twin) == 3
    small = EvaluationSet(Field(13), [0, 1, 4, 6])
    assert small.position(Field(13).element(6)) == 3
    assert small.position(Field(11).element(6)) is None
    assert small.position(Field(13).element(5)) is None
    for not_an_element in (6, "6", None, [6]):
        assert small.position(not_an_element) is None


def test_duplicate_points_raise_the_same_error(f13):
    distinct = "^evaluation points must be pairwise distinct$"
    for pts in ([0, 0], [0, 1, 4, 1], [0, 1, 14]):
        with pytest.raises(ValueError, match=distinct):
            EvaluationSet(f13, pts)
    with pytest.raises(ValueError, match="^evaluation sets need at least two points$"):
        EvaluationSet(f13, [5])


def test_negative_power_raises_at_once(f13):
    f = Polynomial.from_ints(f13, [1, 1])
    with pytest.raises(ValueError):
        f**-1
    assert f**0 == Polynomial.one(f13)
    assert f**3 == f * f * f


@pytest.mark.parametrize(
    "combine",
    (operator.add, operator.sub, operator.mul, divmod, operator.mod, Polynomial.compose),
    ids=("add", "sub", "mul", "divmod", "mod", "compose"),
)
def test_polynomials_over_two_fields_do_not_combine(f13, combine):
    f = Polynomial.from_ints(f13, [1, 2, 3])
    g = Polynomial.from_ints(Field(11), [4, 5])
    with pytest.raises(FieldMismatchError):
        combine(f, g)


def test_evaluate_and_scale_take_elements_of_the_field_only(f13):
    f = Polynomial.from_ints(f13, [1, 2, 3])
    other = Field(11).element(3)
    for method in (f.evaluate, f.scale):
        with pytest.raises(FieldMismatchError):
            method(other)
        with pytest.raises(TypeError):
            method(3)


def test_a_constant_and_division_by_zero(f13):
    assert Polynomial.constant(f13.element(5)) == Polynomial.from_ints(f13, [5])
    assert Polynomial.constant(f13.zero).is_zero()
    with pytest.raises(ZeroDivisionError, match="polynomial division by zero"):
        divmod(Polynomial.x(f13), Polynomial.zero(f13))
