import time

import pytest

from rsperm import Field, FieldMismatchError
from rsperm.gf import default_modulus


def test_add_prime_field(f13):
    assert f13.element(7) + f13.element(8) == f13.element(2)


def test_add_extension_inverse_pair(f9):
    a_plus_1 = f9.element([1, 1])
    two_a_plus_2 = f9.element([2, 2])
    assert (a_plus_1 + two_a_plus_2).is_zero()


def test_add_identity(f13):
    zero = f13.zero
    for x in f13.elements():
        assert x + zero == x


def test_mul_prime_field(f13):
    # 27 mod 13 = 1
    assert f13.element(3) * f13.element(9) == f13.element(1)


def test_mul_generator_square(f9):
    # t^2 reduces to t + 1 under t^2 + 2t + 2
    a = f9.generator()
    assert a * a == f9.element([1, 1])


def test_generator_cube(f9):
    # a^3 = -a + 1 = 2a + 1 in characteristic 3
    a = f9.generator()
    assert a**3 == f9.element([1, 2])


def test_inverse_values(f13):
    assert f13.element(2).inverse() == f13.element(7)  # 2*7 = 14
    assert f13.element(8).inverse() == f13.element(5)  # 8*5 = 40
    assert f13.one.inverse() == f13.one


def test_inverse_of_zero_raises(f13):
    with pytest.raises(ZeroDivisionError):
        f13.zero.inverse()


def test_pow_sixth_power(f9):
    # (a^3)^2 = (2a+1)^2 = 4a^2 + 4a + 1 = 2a + 2
    a = f9.generator()
    assert a**6 == f9.element([2, 2])


def test_pow_prime_field(f13):
    assert f13.element(4) ** 2 == f13.element(3)  # 16 mod 13


def test_pow_one_is_identity():
    for q in (5, 9):
        field = Field(q)
        for x in field.elements():
            assert x**1 == x


def test_pow_zero_exponent(f13):
    assert f13.zero**0 == f13.one
    assert f13.element(5) ** 0 == f13.one


def test_enumerate_prime_field():
    field = Field(5)
    assert [e.coeffs[0] for e in field.elements()] == [0, 1, 2, 3, 4]


def test_enumerate_extension_distinct(f9):
    els = f9.elements()
    assert len(els) == 9
    assert len(set(els)) == 9
    assert els[0].is_zero()


def test_nonzero_elements_drop_zero():
    for q in (5, 8, 9):
        field = Field(q)
        nz = field.nonzero_elements()
        assert len(nz) == q - 1
        assert field.zero not in nz


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_field_axioms_exhaustive(q):
    field = Field(q)
    els = field.elements()
    one, zero = field.one, field.zero
    for x in els:
        assert x + zero == x
        assert x * one == x
        assert x + (-x) == zero
        if not x.is_zero():
            assert x * x.inverse() == one
    for x in els:
        for y in els:
            assert x + y == y + x
            assert x * y == y * x
            for z in els:
                assert (x + y) + z == x + (y + z)
                assert (x * y) * z == x * (y * z)
                assert x * (y + z) == x * y + x * z


@pytest.mark.parametrize("q", [4, 8, 9, 16])
def test_frobenius_is_additive_and_multiplicative(q):
    field = Field(q)
    p = field.p
    for x in field.elements():
        for y in field.elements():
            assert (x + y) ** p == x**p + y**p
            assert (x * y) ** p == (x**p) * (y**p)


def test_field_mismatch_rejected(f13, f9):
    with pytest.raises(FieldMismatchError):
        f13.element(1) + f9.element([1, 0])


def test_reducible_modulus_rejected():
    # t^2 + 2 has the root 1 over F_3
    with pytest.raises(ValueError):
        Field(9, modulus=(2, 0, 1))


def test_reducible_modulus_rejected_after_the_default_is_remembered():
    """default_modulus answers each (p, m) once; a modulus given for the
    same field is still tested for irreducibility."""
    default = Field(256).modulus
    hits = default_modulus.cache_info().hits
    assert Field(256).modulus == default
    assert default_modulus.cache_info().hits == hits + 1
    # t^8 + 1 = (t + 1)^8 over F_2
    with pytest.raises(ValueError, match="reducible"):
        Field(256, modulus=(1, 0, 0, 0, 0, 0, 0, 0, 1))
    assert Field(256).modulus == default


def test_non_prime_power_rejected():
    with pytest.raises(ValueError):
        Field(6)


@pytest.mark.parametrize("q", [1_000_000_007, 1 << 17, 1, 0, -5])
def test_out_of_range_order_rejected_quickly(q):
    start = time.perf_counter()
    with pytest.raises(ValueError):
        Field(q)
    assert time.perf_counter() - start < 1.0


def test_default_moduli_are_irreducible():
    for q in (4, 8, 9, 16, 25, 27):
        field = Field(q)
        f = field.modulus
        # no roots in the prime field is necessary for any degree
        for r in range(field.p):
            val = sum(c * r**i for i, c in enumerate(f)) % field.p
            assert val != 0


def test_element_parse_round_trip(f13, f9):
    for field in (f13, f9):
        for x in field.elements():
            assert field.parse(str(x)) == x


def test_parse_rejects_garbage(f13, f9):
    with pytest.raises(ValueError):
        f13.parse("[1,2]")
    with pytest.raises(ValueError):
        f9.parse("3")
    with pytest.raises(ValueError):
        f13.parse("abc")


def test_index_round_trip(f9):
    for i in range(9):
        assert f9.from_index(i).index == i



def _reference_literal(p: int, m: int, index: int) -> str:
    """Decimal for a prime field; else the m base-p digits, least significant first."""
    if m == 1:
        return str(index)
    digits = []
    for _ in range(m):
        index, d = divmod(index, p)
        digits.append(str(d))
    return "[" + ",".join(digits) + "]"


@pytest.mark.parametrize(
    "q, modulus", [(2, None), (13, None), (9, (2, 2, 1)), (16, None), (27, None), (256, None)]
)
def test_element_literals_are_base_p_digits(q, modulus):
    field = Field(q, modulus=modulus)
    assert "terms" not in vars(field)
    # The second pass reads what the first stored.
    for _ in range(2):
        for x in field.elements():
            assert str(x) == _reference_literal(field.p, field.m, x.index)
    assert len(field.terms) == q


def test_element_literals_are_stored_only_when_printed():
    field = Field(1 << 16)
    assert "terms" not in vars(field)
    xs = [field.from_index(6553 * i + 1) for i in range(10)]
    assert [str(x) for x in xs] == [_reference_literal(2, 16, x.index) for x in xs]
    assert len(field.terms) <= 10


ACCESSOR_FIELDS = [2, 4, 9, 13, 243, 256]


@pytest.mark.parametrize("q", ACCESSOR_FIELDS)
def test_every_accessor_returns_the_interned_element(q):
    """One object per index: whatever hands out an element of the field
    returns field.ops.elements[i] itself, never a new equal object."""
    field = Field(q)
    interned = field.ops.elements
    twin = Field(q, modulus=field.modulus)
    assert twin is not field and twin == field
    p, m = field.p, field.m
    assert field.zero is interned[0]
    assert field.one is interned[1]
    if m > 1:
        assert field.generator() is interned[p]
    all_els, nonzero = field.elements(), field.nonzero_elements()
    assert len(all_els) == q and len(nonzero) == q - 1
    for i in range(q):
        x = interned[i]
        assert all_els[i] is x
        assert i == 0 or nonzero[i - 1] is x
        assert field.from_index(i) is x
        assert field.element(x) is x
        assert field.element(twin.from_index(i)) is x
        coeffs = [i // p**b % p for b in range(m)]
        assert field.element(coeffs) is x
        if m == 1:
            assert field.element(i) is x
            assert field.element(i + q) is x
        assert field.parse(str(x)) is x


@pytest.mark.parametrize("q", ACCESSOR_FIELDS)
def test_element_lists_are_the_callers_own(q):
    """Mutating the lists from elements() and nonzero_elements() changes
    neither later lists nor the field's arithmetic."""
    field = Field(q)
    for listed in (field.elements(), field.nonzero_elements()):
        listed.reverse()
        listed.append(None)
        del listed[0]
    assert field.elements() == [field.from_index(i) for i in range(q)]
    assert field.nonzero_elements() == [field.from_index(i) for i in range(1, q)]
    assert len(field.ops.elements) == q
    assert all(x.index == i for i, x in enumerate(field.ops.elements))
    assert field.one + field.zero is field.one
