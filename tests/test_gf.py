import copy
import gc
import operator
import pickle
import random
import re
import time
import tracemalloc

import pytest

import rsperm.gf
from conftest import fresh_field
from rsperm import Field, FieldElement, FieldMismatchError
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
    # The element operators share Polynomial's operand check.
    x = f13.element(1)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(FieldMismatchError):
            op(x, f9.element([1, 0]))
        with pytest.raises(TypeError):
            op(x, 3)


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


# -- one Field object per field ------------------------------------------------


def registry_snapshot() -> tuple[dict, list]:
    fields = {key: id(field) for key, field in rsperm.gf._FIELDS.items()}
    return fields, list(rsperm.gf._KEPT)


def test_every_form_of_a_field_gives_one_object():
    field = Field(9)
    default = field.modulus
    forms = [
        Field(q=9),
        Field(9, modulus=default),
        Field(9, list(default)),
        Field(9, (c for c in default)),
        # Coefficients are read mod p.
        Field(9, [c + 3 for c in default]),
    ]
    assert all(f is field for f in forms)
    other = Field(9, modulus=(2, 2, 1))
    assert other is not field and other != field
    assert Field(9, [2, 2, 1]) is other
    assert Field(13) is Field(13)


def test_a_default_modulus_given_first_is_the_default_field(no_fields):
    field = Field(25, modulus=list(default_modulus(5, 2)))
    assert Field(25) is field
    assert Field(25, modulus=default_modulus(5, 2)) is field


def test_a_reducible_modulus_raises_every_time_and_caches_nothing(monkeypatch):
    tested = []
    is_irreducible = rsperm.gf.is_irreducible

    def spy(modulus, p):
        tested.append(modulus)
        return is_irreducible(modulus, p)

    monkeypatch.setattr(rsperm.gf, "is_irreducible", spy)
    before = registry_snapshot()
    for form in ((2, 0, 1), [2, 0, 1], [5, 3, 4]):
        with pytest.raises(ValueError, match="reducible"):
            Field(9, modulus=form)
    assert tested == [(2, 0, 1)] * 3
    assert registry_snapshot() == before
    assert (9, (2, 0, 1)) not in rsperm.gf._FIELDS


@pytest.mark.parametrize("q", [7.0, "7", 7.5, None])
def test_an_order_that_is_not_an_int_raises_at_construction(q):
    Field(7)
    before = registry_snapshot()
    with pytest.raises(TypeError, match="field order must be an int, got " + repr(q)):
        Field(q)
    assert registry_snapshot() == before


def test_modulus_coefficients_must_be_ints():
    with pytest.raises(TypeError, match="modulus coefficients must be ints"):
        Field(9, modulus=(2.0, 2, 1))


def test_an_integer_like_order_is_read_as_an_int(no_fields):
    numpy = pytest.importorskip("numpy")
    field = Field(numpy.int64(7))
    assert type(field.q) is int and field.q == 7
    assert Field(7) is field and Field(numpy.int64(7)) is field
    assert str(field) == "GF(7)"


@pytest.mark.parametrize("q, modulus", [(13, None), (9, (2, 2, 1)), (256, None)])
def test_pickle_and_copies_give_back_the_one_field(q, modulus):
    field = Field(q, modulus)
    assert pickle.loads(pickle.dumps(field)) is field
    assert copy.copy(field) is field
    assert copy.deepcopy(field) is field
    # An element comes back as the field's own, through Field.from_index:
    # no element is made outside Field.tables.
    for x in (field.from_index(q - 1), field.zero):
        assert pickle.loads(pickle.dumps(x)) is x
        assert copy.copy(x) is x
        assert copy.deepcopy(x) is x


def test_field_element_compares_and_hashes_as_a_dataclass(f9):
    x, y = f9.from_index(7), f9.from_index(5)
    assert x == f9.element([1, 2]) and x != y
    assert hash(x) == hash((f9, 7))
    # Like a dataclass, an element equals nothing but an element.
    assert x != (f9, 7) and x != 7
    assert x.__eq__((f9, 7)) is NotImplemented
    assert x.__eq__(7) is NotImplemented
    assert x != Field(13).from_index(7)
    assert FieldElement(field=f9, index=7) == x
    assert FieldElement(f9, 7) == x


def test_field_element_repr_and_str(f9, f13):
    assert repr(f9.from_index(7)) == "FieldElement(Field(9, modulus=[2, 2, 1]), [1,2])"
    assert repr(f13.from_index(12)) == "FieldElement(Field(13), 12)"
    assert str(f9.from_index(7)) == "[1,2]"


def test_field_element_is_immutable_and_has_no_dict(f9):
    x = f9.from_index(7)
    for name in ("field", "index", "coeffs", "other"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(x, name, None)
    for name in ("field", "index", "other"):
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(x, name)
    assert x.field is f9 and x.index == 7
    assert not hasattr(x, "__dict__")


def test_only_the_most_recently_used_fields_are_kept(no_fields):
    """The registry keeps KEPT_FIELDS fields alive; a field let go of is
    freed once nothing else holds it, and one a caller still holds is
    still the one handed out."""
    kept = rsperm.gf.KEPT_FIELDS
    held = Field(2)
    moduli = irreducible_moduli(2, 7)[: 2 * kept]
    first = (128, moduli[0])
    for modulus in moduli:
        Field(*first)  # used before each new field, so it stays kept
        Field(128, modulus)
        assert first in rsperm.gf._KEPT
    gc.collect()
    assert len(rsperm.gf._KEPT) == kept
    assert set(rsperm.gf._FIELDS) == set(rsperm.gf._KEPT) | {(2, None)}
    assert Field(2) is held


def test_fields_over_many_moduli_do_not_pile_up(no_fields):
    """Building fields over ever new moduli holds the tables of at most
    KEPT_FIELDS of them."""
    kept = rsperm.gf.KEPT_FIELDS
    moduli = irreducible_moduli(2, 10)[: 4 * kept]

    def traced_after(count: int) -> int:
        for modulus in moduli[:count]:
            Field(1024, modulus).ops
        gc.collect()
        return tracemalloc.get_traced_memory()[0]

    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        one_set = traced_after(kept) - start
        four_sets = traced_after(4 * kept) - start
    finally:
        tracemalloc.stop()
    assert one_set > 0
    assert four_sets < 1.5 * one_set, (one_set, four_sets)


def irreducible_moduli(p: int, m: int) -> list[tuple[int, ...]]:
    moduli = (tuple(c) for c in rsperm.gf._monic_polys_of_degree(m, p))
    return [mod for mod in moduli if rsperm.gf.is_irreducible(mod, p)]


def test_init_still_checks_a_new_object():
    """Field.__init__, which the benchmark tracer wraps, is the check."""
    with pytest.raises(ValueError, match="not a prime power"):
        object.__new__(Field).__init__(6)
    with pytest.raises(ValueError, match="reducible"):
        object.__new__(Field).__init__(9, (2, 0, 1))


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


def _reference_index(p: int, coeffs) -> int:
    """The index of coefficients c0, c1, ...: sum of (c_i mod p) * p**i."""
    return sum(c % p * p**i for i, c in enumerate(coeffs))


@pytest.mark.parametrize("q", [9, 128, 243])
def test_vector_literals_reduce_their_digits_mod_p(q):
    """Negative, >= p and whitespace-padded coefficients parse to the
    element of their residues; a list of the wrong length is refused."""
    field = Field(q)
    p, m = field.p, field.m
    rng = random.Random(q)
    cases = [[-1] * m, [p] * m, [p - 1 + p * i for i in range(m)]]
    cases += [[rng.randrange(-3 * p, 3 * p) for _ in range(m)] for _ in range(20)]
    for coeffs in cases:
        want = field.from_index(_reference_index(p, coeffs))
        assert field.element(coeffs) is want
        assert field.parse("[" + ",".join(map(str, coeffs)) + "]") is want
        assert field.parse(" [ " + " , ".join(map(str, coeffs)) + " ]\t") is want
    for length in (m - 1, m + 1):
        coeffs = [rng.randrange(-p, 2 * p) for _ in range(length)]
        literal = "[" + ",".join(map(str, coeffs)) + "]"
        message = f"expected {m} coefficients for {field}, got {length}"
        with pytest.raises(ValueError, match=re.escape(message)):
            field.element(coeffs)
        with pytest.raises(ValueError, match=re.escape(message)):
            field.parse(literal)


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
    field = fresh_field(q, modulus)
    assert "terms" not in vars(field)
    # The second pass reads what the first stored.
    for _ in range(2):
        for x in field.elements():
            assert str(x) == _reference_literal(field.p, field.m, x.index)
    assert len(field.terms) == q


def test_element_literals_are_stored_only_when_printed():
    field = fresh_field(1 << 16)
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
    twin = fresh_field(q, field.modulus)
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
