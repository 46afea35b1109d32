"""rsperm.gf against sympy's polynomial arithmetic over F_p.

The index kernel is checked pair by pair, the modulus search
(is_irreducible, default_modulus) against sympy's irreducibility test,
and factor_prime_power against sympy's factorint.

sympy shares no code with rsperm and is a test-only dependency.  Its
galoistools take coefficient lists highest degree first, so every
element is converted through its ascending ``coeffs``.
"""

import random

import pytest

galoistools = pytest.importorskip("sympy.polys.galoistools")
from sympy import factorint  # noqa: E402
from sympy.polys.domains import ZZ  # noqa: E402

from rsperm import Field  # noqa: E402
from rsperm.gf import default_modulus, factor_prime_power, is_irreducible  # noqa: E402


class Oracle:
    """GF(p^m) arithmetic as sympy polynomials reduced by the field's modulus."""

    def __init__(self, field: Field):
        self.field = field
        self.p = field.p
        # A prime field is F_p[t] mod t: every element is a constant.
        ascending = field.modulus if field.m > 1 else (0, 1)
        self.modulus = list(reversed(ascending))

    def poly(self, x) -> list[int]:
        return galoistools.gf_strip(list(reversed(x.coeffs)))

    def coeffs(self, poly: list[int]) -> tuple[int, ...]:
        padded = [0] * (self.field.m - len(poly)) + [int(c) % self.p for c in poly]
        return tuple(reversed(padded))

    def add(self, x, y):
        return self.coeffs(galoistools.gf_add(self.poly(x), self.poly(y), self.p, ZZ))

    def sub(self, x, y):
        return self.coeffs(galoistools.gf_sub(self.poly(x), self.poly(y), self.p, ZZ))

    def mul(self, x, y):
        prod = galoistools.gf_mul(self.poly(x), self.poly(y), self.p, ZZ)
        return self.coeffs(galoistools.gf_rem(prod, self.modulus, self.p, ZZ))

    def pow(self, x, e: int):
        acc = [1]
        for _ in range(e):
            prod = galoistools.gf_mul(acc, self.poly(x), self.p, ZZ)
            acc = galoistools.gf_rem(prod, self.modulus, self.p, ZZ)
        return self.coeffs(acc)

    def pow_mod(self, x, e: int):
        return self.coeffs(
            galoistools.gf_pow_mod(self.poly(x), e, self.modulus, self.p, ZZ)
        )


def check_pair(oracle: Oracle, x, y) -> None:
    assert (x + y).coeffs == oracle.add(x, y)
    assert (x - y).coeffs == oracle.sub(x, y)
    assert (x * y).coeffs == oracle.mul(x, y)
    e = y.index % 7
    assert (x**e).coeffs == oracle.pow(x, e)
    if x.is_zero():
        with pytest.raises(ZeroDivisionError):
            x.inverse()
        return
    inv = x.inverse()
    assert oracle.mul(x, inv) == oracle.coeffs([1])
    assert (x**-2).coeffs == oracle.mul(inv, inv)


def assert_primitive_order(field: Field) -> None:
    oracle = Oracle(field)
    exp = field.tables[0]
    g = field.from_index(exp[1])
    one = oracle.coeffs([1])
    q1 = field.q - 1
    assert oracle.pow_mod(g, q1) == one
    for r in factorint(q1):
        assert oracle.pow_mod(g, q1 // r) != one


EXHAUSTIVE = [
    pytest.param(Field(4), id="GF(4)"),
    pytest.param(Field(8), id="GF(8)"),
    pytest.param(Field(16), id="GF(16)"),
    pytest.param(Field(25), id="GF(25)"),
    pytest.param(Field(27), id="GF(27)"),
    pytest.param(Field(49), id="GF(49)"),
    pytest.param(Field(9, modulus=(2, 2, 1)), id="GF(9)-paper"),
    pytest.param(Field(9), id="GF(9)-default"),
]

SAMPLED = [
    pytest.param(256, id="GF(256)"),
    pytest.param(3**10, id="GF(3^10)"),
    pytest.param(1 << 16, id="GF(2^16)"),
]


@pytest.mark.parametrize("field", EXHAUSTIVE)
def test_every_pair_matches_sympy(field):
    oracle = Oracle(field)
    els = field.elements()
    for x in els:
        for y in els:
            check_pair(oracle, x, y)


@pytest.mark.parametrize("q", SAMPLED)
def test_sampled_pairs_match_sympy(q):
    field = Field(q)
    oracle = Oracle(field)
    rng = random.Random(q)
    for _ in range(2000):
        x = field.from_index(rng.randrange(q))
        y = field.from_index(rng.randrange(q))
        check_pair(oracle, x, y)
    # The sample rarely draws zero; pair it both ways once.
    check_pair(oracle, field.zero, x)
    check_pair(oracle, x, field.zero)


@pytest.mark.parametrize(
    "field",
    EXHAUSTIVE
    + [pytest.param(Field(q), id=f"GF({q})") for q in (2, 13, 256, 3**10, 1 << 16)],
)
def test_primitive_element_has_order_q_minus_1(field):
    assert_primitive_order(field)


MODULUS_DEGREES = [(2, m) for m in range(1, 9)] + [
    (3, 1), (3, 2), (3, 3), (3, 4), (3, 5), (5, 2), (5, 3), (5, 4), (7, 2), (7, 3),
]


def monic(p: int, m: int, idx: int) -> list[int]:
    """The monic degree-m polynomial whose lower coefficients are the base-p digits of idx."""
    return [idx // p**i % p for i in range(m)] + [1]


@pytest.mark.parametrize("p, m", MODULUS_DEGREES)
def test_is_irreducible_matches_sympy(p, m):
    for idx in range(p**m):
        coeffs = monic(p, m, idx)
        expected = galoistools.gf_irreducible_p(coeffs[::-1], p, ZZ)
        assert is_irreducible(coeffs, p) == expected, coeffs


@pytest.mark.parametrize("p, m", MODULUS_DEGREES)
def test_default_modulus_is_the_first_irreducible(p, m):
    """First in the order of the lower coefficients read as base-p digits."""
    first = next(
        monic(p, m, idx)
        for idx in range(p**m)
        if galoistools.gf_irreducible_p(monic(p, m, idx)[::-1], p, ZZ)
    )
    assert default_modulus(p, m) == tuple(first)


@pytest.mark.parametrize(
    "qs",
    [
        pytest.param(range(4097), id="q<=4096"),
        # 251^2, 251*257, the largest prime below 2^16, 2^16 - 1, 2^16,
        # and orders below 2.
        pytest.param([63001, 64507, 65521, 65535, 65536, 0, 1, -5], id="edges"),
    ],
)
def test_factor_prime_power_matches_sympy(qs):
    for q in qs:
        factors = factorint(q)
        if q >= 2 and len(factors) == 1:
            assert factor_prime_power(q) == next(iter(factors.items())), q
        else:
            with pytest.raises(ValueError):
                factor_prime_power(q)
