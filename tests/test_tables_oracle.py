"""Field.tables against the coefficient-list table build it replaced.

_reference_powers below is the earlier rsperm.gf._primitive_powers,
kept unchanged: it finds the first primitive element by powering
coefficient lists and multiplies one power of g at a time by Horner's
rule.  Field.tables must equal the tables built from it entry for
entry (exp, log, zech and the interned elements), and for q <= 256
sympy confirms that exp[1] is the first index of multiplicative order
q - 1.
"""

from __future__ import annotations

from typing import Sequence

import pytest

galoistools = pytest.importorskip("sympy.polys.galoistools")
from sympy import factorint  # noqa: E402
from sympy.polys.domains import ZZ  # noqa: E402

from rsperm import Field  # noqa: E402
from rsperm.gf import default_modulus  # noqa: E402


def _reference_powers(field: Field) -> list[int]:
    """Indices of g**0, ..., g**(q-2) for the first primitive g in index order.

    g is primitive when g**d != 1 for every proper divisor d of q - 1.
    These products of coefficient lists, reduced one power of t at a
    time, only build the tables.
    """
    p, m, q = field.p, field.m, field.q
    # t**m as a combination of lower powers: minus the modulus below its top.
    top_power = [(-c) % p for c in field.modulus[:m]] if m > 1 else []

    def times(x: list[int], y: Sequence[int]) -> list[int]:
        """x * y by Horner's rule in t; y may end at its last nonzero coefficient."""
        acc = [0] * m
        for c in reversed(y):
            lead, acc = acc[-1], [0] + acc[:-1]
            if lead:
                acc = [(a + lead * b) % p for a, b in zip(acc, top_power)]
            if c:
                acc = [(a + c * b) % p for a, b in zip(acc, x)]
        return acc

    def power(x: list[int], e: int) -> list[int]:
        result = one
        while e:
            if e & 1:
                result = times(result, x)
            x = times(x, x)
            e >>= 1
        return result

    one = [1] + [0] * (m - 1)
    divisors = [d for d in range(1, q - 1) if (q - 1) % d == 0]
    for cand in range(1, q):
        g = list(field.from_index(cand).coeffs)
        if all(power(g, d) != one for d in divisors):
            break
    while not g[-1]:
        g.pop()
    place = [p**i for i in range(m)]
    powers = [1]
    x = times(one, g)
    while x != one:
        powers.append(sum(c * w for c, w in zip(x, place)))
        x = times(x, g)
    return powers


def reference_tables(field: Field) -> tuple:
    """(exp, log, zech) assembled from _reference_powers as Field.tables does."""
    powers = _reference_powers(field)
    log: list[int | None] = [None] * field.q
    for i, x in enumerate(powers):
        log[x] = i
    zech = None
    if field.p > 2 and field.m > 1:
        zech = [log[x + 1 if (x + 1) % field.p else x + 1 - field.p] for x in powers]
    return powers + powers, log, zech


def prime_powers(limit: int) -> list[int]:
    return [q for q in range(2, limit + 1) if len(factorint(q)) == 1]


# One modulus per characteristic that is not the default, and GF(9) with
# the paper's modulus t^2 + 2t + 2.
MODULI = [(9, (2, 2, 1)), (16, (1, 0, 0, 1, 1)), (25, (2, 1, 1)), (27, (2, 2, 0, 1))]

FIELDS = (
    [pytest.param(q, None, id=f"GF({q})") for q in prime_powers(1024)]
    + [pytest.param(q, mod, id=f"GF({q})-{mod}") for q, mod in MODULI]
    + [
        # The orders up to 1024 take lanes of 8 (GF(16)), 16 (GF(256)) and 32
        # bits (GF(1024)).  Lanes filled to the top: 127^2 fills 16 bits with two 8-bit digit
        # slots, and 2^16 fills 32 with sixteen 2-bit slots.  131^2 and 251^2
        # have the widest slots (9 bits), 3^10 the most 3-bit slots (ten).
        pytest.param(127**2, None, id="GF(127^2)"),
        pytest.param(131**2, None, id="GF(131^2)"),
        pytest.param(251**2, None, id="GF(251^2)"),
        pytest.param(3**10, None, id="GF(3^10)"),
        pytest.param(1 << 16, None, id="GF(2^16)"),
        pytest.param(65521, None, id="GF(65521)"),
    ]
)


def test_moduli_are_not_the_defaults():
    for q, mod in MODULI:
        field = Field(q, modulus=mod)
        assert field.modulus != default_modulus(field.p, field.m)


@pytest.mark.parametrize("q, modulus", FIELDS)
def test_tables_match_reference(q, modulus):
    field = Field(q, modulus=modulus)
    exp, log, zech, elements = field.tables
    ref_exp, ref_log, ref_zech = reference_tables(field)
    assert exp == ref_exp
    assert log == ref_log
    assert zech == ref_zech
    assert [x.index for x in elements] == list(range(q))
    assert all(x.field is field for x in elements)


def has_full_order(field: Field, index: int) -> bool:
    """Whether the element of this index has multiplicative order q - 1, by sympy."""
    q1, p = field.q - 1, field.p
    if not index:
        return False
    # A prime field is F_p[t] mod t: every element is a constant.
    modulus = list(reversed(field.modulus)) if field.m > 1 else [1, 0]
    x = galoistools.gf_strip(list(reversed(field.from_index(index).coeffs)))
    return all(
        galoistools.gf_pow_mod(x, q1 // r, modulus, p, ZZ) != [1] for r in factorint(q1)
    )


@pytest.mark.parametrize(
    "q, modulus",
    [param for param in FIELDS if param.values[0] <= 256],
)
def test_generator_is_the_first_of_full_order(q, modulus):
    field = Field(q, modulus=modulus)
    g = field.tables[0][1]
    assert has_full_order(field, g)
    assert not any(has_full_order(field, x) for x in range(1, g))
