"""Polynomial text against a reference renderer.

str(f) and affine_str(f) are compared with a renderer that works on the
coefficient indices alone: an element literal is the index in decimal
over a prime field and its m base-p digits, least significant first, in
brackets over GF(p^m).  The renderer and the digit split use no rsperm
code, so they share nothing with the cached term strings they check.
Every polynomial is printed twice, so that the second print reads what
the first stored.
"""

import random

import pytest

from rsperm import Field, Polynomial
from rsperm.poly import affine_str

# q -> (p, m), written out rather than factored by rsperm.
FIELDS = {
    2: (2, 1), 3: (3, 1), 4: (2, 2), 7: (7, 1), 8: (2, 3), 9: (3, 2),
    13: (13, 1), 16: (2, 4), 25: (5, 2), 27: (3, 3), 49: (7, 2), 256: (2, 8),
}
MAX_DEGREE = 20


def literal(p: int, m: int, index: int) -> str:
    if m == 1:
        return str(index)
    digits = []
    for _ in range(m):
        index, d = divmod(index, p)
        digits.append(str(d))
    return "[" + ",".join(digits) + "]"


def render(p: int, m: int, cs: list[int]) -> str:
    """Ascending nonzero terms c*x^i, with x^i alone for c = 1 and i >= 1."""
    terms = []
    for i, c in enumerate(cs):
        if c == 0:
            continue
        if i == 0:
            terms.append(literal(p, m, c))
            continue
        power = "x" if i == 1 else "x^" + str(i)
        terms.append(power if c == 1 else literal(p, m, c) + "*" + power)
    return " + ".join(terms) if terms else "0"


def render_affine(p: int, m: int, cs: list[int]) -> str:
    """a*x + b for degree <= 1, else the plain rendering."""
    cs = stripped(cs)
    if len(cs) > 2:
        return render(p, m, cs)
    b, a = (cs + [0, 0])[:2]
    if a == 0:
        return literal(p, m, b)
    ax = "x" if a == 1 else literal(p, m, a) + "*x"
    return ax if b == 0 else ax + " + " + literal(p, m, b)


def stripped(cs: list[int]) -> list[int]:
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def cases(q: int, rng: random.Random) -> list[list[int]]:
    """Coefficient index lists, ascending, some with trailing zeros."""
    units = list(range(1, q))
    sample = units if q <= 27 else rng.sample(units, 26)
    out = [[], [0], [0, 0, 0]]
    out += [[c] for c in [0] + sample]  # constants
    out += [[1], [0, 1], [1, 1], [0, 0, 1], [1] * 12]  # coefficient 1
    out += [[0, a] for a in sample]  # degree 1 with b = 0
    out += [[b, a] for a in sample for b in rng.sample(range(q), min(q, 4))]
    out += [[0] * i + [a] for i in (9, 10, 11, MAX_DEGREE) for a in (1, sample[-1])]
    for d in range(MAX_DEGREE + 1):
        for _ in range(3):
            lower = [rng.randrange(q) if rng.random() < 0.6 else 0 for _ in range(d)]
            out.append(lower + [rng.randrange(1, q)])
    return out


@pytest.mark.parametrize("q", sorted(FIELDS))
def test_str_and_affine_str_match_the_reference(q):
    p, m = FIELDS[q]
    field = Field(q)
    rng = random.Random(1700 + q)
    checked = set()
    for cs in cases(q, rng):
        f = Polynomial(field, [field.from_index(c) for c in cs])
        for _ in range(2):
            assert str(f) == render(p, m, cs), (q, cs)
            assert affine_str(f) == render_affine(p, m, cs), (q, cs)
        checked.add(len(stripped(cs)) - 1)
    # Every degree from the zero polynomial's -1 up to MAX_DEGREE occurs.
    assert checked >= set(range(-1, MAX_DEGREE + 1))

