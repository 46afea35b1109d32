"""affine_group against a q(q-1) reference enumeration.

The reference tries every pair (a, b) with a != 0, in index order, on
FieldElement operators alone, and drops a pair at the first point it
maps outside the set; it imports nothing from rsperm.permgroup, so it
shares no code with the two-point enumeration it checks.  (The field
arithmetic under both is checked against sympy in test_gf_oracle.)  The
comparison is list equality: the same maps, the same permutations and
the same order.
"""

import random

import pytest

from rsperm import EvaluationSet, Field, affine_group

FIELD_ORDERS = (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32, 49, 64)


def reference_affine(points: EvaluationSet) -> list[tuple[int, int, tuple[int, ...]]]:
    """(a, b, images) for every a*x + b permuting the points, a outer, b inner."""
    field = points.field
    where = {x.index: i for i, x in enumerate(points)}
    out = []
    for a in range(1, field.q):
        ea = field.from_index(a)
        for b in range(field.q):
            eb = field.from_index(b)
            images = []
            for x in points:
                pos = where.get((ea * x + eb).index)
                if pos is None:
                    break
                images.append(pos)
            else:
                out.append((a, b, tuple(images)))
    return out


def subfield(field: Field, d: int) -> list:
    """GF(p^d) inside the field: the roots of x^(p^d) - x."""
    size = field.p**d
    return [x for x in field.elements() if x**size == x]


def point_sets(field: Field, rng: random.Random) -> dict[str, list]:
    elements = field.elements()
    sets = {
        "pair": rng.sample(elements, 2),
        "full": elements,
        "units": field.nonzero_elements(),
    }
    for n in sorted({min(3, field.q), max(2, field.q // 2), max(2, field.q - 2)}):
        sets[f"random-{n}"] = rng.sample(elements, n)
    for d in range(1, field.m):
        if field.m % d:
            continue
        sub = subfield(field, d)
        c = rng.choice([x for x in elements if x not in sub])
        sets[f"GF({len(sub)})"] = sub
        sets[f"GF({len(sub)})+c"] = [x + c for x in sub]
        sets[f"c*GF({len(sub)})*"] = [c * x for x in sub if not x.is_zero()]
    return sets


@pytest.mark.parametrize("q", FIELD_ORDERS)
def test_affine_group_matches_reference(q):
    field = Field(q)
    rng = random.Random(1000 + q)
    for name, pts in point_sets(field, rng).items():
        if len(pts) < 2:
            continue
        points = EvaluationSet(field, pts)
        got = [(m.a.index, m.b.index, perm.images) for m, perm in affine_group(points)]
        assert got == reference_affine(points), f"GF({q}) {name}"


def test_gf4_inside_gf16_and_its_cosets():
    """The orders that the subfield structure of GF(16) predicts."""
    field = Field(16)
    sub = subfield(field, 2)
    assert len(sub) == 4
    c = next(x for x in field.elements() if x not in sub)
    # u*x + v maps GF(4) into itself iff v = f(0) and u = f(1) - v lie in
    # GF(4); a translate of GF(4) has the conjugate group.
    assert len(affine_group(EvaluationSet(field, sub))) == 12
    assert len(affine_group(EvaluationSet(field, [x + c for x in sub]))) == 12
    # The three points of c*GF(4)* sum to 0, which a nonzero translation
    # would move; so only the scalings by GF(4)* remain.
    units = EvaluationSet(field, [c * x for x in sub if not x.is_zero()])
    assert [m.b.is_zero() for m, _ in affine_group(units)] == [True] * 3


def span(field: Field, basis) -> list:
    """Every F_p-combination of the basis."""
    out = [field.zero]
    for v in basis:
        multiples = [field.element([c] + [0] * (field.m - 1)) * v for c in range(field.p)]
        out = [x + y for x in out for y in multiples]
    return out


def bigfield_sets(field: Field, rng: random.Random) -> dict[str, list]:
    """Point sets with non-trivial affine groups at the bigfield sizes."""
    dim = 3 if field.p == 2 else 2
    while True:
        subspace = span(field, rng.sample(field.nonzero_elements(), dim))
        if len(set(subspace)) == field.p**dim:
            break
    c = rng.choice([x for x in field.elements() if x not in subspace])
    sets = {"subspace": subspace, "subspace+c": [x + c for x in subspace]}
    if field.q == 243:
        # 242 = 2 * 11^2, so the 11th roots of unity form a subgroup of GF(243)*.
        roots = [x for x in field.nonzero_elements() if x**11 == field.one]
        assert len(roots) == 11
        c = rng.choice([x for x in field.nonzero_elements() if x not in roots])
        sets["mu11"] = roots
        sets["c*mu11"] = [c * x for x in roots]
    return sets


@pytest.mark.parametrize("q", (128, 243, 256))
def test_affine_group_at_bigfield_sizes(q):
    field = Field(q)
    rng = random.Random(3000 + q)
    for name, pts in bigfield_sets(field, rng).items():
        points = EvaluationSet(field, pts)
        got = [(m.a.index, m.b.index, perm.images) for m, perm in affine_group(points)]
        want = reference_affine(points)
        assert got == want, f"GF({q}) {name}"
        if name.startswith("subspace"):
            # The translations by the subspace, at least.
            assert len(got) >= len(pts) > 1
        else:
            # x -> u*x for the 11th roots u; no translation keeps the sum 0.
            assert len(got) == 11
