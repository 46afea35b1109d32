"""affine_group against a q(q-1) reference enumeration.

The reference tries every pair (a, b) with a != 0, in index order, on
FieldElement operators alone, and drops a pair at the first point it
maps outside the set; it imports nothing from rsperm.permgroup, so it
shares no code with the enumeration it checks.  (The field arithmetic
under both is checked against sympy in test_gf_oracle.)  The comparison
is list equality: the same maps, the same permutations and the same
order.  That enumeration takes its candidates from the sum S of the
points and a base point a_r with n*a_r != S, or from pairs of points
when p divides n and S = 0, so the point sets cover each of those
cases, with and without maps other than the identity.  Each member, and
poly_to_perm of its polynomial, skips the checked Permutation
constructor, so both must equal what that constructor builds.
"""

import random

import pytest

from rsperm import EvaluationSet, Field, Permutation, affine_group, poly_to_perm

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
        group = affine_group(points)
        got = [(m.a.index, m.b.index, perm.images) for m, perm in group]
        assert got == reference_affine(points), f"GF({q}) {name}"
        for m, perm in group:
            for p in (perm, poly_to_perm(m.polynomial, points)):
                assert type(p.images) is tuple and Permutation(p.images) == perm


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


def times(n: int, x):
    """n * x by repeated addition."""
    out = x.field.zero
    for _ in range(n % x.field.p):
        out = out + x
    return out


def sum_case(pts: list) -> str:
    """Which of the sum's cases the set is in: whether p divides n, and
    then whether the sum S is 0 or else whether the first point is the
    centroid (n * a_0 = S)."""
    n = len(pts)
    total = pts[0].field.zero
    for x in pts:
        total = total + x
    if n % pts[0].field.p:
        return "p∤n, a0 centroid" if times(n, pts[0]) == total else "p∤n"
    return "p|n, S=0" if total.is_zero() else "p|n, S≠0"


def centroid_first(pts: list) -> list:
    """The points with the centroid S/n moved to the front, when it is one of them."""
    for i, x in enumerate(pts):
        if sum_case([x] + pts[:i] + pts[i + 1 :]) == "p∤n, a0 centroid":
            return [x] + pts[:i] + pts[i + 1 :]
    return pts


def orbit_union(field: Field, rng: random.Random, size: int) -> list:
    """Whole orbits of a random affine map u*x + v (u of order at most 16),
    added until there are at least `size` points or none is left, then
    shuffled; the map permutes them.  With u != 1 its fixed point is
    taken or left at random."""
    one = field.one
    u = rng.choice(
        [u for u in field.nonzero_elements() if any(u**r == one for r in range(1, 17))]
    )
    v = rng.choice(field.elements() if u != one else field.nonzero_elements())
    pts: list = []
    taken: set[int] = set()
    while len(pts) < size and len(taken) < field.q:
        x = field.from_index(rng.randrange(field.q))
        if x.index in taken:
            continue
        orbit = [x]
        while (y := u * orbit[-1] + v) != x:
            orbit.append(y)
        taken.update(y.index for y in orbit)
        if len(orbit) > 1 or rng.random() < 0.5:
            pts += orbit
    rng.shuffle(pts)
    return pts


def zero_sum(field: Field, rng: random.Random, n: int) -> list | None:
    """n points summing to 0, the last one chosen to make it so, if it is new."""
    pts = rng.sample(field.elements(), n - 1)
    last = field.zero
    for x in pts:
        last = last - x
    return None if last in pts else pts + [last]


def case_sets(field: Field, rng: random.Random) -> list[list]:
    """Random point sets, orbit unions, and sets of a size p divides, both
    random and summing to 0; each also with its centroid first."""
    elements, p = field.elements(), field.p
    top = min(field.q, 12)
    sets = []
    for _ in range(8):
        sets.append(rng.sample(elements, rng.randint(2, top)))
        sets.append(orbit_union(field, rng, rng.randint(2, top)))
        n = p * rng.randint(1, top // p)
        sets.append(rng.sample(elements, n))
        if pts := zero_sum(field, rng, n):
            sets.append(pts)
    return sets + [centroid_first(pts) for pts in sets]


@pytest.mark.parametrize("q", FIELD_ORDERS)
def test_affine_group_matches_reference_in_each_sum_case(q):
    field = Field(q)
    rng = random.Random(4000 + q)
    for pts in case_sets(field, rng):
        points = EvaluationSet(field, pts)
        got = [(m.a.index, m.b.index, perm.images) for m, perm in affine_group(points)]
        assert got == reference_affine(points), (q, sum_case(pts), pts)


def test_case_sets_reach_each_sum_case():
    """Every case, with and without a nontrivial group, in several fields."""
    fields: dict[tuple[str, bool], set[int]] = {}
    for q in FIELD_ORDERS:
        field = Field(q)
        for pts in case_sets(field, random.Random(4000 + q)):
            key = sum_case(pts), len(affine_group(EvaluationSet(field, pts))) > 1
            fields.setdefault(key, set()).add(q)
    for case in ("p∤n", "p∤n, a0 centroid", "p|n, S≠0", "p|n, S=0"):
        for nontrivial in (False, True):
            assert len(fields.get((case, nontrivial), ())) >= 3, (case, nontrivial, fields)


@pytest.mark.parametrize("q", (128, 243, 256))
def test_affine_group_on_orbit_unions_at_bigfield_sizes(q):
    """Unions of orbits of a random affine map, so the group is never
    just the identity."""
    field = Field(q)
    rng = random.Random(5000 + q)
    for size in (7, 20, 60):
        pts = orbit_union(field, rng, size)
        points = EvaluationSet(field, pts)
        got = [(m.a.index, m.b.index, perm.images) for m, perm in affine_group(points)]
        assert got == reference_affine(points), (q, size)
        assert len(got) > 1
