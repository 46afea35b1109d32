import math
import random
import time

import pytest

from conftest import group_closure_check, homomorphism_check, random_points, reference_members
from rsperm import permgroup
from rsperm import (
    EvaluationSet,
    Field,
    LinearCode,
    NotAPermutationError,
    Permutation,
    Polynomial,
    affine_group,
    brute_force_perm_group,
    check_theorem,
    exhaustive_permutations,
    perm_to_poly,
    permutes,
    poly_to_perm,
    rs_code,
    rs_dual_multiplier,
)


# -- Permutation basics -----------------------------------------------------


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation([0, 0, 1])
    with pytest.raises(ValueError):
        Permutation([1, 2, 3])


def test_permutation_composition_convention():
    # (p1 * p2)(i) = p1(p2(i))
    p1 = Permutation([1, 2, 0, 3])
    p2 = Permutation([2, 0, 1, 3])
    assert (p1 * p2).is_identity()
    assert p1.inverse() == p2


def test_permutation_display():
    p = Permutation([1, 2, 0, 3])
    assert p.one_based() == (2, 3, 1, 4)
    assert p.cycle_string() == "(1 2 3)"
    assert Permutation.identity(4).cycle_string() == "()"
    assert Permutation.from_one_based([2, 3, 1, 4]) == p


# -- permutation <-> polynomial dictionary ----------------------------------


def test_perm_to_poly_identity(pts13, f13):
    assert perm_to_poly(Permutation.identity(4), pts13) == Polynomial.x(f13)


def test_perm_to_poly_three_cycle(pts13, f13):
    # 0 -> 1 -> 4 -> 0 with 6 fixed is realized by 3x + 1
    perm = Permutation.from_one_based([2, 3, 1, 4])
    assert perm_to_poly(perm, pts13) == Polynomial.from_ints(f13, [1, 3])


def test_perm_to_poly_transposition_not_affine(pts13, f13):
    # swapping the first two points cannot be affine; hand Lagrange
    # interpolation of values (1,0,4,6) gives 6x^2 + 6x + 1
    perm = Permutation.from_one_based([2, 1, 3, 4])
    f = perm_to_poly(perm, pts13)
    assert f == Polynomial.from_ints(f13, [1, 6, 6])
    assert f.degree >= 2
    assert perm not in {p for _, p in affine_group(pts13)}


def test_perm_to_poly_matches_vector_action(pts13):
    # p_pi evaluated on the points reproduces the permuted point tuple
    rng = random.Random(50)
    for _ in range(20):
        images = list(range(4))
        rng.shuffle(images)
        perm = Permutation(images)
        f = perm_to_poly(perm, pts13)
        assert pts13.evaluate(f) == tuple(pts13[j] for j in perm)


def test_poly_to_perm_identity(pts13, f13):
    assert poly_to_perm(Polynomial.x(f13), pts13) == Permutation.identity(4)


def test_poly_to_perm_inverse_pair(pts13, f13):
    p1 = poly_to_perm(Polynomial.from_ints(f13, [1, 3]), pts13)
    p2 = poly_to_perm(Polynomial.from_ints(f13, [4, 9]), pts13)
    assert p2 == Permutation.from_one_based([3, 1, 2, 4])
    assert (p1 * p2).is_identity()


def test_poly_to_perm_constant_rejected(pts13, f13):
    with pytest.raises(NotAPermutationError):
        poly_to_perm(Polynomial.from_ints(f13, [5]), pts13)


def test_round_trip_poly_perm(pts13):
    rng = random.Random(51)
    for _ in range(30):
        images = list(range(4))
        rng.shuffle(images)
        perm = Permutation(images)
        assert poly_to_perm(perm_to_poly(perm, pts13), pts13) == perm


def test_permutes_predicate(pts13, f13):
    assert permutes(Polynomial.x(f13), pts13)
    assert permutes(Polynomial.from_ints(f13, [1, 3]), pts13)
    assert not permutes(Polynomial.from_ints(f13, [1, 1]), pts13)  # 6 -> 7
    assert not permutes(Polynomial.from_ints(f13, [5]), pts13)


# -- affine group ------------------------------------------------------------


def test_affine_group_paper_set(pts13, f13):
    members = affine_group(pts13)
    polys = {m.polynomial for m, _ in members}
    assert polys == {
        Polynomial.x(f13),
        Polynomial.from_ints(f13, [1, 3]),
        Polynomial.from_ints(f13, [4, 9]),
    }


def test_affine_group_full_field():
    for q in (5, 7, 9):
        field = Field(q)
        pts = EvaluationSet.full_field(field)
        assert len(affine_group(pts)) == q * (q - 1)


def test_affine_group_multiplicative_group():
    for q in (5, 7, 9):
        field = Field(q)
        pts = EvaluationSet.multiplicative_group(field)
        members = affine_group(pts)
        assert len(members) == q - 1
        assert all(m.b.is_zero() for m, _ in members)


def test_affine_group_closed_under_composition(pts13):
    perms = [p for _, p in affine_group(pts13)]
    assert group_closure_check(perms)


# -- brute force -------------------------------------------------------------


def test_brute_force_paper_example(pts13):
    report = brute_force_perm_group(rs_code(pts13, 3), pts13)
    assert report.order == 6
    assert report.hint.abelian is False
    assert report.hint.label == "S_3"
    assert report.affine_order == 3
    assert report.is_affine_equal is False


def test_brute_force_repetition_code(pts13):
    report = brute_force_perm_group(rs_code(pts13, 1), pts13)
    assert report.order == 24


def test_brute_force_full_space(pts13):
    report = brute_force_perm_group(rs_code(pts13, 4), pts13)
    assert report.order == 24


def test_hint_of_s8_is_decided():
    # RS(A, 1) on 8 points is fixed by all of S_8: 40320 members, whose
    # commutativity the orbit test decides without comparing every pair.
    points = EvaluationSet(Field(11), list(range(8)))
    report = brute_force_perm_group(rs_code(points, 1), points)
    assert report.order == math.factorial(8)
    assert report.hint.abelian is False
    assert str(report.hint) == "order 40320, non-abelian"


def test_hint_is_computed_once_on_first_read(pts13, monkeypatch):
    calls = []
    is_abelian = permgroup._is_abelian

    def spy(perms):
        calls.append(len(perms))
        return is_abelian(perms)

    monkeypatch.setattr(permgroup, "_is_abelian", spy)
    report = brute_force_perm_group(rs_code(pts13, 3), pts13)
    report.to_json_dict()
    assert calls == []
    assert str(report.hint) == str(report.hint) == "order 6, non-abelian (S_3)"
    assert calls == [6]


def _refused_quickly(search, *args):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="SEARCH_CAP") as exc:
        search(*args)
    assert time.perf_counter() - start < 1.0
    return str(exc.value)


def test_brute_force_respects_cap():
    field = Field(11)
    # The zero code of length 11 is fixed by all 11! permutations.
    points = EvaluationSet(field, list(range(11)))
    zero = LinearCode(field, [], n=11)
    message = _refused_quickly(brute_force_perm_group, zero, points)
    assert str(math.factorial(11)) in message
    # 16!/8! candidates: the search would take minutes.
    points = EvaluationSet(Field(17), list(range(16)))
    message = _refused_quickly(brute_force_perm_group, rs_code(points, 8), points)
    assert str(math.perm(16, 8)) in message
    # k = 1 on 10 points: 10 candidates, but 10! members.
    points = EvaluationSet(field, list(range(10)))
    message = _refused_quickly(exhaustive_permutations, rs_code(points, 1))
    assert str(math.factorial(10)) in message


def test_brute_force_members_fix_the_code(pts13):
    code = rs_code(pts13, 3)
    report = brute_force_perm_group(code, pts13)
    for m in report.elements:
        assert code.permuted(m.perm.images) == code


def test_members_are_interpolated_through_evaluation_set_interpolate(monkeypatch):
    """The benchmark's traced run times interpolation by wrapping
    EvaluationSet.interpolate, so every member's polynomial must come
    from exactly one call of it."""
    calls = []
    interpolate = EvaluationSet.interpolate

    def spy(self, values):
        calls.append(tuple(values))
        return interpolate(self, values)

    monkeypatch.setattr(EvaluationSet, "interpolate", spy)
    field = Field(7)
    for points, k in ((EvaluationSet.full_field(field), 6),
                      (EvaluationSet(field, [0, 1, 2, 4]), 2)):
        calls.clear()
        report = brute_force_perm_group(rs_code(points, k), points)
        assert len(calls) == report.order == len(report.elements)
        assert calls == [tuple(points[j] for j in m.perm.images)
                         for m in report.elements]


def test_brute_force_group_is_closed(pts13):
    for k in (1, 2, 3):
        perms = exhaustive_permutations(rs_code(pts13, k))
        assert group_closure_check(perms)


def test_affine_permutations_always_contained():
    rng = random.Random(52)
    for _ in range(10):
        q = rng.choice([5, 7, 9, 13])
        field = Field(q)
        n = rng.randint(3, min(6, q))
        pts = random_points(rng, field, n)
        affine = {p for _, p in affine_group(pts)}
        for k in range(1, n + 1):
            members = set(exhaustive_permutations(rs_code(pts, k)))
            assert affine <= members


def test_backtrack_agrees_with_scan():
    """Both search methods list exactly the n! reference search's members."""
    rng = random.Random(53)
    for _ in range(25):
        q = rng.choice([2, 3, 5, 7, 9])
        field = Field(q)
        n = rng.randint(2, min(7, q))
        if rng.random() < 0.5:
            rows = [
                [field.from_index(rng.randrange(q)) for _ in range(n)]
                for _ in range(rng.randint(1, n))
            ]
            code = LinearCode(field, rows, n=n)
        else:
            code = rs_code(random_points(rng, field, n), rng.randint(1, n))
        want = reference_members(code)
        for method in ("scan", "backtrack"):
            got = [p.images for p in exhaustive_permutations(code, method=method)]
            assert got == want, method


def test_object_path_matches_affine_theory():
    # a prime field well above the sizes the other tests use
    field = Field(521)
    pts = EvaluationSet(field, [0, 1, 4, 6, 13])
    report = brute_force_perm_group(rs_code(pts, 2), pts)
    assert report.is_affine_equal is True


def test_duality_lemma_on_random_codes():
    rng = random.Random(54)
    for _ in range(15):
        q = rng.choice([2, 3, 5])
        field = Field(q)
        n = rng.randint(2, 6)
        rows = [
            [field.from_index(rng.randrange(q)) for _ in range(n)]
            for _ in range(rng.randint(1, n))
        ]
        code = LinearCode(field, rows, n=n)
        left = set(exhaustive_permutations(code))
        right = set(exhaustive_permutations(code.dual))
        assert left == right


def test_group_report_json_schema(pts13):
    report = brute_force_perm_group(rs_code(pts13, 3), pts13)
    data = report.to_json_dict()
    assert set(data) == {"order", "affine_order", "equal", "elements"}
    assert data["order"] == 6
    assert data["affine_order"] == 3
    assert data["equal"] is False
    for el in data["elements"]:
        assert set(el) == {"perm", "poly", "degree", "affine"}
        assert sorted(el["perm"]) == [1, 2, 3, 4]
        assert isinstance(el["poly"], str)
        assert el["affine"] == (el["degree"] == 1)


# -- group structure checks ----------------------------------------------------


def test_group_closure_check_identity_only():
    assert group_closure_check([Permutation.identity(4)])


def test_group_closure_check_missing_inverse():
    three_cycle = Permutation([1, 2, 0])
    assert not group_closure_check([Permutation.identity(3), three_cycle])
    assert group_closure_check(
        [Permutation.identity(3), three_cycle, three_cycle.inverse()]
    )


def test_group_closure_check_missing_product():
    # Both transpositions are their own inverses; their product (1 2 3)
    # is missing.
    a, b = Permutation([1, 0, 2]), Permutation([0, 2, 1])
    assert not group_closure_check([Permutation.identity(3), a, b])
    assert group_closure_check([Permutation.identity(3), a])


def test_group_closure_check_empty():
    assert not group_closure_check([])


def test_homomorphism_check_identity(pts13):
    rng = random.Random(55)
    ident = Permutation.identity(4)
    for _ in range(10):
        images = list(range(4))
        rng.shuffle(images)
        assert homomorphism_check(pts13, Permutation(images), ident)


def test_homomorphism_check_affine_pair(pts13, f13):
    p1 = poly_to_perm(Polynomial.from_ints(f13, [1, 3]), pts13)
    p2 = poly_to_perm(Polynomial.from_ints(f13, [4, 9]), pts13)
    assert homomorphism_check(pts13, p1, p2)
    assert (p1 * p2).is_identity()


def test_homomorphism_check_random_pairs():
    rng = random.Random(56)
    for _ in range(60):
        q = rng.choice([5, 7, 9, 13])
        field = Field(q)
        n = rng.randint(2, min(7, q))
        pts = random_points(rng, field, n)
        a = list(range(n))
        b = list(range(n))
        rng.shuffle(a)
        rng.shuffle(b)
        assert homomorphism_check(pts, Permutation(a), Permutation(b))


# -- theorem checks -------------------------------------------------------------


def test_check_theorem_in_range(pts13):
    result = check_theorem(pts13, 2)
    assert result.in_range
    assert result.equal
    assert result.all_degree_one
    assert result.holds
    assert result.group.order == 3
    assert result.warning is None


def test_check_theorem_boundary_k(pts13):
    result = check_theorem(pts13, 3)
    assert not result.in_range
    assert not result.equal
    assert result.group.order == 6
    assert result.group.affine_order == 3
    assert result.holds  # report-only outside the range
    assert result.warning is not None


def test_check_theorem_full_field_f5():
    field = Field(5)
    pts = EvaluationSet.full_field(field)
    result = check_theorem(pts, 2)
    assert result.equal
    assert result.group.order == 20


def test_check_theorem_json(pts13):
    data = check_theorem(pts13, 2).to_json_dict()
    assert data["q"] == 13 and data["n"] == 4 and data["k"] == 2
    assert data["in_range"] is True and data["equal"] is True
    assert data["group"]["order"] == 3


def degrees(points, k):
    return {m.perm: m.degree for m in brute_force_perm_group(rs_code(points, k), points).elements}


def test_degree_profile_in_range(pts13):
    profile = degrees(pts13, 2)
    assert sorted(profile.values()) == [1, 1, 1]


def test_degree_profile_boundary(pts13):
    profile = degrees(pts13, 3)
    assert sorted(profile.values()) == [1, 1, 1, 2, 2, 2]


def test_degree_profile_k_one(pts13):
    profile = degrees(pts13, 1)
    ident = Permutation.identity(4)
    assert profile[ident] == 1
    assert len(profile) == 24


# -- structural facts about group members ----------------------------------------


def test_power_vectors_stay_in_code(pts13):
    # for every member of Per(RS(A,k)) and i < k, the componentwise i-th
    # power of the permuted points interpolates below degree k
    k = 2
    code = rs_code(pts13, k)
    for perm in exhaustive_permutations(code):
        f = perm_to_poly(perm, pts13)
        for i in range(k):
            values = [f.evaluate(a) ** i for a in pts13]
            assert pts13.interpolate(values).degree < k
            assert code.contains(values)


def test_rescaled_power_vectors_stay_in_dual_part(pts13):
    # dual-side witnesses: g(p(a))*p(a)^i / g(a) interpolates below n - k
    k = 2
    n = len(pts13)
    code = rs_code(pts13, k)
    g_values = rs_dual_multiplier(pts13)
    g_poly = pts13.interpolate(list(g_values))
    for perm in exhaustive_permutations(code):
        f = perm_to_poly(perm, pts13)
        for i in range(n - k):
            values = []
            for j, a in enumerate(pts13):
                fa = f.evaluate(a)
                values.append(g_poly.evaluate(fa) * fa**i * g_values[j].inverse())
            assert pts13.interpolate(values).degree < n - k
