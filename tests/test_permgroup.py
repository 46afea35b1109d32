import copy
import math
import pickle
import random
import sys
import time
import tracemalloc
from collections import Counter

import pytest

from conftest import group_closure_check, homomorphism_check, random_points, reference_members
from rsperm import permgroup
from rsperm.gf import Packing
from rsperm.permgroup import GroupMember
from rsperm import (
    AffineMap,
    EvaluationSet,
    Field,
    GroupReport,
    LinearCode,
    NotAPermutationError,
    Permutation,
    Polynomial,
    TheoremReport,
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
    assert p1 * p2 == Permutation.identity(4)
    assert p1.inverse() == p2


def test_permutation_display():
    p = Permutation([1, 2, 0, 3])
    assert p.one_based() == (2, 3, 1, 4)


# -- permutation <-> polynomial dictionary ----------------------------------


def test_perm_to_poly_identity(pts13, f13):
    assert perm_to_poly(Permutation.identity(4), pts13) == Polynomial.x(f13)


def test_perm_to_poly_three_cycle(pts13, f13):
    # 0 -> 1 -> 4 -> 0 with 6 fixed is realized by 3x + 1
    perm = Permutation([1, 2, 0, 3])
    assert perm_to_poly(perm, pts13) == Polynomial.from_ints(f13, [1, 3])


def test_perm_to_poly_transposition_not_affine(pts13, f13):
    # swapping the first two points cannot be affine; hand Lagrange
    # interpolation of values (1,0,4,6) gives 6x^2 + 6x + 1
    perm = Permutation([1, 0, 2, 3])
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
    assert p2 == Permutation([2, 0, 1, 3])
    assert p1 * p2 == Permutation.identity(4)


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
    assert report.is_abelian is False
    assert report.hint == "order 6, non-abelian (S_3)"
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
    assert report.is_abelian is False
    assert report.hint == "order 40320, non-abelian"


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


def test_a_pruned_search_over_the_cap_raises_before_listing(monkeypatch):
    """k = 3 with three classes of 5 equal columns, n = 15: 15!/12! = 2730
    candidates, split at h = 2, and Per(C) = S_5 wr S_3 of order
    6 * 120^3 > SEARCH_CAP.  The order is |orbit| * |Stab(p_0)| = 15 *
    (4! * 120^2 * 2), known before any member is listed, so the search
    raises and _listed never runs."""
    field = Field(2)
    rows = [[field.one if j // 5 == i else field.zero for j in range(15)] for i in range(3)]
    code = LinearCode(field, rows)
    assert permgroup._split(15, 3, 3) == 2
    found, listed = [], []
    accepted, listing = permgroup._accepted, permgroup._listed

    def spy_accepted(cols):
        state, order = accepted(cols)
        found.append((len(state[0]), order))
        return state, order

    def spy_listed(*args):
        listed.append(args)
        return listing(*args)

    monkeypatch.setattr(permgroup, "_accepted", spy_accepted)
    monkeypatch.setattr(permgroup, "_listed", spy_listed)
    message = _refused_quickly(exhaustive_permutations, code)
    assert str(6 * 120**3) in message
    assert found == [(14, 15 * 24 * 120**2 * 2)]
    assert listed == []


def test_a_transitive_group_is_closed_from_one_transversal_member(monkeypatch):
    """All of GF(q) with k = 2 and 3: Stab(p_0), the q - 1 maps a * x, is
    searched in full, and the first member with t_0 != p_0 closes the
    orbit of p_0 to all q points under it and them.  So _grow runs once,
    from the orbit {p_0}, and every other subtree is passed over: the
    search yields q accepted images in all."""
    grown, yielded = [], []
    grow, images = permgroup._grow, permgroup._images

    def spy_grow(orbit, gens, g):
        before = len(orbit)
        grow(orbit, gens, g)
        grown.append((before, len(orbit)))

    def spy_images(cols, h, skip):
        for found in images(cols, h, skip):
            yielded.append(found[0][0])
            yield found

    monkeypatch.setattr(permgroup, "_grow", spy_grow)
    monkeypatch.setattr(permgroup, "_images", spy_images)
    for q in (8, 9, 16, 25, 27):
        points = EvaluationSet.full_field(Field(q))
        for k in (2, 3):
            grown.clear()
            yielded.clear()
            cols = permgroup._Columns(rs_code(points, k))
            (reps, whole, grouped), order = permgroup._accepted(cols)
            assert grown == [(1, q)], (q, k)
            p0 = cols.pivots[0]
            assert len(yielded) == q and yielded.count(p0) == q - 1, (q, k)
            assert (len(reps), len(whole), grouped, order) == (q - 1, q - 1, [], q * (q - 1))


class SquareSpy:
    """Records, while installed, every square dual D that
    exhaustive_permutations builds (squares) with its dimension (built),
    each call of _square_dual (asked),
    every code whose columns it packs into a _Columns (columns),
    (dimension, order) of every code whose accepted images it collects,
    and the dimension of every code whose members it lists."""

    def __init__(self, monkeypatch, gate=None):
        self.built, self.accepted, self.listed = [], [], []
        self.squares, self.columns, self.asked = [], [], []
        square_dual, accepted, listed, columns = (
            permgroup._square_dual, permgroup._accepted, permgroup._listed,
            permgroup._Columns,
        )

        def spy_square(code):
            square = square_dual(code)
            self.asked.append(code)
            if square is not None:
                self.built.append(square.k)
                self.squares.append(square)
            return square

        def spy_columns(code):
            self.columns.append(code)
            return columns(code)

        def spy_accepted(cols):
            found, order = accepted(cols)
            self.accepted.append((len(cols.rows), order))
            return found, order

        def spy_listed(n, pivots, found):
            self.listed.append(len(pivots))
            return listed(n, pivots, found)

        monkeypatch.setattr(permgroup, "_square_dual", spy_square)
        monkeypatch.setattr(permgroup, "_accepted", spy_accepted)
        monkeypatch.setattr(permgroup, "_listed", spy_listed)
        monkeypatch.setattr(permgroup, "_Columns", spy_columns)
        if gate is not None:
            monkeypatch.setattr(permgroup, "_square_pays", lambda n, k, cost: gate)


def direct_search(monkeypatch, code):
    """C's members from _search with the square-dual gate shut: no square
    is built, and C's columns are built once and searched."""
    with monkeypatch.context() as patch:
        spy = SquareSpy(patch, gate=False)
        direct = permgroup._search(code)
    assert spy.built == []
    assert spy.columns == [code]
    assert spy.accepted == [(code.k, len(direct))]
    return direct


def test_cap_is_checked_before_any_square_is_built(monkeypatch):
    """Criterion 11's inputs: 16!/8! candidates are refused before a square
    is built, even with the cost gate open, and k = 1 never has a square
    dual smaller than the code, so its 10! members are refused as before."""
    spy = SquareSpy(monkeypatch, gate=True)
    points = EvaluationSet(Field(17), list(range(16)))
    message = _refused_quickly(exhaustive_permutations, rs_code(points, 8))
    assert str(math.perm(16, 8)) in message
    points = EvaluationSet(Field(11), list(range(10)))
    message = _refused_quickly(exhaustive_permutations, rs_code(points, 1))
    assert str(math.factorial(10)) in message
    assert spy.built == spy.listed == []


def test_a_large_square_group_falls_back_to_the_direct_search(monkeypatch):
    """All of GF(8) with k = 4: D = RS(A, 7)^perp is the repetition code,
    whose 8! members exceed the 400 lookups and entries of searching C.
    With the gate forced open the search builds D, raises nothing, lists
    no member of D and answers with C's own search: AGL(1, 8)."""
    points = EvaluationSet.full_field(Field(8))
    code = rs_code(points, 4)
    direct = direct_search(monkeypatch, code)
    assert permgroup._cost(8, 4, 8) == 400
    spy = SquareSpy(monkeypatch, gate=True)
    got = [p.images for p in exhaustive_permutations(code)]
    assert got == direct
    assert len(got) == 56
    assert got == sorted(p.images for _, p in affine_group(points))
    assert spy.built == [1]
    # D's accepted images first, then C's; each code's columns built once.
    assert spy.accepted == [(1, math.factorial(8)), (4, 56)]
    assert Counter(spy.columns) == {code: 1, spy.squares[0]: 1}
    assert spy.listed == [4]


def test_criterion_12_inputs_and_the_square_dual(monkeypatch):
    """GF(13) points 0..11 with k = 6 is searched through a 1-dimensional
    D whose 12 members all fix C.  All of GF(16) with k = 5 opens the
    cost gate, but the cross products of C's rows show dim D = 7, not
    below k, so no D is built and C is searched.  Either way the members
    are those of the direct search of C, and C's columns are built once,
    as are D's when D is searched."""
    cases = (
        (EvaluationSet(Field(13), list(range(12))), 6, [1], [1]),
        (EvaluationSet.full_field(Field(16)), 5, [], [5]),
    )
    for points, k, built, listed in cases:
        code = rs_code(points, k)
        direct = direct_search(monkeypatch, code)
        with monkeypatch.context() as patch:
            spy = SquareSpy(patch)
            report = brute_force_perm_group(code, points)
        assert [m.perm.images for m in report.elements] == direct
        assert (spy.built, spy.listed) == (built, listed), points.field.q
        assert spy.asked == [code], points.field.q
        # Only the listed code's accepted images are collected.
        assert [d for d, _ in spy.accepted] == listed, points.field.q
        searched = [d for d in spy.squares if 0 < d.k < k]
        assert Counter(spy.columns) == Counter([code, *searched]), points.field.q
        assert report.is_affine_equal


def test_brute_force_members_fix_the_code(pts13):
    code = rs_code(pts13, 3)
    report = brute_force_perm_group(code, pts13)
    for m in report.elements:
        assert code.permuted(m.perm.images) == code


def test_members_are_interpolated_through_evaluation_set_interpolate(monkeypatch):
    """Every member's polynomial comes from exactly one call of
    EvaluationSet.interpolate on the report's points, with the images as
    point elements.  The benchmark's `poly.interpolate` span
    (benchmarks/spans.py) wraps that method, and a `--trace 1` run of
    benchmarks/run.py reports `poly.interpolations_per_s` as the span's
    calls / total_s: polynomials made by any other path, such as one
    private loop over all members, leave that division at 0 / 0.  Two
    all-of-S_7 reports (the `boundary-sym` instances' shapes, odd p and
    p = 2) and a small group are checked."""
    calls = []
    interpolate = EvaluationSet.interpolate

    def spy(self, values):
        calls.append((self, tuple(values)))
        return interpolate(self, values)

    monkeypatch.setattr(EvaluationSet, "interpolate", spy)
    f7, f8 = Field(7), Field(8)
    for points, k in ((EvaluationSet.full_field(f7), 6),
                      (EvaluationSet(f8, f8.nonzero_elements()), 1),
                      (EvaluationSet(f7, [0, 1, 2, 4]), 2)):
        calls.clear()
        report = brute_force_perm_group(rs_code(points, k), points)
        assert len(calls) == report.order == len(report.elements)
        assert calls == [(points, tuple(points[j] for j in m.perm.images))
                         for m in report.elements]
        assert all(s is points for s, _ in calls)


def _member_pair():
    """Two members built apart from equal parts, and a third that differs."""
    field = Field(9, modulus=(1, 0, 1))
    points = EvaluationSet(field, [[0, 0], [1, 0], [2, 0], [1, 1], [2, 2]])
    member = brute_force_perm_group(rs_code(points, 4), points).elements[1]
    twin = GroupMember(Permutation(list(member.perm.images)),
                       Polynomial(field, member.poly.coeffs))
    other = GroupMember(Permutation.identity(5), Polynomial.x(field))
    return member, twin, other


def test_group_member_compares_and_hashes_as_a_dataclass():
    member, twin, other = _member_pair()
    assert member is not twin and member.perm is not twin.perm
    assert member == twin and hash(member) == hash(twin)
    assert hash(member) == hash((member.perm, member.poly))
    assert member != other and len({member, twin, other}) == 2
    # Like a dataclass, a member equals nothing but a member.
    assert member != (member.perm, member.poly)
    assert member.__eq__((member.perm, member.poly)) is NotImplemented


def test_group_member_repr_is_the_dataclass_text():
    member, _, _ = _member_pair()
    assert repr(member) == (
        "GroupMember(perm=Permutation([0, 1, 2, 4, 3]), "
        "poly=Polynomial(Field(9, modulus=[1, 0, 1]), [0,1]*x + [1,2]*x^3))"
    )


def test_group_member_is_immutable_and_has_no_dict():
    member, _, _ = _member_pair()
    perm, poly = member.perm, member.poly
    for name in ("perm", "poly", "degree", "other"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(member, name, None)
    for name in ("perm", "poly"):
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(member, name)
    assert member.perm is perm and member.poly is poly
    assert not hasattr(member, "__dict__")
    assert (member.degree, member.is_affine) == (3, False)


def test_group_member_pickles_and_copies():
    member, _, _ = _member_pair()
    for twin in (pickle.loads(pickle.dumps(member)), copy.copy(member), copy.deepcopy(member)):
        assert twin == member and type(twin) is GroupMember
        assert repr(twin) == repr(member)


def test_members_filled_by_slot_are_the_constructed_ones():
    """The S_5 report over GF(257) (`group --k 1`) fills its permutations'
    and members' slots directly: each must be the value its checked
    constructor makes, and pickle, copy, repr and assignment must treat
    it so."""
    field = Field(257)
    points = EvaluationSet(field, range(5))
    report = brute_force_perm_group(rs_code(points, 1), points)
    assert report.order == 120
    for member in report.elements:
        perm, poly = member.perm, member.poly
        built = Permutation(perm.images)
        assert type(perm) is Permutation and type(perm.images) is tuple
        assert perm == built and hash(perm) == hash(built) and repr(perm) == repr(built)
        _round_trips(perm)
        twin = GroupMember(perm, poly)
        assert type(member) is GroupMember
        assert member == twin and hash(member) == hash(twin)
        assert repr(member) == repr(twin) == f"GroupMember(perm={perm!r}, poly={poly!r})"
        _round_trips(member)
        _refuses_assignment(member, ("perm", "poly"), others=("degree", "other"))
        assert not hasattr(member, "__dict__")


def _refuses_assignment(value, fields, others=("other",)):
    """Every field, and any other name, refuses assignment; every field
    refuses deletion; the messages are the frozen dataclass's."""
    before = [getattr(value, name) for name in fields]
    for name in (*fields, *others):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, None)
    for name in fields:
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(value, name)
    assert [getattr(value, name) for name in fields] == before


def _round_trips(value):
    """pickle, copy and deepcopy give back an equal value of the same class."""
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert twin == value and type(twin) is type(value)
        assert hash(twin) == hash(value)


def test_affine_map_behaves_as_a_frozen_dataclass(f13):
    two, three = f13.element(2), f13.element(3)
    f = AffineMap(two, three)
    assert f == AffineMap(a=two, b=three) and f != AffineMap(three, two)
    assert hash(f) == hash((two, three))
    assert f.__eq__((two, three)) is NotImplemented and f != (two, three)
    assert repr(f) == "AffineMap(a=FieldElement(Field(13), 2), b=FieldElement(Field(13), 3))"
    assert str(f) == "2*x + 3"
    _refuses_assignment(f, ("a", "b"), others=("polynomial", "other"))
    _round_trips(f)


def test_affine_map_needs_a_nonzero_linear_coefficient(f13):
    for args in ((f13.zero, f13.one), (f13.zero, f13.zero)):
        with pytest.raises(ValueError, match="nonzero linear coefficient"):
            AffineMap(*args)
    with pytest.raises(ValueError, match="nonzero linear coefficient"):
        AffineMap(a=f13.zero, b=f13.one)


def _small_report():
    points = EvaluationSet(Field(13), [0, 1, 3, 9])
    return points, check_theorem(points, 2)


def test_group_report_behaves_as_a_frozen_dataclass():
    _, theorem = _small_report()
    report = theorem.group
    members = report.elements
    twin = GroupReport(members, affine_order=report.affine_order,
                       is_affine_equal=report.is_affine_equal)
    assert twin == report and twin is not report
    assert GroupReport(elements=members, affine_order=3, is_affine_equal=True) == report
    assert twin != GroupReport(members, 3, False) and twin != GroupReport(members[:1], 3, True)
    assert hash(report) == hash((members, 3, True))
    assert report.__eq__((members, 3, True)) is NotImplemented
    assert repr(report) == (
        f"GroupReport(elements={members!r}, affine_order=3, is_affine_equal=True)"
    )
    assert repr(report).startswith(
        "GroupReport(elements=(GroupMember(perm=Permutation([0, 1, 2, 3]), "
        "poly=Polynomial(Field(13), x)), "
    )
    _refuses_assignment(report, ("elements", "affine_order", "is_affine_equal"),
                        others=("order", "hint", "is_abelian", "other"))
    _round_trips(report)
    assert report.is_abelian is True
    _round_trips(report)
    assert pickle.loads(pickle.dumps(report)).is_abelian is True


def test_theorem_report_behaves_as_a_frozen_dataclass():
    points, report = _small_report()
    group, code = report.group, report.code
    assert report == TheoremReport(points=points, k=2, group=group, code=code)
    assert report == TheoremReport(points, 2, group, code)
    assert report != TheoremReport(points, 2, group, rs_code(points, 3))
    assert hash(report) == hash((points, 2, group, code))
    assert report.__eq__((points, 2, group, code)) is NotImplemented
    assert repr(report) == (
        f"TheoremReport(points={points!r}, k=2, group={group!r}, code={code!r})"
    )
    _refuses_assignment(report, ("points", "k", "group", "code"),
                        others=("holds", "other"))
    _round_trips(report)


def test_columns_scale_every_column_once_per_coefficient(monkeypatch):
    """_Columns packs a code's columns for each distinct coefficient g in
    one Packing.scaler call, not one Packing.pack per column and g: on 10
    points of GF(13) with k = 5, at most n packs in all, and one scaled
    call per distinct g, through the search as well."""
    packs, scaled = [], []
    pack, scaler = Packing.pack, Packing.scaler

    def spy_pack(self, indices, scale=1):
        packs.append(scale)
        return pack(self, indices, scale)

    def spy_scaler(self, vectors):
        by_g = scaler(self, vectors)

        def spy_scaled(g):
            scaled.append(g)
            return by_g(g)

        return spy_scaled

    monkeypatch.setattr(Packing, "pack", spy_pack)
    monkeypatch.setattr(Packing, "scaler", spy_scaler)
    code = rs_code(EvaluationSet(Field(13), list(range(10))), 5)
    cols = permgroup._Columns(code)
    free_entries = {r[j] for r in code.index_rows for j in cols.free} - {0}
    assert len(free_entries) >= 10
    assert sorted(scaled) == sorted(free_entries | {1})
    permgroup._accepted(cols)
    assert len(scaled) == len(set(scaled))
    assert len(packs) <= code.n


def test_accepted_state_of_an_affine_group_is_its_members():
    """Every accepted image of an affine group has singleton blocks, so
    the accepted state keeps each as its member's image tuple: on all of
    GF(31) with k = 2 it holds at most twice the 930 listed members,
    where one ([j], [c]) pair per free column held 24 times as much."""
    code = rs_code(EvaluationSet.full_field(Field(31)), 2)
    cols = permgroup._Columns(code)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        accepted, order = permgroup._accepted(cols)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    members = permgroup._listed(code.n, cols.pivots, accepted)
    assert order == len(members) == 31 * 30
    size = sys.getsizeof(members) + sum(map(sys.getsizeof, members))
    assert held <= 2 * size, (held, size)


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
    assert p1 * p2 == Permutation.identity(4)


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
