"""Permutation groups of linear codes and affine permutations of point sets.

The permutation group Per(C) of a length-n code is computed exactly from
its generator matrix alone, by column matching on an information set:
a member is fixed, up to exchanging equal columns, by the images of the
k pivot columns of the rref, and every other column's image is then one
lookup.  Per(C) = Per(C^perp), so the smaller of the two is searched,
which tries n!/(n-d)! candidates for d = min(k, n-k).  A search that
would try more than SEARCH_CAP candidates, or list more than SEARCH_CAP
members, raises ValueError instead of running or listing.
Permutations of an evaluation set correspond to the unique degree < n
polynomial interpolating a_i -> a_pi(i); the affine ones are those of
degree exactly 1.  For Reed-Solomon codes RS(A, k) with 1 < k < n-1 the
two notions coincide, and check_theorem verifies that equality instance
by instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations as iter_permutations, product
from typing import Iterable, Sequence

from .codes import LinearCode, rref, rs_code
from .gf import FieldElement, pack, slot_width
from .poly import EvaluationSet, Polynomial, affine_str, compose_mod

# Candidates tried and members listed by one search, each at most this:
# about a second of column matching, and a list that fits in memory.
SEARCH_CAP = 1_000_000

# Abelian testing is quadratic in the group order; skip above this size.
ABELIAN_CHECK_CAP = 10_000


class NotAPermutationError(ValueError):
    """A polynomial does not map the point set bijectively onto itself."""


class DegreeBoundError(RuntimeError):
    """A group member's polynomial violates the degree bound for 1 < k < n-1."""


class Permutation:
    """A bijection of {0,...,n-1}; displayed 1-based."""

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        t = tuple(images)
        if sorted(t) != list(range(len(t))):
            raise ValueError(f"not a permutation of 0..{len(t) - 1}: {list(t)}")
        self.images = t

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(n))

    @classmethod
    def from_one_based(cls, images: Sequence[int]) -> "Permutation":
        return cls(tuple(i - 1 for i in images))

    @property
    def n(self) -> int:
        return len(self.images)

    def __len__(self) -> int:
        return len(self.images)

    def __getitem__(self, i: int) -> int:
        return self.images[i]

    def __iter__(self):
        return iter(self.images)

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition (self * other)(i) = self(other(i))."""
        if len(other.images) != len(self.images):
            raise ValueError("permutation degree mismatch")
        return Permutation(tuple(self.images[j] for j in other.images))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(inv)

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def one_based(self) -> tuple[int, ...]:
        return tuple(i + 1 for i in self.images)

    def cycle_string(self) -> str:
        """Disjoint cycle notation on 1-based points; fixed points omitted."""
        seen = [False] * len(self.images)
        parts = []
        for start in range(len(self.images)):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            j = self.images[start]
            while j != start:
                cyc.append(j)
                seen[j] = True
                j = self.images[j]
            if len(cyc) > 1:
                parts.append("(" + " ".join(str(i + 1) for i in cyc) + ")")
        return "".join(parts) if parts else "()"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __str__(self) -> str:
        return str(list(self.one_based()))

    def __repr__(self) -> str:
        return f"Permutation({list(self.images)})"


@dataclass(frozen=True)
class AffineMap:
    """The polynomial a*x + b with a != 0."""

    a: FieldElement
    b: FieldElement

    def __post_init__(self):
        if self.a.is_zero():
            raise ValueError("affine maps need a nonzero linear coefficient")

    @property
    def polynomial(self) -> Polynomial:
        return Polynomial.affine(self.a, self.b)

    def __str__(self) -> str:
        return affine_str(self.polynomial)


# -- permutation <-> polynomial dictionary --------------------------------


def perm_to_poly(perm: Permutation, points: EvaluationSet) -> Polynomial:
    """The unique degree < n polynomial with p(a_i) = a_pi(i)."""
    if perm.n != points.n:
        raise ValueError("permutation degree does not match the point set")
    return points.interpolate([points[j] for j in perm.images])


def poly_to_perm(f: Polynomial, points: EvaluationSet) -> Permutation:
    """The index permutation with f(a_i) = a_pi(i); raises if f does not permute."""
    images = []
    for a in points:
        pos = points.position(f.evaluate(a))
        if pos is None:
            raise NotAPermutationError(f"{f} maps {a} outside the point set")
        images.append(pos)
    if len(set(images)) != points.n:
        raise NotAPermutationError(f"{f} is not injective on the point set")
    return Permutation(images)


def permutes(f: Polynomial, points: EvaluationSet) -> bool:
    """True when a -> f(a) is a bijection of the point set onto itself."""
    seen = set()
    for a in points:
        pos = points.position(f.evaluate(a))
        if pos is None or pos in seen:
            return False
        seen.add(pos)
    return True


def affine_group(points: EvaluationSet) -> list[tuple[AffineMap, Permutation]]:
    """All degree-1 polynomials permuting the point set, with their permutations.

    A map a*x + b is fixed by the images a_i, a_j of the first two points:
    a = (a_j - a_i) / (a_1 - a_0) and b = a_i - a*a_0.  So the n(n-1)
    ordered pairs i != j give every candidate exactly once, whatever q
    is, and each is checked on the other n - 2 points.  The result is
    sorted by (a, b) in enumeration order, so the identity map x comes
    first, and is closed under composition modulo the point set.
    """
    a0, a1 = points[0], points[1]
    rest = points.points[2:]
    scale = (a1 - a0).inverse()
    out = []
    for i, ai in enumerate(points):
        for j, aj in enumerate(points):
            if i == j:
                continue
            a = (aj - ai) * scale
            b = ai - a * a0
            images = [i, j]
            for x in rest:
                pos = points.position(a * x + b)
                if pos is None:
                    break
                images.append(pos)
            else:
                out.append((AffineMap(a, b), Permutation(images)))
    out.sort(key=lambda member: (member[0].a.index, member[0].b.index))
    return out


# -- exhaustive group computation ------------------------------------------


def _check_cap(count: int, what: str) -> None:
    if count > SEARCH_CAP:
        raise ValueError(
            f"{count} {what} exceed the search cap SEARCH_CAP = {SEARCH_CAP}"
        )


def _match(code: LinearCode) -> list[tuple[int, ...]]:
    """Every pi whose column permutation G[:, pi] spans the code again.

    With G the k x n rref, pivot columns I and free columns J, such a pi
    is fixed up to equal columns by the images t = pi(I): G[:, pi] is
    M * G for M = G[:, t], so each free column j must go to a column
    equal to sum_i G[i][j] * G[:, t_i].  Only the n!/(n-k)! injective
    images of I are tried, and each free column's image is found by one
    lookup from column to positions.  Free columns with equal targets can
    be exchanged among the positions holding that column, so every
    bijection between the two is a member.  The accepted images of I are
    collected first, with their blocks of exchangeable columns, so that
    |Per(C)|, the sum of the products of |block|!, is checked against
    SEARCH_CAP before any member is listed.

    Columns are keyed as ints in the slot layout of gf.pack, with slots
    wide enough for k terms, and each product G[i][j] * G[:, c] is
    packed once per code, so a candidate only combines ints: by XOR for
    p = 2, and for odd p by a sum whose slots are each reduced mod p
    before the lookup.
    """
    field, n, rows = code.field, code.n, code.rref
    if not rows:
        _check_cap(math.factorial(n), "members")
        return list(iter_permutations(range(n)))
    p, m, k = field.p, field.m, len(rows)
    w = slot_width(field, k)
    if p == 2:
        def image(t, terms):
            s = 0
            for i, prods in terms:
                s ^= prods[t[i]]
            return s
    else:
        offsets = range(0, w * m * k, w)
        slot = (1 << w) - 1

        def image(t, terms):
            s = 0
            for i, prods in terms:
                s += prods[t[i]]
            key = 0
            for off in offsets:
                key |= (s >> off & slot) % p << off
            return key
    cols = list(zip(*rows))
    where: dict[int, list[int]] = {}
    for c, col in enumerate(cols):
        where.setdefault(pack(field, [x.index for x in col], w), []).append(c)
    pivots = [next(j for j, x in enumerate(r) if not x.is_zero()) for r in rows]
    free = [j for j in range(n) if j not in pivots]
    checks = [
        [
            (i, [pack(field, [(g * x).index for x in col], w) for col in cols])
            for i, g in enumerate(cols[j])
            if not g.is_zero()
        ]
        for j in free
    ]
    accepted = []
    for t in iter_permutations(range(n), k):
        targets = []
        for terms in checks:
            key = image(t, terms)
            if key not in where:
                break
            targets.append(key)
        else:
            classes: dict[int, list[int]] = {}
            for j, key in zip(free, targets):
                classes.setdefault(key, []).append(j)
            # The free columns must fill the n - k positions outside t,
            # each class exactly the positions holding its target.
            blocks = []
            for key, js in classes.items():
                spare = [c for c in where[key] if c not in t]
                if len(spare) != len(js):
                    break
                blocks.append((js, spare))
            else:
                accepted.append((t, blocks))
    order = sum(
        math.prod(math.factorial(len(js)) for js, _ in blocks) for _, blocks in accepted
    )
    _check_cap(order, "members")
    members = []
    images = [0] * n
    for t, blocks in accepted:
        for i, c in zip(pivots, t):
            images[i] = c
        for choice in product(*(iter_permutations(cs) for _, cs in blocks)):
            for (js, _), cs in zip(blocks, choice):
                for j, c in zip(js, cs):
                    images[j] = c
            members.append(tuple(images))
    members.sort()
    return members


def _scan_backtrack(code: LinearCode) -> list[tuple[int, ...]]:
    """Depth-first search over prefix assignments.

    The dual basis is re-echelonized so every basis vector has a distinct
    last support position; a vector supported inside the current prefix
    yields a complete parity constraint on each permuted generator row,
    so violating branches are cut early.  At full depth the whole dual
    basis has been checked, which is exactly the plain membership test.
    """
    field = code.field
    n = code.n
    gen = [tuple(row) for row in code.rref]
    reversed_rows = [tuple(reversed(r)) for r in code.dual.rref]
    echelon = [tuple(reversed(r)) for r in rref(field, reversed_rows)]
    by_depth: list[list[tuple[tuple[int, FieldElement], ...]]] = [[] for _ in range(n)]
    for row in echelon:
        last = max(i for i, x in enumerate(row) if not x.is_zero())
        by_depth[last].append(
            tuple((i, row[i]) for i in range(last + 1) if not row[i].is_zero())
        )
    zero = field.zero
    members: list[tuple[int, ...]] = []
    used = [False] * n
    pi = [0] * n

    def extend(depth: int) -> None:
        if depth == n:
            members.append(tuple(pi))
            return
        for cand in range(n):
            if used[cand]:
                continue
            pi[depth] = cand
            ok = True
            for supp in by_depth[depth]:
                for r in gen:
                    s = zero
                    for i, hi in supp:
                        s = s + hi * r[pi[i]]
                    if not s.is_zero():
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                used[cand] = True
                extend(depth + 1)
                used[cand] = False

    extend(0)
    return members


def exhaustive_permutations(
    code: LinearCode, method: str = "scan"
) -> list[Permutation]:
    """All coordinate permutations fixing the code, in lexicographic order.

    The search reads only the given code's generator matrix, so its cost
    is set by that code's dimension k: n!/(n-k)! candidates.  Use
    search_side to pick the cheaper of a code and its dual.  Raises
    ValueError, before searching, when there are more than SEARCH_CAP
    candidates, and before listing any member when Per(C) has more
    than SEARCH_CAP members.

    method="backtrack" runs _scan_backtrack instead; it remains only
    because the benchmark's permgroup.backtrack_s probe times it.
    """
    _check_cap(math.perm(code.n, code.k), "candidates")
    if method == "scan":
        raw = _match(code)
    elif method == "backtrack":
        raw = _scan_backtrack(code)
    else:
        raise ValueError(f"unknown method {method!r}")
    return [Permutation(t) for t in raw]


# -- reports ------------------------------------------------------------------


@dataclass(frozen=True)
class GroupMember:
    perm: Permutation
    poly: Polynomial | None
    degree: int | None
    is_affine: bool | None

    def to_json_dict(self) -> dict:
        return {
            "perm": list(self.perm.one_based()),
            "poly": None if self.poly is None else affine_str(self.poly),
            "degree": self.degree,
            "affine": self.is_affine,
        }


@dataclass(frozen=True)
class IsomorphismHint:
    order: int
    abelian: bool | None
    label: str | None

    def __str__(self) -> str:
        if self.abelian is None:
            return f"order {self.order}"
        kind = "abelian" if self.abelian else "non-abelian"
        tag = f" ({self.label})" if self.label else ""
        return f"order {self.order}, {kind}{tag}"


@dataclass(frozen=True)
class GroupReport:
    order: int
    elements: tuple[GroupMember, ...]
    affine_order: int | None
    is_affine_equal: bool | None
    hint: IsomorphismHint

    def permutation_set(self) -> frozenset[Permutation]:
        return frozenset(m.perm for m in self.elements)

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "affine_order": self.affine_order,
            "equal": self.is_affine_equal,
            "elements": [m.to_json_dict() for m in self.elements],
        }


def _is_abelian(perms: Sequence[Permutation]) -> bool | None:
    if len(perms) > ABELIAN_CHECK_CAP:
        return None
    images = [p.images for p in perms]
    for i, a in enumerate(images):
        for b in images[i + 1 :]:
            for j in range(len(a)):
                if a[b[j]] != b[a[j]]:
                    return False
    return True


def search_side(code: LinearCode) -> LinearCode:
    """The code or its dual, whichever has the smaller dimension (the code on a tie).

    Both have the same permutation group, and the search cost grows with
    the dimension of the code it is given.
    """
    return code if 2 * code.k <= code.n else code.dual


def brute_force_perm_group(
    code: LinearCode, points: EvaluationSet | None = None
) -> GroupReport:
    """Exact Per(C), by exhaustive search of the smaller of C and its dual.

    When an evaluation set is supplied, every member is enriched with its
    interpolating polynomial and degree, and the group is compared
    against the affine permutations of the set.
    """
    perms = exhaustive_permutations(search_side(code))
    if points is None:
        members = tuple(GroupMember(p, None, None, None) for p in perms)
        affine_order = None
        equal = None
    else:
        if points.n != code.n or points.field != code.field:
            raise ValueError("evaluation set does not match the code")
        members = []
        for p in perms:
            f = perm_to_poly(p, points)
            deg = int(f.degree)
            members.append(GroupMember(p, f, deg, deg == 1))
        members = tuple(members)
        affine_perms = {perm for _, perm in affine_group(points)}
        affine_order = len(affine_perms)
        equal = affine_perms == set(perms)
    order = len(perms)
    abelian = _is_abelian(perms)
    label = "S_3" if order == 6 and abelian is False else None
    return GroupReport(
        order=order,
        elements=members,
        affine_order=affine_order,
        is_affine_equal=equal,
        hint=IsomorphismHint(order, abelian, label),
    )


def group_closure_check(perms: Iterable[Permutation]) -> bool:
    """True iff the set contains the identity and is closed under * and inverse."""
    ps = set(perms)
    if not ps:
        return False
    n = len(next(iter(ps)))
    if Permutation.identity(n) not in ps:
        return False
    for a in ps:
        if a.inverse() not in ps:
            return False
        for b in ps:
            if a * b not in ps:
                return False
    return True


def homomorphism_check(
    points: EvaluationSet, perm1: Permutation, perm2: Permutation
) -> bool:
    """Composition modulo the set matches index composition of permutations."""
    lhs = compose_mod(
        perm_to_poly(perm1, points), perm_to_poly(perm2, points), points
    )
    return lhs == perm_to_poly(perm1 * perm2, points)


def degree_profile(code: LinearCode, points: EvaluationSet) -> dict[Permutation, int]:
    """Degree of the interpolating polynomial for every member of Per(C).

    For 1 < k < n-1 the degrees must stay below min(k, n-k); a violation
    would expose an implementation bug and raises DegreeBoundError.
    """
    report = brute_force_perm_group(code, points)
    profile = {m.perm: m.degree for m in report.elements}
    k, n = code.k, code.n
    if 1 < k < n - 1:
        bound = min(k, n - k)
        for perm, deg in profile.items():
            if deg >= bound:
                raise DegreeBoundError(
                    f"member {perm} has degree {deg}, expected < {bound} "
                    f"for n={n}, k={k}"
                )
    return profile


@dataclass(frozen=True)
class TheoremReport:
    """Outcome of comparing Per(RS(A,k)) with the affine permutations of A."""

    points: EvaluationSet
    k: int
    in_range: bool
    group: GroupReport
    equal: bool
    all_degree_one: bool
    warning: str | None
    # RS(A, k) itself, for callers that check more of it; not serialised.
    code: LinearCode

    @property
    def holds(self) -> bool:
        """True when nothing contradicts the expected characterization."""
        return (self.equal and self.all_degree_one) if self.in_range else True

    def to_json_dict(self) -> dict:
        return {
            "q": self.points.field.q,
            "n": self.points.n,
            "k": self.k,
            "in_range": self.in_range,
            "equal": self.equal,
            "all_degree_one": self.all_degree_one,
            "warning": self.warning,
            "group": self.group.to_json_dict(),
        }


def check_theorem(points: EvaluationSet, k: int) -> TheoremReport:
    """Compare brute-force Per(RS(A,k)) with the affine permutations of A.

    Equality is expected exactly for 1 < k < n-1.  Boundary dimensions
    k in {1, n-1, n} are still computed but only reported, with a warning
    flag instead of an assertion.
    """
    n = points.n
    code = rs_code(points, k)
    report = brute_force_perm_group(code, points)
    in_range = 1 < k < n - 1
    equal = bool(report.is_affine_equal)
    all_degree_one = all(m.degree == 1 for m in report.elements)
    warning = None
    if not in_range:
        warning = (
            f"k={k} is outside 1 < k < n-1 for n={n}; "
            "equality with the affine group is not expected to hold"
        )
    return TheoremReport(
        points=points,
        k=k,
        in_range=in_range,
        group=report,
        equal=equal,
        all_degree_one=all_degree_one,
        warning=warning,
        code=code,
    )
