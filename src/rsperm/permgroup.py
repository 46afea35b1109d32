"""Permutation groups of linear codes and affine permutations of point sets.

- exhaustive_permutations: Per(C) from a generator matrix alone, refused
  past SEARCH_CAP.  _search holds the column matching and the square
  route, _images the meet in the middle and its skip rule, _accepted
  the transversal times Stab(p_0), and _listed the members.
- affine_group: the affine permutations of a point set, computed apart
  from the search.
- perm_to_poly, poly_to_perm, permutes: permutations of a point set as
  the polynomials of degree < n that induce them.
- brute_force_perm_group, check_theorem: the two computations compared,
  as a GroupReport and a TheoremReport.
"""

from __future__ import annotations

import math
from collections.abc import Container, Iterator, Sequence
from functools import cached_property, reduce
from itertools import chain, permutations as iter_permutations, product
from operator import itemgetter

from .codes import LinearCode, rref, rs_code
from .gf import FieldElement, Packing, _filled, _Frozen
from .poly import EvaluationSet, Polynomial, affine_str

# The candidate space n!/(n-d)! of one search, and the members it lists,
# each at most this.  Under it the meet in the middle (_images) makes fewer
# than 5 * 10^4 lookups and table entries whenever d >= 3, and the list
# fits in memory.
SEARCH_CAP = 1_000_000


class NotAPermutationError(ValueError):
    """A polynomial does not map the point set bijectively onto itself."""


class Permutation(_Frozen):
    """A bijection of {0,...,n-1}; displayed 1-based."""

    __slots__ = __match_args__ = ("images",)

    def __init__(self, images: Sequence[int]):
        t = tuple(images)
        if sorted(t) != list(range(len(t))):
            raise ValueError(f"not a permutation of 0..{len(t) - 1}: {list(t)}")
        super().__init__(t)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(n))

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

    def one_based(self) -> tuple[int, ...]:
        return tuple(i + 1 for i in self.images)

    def __str__(self) -> str:
        return str(list(self.one_based()))

    def __repr__(self) -> str:
        return f"Permutation({list(self.images)})"


class AffineMap(_Frozen):
    """The polynomial a*x + b with a != 0."""

    __slots__ = __match_args__ = ("a", "b")

    def __init__(self, a: FieldElement, b: FieldElement):
        if a.is_zero():
            raise ValueError("affine maps need a nonzero linear coefficient")
        super().__init__(a, b)

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
    return points.interpolate(list(map(points.points.__getitem__, perm.images)))


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
    try:
        poly_to_perm(f, points)
    except NotAPermutationError:
        return False
    return True


def affine_group(points: EvaluationSet) -> list[tuple[AffineMap, Permutation]]:
    """All degree-1 polynomials permuting the point set, with their permutations.

    A map a*x + b that permutes the points keeps their sum S, so
    a*S + n*b = S.  With a base point a_r whose d = S - n*a_r is nonzero,
    the map sending a_r to a_i then has a = (S - n*a_i) / d and
    b = a_i - a*a_r, so the n images of a_r give every candidate exactly
    once (a = 0 is skipped).  Such a base point exists unless p divides n
    and S = 0, as for all of GF(q); then a map is fixed by the images
    a_i, a_j of the first two points, a = (a_j - a_i) / (a_1 - a_0) and
    b = a_i - a*a_0, and the n(n-1) ordered pairs i != j are the
    candidates.  Each candidate is checked on every point.  The result is
    sorted by (a, b) in enumeration order, so the identity map x comes
    first, and is closed under composition modulo the point set.
    """
    ops = points.field.ops
    add, sub, mul, inv, els = ops.add, ops.sub, ops.mul, ops.inv, ops.elements
    pts, where = points.index_points, points._position
    # n as a field element: the prime field's n mod p has index n mod p.
    n = points.n % points.field.p
    total = reduce(add, pts, 0)
    base = next((x for x in pts if sub(total, mul(n, x))), None)
    # Each candidate as the image ai of the origin and the slope a.
    if base is not None:
        origin, scale = base, inv(sub(total, mul(n, base)))
        slopes = ((ai, mul(sub(total, mul(n, ai)), scale)) for ai in pts)
    else:
        origin, scale = pts[0], inv(sub(pts[1], pts[0]))
        slopes = ((ai, mul(sub(aj, ai), scale)) for ai in pts for aj in pts if ai != aj)
    found = []
    for ai, a in slopes:
        if not a:
            continue
        b = sub(ai, mul(a, origin))
        images = []
        for x in pts:
            pos = where.get(add(mul(a, x), b))
            if pos is None:
                break
            images.append(pos)
        else:
            found.append((a, b, els[a], els[b], tuple(images)))
    # Sorted by (a, b), which no two maps share.  The identity map is always
    # found, and each images tuple is a bijection: a != 0 makes the map
    # injective.
    found.sort()
    _, _, linear, constant, images = zip(*found)
    return list(zip(_filled(AffineMap, linear, constant), _filled(Permutation, images)))


# -- exhaustive group computation ------------------------------------------


def _check_cap(count: int, what: str) -> None:
    if count > SEARCH_CAP:
        raise ValueError(
            f"{count} {what} exceed the search cap SEARCH_CAP = {SEARCH_CAP}"
        )


def _split(n: int, k: int, keys: int) -> int:
    """How many of the k pivot images _images enumerates, for `keys`
    distinct columns; the rest are tabled.

    The h of least cost (_images) is returned, the largest on a tie, so
    h = k, the plain enumeration, whenever a table does not pay.  h = 0
    is not tried: a table of all k images never costs less than h = k.
    """
    return min(
        range(k, 0, -1), key=lambda h: math.perm(n, h) + keys * math.perm(n, k - h)
    )


def _cost(n: int, k: int, keys: int) -> int:
    """The lookups and table entries of _images at the split _split picks."""
    h = _split(n, k, keys)
    return math.perm(n, h) + keys * math.perm(n, k - h)


def _square_pays(n: int, k: int, cost: int) -> bool:
    """The gate of _search's square route: whether building (C * C)^perp
    costs less than searching C at `cost`."""
    return cost > k * (k + 1) // 2 * n * n


class _Columns:
    """A code's rref with its columns packed for column matching.

    Columns are keyed by one gf.Packing of k entries, summed k + 1 at a
    time, read from the rref's index rows.  products(g) is the packed
    g * G[:, c] of every column c, one Packing.scaler call per distinct
    g; `where` maps each key of products(1) to the positions holding
    that column.  For the f-th free column j, checks[f] pairs each row i
    with G[i][j] != 0 with products(G[i][j]), so that
    packing.key(t, checks[f]) is the key of sum_i G[i][j] * G[:, t_i].
    """

    def __init__(self, code: LinearCode):
        self.field, self.n, self.rows = code.field, code.n, code.index_rows
        k = len(self.rows)
        self.packing = packing = Packing(self.field, k, k + 1)
        cols = list(zip(*self.rows))
        self._scaler = packing.scaler(cols)
        self._scaled: dict[int, list[int]] = {}
        self.where: dict[int, list[int]] = {}
        for c, key in enumerate(self.products(1)):
            self.where.setdefault(key, []).append(c)
        self.pivots, self.free = code.pivots, code.free
        self.checks = [
            [(i, self.products(g)) for i, g in enumerate(cols[j]) if g] for j in self.free
        ]

    def products(self, g: int) -> list[int]:
        """The packed g * G[:, c] for every column c, once per distinct g."""
        if g not in self._scaled:
            self._scaled[g] = self._scaler(g)
        return self._scaled[g]

    def fixes(self, pi: tuple[int, ...]) -> bool:
        """Whether the permutation pi fixes the code: G[:, pi(j)] equals
        sum_i G[i][j] * G[:, pi(p_i)] for every free column j."""
        t = [pi[i] for i in self.pivots]
        image, where = self.packing.key, self.where
        return all(
            pi[j] in where.get(image(t, terms), ()) for j, terms in zip(self.free, self.checks)
        )


_Blocks = list[tuple[list[int], list[int]]]
# The accepted state of a search: the members r of a transversal, one for
# each point of the orbit of p_0 other than p_0 itself, and Stab(p_0) as the
# members of its accepted t whose blocks are all singletons and every other
# accepted t with its blocks.
_Accepted = tuple[
    list[tuple[int, ...]], list[tuple[int, ...]], list[tuple[tuple[int, ...], _Blocks]]
]


def _images(
    cols: _Columns, h: int, skip: Container[int]
) -> Iterator[tuple[tuple[int, ...], _Blocks]]:
    """Every accepted image t of the pivots with its blocks of
    exchangeable columns (_search), in the lexicographic order of its
    first h - 1 images.

    The n!/(n-k)! injective images t are met in the middle on the first
    free column j0, split at h (_split) for W the distinct columns: t
    passes j0 exactly when sum_{i<h} G[i][j0] * G[:, t_i] equals
    x - sum_{i>=h} G[i][j0] * G[:, t_i] for some x in W.  The right side
    is tabled once for every suffix u of k - h images and every x, and
    each prefix s of h images is one lookup; each u found there that is
    disjoint from s makes the candidate t = s + u, which then must pass
    every other free column.  That costs perm(n, h) + |W| * perm(n, k-h)
    lookups and table entries in place of the n!/(n-k)! candidates.  The
    table and the lookups sum the terms they share once: Packing.keys
    adds each x in W to the sum over a suffix u, and each last prefix
    image c to the sum over the first h - 1.

    Every t with t_0 in skip is passed over, t_0 being s_0 when h >= 2
    and the looked-up c when h = 1; the t sharing one t_0 come out
    together.  skip is read at each prefix, each c and each yield, so a
    caller that puts t_0 into skip cuts that subtree off there.  A block
    (js, cs) holds free columns js with equal targets and the positions
    cs outside t holding that column; every bijection between the two
    makes a member.
    """
    n, rows, packing, where, checks = cols.n, cols.rows, cols.packing, cols.where, cols.checks
    keys = list(where)
    j0 = cols.free[0]
    # u indexes the tail, u_{i-h} for row i >= h, and each x in W is then
    # added to its sum.
    neg = cols.field.ops.neg
    tail = [(i - h, cols.products(neg(rows[i][j0]))) for i, _ in checks[0] if i >= h]
    table: dict[int, list[tuple[tuple[int, ...], int]]] = {}
    for u in iter_permutations(range(n), len(rows) - h):
        for key, total in zip(keys, packing.keys(u, tail, keys)):
            table.setdefault(total, []).append((u, key))
    # A prefix s of h images is its first h - 1 images and one column c
    # outside them, whose term is added to their sum.
    head = [(i, prods) for i, prods in checks[0] if i < h - 1]
    last = cols.products(rows[h - 1][j0])
    image, free, rest = packing.key, cols.free, checks[1:]
    for s in iter_permutations(range(n), h - 1):
        if s and s[0] in skip:
            continue
        for c, total in enumerate(packing.keys(s, head, last)):
            hits = table.get(total)
            # With h = 1 there is no s, and c is t_0.
            if hits is None or c in s or not s and c in skip:
                continue
            prefix = s + (c,)
            taken = set(prefix)
            for u, first in hits:
                if not taken.isdisjoint(u):
                    continue
                t = prefix + u
                targets = [first]
                for terms in rest:
                    key = image(t, terms)
                    if key not in where:
                        break
                    targets.append(key)
                else:
                    classes: dict[int, list[int]] = {}
                    for j, key in zip(free, targets):
                        classes.setdefault(key, []).append(j)
                    # The free columns must fill the n - k positions outside
                    # t, each class exactly the positions holding its target.
                    blocks: _Blocks = []
                    for key, js in classes.items():
                        spare = [x for x in where[key] if x not in t]
                        if len(spare) != len(js):
                            break
                        blocks.append((js, spare))
                    else:
                        yield t, blocks
                        if t[0] in skip:
                            break
            if s and s[0] in skip:
                break


def _member(
    n: int, pivots: Sequence[int], t: tuple[int, ...], blocks: _Blocks
) -> tuple[int, ...]:
    """The member of an accepted t that sends pivot p_i to t_i and each
    block's free columns to its positions in order."""
    images = [0] * n
    for i, c in zip(pivots, t):
        images[i] = c
    for js, cs in blocks:
        for j, c in zip(js, cs):
            images[j] = c
    return tuple(images)


def _grow(
    orbit: dict[int, tuple[int, ...]], gens: list[tuple[int, ...]], g: tuple[int, ...]
) -> None:
    """Add the member g to gens and close orbit under them again.

    orbit maps each point x it holds to a member r with r(p_0) = x, and
    is closed under gens; a new point y = gen(x) gets the member gen * r.
    The old points are closed under the old gens, so only g is applied
    to them, and every gen to each new point.
    """
    gens.append(g)
    new = []
    for x, r in list(orbit.items()):
        y = g[x]
        if y not in orbit:
            orbit[y] = tuple(map(g.__getitem__, r))
            new.append(y)
    for y in new:
        r = orbit[y]
        for gen in gens:
            z = gen[y]
            if z not in orbit:
                orbit[z] = tuple(map(gen.__getitem__, r))
                new.append(z)


def _accepted(cols: _Columns) -> tuple[_Accepted, int]:
    """The accepted images t of the pivots, as a transversal and a
    stabilizer, and the order they give.

    Per(C) is searched as a transversal times the stabilizer of the first
    pivot p_0 (Sims 1970; Leon, J. Symb. Comp. 1991), split by t_0, the
    image of p_0.  Stab(p_0) is every member with t_0 = p_0, and each of
    its accepted t is kept (_images).  A t whose blocks are all
    singletons makes one member, kept as its image tuple alone; only the
    other t keep their blocks, and make the product of |block|! members.
    Then each other position c, in index order, is passed over when it
    is already in the orbit of p_0 under the members found so far, and
    otherwise searched with t_0 = c only until one member turns up or
    the subtree has none.  A member found closes the orbit again (_grow)
    under the members of the transversal and one member per accepted t
    of Stab(p_0), so the orbit keeps one transversal member per point.
    A point passed over unreached is never reached, so the order is
    |orbit| * |Stab(p_0)|.

    Under a transitive group, as the affine groups of all of GF(q) and
    of GF(q)* are, every subtree but Stab(p_0)'s is then passed over or
    cut at its first member: about 1/n of the work of searching every t.
    """
    n, pivots = cols.n, cols.pivots
    h = _split(n, len(pivots), len(cols.where))
    width = len(cols.free)
    p0 = pivots[0]
    whole: list[tuple[int, ...]] = []
    grouped: list[tuple[tuple[int, ...], _Blocks]] = []
    orbit: dict[int, tuple[int, ...]] = {}
    gens: list[tuple[int, ...]] = []
    for t, blocks in _images(cols, h, orbit):
        if t[0] == p0:
            if len(blocks) < width:
                grouped.append((t, blocks))
            else:
                whole.append(_member(n, pivots, t, blocks))
            continue
        if not orbit:
            # The t come in the order of t_0, and no t_0 lies before p_0,
            # the first nonzero column.  So Stab(p_0) is complete, and its
            # members start the gens.
            orbit[p0] = tuple(range(n))
            gens += whole
            gens += (_member(n, pivots, *found) for found in grouped)
        _grow(orbit, gens, _member(n, pivots, t, blocks))
    orbit.pop(p0, None)
    reps = list(orbit.values())
    order = (1 + len(reps)) * (len(whole) + sum(
        math.prod(math.factorial(len(js)) for js, _ in blocks) for _, blocks in grouped
    ))
    return (reps, whole, grouped), order


def _listed(n: int, pivots: Sequence[int], accepted: _Accepted) -> list[tuple[int, ...]]:
    """Every member of the accepted state, sorted: the members s of
    Stab(p_0), the whole ones as they are and for each other t, pivot p_i
    going to t_i and each block's free columns to its positions in every
    order; then r * s for each transversal member r.  A member of t is
    one itemgetter scatter of t + fill, for fill running over the block
    permutations (their product when there are several): a fixed number
    of C calls per member.
    """
    reps, whole, grouped = accepted
    members = list(whole)
    for t, blocks in grouped:
        # t + fill lists the images of the pivots, then of each block's free
        # columns; n >= 2 here, so the scatter to columns gives a tuple.
        order = [*pivots, *chain.from_iterable(js for js, _ in blocks)]
        scatter = itemgetter(*sorted(range(n), key=order.__getitem__))
        fills = [iter_permutations(cs) for _, cs in blocks]
        if len(fills) > 1:
            fills = [map(tuple, map(chain.from_iterable, product(*fills)))]
        members += map(scatter, map(t.__add__, fills[0]))
    if reps:
        # itemgetter(*s)(r) is r * s; n >= 2 here, so it gives a tuple.  The
        # products of one r come out together, runs that the sort merges.
        products = [itemgetter(*s) for s in members]
        members += [s(r) for r in reps for s in products]
    members.sort()
    return members


def _square_dual(code: LinearCode) -> LinearCode | None:
    """D = (C * C)^perp when its dimension is below C's, else None.

    C * C is spanned by the products of C's rref rows r_i.  Each square
    r_i * r_i is 1 at the pivot p_i and 0 at the other pivots, and each
    cross product r_i * r_j (i < j) is 0 at every pivot.  So dim(C * C)
    is k plus the rank of the cross products on the n - k free columns
    F, and only that block is eliminated.  D is built only when its
    dimension n - k - rank is below k, from the kernel of the block: a
    vector y of D has y_F in that kernel and y_{p_i} = -sum_{f in F}
    r_i[f]^2 * y_f.
    """
    field, n, k, pivots, free = code.field, code.n, code.k, code.pivots, code.free
    ops = field.ops
    add, mul, neg = ops.add, ops.mul, ops.neg
    on_free = [[r[j] for j in free] for r in code.index_rows]
    cross = [list(map(mul, a, b)) for i, a in enumerate(on_free) for b in on_free[i + 1:]]
    span = LinearCode._from_indices(field, cross, n - k)
    if n - k - span.k >= k:
        return None
    squares = [list(map(mul, a, a)) for a in on_free]
    rows = []
    for y in span.dual.index_rows:
        w = [0] * n
        for f, x in zip(free, y):
            w[f] = x
        for p, square in zip(pivots, squares):
            w[p] = neg(reduce(add, map(mul, square, y), 0))
        rows.append(w)
    return LinearCode._from_indices(field, rows, n)


def _search(code: LinearCode) -> list[tuple[int, ...]]:
    """Every pi whose column permutation G[:, pi] spans the code again, sorted.

    With G the k x n rref, pivot columns I and free columns J, such a pi
    is fixed up to equal columns by the images t = pi(I): G[:, pi] is
    M * G for M = G[:, t], so each free column j must go to a column
    equal to sum_i G[i][j] * G[:, t_i].  Free columns with equal targets
    can be exchanged among the positions holding that column, so every
    bijection between the two is a member.  The accepted images of I
    are collected first (_accepted), so that |Per(C)| is checked against
    SEARCH_CAP before any member is listed (_listed).

    The search can go through the smaller code D = (C * C)^perp.
    Coordinate permutations commute with products and duals, so every
    member of Per(C) fixes D.  When 2k <= n, D can be smaller than C only
    if n < k + k(k+1)/2 (C * C has at most k(k+1)/2 dimensions); for
    RS(A, k) it is RS(A, 2k-1)^perp, of dimension n - 2k + 1.  C * C is
    spanned by the k(k+1)/2 products of C's rref rows, about
    k(k+1)/2 * n^2 steps to eliminate, so D is tried only when searching
    C costs more (_square_pays, on _cost).  Then dim D is read off the
    cross products of C's rows (_square_dual), D is built only if
    dim D < k, and if also dim D > 0 its accepted images give |Per(D)|
    before any is listed.  When that is at most the cost of searching C,
    Per(D) is listed and only the members fixing C are kept
    (_Columns.fixes), in the same sorted order.  Otherwise C is searched
    itself: when D = 0 (its group is S_n), when D is not smaller than C
    (and so not built), or when Per(D) has more members than that cost.
    """
    n, k = code.n, code.k
    if k in (0, n):
        # The zero code and the whole space are fixed by every permutation.
        _check_cap(math.factorial(n), "members")
        return list(iter_permutations(range(n)))
    cols = _Columns(code)
    if 2 * k <= n < k + k * (k + 1) // 2:
        cost = _cost(n, k, len(cols.where))
        if _square_pays(n, k, cost):
            square = _square_dual(code)
            if square is not None and square.k > 0:
                square_cols = _Columns(square)
                accepted, order = _accepted(square_cols)
                # Listing Per(D) then costs no more than searching C would.
                if order <= cost:
                    fixes = cols.fixes
                    return [pi for pi in _listed(n, square_cols.pivots, accepted) if fixes(pi)]
    accepted, order = _accepted(cols)
    _check_cap(order, "members")
    return _listed(n, cols.pivots, accepted)


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

    The search (_search) reads only the generator matrix, so its cost is
    set by the code's dimension k; search_side picks the cheaper of a
    code and its dual.  Raises ValueError, before searching, when the
    n!/(n-k)! candidate images of the pivots exceed SEARCH_CAP, and
    before listing any member when Per(C) has more than SEARCH_CAP
    members; an unknown method raises ValueError too.

    method="backtrack" runs _scan_backtrack instead.  It remains only
    for the benchmark's permgroup.backtrack_s probe, which times it.
    """
    _check_cap(math.perm(code.n, code.k), "candidates")
    if method == "scan":
        raw = _search(code)
    elif method == "backtrack":
        raw = _scan_backtrack(code)
    else:
        raise ValueError(f"unknown method {method!r}")
    return _filled(Permutation, raw)


# -- reports ------------------------------------------------------------------


class GroupMember(_Frozen):
    """A member of Per(C): its permutation and interpolating polynomial."""

    __slots__ = __match_args__ = ("perm", "poly")

    @property
    def degree(self) -> int:
        return int(self.poly.degree)

    @property
    def is_affine(self) -> bool:
        return self.degree == 1

    def to_json_dict(self) -> dict:
        degree = self.degree
        return {
            "perm": [i + 1 for i in self.perm.images],
            "poly": affine_str(self.poly),
            "degree": degree,
            "affine": degree == 1,
        }


class GroupReport(_Frozen):
    """Per(C) as its members, with the order of the affine group and
    whether the two are equal.  A __dict__ holds the cached is_abelian."""

    __match_args__ = ("elements", "affine_order", "is_affine_equal")
    __slots__ = (*__match_args__, "__dict__")

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def is_abelian(self) -> bool:
        """Whether the members commute (_is_abelian), tested on the first
        read only."""
        return _is_abelian([m.perm for m in self.elements])

    @property
    def hint(self) -> str:
        """The order and whether the group is abelian, as text output
        prints them: "order 6, non-abelian (S_3)"."""
        if not self.is_abelian:
            label = " (S_3)" if self.order == 6 else ""
            return f"order {self.order}, non-abelian{label}"
        return f"order {self.order}, abelian"

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "affine_order": self.affine_order,
            "equal": self.is_affine_equal,
            "elements": [m.to_json_dict() for m in self.elements],
        }


def _is_abelian(perms: Sequence[Permutation]) -> bool:
    """Whether the members commute, given that they form a group, as Per(C) does.

    A group is abelian iff its action on each orbit O is, and an abelian
    transitive action is regular (Dixon & Mortimer, Permutation Groups,
    1996): the members then have exactly |O| restrictions to O, and those
    commute.  That is |G| * n + n^3 steps.
    """
    images = [p.images for p in perms]
    placed: set[int] = set()
    for x in range(len(images[0]) if images else 0):
        if x in placed:
            continue
        orbit = {a[x] for a in images}
        placed |= orbit
        on_orbit = itemgetter(*orbit)
        actions = list({on_orbit(a): a for a in images}.values())
        if len(actions) != len(orbit):
            return False
        for i, a in enumerate(actions):
            for b in actions[i + 1 :]:
                if any(a[b[y]] != b[a[y]] for y in orbit):
                    return False
    return True


def search_side(code: LinearCode) -> LinearCode:
    """The code or its dual, whichever has the smaller dimension (the code on a tie).

    Both have the same permutation group, and the search cost grows with
    the dimension of the code it is given.
    """
    return code if 2 * code.k <= code.n else code.dual


def brute_force_perm_group(code: LinearCode, points: EvaluationSet) -> GroupReport:
    """Exact Per(C), by exhaustive_permutations on the smaller of C and its
    dual, compared with affine_group of the points.

    The points give every member its interpolating polynomial; points of
    another length or field, or a refused search, raise ValueError.
    Degrees, the order and commutativity are derived when read.
    """
    if points.n != code.n or points.field != code.field:
        raise ValueError("evaluation set does not match the code")
    perms = exhaustive_permutations(search_side(code))
    # One interpolate call per member, on the point elements at its images
    # (n >= 2, so itemgetter hands back a tuple), made as _filled fills the
    # members' poly slots: the poly.interpolate span of benchmarks/spans.py
    # times and counts interpolation by those calls.
    interpolate, pts = points.interpolate, points.points
    polys = (interpolate(itemgetter(*p.images)(pts)) for p in perms)
    members = tuple(_filled(GroupMember, perms, polys))
    # The members are distinct, so they are the affine permutations when
    # there are as many of them and each is one.
    affine_images = {perm.images for _, perm in affine_group(points)}
    equal = len(perms) == len(affine_images) and all(p.images in affine_images for p in perms)
    return GroupReport(members, len(affine_images), equal)


class TheoremReport(_Frozen):
    """Outcome of comparing Per(RS(A,k)) with the affine permutations of A.

    code is RS(A, k) itself, for callers that check more of it; it is not
    serialised.
    """

    __slots__ = __match_args__ = ("points", "k", "group", "code")

    @property
    def in_range(self) -> bool:
        return 1 < self.k < self.points.n - 1

    @property
    def equal(self) -> bool:
        return self.group.is_affine_equal

    @property
    def all_degree_one(self) -> bool:
        return all(m.degree == 1 for m in self.group.elements)

    @property
    def warning(self) -> str | None:
        if self.in_range:
            return None
        return (
            f"k={self.k} is outside 1 < k < n-1 for n={self.points.n}; "
            "equality with the affine group is not expected to hold"
        )

    @property
    def holds(self) -> bool:
        """True when nothing contradicts the expected characterization."""
        return (self.equal and self.all_degree_one) if self.in_range else True

    def to_json_dict(self) -> dict:
        return self._json_dict(self.group.to_json_dict())

    def _json_dict(self, group) -> dict:
        """The report's JSON fields, with group as the value of "group": the
        group's dict (to_json_dict), or the GroupReport for the CLI's writer."""
        return {
            "q": self.points.field.q,
            "n": self.points.n,
            "k": self.k,
            "in_range": self.in_range,
            "equal": self.equal,
            "all_degree_one": self.all_degree_one,
            "warning": self.warning,
            "group": group,
        }


def check_theorem(points: EvaluationSet, k: int) -> TheoremReport:
    """Compare brute-force Per(RS(A,k)) with the affine permutations of A
    (brute_force_perm_group); k outside 1..n raises ValueError.

    Equality is expected exactly for 1 < k < n-1.  Boundary dimensions
    k in {1, n-1, n} are still computed but only reported, with a warning
    flag instead of an assertion.
    """
    code = rs_code(points, k)
    return TheoremReport(points, k, brute_force_perm_group(code, points), code)
