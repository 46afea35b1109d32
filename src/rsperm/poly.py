"""Univariate polynomial algebra over a finite field.

Dense ascending vectors of coefficient indices with no trailing zeros,
run on the field's index operations (gf.Field.ops), which gf._ops, the
operand check shared with field elements, hands out once an operand is
of the right kind and field.  The zero polynomial is the empty vector
and its degree is the NEG_INF sentinel, so degree arithmetic stays
honest (deg(f*g) = deg f + deg g even when a factor is zero).  Also
holds ordered evaluation sets with their Lagrange machinery: vanishing
polynomial, indicator functions, interpolation and composition modulo
the set.

An evaluation set keeps its points as elements and as indices, and
compares, hashes and looks up positions on the indices.  Its Lagrange
basis is plain Polynomial arithmetic: the vanishing polynomial is the
product of the factors x - a_i, and each indicator is the vanishing
polynomial divided by x - a_i, scaled by the inverse of the quotient's
value at a_i.

Interpolation checks the values once into indices, then tries the line
first.  The line through (a_0, v_0) and (a_1, v_1) is memoised per
evaluation set under the indices of v_0 and v_1, with the indices of
its values on every point; when those are the given values, the line
is the unique interpolant of degree < n.  So an affine member costs
O(n), and each line is computed once per pair (v_0, v_1).  Any other
values go through one int kernel on indices.  f = sum_i v_i * L_i over
the indicators L_i, and each term v_i * L_i depends only on i and the
index of v_i, so every evaluation set memoises, per indicator, the
term's coefficients packed into one int by a gf.Packing, filled when a
sum first misses it.  A call sums n memoised ints with Packing.key and
decodes the sum once, straight into the stripped coefficient indices.
Arithmetic inside the module builds results through a constructor that
skips the per-coefficient check of the public one.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Sequence
from functools import cached_property, reduce
from itertools import compress, count, zip_longest

from .gf import Field, FieldElement, FieldMismatchError, Packing, _ops

# Degree of the zero polynomial.  A float so that NEG_INF + d == NEG_INF
# and NEG_INF < d hold for every integer degree d.
NEG_INF = float("-inf")


def _stripped(cs: list[int]) -> tuple[int, ...]:
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def _indices(field: Field, values: Iterable, what: str) -> list[int]:
    """The indices of the values, once each is known to be an element of
    the field; anything else raises ValueError naming it."""
    out = []
    for v in values:
        if not isinstance(v, FieldElement):
            raise ValueError(f"{what} {v!r} is not an element of {field}")
        if v.field is not field and v.field != field:
            raise FieldMismatchError(f"{what} {v!r} is not an element of {field}")
        out.append(v.index)
    return out


class Polynomial:
    """Polynomial over a Field, ascending coefficient indices (index_coeffs),
    trailing zeros stripped."""

    __slots__ = ("field", "index_coeffs")

    def __init__(self, field: Field, coeffs: Iterable[FieldElement] = ()):
        self.field = field
        self.index_coeffs = _stripped(_indices(field, coeffs, "coefficient"))

    @classmethod
    def _trusted(cls, field: Field, index_coeffs: tuple[int, ...]) -> "Polynomial":
        """Internal constructor without checks: the coefficients are indices
        of elements of the field and the last one is nonzero."""
        f = object.__new__(cls)
        f.field = field
        f.index_coeffs = index_coeffs
        return f

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, field: Field) -> "Polynomial":
        return cls(field)

    @classmethod
    def one(cls, field: Field) -> "Polynomial":
        return cls(field, (field.one,))

    @classmethod
    def x(cls, field: Field) -> "Polynomial":
        return cls(field, (field.zero, field.one))

    @classmethod
    def constant(cls, c: FieldElement) -> "Polynomial":
        return cls(c.field, (c,))

    @classmethod
    def affine(cls, a: FieldElement, b: FieldElement) -> "Polynomial":
        """a*x + b with a allowed to be zero (then just the constant b)."""
        return cls(a.field, (b, a))

    @classmethod
    def from_ints(cls, field: Field, ints: Sequence[int]) -> "Polynomial":
        """Convenience for prime fields: coefficients given as integers."""
        return cls(field, tuple(field.element(i) for i in ints))

    @classmethod
    def monomial(cls, field: Field, degree: int) -> "Polynomial":
        return cls(field, (field.zero,) * degree + (field.one,))

    # -- basics ----------------------------------------------------------

    @property
    def coeffs(self) -> tuple[FieldElement, ...]:
        """The coefficients as the field's interned elements."""
        els = self.field.ops.elements
        return tuple(els[c] for c in self.index_coeffs)

    @property
    def degree(self):
        """Integer degree, or NEG_INF for the zero polynomial."""
        return len(self.index_coeffs) - 1 if self.index_coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.index_coeffs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.field == other.field and self.index_coeffs == other.index_coeffs

    def __hash__(self) -> int:
        return hash((self.field, self.index_coeffs))

    def coefficient(self, i: int) -> FieldElement:
        return self.coeffs[i] if i < len(self.index_coeffs) else self.field.zero

    # -- arithmetic on indices ---------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        add = _ops(self.field, other, Polynomial).add
        pairs = zip_longest(self.index_coeffs, other.index_coeffs, fillvalue=0)
        return Polynomial._trusted(self.field, _stripped([add(a, b) for a, b in pairs]))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + -other

    def __neg__(self) -> "Polynomial":
        neg = self.field.ops.neg
        return Polynomial._trusted(self.field, tuple(map(neg, self.index_coeffs)))

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        ops = _ops(self.field, other, Polynomial)
        f, g = self.index_coeffs, other.index_coeffs
        out = [0] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            if a:
                for j, ab in enumerate(ops.scale(a, g), i):
                    out[j] = ops.add(out[j], ab)
        return Polynomial._trusted(self.field, _stripped(out))

    def scale(self, c: FieldElement) -> "Polynomial":
        scaled = _ops(self.field, c, FieldElement).scale(c.index, self.index_coeffs)
        return Polynomial._trusted(self.field, _stripped(scaled))

    def __pow__(self, e: int) -> "Polynomial":
        if e < 0:
            raise ValueError(f"polynomials have no negative powers, got {e}")
        result = Polynomial.one(self.field)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __divmod__(self, divisor: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        """Schoolbook long division; divisor must be nonzero."""
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        field, ops = self.field, _ops(self.field, divisor, Polynomial)
        rem, div = list(self.index_coeffs), divisor.index_coeffs
        d = len(div) - 1
        if len(rem) - 1 < d:
            return Polynomial._trusted(field, ()), self
        inv_lead = ops.inv(div[-1])
        quot = [0] * (len(rem) - d)
        for top in range(len(rem) - 1, d - 1, -1):
            if rem[top]:
                f = quot[top - d] = ops.mul(rem[top], inv_lead)
                for i, fb in enumerate(ops.scale(f, div), top - d):
                    rem[i] = ops.sub(rem[i], fb)
        return (
            Polynomial._trusted(field, _stripped(quot)),
            Polynomial._trusted(field, _stripped(rem)),
        )

    def __mod__(self, divisor: "Polynomial") -> "Polynomial":
        return divmod(self, divisor)[1]

    def monic(self) -> "Polynomial":
        if self.is_zero():
            raise ValueError("the zero polynomial has no monic form")
        ops, cs = self.field.ops, self.index_coeffs
        return Polynomial._trusted(self.field, tuple(ops.scale(ops.inv(cs[-1]), cs)))

    # -- evaluation and composition ----------------------------------------

    def evaluate(self, a: FieldElement) -> FieldElement:
        """Horner evaluation."""
        ops, acc = _ops(self.field, a, FieldElement), 0
        for c in reversed(self.index_coeffs):
            acc = ops.add(ops.mul(acc, a.index), c)
        return ops.elements[acc]

    def compose(self, inner: "Polynomial") -> "Polynomial":
        """Usual composition self(inner(x)), Horner style over polynomials."""
        acc = Polynomial._trusted(self.field, ())
        for c in reversed(self.index_coeffs):
            acc = acc * inner + Polynomial._trusted(self.field, (c,) if c else ())
        return acc

    # -- display -------------------------------------------------------------

    def __str__(self) -> str:
        """Nonzero terms in ascending powers, read from Field.terms."""
        if not self.index_coeffs:
            return "0"
        return terms_text(self.field.terms, self.field.q, self.index_coeffs)

    def __repr__(self) -> str:
        return f"Polynomial({self.field!r}, {self})"


def terms_text(terms: dict[int, str], q: int, index_coeffs: tuple[int, ...]) -> str:
    """The nonzero terms of a nonzero polynomial over a field of order q,
    ascending and joined by " + ": coefficient index c of x^i is read as
    terms[i * q + c] from the field's Field.terms.  str, affine_str above
    degree 1 and the --json writer of group members all print through it,
    the writer with terms and q fetched once per report."""
    keys = compress(map(operator.add, count(0, q), index_coeffs), index_coeffs)
    return " + ".join(map(terms.__getitem__, keys))


def affine_str(f: Polynomial) -> str:
    """Degree <= 1 polynomials in a*x + b style, as in group listings, and
    higher degrees as str(f).  The zero polynomial prints as the literal
    of the zero element."""
    coeffs, field = f.index_coeffs, f.field
    if len(coeffs) > 2:
        return terms_text(field.terms, field.q, coeffs)
    b, a = (coeffs + (0, 0))[:2]
    terms = field.terms
    if not a:
        return terms[b]
    ax = terms[field.q + a]
    return f"{ax} + {terms[b]}" if b else ax


class EvaluationSet:
    """Ordered tuple of n >= 2 pairwise-distinct field elements, kept as
    the elements (points) and as their indices (index_points)."""

    def __init__(self, field: Field, points: Iterable):
        self.index_points = tuple(field.element(a).index for a in points)
        self.n = len(self.index_points)
        if self.n < 2:
            raise ValueError("evaluation sets need at least two points")
        self._position = {x: i for i, x in enumerate(self.index_points)}
        if len(self._position) != self.n:
            raise ValueError("evaluation points must be pairwise distinct")
        self.field = field
        self.points = tuple(map(field.ops.elements.__getitem__, self.index_points))

    @classmethod
    def full_field(cls, field: Field) -> "EvaluationSet":
        return cls(field, field.elements())

    @classmethod
    def multiplicative_group(cls, field: Field) -> "EvaluationSet":
        return cls(field, field.nonzero_elements())

    def __len__(self) -> int:
        return self.n

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, i: int) -> FieldElement:
        return self.points[i]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EvaluationSet):
            return NotImplemented
        return self.field == other.field and self.index_points == other.index_points

    def __hash__(self) -> int:
        return hash((self.field, self.index_points))

    def __str__(self) -> str:
        return "(" + ", ".join(str(a) for a in self.points) + ")"

    def position(self, a: FieldElement) -> int | None:
        """Index of a point, or None when a is not a point of the set."""
        if isinstance(a, FieldElement) and a.field == self.field:
            return self._position.get(a.index)
        return None

    def permuted(self, images: Sequence[int]) -> "EvaluationSet":
        """The tuple (a_pi(1), ..., a_pi(n)) for 0-based images."""
        return EvaluationSet(self.field, tuple(self.points[i] for i in images))

    # -- Lagrange machinery ---------------------------------------------

    @cached_property
    def _factors(self) -> tuple[Polynomial, ...]:
        """The linear factors x - a_i, one per point."""
        field, neg = self.field, self.field.ops.neg
        return tuple(Polynomial._trusted(field, (neg(a), 1)) for a in self.index_points)

    @cached_property
    def vanishing(self) -> Polynomial:
        """Monic degree-n polynomial with roots exactly the points: the
        product of the x - a_i, each factor on the left so that a step
        scales the product so far twice."""
        return reduce(lambda acc, f: f * acc, self._factors, Polynomial.one(self.field))

    @cached_property
    def indicators(self) -> tuple[Polynomial, ...]:
        """Indicator functions: degree n-1 polynomials with L_i(a_j) = delta_ij.

        L_i is Q_i = vanishing / (x - a_i) scaled by 1/Q_i(a_i), so its
        leading coefficient is the barycentric weight 1/prod_{j != i}
        (a_i - a_j) (Berrut and Trefethen, SIAM Review 46(3), 2004).
        """
        quotients = [divmod(self.vanishing, f)[0] for f in self._factors]
        return tuple(
            q.scale(q.evaluate(a).inverse()) for q, a in zip(quotients, self.points)
        )

    def evaluate(self, f: Polynomial) -> tuple[FieldElement, ...]:
        """The vector (f(a_1), ..., f(a_n))."""
        return tuple(f.evaluate(a) for a in self.points)

    @cached_property
    def _packing(self) -> Packing:
        return Packing(self.field, self.n, self.n)

    @cached_property
    def _terms(self) -> tuple[tuple[int, dict[int, int]], ...]:
        """(i, memo) per indicator L_i, the memo from v.index to the packed v * L_i."""
        return tuple((i, {}) for i in range(self.n))

    @cached_property
    def _lines(self) -> dict[tuple[int, int], tuple[list[int], Polynomial]]:
        """Memo from (v_0.index, v_1.index) to the line through (a_0, v_0)
        and (a_1, v_1): the indices of its values on the points, and the
        line itself."""
        return {}

    def _line(self, v0: int, v1: int) -> tuple[list[int], Polynomial]:
        """The line a*x + b with a_0 -> v0 and a_1 -> v1, on indices."""
        ops = self.field.ops
        add, sub, mul = ops.add, ops.sub, ops.mul
        a0, a1 = self.index_points[:2]
        a = mul(sub(v1, v0), ops.inv(sub(a1, a0)))
        b = sub(v0, mul(a, a0))
        images = [add(ax, b) for ax in ops.scale(a, self.index_points)]
        line = Polynomial._trusted(self.field, _stripped([b, a]))
        self._lines[v0, v1] = images, line
        return images, line

    def interpolate(self, values: Sequence[FieldElement]) -> Polynomial:
        """The unique polynomial of degree < n matching the values on the points.

        Any elements of the field are accepted; anything else raises
        ValueError.  The line through the first two values is tried
        first: when its values on the points are the given ones, it is
        the interpolant.  Otherwise the memoised terms v_i * L_i are
        summed by one Packing.key, and the key is decoded into the
        stripped coefficient indices once (Packing.decode).
        """
        field, n = self.field, self.n
        if len(values) != n:
            raise ValueError(f"expected {n} values, got {len(values)}")
        choice = _indices(field, values, "value")
        v0, v1 = choice[0], choice[1]
        images, line = self._lines.get((v0, v1)) or self._line(v0, v1)
        if images == choice:
            return line
        packing, terms = self._packing, self._terms
        try:
            key = packing.key(choice, terms)
        except KeyError:
            for (i, memo), x in zip(terms, choice):
                if x not in memo:
                    memo[x] = packing.pack(self.indicators[i].index_coeffs, x)
            key = packing.key(choice, terms)
        return Polynomial._trusted(field, packing.decode(key))


def compose_mod(p1: Polynomial, p2: Polynomial, points: EvaluationSet) -> Polynomial:
    """Composition p1(p2(x)) reduced modulo the vanishing polynomial of the set.

    The result has degree < n and agrees with the plain composition on
    every point, which makes the set of degree < n polynomials permuting
    the points a group under this operation.
    """
    return p1.compose(p2) % points.vanishing
