"""Univariate polynomial algebra over a finite field.

Dense ascending coefficient vectors with no trailing zeros; the zero
polynomial is the empty vector and its degree is the NEG_INF sentinel,
so degree arithmetic stays honest (deg(f*g) = deg f + deg g even when a
factor is zero).  Also holds ordered evaluation sets with their Lagrange
machinery: vanishing polynomial, indicator functions, interpolation and
composition modulo the set.

Interpolation is one int kernel on indices.  f = sum_i v_i * L_i over
the indicators L_i, and each term v_i * L_i depends only on i and the
index of v_i, so every evaluation set memoises, per indicator, the
term's coefficients packed into one int by a gf.Packing.  A call sums
n memoised ints with Packing.key and unpacks the sum once.  The
indicators are the vanishing polynomial divided by each x - a_i and
scaled by its barycentric weight, computed on indices with the field's
index operations (gf.Field.ops).  Arithmetic inside the module builds
results through a constructor that skips the per-coefficient check of
the public one.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Sequence

from .gf import Field, FieldElement, Packing

# Degree of the zero polynomial.  A float so that NEG_INF + d == NEG_INF
# and NEG_INF < d hold for every integer degree d.
NEG_INF = float("-inf")


def _stripped(cs: list[FieldElement]) -> tuple[FieldElement, ...]:
    while cs and not cs[-1].index:
        cs.pop()
    return tuple(cs)


class Polynomial:
    """Polynomial over a Field, ascending coefficients, trailing zeros stripped."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: Iterable[FieldElement] = ()):
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, FieldElement) or c.field != field:
                raise ValueError(f"coefficient {c!r} is not an element of {field}")
        self.field = field
        self.coeffs = _stripped(cs)

    @classmethod
    def _trusted(cls, field: Field, coeffs: tuple[FieldElement, ...]) -> "Polynomial":
        """Internal constructor without checks: the coefficients are elements
        of the field and the last one is nonzero."""
        f = object.__new__(cls)
        f.field = field
        f.coeffs = coeffs
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
    def degree(self):
        """Integer degree, or NEG_INF for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.field, self.coeffs))

    def coefficient(self, i: int) -> FieldElement:
        return self.coeffs[i] if i < len(self.coeffs) else self.field.zero

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial._trusted(
            self.field,
            _stripped([self.coefficient(i) + other.coefficient(i) for i in range(n)]),
        )

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial._trusted(
            self.field,
            _stripped([self.coefficient(i) - other.coefficient(i) for i in range(n)]),
        )

    def __neg__(self) -> "Polynomial":
        return Polynomial._trusted(self.field, tuple(-c for c in self.coeffs))

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.is_zero() or other.is_zero():
            return Polynomial._trusted(self.field, ())
        out = [self.field.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Polynomial._trusted(self.field, _stripped(out))

    def scale(self, c: FieldElement) -> "Polynomial":
        return Polynomial._trusted(
            self.field, _stripped([c * a for a in self.coeffs])
        )

    def __pow__(self, e: int) -> "Polynomial":
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
        field = self.field
        rem = list(self.coeffs)
        d = len(divisor.coeffs) - 1
        inv_lead = divisor.coeffs[-1].inverse()
        if len(rem) - 1 < d:
            return Polynomial._trusted(field, ()), self
        quot = [field.zero] * (len(rem) - d)
        for top in range(len(rem) - 1, d - 1, -1):
            c = rem[top]
            if c.is_zero():
                continue
            f = c * inv_lead
            quot[top - d] = f
            for i, b in enumerate(divisor.coeffs):
                rem[top - d + i] = rem[top - d + i] - f * b
        return (
            Polynomial._trusted(field, _stripped(quot)),
            Polynomial._trusted(field, _stripped(rem)),
        )

    def __mod__(self, divisor: "Polynomial") -> "Polynomial":
        return divmod(self, divisor)[1]

    def monic(self) -> "Polynomial":
        if self.is_zero():
            raise ValueError("the zero polynomial has no monic form")
        return self.scale(self.coeffs[-1].inverse())

    # -- evaluation and composition ----------------------------------------

    def evaluate(self, a: FieldElement) -> FieldElement:
        """Horner evaluation."""
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * a + c
        return acc

    def compose(self, inner: "Polynomial") -> "Polynomial":
        """Usual composition self(inner(x)), Horner style over polynomials."""
        acc = Polynomial.zero(self.field)
        for c in reversed(self.coeffs):
            acc = acc * inner + Polynomial.constant(c)
        return acc

    # -- display -------------------------------------------------------------

    def __str__(self) -> str:
        """Nonzero terms in ascending powers, read from Field.terms."""
        if not self.coeffs:
            return "0"
        terms, q = self.field.terms, self.field.q
        return " + ".join(
            [terms[i * q + c.index] for i, c in enumerate(self.coeffs) if c.index]
        )

    def __repr__(self) -> str:
        return f"Polynomial({self.field!r}, {self})"


def affine_str(f: Polynomial) -> str:
    """Degree <= 1 polynomials in a*x + b style, as in group listings."""
    if f.degree > 1:
        return str(f)
    a = f.coefficient(1).index
    b = f.coefficient(0).index
    terms = f.field.terms
    if not a:
        return terms[b]
    ax = terms[f.field.q + a]
    return f"{ax} + {terms[b]}" if b else ax


class EvaluationSet:
    """Ordered tuple of n >= 2 pairwise-distinct field elements."""

    def __init__(self, field: Field, points: Iterable):
        pts = tuple(field.element(a) for a in points)
        if len(pts) < 2:
            raise ValueError("evaluation sets need at least two points")
        if len(set(pts)) != len(pts):
            raise ValueError("evaluation points must be pairwise distinct")
        self.field = field
        self.points = pts
        self.n = len(pts)
        self._position = {a: i for i, a in enumerate(pts)}

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
        return self.field == other.field and self.points == other.points

    def __hash__(self) -> int:
        return hash((self.field, self.points))

    def __str__(self) -> str:
        return "(" + ", ".join(str(a) for a in self.points) + ")"

    def position(self, a: FieldElement) -> int | None:
        """Index of a point, or None when the element is not in the set."""
        return self._position.get(a)

    def permuted(self, images: Sequence[int]) -> "EvaluationSet":
        """The tuple (a_pi(1), ..., a_pi(n)) for 0-based images."""
        return EvaluationSet(self.field, tuple(self.points[i] for i in images))

    # -- Lagrange machinery ---------------------------------------------

    @cached_property
    def vanishing(self) -> Polynomial:
        """Monic degree-n polynomial with roots exactly the points.

        The product of the x - a, one factor at a time on indices.
        """
        ops = self.field.ops
        add, mul = ops.add, ops.mul
        acc = [1]
        for a in [x.index for x in self.points]:
            # (x - a) * acc: coefficient i is acc[i-1] - a * acc[i].
            na = ops.neg(a)
            acc = [mul(na, acc[0])] + [
                add(hi, mul(na, lo)) for hi, lo in zip(acc, acc[1:] + [0])
            ]
        return Polynomial._trusted(self.field, tuple(ops.elements[c] for c in acc))

    @cached_property
    def indicators(self) -> tuple[Polynomial, ...]:
        """Indicator functions: degree n-1 polynomials with L_i(a_j) = delta_ij.

        L_i is Q_i = vanishing / (x - a_i) scaled by 1/Q_i(a_i), so its
        leading coefficient is the barycentric weight 1/prod_{j != i}
        (a_i - a_j) (Berrut and Trefethen, SIAM Review 46(3), 2004).
        Q_i is one synthetic division and Q_i(a_i) one Horner pass, on
        indices.
        """
        ops = self.field.ops
        add, mul, els = ops.add, ops.mul, ops.elements
        v = [c.index for c in self.vanishing.coeffs]
        out = []
        for a in [x.index for x in self.points]:
            # Synthetic division: q_{n-1} = v_n and q_{i-1} = v_i + a * q_i;
            # the remainder v(a) is zero and is not formed.
            q = [1]
            for c in v[-2:0:-1]:
                q.append(add(c, mul(a, q[-1])))
            value = 0
            for c in q:
                value = add(mul(value, a), c)
            q.reverse()
            out.append(
                Polynomial._trusted(
                    self.field, tuple(els[c] for c in ops.scale(ops.inv(value), q))
                )
            )
        return tuple(out)

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

    def interpolate(self, values: Sequence[FieldElement]) -> Polynomial:
        """The unique polynomial of degree < n matching the values on the points.

        Any elements of the field are accepted; anything else raises
        ValueError.  The memoised terms v_i * L_i are summed by one
        Packing.key and the key is unpacked into interned elements once.
        """
        field, n, packing, terms = self.field, self.n, self._packing, self._terms
        if len(values) != n:
            raise ValueError(f"expected {n} values, got {len(values)}")
        choice = []
        for (i, memo), v in zip(terms, values):
            if not isinstance(v, FieldElement) or (
                v.field is not field and v.field != field
            ):
                raise ValueError(f"value {v!r} is not an element of {field}")
            x = v.index
            if x not in memo:
                memo[x] = packing.pack([c.index for c in self.indicators[i].coeffs], x)
            choice.append(x)
        cs = _stripped(packing.unpack(packing.key(choice, terms)))
        return Polynomial._trusted(field, cs)


def compose_mod(p1: Polynomial, p2: Polynomial, points: EvaluationSet) -> Polynomial:
    """Composition p1(p2(x)) reduced modulo the vanishing polynomial of the set.

    The result has degree < n and agrees with the plain composition on
    every point, which makes the set of degree < n polynomials permuting
    the points a group under this operation.
    """
    return p1.compose(p2) % points.vanishing
