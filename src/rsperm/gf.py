"""Exact arithmetic in finite fields F_p and GF(p^m).

An element of GF(p^m), a polynomial in the generator t reduced modulo a
monic irreducible polynomial of degree m, is stored as its index
sum(c_i * p**i) over its ascending coefficients.  Arithmetic runs on
indices through O(q) tables built on first use: exp and log over a
primitive element, and for sums mod p (prime fields), XOR (p = 2) or
Zech logarithms.  Everything is immutable; fields are capped at
q = p^m <= 2**16.  The tables are built on ints alone: the primitive
element is found by an order test on the int form of each candidate,
and its powers by walking a q-entry table of x -> x*g, itself built
by linearity over the digits of x: XOR for p = 2, sums in one-byte
digit slots reduced a block at a time by one bytes.translate for odd
p < 131, and the two digits reduced directly for larger p.

A process holds one Field object per live field, and a field hands out
one object and one string per element.  Field(q, modulus) returns the
field already made for that order and modulus, however the modulus is
spelled, while that field is alive, and the registry keeps the
KEPT_FIELDS most recently used fields alive, so a process that keeps
asking about a few fields builds their tables once.  Field.tables
makes the q interned elements, which every accessor and operator
returns, in one _filled call, and Field.terms keeps each element's
literal, under its index, beside the polynomial term strings.
Field.ops, the one kernel for scalars, is add, sub, neg, mul and inv
on indices, plus scale on index lists; FieldElement operators wrap it,
behind the operand check _ops that Polynomial arithmetic shares, and
codes, polynomials, interpolation and affine enumeration run on it
directly.  Packing, the one kernel for vectors of indices, packs them
into ints with one slot per base-p digit, scales a list of them by one
element in a few whole-int operations, sums them and decodes a sum
back into indices; the permutation search and interpolation both run
on it.  Over odd p a slot is one byte whenever the sum of all terms
fits in it, so a sum is reduced mod p in every slot at once by one
bytes.translate.

_Frozen is the one base of rsperm's value classes: FieldElement here,
Polynomial, Permutation, AffineMap, the group and theorem reports and
the CLI's sweep trials.  Each names its fields in __match_args__ and
keeps them in slots, and the base gives it the equality, hash, repr,
pickling and refusal of assignment of a frozen dataclass with those
fields; a class overrides only what differs, such as its repr.
_filled(cls, *columns), the one bulk constructor, makes many values at
once, filling their slots column by column at C speed past the
constructor's checks, for values already known to pass them.
"""

from __future__ import annotations

import operator
import sys
from array import array
from collections import OrderedDict, deque
from collections.abc import Callable, Iterable, Sequence
from functools import cache, cached_property
from itertools import product, repeat
from weakref import WeakValueDictionary

MAX_FIELD_SIZE = 1 << 16

# How many of the most recently used fields the registry keeps alive.
KEPT_FIELDS = 8

# (q, checked modulus or None) -> the Field of that order and modulus, for
# as long as the field is alive anywhere; _KEPT, least recently used
# first, is what keeps a field alive between calls.
_FIELDS: WeakValueDictionary[tuple[int, tuple[int, ...] | None], "Field"] = (
    WeakValueDictionary()
)
_KEPT: OrderedDict[tuple[int, tuple[int, ...] | None], "Field"] = OrderedDict()


class FieldMismatchError(ValueError):
    """Raised when combining elements of different fields."""


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, ascending, by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def factor_prime_power(q: int) -> tuple[int, int]:
    """Split q into (p, m) with p prime and q = p**m, or raise ValueError."""
    if q < 2:
        raise ValueError(f"field order must be >= 2, got {q}")
    primes = _prime_factors(q)
    if len(primes) != 1:
        raise ValueError(f"{q} is not a prime power")
    p = primes[0]
    m = 0
    while q > 1:
        q //= p
        m += 1
    return p, m


# -- polynomial helpers over F_p, used only for modulus validation --------

def _trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _polymod_p(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    """Remainder of a modulo b over F_p (b nonzero)."""
    r = [x % p for x in a]
    _trim(r)
    db = len(b) - 1
    inv_lead = pow(b[-1], p - 2, p)
    while len(r) - 1 >= db and r:
        shift = len(r) - 1 - db
        factor = (r[-1] * inv_lead) % p
        for i, bc in enumerate(b):
            r[shift + i] = (r[shift + i] - factor * bc) % p
        _trim(r)
    return r


def _monic_polys_of_degree(d: int, p: int) -> Iterable[list[int]]:
    for idx in range(p**d):
        coeffs = []
        v = idx
        for _ in range(d):
            coeffs.append(v % p)
            v //= p
        yield coeffs + [1]


def is_irreducible(modulus: Sequence[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= m//2."""
    m = len(modulus) - 1
    if m < 1 or modulus[-1] % p != 1:
        return False
    for d in range(1, m // 2 + 1):
        for div in _monic_polys_of_degree(d, p):
            if not _polymod_p(modulus, div, p):
                return False
    return True


@cache
def default_modulus(p: int, m: int) -> tuple[int, ...]:
    """First irreducible monic polynomial of degree m, lowest constant part.

    Searched for once per (p, m) and remembered: the answer never changes.
    """
    for cand in _monic_polys_of_degree(m, p):
        if is_irreducible(cand, p):
            return tuple(cand)
    raise ValueError(f"no irreducible polynomial of degree {m} over F_{p}")


def _ops(field: Field, other, kind: type) -> IndexOps:
    """The field's index operations, once other is known to be an instance
    of kind (an element or a polynomial) over the same field: the one
    operand check of FieldElement and Polynomial arithmetic."""
    if not isinstance(other, kind):
        raise TypeError(f"expected {kind.__name__}, got {type(other).__name__}")
    if field is not other.field and field != other.field:
        raise FieldMismatchError(f"{field} and {other.field} cannot be combined")
    return field.ops


class _Frozen:
    """An immutable value over the fields named in __match_args__, each in
    a slot: the one base of rsperm's value classes.

    It compares, hashes and refuses assignment and deletion as a frozen
    dataclass with those fields would, and prints and pickles as one
    unless a subclass says otherwise.  Equality and the hash read the
    field values at C speed, as a tuple, or as the value itself for a
    class of one field.  The constructor takes the fields by position or
    by name and fills the slots through their own descriptors, past
    __setattr__; _filled makes many values at once the same way.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        names = cls.__match_args__
        # The field values at C speed: a lone field through its own slot.
        values = operator.attrgetter(*names)
        cls._values = getattr(cls, names[0]) if len(names) == 1 else property(values)
        cls._setters = tuple(getattr(cls, name).__set__ for name in names)

    def __init__(self, *values, **named) -> None:
        names, setters = self.__match_args__, self._setters
        if named:
            values += tuple(named.pop(name) for name in names[len(values):] if name in named)
        if named or len(values) != len(setters):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}")
        for set_value, value in zip(setters, values):
            set_value(self, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name) for name in self.__match_args__)


def _filled(cls: type, *columns, _drain=deque(maxlen=0).extend) -> list:
    """Values of the _Frozen class cls, one per entry of the sequence
    columns[0]: bare instances with slot i filled from columns[i], any
    iterable, through the slot's descriptor at C speed, the calls drained
    by one shared empty deque.  The constructor's checks are skipped, so
    the values must pass them."""
    values = list(map(object.__new__, repeat(cls, len(columns[0]))))
    for set_value, column in zip(cls._setters, columns):
        _drain(map(set_value, values, column))
    return values


class FieldElement(_Frozen):
    """An element of GF(p^m), stored as its index in the field enumeration.

    Field.tables makes one per index, and every operator and accessor
    hands those out; pickle and copy give back the field's own element.
    """

    __slots__ = __match_args__ = ("field", "index")

    def __reduce__(self):
        return self.field.from_index, (self.index,)

    def __add__(self, other: "FieldElement") -> "FieldElement":
        ops = _ops(self.field, other, FieldElement)
        return ops.elements[ops.add(self.index, other.index)]

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        ops = _ops(self.field, other, FieldElement)
        return ops.elements[ops.sub(self.index, other.index)]

    def __neg__(self) -> "FieldElement":
        ops = self.field.ops
        return ops.elements[ops.neg(self.index)]

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        ops = _ops(self.field, other, FieldElement)
        return ops.elements[ops.mul(self.index, other.index)]

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        ops = _ops(self.field, other, FieldElement)
        return ops.elements[ops.mul(self.index, ops.inv(other.index))]

    def __pow__(self, e: int) -> "FieldElement":
        """0**0 is defined as 1; a negative power of zero raises."""
        exp, log, _, els = self.field.tables
        if self.index:
            return els[exp[log[self.index] * e % (self.field.q - 1)]]
        if e < 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return els[0 if e else 1]

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse; raises on zero."""
        ops = self.field.ops
        return ops.elements[ops.inv(self.index)]

    def is_zero(self) -> bool:
        return self.index == 0

    @property
    def coeffs(self) -> tuple[int, ...]:
        """The m residues mod p, ascending powers of t."""
        p = self.field.p
        return tuple(self.index // p**i % p for i in range(self.field.m))

    def __str__(self) -> str:
        return self.field.terms[self.index]

    def __repr__(self) -> str:
        return f"FieldElement({self.field!r}, {self})"


class _Terms(dict):
    """i * q + index -> the polynomial term c*x^i for c of that index.

    Key index (i == 0) holds the literal of c: decimal for m == 1,
    [c0,...,c_{m-1}] else.  A term reads x^i alone when c is one, x for
    i == 1 and literal*x^i otherwise.  Each string is stored when first
    read, so a field holds only what it has printed; the pair (i, index)
    is keyed as one int, which hashes faster than a tuple.
    """

    __slots__ = ("p", "m", "q")

    def __init__(self, p: int, m: int, q: int):
        self.p, self.m, self.q = p, m, q

    def __missing__(self, key: int) -> str:
        i, index = divmod(key, self.q)
        if i:
            power = "x" if i == 1 else f"x^{i}"
            term = power if index == 1 else f"{self[index]}*{power}"
        elif self.m == 1:
            term = str(index)
        else:
            p = self.p
            term = "[" + ",".join(str(index // p**b % p) for b in range(self.m)) + "]"
        self[key] = term
        return term


class Field:
    """GF(p^m) for a prime p, with q = p**m <= 2**16.

    The modulus (monic irreducible of degree m, ascending coefficients)
    is validated at construction; for m == 1 it is implicit.  A default
    modulus is searched for when none is given.

    There is one Field object per live field in a process:
    Field(q, modulus) returns the field already made for that q and
    checked modulus, in whatever form the modulus is given (None for the
    default, a list, a tuple or any iterable), so its tables, ops and
    strings are built once for as long as it lives.  Besides what
    callers hold, the registry keeps only the KEPT_FIELDS (8) most
    recently used fields alive.  Built tables take O(q) memory, about
    10.8 MB for a field near 2**16 and 0.15 MB for GF(1024), so the
    registry keeps at most about 86 MB of them alive.
    """

    def __new__(cls, q: int, modulus: Iterable[int] | None = None) -> "Field":
        field = super().__new__(cls)
        field.__init__(q, modulus)
        key = (field.q, field.modulus)
        field = _FIELDS.setdefault(key, field)
        _KEPT[key] = field
        _KEPT.move_to_end(key)
        if len(_KEPT) > KEPT_FIELDS:
            _KEPT.popitem(last=False)
        return field

    def __init__(self, q: int, modulus: Iterable[int] | None = None):
        """Check q and the modulus.  Python also calls it on the field
        that __new__ returns; a field already checked is left as it is."""
        if "q" in self.__dict__:
            return
        try:
            q = operator.index(q)
        except TypeError:
            raise TypeError(f"field order must be an int, got {q!r}") from None
        if q > MAX_FIELD_SIZE:
            raise ValueError(f"field size {q} exceeds cap {MAX_FIELD_SIZE}")
        p, m = factor_prime_power(q)
        if m == 1:
            if modulus is not None:
                raise ValueError("prime fields take no modulus")
            mod = None
        elif modulus is None:
            mod = default_modulus(p, m)
        else:
            given = list(modulus)
            try:
                mod = tuple(operator.index(c) % p for c in given)
            except TypeError:
                raise TypeError(f"modulus coefficients must be ints, got {given}") from None
            if len(mod) != m + 1 or mod[-1] != 1:
                raise ValueError(f"modulus must be monic of degree {m} (got {given})")
            # A registered modulus was found irreducible when it was registered.
            if (q, mod) not in _FIELDS and not is_irreducible(mod, p):
                raise ValueError(f"modulus {given} is reducible over F_{p}")
        self.p, self.m, self.q = p, m, q
        self.modulus: tuple[int, ...] | None = mod

    def __reduce__(self):
        """Pickle, copy and deepcopy give back the process's one field."""
        return Field, (self.q, self.modulus)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Field):
            return NotImplemented
        return (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus)

    def __hash__(self) -> int:
        return hash((self.p, self.m, self.modulus))

    def __str__(self) -> str:
        if self.m == 1:
            return f"GF({self.q})"
        return f"GF({self.q}) mod {list(self.modulus)}"

    def __repr__(self) -> str:
        if self.m == 1:
            return f"Field({self.q})"
        return f"Field({self.q}, modulus={list(self.modulus)})"

    # -- element construction ------------------------------------------

    def element(self, value) -> FieldElement:
        """Coerce an int (prime field), coefficient list, or element."""
        if isinstance(value, FieldElement):
            if value.field is not self and value.field != self:
                raise FieldMismatchError(f"{value!r} is not in {self}")
            return self.ops.elements[value.index]
        if isinstance(value, int):
            if self.m != 1:
                raise ValueError(
                    f"{self} elements need {self.m} coefficients, got int {value}"
                )
            return self.ops.elements[value % self.p]
        coeffs = list(value)
        if len(coeffs) != self.m:
            raise ValueError(
                f"expected {self.m} coefficients for {self}, got {len(coeffs)}"
            )
        index, p = 0, self.p
        for c in reversed(coeffs):
            index = index * p + c % p
        return self.ops.elements[index]

    def from_index(self, i: int) -> FieldElement:
        if not 0 <= i < self.q:
            raise ValueError(f"index {i} out of range for {self}")
        return self.ops.elements[i]

    @cached_property
    def zero(self) -> FieldElement:
        return self.ops.elements[0]

    @cached_property
    def one(self) -> FieldElement:
        return self.ops.elements[1]

    def generator(self) -> FieldElement:
        """The residue class of t (only meaningful for m > 1)."""
        if self.m == 1:
            raise ValueError("prime fields have no polynomial generator")
        return self.from_index(self.p)

    def elements(self) -> list[FieldElement]:
        """All q elements, zero first, in base-p order on coefficient vectors."""
        return self.ops.elements[:]

    def nonzero_elements(self) -> list[FieldElement]:
        return self.ops.elements[1:]

    def parse(self, literal: str) -> FieldElement:
        """Parse an element literal: decimal for m == 1, [c0,...,c_{m-1}] else."""
        s = literal.strip()
        if s.startswith("["):
            if not s.endswith("]"):
                raise ValueError(f"unterminated element literal {literal!r}")
            parts = s[1:-1].split(",")
            try:
                coeffs = list(map(int, parts))
            except ValueError:
                raise ValueError(f"bad element literal {literal!r}") from None
            return self.element(coeffs)
        if self.m != 1:
            raise ValueError(
                f"{self} element literals must be bracketed vectors, got {literal!r}"
            )
        try:
            return self.element(int(s))
        except ValueError:
            raise ValueError(f"bad element literal {literal!r}") from None

    @cached_property
    def terms(self) -> "_Terms":
        """Element literals at key c.index and polynomial term strings
        c*x^i at key i * q + c.index, each made on its first read."""
        return _Terms(self.p, self.m, self.q)

    # -- arithmetic tables -------------------------------------------------

    @cached_property
    def tables(self) -> tuple:
        """(exp, log, zech, elements), built on first use.

        exp[i] is the index of g**i for g the first primitive element in
        index order (_primitive_powers), stored twice over so that a sum
        of two logarithms needs no reduction; log inverts it on nonzero
        indices.  zech[d] is the logarithm of 1 + g**d (None if that is
        zero) for odd p with m > 1, and zech is None otherwise.  The
        elements, one per index, are the only FieldElement objects the
        field makes: every operator and accessor returns them.  All of
        it takes O(q) operations on ints.
        """
        powers = _primitive_powers(self)
        log: list[int | None] = [None] * self.q
        for i, x in enumerate(powers):
            log[x] = i
        zech = None
        if self.p > 2 and self.m > 1:
            # 1 + x only moves the constant coefficient, the lowest base-p digit.
            zech = [log[x + 1 if (x + 1) % self.p else x + 1 - self.p] for x in powers]
        elements = _filled(FieldElement, [self] * self.q, range(self.q))
        return powers + powers, log, zech, elements

    @cached_property
    def ops(self) -> "IndexOps":
        """Arithmetic on indices, built from the tables on first use."""
        return IndexOps(self)

    @cached_property
    def byte_digits(self) -> tuple[list[bytes], bytes]:
        """(digits, mod_p) for packings with one byte per digit (odd p).

        digits[x] holds the m base-p digits of index x, least significant
        first; mod_p is the bytes.translate table taking every byte value
        to its residue mod p.
        """
        p = self.p
        # product() counts with its last place fastest, the reverse of
        # index order.
        digits = [bytes(ds[::-1]) for ds in product(range(p), repeat=self.m)]
        return digits, _scaled_digits(1, p)

    @cached_property
    def times_digits(self) -> dict[int, bytes]:
        """_scaled_digits(g, p) at key g, filled by byte-slot Packing.scaler."""
        return {}


class IndexOps:
    """Arithmetic of one field on element indices.

    add, sub, neg, mul and inv take and return ints (inv raises on zero),
    and scale(c, xs) is the list of c * x over an iterable of indices.
    elements[i] is the field's interned element of index i.  Sums are
    mod p, XOR or Zech logarithms; products and inverses go through
    exp/log.
    """

    __slots__ = ("add", "sub", "neg", "mul", "inv", "scale", "elements")

    def __init__(self, field: Field):
        exp, log, zech, self.elements = field.tables
        p, m, q = field.p, field.m, field.q

        def inv(a: int) -> int:
            if not a:
                raise ZeroDivisionError("zero has no multiplicative inverse")
            return exp[q - 1 - log[a]]

        def mul(a: int, b: int) -> int:
            return exp[log[a] + log[b]] if a and b else 0

        def scale(c: int, xs: Iterable[int]) -> list[int]:
            if not c:
                return [0 for _ in xs]
            lc = log[c]
            return [exp[lc + log[x]] if x else 0 for x in xs]

        if p == 2:
            add = sub = operator.xor

            def neg(a: int) -> int:
                return a

        elif m == 1:

            def add(a: int, b: int) -> int:
                return (a + b) % p

            def sub(a: int, b: int) -> int:
                return (a - b) % p

            def neg(a: int) -> int:
                return -a % p

        else:
            # -1 is g**((q-1)/2).
            half = (q - 1) // 2

            def add(a: int, b: int) -> int:
                if not a or not b:
                    return a or b
                # g**i + g**j = g**i * (1 + g**(j-i)); a negative j - i wraps in zech.
                z = zech[log[b] - log[a]]
                return 0 if z is None else exp[log[a] + z]

            def neg(a: int) -> int:
                return exp[log[a] + half] if a else 0

            def sub(a: int, b: int) -> int:
                return add(a, exp[log[b] + half]) if b else a

        self.add, self.sub, self.neg = add, sub, neg
        self.mul, self.inv, self.scale = mul, inv, scale


# -- packed vectors ----------------------------------------------------------


class Packing:
    """Vectors of `count` indices packed into ints, one slot per base-p
    digit, and summed up to `terms` at a time.

    Digit b of entry r sits in slot m*r + b.  For p = 2 a slot is one
    bit, so an entry is its index shifted by m*r and vectors add by XOR.
    For odd p a slot holds the plain sum of `terms` digits without
    carrying, so vectors add with + and each slot of the sum is then
    reduced mod p.  The slot is one byte when terms * (p - 1) < 256,
    and the reduction is then one bytes.translate over the whole sum;
    otherwise it is the narrowest width holding terms * (p - 1), reduced
    slot by slot.  key(choice, terms) is that reduced sum of
    packed[choice[i]] over the (i, packed) pairs, packed being a list
    or a memo dict; equal vectors have equal keys.  keys(choice, terms,
    last) is the list of keys of that sum plus each packed vector in
    last, the sum taken once.  scaler(vectors) packs a list of vectors
    times any element g at once, as one int cut into one per vector: by
    m multiplications of bit planes for p = 2, one translate of their
    bytes for prime p with byte slots, else one scale of all entries.
    decode(key) is a key's indices up to its last nonzero entry, as a
    tuple read at C speed.
    """

    def __init__(self, field: Field, count: int, terms: int):
        p, m = field.p, field.m
        self.field, self.count = field, count
        self._digits = None
        if p == 2:
            self.width = 1
            self.key, self.keys = _xor_keys()
        elif terms * (p - 1) < 256:
            self.width = 8
            self._digits, mod_p = field.byte_digits
            self.key, self.keys = _translated_keys(m * count, mod_p)
        else:
            self.width = w = (terms * (p - 1)).bit_length()
            self.key, self.keys = _slot_keys(p, range(0, w * m * count, w), (1 << w) - 1)

    def pack(self, indices: Iterable[int], scale: int = 1) -> int:
        """The vector of indices times the element of index `scale`, packed."""
        if scale != 1:
            if not scale:
                return 0
            indices = self.field.ops.scale(scale, indices)
        return self._laid_out(indices)

    def scaler(self, vectors: Sequence[Sequence[int]]) -> Callable[[int], list[int]]:
        """The function g -> [pack(v, g) for v in vectors], for vectors of
        `count` indices, at a fixed number of whole-int operations per g.

        The vectors are laid out end to end as one packed int, scaled by g
        at once and cut back into one int per vector.  For p = 2, bit
        plane b (bit b of every entry, at the entry's lowest slot) times
        the index of g * 2**b puts that element's m bits in the entry's m
        slots: a plane holds 0 or 1 per entry and the index is below 2**m,
        so nothing carries from one entry into the next, and the XOR of
        the m products is g times every entry.  A prime field with byte
        slots lays the entries out once, a byte each, and scales them by one
        translate through the times-g table of Field.times_digits.  Other
        packings scale the entries by one ops.scale and lay them out anew.
        """
        p, m, ops = self.field.p, self.field.m, self.field.ops
        flat = [x for v in vectors for x in v]
        span = self.width * m * self.count
        mask = (1 << span) - 1
        cuts = range(0, span * len(vectors), span)
        if p == 2:
            laid = self._laid_out(flat)
            # One 1 at the lowest slot of every entry: the base-2**m repunit.
            ones = ((1 << m * len(flat)) - 1) // ((1 << m) - 1)
            planes = [(laid >> b & ones, 1 << b) for b in range(m)]
            mul = ops.mul

            def scaled(g: int) -> list[int]:
                s = 0
                for plane, t in planes:
                    s ^= plane * mul(g, t)
                return [s >> c & mask for c in cuts]

        elif m == 1 and self.width == 8:
            laid, tables = bytes(flat), self.field.times_digits

            def scaled(g: int) -> list[int]:
                if g not in tables:
                    tables[g] = _scaled_digits(g, p)
                s = int.from_bytes(laid.translate(tables[g]), "little")
                return [s >> c & mask for c in cuts]

        else:
            scale = ops.scale

            def scaled(g: int) -> list[int]:
                s = self._laid_out(scale(g, flat))
                return [s >> c & mask for c in cuts]

        return scaled

    def _laid_out(self, indices: Iterable[int]) -> int:
        """The indices packed as they are, however many there are."""
        p, m, w = self.field.p, self.field.m, self.width
        if self._digits is not None:
            digits = self._digits
            return int.from_bytes(b"".join([digits[x] for x in indices]), "little")
        if p == 2:
            return sum(x << (m * r) for r, x in enumerate(indices))
        return sum(
            x // p**b % p << (w * (m * r + b))
            for r, x in enumerate(indices)
            for b in range(m)
        )

    @cached_property
    def decode(self) -> Callable[[int], tuple[int, ...]]:
        """key -> its indices up to the last nonzero entry, made on first
        use: the search's packings never decode.  Entry r fills a field of
        w * m bits, digit b in slot m*r + b.  For p = 2 the field is the
        index itself.  For odd p the digit planes, digit b of every entry
        moved to its field's lowest slot, are read base p at once by
        Horner's rule: an index is below q <= 2**(w * m), so nothing
        carries out of its field.  Byte fields of indices below 256 are
        then every m-th byte (for m = 1 the key's own bytes), and other
        fields are cut one shift and mask each, up to the highest set bit.
        """
        p, m, w, count = self.field.p, self.field.m, self.width, self.count
        size = w * m
        mask = (1 << size) - 1
        if p == 2:
            return lambda key: tuple([key >> s & mask for s in range(0, key.bit_length(), size)])
        # The lowest slot of every field, all ones.
        low = ((1 << size * count) - 1) // mask * ((1 << w) - 1)
        top, shifts = w * (m - 1), range(w * (m - 2), -1, -w)
        bytewise = w == 8 and p**m < 256

        def decode(key: int) -> tuple[int, ...]:
            acc = key >> top & low
            for s in shifts:
                acc = acc * p + (key >> s & low)
            if bytewise:
                return tuple(acc.to_bytes(m * count, "little")[::m].rstrip(b"\0"))
            return tuple([acc >> s & mask for s in range(0, acc.bit_length(), size)])

        return decode


def _xor_keys():
    """key and keys for p = 2: the XOR of the terms."""

    def key(choice, terms) -> int:
        s = 0
        for i, packed in terms:
            s ^= packed[choice[i]]
        return s

    def keys(choice, terms, last) -> list[int]:
        s = key(choice, terms)
        return [s ^ x for x in last]

    return key, keys


def _translated_keys(length: int, mod_p: bytes):
    """key and keys for byte slots: the plain sum, then every byte
    reduced by one translate through mod_p."""
    from_bytes, to_bytes = int.from_bytes, int.to_bytes

    def key(choice, terms) -> int:
        s = 0
        for i, packed in terms:
            s += packed[choice[i]]
        return from_bytes(to_bytes(s, length, "little").translate(mod_p), "little")

    def keys(choice, terms, last) -> list[int]:
        s = 0
        for i, packed in terms:
            s += packed[choice[i]]
        return [
            from_bytes(to_bytes(s + x, length, "little").translate(mod_p), "little")
            for x in last
        ]

    return key, keys


def _slot_keys(p: int, offsets: range, slot: int):
    """key and keys for slots wider than a byte: the plain sum, reduced
    slot by slot."""

    def reduced(s: int) -> int:
        out = 0
        for off in offsets:
            out |= (s >> off & slot) % p << off
        return out

    def key(choice, terms) -> int:
        s = 0
        for i, packed in terms:
            s += packed[choice[i]]
        return reduced(s)

    def keys(choice, terms, last) -> list[int]:
        s = 0
        for i, packed in terms:
            s += packed[choice[i]]
        return [reduced(s + x) for x in last]

    return key, keys


def _primitive_powers(field: Field) -> list[int]:
    """Indices of g**0, ..., g**(q-2) for the first primitive g in index order.

    g is primitive when g**((q-1)/r) != 1 for every prime r dividing q - 1.
    Everything runs on ints.  A prime field tests with pow and walks
    x -> x*g mod p.  An extension field tests on the int forms of
    _vector_arithmetic, builds the table of x -> x*g over all q indices
    once, and walks it from 1.
    """
    p, m, q = field.p, field.m, field.q
    exponents = [(q - 1) // r for r in _prime_factors(q - 1)]
    if m == 1:
        g = next(g for g in range(1, q) if all(pow(g, e, q) != 1 for e in exponents))
        powers = [1]
        for _ in range(q - 2):
            powers.append(powers[-1] * g % q)
        return powers
    vector, shift, apply, times = _vector_arithmetic(p, m, field.modulus)

    def columns(x: int) -> list[int]:
        """x * t**j for j < m: the columns of multiplication by x."""
        cols = [x]
        for _ in range(m - 1):
            cols.append(shift(cols[-1]))
        return cols

    def primitive(g: int) -> bool:
        by_g = columns(vector(g))
        for e in exponents:
            x = by_g[0]
            for bit in bin(e)[3:]:
                x = apply(columns(x), x)
                if bit == "1":
                    x = apply(by_g, x)
            # The int form of 1 is 1 in every representation.
            if x == 1:
                return False
        return True

    # The constants, indices below p, have orders dividing p - 1 < q - 1.
    g = next(g for g in range(p, q) if primitive(g))
    mg = times(columns(vector(g)))
    powers = [1]
    for _ in range(q - 2):
        powers.append(mg[powers[-1]])
    return powers


def _vector_arithmetic(p: int, m: int, modulus: Sequence[int]):
    """(vector, shift, apply, times) for GF(p^m), m > 1, on ints.

    vector(x) is the int form of index x and shift(x) that of x*t.
    apply(cols, x) is the sum of x_j * cols[j] over the digits x_j of x:
    the product of x and y when cols are the columns of y, y*t**j.
    times(cols) is the list over all indices x of the index of that
    product, built by linearity over the digits of x: the entries from
    c*p**j to (c+1)*p**j - 1 are those below p**j plus c*cols[j].

    For p = 2 the int form is the index, bit i being the coefficient of
    t**i, and sums are XOR.  For odd p with 2(p-1) < 256 it is the byte
    layout of Field.byte_digits, one byte per digit, and sums are
    reduced by its mod-p translate; times sums and reduces each block
    of p**j entries at once.  For larger p, where m = 2, the int form
    is the index, both digits are reduced mod p directly, and times
    applies the columns to one index at a time.
    """
    if p == 2:
        # Adding the modulus clears the t**m bit of a product by t.
        wrap = sum(c << i for i, c in enumerate(modulus))

        def shift(x: int) -> int:
            x <<= 1
            return x ^ wrap if x >> m else x

        def apply(cols: list[int], x: int) -> int:
            acc = 0
            for col in cols:
                if x & 1:
                    acc ^= col
                x >>= 1
            return acc

        def times(cols: list[int]) -> list[int]:
            table = [0]
            for col in cols:
                table += [x ^ col for x in table]
            return table

        return int, shift, apply, times

    if 2 * (p - 1) >= 256:
        # p >= 131 leaves only m = 2 below 2**16: t**2 = -c0 - c1*t.
        c0, c1 = modulus[0], modulus[1]

        def shift(x: int) -> int:
            a, b = x % p, x // p
            return -b * c0 % p + (a - b * c1) % p * p

        def apply(cols: list[int], x: int) -> int:
            (u1, u0), (v1, v0) = divmod(cols[0], p), divmod(cols[1], p)
            a, b = x % p, x // p
            return (a * u0 + b * v0) % p + (a * u1 + b * v1) % p * p

        def times(cols: list[int]) -> list[int]:
            return [apply(cols, x) for x in range(p * p)]

        return int, shift, apply, times

    scaled = [_scaled_digits(c, p) for c in range(p)]
    mod_p = scaled[1]
    top = 8 * (m - 1)
    low = (1 << top) - 1
    # c*t**m for each digit c: minus c times the modulus below its top.
    wrap = [
        sum((-c * a) % p << 8 * i for i, a in enumerate(modulus[:m])) for c in range(p)
    ]

    def reduce(s: int) -> int:
        return int.from_bytes(s.to_bytes(m, "little").translate(mod_p), "little")

    def scale(c: int, x: int) -> bytes:
        return x.to_bytes(m, "little").translate(scaled[c])

    def vector(x: int) -> int:
        return sum(x // p**i % p << 8 * i for i in range(m))

    def shift(x: int) -> int:
        return reduce(((x & low) << 8) + wrap[x >> top])

    def apply(cols: list[int], x: int) -> int:
        # m terms of digits below p: q <= 2**16 keeps every slot under 256.
        acc = 0
        for c, col in zip(x.to_bytes(m, "little"), cols):
            if c:
                acc += int.from_bytes(scale(c, col), "little")
        return reduce(acc)

    def times(cols: list[int]) -> list[int]:
        table = bytes(m)
        for col in cols:
            count = len(table) // m
            base = int.from_bytes(table, "little")
            blocks = [table]
            for c in range(1, p):
                block = base + int.from_bytes(scale(c, col) * count, "little")
                blocks.append(block.to_bytes(len(table), "little").translate(mod_p))
            table = b"".join(blocks)
        return _indices(table, p, m)

    return vector, shift, apply, times


def _scaled_digits(c: int, p: int) -> bytes:
    """The bytes.translate table taking every byte value v to c*v mod p."""
    return (bytes(c * v % p for v in range(p)) * (256 // p + 1))[:256]


def _indices(table: bytes, p: int, m: int) -> list[int]:
    """The indices of the m-byte digit strings that make up table.

    Digit plane i, placed in 16-bit lanes (every index is below 2**16),
    is weighted by p**i, so one big-int sum gives every index at once.
    """
    count = len(table) // m
    lanes = bytearray(2 * count)
    acc = 0
    for i in range(m):
        lanes[0::2] = table[i::m]
        acc += p**i * int.from_bytes(lanes, "little")
    out = array("H", acc.to_bytes(2 * count, "little"))
    if sys.byteorder == "big":
        out.byteswap()
    return out.tolist()
