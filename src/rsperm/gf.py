"""Exact arithmetic in finite fields F_p and GF(p^m), q = p**m <= 2**16.

An element of GF(p^m), a polynomial in the generator t reduced modulo a
monic irreducible polynomial of degree m, is stored as its index
sum(c_i * p**i) over its ascending coefficients.

- Field: one object per live field, its O(q) tables on indices
  (Field.tables, built by _primitive_powers) and its element literals
  and term strings (_Terms).
- IndexOps: the one kernel for scalars, on indices; FieldElement
  operators wrap it behind _ops, the operand check Polynomial shares.
- Packing: the one kernel for vectors of indices, packed into ints with
  one slot per base-p digit (Packing: pack, scaler, decode, read).
- _Frozen and _filled: the one base and the one bulk constructor of
  rsperm's value classes.
"""

from __future__ import annotations

import operator
import struct
from collections import OrderedDict, deque
from collections.abc import Callable, Iterable, Sequence
from functools import cache, cached_property
from itertools import product, repeat
from weakref import WeakValueDictionary

MAX_FIELD_SIZE = 1 << 16

# How many of the most recently used fields the registry keeps alive.  Built
# tables take O(q) memory, about 10.8 MB for a field near 2**16 and 0.15 MB
# for GF(1024), so the registry keeps at most about 86 MB of them alive.
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


# -- polynomial helpers over F_p: modulus validation, and the one zero strip

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
    # Index order on the lower coefficients: product() counts with its
    # last place fastest, so each tuple is read reversed.
    for digits in product(range(p), repeat=d):
        yield [*reversed(digits), 1]


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
    """First irreducible monic polynomial of degree m, in index order on
    the lower coefficients."""
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
    """An element of GF(p^m), stored as its index in the field enumeration:
    the field's one object for that index (Field.tables), which pickle
    and copy give back."""

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
        return self.field.literals[self.index]

    def __repr__(self) -> str:
        return f"FieldElement({self.field!r}, {self})"


class _Terms(dict):
    """Index c -> a string of the element c, stored when first read.
    Field.literals holds c's literal: decimal for m == 1, [c0,...,c_{m-1}]
    else.  Row i of Field.term_rows holds the term c*x^i: "" for c = 0,
    which a writer drops by filter(None, ...), the literal for i == 0, x^i
    (x for i == 1) for c = 1 and literal*x^i otherwise."""

    __slots__ = ("p", "m", "literals", "power")

    def __init__(self, p: int, m: int, literals: "_Terms | None" = None, i: int = 0):
        self.p, self.m, self.literals = p, m, literals
        self.power = "" if not i else "x" if i == 1 else f"x^{i}"

    def __missing__(self, c: int) -> str:
        p, power, literals = self.p, self.power, self.literals
        if literals is None:
            digits = (str(c // p**b % p) for b in range(self.m))
            term = str(c) if self.m == 1 else "[" + ",".join(digits) + "]"
        elif c and power:
            term = power if c == 1 else f"{literals[c]}*{power}"
        else:
            term = literals[c] if c else ""
        self[c] = term
        return term


class Field:
    """GF(p^m) for a prime p, with q = p**m <= 2**16.

    The modulus is monic irreducible of degree m, ascending coefficients,
    given as any iterable of ints; prime fields take none, and an
    extension field given none takes default_modulus(p, m).  A q or a
    coefficient that is not an int raises TypeError; a q that is not a
    prime power up to 2**16, or a modulus that is not monic, irreducible
    and of degree m, raises ValueError.

    A process holds one Field per live field: Field(q, modulus) returns
    the field already made for q and the checked modulus, and so do
    pickle and copy.  The registry keeps the KEPT_FIELDS most recently
    used fields alive.
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
        """Parse an element literal: decimal for m == 1, [c0,...,c_{m-1}] else.
        m one-digit coefficients below p, as str writes them for p <= 10,
        are read last first by one int() in base p; others one by one."""
        s = literal.strip()
        if s.startswith("["):
            # m digits at the odd places leave the even ones to m - 1 commas.
            digits, m, p = s[-2:0:-2], self.m, self.p
            if p <= 10 and len(s) == 2 * m + 1 and s.count(",") == m - 1 and s[-1] == "]":
                if not digits.strip("0123456789"[:p]):
                    return self.ops.elements[int(digits, p)]
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
    def literals(self) -> _Terms:
        """The literal of each element index, made on its first read."""
        return _Terms(self.p, self.m)

    def term_rows(self, n: int) -> list[_Terms]:
        """At least n rows of terms (_Terms), made on demand; a list handed out never changes."""
        rows = self.__dict__.get("_term_rows", [])
        if len(rows) < n:
            new = range(len(rows), n)
            self._term_rows = rows = rows + [_Terms(self.p, self.m, self.literals, i) for i in new]
        return rows

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
        field makes: every operator and accessor returns them.
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
    def byte_digits(self) -> list[bytes]:
        """The m base-p digits of each index, least significant first, as
        bytes: packed vectors with one byte per digit (Packing)."""
        # product() counts with its last place fastest, the reverse of
        # index order.
        return [bytes(ds[::-1]) for ds in product(range(self.p), repeat=self.m)]

    @cached_property
    def times_digits(self) -> list[bytes]:
        """_scaled_digits(c, p) for each digit c, made on first use: the one
        cache of byte translate tables.  Only byte slots read it, and each
        slot rsperm makes sums at least two digits, so p <= 127 and it
        holds at most 127 tables of 256 bytes."""
        p = self.p
        return [_scaled_digits(c, p) for c in range(p)]


class IndexOps:
    """Arithmetic of one field on element indices, from Field.tables.

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
    """Vectors of `count` indices packed into ints, entry r at bit
    stride * r, and summed up to `terms` at a time.

    An entry holds the m base-p digits of its index, digit b in the w-bit
    slot at bit w * b.  For p = 2 a slot is one bit, so an entry is its
    index; it starts on a whole byte, stride = 8 * ceil(m / 8), and
    vectors add by XOR.  For odd p, stride = w * m and a slot holds the
    plain sum of `terms` digits, at most terms * (p - 1), so nothing
    carries into the next slot; vectors add with + and each slot of the
    sum is then reduced mod p.  The slot is one byte when terms * (p - 1)
    < 256, the whole sum then reduced by one bytes.translate through
    Field.times_digits[1]; otherwise it is the narrowest width holding
    terms * (p - 1), reduced slot by slot.

    key(choice, terms) is that reduced sum of packed[choice[i]] over the
    (i, packed) pairs, packed being a list or a memo dict; equal vectors
    have equal keys, and read(choice, terms) is the sum's indices.
    keys(choice, terms, last) are the keys of that sum plus each packed
    vector in last, the sum taken once.
    """

    def __init__(self, field: Field, count: int, terms: int):
        p, m = field.p, field.m
        self.field, self.count = field, count
        if p == 2:
            self.width, self.stride = 1, (m + 7) // 8 * 8
            self.key, self.keys, read = _xor_keys(count)
        elif terms * (p - 1) < 256:
            self.width, self.stride = 8, 8 * m
            self.key, self.keys, read = _translated_keys(m * count, field.times_digits[1])
        else:
            self.width = w = (terms * (p - 1)).bit_length()
            self.stride = w * m
            self.key, self.keys = _slot_keys(p, range(0, w * m * count, w), (1 << w) - 1)
        if self.stride == 8:
            self.read = read

    def pack(self, indices: Iterable[int]) -> int:
        """The indices packed as they are, however many there are."""
        p, m, w, stride = self.field.p, self.field.m, self.width, self.stride
        if w == 8:
            digits = self.field.byte_digits
            return int.from_bytes(b"".join([digits[x] for x in indices]), "little")
        if p == 2:
            return sum(x << stride * r for r, x in enumerate(indices))
        return sum(
            x // p**b % p << (stride * r + w * b)
            for r, x in enumerate(indices)
            for b in range(m)
        )

    def scaler(self, vectors: Sequence[Sequence[int]]) -> Callable[[int], list[int]]:
        """The function g -> [pack(g * v) for v in vectors], for vectors of
        `count` indices, at a fixed number of whole-int operations per g:
        the one way to a packed vector times an element.

        The vectors are laid out end to end as one packed int, scaled by g
        at once and cut back into one int per vector.  For p = 2, bit
        plane b (bit b of every entry, at the entry's lowest bit) times
        the index of g * 2**b puts that element's m bits in the entry: a
        plane holds 0 or 1 per entry and the index is below 2**m, so
        nothing carries from one entry into the next, and the XOR of the
        m products is g times every entry.  A prime field with byte slots
        lays the entries out once, a byte each, and scales them by one
        translate through Field.times_digits[g].  Other packings scale
        the entries by one ops.scale and lay them out anew.
        """
        p, m, ops, stride = self.field.p, self.field.m, self.field.ops, self.stride
        flat = [x for v in vectors for x in v]
        span = stride * self.count
        mask = (1 << span) - 1
        cuts = range(0, span * len(vectors), span)
        if p == 2:
            laid = self.pack(flat)
            # One 1 at the lowest bit of every entry: the base-2**stride repunit.
            ones = ((1 << stride * len(flat)) - 1) // ((1 << stride) - 1)
            planes = [(laid >> b & ones, 1 << b) for b in range(m)]
            mul = ops.mul

            def scaled(g: int) -> list[int]:
                s = 0
                for plane, t in planes:
                    s ^= plane * mul(g, t)
                return [s >> c & mask for c in cuts]

        elif stride == 8:
            laid, tables = bytes(flat), self.field.times_digits

            def scaled(g: int) -> list[int]:
                s = int.from_bytes(laid.translate(tables[g]), "little")
                return [s >> c & mask for c in cuts]

        else:
            scale = ops.scale

            def scaled(g: int) -> list[int]:
                s = self.pack(scale(g, flat))
                return [s >> c & mask for c in cuts]

        return scaled

    @cached_property
    def decode(self) -> Callable[[int], tuple[int, ...]]:
        """key -> its indices up to the last nonzero entry, made on first
        use: the search's packings never read their keys back.  The digit
        planes, digit b of every entry moved to the entry's lowest slot,
        are read base p at once by Horner's rule (for p = 2 the entry's m
        bits are one digit): an index is below q <= 2**stride, so nothing
        carries out of its entry.  Entries of whole bytes holding indices
        below 256 are then read bytewise, others one shift and mask each.
        """
        p, m, count, size = self.field.p, self.field.m, self.count, self.stride
        w, digits = (m, 1) if p == 2 else (self.width, m)
        mask = (1 << size) - 1
        # The lowest slot of every entry, all ones.
        low = ((1 << size * count) - 1) // mask * ((1 << w) - 1)
        top, shifts = w * (digits - 1), range(w * (digits - 2), -1, -w)
        step = size // 8 if size % 8 == 0 and p**m <= 256 else 0

        def decode(key: int) -> tuple[int, ...]:
            acc = key >> top & low
            for s in shifts:
                acc = acc * p + (key >> s & low)
            if step:
                return tuple(acc.to_bytes(size // 8 * count, "little")[::step].rstrip(b"\0"))
            return tuple([acc >> s & mask for s in range(0, acc.bit_length(), size)])

        return decode

    def read(self, choice: Sequence[int], terms) -> tuple[int, ...]:
        """decode(key(choice, terms)).  Where stride is 8 a vector's bytes are
        its indices, and __init__ puts in its place a read of the sum's bytes."""
        return self.decode(self.key(choice, terms))


def _xor_keys(count: int):
    """key, keys and, for m <= 8, read for p = 2: the XOR of the terms."""

    def key(choice, terms) -> int:
        s = 0
        for i, packed in terms:
            s ^= packed[choice[i]]
        return s

    def keys(choice, terms, last) -> list[int]:
        s = key(choice, terms)
        return [s ^ x for x in last]

    def read(choice, terms) -> tuple[int, ...]:
        return tuple(key(choice, terms).to_bytes(count, "little").rstrip(b"\0"))

    return key, keys, read


def _sum(choice, terms) -> int:
    """The plain sum of packed[choice[i]] over the (i, packed) pairs (odd p)."""
    s = 0
    for i, packed in terms:
        s += packed[choice[i]]
    return s


def _translated_keys(length: int, mod_p: bytes):
    """key, keys and, for m == 1, read for byte slots, reduced through mod_p."""
    from_bytes, to_bytes = int.from_bytes, int.to_bytes

    def key(choice, terms) -> int:
        s = to_bytes(_sum(choice, terms), length, "little")
        return from_bytes(s.translate(mod_p), "little")

    def keys(choice, terms, last) -> list[int]:
        s = _sum(choice, terms)
        return [
            from_bytes(to_bytes(s + x, length, "little").translate(mod_p), "little")
            for x in last
        ]

    def read(choice, terms) -> tuple[int, ...]:
        s = to_bytes(_sum(choice, terms), length, "little")
        return tuple(s.translate(mod_p).rstrip(b"\0"))

    return key, keys, read


def _slot_keys(p: int, offsets: range, slot: int):
    """key and keys for slots wider than a byte (Packing)."""

    def reduced(s: int) -> int:
        out = 0
        for off in offsets:
            out |= (s >> off & slot) % p << off
        return out

    def key(choice, terms) -> int:
        return reduced(_sum(choice, terms))

    def keys(choice, terms, last) -> list[int]:
        s = _sum(choice, terms)
        return [reduced(s + x) for x in last]

    return key, keys


def _primitive_powers(field: Field) -> list[int]:
    """Indices of g**0, ..., g**(q-2) for the first primitive g in index order.

    g is primitive when g**((q-1)/r) != 1 for every prime r dividing q - 1.
    Everything runs on ints.  A prime field tests with pow and walks
    x -> x*g mod p.  An extension field tests on one int form, builds
    the table of x -> x*g over all q indices once, and walks it from 1.

    In that form digit i of an element sits in slot i, w bits wide, of a
    lane of 8, 16 or 32 bits.  A digit is below p <= 2**(w-1), so a sum
    of two vectors has every slot below 2**w and nothing carries; adding
    2**(w-1) - p to every slot sets a slot's top bit exactly where its
    sum is p or more, and p is taken off there, in every slot of any
    number of lanes at once.  The product of x and y is the sum of
    x_j * y*t**j over the digits x_j of x, taken one bit of the digits
    at a time from the highest.  The table has one lane per index, built
    by linearity one block of lanes at a time: the entries from c*p**j
    to (c+1)*p**j - 1 are those below p**j plus c*g*t**j.
    """
    p, m, q = field.p, field.m, field.q
    exponents = [(q - 1) // r for r in _prime_factors(q - 1)]
    if m == 1:
        g = next(g for g in range(1, q) if all(pow(g, e, q) != 1 for e in exponents))
        powers = [1]
        for _ in range(q - 2):
            powers.append(powers[-1] * g % q)
        return powers
    w = (p - 1).bit_length() + 1
    size = next(n for n in (1, 2, 4) if m * w <= 8 * n)  # bytes per lane
    ones = sum(1 << w * i for i in range(m))
    bias, tops = ((1 << w - 1) - p) * ones, ones << w - 1
    top = w * (m - 1)
    # c*t**m for each digit c: minus c times the modulus below its top.
    wrap = [sum((-c * a) % p << w * i for i, a in enumerate(field.modulus[:m])) for c in range(p)]

    def add(x: int, y: int, bias: int = bias, tops: int = tops) -> int:
        s = x + y
        return s - ((s + bias & tops) >> w - 1) * p

    def spread(x: int, count: int) -> int:
        """The one-lane int x in each of count lanes."""
        return int.from_bytes(x.to_bytes(size, "little") * count, "little")

    def vector(x: int) -> int:
        return sum(x // p**i % p << w * i for i in range(m))

    def columns(x: int) -> list[int]:
        """x * t**j for j < m: the columns of multiplication by x."""
        cols = [x]
        for _ in range(m - 1):
            x = cols[-1]
            cols.append(add((x & (1 << top) - 1) << w, wrap[x >> top]))
        return cols

    def apply(cols: list[int], x: int) -> int:
        """The sum of x_j * cols[j] over the digits x_j of x."""
        acc = 0
        for b in range(w - 2, -1, -1):
            acc = add(acc, acc)
            for j, col in enumerate(cols):
                if x >> w * j + b & 1:
                    acc = add(acc, col)
        return acc

    def primitive(g: int) -> bool:
        by_g = columns(vector(g))
        for e in exponents:
            x = by_g[0]
            for bit in bin(e)[3:]:
                x = apply(columns(x), x)
                if bit == "1":
                    x = apply(by_g, x)
            # The int form of 1 is 1.
            if x == 1:
                return False
        return True

    # The constants, indices below p, have orders dividing p - 1 < q - 1.
    g = next(g for g in range(p, q) if primitive(g))
    table, count = 0, 1
    for col in columns(vector(g)):
        step, masks = spread(col, count), (spread(bias, count), spread(tops, count))
        blocks = [table]
        for _ in range(p - 1):
            blocks.append(add(blocks[-1], step, *masks))
        laid = b"".join(b.to_bytes(size * count, "little") for b in blocks)
        table = int.from_bytes(laid, "little")
        count *= p
    # Digit plane i, moved to the bottom of every lane and weighted by p**i:
    # the planes sum to each lane's index, below q <= 2**(8 * size).
    plane = spread((1 << w) - 1, q)
    indices = sum(p**i * (table >> w * i & plane) for i in range(m))
    code = {1: "B", 2: "H", 4: "I"}[size]
    mg = struct.unpack(f"<{q}{code}", indices.to_bytes(size * q, "little"))
    powers = [1]
    for _ in range(q - 2):
        powers.append(mg[powers[-1]])
    return powers


def _scaled_digits(c: int, p: int) -> bytes:
    """The bytes.translate table taking every byte value v to c*v mod p."""
    return (bytes(c * v % p for v in range(p)) * (256 // p + 1))[:256]
