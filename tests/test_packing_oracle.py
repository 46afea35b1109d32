"""gf.Packing against a from-scratch base-p digit reference.

An index is read as its m base-p digits, least significant first, and
a vector of count indices is laid out with digit b of entry r in slot
m*r + b.  A slot is one bit for p = 2 (sums are XOR).  For odd p it is
one byte when terms * (p - 1), the largest plain sum of terms digits,
is below 256, and otherwise the narrowest width holding that sum.
Scaling goes through FieldElement multiplication and sums are
taken digit by digit mod p, so the reference shares no code with the
exp/log scaling or the slot arithmetic it checks.
"""

import random

import pytest

from rsperm import Field
from rsperm.gf import Packing

# GF(243) has byte slots for up to 127 terms; GF(257) has none, so every
# packing of it reduces slot by slot.  GF(127) has byte slots for 2 terms
# and none for 7, so a prime field is scaled both ways.
ORDERS = (2, 3, 4, 5, 7, 8, 9, 13, 16, 25, 27, 49, 127, 243, 257)


def digits(field, x):
    return [x // field.p**b % field.p for b in range(field.m)]


def from_digits(field, ds):
    return sum(d * field.p**b for b, d in enumerate(ds))


def ref_width(field, terms):
    if field.p == 2:
        return 1
    widest_sum = terms * (field.p - 1)
    return 8 if widest_sum < 256 else len(bin(widest_sum)) - 2


def ref_pack(field, terms, vector):
    w, m = ref_width(field, terms), field.m
    return sum(
        d << (w * (m * r + b))
        for r, x in enumerate(vector)
        for b, d in enumerate(digits(field, x))
    )


def ref_scale(field, g, vector):
    return [(field.from_index(g) * field.from_index(x)).index for x in vector]


def ref_sum(field, vectors):
    """Digit-by-digit sum mod p of equal-length index vectors."""
    out = []
    for entries in zip(*vectors):
        ds = [sum(col) % field.p for col in zip(*(digits(field, x) for x in entries))]
        out.append(from_digits(field, ds))
    return out


def widest(field, count):
    """The vector whose every digit is p - 1: index q - 1 in every entry."""
    return [field.q - 1] * count


def stripped(vector):
    """The vector as a tuple, its trailing zero entries dropped."""
    out = list(vector)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def random_vector(field, count, rng):
    return [rng.randrange(field.q) for _ in range(count)]


def special_scales(field):
    """The zero index, 1 and -1."""
    return (0, 1, (-field.one).index)


@pytest.fixture(params=ORDERS, ids=lambda q: f"GF{q}")
def field(request):
    return Field(request.param)


@pytest.mark.parametrize("terms", (1, 2, 3, 7))
def test_pack_matches_the_reference_layout(field, terms):
    rng = random.Random(field.q * 100 + terms)
    for count in (1, 2, 5):
        packing = Packing(field, count, terms)
        for vector in [widest(field, count), [0] * count] + [
            random_vector(field, count, rng) for _ in range(20)
        ]:
            assert packing.pack(vector) == ref_pack(field, terms, vector)


def test_scaled_pack_is_field_multiplication(field):
    rng = random.Random(field.q)
    count = 4
    packing = Packing(field, count, 3)
    vectors = [widest(field, count), [0] * count, list(range(min(count, field.q)))]
    vectors += [random_vector(field, count, rng) for _ in range(5)]
    for g in range(field.q):
        for vector in vectors:
            want = ref_pack(field, 3, ref_scale(field, g, vector))
            assert packing.pack(vector, g) == want, (g, vector)


@pytest.mark.parametrize("terms", (2, 7))
def test_scaler_packs_every_vector_times_every_element(field, terms):
    """scaler(vectors)(g) is every vector times g, packed, for each g
    (zero packs to zero), on many vectors with a zero and a widest one
    among them, and on a single vector."""
    rng = random.Random(field.q * 43 + terms)
    for count in (1, 4):
        packing = Packing(field, count, terms)
        vectors = [[0] * count, widest(field, count)]
        vectors += [random_vector(field, count, rng) for _ in range(8)]
        for chosen in (vectors, vectors[-1:]):
            scaled = packing.scaler(chosen)
            for g in range(field.q):
                want = [ref_pack(field, terms, ref_scale(field, g, v)) for v in chosen]
                assert scaled(g) == want, (count, g)


def test_special_scales(field):
    count = min(field.q, 6)
    packing = Packing(field, count, 2)
    vector = list(range(field.q - count, field.q))
    zero, one, minus_one = special_scales(field)
    assert packing.pack(vector, zero) == 0
    assert packing.pack(vector, one) == packing.pack(vector)
    negated = [(-field.from_index(x)).index for x in vector]
    assert packing.pack(vector, minus_one) == ref_pack(field, 2, negated)


def test_unpack_inverts_pack_into_interned_elements(field):
    """decode(pack(vector)) is the vector, its trailing zeros dropped."""
    rng = random.Random(field.q + 7)
    for count in (1, 3, 8):
        packing = Packing(field, count, 4)
        for vector in [widest(field, count), [0] * count] + [
            random_vector(field, count, rng) for _ in range(20)
        ]:
            assert packing.decode(packing.pack(vector)) == stripped(vector)


@pytest.mark.parametrize("terms", (1, 2, 3, 5, 8))
def test_key_of_a_full_sum_of_widest_vectors(field, terms):
    """terms vectors whose digits are all p - 1: every slot at its widest sum."""
    count = 3
    packing = Packing(field, count, terms)
    packed = [packing.pack(widest(field, count))]
    key = packing.key([0] * terms, [(i, packed) for i in range(terms)])
    want = ref_sum(field, [widest(field, count)] * terms)
    assert key == ref_pack(field, terms, want)
    assert packing.decode(key) == stripped(want)


@pytest.mark.parametrize("terms", (1, 2, 3, 6))
def test_key_of_scaled_sums(field, terms):
    """key(choice, terms) over lists and memo dicts of scaled packed vectors."""
    rng = random.Random(field.q * 31 + terms)
    count = 4
    packing = Packing(field, count, terms)
    for _ in range(30):
        pool = [random_vector(field, count, rng) for _ in range(5)]
        pool.append(widest(field, count))
        scales = [rng.choice(special_scales(field) + (rng.randrange(field.q),))
                  for _ in range(terms)]
        # Term i sums the scales[i]-multiple of pool[choice[i]]; even terms
        # keep their packed vectors in a list, odd ones in a dict.
        table = []
        for i, g in enumerate(scales):
            packed = [packing.pack(v, g) for v in pool]
            table.append((i, packed if i % 2 == 0 else dict(enumerate(packed))))
        choice = [rng.randrange(len(pool)) for _ in range(terms)]
        want = ref_sum(
            field, [ref_scale(field, g, pool[c]) for g, c in zip(scales, choice)]
        )
        key = packing.key(choice, table)
        assert key == ref_pack(field, terms, want)
        assert packing.decode(key) == stripped(want)


@pytest.mark.parametrize("terms", (1, 3, 6))
def test_keys_add_each_last_vector_to_one_sum(field, terms):
    """keys(choice, terms, last) is the reduced sum plus each vector of last."""
    rng = random.Random(field.q * 17 + terms)
    count = 4
    packing = Packing(field, count, terms)
    minus_one = (-field.one).index
    for _ in range(10):
        pool = [random_vector(field, count, rng) for _ in range(4)] + [widest(field, count)]
        scales = [rng.choice((1, minus_one, rng.randrange(field.q))) for _ in range(terms)]
        # The first terms - 1 terms are summed once; the last one is `last`.
        table = [(i, [packing.pack(v, g) for v in pool]) for i, g in enumerate(scales)]
        choice = [rng.randrange(len(pool)) for _ in range(terms - 1)]
        got = packing.keys(choice, table[:-1], table[-1][1])
        assert len(got) == len(pool)
        for x, key in enumerate(got):
            vectors = [ref_scale(field, g, pool[c]) for g, c in zip(scales, choice + [x])]
            want = ref_sum(field, vectors)
            assert key == ref_pack(field, terms, want)
            assert key == packing.key(choice + [x], table)


def test_equal_sums_have_equal_keys(field):
    """x + (-x) + y and y, summed with three terms, are the same key."""
    rng = random.Random(field.q * 5)
    count = 5
    packing = Packing(field, count, 3)
    minus_one = (-field.one).index
    for _ in range(20):
        x, y = random_vector(field, count, rng), random_vector(field, count, rng)
        terms = [(0, [packing.pack(x)]), (1, [packing.pack(x, minus_one)]),
                 (2, [packing.pack(y)])]
        assert packing.key([0, 0, 0], terms) == packing.key([0], [(0, [packing.pack(y)])])


@pytest.mark.parametrize("terms", (15, 16), ids=("bytes", "slot-loop"))
def test_gf17_on_each_side_of_the_byte_cutover(terms):
    """15 * 16 = 240 fits a byte slot and 16 * 16 = 256 does not."""
    field = Field(17)
    rng = random.Random(terms)
    count = 6
    packing = Packing(field, count, terms)
    full = [(i, [packing.pack(widest(field, count))]) for i in range(terms)]
    want = ref_sum(field, [widest(field, count)] * terms)
    assert packing.key([0] * terms, full) == ref_pack(field, terms, want)
    vectors = [widest(field, count)] * terms
    vectors[1:3] = [random_vector(field, count, rng) for _ in range(2)]
    minus_one = (-field.one).index
    scales = [rng.choice((1, minus_one, rng.randrange(field.q))) for _ in vectors]
    table = [(i, [packing.pack(v, g)]) for i, (v, g) in enumerate(zip(vectors, scales))]
    for i, (v, g) in enumerate(zip(vectors, scales)):
        assert table[i][1][0] == ref_pack(field, terms, ref_scale(field, g, v))
    want = ref_sum(field, [ref_scale(field, g, v) for v, g in zip(vectors, scales)])
    key = packing.key([0] * terms, table)
    assert key == ref_pack(field, terms, want)
    assert packing.decode(key) == stripped(want)


def trailing_zeros(field, count, rng):
    """Vectors of count entries whose last entries are zero, down to a
    lone nonzero first entry."""
    out = []
    for zeros in range(1, count):
        vector = random_vector(field, count - zeros, rng) + [0] * zeros
        vector[count - zeros - 1] = rng.randrange(1, field.q)
        out.append(vector)
    return out


def check_decode(field, count, terms, rng):
    """decode(key) of a reference key is its vector stripped, on the
    zero key, widest vectors, vectors ending in zeros and random ones."""
    packing = Packing(field, count, terms)
    assert packing.decode(0) == ()
    vectors = [widest(field, count), [0] * count] + trailing_zeros(field, count, rng)
    vectors += [random_vector(field, count, rng) for _ in range(20)]
    for vector in vectors:
        key = ref_pack(field, terms, vector)
        assert packing.decode(key) == stripped(vector), (count, terms, vector)
        assert type(packing.decode(key)) is tuple


@pytest.mark.parametrize("terms", (1, 4, 200))
def test_decode_is_the_stripped_vector(field, terms):
    """terms = 200 makes every odd-p slot wider than a byte."""
    rng = random.Random(field.q * 11 + terms)
    for count in (1, 2, 3, 7, 8):
        check_decode(field, count, terms, rng)


@pytest.mark.parametrize("q", (289, 729))
def test_decode_of_byte_slots_holding_indices_past_a_byte(q):
    """GF(17^2) and GF(3^6) have byte slots, with indices of two bytes."""
    field = Field(q)
    check_decode(field, 7, 7, random.Random(q))


@pytest.mark.parametrize("terms", (15, 16), ids=("bytes", "slot-loop"))
def test_gf17_decode_on_each_side_of_the_byte_cutover(terms):
    field = Field(17)
    assert ref_width(field, terms) == (8 if terms == 15 else 9)
    check_decode(field, 6, terms, random.Random(terms + 17))
