"""Field arithmetic and the one-time tag family."""
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from ussim import hashing
from ussim._bitops import octets, packed_dtype
from ussim.hashing import find_irreducible, tags_of_arrays

# Smallest-encoding irreducible polynomial per degree, frozen after
# cross-checking against trial division below.
KNOWN_MODULI = {1: 0b11, 2: 0b111, 8: 0x11B, 16: 0x1002B}


def test_find_irreducible_frozen_witnesses():
    for degree, poly in KNOWN_MODULI.items():
        assert find_irreducible(degree) == poly


def test_find_irreducible_matches_trial_division():
    for degree in range(1, 11):
        poly = find_irreducible(degree)
        assert poly.bit_length() - 1 == degree
        assert reference.is_irreducible_by_trial_division(poly)
        # nothing smaller with a nonzero constant term qualifies
        for candidate in range((1 << degree) | 1, poly, 2):
            assert not reference.is_irreducible_by_trial_division(candidate)


def test_find_irreducible_16_is_minimal():
    poly = find_irreducible(16)
    assert reference.is_irreducible_by_trial_division(poly)
    for candidate in range((1 << 16) | 1, poly, 2):
        assert not reference.is_irreducible_by_trial_division(candidate)


def test_is_irreducible_matches_trial_division_below_2_11():
    for f in range(1 << 11):
        assert hashing._is_irreducible(f) == reference.is_irreducible_by_trial_division(f), f


def test_find_irreducible_moduli_pinned():
    # a faster search must find the same moduli, or every tag and digest moves
    moduli = repr([find_irreducible(a) for a in range(1, 129)]).encode()
    assert hashlib.sha256(moduli).hexdigest() == (
        "ba2f79cb8d9a8a554fa0e2aa1af8d58c3eaa3b37caba67ca2e8fe9b2124c637f"
    )
    for a, low in ((256, 0x425), (512, 0x125), (1024, 0x2CD)):
        assert find_irreducible(a) == (1 << a) | low


def test_find_irreducible_validation():
    for bad in (0, -1, 4097, 2.0, True):
        with pytest.raises(ValueError, match="msg_len_bits"):
            find_irreducible(bad)


def field_product(x: int, y: int, a: int) -> int:
    """x * y in GF(2^a), read off tags_of_arrays as a full-width tag with a zero offset."""
    return int(tags_of_arrays(reference.packed([x], a), np.array([0]), y, a, a)[0])


@given(
    st.integers(min_value=0, max_value=255),
    st.integers(min_value=0, max_value=255),
)
def test_gf_mul_matches_reference_width8(x, y):
    assert field_product(x, y, 8) == reference.field_mul(x, y, KNOWN_MODULI[8])


@given(
    st.integers(min_value=0, max_value=2**16 - 1),
    st.integers(min_value=0, max_value=2**16 - 1),
    st.integers(min_value=0, max_value=2**16 - 1),
)
@settings(max_examples=60)
def test_gf_mul_ring_axioms_width16(x, y, z):
    # the multiplier and the message take different routes through
    # tags_of_arrays, so commutativity is not automatic
    def mul(u, v):
        return field_product(u, v, 16)

    assert mul(x, y) == mul(y, x)
    assert mul(mul(x, y), z) == mul(x, mul(y, z))
    assert mul(x, y ^ z) == mul(x, y) ^ mul(x, z)
    assert mul(x, 1) == x


def test_gf_mul_rejects_oversized_operands():
    # the message is the one scalar operand, and it is width-checked
    with pytest.raises(ValueError, match="message"):
        field_product(1, 256, 8)
    with pytest.raises(ValueError, match="message"):
        field_product(1, -1, 8)


def test_make_tag_offset_is_xor_linear():
    offsets = np.arange(16)
    tags = tags_of_arrays(np.full(16, 0x53), offsets, 0x9C, 8, 4)
    assert [int(v) for v in tags] == [int(tags[0]) ^ o for o in range(16)]


def test_make_tag_is_low_bits_of_product():
    tag = tags_of_arrays(np.array([0xA7]), np.array([0b101]), 0x3D, 8, 3)[0]
    assert int(tag) == (reference.field_mul(0xA7, 0x3D, KNOWN_MODULI[8]) & 0b111) ^ 0b101


def test_make_tag_validation():
    one, zero = np.array([1]), np.array([0])
    with pytest.raises(ValueError, match="tag_len_bits"):
        tags_of_arrays(one, zero, 1, 8, 9)
    with pytest.raises(ValueError, match="tag_len_bits"):
        tags_of_arrays(one, zero, 1, 8, 0)
    with pytest.raises(ValueError, match="message"):
        tags_of_arrays(one, zero, 256, 8, 4)


def test_tags_of_arrays_states_the_message_range_of_check_message():
    one = np.array([1], dtype=np.uint8)
    for message in (256, -1):
        with pytest.raises(ValueError) as tagged:
            tags_of_arrays(one, one, message, 8, 4)
        with pytest.raises(ValueError) as checked:
            hashing.check_message(message, 8)
        assert str(tagged.value) == str(checked.value) == "message must be in [0, 2**8)"


@pytest.mark.parametrize("t", [1, 8, 9, 32, 64, 65, 100, 255])
def test_message_tables_are_packed_values_at_every_tag_width(t):
    # one layout: a row of 256 packed_dtype(t) values per multiplier byte,
    # the first holding the low t bits of v * message
    a, message = 255, 0x5C
    tables = hashing._message_tables(message, a, t)
    assert tables.shape == (32, 256)
    assert tables.dtype == packed_dtype(t)
    modulus = find_irreducible(a)
    want = [reference.make_tag(v, 0, message, modulus, t) for v in (0, 1, 2, 0x80, 0xFF)]
    assert reference.row_ints(tables[0, [0, 1, 2, 0x80, 0xFF]]) == want


@pytest.mark.parametrize("offsets", [np.ones(4, dtype=np.int64), np.zeros(4, dtype="V8")])
def test_wide_tags_refuse_offsets_of_another_dtype(offsets):
    # past 64 bits a cast would reinterpret an offset's bytes: an int64 1 would
    # XOR in as 2**96 at t=100
    mults = reference.packed([1, 2, 3, 4], 130)
    with pytest.raises(ValueError, match="offsets"):
        tags_of_arrays(mults, offsets, 5, 130, 100)


@given(st.data())
@settings(max_examples=40)
def test_tags_of_arrays_matches_make_tag(data):
    a = data.draw(st.sampled_from((3, 8, 16)))
    t = data.draw(st.integers(min_value=1, max_value=a))
    message = data.draw(st.integers(min_value=0, max_value=(1 << a) - 1))
    n = data.draw(st.integers(min_value=1, max_value=20))
    mults = data.draw(
        st.lists(st.integers(0, (1 << a) - 1), min_size=n, max_size=n)
    )
    offs = data.draw(
        st.lists(st.integers(0, (1 << t) - 1), min_size=n, max_size=n)
    )
    got = tags_of_arrays(np.array(mults), np.array(offs), message, a, t)
    modulus = find_irreducible(a)
    want = [reference.make_tag(m, o, message, modulus, t) for m, o in zip(mults, offs)]
    assert [int(v) for v in got] == want


@pytest.mark.parametrize("python_ints", ["multipliers", "offsets"])
def test_tags_of_arrays_rejects_python_int_arrays(python_ints):
    # only packed arrays are tagged: an object array fails before any table is built
    a, t, message = 80, 72, (1 << 77) | 0x1F
    mults, offs = reference.packed([(1 << 79) | 5, 3], a), reference.packed([1, 2], t)
    if python_ints == "multipliers":
        mults = np.array([(1 << 79) | 5, 3], dtype=object)
    else:
        offs = np.array([1, 2], dtype=object)
    before = hashing._message_tables.cache_info()
    with pytest.raises(ValueError, match="multipliers and offsets must be packed"):
        tags_of_arrays(mults, offs, message, a, t)
    assert hashing._message_tables.cache_info() == before


@pytest.mark.parametrize("a", [65, 72, 128, 200])
@pytest.mark.parametrize("t", [1, 32, 64])
def test_tags_of_arrays_wide_field_uint64_tags(a, t):
    # a wide field with tags that fit in 64 bits: void-row multipliers,
    # packed_dtype(t) tags, checked against schoolbook field multiplication
    rng = np.random.default_rng(a * 100 + t)

    def rand(bits):
        return int.from_bytes(rng.bytes((bits + 7) // 8), "big") % (1 << bits)

    mults = [rand(a) for _ in range(16)] + [0, 1, (1 << a) - 1, 1 << (a - 1), 1 << 64]
    offs = [rand(t) for _ in mults]
    message = rand(a) | (1 << (a - 1))
    got = tags_of_arrays(reference.packed(mults, a), reference.packed(offs, t), message, a, t)
    assert got.dtype == packed_dtype(t)
    modulus = find_irreducible(a)
    want = [reference.make_tag(m, o, message, modulus, t) for m, o in zip(mults, offs)]
    assert [int(v) for v in got] == want



def _random_ints(rng, count, bits):
    return [int.from_bytes(rng.bytes((bits + 7) // 8), "big") % (1 << bits) for _ in range(count)]


@pytest.mark.parametrize("a", [1, 7, 8, 9, 63, 64, 65, 72, 127, 128, 129, 200])
def test_tags_of_arrays_every_byte_boundary(a):
    # widths on both sides of each byte and limb edge, tags from 1 bit to a
    rng = np.random.default_rng(a)
    modulus = find_irreducible(a)
    mults = _random_ints(rng, 24, a) + [0, 1, (1 << a) - 1, 1 << (a - 1)]
    message = _random_ints(rng, 1, a)[0] | (1 << (a - 1))
    for t in sorted({1, min(a, 8), min(a, 64), a}):
        offs = _random_ints(rng, len(mults), t)
        got = tags_of_arrays(reference.packed(mults, a), reference.packed(offs, t), message, a, t)
        assert got.dtype == packed_dtype(t)
        want = [reference.make_tag(m, o, message, modulus, t) for m, o in zip(mults, offs)]
        assert reference.row_ints(got) == want, (a, t)


@pytest.mark.parametrize("a", [7, 8, 9, 63, 64, 65, 128])
def test_tags_of_arrays_multiplier_dtypes_agree(a):
    # the same values as uint64, int64 and big-endian uint64
    rng = np.random.default_rng(1000 + a)
    width = min(a, 63)
    mults = _random_ints(rng, 32, width) + [0, 1, (1 << width) - 1]
    t = min(a, 8)
    offs = _random_ints(rng, len(mults), t)
    message = _random_ints(rng, 1, a)[0]
    modulus = find_irreducible(a)
    want = [reference.make_tag(m, o, message, modulus, t) for m, o in zip(mults, offs)]
    for dtype in (np.uint64, np.int64, ">u8"):
        got = tags_of_arrays(np.array(mults, dtype=dtype), np.array(offs, dtype=np.uint64),
                             message, a, t)
        assert got.dtype == packed_dtype(t)
        assert reference.row_ints(got) == want, dtype


@pytest.mark.parametrize("a, t", [(5, 3), (8, 8), (12, 9), (16, 16), (24, 17), (40, 32)])
def test_tags_of_arrays_wide_inputs_give_narrow_tags(a, t):
    # multipliers and offsets as uint64, int64 or big-endian uint64 give
    # the same tags, at packed_dtype(t), as inputs at their own widths
    rng = np.random.default_rng(2000 + 97 * a + t)
    mults = _random_ints(rng, 20, a) + [0, (1 << a) - 1]
    offs = _random_ints(rng, len(mults), t)
    message = _random_ints(rng, 1, a)[0]
    modulus = find_irreducible(a)
    want = [reference.make_tag(m, o, message, modulus, t) for m, o in zip(mults, offs)]
    narrow = tags_of_arrays(np.array(mults, dtype=packed_dtype(a)),
                            np.array(offs, dtype=packed_dtype(t)), message, a, t)
    assert narrow.dtype == packed_dtype(t)
    assert reference.row_ints(narrow) == want
    for dtype in (np.uint64, np.int64, ">u8"):
        got = tags_of_arrays(np.array(mults, dtype=dtype), np.array(offs, dtype=dtype),
                             message, a, t)
        assert got.dtype == packed_dtype(t)
        assert reference.row_ints(got) == want, dtype


@pytest.mark.parametrize("a, t", [(8, 8), (64, 32), (128, 32), (130, 100)])
def test_tags_of_arrays_keeps_2d_shape(a, t):
    rng = np.random.default_rng(a + t)
    mults = reference.packed(_random_ints(rng, 12, a), a)
    offs = reference.packed(_random_ints(rng, 12, t), t)
    message = _random_ints(rng, 1, a)[0]
    flat = tags_of_arrays(mults, offs, message, a, t)
    grid = tags_of_arrays(mults.reshape(3, 4), offs.reshape(3, 4), message, a, t)
    assert grid.shape == (3, 4)
    assert reference.row_ints(grid) == reference.row_ints(flat)


@pytest.mark.parametrize("a, t", [(5, 5), (8, 8), (9, 4), (63, 32), (72, 72), (130, 100)])
def test_tags_of_arrays_ignores_multiplier_bits_above_a(a, t):
    rng = np.random.default_rng(7 * a + t)
    mults = _random_ints(rng, 16, a)
    high = [m | (_random_ints(rng, 1, 64)[0] << a) for m in mults]
    offs = reference.packed(_random_ints(rng, 16, t), t)
    message = _random_ints(rng, 1, a)[0]
    want = tags_of_arrays(reference.packed(mults, a), offs, message, a, t)
    got = tags_of_arrays(reference.packed(high, a + 64), offs, message, a, t)
    assert reference.row_ints(got) == reference.row_ints(want)
    if a < 64:
        # fixed-width input: the bits between a and 64 are dropped too
        word = np.array([h & ((1 << 64) - 1) for h in high], dtype=np.uint64)
        got = tags_of_arrays(word, offs, message, a, t)
        assert reference.row_ints(got) == reference.row_ints(want)


@pytest.mark.parametrize("a", [65, 72, 128, 129, 200])
@pytest.mark.parametrize("t", [1, 32, 64, 255])
def test_tags_of_arrays_void_rows_match_python_ints(a, t):
    # the packed form the protocol carries gives the tags of the same values
    # as Python ints under make_tag; bits above a, up to a whole extra byte, are ignored
    t = min(a, t)
    rng = np.random.default_rng(3000 + 7 * a + t)
    n_bytes = (a + 7) // 8
    mults = _random_ints(rng, 24, a) + [0, 1, (1 << a) - 1, 1 << (a - 1)]
    offs = _random_ints(rng, len(mults), t)
    message = _random_ints(rng, 1, a)[0] | (1 << (a - 1))
    modulus = find_irreducible(a)
    want = [reference.make_tag(m, o, message, modulus, t) for m, o in zip(mults, offs)]
    junk = [m | (_random_ints(rng, 1, 8 * n_bytes + 8 - a)[0] << a) for m in mults]
    for rows in (reference.void_rows(mults, n_bytes), reference.void_rows(junk, n_bytes + 1)):
        got = tags_of_arrays(rows, reference.packed(offs, t), message, a, t)
        assert got.dtype == packed_dtype(t)
        assert reference.row_ints(got) == want


@pytest.mark.parametrize("a, t", [(8, 8), (72, 16), (128, 100)])
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_message_table_cache_gives_the_tags_of_a_fresh_build(a, t, data):
    # more distinct messages than the cache holds, revisited in any order,
    # tag exactly as they do when each call builds its tables afresh
    cache = hashing._message_tables
    size = cache.cache_info().maxsize
    messages = data.draw(st.lists(st.integers(0, (1 << a) - 1), min_size=size + 1,
                                  max_size=2 * size + 1, unique=True))
    order = data.draw(st.lists(st.sampled_from(messages), min_size=2 * len(messages),
                               max_size=4 * len(messages)))
    rng = np.random.default_rng(a + t)
    mults = reference.packed(_random_ints(rng, 20, a), a)
    offs = reference.packed(_random_ints(rng, 20, t), t)
    want = {}
    for m in messages:
        cache.cache_clear()
        want[m] = tags_of_arrays(mults, offs, m, a, t)
    cache.cache_clear()
    for m in order:
        tags = tags_of_arrays(mults, offs, m, a, t)
        assert np.array_equal(tags, want[m])
        assert cache.cache_info().currsize <= size
        tables = cache(m, a, t)
        assert not tables.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            tables[0, 1] = tables[0, 2]
        assert tags.flags.writeable and not np.shares_memory(tags, tables)
        octets(tags)[:] ^= 0xFF  # scribbling on the tags leaves the cache as it was
    for m in messages:
        assert np.array_equal(tags_of_arrays(mults, offs, m, a, t), want[m])
