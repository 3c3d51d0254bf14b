"""Field arithmetic and the one-time tag family."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from ussim.hashing import (
    HashKey,
    KeyId,
    batch_tags,
    default_tag_len,
    find_irreducible,
    gf_mul,
    make_tag,
    tags_of_arrays,
)

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


def test_find_irreducible_validation():
    for bad in (0, -1, 4097, 2.0, True):
        with pytest.raises(ValueError, match="msg_len_bits"):
            find_irreducible(bad)


@given(
    st.integers(min_value=0, max_value=255),
    st.integers(min_value=0, max_value=255),
)
def test_gf_mul_matches_reference_width8(x, y):
    assert gf_mul(x, y, 8) == reference.field_mul(x, y, KNOWN_MODULI[8])


@given(
    st.integers(min_value=0, max_value=2**16 - 1),
    st.integers(min_value=0, max_value=2**16 - 1),
    st.integers(min_value=0, max_value=2**16 - 1),
)
@settings(max_examples=60)
def test_gf_mul_ring_axioms_width16(x, y, z):
    assert gf_mul(x, y, 16) == gf_mul(y, x, 16)
    assert gf_mul(gf_mul(x, y, 16), z, 16) == gf_mul(x, gf_mul(y, z, 16), 16)
    assert gf_mul(x, y ^ z, 16) == gf_mul(x, y, 16) ^ gf_mul(x, z, 16)
    assert gf_mul(x, 1, 16) == x


def test_gf_mul_rejects_oversized_operands():
    with pytest.raises(ValueError, match="x"):
        gf_mul(256, 1, 8)
    with pytest.raises(ValueError, match="y"):
        gf_mul(1, -1, 8)


def test_make_tag_offset_is_xor_linear():
    key = HashKey(multiplier=0x53, offset=0)
    base = make_tag(key, 0x9C, 8, 4)
    for offset in range(16):
        shifted = HashKey(multiplier=0x53, offset=offset)
        assert make_tag(shifted, 0x9C, 8, 4) == base ^ offset


def test_make_tag_is_low_bits_of_product():
    key = HashKey(multiplier=0xA7, offset=0b101)
    tag = make_tag(key, 0x3D, 8, 3)
    assert tag == (gf_mul(0xA7, 0x3D, 8) & 0b111) ^ 0b101


def test_make_tag_validation():
    with pytest.raises(ValueError, match="tag_len_bits"):
        make_tag(HashKey(1, 0), 1, 8, 9)
    with pytest.raises(ValueError, match="message"):
        make_tag(HashKey(1, 0), 256, 8, 4)
    with pytest.raises(ValueError, match="key.offset"):
        make_tag(HashKey(1, 0b1000), 1, 8, 3)


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
    want = [make_tag(HashKey(m, o), message, a, t) for m, o in zip(mults, offs)]
    assert [int(v) for v in got] == want


def test_tags_of_arrays_object_path_wide_field():
    # widths past 64 bits leave uint64 and fall back to Python ints
    a = 80
    mults = np.array([(1 << 79) | 5, 3], dtype=object)
    offs = np.array([1, (1 << 70) - 2], dtype=object)
    message = (1 << 77) | 0x1F
    got = tags_of_arrays(mults, offs, message, a, 72)
    want = [
        make_tag(HashKey(int(m), int(o)), message, a, 72)
        for m, o in zip(mults, offs)
    ]
    assert [int(v) for v in got] == want


@pytest.mark.parametrize("a", [65, 72, 128, 200])
@pytest.mark.parametrize("t", [1, 32, 64])
def test_tags_of_arrays_wide_field_uint64_tags(a, t):
    # a wide field with tags that fit in 64 bits: object multipliers,
    # uint64 tags, checked against schoolbook field multiplication
    rng = np.random.default_rng(a * 100 + t)

    def rand(bits):
        return int.from_bytes(rng.bytes((bits + 7) // 8), "big") % (1 << bits)

    mults = [rand(a) for _ in range(16)] + [0, 1, (1 << a) - 1, 1 << (a - 1), 1 << 64]
    offs = [rand(t) for _ in mults]
    message = rand(a) | (1 << (a - 1))
    got = tags_of_arrays(
        np.array(mults, dtype=object), np.array(offs, dtype=object), message, a, t
    )
    assert got.dtype == np.uint64
    modulus = find_irreducible(a)
    want = [
        (reference.field_mul(m, message, modulus) % (1 << t)) ^ o
        for m, o in zip(mults, offs)
    ]
    assert [int(v) for v in got] == want


def test_batch_tags_canonical_order_and_values():
    keys = [
        (KeyId(1, 0), HashKey(3, 1)),
        (KeyId(0, 2), HashKey(7, 0)),
        (KeyId(0, 1), HashKey(1, 1)),
    ]
    out = batch_tags(keys, 0b1010, 4, 2)
    assert [kid for kid, _ in out] == [KeyId(0, 1), KeyId(0, 2), KeyId(1, 0)]
    for kid, tag in out:
        key = dict(keys)[kid]
        assert tag == make_tag(key, 0b1010, 4, 2)


def test_batch_tags_order_independent_of_input_order():
    keys = [(KeyId(i % 3, i), HashKey(i + 1, i % 4)) for i in range(9)]
    forward = batch_tags(keys, 0x55, 8, 2)
    backward = batch_tags(list(reversed(keys)), 0x55, 8, 2)
    assert forward == backward


def test_batch_tags_rejects_duplicates_and_handles_empty():
    dup = [(KeyId(0, 0), HashKey(1, 0)), (KeyId(0, 0), HashKey(2, 0))]
    with pytest.raises(ValueError, match="duplicate"):
        batch_tags(dup, 0, 4, 2)
    assert batch_tags([], 0, 4, 2) == []


def test_default_tag_len():
    assert default_tag_len(8) == 8
    assert default_tag_len(128) == 32


def test_hash_key_validation():
    with pytest.raises(ValueError, match="multiplier"):
        HashKey(-1, 0)
    with pytest.raises(ValueError, match="offset"):
        HashKey(0, -2)
