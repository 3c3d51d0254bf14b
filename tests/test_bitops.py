"""The packed-field codec and bit flipping against row-by-row integer oracles."""
import numpy as np
import pytest

import reference
from ussim._bitops import flip_bits, pack_rows, packed_dtype, unpack_rows

WIDTHS = (*range(1, 131), 200, 256)


def _random_values(rng, rows, width):
    return [reference.pack_row(rng.integers(0, 2, size=width)) for _ in range(rows)]


def _oracle_bits(values, width):
    return np.array([reference.unpack_value(v, width) for v in values],
                    dtype=np.uint8).reshape(len(values), width)


def _oracle_string(values, width, start):
    """The bytes of start zero bits, then each value in width bits, zero-padded."""
    bits = [0] * start + [b for v in values for b in reference.unpack_value(v, width)]
    bits += [0] * (-len(bits) % 8)
    return bytes(reference.pack_row(bits[i : i + 8]) for i in range(0, len(bits), 8))


def _as_packed(values, width):
    if width <= 64:
        return np.array(values, dtype=np.uint64)
    return reference.void_rows(values, (width + 7) // 8).copy()


def _string_bits(data):
    return [b for byte in data.tolist() for b in reference.unpack_value(byte, 8)]


@pytest.mark.parametrize("width", WIDTHS)
def test_pack_and_unpack_match_the_oracle(width):
    rng = np.random.default_rng(width)
    values = _random_values(rng, 14, width)
    packed = _as_packed(values, width)
    for start in range(8):
        for rows, given in ((values, packed), (values[::2], packed[::2])):  # strided too
            got = pack_rows(given, width, start)
            assert got.dtype == np.uint8
            assert got.tobytes() == _oracle_string(rows, width, start)
            back = unpack_rows(got, width, len(rows), start)
            assert back.dtype == packed_dtype(width)
            assert reference.row_ints(back) == rows


@pytest.mark.parametrize("width", WIDTHS)
def test_unpack_rows_matches_the_oracle(width):
    # strides wider than the field are the key-store layout, where each key
    # is a multiplier and then an offset; the data ends with the last field
    rng = np.random.default_rng(1000 + width)
    count = 7
    for start in range(8):
        for stride in (width, width + 3, width + 8, 2 * width + 5):
            end = start + (count - 1) * stride + width
            data = rng.integers(0, 256, size=(end + 7) // 8, dtype=np.uint8)
            bits = _string_bits(data)
            got = unpack_rows(data, width, count, start, stride)
            assert got.dtype == packed_dtype(width)
            want = [reference.pack_row(bits[start + i * stride : start + i * stride + width])
                    for i in range(count)]
            assert reference.row_ints(got) == want


@pytest.mark.parametrize("width", WIDTHS)
def test_empty_input(width):
    assert pack_rows(np.zeros(0, dtype=packed_dtype(width)), width).shape == (0,)
    assert pack_rows(np.zeros(0, dtype=np.int64), width, start=5).tolist() == [0]
    for data, start in ((np.zeros(0, dtype=np.uint8), 0), (np.zeros(2, dtype=np.uint8), 13)):
        got = unpack_rows(data, width, 0, start)
        assert got.shape == (0,)
        assert got.dtype == packed_dtype(width)


@pytest.mark.parametrize("width", WIDTHS)
def test_unpack_drops_bits_above_width(width):
    # each value sits in 9 to 16 more bits, junk bits above it: the layout
    # of one whole-byte draw per value, as in the forge's guessed tags
    rng = np.random.default_rng(1000 + width)
    values = _random_values(rng, 6, width)
    junk = [v | (reference.pack_row(rng.integers(0, 2, size=9)) << width) for v in values]
    slot = 8 * ((width + 9 + 7) // 8)
    data = np.frombuffer(reference.void_rows(junk, slot // 8).tobytes(), dtype=np.uint8)
    got = unpack_rows(data, width, 6, start=slot - width, stride=slot)
    assert reference.row_ints(got) == values


@pytest.mark.parametrize("width", WIDTHS)
def test_pack_rejects_bits_above_width(width):
    rng = np.random.default_rng(3000 + width)
    values = _random_values(rng, 6, width)
    # void rows two bytes wider than the width: zero high bits pass
    wide = reference.void_rows(values, (width + 7) // 8 + 2)
    assert pack_rows(wide, width).tobytes() == _oracle_string(values, width, 0)
    junk = [v | (reference.pack_row(rng.integers(0, 2, size=9)) << width) for v in values]
    junk[2] |= 1 << width  # at least one junk bit
    with pytest.raises(ValueError, match=f"at or above bit {width}"):
        pack_rows(reference.void_rows(junk, (width + 9 + 7) // 8), width)
    if width < 64:
        with pytest.raises(ValueError, match=f"at or above bit {width}"):
            pack_rows(np.array([v % (1 << 64) for v in junk], dtype=np.uint64), width)
        with pytest.raises(ValueError, match=f"at or above bit {width}"):
            pack_rows(np.array([0, -1], dtype=np.int64), width)


@pytest.mark.parametrize("width", WIDTHS)
def test_unpack_accepts_int64_and_every_row_count(width):
    # int64 values go in through pack_rows and come back out of unpack_rows
    rng = np.random.default_rng(2000 + width)
    for rows in (1, 2, 9):
        values = [v % (1 << 63) for v in _random_values(rng, rows, width)]
        got = pack_rows(np.array(values, dtype=np.int64), width, start=3)
        assert got.tobytes() == _oracle_string(values, width, 3)
        assert reference.row_ints(unpack_rows(got, width, rows, start=3)) == values


@pytest.mark.parametrize("n_bytes", range(0, 18))
def test_byte_rows_to_values_reads_big_endian_rows(n_bytes):
    # byte-aligned fields, here with a byte between them, read as byte views
    rng = np.random.default_rng(3000 + n_bytes)
    rows = rng.integers(0, 256, size=(5, n_bytes + 1), dtype=np.uint8)
    if n_bytes == 0:
        with pytest.raises(ValueError, match="fields of 0 bits"):
            unpack_rows(rows.reshape(-1), 0, 5, start=8, stride=8)
        return
    got = unpack_rows(rows.reshape(-1), 8 * n_bytes, 5, start=8, stride=8 * (n_bytes + 1))
    assert got.dtype == (np.uint64 if n_bytes <= 8 else np.dtype(f"V{n_bytes}"))
    assert reference.row_ints(got) == [int.from_bytes(r[1:].tobytes(), "big") for r in rows]


@pytest.mark.parametrize(
    "width, start, stride", [(8, 0, 16), (72, 8, 72), (13, 3, 20), (100, 1, 100)]
)
def test_unpacked_values_own_their_memory(width, start, stride):
    # flip_bits writes through the values, so they must not view the data
    data = np.arange(64, dtype=np.uint8)
    got = unpack_rows(data, width, 3, start, stride)
    assert got.flags.writeable and got.flags.c_contiguous
    assert not np.shares_memory(got, data)


def test_unpack_rows_validation():
    data = np.zeros(3, dtype=np.uint8)
    assert unpack_rows(data, 8, 3).tolist() == [0, 0, 0]
    with pytest.raises(ValueError, match="fit in 24 bits"):
        unpack_rows(data, 8, 3, start=1)
    with pytest.raises(ValueError, match="fit in 24 bits"):
        unpack_rows(data, 8, 2, stride=17)
    with pytest.raises(ValueError, match="fields of 0 bits"):
        unpack_rows(data, 0, 1)
    with pytest.raises(ValueError, match="0 apart"):
        unpack_rows(data, 8, 1, stride=0)


@pytest.mark.parametrize(
    "widths", [(5, 8, 8), (10, 64, 32), (1, 72, 16), (12, 130, 100), (3, 1, 1)]
)
def test_flip_bits_matches_a_bitwise_oracle(widths):
    # each row is the fields side by side, first field's top bit first
    rng = np.random.default_rng(sum(widths))
    rows, total = 9, sum(widths)
    values = [_random_values(rng, rows, w) for w in widths]
    fields = [(_as_packed(v, w), w) for v, w in zip(values, widths)]
    positions = np.sort(rng.choice(rows * total, size=rows * total // 3, replace=False))
    flip_bits(fields, positions)
    want = np.concatenate([_oracle_bits(v, w) for v, w in zip(values, widths)], axis=1)
    want.reshape(-1)[positions] ^= 1
    start = 0
    for (packed, width), in_rows in zip(fields, values):
        assert packed.dtype == _as_packed(in_rows, width).dtype
        assert np.array_equal(_oracle_bits(reference.row_ints(packed), width),
                              want[:, start : start + width])
        start += width


def test_flip_bits_refuses_arrays_it_cannot_write_through():
    flip_bits([(np.zeros(3, dtype=np.int64), 8)], np.array([], dtype=np.int64))
    with pytest.raises(ValueError, match="contiguous"):
        flip_bits([(np.zeros(3, dtype=np.int64), 8)], np.array([1]))
