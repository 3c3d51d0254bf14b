"""Row packing and bit flipping against row-by-row integer oracles."""
import numpy as np
import pytest

import reference
from ussim._bitops import byte_rows_to_values, flip_bits, pack_rows, unpack_rows

WIDTHS = (*range(1, 131), 200, 256)


def _random_values(rng, rows, width):
    return [reference.pack_row(rng.integers(0, 2, size=width)) for _ in range(rows)]


def _oracle_bits(values, width):
    return np.array([reference.unpack_value(v, width) for v in values],
                    dtype=np.uint8).reshape(len(values), width)


@pytest.mark.parametrize("width", WIDTHS)
def test_pack_and_unpack_match_the_oracle(width):
    rng = np.random.default_rng(width)
    wide = rng.integers(0, 2, size=(7, width + 13), dtype=np.uint8)
    for bits in (wide[:, :width], wide[:, 5 : 5 + width], np.ascontiguousarray(wide[:, 13:])):
        packed = pack_rows(bits)
        assert packed.shape == (7,)
        assert packed.dtype == (np.uint64 if width <= 64 else np.dtype(f"V{(width + 7) // 8}"))
        assert reference.row_ints(packed) == [reference.pack_row(row) for row in bits]
        unpacked = unpack_rows(packed, width)
        assert unpacked.dtype == np.uint8
        assert np.array_equal(unpacked, bits)


@pytest.mark.parametrize("width", WIDTHS)
def test_empty_input(width):
    packed = pack_rows(np.zeros((0, width), dtype=np.uint8))
    assert packed.shape == (0,)
    assert unpack_rows(packed, width).shape == (0, width)


@pytest.mark.parametrize("width", WIDTHS)
def test_unpack_drops_bits_above_width(width):
    rng = np.random.default_rng(1000 + width)
    values = _random_values(rng, 6, width)
    junk = [v | (reference.pack_row(rng.integers(0, 2, size=9)) << width) for v in values]
    if width < 64:
        # fixed-width input can only carry junk up to bit 63
        as_uint64 = np.array([v % (1 << 64) for v in junk], dtype=np.uint64)
        assert np.array_equal(unpack_rows(as_uint64, width), _oracle_bits(values, width))
    # void rows one or two bytes wider than the width carry all 9 junk bits
    got = unpack_rows(reference.void_rows(junk, (width + 9 + 7) // 8), width)
    assert np.array_equal(got, _oracle_bits(values, width))


@pytest.mark.parametrize("width", WIDTHS)
def test_unpack_accepts_int64_and_every_row_count(width):
    rng = np.random.default_rng(2000 + width)
    for rows in (1, 2, 9):
        values = [v % (1 << 63) for v in _random_values(rng, rows, width)]
        got = unpack_rows(np.array(values, dtype=np.int64), width)
        assert np.array_equal(got, _oracle_bits(values, width))


def test_pack_rows_rejects_non_matrix():
    with pytest.raises(ValueError, match="2-d"):
        pack_rows(np.zeros(8, dtype=np.uint8))


@pytest.mark.parametrize("n_bytes", range(0, 18))
def test_byte_rows_to_values_reads_big_endian_rows(n_bytes):
    rng = np.random.default_rng(3000 + n_bytes)
    rows = rng.integers(0, 256, size=(5, n_bytes + 1), dtype=np.uint8)[:, 1:]  # not contiguous
    got = byte_rows_to_values(rows)
    assert got.dtype == (np.uint64 if n_bytes <= 8 else np.dtype(f"V{n_bytes}"))
    assert reference.row_ints(got) == [int.from_bytes(r.tobytes(), "big") for r in rows]


def _as_packed(values, width):
    if width <= 64:
        return np.array(values, dtype=np.uint64)
    return reference.void_rows(values, (width + 7) // 8).copy()


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
