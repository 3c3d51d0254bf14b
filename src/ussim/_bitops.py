"""Bit-vector plumbing shared by the key stores and the protocol.

A bit string is a numpy uint8 array of packed bits, most significant first
and zero-padded to a whole byte. A packed value of up to 64 bits is the
smallest of uint8, uint16, uint32 and uint64 that holds it (packed_dtype);
a wider one is its ceil(width / 8) big-endian bytes as one void (V<bytes>)
element, so 1-d arrays of every kind index, concatenate and compare with ==
alike. pack_rows and unpack_rows move fixed-width fields between the two.
"""
from __future__ import annotations

import numpy as np


def octets(values: np.ndarray) -> np.ndarray:
    """1-d packed values as (rows, bytes) uint8 views, least significant first.

    Void rows and little-endian unsigned values are viewed in place; signed
    or big-endian integers go through a little-endian unsigned copy of the
    same width.
    """
    values = np.ascontiguousarray(values)
    if values.dtype.kind == "V":
        return values.view(np.uint8).reshape(values.size, values.dtype.itemsize)[:, ::-1]
    unsigned = np.dtype(f"<u{values.dtype.itemsize}")
    if values.dtype != unsigned:
        values = values.astype(unsigned)
    return values.reshape(-1, 1).view(np.uint8)


def packed_dtype(width: int) -> np.dtype:
    """The dtype of one packed value of width bits.

    The smallest of uint8, uint16, uint32 and uint64 that holds width bits,
    or V<ceil(width / 8)> above 64 bits.
    """
    if width <= 64:
        return np.min_scalar_type((1 << width) - 1)
    return np.dtype(f"V{(width + 7) // 8}")


def pack_rows(values, width: int, start: int = 0) -> np.ndarray:
    """A new bit string holding width-bit values end to end from bit start.

    Every other bit is zero. values are packed values or integers; a
    negative value or one with a bit set at or above width raises ValueError.
    """
    values = np.asarray(values).reshape(-1)
    low_first = octets(values)
    n_bytes = (width + 7) // 8
    rows = np.zeros((len(values), n_bytes), dtype=np.uint8)  # big-endian
    rows[:, ::-1][:, : low_first.shape[1]] = low_first[:, :n_bytes]
    if values.dtype.kind != "V":
        too_wide = values.size and (int(values.min()) < 0 or int(values.max()) >> width)
    else:
        too_wide = low_first[:, n_bytes:].any() or (
            width % 8 and (rows[:, 0] >> (width % 8)).any()
        )
    if too_wide:
        raise ValueError(f"a value has bits set at or above bit {width}")
    out = np.zeros((start + len(values) * width + 7) // 8, dtype=np.uint8)
    if start % 8 == 0 and width % 8 == 0:
        out[start // 8 :] = rows.reshape(-1)
    else:
        bits = np.zeros(start % 8 + len(values) * width, dtype=np.uint8)
        bits[start % 8 :] = np.unpackbits(rows, axis=1)[:, 8 * n_bytes - width :].reshape(-1)
        out[start // 8 :] = np.packbits(bits)
    return out


def unpack_rows(
    data: np.ndarray, width: int, count: int, start: int = 0, stride: int | None = None
) -> np.ndarray:
    """count width-bit fields of the bit string data (contiguous) as packed values.

    Field i starts at bit start + i * stride; stride defaults to width, so
    that the fields lie end to end. Bits outside the fields are ignored.
    """
    stride = width if stride is None else stride
    end = start + (count - 1) * stride + width
    if width < 1 or stride < 1 or start < 0 or (count and end > 8 * len(data)):
        raise ValueError(
            f"{count} fields of {width} bits, {stride} apart from bit {start}, "
            f"do not fit in {8 * len(data)} bits"
        )
    n_bytes, dtype = (width + 7) // 8, packed_dtype(width)
    big = dtype.newbyteorder(">")
    aligned = start % 8 == 0 and stride % 8 == 0 and width % 8 == 0
    if count and aligned and n_bytes == dtype.itemsize:
        # each field fills its dtype: read the bytes in place, and copy once
        return np.ndarray((count,), big, data, start // 8, (stride // 8,)).astype(dtype)
    if not count:
        rows = np.zeros((0, n_bytes), dtype=np.uint8)
    elif aligned:
        # a strided view of the bytes, read-only if data is
        rows = np.ndarray((count, n_bytes), np.uint8, data, start // 8, (stride // 8, 1))
    else:
        bits = np.unpackbits(data[start // 8 : (end + 7) // 8])
        rows = np.zeros((count, 8 * n_bytes), dtype=np.uint8)
        rows[:, 8 * n_bytes - width :] = np.ndarray(
            (count, width), np.uint8, bits, start % 8, (stride, 1)
        )
        rows = np.packbits(rows, axis=1)
    if n_bytes < dtype.itemsize:
        words = np.zeros((count, dtype.itemsize), dtype=np.uint8)
        words[:, dtype.itemsize - n_bytes :] = rows
        rows = words
    # rows is a new array here, never a view of data: swap it in place
    values = rows.view(big).reshape(count)
    if big != dtype:
        values.byteswap(inplace=True)
    return values.view(dtype)


def flip_bits(fields, positions: np.ndarray) -> None:
    """Flip single bits of packed fields laid side by side, in place.

    fields is a sequence of (values, width) pairs: 1-d arrays of one
    length, each little-endian unsigned values or void rows as above, and
    contiguous so that octets views their memory. Row r of the fields side
    by side is the first field's width bits, most significant first, then
    the next field's, and so on, W bits in all; position p flips column
    p % W of row p // W. A lone uint8 field of width 8 is a bit string,
    and position p flips its bit p.
    """
    positions = np.asarray(positions, dtype=np.int64)
    if not positions.size:
        return
    if len(fields) == 1 and fields[0][1] == 8 and fields[0][0].dtype == np.uint8:
        np.bitwise_xor.at(fields[0][0], positions >> 3, (0x80 >> (positions & 7)).astype(np.uint8))
        return
    rows, cols = np.divmod(positions, sum(width for _, width in fields))
    end = 0
    for values, width in fields:
        end += width
        hit = (cols >= end - width) & (cols < end)
        if not hit.any():
            continue
        low = end - 1 - cols[hit]  # bit index from the least significant end
        view = octets(values)
        if not np.may_share_memory(view, values):
            raise ValueError("flip_bits needs contiguous unsigned or void rows")
        np.bitwise_xor.at(view, (rows[hit], low >> 3), (1 << (low & 7)).astype(np.uint8))
