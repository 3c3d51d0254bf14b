"""Bit-vector plumbing shared by the key stores and the protocol.

A bit string is a numpy uint8 array holding one bit per element, most
significant bit first. A packed value of up to 64 bits is a uint64; a wider
one is its ceil(width / 8) big-endian bytes as one void (V<bytes>) element,
so 1-d arrays of both kinds index, concatenate and compare with == alike.
"""
from __future__ import annotations

import numpy as np


def int_to_bits(value: int, width: int) -> np.ndarray:
    if width < 0:
        raise ValueError("width must be non-negative")
    if value < 0 or value.bit_length() > width:
        raise ValueError(f"value {value} does not fit in {width} bits")
    return np.array([(value >> (width - 1 - i)) & 1 for i in range(width)], dtype=np.uint8)


def bits_to_int(bits: np.ndarray) -> int:
    out = 0
    for b in np.asarray(bits, dtype=np.uint8):
        out = (out << 1) | int(b)
    return out


def octets(values: np.ndarray) -> np.ndarray:
    """1-d packed values as (rows, bytes) uint8 views, least significant first."""
    values = np.ascontiguousarray(values)
    if values.dtype.kind == "V":
        return values.view(np.uint8).reshape(values.size, values.dtype.itemsize)[:, ::-1]
    return values.astype("<u8", copy=False).reshape(-1, 1).view(np.uint8)


def as_packed(values, width: int) -> np.ndarray:
    """Pack an array of Python ints as width-bit values; others pass through."""
    values = np.asarray(values)
    if values.dtype != object:
        return values
    masked = [int(v) % (1 << width) for v in values.flat]
    if width <= 64:
        return np.array(masked, dtype=np.uint64).reshape(values.shape)
    n_bytes = (width + 7) // 8
    data = b"".join(v.to_bytes(n_bytes, "big") for v in masked)
    return np.frombuffer(data, dtype=f"V{n_bytes}").reshape(values.shape)


def value_bytes(width: int) -> int:
    """Bytes one packed value of width bits occupies."""
    return 8 if width <= 64 else (width + 7) // 8


def byte_rows_to_values(rows: np.ndarray) -> np.ndarray:
    """(n, n_bytes) big-endian uint8 rows as n packed values.

    Up to 8 bytes a row comes back as uint64, wider rows as void rows.
    """
    rows = np.asarray(rows, dtype=np.uint8)
    n, n_bytes = rows.shape
    if n_bytes > 8:
        return np.ascontiguousarray(rows).view(f"V{n_bytes}").reshape(n)
    words = np.zeros((n, 8), dtype=np.uint8)
    words[:, 8 - n_bytes :] = rows
    return words.view(">u8").reshape(n).astype(np.uint64)


def pack_rows(bits: np.ndarray) -> np.ndarray:
    """Pack each row of a (rows, width) bit matrix into one value.

    Each row is right-aligned in whole bytes of one contiguous buffer and
    packed with a single np.packbits call. Rows of up to 64 bits come back
    as uint64; wider rows as those packed bytes viewed as void rows.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.ndim != 2:
        raise ValueError("pack_rows expects a 2-d bit matrix")
    rows, width = bits.shape
    n_bytes = (width + 7) // 8
    aligned = np.zeros((rows, 8 * n_bytes), dtype=np.uint8)
    aligned[:, 8 * n_bytes - width :] = bits
    return byte_rows_to_values(np.packbits(aligned.reshape(-1)).reshape(rows, n_bytes))


def unpack_rows(vals: np.ndarray, width: int) -> np.ndarray:
    """Inverse of pack_rows: (n,) packed values to an (n, width) bit matrix.

    Bits above width are dropped; high bytes missing from the input read as 0.
    """
    low_first = octets(np.asarray(vals).reshape(-1))
    n_bytes = (width + 7) // 8
    packed = np.zeros((len(low_first), n_bytes), dtype=np.uint8)
    packed[:, ::-1][:, : low_first.shape[1]] = low_first[:, :n_bytes]
    bits = np.unpackbits(packed.reshape(-1)).reshape(len(low_first), 8 * n_bytes)
    return bits[:, 8 * n_bytes - width :]


def bits_to_bytes(bits: np.ndarray) -> bytes:
    """Pack a bit string into bytes, zero-padded at the end."""
    return np.packbits(np.asarray(bits, dtype=np.uint8)).tobytes()


def flip_bits(fields, positions: np.ndarray) -> None:
    """Flip single bits of packed fields laid side by side, in place.

    fields is a sequence of (values, width) pairs: 1-d arrays of one
    length, each uint64 or void rows as above, and contiguous so that
    octets views their memory. Row r of the fields side by side is the
    first field's width bits, most significant first, then the next
    field's, and so on, W bits in all; position p flips column p % W of
    row p // W.
    """
    positions = np.asarray(positions, dtype=np.int64)
    if not positions.size:
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
            raise ValueError("flip_bits needs contiguous uint64 or void rows")
        np.bitwise_xor.at(view, (rows[hit], low >> 3), (1 << (low & 7)).astype(np.uint8))
