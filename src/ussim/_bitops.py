"""Bit-vector plumbing shared by the key stores and the protocol.

A bit string is a numpy uint8 array holding one bit per element, most
significant bit first. Packed integers follow the same big-endian
convention.
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


def pack_rows(bits: np.ndarray) -> np.ndarray:
    """Pack each row of a (rows, width) bit matrix into one integer.

    Each row is right-aligned in whole bytes of one contiguous buffer and
    packed with a single np.packbits call. Rows of up to 64 bits come back
    as uint64; wider rows as an object array of Python ints.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.ndim != 2:
        raise ValueError("pack_rows expects a 2-d bit matrix")
    rows, width = bits.shape
    n_bytes = (width + 7) // 8
    aligned = np.zeros((rows, 8 * n_bytes), dtype=np.uint8)
    aligned[:, 8 * n_bytes - width :] = bits
    packed = np.packbits(aligned.reshape(-1)).reshape(rows, n_bytes)
    if width <= 64:
        words = np.zeros((rows, 8), dtype=np.uint8)
        words[:, 8 - n_bytes :] = packed
        return words.view(">u8").reshape(rows).astype(np.uint64)
    data = packed.tobytes()
    vals = np.empty(rows, dtype=object)
    vals[:] = [
        int.from_bytes(data[i : i + n_bytes], "big")
        for i in range(0, rows * n_bytes, n_bytes)
    ]
    return vals


def unpack_rows(vals: np.ndarray, width: int) -> np.ndarray:
    """Inverse of pack_rows: (n,) integers to an (n, width) bit matrix.

    Bits above width are dropped. Values of up to 64 bits go through one
    big-endian uint64 view; wider ones through int.to_bytes per value.
    """
    vals = np.asarray(vals).reshape(-1)
    n_bytes = (width + 7) // 8
    if width <= 64:
        if vals.dtype == object:
            vals = vals & ((1 << width) - 1)
        words = vals.astype(">u8").reshape(-1, 1).view(np.uint8)
        packed = np.ascontiguousarray(words[:, 8 - n_bytes :])
    else:
        if vals.dtype != object:
            vals = vals.astype(np.uint64)
        mask = (1 << width) - 1
        data = b"".join((int(v) & mask).to_bytes(n_bytes, "big") for v in vals.tolist())
        packed = np.frombuffer(data, dtype=np.uint8)
    bits = np.unpackbits(packed.reshape(-1)).reshape(vals.size, 8 * n_bytes)
    return bits[:, 8 * n_bytes - width :]


def bits_to_bytes(bits: np.ndarray) -> bytes:
    """Pack a bit string into bytes, zero-padded at the end."""
    return np.packbits(np.asarray(bits, dtype=np.uint8)).tobytes()


def bytes_to_bits(data: bytes, n_bits: int) -> np.ndarray:
    arr = np.frombuffer(data, dtype=np.uint8)
    if arr.size * 8 < n_bits:
        raise ValueError(f"need {n_bits} bits, got {arr.size * 8}")
    return np.unpackbits(arr)[:n_bits]
