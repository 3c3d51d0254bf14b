"""Almost-strongly-universal tagging over GF(2^a).

A hash key is a pair (multiplier, offset). The tag of an a-bit message m is
the low t bits of multiplier * m in GF(2^a), XORed with the t-bit offset.
Over a uniform key the tag of any fixed message is exactly uniform, and any
two distinct messages produce any given tag pair with probability 2^(-2t),
which is the collision behaviour the signature thresholds assume. The offset
term matters: without it the all-zero message would hash to the all-zero tag
under every multiplier.

Tagging looks products up in byte-sliced tables that depend on the message
alone, so the signer and every verifier of one message share them: they
are built once per message and kept, read-only, in a cache bounded to the
last few messages.

Polynomials over GF(2) are encoded as integers, bit i holding the
coefficient of x^i. The field modulus for width a is the irreducible
polynomial of degree a with the smallest integer encoding, found by scanning
candidates with Ben-Or's irreducibility test (Ben-Or, "Probabilistic
algorithms in finite fields", FOCS 1981).
"""
from __future__ import annotations

import functools
import math

import numpy as np

from ._bitops import octets, packed_dtype
from .secparams import as_int

__all__ = ["check_message", "find_irreducible", "tags_of_arrays"]


def _degree(p: int) -> int:
    return p.bit_length() - 1


def _pmod(x: int, m: int) -> int:
    dm = _degree(m)
    while x and _degree(x) >= dm:
        x ^= m << (_degree(x) - dm)
    return x


def _pgcd(x: int, y: int) -> int:
    while y:
        x, y = y, _pmod(x, y)
    return x


def _square_mod(p: int, m: int) -> int:
    # Squaring over GF(2) spreads the coefficients to even positions: the
    # binary digits of p read in base 4 put bit i at bit 2i.
    return _pmod(int(bin(p)[2:], 4), m)


def _is_irreducible(f: int) -> bool:
    """Ben-Or's test: f of degree d is irreducible iff gcd(x^(2^i) - x, f) = 1
    for every i in [1, d/2].

    The gcd at step i picks up every factor of degree dividing i, so a
    candidate with a factor of degree j is rejected at step j.
    """
    d = _degree(f)
    if d < 1:
        return False
    h = 2  # the polynomial x
    for _ in range(d // 2):
        h = _square_mod(h, f)
        if _pgcd(h ^ 2, f) != 1:
            return False
    return True


@functools.lru_cache(maxsize=None, typed=True)  # typed: a float never hits an int's entry
def find_irreducible(msg_len_bits: int) -> int:
    """Smallest-encoding irreducible polynomial of the given degree.

    The scan starts at x^a + 1 and steps by 2: a usable modulus needs a
    nonzero constant term, and for degree 1 that picks x + 1 over x.
    """
    a = as_int(msg_len_bits, "msg_len_bits", 1, 4096)
    candidate = (1 << a) | 1
    while True:
        if _is_irreducible(candidate):
            return candidate
        candidate += 2


# one entry at a = 4096, t = 255 is 512 * 256 * 32 bytes = 4 MiB
@functools.lru_cache(maxsize=4)
def _message_tables(message: int, msg_len_bits: int, tag_len_bits: int) -> np.ndarray:
    """Read-only tables[p, v]: low t bits of (v * x^(8p)) * message.

    Shape (ceil(a/8), 256) of packed_dtype(t).
    """
    a, t = msg_len_bits, tag_len_bits
    n_bytes, dtype = (a + 7) // 8, packed_dtype(t)
    # col[j] = low t bits of x^j * message, so a product XORs the entries its
    # multiplier's bits select; col is zero past bit a, so high multiplier bits drop out
    rows, cur, modulus = [], message, find_irreducible(a)
    for _ in range(a):
        rows.append((cur & ((1 << t) - 1)).to_bytes(dtype.itemsize, "big"))
        cur <<= 1
        if cur >> a:
            cur ^= modulus
    col = np.zeros(8 * n_bytes, dtype=dtype)
    col[:a] = np.frombuffer(b"".join(rows), dtype=dtype.newbyteorder(">"))  # big-endian on any host
    # built by doubling over v's bits, XORing the values as the widest unsigned
    # words that tile them: as rows of bytes, this broadcast XOR takes 2-3 times as long
    word = f"u{math.gcd(dtype.itemsize, 8)}"
    tables = np.zeros((n_bytes, 256), dtype=dtype)
    table_words, col_words = tables[..., None].view(word), col[:, None].view(word)
    for j in range(8):
        table_words[:, 1 << j : 2 << j] = table_words[:, : 1 << j] ^ col_words[j::8, None]
    tables.flags.writeable = False
    return tables


def check_message(message: int, msg_len_bits: int) -> int:
    """The message as an int, if it is one of msg_len_bits bits; else ValueError."""
    message = as_int(message, "message")
    if not 0 <= message < (1 << msg_len_bits):
        raise ValueError(f"message must be in [0, 2**{msg_len_bits})")
    return message


def tags_of_arrays(
    multipliers: np.ndarray,
    offsets: np.ndarray,
    message: int,
    msg_len_bits: int,
    tag_len_bits: int,
) -> np.ndarray:
    """Tag one message under parallel arrays of multipliers and offsets.

    The product with the fixed message is GF(2)-linear in the multiplier,
    so it is the XOR over the multiplier's bytes of one 256-entry table per
    byte position (Shoup's byte-sliced method, as in GCM software): one
    lookup and one XOR per byte over all rows. The tables come from a cache
    keyed by message, so a call does only the per-row work. Values are
    packed as in _bitops; tables, accumulator and tags are packed_dtype(t),
    XORed as their bytes. Multipliers are any integer dtype or void rows;
    offsets are any integer dtype up to 64 bits and packed_dtype(t) above.
    Multiplier bits at or above a are ignored, and tags take the
    multipliers' shape.
    """
    a = as_int(msg_len_bits, "msg_len_bits")  # its range is find_irreducible's
    t = as_int(tag_len_bits, "tag_len_bits", 1, a)
    message = check_message(message, a)
    mults, offs = np.asarray(multipliers), np.asarray(offsets)
    if mults.dtype.kind not in "iuV" or offs.dtype.kind not in "iuV":
        raise ValueError("multipliers and offsets must be packed integer or void arrays, "
                         f"got {mults.dtype} and {offs.dtype}")
    tables = _message_tables(message, a, t)
    dtype = tables.dtype
    if offs.dtype != dtype and "V" in offs.dtype.kind + dtype.kind:
        # a cast would reinterpret the bytes, not convert the values
        raise ValueError(f"offsets of {t}-bit tags must be {dtype}, got {offs.dtype}")
    low_first = octets(mults.reshape(-1))
    acc, tmp = np.zeros(mults.size, dtype=dtype), np.empty(mults.size, dtype=dtype)
    acc_bytes, tmp_bytes = acc.view(np.uint8), tmp.view(np.uint8)
    for p in range(min(len(tables), low_first.shape[1])):
        # indices are bytes, always in range; "clip" lets take skip its buffer
        tables[p].take(low_first[:, p], out=tmp, mode="clip")
        acc_bytes ^= tmp_bytes
    acc_bytes ^= np.ascontiguousarray(offs, dtype=dtype).reshape(-1).view(np.uint8)
    return acc.reshape(mults.shape)
