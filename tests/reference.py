"""Independent reference computations used to cross-check the package.

Everything here is deliberately written from scratch with the dumbest
correct algorithm available (trial division, schoolbook polynomial
arithmetic, explicit binomial sums), so agreement with the package is
evidence rather than tautology.
"""
import hashlib
import math
import struct

import numpy as np


def poly_degree(p: int) -> int:
    return p.bit_length() - 1


def poly_mul(x: int, y: int) -> int:
    """Schoolbook carry-less multiplication over GF(2)."""
    out = 0
    for i in range(y.bit_length()):
        if (y >> i) & 1:
            out ^= x << i
    return out


def poly_mod(x: int, m: int) -> int:
    dm = poly_degree(m)
    while x.bit_length() - 1 >= dm and x:
        x ^= m << (x.bit_length() - 1 - dm)
    return x


def is_irreducible_by_trial_division(f: int) -> bool:
    """Divide f by every polynomial of degree 1..deg(f)//2."""
    d = poly_degree(f)
    if d < 1:
        return False
    if d == 1:
        return True
    for g in range(2, 1 << (d // 2 + 1)):
        if poly_degree(g) >= 1 and poly_mod(f, g) == 0:
            return False
    return True


def field_mul(x: int, y: int, modulus: int) -> int:
    """Multiply two elements of GF(2^deg(modulus))."""
    return poly_mod(poly_mul(x, y), modulus)


def binom_cdf(m: int, n: int, p: float) -> float:
    """P(Bin(n, p) <= m) as an explicit sum."""
    if m < 0:
        return 0.0
    if m >= n:
        return 1.0
    total = 0.0
    for i in range(m + 1):
        total += math.comb(n, i) * p**i * (1.0 - p) ** (n - i)
    return total


def guess_pass_prob_exact(k: int, t: int, worst: int) -> float:
    """P(at most worst of k uniformly guessed t-bit tags mismatch).

    The sum of C(k, i) (2^t - 1)^i over i <= worst counts the passing
    guess vectors out of 2^(t*k); dividing the two ints rounds correctly.
    """
    if worst < 0:
        return 0.0
    term = count = 1  # the i = 0 term
    for i in range(min(worst, k)):
        # C(k, i+1) (2^t-1)^(i+1) from the previous term; the division is exact
        term = term * (k - i) // (i + 1) * (2**t - 1)
        count += term
    return count / (1 << (t * k))


def level_verdict(counts, k: int, s: float, delta: float) -> tuple[int, bool]:
    """Groups passed and verdict of one verifier's mismatch counts, one by one.

    A group passes when its mismatch fraction c/k is strictly below s; the
    verdict is a pass fraction strictly above delta.
    """
    passed = 0
    for c in counts:
        if c / k < s:
            passed += 1
    return passed, passed / len(counts) > delta


def make_tag(multiplier: int, offset: int, message: int, modulus: int, t: int) -> int:
    """Low t bits of multiplier * message in GF(2^deg(modulus)), XOR offset."""
    return (field_mul(multiplier, message, modulus) % (1 << t)) ^ offset


def pack_row(bits) -> int:
    """One row of bits, most significant first, as an int."""
    value = 0
    for bit in bits:
        value = value * 2 + int(bit)
    return value


def unpack_value(value: int, width: int) -> list[int]:
    """The low width bits of value, most significant first."""
    value = int(value) % (1 << width)
    out = []
    for _ in range(width):
        out.append(value % 2)
        value //= 2
    return out[::-1]


def row_ints(values) -> list[int]:
    """Packed values as ints: integers as they are, void rows read big-endian."""
    return [
        int.from_bytes(v.tobytes(), "big") if isinstance(v, np.void) else int(v)
        for v in np.asarray(values).ravel()
    ]


def void_rows(values, n_bytes: int) -> np.ndarray:
    """Ints as void rows of n_bytes big-endian bytes each."""
    data = b"".join(int(v).to_bytes(n_bytes, "big") for v in values)
    return np.frombuffer(data, dtype=f"V{n_bytes}")


def packed(values, width: int) -> np.ndarray:
    """Ints of up to width bits as a writable packed array: uint64 up to 64 bits, void rows above."""
    if width <= 64:
        return np.array(values, dtype=np.uint64)
    return void_rows(values, (width + 7) // 8).copy()


def _link_keys(seed: int, user_a: int, user_b: int) -> tuple[int, int]:
    """Pool and flip keys of a link: the halves of its stream-version-3 digest."""
    lo, hi = sorted((user_a, user_b))
    key = hashlib.blake2b(
        b"ussim-link-v3" + struct.pack(">qqq", seed, lo, hi), digest_size=32
    ).digest()
    return int.from_bytes(key[:16], "big"), int.from_bytes(key[16:], "big")


def pool_bits(seed: int, user_a: int, user_b: int, start: int, n_bits: int) -> list[int]:
    """Noiseless pool bits start .. start + n_bits of link (user_a, user_b).

    64-bit pool word w is lane w % 4 of the first four words of a fresh
    Philox generator keyed by the link's pool key with its counter at
    w // 4, built afresh for every bit; bits are read most significant
    first.
    """
    pool_key, _ = _link_keys(seed, user_a, user_b)
    out = []
    for pos in range(start, start + n_bits):
        word = pos // 64
        lanes = np.random.Philox(key=pool_key, counter=word // 4).random_raw(4)
        out.append((int(lanes[word % 4]) >> (63 - pos % 64)) & 1)
    return out


def flip_positions(seed: int, user_a: int, user_b: int, q: float, start: int, n_bits: int) -> list[int]:
    """Noisy-side flip positions start .. start + n_bits of a link, relative to start.

    Flip blocks hold the largest power of two of positions, at most 2^20,
    with at most 1024 expected flips. Block b gets a fresh Philox
    generator keyed by the link's flip key, with its counter at b * 2^128;
    it draws Geometric(q) gaps one at a time, and the flips lie at their
    running sums minus one, up to the block's end.
    """
    _, flip_key = _link_keys(seed, user_a, user_b)
    size = 1 << 20
    while size * q > 1024:
        size //= 2
    out = []
    for block in range(start // size, (start + n_bits - 1) // size + 1 if n_bits else 0):
        rng = np.random.Generator(np.random.Philox(key=flip_key, counter=block << 128))
        pos = int(rng.geometric(q)) - 1  # a Python int: no overflow
        while pos < size:
            if start <= block * size + pos < start + n_bits:
                out.append(block * size + pos - start)
            pos += int(rng.geometric(q))
    return out
