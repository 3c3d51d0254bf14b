"""Independent reference computations used to cross-check the package.

Everything here is deliberately written from scratch with the dumbest
correct algorithm available (trial division, schoolbook polynomial
arithmetic, explicit binomial sums), so agreement with the package is
evidence rather than tautology.
"""
import functools
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


@functools.lru_cache(maxsize=1 << 14)
def _pool_block(pool_key: int, counter: int) -> int:
    """Pool bits 256 * counter .. 256 * counter + 256 as one int, first bit on top.

    They are the first four 64-bit words of a fresh Philox generator keyed
    by the link's pool key with its counter at counter, word 0 on top.
    """
    lanes = np.random.Philox(key=pool_key, counter=counter).random_raw(4)
    return sum(int(lane) << (64 * (3 - i)) for i, lane in enumerate(lanes))


def pool_bits(seed: int, user_a: int, user_b: int, start: int, n_bits: int) -> list[int]:
    """Noiseless pool bits start .. start + n_bits of link (user_a, user_b).

    64-bit pool word w is lane w % 4 of the first four words of a fresh
    Philox generator keyed by the link's pool key with its counter at
    w // 4; bits are read most significant first.
    """
    pool_key, _ = _link_keys(seed, user_a, user_b)
    return [
        (_pool_block(pool_key, pos // 256) >> (255 - pos % 256)) & 1
        for pos in range(start, start + n_bits)
    ]


def flip_positions(seed: int, user_a: int, user_b: int, q: float, start: int, n_bits: int) -> list[int]:
    """Noisy-side flip positions start .. start + n_bits of a link, relative to start.

    Flip blocks hold the largest power of two of positions, at most 2^20,
    with at most 1024 expected flips. Block b gets a fresh Philox
    generator keyed by the link's flip key, with its counter at b * 2^128;
    it draws Geometric(q) gaps one at a time, and the flips lie at their
    running sums minus one, up to the block's end.
    """
    if q == 0:
        return []
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


PARTITION_STREAM = int.from_bytes(b"PART", "big")  # seed-sequence tag of partition draws


def partition(seed: int, origin: int, n: int, k: int) -> list[list[int]]:
    """Origin's chunks of its batch's n*k slots: row d is chunk d, ascending.

    A generator seeded with (seed, PARTITION_STREAM, origin) permutes the
    slots once; chunk d is the permutation's entries d*k .. d*k + k.
    """
    perm = np.random.default_rng([seed, PARTITION_STREAM, origin]).permutation(n * k)
    return [sorted(int(s) for s in perm[d * k : d * k + k]) for d in range(n)]


def issued_keys(seed: int, params, origin: int) -> list[tuple[int, int]]:
    """The (multiplier, offset) of every slot of the batch issued through origin.

    Slot s is bits s*(a+t) .. (s+1)*(a+t) of sender link (0, origin + 1)
    from its start, as the sender sees them: multiplier first.
    """
    n, k, a, t = params.n_recipients, params.k, params.msg_len_bits, params.tag_len_bits
    bits = pool_bits(seed, 0, origin + 1, 0, n * k * (a + t))
    keys = [bits[i : i + a + t] for i in range(0, len(bits), a + t)]
    return [(pack_row(key[:a]), pack_row(key[a:])) for key in keys]


def held_blocks(config, params, recipient: int) -> tuple[list[list[int]], ...]:
    """Slot ids, multipliers and offsets recipient holds of each batch, as ints.

    Row g is its share of the batch issued through recipient g. Recipient g
    sees its batch over sender link (0, g + 1) with that link's flips and
    splits it by partition. Its own chunk it keeps; chunk d it sends to
    recipient d as k rows of id_bits slot id, multiplier and offset, most
    significant first, over link (g + 1, d + 1): the lower index sends at
    cursor 0, the higher one after it, at k * (id_bits + a + t). The payload
    arrives with that range's flips.
    """
    n, k, a, t = params.n_recipients, params.k, params.msg_len_bits, params.tag_len_bits
    ids = max(1, (n * k - 1).bit_length())  # ceil(log2(n*k)), at least 1
    row, seed = ids + a + t, config.seed
    held = ([], [], [])
    for g in range(n):
        batch = pool_bits(seed, 0, g + 1, 0, n * k * (a + t))
        for pos in flip_positions(seed, 0, g + 1, config.flip_prob(0, g + 1), 0, len(batch)):
            batch[pos] ^= 1
        share = []
        for slot in partition(seed, g, n, k)[recipient]:
            share += unpack_value(slot, ids) + batch[slot * (a + t) : (slot + 1) * (a + t)]
        if g != recipient:
            ends = (g + 1, recipient + 1)
            cursor = 0 if g < recipient else k * row
            for pos in flip_positions(seed, *ends, config.flip_prob(*ends), cursor, len(share)):
                share[pos] ^= 1
        rows = [share[i : i + row] for i in range(0, len(share), row)]
        for block, field in zip(held, (slice(ids), slice(ids, ids + a), slice(ids + a, row))):
            block.append([pack_row(r[field]) for r in rows])
    return held


def mismatch_counts(seed: int, params, held, message: int, modulus: int) -> list[int]:
    """Per batch, how many keys of held_blocks' held disagree with the signature.

    The signature tags message under every issued key; a held key
    disagrees when its slot id is past the batch's n*k slots or when its
    tag differs from the one published at its slot.
    """
    n, k, t = params.n_recipients, params.k, params.tag_len_bits
    counts = []
    for g, share in enumerate(zip(*held)):
        issued = issued_keys(seed, params, g)
        count = 0
        for slot, mult, off in zip(*share):
            if slot >= n * k or (
                make_tag(*issued[slot], message, modulus, t) != make_tag(mult, off, message, modulus, t)
            ):
                count += 1
        counts.append(count)
    return counts


def chunk_law(k: int, m: int) -> list[float]:
    """P(X = x) for x = 0..k: corrupted slots in one chunk of k, out of m among 2k.

    X ~ Hypergeometric(2k, m, k): C(k, x) C(k, m - x) / C(2k, m), each term
    one correctly rounded division of exact integers.
    """
    ways, row = math.comb(2 * k, m), _comb_row(k)
    return [row[x] * row[m - x] / ways if 0 <= m - x <= k else 0.0 for x in range(k + 1)]


@functools.lru_cache(maxsize=256)
def _comb_row(k: int) -> tuple[int, ...]:
    return tuple(math.comb(k, x) for x in range(k + 1))


def repudiation_exact(params, corrupted) -> float:
    """Exact success rate at n = 2 of a sender corrupting corrupted[g] slots of batch g.

    Recipient 0 holds X_g of batch g's corrupted slots, X_g independent
    across batches and distributed by chunk_law; recipient 1 holds the
    other m_g - X_g. The attack succeeds when one recipient accepts at
    level 0 while one rejects at level -1, as level_verdict judges their
    counts at params' thresholds.
    """
    if params.n_recipients != 2:
        raise ValueError("repudiation_exact covers n = 2 only")
    k = params.k
    (m0, m1), (_, s0, d0), (_, s1, d1) = corrupted, params.thresholds(0), params.thresholds(-1)
    total = 0.0
    for x0, p0 in enumerate(chunk_law(k, m0)):
        for x1, p1 in enumerate(chunk_law(k, m1)):
            counts = ((x0, x1), (m0 - x0, m1 - x1))
            accepts = [level_verdict(c, k, s0, d0)[1] for c in counts]
            keeps = [level_verdict(c, k, s1, d1)[1] for c in counts]
            if p0 and p1 and any(accepts) and not all(keeps):
                total += p0 * p1
    return total


def repudiation_optimum(params) -> tuple[float, tuple[int, int]]:
    """The largest repudiation_exact rate over every split (m0, m1), and one split reaching it.

    A batch acts only through which of the two recipients' groups pass at
    levels 0 and -1: bit 2r + j of its class says recipient r's group passes
    at level (0, -1)[j]. So every split's rate is laws[m0] @ success @
    laws[m1], where laws[m] is a batch's law over the 16 classes and
    success[c0, c1] says whether two batches of classes c0 and c1 make the
    attack succeed, judged by level_verdict on a count of 0 for a passing
    group and k for a failing one.
    """
    k = params.k
    levels = (params.thresholds(0)[1:], params.thresholds(-1)[1:])
    x = np.arange(k + 1)
    laws = np.zeros((2 * k + 1, 16))
    for m in range(2 * k + 1):
        passes = [counts / k < s for counts in (x, m - x) for s, _ in levels]
        classes = sum(p.astype(np.intp) << i for i, p in enumerate(passes))
        laws[m] = np.bincount(classes, weights=chunk_law(k, m), minlength=16)
    success = np.zeros((16, 16))
    for c0 in range(16):
        for c1 in range(16):
            verdicts = [
                [level_verdict([0 if c >> (2 * r + j) & 1 else k for c in (c0, c1)], k, s, d)[1]
                 for j, (s, d) in enumerate(levels)]
                for r in range(2)
            ]
            success[c0, c1] = any(v[0] for v in verdicts) and not all(v[1] for v in verdicts)
    rates = laws @ success @ laws.T
    best = np.unravel_index(np.argmax(rates), rates.shape)
    return float(rates[best]), (int(best[0]), int(best[1]))
