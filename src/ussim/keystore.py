"""Simulated pairwise key stores.

Every unordered pair of users shares one LinkKeyStore: an unbounded pool of
identical secret bits delivered at a configured rate, standing in for a key
exchange link. Each endpoint reads the pool through its own cursor. The two
views agree bit for bit except that one designated endpoint (the
higher-numbered user) sees each bit flipped independently with the link's
flip probability, which models noisy key delivery on the receiving side.

Every read is a pure function of pool position, drawn from one counter-based
Philox generator (Salmon et al., SC 2011) re-keyed per read, so a read's
bits do not depend on how reads were batched or which endpoint read first,
and two runs with the same seed and operation sequence observe identical
streams. A link's key is a 32-byte blake2b digest of STREAM_VERSION, the
network seed and the two endpoints; its first 16 bytes key the pool and
its last 16 the flips, each read as a big-endian int.

* Pool bits: 64-bit pool word w is lane w % 4 of the first block that a
  Philox generator started at counter w // 4 returns, read most significant
  bit first. A read generates the words it covers, nothing is kept.
* Flips: flip block b covers a power-of-two number of positions, sized
  from q to hold about FLIPS_PER_BLOCK expected flips and capped at
  MAX_FLIP_BLOCK_BITS. Its flip positions are the partial sums, minus one,
  of iid Geometric(q) gaps drawn by a Philox generator started at counter
  b * 2**128, which is exactly an independent Bernoulli(q) flip per
  position (Devroye 1986, ch. X). A read draws each flip block it touches,
  except the last one drawn, which is kept; its work grows with the flips
  in its range plus at most about 2 * FLIPS_PER_BLOCK, not with the number
  of bits. A Network builds each link's store on first use.

read returns any range of the pool as one endpoint sees it, packed most
significant bit first into ceil(n / 8) bytes, never one byte per bit, and
flips the noisy side's flip positions in a range; neither moves a cursor.
spend moves one endpoint's cursor past a range and reads nothing;
draw_shared is spend then read; otp_transfer moves both cursors, then reads flips.
Consumption is counted once per pool position, however many endpoints
read it, because the position corresponds to one shared secret bit.

A one-time-padded transfer spends the same positions on both endpoints,
and the two pads cancel except where the noisy side's view flipped. So
otp_transfer generates no pool bits at all: it returns only the noisy
side's flip positions inside the transfer (none on a noiseless link), and
requires the two cursors to agree, since a desynced link would XOR
unrelated pads into the payload.

STREAM_VERSION records the layout of these streams; it changes, and is
mixed into every link key, whenever a change moves any seeded output.
"""
from __future__ import annotations

import functools
import hashlib
import json
import math
import struct
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from ._bitops import flip_bits
from .secparams import as_int, as_real

__all__ = [
    "STREAM_VERSION",
    "LinkKeyStore",
    "LinkSettings",
    "NetworkConfig",
    "Network",
]

STREAM_VERSION = 3
FLIPS_PER_BLOCK = 1 << 10  # expected flips a flip block is sized for
MAX_FLIP_BLOCK_BITS = 1 << 20  # positions per flip block at low q
# Resident bytes of one LinkKeyStore a run has used. tracemalloc counts
# 720-750 bytes a store at n = 50 to 400; with allocator overhead the peak
# RSS of `uss run --a 8 --t 8 --k 1 --lmax 0` grew by 1.02 KiB a link at
# n = 800 and 1.11 KiB at n = 400 over its keys and the interpreter.
LINK_STORE_BYTES = 1 << 10
_U64 = (1 << 64) - 1
_MAX_SEED = (1 << 63) - 1  # seeds are packed as signed 64-bit ints


@functools.cache
def _philox() -> tuple[np.random.Generator, dict]:
    """The one generator every link's pool reads and flip blocks draw from.

    Returned with a state dict that _philox_at fills in place. Built on
    first use, since the first touch of numpy.random costs about 10 ms of
    import time.
    """
    rng = np.random.Generator(np.random.Philox(0))
    return rng, rng.bit_generator.state


def _philox_at(key: int, counter: int) -> np.random.Generator:
    """The shared generator in the state of Philox(key=key, counter=counter)."""
    rng, state = _philox()
    inner = state["state"]
    inner["key"][:] = (key & _U64, key >> 64)
    inner["counter"][:] = (counter & _U64, counter >> 64 & _U64, counter >> 128 & _U64, counter >> 192)
    rng.bit_generator.state = state  # its buffer_pos of 4 empties the buffer
    return rng


def _check_rate(rate, name: str) -> None:
    span = "a positive finite number"
    if not (as_real(rate, name, span) > 0 and math.isfinite(rate)):
        raise ValueError(f"{name} must be {span}, got {rate!r}")


def _check_flip_prob(value, name: str) -> None:
    span = "a number in [0, 1]"
    if not 0 <= as_real(value, name, span) <= 1:  # False for NaN
        raise ValueError(f"{name} must be {span}, got {value!r}")


def _flip_block_bits(flip_prob: float) -> int:
    """Positions per flip block on a link with flip probability flip_prob > 0.

    The largest power of two holding at most FLIPS_PER_BLOCK expected
    flips, capped at MAX_FLIP_BLOCK_BITS.
    """
    if flip_prob * MAX_FLIP_BLOCK_BITS <= FLIPS_PER_BLOCK:
        return MAX_FLIP_BLOCK_BITS
    return 1 << (int(FLIPS_PER_BLOCK / flip_prob).bit_length() - 1)


def _stream_key(seed: int, user_a: int, user_b: int) -> bytes:
    h = hashlib.blake2b(digest_size=32)
    h.update(b"ussim-link-v%d" % STREAM_VERSION)
    h.update(struct.pack(">qqq", seed, user_a, user_b))
    return h.digest()


class LinkKeyStore:
    """Shared key pool between two users.

    Endpoints are identified by user index. read and flips look at any
    range by position; spend hands out the next n bits of one endpoint by
    their start; draw_shared hands them out as seen from that endpoint,
    packed; otp_transfer spends pad positions on both endpoints and reports
    where the payload flipped.
    """

    def __init__(
        self,
        user_a: int,
        user_b: int,
        *,
        seed: int = 0,
        flip_prob: float = 0.0,
    ) -> None:
        user_a, user_b = as_int(user_a, "user_a", 0), as_int(user_b, "user_b", 0)
        if user_a == user_b:
            raise ValueError("a link needs two distinct users")
        _check_flip_prob(flip_prob, "flip_prob")
        seed = as_int(seed, "seed", 0, _MAX_SEED)
        self.user_a, self.user_b = sorted((user_a, user_b))
        self.flip_prob = float(flip_prob)
        self.noisy_side = self.user_b  # flips land on the receiving side's view
        key = _stream_key(seed, self.user_a, self.user_b)
        self._pool_key = int.from_bytes(key[:16], "big")
        self._flip_key = int.from_bytes(key[16:], "big")
        self._flip_block = _flip_block_bits(self.flip_prob) if self.flip_prob else 0
        self._flip_cache: tuple[int, np.ndarray] = (-1, np.zeros(0, dtype=np.int64))
        self._cursor = {self.user_a: 0, self.user_b: 0}

    @property
    def users(self) -> tuple[int, int]:
        return (self.user_a, self.user_b)

    def read(self, start: int, n_bits: int, side: int) -> np.ndarray:
        """Pool bits start .. start + n_bits as one endpoint sees them; moves no cursor.

        Packed into ceil(n_bits / 8) zero-padded bytes. The two endpoints'
        bits differ only at the noisy side's flips.
        """
        side, n_bits = self._check(side, n_bits, "side")
        start = as_int(start, "start", 0)
        n_bytes = (n_bits + 7) // 8
        if not n_bits:
            return np.zeros(0, dtype=np.uint8)
        first = start // 256  # the Philox block of the first word: 4 words of 64 bits
        words = (start + n_bits + 63) // 64 - 4 * first
        raw = _philox_at(self._pool_key, first).bit_generator.random_raw(words)
        if raw.dtype != np.dtype(">u8"):  # a little-endian machine: words to MSB-first bytes
            raw.byteswap(inplace=True)
        raw = raw.view(np.uint8)
        byte, shift = divmod(start - 256 * first, 8)
        out = raw[byte : byte + n_bytes]
        if shift:
            low = raw[byte + 1 : byte + n_bytes + 1] >> (8 - shift)
            out <<= shift
            out[: low.size] |= low
        if n_bits % 8:
            out[-1] &= 0xFF << (8 - n_bits % 8) & 0xFF
        if side == self.noisy_side:
            flip_bits([(out, 8)], self.flips(start, n_bits))
        return out

    def flips(self, start: int, n_bits: int) -> np.ndarray:
        """Sorted noisy-side flip positions in a range, relative to start; moves no cursor."""
        start, n_bits = as_int(start, "start", 0), as_int(n_bits, "n_bits", 0)
        if self.flip_prob == 0 or not n_bits:
            return np.zeros(0, dtype=np.int64)
        size = self._flip_block
        found = []
        for block in range(start // size, (start + n_bits - 1) // size + 1):
            pos, first = self._block_flips(block), block * size
            lo, hi = pos.searchsorted((start - first, start + n_bits - first))
            found.append(pos[lo:hi] + (first - start))
        return np.concatenate(found)

    def _block_flips(self, block: int) -> np.ndarray:
        """Sorted flip positions of one flip block, relative to its start.

        The last block drawn is kept, since reads move forward through the
        pool and a run of short reads falls in the same block.
        """
        if self._flip_cache[0] == block:
            return self._flip_cache[1]
        # counter-based: block b starts its own stream at counter b * 2**128
        rng = _philox_at(self._flip_key, block << 128)
        size, q = self._flip_block, self.flip_prob
        chunk = int(size * q + 4 * math.sqrt(size * q)) + 8
        found, last = [], -1
        while last < size:
            # clipped, so that gaps of int64 max at tiny q cannot overflow the sum
            pos = np.minimum(rng.geometric(q, chunk), size + 1).cumsum() + last
            found.append(pos[: pos.searchsorted(size)])
            last = int(pos[-1])
        pos = np.concatenate(found)
        self._flip_cache = (block, pos)
        return pos

    def _check(self, side: int, n_bits: int, name: str) -> tuple[int, int]:
        side = as_int(side, name)  # before the lookup, which would take True as 1
        if side not in self._cursor:
            raise ValueError(f"user {side} is not an endpoint of link {self.users}")
        return side, as_int(n_bits, "n_bits", 0)

    def spend(self, n_bits: int, side: int) -> int:
        """Advance one endpoint's cursor past its next n_bits; return where they start.

        Reads nothing: the spent range stays readable by position through read.
        """
        side, n_bits = self._check(side, n_bits, "side")
        start = self._cursor[side]
        self._cursor[side] = start + n_bits
        return start

    def draw_shared(self, n_bits: int, side: int) -> np.ndarray:
        """read of the next n_bits from one endpoint's cursor, which advances."""
        return self.read(self.spend(n_bits, side), n_bits, side)

    def otp_transfer(self, n_bits: int, from_side: int) -> np.ndarray:
        """One-time-pad an n_bits payload across the link.

        Both endpoints spend n_bits pad positions from the same cursor.
        Their pads are equal except where the noisy side's view flipped,
        so the payload arrives as sent except at those positions, which
        are returned sorted and relative to the payload's first bit: an
        empty int64 array on a noiseless link. Neither pad is drawn.
        Raises ValueError if the two cursors disagree.
        """
        _, n_bits = self._check(from_side, n_bits, "from_side")
        start = self._cursor[self.user_a]
        if self._cursor[self.user_b] != start:
            raise ValueError(
                f"link {self.users} is out of sync: user {self.user_a} is at bit "
                f"{start}, user {self.user_b} at bit {self._cursor[self.user_b]}"
            )
        self._cursor[self.user_a] = self._cursor[self.user_b] = start + n_bits
        return self.flips(start, n_bits)

    def consumed_bits(self) -> int:
        """Pool positions handed out so far, once each: cursors only move forward."""
        return max(self._cursor.values())


@dataclass(frozen=True)
class LinkSettings:
    """Per-link overrides; None falls back to the network default."""

    rate_bps: float | None = None
    flip_prob: float | None = None


@dataclass
class NetworkConfig:
    """Static description of a fully connected network of key stores."""

    n_users: int
    default_rate_bps: float = 1000.0
    default_flip_prob: float = 0.0
    seed: int = 0
    links: dict[tuple[int, int], LinkSettings] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.n_users = as_int(self.n_users, "users", 2)
        _check_rate(self.default_rate_bps, "default_rate_bps")
        self.seed = as_int(self.seed, "seed", 0, _MAX_SEED)
        _check_flip_prob(self.default_flip_prob, "default_flip_prob")
        if not isinstance(self.links, Mapping):
            raise ValueError(f"links must map user pairs to LinkSettings, got {self.links!r}")
        normalized: dict[tuple[int, int], LinkSettings] = {}
        for pair, settings in self.links.items():
            if not isinstance(pair, tuple) or len(pair) != 2:
                raise ValueError(f"link {pair!r} must be a pair of users")
            a, b = sorted(as_int(u, f"link {pair} endpoint") for u in pair)
            if a == b:
                raise ValueError(f"link ({pair}) must join two distinct users")
            if not 0 <= a < b < self.n_users:
                raise ValueError(f"link ({a}, {b}) names a user outside [0, {self.n_users})")
            if (a, b) in normalized:
                raise ValueError(f"link ({a}, {b}) configured twice")
            if not isinstance(settings, LinkSettings):
                raise ValueError(f"link ({a}, {b}) settings must be a LinkSettings, got {settings!r}")
            if settings.rate_bps is not None:
                _check_rate(settings.rate_bps, f"rate_bps on link ({a}, {b})")
            if settings.flip_prob is not None:
                _check_flip_prob(settings.flip_prob, f"flip_prob on link ({a}, {b})")
            normalized[(a, b)] = settings
        object.__setattr__(self, "links", normalized)

    @classmethod
    def from_dict(cls, raw: dict) -> "NetworkConfig":
        if not isinstance(raw, dict):
            raise ValueError(f"a network config must be an object, got {raw!r}")
        known = {"users", "default_rate_bps", "default_flip_prob", "seed", "links"}
        for key in raw:
            if key not in known:
                raise ValueError(f"unknown config key {key!r}")
        if "users" not in raw:
            raise ValueError("config key 'users' is required")
        entries = raw.get("links", [])
        if not isinstance(entries, list):
            raise ValueError(f"config key 'links' must be a list of link objects, got {entries!r}")
        links: dict[tuple[int, int], LinkSettings] = {}
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict):
                raise ValueError(f"links[{i}] must be an object, got {entry!r}")
            entry_known = {"a", "b", "rate_bps", "flip_prob"}
            for key in entry:
                if key not in entry_known:
                    raise ValueError(f"unknown key {key!r} in links[{i}]")
            if "a" not in entry or "b" not in entry:
                raise ValueError(f"links[{i}] needs both 'a' and 'b'")
            ends = tuple(as_int(entry[end], f"links[{i}] '{end}'") for end in ("a", "b"))
            if ends in links:  # a dict would keep only the last of the two
                raise ValueError(f"links[{i}] configures link {ends} a second time")
            links[ends] = LinkSettings(
                rate_bps=entry.get("rate_bps"),
                flip_prob=entry.get("flip_prob"),
            )
        given = {key: raw[key] for key in known - {"users", "links"} if key in raw}
        return cls(n_users=raw["users"], links=links, **given)

    @classmethod
    def from_json(cls, text: str) -> "NetworkConfig":
        return cls.from_dict(json.loads(text))

    def _setting(self, name: str, user_a: int, user_b: int) -> float:
        """The link's own LinkSettings field name, or the network's default_<name>."""
        value = getattr(self.links.get(tuple(sorted((user_a, user_b)))), name, None)
        return getattr(self, f"default_{name}") if value is None else value

    def rate(self, user_a: int, user_b: int) -> float:
        return self._setting("rate_bps", user_a, user_b)

    def flip_prob(self, user_a: int, user_b: int) -> float:
        return self._setting("flip_prob", user_a, user_b)


class Network:
    """Key stores for every unordered pair of users, each built on first use."""

    def __init__(self, config: NetworkConfig) -> None:
        self.config = config
        self.seed = config.seed
        self._stores: dict[tuple[int, int], LinkKeyStore] = {}

    def link(self, user_a: int, user_b: int) -> LinkKeyStore:
        # before the lookup, which would take 1.0 and True as 1
        a, b = sorted((as_int(user_a, "user_a"), as_int(user_b, "user_b")))
        store = self._stores.get((a, b))
        if store is None:
            if not 0 <= a < b < self.config.n_users:
                raise ValueError(f"no link between users {user_a} and {user_b}")
            store = self._stores[(a, b)] = LinkKeyStore(
                a,
                b,
                seed=self.seed,
                flip_prob=self.config.flip_prob(a, b),
            )
        return store

    def total_consumed(self) -> dict[tuple[int, int], int]:
        """Bits consumed per link since construction; 0 for links never used."""
        n = self.config.n_users
        return {
            (a, b): self._stores[(a, b)].consumed_bits() if (a, b) in self._stores else 0
            for a in range(n)
            for b in range(a + 1, n)
        }

