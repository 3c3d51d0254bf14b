"""Simulated pairwise key stores.

Every unordered pair of users shares one LinkKeyStore: an unbounded pool of
identical secret bits delivered at a configured rate, standing in for a key
exchange link. Each endpoint reads the pool through its own cursor. The two
views agree bit for bit except that one designated endpoint (the
higher-numbered user) sees each bit flipped independently with the link's
flip probability, which models noisy key delivery on the receiving side.

Pool bits are position-addressed and derived from the network seed, so any
two runs with the same seed and the same operation sequence observe
identical streams. Consumption is counted once per pool position, however
many endpoints read it, because the position corresponds to one shared
secret bit.

A one-time-padded transfer spends the same positions on both endpoints,
and the two pads cancel except where the noisy side's view flipped. So
otp_transfer hashes no pool bits at all: it draws only the noisy side's
flip mask at the shared cursor (and nothing on a noiseless link), and
requires the two cursors to agree, since a desynced link would XOR
unrelated pads into the payload.
"""
from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field

import numpy as np

from ._bitops import bytes_to_bits
from .secparams import ProtocolParams, id_bits

__all__ = [
    "LinkKeyStore",
    "LinkSettings",
    "NetworkConfig",
    "Network",
    "TimeToReady",
    "time_to_ready",
]

_BLOCK_BITS = 512  # one blake2b digest per block
_FLIP_STREAM = 0x464C4950  # stream label, distinct from pool positions


def _stream_key(seed: int, user_a: int, user_b: int) -> bytes:
    h = hashlib.blake2b(digest_size=32)
    h.update(b"ussim-link")
    h.update(struct.pack(">qqq", seed, user_a, user_b))
    return h.digest()


class LinkKeyStore:
    """Shared key pool between two users.

    Endpoints are identified by user index. draw_shared hands out the next
    n bits as seen from one endpoint; otp_transfer spends pad positions on
    both endpoints to move a payload across.
    """

    def __init__(
        self,
        user_a: int,
        user_b: int,
        *,
        seed: int = 0,
        rate_bps: float = 1000.0,
        flip_prob: float = 0.0,
    ) -> None:
        if user_a == user_b:
            raise ValueError("a link needs two distinct users")
        if user_a < 0 or user_b < 0:
            raise ValueError("user indices must be non-negative")
        if rate_bps <= 0:
            raise ValueError(f"rate_bps must be positive, got {rate_bps}")
        if not 0 <= flip_prob <= 1:
            raise ValueError(f"flip_prob must be in [0, 1], got {flip_prob}")
        if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed < 1 << 63:
            raise ValueError(f"seed must be an int in [0, 2**63), got {seed}")
        self.user_a, self.user_b = sorted((user_a, user_b))
        self.rate_bps = float(rate_bps)
        self.flip_prob = float(flip_prob)
        self.noisy_side = self.user_b  # flips land on the receiving side's view
        self._key = _stream_key(seed, self.user_a, self.user_b)
        # keyed once; each block hashes its counter into a copy of this state
        self._hasher = hashlib.blake2b(key=self._key, digest_size=64)
        self._cursor = {self.user_a: 0, self.user_b: 0}
        self._highwater = 0

    @property
    def users(self) -> tuple[int, int]:
        return (self.user_a, self.user_b)

    def _base_bits(self, start: int, n_bits: int) -> np.ndarray:
        first = start // _BLOCK_BITS
        last = (start + n_bits - 1) // _BLOCK_BITS if n_bits else first
        chunks = []
        for block in range(first, last + 1):
            h = self._hasher.copy()
            h.update(block.to_bytes(8, "big"))
            chunks.append(h.digest())
        bits = bytes_to_bits(b"".join(chunks), (last - first + 1) * _BLOCK_BITS)
        off = start - first * _BLOCK_BITS
        return bits[off : off + n_bits].copy()

    def _flip_mask(self, start: int, n_bits: int) -> np.ndarray:
        entropy = int.from_bytes(self._key, "big")
        rng = np.random.default_rng([entropy, _FLIP_STREAM, start])
        return rng.random(n_bits) < self.flip_prob

    def draw_shared(self, n_bits: int, side: int) -> np.ndarray:
        """Next n_bits of the pool as seen from one endpoint.

        Both endpoints reading the same positions get identical bits, except
        for the noisy side's independent flips. Advances only that
        endpoint's cursor; consumption counts each position once.
        """
        if side not in self._cursor:
            raise ValueError(f"user {side} is not an endpoint of link {self.users}")
        if not isinstance(n_bits, int) or isinstance(n_bits, bool) or n_bits < 0:
            raise ValueError(f"n_bits must be a non-negative int, got {n_bits}")
        start = self._cursor[side]
        bits = self._base_bits(start, n_bits)
        if side == self.noisy_side and self.flip_prob > 0 and n_bits:
            bits ^= self._flip_mask(start, n_bits).astype(np.uint8)
        self._cursor[side] = start + n_bits
        self._highwater = max(self._highwater, self._cursor[side])
        return bits

    def otp_transfer(self, payload: np.ndarray, from_side: int) -> np.ndarray:
        """One-time-pad a payload across the link.

        Both endpoints spend len(payload) pad positions from the same
        cursor. Their pads are equal except where the noisy side's view
        flipped, so the delivered payload is the sent one XOR that side's
        flip mask at the shared cursor: exact on a noiseless link. Neither
        pad is drawn; only the flip mask is, when the link is noisy.
        Raises ValueError if the two cursors disagree.
        """
        if from_side not in self._cursor:
            raise ValueError(f"user {from_side} is not an endpoint of link {self.users}")
        payload = np.asarray(payload, dtype=np.uint8)
        start = self._cursor[self.user_a]
        if self._cursor[self.user_b] != start:
            raise ValueError(
                f"link {self.users} is out of sync: user {self.user_a} is at bit "
                f"{start}, user {self.user_b} at bit {self._cursor[self.user_b]}"
            )
        n_bits = payload.size
        if self.flip_prob > 0 and n_bits:
            delivered = payload ^ self._flip_mask(start, n_bits).astype(np.uint8)
        else:
            delivered = payload.copy()
        end = start + n_bits
        self._cursor[self.user_a] = self._cursor[self.user_b] = end
        self._highwater = max(self._highwater, end)
        return delivered

    def consumed_bits(self) -> int:
        """Pool positions handed out so far (counted once per position)."""
        return self._highwater


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
        if not isinstance(self.n_users, int) or self.n_users < 2:
            raise ValueError(f"users must be an int >= 2, got {self.n_users}")
        if self.default_rate_bps <= 0:
            raise ValueError(
                f"default_rate_bps must be positive, got {self.default_rate_bps}"
            )
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or not 0 <= self.seed < 1 << 63:
            raise ValueError(f"seed must be an int in [0, 2**63), got {self.seed}")
        if not 0 <= self.default_flip_prob <= 1:
            raise ValueError(
                f"default_flip_prob must be in [0, 1], got {self.default_flip_prob}"
            )
        normalized: dict[tuple[int, int], LinkSettings] = {}
        for pair, settings in self.links.items():
            a, b = sorted(pair)
            if a == b:
                raise ValueError(f"link ({pair}) must join two distinct users")
            if not 0 <= a < b < self.n_users:
                raise ValueError(f"link ({a}, {b}) names a user outside [0, {self.n_users})")
            if (a, b) in normalized:
                raise ValueError(f"link ({a}, {b}) configured twice")
            if settings.rate_bps is not None and settings.rate_bps <= 0:
                raise ValueError(f"rate_bps must be positive on link ({a}, {b})")
            if settings.flip_prob is not None and not 0 <= settings.flip_prob <= 1:
                raise ValueError(f"flip_prob must be in [0, 1] on link ({a}, {b})")
            normalized[(a, b)] = settings
        object.__setattr__(self, "links", normalized)

    @classmethod
    def from_dict(cls, raw: dict) -> "NetworkConfig":
        known = {"users", "default_rate_bps", "default_flip_prob", "seed", "links"}
        for key in raw:
            if key not in known:
                raise ValueError(f"unknown config key {key!r}")
        if "users" not in raw:
            raise ValueError("config key 'users' is required")
        links: dict[tuple[int, int], LinkSettings] = {}
        for i, entry in enumerate(raw.get("links", [])):
            entry_known = {"a", "b", "rate_bps", "flip_prob"}
            for key in entry:
                if key not in entry_known:
                    raise ValueError(f"unknown key {key!r} in links[{i}]")
            if "a" not in entry or "b" not in entry:
                raise ValueError(f"links[{i}] needs both 'a' and 'b'")
            links[(entry["a"], entry["b"])] = LinkSettings(
                rate_bps=entry.get("rate_bps"),
                flip_prob=entry.get("flip_prob"),
            )
        return cls(
            n_users=raw["users"],
            default_rate_bps=raw.get("default_rate_bps", 1000.0),
            default_flip_prob=raw.get("default_flip_prob", 0.0),
            seed=raw.get("seed", 0),
            links=links,
        )

    @classmethod
    def from_json(cls, text: str) -> "NetworkConfig":
        return cls.from_dict(json.loads(text))

    def rate(self, user_a: int, user_b: int) -> float:
        settings = self.links.get(tuple(sorted((user_a, user_b))))
        if settings is None or settings.rate_bps is None:
            return self.default_rate_bps
        return settings.rate_bps

    def flip_prob(self, user_a: int, user_b: int) -> float:
        settings = self.links.get(tuple(sorted((user_a, user_b))))
        if settings is None or settings.flip_prob is None:
            return self.default_flip_prob
        return settings.flip_prob


class Network:
    """Live key stores for every unordered pair of users."""

    def __init__(self, config: NetworkConfig) -> None:
        self.config = config
        self.seed = config.seed
        self._stores: dict[tuple[int, int], LinkKeyStore] = {}
        for a in range(config.n_users):
            for b in range(a + 1, config.n_users):
                self._stores[(a, b)] = LinkKeyStore(
                    a,
                    b,
                    seed=config.seed,
                    rate_bps=config.rate(a, b),
                    flip_prob=config.flip_prob(a, b),
                )

    @property
    def n_users(self) -> int:
        return self.config.n_users

    def link(self, user_a: int, user_b: int) -> LinkKeyStore:
        pair = tuple(sorted((user_a, user_b)))
        store = self._stores.get(pair)
        if store is None:
            raise ValueError(f"no link between users {user_a} and {user_b}")
        return store

    def total_consumed(self) -> dict[tuple[int, int], int]:
        """Bits consumed per link since construction."""
        return {pair: store.consumed_bits() for pair, store in self._stores.items()}


@dataclass(frozen=True)
class TimeToReady:
    seconds: float
    binding_link: tuple[int, int]
    per_link_seconds: dict[tuple[int, int], float]


def time_to_ready(config: NetworkConfig, params: ProtocolParams) -> TimeToReady:
    """Time until every link has delivered its distribution-stage bits.

    User 0 is the sender; user r is recipient r - 1. A sender link carries
    N*k keys of a + t bits; a recipient link carries one k-key transfer in
    each direction, each key prefixed by its identifier. Links fill in
    parallel, so readiness is set by the slowest link.
    """
    n, k = params.n_recipients, params.k
    if config.n_users != n + 1:
        raise ValueError(
            f"config has {config.n_users} users but params need {n + 1} (sender + {n})"
        )
    key_len = params.msg_len_bits + params.tag_len_bits
    ib = id_bits(n, k)
    per_link: dict[tuple[int, int], float] = {}
    for r in range(1, n + 1):
        per_link[(0, r)] = n * k * key_len / config.rate(0, r)
    for r1 in range(1, n + 1):
        for r2 in range(r1 + 1, n + 1):
            per_link[(r1, r2)] = 2 * k * (key_len + ib) / config.rate(r1, r2)
    binding = max(per_link, key=lambda pair: (per_link[pair], -pair[0], -pair[1]))
    return TimeToReady(
        seconds=per_link[binding],
        binding_link=binding,
        per_link_seconds=per_link,
    )
