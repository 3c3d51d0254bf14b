"""N-recipient signing over pairwise key stores.

Key distribution runs in two rounds. In preparation, the sender issues a
batch of n*k hash keys to each recipient over their shared link, so at
first only that recipient sees its batch. In sharing, each recipient
splits its batch into n uniformly random chunks of k keys, keeps the
chunk matching its own index, and moves chunk d to recipient d through a
one-time-padded transfer, labelling every key with its slot in the
original batch. Afterwards each recipient holds k keys out of every
batch, and no single user other than the sender knows any batch in full.

A signature tags the message under all n*n*k issued keys. Verification
at acceptance level l checks, batch by batch, how many of the holder's k
keys disagree with the published tag for their slot: a batch passes when
the disagreeing fraction stays strictly below the level's threshold, and
the signature is accepted when the passing fraction strictly exceeds the
level's quorum. Each step down in level loosens both thresholds, which
is what makes an accepted signature safe to forward: whoever receives it
next verifies one level lower and is overwhelmingly likely to agree.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from ._bitops import flip_bits, pack_rows, packed_dtype, unpack_rows
from .hashing import tags_of_arrays
from .keystore import Network
from .secparams import ProtocolParams, compute_delta, id_bits

__all__ = [
    "OriginKeys",
    "Signature",
    "VerifyResult",
    "Sender",
    "Recipient",
    "run_distribution",
    "forward_chain",
    "key_state_bytes",
]

PARTITION_STREAM = 0x50415254  # seed-sequence tag for partition draws

_MAGIC = b"USS1"
_VERSION = 1
_HEADER = struct.Struct(">4sBHBHII")  # magic, version, a, t, n, k, payload bytes


class OriginKeys(NamedTuple):
    """One recipient's k-key share of the batch issued through one recipient.

    slots are int64; multipliers (a bits) and offsets (t bits) are packed
    as in _bitops: uint64 up to 64 bits, big-endian void byte rows above.
    """

    slots: np.ndarray
    multipliers: np.ndarray
    offsets: np.ndarray


@dataclass(frozen=True, eq=False)
class Signature:
    """A message plus one tag per issued key.

    tags has shape (n_recipients, n_recipients * k); tags[i, s]
    authenticates the message under slot s of the batch issued through
    recipient i. Tags must be packed as in _bitops: uint64 for t <= 64,
    big-endian void byte rows (V<ceil(t/8)>) above. The wire layout is a fixed 18-byte header (magic
    b"USS1", version, message bits, tag bits, recipient count, keys per
    chunk, payload byte count) followed by the message and then the tags
    in batch-major slot order, all MSB first and zero-padded to a whole
    byte.
    """

    message: int
    tags: np.ndarray
    n_recipients: int
    k: int
    msg_len_bits: int
    tag_len_bits: int

    def __post_init__(self) -> None:
        a, t, n, k = self.msg_len_bits, self.tag_len_bits, self.n_recipients, self.k
        _check_header_fields(a, t, n, k)
        _check_message(self.message, a)
        if self.tags.shape != (n, n * k):
            raise ValueError(
                f"tags must have shape {(n, n * k)}, got {self.tags.shape}"
            )
        n_bits = a + n * n * k * t
        if (n_bits + 7) // 8 > 0xFFFFFFFF:
            raise ValueError(
                f"signature payload of {n_bits} bits does not fit the header's "
                f"uint32 byte count"
            )
        if self.tags.dtype != packed_dtype(t):
            raise ValueError(
                f"{t}-bit tags must be packed as {packed_dtype(t)}, got {self.tags.dtype}"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Signature):
            return NotImplemented
        return (
            self.message == other.message
            and self.n_recipients == other.n_recipients
            and self.k == other.k
            and self.msg_len_bits == other.msg_len_bits
            and self.tag_len_bits == other.tag_len_bits
            and np.array_equal(self.tags, other.tags)
        )

    def to_bytes(self) -> bytes:
        a = self.msg_len_bits
        payload = pack_rows(self.tags, self.tag_len_bits, start=a)
        message = (self.message << (-a % 8)).to_bytes((a + 7) // 8, "big")
        payload[: len(message)] |= np.frombuffer(message, dtype=np.uint8)
        header = _HEADER.pack(
            _MAGIC,
            _VERSION,
            a,
            self.tag_len_bits,
            self.n_recipients,
            self.k,
            len(payload),
        )
        return header + payload.tobytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "Signature":
        if len(data) < _HEADER.size:
            raise ValueError(
                f"signature blob is {len(data)} bytes, shorter than the "
                f"{_HEADER.size}-byte header"
            )
        magic, version, a, t, n, k, payload_len = _HEADER.unpack_from(data)
        if magic != _MAGIC:
            raise ValueError(f"bad magic {magic!r}")
        if version != _VERSION:
            raise ValueError(f"unsupported signature version {version}")
        _check_header_fields(a, t, n, k)  # before the payload is read as t-bit fields
        n_bits = a + n * n * k * t
        if payload_len != (n_bits + 7) // 8:
            raise ValueError(
                f"payload length says {payload_len} bytes but the header fields "
                f"need {(n_bits + 7) // 8}"
            )
        expected = _HEADER.size + payload_len
        if len(data) != expected:
            raise ValueError(f"signature blob is {len(data)} bytes, expected {expected}")
        payload = np.frombuffer(data, dtype=np.uint8, offset=_HEADER.size)
        # the payload ends inside its last byte, so only that byte pads
        if np.any(payload[-1:] & ((1 << (8 * payload_len - n_bits)) - 1)):
            raise ValueError("nonzero padding bits after the tag stream")
        message = int.from_bytes(payload[: (a + 7) // 8].tobytes(), "big") >> (-a % 8)
        tags = unpack_rows(payload, t, n * n * k, start=a)
        return cls(
            message=message,
            tags=tags.reshape(n, n * k),
            n_recipients=n,
            k=k,
            msg_len_bits=a,
            tag_len_bits=t,
        )


def _check_header_fields(a: int, t: int, n: int, k: int) -> None:
    if not 1 <= a <= 0xFFFF:
        raise ValueError(f"msg_len_bits must be in [1, 65535], got {a}")
    if not 1 <= t <= min(a, 0xFF):
        raise ValueError(f"tag_len_bits must be in [1, min(msg_len_bits, 255)], got {t}")
    if not 2 <= n <= 0xFFFF:
        raise ValueError(f"n_recipients must be in [2, 65535], got {n}")
    if not 1 <= k <= 0xFFFFFFFF:
        raise ValueError(f"k must be in [1, 2**32 - 1], got {k}")


@dataclass(frozen=True)
class VerifyResult:
    """Outcome of one acceptance test."""

    recipient_index: int
    level: int
    accepted: bool
    groups_passed: int
    n_groups: int
    mismatch_counts: tuple[int, ...]
    s_threshold: float
    delta_threshold: float


def _check_network(network: Network, params: ProtocolParams) -> None:
    want = params.n_recipients + 1
    if network.n_users != want:
        raise ValueError(
            f"network has {network.n_users} users but the protocol needs "
            f"{want} (one sender plus {params.n_recipients} recipients)"
        )


def _check_message(message: int, msg_len_bits: int) -> None:
    if not isinstance(message, int) or isinstance(message, bool):
        raise ValueError(f"message must be an int, got {type(message).__name__}")
    if not 0 <= message < (1 << msg_len_bits):
        raise ValueError(f"message must be in [0, 2**{msg_len_bits})")


def _check_signature_match(signature: Signature, params: ProtocolParams) -> None:
    pairs = [
        ("n_recipients", signature.n_recipients, params.n_recipients),
        ("k", signature.k, params.k),
        ("msg_len_bits", signature.msg_len_bits, params.msg_len_bits),
        ("tag_len_bits", signature.tag_len_bits, params.tag_len_bits),
    ]
    for name, got, want in pairs:
        if got != want:
            raise ValueError(f"signature {name} is {got}, protocol expects {want}")


def _decode_keys(packed: np.ndarray, params: ProtocolParams) -> tuple[np.ndarray, np.ndarray]:
    """Multipliers and offsets of a batch drawn as packed key-store bytes."""
    a, t = params.msg_len_bits, params.tag_len_bits
    count = params.n_recipients * params.k
    return (
        unpack_rows(packed, a, count, stride=a + t),
        unpack_rows(packed, t, count, start=a, stride=a + t),
    )


def key_state_bytes(params: ProtocolParams) -> int:
    """Bytes of packed keys a full distribution leaves in memory.

    The sender keeps all n*n*k issued keys; each recipient keeps its n*k
    batch and the n*k keys it holds, each of those with an int64 slot id.
    """
    n, k = params.n_recipients, params.k
    key = sum(packed_dtype(w).itemsize for w in (params.msg_len_bits, params.tag_len_bits))
    return n * n * k * (3 * key + 8)


class Sender:
    """The signing user. Issues key batches and publishes tag lists."""

    def __init__(self, network: Network, params: ProtocolParams) -> None:
        _check_network(network, params)
        self.network = network
        self.params = params
        self.user = 0
        self._issued: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    @property
    def prepared(self) -> bool:
        return len(self._issued) == self.params.n_recipients

    def prepare(self) -> None:
        """Issue a fresh batch of n*k keys to every recipient.

        Spends n*k*(a + t) bits on each sender link. The sender records
        its own noiseless view of each batch; a recipient's view may
        differ where its link flips bits.
        """
        if self._issued:
            raise RuntimeError("preparation already ran on this sender")
        p = self.params
        key_len = p.msg_len_bits + p.tag_len_bits
        for r in range(p.n_recipients):
            link = self.network.link(self.user, r + 1)
            packed = link.draw_shared(p.n_recipients * p.k * key_len, side=self.user)
            self._issued[r] = _decode_keys(packed, p)

    def issued_group(self, origin: int) -> tuple[np.ndarray, np.ndarray]:
        """Multipliers and offsets of the batch issued through one recipient."""
        if not self.prepared:
            raise RuntimeError("prepare() has not run")
        if origin not in self._issued:
            raise ValueError(f"origin must be in [0, {self.params.n_recipients}), got {origin}")
        return self._issued[origin]

    def sign(self, message: int) -> Signature:
        """Tag the message under every issued key, in batch-major slot order."""
        if not self.prepared:
            raise RuntimeError("prepare() must run before signing")
        p = self.params
        _check_message(message, p.msg_len_bits)
        issued = [self._issued[r] for r in range(p.n_recipients)]
        # one call over all n batches, in batch-major slot order
        tags = tags_of_arrays(
            np.concatenate([mult for mult, _ in issued]),
            np.concatenate([off for _, off in issued]),
            message, p.msg_len_bits, p.tag_len_bits,
        )
        return Signature(
            message=message,
            tags=tags.reshape(p.n_recipients, p.n_recipients * p.k),
            n_recipients=p.n_recipients,
            k=p.k,
            msg_len_bits=p.msg_len_bits,
            tag_len_bits=p.tag_len_bits,
        )


class Recipient:
    """A verifying user. Holds one k-key share of every issued batch."""

    def __init__(self, network: Network, params: ProtocolParams, index: int) -> None:
        _check_network(network, params)
        if not 0 <= index < params.n_recipients:
            raise ValueError(
                f"recipient index must be in [0, {params.n_recipients}), got {index}"
            )
        self.network = network
        self.params = params
        self.index = index
        self.user = index + 1
        self._batch: tuple[np.ndarray, np.ndarray] | None = None
        self._chunks: list[np.ndarray] | None = None
        self._held: dict[int, OriginKeys] = {}

    def receive_batch(self) -> None:
        """Read this recipient's (possibly noisy) view of its issued batch."""
        if self._batch is not None:
            raise RuntimeError("batch already received")
        p = self.params
        key_len = p.msg_len_bits + p.tag_len_bits
        link = self.network.link(0, self.user)
        packed = link.draw_shared(p.n_recipients * p.k * key_len, side=self.user)
        self._batch = _decode_keys(packed, p)

    def make_partition(self) -> None:
        """Split the batch into n uniformly random chunks of k keys each.

        The chunk matching this recipient's own index is kept; the others
        wait for send_share. The draw is private to this recipient: the
        sender never learns which slots ended up where.
        """
        if self._batch is None:
            raise RuntimeError("receive_batch() must run before partitioning")
        if self._chunks is not None:
            raise RuntimeError("partition already drawn")
        p = self.params
        rng = np.random.default_rng([self.network.seed, PARTITION_STREAM, self.index])
        perm = rng.permutation(p.n_recipients * p.k)
        # chunks are views of perm, sorted in place only once kept or sent
        self._chunks = [perm[d * p.k : (d + 1) * p.k] for d in range(p.n_recipients)]
        mult, off = self._batch
        own = self._chunks[self.index]
        own.sort()
        self._held[self.index] = OriginKeys(own.copy(), mult[own], off[own])

    def send_share(self, other: "Recipient") -> None:
        """One-time-pad chunk other.index of this batch to that recipient.

        Each key travels as slot id plus multiplier plus offset, costing
        k * (id_bits + a + t) pad bits on the connecting link. The share
        moves as packed copies; the receiver applies the link's flips.
        """
        flips = self._spend_share_pad(other)
        chunk = self._chunks[other.index]
        chunk.sort()
        mult, off = self._batch
        share = OriginKeys(chunk.astype(np.uint64), mult[chunk], off[chunk])
        other._receive_share(self.index, share, flips)

    def _spend_share_pad(self, other: "Recipient") -> np.ndarray:
        """Spend the pad positions of the share for other; return its flips.

        Alone, this is the transfer as its link sees it: cursors and
        consumption advance exactly as send_share's, and no share is built.
        """
        if self._chunks is None:
            raise RuntimeError("make_partition() must run before sharing")
        if other.index == self.index:
            raise ValueError("a recipient does not share with itself")
        p = self.params
        width = id_bits(p.n_recipients, p.k) + p.msg_len_bits + p.tag_len_bits
        link = self.network.link(self.user, other.user)
        return link.otp_transfer(p.k * width, from_side=self.user)

    def _receive_share(self, origin: int, share: OriginKeys, flips: np.ndarray) -> None:
        if origin in self._held:
            raise RuntimeError(f"share from origin {origin} already received")
        p = self.params
        ib = id_bits(p.n_recipients, p.k)
        flip_bits(
            [(share.slots, ib), (share.multipliers, p.msg_len_bits), (share.offsets, p.tag_len_bits)],
            flips,
        )
        self._held[origin] = share._replace(slots=share.slots.astype(np.int64))

    @property
    def distribution_complete(self) -> bool:
        return len(self._held) == self.params.n_recipients

    def batch_view(self) -> tuple[np.ndarray, np.ndarray]:
        """Multipliers and offsets of the full batch this recipient received."""
        if self._batch is None:
            raise RuntimeError("receive_batch() has not run")
        return self._batch

    def held_group(self, origin: int) -> OriginKeys:
        """This recipient's k-key share of one batch."""
        if origin not in self._held:
            raise ValueError(f"no keys held from origin {origin}")
        return self._held[origin]

    def verify(self, signature: Signature, level: int) -> VerifyResult:
        """Acceptance test at one level.

        A batch passes when strictly fewer than s_level * k of this
        recipient's k key tests disagree with the published tags. A key
        whose slot id was corrupted past the tag list's range counts as a
        disagreement. The signature is accepted when the passing fraction
        strictly exceeds the level's quorum.
        """
        if not self.distribution_complete:
            raise RuntimeError(
                f"recipient {self.index} has shares from {len(self._held)} of "
                f"{self.params.n_recipients} batches; distribution is incomplete"
            )
        p = self.params
        _check_signature_match(signature, p)
        if level not in p.s_levels:
            raise ValueError(f"level must be in [-1, {p.l_max}], got {level}")
        s = p.s_levels[level]
        delta = compute_delta(level, p.d_r)
        n, k = p.n_recipients, p.k
        held = [self._held[origin] for origin in range(n)]
        # one call over all n*k held keys; group origin is rows origin*k onward
        expected_all = tags_of_arrays(
            np.concatenate([h.multipliers for h in held]),
            np.concatenate([h.offsets for h in held]),
            signature.message, p.msg_len_bits, p.tag_len_bits,
        )
        counts = []
        for origin in range(n):
            expected = expected_all[origin * k : (origin + 1) * k]
            slots = held[origin].slots
            valid = (slots >= 0) & (slots < n * k)
            bad = int(np.count_nonzero(~valid))
            published = signature.tags[origin][slots[valid]]
            bad += int(np.count_nonzero(published != expected[valid]))
            counts.append(bad)
        passed = sum(1 for c in counts if c / k < s)
        accepted = passed / n > delta
        return VerifyResult(
            recipient_index=self.index,
            level=level,
            accepted=accepted,
            groups_passed=passed,
            n_groups=n,
            mismatch_counts=tuple(counts),
            s_threshold=s,
            delta_threshold=delta,
        )


def run_distribution(
    network: Network, params: ProtocolParams, holder: int | None = None
) -> tuple[Sender, list[Recipient]]:
    """Run preparation and sharing; return the sender and all recipients.

    Batches are drawn in recipient order and partitioned, then shares move
    link by link: for each pair of recipients lo < hi, lo sends to hi from
    the link's cursor 0 and then hi sends to lo. A transfer's flips depend
    only on its link and cursor, never on other links, so one network seed
    always reproduces the same distribution outcome.

    With holder=h, only the transfers over h's links run: 2(n-1) instead
    of n(n-1). Recipient h ends up with exactly the keys a full run gives
    it, since every batch is still received and partitioned; the other
    recipients stay incomplete and cannot verify. h's own transfers only
    spend their pad positions, so every link cursor and every consumption
    count still equals a full run's, but no share leaves h.
    """
    n = params.n_recipients
    if holder is not None and (
        not isinstance(holder, (int, np.integer))
        or isinstance(holder, bool)
        or not 0 <= holder < n
    ):
        raise ValueError(f"holder must be an int in [0, {n}), got {holder!r}")
    sender = Sender(network, params)
    recipients = [Recipient(network, params, i) for i in range(n)]
    sender.prepare()
    for r in recipients:
        r.receive_batch()
    for r in recipients:
        r.make_partition()
    for lo in recipients:
        for hi in recipients[lo.index + 1 :]:
            if holder is None or holder in (lo.index, hi.index):
                for src, dst in ((lo, hi), (hi, lo)):
                    if src.index == holder:
                        src._spend_share_pad(dst)
                    else:
                        src.send_share(dst)
    return sender, recipients


def forward_chain(
    signature: Signature,
    recipients: Sequence[Recipient],
    start_level: int,
) -> list[VerifyResult]:
    """Verify along a forwarding path, one level lower per hop.

    The first recipient tests at start_level, the next at start_level - 1,
    and so on. Stops at the first rejection; a chain in which everyone
    accepted means the message transferred all the way down.
    """
    if not recipients:
        raise ValueError("forward_chain needs at least one recipient")
    if start_level - (len(recipients) - 1) < -1:
        raise ValueError(
            f"a chain of {len(recipients)} hops starting at level {start_level} "
            f"would drop below level -1"
        )
    results = []
    level = start_level
    for recipient in recipients:
        result = recipient.verify(signature, level)
        results.append(result)
        if not result.accepted:
            break
        level -= 1
    return results
