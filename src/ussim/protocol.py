"""N-recipient signing over pairwise key stores.

Key distribution runs in two rounds. In preparation, the sender issues a
batch of n*k hash keys to each recipient over their shared link, so at
first only that recipient sees its batch. In sharing, each recipient
splits its batch into n uniformly random chunks of k keys, keeps the
chunk matching its own index, and moves chunk d to recipient d through a
one-time-padded transfer, labelling every key with its slot in the
original batch. Recipients do this in turn, in index order, each dropping
its batch and split once its shares have moved, so a recipient link
carries the lower index's transfer first. Afterwards each recipient holds
k keys out of every batch, and no user but the sender knows one in full.

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
from .secparams import ProtocolParams, id_bits

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

    slots (id_bits), multipliers (a bits) and offsets (t bits) are each
    packed as in _bitops, at packed_dtype of their width: the smallest of
    uint8, uint16, uint32 and uint64 up to 64 bits, big-endian void byte
    rows above.
    """

    slots: np.ndarray
    multipliers: np.ndarray
    offsets: np.ndarray


@dataclass(frozen=True, eq=False)
class Signature:
    """A message plus one tag per issued key.

    tags has shape (n_recipients, n_recipients * k); tags[i, s]
    authenticates the message under slot s of the batch issued through
    recipient i. Tags must be packed as in _bitops, as packed_dtype(t): the
    smallest of uint8, uint16, uint32 and uint64 for t <= 64, big-endian
    void byte rows (V<ceil(t/8)>) above. The wire layout is a fixed 18-byte
    header (magic b"USS1", version, message bits, tag bits, recipient count,
    keys per chunk, payload byte count) followed by the message and then the
    tags in batch-major slot order, all MSB first and zero-padded to a whole
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


def _check_origin(origin: int, n: int) -> None:
    if not isinstance(origin, (int, np.integer)) or isinstance(origin, bool) or not 0 <= origin < n:
        raise ValueError(f"origin must be in [0, {n}), got {origin!r}")


def _decode_keys(packed: np.ndarray, params: ProtocolParams) -> tuple[np.ndarray, np.ndarray]:
    """Multipliers and offsets of a batch drawn as packed key-store bytes."""
    a, t = params.msg_len_bits, params.tag_len_bits
    count = params.n_recipients * params.k
    return (
        unpack_rows(packed, a, count, stride=a + t),
        unpack_rows(packed, t, count, start=a, stride=a + t),
    )


def key_state_bytes(params: ProtocolParams) -> int:
    """Bytes of packed keys a full distribution holds at its peak.

    The sender's n*n*k issued keys, as many held keys with slot ids, and
    one recipient's n*k batch with its partition, each field at the
    itemsize of its packed_dtype.
    """
    n, k = params.n_recipients, params.k
    key = sum(packed_dtype(w).itemsize for w in (params.msg_len_bits, params.tag_len_bits))
    slot = packed_dtype(id_bits(n, k)).itemsize
    return n * k * (n * (2 * key + slot) + key + slot)


class Sender:
    """The signing user. Issues key batches and publishes tag lists."""

    def __init__(self, network: Network, params: ProtocolParams) -> None:
        _check_network(network, params)
        self.network = network
        self.params = params
        self.user = 0
        # row r holds the batch issued through recipient r, once prepared
        self._issued: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def prepared(self) -> bool:
        return self._issued is not None

    def prepare(self) -> None:
        """Issue a fresh batch of n*k keys to every recipient.

        Spends n*k*(a + t) bits on each sender link. The sender records
        its own noiseless view of each batch, as one row of an (n, n*k)
        block of multipliers and one of offsets; a recipient's view may
        differ where its link flips bits.
        """
        if self._issued is not None:
            raise RuntimeError("preparation already ran on this sender")
        p = self.params
        n, key_len = p.n_recipients, p.msg_len_bits + p.tag_len_bits
        mults = np.empty((n, n * p.k), dtype=packed_dtype(p.msg_len_bits))
        offs = np.empty((n, n * p.k), dtype=packed_dtype(p.tag_len_bits))
        for r in range(n):
            link = self.network.link(self.user, r + 1)
            packed = link.draw_shared(n * p.k * key_len, side=self.user)
            mults[r], offs[r] = _decode_keys(packed, p)
        self._issued = (mults, offs)

    def issued_group(self, origin: int) -> tuple[np.ndarray, np.ndarray]:
        """Multipliers and offsets of the batch issued through one recipient."""
        if not self.prepared:
            raise RuntimeError("prepare() has not run")
        _check_origin(origin, self.params.n_recipients)
        mults, offs = self._issued
        return mults[origin], offs[origin]

    def tags_at(self, message: int, flat: np.ndarray) -> np.ndarray:
        """Tags of message under the issued keys at flat indices of the (n, n*k) list.

        An index of -1, where Recipient._flat_slots puts a slot past the
        list, reads the list's first tag ("clip").
        """
        if not self.prepared:
            raise RuntimeError("prepare() must run before signing")
        p = self.params
        at = flat.reshape(-1)
        mults, offs = (keys.reshape(-1).take(at, mode="clip") for keys in self._issued)
        return tags_of_arrays(mults, offs, message, p.msg_len_bits, p.tag_len_bits).reshape(flat.shape)

    def sign(self, message: int) -> Signature:
        """Tag the message under every issued key, in batch-major slot order."""
        if not self.prepared:
            raise RuntimeError("prepare() must run before signing")
        p = self.params
        _check_message(message, p.msg_len_bits)
        mults, offs = self._issued
        # one call over all n batches: the blocks flattened are batch-major
        tags = tags_of_arrays(
            mults.reshape(-1), offs.reshape(-1), message, p.msg_len_bits, p.tag_len_bits
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
        # True and 1.0 compare like 1, so the type is checked too
        if (not isinstance(index, (int, np.integer)) or isinstance(index, bool)
                or not 0 <= index < params.n_recipients):
            raise ValueError(
                f"recipient index must be an int in [0, {params.n_recipients}), got {index!r}"
            )
        self.network = network
        self.params = params
        self.index = int(index)
        self.user = self.index + 1
        self._batch: tuple[np.ndarray, np.ndarray] | None = None  # until end_sharing
        self._partition: np.ndarray | None = None  # (n, k): row d is chunk d's slots
        self._id_bits = id_bits(params.n_recipients, params.k)
        self._slot_dtype = packed_dtype(self._id_bits)
        # row origin of each (n, k) block holds the share of that origin's batch
        shape = (params.n_recipients, params.k)
        self._held = OriginKeys(
            np.empty(shape, dtype=self._slot_dtype),
            np.empty(shape, dtype=packed_dtype(params.msg_len_bits)),
            np.empty(shape, dtype=packed_dtype(params.tag_len_bits)),
        )
        self._origins: set[int] = set()  # origins whose row is filled

    def receive_batch(self) -> None:
        """Read this recipient's (possibly noisy) view of its issued batch."""
        # its own chunk is held from make_partition on, after the batch is gone too
        if self._batch is not None or self.index in self._origins:
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
        if self.index in self._origins:
            raise RuntimeError("partition already drawn")
        if self._batch is None:
            raise RuntimeError("receive_batch() must run before partitioning")
        p = self.params
        rng = np.random.default_rng([self.network.seed, PARTITION_STREAM, self.index])
        perm = rng.permutation(p.n_recipients * p.k).astype(self._slot_dtype)
        self._partition = perm.reshape(p.n_recipients, p.k)
        self._partition.sort(axis=1)
        self._hold(self.index, self._share(self.index))

    def send_share(self, other: "Recipient") -> None:
        """One-time-pad chunk other.index of this batch to that recipient.

        Each key travels as slot id plus multiplier plus offset, costing
        k * (id_bits + a + t) pad bits on the connecting link. The share
        moves as packed values; the receiver copies them into its blocks
        and applies the link's flips there.
        """
        flips = self._spend_share_pad(other)
        other._receive_share(self.index, self._share(other.index), flips)

    def end_sharing(self) -> None:
        """Drop batch and partition for good, once this recipient's shares moved."""
        self._batch = self._partition = None

    def _share(self, chunk_index: int) -> OriginKeys:
        """The keys of one chunk, with its sorted slots."""
        slots = self._partition[chunk_index]
        rows = slots.astype(np.intp)  # indexing with narrow ints is slower
        mult, off = self._batch
        return OriginKeys(slots, mult[rows], off[rows])

    def _spend_share_pad(self, other: "Recipient") -> np.ndarray:
        """Spend the pad positions of the share for other; return its flips.

        Alone, this is the transfer as its link sees it: cursors and
        consumption advance exactly as send_share's, and no share is built.
        """
        if self._partition is None:
            raise RuntimeError("no partition: make_partition() has not run or sharing ended")
        if other.index == self.index:
            raise ValueError("a recipient does not share with itself")
        p = self.params
        width = self._id_bits + p.msg_len_bits + p.tag_len_bits
        link = self.network.link(self.user, other.user)
        return link.otp_transfer(p.k * width, from_side=self.user)

    def _hold(self, origin: int, share: OriginKeys) -> None:
        """Copy a share into row origin of the held blocks."""
        if origin in self._origins:
            raise RuntimeError(f"share from origin {origin} already received")
        for block, values in zip(self._held, share):
            block[origin] = values
        self._origins.add(origin)

    def _receive_share(self, origin: int, share: OriginKeys, flips: np.ndarray) -> None:
        self._hold(origin, share)
        p = self.params
        widths = (self._id_bits, p.msg_len_bits, p.tag_len_bits)
        flip_bits([(block[origin], w) for block, w in zip(self._held, widths)], flips)

    @property
    def distribution_complete(self) -> bool:
        return len(self._origins) == self.params.n_recipients

    def held_group(self, origin: int) -> OriginKeys:
        """This recipient's k-key share of one batch, as views of its held rows.

        Writing to them changes what verify reads.
        """
        _check_origin(origin, self.params.n_recipients)
        if origin not in self._origins:
            raise ValueError(f"no keys held from origin {origin!r}")
        return OriginKeys(*(block[origin] for block in self._held))

    def verify(self, signature: Signature, level: int) -> VerifyResult:
        """Acceptance test at one level, judged by level_rule.

        A key whose slot id was corrupted past the tag list's range counts
        as a disagreement.
        """
        if not self.distribution_complete:
            raise RuntimeError(
                f"recipient {self.index} has shares from {len(self._origins)} of "
                f"{self.params.n_recipients} batches; distribution is incomplete"
            )
        _check_signature_match(signature, self.params)
        level, s, delta = self.params.thresholds(level)
        flat = self._flat_slots()
        published = signature.tags.reshape(-1).take(flat, mode="clip")
        counts = self._mismatch_counts(published, self._expected_tags(signature.message), flat)
        passed, accepted = level_rule(counts, self.params.k, s, delta)
        return VerifyResult(
            recipient_index=self.index,
            level=level,
            accepted=bool(accepted),
            groups_passed=int(passed),
            n_groups=self.params.n_recipients,
            mismatch_counts=tuple(counts.tolist()),
            s_threshold=s,
            delta_threshold=delta,
        )

    def _expected_tags(self, message: int) -> np.ndarray:
        """Tags of message under the held keys; row origin holds that group's k."""
        p = self.params
        _, mults, offs = self._held
        return tags_of_arrays(
            mults.reshape(-1), offs.reshape(-1), message, p.msg_len_bits, p.tag_len_bits
        ).reshape(mults.shape)

    def _flat_slots(self) -> np.ndarray:
        """(n, k) indices of the held slots into a flattened (n, n*k) tag list.

        Slot s of group origin is flat tag origin * n*k + s; a slot past n*k
        is -1.
        """
        n, k = self.params.n_recipients, self.params.k
        slots = self._held.slots.astype(np.intp)
        flat = slots + np.arange(0, n * n * k, n * k)[:, None]
        flat[slots >= n * k] = -1
        return flat

    @staticmethod
    def _mismatch_counts(published: np.ndarray, expected: np.ndarray, flat: np.ndarray) -> np.ndarray:
        """Per group, how many held slots' published tags differ from expected.

        published holds the tags of an (n, n*k) list read at flat, which is
        _flat_slots() with "clip"; a slot at -1 counts as a mismatch.
        """
        return np.count_nonzero((flat < 0) | (published != expected), axis=1)


def level_rule(counts: np.ndarray, k: int, s: float, delta: float):
    """Passing group count and verdict of mismatch counts over the last axis.

    A group passes when strictly fewer than s*k of its k keys disagree;
    the signature is accepted when the passing fraction strictly exceeds
    delta.
    """
    passed = (counts / k < s).sum(axis=-1)
    return passed, passed / counts.shape[-1] > delta


def run_distribution(
    network: Network, params: ProtocolParams, holder: int | None = None
) -> tuple[Sender, list[Recipient]]:
    """Run preparation and sharing; return the sender and all recipients.

    Recipients take turns in index order: each receives and partitions its
    batch, sends its shares in index order, then ends its sharing. So for
    each pair lo < hi, lo sends to hi from the link's cursor 0 and then hi
    sends to lo. Flips depend only on link and cursor, and a partition only
    on its own seed, so one network seed always gives the same outcome.

    With holder=h, only the transfers over h's links run: 2(n-1) instead
    of n(n-1). Recipient h ends up with exactly the keys a full run gives
    it, since every batch is still received and partitioned; the other
    recipients send only their share for h and cannot verify. h's own
    transfers only spend their pad positions, so every link cursor and
    every consumption count still equals a full run's.
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
    for src in recipients:
        src.receive_batch()
        src.make_partition()
        for dst in recipients:
            if dst is src or holder not in (None, src.index, dst.index):
                continue
            if src.index == holder:
                src._spend_share_pad(dst)
            else:
                src.send_share(dst)
        src.end_sharing()
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
