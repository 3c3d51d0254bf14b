"""N-recipient signing over pairwise key stores.

Key distribution runs in two rounds. In preparation, the sender issues a
batch of n*k hash keys to each recipient over their shared link, so at
first only that recipient sees its batch. In sharing, each recipient
splits its batch into n uniformly random chunks of k keys, keeps the
chunk matching its own index, and moves chunk d to recipient d through a
one-time-padded transfer, labelling every key with its slot in the
original batch. The stages pass batch and chunks on, so recipients keep
only their held keys; they take turns in index order, so a recipient link
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

held_view reads what one recipient holds straight from the key pools by
position, without a distribution, and mismatch_counts judges it as
verify does.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from ._bitops import flip_bits, pack_rows, packed_dtype, unpack_rows
from .hashing import check_message, tags_of_arrays
from .keystore import LINK_STORE_BYTES, Network
from .secparams import (
    ProtocolParams, as_int, check_header_fields, check_users, id_bits, link_bits, share_widths,
)

__all__ = [
    "OriginKeys",
    "Signature",
    "VerifyResult",
    "Sender",
    "Recipient",
    "run_distribution",
    "held_view",
    "block_tags",
    "mismatch_counts",
    "forward_chain",
    "key_state_bytes",
]

PARTITION_STREAM = 0x50415254  # seed-sequence tag for partition draws

# Decoded keys sign and held_view read per block, in whole batches (at least
# one). At n=20 a=64 t=32 k=2270 (0.52 MiB batches) a block holds 3: against
# one 16 MiB block of all 20, sign took 34 ms instead of 51-63 and the run
# peaked at 55 MiB of RSS instead of 72; against one batch at a time, a
# q=1e-3 held_view was about 2% faster and peaked at 4.5 MiB instead of 3.2.
_BLOCK_BYTES = 1 << 21
_MAGIC = b"USS1"
_VERSION = 1
_HEADER = struct.Struct(">4sBHBHII")  # magic, version, a, t, n, k, payload bytes


class OriginKeys(NamedTuple):
    """One recipient's k-key share of the batch issued through one recipient.

    slots (id_bits), multipliers (a bits) and offsets (t bits) are each
    packed as in _bitops, at packed_dtype of their width.
    """

    slots: np.ndarray
    multipliers: np.ndarray
    offsets: np.ndarray


@dataclass(frozen=True, eq=False)
class Signature:
    """A message plus one tag per issued key.

    tags has shape (n_recipients, n_recipients * k); tags[i, s]
    authenticates the message under slot s of the batch issued through
    recipient i. Tags must be packed as in _bitops, as packed_dtype(t). The
    wire layout is a fixed 18-byte header (magic b"USS1", version, message
    bits, tag bits, recipient count, keys per chunk, payload byte count)
    followed by the message and then the tags in batch-major slot order,
    all MSB first and zero-padded to a whole byte.
    """

    message: int
    tags: np.ndarray
    n_recipients: int
    k: int
    msg_len_bits: int
    tag_len_bits: int

    def __post_init__(self) -> None:
        a, t, n, k = self.msg_len_bits, self.tag_len_bits, self.n_recipients, self.k
        check_header_fields(a, t, n, k)
        object.__setattr__(self, "message", check_message(self.message, a))
        if self.tags.shape != (n, n * k):
            raise ValueError(
                f"tags must have shape {(n, n * k)}, got {self.tags.shape}"
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
        check_header_fields(a, t, n, k)  # before the payload is read as t-bit fields
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


def _chunk_slots(seed: int, origin: int, params: ProtocolParams, rows) -> np.ndarray:
    """Sorted slot ids of rows of origin's private, seeded split of its batch.

    Row d is chunk d; slot ids are at packed_dtype(id_bits).
    """
    n, k = params.n_recipients, params.k
    rng = np.random.default_rng([seed, PARTITION_STREAM, origin])
    # narrow ints sort faster, but indexing with them is slower
    slots = rng.permutation(n * k).reshape(n, k)[rows].astype(packed_dtype(id_bits(n, k)))
    slots.sort(axis=-1)
    return slots


def _empty_held(params: ProtocolParams) -> OriginKeys:
    """Unfilled (n, k) slot id, multiplier and offset blocks, each at the packed_dtype of its width."""
    shape = (params.n_recipients, params.k)
    return OriginKeys(*(np.empty(shape, dtype=packed_dtype(w)) for w in share_widths(params)))


def _deliver(held: OriginKeys, origin: int, share, widths, flips=()) -> None:
    """Copy a share into row origin of (n, k) held blocks; flip the bits its transfer flipped."""
    for block, values in zip(held, share):
        block[origin] = values
    flip_bits([(block[origin], w) for block, w in zip(held, widths)], flips)


def _decode_keys(packed: np.ndarray, params: ProtocolParams) -> tuple[np.ndarray, np.ndarray]:
    """Multipliers and offsets of a batch drawn as packed key-store bytes."""
    a, t = params.msg_len_bits, params.tag_len_bits
    count = params.n_recipients * params.k
    return (
        unpack_rows(packed, a, count, stride=a + t),
        unpack_rows(packed, t, count, start=a, stride=a + t),
    )


def _key_bytes(params: ProtocolParams) -> int:
    """Bytes of one decoded key: a multiplier and an offset at their packed_dtype."""
    return sum(packed_dtype(w).itemsize for w in (params.msg_len_bits, params.tag_len_bits))


def _block_batches(params: ProtocolParams) -> int:
    """Batches decoded at a time: as many as fit in _BLOCK_BYTES, at least one."""
    batch = params.n_recipients * params.k * _key_bytes(params)
    return min(params.n_recipients, max(1, _BLOCK_BYTES // batch))


def _issued_blocks(network: Network, params: ProtocolParams, starts: Sequence[int]):
    """The sender's view of every issued batch, in blocks of _block_batches origins.

    Batch g is the sender's noiseless side of sender link (0, g + 1) from
    starts[g]. Yields the block's origins as a slice and its (multipliers,
    offsets) as (b, n*k) arrays allocated for that block.
    """
    n, k, a, t = params.n_recipients, params.k, params.msg_len_bits, params.tag_len_bits
    per_block, batch_bits = _block_batches(params), link_bits(params)[0]
    for lo in range(0, n, per_block):
        rows = slice(lo, min(n, lo + per_block))
        keys = tuple(np.empty((rows.stop - lo, n * k), dtype=packed_dtype(w)) for w in (a, t))
        for i, g in enumerate(range(rows.start, rows.stop)):
            packed = network.link(0, g + 1).read(starts[g], batch_bits, side=0)
            keys[0][i], keys[1][i] = _decode_keys(packed, params)
        yield rows, keys


def _at_slots(values: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """Row g of (b, n*k) values at row g of (b, k) slot ids; one past n*k reads the last."""
    n_k = values.shape[-1]
    flat = np.minimum(slots, n_k - 1) + np.arange(0, values.size, n_k)[:, None]
    return values.reshape(-1).take(flat)


def key_state_bytes(params: ProtocolParams) -> int:
    """Bytes of packed keys, tags and link stores a full run holds at its peak.

    The n(n+1)/2 link stores of its network at LINK_STORE_BYTES each, and
    the n*n*k held keys with slot ids, plus the larger of what signing and
    distributing add to them: the signature's n*n*k tags and one sign block,
    or one recipient's n*k batch, its n shares with slot ids and their intp
    gather index. A sign block counts its decoded keys and the tag call's
    working set over them: per key an intp table index and two tag-wide
    accumulators. Each field counts at the itemsize of its packed_dtype.
    """
    n, k = params.n_recipients, params.k
    key, slot = _key_bytes(params), packed_dtype(id_bits(n, k)).itemsize
    tag, intp = packed_dtype(params.tag_len_bits).itemsize, np.dtype(np.intp).itemsize
    block = _block_batches(params) * n * k * (key + intp + 2 * tag)
    keys = n * n * k * (key + slot) + max(n * n * k * tag + block, n * k * (2 * key + slot + intp))
    return n * (n + 1) // 2 * LINK_STORE_BYTES + keys


class Sender:
    """The signing user. Issues key batches and publishes tag lists."""

    def __init__(self, network: Network, params: ProtocolParams) -> None:
        check_users(network.config.n_users, params)
        self.network = network
        self.params = params
        self.user = 0
        # entry r is where the batch issued through recipient r starts, once prepared
        self._starts: list[int] | None = None

    def prepare(self) -> None:
        """Issue a fresh batch of n*k keys to every recipient.

        Spends n*k*(a + t) bits on each sender link and records where each
        batch starts. The sender keeps no keys: its view of a batch is the
        link's noiseless pool, which sign reads again by position; a
        recipient's view may differ where its link flips bits.
        """
        if self._starts is not None:
            raise RuntimeError("preparation already ran on this sender")
        n_bits = link_bits(self.params)[0]
        self._starts = [
            self.network.link(self.user, r + 1).spend(n_bits, side=self.user)
            for r in range(self.params.n_recipients)
        ]

    def sign(self, message: int) -> Signature:
        """Tag the message under every issued key, in batch-major slot order.

        Reads the issued batches from the pools by position, in blocks of
        as many as fit in _BLOCK_BYTES of decoded keys (at least one), and
        tags each block in one call.
        """
        if self._starts is None:
            raise RuntimeError("prepare() must run before signing")
        p = self.params
        message = check_message(message, p.msg_len_bits)
        tags = np.empty((p.n_recipients, p.n_recipients * p.k), dtype=packed_dtype(p.tag_len_bits))
        for rows, keys in _issued_blocks(self.network, p, self._starts):
            tags[rows] = block_tags(keys, message, p)
        return Signature(
            message=message,
            tags=tags,
            n_recipients=p.n_recipients,
            k=p.k,
            msg_len_bits=p.msg_len_bits,
            tag_len_bits=p.tag_len_bits,
        )


class Recipient:
    """A verifying user. Holds one k-key share of every issued batch.

    held is its (n, k) slot id, multiplier and offset blocks, row g the share
    of batch g, as held_view returns them; verify reads them in place.
    """

    def __init__(self, network: Network, params: ProtocolParams, index: int) -> None:
        check_users(network.config.n_users, params)
        self.network = network
        self.params = params
        self.index = as_int(index, "recipient index", 0, params.n_recipients - 1)
        self.user = self.index + 1
        self._received = False
        self._widths = share_widths(params)
        self._share_bits = link_bits(params)[1] // 2  # a recipient link carries one share each way
        self.held = _empty_held(params)
        self._origins: set[int] = set()  # origins whose row is filled

    def receive_batch(self) -> tuple[np.ndarray, np.ndarray]:
        """This recipient's (possibly noisy) view of its issued batch: multipliers and offsets."""
        if self._received:
            raise RuntimeError("batch already received")
        self._received = True
        link = self.network.link(0, self.user)
        return _decode_keys(link.draw_shared(link_bits(self.params)[0], side=self.user), self.params)

    def make_partition(self, batch: tuple[np.ndarray, np.ndarray]) -> OriginKeys:
        """Split the batch into n uniformly random chunks of k keys each.

        Returns the n shares as (n, k) blocks, row d chunk d with its slots
        sorted, and holds the row of this recipient's own index; the others
        wait for send_share. The draw is private to this recipient: the
        sender never learns which slots ended up where.
        """
        if not self._received:
            raise RuntimeError("receive_batch() must run before partitioning")
        if self.index in self._origins:
            raise RuntimeError("partition already drawn")
        slots = _chunk_slots(self.network.seed, self.index, self.params, slice(None))
        index = slots.astype(np.intp)
        shares = OriginKeys(slots, *(keys[index] for keys in batch))
        _deliver(self.held, self.index, (block[self.index] for block in shares), self._widths)
        self._origins.add(self.index)
        return shares

    def send_share(self, other: "Recipient", shares: OriginKeys) -> None:
        """One-time-pad row other.index of make_partition's shares to that recipient.

        Each key travels as slot id plus multiplier plus offset, costing
        k * (id_bits + a + t) pad bits on the connecting link. The share
        moves as packed values; the receiver copies them into its blocks
        and applies the link's flips there. A send to itself or a resend
        raises before any pad is spent.
        """
        if self.index not in self._origins:
            raise RuntimeError("make_partition() must run before sharing")
        if other.index == self.index:
            raise ValueError("a recipient does not share with itself")
        if self.index in other._origins:
            raise RuntimeError(f"share from origin {self.index} already received")
        link = self.network.link(self.user, other.user)
        flips = link.otp_transfer(self._share_bits, from_side=self.user)
        _deliver(other.held, self.index, (block[other.index] for block in shares), self._widths, flips)
        other._origins.add(self.index)

    @property
    def distribution_complete(self) -> bool:
        return len(self._origins) == self.params.n_recipients

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
        published = _at_slots(signature.tags, self.held.slots)
        expected = block_tags(self.held[1:], signature.message, self.params)
        counts = mismatch_counts(self.held.slots, published, expected)
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


def block_tags(keys: Sequence[np.ndarray], message: int, params: ProtocolParams) -> np.ndarray:
    """Tags of message under a block of (multipliers, offsets), in one call and its shape."""
    mults, offs = keys
    tags = tags_of_arrays(
        mults.reshape(-1), offs.reshape(-1), message, params.msg_len_bits, params.tag_len_bits
    )
    return tags.reshape(mults.shape)


def mismatch_counts(slots: np.ndarray, published: np.ndarray, expected: np.ndarray) -> np.ndarray:
    """Per group, how many held keys disagree with the tags published at their slots.

    Each (n, k) block's row g is the share of batch g: held slot ids, the
    published tags read there and the message's tags under the held keys.
    A slot id past a batch's n*k slots counts as a disagreement.
    """
    return np.count_nonzero((slots >= slots.size) | (published != expected), axis=-1)


def level_rule(counts: np.ndarray, k: int, s: float, delta: float):
    """Passing group count and verdict of mismatch counts over the last axis.

    A group passes when strictly fewer than s*k of its k keys disagree;
    the signature is accepted when the passing fraction strictly exceeds
    delta.
    """
    passed = (counts / k < s).sum(axis=-1)
    return passed, passed / counts.shape[-1] > delta


def run_distribution(network: Network, params: ProtocolParams) -> tuple[Sender, list[Recipient]]:
    """Run preparation and sharing; return the sender and all recipients.

    Recipients take turns in index order: each receives and partitions its
    batch, then sends its shares in index order. So for each pair lo < hi,
    lo sends to hi from the link's cursor 0 and then hi sends to lo. Flips
    depend only on link and cursor, and a partition only on its own seed,
    so one network seed always gives the same outcome.
    """
    sender = Sender(network, params)
    recipients = [Recipient(network, params, i) for i in range(params.n_recipients)]
    sender.prepare()
    for src in recipients:
        shares = src.make_partition(src.receive_batch())
        for dst in recipients:
            if dst is not src:
                src.send_share(dst, shares)
        del shares  # one recipient's batch and shares are live at a time
    return sender, recipients


def held_view(
    network: Network, params: ProtocolParams, recipient: int
) -> tuple[OriginKeys, tuple[np.ndarray, np.ndarray]]:
    """One recipient's held (n, k) blocks, and the sender's keys at their slot ids.

    The held blocks are bit for bit what run_distribution leaves the
    recipient, read from the key pools by position: batch g is sender link
    (0, g + 1) from cursor 0, as recipient g sees it; share g is row
    recipient of origin g's seeded partition, which for g != recipient
    crossed link (g + 1, recipient + 1) at cursor 0 if g < recipient and
    otherwise after the lower index's k-key transfer, taking that range's
    flips. The sender's multipliers and offsets at the held slots are what
    a signature's tags there are made from; a slot id past a batch reads
    its last key. Reads each sender link once, moves no cursor and meters
    nothing.

    Origins are taken in the blocks sign reads. Per origin it draws the held
    chunk's slots and both links' flips; per block, one searchsorted maps
    the sender-link flips onto held keys, one flip_bits call flips the
    block's held rows, and the issued keys are gathered at the final slot
    ids, which relay flips may have changed.
    """
    check_users(network.config.n_users, params)
    n, k, a, t = params.n_recipients, params.k, params.msg_len_bits, params.tag_len_bits
    h = as_int(recipient, "recipient index", 0, n - 1)
    widths, held = share_widths(params), _empty_held(params)
    issued = tuple(np.empty_like(block) for block in held[1:])
    batch_bits, recipient_link = link_bits(params)
    n_k, share = n * k, recipient_link // 2
    for rows, batches in _issued_blocks(network, params, (0,) * n):
        sent, relayed = [], []  # flip positions in the block's batches and in its shares
        for i, g in enumerate(range(rows.start, rows.stop)):
            held.slots[g] = _chunk_slots(network.seed, g, params, h)
            sent.append(network.link(0, g + 1).flips(0, batch_bits) + i * batch_bits)
            if g != h:
                flips = network.link(g + 1, h + 1).flips(0 if g < h else share, share)
                relayed.append(flips + i * share)
        # the block's held slots, ascending and below n*k until the relay
        # flips, as indices into its flattened batches
        index = (held.slots[rows] + np.arange(0, batches[0].size, n_k)[:, None]).reshape(-1)
        for block, batch in zip(held[1:], batches):
            block[rows] = batch.take(index).reshape(-1, k)
        # a sender-link flip in a held key reached it through origin g
        key, bit = np.divmod(np.concatenate(sent), a + t)
        at = index.searchsorted(key).clip(max=index.size - 1)
        hit = index[at] == key
        flips = np.concatenate([at[hit] * sum(widths) + widths[0] + bit[hit], *relayed])
        flip_bits([(block[rows].reshape(-1), w) for block, w in zip(held, widths)], flips)
        for block, batch in zip(issued, batches):
            block[rows] = _at_slots(batch, held.slots[rows])
    return held, issued


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
