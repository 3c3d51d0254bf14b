"""Distribution, signing, verification, forwarding, serialization."""
import itertools
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from ussim import hashing, protocol
from ussim._bitops import octets, packed_dtype
from ussim.keystore import LINK_STORE_BYTES, LinkKeyStore, LinkSettings, Network, NetworkConfig
from ussim.protocol import (
    Recipient,
    Sender,
    Signature,
    block_tags,
    forward_chain,
    held_view,
    level_rule,
    mismatch_counts,
    run_distribution,
)
from ussim.secparams import ProtocolParams, id_bits
from ussim.simlab import run_honest


def small_params(n=5, k=40, a=8, t=8):
    return ProtocolParams.build(n, a, t, k=k)


def distributed(params, seed=5):
    network = Network(NetworkConfig(n_users=params.n_recipients + 1, seed=seed))
    sender, recipients = run_distribution(network, params)
    return network, sender, recipients


def issued_batch(params, seed, origin):
    """Multipliers and offsets of the batch issued through one recipient, as
    the sender sees it: the reference pool bits of its sender link from 0."""
    n, k, a, t = params.n_recipients, params.k, params.msg_len_bits, params.tag_len_bits
    bits = reference.pool_bits(seed, 0, origin + 1, 0, n * k * (a + t))
    keys = [bits[i : i + a + t] for i in range(0, len(bits), a + t)]
    return tuple(
        np.array([reference.pack_row(key[field]) for key in keys], dtype=np.uint64)
        for field in (slice(a), slice(a, None))
    )


def corrupted_copy(signature, verifier, groups, count):
    """Flip `count` published tags inside the verifier's chunk of each group."""
    tags = signature.tags.copy()
    for g in groups:
        slots = verifier.held.slots[g, :count]
        tags[g, slots] ^= np.uint64(1)
    return Signature(
        message=signature.message,
        tags=tags,
        n_recipients=signature.n_recipients,
        k=signature.k,
        msg_len_bits=signature.msg_len_bits,
        tag_len_bits=signature.tag_len_bits,
    )


def test_distribution_cardinalities():
    params = small_params()
    _, _, recipients = distributed(params)
    n, k = params.n_recipients, params.k
    for r in recipients:
        for origin in range(n):
            assert r.held.slots[origin].shape == (k,)
            assert len(np.unique(r.held.slots[origin])) == k


def test_shares_partition_every_batch_exactly():
    params = small_params()
    _, _, recipients = distributed(params)
    n, k = params.n_recipients, params.k
    for origin in range(n):
        slots = np.concatenate([r.held.slots[origin] for r in recipients])
        assert np.array_equal(np.sort(slots), np.arange(n * k))


def test_held_keys_match_sender_issue_noiseless():
    params = small_params()
    _, _, recipients = distributed(params, seed=5)
    for origin in range(params.n_recipients):
        mult, off = issued_batch(params, 5, origin)
        for r in recipients:
            slots = r.held.slots[origin]
            assert np.array_equal(r.held.multipliers[origin], mult[slots])
            assert np.array_equal(r.held.offsets[origin], off[slots])


def _distribute_by_hand(params, network):
    """Run the distribution stage by stage, one recipient at a time; return
    the parties and each recipient's batch and (n, k) shares as its stages
    passed them on."""
    sender = Sender(network, params)
    recipients = [Recipient(network, params, i) for i in range(params.n_recipients)]
    sender.prepare()
    batches, shares = [], []
    for src in recipients:
        batches.append(src.receive_batch())
        shares.append(src.make_partition(batches[-1]))
        for dst in recipients:
            if dst is not src:
                src.send_share(dst, shares[-1])
    return sender, recipients, batches, shares


def test_share_does_not_alias_the_senders_batch():
    # at q = 1 every transferred bit flips; the flips land on the
    # receiver's copy and never on the batch the share was cut from
    params = small_params(n=3, k=6)
    network = Network(NetworkConfig(n_users=4, seed=8, default_flip_prob=1.0))
    sender, recipients, batches, shares = _distribute_by_hand(params, network)
    for r, (mult, off) in zip(recipients, batches):
        # the batch as received, every sender-link bit flipped, and no more
        issued_mult, issued_off = issued_batch(params, 8, r.index)
        assert np.array_equal(mult, issued_mult ^ np.uint64(0xFF))
        assert np.array_equal(off, issued_off ^ np.uint64(0xFF))
        own = r.held.slots[r.index]
        assert np.array_equal(r.held.multipliers[r.index], mult[own])
    mult, _ = batches[0]
    chunk = shares[0].slots[1]
    assert np.array_equal(recipients[1].held.multipliers[0], mult[chunk] ^ np.uint64(0xFF))


@pytest.mark.parametrize("a, t", [(8, 8), (72, 16), (9, 4)])
def test_noisy_shares_carry_exactly_the_links_flips(a, t):
    # a twin link replays each pair's two transfers; the held keys are the
    # origin's chunk as id + multiplier + offset bit rows, XOR those flips
    n, k, seed, q = 3, 7, 31, 0.05
    params = ProtocolParams.build(n, a, t, k=k)
    network = Network(NetworkConfig(n_users=n + 1, seed=seed, default_flip_prob=q))
    _, recipients, batches, shares = _distribute_by_hand(params, network)
    ib = protocol.id_bits(n, k)
    widths = (ib, a, t)
    flipped_any = False
    for lo in recipients:
        for hi in recipients[lo.index + 1 :]:
            twin = LinkKeyStore(lo.user, hi.user, seed=seed, flip_prob=q)
            for src, dst in ((lo, hi), (hi, lo)):
                flips = twin.otp_transfer(k * sum(widths), from_side=src.user)
                flipped_any |= flips.size > 0
                chunk = shares[src.index].slots[dst.index]
                mult, off = batches[src.index]
                fields = (chunk, reference.row_ints(mult[chunk]), reference.row_ints(off[chunk]))
                bits = np.concatenate(
                    [[reference.unpack_value(v, w) for v in f] for f, w in zip(fields, widths)],
                    axis=1,
                ).astype(np.uint8)
                bits.reshape(-1)[flips] ^= 1
                got = [block[src.index] for block in dst.held]
                start = 0
                for values, width in zip(got, widths):
                    want = [reference.pack_row(row) for row in bits[:, start : start + width]]
                    assert reference.row_ints(values) == want
                    start += width
                assert dst.held.slots.dtype == packed_dtype(ib)
    assert flipped_any


@pytest.mark.parametrize("a, t", [(8, 8), (128, 32), (72, 16)])
def test_distribution_never_unpacks_byte_aligned_keys(monkeypatch, a, t):
    # keys stay packed from the key store to the held shares: byte-aligned
    # fields are read as byte views and never become rows of bits
    def never(*args, **kwargs):
        raise AssertionError("bit rows built during distribution")

    monkeypatch.setattr(protocol.np, "unpackbits", never)
    monkeypatch.setattr(protocol.np, "packbits", never)
    params = ProtocolParams.build(3, a, t, k=9)
    network = Network(NetworkConfig(n_users=4, seed=2, default_flip_prob=0.01))
    _, recipients = run_distribution(network, params)
    assert all(r.distribution_complete for r in recipients)


@pytest.mark.parametrize("a, t", [(8, 8), (72, 16), (128, 32)])
def test_sign_and_verify_read_the_key_blocks_in_place(monkeypatch, a, t):
    # keys are held in blocks that sign and verify tag as they lie: nothing
    # is gathered per call, and edits to the held blocks reach verify
    def never(*args, **kwargs):
        raise AssertionError("keys gathered during sign or verify")

    params = ProtocolParams.build(3, a, t, k=9)
    _, sender, recipients = distributed(params)
    with monkeypatch.context() as patched:
        patched.setattr(protocol.np, "concatenate", never)
        patched.setattr(protocol.np, "stack", never)
        signature = sender.sign(1)
        results = [r.verify(signature, params.l_max) for r in recipients]
    assert all(r.accepted and r.mismatch_counts == (0, 0, 0) for r in results)
    verifier = recipients[1]
    for g in range(params.n_recipients):
        # the message is 1, so flipping a multiplier's lowest bit flips its tag's
        octets(verifier.held.multipliers[g])[g, 0] ^= 1
        counts = verifier.verify(signature, params.l_max).mismatch_counts
        assert counts == tuple(int(h <= g) for h in range(params.n_recipients))


def test_partitions_are_private_and_distinct():
    params = small_params()
    _, sender, recipients = distributed(params)
    assert not hasattr(sender, "_partition")
    assert not np.array_equal(
        recipients[0].held.slots[0], recipients[1].held.slots[1]
    )


def test_sign_is_deterministic_for_a_seed():
    params = small_params(n=3, k=10)
    _, sender_a, _ = distributed(params, seed=77)
    _, sender_b, _ = distributed(params, seed=77)
    assert sender_a.sign(0x5C) == sender_b.sign(0x5C)
    assert sender_a.sign(0x5C) != sender_a.sign(0x5D)


def test_sign_message_validation():
    params = small_params(n=3, k=4)
    _, sender, _ = distributed(params)
    with pytest.raises(ValueError, match="message"):
        sender.sign(1 << 8)
    with pytest.raises(ValueError, match="message"):
        sender.sign(True)


def test_smallest_instance_tags_recomputed_from_stream():
    """Recompute the n=2, k=1 signature straight from the link streams."""
    seed = 123
    params = ProtocolParams.build(2, 1, 1, l_max=0, k=1)
    network = Network(NetworkConfig(n_users=3, seed=seed))
    sender, _ = run_distribution(network, params)
    for message in (0, 1):
        signature = sender.sign(message)
        for r in range(2):
            bits = reference.pool_bits(seed, 0, r + 1, 0, 4)
            expected = []
            for slot in range(2):
                mult, off = int(bits[2 * slot]), int(bits[2 * slot + 1])
                product = reference.field_mul(mult, message, 0b11)
                expected.append(product ^ off)
            assert signature.tags[r].tolist() == expected


def test_everyone_accepts_honest_signature_at_all_levels():
    params = small_params()
    _, sender, recipients = distributed(params)
    signature = sender.sign(0xC3)
    for r in recipients:
        for level in range(params.l_max, -2, -1):
            result = r.verify(signature, level)
            assert result.accepted
            assert result.groups_passed == params.n_recipients
            assert result.mismatch_counts == (0,) * params.n_recipients


def test_honest_completeness_across_sizes():
    for n in range(2, 9):
        params = ProtocolParams.build(n, 8, 8, k=25)
        _, sender, recipients = distributed(params, seed=n)
        signature = sender.sign(n)
        assert all(r.verify(signature, params.l_max).accepted for r in recipients)


def test_single_corrupt_tag_within_tolerance():
    params = ProtocolParams.build(7, 8, 8, k=906)
    _, sender, recipients = distributed(params)
    verifier = recipients[3]
    forged = corrupted_copy(sender.sign(0xA5), verifier, groups=(2,), count=1)
    result = verifier.verify(forged, 1)
    assert result.accepted
    assert result.mismatch_counts[2] == 1


def test_tolerance_window_boundary():
    # floor(0.005 * 906) = 4 mismatches per group stay strictly below s_1
    params = ProtocolParams.build(7, 8, 8, k=906)
    _, sender, recipients = distributed(params)
    verifier = recipients[0]
    signature = sender.sign(0xA5)
    at_window = corrupted_copy(signature, verifier, groups=range(7), count=4)
    result = verifier.verify(at_window, 1)
    assert result.accepted
    assert result.mismatch_counts == (4,) * 7
    past_window = corrupted_copy(signature, verifier, groups=range(7), count=5)
    assert not verifier.verify(past_window, 1).accepted


def test_graded_acceptance_worked_cases():
    params = ProtocolParams.build(7, 8, 8, k=906)
    _, sender, recipients = distributed(params)
    verifier = recipients[3]
    signature = sender.sign(0xA5)

    one_group = corrupted_copy(signature, verifier, groups=(0,), count=5)
    result = verifier.verify(one_group, 1)
    assert result.accepted and result.groups_passed == 6

    two_groups = corrupted_copy(signature, verifier, groups=(0, 4), count=300)
    assert not verifier.verify(two_groups, 1).accepted
    result = verifier.verify(two_groups, 0)
    assert result.accepted and result.groups_passed == 5

    three_groups = corrupted_copy(signature, verifier, groups=(0, 4, 6), count=453)
    assert not verifier.verify(three_groups, 1).accepted
    assert not verifier.verify(three_groups, 0).accepted
    result = verifier.verify(three_groups, -1)
    assert result.accepted and result.groups_passed == 4

    four_groups = corrupted_copy(signature, verifier, groups=(0, 2, 4, 6), count=453)
    assert not verifier.verify(four_groups, -1).accepted


def test_corruption_in_one_chunk_is_invisible_to_others():
    params = small_params()
    _, sender, recipients = distributed(params)
    forged = corrupted_copy(sender.sign(1), recipients[0], groups=(0,), count=40)
    for other in recipients[1:]:
        result = other.verify(forged, params.l_max)
        assert result.accepted
        assert result.mismatch_counts == (0,) * params.n_recipients


def test_out_of_range_slot_counts_as_mismatch():
    params = ProtocolParams.build(3, 8, 8, k=5, l_max=0)
    _, sender, recipients = distributed(params)
    slots = recipients[1].held.slots[0]
    slots[0] = params.n_recipients * params.k
    slots[1] = np.iinfo(slots.dtype).max  # the widest id a slot field holds
    result = recipients[1].verify(sender.sign(0x11), 0)
    assert result.mismatch_counts[0] == 2
    assert result.mismatch_counts[1:] == (0, 0)


def test_out_of_range_slot_in_the_last_group_counts_as_mismatch():
    # the last group's slots index the end of the flat tag list, so a slot
    # past n*k there would read beyond it
    params = ProtocolParams.build(3, 8, 8, k=5, l_max=0)
    _, sender, recipients = distributed(params)
    slots = recipients[0].held.slots[2]
    slots[:3] = (params.n_recipients * params.k, params.n_recipients * params.k + 1,
                 np.iinfo(slots.dtype).max)
    result = recipients[0].verify(sender.sign(0x11), 0)
    assert result.mismatch_counts == (0, 0, 3)


def test_verify_level_and_signature_validation():
    params = small_params(n=3, k=4)
    _, sender, recipients = distributed(params)
    signature = sender.sign(0x22)
    with pytest.raises(ValueError, match="level"):
        recipients[0].verify(signature, params.l_max + 1)
    with pytest.raises(ValueError, match="level"):
        recipients[0].verify(signature, -2)
    other = Signature(
        message=0,
        tags=np.zeros((3, 15), dtype=np.uint8),
        n_recipients=3,
        k=5,
        msg_len_bits=8,
        tag_len_bits=8,
    )
    with pytest.raises(ValueError, match="signature k"):
        recipients[0].verify(other, 0)


@pytest.mark.parametrize("level", [True, 1.0, "0"])
def test_verify_rejects_a_level_that_is_not_an_int(level):
    params = small_params(n=3, k=4)
    _, sender, recipients = distributed(params)
    with pytest.raises(ValueError, match=r"level must be an int in \[-1, "):
        recipients[0].verify(sender.sign(0x22), level)


def test_verify_takes_a_numpy_integer_level_as_its_int():
    params = small_params(n=3, k=4)
    _, sender, recipients = distributed(params)
    signature = sender.sign(0x22)
    result = recipients[0].verify(signature, np.int64(0))
    assert result == recipients[0].verify(signature, 0)
    assert type(result.level) is int


@given(st.data())
def test_level_rule_matches_the_scalar_reference(data):
    # both tests are strict, so s is drawn at some c/k and delta at some
    # row's pass fraction as often as anywhere else
    k = data.draw(st.integers(1, 40), label="k")
    n = data.draw(st.integers(2, 8), label="n")
    row = st.lists(st.integers(0, k), min_size=n, max_size=n)
    counts = np.array(data.draw(st.lists(row, min_size=1, max_size=4), label="counts"))
    s = data.draw(st.one_of(st.floats(0, 1), st.sampled_from([c / k for c in counts.ravel().tolist()])))
    want = [reference.level_verdict(r.tolist(), k, s, 0.5) for r in counts]
    delta = data.draw(st.one_of(st.floats(0.5, 1), st.sampled_from([p / n for p, _ in want])))
    want = [reference.level_verdict(r.tolist(), k, s, delta) for r in counts]
    passed, accepted = level_rule(counts, k, s, delta)
    assert list(zip(passed.tolist(), accepted.tolist())) == want
    for r, verdict in zip(counts, want):
        assert tuple(level_rule(r, k, s, delta)) == verdict


def test_verify_requires_complete_distribution():
    params = small_params(n=3, k=4)
    network, sender, recipients = distributed(params)
    straggler = Recipient(network, params, 0)
    with pytest.raises(RuntimeError, match="incomplete"):
        straggler.verify(sender.sign(0), 0)


def test_stage_ordering_is_enforced():
    params = small_params(n=3, k=4)
    network = Network(NetworkConfig(n_users=4, seed=1))
    sender = Sender(network, params)
    with pytest.raises(RuntimeError, match="prepare"):
        sender.sign(0)
    sender.prepare()
    with pytest.raises(RuntimeError, match="already"):
        sender.prepare()
    recipient, other = Recipient(network, params, 0), Recipient(network, params, 1)
    unreceived = (np.zeros(12, dtype=np.uint8),) * 2
    with pytest.raises(RuntimeError, match="receive_batch"):
        recipient.make_partition(unreceived)
    batch = recipient.receive_batch()
    with pytest.raises(RuntimeError, match="already"):
        recipient.receive_batch()
    with pytest.raises(RuntimeError, match="make_partition"):
        recipient.send_share(other, None)
    shares = recipient.make_partition(batch)
    with pytest.raises(RuntimeError, match="already"):
        recipient.make_partition(batch)
    consumed = network.total_consumed()
    with pytest.raises(ValueError, match="itself"):
        recipient.send_share(recipient, shares)
    assert network.total_consumed() == consumed


def test_duplicate_share_is_rejected():
    # the second send raises before its transfer spends a pad bit
    params = small_params(n=3, k=4)
    network = Network(NetworkConfig(n_users=4, seed=1))
    Sender(network, params).prepare()
    src, dst = Recipient(network, params, 0), Recipient(network, params, 1)
    shares = src.make_partition(src.receive_batch())
    src.send_share(dst, shares)
    consumed = network.total_consumed()
    assert consumed[(1, 2)] == 4 * (protocol.id_bits(3, 4) + 8 + 8) == 80
    with pytest.raises(RuntimeError, match="already received"):
        src.send_share(dst, shares)
    assert network.total_consumed() == consumed


def test_no_recipient_keeps_its_batch_past_its_sharing(monkeypatch):
    # the stages pass batch and shares on: after each stage every recipient's
    # only arrays are its held blocks, and when a recipient receives its
    # batch no earlier batch or shares is alive; a stage run again
    # afterwards raises before it spends any key
    params = small_params(n=4, k=5)
    parties, passed, checks, copies = [], [], [], {}
    real_init = Recipient.__init__
    real = {name: getattr(Recipient, name) for name in ("receive_batch", "make_partition", "send_share")}

    def arrays(r):  # ndarray attributes, and ndarrays inside tuple attributes
        values = (v for x in vars(r).values() for v in (x if isinstance(x, tuple) else (x,)))
        return [id(v) for v in values if isinstance(v, np.ndarray)]

    def only_held_blocks():
        checks.append(all(arrays(r) == [id(block) for block in r.held] for r in parties))

    def init(self, *args):
        real_init(self, *args)
        parties.append(self)

    def receive(self):
        checks.append(all(ref() is None for ref in passed))
        out = real["receive_batch"](self)
        only_held_blocks()
        passed.extend(weakref.ref(x) for x in out)
        copies[self.index] = [tuple(x.copy() for x in out)]  # for the second run
        return out

    def partition(self, batch):
        out = real["make_partition"](self, batch)
        only_held_blocks()
        passed.extend(weakref.ref(x) for x in out)
        copies[self.index].append(type(out)(*(x.copy() for x in out)))
        return out

    def send(self, other, shares):
        real["send_share"](self, other, shares)
        only_held_blocks()

    monkeypatch.setattr(Recipient, "__init__", init)
    monkeypatch.setattr(Recipient, "receive_batch", receive)
    monkeypatch.setattr(Recipient, "make_partition", partition)
    monkeypatch.setattr(Recipient, "send_share", send)
    network = Network(NetworkConfig(n_users=5, seed=3, default_flip_prob=0.01))
    _, recipients = run_distribution(network, params)
    assert parties == recipients
    assert len(checks) == 4 * (1 + 1 + 1 + 3) and all(checks)
    assert all(ref() is None for ref in passed)
    monkeypatch.undo()
    consumed = network.total_consumed()
    for r in recipients:
        other = recipients[r.index - 1]
        batch, shares = copies[r.index]
        stages = (r.receive_batch, lambda: r.make_partition(batch), lambda: r.send_share(other, shares))
        for stage in stages:
            with pytest.raises(RuntimeError):
                stage()
    assert network.total_consumed() == consumed


def test_network_size_must_match_params():
    params = small_params(n=3, k=4)
    network = Network(NetworkConfig(n_users=3))
    with pytest.raises(ValueError, match="users"):
        Sender(network, params)
    with pytest.raises(ValueError, match="users"):
        Recipient(network, params, 0)
    with pytest.raises(ValueError, match="index"):
        Recipient(Network(NetworkConfig(n_users=4)), params, 3)


@pytest.mark.parametrize("bad", [True, False, 1.0, np.float64(1.0), "1"])
def test_recipient_index_must_be_an_int(bad):
    # True would become recipient 1, and 1.0 would fail later, inside receive_batch
    params = small_params(n=3, k=4)
    network = Network(NetworkConfig(n_users=4))
    with pytest.raises(ValueError, match="recipient index must be an int"):
        Recipient(network, params, bad)
    recipient = Recipient(network, params, np.int64(1))
    assert type(recipient.index) is int and recipient.user == 2


def test_serialization_roundtrip():
    for n, k, a, t in ((2, 1, 1, 1), (3, 20, 11, 5), (5, 40, 8, 8)):
        params = ProtocolParams.build(n, a, t, k=k, l_max=0, d_r=0.0)
        _, sender, recipients = distributed(params)
        signature = sender.sign((1 << a) - 1)
        blob = signature.to_bytes()
        n_bits = a + n * n * k * t
        assert len(blob) == 18 + (n_bits + 7) // 8
        restored = Signature.from_bytes(blob)
        assert restored == signature
        assert recipients[0].verify(restored, 0).accepted


def test_serialization_rejects_malformed_blobs():
    params = ProtocolParams.build(2, 1, 1, l_max=0, k=1)
    _, sender, _ = distributed(params)
    blob = sender.sign(1).to_bytes()
    with pytest.raises(ValueError, match="header"):
        Signature.from_bytes(blob[:10])
    with pytest.raises(ValueError, match="magic"):
        Signature.from_bytes(b"XSS1" + blob[4:])
    with pytest.raises(ValueError, match="version"):
        Signature.from_bytes(blob[:4] + b"\x09" + blob[5:])
    with pytest.raises(ValueError, match="payload length"):
        Signature.from_bytes(blob[:14] + (99).to_bytes(4, "big") + blob[18:])
    with pytest.raises(ValueError, match="expected"):
        Signature.from_bytes(blob + b"\x00")
    with pytest.raises(ValueError, match="expected"):
        Signature.from_bytes(blob[:-1])
    # a header whose fields are out of range is rejected before the payload
    # is read; with t = 0 the payload holds the message alone
    zero_t = blob[:7] + b"\x00" + blob[8:14] + (1).to_bytes(4, "big") + blob[18:19]
    with pytest.raises(ValueError, match="tag_len_bits"):
        Signature.from_bytes(zero_t)
    # 2 recipients, k=1, 1-bit tags: 5 payload bits, 3 of padding
    corrupt = bytearray(blob)
    corrupt[-1] |= 1
    with pytest.raises(ValueError, match="padding"):
        Signature.from_bytes(bytes(corrupt))


def test_signature_field_validation():
    tags = np.zeros((2, 2), dtype=np.uint8)
    with pytest.raises(ValueError, match="message"):
        Signature(message=4, tags=tags, n_recipients=2, k=1,
                  msg_len_bits=1, tag_len_bits=1)
    with pytest.raises(ValueError, match="shape"):
        Signature(message=0, tags=np.zeros((2, 3), dtype=np.uint8),
                  n_recipients=2, k=1, msg_len_bits=1, tag_len_bits=1)
    with pytest.raises(ValueError, match="tag_len_bits"):
        Signature(message=0, tags=tags, n_recipients=2, k=1,
                  msg_len_bits=1, tag_len_bits=2)


@pytest.mark.parametrize(
    "case",
    ["uint64-tag-of-256", "int64-tag-of-minus-one", "V3-tags-at-t72", "bool-message",
     "float-message"],
)
def test_signature_rejects_what_the_wire_format_cannot_carry(case):
    # each of these once round-tripped as a different signature or crashed
    def build(tags, message=0, t=8):
        return Signature(message=message, tags=tags, n_recipients=2, k=1,
                         msg_len_bits=t, tag_len_bits=t)

    if case == "uint64-tag-of-256":
        # a uint64 tag no longer passes at t=8; a uint8 tag with a bit at or
        # above t is what reaches to_bytes
        with pytest.raises(ValueError, match="packed as uint8, got uint64"):
            build(np.array([[0, 256], [1, 2]], dtype=np.uint64))
        with pytest.raises(ValueError, match="at or above bit 7"):
            build(np.array([[0, 128], [1, 2]], dtype=np.uint8), t=7).to_bytes()
    elif case == "int64-tag-of-minus-one":
        with pytest.raises(ValueError, match="packed as uint8, got int64"):
            build(np.array([[0, -1], [1, 2]], dtype=np.int64))
    elif case == "V3-tags-at-t72":
        with pytest.raises(ValueError, match=r"packed as \|V9, got \|V3"):
            build(np.zeros((2, 2), dtype="V3"), t=72)
    else:
        message = True if case == "bool-message" else 1.0
        with pytest.raises(ValueError, match="message must be an int"):
            build(np.zeros((2, 2), dtype=np.uint8), message=message)


def test_signature_wire_format_carries_every_tag_bit_at_t64():
    # the widest uint64 tag: every one of its 64 bits is a tag bit
    tags = np.array([[0, (1 << 64) - 1], [1 << 63, 5]], dtype=np.uint64)
    signature = Signature(message=(1 << 64) - 1, tags=tags, n_recipients=2, k=1,
                          msg_len_bits=64, tag_len_bits=64)
    assert Signature.from_bytes(signature.to_bytes()) == signature


def test_signature_is_unequal_to_what_is_not_a_signature():
    tags = np.array([[0, 1], [2, 3]], dtype=np.uint8)
    signature = Signature(message=5, tags=tags, n_recipients=2, k=1,
                          msg_len_bits=8, tag_len_bits=8)
    assert signature.__eq__(signature.to_bytes()) is NotImplemented
    for other in (signature.to_bytes(), 5, None):
        assert signature != other and not signature == other


def test_signature_rejects_payload_beyond_header_byte_count():
    # n=4, t=1, k=2**31 - 1: the tags fill 2**35 - 16 bits, so an 8-bit
    # message makes exactly 2**32 - 1 payload bytes and a 9-bit one a
    # byte more than the header's uint32 byte count can hold
    def build(n, k, a, t):
        tags = np.broadcast_to(np.zeros(1, packed_dtype(t)), (n, n * k))  # allocates nothing
        return Signature(message=0, tags=tags, n_recipients=n, k=k,
                         msg_len_bits=a, tag_len_bits=t)

    k = (1 << 31) - 1
    assert build(4, k, 8, 1).k == k
    with pytest.raises(ValueError, match="uint32 byte count"):
        build(4, k, 9, 1)
    with pytest.raises(ValueError, match="uint32 byte count"):
        build(255, 0xFFFF, 255, 255)


def test_forward_chain_descends_one_level_per_hop():
    params = small_params()
    _, sender, recipients = distributed(params)
    signature = sender.sign(0x3C)
    results = forward_chain(signature, recipients[:3], start_level=1)
    assert [r.level for r in results] == [1, 0, -1]
    assert [r.recipient_index for r in results] == [0, 1, 2]
    assert all(r.accepted for r in results)


def test_forward_chain_stops_at_first_rejection():
    params = small_params()
    _, sender, recipients = distributed(params)
    signature = sender.sign(0x3C)
    hostile = Signature(
        message=signature.message,
        tags=signature.tags ^ np.uint8(1),
        n_recipients=params.n_recipients,
        k=params.k,
        msg_len_bits=params.msg_len_bits,
        tag_len_bits=params.tag_len_bits,
    )
    results = forward_chain(hostile, recipients[:3], start_level=1)
    assert len(results) == 1
    assert not results[0].accepted


def test_forward_chain_depth_validation():
    params = small_params()
    _, sender, recipients = distributed(params)
    signature = sender.sign(0x3C)
    with pytest.raises(ValueError, match="below level -1"):
        forward_chain(signature, recipients[:4], start_level=1)
    with pytest.raises(ValueError, match="at least one"):
        forward_chain(signature, [], start_level=1)


def test_distribution_consumes_exact_accounting_per_link():
    params = small_params(n=4, k=9, a=6, t=3)
    network, _, _ = distributed(params)
    n, k = 4, 9
    key_bits, ib = 6 + 3, 6  # id_bits(4, 9) = ceil(log2(36))
    consumed = network.total_consumed()
    for r in range(1, n + 1):
        assert consumed[(0, r)] == n * k * key_bits
    for r1 in range(1, n + 1):
        for r2 in range(r1 + 1, n + 1):
            assert consumed[(r1, r2)] == 2 * k * (key_bits + ib)


def _noisy_network(n, seed):
    # one recipient link (users 1 and 2) flips far more than the rest
    config = NetworkConfig(
        n_users=n + 1,
        default_flip_prob=0.02,
        seed=seed,
        links={(1, 2): LinkSettings(flip_prob=0.2)},
    )
    return Network(config)


@pytest.mark.parametrize("n, noisy", [
    pytest.param(3, True, id="3"),
    pytest.param(5, True, id="5"),
    pytest.param(2, False, id="2-noiseless"),
])
def test_holder_gets_the_keys_of_a_full_run(n, noisy):
    # held_view gives each key holder what a full run leaves it, and the
    # sender's issued keys at its held slots, without moving any cursor
    def network():
        if noisy:
            return _noisy_network(n, seed=21)
        return Network(NetworkConfig(n_users=n + 1, seed=21))

    params = small_params(n=n, k=12)
    full_net = network()
    _, full = run_distribution(full_net, params)
    consumed = full_net.total_consumed()
    batches = [issued_batch(params, 21, origin) for origin in range(n)]
    for h in (*range(n), np.int64(n - 1)):
        net = network()
        held, issued = held_view(net, params, h)
        assert set(net.total_consumed().values()) == {0}
        assert all(np.array_equal(got, want) for got, want in zip(held, full[h].held))
        for origin in range(n):
            slots = np.minimum(full[h].held.slots[origin], n * params.k - 1)
            for got, keys in zip(issued, batches[origin]):
                assert np.array_equal(got[origin], keys[slots])
        # read again on the network the full run used: the same keys, no metering
        again = held_view(full_net, params, h)
        assert all(np.array_equal(x, y) for x, y in zip((*held, *issued), (*again[0], *again[1])))
        assert full_net.total_consumed() == consumed


@pytest.mark.parametrize("q", [0.0, 1e-4, 0.01, 0.3])
@pytest.mark.parametrize("a, t", [(8, 8), (72, 16), (128, 32)])
@given(seed=st.integers(0, 2**63 - 1), message=st.integers(0, 2**128 - 1))
@settings(max_examples=3, deadline=None)
def test_held_view_judges_as_a_full_run_verifies(a, t, q, seed, message):
    # every recipient's view equals the full run's, and its counts equal
    # verify's at every level; at q = 0.3 relayed slot ids change often, so a
    # view read at the origin's slots instead of the held ones would miscount
    n, k = 4, 20
    params = ProtocolParams.build(n, a, t, k=k)
    message %= 1 << a
    config = NetworkConfig(n_users=n + 1, seed=seed, default_flip_prob=q)
    sender, full = run_distribution(Network(config), params)
    signature = sender.sign(message)
    for h in range(n):
        held, issued = held_view(Network(config), params, h)
        assert all(np.array_equal(x, y) for x, y in zip(held, full[h].held))
        tags = (block_tags(keys, message, params) for keys in (issued, held[1:]))
        counts = mismatch_counts(held.slots, *tags)
        for level in range(-1, params.l_max + 1):
            result = full[h].verify(signature, level)
            assert tuple(counts.tolist()) == result.mismatch_counts
            accepted = level_rule(counts, k, result.s_threshold, result.delta_threshold)[1]
            assert accepted == result.accepted


@st.composite
def _held_shapes(draw):
    n, a = draw(st.integers(2, 6)), draw(st.sampled_from([1, 8, 13, 72]))
    pairs = [(u, v) for u in range(n + 1) for v in range(u + 1, n + 1)]
    return dict(
        n=n, k=draw(st.integers(1, 12)), a=a, t=draw(st.integers(1, a)),
        q=draw(st.sampled_from([0.0, 0.05, 0.3])), slow=draw(st.sampled_from(pairs)),
        seed=draw(st.integers(0, 2**63 - 1)), message=draw(st.integers(0, 2**a - 1)),
    )


@given(shape=_held_shapes())
@example(shape=dict(n=3, k=5, a=72, t=70, q=0.05, slow=(1, 3), seed=1, message=2**71 + 5))
@example(shape=dict(n=6, k=12, a=13, t=9, q=0.3, slow=(0, 4), seed=7, message=4321))
@settings(max_examples=30, deadline=None)
def test_held_keys_match_the_reference_distribution(shape):
    # a recipient's held blocks, built bit by bit from the pools, the
    # partition streams, the transfer order and the flips of every link,
    # equal held_view's and a full run's, and verify counts as the
    # reference does at every level; one link flips at 0.2
    n, k, a, t = (shape[key] for key in "nkat")
    params = ProtocolParams.build(n, a, t, k=k)
    config = NetworkConfig(n_users=n + 1, seed=shape["seed"], default_flip_prob=shape["q"],
                           links={shape["slow"]: LinkSettings(flip_prob=0.2)})
    sender, full = run_distribution(Network(config), params)
    signature = sender.sign(shape["message"])
    issued = [reference.issued_keys(config.seed, params, g) for g in range(n)]
    modulus = hashing.find_irreducible(a)
    for h in range(n):
        want = reference.held_blocks(config, params, h)
        view, at_slots = held_view(Network(config), params, h)
        for got in (view, full[h].held):
            assert [[reference.row_ints(row) for row in block] for block in got] == list(want)
        for g, slots in enumerate(want[0]):  # a slot id past the batch reads its last key
            keys = [issued[g][min(s, n * k - 1)] for s in slots]
            assert list(zip(*(reference.row_ints(block[g]) for block in at_slots))) == keys
        counts = reference.mismatch_counts(config.seed, params, want, shape["message"], modulus)
        for level in range(-1, params.l_max + 1):
            result = full[h].verify(signature, level)
            assert list(result.mismatch_counts) == counts
            verdict = reference.level_verdict(counts, k, result.s_threshold, result.delta_threshold)
            assert (result.groups_passed, result.accepted) == verdict


def _view_blocks(monkeypatch, params, batches_per_block):
    """Bound held_view's blocks to batches_per_block decoded batches."""
    a, t = params.msg_len_bits, params.tag_len_bits
    batch_bytes = params.n_recipients * params.k * (packed_dtype(a).itemsize + packed_dtype(t).itemsize)
    # just under one more batch, so a block holds exactly batches_per_block
    monkeypatch.setattr(protocol, "_BLOCK_BYTES", (batches_per_block + 1) * batch_bytes - 1)


@pytest.mark.parametrize("q", [0.0, 0.01, 0.3])
@pytest.mark.parametrize("a, t", [(8, 8), (72, 16)])
def test_held_view_in_blocks_equals_a_full_run(monkeypatch, a, t, q):
    # blocks of 2 batches split n = 7 origins into 4 blocks, the last one
    # short; every recipient's view still equals the full run's held blocks,
    # and its issued keys the sender's at the held slots, also where relay
    # flips pushed a slot id past the batch (it reads the batch's last key)
    n, k = 7, 10
    params = ProtocolParams.build(n, a, t, k=k)
    config = NetworkConfig(n_users=n + 1, seed=13, default_flip_prob=q)
    _, full = run_distribution(Network(config), params)
    blocks = protocol._issued_blocks(Network(config), params, (0,) * n)
    sent = [batch for _, keys in blocks for batch in zip(*keys)]
    _view_blocks(monkeypatch, params, 2)
    past = 0
    for h in range(n):
        held, issued = held_view(Network(config), params, h)
        assert all(np.array_equal(got, want) for got, want in zip(held, full[h].held))
        for g in range(n):
            slots = np.minimum(full[h].held.slots[g], n * k - 1).astype(np.intp)
            assert all(np.array_equal(got[g], keys[slots]) for got, keys in zip(issued, sent[g]))
        past += np.count_nonzero(held.slots >= n * k)
    if q == 0.3:
        assert past  # relay flips pushed slot ids past the batch
    elif q == 0:
        assert not past


def test_held_view_reads_and_flips_each_range_once_per_block(monkeypatch):
    # blocks of 3, 3 and 1 batches: each sender link is read once as one
    # range, each sender and relay range's flips are drawn once, and each
    # block's (b * k)-row held blocks take one flip_bits call
    n, k, a, t, h = 7, 10, 8, 8, 2
    params = ProtocolParams.build(n, a, t, k=k)
    _view_blocks(monkeypatch, params, 3)
    reads, flips, flipped = [], [], []
    real_read, real_flips, real_flip_bits = LinkKeyStore.read, LinkKeyStore.flips, protocol.flip_bits

    def counted_read(self, start, n_bits, side):
        reads.append((self.users, start, n_bits, side))
        return real_read(self, start, n_bits, side)

    def counted_flips(self, start, n_bits):
        flips.append((self.users, start, n_bits))
        return real_flips(self, start, n_bits)

    def counted_flip_bits(fields, positions):
        flipped.append([len(values) for values, _ in fields])
        return real_flip_bits(fields, positions)

    monkeypatch.setattr(LinkKeyStore, "read", counted_read)
    monkeypatch.setattr(LinkKeyStore, "flips", counted_flips)
    monkeypatch.setattr(protocol, "flip_bits", counted_flip_bits)
    config = NetworkConfig(n_users=n + 1, seed=8, default_flip_prob=0.01)
    held_view(Network(config), params, h)
    batch, share = n * k * (a + t), k * (id_bits(n, k) + a + t)
    assert sorted(reads) == [((0, g + 1), 0, batch, 0) for g in range(n)]
    relays = [((min(g, h) + 1, max(g, h) + 1), 0 if g < h else share, share) for g in range(n) if g != h]
    assert sorted(flips) == sorted([((0, g + 1), 0, batch) for g in range(n)] + relays)
    assert flipped == [[3 * k] * 3, [3 * k] * 3, [k] * 3]


def test_key_state_counts_each_link_store_at_what_a_used_one_holds():
    # key_state_bytes counts a run's n(n+1)/2 link stores at LINK_STORE_BYTES
    # each: no less than tracemalloc sees a store hold after a distribution,
    # and within allocator overhead of it
    n = 60
    params = ProtocolParams.build(n, 8, 8, l_max=0, k=1)
    network = Network(NetworkConfig(n_users=n + 1, seed=3))
    network.link(0, 1).read(0, 8, side=0)  # numpy.random's first use imports modules: not counted
    tracemalloc.start()
    try:
        run_distribution(network, params)  # the parties are dropped; the stores stay
        per_store = tracemalloc.get_traced_memory()[0] / (n * (n + 1) // 2)
    finally:
        tracemalloc.stop()
    assert 0.6 * LINK_STORE_BYTES < per_store <= LINK_STORE_BYTES
    stores = n * (n + 1) // 2 * LINK_STORE_BYTES
    assert stores < protocol.key_state_bytes(params) < 2 * stores  # at k=1 the stores dominate


def test_run_honest_reads_pool_bits_only_on_sender_links(monkeypatch):
    # each endpoint of a sender link reads its batch once, as one range;
    # recipient links read no pool bits, since one-time pads cancel
    n, k, a, t = 4, 700, 8, 8
    reads = []
    real_read = LinkKeyStore.read

    def counted(self, start, n_bits, side):
        reads.append((self.users, start, n_bits))
        return real_read(self, start, n_bits, side)

    monkeypatch.setattr(LinkKeyStore, "read", counted)
    assert run_honest(ProtocolParams.build(n, a, t, k=k), seed=6).all_accepted
    assert sorted(reads) == [((0, r), 0, n * k * (a + t)) for r in range(1, n + 1) for _ in "ab"]


@pytest.mark.parametrize("holder", [-1, 3, True, np.bool_(True), 1.0])
def test_holder_out_of_range_is_rejected_before_any_draw(holder, monkeypatch):
    # held_view checks the key holder's index before it builds or reads a link
    params = small_params(n=3, k=4)
    network = Network(NetworkConfig(n_users=4, seed=1))
    monkeypatch.setattr(Network, "link", lambda *args: pytest.fail("a link was read"))
    with pytest.raises(ValueError, match="^recipient index must be an int in"):
        held_view(network, params, holder)


def test_smallest_instance_consumes_fourteen_bits():
    params = ProtocolParams.build(2, 1, 1, l_max=0, k=1)
    network, _, _ = distributed(params)
    consumed = network.total_consumed()
    assert consumed == {(0, 1): 4, (0, 2): 4, (1, 2): 6}
    assert sum(consumed.values()) == 14


@pytest.mark.parametrize("a, t", [(8, 8), (128, 32)])
def test_run_honest_tag_call_shape(monkeypatch, a, t):
    # sign tags all n batches in one 1-d call; each verify tags all its
    # held keys in one 1-d call, so the number of tags computed per run is
    # unchanged
    n, k = 4, 30
    params = ProtocolParams.build(n, a, t, k=k)
    entered, stage, calls = itertools.count(), [], []
    real_tags = protocol.tags_of_arrays

    def counted_tags(mults, offs, *args):
        out = real_tags(mults, offs, *args)
        calls.append((stage[-1], np.ndim(mults), np.ndim(offs), len(out)))
        return out

    def staged(name, method):
        def run(self, *args):
            stage.append((name, next(entered)))
            try:
                return method(self, *args)
            finally:
                stage.pop()
        return run

    monkeypatch.setattr(protocol, "tags_of_arrays", counted_tags)
    monkeypatch.setattr(Sender, "sign", staged("sign", Sender.sign))
    monkeypatch.setattr(Recipient, "verify", staged("verify", Recipient.verify))
    outcome = run_honest(params, seed=3)
    chain_len = min(params.l_max + 1, n)
    assert len(outcome.chain_results) == chain_len
    assert all(r.accepted for r in (*outcome.verify_results, *outcome.chain_results))
    verifies = range(1, n + chain_len + 1)
    assert calls == [(("sign", 0), 1, 1, n * n * k)] + [
        (("verify", i), 1, 1, n * k) for i in verifies
    ]
    assert sum(c[-1] for c in calls) == (n + n + chain_len) * n * k


@pytest.mark.parametrize("batches_per_block", [1, 3])
@pytest.mark.parametrize("a, t", [(8, 8), (72, 16)])
def test_sign_in_blocks_equals_sign_in_one_call(monkeypatch, a, t, batches_per_block):
    # sign tags at most _BLOCK_BYTES of decoded keys per call; blocks of
    # 1 and of 3 batches (not a divisor of n = 7) give the one-call signature
    n, k = 7, 10
    params = ProtocolParams.build(n, a, t, k=k)
    config = NetworkConfig(n_users=n + 1, seed=9)
    sender, _ = run_distribution(Network(config), params)
    one_block = sender.sign(0x5A)
    key_bytes = packed_dtype(a).itemsize + packed_dtype(t).itemsize
    batch_bytes = n * k * key_bytes
    # just under one more batch, so the block holds exactly batches_per_block
    monkeypatch.setattr(protocol, "_BLOCK_BYTES", (batches_per_block + 1) * batch_bytes - 1)
    calls = []
    real_tags = protocol.tags_of_arrays

    def counted_tags(mults, *args):
        calls.append(len(mults))
        return real_tags(mults, *args)

    monkeypatch.setattr(protocol, "tags_of_arrays", counted_tags)
    sender, recipients = run_distribution(Network(config), params)
    signature = sender.sign(0x5A)
    blocks = -(-n // batches_per_block)
    assert len(calls) == blocks
    assert calls == [n * k * min(batches_per_block, n - lo) for lo in range(0, n, batches_per_block)]
    assert signature == one_block
    assert all(r.verify(signature, params.l_max).accepted for r in recipients)


def test_prepared_sender_holds_no_keys():
    # the sender's batches are read again by position when it signs
    params = small_params(n=5, k=40)
    network = Network(NetworkConfig(n_users=6, seed=2))
    sender = Sender(network, params)
    sender.prepare()
    assert not [name for name, value in vars(sender).items() if isinstance(value, np.ndarray)]
    assert set(network.total_consumed()[(0, r)] for r in range(1, 6)) == {5 * 40 * 16}


@pytest.mark.parametrize("a, t", [(8, 8), (128, 32)])
def test_run_honest_builds_the_message_tables_once(a, t):
    # sign misses the table cache once; every verify and chain hop hits it
    n = 4
    params = ProtocolParams.build(n, a, t, k=30)
    hashing._message_tables.cache_clear()
    outcome = run_honest(params, seed=3)
    assert outcome.all_accepted
    info = hashing._message_tables.cache_info()
    assert (info.misses, info.hits) == (1, n + len(outcome.chain_results))


@pytest.mark.parametrize("a, t", [(128, 32), (130, 100), (8, 8), (16, 9), (64, 32)])
def test_run_honest_keeps_wide_values_packed(monkeypatch, a, t):
    # every field stays at its packed_dtype from key draw to tag: values
    # past 64 bits as void byte rows, narrower ones as the smallest unsigned
    # type that holds them, slot ids included; no stage holds Python ints
    from ussim import simlab

    seen = {"batches": [], "issued": []}
    real_distribution, real_sign = simlab.run_distribution, Sender.sign
    real_receive, real_issued = Recipient.receive_batch, protocol._issued_blocks

    def keep_issued(*args):
        for rows, keys in real_issued(*args):
            seen["issued"].extend(zip(*keys))  # the sender's batches, read to sign
            yield rows, keys

    def keep_batch(self):
        seen["batches"].append(real_receive(self))  # the batch each recipient decodes
        return seen["batches"][-1]

    def keep_parties(*args):
        seen["parties"] = real_distribution(*args)
        return seen["parties"]

    def keep_signature(self, message):
        seen["signature"] = real_sign(self, message)
        return seen["signature"]

    monkeypatch.setattr(simlab, "run_distribution", keep_parties)
    monkeypatch.setattr(Sender, "sign", keep_signature)
    monkeypatch.setattr(Recipient, "receive_batch", keep_batch)
    monkeypatch.setattr(protocol, "_issued_blocks", keep_issued)
    n = 7
    params = ProtocolParams.build(n, a, t, k=12)
    assert run_honest(params, seed=4).all_accepted
    _, recipients = seen["parties"]
    mult_dtype, tag_dtype = packed_dtype(a), packed_dtype(t)
    keys = seen["issued"] + seen["batches"]
    assert len(seen["issued"]) == len(seen["batches"]) == n
    for r in recipients:
        assert r.held.slots.dtype == packed_dtype(protocol.id_bits(n, 12))
        keys.append(r.held[1:])
    assert all(m.dtype == mult_dtype and o.dtype == tag_dtype for m, o in keys)
    assert seen["signature"].tags.dtype == tag_dtype
