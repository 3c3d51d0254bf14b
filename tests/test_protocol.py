"""Distribution, signing, verification, forwarding, serialization."""
import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference
from ussim import hashing, protocol
from ussim._bitops import octets, packed_dtype
from ussim.keystore import LinkKeyStore, LinkSettings, Network, NetworkConfig
from ussim.protocol import (
    Recipient,
    Sender,
    Signature,
    forward_chain,
    level_rule,
    run_distribution,
)
from ussim.secparams import ProtocolParams
from ussim.simlab import run_honest


def small_params(n=5, k=40, a=8, t=8):
    return ProtocolParams.build(n, a, t, k=k)


def distributed(params, seed=5):
    network = Network(NetworkConfig(n_users=params.n_recipients + 1, seed=seed))
    sender, recipients = run_distribution(network, params)
    return network, sender, recipients


def corrupted_copy(signature, verifier, groups, count):
    """Flip `count` published tags inside the verifier's chunk of each group."""
    tags = signature.tags.copy()
    for g in groups:
        slots = verifier.held_group(g).slots[:count]
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
    _, sender, recipients = distributed(params)
    n, k = params.n_recipients, params.k
    for origin in range(n):
        mult, off = sender.issued_group(origin)
        assert mult.shape == off.shape == (n * k,)
    for r in recipients:
        for origin in range(n):
            held = r.held_group(origin)
            assert held.slots.shape == (k,)
            assert len(np.unique(held.slots)) == k


@pytest.mark.parametrize("origin", [-1, 3, True, 1.0])
def test_group_views_reject_a_bad_origin(origin):
    # groups are rows of key blocks, so a negative index must not wrap
    params = small_params(n=3, k=4)
    _, sender, recipients = distributed(params)
    with pytest.raises(ValueError, match="origin"):
        sender.issued_group(origin)
    with pytest.raises(ValueError, match="origin"):
        recipients[0].held_group(origin)


def test_shares_partition_every_batch_exactly():
    params = small_params()
    _, _, recipients = distributed(params)
    n, k = params.n_recipients, params.k
    for origin in range(n):
        slots = np.concatenate([r.held_group(origin).slots for r in recipients])
        assert np.array_equal(np.sort(slots), np.arange(n * k))


def test_held_keys_match_sender_issue_noiseless():
    params = small_params()
    _, sender, recipients = distributed(params)
    for origin in range(params.n_recipients):
        mult, off = sender.issued_group(origin)
        for r in recipients:
            held = r.held_group(origin)
            assert np.array_equal(held.multipliers, mult[held.slots])
            assert np.array_equal(held.offsets, off[held.slots])


def _distribute_by_hand(params, network):
    """Run the distribution stage by stage, one recipient at a time; return
    the parties and each recipient's batch and partition, caught while live."""
    sender = Sender(network, params)
    recipients = [Recipient(network, params, i) for i in range(params.n_recipients)]
    sender.prepare()
    batches, partitions = [], []
    for src in recipients:
        src.receive_batch()
        src.make_partition()
        batches.append(src._batch)
        partitions.append(src._partition)
        for dst in recipients:
            if dst is not src:
                src.send_share(dst)
        src.end_sharing()
    return sender, recipients, batches, partitions


def test_share_does_not_alias_the_senders_batch():
    # at q = 1 every transferred bit flips; the flips land on the
    # receiver's copy and never on the batch the share was cut from
    params = small_params(n=3, k=6)
    network = Network(NetworkConfig(n_users=4, seed=8, default_flip_prob=1.0))
    sender, recipients, batches, partitions = _distribute_by_hand(params, network)
    for r, (mult, off) in zip(recipients, batches):
        # the batch as received, every sender-link bit flipped, and no more
        issued_mult, issued_off = sender.issued_group(r.index)
        assert np.array_equal(mult, issued_mult ^ np.uint8(0xFF))
        assert np.array_equal(off, issued_off ^ np.uint8(0xFF))
        own = r.held_group(r.index)
        assert np.array_equal(own.multipliers, mult[own.slots])
    relayed = recipients[1].held_group(0)
    mult, _ = batches[0]
    chunk = partitions[0][1]
    assert np.array_equal(relayed.multipliers, mult[chunk] ^ np.uint64(0xFF))


@pytest.mark.parametrize("a, t", [(8, 8), (72, 16), (9, 4)])
def test_noisy_shares_carry_exactly_the_links_flips(a, t):
    # a twin link replays each pair's two transfers; the held keys are the
    # origin's chunk as id + multiplier + offset bit rows, XOR those flips
    n, k, seed, q = 3, 7, 31, 0.05
    params = ProtocolParams.build(n, a, t, k=k)
    network = Network(NetworkConfig(n_users=n + 1, seed=seed, default_flip_prob=q))
    _, recipients, batches, partitions = _distribute_by_hand(params, network)
    ib = protocol.id_bits(n, k)
    widths = (ib, a, t)
    flipped_any = False
    for lo in recipients:
        for hi in recipients[lo.index + 1 :]:
            twin = LinkKeyStore(lo.user, hi.user, seed=seed, flip_prob=q)
            for src, dst in ((lo, hi), (hi, lo)):
                flips = twin.otp_transfer(k * sum(widths), from_side=src.user)
                flipped_any |= flips.size > 0
                chunk = partitions[src.index][dst.index]
                mult, off = batches[src.index]
                fields = (chunk, reference.row_ints(mult[chunk]), reference.row_ints(off[chunk]))
                bits = np.concatenate(
                    [[reference.unpack_value(v, w) for v in f] for f, w in zip(fields, widths)],
                    axis=1,
                ).astype(np.uint8)
                bits.reshape(-1)[flips] ^= 1
                held = dst.held_group(src.index)
                got = (held.slots, held.multipliers, held.offsets)
                start = 0
                for values, width in zip(got, widths):
                    want = [reference.pack_row(row) for row in bits[:, start : start + width]]
                    assert reference.row_ints(values) == want
                    start += width
                assert held.slots.dtype == packed_dtype(ib)
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
    # is gathered per call, and edits through held_group reach verify
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
        octets(verifier.held_group(g).multipliers)[g, 0] ^= 1
        counts = verifier.verify(signature, params.l_max).mismatch_counts
        assert counts == tuple(int(h <= g) for h in range(params.n_recipients))


def test_partitions_are_private_and_distinct():
    params = small_params()
    _, sender, recipients = distributed(params)
    assert not hasattr(sender, "_partition")
    assert not np.array_equal(
        recipients[0].held_group(0).slots, recipients[1].held_group(1).slots
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
    held = recipients[1].held_group(0)
    held.slots[0] = params.n_recipients * params.k
    held.slots[1] = np.iinfo(held.slots.dtype).max  # the widest id a slot field holds
    result = recipients[1].verify(sender.sign(0x11), 0)
    assert result.mismatch_counts[0] == 2
    assert result.mismatch_counts[1:] == (0, 0)


def test_out_of_range_slot_in_the_last_group_counts_as_mismatch():
    # the last group's slots index the end of the flat tag list, so a slot
    # past n*k there would read beyond it
    params = ProtocolParams.build(3, 8, 8, k=5, l_max=0)
    _, sender, recipients = distributed(params)
    held = recipients[0].held_group(2)
    held.slots[:3] = (params.n_recipients * params.k, params.n_recipients * params.k + 1,
                      np.iinfo(held.slots.dtype).max)
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
    with pytest.raises(ValueError, match=r"level must be in \[-1, "):
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
    recipient = Recipient(network, params, 0)
    with pytest.raises(RuntimeError, match="receive_batch"):
        recipient.make_partition()
    recipient.receive_batch()
    with pytest.raises(RuntimeError, match="already"):
        recipient.receive_batch()
    recipient.make_partition()
    with pytest.raises(RuntimeError, match="already"):
        recipient.make_partition()
    with pytest.raises(ValueError, match="itself"):
        recipient.send_share(recipient)


def test_tags_at_before_prepare_raises_like_sign():
    params = small_params(n=3, k=4)
    sender = Sender(Network(NetworkConfig(n_users=4, seed=1)), params)
    with pytest.raises(RuntimeError, match=r"prepare\(\) must run before signing"):
        sender.tags_at(0, np.zeros((3, 4), dtype=np.intp))


def test_duplicate_share_is_rejected():
    params = small_params(n=3, k=4)
    network = Network(NetworkConfig(n_users=4, seed=1))
    Sender(network, params).prepare()
    src, dst = Recipient(network, params, 0), Recipient(network, params, 1)
    src.receive_batch()
    src.make_partition()
    src.send_share(dst)
    with pytest.raises(RuntimeError, match="already received"):
        src.send_share(dst)


@pytest.mark.parametrize("holder", [None, 0, 2])
def test_no_recipient_keeps_its_batch_past_its_sharing(monkeypatch, holder):
    # one batch at a time: when a recipient receives its batch no other one
    # holds a batch or partition, and none is left after the distribution;
    # a stage run again afterwards raises before it spends any key
    params = small_params(n=4, k=5)
    parties, received = [], []
    real_init, real_receive = Recipient.__init__, Recipient.receive_batch

    def init(self, *args):
        real_init(self, *args)
        parties.append(self)

    def receive(self):
        others = [r for r in parties if r is not self]
        received.append(all(r._batch is None and r._partition is None for r in others))
        real_receive(self)

    monkeypatch.setattr(Recipient, "__init__", init)
    monkeypatch.setattr(Recipient, "receive_batch", receive)
    network = Network(NetworkConfig(n_users=5, seed=3, default_flip_prob=0.01))
    _, recipients = run_distribution(network, params, holder=holder)
    assert parties == recipients and received == [True] * 4
    assert all(r._batch is None and r._partition is None for r in recipients)
    consumed = network.total_consumed()
    for r in recipients:
        other = recipients[r.index - 1]
        for stage in (r.receive_batch, r.make_partition, lambda: r.send_share(other)):
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
    def network():
        if noisy:
            return _noisy_network(n, seed=21)
        return Network(NetworkConfig(n_users=n + 1, seed=21))

    params = small_params(n=n, k=12)
    full_net = network()
    _, full = run_distribution(full_net, params)
    for h in (*range(n), np.int64(n - 1)):
        net = network()
        sender, recipients = run_distribution(net, params, holder=h)
        signature = sender.sign(1)
        assert recipients[h].distribution_complete
        for origin in range(n):
            got, want = recipients[h].held_group(origin), full[h].held_group(origin)
            assert np.array_equal(got.slots, want.slots)
            assert np.array_equal(got.multipliers, want.multipliers)
            assert np.array_equal(got.offsets, want.offsets)
        for u in range(n + 1):
            if u != h + 1:
                assert net.link(h + 1, u).consumed_bits() == (
                    full_net.link(h + 1, u).consumed_bits()
                )
        # no share leaves h, so even at n = 2 the other recipient lacks one
        for other in recipients:
            if other.index != h:
                assert not other.distribution_complete
                with pytest.raises(RuntimeError, match="incomplete"):
                    other.verify(signature, params.l_max)


def test_holder_transfers_only_over_its_links(monkeypatch):
    # both directions of each of h's links spend their pads; only the
    # shares into h are built and sent
    params = small_params(n=5, k=4)
    pads, sends = [], []
    real_otp, real_send = LinkKeyStore.otp_transfer, Recipient.send_share

    def counted_otp(self, n_bits, from_side):
        pads.append((self.users, from_side))
        return real_otp(self, n_bits, from_side)

    def counted_send(self, other):
        sends.append((self.index, other.index))
        return real_send(self, other)

    monkeypatch.setattr(LinkKeyStore, "otp_transfer", counted_otp)
    monkeypatch.setattr(Recipient, "send_share", counted_send)
    def sides_per_link():
        # each link's own order of transfers; links interleave as they will
        links = {}
        for users, side in pads:
            links.setdefault(users, []).append(side)
        return links

    run_distribution(_noisy_network(5, seed=2), params, holder=3)
    h = 4  # recipient 3's user
    assert sides_per_link() == {
        (lo, hi): [lo, hi] for u in range(1, 6) if u != h for lo, hi in [sorted((u, h))]
    }
    assert sorted(sends) == [(d, 3) for d in range(5) if d != 3]
    pads.clear()
    sends.clear()
    run_distribution(_noisy_network(5, seed=2), params)
    assert sides_per_link() == {
        (lo, hi): [lo, hi] for lo in range(1, 6) for hi in range(lo + 1, 6)
    }
    assert sorted(sends) == sorted(itertools.permutations(range(5), 2))


def test_holder_run_builds_only_the_links_it_uses(monkeypatch):
    # n sender links plus h's n - 1 recipient links; every pair is still
    # reported, and the untouched ones have consumed nothing
    n, h = 7, 2
    params = small_params(n=n, k=4)
    built = []
    real_init = LinkKeyStore.__init__

    def counted(self, user_a, user_b, **kwargs):
        built.append((user_a, user_b))
        real_init(self, user_a, user_b, **kwargs)

    monkeypatch.setattr(LinkKeyStore, "__init__", counted)
    network = Network(NetworkConfig(n_users=n + 1, seed=4))
    assert built == []
    run_distribution(network, params, holder=h)
    used = {(0, u) for u in range(1, n + 1)}
    used |= {tuple(sorted((h + 1, u))) for u in range(1, n + 1) if u != h + 1}
    assert len(built) == 2 * n - 1 and set(built) == used
    consumed = network.total_consumed()
    assert len(consumed) == n * (n + 1) // 2
    assert {pair for pair, bits in consumed.items() if bits} == used


def test_run_honest_reads_pool_bits_only_on_sender_links(monkeypatch):
    # each endpoint of a sender link reads its batch once, as one range;
    # recipient links read no pool bits, since one-time pads cancel
    n, k, a, t = 4, 700, 8, 8
    reads = []
    real_pool_bytes = LinkKeyStore._pool_bytes

    def counted(self, start, n_bits):
        reads.append((self.users, start, n_bits))
        return real_pool_bytes(self, start, n_bits)

    monkeypatch.setattr(LinkKeyStore, "_pool_bytes", counted)
    assert run_honest(ProtocolParams.build(n, a, t, k=k), seed=6).all_accepted
    assert sorted(reads) == [((0, r), 0, n * k * (a + t)) for r in range(1, n + 1) for _ in "ab"]


@pytest.mark.parametrize("holder", [-1, 3, True, np.bool_(True), 1.0])
def test_holder_out_of_range_is_rejected_before_any_draw(holder):
    params = small_params(n=3, k=4)
    network = Network(NetworkConfig(n_users=4, seed=1))
    with pytest.raises(ValueError, match="holder"):
        run_distribution(network, params, holder=holder)
    assert set(network.total_consumed().values()) == {0}


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

    seen = {"batches": []}
    real_distribution, real_sign = simlab.run_distribution, Sender.sign
    real_end = Recipient.end_sharing

    def keep_batch(self):
        seen["batches"].append(self._batch)  # caught before it is dropped
        real_end(self)

    def keep_parties(*args):
        seen["parties"] = real_distribution(*args)
        return seen["parties"]

    def keep_signature(self, message):
        seen["signature"] = real_sign(self, message)
        return seen["signature"]

    monkeypatch.setattr(simlab, "run_distribution", keep_parties)
    monkeypatch.setattr(Sender, "sign", keep_signature)
    monkeypatch.setattr(Recipient, "end_sharing", keep_batch)
    n = 7
    params = ProtocolParams.build(n, a, t, k=12)
    assert run_honest(params, seed=4).all_accepted
    sender, recipients = seen["parties"]
    mult_dtype, tag_dtype = packed_dtype(a), packed_dtype(t)
    keys = [sender.issued_group(g) for g in range(n)]
    keys += seen["batches"]
    assert len(seen["batches"]) == n
    for r in recipients:
        held = [r.held_group(g) for g in range(n)]
        assert all(h.slots.dtype == packed_dtype(protocol.id_bits(n, 12)) for h in held)
        keys += [(h.multipliers, h.offsets) for h in held]
    assert all(m.dtype == mult_dtype and o.dtype == tag_dtype for m, o in keys)
    assert seen["signature"].tags.dtype == tag_dtype
