"""Simulated key links: determinism, noise, consumption, readiness."""
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from ussim._bitops import unpack_rows
from ussim.keystore import (
    LinkKeyStore,
    LinkSettings,
    Network,
    NetworkConfig,
)
from ussim.protocol import run_distribution
from ussim.secparams import ProtocolParams, time_to_ready


def _bits(packed, n_bits):
    """A packed draw as one bit per element; its padding must be zero."""
    assert packed.dtype == np.uint8 and packed.size == (n_bits + 7) // 8
    bits = np.unpackbits(packed)
    assert not bits[n_bits:].any()
    return bits[:n_bits]


def test_draws_are_deterministic_across_instances():
    first = LinkKeyStore(0, 1, seed=7).draw_shared(1000, side=0)
    second = LinkKeyStore(0, 1, seed=7).draw_shared(1000, side=0)
    assert first.dtype == np.uint8 and first.size == 125
    assert np.array_equal(first, second)


def test_different_seeds_and_links_give_different_streams():
    base = LinkKeyStore(0, 1, seed=7).draw_shared(256, side=0)
    other_seed = LinkKeyStore(0, 1, seed=8).draw_shared(256, side=0)
    other_link = LinkKeyStore(0, 2, seed=7).draw_shared(256, side=0)
    assert not np.array_equal(base, other_seed)
    assert not np.array_equal(base, other_link)


def test_sides_agree_on_noiseless_link():
    store = LinkKeyStore(0, 1, seed=3)
    assert np.array_equal(
        store.draw_shared(4096, side=0), store.draw_shared(4096, side=1)
    )


def test_draw_crosses_block_boundaries_consistently():
    # one long draw equals the concatenation of many short ones, including
    # draws that start off a byte boundary and cross a pool block
    sizes = (1, 511, 512, 700, 276, 32768 - 2000 - 3, 10, 40000)
    long_read = LinkKeyStore(0, 1, seed=5).draw_shared(sum(sizes), side=0)
    store = LinkKeyStore(0, 1, seed=5)
    pieces = [_bits(store.draw_shared(n, side=0), n) for n in sizes]
    assert np.array_equal(_bits(long_read, sum(sizes)), np.concatenate(pieces))


@pytest.mark.parametrize("sizes", [(4096,), (1000, 70000, 3), (1 << 21,)])
def test_other_endpoint_reads_the_kept_blocks_unchanged(sizes):
    # the second endpoint reads the positions the first one read, bit for
    # bit, and consumes no further pool doing so
    store = LinkKeyStore(0, 1, seed=9)
    first = np.concatenate([_bits(store.draw_shared(n, side=0), n) for n in sizes])
    second = _bits(store.draw_shared(sum(sizes), side=1), sum(sizes))
    alone = LinkKeyStore(0, 1, seed=9).draw_shared(sum(sizes), side=1)
    assert np.array_equal(first, second)
    assert np.array_equal(second, _bits(alone, sum(sizes)))
    assert store.consumed_bits() == sum(sizes)


@given(
    sizes=st.lists(st.integers(0, 5000), min_size=1, max_size=6),
    other_sizes=st.lists(st.integers(0, 5000), min_size=1, max_size=6),
    first_side=st.sampled_from([0, 1]),
    q=st.sampled_from([0.0, 0.01]),
)
@settings(max_examples=40, deadline=None)
def test_any_split_from_either_endpoint_equals_one_read(sizes, other_sizes, first_side, q):
    # a read is a pure function of pool position: how a range is split, and
    # whether the other endpoint read it first, change none of its bits
    def one_read(side, n_bits):
        return _bits(LinkKeyStore(0, 1, seed=9, flip_prob=q).draw_shared(n_bits, side), n_bits)

    store = LinkKeyStore(0, 1, seed=9, flip_prob=q)
    for side, split in ((first_side, sizes), (1 - first_side, other_sizes)):
        got = [_bits(store.draw_shared(n, side=side), n) for n in split]
        assert np.array_equal(np.concatenate(got), one_read(side, sum(split)))


@pytest.mark.parametrize("start", [0, 511, 512, 1000, 32767, 32768])
@pytest.mark.parametrize("n_bits", [0, 1, 513, 2000])
def test_pool_bits_match_freshly_keyed_reference(start, n_bits):
    # the store re-keys one shared generator per read; the oracle builds a
    # fresh generator for every bit
    want = reference.pool_bits(11, 2, 5, start, n_bits)
    for side in (2, 5):
        store = LinkKeyStore(2, 5, seed=11)
        store.draw_shared(start, side=side)
        assert _bits(store.draw_shared(n_bits, side=side), n_bits).tolist() == want


@pytest.mark.parametrize("q", [0.01, 0.3])
@pytest.mark.parametrize("start", [0, (1 << 20) - 3001])
def test_noisy_reads_do_not_depend_on_batching(q, start):
    # flips are keyed by pool position, so [start, start + N) read as one
    # draw or as several gives identical bits; the second start crosses a
    # flip block
    sizes = (1, 7, 3000, 509, 4096, 5, 2382)
    whole = LinkKeyStore(0, 1, seed=13, flip_prob=q)
    pieces = LinkKeyStore(0, 1, seed=13, flip_prob=q)
    for store in (whole, pieces):
        store.draw_shared(start, side=1)
    one = whole.draw_shared(sum(sizes), side=1)
    several = np.concatenate([_bits(pieces.draw_shared(n, side=1), n) for n in sizes])
    assert np.array_equal(_bits(one, sum(sizes)), several)
    clean = LinkKeyStore(0, 1, seed=13).draw_shared(start + sum(sizes), side=0)
    flipped = _bits(clean, start + sum(sizes))[start:] ^ several
    assert flipped.any()


@pytest.mark.parametrize("q", [5e-324, 1e-300, 1e-4, 0.01, 0.05, 0.3, 1.0])
def test_flips_match_freshly_seeded_reference(q):
    # flip blocks shrink with q to about 1024 expected flips; the store
    # reuses one generator and its last block and draws gaps in chunks,
    # the oracle seeds every block afresh and draws one gap at a time; at
    # q = 1e-300 and 5e-324 every gap is int64 max, so nothing flips
    start, n_bits = (1 << 20) - 5000, 9000
    store = LinkKeyStore(2, 5, seed=11, flip_prob=q)
    store.draw_shared(start, side=2)
    store.draw_shared(start, side=5)  # the last block drawn holds start - 1
    got = [store.otp_transfer(n, from_side=2) + offset
           for offset, n in ((0, 3000), (3000, 1), (3001, 5999))]
    want = reference.flip_positions(11, 2, 5, q, start, n_bits)
    assert np.concatenate(got).tolist() == want
    assert abs(len(want) - n_bits * q) <= 4 * math.sqrt(n_bits * q) + 1
    assert q > 1e-200 or not want


@pytest.mark.parametrize("q", [0.0, 0.01])
@pytest.mark.parametrize("start, n_bits", [(0, 0), (0, 4096), (511, 1000), ((1 << 20) - 3001, 6000)])
def test_positioned_reads_see_what_the_cursors_see_and_move_none(q, start, n_bits):
    # read and flips look at any range by position: read gives each side
    # what draw_shared gives it there, flips what otp_transfer returns there,
    # and the two sides' reads differ exactly at the flips
    store = LinkKeyStore(2, 5, seed=13, flip_prob=q)
    reads = [store.read(start, n_bits, side) for side in (2, 5)]
    flips = store.flips(start, n_bits)
    assert store.consumed_bits() == 0
    drawn = LinkKeyStore(2, 5, seed=13, flip_prob=q)
    for side, got in zip((2, 5), reads):
        drawn.draw_shared(start, side=side)
        assert np.array_equal(got, drawn.draw_shared(n_bits, side=side))
    differ = np.flatnonzero(_bits(reads[0], n_bits) ^ _bits(reads[1], n_bits))
    assert differ.tolist() == flips.tolist()
    assert (q > 0 and n_bits > 0) == (flips.size > 0)
    sent = LinkKeyStore(2, 5, seed=13, flip_prob=q)
    sent.otp_transfer(start, from_side=2)
    assert np.array_equal(sent.otp_transfer(n_bits, from_side=5), flips)


@pytest.mark.parametrize("bad", [-1, 1.0, True])
def test_positioned_reads_check_their_start(bad):
    store = LinkKeyStore(0, 1, seed=1, flip_prob=0.1)
    with pytest.raises(ValueError, match="^start must be a non-negative int"):
        store.read(bad, 8, side=0)
    with pytest.raises(ValueError, match="^start must be a non-negative int"):
        store.flips(bad, 8)
    with pytest.raises(ValueError, match="not an endpoint"):
        store.read(0, 8, side=2)


def test_a_batch_read_and_decode_copy_its_bytes_once():
    # a sender batch at n=20 a=64 t=32 k=2270 (0.52 MiB): the read swaps the
    # generator's words in place, and each decoded field is one copy of its
    # strided bytes, so neither peaks much above what it returns
    link = LinkKeyStore(0, 1, seed=3)
    link.read(0, 64, side=0)  # numpy.random's first use imports modules: not counted
    count, a, t = 20 * 2270, 64, 32

    def peak_over_output(read):
        tracemalloc.start()
        try:
            out = read()
            return tracemalloc.get_traced_memory()[1] / out.nbytes
        finally:
            tracemalloc.stop()

    batch = link.read(0, count * (a + t), side=0)
    assert peak_over_output(lambda: link.read(0, count * (a + t), side=0)) < 1.05
    assert peak_over_output(lambda: unpack_rows(batch, a, count, stride=a + t)) < 1.05
    assert peak_over_output(lambda: unpack_rows(batch, t, count, start=a, stride=a + t)) < 1.05


def test_all_bits_flip_at_probability_one():
    store = LinkKeyStore(0, 1, seed=3, flip_prob=1.0)
    clean = _bits(store.draw_shared(509, side=0), 509)
    noisy = _bits(store.draw_shared(509, side=1), 509)
    assert np.array_equal(noisy, clean ^ 1)


def test_flip_fraction_near_rate():
    q = 0.01
    n = 100_000
    store = LinkKeyStore(0, 1, seed=11, flip_prob=q)
    clean = store.draw_shared(n, side=0)
    noisy = store.draw_shared(n, side=1)
    flips = int(np.unpackbits(clean ^ noisy).sum())
    sigma = math.sqrt(n * q * (1 - q))
    assert abs(flips - n * q) <= 3 * sigma


def test_only_higher_numbered_side_sees_flips():
    store = LinkKeyStore(0, 1, seed=3, flip_prob=0.5)
    reference_bits = LinkKeyStore(0, 1, seed=3).draw_shared(512, side=0)
    assert np.array_equal(store.draw_shared(512, side=0), reference_bits)
    assert store.noisy_side == 1


def test_endpoint_order_does_not_matter():
    assert LinkKeyStore(1, 0, seed=2).users == LinkKeyStore(0, 1, seed=2).users


def test_otp_transfer_roundtrip_noiseless():
    # a noiseless link delivers the payload exactly: no flip positions
    store = LinkKeyStore(0, 1, seed=9)
    flips = store.otp_transfer(333, from_side=0)
    assert flips.dtype == np.int64 and flips.size == 0
    assert store.consumed_bits() == 333


def test_otp_transfer_error_rate_on_noisy_link():
    q = 0.02
    n = 50_000
    store = LinkKeyStore(0, 1, seed=9, flip_prob=q)
    flips = store.otp_transfer(n, from_side=0)
    assert np.all(np.diff(flips) > 0) and 0 <= flips[0] and flips[-1] < n
    sigma = math.sqrt(n * q * (1 - q))
    assert abs(flips.size - n * q) <= 3 * sigma


def test_consumption_counts_positions_once():
    store = LinkKeyStore(0, 1, seed=0)
    store.draw_shared(100, side=0)
    assert store.consumed_bits() == 100
    store.draw_shared(40, side=1)  # rereads positions side 0 already saw
    assert store.consumed_bits() == 100
    store.draw_shared(200, side=1)
    assert store.consumed_bits() == 240


def test_otp_transfer_spends_payload_length_once():
    store = LinkKeyStore(0, 1, seed=0)
    store.otp_transfer(64, from_side=1)
    assert store.consumed_bits() == 64


@pytest.mark.parametrize("q", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("from_side", [0, 1])
def test_otp_transfer_matches_payload_xor_both_pads(q, from_side):
    # the twin spends the same positions the way a pad-based transfer
    # would: both endpoints draw, and the payload is XORed with both views;
    # the flips are exactly where those two views differ
    store = LinkKeyStore(0, 1, seed=21, flip_prob=q)
    twin = LinkKeyStore(0, 1, seed=21, flip_prob=q)
    for link in (store, twin):  # start both cursors off a byte boundary
        link.draw_shared(509, side=0)
        link.draw_shared(509, side=1)
    to_side = 1 - from_side
    rng = np.random.default_rng(5)
    for n_bits in (37, 1, 601, 0, 1023):
        payload = rng.integers(0, 2, size=n_bits, dtype=np.uint8)
        pad_from = _bits(twin.draw_shared(n_bits, from_side), n_bits)
        pad_to = _bits(twin.draw_shared(n_bits, to_side), n_bits)
        flips = store.otp_transfer(n_bits, from_side=from_side)
        assert flips.dtype == np.int64
        assert np.array_equal(flips, np.flatnonzero(pad_from ^ pad_to))
        delivered = payload.copy()
        delivered[flips] ^= 1
        assert np.array_equal(delivered, payload ^ pad_from ^ pad_to)
        assert store.consumed_bits() == twin.consumed_bits()
    # the transfers left both stores at the same place in the pool
    assert np.array_equal(store.draw_shared(64, side=1), twin.draw_shared(64, side=1))


def test_otp_transfer_rejects_desynced_link_and_strangers():
    store = LinkKeyStore(3, 5, seed=4)
    with pytest.raises(ValueError, match="endpoint"):
        store.otp_transfer(8, from_side=4)
    store.draw_shared(10, side=5)
    with pytest.raises(ValueError, match=r"link \(3, 5\) is out of sync: user 3 .* 0, user 5 .* 10"):
        store.otp_transfer(8, from_side=3)
    assert store.consumed_bits() == 10


@pytest.mark.parametrize("bad", [True, False, 1.0, "1", None])
def test_sides_that_are_not_int_user_indices_are_rejected_by_name(bad):
    # True and 1.0 would otherwise find user 1's cursor
    store = LinkKeyStore(0, 1)
    with pytest.raises(ValueError, match="side must be an int"):
        store.draw_shared(16, side=bad)
    with pytest.raises(ValueError, match="from_side must be an int"):
        store.otp_transfer(16, from_side=bad)
    assert store.consumed_bits() == 0
    assert np.array_equal(store.draw_shared(16, side=np.int64(1)), store.draw_shared(16, side=0))


def test_store_validation():
    with pytest.raises(ValueError, match="distinct"):
        LinkKeyStore(1, 1)
    with pytest.raises(ValueError, match="flip_prob"):
        LinkKeyStore(0, 1, flip_prob=1.5)
    with pytest.raises(ValueError, match="seed"):
        LinkKeyStore(0, 1, seed=-1)
    with pytest.raises(ValueError, match="seed"):
        LinkKeyStore(0, 1, seed=1 << 63)
    store = LinkKeyStore(0, 1)
    with pytest.raises(ValueError, match="endpoint"):
        store.draw_shared(8, side=2)
    for bad in (-1, True, 8.0):
        with pytest.raises(ValueError, match="n_bits"):
            store.draw_shared(bad, side=0)
        with pytest.raises(ValueError, match="n_bits"):
            store.otp_transfer(bad, from_side=0)
    assert store.consumed_bits() == 0


def test_network_config_from_json_with_overrides():
    config = NetworkConfig.from_json(
        json.dumps(
            {
                "users": 4,
                "default_rate_bps": 500.0,
                "default_flip_prob": 0.01,
                "seed": 42,
                "links": [
                    {"a": 0, "b": 1, "rate_bps": 2000.0},
                    {"a": 2, "b": 1, "flip_prob": 0.0},
                ],
            }
        )
    )
    assert config.n_users == 4
    assert config.seed == 42
    assert config.rate(0, 1) == 2000.0
    assert config.rate(1, 0) == 2000.0
    assert config.rate(0, 2) == 500.0
    assert config.flip_prob(1, 2) == 0.0
    assert config.flip_prob(0, 1) == 0.01
    # entry was given as (2, 1) and normalizes to the sorted pair
    assert (1, 2) in config.links


def test_network_config_rejects_unknown_keys_by_name():
    with pytest.raises(ValueError, match="'rate'"):
        NetworkConfig.from_json('{"users": 3, "rate": 10}')
    with pytest.raises(ValueError, match="links\\[0\\]"):
        NetworkConfig.from_json(
            '{"users": 3, "links": [{"a": 0, "b": 1, "speed": 1}]}'
        )


def test_network_config_structural_validation():
    with pytest.raises(ValueError, match="users"):
        NetworkConfig.from_json('{"default_rate_bps": 10}')
    with pytest.raises(ValueError, match="links\\[0\\]"):
        NetworkConfig.from_json('{"users": 3, "links": [{"a": 0}]}')
    with pytest.raises(ValueError, match="outside"):
        NetworkConfig(n_users=3, links={(0, 3): LinkSettings()})
    with pytest.raises(ValueError, match="twice"):
        NetworkConfig(
            n_users=3, links={(0, 1): LinkSettings(), (1, 0): LinkSettings()}
        )
    with pytest.raises(ValueError, match="distinct"):
        NetworkConfig(n_users=3, links={(1, 1): LinkSettings()})
    with pytest.raises(ValueError, match="seed"):
        NetworkConfig(n_users=3, seed=-5)


@pytest.mark.parametrize("links, error", [
    ([(0, 1)], "links must map user pairs to LinkSettings"),
    ({(0, 1): {"rate_bps": 5}}, r"link \(0, 1\) settings must be a LinkSettings"),
    ({(1, 0): None}, r"link \(0, 1\) settings must be a LinkSettings"),
    ({1: LinkSettings()}, "link 1 must be a pair of users"),
    ({(0, 1, 2): LinkSettings()}, r"link \(0, 1, 2\) must be a pair of users"),
], ids=["list", "dict-settings", "none-settings", "int-pair", "triple"])
def test_links_of_the_wrong_shape_from_python_are_rejected(links, error):
    # these used to raise AttributeError, TypeError or an unpacking error partway
    with pytest.raises(ValueError, match=error):
        NetworkConfig(n_users=3, links=links)


def test_a_repeated_link_entry_is_rejected_by_index():
    # entries were gathered in a dict keyed by the pair, so the last one won
    raw = {"users": 3, "links": [{"a": 0, "b": 1, "flip_prob": 0.5},
                                 {"a": 0, "b": 1, "flip_prob": 0.0}]}
    with pytest.raises(ValueError, match=r"^links\[1\] configures link \(0, 1\) a second time$"):
        NetworkConfig.from_dict(raw)
    raw["links"][1] = {"a": 1, "b": 0}  # the same pair the other way round
    with pytest.raises(ValueError, match=r"link \(0, 1\) configured twice"):
        NetworkConfig.from_dict(raw)


@pytest.mark.parametrize("rate", [float("nan"), float("inf"), 0.0, -1.0, True, "fast"])
def test_non_positive_or_nan_rates_are_rejected_by_name(rate):
    with pytest.raises(ValueError, match="default_rate_bps"):
        NetworkConfig(n_users=3, default_rate_bps=rate)
    with pytest.raises(ValueError, match=r"rate_bps on link \(0, 1\)"):
        NetworkConfig(n_users=3, links={(0, 1): LinkSettings(rate_bps=rate)})


@pytest.mark.parametrize("prob", ["0.01", True, False, float("nan"), float("inf"), -0.5, 1.5])
def test_flip_probs_outside_the_unit_interval_are_rejected_by_name(prob):
    # a string used to fail with a TypeError at the comparison, and a bool
    # was taken as q = 0 or 1
    with pytest.raises(ValueError, match="default_flip_prob"):
        NetworkConfig(n_users=3, default_flip_prob=prob)
    with pytest.raises(ValueError, match=r"flip_prob on link \(0, 1\)"):
        NetworkConfig(n_users=3, links={(0, 1): LinkSettings(flip_prob=prob)})
    with pytest.raises(ValueError, match="flip_prob must be a number in"):
        LinkKeyStore(0, 1, flip_prob=prob)


def test_link_flip_prob_null_falls_back_to_the_default():
    raw = {"users": 3, "default_flip_prob": 0.25, "links": [{"a": 0, "b": 1, "flip_prob": None}]}
    config = NetworkConfig.from_dict(raw)
    assert config.flip_prob(0, 1) == 0.25
    assert Network(config).link(0, 1).flip_prob == 0.25


@pytest.mark.parametrize("end", [1.5, True])
def test_non_int_link_endpoints_are_rejected(end):
    raw = {"users": 4, "links": [{"a": 0, "b": 1}, {"a": end, "b": 2, "flip_prob": 0.4}]}
    with pytest.raises(ValueError, match=r"links\[1\]"):
        NetworkConfig.from_dict(raw)
    with pytest.raises(ValueError, match="endpoint must be an int"):
        NetworkConfig(n_users=4, links={(end, 2): LinkSettings(flip_prob=0.4)})


def test_network_builds_every_pair():
    net = Network(NetworkConfig(n_users=4, seed=1))
    # 1.0 and True hash and compare like 1, so a lookup alone would find
    # the (0, 1) store once it is built
    non_int = [(0, 1.0), (1.0, 0), (False, True), (0, True)]
    for ends in non_int:
        with pytest.raises(ValueError, match="user_[ab] must be an int"):
            net.link(*ends)
    for a in range(4):
        for b in range(4):
            if a != b:
                assert net.link(a, b) is net.link(b, a)
    assert net.link(np.int64(0), np.int64(1)) is net.link(0, 1)
    assert all(v == 0 for v in net.total_consumed().values())
    for ends in non_int:
        with pytest.raises(ValueError, match="user_[ab] must be an int"):
            net.link(*ends)
    with pytest.raises(ValueError, match="no link"):
        net.link(0, 0)


def test_network_applies_per_link_settings():
    config = NetworkConfig(
        n_users=3,
        default_flip_prob=0.2,
        links={(0, 1): LinkSettings(flip_prob=0.0)},
    )
    net = Network(config)
    assert net.link(0, 1).flip_prob == 0.0
    assert net.link(0, 2).flip_prob == 0.2


def test_time_to_ready_frozen_reference_network():
    params = ProtocolParams.build(7, 8, 8, k=906)
    config = NetworkConfig(n_users=8)
    report = time_to_ready(config, params)
    # sender links carry 7 * 906 * 16 bits at 1000 bps
    assert report.seconds == pytest.approx(101.472, rel=1e-12)
    assert report.binding_link == (0, 1)
    assert report.per_link_seconds[(1, 2)] == pytest.approx(52.548, rel=1e-12)
    assert len(report.per_link_seconds) == 28


def test_time_to_ready_scales_with_rate():
    params = ProtocolParams.build(7, 8, 8, k=906)
    fast = time_to_ready(NetworkConfig(n_users=8, default_rate_bps=10_000), params)
    assert fast.seconds == pytest.approx(10.1472, rel=1e-12)


def test_time_to_ready_binds_on_slowest_link():
    params = ProtocolParams.build(7, 8, 8, k=906)
    config = NetworkConfig(
        n_users=8, links={(3, 5): LinkSettings(rate_bps=1.0)}
    )
    report = time_to_ready(config, params)
    assert report.binding_link == (3, 5)
    assert report.seconds == pytest.approx(52_548.0, rel=1e-12)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_time_to_ready_prices_the_bits_a_distribution_meters(data):
    # seconds times rate is what run_distribution draws on each link, one slow link included
    n = data.draw(st.integers(2, 5))
    a = data.draw(st.integers(1, 16))
    t = data.draw(st.integers(1, min(a, 8)))
    params = ProtocolParams.build(n, a, t, k=data.draw(st.integers(1, 20)))
    pair = data.draw(st.sampled_from([(u, v) for u in range(n + 1) for v in range(u + 1, n + 1)]))
    slow = data.draw(st.floats(0.5, 999.0))
    config = NetworkConfig(n_users=n + 1, links={pair: LinkSettings(rate_bps=slow)})
    network = Network(config)
    run_distribution(network, params)
    report = time_to_ready(config, params)
    for link, bits in network.total_consumed().items():
        assert report.per_link_seconds[link] * config.rate(*link) == pytest.approx(bits, rel=1e-12)


def test_time_to_ready_needs_matching_user_count():
    params = ProtocolParams.build(7, 8, 8, k=906)
    with pytest.raises(ValueError, match="users"):
        time_to_ready(NetworkConfig(n_users=7), params)
