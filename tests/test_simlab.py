"""Experiments: honest runs, adversary Monte Carlo, parameter sweeps."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference
from ussim import simlab
from ussim._bitops import pack_rows, packed_dtype
from ussim.keystore import Network, NetworkConfig
from ussim.protocol import Recipient, Signature, run_distribution
from ussim.secparams import (
    CostMode, ProtocolParams, TailMode, consumption, dishonest_count, p_nontransfer,
)
from ussim.simlab import (
    SweepResult,
    attack_forge,
    attack_repudiation,
    expected_mismatch_fraction,
    run_honest,
    sweep_consumption,
    sweep_error_tolerance,
    wilson_interval,
)


@given(st.data())
def test_wilson_interval_brackets_the_point_estimate(data):
    trials = data.draw(st.integers(min_value=1, max_value=10_000))
    successes = data.draw(st.integers(min_value=0, max_value=trials))
    low, high = wilson_interval(successes, trials)
    assert 0.0 <= low <= successes / trials <= high <= 1.0


def test_wilson_interval_edges_and_validation():
    low, high = wilson_interval(0, 100)
    assert low == 0.0 and 0 < high < 0.05
    low, high = wilson_interval(100, 100)
    assert 0.95 < low < 1.0
    with pytest.raises(ValueError, match="trials"):
        wilson_interval(0, 0)
    with pytest.raises(ValueError, match="successes"):
        wilson_interval(5, 4)
    # bools are ints to Python but not counts
    with pytest.raises(ValueError, match="trials"):
        wilson_interval(1, True)
    with pytest.raises(ValueError, match="successes"):
        wilson_interval(True, 5)
    with pytest.raises(ValueError, match="successes"):
        wilson_interval(1.0, 5)


def test_run_honest_accepts_everywhere_noiseless():
    params = ProtocolParams.build(3, 8, 8, k=60)
    outcome = run_honest(params, seed=4)
    assert outcome.all_accepted
    assert len(outcome.verify_results) == 3
    for result in outcome.verify_results:
        assert result.level == params.l_max
        assert result.mismatch_counts == (0, 0, 0)
    assert [r.level for r in outcome.chain_results] == [0]
    assert outcome.consumed_total == consumption(params, CostMode.ACCOUNTING).total_bits


def test_run_honest_chain_spans_levels_down_to_zero():
    params = ProtocolParams.build(7, 8, 8, k=50)
    outcome = run_honest(params, seed=4)
    assert [r.level for r in outcome.chain_results] == [1, 0]
    assert [r.recipient_index for r in outcome.chain_results] == [0, 1]


def test_run_honest_is_deterministic_and_seed_overrides_config():
    params = ProtocolParams.build(3, 8, 8, k=20)
    config = NetworkConfig(n_users=4, seed=9)
    override = run_honest(params, config, seed=11)
    plain = run_honest(params, seed=11)
    assert override.message == plain.message
    assert override.verify_results == plain.verify_results
    assert run_honest(params, seed=11).message == plain.message


def test_run_honest_fixed_message_is_used():
    params = ProtocolParams.build(3, 8, 8, k=20)
    assert run_honest(params, seed=1, message=0xE7).message == 0xE7


@pytest.mark.parametrize("message, error", [
    (-1, r"^message must be in \[0, 2\*\*8\)$"),
    (256, r"^message must be in \[0, 2\*\*8\)$"),
    (2.0, "^message must be an int, got 2.0$"),
    (True, "^message must be an int, got True$"),
])
def test_run_honest_checks_its_message_before_any_batch_is_drawn(monkeypatch, message, error):
    # with the text sign gives, before the distribution draws n batches
    monkeypatch.setattr(Recipient, "receive_batch", lambda self: pytest.fail("a batch was drawn"))
    params = ProtocolParams.build(3, 8, 8, k=4)
    with pytest.raises(ValueError, match=error):
        run_honest(params, seed=1, message=message)


def test_run_honest_rejects_under_heavy_noise():
    params = ProtocolParams.build(7, 8, 8, k=60)
    config = NetworkConfig(n_users=8, default_flip_prob=0.5, seed=2)
    outcome = run_honest(params, config)
    assert not outcome.all_accepted
    assert not any(r.accepted for r in outcome.verify_results)


def test_repudiation_gamma_endpoints_never_split():
    params = ProtocolParams.build(7, 8, 8, k=30)
    for gamma in (0.0, 1.0):
        assert attack_repudiation(gamma, params, trials=500).successes == 0


@pytest.mark.parametrize("seed, successes", [(0, (268, 72)), (3, (268, 68))])
def test_repudiation_successes_with_edge_batches_are_pinned(seed, successes):
    # batches at gamma 0 and 1 beside drawn ones: an edge batch that took a
    # draw, or skipped one the sampler makes, would shift every later batch
    params = ProtocolParams.build(7, 8, 8, k=10)
    patterns = ((0.3, 0.0, 1.0, 0.3, 0.0, 1.0, 0.3), (0.2, 1.0, 0.0, 0.5, 0.2, 1.0, 0.0))
    got = tuple(attack_repudiation(g, params, trials=2000, seed=seed).successes for g in patterns)
    assert got == successes


def test_repudiation_gamma_accepts_any_real_scalar():
    params = ProtocolParams.build(3, 8, 8, k=10)

    def run(gamma):
        return attack_repudiation(gamma, params, trials=200, seed=4)

    # int 0 and 1 used to raise TypeError: only a float counted as one gamma
    assert run(1) == run(1.0)
    assert run(0) == run(0.0)
    assert run(np.float64(0.4)) == run(0.4) == run((0.4, 0.4, 0.4))


def test_repudiation_rejects_bool_and_non_numeric_gamma():
    params = ProtocolParams.build(3, 8, 8, k=10)
    for bad in (True, np.bool_(False), (0.5, True, 0.5), ("0.5",) * 3, object()):
        with pytest.raises(ValueError, match="gamma"):
            attack_repudiation(bad, params, trials=10)


def test_repudiation_rate_decreases_with_k():
    rates = {}
    for k, gamma in ((10, 0.325), (20, 0.375), (30, 0.35)):
        params = ProtocolParams.build(7, 8, 8, k=k)
        result = attack_repudiation(gamma, params, trials=10_000, seed=1)
        rates[k] = result.rate
        sigma = math.sqrt(max(result.rate, 1e-4) * (1 - result.rate) / result.trials)
        assert result.rate <= result.bound + 3 * sigma
        assert result.bound_level == 0
    assert rates[10] > rates[20] > rates[30]


def test_repudiation_matches_full_protocol_replay():
    """The direct chunk-count sampler agrees with replaying the protocol."""
    gamma, k, trials = 0.325, 10, 600
    params = ProtocolParams.build(7, 8, 8, k=k)
    n = params.n_recipients
    m = math.floor(gamma * n * k + 1e-9)
    successes = 0
    for trial in range(trials):
        config = NetworkConfig(n_users=n + 1, seed=trial)
        sender, recipients = run_distribution(Network(config), params)
        signature = sender.sign(0xA5)
        tags = signature.tags.copy()
        tags[:, :m] ^= np.uint64(1)
        corrupted = Signature(
            message=signature.message,
            tags=tags,
            n_recipients=n,
            k=k,
            msg_len_bits=params.msg_len_bits,
            tag_len_bits=params.tag_len_bits,
        )
        accept_zero = any(r.verify(corrupted, 0).accepted for r in recipients)
        reject_base = any(not r.verify(corrupted, -1).accepted for r in recipients)
        successes += accept_zero and reject_base
    replay_rate = successes / trials
    fast = attack_repudiation(gamma, params, trials=10_000, seed=0)
    sigma = math.sqrt(
        fast.rate * (1 - fast.rate) / trials + fast.rate * (1 - fast.rate) / fast.trials
    )
    assert abs(replay_rate - fast.rate) <= 4 * sigma


@pytest.mark.parametrize("k", range(1, 9))
def test_repudiation_optimum_is_the_largest_exact_rate_at_n2(k):
    # the 16-class product against the plain double sum over both chunk counts
    params = ProtocolParams.build(2, 8, 8, k=k)
    rate, split = reference.repudiation_optimum(params)
    exact = [reference.repudiation_exact(params, (m0, m1))
             for m0 in range(2 * k + 1) for m1 in range(2 * k + 1)]
    assert rate == pytest.approx(max(exact), rel=1e-12)
    assert reference.repudiation_exact(params, split) == pytest.approx(rate, rel=1e-12)


def test_nontransfer_bound_covers_the_optimal_repudiation_at_n2():
    # Arrazola, Wallden and Andersson, "Multiparty quantum signature schemes"
    # (QIC 2016): p_nontransfer(0) bounds every dishonest sender. At n = 2
    # below k = 200, acceptance at level 0 needs a clean chunk of both
    # batches, so the best split is one clean batch and ceil(0.499 k)
    # corrupted slots in the other, succeeding with 2 C(k, m) / C(2k, m)
    below_one = {mode: 0 for mode in TailMode}
    for k in range(1, 161):
        rate, _ = reference.repudiation_optimum(ProtocolParams.build(2, 8, 8, k=k))
        m = math.ceil(0.499 * k)
        assert rate == pytest.approx(2 * math.comb(k, m) / math.comb(2 * k, m), rel=1e-9)
        if k in (5, 10, 20):
            assert rate == pytest.approx({5: 0.167, 10: 0.0325, 20: 4.4e-4}[k], rel=0.01)
        for mode in TailMode:
            bound = p_nontransfer(0, ProtocolParams.build(2, 8, 8, k=k, mode=mode)).p_nontransfer
            if bound < 1:
                below_one[mode] += 1
                assert bound >= rate, (k, mode)
    assert min(below_one.values()) >= 150  # the check reaches nearly every k


@pytest.mark.parametrize("k, corrupted", [(5, (0, 3)), (10, (0, 5)), (5, (1, 3)), (10, (2, 5))])
def test_repudiation_rate_matches_the_exact_law_at_n2(k, corrupted):
    # the optimal split at k = 5 and 10, and splits corrupting both batches
    params = ProtocolParams.build(2, 8, 8, k=k)
    exact = reference.repudiation_exact(params, corrupted)
    result = attack_repudiation(tuple(m / (2 * k) for m in corrupted), params, trials=20_000, seed=5)
    assert abs(result.rate - exact) <= 4 * math.sqrt(exact * (1 - exact) / result.trials)


def test_repudiation_spec_validation():
    params = ProtocolParams.build(7, 8, 8, k=10)
    with pytest.raises(ValueError, match="gamma"):
        attack_repudiation(None, params, trials=10)
    with pytest.raises(ValueError, match="7"):
        attack_repudiation((0.5, 0.5), params, trials=10)
    with pytest.raises(ValueError, match="gamma entries"):
        attack_repudiation(1.5, params, trials=10)


def test_attack_spec_validation():
    params = ProtocolParams.build(3, 8, 8, l_max=0, d_r=0.0, k=8)
    with pytest.raises(ValueError, match="trials"):
        attack_forge(params, trials=0)
    with pytest.raises(ValueError, match="seed"):
        attack_forge(params, trials=1, seed=-1)
    with pytest.raises(ValueError, match="trials"):
        attack_forge(params, trials=True)


def test_attack_spec_rejects_bool_seed():
    params = ProtocolParams.build(3, 8, 8, l_max=0, d_r=0.0, k=8)
    with pytest.raises(ValueError, match="seed"):
        attack_forge(params, trials=1, seed=True)


def test_forge_rate_matches_exact_binomial_small_case():
    # one known batch always passes; each unknown batch passes when at
    # most 1 of 4 uniform 1-bit guesses mismatches
    params = ProtocolParams.build(3, 8, 1, l_max=1, d_r=0.0, k=4)
    result = attack_forge(params, trials=20_000, seed=3, target=2, level=0)
    p_group = reference.binom_cdf(1, 4, 0.5)
    exact = 1 - (1 - p_group) ** 2
    assert exact == 135 / 256
    sigma = math.sqrt(exact * (1 - exact) / result.trials)
    assert abs(result.rate - exact) <= 4 * sigma


def test_forge_long_tags_never_pass():
    params = ProtocolParams.build(3, 32, 32, l_max=0, d_r=0.0, k=6)
    assert attack_forge(params, trials=2000, seed=0, target=2).successes == 0


def test_forge_checks_its_bound_before_any_trial(monkeypatch):
    # a bound that cannot be priced must surface before the target's
    # view is read, not after every trial
    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran before the bound was checked")

    def no_bound(*args, **kwargs):
        raise ValueError("tag_len_bits cannot be priced")

    monkeypatch.setattr(simlab, "held_view", no_trials)
    monkeypatch.setattr(simlab, "uniform_guess_pass_prob", no_bound)
    params = ProtocolParams.build(3, 128, 96, l_max=0, d_r=0.0, k=900)
    with pytest.raises(ValueError, match="tag_len_bits"):
        attack_forge(params, trials=10**9, target=2)


def test_repudiation_holds_one_array_of_counts_and_no_float_copy():
    # the batches' draws fill one (trials, n, n) array, and level_rule judges
    # it by count without a float fraction: under 10n + 32 bytes a trial and
    # holder, where stacked draws and the fraction held about 17n
    params = ProtocolParams.build(20, 8, 8, k=10)
    tracemalloc.start()
    try:
        attack_repudiation(0.1, params, trials=5000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= simlab.repudiation_bytes(params, 5000)
    assert peak <= 5000 * 20 * (10 * 20 + 32)


def test_forge_caps_colluders_at_the_dishonest_count_the_bounds_price(monkeypatch):
    # one count of dishonest recipients, floor(d_r * n): a forge admits that
    # many colluders and refuses one more, and the bounds pair the others
    class Admitted(Exception):
        pass

    def admitted(*args):
        raise Admitted

    monkeypatch.setattr(simlab, "held_view", admitted)  # past every check, before any draw
    for n in range(2, 61):
        for i in range(500):
            params = ProtocolParams(n, 8, 8, l_max=0, d_r=i / 1000, k=1)
            dishonest = dishonest_count(n, params.d_r)
            assert dishonest == i * n // 1000
            honest = n - dishonest
            assert p_nontransfer(0, params).n_p == honest * (honest - 1) // 2
            with pytest.raises(Admitted):
                attack_forge(params, trials=1, colluders=range(1, dishonest + 1))
            if dishonest + 2 < n:  # room for one more beside the forger and target
                with pytest.raises(ValueError, match=rf"floor\(d_r \* n\) = {dishonest};"):
                    attack_forge(params, trials=1, colluders=range(1, dishonest + 2))


def test_repudiation_prices_its_bound_before_any_trial(monkeypatch):
    # as the forge does: a bound that cannot be priced costs no trial
    def no_trials(*args, **kwargs):
        raise AssertionError("a trial was judged before the bound was priced")

    def no_bound(*args, **kwargs):
        raise ValueError("bound cannot be priced")

    monkeypatch.setattr(simlab, "level_rule", no_trials)
    monkeypatch.setattr(simlab, "p_nontransfer", no_bound)
    with pytest.raises(ValueError, match="bound cannot be priced"):
        attack_repudiation(0.3, ProtocolParams.build(7, 8, 8, k=10), trials=10)


@pytest.mark.parametrize("level", [np.int64(0), True, 1.0, "0"])
def test_forge_checks_its_level_before_any_distribution(monkeypatch, level):
    # an np.integer level runs as its int; anything else fails before the
    # target's view is read
    drawn = []
    real_view = simlab.held_view

    def counted(*args, **kwargs):
        drawn.append(args)
        return real_view(*args, **kwargs)

    monkeypatch.setattr(simlab, "held_view", counted)
    params = ProtocolParams.build(3, 8, 1, l_max=1, d_r=0.0, k=4)
    if isinstance(level, np.integer):
        result = attack_forge(params, trials=300, seed=3, target=2, level=level)
        assert type(result.bound_level) is int
        assert result == attack_forge(params, trials=300, seed=3, target=2, level=0)
        return
    with pytest.raises(ValueError, match=r"level must be an int in \[-1, 1\]"):
        attack_forge(params, trials=300, seed=3, target=2, level=level)
    assert drawn == []


_EXPERIMENTS = {
    "repudiation": lambda params, **kw: attack_repudiation(0.3, params, **kw),
    "forge": lambda params, **kw: attack_forge(params, target=2, **kw),
    "q-sweep": lambda params, **kw: sweep_error_tolerance([1e-4], params, **kw),
}


@pytest.mark.parametrize("experiment, kwargs, message", [
    *((name, {"trials": bad}, f"trials must be a positive int, got {bad!r}")
      for name in _EXPERIMENTS for bad in (0, -1, True)),
    *((name, {"trials": 10, "seed": bad}, f"seed must be a non-negative int, got {bad!r}")
      for name in _EXPERIMENTS for bad in (-1, True)),
])
def test_experiments_check_trials_seed_and_redraw_before_any_distribution(
    monkeypatch, experiment, kwargs, message
):
    # the forge and the q-sweep read held views, never a full distribution
    drawn = []
    monkeypatch.setattr(simlab, "held_view", lambda *args, **kw: drawn.append(args))
    params = ProtocolParams.build(3, 8, 8, l_max=0, d_r=0.0, k=8)
    with pytest.raises(ValueError) as info:
        _EXPERIMENTS[experiment](params, **kwargs)
    assert str(info.value) == message
    assert drawn == []


def test_forge_tags_once_per_attack_and_builds_no_signature(monkeypatch):
    # one tag call per known batch, then one for the target's expected
    # tags, whatever the trial count; no trial signs or verifies
    from ussim import protocol

    calls = []
    for module in (simlab, protocol):
        def counted(*args, real=module.tags_of_arrays, name=module.__name__):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(module, "tags_of_arrays", counted)

    def no_signature(self):
        raise AssertionError("a trial built a Signature")

    monkeypatch.setattr(Signature, "__post_init__", no_signature)
    params = ProtocolParams.build(4, 8, 4, l_max=0, d_r=0.0, k=6)
    # n*k = 24 one-byte tags published a trial: a block holds 2730 trials
    per_block = simlab._FORGE_BLOCK_BYTES // (params.n_recipients * params.k)
    for trials in (1, 700, 1000, 2 * per_block + 1):
        calls.clear()
        attack_forge(
            params, trials=trials, colluders=(1,), target=3, enforce_collusion_bound=False,
        )
        assert calls == ["ussim.simlab", "ussim.simlab", "ussim.protocol"]


def test_forge_reads_one_view_of_the_first_net_stream_seed(monkeypatch):
    # one network per attack, seeded as the first draw of the forge's net stream
    seeds = []
    real_view = simlab.held_view

    def recorded(network, *args):
        seeds.append(network.config.seed)
        return real_view(network, *args)

    monkeypatch.setattr(simlab, "held_view", recorded)
    params = ProtocolParams.build(3, 8, 1, l_max=1, d_r=0.0, k=4)
    attack_forge(params, trials=20_000, seed=5, target=2, level=0)
    rng = np.random.default_rng([5, simlab._FORGE_NET_STREAM])
    assert seeds == [int(rng.integers(0, 2**62))]


@pytest.mark.parametrize("t", [64, 65, 72, 100, 127, 129, 255])
def test_uniform_tags_past_63_bits_draw_whole_bytes_per_tag(t):
    # the stream of one rng.bytes call per tag, drawn in one call, its bits
    # above t dropped: the forge's guess stream, packed at packed_dtype(t)
    from ussim.simlab import _uniform_tags

    got = _uniform_tags(np.random.default_rng(t), 9, t)
    rng = np.random.default_rng(t)
    n_bytes = (t + 7) // 8
    want = [int.from_bytes(rng.bytes(n_bytes), "big") % (1 << t) for _ in range(9)]
    assert got.dtype == packed_dtype(t)
    assert reference.row_ints(got) == want


@pytest.mark.parametrize("t", [1, 7, 8, 9, 16, 17, 32, 33, 63])
def test_uniform_tags_up_to_63_bits_keep_the_uint64_draw(t):
    # narrowed after a dtype=np.uint64 draw, so the guess stream is unchanged
    from ussim.simlab import _uniform_tags

    got = _uniform_tags(np.random.default_rng(t), 50, t)
    want = np.random.default_rng(t).integers(0, 1 << t, size=50, dtype=np.uint64)
    assert got.dtype == packed_dtype(t)
    assert got.tolist() == want.tolist()


def test_forge_collusion_bound_enforced_with_escape_hatch():
    params = ProtocolParams.build(3, 8, 8, l_max=0, d_r=0.0, k=8)
    fields = dict(trials=300, forger=0, colluders=(1,), target=2, level=0)
    with pytest.raises(ValueError, match="floor\\(d_r \\* n\\) = 0"):
        attack_forge(params, **fields)
    # with the full quorum colluding, the target's known-batch tests alone
    # meet the level-0 quorum, so forgery always lands
    assert attack_forge(params, **fields, enforce_collusion_bound=False).rate == 1.0


def test_forge_member_validation():
    params = ProtocolParams.build(3, 8, 8, l_max=0, d_r=0.0, k=8)
    with pytest.raises(ValueError, match="distinct"):
        attack_forge(params, trials=10, forger=0, target=0)
    with pytest.raises(ValueError, match="target"):
        attack_forge(params, trials=10, target=3)
    with pytest.raises(ValueError, match="level"):
        attack_forge(params, trials=10, target=2, level=1)


def test_forge_rejects_bool_indices():
    # target=True used to get past this check and fail in run_distribution
    params = ProtocolParams.build(3, 8, 8, l_max=0, d_r=0.0, k=8)
    for fields, name in (
        ({"target": True}, "target"),
        ({"forger": True, "target": 0}, "forger"),
        ({"colluders": (np.bool_(True),), "target": 0, "forger": 2}, "colluder"),
    ):
        with pytest.raises(ValueError, match=f"{name} index"):
            attack_forge(params, trials=10, enforce_collusion_bound=False, **fields)


def test_attacks_are_deterministic():
    params = ProtocolParams.build(7, 8, 8, k=10)
    first = attack_repudiation(0.3, params, trials=2000, seed=5)
    second = attack_repudiation(0.3, params, trials=2000, seed=5)
    assert first == second
    forge_params = ProtocolParams.build(3, 8, 8, l_max=0, d_r=0.0, k=8)
    assert attack_forge(forge_params, trials=200, seed=5, target=2) == (
        attack_forge(forge_params, trials=200, seed=5, target=2)
    )


def test_expected_mismatch_fraction_values():
    assert expected_mismatch_fraction(0.0, 8, 8) == 0.0
    want = (1 - 0.99**16) * (1 - 2.0**-8)
    got = expected_mismatch_fraction(0.01, 8, 8)
    assert got == pytest.approx(want, rel=1e-12)
    assert got == pytest.approx(0.14796, abs=5e-6)
    with pytest.raises(ValueError, match="q"):
        expected_mismatch_fraction(0.5, 8, 8)
    with pytest.raises(ValueError, match="q"):
        expected_mismatch_fraction(-0.1, 8, 8)


def test_sweep_result_csv_shape_and_roundtrip():
    table = SweepResult(
        columns=("n", "value"),
        rows=((2, 0.25), (3, 1e-10)),
    )
    text = table.to_csv(comments=("alpha=1", "beta=2"))
    lines = text.splitlines()
    assert lines[0] == "# alpha=1"
    assert lines[1] == "# beta=2"
    assert lines[2] == "n,value"
    assert float(lines[3].split(",")[1]) == 0.25
    assert float(lines[4].split(",")[1]) == 1e-10
    with pytest.raises(ValueError, match="columns"):
        SweepResult(columns=("n",), rows=((1, 2),))
    # rows keyed by column name make the same table
    assert SweepResult.from_rows([{"n": 2, "value": 0.25}, {"n": 3, "value": 1e-10}]) == table
    with pytest.raises(ValueError, match="columns"):
        SweepResult.from_rows([{"n": 2, "value": 0.25}, {"value": 1e-10, "n": 3}])


def test_sweep_consumption_n_axis_tracks_level_bands():
    table = sweep_consumption("n", list(range(2, 13)), msg_len_bits=8, tag_len_bits=8)
    header = dict(zip(table.columns, range(len(table.columns))))
    totals = []
    for row in table.rows:
        n = row[header["n"]]
        want_lmax = 0 if n < 5 else 1
        assert row[header["l_max"]] == want_lmax
        assert row[header["band"]] == f"l_max={want_lmax}"
        totals.append(row[header["total_bits_accounting"]])
    assert totals == sorted(totals)


def test_sweep_consumption_p_target_row_matches_direct_build():
    params = ProtocolParams.build(7, 8, 8)
    table = sweep_consumption("p_target", [1e-10], n_recipients=7, msg_len_bits=8, tag_len_bits=8)
    header = dict(zip(table.columns, range(len(table.columns))))
    row = table.rows[0]
    assert row[header["k"]] == 900
    direct = consumption(params, CostMode.ACCOUNTING)
    assert row[header["total_bits_accounting"]] == direct.total_bits
    assert row[header["id_bits"]] == direct.id_bits


def test_sweep_consumption_msg_len_axis_caps_tag_length():
    table = sweep_consumption("msg_len", [4, 8, 24], n_recipients=7, tag_len_bits=8)
    header = dict(zip(table.columns, range(len(table.columns))))
    assert [row[header["msg_len_bits"]] for row in table.rows] == [4, 8, 24]
    assert [row[header["tag_len_bits"]] for row in table.rows] == [4, 8, 8]


def test_sweep_consumption_validation():
    with pytest.raises(ValueError, match="axis"):
        sweep_consumption("k", [1])
    with pytest.raises(ValueError, match="at least one"):
        sweep_consumption("n", [])
    with pytest.raises(ValueError, match="n value must be an int"):
        sweep_consumption("n", [2.5])


@pytest.mark.parametrize("axis, values, error", [
    ("n", [3, 1], "n=1: n must be an int >= 2, got 1"),
    ("p_target", [1e-3, 1.5], "p_target=1.5: p_target must be in (0, 1), got 1.5"),
    ("msg_len", [8, 5000], "msg_len=5000: msg_len_bits must be an int in [1, 4096], got 5000"),
])
def test_sweep_consumption_names_the_point_that_cannot_be_built(axis, values, error):
    with pytest.raises(ValueError) as info:
        sweep_consumption(axis, values, n_recipients=3, msg_len_bits=8, tag_len_bits=8)
    assert str(info.value) == error


def test_sweep_error_tolerance_noiseless_point_recovers_baseline():
    params = ProtocolParams.build(7, 8, 8)
    table = sweep_error_tolerance([0.0], params, margin=0.005, trials=20)
    header = dict(zip(table.columns, range(len(table.columns))))
    row = table.rows[0]
    assert row[header["k"]] == 900
    assert row[header["total_bits_accounting"]] == 1_801_800
    assert row[header["id_bits"]] == 13
    assert row[header["pass_prob"]] == 1.0


def test_sweep_error_tolerance_rejects_unabsorbable_noise():
    params = ProtocolParams.build(7, 8, 8, k=906)
    with pytest.raises(ValueError, match="absorb"):
        sweep_error_tolerance([0.05], params)
    with pytest.raises(ValueError, match="trials"):
        sweep_error_tolerance([0.0], params, trials=0)
    with pytest.raises(ValueError, match="at least one"):
        sweep_error_tolerance([], params)


@pytest.mark.parametrize("q_values, margin, error", [
    ([0.001, 0.7], 0.002, r"^q must be in \[0, 0.5\), got 0.7$"),
    ([0.0, 0.01, 0.05], 0.002, "^adjusted threshold 0.559686 at q=0.05 reaches"),
    ([1e-4, 0.0], -0.001, "^margin -0.001 gives a non-positive threshold at q=0.0$"),
    ([1e-4], float("nan"), "^margin must be finite, got nan$"),
])
def test_sweep_error_tolerance_checks_every_q_before_its_first_trial(monkeypatch, q_values, margin, error):
    # a bad q anywhere in the list fails before any k is solved or view read
    def never(*args, **kwargs):
        raise AssertionError("a q was worked on before every q was checked")

    monkeypatch.setattr(simlab, "solve_k", never)
    monkeypatch.setattr(simlab, "held_view", never)
    params = ProtocolParams.build(7, 8, 8, k=906)
    with pytest.raises(ValueError, match=error):
        sweep_error_tolerance(q_values, params, margin=margin)


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"trials": 2.5}, "trials"),
        ({"trials": True}, "trials"),
        ({"trials": 0}, "trials"),
        ({"trials": -3}, "trials"),
        ({"seed": 1.0}, "seed"),
        ({"seed": True}, "seed"),
        ({"seed": -1}, "seed"),
    ],
)
def test_sweep_error_tolerance_rejects_bad_arguments_before_solving_k(monkeypatch, kwargs, name):
    def no_solve(*args, **kw):
        raise AssertionError("k was solved before the arguments were checked")

    monkeypatch.setattr(simlab, "solve_k", no_solve)
    params = ProtocolParams.build(3, 8, 8, k=60)
    with pytest.raises(ValueError, match=name):
        sweep_error_tolerance([1e-4], params, **kwargs)


def test_sweep_trials_judge_as_sign_and_verify(monkeypatch):
    # a sweep trial reads recipient 0's held view and tags only its held
    # slots; its counts and verdict must equal a full run's sign and verify,
    # also when a held slot id points past the tag list
    params = ProtocolParams.build(5, 4, 2, k=200)
    n, k = params.n_recipients, params.k
    trials, judged = [], []
    real_view, real_message, real_rule = simlab.held_view, simlab._random_message, simlab.level_rule

    def view(network, p, recipient):
        held, issued = real_view(network, p, recipient)
        sender, recipients = run_distribution(Network(network.config), p)
        if len(trials) % 3 == 2:
            slot = n * k + len(trials) % 24
            held.slots[len(trials) % n, 7] = slot
            recipients[recipient].held.slots[len(trials) % n, 7] = slot
        trials.append([sender, recipients[recipient]])
        return held, issued

    def random_message(rng, bits):
        trials[-1].append(real_message(rng, bits))
        return trials[-1][-1]

    def rule(counts, *args):
        passed, accepted = real_rule(counts, *args)
        judged.append((tuple(counts.tolist()), bool(accepted)))
        return passed, accepted

    monkeypatch.setattr(simlab, "held_view", view)
    monkeypatch.setattr(simlab, "_random_message", random_message)
    monkeypatch.setattr(simlab, "level_rule", rule)
    table = sweep_error_tolerance([1e-4, 0.01, 0.05], params, trials=50, seed=3)
    assert len(trials) == len(judged) == 150
    for (sender, verifier, message), got in zip(trials, judged):
        assert verifier.index == 0
        result = verifier.verify(sender.sign(message), params.l_max)
        assert got == (result.mismatch_counts, result.accepted)
    verdicts = [accepted for _, accepted in judged]
    assert [row[8] for row in table.rows] == [sum(verdicts[i : i + 50]) for i in (0, 50, 100)]
    assert any(verdicts) and not all(verdicts)


@pytest.mark.parametrize("a", [1, 7, 8, 9, 128, 4096])
def test_random_message_packs_its_bits_as_pack_rows_did(a):
    # np.packbits gives the message pack_rows at width 1 gave: the drawn
    # bits, most significant first
    for seed in range(4):
        bits = np.random.default_rng(seed).integers(0, 2, size=a, dtype=np.uint8)
        packed = int.from_bytes(pack_rows(bits, 1).tobytes(), "big") >> (-a % 8)
        assert packed == int("".join(map(str, bits)), 2)
        assert simlab._random_message(np.random.default_rng(seed), a) == packed


def test_sweep_error_tolerance_is_deterministic():
    params = ProtocolParams.build(7, 8, 8, k=906)
    first = sweep_error_tolerance([0.0, 1e-4], params, trials=10, seed=7)
    second = sweep_error_tolerance([0.0, 1e-4], params, trials=10, seed=7)
    assert first.rows == second.rows
