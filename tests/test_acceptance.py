"""Release acceptance gate: one test per headline criterion.

Each test pins one externally meaningful behaviour at a stated
tolerance: parameter derivation, honest completeness, consumption
accounting, the hash family's collision guarantees, the three adversary
experiments, noise tolerance, and the graded acceptance arithmetic.
Published reference figures that these formulas deliberately do not
reproduce are printed for context (run with -rP or -s to see them) and
never asserted.
"""
import dataclasses
import math
import time

import numpy as np
import pytest

import reference
from ussim.hashing import tags_of_arrays
from ussim.keystore import Network, NetworkConfig
from ussim.protocol import run_distribution
from ussim.secparams import (
    CostMode,
    ProtocolParams,
    SLevelSpec,
    TailMode,
    compute_delta,
    compute_dr,
    consumption,
    id_bits,
    make_s_levels,
    p_forge,
    p_nontransfer,
    solve_k,
    time_to_ready,
    uniform_guess_pass_prob,
)
from ussim.simlab import (
    attack_forge,
    attack_repudiation,
    expected_mismatch_fraction,
    run_honest,
    sweep_error_tolerance,
)


def test_criterion_1_parameter_reproduction():
    start = time.perf_counter()
    spec = SLevelSpec()
    assert make_s_levels(1, spec) == {1: 0.005, 0: 0.252, -1: 0.499}
    d_r = compute_dr(1, 7)
    assert d_r == 1 / 7
    k = solve_k(1e-10, 7, 1, spec, TailMode.SQUARED)
    elapsed = time.perf_counter() - start
    assert k == 900
    # the published experiment quotes 906 for the same inputs; the 0.7%
    # gap traces to rounding conventions in inverting the tail bound and
    # stays within the 1% agreement this check demands
    assert abs(k - 906) / 906 < 0.01
    assert elapsed < 1.0
    # independent scan oracle: recompute the worst per-level bound with
    # plain floats and confirm k is the exact crossing point
    gap = (0.5 - spec.eps1 - spec.eps2) / 2
    n_p = 15

    def worst_bound(k_try):
        return max(
            n_p * (7 * (compute_delta(l, d_r) - d_r) + 1)
            * math.exp(-gap * gap * k_try / 2)
            for l in (1, 0)
        )

    assert worst_bound(k) <= 1e-10 < worst_bound(k - 1)


def test_criterion_2_honest_completeness():
    params = ProtocolParams.build(7, 8, 8, k=906)
    start = time.perf_counter()
    acceptances = 0
    chains_ok = 0
    for seed in range(100):
        outcome = run_honest(params, seed=seed)
        for res in outcome.verify_results:
            assert res.level == 1
            assert res.mismatch_counts == (0,) * 7
            acceptances += res.accepted
        assert [r.level for r in outcome.chain_results] == [1, 0]
        chains_ok += all(r.accepted for r in outcome.chain_results)
    assert acceptances == 700
    assert chains_ok == 100
    assert time.perf_counter() - start < 120


def test_criterion_3_accounting_equality():
    rng = np.random.default_rng(20260817)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        a = int(rng.integers(1, 17))
        t = int(rng.integers(1, min(a, 8) + 1))
        k = int(rng.integers(1, 1001))
        params = ProtocolParams.build(n, a, t, k=k)
        network = Network(NetworkConfig(n_users=n + 1, seed=int(rng.integers(1 << 32))))
        run_distribution(network, params)
        ib = id_bits(n, k)
        expected = {(0, r): n * k * (a + t) for r in range(1, n + 1)}
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                expected[(i, j)] = 2 * k * (a + t + ib)
        consumed = network.total_consumed()
        assert consumed == expected
        assert sum(consumed.values()) == consumption(params, CostMode.ACCOUNTING).total_bits


def test_criterion_4_hash_family_bound():
    trials = 100_000
    rng = np.random.default_rng(42)
    multipliers = rng.integers(0, 1 << 16, size=trials, dtype=np.uint64)
    offsets = rng.integers(0, 1 << 16, size=trials, dtype=np.uint64)
    msg_one, msg_two = 0x1234, 0xBEEF
    tags_one = tags_of_arrays(multipliers, offsets, msg_one, 16, 8)
    tags_two = tags_of_arrays(multipliers, offsets, msg_two, 16, 8)
    collision_rate = float(np.mean(tags_one == tags_two))
    ideal = 2.0**-8
    sigma = math.sqrt(ideal * (1 - ideal) / trials)
    assert abs(collision_rate - ideal) <= 3 * sigma
    # two-point frequency of one fixed tag pair for distinct messages
    cell_rate = float(np.mean((tags_one == 3) & (tags_two == 7)))
    assert cell_rate < 2.0 ** (1 - 16)
    # joint distribution over all 2^16 tag pairs: cell counts are close
    # to Poisson(1.53), and 65536 * P(Poisson >= 12) is about 0.005, so
    # any cell reaching 12 would signal structure rather than chance
    cells = np.bincount(
        (tags_one.astype(np.int64) << 8) | tags_two.astype(np.int64),
        minlength=1 << 16,
    )
    assert int(cells.max()) < 12


def test_criterion_5_forging_oracle_match():
    params = ProtocolParams.build(3, 8, 1, l_max=1, d_r=0.0, k=4)
    result = attack_forge(params, trials=100_000, seed=11, target=2, level=0)
    # the forger's own batch always passes; each of the other two batches
    # passes when at most 1 of its 4 one-bit guesses mismatches
    p_group = reference.binom_cdf(1, 4, 0.5)
    exact = 1.0 - (1.0 - p_group) ** 2
    assert exact == 135 / 256
    sigma = math.sqrt(exact * (1 - exact) / result.trials)
    assert abs(result.rate - exact) <= 3 * sigma
    p_t = uniform_guess_pass_prob(4, 1, params.s_levels[0])
    assert p_t == p_group
    assert result.bound == p_forge(3, 0.0, p_t)
    assert result.bound == min(1.0, 3**2 * (1 - 0.0) ** 2 * p_t)
    assert result.rate <= result.bound


GAMMA_GRID = {
    10: (0.25, 0.3, 0.325, 0.35, 0.4),
    20: (0.325, 0.35, 0.375, 0.4),
    30: (0.3, 0.325, 0.35, 0.375, 0.4),
}


def test_criterion_6_repudiation_bound():
    start = time.perf_counter()
    best = {}
    for k, gammas in GAMMA_GRID.items():
        params = ProtocolParams.build(7, 8, 8, k=k)
        bound = p_nontransfer(0, params).p_nontransfer
        rates = []
        for gamma in gammas:
            result = attack_repudiation(gamma, params, trials=10_000, seed=6)
            assert result.bound == bound
            sigma = math.sqrt(
                max(result.rate * (1 - result.rate), 1e-8) / result.trials
            )
            assert result.rate <= bound + 3 * sigma
            rates.append(result.rate)
        best[k] = max(rates)
    assert best[10] > best[20] >= best[30]
    assert time.perf_counter() - start < 600


def test_criterion_7_error_tolerance_shape():
    params = ProtocolParams.build(7, 8, 8, k=906)
    k, n = params.k, params.n_recipients
    s_top = params.s_levels[1]
    delta_top = compute_delta(1, params.d_r)
    worst = math.floor(s_top * k)
    if worst / k >= s_top:
        worst -= 1
    need = math.floor(n * delta_top) + 1

    def analytic_accept(q):
        p_group = reference.binom_cdf(worst, k, expected_mismatch_fraction(q, 8, 8))
        return sum(
            math.comb(n, j) * p_group**j * (1 - p_group) ** (n - j)
            for j in range(need, n + 1)
        )

    curve = [analytic_accept(q) for q in (0.0, 1e-4, 3e-4, 1e-3, 3e-3, 0.01)]
    assert curve[0] == 1.0
    assert curve[-1] < 0.01
    assert all(a >= b for a, b in zip(curve, curve[1:]))

    # measured spot checks: the live protocol collapses faster than the
    # single-link oracle because shared chunks cross two noisy links,
    # so the interior point sits at a smaller q
    measured = {}
    for q, runs in ((0.0, 10), (1e-4, 60), (0.01, 30)):
        config = NetworkConfig(n_users=8, default_flip_prob=q, seed=700)
        accepts = sum(
            res.accepted
            for seed in range(runs)
            for res in run_honest(params, config, seed=seed).verify_results
        )
        measured[q] = accepts / (runs * n)
    assert measured[0.0] == 1.0
    assert 0.02 < measured[1e-4] < 0.75
    assert measured[0.01] < 0.01
    assert measured[0.0] > measured[1e-4] > measured[0.01]

    # adjusted-cost curve: key growth and unit ID-bit steps
    q_grid = [0.0, 5e-5, 1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3]
    table = sweep_error_tolerance(q_grid, params, margin=0.005, trials=30, seed=0)
    col = dict(zip(table.columns, range(len(table.columns))))
    ks = [row[col["k"]] for row in table.rows]
    ids = [row[col["id_bits"]] for row in table.rows]
    assert ks[0] == 900 and ids[0] == 13
    assert table.rows[0][col["pass_prob"]] == 1.0
    assert ks == sorted(ks)
    for row in table.rows:
        assert row[col["id_bits"]] == math.ceil(math.log2(n * row[col["k"]]))
        assert row[col["id_bits"]] == id_bits(n, row[col["k"]])
    steps = [later - earlier for earlier, later in zip(ids, ids[1:])]
    assert all(step in (0, 1) for step in steps)
    assert ids[-1] == 14


def _flip_tags(signature, holder, groups, count):
    tags = signature.tags.copy()
    for g in groups:
        slots = holder.held.slots[g, :count]
        tags[g, slots] ^= np.uint64(1)
    return dataclasses.replace(signature, tags=tags)


def test_criterion_8_threshold_arithmetic():
    params = ProtocolParams.build(7, 8, 8, k=906)
    network = Network(NetworkConfig(n_users=8, seed=88))
    sender, recipients = run_distribution(network, params)
    signature = sender.sign(0x5C)
    verifier = recipients[0]
    delta = {l: 0.5 + (l + 1) / 7 for l in (1, 0, -1)}
    for l in delta:
        assert compute_delta(l, params.d_r) == pytest.approx(delta[l], abs=1e-12)
    # the pure quorum arithmetic behind the three worked cases
    assert 6 / 7 > delta[1]
    assert not 5 / 7 > delta[1]
    assert 5 / 7 > delta[0]
    assert not 4 / 7 > delta[0]
    assert 4 / 7 > delta[-1]

    assert verifier.verify(signature, 1).groups_passed == 7

    # 6/7 tests pass: accepted at level 1
    light = _flip_tags(signature, verifier, groups=(0,), count=5)
    res = verifier.verify(light, 1)
    assert res.groups_passed == 6 and res.accepted

    # 5/7 tests pass: rejected at level 1, accepted at level 0
    medium = _flip_tags(signature, verifier, groups=(0, 1), count=300)
    res = verifier.verify(medium, 1)
    assert res.groups_passed == 5 and not res.accepted
    res = verifier.verify(medium, 0)
    assert res.groups_passed == 5 and res.accepted

    # 4/7 tests pass: accepted at level -1 only
    heavy = _flip_tags(signature, verifier, groups=(0, 1, 2), count=453)
    assert not verifier.verify(heavy, 1).accepted
    res = verifier.verify(heavy, 0)
    assert res.groups_passed == 4 and not res.accepted
    res = verifier.verify(heavy, -1)
    assert res.groups_passed == 4 and res.accepted


def test_criterion_9_published_reference_values():
    """Context figures from the published experiment, shown but not asserted."""
    one_bit = consumption(ProtocolParams.build(7, 1, 1, k=906), CostMode.LITERAL)
    eight_bit = consumption(ProtocolParams.build(7, 8, 8, k=906), CostMode.LITERAL)
    accounting = consumption(ProtocolParams.build(7, 8, 8, k=906), CostMode.ACCOUNTING)
    ttr = time_to_ready(NetworkConfig(n_users=8), ProtocolParams.build(7, 8, 8, k=906))
    assert one_bit.total_bits == 44_982
    assert eight_bit.total_bits == 356_034
    assert accounting.total_bits == 1_813_812
    assert ttr.seconds == pytest.approx(101.472)
    print(
        "informational only; the published reference values below are testbed "
        "measurements these formulas do not reproduce:"
    )
    print(
        f"  secret bits to sign 1 bit: published 14958; "
        f"literal formula here gives {one_bit.total_bits}"
    )
    print(
        f"  secret bits to sign 8 bits: published 35898; "
        f"literal formula here gives {eight_bit.total_bits}"
    )
    print(
        f"  total consumption, 8 participants at target 1e-10: published ~5 Mbit; "
        f"accounting formula here gives {accounting.total_bits} bits (~1.8 Mbit)"
    )
    print(
        f"  signature time per bit: published 1041 s (73 s for 3 receivers); "
        f"this model at 1000 bps fills the binding key store in {ttr.seconds} s"
    )
    print(
        "  published wall-clock key-generation times for 2/8/16-bit messages "
        "are box-plot measurements with no tabulated values to compare against"
    )
