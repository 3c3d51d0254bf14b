"""Security-parameter calculus: levels, thresholds, bounds, costs."""
import dataclasses
import math
import time

import numpy as np
import pytest

import reference
from ussim.hashing import find_irreducible, tags_of_arrays
from ussim.keystore import LinkKeyStore, LinkSettings, Network, NetworkConfig
from ussim.protocol import Recipient, held_view, run_distribution
from ussim.secparams import (
    BoundReport,
    CostMode,
    ProtocolParams,
    SLevelSpec,
    TailMode,
    compute_delta,
    compute_dr,
    compute_lmax,
    consumption,
    id_bits,
    make_s_levels,
    p_forge,
    p_nontransfer,
    solve_k,
    tail_bound_pm,
    uniform_guess_pass_prob,
)
from ussim.simlab import (
    attack_forge,
    attack_repudiation,
    expected_mismatch_fraction,
    run_honest,
    sweep_consumption,
    sweep_error_tolerance,
    wilson_interval,
)

# l_max as a function of n: the largest l with (l+1)(l+2) < n/2.
LMAX_BANDS = {0: range(2, 5), 1: range(5, 13), 2: range(13, 25), 3: range(25, 33)}


def test_lmax_bands():
    for l, ns in LMAX_BANDS.items():
        for n in ns:
            assert compute_lmax(n) == l, f"n={n}"


def test_lmax_rejects_bad_n():
    for n in (1, 0, -3, True, 2.0):
        with pytest.raises(ValueError, match="n"):
            compute_lmax(n)


def test_dr_values():
    assert compute_dr(1, 7) == 1 / 7
    assert compute_dr(0, 2) == 0.0
    assert compute_dr(3, 25) == 3 / 25


def test_dr_rejects_half_and_above():
    with pytest.raises(ValueError, match="below 1/2"):
        compute_dr(1, 2)
    with pytest.raises(ValueError, match="l_max"):
        compute_dr(-1, 7)


def test_s_levels_default_ladder_is_exact():
    assert make_s_levels(1) == {1: 0.005, 0: 0.252, -1: 0.499}
    assert make_s_levels(0) == {0: 0.005, -1: 0.499}


def test_s_levels_endpoints_and_spacing():
    spec = SLevelSpec(eps1=0.01, eps2=0.02)
    for l_max in range(0, 6):
        levels = make_s_levels(l_max, spec)
        assert set(levels) == set(range(l_max, -2, -1))
        assert levels[l_max] == spec.eps1
        assert levels[-1] == pytest.approx(0.5 - spec.eps2, rel=1e-15)
        gaps = [levels[l - 1] - levels[l] for l in range(l_max, -1, -1)]
        assert max(gaps) - min(gaps) < 1e-12


def test_s_level_spec_validation():
    with pytest.raises(ValueError, match="eps1"):
        SLevelSpec(eps1=0.0)
    with pytest.raises(ValueError, match="eps2"):
        SLevelSpec(eps2=0.6)
    with pytest.raises(ValueError, match="eps1 \\+ eps2"):
        SLevelSpec(eps1=0.3, eps2=0.2)


def test_delta_formula():
    d_r = 1 / 7
    assert compute_delta(-1, d_r) == 0.5
    assert compute_delta(0, d_r) == 0.5 + d_r
    assert compute_delta(1, d_r) == 0.5 + 2 * d_r


def test_delta_rejects_unusable_level():
    # 0.5 + 4 * 0.14 exceeds 1: no quorum can meet it
    with pytest.raises(ValueError, match="exceeds 1"):
        compute_delta(3, 0.14)
    with pytest.raises(ValueError, match="level"):
        compute_delta(-2, 0.1)
    with pytest.raises(ValueError, match="d_r"):
        compute_delta(0, 0.5)


def test_tail_bound_both_modes():
    levels = make_s_levels(1)
    gap = levels[0] - levels[1]
    k = 900
    assert tail_bound_pm(1, k, levels, TailMode.SQUARED) == pytest.approx(
        math.exp(-(gap * gap) * k / 2), rel=1e-12
    )
    assert tail_bound_pm(1, k, levels, TailMode.LITERAL) == pytest.approx(
        math.exp(-gap * k / 2), rel=1e-12
    )


def test_tail_bound_needs_adjacent_levels():
    levels = make_s_levels(1)
    with pytest.raises(ValueError, match="levels"):
        tail_bound_pm(-1, 10, levels)
    with pytest.raises(ValueError, match="k"):
        tail_bound_pm(1, 0, levels)


def test_uniform_guess_pass_prob_exact_small_case():
    # k=4, t=1: each guess matches with prob 1/2, pass needs <= 1 mismatch
    assert uniform_guess_pass_prob(4, 1, 0.252) == pytest.approx(5 / 16, rel=1e-12)


def test_uniform_guess_pass_prob_strict_boundary():
    # s*k landing exactly on an integer is excluded by the strict test
    assert uniform_guess_pass_prob(4, 1, 0.25) == pytest.approx(1 / 16, rel=1e-12)
    assert uniform_guess_pass_prob(4, 1, 1 / 8) == pytest.approx(1 / 16, rel=1e-12)


def test_uniform_guess_pass_prob_matches_reference():
    for k, t, s in ((10, 2, 0.3), (50, 4, 0.1), (906, 8, 0.252)):
        worst = math.floor(s * k)
        if worst / k >= s:
            worst -= 1
        want = reference.binom_cdf(worst, k, 1 - 2.0**-t)
        assert uniform_guess_pass_prob(k, t, s) == pytest.approx(want, rel=1e-9)


def _worst_mismatches(k: int, s: float) -> int:
    worst = math.floor(s * k)
    return worst - 1 if worst / k >= s else worst


@pytest.mark.parametrize("s", [0.005, 0.1, 0.252, 0.499])
@pytest.mark.parametrize("t", [1, 2, 8, 32, 53, 54, 60, 64])
def test_uniform_guess_pass_prob_matches_exact_count(t, s):
    # t >= 54 used to read 0: 1 - 2^-t rounds to 1.0 in a double
    for k in (1, 2, 4, 10, 100, 906, 2270):
        want = reference.guess_pass_prob_exact(k, t, _worst_mismatches(k, s))
        got = uniform_guess_pass_prob(k, t, s)
        assert math.isclose(got, want, rel_tol=1e-11, abs_tol=0.0), (k, got, want)


@pytest.mark.parametrize("k", [1025, 5000, 20000, 50000])
@pytest.mark.parametrize("t, s", [(1, 0.1), (1, 0.499), (8, 0.1), (8, 0.499)])
def test_uniform_guess_pass_prob_exact_count_large_k(k, t, s):
    # above k = 1024 the binomial coefficient comes from Loader's saddle
    # point; three cancelling lgamma values were off by up to 5.5e-11 here
    want = reference.guess_pass_prob_exact(k, t, _worst_mismatches(k, s))
    got = uniform_guess_pass_prob(k, t, s)
    assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0), (got, want)


@pytest.mark.parametrize("k", [1025, 5000, 20000])
def test_uniform_guess_pass_prob_near_mode_large_k(k):
    # t = 8 tails at s = 0.1 and 0.499 underflow to 0; just below the
    # mismatch mode (1 - 2^-8) they do not
    want = reference.guess_pass_prob_exact(k, 8, _worst_mismatches(k, 0.995))
    assert want > 1e-3
    got = uniform_guess_pass_prob(k, 8, 0.995)
    assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0), (got, want)


@pytest.mark.parametrize("t", [65, 72, 128, 255])
def test_uniform_guess_pass_prob_exact_count_wide_tags(t):
    # every tag width ProtocolParams accepts is priced; at small k the
    # probabilities stay normal doubles down to 2^-1020
    nonzero = 0
    for k in (1, 2, 3, 4, 6):
        for s in (0.1, 0.499, 0.9):
            want = reference.guess_pass_prob_exact(k, t, _worst_mismatches(k, s))
            got = uniform_guess_pass_prob(k, t, s)
            assert math.isclose(got, want, rel_tol=1e-11, abs_tol=0.0), (k, s, got, want)
            nonzero += want > 0
    assert nonzero >= 10


def test_uniform_guess_pass_prob_above_half_threshold():
    # thresholds past the mode take the complementary tail
    for k, t, s in ((4, 1, 0.9), (100, 1, 0.6), (906, 2, 0.8), (2270, 8, 0.9999)):
        want = reference.guess_pass_prob_exact(k, t, _worst_mismatches(k, s))
        assert math.isclose(uniform_guess_pass_prob(k, t, s), want, rel_tol=1e-11)


def test_uniform_guess_pass_prob_cost_does_not_grow_with_k():
    start = time.perf_counter()
    p = uniform_guess_pass_prob(2**31, 1, 0.499)
    assert time.perf_counter() - start < 0.25
    assert 0.0 <= p < 1e-300


def _direct_worst_bound(k: int, n: int = 7, l_max: int = 1) -> float:
    """Worst-level bound recomputed with plain float arithmetic."""
    d_r = l_max / n
    levels = make_s_levels(l_max)
    honest = math.floor(n * (1 - d_r) + 1e-12)
    n_p = honest * (honest - 1) // 2
    worst = 0.0
    for l in range(0, l_max + 1):
        gap = levels[l - 1] - levels[l]
        pref = n_p * (n * (compute_delta(l, d_r) - d_r) + 1)
        worst = max(worst, pref * math.exp(-(gap * gap) * k / 2))
    return worst


def test_solve_k_squared_default():
    k = solve_k(1e-10, 7, 1)
    assert k == 900
    assert _direct_worst_bound(900) <= 1e-10
    assert _direct_worst_bound(899) > 1e-10


def test_solve_k_literal():
    assert solve_k(1e-10, 7, 1, mode=TailMode.LITERAL) == 223


def test_solve_k_boundary_other_points():
    for p_target, n, l_max in ((1e-6, 7, 1), (1e-10, 13, 2), (1e-4, 3, 0)):
        k = solve_k(p_target, n, l_max)
        d_r = l_max / n
        levels = make_s_levels(l_max)
        honest = math.floor(n * (1 - d_r) + 1e-12)
        n_p = honest * (honest - 1) // 2

        def worst(kk):
            out = 0.0
            for l in range(0, l_max + 1):
                gap = levels[l - 1] - levels[l]
                pref = n_p * (n * (compute_delta(l, d_r) - d_r) + 1)
                out = max(out, pref * math.exp(-(gap * gap) * kk / 2))
            return out

        assert worst(k) <= p_target
        if k > 1:
            assert worst(k - 1) > p_target


def test_solve_k_rejects_bad_target():
    with pytest.raises(ValueError, match="p_target"):
        solve_k(0.0, 7, 1)
    with pytest.raises(ValueError, match="p_target"):
        solve_k(1.0, 7, 1)


def test_p_forge_prefactor_and_clamp():
    x = 2.0**-20
    assert p_forge(3, 0.0, x) == 9 * x
    assert p_forge(3, 0.0, 0.5) == 1.0
    assert p_forge(7, 1 / 7, 0.0) == 0.0
    with pytest.raises(ValueError, match="p_t"):
        p_forge(3, 0.0, 1.5)


def test_nontransfer_report_structure():
    params = ProtocolParams.build(7, 8, 8)
    assert params.k == 900
    for level, prefactor in ((1, 82.5), (0, 67.5)):
        rep = p_nontransfer(level, params)
        assert isinstance(rep, BoundReport)
        assert rep.n_p == 15
        assert rep.p_nontransfer == pytest.approx(prefactor * rep.p_m, rel=1e-9)
        assert rep.p_t == uniform_guess_pass_prob(900, 8, params.s_levels[level])
        assert rep.p_forge == p_forge(7, params.d_r, rep.p_t)
    assert p_nontransfer(1, params).p_nontransfer <= 1e-10
    assert p_nontransfer(0, params).p_nontransfer <= 1e-10


def test_honest_pair_count_other_shapes():
    params = ProtocolParams.build(8, 8, 8)
    # floor(8 * 7/8) = 7 honest recipients -> 21 pairs
    assert p_nontransfer(1, params).n_p == 21


def test_id_bits_values_and_crossing():
    assert id_bits(2, 1) == 1
    assert id_bits(2, 2) == 2
    assert id_bits(7, 1170) == 13  # 7 * 1170 = 8190 <= 2^13
    assert id_bits(7, 1171) == 14  # 7 * 1171 = 8197 > 2^13
    with pytest.raises(ValueError, match="k"):
        id_bits(7, 0)


def test_consumption_frozen_values():
    params = ProtocolParams.build(7, 8, 8, k=906)
    acc = consumption(params, CostMode.ACCOUNTING)
    assert (acc.preparation_bits, acc.sharing_bits, acc.total_bits) == (
        710304,
        1103508,
        1813812,
    )
    assert acc.id_bits == 13
    lit = consumption(params, CostMode.LITERAL)
    assert (lit.preparation_bits, lit.sharing_bits, lit.total_bits) == (
        355152,
        882,
        356034,
    )


def test_consumption_smallest_instance():
    params = ProtocolParams.build(2, 1, 1, l_max=0, k=1)
    acc = consumption(params, CostMode.ACCOUNTING)
    # preparation: 2 batches of 2 keys of 2 bits; sharing: 2 transfers of
    # 1 key carrying 1 id bit + 2 key bits
    assert (acc.preparation_bits, acc.sharing_bits, acc.total_bits) == (8, 6, 14)
    lit = consumption(params, CostMode.LITERAL)
    assert lit.total_bits == 8


def test_consumption_default_mode_is_accounting():
    params = ProtocolParams.build(7, 8, 8, k=900)
    assert consumption(params).total_bits == 1801800


def test_build_defaults():
    params = ProtocolParams.build(7, 8)
    assert params.tag_len_bits == 8
    assert params.l_max == 1
    assert params.d_r == 1 / 7
    assert params.k == 900
    assert params.s_levels == {1: 0.005, 0: 0.252, -1: 0.499}
    assert (params.spec, params.mode) == (SLevelSpec(), TailMode.SQUARED)


def test_params_carry_their_spec_and_tail_mode():
    spec = SLevelSpec(eps1=0.01, eps2=0.002)
    params = ProtocolParams.build(7, 8, 8, spec=spec, mode=TailMode.LITERAL)
    assert (params.spec, params.mode) == (spec, TailMode.LITERAL)
    assert params.k == solve_k(1e-10, 7, 1, spec, TailMode.LITERAL)
    levels = make_s_levels(1, spec)
    assert params.s_levels == levels
    # the bounds are priced under the set's own tail mode
    squared = dataclasses.replace(params, mode=TailMode.SQUARED)
    for level in (1, 0):
        literal_p_m = tail_bound_pm(level, params.k, levels, TailMode.LITERAL)
        assert p_nontransfer(level, params).p_m == literal_p_m
        assert p_nontransfer(level, squared).p_m == tail_bound_pm(level, params.k, levels)
    assert params.thresholds(0) == (0, levels[0], compute_delta(0, params.d_r))


def test_build_wide_message_caps_tag_length():
    assert ProtocolParams.build(7, 128, k=10).tag_len_bits == 8


@pytest.mark.parametrize("field", ["msg_len_bits", "tag_len_bits", "l_max", "k"])
def test_params_reject_non_int_fields(field):
    # bools and floats used to pass and fail later, inside a run or a range()
    good = ProtocolParams.build(7, 8, 8, k=10)
    for bad in (True, float(getattr(good, field))):
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(good, **{field: bad})


def test_params_validation_messages():
    with pytest.raises(ValueError, match="tag_len_bits"):
        ProtocolParams.build(7, 8, 9, k=10)
    with pytest.raises(ValueError, match="k"):
        ProtocolParams.build(7, 8, 8, k=0)
    with pytest.raises(ValueError, match="d_r"):
        ProtocolParams.build(7, 8, 8, d_r=0.6, k=10)
    with pytest.raises(ValueError, match="l_max \\+ 1"):
        ProtocolParams.build(7, 8, 8, l_max=2, d_r=0.2, k=10)
    with pytest.raises(ValueError, match="p_target"):
        ProtocolParams.build(7, 8, 8, k=10, p_target=0.0)


def test_params_reject_spec_and_mode_of_the_wrong_type():
    good = ProtocolParams.build(7, 8, 8, k=10)
    with pytest.raises(ValueError, match="spec must be an SLevelSpec"):
        dataclasses.replace(good, spec=(0.005, 0.001))
    with pytest.raises(ValueError, match="mode a TailMode"):
        dataclasses.replace(good, mode="squared")
    with pytest.raises(ValueError, match="mode a TailMode"):
        ProtocolParams.build(7, 8, 8, k=10, mode="literal")


@pytest.mark.parametrize("call, message", [
    (lambda: solve_k(1e-10, 7, 1, mode="squared"), "mode must be a TailMode"),
    (lambda: tail_bound_pm(1, 10, make_s_levels(1), "squared"), "mode must be a TailMode"),
    (lambda: make_s_levels(1, (0.005, 0.001)), "spec must be an SLevelSpec"),
    (lambda: ProtocolParams.build(7, 8, 8, spec=(0.005, 0.001)), "spec must be an SLevelSpec"),
], ids=["solve_k", "tail_bound_pm", "make_s_levels", "build_solving_k"])
def test_mistyped_mode_or_spec_is_rejected_where_it_enters(call, message):
    # a tail mode string used to be priced as LITERAL, and a spec tuple
    # raised AttributeError
    with pytest.raises(ValueError, match=message):
        call()


def test_build_rejects_widths_past_the_field_and_header():
    # a > 4096 has no modulus from find_irreducible and t > 255 does not fit
    # the signature header; both used to fail only partway through a run
    with pytest.raises(ValueError, match="msg_len_bits"):
        ProtocolParams.build(2, 5000, 8, k=1, l_max=0)
    with pytest.raises(ValueError, match="tag_len_bits"):
        ProtocolParams.build(3, 300, 260, k=2, l_max=0)
    assert ProtocolParams.build(2, 4096, 255, k=1, l_max=0).tag_len_bits == 255


def test_literal_mode_needs_smaller_k():
    # exp(-gap*k/2) falls faster than exp(-gap^2*k/2) when gap < 1
    assert solve_k(1e-10, 7, 1, mode=TailMode.LITERAL) < solve_k(1e-10, 7, 1)


def test_build_rejects_sets_the_wire_format_cannot_carry():
    # each used to build, and its signature failed only at sign, after a
    # full distribution
    with pytest.raises(ValueError, match=r"n_recipients must be an int in \[2, 65535\], got 70000"):
        ProtocolParams.build(70000, 8, k=1)
    with pytest.raises(ValueError, match=r"k must be an int in \[1, 4294967295\], got 4294967296"):
        ProtocolParams.build(3, 8, k=2**32)
    # n=7, a=t=8: 1 + 49k payload bytes, so this k is the last the uint32
    # byte count can carry
    k = (2**32 - 2) // 49
    assert ProtocolParams.build(7, 8, k=k).k == k
    with pytest.raises(ValueError, match="uint32 byte count"):
        ProtocolParams.build(7, 8, k=k + 1)


SMALL = ProtocolParams.build(3, 8, 8, k=4)
KEYS = (np.arange(16, dtype=np.uint8),) * 2  # multipliers and 4-bit offsets


def _held_by(recipient):
    network = Network(NetworkConfig(n_users=4, seed=2, default_flip_prob=0.1))
    held, issued = held_view(network, SMALL, recipient)
    return [block.tobytes() for block in (*held, *issued)], network.total_consumed()


def _signature(message):
    sender, _ = run_distribution(Network(NetworkConfig(n_users=4, seed=2)), SMALL)
    return sender.sign(message)


# argument: (call taking the value, a valid value, the name its errors give)
INTEGER_ARGUMENTS = {
    "build-n": (lambda v: ProtocolParams.build(v, 8, k=40), 7, "n"),
    "build-a": (lambda v: ProtocolParams.build(7, v, k=40), 8, "msg_len_bits"),
    "build-t": (lambda v: ProtocolParams.build(7, 8, v, k=40), 8, "tag_len_bits"),
    "build-k": (lambda v: ProtocolParams.build(7, 8, k=v), 40, "k"),
    "build-l_max": (lambda v: ProtocolParams.build(7, 8, k=40, l_max=v), 1, "l_max"),
    "id_bits-n": (lambda v: id_bits(v, 906), 7, "n"),
    "id_bits-k": (lambda v: id_bits(7, v), 906, "k"),
    "compute_delta-level": (lambda v: compute_delta(v, 1 / 7), 1, "level"),
    "find_irreducible": (find_irreducible, 13, "msg_len_bits"),
    "tags_of_arrays-message": (lambda v: tags_of_arrays(*KEYS, v, 8, 4), 0x5C, "message"),
    "tags_of_arrays-a": (lambda v: tags_of_arrays(*KEYS, 0x5C, v, 4), 8, "msg_len_bits"),
    "tags_of_arrays-t": (lambda v: tags_of_arrays(*KEYS, 0x5C, 8, v), 4, "tag_len_bits"),
    "expected_mismatch_fraction-a": (lambda v: expected_mismatch_fraction(0.1, v, 8), 8, "msg_len_bits"),
    "expected_mismatch_fraction-t": (lambda v: expected_mismatch_fraction(0.1, 8, v), 8, "tag_len_bits"),
    "sign-message": (lambda v: _signature(v), 0x5C, "message"),
    "run_honest-message": (lambda v: run_honest(SMALL, message=v), 0x5C, "message"),
    "NetworkConfig-n_users": (lambda v: NetworkConfig(n_users=v), 4, "users"),
    "NetworkConfig-seed": (lambda v: NetworkConfig(n_users=4, seed=v), 9, "seed"),
    "NetworkConfig-link": (
        lambda v: NetworkConfig(n_users=4, links={(v, 2): LinkSettings(flip_prob=0.1)}),
        1, r"link \(.*\) endpoint",
    ),
    "Network.link-user_a": (lambda v: Network(NetworkConfig(n_users=4)).link(v, 2).users, 1, "user_a"),
    "Network.link-user_b": (lambda v: Network(NetworkConfig(n_users=4)).link(2, v).users, 1, "user_b"),
    "LinkKeyStore-user_a": (lambda v: LinkKeyStore(v, 2, seed=3).draw_shared(16, side=2), 1, "user_a"),
    "draw_shared-n_bits": (lambda v: LinkKeyStore(0, 1, seed=3).draw_shared(v, side=0), 21, "n_bits"),
    "draw_shared-side": (
        lambda v: LinkKeyStore(0, 1, seed=3, flip_prob=0.2).draw_shared(64, side=v), 1, "side",
    ),
    "Recipient-index": (
        lambda v: vars(Recipient(Network(NetworkConfig(n_users=4)), SMALL, v))["index"],
        1, "recipient index",
    ),
    "held_view-recipient": (_held_by, 1, "recipient index"),
    "attack_forge-trials": (lambda v: attack_forge(SMALL, trials=v), 5, "trials"),
    "attack_forge-seed": (lambda v: attack_forge(SMALL, trials=5, seed=v), 2, "seed"),
    "attack_forge-forger": (lambda v: attack_forge(SMALL, trials=5, forger=v), 1, "forger index"),
    "attack_repudiation-trials": (lambda v: attack_repudiation(0.3, SMALL, trials=v), 5, "trials"),
    "attack_repudiation-seed": (
        lambda v: attack_repudiation(0.3, SMALL, trials=5, seed=v), 2, "seed",
    ),
    "wilson_interval-successes": (lambda v: wilson_interval(v, 10), 3, "successes"),
    "wilson_interval-trials": (lambda v: wilson_interval(3, v), 10, "trials"),
    "sweep_consumption-n": (lambda v: sweep_consumption("n", [v], SMALL).rows, 5, "n value"),
    "sweep_consumption-msg_len": (
        lambda v: sweep_consumption("msg_len", [v], SMALL).rows, 16, "msg_len value",
    ),
}


@pytest.mark.parametrize("argument", INTEGER_ARGUMENTS)
def test_every_integer_argument_follows_one_rule(argument):
    # a numpy integer runs as its int, down to the reprs of what it returns
    # (np.int64(7) against 7); a bool, a float or a string is refused by name
    call, value, name = INTEGER_ARGUMENTS[argument]
    assert repr(call(np.int64(value))) == repr(call(value))
    for bad in (True, 1.0, "1"):
        with pytest.raises(ValueError, match=f"^{name} must be "):
            call(bad)


@pytest.mark.parametrize("call, name", [
    (lambda: SLevelSpec(eps1="0.1"), "eps1"),
    (lambda: SLevelSpec(eps2=True), "eps2"),
    (lambda: ProtocolParams.build(7, 8, p_target="1e-10"), "p_target"),
    (lambda: ProtocolParams.build(7, 8, k=40, p_target="1e-10"), "p_target"),
    (lambda: ProtocolParams.build(7, 8, d_r="0.1"), "d_r"),
    (lambda: ProtocolParams.build(7, 8, d_r=False), "d_r"),
    (lambda: ProtocolParams.build(7, 8, k=40, d_r=False), "d_r"),
    (lambda: expected_mismatch_fraction("0.1", 8, 8), "q"),
    (lambda: sweep_error_tolerance([0.0], SMALL, margin="x", trials=1), "margin"),
    (lambda: sweep_error_tolerance([None], SMALL, trials=1), "q"),
    (lambda: sweep_consumption("p_target", [None], SMALL), "p_target value"),
], ids=["eps1", "eps2", "p_target-solving-k", "p_target", "d_r-str", "d_r-bool-solving-k",
        "d_r-bool", "q", "margin", "q-sweep-value", "p_target-sweep-value"])
def test_real_arguments_that_are_no_real_number_raise_value_error(call, name):
    # each used to raise TypeError at a comparison, and d_r=False was stored
    with pytest.raises(ValueError, match=f"^{name} must be a real number, got "):
        call()
