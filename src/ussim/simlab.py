"""Monte Carlo experiments over the protocol: honest runs, attacks, sweeps.

Every experiment here is deterministic given its seed. Trials derive
their randomness from seed-sequence tuples (seed, stream tag, index), so
reruns are bit-identical and trials stay independent of one another.
Every estimated rate is reported with trials, successes, and a Wilson 95%
interval.
"""
from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ._bitops import octets, packed_dtype, unpack_rows
from .hashing import check_message, tags_of_arrays
from .keystore import Network, NetworkConfig
from .protocol import (
    VerifyResult,
    block_tags,
    forward_chain,
    held_view,
    level_rule,
    mismatch_counts,
    run_distribution,
)
from .secparams import (
    CostMode,
    ProtocolParams,
    SLevelSpec,
    TailMode,
    as_int,
    as_real,
    consumption,
    dishonest_count,
    p_forge,
    p_nontransfer,
    solve_k,
    uniform_guess_pass_prob,
)

__all__ = [
    "wilson_interval",
    "RunOutcome",
    "run_honest",
    "AttackResult",
    "attack_repudiation",
    "attack_forge",
    "expected_mismatch_fraction",
    "SweepResult",
    "sweep_consumption",
    "sweep_error_tolerance",
]

_MESSAGE_STREAM = 0x4D455353
_REPUDIATION_STREAM = 0x52455055
_FORGE_NET_STREAM = 0x464E4554
_FORGE_GUESS_STREAM = 0x46475353
_SWEEP_MC_STREAM = 0x53574D43

# bytes of published tags per forge block: it bounds a block's memory at any t,
# and a forge's outcome can depend on it, so it is fixed, not sized to the machine
_FORGE_BLOCK_BYTES = 1 << 16

_SEED_SPAN = 1 << 62


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion, fixed at 95% (z = 1.96)."""
    trials = as_int(trials, "trials", 1)
    successes = as_int(successes, "successes", 0, trials)
    p = successes / trials
    z = 1.96
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials)) / denom
    # center +- half brackets p exactly in real arithmetic; the min/max
    # keeps that true under float rounding
    return (max(0.0, min(center - half, p)), min(1.0, max(center + half, p)))


def _random_message(rng: np.random.Generator, msg_len_bits: int) -> int:
    bits = np.packbits(rng.integers(0, 2, size=msg_len_bits, dtype=np.uint8))
    return int.from_bytes(bits.tobytes(), "big") >> (-msg_len_bits % 8)


def _derived_seed(*entropy: int) -> int:
    return int(np.random.default_rng(list(entropy)).integers(0, _SEED_SPAN))


@dataclass(frozen=True)
class RunOutcome:
    """Everything observable from one honest end-to-end run."""

    message: int
    verify_results: tuple[VerifyResult, ...]
    chain_results: tuple[VerifyResult, ...]
    consumed: dict[tuple[int, int], int]

    @property
    def consumed_total(self) -> int:
        return sum(self.consumed.values())

    @property
    def all_accepted(self) -> bool:
        every = all(r.accepted for r in self.verify_results)
        chain = all(r.accepted for r in self.chain_results)
        return every and chain


def run_honest(
    params: ProtocolParams,
    config: NetworkConfig | None = None,
    *,
    seed: int | None = None,
    message: int | None = None,
) -> RunOutcome:
    """One full run: distribute, sign, verify everywhere, forward.

    Every recipient verifies at l_max. Recipients 0, 1, ... then re-check
    along a forwarding chain at descending levels (l_max, l_max - 1, ...),
    one hop per level down to 0. Without an explicit config, the network
    is noiseless at 1000 bps per link; passing seed overrides the config's
    seed either way. The message defaults to a seed-derived random one,
    and is checked before any batch is drawn.
    """
    if config is None:
        config = NetworkConfig(n_users=params.n_recipients + 1)
    if seed is not None:
        config = dataclasses.replace(config, seed=seed)
    if message is None:
        rng = np.random.default_rng([config.seed, _MESSAGE_STREAM])
        message = _random_message(rng, params.msg_len_bits)
    message = check_message(message, params.msg_len_bits)  # before any batch is drawn
    network = Network(config)
    sender, recipients = run_distribution(network, params)
    signature = sender.sign(message)
    results = tuple(r.verify(signature, params.l_max) for r in recipients)
    chain_len = min(params.l_max + 1, params.n_recipients)
    chain = tuple(forward_chain(signature, recipients[:chain_len], params.l_max))
    return RunOutcome(
        message=signature.message,
        verify_results=results,
        chain_results=chain,
        consumed=network.total_consumed(),
    )


@dataclass(frozen=True)
class AttackResult:
    trials: int
    successes: int
    rate: float
    wilson_low: float
    wilson_high: float
    bound: float
    bound_level: int


def _attack_result(trials: int, successes: int, bound: float, level: int) -> AttackResult:
    low, high = wilson_interval(successes, trials)
    return AttackResult(trials=trials, successes=successes, rate=successes / trials,
                        wilson_low=low, wilson_high=high, bound=bound, bound_level=level)


def _gammas(gamma, n: int) -> tuple[float, ...]:
    if gamma is None:
        raise ValueError("repudiation needs gamma (one number, or one per batch)")
    try:
        gam = (gamma,) * n if isinstance(gamma, numbers.Real) else tuple(gamma)
    except TypeError:
        raise ValueError(f"gamma must be a real number or one per batch, got {gamma!r}") from None
    if len(gam) != n:
        raise ValueError(f"gamma must give {n} per-batch fractions, got {len(gam)}")
    gam = tuple(as_real(g, "gamma entries") for g in gam)
    for g in gam:
        if not 0 <= g <= 1:
            raise ValueError(f"gamma entries must be in [0, 1], got {g}")
    return gam


def attack_repudiation(
    gamma: float | Sequence[float],
    params: ProtocolParams,
    *,
    trials: int,
    seed: int = 0,
) -> AttackResult:
    """Dishonest-sender experiment: split the honest recipients.

    gamma is the fraction of tags the sender corrupts inside each batch,
    either one number for all batches or one per batch. Per trial the
    sender corrupts floor(gamma_g * n * k) tags inside each batch g; every
    recipient's private uniform partition then decides how many corrupted
    slots land in each holder's chunk. Success means some honest recipient
    accepts at level 0 while another would reject the forwarded message at
    level -1.

    Over noiseless links a recipient's group-g mismatch count equals the
    number of corrupted slots in its chunk of batch g, and those counts
    follow the joint chunk-count law of a uniform partition. Trials
    therefore draw the counts directly instead of replaying the protocol;
    the reported rate is distributed identically to the full replay.
    """
    trials, seed = as_int(trials, "trials", 1), as_int(seed, "seed", 0)
    n, k = params.n_recipients, params.k
    gammas = _gammas(gamma, n)
    # priced before the trials, so a bound that cannot be computed costs no trial
    bound = p_nontransfer(0, params).p_nontransfer
    corrupt = [math.floor(g * n * k + 1e-9) for g in gammas]
    rng = np.random.default_rng([seed, _REPUDIATION_STREAM])
    # counts[trial, holder, g]: the holder's mismatches in batch g; the sampler
    # draws nothing at m = 0 or m = n * k, so edge batches leave the stream alone
    counts = np.empty((trials, n, n), dtype=np.int64)
    for g, m in enumerate(corrupt):
        counts[:, :, g] = rng.multivariate_hypergeometric([k] * n, m, size=trials)
    _, accept_zero = level_rule(counts, k, *params.thresholds(0)[1:])
    _, accept_base = level_rule(counts, k, *params.thresholds(-1)[1:])
    success = accept_zero.any(axis=1) & ~accept_base.all(axis=1)
    return _attack_result(trials, int(success.sum()), bound, 0)


def repudiation_bytes(params: ProtocolParams, trials: int) -> int:
    """Bytes attack_repudiation holds at its peak; not exported.

    Per trial and holder, its n int64 mismatch counts with the bool pass
    that level_rule makes of each, and 32 bytes beside them, fitted to peak
    RSS: about one batch's int64 draw, level_rule's int64 passing count and
    float64 share, and the verdicts.
    """
    n = params.n_recipients
    return trials * n * (n * (8 + 1) + 32)


def _uniform_tags(rng: np.random.Generator, size: int, tag_len_bits: int) -> np.ndarray:
    if tag_len_bits <= 63:
        # drawn as uint64 whatever t is: a narrower dtype changes the stream
        draw = rng.integers(0, 1 << tag_len_bits, size=size, dtype=np.uint64)
        return draw.astype(packed_dtype(tag_len_bits))
    # one rng.bytes(ceil(t/8)) stream per tag, drawn at once: each row of
    # little-endian words starts with those bytes, read big-endian, bits above t dropped
    words = (tag_len_bits + 31) // 32
    draw = rng.integers(0, 1 << 32, size=size * words, dtype=np.uint32)
    return unpack_rows(octets(draw).reshape(-1), tag_len_bits, size, -tag_len_bits % 8, 32 * words)


def attack_forge(
    params: ProtocolParams,
    *,
    trials: int,
    seed: int = 0,
    forger: int = 0,
    colluders: Sequence[int] = (),
    target: int | None = None,
    level: int | None = None,
    enforce_collusion_bound: bool = True,
) -> AttackResult:
    """Colluding recipients try to pass off their own message as signed.

    The forger saw its whole batch during preparation, and so did each
    colluder, so tags for those batches are computed honestly; every
    other tag is a uniform guess. The batches the target contributed and
    holds shares of stay unknown because partition chunks never overlap.
    The target (default n - 1) judges each trial's mismatch counts by the
    real acceptance rule at the requested level (default l_max) over a
    noiseless network, and only its held_view is read. Colluder sets
    larger than floor(d_r * n), secparams.dishonest_count, are outside the
    security model and rejected unless enforce_collusion_bound is off.

    One attack draws one network, one view and one message; its trials
    draw only the guesses at the target's held slots, judged in blocks of
    at most 2^16 bytes of published tags. Sharing the rest is statistically
    free: with q=0 the known batches always pass and each guessed tag
    matches independently with probability 2^-t, whatever the
    distribution outcome was.
    """
    trials, seed = as_int(trials, "trials", 1), as_int(seed, "seed", 0)
    n, k = params.n_recipients, params.k
    a, t = params.msg_len_bits, params.tag_len_bits
    level, s, delta = params.thresholds(params.l_max if level is None else level)
    forger = as_int(forger, "forger index", 0, n - 1)
    target = as_int(n - 1 if target is None else target, "target index", 0, n - 1)
    colluders = [as_int(c, "colluder index", 0, n - 1) for c in colluders]
    members = (forger, *colluders, target)
    if len(set(members)) != len(members):
        raise ValueError("forger, colluders and target must be distinct recipients")
    allowed = dishonest_count(n, params.d_r)
    if enforce_collusion_bound and len(colluders) > allowed:
        raise ValueError(
            f"colluder set of size {len(colluders)} exceeds the model's "
            f"floor(d_r * n) = {allowed}; pass enforce_collusion_bound=False "
            f"to simulate outside the model"
        )
    # priced before the trials, so a bound that cannot be computed costs no trial
    bound = p_forge(n, params.d_r, uniform_guess_pass_prob(k, t, s))
    known = sorted({forger, *colluders})
    unknown = [g for g in range(n) if g not in known]
    net_rng = np.random.default_rng([seed, _FORGE_NET_STREAM])
    config = NetworkConfig(n_users=n + 1, seed=int(net_rng.integers(0, _SEED_SPAN)))
    (slots, *keys), issued = held_view(Network(config), params, target)
    message = _random_message(net_rng, a)
    tag = packed_dtype(t)
    block = max(1, _FORGE_BLOCK_BYTES // (n * k * tag.itemsize))
    # the tags at the target's slots, one (n, k) row per trial of a block
    published = np.empty((min(block, trials), n, k), dtype=tag)
    for g in known:  # noiseless, so the batch g saw is the one issued
        published[:, g] = tags_of_arrays(issued[0][g], issued[1][g], message, a, t)
    expected = block_tags(keys, message, params)
    guess_rng = np.random.default_rng([seed, _FORGE_GUESS_STREAM])
    successes = 0
    for done in range(0, trials, block):
        b = min(block, trials - done)
        guesses = _uniform_tags(guess_rng, b * len(unknown) * k, t)
        published[:b, unknown] = guesses.reshape(b, len(unknown), k)
        counts = mismatch_counts(slots, published[:b], expected)
        successes += int(np.count_nonzero(level_rule(counts, k, s, delta)[1]))
    return _attack_result(trials, successes, bound, level)


def expected_mismatch_fraction(q: float, msg_len_bits: int, tag_len_bits: int) -> float:
    """Expected fraction of key tests a flip rate q corrupts.

    A key mismatches only if at least one of its a + t bits flipped and
    the resulting tag still differs from the published one, which a
    random tag does with probability 1 - 2^-t.
    """
    if not 0 <= as_real(q, "q") < 0.5:
        raise ValueError(f"q must be in [0, 0.5), got {q}")
    tag_len_bits = as_int(tag_len_bits, "tag_len_bits", 1)
    span = as_int(msg_len_bits, "msg_len_bits", 1) + tag_len_bits
    return (1.0 - (1.0 - q) ** span) * (1.0 - 2.0 ** -tag_len_bits)


@dataclass(frozen=True)
class SweepResult:
    """One table of sweep outputs, ready for CSV emission."""

    columns: tuple[str, ...]
    rows: tuple[tuple, ...]

    def __post_init__(self) -> None:
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError(
                    f"row of width {len(row)} does not fit {len(self.columns)} columns"
                )

    @classmethod
    def from_rows(cls, rows: Sequence[dict]) -> "SweepResult":
        """A table of rows keyed by column name, its columns in the first row's order."""
        columns = tuple(rows[0])
        for row in rows:
            if tuple(row) != columns:
                raise ValueError(f"row with columns {tuple(row)} does not fit {columns}")
        return cls(columns=columns, rows=tuple(tuple(row.values()) for row in rows))

    def to_csv(self, comments: Sequence[str] = ()) -> str:
        lines = [f"# {c}" for c in comments]
        lines.append(",".join(self.columns))
        for row in self.rows:
            lines.append(",".join(map(str, row)))
        return "\n".join(lines) + "\n"


def sweep_consumption(
    axis: str,
    values: Iterable,
    *,
    n_recipients: int = 7,
    msg_len_bits: int = 8,
    tag_len_bits: int | None = None,
    p_target: float = 1e-10,
    spec: SLevelSpec = SLevelSpec(),
    mode: TailMode = TailMode.SQUARED,
) -> SweepResult:
    """Derive and price a full parameter set at each point of one axis.

    axis is one of n, p_target, msg_len. Each value takes the place of the
    matching keyword (msg_len that of msg_len_bits), whose own value is
    not read, and appears in that output column. Every row builds l_max,
    d_r, the s-levels and k with ProtocolParams.build from its fields
    alone, then prices the distribution stage in both cost conventions.
    On the msg_len axis each row's tag length is min(msg_len,
    tag_len_bits); None takes build's default, secparams.default_tag_len.
    """
    if axis not in ("n", "p_target", "msg_len"):
        raise ValueError(f"axis must be one of n, p_target, msg_len, got {axis!r}")
    values = list(values)
    if not values:
        raise ValueError("sweep needs at least one axis value")
    rows = []
    for value in values:
        n, a, t, p = n_recipients, msg_len_bits, tag_len_bits, p_target
        if axis == "n":
            n = as_int(value, "n value")
        elif axis == "p_target":
            p = as_real(value, "p_target value")
        else:
            a = as_int(value, "msg_len value")
            t = None if t is None else min(a, t)
        try:  # a point that cannot be built is named by its axis and value
            point = ProtocolParams.build(n, a, t, p_target=p, spec=spec, mode=mode)
            acc = consumption(point, CostMode.ACCOUNTING)
            lit = consumption(point, CostMode.LITERAL)
        except ValueError as exc:
            raise ValueError(f"{axis}={value}: {exc}") from None
        rows.append({
            "n": point.n_recipients,
            "msg_len_bits": point.msg_len_bits,
            "tag_len_bits": point.tag_len_bits,
            "l_max": point.l_max,
            "band": f"l_max={point.l_max}",
            "d_r": point.d_r,
            "k": point.k,
            "id_bits": acc.id_bits,
            "p_target": point.p_target,
            "prep_bits_accounting": acc.preparation_bits,
            "sharing_bits_accounting": acc.sharing_bits,
            "total_bits_accounting": acc.total_bits,
            "total_bits_literal": lit.total_bits,
        })
    return SweepResult.from_rows(rows)


def sweep_error_tolerance(
    q_values: Iterable[float],
    params: ProtocolParams,
    *,
    margin: float = 0.002,
    trials: int = 200,
    seed: int = 0,
) -> SweepResult:
    """Measure and price the protocol's tolerance to key-store flips.

    For each flip rate q this produces two things. First, a Monte Carlo
    estimate of the probability that recipient 0 still accepts at l_max
    under the unadjusted parameters, with every link flipping at rate q.
    Second, the cost of adapting to that noise: the strictest threshold
    is re-pinned to the expected mismatch fraction plus margin, the level
    ladder is rebuilt evenly, k is re-solved and the stage re-priced.

    Only recipient 0 verifies, so each trial reads just its held_view
    and tags only the slots it holds; its keys, counts and verdict are
    the ones a full distribution, sign and verify would give it. The view
    is read in blocks of origins, with one flip pass per block; at the
    paper's n=7 a=t=8 k=906 one block holds all seven batches, and the
    seven seeded partition draws are most of a trial.

    Rejects bad trials or seed, a non-finite margin, a q outside [0, 0.5),
    and a q whose adjusted threshold would be non-positive or reach the
    first interior level of the unadjusted ladder, all before any work.
    """
    trials, seed = as_int(trials, "trials", 1), as_int(seed, "seed", 0)
    margin = as_real(margin, "margin")
    if not math.isfinite(margin):
        raise ValueError(f"margin must be finite, got {margin}")
    q_values = [as_real(q, "q") for q in q_values]
    if not q_values:
        raise ValueError("sweep needs at least one q value")
    n, k = params.n_recipients, params.k
    a, t = params.msg_len_bits, params.tag_len_bits
    # read off the ladder, not params.spec.eps2: at the default 0.001 this is
    # 0.0010000000000000009, which the k column (and the QSweep check in
    # bench/workloads.py) has always been solved with
    eps2 = 0.5 - params.s_levels[-1]
    interior = params.s_levels[params.l_max - 1]
    points = []  # (q, e_q, s_adj), every q checked before the first k is solved
    for q in q_values:
        e_q = expected_mismatch_fraction(q, a, t)
        s_adj = e_q + margin
        if s_adj <= 0:
            raise ValueError(f"margin {margin} gives a non-positive threshold at q={q}")
        if s_adj >= interior:
            raise ValueError(
                f"adjusted threshold {s_adj:.6f} at q={q} reaches the first "
                f"interior level {interior:.6f}; the ladder cannot absorb it"
            )
        points.append((q, e_q, s_adj))
    _, s, delta = params.thresholds(params.l_max)
    rows = []
    for index, (q, e_q, s_adj) in enumerate(points):
        adj_spec = SLevelSpec(eps1=s_adj, eps2=eps2)
        k_q = solve_k(params.p_target, n, params.l_max, adj_spec, params.mode, d_r=params.d_r)
        point = dataclasses.replace(params, spec=adj_spec, k=k_q)
        acc = consumption(point, CostMode.ACCOUNTING)
        lit = consumption(point, CostMode.LITERAL)
        passes = 0
        for trial in range(trials):
            config = NetworkConfig(
                n_users=n + 1,
                default_flip_prob=q,
                seed=_derived_seed(seed, _SWEEP_MC_STREAM, index, trial),
            )
            held, issued = held_view(Network(config), params, 0)
            rng = np.random.default_rng([config.seed, _MESSAGE_STREAM])
            message = _random_message(rng, a)
            # as recipients[0].verify(sender.sign(message)), tagging only its slots
            tags = (block_tags(keys, message, params) for keys in (issued, held[1:]))
            counts = mismatch_counts(held.slots, *tags)
            passes += bool(level_rule(counts, k, s, delta)[1])
        low, high = wilson_interval(passes, trials)
        rows.append({
            "q": q,
            "expected_mismatch_fraction": e_q,
            "s_adjusted": s_adj,
            "k": k_q,
            "id_bits": acc.id_bits,
            "total_bits_accounting": acc.total_bits,
            "total_bits_literal": lit.total_bits,
            "trials": trials,
            "passes": passes,
            "pass_prob": passes / trials,
            "wilson_low": low,
            "wilson_high": high,
        })
    return SweepResult.from_rows(rows)
