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
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from ._bitops import pack_rows, packed_dtype, unpack_rows
from .hashing import tags_of_arrays
from .keystore import Network, NetworkConfig
from .protocol import VerifyResult, forward_chain, level_rule, run_distribution
from .secparams import (
    CostMode,
    ProtocolParams,
    SLevelSpec,
    consumption,
    id_bits,
    p_forge,
    p_nontransfer,
    solve_k,
    uniform_guess_pass_prob,
)

__all__ = [
    "wilson_interval",
    "RunOutcome",
    "run_honest",
    "AttackKind",
    "AttackSpec",
    "AttackResult",
    "attack_repudiation",
    "attack_forge",
    "run_attack",
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

_SEED_SPAN = 1 << 62


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion (default 95%)."""
    if not _is_int(trials) or trials < 1:
        raise ValueError(f"trials must be a positive int, got {trials!r}")
    if not _is_int(successes) or not 0 <= successes <= trials:
        raise ValueError(f"successes must be an int in [0, {trials}], got {successes!r}")
    p = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials)) / denom
    # center +- half brackets p exactly in real arithmetic; the min/max
    # keeps that true under float rounding
    return (max(0.0, min(center - half, p)), min(1.0, max(center + half, p)))


def _random_message(rng: np.random.Generator, msg_len_bits: int) -> int:
    bits = pack_rows(rng.integers(0, 2, size=msg_len_bits, dtype=np.uint8), 1)
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
    seed either way. The message defaults to a seed-derived random one.
    """
    if config is None:
        config = NetworkConfig(
            n_users=params.n_recipients + 1,
            seed=0 if seed is None else seed,
        )
    elif seed is not None:
        config = dataclasses.replace(config, seed=seed)
    network = Network(config)
    sender, recipients = run_distribution(network, params)
    if message is None:
        rng = np.random.default_rng([config.seed, _MESSAGE_STREAM])
        message = _random_message(rng, params.msg_len_bits)
    signature = sender.sign(message)
    results = tuple(r.verify(signature, params.l_max) for r in recipients)
    chain_len = min(params.l_max + 1, params.n_recipients)
    chain = tuple(forward_chain(signature, recipients[:chain_len], params.l_max))
    return RunOutcome(
        message=message,
        verify_results=results,
        chain_results=chain,
        consumed=network.total_consumed(),
    )


class AttackKind(Enum):
    REPUDIATION = "repudiation"
    FORGE = "forge"


@dataclass(frozen=True)
class AttackSpec:
    """Adversary strategy plus trial budget.

    REPUDIATION uses gamma: the fraction of tags the dishonest sender
    corrupts inside each batch, either one number for all batches or one
    per batch. FORGE uses forger, colluders, target and level: the forger
    and colluders pool full knowledge of their own batches and guess every
    other tag uniformly, aiming at the target's acceptance test at the
    given level. Colluder sets larger than floor(d_r * n) are outside the
    security model and rejected unless enforce_collusion_bound is off.
    """

    kind: AttackKind
    trials: int
    seed: int = 0
    gamma: float | tuple[float, ...] | None = None
    forger: int = 0
    colluders: tuple[int, ...] = ()
    target: int | None = None
    level: int | None = None
    redraw_every: int = 512
    enforce_collusion_bound: bool = True

    def __post_init__(self) -> None:
        if not _is_int(self.trials) or self.trials < 1:
            raise ValueError(f"trials must be a positive int, got {self.trials!r}")
        if not _is_int(self.redraw_every) or self.redraw_every < 1:
            raise ValueError(f"redraw_every must be a positive int, got {self.redraw_every!r}")
        if not _is_int(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative int, got {self.seed!r}")


@dataclass(frozen=True)
class AttackResult:
    kind: AttackKind
    trials: int
    successes: int
    rate: float
    wilson_low: float
    wilson_high: float
    bound: float
    bound_level: int


def _attack_result(spec: AttackSpec, successes: int, bound: float, level: int) -> AttackResult:
    low, high = wilson_interval(successes, spec.trials)
    return AttackResult(kind=spec.kind, trials=spec.trials, successes=successes,
                        rate=successes / spec.trials, wilson_low=low, wilson_high=high,
                        bound=bound, bound_level=level)


def _gammas(spec: AttackSpec, n: int) -> tuple[float, ...]:
    if spec.gamma is None:
        raise ValueError("repudiation needs gamma (one number, or one per batch)")
    try:
        gam = (spec.gamma,) * n if isinstance(spec.gamma, numbers.Real) else tuple(spec.gamma)
    except TypeError:
        raise ValueError(f"gamma must be a real number or one per batch, got {spec.gamma!r}") from None
    if len(gam) != n:
        raise ValueError(f"gamma must give {n} per-batch fractions, got {len(gam)}")
    for g in gam:
        if not isinstance(g, numbers.Real) or isinstance(g, bool):
            raise ValueError(f"gamma entries must be real numbers, got {g!r}")
        if not 0 <= g <= 1:
            raise ValueError(f"gamma entries must be in [0, 1], got {g}")
    return tuple(float(g) for g in gam)


def attack_repudiation(
    spec: AttackSpec,
    params: ProtocolParams,
) -> AttackResult:
    """Dishonest-sender experiment: split the honest recipients.

    Per trial the sender corrupts floor(gamma_g * n * k) tags inside each
    batch g; every recipient's private uniform partition then decides how
    many corrupted slots land in each holder's chunk. Success means some
    honest recipient accepts at level 0 while another would reject the
    forwarded message at level -1.

    Over noiseless links a recipient's group-g mismatch count equals the
    number of corrupted slots in its chunk of batch g, and those counts
    follow the joint chunk-count law of a uniform partition. Trials
    therefore draw the counts directly instead of replaying the protocol;
    the reported rate is distributed identically to the full replay.
    """
    if spec.kind is not AttackKind.REPUDIATION:
        raise ValueError(f"spec.kind must be REPUDIATION, got {spec.kind.name}")
    n, k = params.n_recipients, params.k
    gammas = _gammas(spec, n)
    corrupt = [math.floor(g * n * k + 1e-9) for g in gammas]
    rng = np.random.default_rng([spec.seed, _REPUDIATION_STREAM])
    # counts[trial, holder, g]: the holder's mismatches in batch g
    counts = np.empty((spec.trials, n, n), dtype=np.int64)
    for g in range(n):
        m = corrupt[g]
        if m == 0:
            counts[:, :, g] = 0
        elif m == n * k:
            counts[:, :, g] = k
        else:
            counts[:, :, g] = rng.multivariate_hypergeometric(
                [k] * n, m, size=spec.trials
            )
    _, accept_zero = level_rule(counts, k, *params.thresholds(0)[1:])
    _, accept_base = level_rule(counts, k, *params.thresholds(-1)[1:])
    success = accept_zero.any(axis=1) & ~accept_base.all(axis=1)
    bound = p_nontransfer(0, params).p_nontransfer
    return _attack_result(spec, int(success.sum()), bound, 0)


def _uniform_tags(rng: np.random.Generator, size: int, tag_len_bits: int) -> np.ndarray:
    if tag_len_bits <= 63:
        # drawn as uint64 whatever t is: a narrower dtype changes the stream
        draw = rng.integers(0, 1 << tag_len_bits, size=size, dtype=np.uint64)
        return draw.astype(packed_dtype(tag_len_bits))
    # one rng.bytes(ceil(t/8)) stream per tag, drawn at once: each row of
    # little-endian words starts with those bytes; each field skips bits above t
    words = (tag_len_bits + 31) // 32
    data = rng.integers(0, 1 << 32, size=(size, words), dtype=np.uint32).astype("<u4")
    return unpack_rows(data.view(np.uint8).reshape(-1), tag_len_bits, size,
                       start=-tag_len_bits % 8, stride=32 * words)


def attack_forge(spec: AttackSpec, params: ProtocolParams) -> AttackResult:
    """Colluding recipients try to pass off their own message as signed.

    The forger saw its whole batch during preparation, and so did each
    colluder, so tags for those batches are computed honestly; every
    other tag is a uniform guess. The batches the target contributed and
    holds shares of stay unknown because partition chunks never overlap.
    The target judges each trial's mismatch counts by the real acceptance
    rule at the requested level over a noiseless network, and only its
    share transfers run.

    The distribution, the known tags, the target's expected tags and its
    held-slot index are redrawn every spec.redraw_every trials; a trial
    redraws only the guesses. Reuse is statistically free here: with q=0
    the known batches always pass and each guessed tag matches
    independently with probability 2^-t, whatever the distribution
    outcome was.
    """
    if spec.kind is not AttackKind.FORGE:
        raise ValueError(f"spec.kind must be FORGE, got {spec.kind.name}")
    n, k = params.n_recipients, params.k
    a, t = params.msg_len_bits, params.tag_len_bits
    target = n - 1 if spec.target is None else spec.target
    level, s, delta = params.thresholds(params.l_max if spec.level is None else spec.level)
    members = (spec.forger, *spec.colluders, target)
    for who, name in ((spec.forger, "forger"), (target, "target"), *((c, "colluder") for c in spec.colluders)):
        if not isinstance(who, (int, np.integer)) or isinstance(who, bool) or not 0 <= who < n:
            raise ValueError(f"{name} index must be an int in [0, {n}), got {who!r}")
    if len(set(members)) != len(members):
        raise ValueError("forger, colluders and target must be distinct recipients")
    allowed = math.floor(params.d_r * n + 1e-9)
    if spec.enforce_collusion_bound and len(spec.colluders) > allowed:
        raise ValueError(
            f"colluder set of size {len(spec.colluders)} exceeds the model's "
            f"floor(d_r * n) = {allowed}; pass enforce_collusion_bound=False "
            f"to simulate outside the model"
        )
    # priced before the trials, so a bound that cannot be computed costs no trial
    bound = p_forge(n, params.d_r, uniform_guess_pass_prob(k, t, s))
    known = sorted({spec.forger, *spec.colluders})
    unknown = [g for g in range(n) if g not in known]
    net_rng = np.random.default_rng([spec.seed, _FORGE_NET_STREAM])
    guess_rng = np.random.default_rng([spec.seed, _FORGE_GUESS_STREAM])
    tags = np.empty((n, n * k), dtype=packed_dtype(t))
    successes = 0
    done = 0
    while done < spec.trials:
        block = min(spec.redraw_every, spec.trials - done)
        config = NetworkConfig(n_users=n + 1, seed=int(net_rng.integers(0, _SEED_SPAN)))
        sender, recipients = run_distribution(Network(config), params, holder=target)
        message = _random_message(net_rng, a)
        for g in known:  # noiseless, so the batch g saw is the one issued
            tags[g] = tags_of_arrays(*sender.issued_group(g), message, a, t)
        verifier = recipients[target]
        expected, flat = verifier._expected_tags(message), verifier._flat_slots()
        counts = np.empty((block, n), dtype=np.intp)
        for trial in range(block):
            for g in unknown:
                tags[g] = _uniform_tags(guess_rng, n * k, t)
            published = tags.reshape(-1).take(flat, mode="clip")
            counts[trial] = verifier._mismatch_counts(published, expected, flat)
        successes += int(np.count_nonzero(level_rule(counts, k, s, delta)[1]))
        done += block
    return _attack_result(spec, successes, bound, level)


def run_attack(spec: AttackSpec, params: ProtocolParams) -> AttackResult:
    if spec.kind is AttackKind.REPUDIATION:
        return attack_repudiation(spec, params)
    return attack_forge(spec, params)


def expected_mismatch_fraction(q: float, msg_len_bits: int, tag_len_bits: int) -> float:
    """Expected fraction of key tests a flip rate q corrupts.

    A key mismatches only if at least one of its a + t bits flipped and
    the resulting tag still differs from the published one, which a
    random tag does with probability 1 - 2^-t.
    """
    if not 0 <= q < 0.5:
        raise ValueError(f"q must be in [0, 0.5), got {q}")
    span = msg_len_bits + tag_len_bits
    return (1.0 - (1.0 - q) ** span) * (1.0 - 2.0 ** -tag_len_bits)


@dataclass(frozen=True)
class SweepResult:
    """One table of sweep outputs, ready for CSV emission."""

    axis: str
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]

    def __post_init__(self) -> None:
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError(
                    f"row of width {len(row)} does not fit {len(self.columns)} columns"
                )

    def to_csv(self, comments: Sequence[str] = ()) -> str:
        lines = [f"# {c}" for c in comments]
        lines.append(",".join(self.columns))
        for row in self.rows:
            lines.append(",".join(_csv_cell(v) for v in row))
        return "\n".join(lines) + "\n"


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def sweep_consumption(
    axis: str,
    values: Iterable,
    params: ProtocolParams,
) -> SweepResult:
    """Re-derive the full parameter set at each point of one axis.

    axis is one of n, p_target, msg_len; the swept value appears in the
    matching output column (msg_len lands in msg_len_bits). Every row
    rebuilds l_max, d_r, the s-levels and k from scratch, then prices
    the distribution stage in both cost conventions. The off-axis
    values, the threshold spec and the tail mode are taken from params.
    When msg_len varies, the tag length follows min(msg_len, params tag
    length).
    """
    if axis not in ("n", "p_target", "msg_len"):
        raise ValueError(f"axis must be one of n, p_target, msg_len, got {axis!r}")
    values = list(values)
    if not values:
        raise ValueError("sweep needs at least one axis value")
    columns = (
        "n",
        "msg_len_bits",
        "tag_len_bits",
        "l_max",
        "band",
        "d_r",
        "k",
        "id_bits",
        "p_target",
        "prep_bits_accounting",
        "sharing_bits_accounting",
        "total_bits_accounting",
        "total_bits_literal",
    )
    rows = []
    for value in values:
        n = params.n_recipients
        a = params.msg_len_bits
        t = params.tag_len_bits
        p_target = params.p_target
        if axis == "n":
            if not isinstance(value, int):
                raise ValueError(f"n values must be ints, got {value!r}")
            n = value
        elif axis == "p_target":
            p_target = float(value)
        else:
            if not isinstance(value, int):
                raise ValueError(f"msg_len values must be ints, got {value!r}")
            a = value
            t = min(a, params.tag_len_bits)
        point = ProtocolParams.build(
            n, a, t, p_target=p_target, spec=params.spec, mode=params.mode
        )
        acc = consumption(point, CostMode.ACCOUNTING)
        lit = consumption(point, CostMode.LITERAL)
        rows.append(
            (
                n,
                a,
                t,
                point.l_max,
                f"l_max={point.l_max}",
                point.d_r,
                point.k,
                acc.id_bits,
                p_target,
                acc.preparation_bits,
                acc.sharing_bits,
                acc.total_bits,
                lit.total_bits,
            )
        )
    return SweepResult(axis=axis, columns=columns, rows=tuple(rows))


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

    Only recipient 0 verifies, so each trial runs just the share
    transfers over recipient 0's links, and the sender tags only the
    slots it holds; its keys, counts and verdict are the ones a full
    distribution, sign and verify would give it.

    Rejects a q whose adjusted threshold would reach the first interior
    level of the unadjusted ladder, and bad trials or seed before any
    work.
    """
    if not _is_int(trials) or trials < 1:
        raise ValueError(f"trials must be a positive int, got {trials!r}")
    if not _is_int(seed) or seed < 0:
        raise ValueError(f"seed must be a non-negative int, got {seed!r}")
    q_values = [float(q) for q in q_values]
    if not q_values:
        raise ValueError("sweep needs at least one q value")
    n, k = params.n_recipients, params.k
    a, t = params.msg_len_bits, params.tag_len_bits
    # read off the ladder, not params.spec.eps2: at the default 0.001 this is
    # 0.0010000000000000009, which the k column (and the QSweep check in
    # bench/workloads.py) has always been solved with
    eps2 = 0.5 - params.s_levels[-1]
    interior = params.s_levels[params.l_max - 1]
    columns = (
        "q",
        "expected_mismatch_fraction",
        "s_adjusted",
        "k",
        "id_bits",
        "total_bits_accounting",
        "total_bits_literal",
        "trials",
        "passes",
        "pass_prob",
        "wilson_low",
        "wilson_high",
    )
    _, s, delta = params.thresholds(params.l_max)
    rows = []
    for index, q in enumerate(q_values):
        e_q = expected_mismatch_fraction(q, a, t)
        s_adj = e_q + margin
        if s_adj <= 0:
            raise ValueError(f"margin {margin} gives a non-positive threshold at q={q}")
        if s_adj >= interior:
            raise ValueError(
                f"adjusted threshold {s_adj:.6f} at q={q} reaches the first "
                f"interior level {interior:.6f}; the ladder cannot absorb it"
            )
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
            network = Network(config)
            sender, recipients = run_distribution(network, params, holder=0)
            rng = np.random.default_rng([config.seed, _MESSAGE_STREAM])
            message = _random_message(rng, a)
            # as recipients[0].verify(sender.sign(message)), tagging only its slots
            verifier = recipients[0]
            flat = verifier._flat_slots()
            counts = verifier._mismatch_counts(
                sender.tags_at(message, flat), verifier._expected_tags(message), flat
            )
            passes += bool(level_rule(counts, k, s, delta)[1])
        low, high = wilson_interval(passes, trials)
        rows.append(
            (
                q,
                e_q,
                s_adj,
                k_q,
                acc.id_bits,
                acc.total_bits,
                lit.total_bits,
                trials,
                passes,
                passes / trials,
                low,
                high,
            )
        )
    return SweepResult(axis="q", columns=columns, rows=tuple(rows))
