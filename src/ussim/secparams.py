"""Security parameter calculus for the N-recipient signature protocol.

The protocol grades verification into transferability levels l = l_max down
to -1. A verifier at level l checks, for each of the N key groups it holds,
the fraction of signature tags that disagree with its own recomputation. A
group's test passes when that fraction is strictly below the level threshold
s_l, and the verifier accepts when strictly more than a delta_l fraction of
its N groups pass. Levels are spaced so that a message accepted at level l
can be forwarded and still accepted at level l - 1, down to level -1.

This module computes everything static about that design:

* the maximum transferability level supportable by N recipients and the
  matching tolerable fraction of dishonest recipients d_R,
* the evenly spaced mismatch thresholds s_l and acceptance thresholds
  delta_l,
* tail bounds on the per-level failure probabilities, and the smallest
  per-group key count k meeting a target failure probability,
* the key-material cost of an instance, in two counting modes, and its fill time.

Probability arithmetic that can underflow is done in log space.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .keystore import NetworkConfig

__all__ = [
    "TailMode",
    "CostMode",
    "SLevelSpec",
    "ProtocolParams",
    "BoundReport",
    "ConsumptionReport",
    "compute_lmax",
    "compute_dr",
    "make_s_levels",
    "compute_delta",
    "tail_bound_pm",
    "p_forge",
    "p_nontransfer",
    "solve_k",
    "id_bits",
    "consumption",
    "TimeToReady",
    "time_to_ready",
    "uniform_guess_pass_prob",
]

_MAX_K = 2**32


def as_int(value, name: str, lo: int | None = None, hi: int | None = None) -> int:
    """value as an int, if it is an integer in [lo, hi]; else a ValueError.

    The one integer rule of the package, not exported: any numbers.Integral
    counts, numpy integers included, except bool. True and 1.0 hash and
    compare like 1, so they are refused by type, not by value. hi is given
    only with lo.
    """
    number = value
    if type(value) is not int:  # plain ints skip the ABC check, which is slower
        integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
        number = int(value) if integral else None
    if number is None or (lo is not None and number < lo) or (hi is not None and number > hi):
        if hi is None:
            span = {None: "an int", 0: "a non-negative int", 1: "a positive int"}.get(lo, f"an int >= {lo}")
        else:
            span = f"an int in [{lo}, {hi}]"
        raise ValueError(f"{name} must be {span}, got {value!r}")
    return number


def as_real(value, name: str, span: str = "a real number") -> float:
    """value as a float, if it is a real number other than a bool; else a ValueError.

    Callers check the range, whose ends are open or closed case by case;
    span, which describes it, keeps the error for a non-number the same.
    """
    if type(value) is not float:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{name} must be {span}, got {value!r}")
        value = float(value)
    return value


def check_header_fields(a: int, t: int, n: int, k: int) -> None:
    """Raise unless a signature's 18-byte wire header can carry a, t, n and k.

    The header holds a and n in 16 bits, t in 8 and k in 32, and the byte
    count of the a + n*n*k*t bit payload in 32.
    """
    a = as_int(a, "msg_len_bits", 1, 0xFFFF)
    t = as_int(t, "tag_len_bits", 1, min(a, 0xFF))
    n = as_int(n, "n_recipients", 2, 0xFFFF)
    k = as_int(k, "k", 1, 0xFFFFFFFF)
    n_bits = a + n * n * k * t
    if (n_bits + 7) // 8 > 0xFFFFFFFF:
        raise ValueError(
            f"signature payload of {n_bits} bits does not fit the header's uint32 byte count"
        )


class TailMode(Enum):
    """Exponent convention for the mismatch tail bound.

    LITERAL uses exp(-(gap/2) * k) as printed in the source analysis.
    SQUARED uses the Hoeffding-style exp(-(gap^2/2) * k), which is the
    dimensionally consistent form and the default everywhere.
    """

    LITERAL = "LITERAL"
    SQUARED = "SQUARED"


class CostMode(Enum):
    """Key-material counting convention.

    LITERAL reproduces the published closed form: N^2*k*a bits of hash keys
    plus N*(N-1)*(a + ceil(log2(k*N))) bits of transfer overhead. ACCOUNTING
    charges what the simulated key stores actually consume: every key costs
    its full a + t bits in both stages, and the sharing stage additionally
    pays ceil(log2(N*k)) identifier bits per transferred key.
    """

    LITERAL = "LITERAL"
    ACCOUNTING = "ACCOUNTING"


@dataclass(frozen=True)
class SLevelSpec:
    """Endpoints of the threshold ladder.

    eps1 is the strictest threshold s_{l_max}; the loosest threshold s_{-1}
    sits at 1/2 - eps2. Interior levels are spaced evenly between them.
    """

    eps1: float = 0.005
    eps2: float = 0.001

    def __post_init__(self) -> None:
        for name in ("eps1", "eps2"):
            given = getattr(self, name)
            value = as_real(given, name)
            if not 0 < value < 0.5:
                raise ValueError(f"{name} must be in (0, 0.5), got {given}")
            object.__setattr__(self, name, value)  # a numpy float is kept as a float
        if self.eps1 + self.eps2 >= 0.5:
            raise ValueError(
                f"eps1 + eps2 must be below 0.5, got {self.eps1 + self.eps2}"
            )


def compute_lmax(n: int) -> int:
    """Largest transferability level supportable by n recipients.

    This is the largest l >= 0 with l*(l+1) < n/2, which is exactly the
    requirement (l+1)*d_R < 1/2 once d_R = l/n.
    """
    n = as_int(n, "n", 2)
    l = 0
    while (l + 1) * (l + 2) < n / 2:
        l += 1
    return l


def compute_dr(l_max: int, n: int) -> float:
    """Tolerable dishonest-recipient fraction d_R = l_max / n."""
    n, l_max = as_int(n, "n", 2), as_int(l_max, "l_max", 0)
    d_r = l_max / n
    if d_r >= 0.5:
        raise ValueError(f"d_r = {d_r} is not below 1/2 (l_max={l_max}, n={n})")
    return d_r


def make_s_levels(l_max: int, spec: SLevelSpec = SLevelSpec()) -> dict[int, float]:
    """Evenly spaced mismatch thresholds, keyed by level l_max down to -1.

    s_{l_max} = eps1 and s_{-1} = 1/2 - eps2; equal spacing keeps every
    level-to-level failure probability the same.
    """
    l_max = as_int(l_max, "l_max", 0)
    if not isinstance(spec, SLevelSpec):
        raise ValueError(f"spec must be an SLevelSpec, got {spec!r}")
    gap = (0.5 - spec.eps2 - spec.eps1) / (l_max + 1)
    return {l: spec.eps1 + (l_max - l) * gap for l in range(l_max, -2, -1)}


def _check_dr(d_r: float) -> None:
    """Raise unless d_r is a real number in [0, 0.5), the fractions the bounds take."""
    if not 0 <= as_real(d_r, "d_r") < 0.5:
        raise ValueError(f"d_r must be in [0, 0.5), got {d_r}")


def compute_delta(l: int, d_r: float) -> float:
    """Acceptance threshold delta_l = 1/2 + (l+1)*d_r.

    A verifier at level l accepts when strictly more than delta_l of its N
    group tests pass.
    """
    l = as_int(l, "level", -1)
    _check_dr(d_r)
    delta = 0.5 + (l + 1) * d_r
    if delta > 1:
        raise ValueError(f"delta_{l} = {delta} exceeds 1; level unusable at d_r={d_r}")
    return delta


def _log_tail(l: int, k: int, s_levels: dict[int, float], mode: TailMode) -> float:
    if l not in s_levels or (l - 1) not in s_levels:
        raise ValueError(f"s_levels must contain levels {l} and {l - 1}")
    k = as_int(k, "k", 1)
    gap = s_levels[l - 1] - s_levels[l]
    if not 0 < gap < math.inf:  # False for NaN
        raise ValueError(
            f"threshold gap between levels {l - 1} and {l} must be finite and positive, got {gap}"
        )
    if mode is TailMode.SQUARED:
        return -(gap * gap) * k / 2
    if mode is TailMode.LITERAL:
        return -gap * k / 2
    raise ValueError(f"mode must be a TailMode, got {mode!r}")


def tail_bound_pm(l: int, k: int, s_levels: dict[int, float], mode: TailMode = TailMode.SQUARED) -> float:
    """Bound on the probability that a group passing at level l fails at l-1.

    With k tags per group and threshold gap s_{l-1} - s_l, the bound is
    exp(-(gap^2/2) k) in SQUARED mode and exp(-(gap/2) k) in LITERAL mode.
    """
    return math.exp(_log_tail(l, k, s_levels, mode))


def p_forge(n: int, d_r: float, p_t: float) -> float:
    """Forging bound N^2 (1 - d_R)^2 p_t, clamped to [0, 1].

    p_t is the probability that a forged group of tags passes a single
    verifier test on keys the forger never saw.
    """
    n = as_int(n, "n", 2)
    _check_dr(d_r)
    if not 0 <= as_real(p_t, "p_t") <= 1:
        raise ValueError(f"p_t must be in [0, 1], got {p_t}")
    return min(1.0, n * n * (1 - d_r) * (1 - d_r) * p_t)


def dishonest_count(n: int, d_r: float) -> int:
    """The most recipients of n that may be dishonest at d_r, floor(d_r * n); not exported."""
    return math.floor(d_r * n + 1e-9)  # guarded against float droop: (l / n) * n floors to l


def max_passing(k: int, s: float) -> int:
    """The largest m with m / k < s: how many of k keys may disagree in a passing group; not exported."""
    m = math.floor(s * k)  # one too many where m / k still reaches s
    return m - 1 if m / k >= s else m


def _honest_pairs(n: int, d_r: float) -> int:
    """Pairs of honest recipients of n at d_r in [0, 0.5); every bound needs one."""
    _check_dr(d_r)
    m = n - dishonest_count(n, d_r)
    if m < 2:
        raise ValueError(
            f"d_r = {d_r} leaves {m} honest recipient(s) of n = {n}; the bounds need at least 2"
        )
    return m * (m - 1) // 2


def _log_nontransfer(l: int, n: int, d_r: float, k: int, s_levels: dict[int, float], mode: TailMode) -> float:
    delta_l = compute_delta(l, d_r)
    prefactor = _honest_pairs(n, d_r) * (n * (delta_l - d_r) + 1)
    return math.log(prefactor) + _log_tail(l, k, s_levels, mode)


def _stirlerr(n: int) -> float:
    """log(n!) - log(sqrt(2 pi n) (n/e)^n), the error of Stirling's formula."""
    if n <= 15:
        # the direct difference cancels only O(n log n), so it stays ~1e-15
        return math.lgamma(n + 1) - (n + 0.5) * math.log(n) + n - 0.5 * math.log(2 * math.pi)
    nn = n * n
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * nn)) / nn) / nn) / nn) / n


def _bd0(x: int, mean: float) -> float:
    """x log(x / mean) + mean - x without cancellation (Loader's deviance)."""
    if abs(x - mean) < 0.1 * (x + mean):
        v = (x - mean) / (x + mean)
        total = (x - mean) * v
        term = 2 * x * v
        v *= v
        j = 1
        while True:
            term *= v
            step = total + term / (2 * j + 1)
            if step == total:
                return total
            total = step
            j += 1
    return x * math.log(x / mean) + mean - x


def _binom_term(k: int, m: int, log2_p: float, log2_q: float) -> float:
    """C(k, m) p^m q^(k-m), where q = 1 - p.

    Up to k = 1024 the binomial coefficient is exact and cheap, which keeps
    exactly representable results exact. Above it, Loader's saddle-point
    form ("Fast and accurate computation of binomial probabilities", 2000;
    R's dbinom_raw) holds the relative error near 1e-15, where three
    cancelling lgamma values lost up to ~1e-10.
    """
    if k <= 1024 or m in (0, k):
        log2_comb = math.log2(math.comb(k, m))
        return 2.0 ** (log2_comb + m * log2_p + (k - m) * log2_q)
    # one probability is 2^-t, exact; the other is 1 minus it, also exact
    # below t = 54, rather than 2^log2 with its rounding
    p, q = 2.0**log2_p, 2.0**log2_q
    if p < q:
        q = 1.0 - p
    else:
        p = 1.0 - q
    log_term = (
        _stirlerr(k) - _stirlerr(m) - _stirlerr(k - m)
        - _bd0(m, k * p) - _bd0(k - m, k * q)
        - 0.5 * (math.log(2 * math.pi) + math.log(m) + math.log1p(-m / k))
    )
    return math.exp(log_term)


def _lower_tail(k: int, m: int, log2_p: float, log2_q: float) -> float:
    """P(Bin(k, p) <= m) for m at or below the mode, where q = 1 - p.

    The terms grow with i up to m, so they are summed downward from the
    largest one, relative to it, until a term no longer moves the total.
    Logs are base 2, so powers of two such as 2^-t stay exact.
    """
    odds = 2.0 ** (log2_q - log2_p)
    total = term = 1.0
    for i in range(m, 0, -1):
        term *= i / (k - i + 1) * odds
        total += term
        if term < 1e-17 * total:
            break
    return _binom_term(k, m, log2_p, log2_q) * total


def uniform_guess_pass_prob(k: int, tag_len_bits: int, s: float) -> float:
    """Probability that k uniformly guessed tags pass a threshold-s test.

    Each guess independently matches the true tag with probability 2^-t;
    the test passes when strictly fewer than s*k of the k tags mismatch.
    The binomial tail is summed in log space, so 2^-t does not round away
    at large t, and the work depends on s and t rather than on k.
    """
    k, tag_len_bits = as_int(k, "k", 1), as_int(tag_len_bits, "tag_len_bits", 1)
    if not 0 < as_real(s, "s") < 1:
        raise ValueError(f"s must be in (0, 1), got {s}")
    worst = max_passing(k, s)
    log2_mismatch = math.log1p(-(2.0 ** -tag_len_bits)) / math.log(2)
    if worst <= (k + 1) * (1 - 2.0 ** -tag_len_bits):
        return _lower_tail(k, worst, log2_mismatch, -tag_len_bits)
    # past the mode: one minus the other tail, which is below its own mode
    return 1.0 - _lower_tail(k, k - worst - 1, -tag_len_bits, log2_mismatch)


@dataclass(frozen=True)
class ProtocolParams:
    """Complete static parameter set for one protocol instance.

    n_recipients is N; each recipient ends up holding N groups of k keys.
    msg_len_bits (a) and tag_len_bits (t) fix the hash family, so one key
    costs a + t secret bits. spec fixes the threshold ladder, and s_levels,
    derived from it once, maps every level in [l_max, -1] to its mismatch
    threshold. mode is the tail convention every bound of this set is
    priced under.
    """

    n_recipients: int
    msg_len_bits: int
    tag_len_bits: int
    l_max: int
    d_r: float
    k: int
    p_target: float = 1e-10
    spec: SLevelSpec = SLevelSpec()
    mode: TailMode = TailMode.SQUARED
    s_levels: dict[int, float] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        # 4096 bounds the field modulus search; 255 the wire header's tag field
        a = as_int(self.msg_len_bits, "msg_len_bits", 1, 4096)
        ints = {
            "n_recipients": as_int(self.n_recipients, "n", 2),
            "msg_len_bits": a,
            "tag_len_bits": as_int(self.tag_len_bits, "tag_len_bits", 1, min(a, 255)),
            "l_max": as_int(self.l_max, "l_max", 0),
            "k": as_int(self.k, "k", 1),
        }
        for name, value in ints.items():
            object.__setattr__(self, name, value)
        _honest_pairs(self.n_recipients, self.d_r)
        if (self.l_max + 1) * self.d_r >= 0.5:
            raise ValueError(
                f"(l_max + 1) * d_r = {(self.l_max + 1) * self.d_r} must be below 1/2"
            )
        if not 0 < as_real(self.p_target, "p_target") < 1:
            raise ValueError(f"p_target must be in (0, 1), got {self.p_target}")
        # stored as floats, as the ints are stored as ints, so a numpy float prints plainly
        for name in ("d_r", "p_target"):
            object.__setattr__(self, name, as_real(getattr(self, name), name))
        # a set the signature cannot carry would fail only at sign, after a distribution
        check_header_fields(self.msg_len_bits, self.tag_len_bits, self.n_recipients, self.k)
        if not isinstance(self.spec, SLevelSpec) or not isinstance(self.mode, TailMode):
            raise ValueError(
                f"spec must be an SLevelSpec and mode a TailMode, got {self.spec!r} and {self.mode!r}"
            )
        object.__setattr__(self, "s_levels", make_s_levels(self.l_max, self.spec))

    def thresholds(self, level: int) -> tuple[int, float, float]:
        """The level as an int, with its group threshold s and quorum delta."""
        level = as_int(level, "level", -1, self.l_max)
        return level, self.s_levels[level], compute_delta(level, self.d_r)

    @classmethod
    def build(
        cls,
        n_recipients: int,
        msg_len_bits: int,
        tag_len_bits: int | None = None,
        *,
        p_target: float = 1e-10,
        spec: SLevelSpec = SLevelSpec(),
        l_max: int | None = None,
        d_r: float | None = None,
        k: int | None = None,
        mode: TailMode = TailMode.SQUARED,
    ) -> "ProtocolParams":
        """Derive a full parameter set, solving for k unless it is given."""
        if l_max is None:
            l_max = compute_lmax(n_recipients)
        if d_r is None:
            d_r = compute_dr(l_max, n_recipients)
        if tag_len_bits is None:
            tag_len_bits = default_tag_len(msg_len_bits)
        if k is None:
            k = solve_k(p_target, n_recipients, l_max, spec, mode, d_r=d_r)
        return cls(
            n_recipients=n_recipients,
            msg_len_bits=msg_len_bits,
            tag_len_bits=tag_len_bits,
            l_max=l_max,
            d_r=d_r,
            k=k,
            p_target=p_target,
            spec=spec,
            mode=mode,
        )


def default_tag_len(msg_len_bits: int | None = None) -> int:
    """The tag length build takes when given none: the message's, capped at 8 bits.

    With no message length, the cap itself. Not exported.
    """
    cap = 8
    return cap if msg_len_bits is None else min(as_int(msg_len_bits, "msg_len_bits"), cap)


@dataclass(frozen=True)
class BoundReport:
    """Failure-probability bounds for one level of one parameter set."""

    level: int
    n_p: int
    p_m: float
    p_nontransfer: float
    p_t: float
    p_forge: float


def p_nontransfer(l: int, params: ProtocolParams) -> BoundReport:
    """Bound on a level-l acceptance failing to transfer to level l-1.

    The bound N_p * (N * (delta_l - d_R) + 1) * p_m, where N_p counts honest
    verifier pairs and p_m is the per-group tail bound under params.mode, is
    clamped to [0, 1] like p_forge. The report also carries the forging
    bound at this level, with p_t derived as the uniform-guessing pass
    probability.
    """
    n, d_r, k, mode = params.n_recipients, params.d_r, params.k, params.mode
    log_p = _log_nontransfer(l, n, d_r, k, params.s_levels, mode)
    p_t = uniform_guess_pass_prob(k, params.tag_len_bits, params.s_levels[l])
    return BoundReport(
        level=l,
        n_p=_honest_pairs(n, d_r),
        p_m=tail_bound_pm(l, k, params.s_levels, mode),
        p_nontransfer=min(1.0, math.exp(log_p)),
        p_t=p_t,
        p_forge=p_forge(n, d_r, p_t),
    )


def solve_k(
    p_target: float,
    n: int,
    l_max: int,
    spec: SLevelSpec = SLevelSpec(),
    mode: TailMode = TailMode.SQUARED,
    *,
    d_r: float | None = None,
) -> int:
    """Smallest k whose worst-level non-transfer bound meets p_target.

    The worst-level log bound is a max of terms that fall linearly in k, so
    it decreases strictly in k: a doubling search brackets the answer and
    bisection returns the smallest k that meets p_target. Raises if no k
    up to 2^32 suffices.
    """
    if not 0 < as_real(p_target, "p_target") < 1:
        raise ValueError(f"p_target must be in (0, 1), got {p_target}")
    n = as_int(n, "n", 2)
    if d_r is None:
        d_r = compute_dr(l_max, n)
    _honest_pairs(n, d_r)
    s_levels = make_s_levels(l_max, spec)
    log_target = math.log(p_target)

    def worst(k: int) -> float:
        return max(
            _log_nontransfer(l, n, d_r, k, s_levels, mode) for l in range(0, l_max + 1)
        )

    lo, hi = 1, 1
    while worst(hi) > log_target:
        hi *= 2
        if hi > _MAX_K:
            raise ValueError(f"no k <= 2^32 reaches p_target={p_target}")
    while lo < hi:
        mid = (lo + hi) // 2
        if worst(mid) <= log_target:
            hi = mid
        else:
            lo = mid + 1
    return lo


def id_bits(n: int, k: int) -> int:
    """Bits needed to name one of the n*k keys issued per recipient."""
    n, k = as_int(n, "n", 2), as_int(k, "k", 1)
    return max(1, math.ceil(math.log2(n * k)))


def share_widths(params: ProtocolParams) -> tuple[int, int, int]:
    """Bits of a shared key's slot id, multiplier and offset; not exported."""
    return id_bits(params.n_recipients, params.k), params.msg_len_bits, params.tag_len_bits


def link_bits(params: ProtocolParams) -> tuple[int, int]:
    """Bits the distribution spends on each sender link and each recipient link; not exported.

    A sender link carries its recipient's batch of n*k keys of a + t bits,
    a recipient link one k-key share each way, each key as share_widths.
    """
    n, k = params.n_recipients, params.k
    return n * k * (params.msg_len_bits + params.tag_len_bits), 2 * k * sum(share_widths(params))


def check_users(n_users: int, params: ProtocolParams) -> None:
    """ValueError unless n_users is the one sender plus n recipients of params; not exported."""
    if n_users != params.n_recipients + 1:
        raise ValueError(
            f"network has {n_users} users but the protocol needs {params.n_recipients + 1} "
            f"(one sender plus {params.n_recipients} recipients)"
        )


@dataclass(frozen=True)
class ConsumptionReport:
    """Secret-bit cost of one protocol instance under one counting mode."""

    preparation_bits: int
    sharing_bits: int
    total_bits: int
    id_bits: int


def consumption(params: ProtocolParams, mode: CostMode = CostMode.ACCOUNTING) -> ConsumptionReport:
    """Secret bits consumed by the distribution stage.

    See CostMode for the two counting conventions.
    """
    n, k, a = params.n_recipients, params.k, params.msg_len_bits
    ib = id_bits(n, k)
    if mode is CostMode.LITERAL:
        prep = n * n * k * a
        shar = n * (n - 1) * (a + ib)
    elif mode is CostMode.ACCOUNTING:
        sender_link, recipient_link = link_bits(params)
        prep = n * sender_link
        shar = n * (n - 1) // 2 * recipient_link
    else:
        raise ValueError(f"unknown cost mode {mode!r}")
    return ConsumptionReport(
        preparation_bits=prep, sharing_bits=shar, total_bits=prep + shar, id_bits=ib
    )


@dataclass(frozen=True)
class TimeToReady:
    seconds: float
    binding_link: tuple[int, int]
    per_link_seconds: dict[tuple[int, int], float]


def time_to_ready(config: NetworkConfig, params: ProtocolParams) -> TimeToReady:
    """Time until every link has delivered its distribution-stage bits.

    User 0 is the sender; user r is recipient r - 1. Each link must deliver
    the bits link_bits lays out for it. Links fill in parallel, so
    readiness is set by the slowest link. Raises ValueError naming a link
    whose time is not finite.
    """
    check_users(config.n_users, params)
    sender_link, recipient_link = link_bits(params)
    per_link = {
        (a, b): (recipient_link if a else sender_link) / config.rate(a, b)
        for a in range(config.n_users)
        for b in range(a + 1, config.n_users)
    }
    binding = max(per_link, key=per_link.get)  # the first slowest link, in pair order
    if not math.isfinite(per_link[binding]):  # a subnormal rate passes NetworkConfig's rate check
        raise ValueError(f"link {binding} at rate {config.rate(*binding)!r} bps takes infinitely long")
    return TimeToReady(
        seconds=per_link[binding],
        binding_link=binding,
        per_link_seconds=per_link,
    )
