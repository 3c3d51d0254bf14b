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
* the key-material cost of a protocol instance, in two counting modes.

Probability arithmetic that can underflow is done in log space.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from enum import Enum

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
    "uniform_guess_pass_prob",
]

_MAX_K = 2**32


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
        if not 0 < self.eps1 < 0.5:
            raise ValueError(f"eps1 must be in (0, 0.5), got {self.eps1}")
        if not 0 < self.eps2 < 0.5:
            raise ValueError(f"eps2 must be in (0, 0.5), got {self.eps2}")
        if self.eps1 + self.eps2 >= 0.5:
            raise ValueError(
                f"eps1 + eps2 must be below 0.5, got {self.eps1 + self.eps2}"
            )


def compute_lmax(n: int) -> int:
    """Largest transferability level supportable by n recipients.

    This is the largest l >= 0 with l*(l+1) < n/2, which is exactly the
    requirement (l+1)*d_R < 1/2 once d_R = l/n.
    """
    _check_n(n)
    l = 0
    while (l + 1) * (l + 2) < n / 2:
        l += 1
    return l


def compute_dr(l_max: int, n: int) -> float:
    """Tolerable dishonest-recipient fraction d_R = l_max / n."""
    _check_n(n)
    if not isinstance(l_max, int) or isinstance(l_max, bool) or l_max < 0:
        raise ValueError(f"l_max must be a non-negative int, got {l_max}")
    d_r = l_max / n
    if d_r >= 0.5:
        raise ValueError(f"d_r = {d_r} is not below 1/2 (l_max={l_max}, n={n})")
    return d_r


def make_s_levels(l_max: int, spec: SLevelSpec = SLevelSpec()) -> dict[int, float]:
    """Evenly spaced mismatch thresholds, keyed by level l_max down to -1.

    s_{l_max} = eps1 and s_{-1} = 1/2 - eps2; equal spacing keeps every
    level-to-level failure probability the same.
    """
    if not isinstance(l_max, int) or isinstance(l_max, bool) or l_max < 0:
        raise ValueError(f"l_max must be a non-negative int, got {l_max}")
    gap = (0.5 - spec.eps2 - spec.eps1) / (l_max + 1)
    return {l: spec.eps1 + (l_max - l) * gap for l in range(l_max, -2, -1)}


def compute_delta(l: int, d_r: float) -> float:
    """Acceptance threshold delta_l = 1/2 + (l+1)*d_r.

    A verifier at level l accepts when strictly more than delta_l of its N
    group tests pass.
    """
    if not isinstance(l, int) or isinstance(l, bool) or l < -1:
        raise ValueError(f"level must be an int >= -1, got {l}")
    if not 0 <= d_r < 0.5:
        raise ValueError(f"d_r must be in [0, 0.5), got {d_r}")
    delta = 0.5 + (l + 1) * d_r
    if delta > 1:
        raise ValueError(f"delta_{l} = {delta} exceeds 1; level unusable at d_r={d_r}")
    return delta


def _log_tail(l: int, k: int, s_levels: dict[int, float], mode: TailMode) -> float:
    if l not in s_levels or (l - 1) not in s_levels:
        raise ValueError(f"s_levels must contain levels {l} and {l - 1}")
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValueError(f"k must be a positive int, got {k}")
    gap = s_levels[l - 1] - s_levels[l]
    if gap <= 0:
        raise ValueError(f"threshold gap between levels {l - 1} and {l} must be positive")
    if mode is TailMode.SQUARED:
        return -(gap * gap) * k / 2
    return -gap * k / 2


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
    _check_n(n)
    if not 0 <= d_r < 0.5:
        raise ValueError(f"d_r must be in [0, 0.5), got {d_r}")
    if not 0 <= p_t <= 1:
        raise ValueError(f"p_t must be in [0, 1], got {p_t}")
    return min(1.0, n * n * (1 - d_r) * (1 - d_r) * p_t)


def _honest_pairs(n: int, d_r: float) -> int:
    # floor guarded against float droop: n*(1 - l/n) should floor to n - l
    m = math.floor(n * (1 - d_r) + 1e-12)
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
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValueError(f"k must be a positive int, got {k}")
    if tag_len_bits < 1:
        raise ValueError(f"tag_len_bits must be >= 1, got {tag_len_bits}")
    if not 0 < s < 1:
        raise ValueError(f"s must be in (0, 1), got {s}")
    worst = math.floor(s * k)
    if worst / k >= s:
        worst -= 1
    if worst < 0:
        return 0.0
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
        _check_n(self.n_recipients)
        for name in ("msg_len_bits", "tag_len_bits", "l_max", "k"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an int, got {value!r}")
        # 4096 bounds the field modulus search; 255 the wire header's tag field
        if not 1 <= self.msg_len_bits <= 4096:
            raise ValueError(f"msg_len_bits must be in [1, 4096], got {self.msg_len_bits}")
        if not 1 <= self.tag_len_bits <= min(self.msg_len_bits, 255):
            raise ValueError(
                f"tag_len_bits must be in [1, min(msg_len_bits, 255)], got {self.tag_len_bits}"
            )
        if self.l_max < 0:
            raise ValueError(f"l_max must be >= 0, got {self.l_max}")
        if not 0 <= self.d_r < 0.5:
            raise ValueError(f"d_r must be in [0, 0.5), got {self.d_r}")
        if (self.l_max + 1) * self.d_r >= 0.5:
            raise ValueError(
                f"(l_max + 1) * d_r = {(self.l_max + 1) * self.d_r} must be below 1/2"
            )
        if self.k < 1:
            raise ValueError(f"k must be a positive int, got {self.k}")
        if not 0 < self.p_target < 1:
            raise ValueError(f"p_target must be in (0, 1), got {self.p_target}")
        if not isinstance(self.spec, SLevelSpec) or not isinstance(self.mode, TailMode):
            raise ValueError(
                f"spec must be an SLevelSpec and mode a TailMode, got {self.spec!r} and {self.mode!r}"
            )
        object.__setattr__(self, "s_levels", make_s_levels(self.l_max, self.spec))

    def thresholds(self, level: int) -> tuple[int, float, float]:
        """The level as an int, with its group threshold s and quorum delta."""
        if not isinstance(level, numbers.Integral) or isinstance(level, bool) or level not in self.s_levels:
            raise ValueError(f"level must be in [-1, {self.l_max}], got {level!r}")
        level = int(level)
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
            tag_len_bits = min(msg_len_bits, 8)
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
        p_m=math.exp(_log_tail(l, k, params.s_levels, mode)),
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
    if not 0 < p_target < 1:
        raise ValueError(f"p_target must be in (0, 1), got {p_target}")
    _check_n(n)
    if d_r is None:
        d_r = compute_dr(l_max, n)
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
    _check_n(n)
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValueError(f"k must be a positive int, got {k}")
    return max(1, math.ceil(math.log2(n * k)))


@dataclass(frozen=True)
class ConsumptionReport:
    """Secret-bit cost of one protocol instance under one counting mode."""

    n: int
    k: int
    a: int
    t: int
    mode: CostMode
    preparation_bits: int
    sharing_bits: int
    total_bits: int
    id_bits: int


def consumption(params: ProtocolParams, mode: CostMode = CostMode.ACCOUNTING) -> ConsumptionReport:
    """Secret bits consumed by the distribution stage.

    See CostMode for the two counting conventions.
    """
    n, k = params.n_recipients, params.k
    a, t = params.msg_len_bits, params.tag_len_bits
    ib = id_bits(n, k)
    if mode is CostMode.LITERAL:
        prep = n * n * k * a
        shar = n * (n - 1) * (a + ib)
    elif mode is CostMode.ACCOUNTING:
        key_len = a + t
        prep = n * n * k * key_len
        shar = n * (n - 1) * k * (key_len + ib)
    else:
        raise ValueError(f"unknown cost mode {mode!r}")
    return ConsumptionReport(
        n=n,
        k=k,
        a=a,
        t=t,
        mode=mode,
        preparation_bits=prep,
        sharing_bits=shar,
        total_bits=prep + shar,
        id_bits=ib,
    )


def _check_n(n: int) -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise ValueError(f"n must be an int >= 2, got {n}")
