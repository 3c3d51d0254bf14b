"""Simulator for an N-recipient unconditionally secure signature protocol.

The package is organized bottom-up: hashing provides the GF(2^a) affine
tag family, secparams derives thresholds and key counts from failure
budgets, keystore simulates pairwise key pools with rate and noise,
protocol runs the distribution and messaging stages, simlab runs Monte
Carlo attacks and sweeps, and cli fronts it all from the command line.
"""
from .hashing import find_irreducible, tags_of_arrays
from .keystore import (
    LinkKeyStore,
    LinkSettings,
    Network,
    NetworkConfig,
    TimeToReady,
    time_to_ready,
)
from .protocol import (
    OriginKeys,
    Recipient,
    Sender,
    Signature,
    VerifyResult,
    forward_chain,
    run_distribution,
)
from .secparams import (
    BoundReport,
    ConsumptionReport,
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
from .simlab import (
    AttackResult,
    RunOutcome,
    SweepResult,
    attack_forge,
    attack_repudiation,
    expected_mismatch_fraction,
    run_honest,
    sweep_consumption,
    sweep_error_tolerance,
    wilson_interval,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "find_irreducible",
    "tags_of_arrays",
    "TailMode",
    "CostMode",
    "SLevelSpec",
    "ProtocolParams",
    "BoundReport",
    "ConsumptionReport",
    "compute_lmax",
    "compute_dr",
    "compute_delta",
    "make_s_levels",
    "tail_bound_pm",
    "uniform_guess_pass_prob",
    "p_forge",
    "p_nontransfer",
    "solve_k",
    "id_bits",
    "consumption",
    "LinkKeyStore",
    "LinkSettings",
    "NetworkConfig",
    "Network",
    "TimeToReady",
    "time_to_ready",
    "OriginKeys",
    "Signature",
    "VerifyResult",
    "Sender",
    "Recipient",
    "run_distribution",
    "forward_chain",
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
