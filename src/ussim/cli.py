"""Command-line front end.

Subcommands: params (derive and print a parameter set), run (one honest
end-to-end run), attack (Monte Carlo adversary experiments), sweep
(parameter sweeps as CSV), time-to-ready (distribution-stage fill time).

All randomness flows from --seed; when --seed is absent the USS_SEED
environment variable is the fallback, then 0. Either one overrides a
--config file's seed. Same argv and seed means byte-identical output.
CSV files open with comment lines recording the tool version and every
resolved parameter, so a row can always be traced back to its inputs.
"""
from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

from . import __version__
from .keystore import NetworkConfig, time_to_ready
from .protocol import key_state_bytes
from .secparams import (
    CostMode,
    ProtocolParams,
    SLevelSpec,
    TailMode,
    compute_delta,
    consumption,
    p_nontransfer,
)
from .simlab import (
    SweepResult,
    attack_forge,
    attack_repudiation,
    run_honest,
    sweep_consumption,
    sweep_error_tolerance,
)

_MAX_SWEEP_POINTS = 10_000
# Largest share of physical memory a `run` may be estimated to need: its
# key state at the distribution's peak (protocol.key_state_bytes) plus
# INTERPRETER_BYTES, the resident size after `import ussim.cli`. Peak RSS
# measured 1.29 to 2.11 times that estimate at n >= 20 (1.53 at n=50 a=64
# t=32 k=6906; 2.11 at n=100 a=t=8 k=14407, 2405 against 1140 MiB, where
# the signature and sign's temporaries outgrow narrow keys), so an admitted
# run peaks within 0.42 * 2.11 = 89% of memory. A larger one would run out
# of memory partway through and is refused up front.
KEY_STATE_MEMORY_FRACTION = 0.42
INTERPRETER_BYTES = 33 << 20


def _physical_memory_bytes() -> int | None:
    """Physical memory of this machine, or None where the OS does not say."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("protocol parameters")
    group.add_argument("--n", type=int, default=7, help="number of recipients (default 7)")
    group.add_argument("--a", type=int, default=8, help="message length in bits (default 8)")
    group.add_argument("--t", type=int, default=None,
                       help="tag length in bits (default min(a, 8))")
    group.add_argument("--k", type=int, default=None,
                       help="keys per chunk; solved from --p-target when omitted")
    group.add_argument("--p-target", type=float, default=1e-10,
                       help="failure probability budget for solving k (default 1e-10)")
    group.add_argument("--eps1", type=float, default=0.005,
                       help="strictest mismatch threshold s_lmax (default 0.005)")
    group.add_argument("--eps2", type=float, default=0.001,
                       help="0.5 minus the laxest threshold s_-1 (default 0.001)")
    group.add_argument("--lmax", type=int, default=None,
                       help="top transferability level (default: derived from --n)")
    group.add_argument("--dr", type=float, default=None,
                       help="dishonest-recipient fraction bound (default lmax/n)")
    group.add_argument("--tail-mode", choices=("squared", "literal"), default="squared",
                       help="tail-bound convention for k and every bound (default squared)")


def _add_seed_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None,
                        help="base seed (fallback: USS_SEED, then 0)")


def _add_out_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=None, help="write CSV here instead of stdout")


def _resolve_params(args) -> ProtocolParams:
    return ProtocolParams.build(
        args.n,
        args.a,
        args.t,
        p_target=args.p_target,
        spec=SLevelSpec(eps1=args.eps1, eps2=args.eps2),
        l_max=args.lmax,
        d_r=args.dr,
        k=args.k,
        mode=TailMode[args.tail_mode.upper()],
    )


def _resolve_seed(args, *, default: int | None = 0) -> int | None:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("USS_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"USS_SEED must be an integer, got {env!r}") from None
    return default


def _load_config(args, params: ProtocolParams, seed: int | None) -> NetworkConfig:
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = NetworkConfig.from_json(fh.read())
        if seed is not None:
            config = dataclasses.replace(config, seed=seed)
        return config
    return NetworkConfig(
        n_users=params.n_recipients + 1,
        default_rate_bps=args.rate_bps,
        default_flip_prob=args.flip_prob,
        seed=0 if seed is None else seed,
    )


def _param_lines(params: ProtocolParams) -> list[str]:
    lines = [
        f"version={__version__}",
        (
            f"n={params.n_recipients} msg_len_bits={params.msg_len_bits} "
            f"tag_len_bits={params.tag_len_bits} k={params.k} l_max={params.l_max} "
            f"p_target={params.p_target!r} eps1={params.spec.eps1!r} eps2={params.spec.eps2!r} "
            f"tail_mode={params.mode.name.lower()}"
        ),
        f"d_r={params.d_r!r}",
    ]
    levels = sorted(params.s_levels, reverse=True)
    lines.append(
        "s_levels: " + " ".join(f"s[{l}]={params.s_levels[l]!r}" for l in levels)
    )
    lines.append(
        "delta_levels: "
        + " ".join(f"delta[{l}]={compute_delta(l, params.d_r)!r}" for l in levels)
    )
    for level in range(params.l_max, -1, -1):
        rep = p_nontransfer(level, params)
        lines.append(
            f"bound level={rep.level}: n_p={rep.n_p} p_m={rep.p_m!r} "
            f"p_nontransfer={rep.p_nontransfer!r} p_t={rep.p_t!r} p_forge={rep.p_forge!r}"
        )
    for cost_mode in (CostMode.ACCOUNTING, CostMode.LITERAL):
        rep = consumption(params, cost_mode)
        lines.append(
            f"consumption mode={cost_mode.name.lower()}: "
            f"preparation_bits={rep.preparation_bits} sharing_bits={rep.sharing_bits} "
            f"total_bits={rep.total_bits} id_bits={rep.id_bits}"
        )
    return lines


def _param_comments(params: ProtocolParams, extra: dict | None = None) -> list[str]:
    items: dict[str, object] = {
        "version": __version__,
        "n": params.n_recipients,
        "msg_len_bits": params.msg_len_bits,
        "tag_len_bits": params.tag_len_bits,
        "k": params.k,
        "l_max": params.l_max,
        "d_r": repr(params.d_r),
        "p_target": repr(params.p_target),
        "eps1": repr(params.spec.eps1),
        "eps2": repr(params.spec.eps2),
        "tail_mode": params.mode.name.lower(),
    }
    if extra:
        items.update(extra)
    return [f"{key}={value}" for key, value in items.items()]


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_params(args) -> int:
    for line in _param_lines(_resolve_params(args)):
        print(line)
    return 0


def _cmd_run(args) -> int:
    params = _resolve_params(args)
    state = key_state_bytes(params)
    memory = _physical_memory_bytes()
    if memory is not None and state + INTERPRETER_BYTES > KEY_STATE_MEMORY_FRACTION * memory:
        raise ValueError(
            f"run would hold about {state / 2**20:.0f} MiB of packed key state "
            f"(n={params.n_recipients}, k={params.k}) next to the interpreter's "
            f"{INTERPRETER_BYTES >> 20} MiB, more than {KEY_STATE_MEMORY_FRACTION:.0%} "
            f"of the {memory / 2**20:.0f} MiB of physical memory"
        )
    seed = _resolve_seed(args, default=None)
    config = _load_config(args, params, seed)
    # the bounds are priced before the run, so unpriceable parameters fail fast
    lines = _param_lines(params)
    outcome = run_honest(params, config, message=args.message)
    for line in lines:
        print(line)
    print(
        f"network: users={config.n_users} seed={config.seed} "
        f"default_rate_bps={config.default_rate_bps!r} "
        f"default_flip_prob={config.default_flip_prob!r}"
    )
    print(f"message={outcome.message}")
    for res in outcome.verify_results:
        mism = ",".join(str(c) for c in res.mismatch_counts)
        print(
            f"recipient {res.recipient_index}: level={res.level} "
            f"accepted={res.accepted} groups_passed={res.groups_passed}/{res.n_groups} "
            f"mismatches={mism}"
        )
    for hop, res in enumerate(outcome.chain_results):
        print(
            f"chain hop {hop}: recipient={res.recipient_index} level={res.level} "
            f"accepted={res.accepted}"
        )
    print(f"consumed_total_bits={outcome.consumed_total}")
    return 0


def _parse_gamma(text: str) -> float | tuple[float, ...]:
    parts = text.split(",")
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise ValueError(f"gamma must be a float or comma-separated floats, got {text!r}") from None
    return values[0] if len(values) == 1 else tuple(values)


def _parse_indices(text: str) -> tuple[int, ...]:
    if not text:
        return ()
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"colluders must be comma-separated ints, got {text!r}") from None


def _cmd_attack(args) -> int:
    params = _resolve_params(args)
    seed = _resolve_seed(args)
    # both flags are parsed for either kind, so a malformed one always exits 2
    gamma = _parse_gamma(args.gamma) if args.gamma is not None else None
    colluders = _parse_indices(args.colluders)
    if args.kind == "repudiation":
        result = attack_repudiation(gamma, params, trials=args.trials, seed=seed)
        columns = ("gamma", "trials", "successes", "rate",
                   "wilson_low", "wilson_high", "bound", "bound_level")
        # the parsed values, per-batch ones joined with ";" like colluders, in one cell
        cell = ";".join(repr(g) for g in (gamma if isinstance(gamma, tuple) else (gamma,)))
        row = (cell, result.trials, result.successes, result.rate,
               result.wilson_low, result.wilson_high, result.bound, result.bound_level)
    else:
        result = attack_forge(
            params, trials=args.trials, seed=seed, forger=args.forger,
            colluders=colluders, target=args.target, level=args.level,
            enforce_collusion_bound=not args.allow_oversized_collusion,
        )
        columns = ("forger", "colluders", "target", "level", "trials", "successes",
                   "rate", "wilson_low", "wilson_high", "bound", "bound_level")
        row = (args.forger,
               ";".join(str(c) for c in colluders),
               params.n_recipients - 1 if args.target is None else args.target,
               result.bound_level, result.trials, result.successes, result.rate,
               result.wilson_low, result.wilson_high, result.bound, result.bound_level)
    extra = {"kind": args.kind, "trials": args.trials, "seed": seed}
    table = SweepResult(columns=columns, rows=(row,))
    _emit(table.to_csv(_param_comments(params, extra)), args.out)
    return 0


def _int_range(start: int, stop: int, step: int) -> list[int]:
    if step == 0:
        raise ValueError("step must be non-zero")
    if (stop - start) * step < 0:
        raise ValueError(f"step {step} never reaches --to {stop} from --from {start}")
    values = list(range(start, stop + (1 if step > 0 else -1), step))
    if len(values) > _MAX_SWEEP_POINTS:
        raise ValueError(f"sweep of {len(values)} points exceeds {_MAX_SWEEP_POINTS}")
    return values


def _float_range(start: float, stop: float, step: float) -> list[float]:
    if step == 0:
        raise ValueError("step must be non-zero")
    if (stop - start) * step < 0:
        raise ValueError(f"step {step} never reaches --to {stop} from --from {start}")
    values = []
    i = 0
    while True:
        v = start + i * step
        if (step > 0 and v > stop + abs(step) * 1e-9) or (step < 0 and v < stop - abs(step) * 1e-9):
            break
        values.append(float(f"{v:.10g}"))
        i += 1
        if i > _MAX_SWEEP_POINTS:
            raise ValueError(f"sweep exceeds {_MAX_SWEEP_POINTS} points")
    return values


def _geometric_range(start: float, stop: float, factor: float) -> list[float]:
    if factor <= 0 or factor == 1.0:
        raise ValueError(f"factor must be positive and not 1, got {factor}")
    decreasing = factor < 1.0
    if (start > stop) != decreasing and start != stop:
        raise ValueError(f"factor {factor} never reaches --to {stop} from --from {start}")
    values = []
    i = 0
    while True:
        v = start * factor**i
        if decreasing and v < stop * (1 - 1e-9):
            break
        if not decreasing and v > stop * (1 + 1e-9):
            break
        values.append(float(f"{v:.10g}"))
        i += 1
        if i > _MAX_SWEEP_POINTS:
            raise ValueError(f"sweep exceeds {_MAX_SWEEP_POINTS} points")
    return values


def _cmd_sweep(args) -> int:
    bounds = (("--from", args.start), ("--to", args.stop), ("--step", args.step),
              ("--factor", args.factor))
    for name, bound in bounds:
        if bound is not None and not math.isfinite(bound):
            raise ValueError(f"{name} must be finite, got {bound}")
    params = _resolve_params(args)
    seed = _resolve_seed(args)
    if args.axis == "q":
        if args.step is None:
            raise ValueError("--step is required for the q axis")
        values = _float_range(args.start, args.stop, args.step)
        table = sweep_error_tolerance(
            values, params,
            margin=args.margin, trials=args.trials, seed=seed,
        )
        extra = {"axis": "q", "margin": repr(args.margin),
                 "trials": args.trials, "seed": seed}
    elif args.axis == "p_target":
        values = _geometric_range(args.start, args.stop, args.factor)
        table = sweep_consumption("p_target", values, params)
        extra = {"axis": "p_target", "factor": repr(args.factor)}
    else:
        step = int(args.step) if args.step is not None else 1
        if args.step is not None and args.step != step:
            raise ValueError(f"step must be an integer for axis {args.axis}, got {args.step}")
        for name, bound in (("--from", args.start), ("--to", args.stop)):
            if bound != int(bound):
                raise ValueError(f"{name} must be an integer for axis {args.axis}, got {bound}")
        values = _int_range(int(args.start), int(args.stop), step)
        table = sweep_consumption(args.axis, values, params)
        extra = {"axis": args.axis, "step": step}
    _emit(table.to_csv(_param_comments(params, extra)), args.out)
    return 0


def _cmd_time_to_ready(args) -> int:
    params = _resolve_params(args)
    seed = _resolve_seed(args, default=None)
    config = _load_config(args, params, seed)
    report = time_to_ready(config, params)
    print(f"time_to_ready_s={report.seconds!r}")
    print(f"binding_link={report.binding_link[0]}-{report.binding_link[1]}")
    for (ua, ub), secs in sorted(report.per_link_seconds.items()):
        print(f"link {ua}-{ub}: {secs!r}")
    return 0


def _add_network_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("network")
    group.add_argument("--config", default=None,
                       help="JSON network config path (overrides the uniform flags)")
    group.add_argument("--rate-bps", type=float, default=1000.0,
                       help="uniform link rate when no config file is given (default 1000)")
    group.add_argument("--flip-prob", type=float, default=0.0,
                       help="uniform link flip probability q (default 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uss",
        description="Simulate an unconditionally secure N-recipient signature protocol "
                    "over pairwise key stores.",
    )
    parser.add_argument("--version", action="version", version=f"uss {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_params = sub.add_parser("params", help="derive and print a full parameter set")
    _add_param_flags(p_params)
    p_params.set_defaults(func=_cmd_params)

    p_run = sub.add_parser("run", help="one honest distribute-sign-verify run")
    _add_param_flags(p_run)
    _add_network_flags(p_run)
    _add_seed_flag(p_run)
    p_run.add_argument("--message", type=int, default=None,
                       help="message to sign (default: seed-derived random)")
    p_run.set_defaults(func=_cmd_run)

    p_attack = sub.add_parser("attack", help="Monte Carlo adversary experiment, CSV out")
    _add_param_flags(p_attack)
    _add_seed_flag(p_attack)
    _add_out_flag(p_attack)
    p_attack.add_argument("--kind", choices=("repudiation", "forge"), required=True)
    p_attack.add_argument("--trials", type=int, default=1000)
    p_attack.add_argument("--gamma", default=None,
                          help="repudiation: corrupted fraction per batch "
                               "(float, or comma-separated per-batch floats)")
    p_attack.add_argument("--forger", type=int, default=0,
                          help="forge: forging recipient index (default 0)")
    p_attack.add_argument("--colluders", default="",
                          help="forge: comma-separated colluding recipient indices")
    p_attack.add_argument("--target", type=int, default=None,
                          help="forge: target recipient (default n-1)")
    p_attack.add_argument("--level", type=int, default=None,
                          help="forge: acceptance level under attack (default l_max)")
    p_attack.add_argument("--allow-oversized-collusion", action="store_true",
                          help="forge: permit colluder sets beyond floor(d_r*n)")
    p_attack.set_defaults(func=_cmd_attack)

    p_sweep = sub.add_parser("sweep", help="parameter sweep, CSV out")
    _add_param_flags(p_sweep)
    _add_seed_flag(p_sweep)
    _add_out_flag(p_sweep)
    p_sweep.add_argument("--axis", choices=("n", "p_target", "msg_len", "q"), required=True)
    p_sweep.add_argument("--from", dest="start", type=float, required=True)
    p_sweep.add_argument("--to", dest="stop", type=float, required=True)
    p_sweep.add_argument("--step", type=float, default=None,
                         help="additive step (axes n, msg_len, q; default 1 for int axes)")
    p_sweep.add_argument("--factor", type=float, default=0.1,
                         help="multiplicative step for the p_target axis (default 0.1)")
    p_sweep.add_argument("--margin", type=float, default=0.002,
                         help="q axis: threshold headroom above expected mismatches")
    p_sweep.add_argument("--trials", type=int, default=200,
                         help="q axis: Monte Carlo runs per point (default 200)")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_ttr = sub.add_parser("time-to-ready", help="distribution-stage fill time")
    _add_param_flags(p_ttr)
    _add_network_flags(p_ttr)
    _add_seed_flag(p_ttr)
    p_ttr.set_defaults(func=_cmd_time_to_ready)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
