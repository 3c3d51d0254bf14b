"""Command-line front end.

Subcommands: params (derive and print a parameter set), run (one honest
end-to-end run), attack (Monte Carlo adversary experiments), sweep
(parameter sweeps as CSV), time-to-ready (distribution-stage fill time).

All randomness flows from --seed; when --seed is absent the USS_SEED
environment variable is the fallback, then 0. Either one overrides a
--config file's seed. Only commands that draw read a seed: time-to-ready
and the consumption sweeps take none. Same argv and seed means
byte-identical output.
A flag the command would not read (a sweep axis's, the other attack
kind's, a uniform network flag beside --config) exits 2 before any work.
CSV files open with comment lines recording the tool version and every
resolved parameter, so a row can always be traced back to its inputs; a
consumption sweep leaves out the fields its rows re-derive or sweep.
"""
from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

from . import __version__
from .keystore import NetworkConfig
from .protocol import key_state_bytes
from .secparams import (
    CostMode,
    ProtocolParams,
    SLevelSpec,
    TailMode,
    compute_delta,
    consumption,
    default_tag_len,
    p_nontransfer,
    time_to_ready,
)
from .simlab import (
    SweepResult,
    attack_forge,
    attack_repudiation,
    repudiation_bytes,
    run_honest,
    sweep_consumption,
    sweep_error_tolerance,
)

_MAX_SWEEP_POINTS = 10_000
# Largest share of physical memory a `run` may be estimated to need: its
# key state at the run's peak (protocol.key_state_bytes: link stores, held
# keys, the signature and one sign block) plus INTERPRETER_BYTES, the
# resident size after `import ussim.cli`. Peak RSS measured 1.05, 1.02,
# 1.03 and 1.01 times that estimate at n=20 a=64 t=32 k=2270, n=50 a=64 t=32
# k=6906, n=40 a=t=8 k=8000 and n=100 a=t=8 k=14407 (55, 381, 134 and 1026
# MiB), 1.08 and 1.02 at n=400 and n=800 with a=t=8 k=1 l_max=0 (123 and 363
# MiB, mostly link stores), and 1.03 to 1.09 at six other shapes from n=7 to
# n=60, so an admitted run peaks within 0.80 * 1.09 = 87% of memory. A
# larger one would run out of memory partway through and is refused up front.
# `attack --kind repudiation` is admitted by the same rule, with its
# mismatch counts and level_rule's arrays over them as its estimate
# (simlab.repudiation_bytes): peak RSS measured 0.95 to 1.04 times the
# estimate plus INTERPRETER_BYTES from n=3 at 500000 trials to n=200 at 1000.
KEY_STATE_MEMORY_FRACTION = 0.80
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


def _fixed_args(args) -> dict:
    """ProtocolParams.build's arguments from the parameter flags, all but l_max, d_r and k."""
    return {
        "n_recipients": args.n,
        "msg_len_bits": args.a,
        "tag_len_bits": args.t,
        "p_target": args.p_target,
        "spec": SLevelSpec(eps1=args.eps1, eps2=args.eps2),
        "mode": TailMode[args.tail_mode.upper()],
    }


def _resolve_params(args) -> ProtocolParams:
    return ProtocolParams.build(**_fixed_args(args), l_max=args.lmax, d_r=args.dr, k=args.k)


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


def _refuse(flags: dict, where: str) -> None:
    """Raise on the first flag given a value, since it is not read where."""
    for flag, value in flags.items():
        if value is not None:
            raise ValueError(f"{flag} is not read {where}; omit it")


def _load_config(args, params: ProtocolParams, seed: int | None) -> NetworkConfig:
    """The --config file's network, which refuses the uniform flags, or one from the flags given."""
    uniform = {"--rate-bps": getattr(args, "rate_bps", None),  # time-to-ready's
               "--flip-prob": getattr(args, "flip_prob", None)}  # run's
    if args.config is not None:
        _refuse(uniform, "with --config, whose file sets every link")
        with open(args.config, "r", encoding="utf-8") as fh:
            config = NetworkConfig.from_json(fh.read())
        if seed is not None:
            config = dataclasses.replace(config, seed=seed)
        return config
    given = zip(("default_rate_bps", "default_flip_prob"), uniform.values())
    return NetworkConfig(
        n_users=params.n_recipients + 1,
        seed=0 if seed is None else seed,
        **{field: value for field, value in given if value is not None},
    )


def _param_lines(params: ProtocolParams) -> list[str]:
    version, *fields = _param_comments(params, omit=("d_r",))
    lines = [version, " ".join(fields), f"d_r={params.d_r!r}"]
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


def _param_comments(params: ProtocolParams, extra: dict | None = None, omit=()) -> list[str]:
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
    return [f"{key}={value}" for key, value in items.items() if key not in omit]


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


def _admit(command: str, need: int, held: str) -> None:
    """Raise unless need bytes of held and the interpreter fit the memory share above."""
    memory = _physical_memory_bytes()
    if memory is not None and need + INTERPRETER_BYTES > KEY_STATE_MEMORY_FRACTION * memory:
        raise ValueError(
            f"{command} would hold about {need / 2**20:.0f} MiB of {held} next to the "
            f"interpreter's {INTERPRETER_BYTES >> 20} MiB, more than {KEY_STATE_MEMORY_FRACTION:.0%} "
            f"of the {memory / 2**20:.0f} MiB of physical memory"
        )


def _cmd_run(args) -> int:
    params = _resolve_params(args)
    held = f"packed key state and link stores (n={params.n_recipients}, k={params.k})"
    _admit("run", key_state_bytes(params), held)
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
            f"accepted={res.accepted} groups_passed={res.groups_passed}/{len(res.mismatch_counts)} "
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
    forge_only = {"--forger": args.forger, "--colluders": args.colluders, "--target": args.target,
                  "--level": args.level, "--allow-oversized-collusion": args.allow_oversized_collusion}
    unread = forge_only if args.kind == "repudiation" else {"--gamma": args.gamma}
    _refuse(unread, f"by --kind {args.kind}")
    params = _resolve_params(args)
    seed = _resolve_seed(args)
    if args.kind == "repudiation":
        held = f"mismatch counts (n={params.n_recipients}, trials={args.trials})"
        _admit("attack --kind repudiation", repudiation_bytes(params, args.trials), held)
        gamma = _parse_gamma(args.gamma) if args.gamma is not None else None
        result = attack_repudiation(gamma, params, trials=args.trials, seed=seed)
        # the parsed values, per-batch ones joined with ";" like colluders, in one cell
        gammas = gamma if isinstance(gamma, tuple) else (gamma,)
        row = {"gamma": ";".join(repr(g) for g in gammas)}
    else:
        forger, colluders = args.forger or 0, _parse_indices(args.colluders or "")
        result = attack_forge(
            params, trials=args.trials, seed=seed, forger=forger,
            colluders=colluders, target=args.target, level=args.level,
            enforce_collusion_bound=not args.allow_oversized_collusion,
        )
        row = {
            "forger": forger,
            "colluders": ";".join(str(c) for c in colluders),
            "target": params.n_recipients - 1 if args.target is None else args.target,
            "level": result.bound_level,
        }
    row.update(dataclasses.asdict(result))  # its fields, in order, are the last columns
    extra = {"kind": args.kind, "trials": args.trials, "seed": seed}
    table = SweepResult.from_rows([row])
    _emit(table.to_csv(_param_comments(params, extra)), args.out)
    return 0


def _axis_values(start: float, stop: float, step: float, *, geometric: bool = False) -> list:
    """Every value of a sweep axis, from start up to and including stop.

    Value i is start + i * step, or start * step**i on a geometric axis.
    A float axis takes values within 1e-9 of a step past stop (1e-9 of
    stop on a geometric axis) and rounds them to 10 significant digits;
    an int axis stops exactly at stop. Over _MAX_SWEEP_POINTS values fail
    as the first value too many is made.
    """
    if geometric and (step <= 0 or step == 1.0):
        raise ValueError(f"factor must be positive and not 1, got {step}")
    if step == 0:
        raise ValueError("step must be non-zero")
    rising = step > 1 if geometric else step > 0
    if start != stop and (stop > start) != rising:
        name = "factor" if geometric else "step"
        raise ValueError(f"{name} {step} never reaches --to {stop} from --from {start}")
    if geometric:
        end = stop * (1 + 1e-9 if rising else 1 - 1e-9)
    elif isinstance(step, float):
        end = stop + (abs(step) if rising else -abs(step)) * 1e-9
    else:
        end = stop
    values = []
    for i in range(_MAX_SWEEP_POINTS + 1):
        try:
            value = start * step**i if geometric else start + i * step
        except OverflowError:
            raise ValueError(f"factor {step} to the power {i} overflows a float") from None
        if (value > end) if rising else (value < end):
            return values
        values.append(value if isinstance(value, int) else float(f"{value:.10g}"))
    raise ValueError(f"sweep exceeds {_MAX_SWEEP_POINTS} points")


def _cmd_sweep(args) -> int:
    bounds = (("--from", args.start), ("--to", args.stop), ("--step", args.step),
              ("--factor", args.factor))
    for name, bound in bounds:
        if bound is not None and not math.isfinite(bound):
            raise ValueError(f"{name} must be finite, got {bound}")
    axis = f"by axis {args.axis}, which"
    if args.axis != "q":
        for name, value in (("--k", args.k), ("--lmax", args.lmax), ("--dr", args.dr)):
            if value is not None:
                raise ValueError(f"{name} is re-derived at every point of axis {args.axis}; omit it")
        _refuse({"--seed": args.seed, "--trials": args.trials}, f"{axis} draws nothing")
        _refuse({"--margin": args.margin}, f"{axis} prices no noise")
    if args.axis == "p_target":
        _refuse({"--step": args.step}, f"{axis} steps by --factor")
    else:
        _refuse({"--factor": args.factor}, f"{axis} steps by --step")
    if args.axis == "q":
        params = _resolve_params(args)
        seed = _resolve_seed(args)
        if args.step is None:
            raise ValueError("--step is required for the q axis")
        margin = 0.002 if args.margin is None else args.margin
        trials = 200 if args.trials is None else args.trials
        values = _axis_values(args.start, args.stop, args.step)
        table = sweep_error_tolerance(values, params, margin=margin, trials=trials, seed=seed)
        extra = {"axis": "q", "margin": repr(margin), "trials": trials, "seed": seed}
        _emit(table.to_csv(_param_comments(params, extra)), args.out)
        return 0
    if args.axis == "p_target":
        for name, bound in (("--from", args.start), ("--to", args.stop)):
            if not 0 < bound < 1:
                raise ValueError(f"p_target axis bounds must be in (0, 1), got {name} {bound}")
        factor = 0.1 if args.factor is None else args.factor
        values = _axis_values(args.start, args.stop, factor, geometric=True)
        extra = {"axis": "p_target", "factor": repr(factor)}
    else:
        step = int(args.step) if args.step is not None else 1
        if args.step is not None and args.step != step:
            raise ValueError(f"step must be an integer for axis {args.axis}, got {args.step}")
        for name, bound in (("--from", args.start), ("--to", args.stop)):
            if bound != int(bound):
                raise ValueError(f"{name} must be an integer for axis {args.axis}, got {bound}")
        values = _axis_values(int(args.start), int(args.stop), step)
        extra = {"axis": args.axis, "step": step}
    # no base set is built: the rows share only these fields, which the header records
    fixed = _fixed_args(args)
    if fixed["tag_len_bits"] is None:  # build's default, or each row's cap on axis msg_len (no --a)
        fixed["tag_len_bits"] = default_tag_len(None if args.axis == "msg_len" else args.a)
    table = sweep_consumption(args.axis, values, **fixed)
    header = argparse.Namespace(**fixed, k=None, l_max=None, d_r=None)
    swept = {"n": "n", "p_target": "p_target", "msg_len": "msg_len_bits"}[args.axis]
    _emit(table.to_csv(_param_comments(header, extra, ("k", "l_max", "d_r", swept))), args.out)
    return 0


def _cmd_time_to_ready(args) -> int:
    params = _resolve_params(args)
    report = time_to_ready(_load_config(args, params, None), params)
    print(f"time_to_ready_s={report.seconds!r}")
    print(f"binding_link={report.binding_link[0]}-{report.binding_link[1]}")
    for (ua, ub), secs in sorted(report.per_link_seconds.items()):
        print(f"link {ua}-{ub}: {secs!r}")
    return 0


def _add_network_flags(parser: argparse.ArgumentParser, flag: str, text: str) -> None:
    group = parser.add_argument_group("network")
    group.add_argument("--config", default=None, help=f"JSON network config path (refuses {flag})")
    group.add_argument(flag, type=float, default=None, help=text)


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
    _add_network_flags(p_run, "--flip-prob", "uniform link flip probability q (default 0)")
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
    p_attack.add_argument("--forger", type=int, default=None,
                          help="forge: forging recipient index (default 0)")
    p_attack.add_argument("--colluders", default=None,
                          help="forge: comma-separated colluding recipient indices")
    p_attack.add_argument("--target", type=int, default=None,
                          help="forge: target recipient (default n-1)")
    p_attack.add_argument("--level", type=int, default=None,
                          help="forge: acceptance level under attack (default l_max)")
    p_attack.add_argument("--allow-oversized-collusion", action="store_true", default=None,
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
    p_sweep.add_argument("--factor", type=float, default=None,
                         help="multiplicative step for the p_target axis (default 0.1)")
    p_sweep.add_argument("--margin", type=float, default=None,
                         help="q axis: threshold headroom above expected mismatches (default 0.002)")
    p_sweep.add_argument("--trials", type=int, default=None,
                         help="q axis: Monte Carlo runs per point (default 200)")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_ttr = sub.add_parser("time-to-ready", help="distribution-stage fill time")
    _add_param_flags(p_ttr)
    _add_network_flags(p_ttr, "--rate-bps",
                       "uniform link rate when no config file is given (default 1000)")
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
