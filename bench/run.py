"""Closed-loop benchmark of the ussim simulator.

One caller, one thread: each operation starts only after the previous one
returned and its outputs were checked. Run from the repository root:

    python3 bench/run.py --workload honest_paper --seed 1 --seconds 32 --trace 0

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` first runs the
same untraced loop (the baseline for the tracing overhead), then re-runs
the workload's fixed window of ops with every layer wrapped, and reports
the per-layer metrics. Human-readable lines come first; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics. A full record (environment, workload parameters,
digest, per-layer table) goes to .bench_out/ under the repository root,
and traced runs also write their spans there.

``--describe`` prints the workloads' parameters and every metric's unit,
direction and the layer-to-end-to-end mapping, as JSON.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 3  # set-ups per run (this process plus fresh interpreters)

# The end-to-end metrics of BENCHMARK.json: name -> (unit, better).
E2E_METRICS = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("op/s", "higher"),
    "peak_rss_mb": ("MiB", "lower"),
}
# Printed beside them but not declared there. The median op time flips
# between the fast and the slow mode when host contention comes in bursts
# (ten-run spread up to 40% of the median on a shared 2-vCPU VM), while
# ops_per_s, which one caller makes about 1 / mean op time, stays within
# 10-20%; failed_op_ratio is 0 on a correct build.
PRINTED_METRICS = {
    "op_p50_s": ("s", "lower"),
    "failed_op_ratio": ("1", "lower"),
}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=32.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes and a single set-up sample (see smoke.py)")
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up, print it as JSON and exit")
    ap.add_argument("--describe", action="store_true",
                    help="print workloads and metric definitions as JSON and exit")
    args = ap.parse_args(argv)
    if not (args.describe or args.workload):
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def _setup(workload_name: str, smoke: bool):
    """Import the package, build the workload's parameters, fill caches.

    Returns (workload, import seconds, set-up seconds), timed from before
    ``import ussim.cli`` to the point the first op can start.
    """
    start = time.perf_counter()
    import ussim.cli  # noqa: F401  (the package import is part of set-up)
    import_s = time.perf_counter() - start
    from workloads import make_workloads

    workloads = make_workloads(smoke)
    if workload_name not in workloads:
        raise SystemExit(f"unknown workload {workload_name!r}; choose from {sorted(workloads)}")
    wl = workloads[workload_name]
    wl.setup()
    return wl, import_s, time.perf_counter() - start


def _setup_in_child(args) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload] + (["--smoke"] if args.smoke else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _loop(wl, seed: int, *, seconds: float | None, min_ops: int, tracer=None):
    """Closed loop from op 0: stop after `seconds` (and min_ops), or at min_ops.

    Returns op wall times, attempted, failed, output digest of the first
    min_ops ops, phase wall time and bits consumed (traced only).
    """
    digest = hashlib.sha256()
    times: list[float] = []
    attempted = failed = consumed = 0
    errors: list[str] = []
    phase_start = time.perf_counter()
    while True:
        i = attempted
        inputs = wl.inputs(seed, i)
        attempted += 1
        try:
            if tracer is None:
                t0 = time.perf_counter()
                out = wl.run(*inputs)
                times.append(time.perf_counter() - t0)
            else:
                tracer.op, tracer.networks = i, []
                t0 = time.perf_counter()
                out = tracer.call("bench.op", wl.run, *inputs)
                times.append(time.perf_counter() - t0)
                consumed += sum(sum(n.total_consumed().values()) for n in tracer.networks)
            canonical = wl.check(inputs, out)
            if i < min_ops:
                digest.update(len(canonical).to_bytes(8, "big") + canonical)
        except Exception as exc:  # a failed op is counted, not fatal
            failed += 1
            if len(errors) < 5:
                errors.append(f"op {i}: {type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - phase_start
        if attempted >= min_ops and (seconds is None or elapsed >= seconds):
            break
    return {
        "times": times, "attempted": attempted, "failed": failed, "errors": errors,
        "digest": digest.hexdigest(), "wall_s": elapsed, "consumed": consumed,
    }


def _p50_and_tail(times: list[float]) -> tuple[float, str]:
    """Median, plus the highest of p90/p99 with >= 10 samples beyond it."""
    p50 = statistics.median(times)
    tail = ""
    for pct, beyond in ((99, len(times) / 100), (90, len(times) / 10)):
        if beyond >= 10:
            cut = statistics.quantiles(times, n=100)[pct - 1]
            tail = f"op_p{pct}_s {cut:.6f} s (info, n={len(times)})"
            break
    return p50, tail


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _environment() -> dict:
    import numpy
    import scipy
    import ussim

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "ussim": ussim.__version__,
        "git_commit": _git_commit(),
        "machine": platform.machine(),
    }


def describe(smoke: bool = False) -> dict:
    from tracer import LAYER_METRICS
    from workloads import make_workloads

    return {
        "loop": "closed, one caller, single thread",
        "workloads": [w.describe() for w in make_workloads(smoke).values()],
        "end_to_end": [{"name": k, "unit": u, "better": b} for k, (u, b) in E2E_METRICS.items()],
        "printed": [{"name": k, "unit": u, "better": b} for k, (u, b) in PRINTED_METRICS.items()],
        "per_layer": [{"name": k, "unit": u, "better": b, "moves": m, "on": on}
                      for k, (u, b, m, on) in LAYER_METRICS.items()],
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "ussim" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'ussim'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))

    if args.setup_only:
        _, import_s, setup_s = _setup(args.workload, args.smoke)
        print(json.dumps({"import_s": import_s, "setup_s": setup_s}))
        return 0

    if args.describe:
        print(json.dumps(describe(args.smoke), indent=2))
        return 0

    wl, import_s, setup_s = _setup(args.workload, args.smoke)
    setups = [{"import_s": import_s, "setup_s": setup_s}]
    for _ in range(1 if args.smoke else SETUP_SAMPLES - 1):
        setups.append(_setup_in_child(args))
    wl.prepare_checks()

    run = _loop(wl, args.seed, seconds=args.seconds, min_ops=wl.window)
    attempted, failed = run["attempted"], run["failed"]
    problems = list(run["errors"])
    ops_per_s = (attempted - failed) / run["wall_s"]
    p50, tail = _p50_and_tail(run["times"])
    e2e = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "ops_per_s": ops_per_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    record = {
        "workload": wl.describe(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": _environment(),
        "setup_samples": setups,
        "end_to_end": e2e,
        "op_p50_s": p50,
        "digest_ops": wl.window,
        "digest": run["digest"],
    }

    if args.trace:
        from tracer import EXACT_COUNTS, LAYER_METRICS, Tracer, layer_metrics

        tracer = Tracer()
        with tracer.installed():
            tracer.op = "setup"
            tracer.call("bench.setup", wl.setup)
            traced = _loop(wl, args.seed, seconds=None, min_ops=wl.window, tracer=tracer)
        attempted += traced["attempted"]
        failed += traced["failed"]
        problems += traced["errors"] + tracer.check_spans()
        if traced["digest"] != run["digest"]:
            problems.append("traced ops gave other outputs than untraced ops")
        traced_rate = (traced["attempted"] - traced["failed"]) / traced["wall_s"]
        table = tracer.table()
        metrics = layer_metrics(
            table, ops=traced["attempted"], consumed_bits=traced["consumed"],
            import_s=statistics.median(s["import_s"] for s in setups),
            overhead_ratio=traced_rate / ops_per_s if ops_per_s else 0.0,
        )
        units = {k: v[0] for k, v in LAYER_METRICS.items()}
        record.update(layer_table=table, per_layer=metrics,
                      exact_counts={k: metrics[k] for k in EXACT_COUNTS})
    else:
        metrics = e2e
        units = {k: v[0] for k, v in E2E_METRICS.items()}

    correct = not problems and failed == 0
    record.update(correct=correct, problems=problems, failed_op_ratio=failed / attempted)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{wl.name}_seed{args.seed}_trace{args.trace}{'_smoke' if args.smoke else ''}"
    if args.trace:
        tracer.write_spans(OUT_DIR / f"{stem}_spans.jsonl")
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    n_ops = len(run["times"])
    print(f"workload {wl.name} seed {args.seed} closed loop, 1 caller: "
          f"{n_ops} timed ops in {run['wall_s']:.3f} s")
    samples = {"setup_s": len(setups), "ops_per_s": n_ops, "peak_rss_mb": 1}
    for name, value in e2e.items():
        print(f"{name} {value:.6g} {E2E_METRICS[name][0]} (n={samples[name]})")
    print(f"op_p50_s {p50:.6g} s (n={n_ops})")
    if tail:
        print(tail)
    print(f"failed_op_ratio {failed / attempted:.6g} 1 ({failed} of {attempted})")
    print(f"digest sha256 {run['digest']} (first {wl.window} ops)")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    if args.trace:
        for name, value in metrics.items():
            print(f"  {name} {value:.6g} {units[name]}")
        print("exact_counts " + json.dumps(record["exact_counts"], sort_keys=True))
    for problem in problems:
        print(f"problem: {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
