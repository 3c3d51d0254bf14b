"""Fast self-check of the benchmark at tiny sizes (about a minute).

    python3 bench/smoke.py

Runs every workload with ``--smoke`` (n=3, small k, a one-second loop),
once untraced and twice traced, all with the same seed, and checks that:

* each run exits 0 and ends with a result line of exactly the keys
  correct, attempted, failed and metrics, with correct true and no
  failed op;
* the untraced run prints every end-to-end metric of BENCHMARK.json and
  the traced runs every per-layer metric, each with its declared unit,
  and every run prints op_p50_s, failed_op_ratio and the output digest;
* the three runs give the same output digest, and the two traced runs
  the same exact counts;
* BENCHMARK.json names the same workloads, reasons, units and directions
  as the benchmark's own tables (``run.py --describe``).

Exits 1 and lists the problems if any check fails.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN = [sys.executable, str(BENCH_DIR / "run.py")]
SEED = 7


def _run(args: list[str]) -> tuple[list[str], dict]:
    proc = subprocess.run(RUN + args, capture_output=True, text=True, timeout=170, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def _line_value(lines: list[str], prefix: str) -> str | None:
    for line in lines:
        if line.startswith(prefix):
            return line[len(prefix):]
    return None


def _check_bench_json(spec: dict, described: dict) -> list[str]:
    problems = []
    wants = {w["name"]: w["why"] for w in described["workloads"]}
    has = {w["name"]: w["why"] for w in spec["workloads"]}
    if wants != has:
        problems.append(f"BENCHMARK.json workloads {has} != benchmark's {wants}")
    for key in ("end_to_end", "per_layer"):
        declared = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        own = {m["name"]: (m["unit"], m["better"]) for m in described[key]}
        if declared != own:
            problems.append(f"BENCHMARK.json {key} differs from the benchmark's table: "
                            f"{sorted(set(declared.items()) ^ set(own.items()))}")
    return problems


def _check_result(result: dict, metrics: list[dict], label: str) -> list[str]:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
        return problems
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{label}: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}")
    want = {m["name"]: m["unit"] for m in metrics}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if want != got:
        problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                        f"{sorted(set(want.items()) ^ set(got.items()))}")
    for name, entry in result["metrics"].items():
        if not isinstance(entry.get("value"), (int, float)):
            problems.append(f"{label}: {name} has no numeric value")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    described = json.loads(subprocess.run(
        RUN + ["--describe"], capture_output=True, text=True, timeout=120, cwd=ROOT,
        check=True).stdout)
    problems = _check_bench_json(spec, described)
    for workload in (w["name"] for w in spec["workloads"]):
        digests, counts = set(), []
        for trace in (0, 1, 1):
            label = f"{workload} trace {trace}"
            lines, result = _run(["--workload", workload, "--seed", str(SEED), "--seconds", "1",
                                  "--trace", str(trace), "--smoke"])
            metrics = spec["per_layer"] if trace else spec["end_to_end"]
            problems += _check_result(result, metrics, label)
            for name in (m["name"] for m in described["printed"]):
                if _line_value(lines, name + " ") is None:
                    problems.append(f"{label}: no {name} line")
            digests.add((_line_value(lines, "digest sha256 ") or "missing").split()[0])
            if trace:
                counts.append(json.loads(_line_value(lines, "exact_counts ") or "null"))
            print(f"ran {label}: attempted {result['attempted']}", flush=True)
        if len(digests) != 1:
            problems.append(f"{workload}: same seed gave different digests {digests}")
        if counts[0] is None or counts[0] != counts[1]:
            problems.append(f"{workload}: same seed gave different exact counts {counts}")
    for problem in problems:
        print(f"problem: {problem}")
    print("smoke: " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
