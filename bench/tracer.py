"""Span tracing of the ``ussim`` layers, wrapped from outside the package.

``Tracer.installed()`` replaces each traced entry point where its caller
looks it up: methods on their class, imported functions on the module that
imported them (``ussim.protocol.pack_rows``, ``ussim.simlab.run_distribution``
and so on). Every call then records a span: id, parent span, op id, name,
start, end, self time (duration minus the time of its child spans) and a
few counts. Spans stay in memory until the run writes them out.
"""
from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict

_clock = time.perf_counter


def _size_of_result(args, kwargs, result):
    return len(result)


def _rows_of_result(args, kwargs, result):
    return result.shape[0]


def _draw_attrs(args, kwargs, result):
    # draw_shared(self, n_bits, side); side may come by keyword
    store = args[0]
    side = kwargs["side"] if "side" in kwargs else args[2]
    noisy = side == store.noisy_side and store.flip_prob > 0
    return (len(result), noisy)


class Tracer:
    """Records spans for calls into the package while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.op: int | str | None = None
        self.networks: list = []  # Network objects built during the current op
        self._stack: list[list] = []  # [span id, seconds covered by children]
        self._next_id = 0

    def call(self, name: str, fn, *args, attrs=None, **kwargs):
        """Run fn as one span; attrs(args, kwargs, result) gives its counts."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        frame = [span_id, 0.0]
        self._stack.append(frame)
        done = False
        start = _clock()
        try:
            result = fn(*args, **kwargs)
            done = True
            return result
        finally:
            end = _clock()
            self._stack.pop()
            duration = end - start
            if parent is not None:
                parent[1] += duration
            counts = attrs(args, kwargs, result) if done and attrs else None
            self.spans.append((span_id, parent[0] if parent else None, self.op, name,
                               start, end, duration - frame[1], counts))

    def _wrap(self, name: str, fn, attrs):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, attrs=attrs, **kwargs)
        return wrapper

    def _network_attrs(self, args, kwargs, result):
        self.networks.append(args[0])
        return None

    def _targets(self):
        from ussim import keystore, protocol, secparams, simlab

        P, K, S = protocol, keystore, simlab
        return [
            (secparams.ProtocolParams, "build", "secparams.build", None),
            (secparams, "solve_k", "secparams.solve_k", None),
            (S, "solve_k", "secparams.solve_k", None),
            (K.Network, "__init__", "keystore.network_build", self._network_attrs),
            (K.LinkKeyStore, "draw_shared", "keystore.draw", _draw_attrs),
            (K.LinkKeyStore, "otp_transfer", "keystore.otp", _size_of_result),
            (P, "pack_rows", "bitops.pack", _size_of_result),
            (P, "unpack_rows", "bitops.unpack", _rows_of_result),
            (P, "tags_of_arrays", "hashing.tag", _size_of_result),
            (S, "tags_of_arrays", "hashing.tag", _size_of_result),
            (P, "run_distribution", "protocol.distribution", None),
            (S, "run_distribution", "protocol.distribution", None),
            (P.Sender, "prepare", "protocol.prepare", None),
            (P.Recipient, "receive_batch", "protocol.receive_batch", None),
            (P.Recipient, "make_partition", "protocol.partition", None),
            (P.Recipient, "send_share", "protocol.share", None),
            (P.Sender, "sign", "protocol.sign", None),
            (P.Recipient, "verify", "protocol.verify", None),
            (P, "forward_chain", "protocol.forward_chain", None),
            (P.Signature, "to_bytes", "protocol.encode", _size_of_result),
            (P.Signature, "from_bytes", "protocol.decode", None),
            (S, "sweep_error_tolerance", "simlab.sweep_error_tolerance", None),
        ]

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced entry point for the duration of the block."""
        undo = []
        try:
            for owner, attr, name, attrs in self._targets():
                raw = vars(owner)[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__, attrs))
                else:
                    new = self._wrap(name, raw, attrs)
                setattr(owner, attr, new)
                undo.append((owner, attr, raw))
            yield self
        finally:
            for owner, attr, raw in reversed(undo):
                setattr(owner, attr, raw)

    def check_spans(self, tolerance: float = 1e-6) -> list[str]:
        """Self times are non-negative and add up to each op's wall time."""
        problems = []
        self_sum: dict = defaultdict(float)
        roots = {}
        for span_id, parent, op, name, start, end, self_s, _ in self.spans:
            if self_s < -tolerance:
                problems.append(f"span {span_id} ({name}) has self time {self_s}")
            self_sum[op] += self_s
            if parent is None:
                if op in roots:
                    problems.append(f"op {op} has more than one root span")
                roots[op] = end - start
        for op, wall in roots.items():
            if abs(self_sum[op] - wall) > tolerance * max(1.0, wall):
                problems.append(f"op {op}: self times add to {self_sum[op]}, wall is {wall}")
        return problems

    def table(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, summed counts."""
        names = {span[0]: span[3] for span in self.spans}
        rows: dict[str, dict] = {}
        for span_id, parent, op, name, start, end, self_s, counts in self.spans:
            row = rows.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += self_s
            if name == "keystore.draw":
                bits, noisy = counts
                row["bits"] = row.get("bits", 0) + bits
                if noisy:
                    row["noisy_calls"] = row.get("noisy_calls", 0) + 1
                    row["noisy_bits"] = row.get("noisy_bits", 0) + bits
                    row["noisy_self_s"] = row.get("noisy_self_s", 0.0) + self_s
            elif counts is not None:
                row["count"] = row.get("count", 0) + counts
            if name == "protocol.distribution" and names.get(parent, "").startswith("simlab."):
                row["under_simlab"] = row.get("under_simlab", 0) + 1
        return rows

    def write_spans(self, path) -> None:
        """One JSON array per line: id, parent, op, name, start, end, self, counts."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# Per-layer metrics: name -> (unit, better, end-to-end metric it should move,
# workloads it mainly shows on). Times and counts are totals over the traced
# set-up plus the workload's window of ops; see layer_metrics.
LAYER_METRICS = {
    "cli.import_s": ("s", "lower", "setup_s", "all"),
    "secparams.build_s": ("s", "lower", "setup_s, ops_per_s", "all; qsweep_noisy"),
    "secparams.build_calls": ("count", "lower", "setup_s, ops_per_s", "all; qsweep_noisy"),
    "secparams.solve_k_s": ("s", "lower", "ops_per_s", "qsweep_noisy"),
    "secparams.solve_k_calls": ("count", "lower", "ops_per_s", "qsweep_noisy"),
    "keystore.network_build_s": ("s", "lower", "ops_per_s", "qsweep_noisy, honest_paper"),
    "keystore.networks_built": ("count", "lower", "ops_per_s", "qsweep_noisy, honest_paper"),
    "keystore.draw_s": ("s", "lower", "ops_per_s, op_p50_s", "honest_paper, qsweep_noisy"),
    "keystore.draw_calls": ("count", "lower", "ops_per_s, op_p50_s", "honest_paper, qsweep_noisy"),
    "keystore.draw_bits": ("count", "lower", "ops_per_s, op_p50_s", "honest_paper, qsweep_noisy"),
    "keystore.draw_noisy_s": ("s", "lower", "ops_per_s", "qsweep_noisy only; zero elsewhere"),
    "keystore.draw_noisy_bits": ("count", "lower", "ops_per_s", "qsweep_noisy only; zero elsewhere"),
    "keystore.otp_self_s": ("s", "lower", "ops_per_s", "honest_paper, qsweep_noisy"),
    "keystore.otp_calls": ("count", "lower", "ops_per_s", "honest_paper, qsweep_noisy"),
    "keystore.otp_payload_bits": ("count", "lower", "ops_per_s", "honest_paper, qsweep_noisy"),
    "keystore.consumed_bits": ("count", "lower", "none: must stay fixed", "honest workloads, qsweep_noisy"),
    "keystore.drawn_per_consumed": ("ratio", "lower", "ops_per_s: falls if pads stop being drawn", "honest workloads, qsweep_noisy"),
    "bitops.pack_s": ("s", "lower", "ops_per_s, op_p50_s", "honest_wide, honest_paper"),
    "bitops.packed_rows": ("count", "lower", "ops_per_s, op_p50_s", "honest_wide, honest_paper"),
    "bitops.unpack_s": ("s", "lower", "ops_per_s, op_p50_s", "honest_wide, honest_paper"),
    "bitops.unpacked_rows": ("count", "lower", "ops_per_s, op_p50_s", "honest_wide, honest_paper"),
    "hashing.tag_s": ("s", "lower", "ops_per_s", "honest_wide, honest_paper"),
    "hashing.tag_calls": ("count", "lower", "ops_per_s", "honest_wide, honest_paper"),
    "hashing.tags_computed": ("count", "lower", "ops_per_s", "honest_wide, honest_paper"),
    "hashing.tags_per_op": ("count", "lower", "ops_per_s", "honest_wide, honest_paper"),
    "protocol.prepare_s": ("s", "lower", "ops_per_s, op_p50_s", "honest_paper, qsweep_noisy"),
    "protocol.receive_batch_s": ("s", "lower", "ops_per_s, op_p50_s", "honest_paper, qsweep_noisy"),
    "protocol.partition_s": ("s", "lower", "ops_per_s, op_p50_s", "honest_paper, qsweep_noisy"),
    "protocol.share_s": ("s", "lower", "ops_per_s, op_p50_s", "honest_paper, qsweep_noisy"),
    "protocol.sign_s": ("s", "lower", "ops_per_s", "honest workloads, qsweep_noisy"),
    "protocol.verify_s": ("s", "lower", "ops_per_s", "honest workloads, qsweep_noisy"),
    "protocol.verify_calls": ("count", "lower", "ops_per_s", "honest workloads, qsweep_noisy"),
    "protocol.encode_s": ("s", "lower", "ops_per_s, op_p50_s", "honest_wide, honest_paper"),
    "protocol.decode_s": ("s", "lower", "ops_per_s, op_p50_s", "honest_wide, honest_paper"),
    "protocol.wire_bytes": ("count", "lower", "ops_per_s, op_p50_s", "honest_wide, honest_paper"),
    "simlab.self_s": ("s", "lower", "ops_per_s", "qsweep_noisy"),
    "simlab.redraws": ("count", "lower", "ops_per_s", "qsweep_noisy"),
    "trace.overhead_ratio": ("ratio", "higher", "none; reported", "all"),
}

# Counts that must repeat exactly between two runs with the same seed.
EXACT_COUNTS = ("keystore.consumed_bits", "hashing.tags_computed",
                "protocol.wire_bytes", "simlab.redraws")


def layer_metrics(table: dict[str, dict], *, ops: int, consumed_bits: int,
                  import_s: float, overhead_ratio: float) -> dict[str, float]:
    """Turn the span table into the per-layer metrics, in LAYER_METRICS order."""
    def get(name, key, default=0):
        return table.get(name, {}).get(key, default)

    draw_bits = get("keystore.draw", "bits")
    tags = get("hashing.tag", "count")
    values = {
        "cli.import_s": import_s,
        "secparams.build_s": get("secparams.build", "self_s", 0.0),
        "secparams.build_calls": get("secparams.build", "calls"),
        "secparams.solve_k_s": get("secparams.solve_k", "self_s", 0.0),
        "secparams.solve_k_calls": get("secparams.solve_k", "calls"),
        "keystore.network_build_s": get("keystore.network_build", "self_s", 0.0),
        "keystore.networks_built": get("keystore.network_build", "calls"),
        "keystore.draw_s": get("keystore.draw", "self_s", 0.0),
        "keystore.draw_calls": get("keystore.draw", "calls"),
        "keystore.draw_bits": draw_bits,
        "keystore.draw_noisy_s": get("keystore.draw", "noisy_self_s", 0.0),
        "keystore.draw_noisy_bits": get("keystore.draw", "noisy_bits"),
        "keystore.otp_self_s": get("keystore.otp", "self_s", 0.0),
        "keystore.otp_calls": get("keystore.otp", "calls"),
        "keystore.otp_payload_bits": get("keystore.otp", "count"),
        "keystore.consumed_bits": consumed_bits,
        "keystore.drawn_per_consumed": draw_bits / consumed_bits if consumed_bits else 0.0,
        "bitops.pack_s": get("bitops.pack", "self_s", 0.0),
        "bitops.packed_rows": get("bitops.pack", "count"),
        "bitops.unpack_s": get("bitops.unpack", "self_s", 0.0),
        "bitops.unpacked_rows": get("bitops.unpack", "count"),
        "hashing.tag_s": get("hashing.tag", "self_s", 0.0),
        "hashing.tag_calls": get("hashing.tag", "calls"),
        "hashing.tags_computed": tags,
        "hashing.tags_per_op": tags / ops,
        "protocol.prepare_s": get("protocol.prepare", "self_s", 0.0),
        "protocol.receive_batch_s": get("protocol.receive_batch", "self_s", 0.0),
        "protocol.partition_s": get("protocol.partition", "self_s", 0.0),
        "protocol.share_s": get("protocol.share", "self_s", 0.0),
        "protocol.sign_s": get("protocol.sign", "self_s", 0.0),
        "protocol.verify_s": get("protocol.verify", "self_s", 0.0),
        "protocol.verify_calls": get("protocol.verify", "calls"),
        "protocol.encode_s": get("protocol.encode", "self_s", 0.0),
        "protocol.decode_s": get("protocol.decode", "self_s", 0.0),
        "protocol.wire_bytes": get("protocol.encode", "count"),
        "simlab.self_s": get("simlab.sweep_error_tolerance", "self_s", 0.0),
        "simlab.redraws": get("protocol.distribution", "under_simlab"),
        "trace.overhead_ratio": overhead_ratio,
    }
    assert list(values) == list(LAYER_METRICS)
    return values
