"""The benchmark's workloads: parameters, one operation, and its output check.

A workload builds its protocol parameters once (set-up) and then runs
operations indexed 0, 1, 2, ... Operation i receives only inputs derived
from (workload name, seed, i), so a run's outputs depend on the seed alone.
Each operation goes through the public API of the ``ussim`` package, looked
up on its module at call time so that the tracer's wrappers apply. After an
operation returns, ``check`` validates its outputs and returns their
canonical bytes, which the run folds into its output digest.

Importing this module imports ``ussim``; ``run.py`` times that import as
part of set-up, so it imports this module only after starting the clock.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any

from ussim import hashing, keystore, protocol, secparams, simlab


class CheckFailed(Exception):
    """An operation's outputs broke one of the benchmark's checks."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _op_words(workload: str, seed: int, index: int) -> bytes:
    return hashlib.sha256(f"ussim-bench/{workload}/{seed}/{index}".encode()).digest()


def _op_seed(words: bytes) -> int:
    return int.from_bytes(words[:8], "big") >> 2  # below 2**62, as simlab's seeds


@dataclass
class Workload:
    """Common shape: set-up, per-op inputs, the op itself and its check."""

    name: str
    why: str
    n: int
    a: int
    t: int
    k: int
    window: int  # ops in the output digest and in the traced window
    params: Any = field(default=None, init=False)

    def describe(self) -> dict:
        return {
            "name": self.name,
            "why": self.why,
            "n": self.n,
            "a": self.a,
            "t": self.t,
            "k": self.k,
            "window_ops": self.window,
            **self.extra(),
        }

    def extra(self) -> dict:
        return {}

    def setup(self) -> None:
        """Program work before the first op: parameters and lazy caches."""
        self.params = secparams.ProtocolParams.build(self.n, self.a, self.t, k=self.k)
        hashing.find_irreducible(self.a)

    def prepare_checks(self) -> None:
        """Benchmark-only reference values, computed outside set-up timing."""

    def inputs(self, seed: int, index: int) -> tuple:
        raise NotImplementedError

    def run(self, *inputs) -> Any:
        raise NotImplementedError

    def check(self, inputs: tuple, out: Any) -> bytes:
        raise NotImplementedError


@dataclass
class _HonestOut:
    network: Any
    signature: Any
    blob: bytes
    decoded: Any
    results: list
    chain: list


class Honest(Workload):
    """Distribute, sign, wire round trip, verify everywhere, forward."""

    def extra(self) -> dict:
        return {"network": "noiseless", "verify_level": "l_max"}

    def prepare_checks(self) -> None:
        p = self.params
        self.expected_consumed = secparams.consumption(p, secparams.CostMode.ACCOUNTING).total_bits

    @property
    def chain_len(self) -> int:
        # as run_honest: one hop per level from l_max down to 0
        return min(self.params.l_max + 1, self.params.n_recipients)

    def inputs(self, seed: int, index: int) -> tuple:
        words = _op_words(self.name, seed, index)
        message = int.from_bytes(words[8:], "big") % (1 << self.a)
        return _op_seed(words), message

    def run(self, net_seed: int, message: int) -> _HonestOut:
        p = self.params
        network = keystore.Network(
            keystore.NetworkConfig(n_users=p.n_recipients + 1, seed=net_seed)
        )
        sender, recipients = protocol.run_distribution(network, p)
        signature = sender.sign(message)
        blob = signature.to_bytes()
        decoded = protocol.Signature.from_bytes(blob)
        results = [r.verify(decoded, p.l_max) for r in recipients]
        chain = protocol.forward_chain(decoded, recipients[: self.chain_len], p.l_max)
        return _HonestOut(network, signature, blob, decoded, results, chain)

    def check(self, inputs: tuple, out: _HonestOut) -> bytes:
        p = self.params
        _, message = inputs
        _require(out.decoded == out.signature, "from_bytes(to_bytes(sig)) != sig")
        _require(out.signature.message == message, "signature carries another message")
        _require(len(out.results) == p.n_recipients, "missing verify results")
        _require(all(r.accepted for r in out.results), "an honest verifier rejected")
        _require(len(out.chain) == self.chain_len, "forwarding chain stopped early")
        _require(all(r.accepted for r in out.chain), "a forwarding hop rejected")
        consumed = sum(out.network.total_consumed().values())
        _require(consumed == self.expected_consumed, f"metered {consumed} bits, "
                 f"accounting says {self.expected_consumed}")
        counts = [c for r in (*out.results, *out.chain) for c in r.mismatch_counts]
        return b"".join([
            message.to_bytes((self.a + 7) // 8, "big"),
            repr(counts).encode(),
            out.blob,
        ])


@dataclass(kw_only=True)
class QSweep(Workload):
    """One sweep_error_tolerance point on a noisy network."""

    columns = ("q", "expected_mismatch_fraction", "s_adjusted", "k", "id_bits",
               "total_bits_accounting", "total_bits_literal", "trials", "passes",
               "pass_prob", "wilson_low", "wilson_high")

    q: float
    margin: float
    trials: int

    def extra(self) -> dict:
        return {"q": self.q, "margin": self.margin, "trials": self.trials}

    def prepare_checks(self) -> None:
        # The k the sweep must report: the point's own re-solved k.
        p = self.params
        e_q = simlab.expected_mismatch_fraction(self.q, p.msg_len_bits, p.tag_len_bits)
        spec = secparams.SLevelSpec(eps1=e_q + self.margin, eps2=0.5 - p.s_levels[-1])
        self.expected_k = secparams.solve_k(p.p_target, p.n_recipients, p.l_max, spec,
                                            d_r=p.d_r)

    def inputs(self, seed: int, index: int) -> tuple:
        return (_op_seed(_op_words(self.name, seed, index)),)

    def run(self, sweep_seed: int):
        return simlab.sweep_error_tolerance(
            [self.q], self.params, margin=self.margin, trials=self.trials, seed=sweep_seed
        )

    def check(self, inputs: tuple, out) -> bytes:
        _require(out.columns == self.columns, "unexpected sweep columns")
        _require(len(out.rows) == 1, "one q value must give one row")
        row = dict(zip(out.columns, out.rows[0]))
        _require(row["q"] == self.q, "row for another q")
        _require(row["k"] == self.expected_k, f"k {row['k']} != solve_k {self.expected_k}")
        _require(row["trials"] == self.trials, "row for another trial count")
        _require(0 <= row["passes"] <= self.trials, "passes outside [0, trials]")
        _require(row["pass_prob"] == row["passes"] / self.trials, "pass_prob != passes/trials")
        _require(row["wilson_low"] <= row["pass_prob"] <= row["wilson_high"],
                 "Wilson interval misses the pass rate")
        return out.to_csv().encode()


# One line each; BENCHMARK.json carries the same sentences.
WHY = {
    "honest_paper": "paper size n=7 a=8 k=906: per-call cost of key-store draws and bit packing over a noiseless network",
    "honest_wide": "a=128 t=32 k=100: the only workload on the object-dtype path, bound by hashing and bit packing volume",
    "qsweep_noisy": "the only noisy workload: dense flip masks, noisy draws and a k re-solve per op",
}


def make_workloads(smoke: bool = False) -> dict[str, Workload]:
    """The workloads, at the paper's size or at a tiny smoke size."""
    if smoke:
        wls = [
            Honest("honest_paper", WHY["honest_paper"], 3, 8, 8, 16, window=2),
            Honest("honest_wide", WHY["honest_wide"], 3, 72, 16, 8, window=2),
            QSweep("qsweep_noisy", WHY["qsweep_noisy"], 3, 8, 8, 16, window=2,
                   q=1e-3, margin=0.005, trials=4),
        ]
    else:
        wls = [
            Honest("honest_paper", WHY["honest_paper"], 7, 8, 8, 906, window=64),
            # k=100 rather than the solved 900: ops of ~0.5 s instead of ~4.5 s give
            # a run enough samples for a steady median on the same code path.
            Honest("honest_wide", WHY["honest_wide"], 7, 128, 32, 100, window=6),
            QSweep("qsweep_noisy", WHY["qsweep_noisy"], 7, 8, 8, 906, window=6,
                   q=1e-4, margin=0.005, trials=16),
        ]
    return {w.name: w for w in wls}
