"""Golden outputs: SHA-256 digests of seeded runs.

Each case below runs a small, fully seeded piece of the simulator and
hashes its canonical output bytes. The digests pin behaviour, not just
properties: any change to a random stream, to the bit layout of keys and
tags, or to the acceptance arithmetic moves one of them. A change that
alters a digest on purpose must say so as a declared stream change; an
optimisation must leave all of them as they are.
"""
import hashlib

import pytest

from ussim.keystore import Network, NetworkConfig
from ussim.protocol import run_distribution
from ussim.secparams import ProtocolParams
from ussim.simlab import (
    AttackKind,
    AttackSpec,
    attack_forge,
    run_honest,
    sweep_error_tolerance,
)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _message(a: int) -> int:
    return int.from_bytes(hashlib.sha256(b"%d" % a).digest(), "big") % (1 << a)


@pytest.mark.parametrize(
    "n, a, t, k, seed, digest",
    [
        # the paper's size
        (7, 8, 8, 906, 3,
         "290848d236f71f5a685490ab202bdb14406f08eaf246123710b06939b9a48e9f"),
        # a wide field with tags that fit in 64 bits
        (3, 128, 32, 40, 5,
         "277cdae6c433b797389da9f617fe15610364a404f5536f0182cd7589df820b80"),
        # tags wider than 64 bits
        (3, 72, 72, 20, 7,
         "6c66172ecec58ebea72636931a167ecfc9231ac92a92a8e23663dd9f2eae4482"),
        # three multiplier limbs, tags wider than 64 bits
        (3, 130, 100, 12, 13,
         "4f00e881d94f536ff90747a98e276d083cc3863432617d3b13b7f5f0f5a94751"),
    ],
)
def test_signature_bytes(n, a, t, k, seed, digest):
    params = ProtocolParams.build(n, a, t, k=k)
    network = Network(NetworkConfig(n_users=n + 1, seed=seed))
    sender, recipients = run_distribution(network, params)
    signature = sender.sign(_message(a))
    assert all(r.verify(signature, params.l_max).accepted for r in recipients)
    assert _sha256(signature.to_bytes()) == digest


@pytest.mark.parametrize(
    "n, a, t, k, seed, digest",
    [
        (5, 8, 8, 100, 11,
         "980c87ee133c72c78393f3b71221d95b44778b1ec8b120f24d2ef03181a1c3ca"),
        (3, 72, 16, 30, 12,
         "176ec3e5e9535721468a8efe68c6f76757263f6f0023f6e3b948484ecac2ce91"),
    ],
)
def test_noisy_run_mismatch_counts(n, a, t, k, seed, digest):
    params = ProtocolParams.build(n, a, t, k=k)
    config = NetworkConfig(n_users=n + 1, default_flip_prob=0.01)
    outcome = run_honest(params, config, seed=seed)
    counts = [
        (r.recipient_index, r.level, r.accepted, r.mismatch_counts)
        for r in (*outcome.verify_results, *outcome.chain_results)
    ]
    assert any(c for *_, row in counts for c in row)
    assert _sha256(repr((outcome.message, counts)).encode()) == digest


def test_error_tolerance_sweep_csv():
    params = ProtocolParams.build(3, 8, 8, k=60)
    csv = sweep_error_tolerance([1e-4, 1e-3], params, margin=0.005, trials=12, seed=4).to_csv()
    assert _sha256(csv.encode()) == (
        "8baa6b1996122e1cfae613e3e30f1915a6164203bb76f2a24acbb01c19ee8d6f"
    )


def test_forge_attack_result():
    params = ProtocolParams.build(3, 8, 1, k=4)
    spec = AttackSpec(kind=AttackKind.FORGE, trials=600, seed=8, redraw_every=200)
    result = attack_forge(spec, params)
    assert result.successes > 0
    assert _sha256(repr(result).encode()) == (
        "48767f8f06869a507de841c1cd84b65c88e66a0ea8d524c724c7bc5558749ca7"
    )


def test_forge_attack_result_target_not_last():
    # only the target's links carry shares, so a target at index 0 pins
    # the link-by-link transfer order from the low end
    params = ProtocolParams.build(4, 8, 1, k=3)
    spec = AttackSpec(
        kind=AttackKind.FORGE, trials=600, seed=9, redraw_every=200, forger=2, target=0
    )
    result = attack_forge(spec, params)
    assert result.successes == 27
    assert _sha256(repr(result).encode()) == (
        "e71386b08e38c06b381ec9dfdc6903ca9f57c844f902a4b200dc63c12048a4b0"
    )
