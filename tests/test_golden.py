"""Golden outputs: SHA-256 digests of seeded runs.

Each case below runs a small, fully seeded piece of the simulator and
hashes its canonical output bytes. The digests pin behaviour, not just
properties: any change to a random stream, to the bit layout of keys and
tags, or to the acceptance arithmetic moves one of them. A change that
alters a digest on purpose must say so as a declared stream change (and
bump keystore.STREAM_VERSION when the key streams move); an optimisation
must leave all of them as they are. Case ids name the parameters only, so
a recomputed digest keeps each test's name.
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
        pytest.param(7, 8, 8, 906, 3,
                     "70c7f0c224216d87d0d34ab174941e53254ee02df5b05d738539fb0500763ab2",
                     id="7-8-8-906-3"),
        # a wide field with tags that fit in 64 bits
        pytest.param(3, 128, 32, 40, 5,
                     "70a22fc816db672893518823fa4926596ec87a214d623de10cf21ad5c13f8060",
                     id="3-128-32-40-5"),
        # tags wider than 64 bits
        pytest.param(3, 72, 72, 20, 7,
                     "e5f6e60751e820ed773ec2a4bf0d5702121e8b173891d7112e89c04c143979c5",
                     id="3-72-72-20-7"),
        # three multiplier limbs, tags wider than 64 bits
        pytest.param(3, 130, 100, 12, 13,
                     "0563e030968a3a4bfd13e4bac04c67d9eae221cbeeba3f56611e1f4ff1c5f91c",
                     id="3-130-100-12-13"),
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
        pytest.param(5, 8, 8, 100, 11,
                     "bb606351c62fce807abca58e0ad89a77f0d2c535b527b175b43d9ca2dd9bf1f5",
                     id="5-8-8-100-11"),
        pytest.param(3, 72, 16, 30, 12,
                     "4847e7b9a6e40f9aa89981092f822ceae6766edb72917d2b2e1e362585e07889",
                     id="3-72-16-30-12"),
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
        "2f95c81f36abc443fe25686a1eba9b1275c63478df75e9a18b0cede9e1ca9c84"
    )


def test_forge_attack_result():
    params = ProtocolParams.build(3, 8, 1, k=4)
    spec = AttackSpec(kind=AttackKind.FORGE, trials=600, seed=8, redraw_every=200)
    result = attack_forge(spec, params)
    assert result.successes > 0
    assert _sha256(repr(result).encode()) == (
        "3c1abdfc29f1767c120338357b10678e8457b23e97e66ba212d1f21629aaf3a8"
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
