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
from ussim.simlab import attack_forge, run_honest, sweep_error_tolerance


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _message(a: int) -> int:
    return int.from_bytes(hashlib.sha256(b"%d" % a).digest(), "big") % (1 << a)


@pytest.mark.parametrize(
    "n, a, t, k, seed, digest",
    [
        # the paper's size
        pytest.param(7, 8, 8, 906, 3,
                     "6b702e01d02e2f1f7b45a7677b1cbd0aed9c00ef0840271c75074a695f0be9c6",
                     id="7-8-8-906-3"),
        # a wide field with tags that fit in 64 bits
        pytest.param(3, 128, 32, 40, 5,
                     "d903ecbc934244271d81cda18ad881e9e94c901ab30f55e2554b37efa0efef3c",
                     id="3-128-32-40-5"),
        # tags wider than 64 bits
        pytest.param(3, 72, 72, 20, 7,
                     "3355c1200d75e5ac8f94983f310bc633199a8053688c28cc24368e3f6fcfb8e2",
                     id="3-72-72-20-7"),
        # three multiplier limbs, tags wider than 64 bits
        pytest.param(3, 130, 100, 12, 13,
                     "4868348741c3d14e74c04501e5ec1ee4af04e3e460a34cfb244022561200460a",
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
                     "4d79a38b077a981d95775c4b09411328e80e2d647164eaf0933f8f691cb42544",
                     id="5-8-8-100-11"),
        pytest.param(3, 72, 16, 30, 12,
                     "acff786669b5a769c4c18835304e480012424147552d0fdcee05c19e05c04d2e",
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
        "8259996718a8d4a90514bf0e39d046894170f31bea4fcb179cf915e3ec858ac4"
    )


def test_forge_attack_result():
    params = ProtocolParams.build(3, 8, 1, k=4)
    result = attack_forge(params, trials=600, seed=8)
    assert result.successes > 0
    assert _sha256(repr(result).encode()) == (
        "5d44b3e53bee2ee21a6baba78d54df6a86d60476f0cb64132a71906dabe6fdd2"
    )


def test_forge_attack_result_target_not_last():
    # only the target's links carry shares, so a target at index 0 pins
    # the link-by-link transfer order from the low end
    params = ProtocolParams.build(4, 8, 1, k=3)
    result = attack_forge(params, trials=600, seed=9, forger=2, target=0)
    assert result.successes == 30
    assert _sha256(repr(result).encode()) == (
        "f1a2e05a380bfa69403e480aedec8121d9db4f1e0ff3abdd9345cdef39bf15ae"
    )
