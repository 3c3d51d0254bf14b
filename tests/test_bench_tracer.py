"""The benchmark tracer patches entry points that still exist.

bench/tracer.py wraps package functions and methods by name, and only a
traced benchmark run would notice one that a refactor renamed or moved.
"""
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    targets = tracer.Tracer()._targets()
    assert targets
    missing = [(owner.__name__, attr) for owner, attr, *_ in targets if attr not in vars(owner)]
    assert missing == []
