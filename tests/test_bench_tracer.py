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


def test_traced_smoke_ops_match_untraced_ops(monkeypatch):
    # one op of every smoke workload, untraced and then under the tracer:
    # the tracer's counting hooks (such as its draw and transfer counts)
    # must accept what the package returns, the spans must add up, and
    # tracing must not change the op's output
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer
    import workloads

    for name, wl in workloads.make_workloads(smoke=True).items():
        wl.setup()
        wl.prepare_checks()
        inputs = wl.inputs(7, 0)
        untraced = wl.check(inputs, wl.run(*inputs))
        spans = tracer.Tracer()
        with spans.installed():
            spans.op = 0
            traced = wl.check(inputs, spans.call("bench.op", wl.run, *inputs))
        assert spans.check_spans() == [], name
        assert traced == untraced, name
        table = spans.table()
        if name.startswith("honest"):  # a q-sweep trial reads a held view: no draw, no transfer
            assert table["keystore.draw"]["calls"] > 0, name
            assert table["keystore.otp"]["calls"] > 0, name
