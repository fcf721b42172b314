"""Trace points and probes survive the program renaming what they name."""

import gc
import threading
import time

import pytest

from perf import measure, probes, tracing, workloads


@pytest.fixture
def thawed():
    """A measured run freezes the GC's survivors; give them back afterwards."""
    yield
    gc.unfreeze()


def test_an_unresolvable_trace_point_is_reported_missing_and_the_rest_install():
    gone = "repro.learn.sgd.SGDTrainer.absorb_was_renamed"
    tracer = tracing.Tracer({gone: "learn", "repro.learn.sgd.SGDTrainer.absorb": "learn"})
    tracer.install()
    try:
        from repro.learn.sgd import SGDTrainer

        assert SGDTrainer.absorb.__wrapped__ is not None
        assert tracer.missing == [gone]
    finally:
        tracer.remove()
    assert not hasattr(SGDTrainer.absorb, "__wrapped__")
    assert tracing.resolve("repro.no_such_module.thing") is None
    assert tracing.resolve("repro.learn.sgd.NoSuchClass.absorb") is None


def test_a_traced_run_completes_when_a_name_is_gone(monkeypatch, thawed):
    """Delete one trace target and one probe target; the run still reports every metric."""
    from repro.learn.sgd import SGDTrainer
    from repro.linalg import kernels

    monkeypatch.setitem(tracing.TRACE_POINTS, "repro.learn.sgd.SGDTrainer.absorbed", "learn")
    monkeypatch.delitem(tracing.TRACE_POINTS, "repro.learn.sgd.SGDTrainer.absorb")
    monkeypatch.delattr(kernels, "batch_margins")
    assert SGDTrainer.absorb  # the program still works; only the benchmark's name is stale
    spec = workloads.WORKLOADS["feedback_eager"].tiny()
    result = measure.run_workload(spec, seed=11, seconds=1.0, trace=True)
    assert result["failed"] == 0 and not result["problems"]
    assert any("SGDTrainer.absorbed" in name for name in result["missing"])
    assert any("batch_margins" in name for name in result["missing"])
    assert result["metrics"]["learn.sgd_step_us"] == 0.0
    assert result["metrics"]["linalg.batch_margins_us_per_row"] == 0.0
    assert result["metrics"]["linalg.margin_us"] > 0.0
    assert result["analysis"]["span_counts"].get("learn.sgd.SGDTrainer.absorbed", 0) == 0


def test_a_failing_probe_reports_zero_and_is_listed():
    collected = probes.Probes()

    def broken():
        raise AttributeError("module 'repro.x' has no attribute 'y'")

    collected.run(("a.one_us", "a.two_us"), broken)
    collected.run(("b.fine_us",), lambda: (3.0,))
    assert collected.values == {"a.one_us": 0.0, "a.two_us": 0.0, "b.fine_us": 3.0}
    assert len(collected.missing) == 1 and "a.one_us/a.two_us" in collected.missing[0]


def test_self_time_follows_a_hand_off_across_threads_and_sums_to_the_op():
    tracer = tracing.Tracer({})
    done = threading.Event()

    def worker():
        span = tracer.begin("worker.apply", "core")
        time.sleep(0.02)
        tracer.end(span)
        done.set()

    op = tracer.begin("update")
    outer = tracer.begin("client.execute", "connection")
    thread = threading.Thread(target=worker)
    thread.start()
    assert done.wait(timeout=5)
    thread.join(timeout=5)
    tracer.end(outer)
    tracer.end(op)
    analysis = tracer.analyse()
    layers = analysis["self_seconds"]["update"]
    assert layers["core"] >= 0.015  # the worker's time is the worker's, not the waiting client's
    assert abs(sum(layers.values()) - analysis["op_seconds"]["update"]) < 1e-9
    assert 0.9 < analysis["attributed_share"]["update"] <= 1.0
    assert analysis["span_counts"] == {"client.execute": 1, "update": 1, "worker.apply": 1}
