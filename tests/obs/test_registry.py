"""The metrics registry: instruments, providers, thread-safety, exposition."""

from __future__ import annotations

import threading

import pytest

from repro.obs import (
    NULL_REGISTRY,
    Counter,
    Histogram,
    MetricsRegistry,
    render_text,
)


class TestInstruments:
    def test_counter_increments_and_rejects_negative(self):
        counter = Counter()
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_histogram_count_sum_and_quantiles(self):
        histogram = Histogram()
        for value in (0.001, 0.002, 0.004, 0.1, 2.0):
            histogram.observe(value)
        assert histogram.count == 5
        assert histogram.sum == pytest.approx(2.107)
        # The median lands inside the bucket holding the third observation.
        assert 0.0 < histogram.quantile(0.5) <= 0.1
        assert histogram.quantile(0.99) <= 10.0


class TestRegistry:
    def test_same_name_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a.b_total") is registry.counter("a.b_total")

    def test_kind_collision_raises(self):
        registry = MetricsRegistry()
        registry.counter("a.b_total")
        with pytest.raises(ValueError):
            registry.histogram("a.b_total")
        registry.histogram("a.c_seconds")
        with pytest.raises(ValueError):
            registry.counter("a.c_seconds")

    def test_collect_is_sorted_and_typed(self):
        registry = MetricsRegistry()
        registry.counter("z.last_total").inc(3)
        registry.provider("a", lambda: {"first": 1})
        registry.histogram("m.mid_seconds").observe(0.01)
        samples = registry.collect()
        names = [sample.name for sample in samples]
        assert names == sorted(names)
        kinds = {sample.name: sample.kind for sample in samples}
        assert kinds["z.last_total"] == "counter"
        assert kinds["a.first"] == "gauge"
        assert kinds["m.mid_seconds_count"] == "histogram"
        assert "m.mid_seconds_p50" in kinds

    def test_provider_sampled_lazily_and_replaceable(self):
        registry = MetricsRegistry()
        state = {"reads_total": 1}
        registry.provider("pull", lambda: state)
        state["reads_total"] = 7
        assert registry.value("pull.reads_total") == 7
        registry.provider("pull", lambda: {"reads_total": 9})
        assert registry.value("pull.reads_total") == 9
        registry.remove_provider("pull")
        assert registry.value("pull.reads_total") is None

    def test_raising_provider_is_skipped(self):
        registry = MetricsRegistry()
        registry.counter("ok_total").inc()

        def broken():
            raise RuntimeError("shard set shut down")

        registry.provider("broken", broken)
        assert [sample.name for sample in registry.collect()] == ["ok_total"]

    def test_disabled_registry_is_a_noop(self):
        assert NULL_REGISTRY.enabled is False
        NULL_REGISTRY.counter("x_total").inc(100)
        NULL_REGISTRY.histogram("x_total").observe(5.0)  # nothing registered: no collision
        NULL_REGISTRY.histogram("z_seconds").observe(1.0)
        NULL_REGISTRY.provider("p", lambda: {"v": 1})
        assert NULL_REGISTRY.collect() == []

    def test_disabled_registry_shares_null_instruments(self):
        registry = MetricsRegistry(enabled=False)
        assert registry.counter("a_total") is registry.counter("b_total")
        assert registry.histogram("a_seconds") is registry.histogram("b_seconds")

    def test_counter_thread_hammer_is_exact(self):
        registry = MetricsRegistry()
        counter = registry.counter("hammer_total")
        threads = 8
        per_thread = 2_000
        barrier = threading.Barrier(threads)

        def worker():
            barrier.wait()
            for _ in range(per_thread):
                counter.inc()

        pool = [threading.Thread(target=worker) for _ in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert counter.value == threads * per_thread

    def test_histogram_thread_hammer_is_exact(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("hammer_seconds")
        threads = 6
        per_thread = 1_000

        def worker():
            for _ in range(per_thread):
                histogram.observe(0.001)

        pool = [threading.Thread(target=worker) for _ in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert histogram.count == threads * per_thread
        assert histogram.sum == pytest.approx(threads * per_thread * 0.001)


class TestRenderText:
    def test_prometheus_style_exposition(self):
        registry = MetricsRegistry()
        registry.counter("db.reads_total").inc(2)
        registry.provider("db", lambda: {"resident_pages": 3})
        text = render_text(registry)
        assert "# TYPE db_reads_total counter" in text
        assert "db_reads_total 2" in text
        assert "db_resident_pages 3" in text
        assert text.endswith("\n")

    def test_empty_registry_renders_empty(self):
        assert render_text(MetricsRegistry()) == ""
        assert render_text(NULL_REGISTRY) == ""
