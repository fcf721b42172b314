"""Tests for the benchmark harness and table rendering."""

from __future__ import annotations

import pytest

from repro.bench.harness import (
    ExperimentResult,
    build_maintained_view,
    build_maintainer,
    build_store,
    run_eager_update_experiment,
    run_lazy_all_members_experiment,
    run_single_entity_experiment,
)
from repro.bench.reporting import format_bytes, format_table, speedup
from repro.core.maintainers import HazyEagerMaintainer, NaiveLazyMaintainer
from repro.core.stores import HybridEntityStore, InMemoryEntityStore, OnDiskEntityStore
from repro.exceptions import ConfigurationError
from repro.workloads import dblife_like


@pytest.fixture(scope="module")
def dataset():
    return dblife_like(scale=0.12, seed=3)


class TestBuilders:
    def test_build_store_variants(self):
        assert isinstance(build_store("mainmemory"), InMemoryEntityStore)
        assert isinstance(build_store("ondisk"), OnDiskEntityStore)
        assert isinstance(build_store("hybrid"), HybridEntityStore)

    def test_build_store_unknown(self):
        with pytest.raises(ConfigurationError):
            build_store("floppy")

    def test_build_maintainer_variants(self):
        store = build_store("mainmemory")
        assert isinstance(build_maintainer("hazy", "eager", store), HazyEagerMaintainer)
        assert isinstance(build_maintainer("naive", "lazy", build_store("mainmemory")), NaiveLazyMaintainer)

    def test_build_maintainer_unknown(self):
        with pytest.raises(ConfigurationError):
            build_maintainer("psychic", "eager", build_store("mainmemory"))

    def test_build_maintained_view_bulk_loads(self, dataset):
        view = build_maintained_view(dataset, "mainmemory", "hazy", "eager")
        assert view.store.count() == dataset.entity_count()
        assert view.strategy == "hazy"


class TestExperimentResult:
    def test_throughput_computation(self):
        result = ExperimentResult("x", operations=100, wall_seconds=2.0, simulated_seconds=4.0)
        assert result.simulated_ops_per_second == pytest.approx(25.0)
        assert result.wall_ops_per_second == pytest.approx(50.0)

    def test_zero_cost_gives_infinite_rate(self):
        result = ExperimentResult("x", operations=10, wall_seconds=0.0, simulated_seconds=0.0)
        assert result.simulated_ops_per_second == float("inf")


class TestExperiments:
    def test_eager_update_experiment_runs(self, dataset):
        result = run_eager_update_experiment(dataset, "mainmemory", "hazy", warmup=40, timed=20)
        assert result.operations == 20
        assert result.simulated_seconds > 0.0
        assert result.wall_seconds > 0.0

    def test_hazy_reclassifies_fewer_tuples_than_naive(self, dataset):
        # At this tiny scale the absolute throughputs are dominated by fixed
        # per-update costs, so the robust claim is about work: Hazy touches far
        # fewer tuples per update than the naive full rescan.
        naive = run_eager_update_experiment(dataset, "mainmemory", "naive", warmup=60, timed=30)
        hazy = run_eager_update_experiment(dataset, "mainmemory", "hazy", warmup=60, timed=30)
        assert hazy.detail["tuples_reclassified"] < naive.detail["tuples_reclassified"]

    def test_ondisk_slower_than_mainmemory_for_naive(self, dataset):
        ondisk = run_eager_update_experiment(dataset, "ondisk", "naive", warmup=30, timed=10)
        mainmemory = run_eager_update_experiment(dataset, "mainmemory", "naive", warmup=30, timed=10)
        assert ondisk.simulated_ops_per_second < mainmemory.simulated_ops_per_second

    def test_lazy_all_members_experiment_runs(self, dataset):
        result = run_lazy_all_members_experiment(
            dataset, "mainmemory", "hazy", warmup=40, scans=4, updates_between_scans=2
        )
        assert result.operations == 4
        assert result.detail["tuples_scanned"] >= 0

    def test_hazy_lazy_scans_fewer_tuples(self, dataset):
        naive = run_lazy_all_members_experiment(
            dataset, "mainmemory", "naive", warmup=40, scans=4, updates_between_scans=2
        )
        hazy = run_lazy_all_members_experiment(
            dataset, "mainmemory", "hazy", warmup=40, scans=4, updates_between_scans=2
        )
        assert hazy.detail["tuples_scanned"] < naive.detail["tuples_scanned"]

    def test_single_entity_experiment_runs(self, dataset):
        result = run_single_entity_experiment(
            dataset, "hybrid", "hazy", "eager", warmup=40, reads=200
        )
        assert result.operations == 200
        assert "epsmap_hits" in result.detail

    def test_hybrid_reads_faster_than_ondisk(self, dataset):
        ondisk = run_single_entity_experiment(dataset, "ondisk", "hazy", "eager", warmup=40, reads=150)
        hybrid = run_single_entity_experiment(dataset, "hybrid", "hazy", "eager", warmup=40, reads=150)
        assert hybrid.simulated_ops_per_second > ondisk.simulated_ops_per_second


class TestReporting:
    def test_format_table_alignment_and_title(self):
        rows = [{"a": 1, "b": "x"}, {"a": 22, "b": "yy", "c": 3.5}]
        text = format_table(rows, title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "a" in lines[1] and "b" in lines[1] and "c" in lines[1]
        assert len(lines) == 2 + 1 + len(rows)

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="empty")

    def test_float_rendering(self):
        text = format_table([{"value": 0.000123}, {"value": 12345.6}, {"value": 0.5}])
        assert "0.000123" in text
        assert "0.50" in text

    def test_speedup(self):
        assert speedup(10.0, 2.0) == pytest.approx(5.0)
        assert speedup(10.0, 0.0) == float("inf")

    def test_format_bytes(self):
        assert format_bytes(512) == "512.0B"
        assert format_bytes(2048) == "2.0KB"
        assert format_bytes(5 * 1024 * 1024) == "5.0MB"
        assert format_bytes(3 * 1024**3) == "3.0GB"
