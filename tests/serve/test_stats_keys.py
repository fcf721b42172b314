"""The serving stats dicts expose canonical snake_case keys only.

PR 6 unified every counter name onto ``_total`` / ``_seconds`` suffixes and
kept the pre-unification spellings as aliases for one release; this pins
their removal — dashboards reading the bare names must fail loudly, not
silently double-count.
"""

from __future__ import annotations

from repro.core.bounds import WaterBand
from repro.serve.batcher import ReadBatcher
from repro.serve.cache import WaterBandResultCache
from repro.serve.maintenance import MaintenanceWorker

LEGACY_KEYS = {
    "rounds",
    "requests",
    "adaptive_window_s",
    "batches_applied",
    "ops_applied",
    "hits",
    "misses",
    "invalidations",
}


def test_batcher_stats_have_no_legacy_aliases():
    batcher = ReadBatcher(lambda keys: {key: key for key in keys})
    batcher.read(1)
    stats = batcher.stats()
    assert not LEGACY_KEYS & stats.keys()
    assert stats.keys() == {"rounds_total", "requests_total", "largest_batch", "avg_batch"}


def test_cache_stats_have_no_legacy_aliases():
    band = WaterBand(-0.1, 0.1)
    cache = WaterBandResultCache(band_supplier=lambda: band, reorg_supplier=lambda: 0)
    stats = cache.stats()
    assert not LEGACY_KEYS & stats.keys()
    assert {"hits_total", "misses_total", "invalidations_total"} <= stats.keys()


def test_maintenance_stats_have_no_legacy_aliases():
    worker = MaintenanceWorker(host=None)
    stats = worker.stats()
    assert not LEGACY_KEYS & stats.keys()
    assert {"batches_applied_total", "ops_applied_total"} <= stats.keys()
