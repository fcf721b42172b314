"""Unit tests for the water-band-aware result cache."""

from __future__ import annotations

from repro.core.bounds import WaterBand
from repro.core.stores.base import EntityRecord
from repro.linalg import SparseVector
from repro.serve.cache import WaterBandResultCache


def make_record(entity_id, eps):
    return EntityRecord(entity_id, SparseVector({0: 1.0}), eps, 1 if eps >= 0 else -1)


class FakeShardState:
    def __init__(self):
        self.band = WaterBand(-0.2, 0.2)
        self.reorganizations = 0


def make_cache(state):
    return WaterBandResultCache(
        band_supplier=lambda: state.band, reorg_supplier=lambda: state.reorganizations
    )


def test_out_of_band_entities_hit():
    state = FakeShardState()
    cache = make_cache(state)
    cache.observe(make_record("p", 0.9))
    cache.observe(make_record("n", -0.7))
    assert cache.lookup("p") == 1
    assert cache.lookup("n") == -1
    assert cache.hits == 2


def test_in_band_entities_miss():
    state = FakeShardState()
    cache = make_cache(state)
    cache.observe(make_record("x", 0.05))  # inside [-0.2, 0.2]: uncertain
    assert cache.lookup("x") is None
    assert cache.misses == 1


def test_band_widening_silently_invalidates():
    state = FakeShardState()
    cache = make_cache(state)
    cache.observe(make_record("p", 0.5))
    assert cache.lookup("p") == 1
    state.band = WaterBand(-1.0, 1.0)  # model moved: 0.5 is now uncertain
    assert cache.lookup("p") is None


def test_reorganization_clears_everything():
    state = FakeShardState()
    cache = make_cache(state)
    cache.observe(make_record("p", 0.9))
    assert cache.lookup("p") == 1
    state.reorganizations += 1  # all stored eps recomputed: cache is garbage
    assert cache.lookup("p") is None
    assert cache.invalidations == 1
    assert len(cache) == 0


def test_no_band_means_no_hits():
    cache = WaterBandResultCache(band_supplier=lambda: None, reorg_supplier=lambda: 0)
    cache.observe(make_record("p", 0.9))
    assert cache.lookup("p") is None


def test_fifo_eviction_beyond_capacity(monkeypatch):
    monkeypatch.setattr("repro.serve.cache.CACHE_CAPACITY", 2)
    state = FakeShardState()
    cache = make_cache(state)
    cache.observe(make_record("a", 0.9))
    cache.observe(make_record("b", 0.9))
    cache.observe(make_record("c", 0.9))  # evicts "a"
    assert cache.lookup("a") is None
    assert cache.lookup("b") == 1
    assert cache.lookup("c") == 1


def test_evict_single_entity():
    state = FakeShardState()
    cache = make_cache(state)
    cache.observe(make_record("a", 0.9))
    cache.evict("a")
    assert cache.lookup("a") is None
