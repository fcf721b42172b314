"""Every component's ``stats()`` is one flat dict of canonical counter names.

PR 6 unified every counter name onto ``_total`` / ``_seconds`` suffixes and
kept the pre-unification spellings as aliases for one release; this pins
their removal — dashboards reading the bare names must fail loudly, not
silently double-count.  The table below pins the shape: each component's
``stats()`` maps ``str`` names to ``int`` / ``float`` values, never to a
nested dict, so it can be registered as a metrics provider unchanged.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest

import repro
from repro.core.bounds import WaterBand
from repro.net import AdmissionController, ConnectionPool, SQLServer
from repro.persist.wal import WriteAheadLog
from repro.serve.batcher import ReadBatcher
from repro.serve.cache import WaterBandResultCache
from repro.serve.maintenance import MaintenanceWorker

from tests.serve.conftest import build_corpus_server

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


# -- one flat shape, component by component -----------------------------------------------


@contextmanager
def served_view(corpus, tmp_path, wal: bool):
    server = build_corpus_server(corpus[:40], shards=2, wal=tmp_path / "wal" if wal else None)
    try:
        for doc in corpus[:5]:
            server.insert_example(doc.entity_id, doc.label)
        server.flush(timeout=30)
        server.labels_of([doc.entity_id for doc in corpus[:10]])
        yield server
    finally:
        server.close(timeout=30)


@contextmanager
def read_batcher(corpus, tmp_path):
    batcher = ReadBatcher(lambda keys: {key: key for key in keys})
    batcher.read_many([1, 2, 3])
    yield batcher


@contextmanager
def maintenance_worker(corpus, tmp_path):
    yield MaintenanceWorker(host=None)


@contextmanager
def result_cache(corpus, tmp_path):
    band = WaterBand(-0.1, 0.1)
    cache = WaterBandResultCache(band_supplier=lambda: band, reorg_supplier=lambda: 0)
    cache.lookup(1)
    yield cache


@contextmanager
def write_ahead_log(corpus, tmp_path):
    log = WriteAheadLog(tmp_path / "wal", fresh=True)
    try:
        yield log
    finally:
        log.close()


@contextmanager
def admission_controller(corpus, tmp_path):
    yield AdmissionController()


@contextmanager
def sql_front_door(corpus, tmp_path, component):
    conn = repro.connect()
    conn.execute("CREATE TABLE items (id integer PRIMARY KEY)")
    try:
        with SQLServer(conn.engine) as server:
            pool = ConnectionPool(server.host, server.port, size=2)
            try:
                with pool.connection() as client:
                    client.execute("SELECT COUNT(*) FROM items")
                yield {"SQLServer": server, "ConnectionPool": pool}[component]
            finally:
                pool.close()
    finally:
        conn.close()


COMPONENTS = {
    "ViewServer": lambda corpus, tmp_path: served_view(corpus, tmp_path, wal=False),
    "ViewServer-with-wal": lambda corpus, tmp_path: served_view(corpus, tmp_path, wal=True),
    "ReadBatcher": read_batcher,
    "MaintenanceWorker": maintenance_worker,
    "WaterBandResultCache": result_cache,
    "WriteAheadLog": write_ahead_log,
    "AdmissionController": admission_controller,
    "SQLServer": lambda corpus, tmp_path: sql_front_door(corpus, tmp_path, "SQLServer"),
    "ConnectionPool": lambda corpus, tmp_path: sql_front_door(corpus, tmp_path, "ConnectionPool"),
}


@pytest.mark.parametrize("component", sorted(COMPONENTS))
def test_stats_is_one_flat_dict_of_numbers(component, serve_corpus, tmp_path):
    with COMPONENTS[component](serve_corpus, tmp_path) as built:
        stats = built.stats()
    assert stats
    for key, value in stats.items():
        assert isinstance(key, str), key
        assert not isinstance(value, (dict, bool)), key
        assert isinstance(value, (int, float)), key
    assert not LEGACY_KEYS & stats.keys()
