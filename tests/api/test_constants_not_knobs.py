"""Settings that had one value in use are module constants, not parameters.

Each constant keeps the value its parameter defaulted to and is read when
the code runs, so a test that needs another value patches the module
attribute (as the ``sgd_constants`` fixture patches ``learn.sgd.LEARNING_RATE``).
"""

from __future__ import annotations

import inspect

import pytest

import repro
import repro.connection
import repro.core.stores.ondisk
import repro.learn
import repro.learn.sgd
import repro.net.pool
import repro.obs
import repro.serve.cache
import repro.serve.maintenance
from repro.connection import Connection
from repro.core.engine import HazyEngine
from repro.core.multiclass_view import MulticlassClassificationView
from repro.core.stores import HybridEntityStore, OnDiskEntityStore
from repro.core.view import ClassificationViewDefinition
from repro.db.costmodel import CostModel
from repro.db.sql.ast import CreateClassificationView
from repro.exceptions import ConfigurationError
from repro.learn import BatchSubgradientSVM, SGDTrainer
from repro.net import ConnectionPool, SQLServer
from repro.obs import Observability
from repro.serve.cache import WaterBandResultCache
from repro.serve.maintenance import MaintenanceWorker
from repro.serve.server import ViewServer
from repro.serve.sharding import Shard, ShardSet

#: callable -> the parameters it no longer takes.
GONE = {
    ViewServer: {"queue_capacity", "max_write_batch", "cache_capacity", "epoch_history"},
    ShardSet.build: {"cache_capacity"},
    ShardSet.restore: {"cache_capacity"},
    Shard: {"cache_capacity"},
    WaterBandResultCache: {"capacity"},
    MaintenanceWorker: {"queue_capacity", "max_batch"},
    MaintenanceWorker.enqueue: {"timeout"},
    repro.connect: {"plan_cache_size"},
    Connection: {"plan_cache_size"},
    OnDiskEntityStore: {"cost_model", "stats", "btree_order"},
    HybridEntityStore: {"cost_model", "stats", "buffer_capacity"},
    Observability: {"trace_capacity", "slow_query_capacity"},
    ConnectionPool: {"health_check", "acquire_timeout_s"},
    SQLServer: {"admission"},
    SGDTrainer: {"regularizer", "regularization", "learning_rate", "decay", "fit_bias", "seed"},
    BatchSubgradientSVM: {"seed"},
    HazyEngine: {"alpha", "buffer_fraction", "trainer_factory"},
    MulticlassClassificationView: {"trainer_factory"},
    CostModel: {"extra"},
    ClassificationViewDefinition: {"options"},
    CreateClassificationView: {"options"},
}

#: (module, constant) -> the value its parameter defaulted to.
CONSTANTS = {
    (repro.serve.maintenance, "QUEUE_CAPACITY"): 4096,
    (repro.serve.maintenance, "MAX_WRITE_BATCH"): 64,
    (repro.serve.cache, "CACHE_CAPACITY"): 100_000,
    (repro.connection, "PLAN_CACHE_SIZE"): 128,
    (repro.core.stores.ondisk, "BTREE_ORDER"): 64,
    (repro.obs, "TRACE_CAPACITY"): 128,
    (repro.obs, "SLOW_QUERY_CAPACITY"): 64,
    (repro.net.pool, "ACQUIRE_TIMEOUT_S"): 30.0,
    (repro.learn.sgd, "REGULARIZATION"): 1e-4,
    (repro.learn.sgd, "LEARNING_RATE"): 0.3,
    (repro.learn.sgd, "DECAY"): 0.02,
}


@pytest.mark.parametrize(
    "target,gone", list(GONE.items()), ids=[target.__qualname__ for target in GONE]
)
def test_a_fixed_setting_is_not_a_parameter(target, gone):
    parameters = set(inspect.signature(target).parameters)
    assert not parameters & gone, parameters & gone


@pytest.mark.parametrize(
    "module,name,value",
    [(module, name, value) for (module, name), value in CONSTANTS.items()],
    ids=[name for _, name in CONSTANTS],
)
def test_a_constant_keeps_its_old_default(module, name, value):
    assert getattr(module, name) == value


def test_serving_takes_two_options():
    assert set(HazyEngine._SERVER_OPTIONS) == {"shards", "wal"}


def test_a_removed_serving_option_is_refused_listing_the_two():
    conn = repro.connect()
    try:
        with pytest.raises(ConfigurationError) as refused:
            conn.execute("SERVE VIEW v WITH (max_write_batch = 4)")
        assert str(refused.value) == (
            "unknown serving option 'max_write_batch'; known: ['shards', 'wal']"
        )
    finally:
        conn.close()


def test_the_learner_exposes_one_penalty_and_no_epoch_training():
    assert not {"L1Penalty", "ElasticNetPenalty", "Regularizer", "get_regularizer"} & set(
        dir(repro.learn)
    )
    assert not hasattr(SGDTrainer, "fit")


@pytest.mark.parametrize("keyword,value", [("bogus", 1), ("plan_cache_size", 2), ("alpha", 1.0)])
def test_connect_refuses_a_keyword_it_does_not_take(keyword, value):
    with pytest.raises(ConfigurationError) as refused:
        repro.connect(**{keyword: value})
    assert str(refused.value) == (
        f"unknown connect option {keyword!r}; known: ['approach', 'architecture', "
        "'buffer_pool_pages', 'cost_model', 'database', 'engine', 'observability', "
        "'registry', 'strategy']"
    )
